"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the solver's own code paths: the
proximal oracle minimizes the step objective by zoomed grid search; the
reference stepper is a dense unconstrained Newton loop built directly
on the assembled operators; the section bounds of a graph are read from
its parameters (a polyline's from its vertex table); the multiplier is
recovered by pairing the step equation with constants; complementarity
is checked against feasible probes; and the normal flux is recovered
from the boundary rows of the stiffness.  ``monitor_bounds`` tabulates
the package's per-run monitors over stored runs, which the streamed
eps sweep must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

from acdyn.constraint import mass, mass_tolerance
from acdyn.diagnostics import MONITOR_COLUMNS, _append_monitors, _monitor_table
from acdyn.graphs import GraphPair, Obstacle, PowerOdd, envelope, resolvent, smoothed
from acdyn.mesh import CoupledField, assemble, build_domain
from acdyn.scenario import Scenario
from acdyn.stepper import StepOperator


def make_interval(nx: int, lx: float = 1.0):
    domain = build_domain("interval", [lx], [nx])
    return domain, assemble(domain)


def make_rectangle(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0):
    domain = build_domain("rectangle", [lx, ly], [nx, ny])
    return domain, assemble(domain)


def prototype_scenario(**overrides) -> Scenario:
    """The prototype interval scenario with whole blocks replaced."""
    raw = {
        "domain": {"kind": "interval", "sizes": [1.0], "resolution": [64]},
        "graphs": {
            "bulk": {"kind": "power_odd", "coefficient": 1.0, "exponent": 3},
            "boundary": {"kind": "power_odd", "coefficient": 1.0, "exponent": 3},
            "rho": 1.0,
        },
        "perturbation": {
            "bulk": {"kind": "negate"},
            "boundary": {"kind": "negate"},
        },
        "data": {
            "u0": {"kind": "tanh_x", "center": 0.5, "width": 0.15},
        },
        "constraint": {
            "w": {"kind": "constant", "value": 1.0},
            "w_gamma": {"kind": "constant", "value": 0.0},
            "k_lo": 0.0,
            "k_hi": 0.0,
        },
        "solver": {"tau": 0.01, "T": 1.0, "eps": 0.05},
        "output": {},
    }
    raw.update(overrides)
    return Scenario.from_dict(raw)


def resolvents(gp: GraphPair, cfg, u: CoupledField) -> CoupledField:
    """The resolvents of ``u`` in the bulk and on the boundary, the ``j`` that
    ``energy`` reads."""
    return CoupledField(resolvent(gp.bulk, cfg.eps, u.bulk), resolvent(gp.bnd, cfg.eps_bnd, u.bnd))


def zero_field(sys) -> CoupledField:
    return sys.field(np.zeros(sys.n_bulk), np.zeros(sys.n_bnd))


def step_objective_terms(sys, gp: GraphPair, pert, cfg, u_prev, f_now):
    """Constant data of the per-step objective (weights and linear part)."""
    e_b, e_g = cfg.eps, cfg.eps * cfg.rho  # smoothing parameters: bulk, boundary
    lin_b = sys.M_bulk * (pert.eval_bulk(u_prev.bulk) - f_now.bulk)
    lin_g = sys.M_bnd * (pert.eval_bnd(u_prev.bnd) - f_now.bnd)
    return e_b, e_g, lin_b, lin_g


def proximal_objective_batch(sys, gp, pert, cfg, u_prev, f_now, candidates):
    """Evaluate the step objective on an (m, n_bulk) batch of states."""
    e_b, e_g, lin_b, lin_g = step_objective_terms(sys, gp, pert, cfg, u_prev, f_now)
    V = candidates
    VG = V[:, sys.bidx]
    A = sys.A_bulk.toarray()
    AG = sys.A_bnd.toarray()
    vals = 0.5 * np.einsum("mi,ij,mj->m", V, A, V)
    vals += np.asarray(moreau(gp.bulk, e_b, V)) @ sys.M_bulk
    vals += 0.5 * cfg.eps * (V**2) @ sys.M_bulk
    vals += 0.5 * np.einsum("mi,ij,mj->m", VG, AG, VG)
    vals += np.asarray(moreau(gp.bnd, e_g, VG)) @ sys.M_bnd
    vals += 0.5 * cfg.eps * (VG**2) @ sys.M_bnd
    vals += 0.5 / cfg.tau * ((V - u_prev.bulk) ** 2) @ sys.M_bulk
    vals += 0.5 / cfg.tau * ((VG - u_prev.bnd) ** 2) @ sys.M_bnd
    vals += V @ lin_b + VG @ lin_g
    return vals


def mass_coefficients(sys, cons) -> np.ndarray:
    c = sys.M_bulk * cons.w.bulk
    c[sys.bidx] += sys.M_bnd * cons.w.bnd
    return c


def bruteforce_proximal_argmin(
    sys, gp, cons, pert, cfg, u_prev, f_now,
    half_width: float = 2.0, n_axis: int = 41, passes: int = 4, zoom: float = 6.0,
):
    """Grid-search minimizer of the constrained step objective.

    Only usable at tiny sizes (three unknowns).  Equality constraints
    are handled by searching the affine feasible plane; inequality bands
    by filtering a full grid.  Returns the argmin and the final grid
    spacing per axis.
    """
    n = sys.n_bulk
    assert n == 3, "oracle is designed for the three-node interval"
    c = mass_coefficients(sys, cons)

    if cons.is_equality:
        # affine parametrization of the feasible plane
        c_unit = c / np.linalg.norm(c)
        v_part = c * (cons.k_lo / np.dot(c, c))
        basis = np.linalg.svd(c_unit.reshape(1, -1))[2][1:]  # 2 x 3 null space
        center = np.zeros(2)
        width = half_width
        spacing = None
        for _ in range(passes):
            axes = [np.linspace(center[i] - width, center[i] + width, n_axis) for i in range(2)]
            Y1, Y2 = np.meshgrid(axes[0], axes[1], indexing="ij")
            Y = np.column_stack([Y1.ravel(), Y2.ravel()])
            V = v_part + Y @ basis
            vals = proximal_objective_batch(sys, gp, pert, cfg, u_prev, f_now, V)
            best = int(np.argmin(vals))
            center = Y[best]
            spacing = 2.0 * width / (n_axis - 1)
            width = zoom * spacing
        return v_part + center @ basis, spacing

    center = u_prev.bulk.copy()
    width = half_width
    spacing = None
    for _ in range(passes):
        axes = [np.linspace(center[i] - width, center[i] + width, n_axis) for i in range(n)]
        grids = np.meshgrid(*axes, indexing="ij")
        V = np.column_stack([g.ravel() for g in grids])
        masses = V @ c
        feas = (masses >= cons.k_lo - 1e-12) & (masses <= cons.k_hi + 1e-12)
        if not np.any(feas):
            raise AssertionError("no feasible grid point; widen the oracle box")
        vals = proximal_objective_batch(sys, gp, pert, cfg, u_prev, f_now, V[feas])
        best_idx = np.flatnonzero(feas)[int(np.argmin(vals))]
        center = V[best_idx]
        spacing = 2.0 * width / (n_axis - 1)
        width = zoom * spacing
    return center, spacing


def reference_plain_step(sys, gp, pert, cfg, u_prev, f_now, tol=1e-14, max_iter=80):
    """Dense Newton step of the unconstrained flow, independent of the solver.

    Shares only the assembled operators and the scalar graph maps; the
    residual assembly, damping, and linear algebra are separate (dense).
    """
    e_b, e_g = cfg.eps, cfg.eps * cfg.rho  # smoothing parameters: bulk, boundary
    A = sys.A_bulk.toarray()
    AG = sys.A_bnd.toarray()
    Mb, Mg = sys.M_bulk, sys.M_bnd
    bidx = sys.bidx
    pi_b = pert.eval_bulk(u_prev.bulk)
    pi_g = pert.eval_bnd(u_prev.bnd)
    scale = Mb.copy()
    scale[bidx] += Mg

    def residual(u):
        ug = u[bidx]
        g = Mb * ((u - u_prev.bulk) / cfg.tau + np.asarray(yosida(gp.bulk, e_b, u))
                  + cfg.eps * u + pi_b - f_now.bulk) + A @ u
        add = Mg * ((ug - u_prev.bnd) / cfg.tau + np.asarray(yosida(gp.bnd, e_g, ug))
                    + cfg.eps * ug + pi_g - f_now.bnd) + AG @ ug
        g[bidx] += add
        return g

    u = u_prev.bulk.copy()
    for _ in range(max_iter):
        g = residual(u)
        if np.max(np.abs(g) / scale) <= tol:
            break
        ug = u[bidx]
        J = A + np.diag(Mb * (1.0 / cfg.tau + cfg.eps
                              + smoothed(gp.bulk, e_b, u)[2]))
        add = Mg * (1.0 / cfg.tau + cfg.eps + smoothed(gp.bnd, e_g, ug)[2])
        J[bidx, bidx] += add
        JG = np.zeros_like(J)
        JG[np.ix_(bidx, bidx)] = AG
        u = u - np.linalg.solve(J + JG, g)
    return u


# ---------------------------------------------------------------------------
# graphs


class GraphDomainError(ValueError):
    """Raised when a point lies outside the domain of a graph."""


def yosida(g, eps_eff: float, r):
    """The smoothed map (r - J(r)) / eps_eff."""
    return (r - resolvent(g, eps_eff, r)) / eps_eff


def moreau(g, eps_eff: float, r):
    """The smoothed envelope of the primitive at r."""
    return envelope(g, eps_eff, r, resolvent(g, eps_eff, r))


def section_bounds(g, r: float) -> tuple[float, float]:
    """Interval of the graph's values at r; raises GraphDomainError outside
    the domain (only possible for an obstacle).

    A polyline is read from its vertex table, which holds the origin as a
    vertex when a sloped segment crosses it.
    """
    if isinstance(g, PowerOdd):
        v = g.a * r**g.p
        return (v, v)
    if isinstance(g, Obstacle):
        if r < g.lo or r > g.hi:
            raise GraphDomainError(f"point {r} outside obstacle domain [{g.lo}, {g.hi}]")
        return (-math.inf if r == g.lo else 0.0, math.inf if r == g.hi else 0.0)
    vx, vy = g._vx, g._vy
    i, k = np.searchsorted(vx, r, side="left"), np.searchsorted(vx, r, side="right")
    if i < k:  # r is the abscissa of vertices i..k-1
        return (vy[i], vy[k - 1])
    v = (np.interp(r, vx, vy) + g.slope_left * min(r - vx[0], 0.0)
         + g.slope_right * max(r - vx[-1], 0.0))
    return (v, v)


def minimal_section(g, r: float) -> float:
    """Element of beta(r) with least absolute value."""
    lo, hi = section_bounds(g, float(r))
    if lo <= 0.0 <= hi:
        return 0.0
    return lo if lo > 0.0 else hi


# ---------------------------------------------------------------------------
# mesh, constraint and step


def normal_flux(sys, u: CoupledField) -> np.ndarray:
    """Variational recovery of the outward normal derivative on the boundary.

    The boundary rows of the bulk stiffness applied to ``u`` carry the
    flux pairing against boundary test functions; dividing by the
    boundary weights gives the nodal flux.
    """
    if not sys.check_trace(u):
        raise ValueError("normal flux needs a trace-consistent field")
    return (sys.A_bulk @ u.bulk)[sys.bidx] / sys.M_bnd


def total_weight(sys, c) -> float:
    """Total weight of the band: the mass of the constant field 1."""
    return mass(sys, c, sys.constant_field(1.0))


def variational_complementarity(sys, c, u, lam: float, probes, tol=None) -> bool:
    """Check lam * (w, u - z) >= -tol against every feasible probe z."""
    if tol is None:
        tol = mass_tolerance(c)
    ku = mass(sys, c, u)
    for z in probes:
        kz = mass(sys, c, z)
        if not (c.k_lo - tol <= kz <= c.k_hi + tol):
            raise ValueError("probe is not a member of the constraint set")
        if lam * (ku - kz) < -tol * (1.0 + abs(lam)):
            return False
    return True


def lambda_formula(sys, gp, cons, pert, cfg, rec, u_prev, f_now) -> float:
    """Recover the multiplier by pairing the step equation with constants.

    The gradient terms vanish against constants (both stiffness kernels
    contain them), leaving the weighted average of the remaining terms
    divided by the total weight.
    """
    u = rec.u
    du_b = (u.bulk - u_prev.bulk) / cfg.tau
    du_g = (u.bnd - u_prev.bnd) / cfg.tau
    xi_b = yosida(gp.bulk, cfg.eps, u.bulk)
    xi_g = yosida(gp.bnd, cfg.eps * cfg.rho, u.bnd)
    res_b = f_now.bulk - du_b - pert.eval_bulk(u_prev.bulk) - xi_b - cfg.eps * u.bulk
    res_g = f_now.bnd - du_g - pert.eval_bnd(u_prev.bnd) - xi_g - cfg.eps * u.bnd
    total = float(np.dot(sys.M_bulk, res_b) + np.dot(sys.M_bnd, res_g))
    return total / total_weight(sys, cons)


def proximal_step(sys, gp, cons, pert, cfg, u_prev, f_now, t: float = 0.0):
    """One step from u_prev by a fresh operator started there, which pins no
    barrier: it solves at lam = 0 first and pins the barrier that solve
    crosses."""
    op = StepOperator(sys, gp, cons, pert, cfg)
    op.start(u_prev)
    return op.step(f_now, t)


# ---------------------------------------------------------------------------
# harnesses


def with_data(scenario: Scenario, **updates) -> Scenario:
    """The scenario with entries of its data block replaced."""
    d = scenario.to_dict()
    d["data"].update(updates)
    return Scenario.from_dict(d)


def monitor_bounds(sys, gp, runs) -> dict[str, list[float]]:
    """The eps-sweep monitor table of stored ``(cfg, trajectory)`` runs, one
    entry per run in the order given."""
    table = _monitor_table()
    for cfg, traj in runs:
        _append_monitors(table, sys, gp, cfg, traj)
    return table


def monitors_no_growth(table: dict[str, list[float]]) -> bool:
    """True when no monitor column grows: max within twice the median."""
    for name in MONITOR_COLUMNS:
        vals = np.asarray(table[name], dtype=float)
        if vals.size == 0:
            continue
        if float(vals.max()) > 2.0 * float(np.median(vals)) + 1e-12:
            return False
    return True
