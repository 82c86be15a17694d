"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the solver's own code paths: the
proximal oracle minimizes the step objective by zoomed grid search, and
the reference stepper is a dense unconstrained Newton loop built
directly on the assembled operators.
"""

from __future__ import annotations

import numpy as np

from acdyn.graphs import GraphPair, moreau, yosida, yosida_and_slope
from acdyn.mesh import CoupledField, assemble, build_domain
from acdyn.scenario import Scenario


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
            "lipschitz_bulk": 1.0,
            "lipschitz_bnd": 1.0,
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
                              + yosida_and_slope(gp.bulk, e_b, u)[1]))
        add = Mg * (1.0 / cfg.tau + cfg.eps + yosida_and_slope(gp.bnd, e_g, ug)[1])
        J[bidx, bidx] += add
        JG = np.zeros_like(J)
        JG[np.ix_(bidx, bidx)] = AG
        u = u - np.linalg.solve(J + JG, g)
    return u
