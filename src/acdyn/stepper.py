"""Implicit proximal time stepping with an active-set scalar multiplier.

Each step solves, in the coupled weak form and jointly for the bulk and
boundary unknowns (trace identified),

    (u - u_prev)/tau + A u + beta_eps(u) + eps*u + pi(u_prev) + lam*w = f,

which is the optimality system of the strictly convex proximal problem
over the mass band.  The Lipschitz perturbation pi is evaluated at the
previous state; this keeps every step an exact convex minimization.
One semismooth Newton routine solves the step equation, either at a
fixed multiplier or, with the mass equation w.u = k_bar appended, for
u and lam together through the bordered system [J w; w^T 0].  The
active set is a single path for every band: the step is solved at
lam = 0; if its mass lands in the band, lam = 0 exactly, and otherwise
the barrier it crossed is pinned and the bordered system is solved,
warm-started from the lam = 0 state.  The active barrier rarely changes
from one step to the next, so a step that follows a bordered one first
solves the bordered system at the barrier that step pinned, from the
previous state and multiplier: the primal-dual active-set method warm
started from the previous active set (Hintermueller, Ito and Kunisch,
SIAM J. Optim. 13, 2002).  If that converges with a multiplier of the
sign the barrier admits, it satisfies the KKT conditions of the
strictly convex step and is its minimizer; otherwise the step takes the
lam = 0 path.  Every accepted step is checked for the band, the
multiplier sign, and a proximal objective no larger than at the
previous state.

Each point (u, lam) that Newton visits is evaluated once.  One
resolvent in the bulk and one on the boundary give the smoothed-map
values and their slopes.  The residual is K0 u plus the values weighted
by the lumped masses (the boundary ones added at the trace nodes), the
constant part and lam*w; the slopes, weighted the same way, are the
diagonal that the Jacobian adds to K0.  An accepted iterate's Jacobian
is built from the slopes of its line-search evaluation, a bordered
solve after the lam = 0 one starts from the evaluation of the lam = 0
solution, and the step's record reads its residuals from the
evaluation of the solution.

The Newton Jacobian is K0 plus a nonnegative diagonal of smoothed-map
slopes, with K0 the constant mass-plus-stiffness part, so it is
symmetric positive definite and always has the sparsity pattern of K0.
K0 is built once as a sorted CSC matrix.  On the interval, whose
boundary is the two endpoints, K0 and so every J is tridiagonal: each
Newton iterate adds the slope diagonal to K0's main diagonal and
factors J = L D L^T with LAPACK (dpttrf), and its one or two solves
are back-substitutions (dpttrs); no sparse matrix is built.  Otherwise
each Jacobian adds the slope diagonal at precomputed positions of a
copy of K0's data, and linear solves with J are made by SuperLU in
symmetric mode (diagonal pivots, column order from the pattern of
A + A^T).  From one iterate to the next only the diagonal moves, and
little next to (1/tau + eps) M, so when the factorization has fill the
last factor is kept, across Newton iterates and steps, as the
preconditioner of CG on the exact current J; J is factored afresh only
when CG misses a tight tolerance within a few iterations.

A Newton iterate whose residual no step of the line search can reduce
is accepted when that residual is already at its roundoff floor,
machine epsilon times the scaled magnitudes of the terms it sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import LinearOperator, cg, splu

from . import graphs as gr
from .constraint import ConstraintSpec, mass, mass_tolerance, multiplier_sign_ok
from .mesh import SPD_SPLU, CoupledField, DiscreteSystem, coupled_matrix, inner_H

__all__ = [
    "StepError",
    "InfeasibleDataError",
    "PerturbationSpec",
    "SolverConfig",
    "StepRecord",
    "EnergyBreakdown",
    "energy",
    "StepOperator",
    "proximal_step",
    "lambda_formula",
    "simulate",
]


# CG on J(u), preconditioned by the factor of an earlier J: its relative
# tolerance keeps the Newton iterates those of a direct solve, and past
# the iteration cap one fresh factorization is cheaper than more CG
CG_RTOL = 1e-13
CG_MAXITER = 10
# keep a factor only if its L + U holds more than this many times nnz(J);
# rectangles with few nodes across fall short and factor every iterate
# (2x2 cells: 1.84, 2x10: 1.31, 8x8: 2.13, 128x128: 7.66)
REUSE_FILL_RATIO = 2.0
# accept a Newton iterate the line search cannot improve when its scaled
# residual is within this multiple of the roundoff floor
FLOOR_FACTOR = 10.0


class StepError(RuntimeError):
    """The Newton solve or a check of the accepted step failed."""


class InfeasibleDataError(ValueError):
    """Initial data violates the compatibility requirements."""


# ---------------------------------------------------------------------------
# perturbations


def _pert_eval(kind: str, params: dict, r: np.ndarray) -> np.ndarray:
    if kind == "zero":
        return np.zeros_like(r)
    if kind == "linear":
        return params["c"] * r
    if kind == "negate":
        return -r
    if kind == "sine":
        return params["amplitude"] * np.sin(params["frequency"] * r)
    raise ValueError(f"unknown perturbation kind {kind!r}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Lipschitz perturbations applied in the bulk and on the boundary."""

    bulk_kind: str = "zero"
    bnd_kind: str = "zero"
    bulk_params: dict = field(default_factory=dict)
    bnd_params: dict = field(default_factory=dict)
    lipschitz_bulk: float = 0.0
    lipschitz_bnd: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lipschitz_bulk) and math.isfinite(self.lipschitz_bnd)):
            raise ValueError("Lipschitz constants must be finite")

    def eval_bulk(self, r: np.ndarray) -> np.ndarray:
        return _pert_eval(self.bulk_kind, self.bulk_params, np.asarray(r, dtype=float))

    def eval_bnd(self, r: np.ndarray) -> np.ndarray:
        return _pert_eval(self.bnd_kind, self.bnd_params, np.asarray(r, dtype=float))

    def lipschitz_violations(self, lo: float = -5.0, hi: float = 5.0, n: int = 1001):
        """Sampled check that the declared constants bound the slopes.

        A slope that is not finite (a NaN parameter, say) is a violation.
        """
        grid = np.linspace(lo, hi, n)
        out = []
        for name, f, lip in (
            ("bulk", self.eval_bulk, self.lipschitz_bulk),
            ("bnd", self.eval_bnd, self.lipschitz_bnd),
        ):
            vals = f(grid)
            slopes = np.abs(np.diff(vals) / np.diff(grid))
            worst = float(slopes.max()) if slopes.size else 0.0
            if not worst <= lip * (1.0 + 1e-9) + 1e-12:
                out.append((name, worst, lip))
        return out


@dataclass(frozen=True)
class SolverConfig:
    tau: float
    T: float
    eps: float
    rho: float = 1.0
    newton_tol: float = 1e-11
    newton_max_iter: int = 60
    lambda_tol: float = 1e-11

    def __post_init__(self) -> None:
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        if self.newton_tol <= 0.0 or self.lambda_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass
class StepRecord:
    """State and diagnostics after one accepted step."""

    t: float
    u: CoupledField
    lam: float
    xi: CoupledField
    k: float
    energy: float
    residual_bulk: float
    residual_bnd: float


@dataclass(frozen=True)
class EnergyBreakdown:
    """The six summands of the convex energy, and their total."""

    grad_bulk: float
    envelope_bulk: float
    quad_bulk_eps: float
    grad_bnd: float
    envelope_bnd: float
    quad_bnd_eps: float

    @property
    def total(self) -> float:
        return (
            self.grad_bulk
            + self.envelope_bulk
            + self.quad_bulk_eps
            + self.grad_bnd
            + self.envelope_bnd
            + self.quad_bnd_eps
        )


def energy(
    sys: DiscreteSystem, gp: gr.GraphPair, cfg: SolverConfig, u: CoupledField
) -> EnergyBreakdown:
    """Quadrature evaluation of the energy summands at a field."""
    env_b = gr.moreau(gp.bulk, cfg.eps, u.bulk)
    env_g = gr.moreau(gp.bnd, cfg.eps * cfg.rho, u.bnd)
    return EnergyBreakdown(
        grad_bulk=0.5 * float(u.bulk @ (sys.A_bulk @ u.bulk)),
        envelope_bulk=float(np.dot(sys.M_bulk, env_b)),
        quad_bulk_eps=0.5 * cfg.eps * float(np.dot(sys.M_bulk, u.bulk**2)),
        grad_bnd=0.5 * float(u.bnd @ (sys.A_bnd @ u.bnd)),
        envelope_bnd=float(np.dot(sys.M_bnd, env_g)),
        quad_bnd_eps=0.5 * cfg.eps * float(np.dot(sys.M_bnd, u.bnd**2)),
    )


# ---------------------------------------------------------------------------
# step operator


class _Point(NamedTuple):
    """A Newton point (u, lam) with its one evaluation: the residual g and
    the slope diagonal, the part of the Jacobian at u that is not K0."""

    u: np.ndarray
    lam: float
    g: np.ndarray
    slope: np.ndarray


def _is_tridiagonal(K: sp.csc_matrix, diag_pos: np.ndarray) -> bool:
    """Whether K, a sorted CSC matrix with a symmetric pattern, is tridiagonal.

    If the entry just above each diagonal entry is in place, in the
    diagonal's own column, so is the one below it by symmetry, and
    nnz == 3n - 2 leaves room for no other.
    """
    n = K.shape[0]
    above = diag_pos[1:] - 1
    return (
        K.nnz == 3 * n - 2
        and bool(np.all(above >= K.indptr[1:-1]))
        and np.array_equal(K.indices[above], np.arange(n - 1))
    )


class StepOperator:
    """Assembled operators and solvers for one time-step configuration.

    ``K0`` holds the step-independent part of the Jacobian on the fixed
    CSC pattern, and ``diag_pos`` the data positions of its diagonal;
    both are read-only and shared by every Jacobian, which differs from
    K0 only on the diagonal.  ``tridiagonal`` tells whether K0 is
    tridiagonal (every interval, no rectangle); if so ``K0_diag`` and
    ``K0_offdiag`` hold its main diagonal and the entries just above it,
    read-only, and ``solve`` factors each Jacobian with LAPACK without
    building it.  Reused across the steps of a run.  The operator keeps
    two pieces of mutable state: on the SuperLU path the last factor
    (made at the first Newton iterate, never in ``__init__``), which
    preconditions later solves, and the pin ``(k_bar, lam)`` of the last
    bordered step (empty after ``__init__`` and after a step with
    lam = 0), at which ``step`` starts the next one.  Each ``simulate``
    builds its own.
    """

    def __init__(
        self,
        sys: DiscreteSystem,
        gp: gr.GraphPair,
        cons: ConstraintSpec,
        pert: PerturbationSpec,
        cfg: SolverConfig,
    ) -> None:
        self.sys = sys
        self.gp = gp
        self.cons = cons
        self.pert = pert
        self.cfg = cfg
        # the smoothing parameters: eps in the bulk, eps*rho on the boundary
        self.eps_bulk, self.eps_bnd = cfg.eps, cfg.eps * cfg.rho

        self.bidx = sys.bidx
        interior = np.ones(sys.n_bulk, dtype=bool)
        interior[self.bidx] = False
        self.interior = interior
        c = 1.0 / cfg.tau + cfg.eps
        Mb, Mg = sys.M_bulk, sys.M_bnd
        self.K0, self.diag_pos = coupled_matrix(sys, c * Mb, c * Mg)
        self.tridiagonal = _is_tridiagonal(self.K0, self.diag_pos)
        if self.tridiagonal:
            self.K0_diag = self.K0.data[self.diag_pos]
            self.K0_offdiag = self.K0.data[self.diag_pos[1:] - 1]
            self.K0_diag.flags.writeable = self.K0_offdiag.flags.writeable = False
        for arr in (self.K0.data, self.K0.indices, self.K0.indptr, self.diag_pos):
            arr.flags.writeable = False
        self.wvec = Mb * cons.w.bulk + self._scatter(Mg * cons.w.bnd)
        scale = Mb.copy()
        scale[self.bidx] += Mg
        self.scale = scale
        self._factor = None  # the last SuperLU factor of a Jacobian
        self._pin = None  # (k_bar, lam) of the last bordered step

    # -- small helpers ------------------------------------------------------

    def _scatter(self, vec_bnd: np.ndarray) -> np.ndarray:
        out = np.zeros(self.sys.n_bulk)
        out[self.bidx] += vec_bnd
        return out

    def constant_part(self, u_prev: CoupledField, f_now: CoupledField) -> np.ndarray:
        sys, tau = self.sys, self.cfg.tau
        pb = self.pert.eval_bulk(u_prev.bulk)
        pg = self.pert.eval_bnd(u_prev.bnd)
        b = sys.M_bulk * (pb - f_now.bulk - u_prev.bulk / tau)
        b += self._scatter(sys.M_bnd * (pg - f_now.bnd - u_prev.bnd / tau))
        return b

    def _evaluate(self, u: np.ndarray, lam: float, b_const: np.ndarray) -> _Point:
        """The residual and the slope diagonal at (u, lam), from one resolvent
        in the bulk and one on the boundary."""
        sys = self.sys
        xb, d = gr.yosida_and_slope(self.gp.bulk, self.eps_bulk, u)
        xg, dg = gr.yosida_and_slope(self.gp.bnd, self.eps_bnd, u[self.bidx])
        # weight the slopes first: the unweighted ones are freed before g
        # is formed, which keeps the heap peak of the line search down
        d = sys.M_bulk * d
        d[self.bidx] += sys.M_bnd * dg
        g = self.K0 @ u
        g += sys.M_bulk * xb
        g[self.bidx] += sys.M_bnd * xg
        g += b_const
        g += lam * self.wvec
        return _Point(u, lam, g, d)

    def residual(self, u: np.ndarray, lam: float, b_const: np.ndarray) -> np.ndarray:
        """The step equation's residual at (u, lam)."""
        return self._evaluate(u, lam, b_const).g

    def jacobian(self, slope: np.ndarray) -> sp.csc_matrix:
        """K0 plus the slope diagonal of an evaluated point, as a fresh matrix
        on K0's pattern."""
        data = self.K0.data.copy()
        data[self.diag_pos] += slope
        return sp.csc_matrix((data, self.K0.indices, self.K0.indptr), shape=self.K0.shape)

    def scaled_norm(self, g: np.ndarray) -> float:
        return float(np.max(np.abs(g) / self.scale))

    def phi_eps(self, u: CoupledField) -> float:
        """Value of the regularized convex energy at u."""
        return energy(self.sys, self.gp, self.cfg, u).total

    def proximal_objective(
        self,
        u: CoupledField,
        u_prev: CoupledField,
        f_now: CoupledField,
        energy: float | None = None,
    ) -> float:
        """The step objective at u; ``energy``, when given, is ``phi_eps(u)``."""
        sys, tau = self.sys, self.cfg.tau
        pb = self.pert.eval_bulk(u_prev.bulk)
        pg = self.pert.eval_bnd(u_prev.bnd)
        diff = u - u_prev
        quad = 0.5 / tau * inner_H(sys, diff, diff)
        lin = np.dot(sys.M_bulk * (pb - f_now.bulk), u.bulk)
        lin += np.dot(sys.M_bnd * (pg - f_now.bnd), u.bnd)
        if energy is None:
            energy = self.phi_eps(u)
        return energy + quad + float(lin)

    # -- Newton solve ---------------------------------------------------------

    def solve(
        self,
        b_const: np.ndarray,
        u_start: np.ndarray,
        lam: float = 0.0,
        k_bar: float | None = None,
    ) -> tuple[np.ndarray, float]:
        """Semismooth Newton for the step equation; returns (u, lam).

        With ``k_bar`` None the multiplier stays at ``lam``.  Otherwise
        ``lam`` is an unknown too, closed by the mass equation
        w.u = k_bar: each iteration solves the bordered system
        [J w; w^T 0] by its Schur complement, with the solves J y = g and
        J z = w.  The line search merit is the scaled residual plus the
        mass residual.
        """
        pt = self._solve(b_const, self._evaluate(u_start.copy(), lam, b_const), k_bar)
        return pt.u, pt.lam

    def _solve(self, b_const: np.ndarray, pt: _Point, k_bar: float | None = None) -> _Point:
        """``solve`` from the evaluated point ``pt``; returns the solution's point."""
        cfg = self.cfg
        bordered = k_bar is not None
        mass_tol = cfg.lambda_tol * max(1.0, abs(k_bar)) if bordered else 0.0

        def merit(pt: _Point) -> tuple[float, float]:
            r_mass = abs(self.mass_of(pt.u) - k_bar) if bordered else 0.0
            return self.scaled_norm(pt.g), r_mass

        r, r_mass = merit(pt)
        for _ in range(cfg.newton_max_iter):
            if r <= cfg.newton_tol and r_mass <= mass_tol:
                return pt
            u, lam = pt.u, pt.lam
            if self.tridiagonal:
                solve_J = self._tridiagonal_solver(pt.slope)
            else:
                solve_J = self.linear_solver(self.jacobian(pt.slope))
            d = -solve_J(pt.g)
            d_lam = 0.0
            if bordered:
                z = solve_J(self.wvec)
                d_lam = (self.mass_of(u + d) - k_bar) / self.mass_of(z)
                d -= d_lam * z
            # increment below representable improvement: at the roundoff floor
            tiny_u = np.max(np.abs(d)) <= 1e-14 * (1.0 + np.max(np.abs(u)))
            if tiny_u and abs(d_lam) <= 1e-14 * (1.0 + abs(lam)):
                return pt
            alpha = 1.0
            for _ in range(40):
                trial = self._evaluate(u + alpha * d, lam + alpha * d_lam, b_const)
                r_try, r_mass_try = merit(trial)
                if r_try + r_mass_try < r + r_mass:
                    break
                alpha *= 0.5
            else:
                floor = FLOOR_FACTOR * self.residual_floor(u, lam, b_const)
                if r <= floor and r_mass <= mass_tol:
                    return pt
                raise StepError("Newton line search failed")
            pt, r, r_mass = trial, r_try, r_mass_try
        if r <= cfg.newton_tol and r_mass <= mass_tol:
            return pt
        raise StepError(f"Newton did not converge (residual {r:.3e}, mass {r_mass:.3e})")

    def linear_solver(self, J: sp.csc_matrix) -> Callable[[np.ndarray], np.ndarray]:
        """A function solving J x = rhs, for J a Jacobian from ``jacobian``.

        With a factor of an earlier Jacobian on hand whose LU has fill,
        it runs CG on the exact J preconditioned by that factor.  If CG
        has not converged within CG_MAXITER iterations, or the factor has
        no fill, J is factored and solved directly; that factor serves
        the further solves with J, and later Jacobians as preconditioner.
        """
        exact = False

        def solve(rhs: np.ndarray) -> np.ndarray:
            nonlocal exact
            if not exact:
                factor = self._factor
                if factor is not None and factor.nnz > REUSE_FILL_RATIO * J.nnz:
                    prec = LinearOperator(J.shape, matvec=factor.solve, dtype=float)
                    x, info = cg(J, rhs, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAXITER, M=prec)
                    if info == 0:
                        return x
                self._factor, exact = splu(J, **SPD_SPLU), True
            return self._factor.solve(rhs)

        return solve

    def _tridiagonal_solver(self, slope: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """A function solving J x = rhs, for J = K0 + diag(slope) factored by
        LAPACK dpttrf."""
        d, e, info = dpttrf(self.K0_diag + slope, self.K0_offdiag)
        if info != 0:
            raise StepError(f"tridiagonal Jacobian factorization failed (dpttrf info {info})")

        def solve(rhs: np.ndarray) -> np.ndarray:
            x, info = dpttrs(d, e, rhs)
            if info != 0:
                raise StepError(f"tridiagonal Jacobian solve failed (dpttrs info {info})")
            return x

        return solve

    def residual_floor(self, u: np.ndarray, lam: float, b_const: np.ndarray) -> float:
        """Roundoff floor of ``scaled_norm(residual(u, lam, b_const))``.

        Machine epsilon times the scaled sum of the magnitudes of the
        terms the residual adds up: |K0| |u|, the smoothed-map values,
        the constant part and the multiplier term.
        """
        sys = self.sys
        mag = abs(self.K0) @ np.abs(u) + np.abs(b_const) + abs(lam) * np.abs(self.wvec)
        mag += sys.M_bulk * np.abs(gr.yosida(self.gp.bulk, self.eps_bulk, u))
        mag += self._scatter(sys.M_bnd * np.abs(gr.yosida(self.gp.bnd, self.eps_bnd, u[self.bidx])))
        return float(np.finfo(float).eps * np.max(mag / self.scale))

    def mass_of(self, u: np.ndarray) -> float:
        return float(np.dot(self.wvec, u))

    # -- full step ----------------------------------------------------------

    def step(
        self, u_prev: CoupledField, f_now: CoupledField, t: float, energy_prev: float
    ) -> StepRecord:
        """One accepted step from u_prev; ``energy_prev`` is ``phi_eps(u_prev)``."""
        cons = self.cons
        if not self.sys.check_trace(u_prev):
            raise StepError("previous state is not trace consistent")
        b_const = self.constant_part(u_prev, f_now)
        tol_k = mass_tolerance(cons)
        pt = None
        if self._pin is not None:
            # solve at the barrier the last step pinned, from its multiplier;
            # a KKT point of the strictly convex step is its minimizer
            k_bar, lam = self._pin
            start = self._evaluate(u_prev.bulk.copy(), lam, b_const)
            try:
                pt = self._solve(b_const, start, k_bar)
            except StepError:
                pt = None
            else:
                if not multiplier_sign_ok(cons, k_bar, pt.lam, tol=tol_k):
                    pt = None
        if pt is None:
            k_bar = None
            pt = self._solve(b_const, self._evaluate(u_prev.bulk.copy(), 0.0, b_const))
            m = self.mass_of(pt.u)
            if not cons.k_lo - tol_k <= m <= cons.k_hi + tol_k:
                # pin the barrier the lam = 0 step crossed
                k_bar = cons.k_hi if m > cons.k_hi else cons.k_lo
                pt = self._solve(b_const, pt, k_bar=k_bar)
        self._pin = None if k_bar is None else (k_bar, pt.lam)

        rec = self._make_record(pt, t)
        k_clamped = min(max(rec.k, cons.k_lo), cons.k_hi)
        if abs(rec.k - k_clamped) > tol_k:
            raise StepError(f"step left the mass band: k={rec.k}")
        if not multiplier_sign_ok(cons, rec.k, rec.lam, tol=tol_k):
            raise StepError("multiplier sign condition failed at the step")
        obj_new = self.proximal_objective(rec.u, u_prev, f_now, rec.energy)
        obj_old = self.proximal_objective(u_prev, u_prev, f_now, energy_prev)
        if obj_new > obj_old + 1e-9 * (1.0 + abs(obj_old)):
            raise StepError("proximal objective increased across the step")
        return rec

    def _smoothed_map(self, u: CoupledField) -> CoupledField:
        """The smoothed graph values (bulk and boundary) at u."""
        return CoupledField(
            gr.yosida(self.gp.bulk, self.eps_bulk, u.bulk),
            gr.yosida(self.gp.bnd, self.eps_bnd, u.bnd),
        )

    def _make_record(self, pt: _Point, t: float) -> StepRecord:
        """The record of the accepted point ``pt``, read from its evaluation."""
        sys = self.sys
        u = sys.field_from_bulk(pt.u)
        g = np.abs(pt.g)
        return StepRecord(
            t=t,
            u=u,
            lam=pt.lam,
            xi=self._smoothed_map(u),
            k=mass(sys, self.cons, u),
            energy=self.phi_eps(u),
            residual_bulk=float(np.max(g[self.interior] / sys.M_bulk[self.interior])),
            residual_bnd=float(np.max(g[self.bidx] / sys.M_bnd)),
        )


# ---------------------------------------------------------------------------
# public operations


def proximal_step(
    sys: DiscreteSystem,
    gp: gr.GraphPair,
    cons: ConstraintSpec,
    pert: PerturbationSpec,
    cfg: SolverConfig,
    u_prev: CoupledField,
    f_now: CoupledField,
    t: float = 0.0,
) -> StepRecord:
    """Advance one implicit step from u_prev under the data f_now."""
    op = StepOperator(sys, gp, cons, pert, cfg)
    return op.step(u_prev, f_now, t, op.phi_eps(u_prev))


def lambda_formula(
    sys: DiscreteSystem,
    gp: gr.GraphPair,
    cons: ConstraintSpec,
    pert: PerturbationSpec,
    cfg: SolverConfig,
    rec: StepRecord,
    u_prev: CoupledField,
    f_now: CoupledField,
) -> float:
    """Recover the multiplier by pairing the step equation with constants.

    The gradient terms vanish against constants (both stiffness kernels
    contain them), leaving the weighted average of the remaining terms
    divided by the total weight.
    """
    u = rec.u
    du_b = (u.bulk - u_prev.bulk) / cfg.tau
    du_g = (u.bnd - u_prev.bnd) / cfg.tau
    xi_b = gr.yosida(gp.bulk, cfg.eps, u.bulk)
    xi_g = gr.yosida(gp.bnd, cfg.eps * cfg.rho, u.bnd)
    res_b = f_now.bulk - du_b - pert.eval_bulk(u_prev.bulk) - xi_b - cfg.eps * u.bulk
    res_g = f_now.bnd - du_g - pert.eval_bnd(u_prev.bnd) - xi_g - cfg.eps * u.bnd
    total = float(np.dot(sys.M_bulk, res_b) + np.dot(sys.M_bnd, res_g))
    return total / cons.sigma0


def simulate(
    sys: DiscreteSystem,
    gp: gr.GraphPair,
    cons: ConstraintSpec,
    pert: PerturbationSpec,
    cfg: SolverConfig,
    u0: CoupledField,
    f_of_t: Callable[[float], CoupledField],
) -> list[StepRecord]:
    """Run the flow from u0 and return one record per time level.

    The initial data must satisfy the compatibility requirements: its
    mass lies in the barrier band and both primitives are integrable
    (finite at every node value).
    """
    tol_k = mass_tolerance(cons)
    k0 = mass(sys, cons, u0)
    if not (cons.k_lo - tol_k <= k0 <= cons.k_hi + tol_k):
        raise InfeasibleDataError(
            f"initial mass {k0} violates the band [{cons.k_lo}, {cons.k_hi}]"
        )
    if not np.all(np.isfinite(gp.bulk.primitive(u0.bulk))):
        raise InfeasibleDataError("bulk primitive is not finite at the initial state")
    if not np.all(np.isfinite(gp.bnd.primitive(u0.bnd))):
        raise InfeasibleDataError("boundary primitive is not finite at the initial state")
    if not sys.check_trace(u0):
        raise InfeasibleDataError("initial state is not trace consistent")

    op = StepOperator(sys, gp, cons, pert, cfg)
    records = [
        StepRecord(
            t=0.0,
            u=u0.copy(),
            lam=0.0,
            xi=op._smoothed_map(u0),
            k=k0,
            energy=op.phi_eps(u0),
            residual_bulk=0.0,
            residual_bnd=0.0,
        )
    ]
    n_steps = int(round(cfg.T / cfg.tau))
    u = u0
    for m in range(1, n_steps + 1):
        t = m * cfg.tau
        rec = op.step(u, f_of_t(t), t, records[-1].energy)
        records.append(rec)
        u = rec.u
    return records
