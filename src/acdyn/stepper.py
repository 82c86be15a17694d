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
accepted state and multiplier: the primal-dual active-set method warm
started from the previous active set (Hintermueller, Ito and Kunisch,
SIAM J. Optim. 13, 2002).  If that converges with a multiplier of the
sign the barrier admits, it satisfies the KKT conditions of the
strictly convex step and is its minimizer; otherwise the step takes the
lam = 0 path.  Every accepted step is checked for the band, the
multiplier sign, and a proximal objective no larger than at the
previous state.

Each state is evaluated once.  One resolvent in the bulk and one on
the boundary, which the point (u, lam) keeps, give the smoothed-map
values and their slopes; when the boundary graph is the bulk one and
rho = 1, the boundary resolvent is the bulk one at the trace nodes.
The point keeps s, K0 u plus the values weighted by the lumped masses
(the boundary ones added at the trace nodes); the residual is s plus
the constant part and lam*w, and the slopes, weighted the same way,
are the diagonal that the Jacobian adds to K0.  An accepted iterate's
Jacobian is built from the slopes of its line-search evaluation, and a
bordered solve after the lam = 0 one starts from the evaluation of the
lam = 0 solution.  The operator keeps the accepted state: its point,
its record energy and the barrier it pins.  ``start`` evaluates the
initial state once, and each step starts from the kept point, moved to
that step's constant part and multiplier: only the residual is formed
again, from s.  The step's record reads its residuals from the
evaluation of the solution and its energy from the resolvents kept
there, and the objective check compares the two record energies, so no
state's energy is evaluated twice.  The energy is not read from s: s
holds the mass part H u/tau, and its roundoff, machine epsilon over
tau relative to an energy of order 1, would fail that check for tau
near 1e-9.

The Newton Jacobian is K0 plus a nonnegative diagonal of smoothed-map
slopes, with K0 = cH + A_bulk + A_bnd the constant mass-plus-stiffness
part: cH is (1/tau + eps) times the lumped masses, the boundary ones
added at the trace nodes, and A_bnd acts at the trace rows and columns.
So J is symmetric positive definite and always has the sparsity pattern
of A_bulk.  The operator stores no copy of K0: it applies K0 from its
parts, A_bulk u, plus A_bnd u at the trace nodes where the boundary
carries stiffness, plus cH u, and builds K0 only to make a Jacobian, by
``coupled_matrix`` from cH as a fresh CSC matrix on the pattern of
A_bulk, exact zeros kept, with the slopes added at its diagonal.  On the
interval, whose boundary is the two endpoints, K0 and so every J is
tridiagonal: its main diagonal and the entries above it are read once
from A_bulk, cH added to the first, each Newton iterate
adds the slope diagonal to that main diagonal and factors
J = L D L^T with LAPACK (dpttrf), and its one or two solves are
back-substitutions (dpttrs); no sparse matrix is built.  On a rectangle
linear solves with J are made by SuperLU in symmetric mode (diagonal
pivots, column order from the pattern of A + A^T), and J is dropped once
it is factored.  The last factor is kept across Newton iterates
and steps, with the slope diagonal it was made from and, once a
bordered iterate needs it, the solve J z = w.  A slope diagonal equal
to that one gives the factored J itself, so the solve is the factor's,
with no Jacobian built; this is every iterate of an obstacle graph
while no node reaches the obstacle, where the slopes are exactly 0.
Otherwise only the diagonal has moved, and little next to
(1/tau + eps) M, so Newton first takes chord steps (simplified Newton;
Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM
1995, 5.4): the direction is solved with the kept factor, with no
Jacobian built and no CG, and its full step is tried once.  A chord
trial that does not lower the merit is redone as an exact step, and an
accepted one that cuts the merit by less than a factor THETA is the
last, unless it is the landing step of a bordered solve, from an
iterate off its mass; either way the rest of that Newton solve takes
exact steps.  An exact step builds the current J; when the
factorization has fill the kept factor preconditions CG on it, and J is
factored afresh only when CG misses a tight tolerance within a few
iterations, or when the kept factor has no fill.

Newton has one stopping rule (Kelley, 5.4): the mass residual within
the mass tolerance that the band and sign checks read, and the scaled
residual at most newton_tol or at most its roundoff floor, machine
epsilon times the scaled operands it sums.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import LinearOperator, cg, splu

from . import graphs as gr
from .constraint import ConstraintSpec, mass, mass_tolerance, multiplier_sign_ok
from .mesh import SPD_SPLU, CoupledField, DiscreteSystem, coupled_matrix

__all__ = [
    "StepError",
    "InfeasibleDataError",
    "PerturbationSpec",
    "perturbation_errors",
    "SolverConfig",
    "solver_config_errors",
    "StepRecord",
    "energy",
    "StepOperator",
    "time_grid_errors",
    "initial_data_errors",
    "Problem",
    "iter_steps",
    "simulate",
]


# CG on J(u), preconditioned by the factor of an earlier J: its relative
# tolerance keeps the Newton iterates those of a direct solve, and past
# the iteration cap one fresh factorization is cheaper than more CG
CG_RTOL = 1e-13
CG_MAXITER = 10
# a chord step on the kept factor must cut the merit by this factor, or the
# rest of the Newton solve takes exact steps
THETA = 0.25
# precondition CG with the kept factor only if its L + U holds more than
# this many times nnz(J); rectangles with few nodes across fall short and
# factor every iterate whose slope diagonal differs from the factored one
# (2x2 cells: 1.84, 2x10: 1.31, 8x8: 2.13, 128x128: 7.66)
REUSE_FILL_RATIO = 2.0
# the roundoff floor is computed only within this multiple of newton_tol, or at a stall
NEAR_TOL = 100.0
# the roundoff floor forms |A_bulk| |u| in blocks of rows whose |data| holds
# at most this many entries (256 KB); a whole copy, 1.2 MB on 128x128 cells,
# set the heap peak of a run.  The interval and rectangles up to about
# 60x60 cells take one block, 128x128 about five.
FLOOR_BLOCK_NNZ = 2**15


class StepError(RuntimeError):
    """The Newton solve or a check of the accepted step failed."""


class InfeasibleDataError(ValueError):
    """Initial data violates the compatibility requirements."""


# ---------------------------------------------------------------------------
# perturbations


# each perturbation kind: the parameters it reads, its map, and the map's
# exact Lipschitz constant
_PERTURBATIONS = {
    "zero": ((), lambda p, r: np.zeros_like(r), lambda p: 0.0),
    "linear": (("c",), lambda p, r: p["c"] * r, lambda p: abs(p["c"])),
    "negate": ((), lambda p, r: -r, lambda p: 1.0),
    "sine": (
        ("amplitude", "frequency"),
        lambda p, r: p["amplitude"] * np.sin(p["frequency"] * r),
        lambda p: abs(p["amplitude"] * p["frequency"]),
    ),
}


def perturbation_errors(spec: dict) -> list[str]:
    """The violations, labelled (perturbation), of the PerturbationSpec fields
    ``spec``: an unknown kind, a parameter its kind reads that is missing or
    is not a real number, a Lipschitz constant that is not finite.  The
    constructor raises them."""
    errors, finite = [], True
    for side in ("bulk", "bnd"):
        kind, params = spec[f"{side}_kind"], spec[f"{side}_params"]
        if not (isinstance(kind, str) and kind in _PERTURBATIONS):
            errors.append(f"(perturbation) unknown perturbation kind {kind!r}")
            continue
        names, _, lipschitz = _PERTURBATIONS[kind]
        if missing := [name for name in names if name not in params]:
            errors += [f"(perturbation) {name!r} is missing from the {side} {kind} perturbation"
                       for name in missing]
            continue
        try:
            # float() of each parameter also rejects an integer beyond the
            # float range that the constant does not see (amplitude * 0)
            values = [float(params[name]) for name in names] + [float(lipschitz(params))]
        except (TypeError, ValueError, OverflowError) as exc:
            errors.append(f"(perturbation) the {side} {kind} parameters must be real numbers: {exc}")
            continue
        finite = finite and all(map(math.isfinite, values))
    if not finite:
        errors.append("(perturbation) Lipschitz constants must be finite")
    return errors


@dataclass(frozen=True)
class PerturbationSpec:
    """Lipschitz perturbations applied in the bulk and on the boundary; the
    catalog fixes each one's exact Lipschitz constant from its parameters."""

    bulk_kind: str = "zero"
    bnd_kind: str = "zero"
    bulk_params: dict = field(default_factory=dict)
    bnd_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if errors := perturbation_errors(vars(self)):
            raise ValueError("; ".join(errors))

    def eval_bulk(self, r: np.ndarray) -> np.ndarray:
        return _PERTURBATIONS[self.bulk_kind][1](self.bulk_params, np.asarray(r, dtype=float))

    def eval_bnd(self, r: np.ndarray) -> np.ndarray:
        return _PERTURBATIONS[self.bnd_kind][1](self.bnd_params, np.asarray(r, dtype=float))

    @property
    def lipschitz_bulk(self) -> float:
        return float(_PERTURBATIONS[self.bulk_kind][2](self.bulk_params))

    @property
    def lipschitz_bnd(self) -> float:
        return float(_PERTURBATIONS[self.bnd_kind][2](self.bnd_params))


def time_grid_errors(tau: float, T: float) -> list[str]:
    """The (solver) violations of the time grid: T must be a whole number >= 1 of steps tau."""
    n = T / tau
    if not math.isfinite(n):
        return [f"(solver) T={T!r} is too many steps of tau={tau!r}"]
    if round(n) < 1 or abs(n - round(n)) > 1e-9 * n:
        return [f"(solver) T={T!r} is not a whole multiple of tau={tau!r}"]
    return []


def solver_config_errors(cfg: dict) -> list[str]:
    """The violations of the SolverConfig fields ``cfg``, labelled with the
    scenario block that holds each: (finite) a solver value that is not
    finite; (solver) a tau, T or newton_tol that is not positive, an eps
    outside (0, 1], a newton_max_iter that is not an integer >= 1; (graphs)
    a rho that is not positive and finite.  Without these, the violations
    of :func:`time_grid_errors`.  The constructor raises them."""
    names = ("tau", "T", "eps", "newton_max_iter", "newton_tol")
    bad = [name for name in names if not math.isfinite(cfg[name])]
    errors = [f"(finite) non-finite solver values in {', '.join(bad)}"] if bad else []
    errors += [f"(solver) {name}={cfg[name]!r} must be positive"
               for name in ("tau", "T", "newton_tol")
               if name not in bad and not cfg[name] > 0.0]
    if "eps" not in bad and not 0.0 < cfg["eps"] <= 1.0:
        errors.append("(solver) eps must lie in (0, 1]")
    iters = cfg["newton_max_iter"]
    if "newton_max_iter" not in bad and not (isinstance(iters, numbers.Integral) and iters >= 1):
        errors.append(f"(solver) newton_max_iter={iters!r} must be an integer >= 1")
    if not 0.0 < cfg["rho"] < math.inf:
        errors.append("(graphs) rho must be positive and finite")
    return errors or time_grid_errors(cfg["tau"], cfg["T"])


@dataclass(frozen=True)
class SolverConfig:
    tau: float
    T: float
    eps: float
    rho: float = 1.0
    newton_tol: float = 1e-11
    newton_max_iter: int = 60

    def __post_init__(self) -> None:
        if errors := solver_config_errors(vars(self)):
            raise ValueError("; ".join(errors))

    @property
    def eps_bnd(self) -> float:
        """The smoothing parameter of the boundary graph."""
        return self.eps * self.rho


@dataclass
class StepRecord:
    """State and diagnostics after one accepted step."""

    t: float
    u: CoupledField
    lam: float
    k: float
    energy: float
    residual_bulk: float
    residual_bnd: float


def energy(
    sys: DiscreteSystem, gp: gr.GraphPair, cfg: SolverConfig, u: CoupledField, j: CoupledField
) -> float:
    """Quadrature energy at a field whose resolvents in the bulk and on the boundary
    are ``j``: gradient, envelope, eps terms per side; not finite where they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            0.5 * float(u.bulk @ (sys.A_bulk @ u.bulk))
            + float(np.dot(sys.M_bulk, gr.envelope(gp.bulk, cfg.eps, u.bulk, j.bulk)))
            + 0.5 * cfg.eps * float(np.dot(sys.M_bulk, u.bulk**2))
            + 0.5 * float(u.bnd @ (sys.A_bnd @ u.bnd))
            + float(np.dot(sys.M_bnd, gr.envelope(gp.bnd, cfg.eps_bnd, u.bnd, j.bnd)))
            + 0.5 * cfg.eps * float(np.dot(sys.M_bnd, u.bnd**2))
        )


# ---------------------------------------------------------------------------
# step operator


class _Point(NamedTuple):
    """A Newton point (u, lam) with its one evaluation: the residual g, the
    slope diagonal, the part of the Jacobian at u that is not K0, the
    resolvents j of u in the bulk and of its trace on the boundary, and
    s = K0 u plus the smoothed-map values weighted by the lumped masses,
    the part of g that depends on u alone.  The accepted point keeps no g
    (None): each step forms its residual again from s."""

    u: np.ndarray
    lam: float
    g: np.ndarray | None
    slope: np.ndarray
    j: CoupledField
    s: np.ndarray


class _Accepted(NamedTuple):
    """The accepted state: its point, its record energy, and the barrier
    k_bar it pins (None for the initial state and after lam = 0)."""

    pt: _Point
    energy: float
    k_bar: float | None


class StepOperator:
    """Assembled operators and solvers for one time-step configuration.

    K0, the step-independent part of the Jacobian, is not stored: the
    operator applies it from the system's ``A_bulk`` and ``A_bnd`` and
    ``cH``, the read-only coupled diagonal of its mass part;
    ``bnd_stiffness`` tells whether ``A_bnd`` has entries, which it has on
    no interval.  ``jacobian`` builds K0 with ``coupled_matrix`` from
    ``cH`` and adds the slopes at ``sys.diag_pos``.  ``tridiagonal`` tells
    whether K0 is tridiagonal, which it is on every interval and on no
    rectangle; if so ``K0_diag`` and ``K0_offdiag`` hold its main diagonal
    and the entries just above it, read-only, read from ``A_bulk`` with
    ``cH`` added to the first, and ``linear_solver`` factors each
    Jacobian with LAPACK without building it.  ``shared_trace`` tells
    whether the boundary graph and its smoothing parameter are the bulk
    ones, so that each evaluation reads the boundary resolvent from the
    bulk one.  A run calls ``start`` with its initial state, then ``step``
    once per time level.  The operator
    keeps two pieces of mutable state.  The first, on the SuperLU path, is
    the last factor with the slope diagonal of its Jacobian, a read-only
    copy, and the read-only solve J z = w of a bordered iterate on it, made
    during Newton solves, never in ``__init__``; ``linear_solver`` alone
    reads and writes it.  Later solves at that slope use the factor
    directly, chord steps use it for other slopes while they contract by
    THETA, and the exact steps after them are preconditioned by it.  The
    second is the accepted state (an ``_Accepted``), set by ``start`` and
    replaced by each step that passes its checks: the next step starts from
    its point, kept without its residual, and first solves at the barrier
    it pins, from its multiplier.
    Each run of ``iter_steps`` builds its own operator.
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

        self.bidx = sys.bidx
        interior = np.ones(sys.n_bulk, dtype=bool)
        interior[self.bidx] = False
        self.interior = interior
        c = 1.0 / cfg.tau + cfg.eps
        Mb, Mg = sys.M_bulk, sys.M_bnd
        # the mass part of K0, the coupled diagonal of every Jacobian
        cH = c * Mb
        cH[self.bidx] += c * Mg
        cH.flags.writeable = False
        self.cH = cH
        self.bnd_stiffness = sys.A_bnd.nnz > 0
        self.tridiagonal = sys.domain.kind == "interval"
        if self.tridiagonal:
            # read straight from A_bulk, which on the interval is K0 - cH
            A_data, diag_pos = sys.A_bulk.data, sys.diag_pos
            self.K0_diag = A_data[diag_pos] + cH
            self.K0_offdiag = A_data[diag_pos[1:] - 1]
            self.K0_diag.flags.writeable = self.K0_offdiag.flags.writeable = False
        self.wvec = Mb * cons.w.bulk + self._scatter(Mg * cons.w.bnd)
        scale = Mb.copy()
        scale[self.bidx] += Mg
        self.scale = scale
        # equal graphs smoothed with equal parameters: the boundary resolvent
        # is the bulk one at the trace nodes
        self.shared_trace = gp.bnd == gp.bulk and cfg.eps_bnd == cfg.eps
        self._factor = None  # the last SuperLU factor of a Jacobian
        self._factor_slope = None  # the slope diagonal of that Jacobian
        self._factor_w = None  # J^-1 w for that Jacobian, once solved
        self._state = None  # the _Accepted state, from start on

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
        in the bulk and one on the boundary, which the point keeps; with a
        shared trace the boundary one is the bulk one at the trace nodes."""
        sys = self.sys
        jb, xb, d = gr.smoothed(self.gp.bulk, self.cfg.eps, u)
        if self.shared_trace:
            jg, xg, dg = jb[self.bidx], xb[self.bidx], d[self.bidx]
        else:
            jg, xg, dg = gr.smoothed(self.gp.bnd, self.cfg.eps_bnd, u[self.bidx])
        # d and xb are fresh arrays: weight them in place, and form s in xb,
        # so that one array fewer is live when the residual is formed, which
        # keeps the heap peak of the line search down; K0 u is added as its
        # parts, A_bulk u, A_bnd u at the trace nodes and cH u
        d *= sys.M_bulk
        d[self.bidx] += sys.M_bnd * dg
        s = xb
        s *= sys.M_bulk
        s += sys.A_bulk @ u
        if self.bnd_stiffness:
            s[self.bidx] += sys.A_bnd @ u[self.bidx]
        s += self.cH * u
        s[self.bidx] += sys.M_bnd * xg
        return _Point(u, lam, self._residual(s, lam, b_const), d, CoupledField(jb, jg), s)

    def _residual(self, s: np.ndarray, lam: float, b_const: np.ndarray) -> np.ndarray:
        """The residual g = s + b_const + lam*w of a point whose u part is s."""
        g = s + b_const
        g += lam * self.wvec
        return g

    def _moved(self, pt: _Point, lam: float, b_const: np.ndarray) -> _Point:
        """The evaluated point ``pt`` moved to the multiplier lam and the
        constant part b_const: only its residual is formed again, from s.
        Not by ``_replace``: each of its tuples, made from an iterator, stays
        on the interpreter's free list, 88 bytes of traced heap per step."""
        return _Point(pt.u, lam, self._residual(pt.s, lam, b_const), pt.slope, pt.j, pt.s)

    def jacobian(self, slope: np.ndarray) -> sp.csc_matrix:
        """K0 plus the slope diagonal of an evaluated point: K0 built by
        ``coupled_matrix`` from ``cH`` as a fresh CSC matrix, the format
        SuperLU factors, with the slopes added at ``sys.diag_pos``."""
        J = coupled_matrix(self.sys, self.cH)
        J.data[self.sys.diag_pos] += slope
        return J

    def scaled_norm(self, g: np.ndarray) -> float:
        scaled = np.abs(g)
        scaled /= self.scale
        return float(scaled.max())

    # -- Newton solve ---------------------------------------------------------

    def _solve(self, b_const: np.ndarray, pt: _Point, k_bar: float | None = None) -> _Point:
        """Semismooth Newton for the step equation from the evaluated point
        ``pt``; returns the solution's point.

        With ``k_bar`` None the multiplier stays at ``pt.lam``.  Otherwise
        lam is an unknown too, closed by the mass equation w.u = k_bar:
        each iteration solves the bordered system [J w; w^T 0] by its
        Schur complement, with the solves J y = g and J z = w.  The line
        search merit is the scaled residual plus the mass residual.  Each
        iterate takes its solves from ``linear_solver``: on the SuperLU
        path, chord steps on the kept factor until one is rejected or
        contracts the merit by less than THETA, and exact steps from then
        on; chord iterates count against ``newton_max_iter``.  Every
        success passes ``converged``, a stall (no exact trial improves) too.
        """
        cfg = self.cfg
        bordered = k_bar is not None
        mass_tol = mass_tolerance(self.cons) if bordered else 0.0

        def merit(pt: _Point) -> tuple[float, float]:
            r_mass = abs(self.mass_of(pt.u) - k_bar) if bordered else 0.0
            return self.scaled_norm(pt.g), r_mass

        def converged(pt: _Point, r: float, r_mass: float, stalled: bool = False) -> bool:
            near = stalled or r <= NEAR_TOL * cfg.newton_tol
            return r_mass <= mass_tol and (
                r <= cfg.newton_tol or (near and r <= self.residual_floor(pt, b_const)))

        # a trial past the float range has a merit that is not finite, which
        # compares below no other: a rejected trial, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            r, r_mass = merit(pt)
            chord = True  # chord steps on the kept factor allowed
            for _ in range(cfg.newton_max_iter):
                if converged(pt, r, r_mass):
                    return pt
                u, lam = pt.u, pt.lam
                solve_J, solve_w, chord_step = self.linear_solver(pt.slope, chord)
                d = -solve_J(pt.g)
                d_lam = 0.0
                if bordered:
                    z = solve_w()
                    d_lam = (self.mass_of(u + d) - k_bar) / self.mass_of(z)
                    d -= d_lam * z
                # a chord step tries the full step once; an iterate it does not
                # improve is redone with the exact step, and so is the rest of
                # the call after a poor contraction
                alpha = 1.0
                for _ in range(1 if chord_step else 40):
                    trial = self._evaluate(u + alpha * d, lam + alpha * d_lam, b_const)
                    r_try, r_mass_try = merit(trial)
                    if r_try + r_mass_try < r + r_mass:
                        break
                    alpha *= 0.5
                else:
                    if chord_step:
                        chord = False
                        continue
                    if converged(pt, r, r_mass, stalled=True):
                        return pt
                    raise StepError("Newton line search failed")
                # the landing step of a bordered solve, from an iterate off its
                # mass, trades the mass residual for a residual that the next
                # chord steps cut: it is not judged against THETA
                landing = r_mass > mass_tol
                if chord_step and not landing and r_try + r_mass_try > THETA * (r + r_mass):
                    chord = False
                pt, r, r_mass = trial, r_try, r_mass_try
            if converged(pt, r, r_mass):
                return pt
            raise StepError(f"Newton did not converge (residual {r:.3e}, mass {r_mass:.3e})")

    def linear_solver(
        self, slope: np.ndarray, chord: bool
    ) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[], np.ndarray], bool]:
        """The solves of one Newton iterate, for J = K0 + diag(slope): a
        function solving J x = rhs, one returning the solve of w with the
        same matrix, and whether that matrix is the kept factor standing in
        for J, a chord step, which only a true ``chord`` allows.

        On the interval J is factored by LAPACK dpttrf.  On a rectangle the
        kept factor solves if made from ``slope`` or in a chord step, and
        its read-only solve of w is made once per factor.  Otherwise J is
        built, and with a kept factor whose LU has fill, CG runs on J
        preconditioned by that factor.  If CG has not converged within
        CG_MAXITER iterations, the norm of its right-hand side or an entry
        of its result is not finite, or the factor has no fill, J is
        factored and solved directly, and J is dropped; that factor and
        ``slope`` are kept, serve the further solves with J, and later
        Jacobians.
        """
        if self.tridiagonal:
            d, e, info = dpttrf(self.K0_diag + slope, self.K0_offdiag)
            if info != 0:
                raise StepError(f"tridiagonal Jacobian factorization failed (dpttrf info {info})")

            def solve_tridiagonal(rhs: np.ndarray) -> np.ndarray:
                x, info = dpttrs(d, e, rhs)
                if info != 0:
                    raise StepError(f"tridiagonal Jacobian solve failed (dpttrs info {info})")
                return x

            return solve_tridiagonal, lambda: solve_tridiagonal(self.wvec), False
        factor = self._factor
        same = factor is not None and np.array_equal(slope, self._factor_slope)
        if factor is not None and (chord or same):

            def solve_w_kept() -> np.ndarray:
                if self._factor_w is None:
                    self._factor_w = factor.solve(self.wvec)
                    self._factor_w.flags.writeable = False
                return self._factor_w

            return factor.solve, solve_w_kept, not same
        J = self.jacobian(slope)

        def solve(rhs: np.ndarray) -> np.ndarray:
            nonlocal J
            if J is not None:
                factor = self._factor
                if factor is not None and factor.nnz > REUSE_FILL_RATIO * J.nnz:
                    prec = LinearOperator(J.shape, matvec=factor.solve, dtype=float)
                    # near the float limit the norms inside cg overflow,
                    # under the errstate of _solve; a right-hand side whose
                    # norm is not finite, or a result that is not finite, is
                    # a CG failure, solved by the factorization
                    x, info = cg(J, rhs, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAXITER, M=prec)
                    finite = np.isfinite(np.linalg.norm(rhs)) and np.isfinite(x).all()
                    if info == 0 and finite:
                        return x
                try:
                    self._factor = splu(J, **SPD_SPLU)
                except RuntimeError as exc:  # a singular or non-finite J
                    raise StepError(f"Jacobian factorization failed ({exc})") from None
                J = None  # the factor solves every further system with J
                self._factor_w = None
                self._factor_slope = slope.copy()
                self._factor_slope.flags.writeable = False
            return self._factor.solve(rhs)

        return solve, lambda: solve(self.wvec), False

    def residual_floor(self, pt: _Point, b_const: np.ndarray) -> float:
        """Roundoff floor of the scaled residual of the point ``pt``.

        Machine epsilon times the scaled sum of the magnitudes of the
        operands the residual adds up: those of K0 u, the parts that
        ``_evaluate`` sums, |A_bulk| |u|, |A_bnd| |u| at the trace nodes
        and cH |u|; the constant part; lam*w; and, for each smoothed-map
        value (u - j)/eps, M (|u| + |j|)/eps: the roundoff of a difference
        is that of its operands.  |A_bulk| |u| is formed one block of rows
        at a time, each a CSR matrix on A_bulk's index arrays whose data,
        the only array built, holds at most FLOOR_BLOCK_NNZ entries; each
        row is the sum the whole product forms, in the same order.
        Operands past the float range give a floor that is not finite,
        read as 0: it accepts no point.
        """
        sys, u, j, A = self.sys, pt.u, pt.j, self.sys.A_bulk
        n, indptr = sys.n_bulk, A.indptr
        with np.errstate(over="ignore"):
            abs_u = np.abs(u)
            mag = np.empty(n)
            lo = 0
            while lo < n:
                # the most rows from lo whose entries fit the budget, at least one
                hi = int(np.searchsorted(indptr, indptr[lo] + FLOOR_BLOCK_NNZ, side="right")) - 1
                hi = max(hi, lo + 1)
                start, stop = indptr[lo], indptr[hi]
                mag[lo:hi] = sp.csr_matrix(
                    (np.abs(A.data[start:stop]), A.indices[start:stop], indptr[lo:hi + 1] - start),
                    shape=(hi - lo, n),
                ) @ abs_u
                lo = hi
            if self.bnd_stiffness:
                mag[self.bidx] += abs(sys.A_bnd) @ abs_u[self.bidx]
            mag += self.cH * abs_u
            mag += np.abs(b_const)
            mag += abs(pt.lam) * np.abs(self.wvec)
            mag += sys.M_bulk * (abs_u + np.abs(j.bulk)) / self.cfg.eps
            mag[self.bidx] += sys.M_bnd * (abs_u[self.bidx] + np.abs(j.bnd)) / self.cfg.eps_bnd
            floor = float(np.finfo(float).eps * (mag / self.scale).max())
        return floor if math.isfinite(floor) else 0.0

    def mass_of(self, u: np.ndarray) -> float:
        return float(np.dot(self.wvec, u))

    # -- full step ----------------------------------------------------------

    def start(self, u: CoupledField) -> StepRecord:
        """Take the trace-consistent state ``u`` as the accepted one, with no
        barrier pinned, and return its record at t = 0, of residual 0 since
        it solves no step equation; its one evaluation starts the first step."""
        if not self.sys.check_trace(u):
            raise StepError("state is not trace consistent")
        zero = np.zeros(self.sys.n_bulk)
        pt = self._evaluate(u.bulk.copy(), 0.0, zero)
        rec = self._make_record(pt._replace(g=zero), 0.0)
        self._state = _Accepted(self._kept(pt), rec.energy, None)
        return rec

    def step(self, f_now: CoupledField, t: float) -> StepRecord:
        """One step from the accepted state to time ``t`` under the forcing
        ``f_now``; its solution becomes the accepted state once it passes the
        band, sign and objective checks, and a StepError leaves it as it was."""
        if self._state is None:
            raise StepError("start must take the initial state before the first step")
        cons = self.cons
        prev, energy_prev, k_bar = self._state
        b_const = self.constant_part(self.sys.field_from_bulk(prev.u), f_now)
        tol_k = mass_tolerance(cons)
        pt = None
        if k_bar is not None:
            # solve at the barrier the last step pinned, from its multiplier;
            # a KKT point of the strictly convex step is its minimizer
            try:
                pt = self._solve(b_const, self._moved(prev, prev.lam, b_const), k_bar)
            except StepError:
                pt = None
            else:
                if not multiplier_sign_ok(cons, k_bar, pt.lam):
                    pt = None
        if pt is None:
            k_bar = None
            pt = self._solve(b_const, self._moved(prev, 0.0, b_const))
            m = self.mass_of(pt.u)
            if not cons.k_lo - tol_k <= m <= cons.k_hi + tol_k:
                # pin the barrier the lam = 0 step crossed
                k_bar = cons.k_hi if m > cons.k_hi else cons.k_lo
                pt = self._solve(b_const, pt, k_bar=k_bar)

        rec = self._make_record(pt, t)
        k_clamped = min(max(rec.k, cons.k_lo), cons.k_hi)
        if abs(rec.k - k_clamped) > tol_k:
            raise StepError(f"step left the mass band: k={rec.k}")
        if not multiplier_sign_ok(cons, rec.k, rec.lam):
            raise StepError("multiplier sign condition failed at the step")
        if not math.isfinite(rec.energy):
            raise StepError(f"energy is not finite at the step: {rec.energy}")
        # the step objective is the energy plus |u - u_prev|^2_H/(2 tau) plus
        # lin.u, with lin = M (pi(u_prev) - f) = b_const + H u_prev/tau; on
        # trace-consistent fields H is the diagonal self.scale
        du = pt.u - prev.u
        lin = b_const + self.scale * prev.u / self.cfg.tau
        obj_old = energy_prev + float(np.dot(lin, prev.u))
        increase = rec.energy - energy_prev + 0.5 / self.cfg.tau * np.dot(self.scale, du * du)
        if increase + np.dot(lin, du) > 1e-9 * (1.0 + abs(obj_old)):
            raise StepError("proximal objective increased across the step")
        self._state = _Accepted(self._kept(pt), rec.energy, k_bar)
        return rec

    @staticmethod
    def _kept(pt: _Point) -> _Point:
        """The point ``pt`` without its residual, as the accepted state keeps it."""
        return _Point(pt.u, pt.lam, None, pt.slope, pt.j, pt.s)

    def _make_record(self, pt: _Point, t: float) -> StepRecord:
        """The record of the accepted point ``pt``, read from its evaluation:
        the residuals from its g and the energy from its resolvents.  The
        record's state is a copy, so the point stays the evaluation of the
        state it keeps."""
        sys = self.sys
        u = sys.field_from_bulk(pt.u.copy())
        g = np.abs(pt.g)
        return StepRecord(
            t=t,
            u=u,
            lam=pt.lam,
            k=mass(sys, self.cons, u),
            energy=energy(sys, self.gp, self.cfg, u, pt.j),
            residual_bulk=float((g[self.interior] / sys.M_bulk[self.interior]).max()),
            residual_bnd=float((g[self.bidx] / sys.M_bnd).max()),
        )


# ---------------------------------------------------------------------------
# public operations


@dataclass(frozen=True)
class Problem:
    """The one input of a run: an initial value problem and its solver config."""

    sys: DiscreteSystem
    graphs: gr.GraphPair
    perturbation: PerturbationSpec
    solver: SolverConfig
    constraint: ConstraintSpec
    u0: CoupledField
    f_of_t: Callable[[float], CoupledField]


def initial_data_errors(problem: Problem) -> list[str]:
    """The compatibility requirements the problem's initial data violate,
    labelled: (inidata) a boundary part that is not the trace of the bulk
    part, (p3) a mass outside the barrier band, (p4) a primitive that is
    not finite at some node value, an overflowing one among them.  The
    primitive is convex, so it is finite at every node value if it is
    finite at the smallest and the largest: (p4) reads only those two."""
    sys, gp, cons, u0 = problem.sys, problem.graphs, problem.constraint, problem.u0
    errors = []
    if not sys.check_trace(u0):
        errors.append("(inidata) initial boundary data is not the trace of the bulk data")
    k0, tol_k = mass(sys, cons, u0), mass_tolerance(cons)
    if not cons.k_lo - tol_k <= k0 <= cons.k_hi + tol_k:
        errors.append(
            f"(p3) initial mass {k0:.17g} violates "
            f"k_lo={cons.k_lo:.17g} <= k <= k_hi={cons.k_hi:.17g}"
        )
    with np.errstate(over="ignore"):
        for side, g, u in (("bulk", gp.bulk, u0.bulk), ("boundary", gp.bnd, u0.bnd)):
            if not np.all(np.isfinite(g.primitive(np.array([u.min(), u.max()])))):
                errors.append(f"(p4) {side} primitive of the initial data is not integrable")
    return errors


def iter_steps(problem: Problem) -> Iterator[StepRecord]:
    """Run the problem's flow from its initial data, yielding one record per
    time level as its step is accepted; nothing runs before the first
    ``next``.  InfeasibleDataError lists the violations of
    :func:`initial_data_errors`, and a StepError ends the run after the
    records of the steps before it."""
    if errors := initial_data_errors(problem):
        raise InfeasibleDataError("; ".join(errors))

    cfg = problem.solver
    op = StepOperator(problem.sys, problem.graphs, problem.constraint, problem.perturbation, cfg)
    yield op.start(problem.u0)
    for m in range(1, int(round(cfg.T / cfg.tau)) + 1):
        t = m * cfg.tau
        yield op.step(problem.f_of_t(t), t)


def simulate(problem: Problem) -> list[StepRecord]:
    """The records of :func:`iter_steps`, as one list."""
    return list(iter_steps(problem))
