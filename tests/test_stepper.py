"""Proximal stepping: oracle comparisons and trajectory invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import acdyn.stepper as stepper
from acdyn.constraint import (
    make_constraint,
    mass_tolerance,
    multiplier_sign_ok,
    uniform_feasible_field,
    variational_complementarity,
)
from acdyn.graphs import (
    GraphPair,
    Obstacle,
    PiecewiseLinear,
    PowerOdd,
    resolvent,
    yosida,
)
from acdyn.mesh import SPD_SPLU, Domain, _perimeter_loop, assemble, inner_H
from acdyn.stepper import (
    FLOOR_FACTOR,
    InfeasibleDataError,
    PerturbationSpec,
    SolverConfig,
    StepOperator,
    lambda_formula,
    proximal_step,
    simulate,
)

from helpers import (
    bruteforce_proximal_argmin,
    make_interval,
    make_rectangle,
    reference_plain_step,
    zero_field,
)

NEGATE = PerturbationSpec(
    bulk_kind="negate", bnd_kind="negate", lipschitz_bulk=1.0, lipschitz_bnd=1.0
)
CUBIC = GraphPair(PowerOdd(1.0, 3), PowerOdd(1.0, 3))


def bulk_weight(sys):
    return sys.field(np.ones(sys.n_bulk), np.zeros(sys.n_bnd))


def centered(sys, cons, profile):
    shift = np.dot(sys.M_bulk, profile) / cons.sigma0
    return sys.field_from_bulk(profile - shift)


class TestSingleStep:
    def test_unconstrained_matches_reference(self):
        d, s = make_interval(32)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.01, eps=0.05, newton_tol=1e-13)
        u_prev = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.5) / 0.2))
        f = s.field(np.sin(np.pi * d.coords[:, 0]), np.array([0.2, -0.1]))
        rec = proximal_step(s, CUBIC, cons, NEGATE, cfg, u_prev, f)
        assert rec.lam == 0.0
        ref = reference_plain_step(s, CUBIC, NEGATE, cfg, u_prev, f)
        assert np.max(np.abs(rec.u.bulk - ref)) <= 1e-12

    def test_stationary_pinned_case(self):
        # constant ansatz: with the weight on the bulk only and the mass
        # pinned, u stays put iff the boundary datum balances the
        # quadratic term; then lam = c - eps*m/|Omega| exactly
        d, s = make_interval(16)
        m, c, eps = 0.3, 2.0, 0.25
        cons = make_constraint(s, bulk_weight(s), m, m)
        cfg = SolverConfig(tau=0.1, T=0.1, eps=eps)
        gp = GraphPair(PowerOdd(0.0, 1), PowerOdd(0.0, 1))
        u_prev = s.constant_field(m / 1.0)
        f = s.field(np.full(s.n_bulk, c), np.full(s.n_bnd, eps * m))
        rec = proximal_step(s, gp, cons, PerturbationSpec(), cfg, u_prev, f)
        assert np.max(np.abs(rec.u.bulk - u_prev.bulk)) <= 1e-10
        assert rec.lam == pytest.approx(c - eps * m, abs=1e-9)
        got = lambda_formula(s, gp, cons, PerturbationSpec(), cfg, rec, u_prev, f)
        assert got == pytest.approx(c - eps * m, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bruteforce_oracle_micro(self, seed):
        rng = np.random.default_rng(seed)
        _, s = make_interval(2)
        gp = [CUBIC, GraphPair(Obstacle(-1.0, 1.0), PowerOdd(0.5, 1))][seed % 2]
        cfg = SolverConfig(tau=0.25, T=0.25, eps=0.4)
        w = s.field(rng.uniform(0.2, 1.0, s.n_bulk), rng.uniform(0.0, 0.5, s.n_bnd))
        if seed % 2:
            cons = make_constraint(s, w, 0.1, 0.1)
        else:
            cons = make_constraint(s, w, -0.05, 0.05)
        u_prev = centered(s, cons, rng.uniform(-0.5, 0.5, s.n_bulk))
        if cons.is_equality:
            u_prev = u_prev + uniform_feasible_field(s, cons, cons.k_lo)
            u_prev = s.field_from_bulk(u_prev.bulk)
        f = s.field(rng.uniform(-1, 1, s.n_bulk), rng.uniform(-1, 1, s.n_bnd))
        rec = proximal_step(s, gp, cons, NEGATE, cfg, u_prev, f)
        v_star, spacing = bruteforce_proximal_argmin(s, gp, cons, NEGATE, cfg, u_prev, f)
        assert np.max(np.abs(rec.u.bulk - v_star)) <= 2.5 * spacing

    def test_bordered_solve_matches_fixed_lambda(self):
        # (u*, lam*) from the joint solve is reproduced by the fixed-lam
        # solve at lam*, and its mass meets the pinned value
        d, s = make_interval(32)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.01, eps=0.05)
        op = StepOperator(s, CUBIC, cons, NEGATE, cfg)
        u_prev = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        b = op.constant_part(u_prev, zero_field(s))
        k = op.mass_of(u_prev.bulk) + 0.05
        u_star, lam_star = op.solve(b, u_prev.bulk, k_bar=k)
        assert abs(lam_star) > 1e-3
        assert abs(op.mass_of(u_star) - k) <= cfg.lambda_tol
        u_fixed, lam_fixed = op.solve(b, u_prev.bulk, lam=lam_star)
        assert lam_fixed == lam_star
        assert np.max(np.abs(u_fixed - u_star)) <= 1e-10

    def test_one_energy_per_step(self, monkeypatch):
        # each step evaluates the energy of its new state only, and its
        # objective check compares the values a fresh evaluation gives
        d, s = make_interval(32)
        cons = make_constraint(s, bulk_weight(s), -0.01, 0.01)
        cfg = SolverConfig(tau=0.01, T=0.07, eps=0.05)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        checked = []
        objective = StepOperator.proximal_objective

        def recorded(op, *args):
            value = objective(op, *args)
            checked.append((op, args[:3], value))
            return value

        energies = count_calls(monkeypatch, StepOperator, "phi_eps")
        monkeypatch.setattr(StepOperator, "proximal_objective", recorded)
        traj = simulate(s, CUBIC, cons, NEGATE, cfg, u0, lambda t: zero_field(s))
        assert len(traj) == 8 and len(energies) == 8
        assert len(checked) == 2 * 7
        for op, args, value in checked:
            assert objective(op, *args) == value

    def test_objective_increase_is_rejected(self, monkeypatch):
        # a "solution" that raises the proximal objective fails the step
        d, s = make_interval(32)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.01, eps=0.05)
        u_prev = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        solve = StepOperator._solve

        def worse(op, b, pt, k_bar=None):
            # the worse state comes with its own evaluation, as every Newton
            # point does, so the record cannot carry the solution's residual
            pt = solve(op, b, pt, k_bar)
            return op._evaluate(pt.u + 0.1 * np.cos(7.0 * d.coords[:, 0]), pt.lam, b)

        monkeypatch.setattr(StepOperator, "_solve", worse)
        with pytest.raises(stepper.StepError, match="proximal objective increased"):
            proximal_step(s, CUBIC, cons, NEGATE, cfg, u_prev, zero_field(s))


OBSTACLE = GraphPair(Obstacle(-1.0, 1.0), Obstacle(-0.5, 0.5))
# vertical segments at 0, side slopes 1
VERTICAL = GraphPair(
    PiecewiseLinear(((-0.5, -1.0), (0.0, -1.0), (0.0, 1.0), (0.5, 1.0)), 1.0, 1.0),
    PiecewiseLinear(((-0.5, -1.0), (0.0, -1.0), (0.0, 1.0), (0.5, 1.0)), 1.0, 1.0),
)


def full_jacobian(s, gp, cfg, u):
    """J assembled term by term through the trace prolongation P."""
    n, nb = s.n_bulk, s.n_bnd
    P = sp.csr_matrix((np.ones(nb), (s.bidx, np.arange(nb))), shape=(n, nb))
    c = 1.0 / cfg.tau + cfg.eps
    db = gp.bulk.yosida_slope(u, cfg.eps, resolvent(gp.bulk, cfg.eps, u))
    e_g, ug = cfg.eps * cfg.rho, u[s.bidx]
    dg = gp.bnd.yosida_slope(ug, e_g, resolvent(gp.bnd, e_g, ug))
    K0 = sp.diags(c * s.M_bulk) + s.A_bulk + P @ (sp.diags(c * s.M_bnd) + s.A_bnd) @ P.T
    return K0 + sp.diags(s.M_bulk * db) + P @ sp.diags(s.M_bnd * dg) @ P.T, db, dg


def full_residual(s, gp, cons, cfg, u, lam, b):
    """The step residual summed term by term: lumped masses, stiffness,
    smoothed maps, the boundary part scattered to the trace nodes, lam*w."""
    c = 1.0 / cfg.tau + cfg.eps
    ug = u[s.bidx]
    xb = yosida(gp.bulk, cfg.eps, u)
    xg = yosida(gp.bnd, cfg.eps * cfg.rho, ug)
    out = c * s.M_bulk * u + s.A_bulk @ u + s.M_bulk * xb
    out[s.bidx] += c * s.M_bnd * ug + s.A_bnd @ ug + s.M_bnd * xg
    w = s.M_bulk * cons.w.bulk
    w[s.bidx] += s.M_bnd * cons.w.bnd
    return out + b + lam * w


def jacobian_at(op, u):
    """The operator's Jacobian at u, from the slopes of u's evaluation."""
    return op.jacobian(op._evaluate(u, 0.0, 0.0).slope)


def slope_probe(s, seed):
    """Random state whose boundary nodes, corners included, alternate +-1.5."""
    u = np.random.default_rng(seed).uniform(-2.0, 2.0, s.n_bulk)
    u[s.bidx] = 1.5 * (-1.0) ** np.arange(s.n_bnd)
    return u


def count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that appends 1 to the returned list per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestLinearAlgebra:
    @pytest.mark.parametrize("gp", [CUBIC, OBSTACLE], ids=["cubic", "obstacle"])
    @pytest.mark.parametrize("geometry", ["interval", "rectangle"])
    def test_jacobian_matches_full_assembly(self, geometry, gp):
        _, s = make_interval(16) if geometry == "interval" else make_rectangle(5, 4)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.01, eps=0.05, rho=2.0)
        op = StepOperator(s, gp, cons, NEGATE, cfg)
        K0_data = op.K0.data.copy()
        u = slope_probe(s, 3)
        ref, db, dg = full_jacobian(s, gp, cfg, u)
        if gp is OBSTACLE:
            # u leaves [lo, hi] in the bulk and at every boundary node
            assert np.max(db) == 1.0 / cfg.eps
            assert np.all(dg == 1.0 / (cfg.eps * cfg.rho))
        J1, J2 = jacobian_at(op, u), jacobian_at(op, u)
        assert J1.format == "csc" and J1.nnz == op.K0.nnz
        ref = ref.toarray()
        assert np.max(np.abs(J1.toarray() - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert J1 is not J2 and not np.shares_memory(J1.data, J2.data)
        assert np.array_equal(J1.toarray(), J2.toarray())
        assert np.array_equal(op.K0.data, K0_data)

    @pytest.mark.parametrize("gp", [CUBIC, OBSTACLE, VERTICAL], ids=["cubic", "obstacle", "vertical"])
    @pytest.mark.parametrize("geometry", ["interval", "rectangle"])
    def test_residual_matches_term_by_term_sum(self, geometry, gp):
        _, s = make_interval(16) if geometry == "interval" else make_rectangle(5, 4)
        rng = np.random.default_rng(9)
        w = s.field(rng.uniform(0.5, 1.5, s.n_bulk), rng.uniform(0.5, 1.5, s.n_bnd))
        cons = make_constraint(s, w, -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.01, eps=0.05, rho=2.0)
        op = StepOperator(s, gp, cons, NEGATE, cfg)
        u = slope_probe(s, 10)
        b = rng.normal(size=s.n_bulk)
        for lam in (0.0, -0.7):
            ref = full_residual(s, gp, cons, cfg, u, lam, b)
            got = op.residual(u, lam, b)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_symmetric_mode_solve(self):
        _, s = make_rectangle(32, 32)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.01, eps=0.025)
        op = StepOperator(s, OBSTACLE, cons, NEGATE, cfg)
        u = slope_probe(s, 5)
        J = jacobian_at(op, u)
        g = np.random.default_rng(6).normal(size=s.n_bulk)
        x = splu(J, **SPD_SPLU).solve(g)
        assert np.linalg.norm(J @ x - g) <= 1e-12 * np.linalg.norm(g)
        y = splu(J).solve(g)
        assert np.max(np.abs(x - y)) <= 1e-10 * np.max(np.abs(y))

    def test_lagged_factor_cg_matches_direct(self, monkeypatch):
        # J(u2) solved by CG preconditioned with the factor of J(u1)
        d, s = make_rectangle(32, 32)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.01, eps=0.05)
        op = StepOperator(s, CUBIC, cons, NEGATE, cfg)
        u1 = np.tanh((d.coords[:, 0] - 0.45) / 0.1)
        u2 = u1 + 0.3 * np.sin(3 * np.pi * d.coords[:, 1])
        g = np.random.default_rng(7).normal(size=s.n_bulk)
        lus = count_calls(monkeypatch, stepper, "splu")
        op.linear_solver(jacobian_at(op, u1))(g)
        J2 = jacobian_at(op, u2)
        x = op.linear_solver(J2)(g)
        assert len(lus) == 1  # no refactorization at u2
        y = splu(J2, **SPD_SPLU).solve(g)
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    def test_rectangle_run_factors_once(self, monkeypatch):
        d, s = make_rectangle(16, 16)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.05, eps=0.05)
        u0 = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.43) / 0.11))
        lus = count_calls(monkeypatch, stepper, "splu")
        jacs = count_calls(monkeypatch, StepOperator, "jacobian")
        traj = simulate(s, CUBIC, cons, NEGATE, cfg, u0, lambda t: zero_field(s))
        assert len(traj) == 6
        assert len(lus) == 1 and len(jacs) >= 5
        for rec in traj[1:]:
            assert rec.residual_bulk <= 10 * cfg.newton_tol
            assert rec.residual_bnd <= 10 * cfg.newton_tol

    @pytest.mark.parametrize(
        "eps, k_lo, k_hi", [(0.01, -0.05, 0.05), (0.002, -math.inf, math.inf)],
        ids=["band_active", "obstacle_active"],
    )
    def test_refactor_fallback(self, monkeypatch, eps, k_lo, k_hi):
        # a forcing of 40 drives nodes across the obstacle: the slopes jump
        # from 0 to 1/eps there, CG on the old factor stalls, J is refactored
        d, s = make_rectangle(16, 16)
        w = s.field(np.ones(s.n_bulk), np.ones(s.n_bnd))
        cons = make_constraint(s, w, k_lo, k_hi)
        cfg = SolverConfig(tau=0.01, T=0.1, eps=eps)
        u0 = s.field_from_bulk(0.95 * np.sin(2 * np.pi * d.coords[:, 0]))
        f = s.field(np.full(s.n_bulk, 40.0), np.full(s.n_bnd, 40.0))
        gp = GraphPair(Obstacle(-1.0, 1.0), Obstacle(-1.0, 1.0))
        lus = count_calls(monkeypatch, stepper, "splu")
        traj = simulate(s, gp, cons, NEGATE, cfg, u0, lambda t: f)
        assert len(lus) > 1
        tol_k = mass_tolerance(cons)
        probes = [uniform_feasible_field(s, cons, k) for k in (-0.05, 0.0, 0.05)]
        for rec in traj[1:]:
            assert cons.k_lo - tol_k <= rec.k <= cons.k_hi + tol_k
            assert multiplier_sign_ok(cons, rec.k, rec.lam, tol=tol_k)
            assert variational_complementarity(s, cons, rec.u, rec.lam, probes)
            assert rec.residual_bulk <= 10 * cfg.newton_tol
            assert rec.residual_bnd <= 10 * cfg.newton_tol
        if math.isfinite(k_hi):
            assert all(rec.lam > 1.0 for rec in traj[1:])  # upper barrier pinned
        else:
            assert max(np.max(rec.u.bulk) for rec in traj) > 1.0  # obstacle active

    def test_interval_factors_every_iterate(self, monkeypatch):
        # the tridiagonal J is factored by LAPACK once per Newton iterate,
        # from the slope diagonal of that iterate's one evaluation, which
        # evaluates the graphs once in the bulk and once on the boundary;
        # no sparse Jacobian is built and SuperLU never runs
        d, s = make_interval(64)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=0.01, T=0.05, eps=0.05)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        lus = count_calls(monkeypatch, stepper, "splu")
        jacs = count_calls(monkeypatch, StepOperator, "jacobian")
        pairs = count_calls(monkeypatch, stepper.gr, "yosida_and_slope")
        evals = count_calls(monkeypatch, StepOperator, "_evaluate")
        factors = count_calls(monkeypatch, stepper, "dpttrf")
        solves = count_calls(monkeypatch, stepper, "dpttrs")
        traj = simulate(s, CUBIC, cons, NEGATE, cfg, u0, lambda t: zero_field(s))
        assert not lus and not jacs
        assert len(pairs) == 2 * len(evals)
        # one evaluation starts each step and every other one is a line
        # search trial; here each iterate takes the full Newton step
        assert len(factors) > 5 and len(evals) == len(traj) - 1 + len(factors)
        # the pinned band makes every step bordered: two solves per iterate,
        # except in the first step's lam = 0 solve; later steps start at
        # the barrier the first one pinned
        assert len(factors) < len(solves) < 2 * len(factors)

    def test_resolvents_per_step(self, monkeypatch):
        # each Newton point is evaluated once, the first step's bordered
        # solve starts from the lam = 0 solution's evaluation, later steps
        # start at the pinned barrier, and the record reads its residual
        # from the evaluation of the solution: 12.8 cubic resolvents per
        # step here, where solving each step at lam = 0 first took 16.4
        # and evaluating residual, slopes and record separately 30.4
        d, s = make_interval(64)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=0.01, T=0.1, eps=0.05)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        cubic = count_calls(monkeypatch, stepper.gr, "_cubic_resolvent")
        traj = simulate(s, CUBIC, cons, NEGATE, cfg, u0, lambda t: zero_field(s))
        assert all(abs(rec.lam) > 0.0 for rec in traj[1:])  # every step bordered
        assert len(cubic) <= 18 * (len(traj) - 1)

    @pytest.mark.parametrize("gp", [CUBIC, OBSTACLE], ids=["cubic", "obstacle"])
    @pytest.mark.parametrize("nx", [16, 2048])
    def test_tridiagonal_solve_matches_dense(self, nx, gp):
        _, s = make_interval(nx)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.01, eps=0.05, rho=2.0)
        op = StepOperator(s, gp, cons, NEGATE, cfg)
        u = slope_probe(s, 4)
        J, db, dg = full_jacobian(s, gp, cfg, u)
        if gp is OBSTACLE:
            assert np.max(db) == 1.0 / cfg.eps
            assert np.all(dg == 1.0 / (cfg.eps * cfg.rho))
        J = J.toarray()
        g = np.random.default_rng(8).normal(size=s.n_bulk)
        x = op._tridiagonal_solver(op._evaluate(u, 0.0, np.zeros(s.n_bulk)).slope)(g)
        y = np.linalg.solve(J, g)
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    def test_tridiagonal_factor_failure_is_step_error(self, monkeypatch):
        _, s = make_interval(16)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        op = StepOperator(s, CUBIC, cons, NEGATE, SolverConfig(tau=0.01, T=0.01, eps=0.05))
        monkeypatch.setattr(op, "K0_diag", -op.K0_diag)
        with pytest.raises(stepper.StepError, match=r"dpttrf info 1\)"):
            op._tridiagonal_solver(np.zeros(s.n_bulk))

    @pytest.mark.parametrize(
        "kind, res",
        [("interval", (1,)), ("interval", (2,)), ("interval", (64,)),
         ("rectangle", (1, 1)), ("rectangle", (1, 7)), ("rectangle", (7, 1)),
         ("rectangle", (2, 2)), ("rectangle", (5, 4))],
        ids=lambda v: v if isinstance(v, str) else "x".join(map(str, v)),
    )
    def test_tridiagonal_detection(self, kind, res):
        # built without build_domain, which rejects fewer than 2 cells per side
        axes = [np.linspace(0.0, 1.0, n + 1) for n in res]
        if kind == "interval":
            coords, bidx = axes[0].reshape(-1, 1), np.array([0, res[0]])
        else:
            xx, yy = np.meshgrid(*axes)
            coords, bidx = np.column_stack([xx.ravel(), yy.ravel()]), _perimeter_loop(*res)
        s = assemble(Domain(kind, (1.0,) * len(res), res, coords, bidx))
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        op = StepOperator(s, CUBIC, cons, NEGATE, SolverConfig(tau=0.01, T=0.01, eps=0.05))
        K = op.K0.toarray()
        assert op.tridiagonal == (kind == "interval")
        assert op.tridiagonal == np.array_equal(K, np.triu(np.tril(K, 1), -1))
        if op.tridiagonal:
            assert np.array_equal(op.K0_diag, np.diag(K))
            assert np.array_equal(op.K0_offdiag, np.diag(K, 1))
            assert np.array_equal(op.K0_offdiag, np.diag(K, -1))
            assert not op.K0_diag.flags.writeable and not op.K0_offdiag.flags.writeable

    @pytest.mark.parametrize(
        "offsets, expected",
        [({(0, 1)}, True), ({(0, 1), (1, 2), (2, 3)}, True),
         # 3n - 2 entries and each column's entry above its diagonal in
         # row j - 1, but the one for column 1 is the diagonal of column 0
         ({(1, 2), (2, 3), (1, 3)}, False),
         ({(0, 1), (1, 2), (2, 3), (0, 2)}, False)],
        ids=["2x2", "4x4", "gap_and_far_pair", "pentadiagonal_entry"],
    )
    def test_tridiagonal_pattern_check(self, offsets, expected):
        n = 1 + max(j for _, j in offsets)
        rows = [i for i, j in offsets] + [j for i, j in offsets] + list(range(n))
        cols = [j for i, j in offsets] + [i for i, j in offsets] + list(range(n))
        K = sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        K.sort_indices()
        diag_pos = np.flatnonzero(K.indices == np.repeat(np.arange(n), np.diff(K.indptr)))
        assert stepper._is_tridiagonal(K, diag_pos) is expected

    def test_newton_stops_at_roundoff_floor(self):
        # on 2048 cells the scaled residual stalls near 8e-10, above
        # newton_tol but below its roundoff floor; the line search cannot
        # reduce it, and the iterate is accepted there
        d, s = make_interval(2048)
        cons = make_constraint(s, s.field(np.ones(s.n_bulk), np.ones(s.n_bnd)),
                               -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.1, eps=0.05)
        op = StepOperator(s, CUBIC, cons, NEGATE, cfg)
        u0 = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.4268) / 0.1099))
        traj = simulate(s, CUBIC, cons, NEGATE, cfg, u0, lambda t: zero_field(s))
        assert len(traj) == 11
        u_prev, stalled = u0, 0
        for rec in traj[1:]:
            assert rec.lam == 0.0 and multiplier_sign_ok(cons, rec.k, rec.lam)
            f = zero_field(s)
            assert op.proximal_objective(rec.u, u_prev, f) < op.proximal_objective(
                u_prev, u_prev, f
            )
            b = op.constant_part(u_prev, f)
            r = op.scaled_norm(op.residual(rec.u.bulk, 0.0, b))
            assert r <= max(cfg.newton_tol, FLOOR_FACTOR * op.residual_floor(rec.u.bulk, 0.0, b))
            stalled += r > cfg.newton_tol
            u_prev = rec.u
        assert stalled > 0


# bands for the forcing 3 sin(2 pi t): the mass is pinned at the upper
# barrier, released when the forcing turns, and pinned at the lower one;
# the narrow band goes from one barrier to the other in one step
FORCED_BANDS = {
    "release": (-0.05, 0.05),
    "release_one_sided": (-math.inf, 0.05),
    "switch": (-5e-4, 5e-4),
    "equality": (0.0, 0.0),
}


def forced_run(geometry, band):
    """Interval 64 with the cubic or 16x16 with the obstacle, from a state
    of mass 0, under the forcing 3 sin(2 pi t) up to T = 1.

    Two Newton solves of one step from different starts stop at different
    points within newton_tol; at the default 1e-11 the interval's
    multipliers (about 7) differ by up to 1.5e-12, at 1e-12 by 2e-13.
    """
    d, s = make_interval(64) if geometry == "interval" else make_rectangle(16, 16)
    gp = CUBIC if geometry == "interval" else OBSTACLE
    cons = make_constraint(s, bulk_weight(s), *band)
    cfg = SolverConfig(tau=0.01, T=1.0, eps=0.05, newton_tol=1e-12)
    u0 = centered(s, cons, 0.4 * np.sin(2 * np.pi * d.coords[:, 0]))

    def forcing(t):
        a = 3.0 * math.sin(2 * math.pi * t)
        return s.field(np.full(s.n_bulk, a), np.full(s.n_bnd, a))

    return s, gp, cons, cfg, u0, forcing


class TestPinnedStart:
    @pytest.mark.parametrize("case", list(FORCED_BANDS))
    @pytest.mark.parametrize("geometry", ["interval", "rectangle"])
    def test_matches_unpinned_step(self, monkeypatch, geometry, case):
        # proximal_step builds a fresh operator, which has no pin: it solves
        # at lam = 0 first and pins the crossed barrier, the oracle here
        s, gp, cons, cfg, u0, forcing = forced_run(geometry, FORCED_BANDS[case])
        solves = count_calls(monkeypatch, StepOperator, "_solve")
        traj = simulate(s, gp, cons, NEGATE, cfg, u0, forcing)
        n_solves = len(solves)
        monkeypatch.undo()
        lam = np.array([rec.lam for rec in traj[1:]])
        # most bordered steps start at the pin and take one Newton solve,
        # where solving at lam = 0 first takes two
        assert n_solves < lam.size + 0.2 * np.count_nonzero(lam)
        if case.startswith("release"):
            assert np.any((lam[:-1] > 0) & (lam[1:] == 0))
        elif case == "switch":
            assert np.any((lam[:-1] > 0) & (lam[1:] < 0))
        else:
            assert np.all(lam != 0) and np.any(lam > 0) and np.any(lam < 0)
        tol_k = mass_tolerance(cons)
        probes = [
            uniform_feasible_field(s, cons, k)
            for k in (cons.k_lo, 0.0, cons.k_hi, cons.k_hi - 1.0)
            if math.isfinite(k) and cons.k_lo <= k <= cons.k_hi
        ]
        for prev, rec in zip(traj, traj[1:]):
            ref = proximal_step(s, gp, cons, NEGATE, cfg, prev.u, forcing(rec.t), rec.t)
            assert np.max(np.abs(rec.u.bulk - ref.u.bulk)) <= 1e-12
            assert abs(rec.lam - ref.lam) <= 1e-12
            assert cons.k_lo - tol_k <= rec.k <= cons.k_hi + tol_k
            assert multiplier_sign_ok(cons, rec.k, rec.lam, tol=tol_k)
            assert variational_complementarity(s, cons, rec.u, rec.lam, probes)
            assert rec.residual_bulk <= 10 * cfg.newton_tol
            assert rec.residual_bnd <= 10 * cfg.newton_tol

    @pytest.mark.parametrize("case", ["release", "switch"])
    def test_pin_follows_the_active_barrier(self, case):
        # a pinned multiplier of the wrong sign (a release, or the switch to
        # the other barrier) makes the step solve at lam = 0 again; that
        # clears the pin or replaces it by the barrier the step crossed
        s, gp, cons, cfg, u0, forcing = forced_run("interval", FORCED_BANDS[case])
        op = StepOperator(s, gp, cons, NEGATE, cfg)
        assert op._pin is None
        u, energy, barriers = u0, op.phi_eps(u0), [None]
        for m in range(1, round(cfg.T / cfg.tau) + 1):
            rec = op.step(u, forcing(m * cfg.tau), m * cfg.tau, energy)
            if rec.lam == 0.0:
                assert op._pin is None
            else:
                # the barrier the step's mass sits on
                near_hi = abs(rec.k - cons.k_hi) <= abs(rec.k - cons.k_lo)
                assert op._pin == (cons.k_hi if near_hi else cons.k_lo, rec.lam)
            barriers.append(op._pin and op._pin[0])
            u, energy = rec.u, rec.energy
        expected = (cons.k_hi, None) if case == "release" else (cons.k_hi, cons.k_lo)
        assert expected in zip(barriers, barriers[1:])

    def test_failed_pinned_solve_falls_back(self, monkeypatch):
        # a pinned solve that raises StepError is dropped: the step solves
        # at lam = 0, pins the barrier again and matches the unpinned step
        s, gp, cons, cfg, u0, forcing = forced_run("interval", FORCED_BANDS["release"])
        op = StepOperator(s, gp, cons, NEGATE, cfg)
        u, energy, t = u0, op.phi_eps(u0), 0.0
        while op._pin is None:
            t += cfg.tau
            rec = op.step(u, forcing(t), t, energy)
            u, energy = rec.u, rec.energy
        k_bar, lam = op._pin
        assert k_bar == cons.k_hi and lam > 0.0
        solve, calls = StepOperator._solve, []

        def fails_first(self, b, pt, k_bar=None):
            calls.append((k_bar, pt.lam))
            if len(calls) == 1:
                raise stepper.StepError("Newton line search failed")
            return solve(self, b, pt, k_bar)

        monkeypatch.setattr(StepOperator, "_solve", fails_first)
        t += cfg.tau
        rec = op.step(u, forcing(t), t, energy)
        monkeypatch.undo()
        assert calls[0] == (k_bar, lam)
        assert [k for k, _ in calls[1:]] == [None, cons.k_hi]
        assert op._pin == (cons.k_hi, rec.lam)
        ref = proximal_step(s, gp, cons, NEGATE, cfg, u, forcing(t), t)
        assert np.max(np.abs(rec.u.bulk - ref.u.bulk)) <= 1e-12
        assert abs(rec.lam - ref.lam) <= 1e-12

    def test_pinned_start_factors_per_step(self, monkeypatch):
        # the equality-band run of test_resolvents_per_step, bordered at
        # every step: after the first, each step starts at the pinned
        # barrier and takes one Newton solve, 3.2 factorizations and 12.8
        # cubic resolvents per step, where solving each step at lam = 0
        # first took 5.0 and 16.4
        d, s = make_interval(64)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=0.01, T=0.1, eps=0.05)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        factors = count_calls(monkeypatch, stepper, "dpttrf")
        cubic = count_calls(monkeypatch, stepper.gr, "_cubic_resolvent")
        traj = simulate(s, CUBIC, cons, NEGATE, cfg, u0, lambda t: zero_field(s))
        steps = len(traj) - 1
        assert steps == 10 and all(abs(rec.lam) > 0.0 for rec in traj[1:])
        assert len(factors) <= 4 * steps
        assert len(cubic) <= 14 * steps


class TestTrajectories:
    def run_prototype(self, nx=64, center=0.42, T=0.5, **cfg_kw):
        d, s = make_interval(nx)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=1e-2, T=T, eps=0.05, **cfg_kw)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - center) / 0.15))
        traj = simulate(s, CUBIC, cons, NEGATE, cfg, u0, lambda t: zero_field(s))
        return d, s, cons, cfg, u0, traj

    def test_stationary_zero(self):
        _, s = make_interval(16)
        cons = make_constraint(s, bulk_weight(s), -0.5, 0.5)
        cfg = SolverConfig(tau=0.05, T=0.5, eps=0.2)
        traj = simulate(
            s, CUBIC, cons, PerturbationSpec(), cfg, s.constant_field(0.0),
            lambda t: zero_field(s),
        )
        for rec in traj:
            assert rec.lam == 0.0
            assert np.max(np.abs(rec.u.bulk)) <= 1e-12

    def test_constrained_run_invariants(self):
        _, s, cons, cfg, u0, traj = self.run_prototype()
        tol_k = mass_tolerance(cons)
        probes = [uniform_feasible_field(s, cons, cons.k_lo)]
        u_prev = u0
        for rec in traj[1:]:
            assert abs(rec.k) <= tol_k
            assert rec.residual_bulk <= 10 * cfg.newton_tol
            assert rec.residual_bnd <= 10 * cfg.newton_tol
            assert s.check_trace(rec.u)
            assert multiplier_sign_ok(cons, rec.k, rec.lam, tol=tol_k)
            assert variational_complementarity(s, cons, rec.u, rec.lam, probes)
            got = lambda_formula(s, CUBIC, cons, NEGATE, cfg, rec, u_prev, zero_field(s))
            assert abs(got - rec.lam) <= 10 * cfg.newton_tol * (1 + abs(rec.lam))
            u_prev = rec.u
        lams = [rec.lam for rec in traj[1:]]
        assert any(abs(l) > 1e-3 for l in lams)  # constraint is genuinely active

    def test_monotone_outer_map(self):
        # the map lam -> mass(u(lam)) decreases through each multiplier
        _, s, cons, cfg, u0, traj = self.run_prototype(T=0.05)
        op = StepOperator(s, CUBIC, cons, NEGATE, cfg)
        checked = 0
        u_prev = u0
        for rec in traj[1:]:
            b = op.constant_part(u_prev, zero_field(s))
            lams = rec.lam + np.linspace(-0.5, 0.5, 5)
            masses = [op.mass_of(op.solve(b, u_prev.bulk, lam=l)[0]) for l in lams]
            for m1, m2 in zip(masses[:-1], masses[1:]):
                assert m1 > m2 - 1e-12
                checked += 1
            assert masses[0] > rec.k > masses[-1]
            u_prev = rec.u
        assert checked > 0

    def test_xi_matches_graph_map(self):
        _, s, cons, cfg, u0, traj = self.run_prototype(T=0.05)
        rec = traj[-1]
        expected = np.asarray(yosida(CUBIC.bulk, cfg.eps, rec.u.bulk))
        assert np.array_equal(rec.xi.bulk, expected)

    def test_wells_and_full_energy_descent(self):
        # unconstrained double-well flow settles at the shifted well; the
        # energy including the perturbation primitive decreases throughout
        d, s = make_interval(64)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=1e-2, T=8.0, eps=0.05)
        u0 = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        traj = simulate(s, CUBIC, cons, NEGATE, cfg, u0, lambda t: zero_field(s))
        assert all(rec.lam == 0.0 for rec in traj)

        # fixed-point oracle for the stationary state: yosida(c)+eps*c = c
        lo, hi = 0.5, 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            val = float(yosida(CUBIC.bulk, cfg.eps, mid)) + cfg.eps * mid - mid
            if val < 0:
                lo = mid
            else:
                hi = mid
        well = 0.5 * (lo + hi)
        final = traj[-1].u.bulk
        assert np.max(np.abs(np.abs(final) - well)) <= 0.02
        assert abs(well - 1.0) <= 0.1  # near the ideal wells

        def full_energy(rec):
            u = rec.u
            return rec.energy - 0.5 * (
                np.dot(s.M_bulk, u.bulk**2) + np.dot(s.M_bnd, u.bnd**2)
            )

        te = [full_energy(r) for r in traj]
        assert all(b <= a + 1e-12 for a, b in zip(te[:-1], te[1:]))

    def test_energy_dissipation_with_gap(self):
        _, s, cons, cfg, u0, traj = self.run_prototype(center=0.5, T=1.0)
        tol = 1e-10 * (1 + traj[0].energy)
        for a, b in zip(traj[:-1], traj[1:]):
            du = b.u - a.u
            gap = b.energy + 0.5 / cfg.tau * inner_H(s, du, du)
            assert gap <= a.energy + tol

    def test_rectangle_run_invariants(self):
        d, s = make_rectangle(6, 6)
        w = s.field(np.ones(s.n_bulk), np.ones(s.n_bnd))
        cons = make_constraint(s, w, -0.05, 0.05)
        cfg = SolverConfig(tau=0.05, T=0.5, eps=0.1)
        u0 = s.field_from_bulk(
            0.4 * np.sin(np.pi * d.coords[:, 0]) * np.cos(np.pi * d.coords[:, 1])
        )
        traj = simulate(s, CUBIC, cons, NEGATE, cfg, u0, lambda t: zero_field(s))
        tol_k = mass_tolerance(cons)
        for rec in traj:
            assert cons.k_lo - tol_k <= rec.k <= cons.k_hi + tol_k
            assert s.check_trace(rec.u)
            assert rec.residual_bulk <= 10 * cfg.newton_tol
            assert rec.residual_bnd <= 10 * cfg.newton_tol
            assert multiplier_sign_ok(cons, rec.k, rec.lam, tol=tol_k)

    def test_run_from_scenario(self):
        from acdyn.scenario import Scenario, build_problem

        scenario = Scenario.from_dict(
            {
                "domain": {"kind": "interval", "sizes": [1.0], "resolution": [16]},
                "graphs": {
                    "bulk": {"kind": "power_odd", "coefficient": 1.0, "exponent": 3},
                    "boundary": {"kind": "power_odd", "coefficient": 1.0, "exponent": 3},
                    "rho": 1.0,
                },
                "data": {"u0": {"kind": "sine_x", "amplitude": 0.5, "frequency": 1.0}},
                "constraint": {"k_lo": None, "k_hi": None},
                "solver": {"tau": 0.05, "T": 0.2, "eps": 0.1},
            }
        )
        prob = build_problem(scenario)
        traj = simulate(prob.sys, prob.graphs, prob.constraint, prob.perturbation,
                        prob.solver, prob.u0, prob.f_of_t)
        assert len(traj) == 5
        assert all(rec.lam == 0.0 for rec in traj)

    def test_infeasible_initial_mass(self):
        _, s = make_interval(8)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=0.1, T=0.2, eps=0.1)
        bad = s.constant_field(1.0)
        with pytest.raises(InfeasibleDataError):
            simulate(s, CUBIC, cons, NEGATE, cfg, bad, lambda t: zero_field(s))

    def test_initial_outside_obstacle_domain(self):
        _, s = make_interval(8)
        gp = GraphPair(Obstacle(-1.0, 1.0), Obstacle(-1.0, 1.0))
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.1, T=0.2, eps=0.1)
        with pytest.raises(InfeasibleDataError):
            simulate(s, gp, cons, NEGATE, cfg, s.constant_field(2.0), lambda t: zero_field(s))


class TestPerturbationSpec:
    def test_catalog_values(self):
        p = PerturbationSpec(
            bulk_kind="sine", bulk_params={"amplitude": 2.0, "frequency": 3.0},
            bnd_kind="linear", bnd_params={"c": -0.5},
            lipschitz_bulk=6.0, lipschitz_bnd=0.5,
        )
        assert p.eval_bulk(0.0) == pytest.approx(0.0)
        assert p.eval_bnd(2.0) == pytest.approx(-1.0)
        assert not p.lipschitz_violations()

    def test_understated_constant_detected(self):
        p = PerturbationSpec(bulk_kind="negate", lipschitz_bulk=0.5)
        bad = p.lipschitz_violations()
        assert bad and bad[0][0] == "bulk"
