"""Proximal stepping: oracle comparisons and trajectory invariants."""

from __future__ import annotations

import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

import acdyn.stepper as stepper
from acdyn.constraint import make_constraint, mass_tolerance, multiplier_sign_ok
from acdyn.graphs import GraphPair, Obstacle, PiecewiseLinear, PowerOdd
from acdyn.mesh import (
    SPD_SPLU,
    CoupledField,
    Domain,
    _perimeter_loop,
    assemble,
    coupled_matrix,
    inner_H,
)
from acdyn.scenario import Scenario, build_problem, load_scenario
from acdyn.stepper import (
    InfeasibleDataError,
    PerturbationSpec,
    Problem,
    SolverConfig,
    StepError,
    StepOperator,
    energy,
    iter_steps,
    simulate,
)

from helpers import (
    bruteforce_proximal_argmin,
    lambda_formula,
    make_interval,
    make_rectangle,
    proximal_objective_batch,
    proximal_step,
    reference_plain_step,
    resolvents,
    total_weight,
    variational_complementarity,
    yosida,
    zero_field,
)

NEGATE = PerturbationSpec(bulk_kind="negate", bnd_kind="negate")
CUBIC = GraphPair(PowerOdd(1.0, 3), PowerOdd(1.0, 3))
SCENARIOS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SHIPPED = sorted(name[:-5] for name in os.listdir(SCENARIOS_DIR) if name.endswith(".json"))


def bulk_weight(sys):
    return sys.field(np.ones(sys.n_bulk), np.zeros(sys.n_bnd))


def centered(sys, cons, profile):
    shift = np.dot(sys.M_bulk, profile) / total_weight(sys, cons)
    return sys.field_from_bulk(profile - shift)


def solve(op, b, u, lam=0.0, k_bar=None):
    pt = op._solve(b, op._evaluate(u.copy(), lam, b), k_bar)
    return pt.u, pt.lam


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
            u_prev = u_prev + s.constant_field(cons.k_lo / total_weight(s, cons))
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
        b = op.constant_part(u_prev.bulk, zero_field(s))
        k = op.mass_of(u_prev.bulk) + 0.05
        u_star, lam_star = solve(op, b, u_prev.bulk, k_bar=k)
        assert abs(lam_star) > 1e-3
        assert abs(op.mass_of(u_star) - k) <= mass_tolerance(cons)
        u_fixed, lam_fixed = solve(op, b, u_prev.bulk, lam=lam_star)
        assert lam_fixed == lam_star
        assert np.max(np.abs(u_fixed - u_star)) <= 1e-10

    def test_one_energy_per_step(self, monkeypatch):
        # each state's energy is evaluated once, from the resolvents of the
        # state's Newton evaluation, and the objective check reads the two
        # record energies: one energy() call per record and none besides
        d, s = make_interval(32)
        cons = make_constraint(s, bulk_weight(s), -0.01, 0.01)
        cfg = SolverConfig(tau=0.01, T=0.07, eps=0.05)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        energies = []

        def counted(sys, gp, cfg, u, j):
            energies.append(j)
            return energy(sys, gp, cfg, u, j)

        monkeypatch.setattr(stepper, "energy", counted)
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
        assert len(traj) == 8 and len(energies) == 8
        assert all(j is not None for j in energies)

    @pytest.mark.parametrize("tau", [1e-9, 1e-11])
    @pytest.mark.parametrize("geometry", ["interval", "rectangle"])
    def test_objective_check_at_tiny_tau(self, geometry, tau):
        # the check compares energies of order 1 while K0 u carries the
        # mass part H u/tau, 1e9 to 1e11 times larger; an energy read from
        # K0 u inherits its roundoff, machine epsilon over tau, and fails
        # the check here, so the record's energy comes from energy()
        d, s = make_interval(64) if geometry == "interval" else make_rectangle(6, 6)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=tau, T=3 * tau, eps=0.05)
        u0 = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
        assert len(traj) == 4
        assert all(b.energy <= a.energy + 1e-12 for a, b in zip(traj, traj[1:]))

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

    def test_rejected_step_leaves_the_accepted_state(self, monkeypatch):
        # a pinned step whose "solution" is the worse state above fails a
        # check; the accepted point, its energy and its pin stay as they
        # were, and the next step is the one the run takes without the
        # rejected attempt
        s, gp, cons, cfg, u0, forcing = forced_run("interval", FORCED_BANDS["release"])
        op, run = StepOperator(s, gp, cons, NEGATE, cfg), StepOperator(s, gp, cons, NEGATE, cfg)
        op.start(u0)
        run.start(u0)
        t = 0.0
        while op._state.k_bar is None:
            t += cfg.tau
            op.step(forcing(t), t)
            run.step(forcing(t), t)
        kept, kept_u = op._state, op._state.pt.u.copy()
        solve, x = StepOperator._solve, s.domain.coords[:, 0]

        def worse(op, b, pt, k_bar=None):
            pt = solve(op, b, pt, k_bar)
            return op._evaluate(pt.u + 0.1 * np.cos(7.0 * x), pt.lam, b)

        monkeypatch.setattr(StepOperator, "_solve", worse)
        with pytest.raises(stepper.StepError, match="step left the mass band"):
            op.step(forcing(t + cfg.tau), t + cfg.tau)
        monkeypatch.undo()
        assert op._state is kept and np.array_equal(op._state.pt.u, kept_u)
        for _ in range(3):
            t += cfg.tau
            rec, ref = op.step(forcing(t), t), run.step(forcing(t), t)
            assert np.array_equal(rec.u.bulk, ref.u.bulk)
            assert rec.lam == ref.lam and rec.energy == ref.energy

    def test_step_before_start_is_step_error(self):
        # a fresh operator holds no accepted state to step from
        _, s = make_interval(8)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        op = StepOperator(s, CUBIC, cons, NEGATE, SolverConfig(tau=0.01, T=0.01, eps=0.05))
        with pytest.raises(stepper.StepError, match="start must take the initial state"):
            op.step(zero_field(s), 0.01)
        assert op._state is None

    @pytest.mark.parametrize("geometry", ["interval", "rectangle"])
    def test_start_rejects_a_state_off_its_trace(self, geometry):
        # a boundary part that is not the trace of the bulk part is no state
        # of the coupled flow; start raises and keeps the accepted state
        d, s = make_interval(8) if geometry == "interval" else make_rectangle(4, 4)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        op = StepOperator(s, CUBIC, cons, NEGATE, SolverConfig(tau=0.01, T=0.01, eps=0.05))
        u = s.field_from_bulk(np.sin(np.pi * d.coords[:, 0]))
        off = s.field(u.bulk, u.bnd + 1e-3)
        with pytest.raises(stepper.StepError, match="not trace consistent"):
            op.start(off)
        assert op._state is None
        op.start(u)
        kept = op._state
        with pytest.raises(stepper.StepError, match="not trace consistent"):
            op.start(off)
        assert op._state is kept


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
    db = gp.bulk.yosida_slope(u, cfg.eps, gp.bulk.resolvent_eff(u, cfg.eps))
    e_g, ug = cfg.eps * cfg.rho, u[s.bidx]
    dg = gp.bnd.yosida_slope(ug, e_g, gp.bnd.resolvent_eff(ug, e_g))
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


# the meshes the K0 tests build on; on 2 x 5 cells with hx**2 == 2*hy**2
# the bulk stiffness holds exact zeros, which K0 keeps
GEOMETRIES = {
    "interval": lambda: make_interval(16),
    "5x4": lambda: make_rectangle(5, 4),
    "32x32": lambda: make_rectangle(32, 32),
    "exact-zero": lambda: make_rectangle(2, 5, 0.565685424949238, 1.0),
}


def reference_K0(op):
    """K0 of the operator's step, built by coupled_matrix from the coupled
    mass diagonal (1/tau + eps) H."""
    s, c = op.sys, 1.0 / op.cfg.tau + op.cfg.eps
    diag = c * s.M_bulk
    diag[s.bidx] += c * s.M_bnd
    return coupled_matrix(s, diag)


def slope_at(op, u):
    """The slope diagonal of u's evaluation."""
    return op._evaluate(u, 0.0, 0.0).slope


def jacobian_at(op, u):
    """The operator's Jacobian at u, from the slopes of u's evaluation."""
    return op.jacobian(slope_at(op, u))


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
        A_data = s.A_bulk.data.copy()
        u = slope_probe(s, 3)
        ref, db, dg = full_jacobian(s, gp, cfg, u)
        if gp is OBSTACLE:
            # u leaves [lo, hi] in the bulk and at every boundary node
            assert np.max(db) == 1.0 / cfg.eps
            assert np.all(dg == 1.0 / (cfg.eps * cfg.rho))
        J1, J2 = jacobian_at(op, u), jacobian_at(op, u)
        assert J1.format == "csc" and J1.nnz == reference_K0(op).nnz
        ref = ref.toarray()
        assert np.max(np.abs(J1.toarray() - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert J1 is not J2 and not np.shares_memory(J1.data, J2.data)
        assert np.array_equal(J1.toarray(), J2.toarray())
        assert not np.shares_memory(J1.data, s.A_bulk.data)
        assert np.array_equal(s.A_bulk.data, A_data)

    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    def test_jacobian_is_coupled_matrix_plus_slopes(self, geometry):
        # the operator keeps no K0: each Jacobian is K0 as coupled_matrix
        # builds it with the slopes added at its diagonal, bit for bit, and
        # so is its SuperLU factor
        _, s = GEOMETRIES[geometry]()
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        op = StepOperator(s, CUBIC, cons, NEGATE, SolverConfig(tau=0.01, T=0.01, eps=0.05, rho=2.0))
        slope = slope_at(op, slope_probe(s, 3))
        ref = reference_K0(op)
        ref.data[s.diag_pos] += slope
        J = op.jacobian(slope)
        assert J.format == "csc" and J.shape == ref.shape
        assert np.array_equal(J.indptr, ref.indptr) and np.array_equal(J.indices, ref.indices)
        assert np.array_equal(J.data.view(np.int64), ref.data.view(np.int64))
        # on A_bulk's pattern, its exact zeros kept
        assert np.shares_memory(J.indices, s.A_bulk.indices)
        assert np.shares_memory(J.indptr, s.A_bulk.indptr)
        if geometry == "exact-zero":
            assert J.nnz == s.A_bulk.nnz and not J.data.all()
        g = np.random.default_rng(2).normal(size=s.n_bulk)
        x, y = splu(J, **SPD_SPLU).solve(g), splu(ref, **SPD_SPLU).solve(g)
        assert np.array_equal(x.view(np.int64), y.view(np.int64))

    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    def test_evaluation_applies_K0_from_its_parts(self, geometry):
        # s sums K0 u as A_bulk u, A_bnd u at the trace nodes and cH u; it
        # is K0 u + M xb with K0 built by coupled_matrix, up to roundoff
        _, s = GEOMETRIES[geometry]()
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.01, eps=0.05, rho=2.0)
        op = StepOperator(s, CUBIC, cons, NEGATE, cfg)
        u = slope_probe(s, 5)
        got = op._evaluate(u, 0.0, np.zeros(s.n_bulk)).s
        ref = reference_K0(op) @ u + s.M_bulk * yosida(CUBIC.bulk, cfg.eps, u)
        ref[s.bidx] += s.M_bnd * yosida(CUBIC.bnd, cfg.eps_bnd, u[s.bidx])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_operator_holds_no_copy_of_the_stiffness(self):
        # K0 is applied from the system's operators and built only for a
        # Jacobian, which is dropped once factored: after a run, no float
        # array held by the operator or its accepted point has the
        # entries of A_bulk
        d, s = make_rectangle(16, 16)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.05, eps=0.05)
        op = StepOperator(s, CUBIC, cons, NEGATE, cfg)
        op.start(s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.43) / 0.11)))
        for m in range(1, 6):
            op.step(zero_field(s), m * cfg.tau)
        assert op._factor is not None and op._state.pt.g is None

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif sp.issparse(obj):
                yield obj.data
            elif isinstance(obj, tuple):
                for item in obj:
                    yield from arrays(item)
            elif isinstance(obj, CoupledField):
                yield from arrays((obj.bulk, obj.bnd))

        held = [a for name, value in vars(op).items() if name != "sys" for a in arrays(value)]
        assert any(a is op._state.pt.s for a in held)
        assert not [a for a in held if a.dtype.kind == "f" and a.size == s.A_bulk.nnz]

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
            got = op._evaluate(u, lam, b).g
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
        cgs = count_calls(monkeypatch, stepper, "cg")
        op.linear_solver(slope_at(op, u1), False)[0](g)
        slope2 = slope_at(op, u2)
        x = op.linear_solver(slope2, False)[0](g)
        assert len(lus) == 1 and len(cgs) == 1  # no refactorization at u2
        y = splu(op.jacobian(slope2), **SPD_SPLU).solve(g)
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    def test_factored_slope_is_read_only(self):
        # the kept slope is a copy that no later write can change, so an
        # equal slope diagonal always means the factored Jacobian
        d, s = make_rectangle(8, 8)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        op = StepOperator(s, CUBIC, cons, NEGATE, SolverConfig(tau=0.01, T=0.01, eps=0.05))
        slope = slope_at(op, np.sin(np.pi * d.coords[:, 0]))
        op.linear_solver(slope, False)[0](np.ones(s.n_bulk))
        kept = op._factor_slope
        assert np.array_equal(kept, slope) and not np.shares_memory(kept, slope)
        with pytest.raises(ValueError):
            kept[0] = 1.0

    def test_linear_solver_decides_each_iterate(self, monkeypatch):
        # one call per Newton iterate gives its solves and tells whether it
        # is a chord step: J is built without a kept factor, and for a new
        # slope diagonal outside a chord step (8x8 cells: fill ratio 2.13,
        # so CG runs on the kept factor); the kept factor solves its own
        # slope exactly and any other one in a chord step, and it solves w
        # once, read-only
        d, s = make_rectangle(8, 8)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        op = StepOperator(s, CUBIC, cons, NEGATE, SolverConfig(tau=0.01, T=0.01, eps=0.05))
        slope = slope_at(op, np.sin(np.pi * d.coords[:, 0]))
        other = slope_at(op, np.cos(np.pi * d.coords[:, 1]))
        J, g = op.jacobian(slope), np.ones(s.n_bulk)
        jacs = count_calls(monkeypatch, StepOperator, "jacobian")
        cgs = count_calls(monkeypatch, stepper, "cg")
        solve_J, _, chord_step = op.linear_solver(slope, True)
        assert len(jacs) == 1 and not chord_step
        solve_J(g)
        assert op._factor.nnz > stepper.REUSE_FILL_RATIO * reference_K0(op).nnz
        solve_J, solve_w, chord_step = op.linear_solver(slope, False)
        assert len(jacs) == 1 and not chord_step
        assert np.linalg.norm(J @ solve_J(g) - g) <= 1e-12 * np.linalg.norm(g)
        z = solve_w()
        assert solve_w() is z and not z.flags.writeable
        assert np.linalg.norm(J @ z - op.wvec) <= 1e-12 * np.linalg.norm(op.wvec)
        _, solve_w, chord_step = op.linear_solver(other, True)
        assert len(jacs) == 1 and chord_step and solve_w() is z
        solve_J, _, chord_step = op.linear_solver(other, False)
        assert len(jacs) == 2 and not chord_step
        solve_J(g)
        assert len(cgs) == 1

    def test_interval_linear_solver_takes_no_chord_step(self):
        # the tridiagonal J is factored afresh whatever ``chord`` allows
        d, s = make_interval(16)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        op = StepOperator(s, CUBIC, cons, NEGATE, SolverConfig(tau=0.01, T=0.01, eps=0.05))
        slope = slope_at(op, np.sin(np.pi * d.coords[:, 0]))
        solve_J, solve_w, chord_step = op.linear_solver(slope, True)
        assert not chord_step and op._factor is None
        J = op.jacobian(slope)
        assert np.linalg.norm(J @ solve_w() - op.wvec) <= 1e-12 * np.linalg.norm(op.wvec)
        assert np.array_equal(solve_w(), solve_J(op.wvec))

    def test_rectangle_run_factors_once(self, monkeypatch):
        # the first iterate builds and factors the one Jacobian of the run;
        # every later iterate is a chord step on that factor
        d, s = make_rectangle(16, 16)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.05, eps=0.05)
        u0 = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.43) / 0.11))
        lus = count_calls(monkeypatch, stepper, "splu")
        jacs = count_calls(monkeypatch, StepOperator, "jacobian")
        cgs = count_calls(monkeypatch, stepper, "cg")
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
        assert len(traj) == 6
        assert len(lus) == 1 and len(jacs) == 1 and not cgs
        for rec in traj[1:]:
            assert rec.residual_bulk <= 10 * cfg.newton_tol
            assert rec.residual_bnd <= 10 * cfg.newton_tol

    def test_bordered_landing_keeps_chord_steps(self, monkeypatch):
        # the landing step of a bordered solve, from an iterate off the
        # barrier, trades the mass residual for a residual that the next
        # chord steps cut, and is not judged against THETA: the shipped
        # rect_cubic run, pinned on most steps, builds and factors one
        # Jacobian and runs no CG (judged, its landings took 4 and 6)
        prob = build_problem(load_scenario(os.path.join(SCENARIOS_DIR, "rect_cubic.json")))
        lus = count_calls(monkeypatch, stepper, "splu")
        jacs = count_calls(monkeypatch, StepOperator, "jacobian")
        cgs = count_calls(monkeypatch, stepper, "cg")
        traj = simulate(prob)
        assert len(traj) == 51 and any(rec.lam != 0.0 for rec in traj)
        assert len(lus) == 1 and len(jacs) == 1 and not cgs

    def test_kept_factor_solves_w_once(self, monkeypatch):
        # every step of the equality band is bordered and most iterates
        # are chord steps on the one factor of the run: J z = w is solved
        # with it once, and again only where CG, whose first preconditioner
        # application is to its right-hand side, solves with a new J;
        # solving it at every iterate took 28 solves of w here
        d, s = make_rectangle(16, 16)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=0.01, T=0.05, eps=0.05)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - 0.43) / 0.11))
        splu_, w_solves, lus = stepper.splu, [], []

        class Factor:
            def __init__(self, factor):
                self.factor, self.nnz = factor, factor.nnz

            def solve(self, rhs):
                w_solves.extend([1] if np.array_equal(rhs, s.M_bulk) else [])
                return self.factor.solve(rhs)

        def factored(*args, **kwargs):
            lus.append(1)
            return Factor(splu_(*args, **kwargs))

        monkeypatch.setattr(stepper, "splu", factored)
        cgs = count_calls(monkeypatch, stepper, "cg")
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
        assert len(traj) == 6 and all(rec.lam != 0.0 for rec in traj[1:])
        assert len(lus) == 1 and 1 <= len(w_solves) <= len(lus) + len(cgs) < 10
        for rec in traj[1:]:
            assert rec.residual_bulk <= 10 * cfg.newton_tol
            assert rec.residual_bnd <= 10 * cfg.newton_tol

    @pytest.mark.parametrize("band", [(-math.inf, math.inf), (-0.05, 0.05)],
                             ids=["unbounded", "band"])
    def test_chord_steps_match_dense_reference(self, monkeypatch, band):
        # a factor kept across steps makes later steps chord steps, and in
        # the band case bordered ones; each step's state still solves the
        # step equation at its multiplier lam, which is the plain step
        # under the source f - lam*w, solved densely
        d, s = make_rectangle(12, 12)
        cons = make_constraint(s, bulk_weight(s), *band)
        cfg = SolverConfig(tau=0.01, T=0.1, eps=0.05)
        u0 = s.field_from_bulk(0.4 * np.sin(2 * np.pi * d.coords[:, 0]))

        def forcing(t):
            a = 3.0 * math.cos(2 * math.pi * t)
            return s.field(np.full(s.n_bulk, a), np.full(s.n_bnd, a))

        jacs = count_calls(monkeypatch, StepOperator, "jacobian")
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, forcing))
        assert len(traj) == 11 and len(jacs) < len(traj) - 1
        if band[1] < math.inf:
            assert any(rec.lam != 0.0 for rec in traj)
        for prev, rec in zip(traj, traj[1:]):
            f = forcing(rec.t) - cons.w * rec.lam
            ref = reference_plain_step(s, CUBIC, NEGATE, cfg, prev.u, f)
            assert np.max(np.abs(rec.u.bulk - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_rejected_chord_step_is_redone_exactly(self, monkeypatch):
        # the kept factor is that of the zero state, whose cubic slopes are
        # 0; at u_prev = 2 they are near 1/eps, which with tau = 1 is 20
        # times (1/tau + eps), so the chord step overshoots and raises the
        # residual; the iterate is redone with the exact step, and the step
        # is that of a fresh operator
        d, s = make_rectangle(12, 12)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=1.0, T=1.0, eps=0.05)
        op = StepOperator(s, CUBIC, cons, NEGATE, cfg)
        u_prev = s.field_from_bulk(2.0 + 0.1 * np.sin(np.pi * d.coords[:, 0]))
        f = zero_field(s)
        op.linear_solver(slope_at(op, np.zeros(s.n_bulk)), False)[0](np.ones(s.n_bulk))
        b = op.constant_part(u_prev.bulk, f)
        start = op._evaluate(u_prev.bulk.copy(), 0.0, b)
        chord = op._evaluate(start.u - op._factor.solve(start.g), 0.0, b)
        assert op.scaled_norm(chord.g) > op.scaled_norm(start.g)
        op.start(u_prev)
        lus = count_calls(monkeypatch, stepper, "splu")
        cgs = count_calls(monkeypatch, stepper, "cg")
        rec = op.step(f, cfg.tau)
        assert lus or cgs
        monkeypatch.undo()
        ref = proximal_step(s, CUBIC, cons, NEGATE, cfg, u_prev, f, cfg.tau)
        assert np.max(np.abs(rec.u.bulk - ref.u.bulk)) <= 1e-10 * np.max(np.abs(ref.u.bulk))
        assert rec.residual_bulk <= 10 * cfg.newton_tol
        assert rec.residual_bnd <= 10 * cfg.newton_tol

    @pytest.mark.parametrize("cells", [16, 2])
    def test_obstacle_inactive_run_factors_once(self, monkeypatch, cells):
        # obstacle slopes are exactly 0 away from the obstacle, so while no
        # node reaches it every Jacobian is the first one: one Jacobian and
        # one factorization per run, and no CG, also on 2x2 cells, whose
        # factor has no fill and preconditions no CG
        d, s = make_rectangle(cells, cells)
        cons = make_constraint(s, bulk_weight(s), -0.05, 0.05)
        cfg = SolverConfig(tau=0.01, T=0.1, eps=0.05)
        u0 = s.field_from_bulk(0.4 * np.sin(2 * np.pi * d.coords[:, 0]))
        f = s.field(np.full(s.n_bulk, 2.0), np.zeros(s.n_bnd))
        gp = GraphPair(Obstacle(-1.0, 1.0), Obstacle(-1.0, 1.0))
        if cells == 2:
            op = StepOperator(s, gp, cons, NEGATE, cfg)
            op.linear_solver(np.zeros(s.n_bulk), False)[0](np.ones(s.n_bulk))
            assert op._factor.nnz <= stepper.REUSE_FILL_RATIO * reference_K0(op).nnz
        lus = count_calls(monkeypatch, stepper, "splu")
        jacs = count_calls(monkeypatch, StepOperator, "jacobian")
        cgs = count_calls(monkeypatch, stepper, "cg")
        traj = simulate(Problem(s, gp, NEGATE, cfg, cons, u0, lambda t: f))
        assert len(traj) == 11 and any(rec.lam != 0.0 for rec in traj)
        assert len(lus) == 1 and len(jacs) == 1 and not cgs
        tol_k = mass_tolerance(cons)
        for rec in traj[1:]:
            assert np.max(np.abs(rec.u.bulk)) < 1.0
            assert cons.k_lo - tol_k <= rec.k <= cons.k_hi + tol_k
            assert multiplier_sign_ok(cons, rec.k, rec.lam)
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
        traj = simulate(Problem(s, gp, NEGATE, cfg, cons, u0, lambda t: f))
        assert len(lus) > 1
        tol_k = mass_tolerance(cons)
        probes = [s.constant_field(k / total_weight(s, cons)) for k in (-0.05, 0.0, 0.05)]
        for rec in traj[1:]:
            assert cons.k_lo - tol_k <= rec.k <= cons.k_hi + tol_k
            assert multiplier_sign_ok(cons, rec.k, rec.lam)
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
        # evaluates the graphs once, in the bulk: the boundary graph is the
        # bulk one, so its resolvent is the bulk one at the trace nodes; no
        # sparse Jacobian is built and SuperLU never runs, and the run
        # computes no resolvent outside the evaluations
        d, s = make_interval(64)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=0.01, T=0.05, eps=0.05)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        lus = count_calls(monkeypatch, stepper, "splu")
        jacs = count_calls(monkeypatch, StepOperator, "jacobian")
        triples = count_calls(monkeypatch, stepper.gr, "smoothed")
        cubic = count_calls(monkeypatch, stepper.gr, "_cubic_resolvent")
        evals = count_calls(monkeypatch, StepOperator, "_evaluate")
        factors = count_calls(monkeypatch, stepper, "dpttrf")
        solves = count_calls(monkeypatch, stepper, "dpttrs")
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
        assert not lus and not jacs
        assert len(triples) == len(cubic) == len(evals)
        # one evaluation gives the initial record and starts the first
        # step, each later step starts from the point its previous step
        # accepted, and every other one is a line search trial; here each
        # iterate takes the full Newton step
        assert len(factors) > 5 and len(evals) == 1 + len(factors)
        # the pinned band makes every step bordered: two solves per iterate,
        # except in the first step's lam = 0 solve; later steps start at
        # the barrier the first one pinned
        assert len(factors) < len(solves) < 2 * len(factors)

    def test_resolvents_per_step(self, monkeypatch):
        # each Newton point is evaluated once, the first step's bordered
        # solve starts from the lam = 0 solution's evaluation, later steps
        # start at the pinned barrier, and the record reads its residual
        # and its energy from the evaluation of the solution: 8.6 cubic
        # resolvents per step here, where resolving the record's xi and
        # energy took 12.8, solving each step at lam = 0 first 16.4 and
        # evaluating residual, slopes and record separately 30.4
        d, s = make_interval(64)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=0.01, T=0.1, eps=0.05)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        cubic = count_calls(monkeypatch, stepper.gr, "_cubic_resolvent")
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
        assert all(abs(rec.lam) > 0.0 for rec in traj[1:])  # every step bordered
        assert len(cubic) <= 10 * (len(traj) - 1)

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
        x = op.linear_solver(op._evaluate(u, 0.0, np.zeros(s.n_bulk)).slope, False)[0](g)
        y = np.linalg.solve(J, g)
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    def test_tridiagonal_factor_failure_is_step_error(self, monkeypatch):
        _, s = make_interval(16)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        op = StepOperator(s, CUBIC, cons, NEGATE, SolverConfig(tau=0.01, T=0.01, eps=0.05))
        monkeypatch.setattr(op, "K0_diag", -op.K0_diag)
        with pytest.raises(stepper.StepError, match=r"dpttrf info 1\)"):
            op.linear_solver(np.zeros(s.n_bulk), False)

    def test_superlu_factor_failure_is_step_error(self):
        # a slope that overflowed to nan (a cubic coefficient of 1e308, say)
        # makes J singular to SuperLU; the step fails, as on the interval
        _, s = make_rectangle(4, 4)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        op = StepOperator(s, CUBIC, cons, NEGATE, SolverConfig(tau=0.01, T=0.01, eps=0.05))
        with pytest.raises(stepper.StepError, match="Jacobian factorization failed"):
            op.linear_solver(np.full(s.n_bulk, np.nan), False)[0](np.ones(s.n_bulk))

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
        K = reference_K0(op).toarray()
        assert op.tridiagonal == (kind == "interval")
        assert op.tridiagonal == np.array_equal(K, np.triu(np.tril(K, 1), -1))
        if op.tridiagonal:
            assert np.array_equal(op.K0_diag, np.diag(K))
            assert np.array_equal(op.K0_offdiag, np.diag(K, 1))
            assert np.array_equal(op.K0_offdiag, np.diag(K, -1))
            assert not op.K0_diag.flags.writeable and not op.K0_offdiag.flags.writeable

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
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
        assert len(traj) == 11
        u_prev, stalled = u0, 0
        for rec in traj[1:]:
            assert rec.lam == 0.0 and multiplier_sign_ok(cons, rec.k, rec.lam)
            f = zero_field(s)
            obj = proximal_objective_batch(
                s, CUBIC, NEGATE, cfg, u_prev, f, np.array([rec.u.bulk, u_prev.bulk])
            )
            assert obj[0] < obj[1]
            b = op.constant_part(u_prev.bulk, f)
            pt = op._evaluate(rec.u.bulk, 0.0, b)
            r = op.scaled_norm(pt.g)
            assert r <= max(cfg.newton_tol, op.residual_floor(pt, b))
            stalled += r > cfg.newton_tol
            u_prev = rec.u
        assert stalled > 0


def stall_scenario(cells, ly, bulk, bnd, rho, A, w, w_gamma, tau, eps) -> dict:
    """A rectangle whose bulk and boundary graphs are the line through
    (-1, -1) and (1, 1), continued by the side slopes ``bulk`` and ``bnd``;
    f = A sin(2 pi x) cos(6.28 t), f_gamma = A cos(3.14 t), u0 = 0, the
    band (-inf, 0.05] and ten steps."""

    def line(slopes):
        return {"kind": "piecewise_linear", "vertices": [[-1.0, -1.0], [1.0, 1.0]],
                "slope_left": slopes[0], "slope_right": slopes[1]}

    return {
        "domain": {"kind": "rectangle", "sizes": [1.0, ly], "resolution": list(cells)},
        "graphs": {"bulk": line(bulk), "boundary": line(bnd), "rho": rho},
        "perturbation": {"bulk": {"kind": "negate"}, "boundary": {"kind": "negate"}},
        "data": {
            "f": {"space": {"kind": "sine_x", "amplitude": A, "frequency": 2.0},
                  "time": {"kind": "sinusoidal", "omega": 6.28}},
            "f_gamma": {"space": {"kind": "constant", "value": A},
                        "time": {"kind": "sinusoidal", "omega": 3.14}},
            "u0": {"kind": "constant", "value": 0.0},
        },
        "constraint": {"w": {"kind": "constant", "value": w},
                       "w_gamma": {"kind": "constant", "value": w_gamma},
                       "k_lo": None, "k_hi": 0.05},
        "solver": {"tau": tau, "T": 10 * tau, "eps": eps},
    }


# two random-sweep samples whose line search stalls above newton_tol; a floor
# that counts each smoothed-map term by |u - j| sits 13.6 and 1.7 times
# below where they stall (rounded to four digits, the second stalls lower)
STALLS = {
    "13.6x": dict(cells=(12, 12), ly=0.9897, bulk=(0.8167, 1.5008), bnd=(0.3304, 1.2855),
                  rho=0.6632, A=31.39, w=1.0, w_gamma=1.0, tau=0.2108, eps=1.275e-4),
    "1.7x": dict(cells=(8, 9), ly=0.313108, bulk=(2.33402, 2.20361), bnd=(2.55266, 1.29096),
                 rho=0.692352, A=41.2671, w=0.0, w_gamma=1.0, tau=0.261354, eps=2.20305e-4),
}


class TestStoppingRule:
    """A Newton solve succeeds only at newton_tol or at the roundoff floor,
    and only with its mass residual within tolerance."""

    @pytest.mark.parametrize("case", list(STALLS))
    def test_stall_at_the_operand_floor(self, case, monkeypatch):
        prob = build_problem(Scenario.from_dict(stall_scenario(**STALLS[case])))
        original, above_tol = StepOperator._solve, []

        def spy(op, b_const, pt, k_bar=None):
            out = original(op, b_const, pt, k_bar)
            r = op.scaled_norm(out.g)
            assert r <= max(op.cfg.newton_tol, op.residual_floor(out, b_const))
            above_tol.append(r > op.cfg.newton_tol)
            return out

        monkeypatch.setattr(StepOperator, "_solve", spy)
        assert len(simulate(prob)) == 11
        assert any(above_tol)

    @pytest.mark.parametrize(
        "geometry, block_nnz",
        [("interval", None), ("rectangle", None), ("rectangle", 20), ("rectangle", 7)],
        ids=["interval", "rectangle", "rectangle-blocks-of-20", "rectangle-blocks-of-7"],
    )
    def test_floor_bits_match_the_operand_formula(self, geometry, block_nnz, monkeypatch):
        # the floor that forms |A_bulk| |u| by blocks of rows on A_bulk's
        # index arrays keeps the bits of the sum of the operands of K0 u
        # formed with a separate abs(A_bulk), at points with lam != 0.  The rectangle's 30 rows hold 4, 6 or 9
        # entries: a budget of 20 cuts them into blocks of 2 to 5 rows, and
        # one of 7 into single rows, the 9-entry ones over the budget.  A
        # mass H infinite off one row makes that row's magnitude the floor,
        # so every row is checked.
        if block_nnz is not None:
            monkeypatch.setattr(stepper, "FLOOR_BLOCK_NNZ", block_nnz)
        _, s = make_interval(16) if geometry == "interval" else make_rectangle(5, 4)
        rng = np.random.default_rng(4)
        w = s.field(rng.uniform(0.5, 1.5, s.n_bulk), rng.uniform(0.5, 1.5, s.n_bnd))
        cons = make_constraint(s, w, -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.01, eps=0.05, rho=2.0)
        op = StepOperator(s, CUBIC, cons, NEGATE, cfg)
        A_data, H = s.A_bulk.data.copy(), s.H
        c = 1.0 / cfg.tau + cfg.eps
        cH = c * s.M_bulk
        cH[s.bidx] += c * s.M_bnd
        for seed, lam in ((10, -0.7), (11, 3.25), (12, 1e-3)):
            b = rng.normal(size=s.n_bulk)
            pt = op._evaluate(slope_probe(s, seed), lam, b)
            u, j = pt.u, pt.j
            mag = abs(s.A_bulk) @ np.abs(u)
            mag[s.bidx] += abs(s.A_bnd) @ np.abs(u[s.bidx])
            mag += cH * np.abs(u)
            mag += np.abs(b)
            mag += abs(pt.lam) * np.abs(op.wvec)
            mag += s.M_bulk * (np.abs(u) + np.abs(j.bulk)) / cfg.eps
            mag[s.bidx] += s.M_bnd * (np.abs(u[s.bidx]) + np.abs(j.bnd)) / cfg.eps_bnd
            ref = float(np.finfo(float).eps * (mag / H).max())
            assert op.residual_floor(pt, b).hex() == ref.hex()
            for row in range(s.n_bulk):
                isolated = np.full(s.n_bulk, math.inf)
                isolated[row] = H[row]
                op.sys = replace(s, H=isolated)
                ref = float(np.finfo(float).eps * (mag[row] / H[row]))
                assert op.residual_floor(pt, b).hex() == ref.hex()
            op.sys = s
        assert np.array_equal(s.A_bulk.data, A_data)

    def test_no_bordered_point_off_its_mass(self, monkeypatch):
        # forcing so large that the bordered solve after the lam = 0 one
        # cannot land on the barrier; it fails, and returns no point off it
        scenario = load_scenario(os.path.join(SCENARIOS_DIR, "prototype.json"))
        scenario.data["f"]["space"]["value"] = 1e100
        scenario.solver["T"] = 2 * scenario.solver["tau"]
        original, barriers = StepOperator._solve, []

        def spy(op, b_const, pt, k_bar=None):
            barriers.append(k_bar)
            out = original(op, b_const, pt, k_bar)
            if k_bar is not None:
                assert abs(op.mass_of(out.u) - k_bar) <= mass_tolerance(op.cons)
            return out

        monkeypatch.setattr(StepOperator, "_solve", spy)
        with pytest.raises(StepError, match="^Newton"):
            simulate(build_problem(scenario))
        assert barriers[-1] is not None


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
        traj = simulate(Problem(s, gp, NEGATE, cfg, cons, u0, forcing))
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
            s.constant_field(k / total_weight(s, cons))
            for k in (cons.k_lo, 0.0, cons.k_hi, cons.k_hi - 1.0)
            if math.isfinite(k) and cons.k_lo <= k <= cons.k_hi
        ]
        for prev, rec in zip(traj, traj[1:]):
            ref = proximal_step(s, gp, cons, NEGATE, cfg, prev.u, forcing(rec.t), rec.t)
            assert np.max(np.abs(rec.u.bulk - ref.u.bulk)) <= 1e-12
            assert abs(rec.lam - ref.lam) <= 1e-12
            assert cons.k_lo - tol_k <= rec.k <= cons.k_hi + tol_k
            assert multiplier_sign_ok(cons, rec.k, rec.lam)
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
        op.start(u0)
        assert op._state.k_bar is None
        barriers = [None]
        for m in range(1, round(cfg.T / cfg.tau) + 1):
            rec = op.step(forcing(m * cfg.tau), m * cfg.tau)
            assert op._state.pt.lam == rec.lam and op._state.energy == rec.energy
            if rec.lam == 0.0:
                assert op._state.k_bar is None
            else:
                # the barrier the step's mass sits on
                near_hi = abs(rec.k - cons.k_hi) <= abs(rec.k - cons.k_lo)
                assert op._state.k_bar == (cons.k_hi if near_hi else cons.k_lo)
            barriers.append(op._state.k_bar)
        expected = (cons.k_hi, None) if case == "release" else (cons.k_hi, cons.k_lo)
        assert expected in zip(barriers, barriers[1:])

    def test_failed_pinned_solve_falls_back(self, monkeypatch):
        # a pinned solve that raises StepError is dropped: the step solves
        # at lam = 0, pins the barrier again and matches the unpinned step
        s, gp, cons, cfg, u0, forcing = forced_run("interval", FORCED_BANDS["release"])
        op = StepOperator(s, gp, cons, NEGATE, cfg)
        rec, t = op.start(u0), 0.0
        while op._state.k_bar is None:
            t += cfg.tau
            rec = op.step(forcing(t), t)
        k_bar, lam = op._state.k_bar, op._state.pt.lam
        assert k_bar == cons.k_hi and lam > 0.0
        solve, calls = StepOperator._solve, []

        def fails_first(self, b, pt, k_bar=None):
            calls.append((k_bar, pt.lam))
            if len(calls) == 1:
                raise stepper.StepError("Newton line search failed")
            return solve(self, b, pt, k_bar)

        monkeypatch.setattr(StepOperator, "_solve", fails_first)
        u, t = rec.u, t + cfg.tau
        rec = op.step(forcing(t), t)
        monkeypatch.undo()
        assert calls[0] == (k_bar, lam)
        assert [k for k, _ in calls[1:]] == [None, cons.k_hi]
        assert op._state.k_bar == cons.k_hi and op._state.pt.lam == rec.lam
        ref = proximal_step(s, gp, cons, NEGATE, cfg, u, forcing(t), t)
        assert np.max(np.abs(rec.u.bulk - ref.u.bulk)) <= 1e-12
        assert abs(rec.lam - ref.lam) <= 1e-12

    def test_pinned_start_factors_per_step(self, monkeypatch):
        # the equality-band run of test_resolvents_per_step, bordered at
        # every step: after the first, each step starts at the pinned
        # barrier and takes one Newton solve, 3.2 factorizations and 8.6
        # cubic resolvents per step, where solving each step at lam = 0
        # first took 5.0 and 16.4
        d, s = make_interval(64)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=0.01, T=0.1, eps=0.05)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        factors = count_calls(monkeypatch, stepper, "dpttrf")
        cubic = count_calls(monkeypatch, stepper.gr, "_cubic_resolvent")
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
        steps = len(traj) - 1
        assert steps == 10 and all(abs(rec.lam) > 0.0 for rec in traj[1:])
        assert len(factors) <= 4 * steps
        assert len(cubic) <= 10 * steps


class TestEvaluationReuse:
    @pytest.mark.parametrize(
        "gp, rho",
        [(CUBIC, 1.0), (CUBIC, 2.0), (GraphPair(PowerOdd(1.0, 3), PowerOdd(0.5, 3)), 1.0),
         (OBSTACLE, 1.0), (GraphPair(Obstacle(-1.0, 1.0), Obstacle(-1.0, 1.0)), 0.5)],
        ids=["shared", "rho", "boundary_graph", "obstacle_graphs", "obstacle_rho"],
    )
    @pytest.mark.parametrize("geometry", ["interval", "rectangle"])
    def test_trace_resolvent_shared_only_for_equal_smoothing(
        self, monkeypatch, geometry, gp, rho
    ):
        # the boundary resolvent is the bulk one at the trace nodes only for
        # equal graphs smoothed with rho = 1; otherwise every evaluation
        # computes its own; either way the step is the one with the two
        # resolvents computed separately, and the dense reference step
        d, s = make_interval(32) if geometry == "interval" else make_rectangle(6, 6)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.01, eps=0.05, rho=rho)
        u_prev = s.field_from_bulk(0.45 * np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        f = s.field(np.full(s.n_bulk, 2.0), np.full(s.n_bnd, -1.0))
        shared = gp.bnd == gp.bulk and rho == 1.0
        op = StepOperator(s, gp, cons, NEGATE, cfg)
        assert op.shared_trace == shared
        triples = count_calls(monkeypatch, stepper.gr, "smoothed")
        evals = count_calls(monkeypatch, StepOperator, "_evaluate")
        op.start(u_prev)
        rec = op.step(f, cfg.tau)
        assert len(evals) > 1 and len(triples) == (1 if shared else 2) * len(evals)
        monkeypatch.undo()
        separate = StepOperator(s, gp, cons, NEGATE, cfg)
        separate.shared_trace = False
        separate.start(u_prev)
        ref = separate.step(f, cfg.tau)
        assert np.max(np.abs(rec.u.bulk - ref.u.bulk)) <= 1e-12
        assert abs(rec.energy - ref.energy) <= 1e-12 * abs(ref.energy)
        plain = reference_plain_step(s, gp, NEGATE, cfg, u_prev, f)
        assert np.max(np.abs(rec.u.bulk - plain)) <= 1e-10 * np.max(np.abs(plain))

    def test_step_from_another_state_is_evaluated(self, monkeypatch):
        # a step starts from the point its operator last accepted, and
        # evaluates nothing at that state; start of an earlier record, or
        # of a record changed in place, evaluates that state once, and the
        # step from it is that of a fresh operator
        d, s = make_interval(32)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.03, eps=0.05)
        u0 = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        f = s.field(np.full(s.n_bulk, 1.5), np.zeros(s.n_bnd))
        op = StepOperator(s, CUBIC, cons, NEGATE, cfg)
        op.start(u0)
        rec1 = op.step(f, cfg.tau)
        evaluated, evaluate = [], StepOperator._evaluate

        def recorded(op, u, lam, b):
            evaluated.append(u.copy())
            return evaluate(op, u, lam, b)

        monkeypatch.setattr(StepOperator, "_evaluate", recorded)
        rec2 = op.step(f, 2 * cfg.tau)
        assert evaluated and not any(np.array_equal(u, rec1.u.bulk) for u in evaluated)
        rec2.u.bulk[:] *= 0.5
        rec2.u.bnd[:] = rec2.u.bulk[s.bidx]
        assert not np.array_equal(op._state.pt.u, rec2.u.bulk)
        for u_prev in (rec1.u, rec2.u):
            evaluated.clear()
            rec0 = op.start(u_prev)
            assert len(evaluated) == 1 and np.array_equal(evaluated[0], u_prev.bulk)
            assert rec0.energy == energy(s, CUBIC, cfg, u_prev, resolvents(CUBIC, cfg, u_prev))
            rec = op.step(f, 2 * cfg.tau)
            assert not any(np.array_equal(u, u_prev.bulk) for u in evaluated[1:])
            ref = proximal_step(s, CUBIC, cons, NEGATE, cfg, u_prev, f, 2 * cfg.tau)
            assert np.array_equal(rec.u.bulk, ref.u.bulk) and rec.energy == ref.energy

    @pytest.mark.parametrize("name", SHIPPED)
    def test_record_energy_is_energy_on_shipped_scenarios(self, name):
        # the record's energy, from the resolvents of the accepted point
        # (the boundary one read from the bulk one where the graphs are
        # equal), is the energy of the state's own resolvents
        prob = build_problem(load_scenario(os.path.join(SCENARIOS_DIR, f"{name}.json")))
        sys, gp, cfg = prob.sys, prob.graphs, prob.solver
        traj = simulate(prob)
        assert len(traj) == round(cfg.T / cfg.tau) + 1
        assert all(rec.energy == energy(sys, gp, cfg, rec.u, resolvents(gp, cfg, rec.u))
                   for rec in traj)

    @pytest.mark.parametrize(
        "geometry, eps, rho, p",
        [("interval", 0.05, 1.0, 3), ("rectangle", 0.05, 1.0, 3),
         ("interval", 1.0, 1.0, 3), ("rectangle", 1.0, 1.0, 3),
         ("interval", 0.5, 4.0, 5), ("rectangle", 0.5, 4.0, 5)],
        ids=["interval", "rectangle", "interval-eps1", "rectangle-eps1",
             "interval-rho4-p5", "rectangle-rho4-p5"],
    )
    def test_huge_power_coefficient_runs(self, geometry, eps, rho, p):
        # a*p*|j|**(p-1) overflows for a coefficient near the float maximum,
        # and so does 3*eps*a (eps = 1) or eps*rho*a (rho = 4) of the
        # resolvents; the resolvents and slopes stay finite, and two steps run
        d, s = make_interval(8) if geometry == "interval" else make_rectangle(4, 4)
        gp = GraphPair(PowerOdd(1e308, p), PowerOdd(1e308, p))
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.01, T=0.02, eps=eps, rho=rho)
        u0 = s.field_from_bulk(0.5 * np.sin(np.pi * d.coords[:, 0]))
        f = s.field(np.full(s.n_bulk, 2.0), np.zeros(s.n_bnd))
        traj = simulate(Problem(s, gp, NEGATE, cfg, cons, u0, lambda t: f))
        assert len(traj) == 3
        op = StepOperator(s, gp, cons, NEGATE, cfg)
        for rec in traj:
            assert np.all(np.isfinite(gp.bulk.resolvent_eff(rec.u.bulk, cfg.eps)))
            slope = slope_at(op, rec.u.bulk)
            assert np.all(np.isfinite(slope)) and np.all(slope <= op.sys.H / cfg.eps * (1 + 1e-15))
            assert math.isfinite(rec.energy)
        for rec in traj[1:]:
            assert rec.residual_bulk <= 10 * cfg.newton_tol
            assert rec.residual_bnd <= 10 * cfg.newton_tol


class TestTrajectories:
    def run_prototype(self, nx=64, center=0.42, T=0.5, **cfg_kw):
        d, s = make_interval(nx)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=1e-2, T=T, eps=0.05, **cfg_kw)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - center) / 0.15))
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
        return d, s, cons, cfg, u0, traj

    def test_stationary_zero(self):
        _, s = make_interval(16)
        cons = make_constraint(s, bulk_weight(s), -0.5, 0.5)
        cfg = SolverConfig(tau=0.05, T=0.5, eps=0.2)
        traj = simulate(Problem(
            s, CUBIC, PerturbationSpec(), cfg, cons, s.constant_field(0.0),
            lambda t: zero_field(s),
        ))
        for rec in traj:
            assert rec.lam == 0.0
            assert np.max(np.abs(rec.u.bulk)) <= 1e-12

    def test_constrained_run_invariants(self):
        _, s, cons, cfg, u0, traj = self.run_prototype()
        tol_k = mass_tolerance(cons)
        probes = [s.constant_field(cons.k_lo / total_weight(s, cons))]
        u_prev = u0
        for rec in traj[1:]:
            assert abs(rec.k) <= tol_k
            assert rec.residual_bulk <= 10 * cfg.newton_tol
            assert rec.residual_bnd <= 10 * cfg.newton_tol
            assert s.check_trace(rec.u)
            assert multiplier_sign_ok(cons, rec.k, rec.lam)
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
            b = op.constant_part(u_prev.bulk, zero_field(s))
            lams = rec.lam + np.linspace(-0.5, 0.5, 5)
            masses = [op.mass_of(solve(op, b, u_prev.bulk, lam=l)[0]) for l in lams]
            for m1, m2 in zip(masses[:-1], masses[1:]):
                assert m1 > m2 - 1e-12
                checked += 1
            assert masses[0] > rec.k > masses[-1]
            u_prev = rec.u
        assert checked > 0

    def test_wells_and_full_energy_descent(self):
        # unconstrained double-well flow settles at the shifted well; the
        # energy including the perturbation primitive decreases throughout
        d, s = make_interval(64)
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=1e-2, T=8.0, eps=0.05)
        u0 = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
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
        traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
        tol_k = mass_tolerance(cons)
        for rec in traj:
            assert cons.k_lo - tol_k <= rec.k <= cons.k_hi + tol_k
            assert s.check_trace(rec.u)
            assert rec.residual_bulk <= 10 * cfg.newton_tol
            assert rec.residual_bnd <= 10 * cfg.newton_tol
            assert multiplier_sign_ok(cons, rec.k, rec.lam)

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
        traj = simulate(prob)
        assert len(traj) == 5
        assert all(rec.lam == 0.0 for rec in traj)

    def test_infeasible_initial_mass(self):
        _, s = make_interval(8)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=0.1, T=0.2, eps=0.1)
        bad = s.constant_field(1.0)
        with pytest.raises(InfeasibleDataError, match=r"^\(p3\) initial mass 1 violates"):
            simulate(Problem(s, CUBIC, NEGATE, cfg, cons, bad, lambda t: zero_field(s)))

    @pytest.mark.parametrize(
        "tau, T, message",
        [(0.03, 0.1, "is not a whole multiple"), (0.3, 0.1, "is not a whole multiple"),
         (1e-300, 1e10, "is too many steps")],
    )
    def test_time_grid_not_whole_steps(self, tau, T, message):
        # T = 0.1 is 3.33 steps of 0.03 and 0.33 of 0.3, and 1e310 steps
        # overflow: the config raises the message scenario validation gives
        want = rf"^\(solver\) T={T!r} {message} of tau={tau!r}$"
        errors = stepper.time_grid_errors(tau, T)
        assert len(errors) == 1 and re.match(want, errors[0])
        with pytest.raises(ValueError, match=want):
            SolverConfig(tau=tau, T=T, eps=0.05)

    def test_initial_outside_obstacle_domain(self):
        _, s = make_interval(8)
        gp = GraphPair(Obstacle(-1.0, 1.0), Obstacle(-1.0, 1.0))
        cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
        cfg = SolverConfig(tau=0.1, T=0.2, eps=0.1)
        with pytest.raises(InfeasibleDataError, match=r"^\(p4\) bulk .*; \(p4\) boundary"):
            simulate(Problem(s, gp, NEGATE, cfg, cons, s.constant_field(2.0),
                             lambda t: zero_field(s)))


# the graphs of the (p4) property test: odd powers with a = 0 and a > 0, the
# obstacle and the polyline with vertical segments
P4_GRAPHS = [PowerOdd(a, p) for p in (1, 3, 5) for a in (0.0, 1.0)] + [
    OBSTACLE.bulk, VERTICAL.bulk,
]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    gi=st.integers(0, len(P4_GRAPHS) - 1),
    values=st.lists(st.one_of(st.floats(-3.0, 3.0), st.floats(-1.7e308, 1.7e308)),
                    min_size=3, max_size=12),
)
# a quartic primitive overflowing only at the smallest bulk value
@example(gi=1, values=[0.0, -1e200, 1.0])
def test_p4_verdict_at_the_extremes_is_the_verdict_at_every_node(gi, values):
    # the check reads the primitive at the smallest and the largest node
    # value only; it must flag a side exactly when some node is not finite
    g = P4_GRAPHS[gi]
    _, s = make_interval(len(values) - 1)
    u = np.array(values)
    cons = make_constraint(s, bulk_weight(s), -math.inf, math.inf)
    prob = Problem(s, GraphPair(g, g), NEGATE, SolverConfig(tau=0.1, T=0.1, eps=0.1), cons,
                   s.field_from_bulk(u), lambda t: zero_field(s))
    # overflow is part of what is checked
    with np.errstate(over="ignore"):
        errors = stepper.initial_data_errors(prob)
        for side, v in (("bulk", u), ("boundary", u[s.bidx])):
            flagged = f"(p4) {side} primitive of the initial data is not integrable" in errors
            assert flagged == (not np.all(np.isfinite(g.primitive(v))))


def record_bits(rec) -> tuple:
    """Every value of a record, bit for bit."""
    floats = (rec.t, rec.lam, rec.k, rec.energy, rec.residual_bulk, rec.residual_bnd)
    return (*map(float.hex, floats), rec.u.bulk.tobytes(), rec.u.bnd.tobytes())


class TestIterSteps:
    def short_run(self) -> Problem:
        d, s = make_interval(16)
        cons = make_constraint(s, bulk_weight(s), 0.0, 0.0)
        cfg = SolverConfig(tau=0.05, T=0.3, eps=0.1)
        u0 = centered(s, cons, np.tanh((d.coords[:, 0] - 0.42) / 0.15))
        return Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s))

    @pytest.mark.parametrize("name", ["prototype", "rect_band"])
    def test_lockstep_runs_yield_the_records_of_simulate(self, name):
        # two runs of one problem, stepped in alternation as check-cd steps
        # them, each yield the records of a run on its own, bit for bit
        prob = build_problem(load_scenario(os.path.join(SCENARIOS_DIR, f"{name}.json")))
        ref = [record_bits(rec) for rec in simulate(prob)]
        pairs = list(zip(iter_steps(prob), iter_steps(prob)))
        assert len(ref) == round(prob.solver.T / prob.solver.tau) + 1
        assert [record_bits(a) for a, _ in pairs] == ref
        assert [record_bits(b) for _, b in pairs] == ref

    def test_lazy(self, monkeypatch):
        prob = self.short_run()
        built = count_calls(monkeypatch, StepOperator, "__init__")
        steps = count_calls(monkeypatch, StepOperator, "step")
        run = iter_steps(prob)
        assert built == [] and steps == []
        assert next(run).t == 0.0
        assert built == [1] and steps == []
        assert next(run).t == prob.solver.tau
        assert steps == [1]
        # the initial data are checked at the first next, not at the call
        bad = iter_steps(replace(prob, u0=prob.sys.constant_field(1.0)))
        with pytest.raises(InfeasibleDataError, match=r"^\(p3\)"):
            next(bad)

    def test_step_error_after_the_records_before_it(self, monkeypatch):
        prob = self.short_run()
        ref = [record_bits(rec) for rec in simulate(prob)]
        fail_at = 3
        calls = []
        original = StepOperator.step

        def failing(op, f_now, t):
            calls.append(t)
            if len(calls) == fail_at:
                raise StepError("injected")
            return original(op, f_now, t)

        monkeypatch.setattr(StepOperator, "step", failing)
        got = []
        with pytest.raises(StepError, match="^injected$"):
            for rec in iter_steps(prob):
                got.append(record_bits(rec))
        assert got == ref[:fail_at]


class TestPerturbationSpec:
    def test_catalog_values(self):
        p = PerturbationSpec(
            bulk_kind="sine", bulk_params={"amplitude": 2.0, "frequency": 3.0},
            bnd_kind="linear", bnd_params={"c": -0.5},
        )
        assert p.eval_bulk(0.0) == pytest.approx(0.0)
        assert p.eval_bnd(2.0) == pytest.approx(-1.0)

    # each kind's exact Lipschitz constant; the fast sine's slope is 1 while
    # its values stay within 0.001
    CONSTANTS = [
        ("zero", {}, 0.0),
        ("linear", {"c": -0.5}, 0.5),
        ("negate", {}, 1.0),
        ("sine", {"amplitude": 2.0, "frequency": 3.0}, 6.0),
        ("sine", {"amplitude": 0.001, "frequency": 1000.0}, 1.0),
    ]
    CONSTANT_IDS = ["zero", "linear", "negate", "sine", "fast_sine"]

    @pytest.mark.parametrize("kind, params, constant", CONSTANTS, ids=CONSTANT_IDS)
    def test_exact_constant(self, kind, params, constant):
        p = PerturbationSpec(bulk_kind=kind, bnd_kind=kind, bulk_params=params, bnd_params=params)
        assert p.lipschitz_bulk == p.lipschitz_bnd == constant

    @pytest.mark.parametrize("kind, params, constant", CONSTANTS, ids=CONSTANT_IDS)
    def test_constant_is_the_largest_slope(self, kind, params, constant):
        # difference quotients on a grid 1e-4 wide per period bound the
        # slope from below and come within 1e-3 of its supremum
        p = PerturbationSpec(bulk_kind=kind, bulk_params=params)
        grid = np.linspace(-5.0, 5.0, 100001) / params.get("frequency", 1.0)
        slopes = np.abs(np.diff(p.eval_bulk(grid)) / np.diff(grid))
        assert slopes.max() <= constant * (1.0 + 1e-12)
        assert slopes.max() >= constant * (1.0 - 1e-3)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"bulk_kind": "cosine"}, "unknown perturbation kind 'cosine'"),
            ({"bnd_kind": None}, "unknown perturbation kind None"),
            ({"bulk_kind": "sine", "bulk_params": {"frequency": 1.0}},
             "'amplitude' is missing from the bulk sine perturbation"),
            ({"bnd_kind": "linear"}, "'c' is missing from the bnd linear perturbation"),
            ({"bnd_kind": "sine", "bnd_params": {"amplitude": math.nan, "frequency": 1.0}},
             "Lipschitz constants must be finite"),
            ({"bulk_kind": "linear", "bulk_params": {"c": "1.5"}},
             "the bulk linear parameters must be real numbers: bad operand type for abs(): 'str'"),
            # the constant 10**400 * 0 is finite, the amplitude is not a float
            ({"bulk_kind": "sine", "bulk_params": {"amplitude": 10**400, "frequency": 0}},
             "the bulk sine parameters must be real numbers: int too large to convert to float"),
        ],
        ids=["unknown_kind", "null_kind", "sine_without_amplitude", "linear_without_c",
             "nan_lipschitz", "text_parameter", "huge_integer_amplitude"],
    )
    def test_rejected_when_constructed(self, kwargs, message):
        with pytest.raises(ValueError, match=rf"^\(perturbation\) {re.escape(message)}$"):
            PerturbationSpec(**kwargs)


@pytest.mark.parametrize("name, value", [("tau", math.nan), ("tau", math.inf), ("T", math.nan),
                                         ("T", -1.0), ("rho", math.nan), ("rho", math.inf)])
def test_solver_config_rejects_nonpositive_or_nonfinite(name, value):
    message = rf"non-finite solver values in {name}$|{name}\S* must be positive"
    with pytest.raises(ValueError, match=message):
        SolverConfig(**{"tau": 0.01, "T": 0.1, "eps": 0.05, name: value})


@pytest.mark.parametrize("value", [0, 2.5, -1, 60.0])
def test_solver_config_rejects_newton_max_iter_not_a_positive_integer(value):
    with pytest.raises(ValueError, match=rf"newton_max_iter={value!r} must be an integer >= 1"):
        SolverConfig(tau=0.01, T=0.1, eps=0.05, newton_max_iter=value)


def test_solver_config_reports_every_violation():
    with pytest.raises(ValueError) as info:
        SolverConfig(tau=0.0, T=0.1, eps=3.0, rho=-1.0, newton_tol=math.inf)
    assert str(info.value) == (
        "(finite) non-finite solver values in newton_tol; (solver) tau=0.0 must be positive; "
        "(solver) eps must lie in (0, 1]; (graphs) rho must be positive and finite"
    )


def test_solver_config_boundary_smoothing():
    cfg = SolverConfig(tau=0.01, T=0.1, eps=0.3, rho=0.7)
    assert cfg.eps_bnd == 0.3 * 0.7
