"""The energy, the per-run monitors and the three verification harnesses."""

from __future__ import annotations

import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import acdyn.diagnostics as diagnostics
import acdyn.stepper as stepper
from acdyn.constraint import make_constraint
from acdyn.diagnostics import continuous_dependence, eps_sweep, gronwall_constant
from acdyn.graphs import GraphPair, PowerOdd, envelope, resolvent
from acdyn.mesh import inner_H
from acdyn.scenario import Scenario, build_problem
from acdyn.stepper import PerturbationSpec, Problem, SolverConfig, StepOperator, energy, simulate

from helpers import (
    make_interval,
    monitor_bounds,
    monitors_no_growth,
    moreau,
    prototype_scenario,
    resolvents,
    with_data,
    yosida,
    zero_field,
)

CUBIC = GraphPair(PowerOdd(1.0, 3), PowerOdd(1.0, 3))


class TestEnergy:
    def test_zero_field(self):
        _, s = make_interval(8)
        cfg = SolverConfig(tau=0.1, T=0.1, eps=0.5)
        u = zero_field(s)
        assert energy(s, CUBIC, cfg, u, resolvents(CUBIC, cfg, u)) == 0.0

    def test_unit_constant_closed_form(self):
        # u = 1 on the unit interval, whose boundary is two nodes of mass 1:
        # the bulk and boundary envelopes of the linear graph are 0.25 and
        # 0.5, the gradient terms 0 and the eps terms 0.5 and 1.0; the
        # monitors of the one-record run from u read the envelopes and
        # sqrt(|u|^2_M + u.A u), which is 1 in the bulk and sqrt(2) on it
        _, s = make_interval(10)
        gp = GraphPair(PowerOdd(1.0, 1), PowerOdd(1.0, 1))
        cfg = SolverConfig(tau=0.1, T=0.1, eps=1.0)
        u = s.constant_field(1.0)
        assert energy(s, gp, cfg, u, resolvents(gp, cfg, u)) == pytest.approx(2.25, abs=1e-13)
        cons = make_constraint(s, s.constant_field(1.0), -math.inf, math.inf)
        rec = StepOperator(s, gp, cons, PerturbationSpec(), cfg).start(u)
        table = monitor_bounds(s, gp, [(cfg, [rec])])
        assert table["sup_env_bulk"] == [pytest.approx(0.25, abs=1e-13)]
        assert table["sup_env_bnd"] == [pytest.approx(0.5, abs=1e-13)]
        assert table["sup_v_bulk"] == [pytest.approx(1.0, abs=1e-13)]
        assert table["sup_v_bnd"] == [pytest.approx(math.sqrt(2.0), abs=1e-13)]

    def test_random_against_direct_summation(self):
        _, s = make_interval(16)
        cfg = SolverConfig(tau=0.1, T=0.1, eps=0.3)
        rng = np.random.default_rng(6)
        u = s.field_from_bulk(rng.standard_normal(s.n_bulk))
        total = energy(s, CUBIC, cfg, u, resolvents(CUBIC, cfg, u))
        direct = 0.5 * float(u.bulk @ (s.A_bulk @ u.bulk))
        for i in range(s.n_bulk):
            direct += s.M_bulk[i] * float(moreau(CUBIC.bulk, cfg.eps, u.bulk[i]))
            direct += 0.5 * cfg.eps * s.M_bulk[i] * u.bulk[i] ** 2
        for j in range(s.n_bnd):
            direct += s.M_bnd[j] * float(moreau(CUBIC.bnd, cfg.eps * cfg.rho, u.bnd[j]))
            direct += 0.5 * cfg.eps * s.M_bnd[j] * u.bnd[j] ** 2
        assert total == pytest.approx(direct, abs=1e-12)

    def test_envelope_summand_grows_as_eps_shrinks(self):
        _, s = make_interval(16)
        rng = np.random.default_rng(12)
        u = s.field_from_bulk(2.0 * rng.standard_normal(s.n_bulk))
        prev = None
        for eps in [1.0, 0.5, 0.1, 0.01]:
            j = resolvent(CUBIC.bulk, eps, u.bulk)
            env = float(np.dot(s.M_bulk, envelope(CUBIC.bulk, eps, u.bulk, j)))
            if prev is not None:
                assert env >= prev - 1e-12
            prev = env


class TestMonitors:
    def test_zero_data_all_zero(self):
        _, s = make_interval(16)
        w = s.field(np.ones(s.n_bulk), np.zeros(s.n_bnd))
        cons = make_constraint(s, w, -math.inf, math.inf)
        runs = []
        for eps in (0.2, 0.1, 0.05):
            cfg = SolverConfig(tau=0.05, T=0.3, eps=eps)
            traj = simulate(Problem(
                s, CUBIC, PerturbationSpec(), cfg, cons, s.constant_field(0.0),
                lambda t: zero_field(s),
            ))
            runs.append((cfg, traj))
        table = monitor_bounds(s, CUBIC, runs)
        for name, col in table.items():
            if name == "eps":
                continue
            assert all(v == 0.0 for v in col)
        assert monitors_no_growth(table)

    def test_lambda_column_zero_for_unconstrained(self):
        _, s = make_interval(16)
        w = s.field(np.ones(s.n_bulk), np.zeros(s.n_bnd))
        cons = make_constraint(s, w, -math.inf, math.inf)
        d, _ = make_interval(16)
        u0 = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.4) / 0.2))
        runs = []
        for eps in (0.2, 0.1):
            cfg = SolverConfig(tau=0.05, T=0.2, eps=eps)
            traj = simulate(Problem(
                s, CUBIC,
                PerturbationSpec(bulk_kind="negate", bnd_kind="negate"),
                cfg, cons, u0, lambda t: zero_field(s),
            ))
            runs.append((cfg, traj))
        table = monitor_bounds(s, CUBIC, runs)
        assert all(v == 0.0 for v in table["lambda_l2"])

    def test_sup_columns_against_direct_sums(self):
        d, s = make_interval(16)
        cons = make_constraint(s, s.constant_field(1.0), -math.inf, math.inf)
        u0 = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.4) / 0.2))
        cfg = SolverConfig(tau=0.05, T=0.2, eps=0.1, rho=2.0)  # eps*rho on the boundary
        traj = simulate(Problem(s, CUBIC, PerturbationSpec(), cfg, cons, u0,
                                lambda t: zero_field(s)))
        table = monitor_bounds(s, CUBIC, [(cfg, traj)])
        for side, M, A, eps_eff in (("bulk", s.M_bulk, s.A_bulk, cfg.eps),
                                    ("bnd", s.M_bnd, s.A_bnd, cfg.eps * cfg.rho)):
            g = getattr(CUBIC, side)
            us = [getattr(rec.u, side) for rec in traj]
            sup_v = max(math.sqrt(np.dot(M, u**2) + u @ (A @ u)) for u in us)
            sup_env = max(np.dot(M, moreau(g, eps_eff, u)) for u in us)
            # the smoothed map is summed over the steps, not the initial state
            xi_l2 = math.sqrt(sum(cfg.tau * np.dot(M, yosida(g, eps_eff, u) ** 2) for u in us[1:]))
            assert table[f"sup_v_{side}"][0] == pytest.approx(sup_v, rel=1e-13)
            assert table[f"sup_env_{side}"][0] == pytest.approx(sup_env, rel=1e-13)
            assert table[f"xi_l2_{side}"][0] == pytest.approx(xi_l2, rel=1e-13)


class TestContinuousDependence:
    def test_identical_scenarios(self):
        base = prototype_scenario()
        report = continuous_dependence(base, base)
        assert max(report.lhs) <= 1e-18
        assert report.max_ratio == 0.0

    def test_constant_value(self):
        assert gronwall_constant(1.0, 1.0, 1.0) == pytest.approx(math.exp(4.0))
        assert gronwall_constant(0.0, 0.0, 2.0) == pytest.approx(math.exp(4.0))

    @pytest.mark.parametrize("delta", [1e-1, 1e-3])
    def test_initial_data_perturbation(self, delta):
        base = prototype_scenario()
        pert = with_data(
            base, u0={
                "kind": "sum",
                "terms": [
                    {"kind": "tanh_x", "center": 0.5, "width": 0.15},
                    {"kind": "sine_x", "amplitude": delta, "frequency": 2.0},
                ],
            }
        )
        report = continuous_dependence(base, pert)
        assert 0.0 < report.max_ratio <= 1.0

    def test_source_perturbation(self):
        base = prototype_scenario()
        pert = with_data(
            base, f={
                "space": {"kind": "sine_x", "amplitude": 0.05, "frequency": 3.0},
                "time": {"kind": "sinusoidal", "omega": 2.0},
            }
        )
        report = continuous_dependence(base, pert)
        assert 0.0 < report.max_ratio <= 1.0

    def test_heap_does_not_grow_with_the_steps(self):
        # the two runs step in lockstep: what grows per step is the report's
        # two floats, not two stored records (above 2 KB per step)
        def heap_peak(T):
            scenario = prototype_scenario(solver={"tau": 0.01, "T": T, "eps": 0.05})
            tracemalloc.start()
            try:
                continuous_dependence(scenario, scenario)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        heap_peak(0.5)  # warm-up: lazy imports and first-call caches
        per_step = (heap_peak(4.0) - heap_peak(0.5)) / 350
        assert per_step < 300

    def test_non_data_mismatch_rejected(self):
        base = prototype_scenario()
        raw = base.to_dict()
        raw["solver"]["tau"] = 0.02
        other = Scenario.from_dict(raw)
        with pytest.raises(ValueError):
            continuous_dependence(base, other)


class TestEpsSweep:
    def linear_scenario(self) -> Scenario:
        return Scenario.from_dict(
            {
                "domain": {"kind": "interval", "sizes": [1.0], "resolution": [2]},
                "graphs": {
                    "bulk": {"kind": "zero"},
                    "boundary": {"kind": "zero"},
                    "rho": 1.0,
                },
                "data": {
                    "u0": {"kind": "linear_x", "intercept": 0.1, "slope": 0.5},
                    "f": {
                        "space": {"kind": "sine_x", "amplitude": 0.5, "frequency": 1.0},
                        "time": {"kind": "constant"},
                    },
                    "f_gamma": {
                        "space": {"kind": "constant", "value": 0.2},
                        "time": {"kind": "constant"},
                    },
                },
                "constraint": {"k_lo": None, "k_hi": None},
                "solver": {"tau": 0.1, "T": 0.5, "eps": 0.2},
            }
        )

    def test_linear_closed_form_oracle(self):
        # with a zero graph each step is one linear solve; replicate it
        # densely per eps and compare the sweep distances exactly
        scenario = self.linear_scenario()
        eps_list = [0.2, 0.1, 0.05]
        result = eps_sweep(scenario, eps_list)

        _, s = make_interval(2)
        x = np.linspace(0, 1, 3)
        u0 = 0.1 + 0.5 * x
        f_bulk = 0.5 * np.sin(np.pi * x)
        f_bnd = np.array([0.2, 0.2])
        W = s.M_bulk.copy()
        W[s.bidx] += s.M_bnd
        A = s.A_bulk.toarray()
        tau, n_steps = 0.1, 5
        states = {}
        for eps in eps_list:
            K = (1.0 / tau + eps) * np.diag(W) + A
            u = u0.copy()
            hist = [u.copy()]
            for _ in range(n_steps):
                rhs = s.M_bulk * (u / tau + f_bulk)
                rhs[s.bidx] += s.M_bnd * (u[s.bidx] / tau + f_bnd)
                u = np.linalg.solve(K, rhs)
                hist.append(u.copy())
            states[eps] = hist
        for j, (ea, eb) in enumerate(zip(eps_list[:-1], eps_list[1:])):
            worst = 0.0
            for ua, ub in zip(states[ea], states[eb]):
                diff = ua - ub
                h2 = float(np.dot(s.M_bulk, diff**2) + np.dot(s.M_bnd, diff[s.bidx] ** 2))
                worst = max(worst, math.sqrt(h2))
            assert result["d"][j] == pytest.approx(worst, abs=1e-9)
        assert all(b < a for a, b in zip(result["d"][:-1], result["d"][1:]))
        # first-order proportionality to eps: halving eps about halves d_j
        ratio = result["d"][1] / result["d"][0]
        assert 0.35 <= ratio <= 0.65

    def test_singleton_list_empty_table(self):
        result = eps_sweep(self.linear_scenario(), [0.2])
        assert result["d"] == []

    def test_requires_decreasing(self):
        with pytest.raises(ValueError):
            eps_sweep(self.linear_scenario(), [0.1, 0.2])

    def test_prototype_sweep_decreasing_and_bounded(self):
        scenario = prototype_scenario(solver={"tau": 0.01, "T": 0.3, "eps": 0.05})
        eps_list = [0.2, 0.1, 0.05, 0.025]
        result = eps_sweep(scenario, eps_list)
        assert all(b < a for a, b in zip(result["d"][:-1], result["d"][1:]))
        assert monitors_no_growth(result["monitors"])

    def test_one_energy_per_record(self, monkeypatch):
        # each record's energy is evaluated once, by its step; the monitors
        # read the envelopes and gradient terms from their own products
        scenario = prototype_scenario(solver={"tau": 0.01, "T": 0.05, "eps": 0.05})
        eps_list = [0.2, 0.1, 0.05]
        calls = []

        def counted(*args):
            calls.append(args)
            return energy(*args)

        monkeypatch.setattr(stepper, "energy", counted)
        monkeypatch.setattr(diagnostics, "energy", counted, raising=False)
        eps_sweep(scenario, eps_list)
        assert len(calls) == len(eps_list) * (5 + 1)


class TestSerialHarnesses:
    def test_no_thread_is_started(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a harness started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        scenario = prototype_scenario(
            domain={"kind": "interval", "sizes": [1.0], "resolution": [8]},
            solver={"tau": 0.01, "T": 0.03, "eps": 0.05},
        )
        assert len(eps_sweep(scenario, [0.1, 0.05])["d"]) == 1
        assert len(continuous_dependence(scenario, scenario).times) == 3

    def test_streamed_sweep_matches_stored_runs(self):
        scenario = prototype_scenario(solver={"tau": 0.01, "T": 0.1, "eps": 0.05})
        eps_list = [0.2, 0.1, 0.05]
        prob = build_problem(scenario)
        runs = []
        for eps in eps_list:
            cfg = replace(prob.solver, eps=eps)
            traj = simulate(replace(prob, solver=cfg))
            runs.append((cfg, traj))
        d = []
        for (_, ta), (_, tb) in zip(runs[:-1], runs[1:]):
            gaps = [ra.u - rb.u for ra, rb in zip(ta, tb)]
            d.append(max(math.sqrt(max(inner_H(prob.sys, e, e), 0.0)) for e in gaps))
        result = eps_sweep(scenario, eps_list)
        assert result["d"] == d
        assert result["monitors"] == monitor_bounds(prob.sys, prob.graphs, runs)
        assert set(result) == {"eps_list", "d", "monitors"}
