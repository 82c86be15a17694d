"""Scenario validation, serialization, and the command-line surface."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdyn import cli, graphs
from acdyn.cli import _snapshot_writer, main
from acdyn.graphs import Obstacle, PiecewiseLinear, PowerOdd, ResolventError
from acdyn.mesh import CoupledField, Domain, assemble, build_domain
from acdyn.scenario import (
    Scenario,
    ScenarioError,
    build_problem,
    graph_from_config,
    load_scenario,
    validate,
)

PROTO = {
    "domain": {"kind": "interval", "sizes": [1.0], "resolution": [32]},
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
    "solver": {"tau": 0.01, "T": 0.1, "eps": 0.05},
    "output": {"dir": "out", "snapshot_every": 0},
}


INF = float("inf")  # written to the scenario file as Infinity
NAN = float("nan")  # written as NaN
PWL = {"kind": "piecewise_linear", "vertices": [[-1.0, -1.0], [1.0, 1.0]]}


def proto(**patch) -> dict:
    raw = copy.deepcopy(PROTO)
    for key, value in patch.items():
        raw[key] = value
    return raw


def write_scenario(tmp_path, raw, name="s.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestValidate:
    def test_prototype_valid(self):
        assert validate(Scenario.from_dict(proto())) == []

    def test_obstacle_initial_data_rejected_p4(self):
        raw = proto(
            graphs={
                "bulk": {"kind": "obstacle", "lo": -1.0, "hi": 1.0},
                "boundary": {"kind": "obstacle", "lo": -1.0, "hi": 1.0},
                "rho": 1.0,
            },
            constraint={"k_lo": None, "k_hi": None},
        )
        raw["data"] = {"u0": {"kind": "constant", "value": 2.0}}
        errors = validate(Scenario.from_dict(raw))
        assert any("(p4)" in e for e in errors)

    def test_zero_weights_rejected_p2(self):
        raw = proto(
            constraint={
                "w": {"kind": "constant", "value": 0.0},
                "w_gamma": {"kind": "constant", "value": 0.0},
                "k_lo": 0.0,
                "k_hi": 0.0,
            }
        )
        raw["data"] = {"u0": {"kind": "constant", "value": 0.0}}
        errors = validate(Scenario.from_dict(raw))
        assert any("(p2)" in e for e in errors)

    def test_negative_weight_rejected_p2(self):
        raw = proto(
            constraint={
                "w": {"kind": "linear_x", "intercept": -1.0, "slope": 1.0},
                "w_gamma": {"kind": "constant", "value": 0.0},
                "k_lo": None,
                "k_hi": None,
            }
        )
        errors = validate(Scenario.from_dict(raw))
        assert any("(p2)" in e for e in errors)

    def test_incompatible_initial_mass_rejected_p3(self):
        raw = proto()
        raw["data"] = {"u0": {"kind": "constant", "value": 1.0}}
        errors = validate(Scenario.from_dict(raw))
        assert any("(p3)" in e for e in errors)
        assert any("k_lo" in e for e in errors)

    def test_declared_lipschitz_constants_ignored(self):
        # older files declare the constants; the catalog's exact ones hold
        raw = proto()
        raw["perturbation"] = {
            "bulk": {"kind": "negate"},
            "boundary": {"kind": "zero"},
            "lipschitz_bulk": 0.1,
            "lipschitz_bnd": 5.0,
        }
        pert = build_problem(Scenario.from_dict(raw)).perturbation
        assert (pert.lipschitz_bulk, pert.lipschitz_bnd) == (1.0, 0.0)

    def test_mismatched_boundary_data_rejected(self):
        raw = proto(constraint={"k_lo": None, "k_hi": None})
        raw["data"] = {
            "u0": {"kind": "constant", "value": 0.0},
            "u0_gamma": {"kind": "constant", "value": 1.0},
        }
        errors = validate(Scenario.from_dict(raw))
        assert any("(inidata)" in e for e in errors)

    def test_retired_solver_keys_ignored(self):
        solver = dict(PROTO["solver"], mode="fully_variational", lambda_max_iter=5, lambda_tol=NAN)
        assert validate(Scenario.from_dict(proto(solver=solver))) == []

    def test_violations_of_several_blocks_reported_together(self):
        raw = proto(
            solver=dict(PROTO["solver"], tau=0.0, eps=3.0),
            constraint=dict(PROTO["constraint"], w={"kind": "constant", "value": -1.0}),
        )
        errors = validate(Scenario.from_dict(raw))
        assert "(solver) tau=0.0 must be positive" in errors
        assert "(solver) eps must lie in (0, 1]" in errors
        assert "(p2) weights must be nonnegative" in errors

    def test_every_solver_violation_reported(self):
        solver = dict(PROTO["solver"], tau=0.0, T=NAN, eps=3.0, newton_tol=-1.0)
        errors = validate(Scenario.from_dict(proto(solver=solver)))
        assert errors == [
            "(finite) non-finite solver values in T",
            "(solver) tau=0.0 must be positive",
            "(solver) newton_tol=-1.0 must be positive",
            "(solver) eps must lie in (0, 1]",
        ]

    def test_unreadable_barrier_keeps_weight_checks(self):
        w = {"kind": "constant", "value": -1.0}
        errors = validate(Scenario.from_dict(proto(constraint=dict(PROTO["constraint"], w=w,
                                                                   k_lo="x"))))
        assert errors == ["(constraint) k_lo='x' must be a number or null",
                          "(p2) weights must be nonnegative"]

    def test_bad_domain_reported(self):
        raw = proto(domain={"kind": "interval", "sizes": [1.0], "resolution": [1]})
        errors = validate(Scenario.from_dict(raw))
        assert errors and "(domain)" in errors[0]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        scenario = Scenario.from_dict(proto())
        path = tmp_path / "round.json"
        path.write_text(json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n")
        again = load_scenario(str(path))
        assert again.to_dict() == scenario.to_dict()
        assert validate(again) == validate(scenario)

    def test_sentinel_barriers(self):
        scenario = Scenario.from_dict(proto(constraint={"k_lo": None, "k_hi": None}))
        prob = build_problem(scenario)
        assert (prob.constraint.k_lo, prob.constraint.k_hi) == (-INF, INF)


class TestGraphConfig:
    def test_roundtrip_kinds(self):
        for cfg, cls in [
            ({"kind": "zero"}, PowerOdd),
            ({"kind": "linear", "slope": 2.0}, PowerOdd),
            ({"kind": "power_odd", "coefficient": 1.0, "exponent": 3}, PowerOdd),
            ({"kind": "obstacle", "lo": -1.0, "hi": 1.0}, Obstacle),
            (
                {"kind": "piecewise_linear", "vertices": [[-1, -1], [-1, 0], [1, 0], [1, 1]],
                 "slope_left": 1.0, "slope_right": 1.0},
                PiecewiseLinear,
            ),
        ]:
            assert isinstance(graph_from_config(cfg), cls)


class TestCli:
    def test_validate_exit_codes(self, tmp_path, capsys):
        good = write_scenario(tmp_path, proto(), "good.json")
        assert main(["validate", good]) == 0
        bad_raw = proto()
        bad_raw["data"] = {"u0": {"kind": "constant", "value": 1.0}}
        bad = write_scenario(tmp_path, bad_raw, "bad.json")
        assert main(["validate", bad]) == 2
        out = capsys.readouterr().out
        assert "(p3)" in out

    @pytest.mark.parametrize("vertices", [[[-0.1, -0.3], [0.2, 0.6]], [[-0.3, -0.1], [0.6, 0.2]]],
                             ids=["y=3x", "y=x/3"])
    def test_line_through_origin_validates(self, tmp_path, capsys, vertices):
        graphs = dict(PROTO["graphs"], bulk=dict(PWL, vertices=vertices))
        assert main(["validate", write_scenario(tmp_path, proto(graphs=graphs))]) == 0
        assert "(graphs)" not in capsys.readouterr().out

    def test_zero_graphs_validate_where_the_power_overflows(self, tmp_path, capsys):
        # the zero graph's primitive is 0 everywhere, also at 1e100, whose
        # fourth power overflows; 0*inf would be a nan and two (p4) errors
        raw = shipped("unconstrained")
        for side in ("bulk", "boundary"):
            raw["graphs"][side]["coefficient"] = 0.0
        raw["data"]["u0"] = {"kind": "constant", "value": 1e100}
        assert main(["validate", write_scenario(tmp_path, raw)]) == 0
        assert "(p4)" not in capsys.readouterr().out

    def test_check_cd_mismatch_exit_code(self, tmp_path, capsys):
        a = write_scenario(tmp_path, proto(), "a.json")
        b = write_scenario(tmp_path, proto(solver=dict(PROTO["solver"], tau=0.02)), "b.json")
        out_dir = tmp_path / "cd"
        assert main(["check-cd", a, b, "--out", str(out_dir)]) == 2
        out = capsys.readouterr().out
        assert "(check-cd) scenarios may differ only in their source and initial data" in out
        assert not out_dir.exists()

    def test_build_problem_assembles_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_assemble(domain):
            calls.append(domain)
            return assemble(domain)

        monkeypatch.setattr("acdyn.scenario.assemble", counting_assemble)
        raw = proto()
        for check in (
            lambda: build_problem(Scenario.from_dict(raw)),
            lambda: validate(Scenario.from_dict(raw)),
            lambda: main(["validate", write_scenario(tmp_path, raw)]),
        ):
            calls.clear()
            check()
            assert len(calls) == 1

    def test_run_writes_series_schema(self, tmp_path):
        good = write_scenario(tmp_path, proto(), "good.json")
        out_dir = str(tmp_path / "out")
        assert main(["run", good, "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "series.csv")) as fh:
            header = fh.readline().strip()
            rows = fh.readlines()
        assert header == "t,energy,mass,lambda,res_bulk,res_bnd"
        assert len(rows) == 11  # t=0 plus 10 steps

    def test_run_snapshots(self, tmp_path):
        raw = proto(output={"dir": "unused", "snapshot_every": 5})
        good = write_scenario(tmp_path, raw, "snap.json")
        out_dir = str(tmp_path / "snap_out")
        assert main(["run", good, "--out", out_dir]) == 0
        files = sorted(os.listdir(out_dir))
        assert "snap_bulk_000000.csv" in files
        assert "snap_bnd_000010.csv" in files
        with open(os.path.join(out_dir, "snap_bulk_000000.csv")) as fh:
            assert fh.readline().strip() == "x,u"
        with open(os.path.join(out_dir, "snap_bnd_000000.csv")) as fh:
            assert fh.readline().strip() == "s,u_gamma"

    def test_integral_numbers_run_as_integers(self, tmp_path):
        # an integer key reads an integral number as the integer: 5.0
        # snapshots at the steps that 5 does, and the run's bytes agree
        outputs = []
        for one in (1, 1.0):
            raw = proto(output={"snapshot_every": 5 * one})
            raw["domain"]["resolution"] = [32 * one]
            raw["graphs"]["bulk"]["exponent"] = 3 * one
            raw["solver"]["newton_max_iter"] = 60 * one
            out_dir = tmp_path / f"out_{one!r}"
            assert main(["run", write_scenario(tmp_path, raw), "--out", str(out_dir)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert "snap_bulk_000005.csv" in outputs[1]
        assert outputs[0] == outputs[1]

    def test_sweep_eps_table(self, tmp_path):
        raw = proto(solver={"tau": 0.01, "T": 1.0, "eps": 0.05})
        good = write_scenario(tmp_path, raw, "good.json")
        out_dir = str(tmp_path / "sweep")
        assert main(["sweep-eps", good, "--eps", "0.2,0.1,0.05", "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "eps_table.csv")) as fh:
            header = fh.readline().strip()
            d = [float(line.split(",")[2]) for line in fh]
        assert header == "eps_a,eps_b,d_j"
        assert len(d) == 2 and d[1] < d[0]

    def test_check_cd(self, tmp_path):
        a = write_scenario(tmp_path, proto(), "a.json")
        raw_b = proto()
        raw_b["data"] = {
            "u0": {"kind": "tanh_x", "center": 0.5, "width": 0.15},
            "f": {
                "space": {"kind": "sine_x", "amplitude": 0.02, "frequency": 2.0},
                "time": {"kind": "constant"},
            },
        }
        b = write_scenario(tmp_path, raw_b, "b.json")
        out_dir = str(tmp_path / "cd")
        assert main(["check-cd", a, b, "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "cd_report.csv")) as fh:
            assert fh.readline().strip() == "t,lhs,rhs"
            for line in fh:
                t, lhs, rhs = (float(v) for v in line.split(","))
                assert lhs <= rhs

    def test_check_cd_constant_overflow_exit_code(self, tmp_path, capsys, monkeypatch):
        # exp((2 + 30^2 + 1) * 1) exceeds the float range; the check must
        # say so before it solves anything
        raw = proto(perturbation=dict(PROTO["perturbation"], bulk={"kind": "linear", "c": 30.0}),
                    solver=dict(PROTO["solver"], T=1.0))
        path = write_scenario(tmp_path, raw)
        assert main(["validate", path]) == 0
        capsys.readouterr()

        def no_solve(*args):
            raise AssertionError("check-cd solved a trajectory")

        monkeypatch.setattr("acdyn.stepper.simulate", no_solve)
        monkeypatch.setattr("acdyn.stepper.iter_steps", no_solve)
        monkeypatch.setattr("acdyn.diagnostics.iter_steps", no_solve)
        monkeypatch.setattr("acdyn.stepper.StepOperator.start", no_solve)
        out_dir = tmp_path / "cd"
        assert main(["check-cd", path, path, "--out", str(out_dir)]) == 2
        out = capsys.readouterr().out
        assert "(gronwall) the constant exp((2 + L_bulk^2 + L_bnd^2) T) overflows" in out
        assert "scenario mismatch" not in out
        assert not out_dir.exists()

    def test_density_demo(self, tmp_path):
        good = write_scenario(tmp_path, proto(constraint={"k_lo": None, "k_hi": None}),
                              "dd.json")
        out_dir = str(tmp_path / "dens")
        assert main(["density-demo", good, "--n", "1,4,16", "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "density_table.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header[:3] == ["n", "err_bulk", "err_bnd"]

    def test_determinism_bit_identical(self, tmp_path):
        good = write_scenario(tmp_path, proto(), "good.json")
        out_a = str(tmp_path / "run_a")
        out_b = str(tmp_path / "run_b")
        assert main(["run", good, "--out", out_a]) == 0
        assert main(["run", good, "--out", out_b]) == 0
        with open(os.path.join(out_a, "series.csv"), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(out_b, "series.csv"), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b

    @pytest.mark.parametrize("lambda_tol", [3, INF, NAN],
                             ids=["loose_lambda_tol", "infinite_lambda_tol", "nan_lambda_tol"])
    def test_retired_lambda_tol_leaves_the_run_unchanged(self, tmp_path, lambda_tol):
        # the bordered solve stops at the mass tolerance the band check
        # reads, so a file that still carries a loose or non-finite
        # lambda_tol validates, runs, and as one without it does
        series = []
        for i, solver in enumerate(({}, {"lambda_tol": lambda_tol})):
            raw = shipped("rect_band")
            raw["solver"].update(solver)
            path = write_scenario(tmp_path, raw, f"s{i}.json")
            out_dir = str(tmp_path / f"out{i}")
            assert main(["validate", path]) == 0
            assert main(["run", path, "--out", out_dir]) == 0
            with open(os.path.join(out_dir, "series.csv"), "rb") as fh:
                series.append(fh.read())
        assert series[0] == series[1]

    def test_solver_failure_exit_code(self, tmp_path):
        # an impossibly tight iteration budget trips the solver error path
        raw = proto()
        raw["solver"] = {"tau": 0.01, "T": 0.1, "eps": 0.05,
                         "newton_tol": 1e-15, "newton_max_iter": 1}
        bad = write_scenario(tmp_path, raw, "tight.json")
        out_dir = str(tmp_path / "tight_out")
        assert main(["run", bad, "--out", out_dir]) == 3

    def test_non_finite_energy_exit_code(self, tmp_path, capsys):
        # a valid forcing of 1e300 drives the state past the float range; the
        # step whose energy is not finite fails with a label, not a NaN series
        raw = shipped("unconstrained")
        raw["data"]["f"]["space"]["value"] = 1e300
        path = write_scenario(tmp_path, raw)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        assert "solver failure: energy is not finite" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [1e308, -1e308])
    @pytest.mark.parametrize("leaf", ["f", "f_gamma"])
    def test_forcing_at_the_float_limit_exit_code(self, tmp_path, capsys, leaf, value):
        # a forcing of +-1e308 drives the roundoff floor past the float
        # range; a floor that is not finite accepts no point, and the
        # stalled line search fails with a label, not an overflow warning
        raw = shipped("unconstrained")
        raw["data"][leaf]["space"]["value"] = value
        path = write_scenario(tmp_path, raw)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        assert "solver failure: Newton line search failed" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [1e308, -1e308, 1e300])
    @pytest.mark.parametrize("leaf", ["f", "f_gamma"])
    @pytest.mark.parametrize("name", ["rect_band", "rect_cubic"])
    def test_rectangle_forcing_at_the_float_limit_exit_code(self, tmp_path, capsys, name, leaf,
                                                            value):
        # on a rectangle the forcing also overflows the norms inside CG; a
        # right-hand side whose norm is not finite is solved by the
        # factorization, and the run fails with a label, not a warning
        raw = shipped(name)
        raw["data"][leaf]["space"]["value"] = value
        path = write_scenario(tmp_path, raw)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        assert "solver failure: Newton line search failed" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, changes, code, line",
        [
            ("prototype", {("solver", "eps"): 1e-308}, 3, "solver failure: Newton line search"),
            ("forced_band", {("solver", "eps"): 1e-308}, 3, "solver failure: Newton line search"),
            ("rect_cubic", {("solver", "eps"): 1e-308}, 0, "wrote "),
            ("rect_cubic", {("graphs", "rho"): 1e-308}, 3, "solver failure: Newton line search"),
            ("trace_band", {("domain", "sizes"): [1e308], ("data", "u0", "width"): INF}, 0,
             "wrote "),
            ("prototype", {("domain", "sizes"): [1e308]}, 2,
             "(p3) initial mass 9.8439485962911062e+307 violates"),
            ("forced_band", {("domain", "sizes"): [1e308]}, 2,
             "(p3) initial mass 9.8439485962911062e+307 violates"),
            ("trace_band", {("domain", "sizes"): [1e308]}, 3,
             "solver failure: proximal objective is not finite"),
            ("unconstrained", {("domain", "sizes"): [1e308]}, 0, "wrote "),
            ("forced_band", {("graphs", "rho"): 1e-308}, 3,
             "solver failure: proximal objective increased"),
        ],
        ids=["prototype-eps", "forced_band-eps", "rect_cubic-eps", "rect_cubic-rho",
             "trace_band-size", "prototype-long", "forced_band-long", "trace_band-long",
             "unconstrained-long", "forced_band-rho"],
    )
    def test_float_limit_documents_exit_code(self, tmp_path, capsys, name, changes, code, line):
        # a smoothing parameter of 1e-308 overflows the smoothed map at a
        # line-search trial, which is then rejected; an interval 1e308 long
        # has an arc that hypot keeps finite, and its tanh profiles saturate
        # at +-1, so a band around 0 holds none of their masses; none ends
        # in a warning.  On forced_band, rho = 1e-308 rounds the boundary's
        # cubic resolvent to the identity, so the step solves another
        # equation than its objective, which falls by less than the step's
        # dissipation
        raw = shipped(name)
        for path, value in changes.items():
            replace_at(raw, path, value)
        assert main(["validate", write_scenario(tmp_path, raw)]) == (2 if code == 2 else 0)
        assert main(["run", write_scenario(tmp_path, raw), "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().out.splitlines()[-1].startswith(line)

    @pytest.mark.parametrize(
        "path, line",
        [
            (("solver", "tau"), "(solver) tau={!r} must be a number"),
            (("solver", "eps"), "(solver) eps={!r} must be a number"),
            (("solver", "newton_tol"), "(solver) newton_tol={!r} must be a number"),
            (("solver", "newton_max_iter"), "(solver) newton_max_iter={!r} must be a number"),
            (("graphs", "rho"), "(graphs) rho must be positive and finite"),
            (("constraint", "k_hi"), "(constraint) k_hi={!r} must be a number or null"),
            (("graphs", "bulk", "coefficient"), "(graphs) coefficient={!r} must be a number"),
            (("domain", "sizes", 0), "(domain) sizes={!r} must be a number"),
            (("data", "u0", "width"), "(scenario) width={!r} must be a number"),
        ],
        ids=["tau", "eps", "newton_tol", "newton_max_iter", "rho", "k_hi", "coefficient",
             "sizes", "width"],
    )
    def test_boolean_number_exit_code(self, tmp_path, capsys, path, line):
        # a JSON true or false, or a number written as a string, is no
        # number, though float() reads each: true as a tolerance of 1.0 or
        # a one-iteration Newton.  TestNonNumbers checks validate at every
        # numeric leaf; these also go through run
        raw = shipped("forced_band")
        for value in (True, False, json.dumps(value_at(raw, path))):
            replace_at(raw, path, value)
            scenario = write_scenario(tmp_path, raw)
            assert main(["validate", scenario]) == 2
            assert main(["run", scenario, "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().out.splitlines()[-1] == line.format(value)
            assert not (tmp_path / "out").exists()

    def test_resolvent_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # valid data so large that the quintic resolvent's Newton loop
        # needs its start below r to converge; a resolvent that fails
        # there is a solver failure, not a traceback
        quintic = {"kind": "power_odd", "coefficient": 1.0, "exponent": 5}
        raw = proto(
            graphs={"bulk": quintic, "boundary": quintic, "rho": 1.0},
            data={"u0": {"kind": "constant", "value": 1e50}},
            constraint=dict(PROTO["constraint"], k_lo=None, k_hi=None),
            solver={"tau": 0.01, "T": 0.01, "eps": 0.05},
        )
        bad = write_scenario(tmp_path, raw, "quintic.json")
        assert main(["validate", bad]) == 0
        assert main(["run", bad, "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()

        def diverge(r, eps_eff, a, p):
            raise ResolventError("scalar resolvent solve did not converge")

        monkeypatch.setattr(graphs, "_power_resolvent", diverge)
        assert main(["run", bad, "--out", str(tmp_path / "out")]) == 3
        assert "solver failure: scalar resolvent solve did not converge" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "block, value, label",
        [
            ("solver", {"tau": 0.01, "T": 0.0, "eps": 0.05}, "(solver) T=0.0 must be positive"),
            ("solver", {"tau": 0.01, "T": 0.105, "eps": 0.05}, "not a whole multiple of tau"),
            ("data", {"u0": PROTO["data"]["u0"],
                      "f": {"space": {"kind": "constant", "value": float("nan")},
                            "time": {"kind": "constant"}}},
             "(finite) non-finite node values in f"),
            ("graphs", dict(PROTO["graphs"], rho=float("nan")),
             "(graphs) rho must be positive and finite"),
            ("graphs", dict(PROTO["graphs"], rho="x"), "(graphs) rho must be positive and finite"),
            ("perturbation", dict(PROTO["perturbation"], bulk={"kind": "cosine"}),
             "(perturbation) unknown perturbation kind 'cosine'"),
            ("perturbation", dict(PROTO["perturbation"], boundary={}), "(perturbation) 'kind'"),
            ("perturbation", dict(PROTO["perturbation"], bulk={"kind": "sine", "frequency": 1.0}),
             "(perturbation) 'amplitude'"),
            ("perturbation", dict(PROTO["perturbation"], bulk={"kind": "linear", "c": "x"}),
             "(perturbation) c='x' must be a number"),
            ("perturbation", dict(PROTO["perturbation"],
                                  boundary={"kind": "sine", "amplitude": NAN, "frequency": 1.0}),
             "(perturbation) Lipschitz constants must be finite"),
            ("constraint", dict(PROTO["constraint"], k_lo="x"),
             "(constraint) k_lo='x' must be a number or null"),
            ("constraint", dict(PROTO["constraint"], k_hi=[1.0]),
             "(constraint) k_hi=[1.0] must be a number or null"),
            ("output", {"snapshot_every": "x"}, "(output) snapshot_every='x' must be a number"),
            ("output", {"snapshot_every": 3.5}, "(output) snapshot_every=3.5 must be an integer"),
            ("output", {"snapshot_every": -1},
             "(output) snapshot_every=-1 must be an integer >= 0"),
            ("output", {"dir": 5}, "(output) dir=5 must be a string"),
            ("perturbation", dict(PROTO["perturbation"], bulk={"kind": "linear", "c": float("nan")}),
             "(perturbation) Lipschitz constants must be finite"),
            ("graphs", dict(PROTO["graphs"], bulk=[]), "(graphs) a graph must be an object, got list"),
            ("constraint", dict(PROTO["constraint"], w=[]),
             "(constraint) a spatial function must be an object, got list"),
            ("data", {"u0": "x"}, "(scenario) a spatial function must be an object, got str"),
            ("data", {"u0": PROTO["data"]["u0"], "f": {"space": {"kind": "constant", "value": 0.0},
                                                     "time": 5}},
             "(scenario) a time modulation must be an object or null, got int"),
            ("domain", dict(PROTO["domain"], kind=3), "(domain) domain kind must be a string, got 3"),
            ("domain", dict(PROTO["domain"], kind=None),
             "(domain) domain kind must be a string, got None"),
            ("domain", dict(PROTO["domain"], sizes=[0]),
             "(domain) sizes must be positive and finite, got [0.0]"),
            ("domain", dict(PROTO["domain"], sizes=[INF]),
             "(domain) sizes must be positive and finite, got [inf]"),
            ("domain", dict(PROTO["domain"], resolution=[INF]),
             "(domain) resolution=inf must be an integer"),
            ("domain", dict(PROTO["domain"], resolution=[3.5]),
             "(domain) resolution=3.5 must be an integer"),
            # the lumped bulk mass hx*hy/4 of 1e308-long sides leaves the
            # float range, under the np.errstate that assemble runs in
            ("domain", {"kind": "rectangle", "sizes": [1e308, 1e308], "resolution": [4, 4]},
             "(domain) overflow encountered in multiply"),
            ("graphs", dict(PROTO["graphs"], bulk=dict(PROTO["graphs"]["bulk"], exponent=INF)),
             "(graphs) exponent=inf must be an integer"),
            ("graphs", dict(PROTO["graphs"], bulk=dict(PROTO["graphs"]["bulk"], exponent=3.5)),
             "(graphs) exponent=3.5 must be an integer"),
            ("solver", dict(PROTO["solver"], newton_max_iter=INF),
             "(finite) non-finite solver values in newton_max_iter"),
            ("solver", dict(PROTO["solver"], newton_max_iter=2.5),
             "(solver) newton_max_iter=2.5 must be an integer"),
            ("solver", dict(PROTO["solver"], newton_max_iter=0),
             "(solver) newton_max_iter=0 must be an integer >= 1"),
            ("solver", dict(PROTO["solver"], newton_tol=INF),
             "(finite) non-finite solver values in newton_tol"),
            ("solver", dict(PROTO["solver"], newton_tol=NAN),
             "(finite) non-finite solver values in newton_tol"),
            ("solver", dict(PROTO["solver"], T=1e308),
             "(solver) T=1e+308 is too many steps of tau=0.01"),
            ("solver", dict(PROTO["solver"], eps=0.0), "(solver) eps must lie in (0, 1]"),
            ("solver", dict(PROTO["solver"], eps=2.0), "(solver) eps must lie in (0, 1]"),
            ("graphs", dict(PROTO["graphs"], bulk=dict(PROTO["graphs"]["bulk"], coefficient=INF)),
             "(graphs) coefficient must be finite and nonnegative, got inf"),
            ("graphs", dict(PROTO["graphs"], boundary=dict(PROTO["graphs"]["boundary"],
                                                         coefficient=NAN)),
             "(graphs) coefficient must be finite and nonnegative, got nan"),
            ("graphs", dict(PROTO["graphs"], bulk={"kind": "linear", "slope": INF}),
             "(graphs) coefficient must be finite and nonnegative, got inf"),
            ("graphs", dict(PROTO["graphs"], boundary={"kind": "linear", "slope": NAN}),
             "(graphs) coefficient must be finite and nonnegative, got nan"),
            ("graphs", dict(PROTO["graphs"], bulk=dict(PWL, vertices=[[-1.0, NAN], [1.0, 1.0]])),
             "(graphs) vertices must be finite"),
            ("graphs", dict(PROTO["graphs"], bulk=dict(PWL, vertices=[[-1.0, -1.0], [INF, 1.0]])),
             "(graphs) vertices must be finite"),
            ("graphs", dict(PROTO["graphs"], bulk=dict(PWL, slope_left=NAN)),
             "(graphs) extension slopes must be finite and nonnegative"),
            ("graphs", dict(PROTO["graphs"], boundary=dict(PWL, slope_right=INF)),
             "(graphs) extension slopes must be finite and nonnegative"),
            # 0.25 u^4 = 1e400 overflows: not integrable
            ("data", {"u0": {"kind": "constant", "value": 1e100}},
             "(p4) bulk primitive of the initial data is not integrable"),
            # a JSON integer beyond the float range
            ("constraint", dict(PROTO["constraint"], k_lo=10**400),
             "(constraint) k_lo is an integer beyond the float range"),
            ("graphs", dict(PROTO["graphs"], rho=10**400), "(graphs) rho must be positive and finite"),
            ("perturbation", dict(PROTO["perturbation"], bulk={"kind": "linear", "c": 10**400}),
             "(perturbation) c is an integer beyond the float range"),
        ],
        ids=["T_not_positive", "T_not_multiple_of_tau", "nan_forcing", "nan_rho", "text_rho",
             "unknown_perturbation_kind", "missing_perturbation_kind",
             "missing_perturbation_parameter", "text_lipschitz", "nan_lipschitz", "text_k_lo",
             "list_k_hi", "text_snapshot_every", "fractional_snapshot_every",
             "negative_snapshot_every", "number_dir",
             "nan_perturbation_parameter", "list_graph", "list_weight", "text_u0",
             "number_time_factor", "number_domain_kind", "null_domain_kind", "zero_size",
             "infinite_size", "infinite_resolution", "fractional_resolution", "overflowing_rectangle",
             "infinite_exponent",
             "fractional_exponent", "infinite_newton_max_iter", "fractional_newton_max_iter",
             "zero_newton_max_iter", "infinite_newton_tol", "nan_newton_tol",
             "T_overflows_step_count", "eps_zero", "eps_above_one",
             "infinite_coefficient", "nan_coefficient", "infinite_linear_slope",
             "nan_linear_slope", "nan_vertex", "infinite_vertex", "nan_slope_left",
             "infinite_slope_right", "overflowing_primitive", "huge_integer_k_lo",
             "huge_integer_rho", "huge_integer_c"],
    )
    def test_invalid_scenario_exit_code(self, tmp_path, capsys, block, value, label):
        bad = write_scenario(tmp_path, proto(**{block: value}), "bad.json")
        assert label in "; ".join(validate(load_scenario(bad)))
        for argv in (["validate", bad], ["run", bad, "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            assert label in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "domain",
        [
            {"kind": "interval", "sizes": [1.0], "resolution": [2**63]},
            {"kind": "rectangle", "sizes": [1.0, 1.0], "resolution": [10**6, 10**6]},
        ],
        ids=["interval_2_63", "rectangle_1e6"],
    )
    def test_mesh_too_large_exit_code(self, tmp_path, capsys, domain):
        # the node count is refused before any array of that size is built
        bad = write_scenario(tmp_path, proto(domain=domain), "bad.json")
        tracemalloc.start()
        try:
            code = main(["validate", bad])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "(domain) the mesh would have" in capsys.readouterr().out
        assert peak < 1e6

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["sweep-eps", "--eps", "0.1,0.2"], "(arguments) eps must be strictly decreasing"),
            (["sweep-eps", "--eps", "x"], "(arguments) eps must be a comma-separated list"),
            (["sweep-eps", "--eps", "2,1"], "(arguments) eps values must be in (0, 1]"),
            (["sweep-eps", "--eps", "nan,0.1"], "(arguments) eps values must be in (0, 1]"),
            (["density-demo", "--n", "4,1"], "(arguments) n must be strictly increasing"),
            (["density-demo", "--n", "0,1"], "(arguments) n values must be positive"),
            (["density-demo", "--n", "1.5"], "(arguments) n must be a comma-separated list"),
        ],
        ids=["eps_increasing", "eps_not_a_number", "eps_out_of_range", "eps_nan",
             "n_decreasing", "n_zero", "n_not_an_integer"],
    )
    def test_bad_argument_list_exit_code(self, tmp_path, capsys, argv, label):
        good = write_scenario(tmp_path, proto(constraint={"k_lo": None, "k_hi": None}))
        out_dir = tmp_path / "out"
        assert main([argv[0], good, *argv[1:], "--out", str(out_dir)]) == 2
        assert label in capsys.readouterr().out
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "case", ["missing", "malformed", "not_an_object", "out_is_a_file",
                 "constraint_list", "data_string", "solver_list", "output_list"],
    )
    def test_file_error_exit_code(self, tmp_path, capsys, case):
        label = "(file) cannot read scenario"
        blocks = {"constraint_list": ("constraint", [], "list"),
                  "data_string": ("data", "x", "str"), "solver_list": ("solver", [1], "list"),
                  "output_list": ("output", ["out"], "list")}
        if case in blocks:
            # a block that defaults are merged into must be an object
            block, value, kind = blocks[case]
            argv = ["validate", write_scenario(tmp_path, proto(**{block: value}))]
            label = f"({block}) the {block} block must be an object, got {kind}"
        elif case == "missing":
            argv = ["validate", str(tmp_path / "missing.json")]
        elif case == "malformed":
            (tmp_path / "bad.json").write_text("{bad")
            argv = ["run", str(tmp_path / "bad.json"), "--out", str(tmp_path / "out")]
        elif case == "not_an_object":
            (tmp_path / "list.json").write_text("[1, 2]")
            argv = ["check-cd", str(tmp_path / "list.json"), str(tmp_path / "list.json")]
        else:
            (tmp_path / "taken").write_text("")
            argv = ["run", write_scenario(tmp_path, proto()), "--out", str(tmp_path / "taken")]
            label = "(arguments) cannot write"
        assert main(argv) == 2
        assert label in capsys.readouterr().out

    def test_snapshot_bytes_match_row_writer(self, tmp_path):
        # the snapshot writer reproduces, byte for byte, rows of
        # float(value) formatted with 17 significant digits, at each
        # snapshot of one writer; the 0.3 x 0.7 rectangle's coordinates
        # print up to 17 digits
        def rows_text(header, *cols):
            lines = [",".join(header)]
            lines += [",".join(f"{float(v):.17g}" for v in row) for row in zip(*cols)]
            return "".join(line + "\n" for line in lines).encode()

        for kind, sizes, resolution in (
            ("rectangle", [1.0, 0.7], [7, 5]),
            ("interval", [1.0], [9]),
            ("rectangle", [0.3, 0.7], [7, 13]),
        ):
            dom = build_domain(kind, sizes, resolution)
            sys = assemble(dom)
            x = dom.coords[:, 0]
            u = sys.field_from_bulk(np.sin(7.0 * x) * np.exp(dom.coords[:, -1]) / 3.0)
            v = sys.field(np.cos(3.0 * x) / 7.0, -np.arange(dom.n_boundary) / 11.0)
            out = tmp_path / f"{kind}_{sizes[0]}"
            snapshot = _snapshot_writer(dom, str(out))
            snapshot(u, 3)
            snapshot(v, 10)

            header = ["x", "y"][: dom.coords.shape[1]] + ["u"]
            pts = dom.coords[dom.boundary_idx]
            arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
            for field, index in ((u, 3), (v, 10)):
                bulk = (out / f"snap_bulk_{index:06d}.csv").read_bytes()
                bnd = (out / f"snap_bnd_{index:06d}.csv").read_bytes()
                assert bulk == rows_text(header, *dom.coords.T, field.bulk)
                assert bnd == rows_text(["s", "u_gamma"], arc, field.bnd)
        assert max(len(f"{c:.17g}".lstrip("0.")) for c in dom.coords.ravel()) == 17

    def test_snapshot_keeps_signed_zeros(self, tmp_path):
        # coordinates are told apart by their bits: -0.0 prints as -0,
        # even where an equal 0.0 was formatted first
        coords = np.array([[0.0, -0.0], [-0.0, 0.0], [0.5, -0.0], [0.0, 0.5]])
        dom = Domain("rectangle", (0.5, 0.5), (1, 1), coords, np.array([0, 2, 3, 1]))
        u = CoupledField(np.array([1.0, 2.0, 3.0, 4.0]), np.array([-0.0, 6.0, 7.0, 8.0]))
        _snapshot_writer(dom, str(tmp_path))(u, 0)
        bulk = (tmp_path / "snap_bulk_000000.csv").read_text()
        assert bulk == "x,y,u\n0,-0,1\n-0,0,2\n0.5,-0,3\n0,0.5,4\n"
        bnd = (tmp_path / "snap_bnd_000000.csv").read_text().splitlines()
        assert bnd[:3] == ["s,u_gamma", "0,-0", "0.5,6"]


SCENARIOS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SHIPPED = sorted(name[:-5] for name in os.listdir(SCENARIOS_DIR) if name.endswith(".json"))
# written to the scenario file as null, "x", [], {}, -1, 0, Infinity, NaN,
# 3.5, true, 1e+308 and -1e-300
SWEEP_VALUES = (None, "x", [], {}, -1, 0, INF, float("nan"), 3.5, True, 1e308, -1e-300)
# more cells than this are never run; validate must reject them
MAX_SWEEP_CELLS = 4096


def shipped(name: str) -> dict:
    with open(os.path.join(SCENARIOS_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def leaves(node, path=()):
    """Paths (keys and list indices) to every non-container value."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from leaves(child, path + (key,))
    else:
        yield path


class TestExitCodeSweep:
    """Every one-leaf change of a shipped scenario exits 0, 2 or 3."""

    # huge data overflow in numpy on the way to a labelled exit from run;
    # validate gives its labelled exit with no warning
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "name, path",
        [(name, path) for name in SHIPPED for path in leaves(shipped(name))],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v,
    )
    def test_one_leaf_changed(self, tmp_path, capsys, name, path):
        for i, value in enumerate(SWEEP_VALUES):
            raw = shipped(name)
            node = raw
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(["validate", write_scenario(tmp_path, raw, f"v{i}.json")])
            assert code in (0, 2), (value, capsys.readouterr())
            huge = (
                "resolution" in path
                and isinstance(value, (int, float))
                and abs(value) > MAX_SWEEP_CELLS
            )
            if huge:
                assert code == 2, value
            if code != 0:
                continue
            # two steps, of the swept tau if that is the leaf
            raw["solver"]["T"] = 2 * float(raw["solver"]["tau"])
            scenario = write_scenario(tmp_path, raw, f"r{i}.json")
            code = main(["run", scenario, "--out", str(tmp_path / f"out{i}")])
            assert code in (0, 3), (value, capsys.readouterr())


# the values that replace parts of a shipped scenario in the property test
FUZZ_POOL = (0, -1, 1e308, -1e308, 10**400, -(10**400), "x", None, [], {}, True,
             NAN, INF, 0.5, 3, 1e-308, 2**63)


def node_paths(node, path=()):
    """Paths (keys and list indices) to every value below ``node``, blocks too."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield path + (key,)
            yield from node_paths(child, path + (key,))


def replace_at(doc, path, value) -> None:
    """Put ``value`` at ``path`` in ``doc``, unless an earlier replacement
    removed the place."""
    node = doc
    try:
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def validate_in_memory(raw) -> tuple[int, list[str]]:
    """The exit code and the printed lines of ``validate`` on the document
    ``raw``, parsed from its JSON text in memory (a file write per document
    would cost more than the validation); a RuntimeWarning raises."""
    text = json.dumps(raw)
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), mock.patch.object(
        cli, "load_scenario", lambda path: Scenario.from_dict(json.loads(text))
    ):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["validate", "generated.json"])
    return code, out.getvalue().splitlines()


class TestNonNumbers:
    """Every number of a shipped scenario is read as a JSON number: true,
    false, or the number written as a string, at any of them fails
    validation with its block's label."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_every_numeric_leaf(self, name):
        doc = shipped(name)
        paths = [path for path in node_paths(doc) if type(value_at(doc, path)) in (int, float)]
        assert paths
        failures = []
        for path in paths:
            # the data block's functions are labelled (scenario)
            label = "(scenario) " if path[0] == "data" else f"({path[0]}) "
            for value in (True, False, json.dumps(value_at(doc, path))):
                raw = copy.deepcopy(doc)
                replace_at(raw, path, value)
                code, lines = validate_in_memory(raw)
                if code != 2 or not lines or not all(line.startswith(label) for line in lines):
                    failures.append((path, value, code, lines))
        assert not failures, failures


class TestValidateIsTotal:
    """validate gives a labelled verdict on documents drawn from the shipped
    scenarios with one to three leaves or whole blocks replaced."""

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_generated_documents(self, data):
        raw = shipped(data.draw(st.sampled_from(SHIPPED)))
        paths = st.sampled_from(list(node_paths(raw)))
        for path in data.draw(st.lists(paths, min_size=1, max_size=3, unique=True)):
            replace_at(raw, path, data.draw(st.sampled_from(FUZZ_POOL)))
        code, lines = validate_in_memory(raw)
        assert code in (0, 2), lines
        if code == 0:
            assert lines == ["scenario is valid"]
        else:
            assert lines and all(re.match(r"\([a-z0-9]+\) ", line) for line in lines), lines


# the seed of the documents that TestRunIsTotal draws, and how many it
# draws; before the run was total, this seed's documents found both of its
# float-limit warnings, in the smoothed map and in the snapshot arc
RUN_SEED = 6
RUN_DRAWS = 3000
# the most time steps a drawn document runs
RUN_MAX_STEPS = 20


class TestRunIsTotal:
    """run exits 0 or 3, with a labelled line and no RuntimeWarning, on every
    document that validates, drawn as TestValidateIsTotal draws them."""

    def test_generated_documents(self, tmp_path):
        # documents are validated in memory, and only those that pass go
        # through main, from their JSON text
        rng = random.Random(RUN_SEED)
        texts = {name: json.dumps(shipped(name)) for name in SHIPPED}
        failures, ran = [], 0
        for i in range(RUN_DRAWS):
            raw = json.loads(texts[rng.choice(SHIPPED)])
            for path in rng.sample(list(node_paths(raw)), rng.randint(1, 3)):
                replace_at(raw, path, rng.choice(FUZZ_POOL))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    scenario = Scenario.from_dict(raw)
                except ScenarioError:
                    continue
                if validate(scenario):
                    continue
            # at most RUN_MAX_STEPS steps, a cost bound on every document
            steps = RUN_MAX_STEPS * float(scenario.solver["tau"])
            raw.setdefault("solver", {})["T"] = min(float(scenario.solver["T"]), steps)
            text = json.dumps(raw)
            out = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), mock.patch.object(
                cli, "load_scenario", lambda path: Scenario.from_dict(json.loads(text))
            ):
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = main(["run", "generated.json", "--out", str(tmp_path / f"out{i}")])
                except RuntimeWarning as exc:
                    failures.append((text, f"RuntimeWarning: {exc}"))
                    continue
            ran += 1
            lines = out.getvalue().splitlines()
            if code not in (0, 3) or (code == 3 and not lines[-1].startswith("solver failure: ")):
                failures.append((text, code, lines))
        assert ran > 0
        assert not failures, failures
