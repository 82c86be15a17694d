"""Tests of the benchmark itself: inputs, gate, tracing and metric names.

    python -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import acdyn.cli
import run
import workloads
from tracing import Tracer, wrapped_names

ROOT = Path(__file__).resolve().parents[2]

# documented share of time steps with a nonzero multiplier
ACTIVE_SHARE = {"interval-cd": (0.5, 0.5), "rect-run": (0.0, 0.0), "rect-sweep": (0.7, 0.9)}


def _traced_call(workload: str, seed: int, work: Path):
    paths = workloads.write_inputs(workload, seed, work / "scenarios")
    out = work / "out"
    tracer = Tracer()
    tracer.install()
    try:
        wrapped_during = wrapped_names()
        with contextlib.redirect_stdout(io.StringIO()):
            code = acdyn.cli.main(workloads.cli_args(workload, paths, out))
    finally:
        tracer.restore()
    return {"code": code, "tracer": tracer, "out": out, "wrapped_during": wrapped_during}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return {
        w: _traced_call(w, 1, tmp_path_factory.mktemp(w)) for w in sorted(workloads.WORKLOADS)
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_scenario_files(workload, tmp_path):
    a = workloads.write_inputs(workload, 5, tmp_path / "a")
    b = workloads.write_inputs(workload, 5, tmp_path / "b")
    c = workloads.write_inputs(workload, 6, tmp_path / "c")
    assert [Path(a[k]).read_bytes() for k in a] == [Path(b[k]).read_bytes() for k in b]
    assert [Path(a[k]).read_bytes() for k in a] != [Path(c[k]).read_bytes() for k in c]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_active_share_in_documented_range(workload, traced):
    res = traced[workload]
    assert res["code"] == 0
    assert workloads.check_outputs(workload, res["out"], against_reference=False) == []
    lo, hi = ACTIVE_SHARE[workload]
    share = res["tracer"].layer_metrics()["stepper.active_share"]
    assert lo <= share <= hi


def test_traced_run_leaves_nothing_wrapped(traced):
    res = traced["interval-cd"]
    during = set(res["wrapped_during"])
    # the from-import copies were wrapped along with the originals
    for name in ("acdyn.cli.simulate", "acdyn.cli.build_problem", "acdyn.cli.eps_sweep",
                 "acdyn.scenario.assemble", "acdyn.stepper.splu", "acdyn.stepper.mass",
                 "acdyn.stepper.StepOperator.step", "scipy.sparse.linalg.splu"):
        assert name in during, name
    assert wrapped_names() == []
    import acdyn.stepper as st
    import scipy.sparse.linalg as spla

    assert acdyn.cli.simulate is st.simulate
    assert st.splu is spla.splu
    assert not hasattr(st.StepOperator.step, "__wrapped__")


def test_trace_parents_worker_spans_to_the_harness(traced):
    tracer = traced["rect-sweep"]["tracer"]
    harness = [i for i, s in enumerate(tracer.spans) if s[0] == "diagnostics.eps_sweep"]
    runs = [s for s in tracer.spans if s[0] == "stepper.simulate"]
    assert len(harness) == 1 and len(runs) == len(workloads.EPS_LIST)
    assert all(s[3] == harness[0] for s in runs)
    assert 0.0 < tracer.layer_metrics()["diagnostics.parallel_eff"] <= 1.0


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 5.0, 0, 2],  # overlaps a: covered once
        ["c", 2.0, 3.0, 1, 1],
    ]
    assert tracer.self_times() == pytest.approx([6.0, 2.0, 2.0, 1.0])


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    paths = workloads.write_inputs("rect-sweep", workloads.DEFAULT_SEED, work / "scenarios")
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert acdyn.cli.main(workloads.cli_args("rect-sweep", paths, out)) == 0
    return out


def _corrupt(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    path = dst / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    return dst


def test_gate_passes_clean_output_against_reference(sweep_out):
    assert workloads.check_outputs("rect-sweep", sweep_out, against_reference=True) == []


@pytest.mark.parametrize(
    "name, edit",
    [
        ("eps_table.csv", lambda ls: ls[:-1]),  # row missing
        ("eps_table.csv", lambda ls: ls[:1] + [ls[1].rsplit(",", 1)[0] + ",nan"] + ls[2:]),
        ("eps_table.csv", lambda ls: ls[:1] + ls[2:] + ls[1:2]),  # d_j no longer decreasing
        ("monitors.csv", lambda ls: ls[:-1] + [ls[-1].replace(",", ",9", 1)]),  # a monitor grows
        ("monitors.csv", lambda ls: ls[:1] + ["x" + ls[1]] + ls[2:]),  # unreadable
    ],
)
def test_corrupted_output_trips_gate(sweep_out, tmp_path, name, edit):
    bad = _corrupt(sweep_out, tmp_path / "bad", name, edit)
    assert workloads.check_outputs("rect-sweep", bad, against_reference=False)


def test_gate_reference_catches_a_small_drift(sweep_out, tmp_path):
    def drift(lines):
        head, row = lines[0], lines[1].split(",")
        row[-1] = repr(float(row[-1]) * (1 + 1e-4))
        return [head, ",".join(row)] + lines[2:]

    bad = _corrupt(sweep_out, tmp_path / "bad", "eps_table.csv", drift)
    assert workloads.check_outputs("rect-sweep", bad, against_reference=False) == []
    assert workloads.check_outputs("rect-sweep", bad, against_reference=True)


def _write(path: Path, header: str, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(header + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))


def test_gate_interval_cd_ratio(tmp_path):
    rows = [(0.01 * (m + 1), 1e-4, 0.25) for m in range(100)]
    _write(tmp_path / "ok" / "cd_report.csv", "t,lhs,rhs", rows)
    assert workloads.check_outputs("interval-cd", tmp_path / "ok", False) == []
    rows[50] = (0.51, 0.3, 0.25)
    _write(tmp_path / "bad" / "cd_report.csv", "t,lhs,rhs", rows)
    assert workloads.check_outputs("interval-cd", tmp_path / "bad", False)
    _write(tmp_path / "short" / "cd_report.csv", "t,lhs,rhs", rows[:99])
    assert workloads.check_outputs("interval-cd", tmp_path / "short", False)


def test_gate_rect_run_residual(tmp_path):
    rows = [(0.01 * m, 1.0, 0.4, 0.0, 1e-11, 1e-12) for m in range(6)]
    header = "t,energy,mass,lambda,res_bulk,res_bnd"
    _write(tmp_path / "series.csv", header, rows)
    for index in (0, 5):
        _write(tmp_path / f"snap_bulk_{index:06d}.csv", "x,y,u", [(0.0, 0.0, 0.1)] * 129**2)
        _write(tmp_path / f"snap_bnd_{index:06d}.csv", "s,u_gamma", [(0.0, 0.1)] * 512)
    assert workloads.check_outputs("rect-run", tmp_path, False) == []
    rows[3] = (0.03, 1.0, 0.4, 0.0, 1e-8, 1e-12)
    _write(tmp_path / "series.csv", header, rows)
    assert workloads.check_outputs("rect-run", tmp_path, False)
    (tmp_path / "snap_bnd_000005.csv").unlink()
    assert len(workloads.check_outputs("rect-run", tmp_path, False)) == 2


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_declared(trace, section, capsys):
    code = run.main(["--workload", "rect-sweep", "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert wrapped_names() == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rect-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
