"""The benchmark's workloads: scenario files from a seed, CLI arguments, and the gate.

Each workload is one ``acdyn.cli.main`` call.  The scenario files are
written by ``write_inputs`` from the seed alone; the program sees only
those files.  ``check_outputs`` is the correctness gate applied after
every call: it returns the list of problems found, empty when the call
passed.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from pathlib import Path

DEFAULT_SEED = 0
EPS_LIST = (0.2, 0.1, 0.05, 0.025)
NEWTON_TOL = 1e-11
# the solver tests bound every record's scaled residual by 10 * newton_tol
RESIDUAL_TOL = 10 * NEWTON_TOL
# relative to the column's largest magnitude; loose enough for a reordered
# factorization or another multiplier iteration converging to the same step
REFERENCE_RTOL = 1e-6

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

INTERVAL_CD_STEPS = 100  # T / tau of each check-cd run
RECT_RUN_CELLS = 128
RECT_RUN_STEPS = 5


def _cubic_graphs() -> dict:
    cubic = {"kind": "power_odd", "coefficient": 1.0, "exponent": 3}
    return {"bulk": cubic, "boundary": dict(cubic), "rho": 1.0}


def _negate() -> dict:
    return {
        "bulk": {"kind": "negate"},
        "boundary": {"kind": "negate"},
        "lipschitz_bulk": 1.0,
        "lipschitz_bnd": 1.0,
    }


def _solver(tau: float, T: float, eps: float) -> dict:
    return {"tau": tau, "T": T, "eps": eps, "newton_tol": NEWTON_TOL, "lambda_tol": 1e-11}


def _zero_source() -> dict:
    return {"space": {"kind": "constant", "value": 0.0}, "time": {"kind": "constant"}}


def _interval_cd(rng: random.Random) -> dict[str, dict]:
    """Two interval runs on the equality band k = 0: f = 0, and f = a sin(3 pi x).

    The initial state is odd about x = 1/2 (a tanh front plus a
    sin(2 pi x) ripple), so its mass is 0 for every seed.
    """
    width = round(rng.uniform(0.13, 0.17), 4)
    ripple = round(rng.uniform(0.0, 0.05), 4)
    amplitude = round(rng.uniform(0.08, 0.12), 4)
    base = {
        "domain": {"kind": "interval", "sizes": [1.0], "resolution": [64]},
        "graphs": _cubic_graphs(),
        "perturbation": _negate(),
        "data": {
            "f": _zero_source(),
            "u0": {
                "kind": "sum",
                "terms": [
                    {"kind": "tanh_x", "center": 0.5, "width": width},
                    {"kind": "sine_x", "amplitude": ripple, "frequency": 2.0},
                ],
            },
            "u0_gamma": None,
        },
        "constraint": {
            "w": {"kind": "constant", "value": 1.0},
            "w_gamma": {"kind": "constant", "value": 0.0},
            "k_lo": 0.0,
            "k_hi": 0.0,
        },
        "solver": _solver(0.01, INTERVAL_CD_STEPS * 0.01, 0.05),
    }
    forced = json.loads(json.dumps(base))
    forced["data"]["f"] = {
        "space": {"kind": "sine_x", "amplitude": amplitude, "frequency": 3.0},
        "time": {"kind": "constant"},
    }
    return {"a.json": base, "b.json": forced}


def _rect_run(rng: random.Random) -> dict[str, dict]:
    """Rectangle 128 x 128, unbounded band, 5 steps, snapshots at both ends."""
    center = round(rng.uniform(0.4, 0.6), 4)
    width = round(rng.uniform(0.1, 0.2), 4)
    return {
        "scenario.json": {
            "domain": {
                "kind": "rectangle",
                "sizes": [1.0, 1.0],
                "resolution": [RECT_RUN_CELLS, RECT_RUN_CELLS],
            },
            "graphs": _cubic_graphs(),
            "perturbation": _negate(),
            "data": {"u0": {"kind": "tanh_x", "center": center, "width": width}},
            "constraint": {"k_lo": None, "k_hi": None},
            "solver": _solver(0.01, RECT_RUN_STEPS * 0.01, 0.05),
            "output": {"snapshot_every": RECT_RUN_STEPS},
        }
    }


def _rect_sweep(rng: random.Random) -> dict[str, dict]:
    """Rectangle 32 x 32, double obstacle, band [-0.05, 0.05], bulk source f ~ 2.

    The initial state a sin(2 pi x) is odd about x = 1/2, so its mass is
    0; the source carries the mass to the upper barrier on the third step.
    """
    amplitude = round(rng.uniform(0.3, 0.6), 4)
    source = round(rng.uniform(1.9, 2.1), 4)
    obstacle = {"kind": "obstacle", "lo": -1.0, "hi": 1.0}
    return {
        "scenario.json": {
            "domain": {"kind": "rectangle", "sizes": [1.0, 1.0], "resolution": [32, 32]},
            "graphs": {"bulk": obstacle, "boundary": dict(obstacle), "rho": 1.0},
            "perturbation": _negate(),
            "data": {
                "f": {
                    "space": {"kind": "constant", "value": source},
                    "time": {"kind": "constant"},
                },
                "u0": {"kind": "sine_x", "amplitude": amplitude, "frequency": 2.0},
            },
            "constraint": {"k_lo": -0.05, "k_hi": 0.05},
            "solver": _solver(0.01, 0.1, EPS_LIST[0]),
        }
    }


WORKLOADS = {
    "interval-cd": _interval_cd,
    "rect-run": _rect_run,
    "rect-sweep": _rect_sweep,
}


def write_inputs(workload: str, seed: int, scenario_dir: Path) -> dict[str, str]:
    """Write the workload's scenario files for ``seed``; return name -> path."""
    rng = random.Random(f"{workload}/{seed}")
    scenario_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in WORKLOADS[workload](rng).items():
        path = scenario_dir / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def cli_args(workload: str, paths: dict[str, str], out_dir: Path) -> list[str]:
    """Arguments of the one ``acdyn`` command that makes up the workload."""
    if workload == "interval-cd":
        return ["check-cd", paths["a.json"], paths["b.json"], "--out", str(out_dir)]
    if workload == "rect-run":
        return ["run", paths["scenario.json"], "--out", str(out_dir)]
    if workload == "rect-sweep":
        eps = ",".join(repr(e) for e in EPS_LIST)
        return ["sweep-eps", paths["scenario.json"], "--eps", eps, "--out", str(out_dir)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# correctness gate

# columns compared with the stored reference when the seed is DEFAULT_SEED
REFERENCE_COLUMNS = {
    "interval-cd": {"cd_report.csv": ("lhs", "rhs")},
    "rect-run": {"series.csv": ("energy", "mass", "lambda")},
    "rect-sweep": {"eps_table.csv": ("d_j",), "monitors.csv": None},  # None: every column
}


def read_csv(path: Path) -> dict[str, list[float]]:
    """Columns of a numeric CSV file written by the CLI."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}


def _table(out_dir: Path, name: str, n_rows: int, problems: list[str]) -> dict[str, list[float]]:
    path = out_dir / name
    if not path.is_file():
        problems.append(f"{name}: missing")
        return {}
    try:
        cols = read_csv(path)
    except (ValueError, IndexError) as exc:
        problems.append(f"{name}: unreadable ({exc})")
        return {}
    lengths = {len(v) for v in cols.values()}
    if lengths != {n_rows}:
        problems.append(f"{name}: {sorted(lengths)} rows, expected {n_rows}")
        return {}
    if not all(math.isfinite(x) for v in cols.values() for x in v):
        problems.append(f"{name}: non-finite value")
    return cols


def _gate_interval_cd(out_dir: Path, problems: list[str]) -> None:
    cols = _table(out_dir, "cd_report.csv", INTERVAL_CD_STEPS, problems)
    if cols:
        if any(r <= 0.0 for r in cols["rhs"]):
            problems.append("cd_report.csv: rhs not positive")
        else:
            ratio = max(l / r for l, r in zip(cols["lhs"], cols["rhs"]))
            if not 0.0 < ratio <= 1.0:
                problems.append(f"cd_report.csv: max_ratio {ratio} outside (0, 1]")


def _gate_rect_run(out_dir: Path, problems: list[str]) -> None:
    n = RECT_RUN_CELLS
    cols = _table(out_dir, "series.csv", RECT_RUN_STEPS + 1, problems)
    if cols:
        worst = max(cols["res_bulk"] + cols["res_bnd"])
        if worst > RESIDUAL_TOL:
            problems.append(f"series.csv: residual {worst:.3e} above {RESIDUAL_TOL:.0e}")
        if any(lam != 0.0 for lam in cols["lambda"]):
            problems.append("series.csv: nonzero multiplier on an unbounded band")
    for index in (0, RECT_RUN_STEPS):
        _table(out_dir, f"snap_bulk_{index:06d}.csv", (n + 1) ** 2, problems)
        _table(out_dir, f"snap_bnd_{index:06d}.csv", 4 * n, problems)


def _gate_rect_sweep(out_dir: Path, problems: list[str]) -> None:
    table = _table(out_dir, "eps_table.csv", len(EPS_LIST) - 1, problems)
    if table:
        d = table["d_j"]
        if not (d[0] > 0.0 and all(b < a for a, b in zip(d[:-1], d[1:]))):
            problems.append(f"eps_table.csv: d_j not strictly decreasing: {d}")
    mon = _table(out_dir, "monitors.csv", len(EPS_LIST), problems)
    if mon:
        if mon.pop("eps") != list(EPS_LIST):
            problems.append("monitors.csv: eps column does not match the sweep")
        # diagnostics.monitors_no_growth: every column within twice its median
        for name, vals in mon.items():
            if max(vals) > 2.0 * statistics.median(vals) + 1e-12:
                problems.append(f"monitors.csv: {name} grows as eps decreases")


_GATES = {
    "interval-cd": _gate_interval_cd,
    "rect-run": _gate_rect_run,
    "rect-sweep": _gate_rect_sweep,
}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def reference_columns(workload: str, out_dir: Path) -> dict[str, dict[str, list[float]]]:
    """The columns of a run's output that the stored reference pins."""
    out = {}
    for name, wanted in REFERENCE_COLUMNS[workload].items():
        cols = read_csv(out_dir / name)
        out[name] = {c: cols[c] for c in (wanted or cols)}
    return out


def _compare_reference(workload: str, out_dir: Path, problems: list[str]) -> None:
    ref = json.loads(reference_path(workload).read_text(encoding="utf-8"))
    got = reference_columns(workload, out_dir)
    for fname, cols in ref["files"].items():
        for col, want in cols.items():
            have = got[fname][col]
            tol = REFERENCE_RTOL * max(abs(x) for x in want) + 1e-12
            worst = max(abs(a - b) for a, b in zip(have, want))
            if len(have) != len(want) or worst > tol:
                problems.append(f"{fname}: column {col} differs from the reference by {worst:.3e}")


def check_outputs(workload: str, out_dir: Path, against_reference: bool) -> list[str]:
    """Problems found in the outputs of one call; empty when it passed.

    ``against_reference`` also compares with the stored reference, which
    holds the outputs for ``DEFAULT_SEED``.
    """
    problems: list[str] = []
    _GATES[workload](Path(out_dir), problems)
    if not problems and against_reference:
        _compare_reference(workload, Path(out_dir), problems)
    return problems
