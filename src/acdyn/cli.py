"""Command-line driver: run scenarios, harnesses, and exports.

Subcommands: ``validate``, ``run``, ``sweep-eps``, ``check-cd``, and
``density-demo``.  Exit codes: 0 on success, 2 on an invalid scenario,
an unreadable scenario file, an argument list or an output directory
that cannot be used, 3 on solver failure (a step that fails, initial
data the flow cannot start from, a scalar resolvent that does not
converge).  All CSV reals are written with 17 significant digits so
outputs are bit-identical across reruns on one platform.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys
from collections.abc import Callable
from itertools import chain

import numpy as np

from .density import density_study
from .diagnostics import continuous_dependence, eps_sweep
from .graphs import ResolventError
from .mesh import CoupledField, Domain
from .scenario import (
    Scenario,
    ScenarioError,
    build_problem,
    load_scenario,
)
from .stepper import InfeasibleDataError, StepError, simulate

__all__ = ["main"]


class _ArgumentError(ValueError):
    """A command-line argument that the subcommand cannot use."""

    label = "arguments"


class _FileError(_ArgumentError):
    """A scenario file that cannot be read as a scenario."""

    label = "file"


def _load(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except ScenarioError:
        raise
    except (OSError, ValueError) as exc:
        raise _FileError(f"cannot read scenario {path!r}: {exc}") from None


def _list_arg(text: str, name: str, kind) -> list:
    """Parse a comma-separated list of ``kind`` values; the library that
    takes the list checks its values and their order."""
    try:
        return [kind(s) for s in text.split(",")]
    except ValueError:
        raise _ArgumentError(
            f"{name} must be a comma-separated list of {kind.__name__} values, got {text!r}"
        ) from None


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _with_arguments(fn, *args):
    """fn(*args), with the plain ValueError by which the library rejects an
    argument list before any run raised as an _ArgumentError."""
    try:
        return fn(*args)
    except ValueError as exc:
        if type(exc) is not ValueError:
            raise
        raise _ArgumentError(str(exc)) from None


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, making its directory; a path that cannot
    be written is an _ArgumentError."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _ArgumentError(f"cannot write {path!r}: {exc}") from None


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length columns (sequences or arrays) under ``header``:
    a column that holds a float as %.17g, any other as %s, all rows by one
    % operation."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    row = ",".join("%.17g" if any(isinstance(v, float) for v in c) else "%s" for c in columns)
    rows = list(zip(*columns))
    text = ",".join(header) + "\n" + ((row + "\n") * len(rows)) % tuple(chain.from_iterable(rows))
    _write_text(path, text)


def _column_text(col) -> list[str]:
    """The text "%.17g," of each value of the float column ``col``: each
    distinct value is formatted once, told apart by its bits, so that 0.0
    and -0.0 keep their own text, and its string is shared by every row
    that holds it."""
    bits, inverse = np.unique(
        np.ascontiguousarray(col, dtype=float).view(np.int64), return_inverse=True
    )
    text = ["%.17g," % v for v in bits.view(float).tolist()]
    return [text[i] for i in inverse.tolist()]


def _snapshot_writer(dom: Domain, out_dir: str) -> Callable[[CoupledField, int], None]:
    """The snapshot writer of one run on ``dom``.  ``write(u, index)``
    writes ``snap_bulk_<index>.csv`` (``x[,y],u`` at the nodes) and
    ``snap_bnd_<index>.csv`` (``s,u_gamma`` along the boundary arc) to
    ``out_dir``, with every real as %.17g.  The coordinates and the arc do
    not change during a run, so their text is made here, once, one list
    per column; each snapshot formats only its field values."""
    pts = dom.coords[dom.boundary_idx]
    # hypot keeps each edge length in the float range; from 0.0 a 1d edge is |dx|
    edge = np.hypot.reduce(np.diff(pts, axis=0), axis=1, initial=0.0)
    arc = np.concatenate([[0.0], np.cumsum(edge)])
    bulk_head = ",".join(["x", "y"][: dom.coords.shape[1]] + ["u"]) + "\n"
    bulk_cols = [_column_text(col) for col in dom.coords.T]
    bnd_cols = [_column_text(arc)]

    def write(u: CoupledField, index: int) -> None:
        for name, head, cols, values in (
            ("bulk", bulk_head, bulk_cols, u.bulk),
            ("bnd", "s,u_gamma\n", bnd_cols, u.bnd),
        ):
            row = "%s" * len(cols) + "%.17g\n"
            text = (head + row * values.size) % tuple(
                chain.from_iterable(zip(*cols, values.tolist()))
            )
            _write_text(os.path.join(out_dir, f"snap_{name}_{index:06d}.csv"), text)

    return write


def _out_dir(scenario: Scenario, override: str | None) -> str:
    return override or scenario.output["dir"]


def _cmd_validate(args) -> int:
    build_problem(_load(args.scenario))
    print("scenario is valid")
    return 0


def _cmd_run(args) -> int:
    """Run the scenario; write ``series.csv``, one row per record, and,
    every ``snapshot_every`` records and at the last, a snapshot pair from
    one writer, which formats the coordinates once for the whole run."""
    scenario = _load(args.scenario)
    prob = build_problem(scenario)
    traj = simulate(prob)
    out_dir = _out_dir(scenario, args.out)
    rows = [
        (rec.t, rec.energy, rec.k, rec.lam, rec.residual_bulk, rec.residual_bnd)
        for rec in traj
    ]
    _write_csv(
        os.path.join(out_dir, "series.csv"),
        ["t", "energy", "mass", "lambda", "res_bulk", "res_bnd"],
        zip(*rows),
    )
    cadence = scenario.output["snapshot_every"]
    if cadence > 0:
        snapshot = _snapshot_writer(prob.sys.domain, out_dir)
        for m, rec in enumerate(traj):
            if m % cadence == 0 or m == len(traj) - 1:
                snapshot(rec.u, m)
    print(f"wrote {os.path.join(out_dir, 'series.csv')} ({len(traj)} records)")
    return 0


def _cmd_sweep_eps(args) -> int:
    eps_list = _list_arg(args.eps, "eps", float)
    scenario = _load(args.scenario)
    result = _with_arguments(eps_sweep, scenario, eps_list)
    out_dir = _out_dir(scenario, args.out)
    n_d = len(result["d"])
    _write_csv(
        os.path.join(out_dir, "eps_table.csv"),
        ["eps_a", "eps_b", "d_j"],
        [eps_list[:n_d], eps_list[1 : n_d + 1], result["d"]],
    )
    mon = result["monitors"]
    _write_csv(os.path.join(out_dir, "monitors.csv"), list(mon), list(mon.values()))
    print(f"wrote {os.path.join(out_dir, 'eps_table.csv')}")
    return 0


def _cmd_check_cd(args) -> int:
    s1 = _load(args.scenario1)
    s2 = _load(args.scenario2)
    report = continuous_dependence(s1, s2)
    out_dir = _out_dir(s1, args.out)
    _write_csv(
        os.path.join(out_dir, "cd_report.csv"),
        ["t", "lhs", "rhs"],
        [report.times, report.lhs, report.rhs],
    )
    print(f"constant={_fmt(report.constant)} max_ratio={_fmt(report.max_ratio)}")
    return 0


def _cmd_density_demo(args) -> int:
    n_list = _list_arg(args.n, "n", int)
    scenario = _load(args.scenario)
    prob = build_problem(scenario)
    study = _with_arguments(density_study, prob.sys, prob.u0, n_list)
    out_dir = _out_dir(scenario, args.out)
    n_rows = len(study.n_list)
    _write_csv(
        os.path.join(out_dir, "density_table.csv"),
        ["n", "err_bulk", "err_bnd", "energy_lhs", "energy_rhs", "norm_sq", "input_norm_sq"],
        [
            study.n_list,
            study.err_bulk,
            study.err_bnd,
            study.energy_lhs,
            [study.energy_rhs] * n_rows,
            study.norm_sq,
            [study.input_norm_sq] * n_rows,
        ],
    )
    print(f"wrote {os.path.join(out_dir, 'density_table.csv')}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="acdyn",
        description="constrained bulk/boundary phase-field flow and its checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="time-step a scenario and export series/snapshots")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="output directory override")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep-eps", help="run a decreasing regularization sweep")
    p.add_argument("scenario")
    p.add_argument("--eps", required=True, help="comma-separated decreasing values")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep_eps)

    p = sub.add_parser("check-cd", help="two-run continuous dependence check")
    p.add_argument("scenario1")
    p.add_argument("scenario2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check_cd)

    p = sub.add_parser("density-demo", help="Robin approximation error study")
    p.add_argument("scenario")
    p.add_argument("--n", default="1,4,16,64", help="comma-separated increasing n")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_density_demo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for err in exc.errors:
            print(err)
        return 2
    except _ArgumentError as exc:
        print(f"({exc.label}) {exc}")
        return 2
    except (StepError, InfeasibleDataError, ResolventError) as exc:
        print(f"solver failure: {exc}")
        return 3


if __name__ == "__main__":
    _sys.exit(main())
