"""Write the stored reference outputs that the gate compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once on ``DEFAULT_SEED`` and stores the columns named
in ``workloads.REFERENCE_COLUMNS`` under ``perfbench/reference/``.  Run
it only when a change to the program is meant to change these outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads
from run import OUT_ROOT, import_acdyn


def main(names: list[str]) -> int:
    acdyn = import_acdyn()
    for workload in names or sorted(workloads.WORKLOADS):
        work = OUT_ROOT / "reference" / workload
        paths = workloads.write_inputs(workload, workloads.DEFAULT_SEED, work / "scenarios")
        out = work / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = acdyn.cli.main(workloads.cli_args(workload, paths, out))
        problems = workloads.check_outputs(workload, out, against_reference=False)
        if code != 0 or problems:
            print(f"{workload}: exit code {code}, {problems}", file=sys.stderr)
            return 1
        doc = {"seed": workloads.DEFAULT_SEED, "files": workloads.reference_columns(workload, out)}
        path = workloads.reference_path(workload)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
