"""acdyn benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload interval-cd --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory.  A single closed-loop client makes in-process
``acdyn.cli.main`` calls, the next one starting when the previous one
returned, on scenario files it wrote from ``--seed``.  Every call is
checked by the correctness gate of ``workloads.py``.

``--trace 0`` measures the end-to-end metrics: after one untimed warm-up
call it repeats the call until ``--seconds`` of calls have been timed,
in two halves around setup-only calls that stop at the first time step
and one untimed call under tracemalloc for the heap peak.  ``--trace 1`` makes
an untraced call and then one call under ``tracing.Tracer`` for the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  Working files go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time
import tracemalloc
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 40


def import_acdyn():
    """Import ``acdyn`` from the checkout's ``src/``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import acdyn.cli

    if not Path(acdyn.__file__).resolve().is_relative_to(src):
        raise ImportError(f"acdyn was imported from {acdyn.__file__}, not from {src}")
    return acdyn


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per mode, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


class SetupReached(BaseException):
    """Raised at the first time step of a setup-only call.

    A ``BaseException``, so no ``except Exception`` in the package or in
    a worker pool turns it into a solver failure.
    """


class StepClock:
    """The one hook of untraced calls: stamps the first ``StepOperator.step``
    entry and counts steps.  With ``stop=True`` every step raises
    ``SetupReached`` instead of running."""

    def __init__(self, step_operator, stop: bool = False) -> None:
        self._cls = step_operator
        self._stop = stop
        self._lock = threading.Lock()
        self.first: float | None = None
        self.steps = 0

    def __enter__(self) -> "StepClock":
        original = self._original = self._cls.step
        clock = self

        def step(op, *args, **kwargs):
            now = time.perf_counter()
            with clock._lock:
                if clock.first is None:
                    clock.first = now
                clock.steps += 1
            if clock._stop:
                raise SetupReached
            return original(op, *args, **kwargs)

        self._cls.step = step
        return self

    def __exit__(self, *exc) -> None:
        self._cls.step = self._original


class HeapPeak:
    """tracemalloc peak of the allocations made inside the block."""

    peak = 0

    def __enter__(self) -> "HeapPeak":
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs
    since boot; 0 where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment(acdyn) -> dict:
    import numpy
    import scipy
    from acdyn.diagnostics import harness_threads

    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    threads = harness_threads()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "acdyn": acdyn.__version__,
        "harness_threads": threads,
        "ACDYN_THREADS": os.environ.get("ACDYN_THREADS", "unset"),
        "blas": blas,
        "blas_threads": {
            v: os.environ.get(v, "unset")
            for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "thread_cap_exceeds_nproc": threads > nproc,
    }


class Bench:
    """One workload's inputs, its calls, and their failure count."""

    def __init__(self, acdyn, workload: str, seed: int) -> None:
        self.acdyn = acdyn
        self.workload = workload
        self.seed = seed
        self.dir = OUT_ROOT / workload / f"seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out = self.dir / "out"
        paths = workloads.write_inputs(workload, seed, self.dir / "scenarios")
        self.argv = workloads.cli_args(workload, paths, self.out)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_written = 0

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)
        print(f"FAILED call {self.attempted}: {what}", file=sys.stderr)

    def call(self, hook=None) -> tuple[float, float] | None:
        """One gated CLI call, made inside the context manager ``hook`` if
        given; (start, end) times, or None when it failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += 1
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), (hook or contextlib.nullcontext()):
                t0 = time.perf_counter()
                code = self.acdyn.cli.main(self.argv)
                t1 = time.perf_counter()
        except Exception:
            self._fail(traceback.format_exc())
            return None
        if code != 0:
            self._fail(f"exit code {code}: {stdout.getvalue().strip()}")
            return None
        problems = workloads.check_outputs(
            self.workload, self.out, self.seed == workloads.DEFAULT_SEED
        )
        if problems:
            self._fail("; ".join(problems))
            return None
        self.bytes_written = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        return t0, t1

    def setup_probe(self) -> float | None:
        """Seconds from the call to its first time step, in a call stopped there."""
        self.attempted += 1
        clock = StepClock(self.acdyn.stepper.StepOperator, stop=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()), clock:
                t0 = time.perf_counter()
                self.acdyn.cli.main(self.argv)
        except SetupReached:
            return clock.first - t0
        except Exception:
            self._fail(traceback.format_exc())
            return None
        self._fail("setup-only call returned before its first time step")
        return None

    def heap_peak(self) -> float | None:
        """tracemalloc peak of one call, in MB."""
        heap = HeapPeak()
        return heap.peak / 1e6 if self.call(heap) is not None else None

    # -- the two modes --------------------------------------------------------

    def _timed_calls(self, budget: float, samples: dict) -> float:
        """Timed calls until ``budget`` seconds of call time; returns the time spent."""
        spent = 0.0
        while spent < budget:
            clock = StepClock(self.acdyn.stepper.StepOperator)
            start = time.perf_counter()
            span = self.call(clock)
            if span is None:
                spent += time.perf_counter() - start
                continue
            wall = span[1] - span[0]
            setup = clock.first - span[0]
            spent += wall
            samples["wall_s"].append(wall)
            samples["setup_s"].append(setup)
            samples["steps_per_s"].append(clock.steps / (wall - setup))
        return spent

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        samples = {"wall_s": [], "setup_s": [], "steps_per_s": [], "peak_heap_mb": []}
        self.call()  # warm-up: lazy imports, allocator and page-cache state
        # The timed calls come in two halves around the untimed passes, so
        # that they sample a longer stretch of the machine's speed, which
        # drifts over tens of seconds on a shared host.
        spent = self._timed_calls(seconds / 2, samples)
        for _ in range(SETUP_PROBES):
            s = self.setup_probe()
            if s is not None:
                samples["setup_s"].append(s)
        peak = self.heap_peak()
        if peak is not None:
            samples["peak_heap_mb"].append(peak)
        self._timed_calls(seconds - spent, samples)
        metrics = {k: statistics.median(v) for k, v in samples.items() if v}
        return metrics, samples

    def traced(self) -> tuple[dict, dict]:
        from tracing import Tracer, wrapped_names

        self.call()  # warm-up
        plain = self.call()
        tracer = Tracer()
        tracer.install()
        try:
            span = self.call()
        finally:
            tracer.restore()
        left = wrapped_names()
        if left:
            self._fail(f"wrappers left installed: {left}")
        tracer.write_spans(self.dir / "spans.csv")
        if span is None or plain is None:
            return {}, {}
        metrics = tracer.layer_metrics()
        traced_wall = span[1] - span[0]
        metrics["cli.bytes_written"] = self.bytes_written
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - (plain[1] - plain[0])
        return metrics, {"spans": len(tracer.spans)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        acdyn = import_acdyn()
        declared = declared_metrics()
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot set up the benchmark: {exc!r}", file=sys.stderr)
        return 2

    steal_start = steal_seconds()
    env = environment(acdyn)
    if env["thread_cap_exceeds_nproc"]:
        print(f"WARNING: harness thread cap {env['harness_threads']} exceeds nproc {env['nproc']}")
    bench = Bench(acdyn, args.workload, args.seed)
    if args.trace:
        metrics, samples = bench.traced()
        units = declared["per_layer"]
    else:
        metrics, samples = bench.end_to_end(args.seconds)
        units = declared["end_to_end"]

    # a busy host steals CPU from this guest and slows every call
    env["steal_s"] = round(steal_seconds() - steal_start, 2)
    correct = bench.failed == 0 and set(metrics) == set(units)
    if bench.failed == 0 and not correct:
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }
    (bench.dir / "result.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "env": env, "samples": samples, "problems": bench.problems, **result},
                   indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}  env {json.dumps(env)}")
    for name, value in metrics.items():
        n = len(samples.get(name, [])) or 1
        print(f"  {name:34s} {value:14.6g} {units.get(name, '?'):6s} (n={n})")
    print(f"  {'error_rate':34s} {bench.failed / bench.attempted:14.6g} {'ratio':6s} "
          f"({bench.failed} of {bench.attempted} calls failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
