#!/usr/bin/env python3
"""calib benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload exact-e30 --seed 0 --seconds 36 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory, single-threaded.  Set-up (import, ``generate``, writing
input files) is repeated and its median reported as ``setup_s``; then timed
passes of the workload run until ``--seconds`` would be exceeded, and each
step is reported at its fastest (see ``Run.step_time``).  Every timed result
is checked; a failed check or an exception counts in ``failed``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` untraced and traced passes
alternate and it holds the per-layer metrics, the tracing overhead among
them.  The lines before it give the run environment and name every metric
with its unit, plus the per-step times and ``failed_frac``.  Run records and
spans go to ``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"
SETUP_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SPANS = ("synthgen.generate", "problem.save_problem")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _fastest(values) -> float:
    values = list(values)
    return float(min(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Run:
    """Set-up repetitions and timed passes of one workload, with their records."""

    def __init__(self, workload, seconds: float, tracer=None, targets=()):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.targets = targets
        self.setup_times: list[float] = []
        self.passes: list = []  # (traced, PassResult)

    def _episode(self, kind: str, traced: bool):
        if traced:
            return self.tracer.episode(kind, self.targets)
        return nullcontext()

    def execute(self) -> None:
        """Set up, then run passes; set-ups and passes alternate between CPUs.

        On a shared machine other load lands on one CPU at a time and moves
        over minutes, so alternating lets the fastest pass come from the
        least contended CPU.  The process stays single-threaded.
        """
        OUT.mkdir(parents=True, exist_ok=True)
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        try:
            for rep in range(SETUP_REPS):
                os.sched_setaffinity(0, {cpus[rep % len(cpus)]})
                with self._episode("setup", self.tracer is not None):
                    t0 = time.perf_counter()
                    self.workload.setup(OUT)
                    self.setup_times.append(time.perf_counter() - t0)
            min_passes = 1 if self.tracer is None else 2
            durations: list[float] = []
            start = time.perf_counter()
            while True:
                n = len(self.passes)
                traced = self.tracer is not None and n % 2 == 1
                # An untraced pass and the traced one after it share a CPU.
                turn = n // 2 if self.tracer is not None else n
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
                t0 = time.perf_counter()
                with self._episode("pass", traced):
                    result = self.workload.run_pass()
                durations.append(time.perf_counter() - t0)
                self.passes.append((traced, result))
                elapsed = time.perf_counter() - start
                if n + 1 >= min_passes and elapsed + _median(durations) > self.seconds:
                    break
        finally:
            os.sched_setaffinity(0, allowed)

    @property
    def attempted(self) -> int:
        return sum(r.attempted for _, r in self.passes)

    @property
    def failed(self) -> int:
        return sum(r.failed for _, r in self.passes)

    def step_time(self, step: str, traced: bool = False) -> float:
        """Seconds of one step at its fastest.

        The machine may be shared: other load only ever slows work down,
        for stretches of seconds to minutes, so the fastest pass is the
        steadiest estimate of the program's own time.  A step split into operations
        sums each operation's fastest time, since short operations find an
        undisturbed stretch more often.
        """
        done = [r for t, r in self.passes if t == traced and step in r.timings]
        if done and all(step in r.parts for r in done):
            return sum(min(times) for times in zip(*(r.parts[step] for r in done)))
        return _fastest(r.timings[step] for r in done)

    def end_to_end(self, import_s: float) -> dict[str, float]:
        untraced = [r for t, r in self.passes if not t]
        return {
            "setup_s": import_s + _median(self.setup_times),
            "solve_s": self.step_time("solve_s"),
            "pass_s": sum(self.step_time(step) for step in self.workload.steps),
            "incumbent_loss": _median(r.incumbent_loss for r in untraced),
            "heldout_fp": _median(r.heldout_fp for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        spans = self.tracer.totals("pass")
        setup = self.tracer.totals("setup")
        metrics = {}
        for key in spans:
            source = setup if key.rsplit("_", 1)[0] in SETUP_SPANS else spans
            metrics[key] = _fastest(source[key])
            if key.endswith("_calls"):
                metrics[key] = int(metrics[key])
        traced = [r for t, r in self.passes if t]
        untraced = [r for t, r in self.passes if not t]
        stats = traced[0].stats  # the counters repeat exactly from pass to pass
        for field in ("nodes_visited", "nodes_pruned_bound",
                      "nodes_pruned_equivalence", "levels"):
            metrics["search." + field] = sum(getattr(st, field) for st in stats)
        metrics["search.incumbents"] = sum(len(st.incumbent_history) for st in stats)
        metrics["search.first_incumbent_ms"] = _fastest(
            sum(st.incumbent_history[0][0] for st in r.stats if st.incumbent_history)
            for r in untraced)
        metrics["search.self_s"] = metrics["search.solve.self_s"]
        metrics["search.nodes_per_s"] = _ratio(metrics["search.nodes_visited"],
                                               metrics["search.solve_s"])
        metrics["search.children_entered_ratio"] = _ratio(
            metrics["cover.apply_edge_calls"], metrics["cover.peek_edge_calls"])
        metrics["cover.peek_edge_us"] = 1e6 * _ratio(metrics["cover.peek_edge_s"],
                                                     metrics["cover.peek_edge_calls"])
        metrics["oracle.cells"] = traced[0].oracle_cells
        metrics["oracle.cells_per_s"] = _ratio(metrics["oracle.cells"],
                                               metrics["oracle.solve_s"])
        metrics["trace.overhead_s"] = (self.step_time("solve_s", traced=True)
                                       - self.step_time("solve_s"))
        return metrics


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to a fraction of a second per pass "
                         "(for the smoke test)")
    return ap.parse_args(argv)


def _import_package():
    """Import calib from this checkout's src; returns (modules, import seconds)."""
    src = ROOT / "src"
    if not (src / "calib" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'calib'}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import calib
    import_s = time.perf_counter() - t0
    if Path(calib.__file__).resolve().parent != src / "calib":
        raise SystemExit(f"perfbench: imported calib from {calib.__file__}, not {src}")
    import numpy
    import tracer
    import workloads
    return calib, numpy, tracer, workloads, import_s


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["CALIB_LOG"] = "info"
    calib, numpy, tracer_mod, workloads, import_s = _import_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, tiny=args.tiny)
    tracer = tracer_mod.Tracer() if args.trace else None
    run = Run(workload, args.seconds, tracer, workloads.trace_targets())
    run.execute()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = run.per_layer() if args.trace else run.end_to_end(import_s)
    report = {"failed_frac": ("ratio", _ratio(run.failed, run.attempted))}
    report.update({step: ("s", run.step_time(step)) for step in workload.steps})
    env = {
        "workload": args.workload,
        "bench_seed": args.seed,
        "workload_seeds": workload.seeds,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calib": calib.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "passes": len(run.passes),
        "setup_reps": SETUP_REPS,
    }
    print("env " + json.dumps(env, sort_keys=True))
    lines = {m["name"]: (m["unit"], measured[m["name"]]) for m in declared}
    lines.update({k: v for k, v in report.items() if k not in lines})
    for name, (unit, value) in lines.items():
        print(f"metric {name} {value!r} {unit}")
    errors = [e for _, r in run.passes for e in r.errors][:10]
    for err in errors:
        print(f"failure {err}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "metrics": {n: v for n, (_, v) in lines.items()},
              "setup_times_s": run.setup_times,
              "passes": [{"traced": t, **r.timings, **{k + "_parts": v for k, v in r.parts.items()}}
                         for t, r in run.passes],
              "attempted": run.attempted, "failed": run.failed, "failures": errors}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT / f"spans-{args.workload}.npz")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
