"""bardual benchmark: one workload per process, single-threaded, closed loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout; bardual is imported from its `src/`.
--seed sets the sampler seed of axiom-sweep's associativity checks; the
inputs of every workload are fixed, so each seed does the same work.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_ref     median, over the iterations, of one certified iteration's
               seconds divided by the mean seconds of the reference kernel
               runs just before and just after it.  On a shared 2-core
               host the core's speed swings by up to ~1.8x in phases of
               seconds to minutes, and the quotient cancels it; the raw
               seconds are printed beside it (min, median, p90, max);
  setup_s      median seconds to import bardual and build the inputs,
               over SETUP_REPS fresh imports in this process, each scaled
               to the reference speed (REF_SECONDS per reference kernel)
               in the same way; the raw median is printed beside it;
  peak_rss_mb  peak resident memory of this process (ru_maxrss never
               decreases, hence one process per workload).
The failure ratio is `failed / attempted` in the result line; it must be 0.

--trace 1 alternates an untraced iteration, a traced replay of the same
stages, and the counts with the elimination probe.  It reports the
per-layer metrics: span times, layer self times, trace.overhead_ratio
(the median over rounds of traced over untraced seconds, minus 1) and
the computed counts.  bench.self_s is the traced time outside every
layer span; an iteration fails if it exceeds BENCH_SELF_MAX of the
traced wall time.  Every per-layer name is printed on every workload,
and a layer or degree the workload never enters reads 0.  The spans are
written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Numbers measured when the benchmark was
added are in perfbench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPS = 30
MIN_ITERATIONS = 2
REF_TERMS = 8000
REF_SECONDS = 0.045    # reference kernel, uncontended 2.1 GHz Xeon core
BENCH_SELF_MAX = 0.01
LAYERS = ("bar", "twisting", "algebras", "graded", "morita", "cli", "bench")


def per_layer_names():
    """Every per-layer metric name with its unit, in output order."""
    from workloads import COH_DEGREES, count_names
    times = (["bar.build_direct_s", "bar.build_twist_s", "bar.compare_s",
              "bar.reduced_bar_s", "twisting.twist_s", "algebras.validate_s",
              "graded.complex_s", "graded.cohomology_s"]
             + [f"graded.cohomology_s.deg{n}" for n in COH_DEGREES]
             + ["linalg.eliminate_s"]
             + [f"linalg.eliminate_s.deg{n}" for n in COH_DEGREES]
             + ["morita.ext_oracle_s", "cli.report_s"]
             + [f"{layer}.self_s" for layer in LAYERS]
             + ["trace.wall_s"])
    out = [(name, "s") for name in times]
    out.append(("trace.overhead_ratio", "ratio"))
    out += [(name, "count") for name in count_names()]
    out.append(("algebras.assoc_coverage", "ratio"))
    return out


def timed_setup(workload, seed):
    """Seconds of a fresh `import bardual` plus the workload set-up.

    Returns the median at the reference speed (each repetition scaled by
    REF_SECONDS over the mean reference-kernel time around it), the raw
    median, and the state.
    """
    raw, scaled = [], []
    state = None
    ref_before, _ = attempt(reference_kernel)
    for _ in range(SETUP_REPS):
        for mod in [m for m in sys.modules
                    if m == "bardual" or m.startswith("bardual.")]:
            del sys.modules[mod]
        state = None
        gc.collect()
        t0 = time.perf_counter()
        importlib.import_module("bardual")
        state = workload.setup(seed)
        dt = time.perf_counter() - t0
        ref_after, _ = attempt(reference_kernel)
        raw.append(dt)
        scaled.append(dt * REF_SECONDS / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return statistics.median(scaled), statistics.median(raw), state


def reference_kernel():
    """Fixed work in the style of bardual's sparse tables: Fraction
    products accumulated in a dict with tuple keys.  It uses only the
    standard library, so no change to bardual changes its cost; it
    measures the core's speed."""
    acc = {}
    for i in range(REF_TERMS):
        k = (i % 61, i % 67)
        acc[k] = (acc.get(k, 0)
                  + Fraction(i % 97 - 48, i % 89 + 1) * (i % 13 + 1))
    return len(acc)


def attempt(fn, *args):
    """Run fn once; returns (seconds, problems).  Raising is failing."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        problems = fn(*args)
    except Exception:
        problems = ["raised:\n" + traceback.format_exc()]
    return time.perf_counter() - t0, problems


class Loop:
    """Closed-loop round budget and failure bookkeeping."""

    def __init__(self, seconds, min_rounds):
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.round_times = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"iteration {self.attempted} failed: {p}",
                      file=sys.stderr)

    def more(self, round_time):
        """Start another round only if it fits in the measured time."""
        self.round_times.append(round_time)
        if len(self.round_times) < self.min_rounds:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(self.round_times) <= self.seconds


def measure(workload, state, seconds):
    loop = Loop(seconds, MIN_ITERATIONS)
    walls, ratios = [], []
    ref_before, _ = attempt(reference_kernel)
    while True:
        dt, problems = attempt(workload.run, state)
        ref_after, _ = attempt(reference_kernel)
        loop.record(problems)
        walls.append(dt)
        ratios.append(dt / ((ref_before + ref_after) / 2))
        if not loop.more(dt + ref_after):
            break
        ref_before = ref_after
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8]
    print(f"iteration seconds: min {min(walls):.6g}, median "
          f"{statistics.median(walls):.6g}, p90 {p90:.6g}, "
          f"max {max(walls):.6g}")
    return loop, {"wall_ref": (statistics.median(ratios), "ratio"),
                  "peak_rss_mb": (peak_mb, "MB")}


def measure_traced(workload, state, seconds, out_path):
    """Rounds of: untraced iteration, traced replay, counts and probe."""
    from tracing import Tracer
    from workloads import Seen, count_seen
    tracer = Tracer()
    loop = Loop(seconds, 1)
    untraced, traced, rows, counts_seen = [], [], [], []
    while True:
        t_round = time.perf_counter()
        dt, problems = attempt(workload.run, state)
        loop.record(problems)
        untraced.append(dt)

        tracer.iteration = it = len(traced)
        root = len(tracer.spans)
        seen = Seen(keep=True)

        def traced_iteration():
            with tracer.span("bench.iteration"):
                return workload.replay(state, tracer, seen)

        dt, problems = attempt(traced_iteration)
        selfs = tracer.layer_self_times(it, root)
        # the benchmark's own work between spans must stay negligible
        if selfs["bench"] > BENCH_SELF_MAX * dt:
            problems.append(f"bench.self_s = {selfs['bench']:.4g} s is more "
                            f"than {BENCH_SELF_MAX:.0%} of the traced "
                            f"{dt:.4g} s")
        counts = count_seen(tracer, seen)
        del seen
        if counts_seen and counts != counts_seen[0]:
            problems.append("counts differ from the first traced iteration")
        loop.record(problems)
        traced.append(dt)

        row = tracer.totals(it)
        row.update((f"{layer}.self_s", s) for layer, s in selfs.items())
        row["trace.wall_s"] = row.pop("bench.iteration")
        rows.append(row)
        counts_seen.append(counts)
        if not loop.more(time.perf_counter() - t_round):
            break
    tracer.write(out_path)

    counts = counts_seen[0]
    metrics = {}
    for name, unit in per_layer_names():
        if name in counts:
            metrics[name] = (counts[name], unit)
        elif unit == "s":
            metrics[name] = (statistics.median(r.get(name, 0.0)
                                               for r in rows), unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(t / u for t, u in zip(traced, untraced)) - 1,
        "ratio")
    total = counts["algebras.assoc_triples_total"]
    metrics["algebras.assoc_coverage"] = (
        counts["algebras.assoc_triples_checked"] / total if total else 0.0,
        "ratio")
    return loop, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bardual" / "__init__.py").is_file():
        print(f"error: no bardual package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import OUT_DIR, WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choices: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s, setup_raw, state = timed_setup(workload, args.seed)
    print(f"set-up seconds: median {setup_raw:.6g} as measured, "
          f"{setup_s:.6g} at the reference speed")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-{args.seed}.json"
        loop, metrics = measure_traced(workload, state, args.seconds,
                                       trace_path)
    else:
        loop, metrics = measure(workload, state, args.seconds)
        metrics["setup_s"] = (setup_s, "s")

    print(f"workload {workload.name} seed {args.seed}: {loop.attempted} "
          f"iterations attempted, {loop.failed} failed, "
          f"fail_ratio = {loop.failed / loop.attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
