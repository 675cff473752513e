#!/usr/bin/env python3
"""Run one ringorbits benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from src/ beside this directory, never from an
installed copy.  The run makes a fixed number of passes of the workload:
S divided by the workload's nominal pass length, and at least two.  The
count depends only on S and the workload, never on how fast the code runs,
so two commits are reduced over the same number of repeats.  Every pass is
checked for correctness.  Set-up (importing ringorbits and generating the
inputs) is timed in fresh interpreters started before, between and after
the passes.

Timings are assembled per segment: a pass is cut at its operation boundaries
and at every flow, every pass cuts at the same places, and each segment
contributes its fastest repeat.  This keeps the figures close to what the
code costs on a shared host whose speed changes from second to second.

With --trace 0 the last line of standard output holds the end-to-end
metrics.  With --trace 1 untraced and traced passes alternate, the same
number of each, and it holds the per-layer metrics of the traced passes,
including the tracing overhead.  The line before it is the full report
(host, quartiles, digests, work counts), which is also written to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Nominal seconds of one untraced pass on the 2-CPU host the benchmark was
# defined on; they turn --seconds into a pass count.
PASS_SECONDS = {"light_pipeline": 6.5, "heavy_family": 20.0, "param_sweep": 4.5, "orbit_export": 2.5}
MIN_PASSES = 2
# Set-up is timed this many times in all, in fresh interpreters spread
# evenly before, between and after the passes: the host's speed holds for a
# second or two at a time, so probes taken in one burst see one speed.
SETUP_REPEATS = 16
# No pass starts that would, at the length of the previous one, end after
# this many seconds; a run cut short this way fails.  It keeps a run on a
# badly overloaded host within three minutes.
DEADLINE_S = 150.0
# op_ms_p90 is the 90th percentile of the operation latencies, or the
# highest percentile below it that leaves this many of them beyond it.
P90_TAIL = 10

# Runs in a fresh interpreter: argv = [src, bench, workload, seed].
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import ringorbits, workloads
workloads.WORKLOADS[sys.argv[3]].make_inputs(int(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def quartiles(values) -> list[float]:
    values = [float(v) for v in values]
    if len(values) < 2:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def host_info() -> dict:
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def time_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Import plus input generation, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def segments(clock) -> np.ndarray:
    """(wall, cpu) of each segment between consecutive marks of a pass."""
    return np.diff(np.array(clock.marks).reshape(-1, 2), axis=0)


def segment_best(passes) -> np.ndarray:
    """Fastest (wall, cpu) of each segment over passes that cut at the same
    places, as an (n, 2) array."""
    return np.min(np.stack(passes), axis=0)


def tail_percentile(samples) -> tuple[float, float]:
    """(value, percentile) of the samples at the 90th percentile, or at the
    highest percentile below it that leaves P90_TAIL samples beyond it; the
    largest sample when there are too few for any.  The value is always one
    of the samples (an order statistic, nothing extrapolated)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(math.ceil(0.9 * n), n - P90_TAIL) if n > P90_TAIL else n
    return ordered[rank - 1], 100.0 * rank / n


def run_passes(workload, inputs, args, passes, t_begin, setup_times):
    """`passes` rounds of one untraced pass, each followed by a traced one
    with --trace 1, with set-up probes before each round and after the last
    appended to setup_times.  Returns ({traced: [(segments, output, tracer)]},
    tracebacks, rounds cut by DEADLINE_S)."""
    import tracing
    import workloads

    modes = (False, True) if args.trace else (False,)
    runs = {False: [], True: []}
    errors = []
    probes = math.ceil(SETUP_REPEATS / (passes + 1))
    last_round = 0.0
    for rounds in range(passes):
        setup_times += time_setup(args.workload, args.seed, probes)
        round_start = time.perf_counter()
        if round_start - t_begin + last_round > DEADLINE_S:
            return runs, errors, passes - rounds
        for traced in modes:
            clock = workloads.Clock()
            tracer = tracing.Tracer() if traced else None
            workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
            try:
                with contextlib.ExitStack() as stack:
                    if traced:
                        stack.enter_context(tracer.installed())
                    stack.enter_context(workloads.segment_marks(clock))
                    output = workload.run_pass(inputs, clock, workdir)
            except Exception:
                errors.append(traceback.format_exc())
                print(errors[-1], file=sys.stderr)
                return runs, errors, 0
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            runs[traced].append((segments(clock), output, tracer))
        last_round = time.perf_counter() - round_start
    setup_times += time_setup(args.workload, args.seed, probes)
    return runs, errors, 0


def main(argv=None) -> int:
    t_begin = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "ringorbits" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2

    sys.path[:0] = [str(SRC), str(BENCH)]
    import ringorbits
    import tracing
    import workloads

    if SRC not in Path(ringorbits.__file__).resolve().parents:
        print(f"perfbench: imported ringorbits from {ringorbits.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    ref_key = str(args.seed) if args.workload == "param_sweep" else "any"
    ref_counts = reference["work_counts"][args.workload].get(ref_key)
    ref_digest = reference["digests"][args.workload].get(ref_key)

    OUT.mkdir(exist_ok=True)
    host = host_info()
    planned = pass_count(args.workload, args.seconds)
    setup_times = []
    runs, errors, cut = run_passes(workload, inputs, args, planned, t_begin, setup_times)

    all_runs = runs[False] + runs[True]
    digests = [out.digest() for _, out, _ in all_runs]
    attempted = len(errors)
    failed = len(errors)
    failed_checks = []
    for (_, out, _), digest in zip(all_runs, digests):
        attempted += len(out.ops)
        bad_pass = [k for k, ok in out.checks.items() if not ok]
        if digest != digests[0]:
            bad_pass.append("digest differs from the first pass")
        failed_checks += bad_pass
        failed += len(out.ops) if bad_pass else sum(1 for ok in out.op_ok if not ok)
    attempted = max(attempted, 1)
    # A deterministic workload cuts every pass at the same places; if one
    # does not, or rounds were cut by the deadline, the segment estimator
    # does not apply and every operation of the run counts as failed.
    uniform = len({len(segs) for segs, _, _ in all_runs}) <= 1
    run_checks = []
    if not uniform:
        run_checks.append("passes cut differently")
    if cut:
        run_checks.append(f"{cut} of {planned} rounds not started within {DEADLINE_S:.0f} s")
    if run_checks:
        failed_checks += run_checks
        failed = attempted

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "passes": {"planned": planned, "untraced": len(runs[False]), "traced": len(runs[True])},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failed_checks": sorted(set(failed_checks)),
        "errors": errors,
        "digest": digests[0] if digests else None,
        "digest_matches_reference": (digests[0] == ref_digest) if digests and ref_digest else None,
        "info": all_runs[0][1].info if all_runs else {},
    }

    def reduce(traced: bool) -> np.ndarray:
        passes = [segs for segs, _, _ in runs[traced]]
        return segment_best(passes if uniform else passes[:1])

    metrics = {}
    result_metrics = {}
    point_ms = []
    if runs[False]:
        passes = [segs for segs, _, _ in runs[False]]
        out0 = runs[False][0][1]
        best = reduce(False)
        wall, cpu = (float(v) for v in best.sum(axis=0))
        walls = [float(p[:, 0].sum()) for p in passes]
        cpus = [float(p[:, 1].sum()) for p in passes]
        # One latency per operation, from the fastest repeat of each of its
        # segments, like wall_s: the raw latency of each pass would measure
        # the host's load from second to second more than the code.
        op_ms = [1e3 * float(best[a:b, 0].sum()) for a, b in out0.ops]
        p90, percentile = tail_percentile(op_ms)
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (cpu, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ops_per_s": (len(out0.ops) / wall, "1/s"),
            "op_ms_p90": (p90, "ms"),
        }
        report["quartiles"] = {
            "wall_s_per_pass": quartiles(walls),
            "cpu_s_per_pass": quartiles(cpus),
            "setup_s": quartiles(setup_times),
            "op_ms": quartiles(op_ms),
        }
        report["op_latency"] = {
            "samples": len(op_ms),
            "percentile": percentile,
            "samples_beyond": sum(1 for v in op_ms if v > p90),
            "op_ms": op_ms,
        }
        point_ms = [ms for ms, kind in zip(op_ms, out0.op_kind) if kind == "point"]

    if args.trace and runs[True] and runs[False]:
        traced_wall = float(reduce(True)[:, 0].sum())
        tracer = runs[True][0][2]
        layer = tracer.layer_metrics(float(runs[True][0][0][:, 0].sum()))
        layer["trace.overhead_ratio"] = traced_wall / wall
        counts = tracer.work_counts()
        report["work_counts"] = counts
        report["counts_match_reference"] = (counts == ref_counts) if ref_counts else None
        report["counts_consistent_across_traced_passes"] = all(
            t.work_counts() == counts for _, _, t in runs[True]
        )
        report["trace_overhead_ratio"] = layer["trace.overhead_ratio"]
        report["detail"] = tracer.detail(point_ms)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"spans": tracer.spans}) + "\n", encoding="utf-8")
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        result_metrics = {
            k: {"value": float(v), "unit": tracing.unit_of(k)} for k, v in layer.items()
        }
    elif not args.trace:
        result_metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    report["metrics"] = result_metrics

    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for key in ("failed_checks", "errors"):
        if report[key]:
            print(f"perfbench: {key}: {report[key]}", file=sys.stderr)
    if args.trace and report.get("counts_match_reference") is False:
        print(f"perfbench: work counts {report['work_counts']} differ from reference {ref_counts}",
              file=sys.stderr)
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
