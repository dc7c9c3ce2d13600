"""skewseries benchmark: one command, three closed-loop workloads.

    python3 bench/run.py --workload expr-warm --seed 1 --seconds 20 --trace 0

Run from the repository root.  Inputs are generated from --seed in this
process before any clock starts; worker processes (bench/worker.py) receive
only the generated pool.  With --trace 0 the end-to-end metrics are
measured: setup_s is the median over the workload's setup_samples fresh
processes, the rest come from one process replaying the pool for --seconds.  With
--trace 1 the pool is replayed exactly once untraced and once traced, in
two fresh processes; the per-layer metrics come from the traced pass, the
two passes must give identical outputs, and the gap between them is the
tracing overhead.  The last line of output is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
# Every pool item runs at least this many times in an end-to-end run; its
# service time is the median of its runs (the mean, for two).
MIN_PASSES = 2
# Requests are timed in CPU time and rescaled to the speed at which
# worker.calibrate() takes this long (about its time on an unloaded 2-vCPU
# x86-64 machine with Python 3.11): each request is scaled by the median
# calibration time of the CALIBRATION_WINDOW requests on either side of it.
# See NOTES.md, "Noise".
CALIBRATION_REFERENCE_S = 0.0006
CALIBRATION_WINDOW = 8
WORKER_TIMEOUT_S = 170


def spawn(job):
    """Run one worker; returns (its JSON result, the time it was started)."""
    started = perf_counter()
    proc = subprocess.run([sys.executable, str(WORKER)], input=pickle.dumps(job),
                          capture_output=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"worker {job['mode']} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1]), started


def latency_line(label, samples_ms):
    """Median, p90 and the highest percentile with at least ten samples
    beyond it (nearest rank), with the sample count."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    top = (n - 10) * 100 // n if n > 10 else 0
    highest = (f"p{top} {ordered[-(-top * n // 100) - 1]:.3f} ms" if top
               else "none (10 samples or fewer)")
    return (f"{label}: {n} samples, p50 {statistics.median(ordered):.3f} ms, "
            f"p90 {statistics.quantiles(ordered, n=10)[-1]:.3f} ms; highest "
            f"percentile with >= 10 samples beyond it: {highest}")


def reference_speed(seconds, calibrations):
    return seconds * CALIBRATION_REFERENCE_S / statistics.median(calibrations)


def setup_sample(res, started):
    """One worker's set-up: (CPU time at reference speed, CPU time, wall time)."""
    cpu = res["setup_cpu_s"]
    return (reference_speed(cpu, res["setup_calibrations"]), cpu,
            res["first_request"] - started)


def end_to_end(workload, pool, seconds, setup_samples):
    setups = []
    for _ in range(setup_samples - 1):
        setups.append(setup_sample(*spawn({"workload": workload, "mode": "setup"})))
    res, started = spawn({"workload": workload, "mode": "run", "pool": pool,
                          "seconds": seconds, "passes": MIN_PASSES})
    setups.append(setup_sample(res, started))

    samples = res["samples"]
    cals = [cal for _, _, cal, _ in samples]
    by_item = [[] for _ in pool]
    for i, (idx, took, _, _) in enumerate(samples):
        window = cals[max(0, i - CALIBRATION_WINDOW): i + CALIBRATION_WINDOW + 1]
        by_item[idx].append(reference_speed(took, window) * 1000)
    service_ms = [statistics.median(t) for t in by_item]
    raw_ms = [wall * 1000 for _, _, _, wall in samples]
    metrics = {
        "setup_s": (statistics.median(s for s, _, _ in setups), "s"),
        "throughput_rps": (1000 * len(service_ms) / sum(service_ms), "1/s"),
        "latency_p50_ms": (statistics.median(service_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(service_ms, n=10)[-1], "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    notes = [
        "setup_s samples (CPU time at reference speed): "
        + ", ".join(f"{s:.3f}" for s, _, _ in setups),
        "set-up as timed: median CPU time "
        f"{statistics.median(c for _, c, _ in setups):.3f} s, median wall time "
        f"{statistics.median(w for _, _, w in setups):.3f} s",
        latency_line("service time at reference speed (median run per pool item)",
                     service_ms),
        latency_line("every request in wall time as timed", raw_ms),
        f"as timed: {res['attempted']} requests in {res['elapsed']:.3f} s "
        f"({res['attempted'] / res['elapsed']:.3f} 1/s), "
        f"{res['attempted'] / len(pool):.2f} passes over a pool of {len(pool)}; "
        f"machine speed vs reference: "
        f"{CALIBRATION_REFERENCE_S / statistics.median(cals):.3f}",
    ]
    return metrics, res, notes, True


def per_layer(workload, pool):
    ref, _ = spawn({"workload": workload, "mode": "pass", "pool": pool})
    res, _ = spawn({"workload": workload, "mode": "traced", "pool": pool})
    metrics = {name: tuple(v) for name, v in res["layers"].items()}
    overhead = (res["elapsed"] / ref["elapsed"] - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics["trace.spans"] = (res["spans"], "count")
    metrics["cli.internal_errors"] = (res["internal_errors"], "count")
    identical = res["digests"] == ref["digests"]
    notes = [
        f"traced pass {res['elapsed']:.3f} s vs untraced pass {ref['elapsed']:.3f} s "
        f"(tracing overhead {overhead:.1f}%)",
        f"traced outputs identical to untraced: {identical}",
        f"every wrapper removed after the traced pass: {res['unwrapped']}",
    ]
    ok = identical and res["unwrapped"] and ref["failed"] == 0
    return metrics, res, notes, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skewseries" / "__init__.py").is_file():
        sys.exit(f"error: no skewseries sources under {ROOT / 'src'}; "
                 "run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")

    workload = WORKLOADS[args.workload]
    pool = workload.generate(args.seed)
    if args.trace:
        metrics, res, notes, ok = per_layer(args.workload, pool)
    else:
        metrics, res, notes, ok = end_to_end(args.workload, pool, args.seconds,
                                             workload.setup_samples)

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced pass' if args.trace else f'{args.seconds:g} s closed loop, 1 client'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  failed_share {failed / attempted:.4f} ({failed} of {attempted}); "
          f"known internal errors {res['internal_errors']} of {attempted}")
    for line in notes + [f"gate failure: {m}" for m in res["messages"]]:
        print(f"  {line}")
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
