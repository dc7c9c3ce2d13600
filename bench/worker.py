"""One benchmark process: set up, replay the request pool, gate the outputs.

Reads a pickled job from stdin (written by run.py) and prints one JSON
object as its last line of output.  Modes:

  setup   set up the workload's long-lived state and stop (a setup_s sample)
  run     replay the pool in order, untraced, until the given number of
          full passes is done and the given number of seconds has elapsed
  pass    replay the pool exactly once, untraced (reference for a traced run)
  traced  replay the pool exactly once with every tracer wrapper installed
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import pickle
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_LOOPS = (5000, 340)
# Calibrations taken just before and just after set-up, to rescale its time
SETUP_CALIBRATIONS = 25


@functools.cache
def _calibration_table():
    return {(i, j): i * j % 1009 for i in range(150) for j in range(150)}


def calibrate():
    """CPU time of a fixed piece of pure-Python work.  On a shared machine
    the interpreter's speed drifts by tens of percent over seconds (clock
    frequency, cache and core sharing with other tenants); this kernel slows
    down with it, so run.py divides request times by its local median.

    It spends about half its time on plain integer arithmetic and half on
    dict lookups and tuple building: in probes the first kind alone slowed
    down less than the requests did, the second kind alone more.  It uses
    no skewseries code.  The collector is off while it runs, so that it
    never scans objects a request left behind: a change to the program that
    keeps more objects alive cannot slow the kernel and hide behind it."""
    table = _calibration_table()
    arithmetic, lookups = CALIBRATION_LOOPS
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = process_time()
        acc = 0
        for i in range(arithmetic):
            acc += i * i % 7
        for i in range(lookups):
            value = table[i * 7919 % 150, i * 104729 % 150]
            acc = (acc + value * (i % 5)) % 1009
            if tuple((x + acc) % 3 for x in (i, value, acc)) in table:
                acc += 1
        return process_time() - t0
    finally:
        if collecting:
            gc.enable()


def replay(state, pool, seconds, passes, request, calibrated):
    """Closed loop with one client.  Runs until `passes` full passes are done
    and `seconds` have elapsed.  Returns [pool index, CPU time, calibration
    time just before it, wall time] per request, the loop's wall time, the
    first output per pool item, and the number of requests whose output
    differed from an earlier run of the same item.

    Requests are timed in CPU time, which leaves out the time the process
    waits for a processor (other processes, hypervisor steal).  The work is
    single-threaded and does no I/O, so on an idle machine it equals the
    wall time."""
    samples, first = [], {}
    unstable = 0
    i = 0
    start = perf_counter()
    while i < passes * len(pool) or perf_counter() - start < seconds:
        idx = i % len(pool)
        cal = calibrate() if calibrated else 0.0
        t0, c0 = perf_counter(), process_time()
        try:
            out = request(state, pool[idx], i)
        except Exception as exc:  # a failed request is counted, not fatal
            out = Raised(f"{type(exc).__name__}: {exc}")
        samples.append((idx, process_time() - c0, cal, perf_counter() - t0))
        if idx in first:
            unstable += out != first[idx]
        else:
            first[idx] = out
        i += 1
    return samples, perf_counter() - start, first, unstable


class Raised(str):
    """Output of a request that raised."""


def gate(workload, state, pool, first, runs):
    """Check every distinct output; returns (failed requests, requests that
    hit the known internal error, up to three failure messages)."""
    failed = internal = 0
    messages = []
    for idx, out in first.items():
        if isinstance(out, Raised):
            outcome = f"raised {out}"
        else:
            try:
                outcome = workload.gate(state, pool[idx], out)
            except Exception as exc:  # a gate that cannot check fails the request
                outcome = f"gate raised {type(exc).__name__}: {exc}"
        if outcome == "internal-error":
            internal += runs[idx]
        elif outcome != "ok":
            failed += runs[idx]
            if len(messages) < 3:
                messages.append(outcome)
    return failed, internal, messages


def calibrations():
    """SETUP_CALIBRATIONS kernel timings, and the CPU and wall time the
    whole block took."""
    cpu, wall = process_time(), perf_counter()
    times = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    return times, process_time() - cpu, perf_counter() - wall


def main():
    # machine speed is sampled just before and just after set-up; the time
    # the first block takes is not part of set-up
    before, block_cpu, block_wall = calibrations()
    job = pickle.load(sys.stdin.buffer)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]]
    mode = job["mode"]
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    state = workload.setup()
    # CPU time counts from the start of the process, so setup_cpu_s covers
    # interpreter start, imports and set-up, but no time spent waiting for a
    # processor (other processes, hypervisor steal)
    result = {"first_request": perf_counter() - block_wall,
              "setup_cpu_s": process_time() - block_cpu,
              "setup_calibrations": before + calibrations()[0]}
    if mode == "setup":
        print(json.dumps(result))
        return

    pool = job["pool"]
    if tracer:
        tracer.begin_pass()
        traced_request = tracer.span("request", workload.request)

        def request(state, item, i):
            tracer.request = i
            try:
                return traced_request(state, item)
            finally:
                tracer.end_request()
    else:
        def request(state, item, i):
            return workload.request(state, item)
    if mode == "run":
        seconds, passes = job["seconds"], job["passes"]
    else:
        seconds, passes = 0, 1
    samples, elapsed, first, unstable = replay(
        state, pool, seconds, passes, request, calibrated=mode == "run")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        result["unwrapped"] = tracer.uninstall()
        tracer.write_spans(ROOT / "bench" / "out" / f"spans-{workload.name}.jsonl.gz")
    runs = Counter(idx for idx, *_ in samples)
    failed, internal, messages = gate(workload, state, pool, first, runs)
    result.update(samples=samples, elapsed=elapsed, attempted=len(samples),
                  failed=failed + unstable, internal_errors=internal,
                  messages=messages)
    if mode != "run":
        plain = [out if isinstance(out, Raised) else workload.plain(out)
                 for out in (first[i] for i in range(len(pool)))]
        result["digests"] = [hashlib.sha256(repr(p).encode()).hexdigest()
                             for p in plain]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
