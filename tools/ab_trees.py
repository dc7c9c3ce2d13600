"""Interleaved in-process A/B of two source trees on one benchmark workload.

    python tools/ab_trees.py OLD/src NEW/src --workload expr-warm --seed 7 --rounds 20
    python tools/ab_trees.py OLD/src NEW/src --workload cli-cold --rounds 10 --opcodes

bench/run.py times each tree in its own worker processes, so the spread
between processes (a warm pass swings by tens of percent from one process
to the next on a shared machine) hides differences of a few percent.  This
script loads bench/workloads.py once per tree into one process instead:
the skewseries modules are cleared from sys.modules between the two loads,
so each copy of the workloads module is bound to its own tree, and each
side's modules are put back into sys.modules before each of its passes.
Each side generates its pool from its own tree with the same seed, so the
two pools hold the same values in each tree's own element representation.
Both sides are set up and replay their pool once untimed (a warm-up whose
outputs are compared), then they alternate timed passes, the order
flipping every round.  A pass, and each request in it,
is timed in CPU time, after a gc.collect() so that neither side pays for
the other's garbage.

It prints each side's median CPU time per pass with its quartiles and its
per-item p50 (each pool item's median CPU time over the rounds, and the
median of those over the items, as bench/run.py reads latency_p50_ms), the
ratios NEW/OLD, and the rounds NEW was faster.  From the same per-item
medians it prints each side's throughput (pool size over their sum, as
bench/run.py reads throughput_rps, but in CPU time and not scaled to its
reference speed) and per-item p90 (as latency_p90_ms), with their ratios
NEW/OLD, and last whether the two sides gave the same outputs, compared
with every bytes object read as the tuple of its ints, so that a change of
element representation (truncpoly tuples to bytes) compares equal.

With --opcodes, each side then runs one more untraced pass and one traced
pass, and the script prints the bytecode instructions each side's traced
pass executed (sys.settrace with frame.f_trace_opcodes) and their ratio
NEW/OLD.  The count repeats exactly where CPU time swings between
processes, so it shows a change of a few percent in the work itself; it
omits time spent in C, so it complements the timed rounds and does not
replace them.  It uses the standard library only and changes nothing
under bench/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "skewseries"


def _package_modules():
    return {name: module for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def _activate(modules):
    """Make `modules` the skewseries package that sys.modules holds."""
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(modules)


class Side:
    """One tree: its own copy of the workloads module and its modules."""

    def __init__(self, label, src, workloads_path, workload_name):
        self.label, self.src = label, str(Path(src).resolve())
        _activate({})
        sys.path.insert(0, self.src)
        try:
            spec = importlib.util.spec_from_file_location(
                f"_ab_workloads_{label}", workloads_path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            sys.path.remove(self.src)
        self.modules = _package_modules()
        loaded = Path(self.modules[PACKAGE].__file__).resolve()
        if not loaded.is_relative_to(self.src):
            raise RuntimeError(f"{label}: {PACKAGE} came from {loaded}, not {self.src}")
        self.workload = module.WORKLOADS[workload_name]
        self.state = self.pool = None
        self.times, self.took = [], []   # per round: the pass's CPU s, each request's

    def generate(self, seed):
        """Generate this side's pool from its own tree."""
        _activate(self.modules)
        self.pool = self.workload.generate(seed)

    def run(self, trace=None):
        """One pass over the pool, its requests traced by ``trace`` (a
        sys.settrace function) if given; returns (CPU seconds, CPU seconds
        per request, outputs)."""
        _activate(self.modules)
        gc.collect()
        request, state = self.workload.request, self.state
        outputs, took = [], []
        previous = sys.gettrace()
        sys.settrace(trace)
        t0 = process_time()
        try:
            for item in self.pool:
                c0 = process_time()
                outputs.append(request(state, item))
                took.append(process_time() - c0)
        finally:
            sys.settrace(previous)
        return process_time() - t0, took, outputs

    def opcodes(self):
        """One untraced pass, then the number of bytecode instructions the
        requests of one more pass execute: a count that, unlike CPU time,
        repeats exactly from one process to the next."""
        self.run()
        count = 0

        def trace(frame, event, arg):
            nonlocal count
            if event == "opcode":
                count += 1
            elif event == "call":
                frame.f_trace_opcodes = True
            return trace

        self.run(trace)
        return count

    def item_medians(self):
        """Each pool item's median CPU seconds over the rounds."""
        return [statistics.median(t) for t in zip(*self.took)]

    def digest(self, outputs):
        plain = [repr(neutral(self.workload.plain(out))) for out in outputs]
        return hashlib.sha256("\n".join(plain).encode()).hexdigest()


def neutral(value):
    """value with every bytes object in it, at any depth of its tuples and
    lists, read as the tuple of its ints."""
    if type(value) is bytes:
        return tuple(value)
    if type(value) in (tuple, list):
        return type(value)(map(neutral, value))
    return value


def _p90(values):
    """The p90 of values as bench/run.py takes it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(old_src, new_src, workload, seed, rounds, opcodes=False):
    """Run the A/B and return its summary as a dict; with ``opcodes``, each
    side's opcode count per pass (Side.opcodes) after the timed rounds."""
    path = ROOT / "bench" / "workloads.py"
    original = _package_modules()
    try:
        sides = [Side("old", old_src, path, workload),
                 Side("new", new_src, path, workload)]
        digests = []
        for side in sides:
            side.generate(seed)
            side.state = side.workload.setup()
            digests.append(side.digest(side.run()[2]))
        new_won = 0
        for r in range(rounds):
            times = {}
            for side in (sides if r % 2 == 0 else sides[::-1]):
                total, took, _ = side.run()
                side.times.append(total)
                side.took.append(took)
                times[side.label] = total
            new_won += times["new"] < times["old"]
        counts = {side.label: side.opcodes() for side in sides} if opcodes else None
    finally:
        _activate(original)
    medians = {side.label: statistics.median(side.times) for side in sides}
    items = {side.label: side.item_medians() for side in sides}
    p50s = {label: 1000 * statistics.median(t) for label, t in items.items()}
    rps = {label: len(t) / sum(t) for label, t in items.items()}
    p90s = {label: 1000 * _p90(t) for label, t in items.items()}
    return {
        "workload": workload, "seed": seed, "rounds": rounds,
        "pool": len(sides[0].pool),
        "median_s": medians,
        "quartiles_s": {side.label: _quartiles(side.times) for side in sides},
        "ratio": medians["new"] / medians["old"],
        "item_p50_ms": p50s,
        "p50_ratio": p50s["new"] / p50s["old"],
        "throughput_rps": rps,
        "throughput_ratio": rps["new"] / rps["old"],
        "item_p90_ms": p90s,
        "p90_ratio": p90s["new"] / p90s["old"],
        "new_won": new_won,
        "same_outputs": digests[0] == digests[1],
        "opcodes": counts,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="src directory of the reference tree")
    parser.add_argument("new", help="src directory of the tree under test")
    parser.add_argument("--workload", required=True,
                        choices=("expr-warm", "rank-mixed", "cli-cold"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--opcodes", action="store_true",
                        help="also count each side's opcodes in one traced "
                             "pass after the timed rounds")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    s = compare(args.old, args.new, args.workload, args.seed, args.rounds,
                args.opcodes)
    print("\n".join(report(s, args.old, args.new)))
    return 0 if s["same_outputs"] else 1


def report(s, old, new):
    """The lines main prints for the summary s of compare."""
    lines = [f"{s['workload']} seed {s['seed']}: {s['rounds']} rounds of "
             f"{s['pool']} requests, CPU s per pass"]
    for label, src in (("old", old), ("new", new)):
        lo, hi = s["quartiles_s"][label]
        lines.append(f"  {label} {src}: median {s['median_s'][label]:.4f} "
                     f"(quartiles {lo:.4f}-{hi:.4f}), "
                     f"per-item p50 {s['item_p50_ms'][label]:.3f} ms")
    lines.append(f"  new/old {s['ratio']:.3f} per pass, {s['p50_ratio']:.3f} "
                 f"per-item p50, new faster in {s['new_won']}/{s['rounds']} rounds")
    for label, src in (("old", old), ("new", new)):
        lines.append(f"  {label} {src}: throughput "
                     f"{s['throughput_rps'][label]:.1f} req/s, "
                     f"per-item p90 {s['item_p90_ms'][label]:.3f} ms")
    lines.append(f"  new/old {s['throughput_ratio']:.3f} throughput, "
                 f"{s['p90_ratio']:.3f} per-item p90")
    lines.append(f"  outputs {'identical' if s['same_outputs'] else 'DIFFER'}")
    if s["opcodes"]:
        old_count, new_count = s["opcodes"]["old"], s["opcodes"]["new"]
        lines.append(f"  opcodes per pass: old {old_count}, new {new_count}, "
                     f"new/old {new_count / old_count:.4f}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
