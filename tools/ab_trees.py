"""Interleaved in-process A/B of two source trees on one benchmark workload.

    python tools/ab_trees.py OLD/src NEW/src --workload expr-warm --seed 7 --rounds 20

bench/run.py times each tree in its own worker processes, so the spread
between processes (a warm pass swings by tens of percent from one process
to the next on a shared machine) hides differences of a few percent.  This
script loads bench/workloads.py once per tree into one process instead:
the skewseries modules are cleared from sys.modules between the two loads,
so each copy of the workloads module is bound to its own tree, and each
side's modules are put back into sys.modules before each of its passes.
Both sides are set up and replay the pool once untimed (a warm-up whose
outputs are compared), then they alternate timed passes over the same
pool, the order flipping every round.  A pass is timed in CPU time, after
a gc.collect() so that neither side pays for the other's garbage.

It prints each side's median CPU time per pass with its quartiles, the
ratio NEW/OLD of the medians, the rounds NEW was faster, and whether the
two sides gave the same outputs.  It uses the standard library only and
changes nothing under bench/.
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
        self.state = None
        self.times = []

    def run(self, pool):
        """One pass over the pool; returns (CPU seconds, outputs)."""
        _activate(self.modules)
        gc.collect()
        request, state = self.workload.request, self.state
        t0 = process_time()
        outputs = [request(state, item) for item in pool]
        return process_time() - t0, outputs

    def digest(self, outputs):
        plain = [repr(self.workload.plain(out)) for out in outputs]
        return hashlib.sha256("\n".join(plain).encode()).hexdigest()


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(old_src, new_src, workload, seed, rounds):
    """Run the A/B and return its summary as a dict."""
    path = ROOT / "bench" / "workloads.py"
    original = _package_modules()
    try:
        sides = [Side("old", old_src, path, workload),
                 Side("new", new_src, path, workload)]
        _activate(sides[0].modules)
        pool = sides[0].workload.generate(seed)
        digests = []
        for side in sides:
            _activate(side.modules)
            side.state = side.workload.setup()
            digests.append(side.digest(side.run(pool)[1]))
        new_won = 0
        for r in range(rounds):
            times = {}
            for side in (sides if r % 2 == 0 else sides[::-1]):
                times[side.label] = side.run(pool)[0]
                side.times.append(times[side.label])
            new_won += times["new"] < times["old"]
    finally:
        _activate(original)
    medians = {side.label: statistics.median(side.times) for side in sides}
    return {
        "workload": workload, "seed": seed, "rounds": rounds, "pool": len(pool),
        "median_s": medians,
        "quartiles_s": {side.label: _quartiles(side.times) for side in sides},
        "ratio": medians["new"] / medians["old"],
        "new_won": new_won,
        "same_outputs": digests[0] == digests[1],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="src directory of the reference tree")
    parser.add_argument("new", help="src directory of the tree under test")
    parser.add_argument("--workload", required=True,
                        choices=("expr-warm", "rank-mixed", "cli-cold"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    s = compare(args.old, args.new, args.workload, args.seed, args.rounds)
    print(f"{s['workload']} seed {s['seed']}: {s['rounds']} rounds of "
          f"{s['pool']} requests, CPU s per pass")
    for label, src in (("old", args.old), ("new", args.new)):
        lo, hi = s["quartiles_s"][label]
        print(f"  {label} {src}: median {s['median_s'][label]:.4f} "
              f"(quartiles {lo:.4f}-{hi:.4f})")
    print(f"  new/old {s['ratio']:.3f}, new faster in {s['new_won']}/{s['rounds']} rounds")
    print(f"  outputs {'identical' if s['same_outputs'] else 'DIFFER'}")
    return 0 if s["same_outputs"] else 1


if __name__ == "__main__":
    sys.exit(main())
