"""Self-test: the per-layer counts repeat exactly.

    python3 bench/selftest.py

For every workload, two traced passes with SEED must give identical
counts, and a traced pass with OTHER_SEED must give different ones (a
count that is 0 on a workload by design only has to repeat).  Exits 1 on any violation.
"""

from __future__ import annotations

import sys

from run import ROOT, spawn

EXACT = ("rings.mul_calls", "skewpoly.mkl_calls", "skewpoly.mkl_memo_entries",
         "k0.mat_mul_calls", "suites.checked")
SEED, OTHER_SEED = 1, 2


def traced_counts(workloads, name, seed):
    res, _ = spawn({"workload": name, "mode": "traced",
                    "pool": workloads[name].generate(seed)})
    if res["failed"] or not res["unwrapped"]:
        raise SystemExit(f"{name} seed {seed}: traced pass failed its checks")
    return {key: res["layers"][key][0] for key in EXACT}


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        first = traced_counts(WORKLOADS, name, SEED)
        again = traced_counts(WORKLOADS, name, SEED)
        moved = traced_counts(WORKLOADS, name, OTHER_SEED)
        for key in EXACT:
            repeats = first[key] == again[key]
            differs = first[key] != moved[key] or first[key] == 0
            ok &= repeats and differs
            print(f"{name:10s} {key:26s} seed {SEED}: {first[key]} / {again[key]}"
                  f"  seed {OTHER_SEED}: {moved[key]}"
                  f"  {'ok' if repeats and differs else 'FAIL'}")
    print("counts repeat exactly" if ok else "count check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
