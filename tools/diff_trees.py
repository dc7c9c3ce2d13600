"""Cross-tree differential fuzz of the command line.

    python3 tools/diff_trees.py OLD/src NEW/src --draws 2000 --seed 101
    python3 tools/diff_trees.py OLD/src NEW/src --suites

Draws argv with the CLI fuzzer's grammar (tests/test_cli_fuzz._draw, so
the grammar lives in one place) and runs every argv through both trees.
With --suites it runs instead every property suite at seeds 0 and 7, each
report as JSON, and lists every report that differs.  Its presets are the
fuzzer's preset matrix and delta=broken (PRESET_MATRIX and BROKEN_PRESET
of tests/conftest.py), the fuzzer's SCHOOLBOOK_PRESET and EDGE_PRESETS,
and mkl-oracle at seed 0 on LARGE_CARRIERS, 236 reports in all.
Each tree gets one worker process (this script with --worker SRC) that
imports skewseries from SRC and runs each argv in-process through
cli.main, under a CPU-time budget of ITIMER_PROF: the fuzzer's BUDGET_S
for a draw, SUITE_BUDGET_S for a suite report.
A run's outcome is its exit code, or the exception it raised, or the
budget it overran, with its stdout and stderr.

It prints every subcommand whose outcomes differ between the trees, with
the number of differing draws and one example, and exits 1 if any argv
differs, else 0.  It uses the standard library, plus pytest where the
fuzzer's conftest imports it.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import io
import itertools
import json
import random
import shlex
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fuzzer():
    """tests/test_cli_fuzz, imported with this checkout's src/."""
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import test_cli_fuzz
    return test_cli_fuzz


def draws(count, seed):
    """(label, argv) of the first count seeded draws of the fuzzer."""
    fuzz = _fuzzer()
    rng = random.Random(seed)
    return [fuzz._draw(rng, i)[::2] for i in range(count)]


# the --seed of every suite run
SUITE_SEEDS = (0, 7)

# The edges of the add and mul tables that the exhaustive pair checks build
# from the truncpoly formulas, beside SCHOOLBOOK_PRESET's schoolbook
# product: 256 elements, the most a table covers, and q = 251, where the
# sum is taken coefficient by coefficient; and the nilpotency 1 of each
# family, where mkl-oracle reads its recursion points from the products of
# no radical generator alone
EDGE_PRESETS = ("truncpoly:2:8:c=1", "truncpoly:251:1:c=1", "zmod:5^1",
                "truncpoly:2:1:c=1")

# The carriers where mkl-oracle's recursion at the radical products
# saves the most over its run at every element; about 1 s each there, and
# several seconds at every element
LARGE_CARRIERS = ("zmod:2^16", "truncpoly:2:14:c=1")

# the CPU-time budget of a suite report, in seconds: room for mkl-oracle
# on LARGE_CARRIERS at every element
SUITE_BUDGET_S = 30


def suite_runs(presets=None):
    """(label, argv) of every suite over presets at SUITE_SEEDS, with the
    argv as its own label, so that report lists each differing run.  By
    default the presets are PRESET_MATRIX, BROKEN_PRESET, SCHOOLBOOK_PRESET
    and EDGE_PRESETS, and mkl-oracle also runs at seed 0 on
    LARGE_CARRIERS."""
    fuzz = _fuzzer()
    large = ()
    if presets is None:
        presets = (fuzz.PRESET_MATRIX + (fuzz.BROKEN_PRESET,
                                         fuzz.SCHOOLBOOK_PRESET)
                   + EDGE_PRESETS)
        large = [(preset, "mkl-oracle", 0) for preset in LARGE_CARRIERS]
    runs = []
    for preset, suite, seed in [*itertools.product(presets, fuzz.SUITE_NAMES,
                                                   SUITE_SEEDS), *large]:
        argv = ["check", suite, "--ring", preset, "--seed", str(seed),
                "--format", "json"]
        runs.append((" ".join(argv[1:6]), argv))
    return runs


class _OverBudget(BaseException):
    """Raised by the SIGPROF handler; not an Exception, so that no except
    clause of the program catches it."""


def _raise_over_budget(signum, frame):
    raise _OverBudget


def _run(cli, argv, budget_s):
    """[outcome, stdout, stderr] of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGPROF, _raise_over_budget)
    signal.setitimer(signal.ITIMER_PROF, budget_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = f"exit {cli.main(argv)}"
    except SystemExit as exc:
        outcome = f"exit {exc.code}"
    except _OverBudget:
        outcome = f"over the {budget_s} s CPU budget"
    except Exception as exc:
        outcome = f"raises {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    return [outcome, out.getvalue(), err.getvalue()]


def worker(src):
    """Read the CPU budget and then one argv per line from stdin, as JSON,
    and write one JSON [outcome, stdout, stderr] per argv, with skewseries
    imported from src."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    from skewseries import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"skewseries came from {cli.__file__}, not {src}")
    budget_s = json.loads(sys.stdin.readline())
    for line in sys.stdin:
        print(json.dumps(_run(cli, json.loads(line), budget_s)), flush=True)


def _outcomes(src, argvs, budget_s):
    """The outcome of every argv, from one worker process on src."""
    proc = subprocess.Popen(
        [sys.executable, __file__, "--worker", str(src)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    out, err = proc.communicate("".join(json.dumps(x) + "\n"
                                        for x in [budget_s] + argvs))
    results = [json.loads(line) for line in out.splitlines()]
    if proc.returncode or len(results) != len(argvs):
        raise RuntimeError(f"worker on {src} stopped after {len(results)} of "
                           f"{len(argvs)} draws:\n{err}")
    return results


def compare(old_src, new_src, count, seed):
    """{label: [(argv, old outcome, new outcome)]} of the draws that differ."""
    return compare_runs(old_src, new_src, draws(count, seed) if count else [],
                        _fuzzer().BUDGET_S)


def compare_runs(old_src, new_src, drawn, budget_s=SUITE_BUDGET_S):
    """{label: [(argv, old outcome, new outcome)]} of the (label, argv) in
    drawn whose outcomes differ, each run under budget_s of CPU time."""
    if not drawn:
        return {}
    argvs = [argv for _, argv in drawn]
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        old, new = pool.map(lambda src: _outcomes(src, argvs, budget_s),
                            (old_src, new_src))
    differ = {}
    for (label, argv), a, b in zip(drawn, old, new):
        if a != b:
            differ.setdefault(label, []).append((argv, a, b))
    return differ


def _first_difference(a, b):
    """The first line where the texts a and b differ, from each side."""
    lines_a, lines_b = a.splitlines(True), b.splitlines(True)
    for i in range(max(len(lines_a), len(lines_b))):
        x = lines_a[i] if i < len(lines_a) else "<end>"
        y = lines_b[i] if i < len(lines_b) else "<end>"
        if x != y:
            return i + 1, x, y


def report(differ, runs, old, new):
    """The lines main prints for the result of compare or compare_runs;
    runs says what ran, as "2000 draws at seed 101"."""
    total = sum(len(v) for v in differ.values())
    lines = [f"{runs}, {old} against {new}: {total} differ"]
    for label in sorted(differ):
        argv, a, b = differ[label][0]
        lines.append(f"  {label}: {len(differ[label])} differ, e.g. "
                     f"skewseries {shlex.join(argv)}")
        for name, x, y in zip(("outcome", "stdout", "stderr"), a, b):
            if name == "outcome" and x != y:
                lines.append(f"    outcome: {x} -> {y}")
            elif x != y:
                line, old_line, new_line = _first_difference(x, y)
                lines.append(f"    {name} line {line}: {old_line!r} -> {new_line!r}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", nargs="?", help="src directory of the reference tree")
    parser.add_argument("new", nargs="?", help="src directory of the tree under test")
    parser.add_argument("--draws", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--suites", action="store_true",
                        help="compare the suite reports over the preset "
                             "matrix instead of fuzzed draws")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if args.old is None or args.new is None:
        parser.error("the old and new src directories are required")
    if args.draws < 0:
        parser.error("--draws must be >= 0")
    if args.suites:
        runs = suite_runs()
        differ = compare_runs(args.old, args.new, runs)
        what = f"{len(runs)} suite reports"
    else:
        differ = compare(args.old, args.new, args.draws, args.seed)
        what = f"{args.draws} draws at seed {args.seed}"
    print("\n".join(report(differ, what, args.old, args.new)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
