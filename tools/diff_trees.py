"""Cross-tree differential fuzz of the command line.

    python3 tools/diff_trees.py OLD/src NEW/src --draws 2000 --seed 101

Draws argv with the CLI fuzzer's grammar (tests/test_cli_fuzz._draw, so
the grammar lives in one place) and runs every argv through both trees.
Each tree gets one worker process (this script with --worker SRC) that
imports skewseries from SRC and runs each argv in-process through
cli.main, under the fuzzer's CPU-time budget (BUDGET_S of ITIMER_PROF).
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
    if not count:
        return {}
    drawn = draws(count, seed)
    budget_s = _fuzzer().BUDGET_S
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


def report(differ, count, seed, old, new):
    """The lines main prints for the result of compare."""
    total = sum(len(v) for v in differ.values())
    lines = [f"{count} draws at seed {seed}, {old} against {new}: "
             f"{total} differ"]
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
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if args.old is None or args.new is None:
        parser.error("the old and new src directories are required")
    if args.draws < 0:
        parser.error("--draws must be >= 0")
    differ = compare(args.old, args.new, args.draws, args.seed)
    print("\n".join(report(differ, args.draws, args.seed, args.old, args.new)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
