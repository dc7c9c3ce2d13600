"""A first cut of a grammar-based fuzzer for the command line: seeded argv
over every subcommand, the preset matrix, delta=broken and invalid presets,
each run in-process by cli.main under a CPU-time budget.

A finding is an exception other than SystemExit, an exit code outside
0/1/2, a traceback on stderr, a run over the budget, --format json output
that is not one JSON document, or an exit code other than 2 for a
nilbound --word-limit above NILBOUND_WORD_LIMIT or a matrix that is not
square.  Findings are compared
with the known ones, which are listed, not skipped."""

import contextlib
import io
import json
import random
import signal

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX
from skewseries import cli
from skewseries.suites import NILBOUND_WORD_LIMIT, SUITE_NAMES

CASES = 300
SEED = 16
BUDGET_S = 2
INVALID_PRESETS = ("zmod:6^2", "zmod:2^0", "zmod:2", "truncpoly:3:3",
                   "truncpoly:4:3:c=2", "truncpoly:3:3:c=0", "bogus:1",
                   "zmod:2^3:delta=broken", "truncpoly:257:2:c=3")
# m*(q-1)^2 = 288 > 255: this preset's products take TruncPolyRing's
# schoolbook path, not the byte-packed one
SCHOOLBOOK_PRESET = "truncpoly:13:2:c=2"
DRAWN_PRESETS = PRESET_MATRIX + (BROKEN_PRESET, SCHOOLBOOK_PRESET)
PRESETS = DRAWN_PRESETS + INVALID_PRESETS

# (command, preset, outcome) of every finding the fuzzer is known to make.
# delta=broken is not a sigma-derivation, S/G_N is not associative there,
# and the Newton inverse inside serre-transfer's rank certificate or inside
# a row completion, like the completion of a row over S/G_6, fails to
# verify, and so, over S/G_2, can a rank certificate inside
# serre-transfer; a certificate failure should be a FAIL verdict or an
# error line (ROADMAP item 5).
KNOWN_FINDINGS = {
    ("check serre-transfer", BROKEN_PRESET,
     "AssertionError: geometric inverse failed to verify"),
    # item 5
    ("check serre-transfer", BROKEN_PRESET,
     "AssertionError: rank certificate failed to verify"),
    ("complete-row", BROKEN_PRESET,
     "AssertionError: row completion failed to verify"),
    ("complete-row", BROKEN_PRESET,
     "AssertionError: geometric inverse failed to verify"),
}
# a draw that must reach each known finding, whatever the seeded draws do
KNOWN_DRAWS = (("check serre-transfer", BROKEN_PRESET,
                ["check", "serre-transfer", "--ring", BROKEN_PRESET,
                 "--samples", "3"]),
               # item 5
               ("check serre-transfer", BROKEN_PRESET,
                ["check", "serre-transfer", "--ring", BROKEN_PRESET,
                 "--prec", "2", "--seed", "24", "--samples", "3"]),
               ("complete-row", BROKEN_PRESET,
                ["complete-row", "1,x,t", "--ring", BROKEN_PRESET,
                 "--prec", "6"]),
               ("complete-row", BROKEN_PRESET,
                ["complete-row", "1 - x^2,x", "--ring", BROKEN_PRESET,
                 "--prec", "4"]))
# the subcommands the seeded draws never run on the schoolbook preset
SCHOOLBOOK_DRAWS = (("normalize", SCHOOLBOOK_PRESET,
                     ["normalize", "(x + t)^3*x - 5", "--ring",
                      SCHOOLBOOK_PRESET]),
                    ("complete-row", SCHOOLBOOK_PRESET,
                     ["complete-row", "1 + t,x,t", "--ring", SCHOOLBOOK_PRESET,
                      "--prec", "3"]))
# the accepted zmod presets with the largest residue field, F_p at p just
# under 2^32: every subcommand but check and nilbound, and the two suites
# that ask is_local, each of which must answer without visiting the p - 1
# nonzero residues of R/I
LARGE_PRIME_PRESETS = ("zmod:4294967291^2", "zmod:4294967291^1")
LARGE_PRIME_DRAWS = tuple(
    argv + ["--ring", preset]
    for preset in LARGE_PRIME_PRESETS
    for argv in (["normalize", "(x + 2)^3*x - 5"], ["mul", "x + 3", "2*x - 1"],
                 ["degree", "x^2 + 4294967291", "--prec", "3"],
                 ["symbol", "3*x + x^2", "--prec", "3"], ["rank", "1,0;3,0"],
                 ["stable-iso", "1,0;3,0", "1"],
                 ["complete-row", "2 + x,x,3", "--prec", "3"],
                 ["check", "k0-rank"], ["check", "serre-transfer"]))
# zmod presets past every carrier budget of suites.py: each suite and
# nilbound runs within BUDGET_S, the three that walk R or I (CARRIER_WALKS)
# exit 2 with one error line and the other suites pass
LARGE_CARRIER_PRESETS = ("zmod:2^64", "zmod:4294967291^2", "zmod:2^24")
CARRIER_WALKS = ("check mkl-oracle", "check sigma-derivation", "nilbound")
LARGE_CARRIER_DRAWS = tuple(
    argv + ["--ring", preset]
    for preset in LARGE_CARRIER_PRESETS
    for argv in [["check", name] for name in SUITE_NAMES]
    + [["nilbound", "--n", "1"]])
# a draw above the word-limit budget, which the seeded nilbound draws reach
# with one value in 66
BUDGET_DRAWS = (("nilbound", BROKEN_PRESET,
                 ["nilbound", "--n", "3", "--word-limit",
                  str(NILBOUND_WORD_LIMIT + 1), "--ring", BROKEN_PRESET]),)
# zmod presets past parse_ring_preset's bounds, p < 2^32 and p^n <= 2^64:
# unbounded, the first spends about 10^9 trial divisions on its base and
# the second builds n + 1 powers of p, quadratic in n
OVERSIZED_ZMOD_PRESETS = ("zmod:1000000000000000003^1", "zmod:2^60000")
# ragged matrices, which _matrix never draws and only IdempotentMatrix
# rejects, over R and over S/G_N, and beside a matrix that is square but
# not idempotent, which must not turn the usage error into a verdict
RAGGED_DRAWS = (
    ("rank", "zmod:2^3", ["rank", "1,0;0", "--ring", "zmod:2^3"]),
    ("rank", "truncpoly:3:3:c=2",
     ["rank", "--ring", "truncpoly:3:3:c=2", "--prec", "3", "--", "1,x;0,1,t"]),
    ("stable-iso", "zmod:3^5",
     ["stable-iso", "1,1;1,1", "1;0", "--ring", "zmod:3^5", "--format", "json"]),
    ("stable-iso", BROKEN_PRESET,
     ["stable-iso", "1,0", "t,1;1,0", "--ring", BROKEN_PRESET, "--prec", "2"]),
)


class _OverBudget(BaseException):
    """Raised by the SIGPROF handler; not an Exception, so that no except
    clause of the program catches it."""


def _raise_over_budget(signum, frame):
    raise _OverBudget


def _expression(rng, names, depth=3):
    """A small expression in x, the ring's names and integers, now and
    then malformed."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(names + ("1", "2", "0", str(rng.randrange(100))))
    if roll < 0.4:
        return f"({_expression(rng, names, depth - 1)})^{rng.randrange(13)}"
    if roll < 0.43:
        return rng.choice(("x^^2", "(x", "x +", "-", "2 3", "x*t)", "#", "t"))
    if roll < 0.5:
        return f"-{_expression(rng, names, depth - 1)}"
    op = rng.choice((" + ", " - ", "*"))
    return (f"{_expression(rng, names, depth - 1)}{op}"
            f"{_expression(rng, names, depth - 1)}")


def _entry(rng, names, precision):
    if precision is None or rng.random() < 0.5:
        return rng.choice(names + ("0", "1", "2", "3", "1 + " + names[-1]))
    return _expression(rng, names, 2)


def _matrix(rng, names, precision):
    n = rng.randint(1, 3)
    if rng.random() < 0.5:  # a diagonal of 0 and 1, idempotent on every ring
        return ";".join(",".join("1" if i == j and rng.random() < 0.5 else "0"
                                 for j in range(n)) for i in range(n))
    return ";".join(",".join(_entry(rng, names, precision) for _ in range(n))
                    for _ in range(n))


def _draw(rng, index):
    """(subcommand and suite, preset, argv) of the index-th seeded command
    line; every tenth one names the next invalid preset."""
    command = rng.choice(tuple(cli._SUBCOMMANDS))
    preset = INVALID_PRESETS[index // 10 % len(INVALID_PRESETS)] if index % 10 == 9 \
        else rng.choice(DRAWN_PRESETS)
    names = ("x", "t") if preset.startswith("truncpoly") else ("x",)
    precision = rng.choice((0, -1) if rng.random() < 0.05 else
                           (None, None, 1, 2, 3, 4, 6))
    options = ["--ring", preset,
               "--samples", str(rng.randint(0, 30)), "--seed", str(rng.randrange(50))]
    args = []
    if command in ("normalize", "degree", "symbol"):
        args = [_expression(rng, names)]
    elif command == "mul":
        args = [_expression(rng, names), _expression(rng, names)]
    elif command == "nilbound":
        options += ["--n", str(rng.randint(0, 4)),
                    "--word-limit", str(rng.randint(0, NILBOUND_WORD_LIMIT + 1))]
    elif command == "rank":
        args = [_matrix(rng, names, precision)]
    elif command == "stable-iso":
        args = [_matrix(rng, names, precision), _matrix(rng, names, precision)]
    elif command == "complete-row":
        args = [",".join(_entry(rng, names, precision)
                         for _ in range(rng.randint(1, 3)))]
    else:
        args = [rng.choice(SUITE_NAMES + ("no-such-suite",))]
    if precision is not None:
        options += ["--prec", str(precision)]
    if rng.random() < 0.5:
        options += ["--format", "json"]
    # a word that starts with '-' is an argument only after '--'
    argv = [command] + options + ["--"] + args if args and rng.random() < 0.7 \
        else [command] + args + options
    return (f"check {args[0]}" if command == "check" else command), preset, argv


def _usage_error(argv):
    """Why the CLI must reject argv with exit 2, or None: a nilbound
    --word-limit above the budget, or a ragged matrix."""
    if argv[0] == "nilbound" and "--word-limit" in argv and \
            int(argv[argv.index("--word-limit") + 1]) > NILBOUND_WORD_LIMIT:
        return "above the word-limit budget"
    if any(argv == draw for _, _, draw in RAGGED_DRAWS):
        return "on a ragged matrix"
    if any(preset in argv for preset in OVERSIZED_ZMOD_PRESETS):
        return "on an oversized zmod preset"
    return None


def _outcome(argv, exit_code=None):
    """The finding argv makes, or None; given ``exit_code``, ending with
    another one is a finding too."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGPROF, _raise_over_budget)
    signal.setitimer(signal.ITIMER_PROF, BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except _OverBudget:
        return f"over the {BUDGET_S} s CPU budget"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    if exit_code is not None and code != exit_code:
        return f"exit code {code!r}, not {exit_code}"
    usage_error = _usage_error(argv)
    if usage_error and code != 2:
        return f"exit code {code!r} {usage_error}"
    if "Traceback" in err.getvalue():
        return "traceback on stderr"
    if "json" in argv and code != 2:
        try:
            json.loads(out.getvalue())
        except ValueError:
            return "invalid JSON"
    return None


def test_fuzzed_command_lines_make_only_the_known_findings():
    rng = random.Random(SEED)
    draws = [_draw(rng, i) for i in range(CASES)]
    draws += KNOWN_DRAWS + BUDGET_DRAWS + RAGGED_DRAWS + SCHOOLBOOK_DRAWS
    findings = {}
    for label, preset, argv in draws:
        outcome = _outcome(argv)
        if outcome is not None:
            findings.setdefault((label, preset, outcome), argv)
    assert set(findings) == KNOWN_FINDINGS, findings
    # every subcommand and every preset was drawn
    assert {argv[0] for _, _, argv in draws} == set(cli._SUBCOMMANDS)
    assert {preset for _, preset, _ in draws} == set(PRESETS)
    assert {argv[0] for _, preset, argv in draws
            if preset == SCHOOLBOOK_PRESET} == set(cli._SUBCOMMANDS)


@pytest.mark.parametrize("argv", LARGE_PRIME_DRAWS, ids=" ".join)
def test_large_prime_draws_make_no_finding(argv):
    assert _outcome(argv) is None


@pytest.mark.parametrize("argv", LARGE_CARRIER_DRAWS, ids=" ".join)
def test_large_carrier_draws_make_no_finding(argv):
    walk = " ".join(argv[:2]) if argv[0] == "check" else argv[0]
    assert _outcome(argv, 2 if walk in CARRIER_WALKS else 0) is None


@pytest.mark.parametrize("preset", OVERSIZED_ZMOD_PRESETS)
def test_oversized_zmod_presets_exit_2_within_the_budget(preset):
    # _outcome asks for exit 2 here (see _usage_error), within BUDGET_S
    argv = ["normalize", "x", "--ring", preset]
    assert _usage_error(argv) == "on an oversized zmod preset"
    assert _outcome(argv) is None
