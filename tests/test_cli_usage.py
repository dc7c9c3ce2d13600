"""The command line's help texts and usage errors, compared byte for byte
with frozen copies, and what importing and running it builds and imports."""

import os
import pathlib
import subprocess
import sys
import threading

import pytest

from skewseries import cli
from test_parser_cli import run_cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
COMMANDS = ("normalize", "mul", "degree", "symbol", "nilbound", "rank",
            "stable-iso", "complete-row", "check")

# per subcommand: the arguments of one accepted call
VALID_ARGS = {
    "normalize": ["x"],
    "mul": ["x", "x"],
    "degree": ["x", "--prec", "2"],
    "symbol": ["x", "--prec", "2"],
    "nilbound": ["--n", "2"],
    "rank": ["1"],
    "stable-iso": ["1", "1"],
    "complete-row": ["1"],
    "check": ["ring-axioms"],
}


# per subcommand: a call whose argument -1-x argparse reads as an option
DASHED_ARGS = {
    "normalize": ["-1-x"],
    "mul": ["x", "-1-x"],
    "degree": ["-1-x", "--prec", "2"],
    "symbol": ["-1-x", "--prec", "2"],
    "nilbound": ["--n", "2", "-1-x"],
    "rank": ["-1-x"],
    "stable-iso": ["1", "-1-x"],
    "complete-row": ["-1-x"],
    "check": ["-1-x"],
}


def usage_error_cases(command):
    """argv of three usage errors: a missing argument, an unknown option,
    and a word that starts with '-' read as an option."""
    return ([command], [command, *VALID_ARGS[command], "--bogus"],
            [command, *DASHED_ARGS[command]])


def usage_transcript(command):
    """The exit code and stderr of each usage error of command, as one text."""
    parts = []
    for argv in usage_error_cases(command):
        code, out, err = run_cli(argv)
        parts.append(f"$ skewseries {' '.join(argv)}\nexit {code}\n{out}{err}")
    return "".join(parts)


def help_file(command):
    return GOLDEN_DIR / (f"help_{command}.txt" if command else "help.txt")


@pytest.mark.parametrize("command", (None,) + COMMANDS)
def test_help_is_unchanged(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli([command, "-h"] if command else ["-h"])
    assert (code, err) == (0, "")
    assert out == help_file(command).read_text()


@pytest.mark.parametrize("command", COMMANDS)
def test_usage_errors_are_unchanged(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    text = usage_transcript(command)
    assert text == (GOLDEN_DIR / f"usage_{command}.txt").read_text()
    assert text.count("exit 2\n") == 3
    # the last case names '--', and the word is taken after it
    assert "'-1-x' was read as an option" in text.rsplit("$ ", 1)[1]


def test_invalid_command_is_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(["frobnicate"])
    assert (code, out) == (2, "")
    assert err == (
        "usage: skewseries [-h]\n"
        "                  {normalize,mul,degree,symbol,nilbound,rank,stable-iso,"
        "complete-row,check}\n"
        "                  ...\n"
        "skewseries: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'normalize', 'mul', 'degree', 'symbol', 'nilbound', "
        "'rank', 'stable-iso', 'complete-row', 'check')\n")


@pytest.fixture
def built(monkeypatch):
    """Start from an empty parser cache, and list the prog of every _Parser
    built from then on.  monkeypatch puts the cached parser back after the
    test."""
    monkeypatch.setattr(cli, "_top", None)
    progs = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "__init__", counting)
    return progs


def _in_a_fresh_interpreter(code):
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    # -S: no site hooks, which could import modules themselves
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          check=True)
    return done.stdout


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import skewseries.cli\n"
            "print(built, skewseries.cli._top)\n")
    assert _in_a_fresh_interpreter(code) == "[] None\n"


# what the first build_parser() call of a process builds, in order
ALL_PARSERS = ["skewseries"] + [f"skewseries {name}" for name in cli._SUBCOMMANDS]


def test_the_first_call_builds_every_parser_in_order(built):
    assert tuple(cli._SUBCOMMANDS) == COMMANDS
    assert run_cli(["-h"])[0] == 0
    assert built == ALL_PARSERS
    assert run_cli(["-h"])[0] == 0
    assert built == ALL_PARSERS


@pytest.mark.parametrize("command", COMMANDS)
def test_later_runs_and_help_build_no_parser(built, command):
    assert run_cli([command, *VALID_ARGS[command], "--samples", "2"])[0] == 0
    assert built == ALL_PARSERS
    assert run_cli([command, *VALID_ARGS[command], "--samples", "2"])[0] == 0
    assert run_cli([command, "-h"])[0] == 0
    assert run_cli(["-h"])[0] == 0
    other = "normalize" if command != "normalize" else "rank"
    assert run_cli([other, *VALID_ARGS[other]])[0] == 0
    assert built == ALL_PARSERS


def test_build_parser_returns_the_same_parser(built):
    first, second = cli.build_parser(), cli.build_parser()
    assert first is second
    assert built == ALL_PARSERS
    assert first.parse_args(["normalize", "x"]).expr == "x"
    assert second.parse_args(["rank", "1"]).matrix == "1"


class _Cut(BaseException):
    """Stands for an interruption, such as a CPU budget's signal, that no
    except clause of the program catches."""


def _cut(monkeypatch, name, prog, nth):
    """Make the nth call of _Parser.name on a parser of this prog raise _Cut.
    Returns the arguments of each call on such a parser."""
    method, calls = getattr(cli._Parser, name), []

    def cutting(self, *args, **kwargs):
        if self.prog == prog:
            calls.append(args)
            if len(calls) == nth:
                raise _Cut
        return method(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, name, cutting)
    return calls


def test_a_subcommand_build_cut_short_is_not_kept(monkeypatch, built):
    # cut at the third argument of rank: -h and --ring are in, the rest is not
    calls = _cut(monkeypatch, "add_argument", "skewseries rank", 3)
    with pytest.raises(_Cut):
        run_cli(["normalize", "x"])
    assert calls == [("-h", "--help"), ("--ring",), ("--prec",)]
    assert cli._top is None
    code, out, err = run_cli(["rank", "1", "--format", "json"])
    assert (code, err) == (0, "")
    assert '"verdict": "RANK 1 VERIFIED"' in out
    assert run_cli(["rank", "1"])[0] == 0
    cut_at = ALL_PARSERS.index("skewseries rank") + 1
    assert built == ALL_PARSERS[:cut_at] + ALL_PARSERS


def test_a_top_level_build_cut_short_is_not_kept(monkeypatch, built):
    _cut(monkeypatch, "add_subparsers", "skewseries", 1)
    with pytest.raises(_Cut):
        cli.build_parser()
    assert cli._top is None
    assert run_cli(["normalize", "x"])[0] == 0
    assert built == ["skewseries"] + ALL_PARSERS


@pytest.mark.parametrize("command", (None,) + COMMANDS)
def test_help_follows_columns_on_every_call(monkeypatch, built, command):
    argv = [command, "-h"] if command else ["-h"]
    monkeypatch.setenv("COLUMNS", "120")
    code, wide, _ = run_cli(argv)
    assert code == 0 and wide != help_file(command).read_text()
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(argv) == (0, help_file(command).read_text(), "")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_dashed_word_is_named_in_its_own_call_only(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert "'-1-x'" in run_cli([command, *DASHED_ARGS[command]])[2]
    missing, bogus, _ = usage_error_cases(command)
    for argv in (missing, bogus, ["frobnicate"]):
        code, _, err = run_cli(argv)
        assert code == 2 and "-1-x" not in err
    assert usage_transcript(command) == \
        (GOLDEN_DIR / f"usage_{command}.txt").read_text()


def test_threads_sharing_a_parser_each_see_their_own_dashed_word(monkeypatch):
    """Usage errors from four threads at once on the shared parsers: each
    names -1-x exactly when its own command line had it."""
    class Usage(Exception):
        pass

    def exit_with(self, status=0, message=None):
        raise Usage(message)
    monkeypatch.setattr(cli._Parser, "exit", exit_with)
    monkeypatch.setattr(cli._Parser, "print_usage", lambda self, file=None: None)
    parser, wrong = cli.build_parser(), []

    def client(k):
        for i in range(200):
            dashed = (i + k) % 2 == 0
            argv = ["normalize", "-1-x"] if dashed else ["normalize", "x", "--bogus"]
            try:
                parser.parse_args(argv)
            except Usage as exc:
                if ("'-1-x'" in str(exc)) != dashed:
                    wrong.append((argv, str(exc)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_importing_the_cli_loads_no_dataclasses():
    code = ("import sys, skewseries.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    assert _in_a_fresh_interpreter(code) == "[]\n"
