"""The command line's help texts and usage errors, compared byte for byte
with frozen copies, and what one run of it builds and imports."""

import os
import pathlib
import subprocess
import sys

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


def _count_parsers(monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "__init__", counting)
    return built


def test_top_level_help_builds_one_parser(monkeypatch):
    built = _count_parsers(monkeypatch)
    assert run_cli(["-h"])[0] == 0
    assert built == ["skewseries"]


@pytest.mark.parametrize("command", COMMANDS)
def test_a_subcommand_builds_two_parsers(monkeypatch, command):
    built = _count_parsers(monkeypatch)
    assert run_cli([command, "-h"])[0] == 0
    assert built == ["skewseries", f"skewseries {command}"]
    del built[:]
    assert run_cli([command, *VALID_ARGS[command], "--samples", "2"])[0] == 0
    assert built == ["skewseries", f"skewseries {command}"]


def test_each_build_is_fresh():
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    assert first.parse_args(["normalize", "x"]).expr == "x"
    assert second.parse_args(["rank", "1"]).matrix == "1"


def test_importing_the_cli_loads_no_dataclasses():
    code = ("import sys, skewseries.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    # -S: no site hooks, which could import either module themselves
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          check=True)
    assert done.stdout == "[]\n"
