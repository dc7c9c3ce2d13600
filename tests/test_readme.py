"""The README's command-line examples, run through cli.main: each shown
``# `` line (``# ...`` elides) must appear, in order, among the lines the
command prints."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from skewseries.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    text = README.read_text()
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("skewseries "):
            examples.append((line, []))
        elif line.startswith("# ") and not line.startswith("# ..."):
            examples[-1][1].append(line[2:])
    return examples


EXAMPLES = _examples()


def test_the_block_has_examples():
    assert len(EXAMPLES) >= 5 and all(shown for _, shown in EXAMPLES[:-1])


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_prints_what_the_readme_shows(command, shown):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command)[1:])
    assert code == 0
    lines = iter(out.getvalue().splitlines())
    for expected in shown:
        assert any(line == expected for line in lines), \
            f"{expected!r} missing or out of order in the output of {command}"


def _layout_names(directory: str) -> set:
    """The .py files that the ## Layout block lists under ``directory``."""
    text = README.read_text()
    block = re.search(r"^## Layout\n+```\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL).group(1)
    listed = re.search(rf"^{re.escape(directory)}/\n(.*?)^\S", block,
                       re.MULTILINE | re.DOTALL).group(1)
    return set(re.findall(r"^  (\S+\.py)\b", listed, re.MULTILINE))


def _files(directory: str) -> set:
    return {path.name for path in (README.parent / directory).glob("*.py")}


def test_the_layout_block_names_every_tool():
    assert _layout_names("tools") == _files("tools")


def test_the_layout_block_names_every_module():
    assert _layout_names("src/skewseries") == _files("src/skewseries")
