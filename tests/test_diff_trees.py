"""Smoke test of tools/diff_trees.py: a few fuzzed draws of this tree's src/
against itself differ nowhere, and against a copy with one planted output
change they differ on every draw that reaches it."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRAWS, SEED = 8, 101


def _load_tool():
    spec = importlib.util.spec_from_file_location("diff_trees", ROOT / "tools" / "diff_trees.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_differs_nowhere(capsys):
    tool = _load_tool()
    assert tool.compare(ROOT / "src", ROOT / "src", DRAWS, SEED) == {}
    assert tool.main([str(ROOT / "src"), str(ROOT / "src"),
                      "--draws", str(DRAWS), "--seed", str(SEED)]) == 0
    assert capsys.readouterr().out == (
        f"{DRAWS} draws at seed {SEED}, {ROOT / 'src'} against "
        f"{ROOT / 'src'}: 0 differ\n")


def test_a_planted_output_change_is_reported(tmp_path):
    tool = _load_tool()
    shutil.copytree(ROOT / "src" / "skewseries", tmp_path / "skewseries",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "skewseries" / "cli.py", "a") as cli:
        cli.write("\n_main = main\n\n\ndef main(argv=None):\n"
                  "    code = _main(argv)\n    print('planted')\n    return code\n")
    differ = tool.compare(ROOT / "src", tmp_path, DRAWS, SEED)
    # every draw that cli.main returns from prints the planted line; usage
    # errors end in SystemExit before it
    cases = [case for label in differ for case in differ[label]]
    assert cases
    for _, old, new in cases:
        assert old[0] == new[0] and old[2] == new[2]
        assert new[1] == old[1] + "planted\n"
    lines = tool.report(differ, DRAWS, SEED, "old", "new")
    assert lines[0] == f"{DRAWS} draws at seed {SEED}, old against new: {len(cases)} differ"
    label = min(differ)
    old_stdout = differ[label][0][1][1]
    assert lines[1].startswith(f"  {label}: {len(differ[label])} differ, e.g. skewseries ")
    assert lines[2] == (f"    stdout line {len(old_stdout.splitlines()) + 1}: "
                        "'<end>' -> 'planted\\n'")
    assert tool.main(["--draws", str(DRAWS), str(ROOT / "src"), str(tmp_path)]) == 1
