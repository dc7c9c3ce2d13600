"""Smoke test of tools/ab_trees.py: one round of expr-warm with both sides
loaded from this tree's src/."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("ab_trees", ROOT / "tools" / "ab_trees.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_round_of_expr_warm_on_the_same_tree():
    ab = _load_tool()
    before = {name: id(m) for name, m in sys.modules.items()
              if name.split(".")[0] == "skewseries"}
    summary = ab.compare(ROOT / "src", ROOT / "src", "expr-warm", seed=7, rounds=1)
    assert summary["same_outputs"]
    assert summary["pool"] == 120 and summary["rounds"] == 1
    assert summary["new_won"] in (0, 1)
    assert all(t > 0 for t in summary["median_s"].values())
    assert all(t > 0 for t in summary["item_p50_ms"].values())
    lines = ab.report(summary, "A", "B")
    assert lines[1].startswith("  old A: median ")
    assert lines[1].endswith(f"per-item p50 {summary['item_p50_ms']['old']:.3f} ms")
    assert lines[2].endswith(f"per-item p50 {summary['item_p50_ms']['new']:.3f} ms")
    assert f"{summary['p50_ratio']:.3f} per-item p50" in lines[3]
    # throughput and p90 from the same per-item medians, as bench/run.py
    for label, line in (("old", lines[4]), ("new", lines[5])):
        rps, p90 = summary["throughput_rps"][label], summary["item_p90_ms"][label]
        assert rps > 0 and p90 >= summary["item_p50_ms"][label]
        assert line == (f"  {label} {'A' if label == 'old' else 'B'}: "
                        f"throughput {rps:.1f} req/s, per-item p90 {p90:.3f} ms")
    assert lines[6] == (f"  new/old {summary['throughput_ratio']:.3f} throughput, "
                        f"{summary['p90_ratio']:.3f} per-item p90")
    assert lines[7] == "  outputs identical"
    # the caller's skewseries modules are back in place
    after = {name: id(m) for name, m in sys.modules.items()
             if name.split(".")[0] == "skewseries"}
    assert after == before
