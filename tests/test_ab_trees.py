"""Smoke tests of tools/ab_trees.py: one round of expr-warm and one of
rank-mixed with both sides loaded from this tree's src/, each side on the
pool its own tree generated, the opcode count of --opcodes, and the
representation-neutral digest."""

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


def test_the_opcode_count_repeats_exactly_on_the_same_tree():
    ab = _load_tool()
    tracing = sys.gettrace()
    summary = ab.compare(ROOT / "src", ROOT / "src", "expr-warm", seed=7,
                         rounds=1, opcodes=True)
    counts = summary["opcodes"]
    assert counts["old"] > 0 and counts["old"] == counts["new"]
    assert ab.report(summary, "A", "B")[-1] == (
        f"  opcodes per pass: old {counts['old']}, new {counts['new']}, "
        "new/old 1.0000")
    # whatever traced the caller traces it again
    assert sys.gettrace() is tracing


def test_each_side_replays_the_pool_its_own_tree_generated(monkeypatch):
    # a shared pool would hand one tree's elements to the other, which
    # breaks an A/B of a change of element representation
    ab = _load_tool()
    generate, run = ab.Side.generate, ab.Side.run
    generated, replayed = {}, []

    def recording_generate(self, seed):
        generate(self, seed)
        own = sys.modules["skewseries.rings"] is self.modules["skewseries.rings"]
        generated[self.label] = (own, self.pool)

    def recording_run(self):
        replayed.append((self.label, self.pool is generated[self.label][1]))
        return run(self)

    monkeypatch.setattr(ab.Side, "generate", recording_generate)
    monkeypatch.setattr(ab.Side, "run", recording_run)
    summary = ab.compare(ROOT / "src", ROOT / "src", "rank-mixed", seed=7, rounds=1)
    assert summary["same_outputs"] and summary["pool"] == 180
    assert {label: own for label, (own, _) in generated.items()} == \
        {"old": True, "new": True}
    assert generated["old"][1] is not generated["new"][1]
    assert sorted(replayed) == [("new", True)] * 2 + [("old", True)] * 2


def test_the_digest_reads_bytes_as_tuples_of_ints():
    ab = _load_tool()
    assert ab.neutral([(b"\x01\x02", 3), (b"",)]) == [((1, 2), 3), ((),)]
    assert ab.neutral("abc") == "abc" and ab.neutral(None) is None

    class Plain:
        """A workload whose outputs are already plain."""

        @staticmethod
        def plain(out):
            return out

    side = ab.Side.__new__(ab.Side)
    side.workload = Plain()
    as_bytes = [(b"\x00\x01", b"\x02\x00"), 5]
    as_tuples = [((0, 1), (2, 0)), 5]
    assert side.digest(as_bytes) == side.digest(as_tuples)
    assert side.digest(as_bytes) != side.digest([((0, 1), (2, 1)), 5])
