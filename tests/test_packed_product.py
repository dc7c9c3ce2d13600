"""TruncPolyRing._mul packs each factor into one int, a byte per
t-coefficient, wherever m*(q-1)^2 <= 255, and multiplies once.  The
schoolbook product (_schoolbook_mul) is its oracle: the two must agree on
every pair of the small presets and on seeded pairs of the larger ones,
and past the bound the context must keep the schoolbook path, which a
forced packed product there shows to be needed."""

import itertools
import random

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX
from skewseries import TruncPolyRing, parse_ring_preset

EXHAUSTIVE_PRESETS = tuple(p for p in PRESET_MATRIX if p.startswith("truncpoly")) + (
    "truncpoly:3:4:c=2", BROKEN_PRESET)
# truncpoly:7:5:c=3 sits near the bound: m*(q-1)^2 = 180
SAMPLED_PRESETS = ("truncpoly:3:6:c=2", "truncpoly:2:16:c=1",
                   "truncpoly:7:5:c=3")
SAMPLED_PAIRS = 20000
# m*(q-1)^2 = 288: one byte per coefficient would carry
PAST_THE_BOUND = "truncpoly:13:2:c=2"


def first_disagreement(ctx, pairs):
    """The first pair on which _mul and the schoolbook product differ, with
    both values, or None."""
    for a, b in pairs:
        packed, plain = ctx._mul(a, b), ctx._schoolbook_mul(a, b)
        if packed != plain:
            return a, b, packed, plain
    return None


def sampled_pairs(ctx, count, seed):
    rng = random.Random(seed)
    return [(ctx.sample(rng), ctx.sample(rng)) for _ in range(count)]


@pytest.mark.parametrize("preset", EXHAUSTIVE_PRESETS)
def test_packed_matches_schoolbook_on_every_pair(preset):
    ctx = parse_ring_preset(preset)
    assert ctx._byte_residues is not None
    elems = sorted(ctx.elements())
    assert first_disagreement(ctx, itertools.product(elems, repeat=2)) is None


@pytest.mark.parametrize("preset", SAMPLED_PRESETS)
def test_packed_matches_schoolbook_on_seeded_pairs(preset):
    ctx = parse_ring_preset(preset)
    assert ctx._byte_residues is not None
    # the largest coefficients fill each low byte the most: m*(q-1)^2 at t^(m-1)
    top = bytes([ctx.q - 1] * ctx.m)
    pairs = [(top, top)] + sampled_pairs(ctx, SAMPLED_PAIRS, 30)
    assert first_disagreement(ctx, pairs) is None


def test_past_the_bound_takes_the_schoolbook_path(monkeypatch):
    ctx = parse_ring_preset(PAST_THE_BOUND)
    assert ctx._byte_residues is None and ctx._low_bytes is None
    calls = []
    plain = TruncPolyRing._schoolbook_mul

    def counted(self, a, b):
        calls.append((a, b))
        return plain(self, a, b)

    monkeypatch.setattr(TruncPolyRing, "_schoolbook_mul", counted)
    a, b = bytes([12, 12]), bytes([12, 1])
    assert ctx.mul(a, b) == bytes([144 % 13, (12 + 144) % 13])
    assert calls == [(a, b)]


def test_forced_packing_past_the_bound_is_reported():
    # the must-fail control of the differential test: the t coefficient of
    # (12 + 12t)(12 + 12t) is 288, which carries out of its byte
    ctx = parse_ring_preset(PAST_THE_BOUND)
    elems = sorted(ctx.elements())
    pairs = list(itertools.product(elems, repeat=2))
    assert first_disagreement(ctx, pairs) is None
    # the byte table and mask of the packed path, whatever the bound says
    ctx._byte_residues = bytes(i % ctx.q for i in range(256))
    ctx._low_bytes = (1 << 8 * ctx.m) - 1
    assert first_disagreement(ctx, pairs) is not None
    top = bytes([12, 12])
    assert ctx._mul(top, top) != ctx._schoolbook_mul(top, top)


@pytest.mark.parametrize("preset", SAMPLED_PRESETS + (PAST_THE_BOUND,))
def test_closed_delta_matches_the_composed_one(preset):
    # delta = t*(sigma(a) - a), from the memoized operations
    ctx = parse_ring_preset(preset)
    for a in [a for pair in sampled_pairs(ctx, 500, 31) for a in pair]:
        assert ctx.delta(a) == ctx._shift(ctx.sub(ctx.sigma(a), a))
