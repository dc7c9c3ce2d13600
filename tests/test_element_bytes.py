"""A truncpoly element is bytes of length m whose byte i is its t^i
coefficient, each below q.  Every value the ring hands out has that form;
the packed sum (_add) and the translate negation (neg) equal their
elementwise formulas, on non-canonical bytes (>= q) too; a context past
the sum's packing bound keeps the elementwise formula; q past 251 is
refused before any element is built; and, since hashes of bytes are
salted per process, no output depends on PYTHONHASHSEED."""

import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from conftest import PRESET_MATRIX
from skewseries import TruncPolyRing, parse_ring_preset, rings

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SMALL_PRESETS = tuple(p for p in PRESET_MATRIX if p.startswith("truncpoly"))
# m*(q-1)^2 = 288: products take the schoolbook formula, sums stay packed
INVARIANT_PRESETS = SMALL_PRESETS + ("truncpoly:13:2:c=2",)
# every pair of a carrier up to this size, else seeded pairs
PAIR_LIMIT = 81 ** 2


def elementwise_add(ctx, a, b):
    return bytes([(x + y) % ctx.q for x, y in zip(a, b)])


def elementwise_neg(ctx, a):
    return bytes([-x % ctx.q for x in a])


def assert_element(ctx, value):
    assert type(value) is bytes, value
    assert len(value) == ctx.m and max(value) < ctx.q, value


def pairs_of(ctx, elems, seed):
    if len(elems) ** 2 <= PAIR_LIMIT:
        return list(itertools.product(elems, repeat=2))
    rng = random.Random(seed)
    top = bytes([ctx.q - 1] * ctx.m)
    return [(top, top)] + [(rng.choice(elems), rng.choice(elems))
                           for _ in range(3000)]


@pytest.mark.parametrize("preset", INVARIANT_PRESETS)
def test_every_value_the_ring_hands_out_is_canonical_bytes(preset):
    ctx = parse_ring_preset(preset)
    q, m = ctx.q, ctx.m
    elems = list(ctx.elements())
    assert len(elems) == q ** m
    values = [ctx.zero(), ctx.one(), *ctx.radical_gens, *elems]
    for a, b in pairs_of(ctx, elems, 40):
        values += [ctx.add(a, b), ctx.mul(a, b)]
    for a in elems:
        values += [ctx.neg(a), ctx.sigma(a), ctx.delta(a)]
        values += [ctx._reduce(a, k) for k in range(m + 1)]
        if a[0]:
            values.append(ctx._inv(a))
    values += [ctx.from_int(v) for v in range(-2 * q, 2 * q)]
    rng = random.Random(41)
    values += [ctx.sample(rng) for _ in range(200)]
    for k in range(m + 2):
        values += ctx.ideal_power_list(k)
    d = ctx.mkl_depth()
    for b in elems[:200]:
        for row in ctx._closed_rows(d, b, 0, 2 * ctx._twist_order() + 1):
            values += [v for _, v in row]
    for value in values:
        assert_element(ctx, value)


def non_canonical(ctx, seed, count=2000):
    """Seeded arguments with every byte below 128 and at least one >= q:
    no byte sum of two of them passes 255."""
    rng = random.Random(seed)
    out = [bytes([v] * ctx.m) for v in range(ctx.q, 128)]
    while len(out) < count:
        a = bytes([rng.randrange(128) for _ in range(ctx.m)])
        if max(a) >= ctx.q:
            out.append(a)
    return out


def first_disagreement(ctx, pairs, singles):
    """The first argument on which _add or neg differs from its elementwise
    formula, or None."""
    for a, b in pairs:
        if ctx._add(a, b) != elementwise_add(ctx, a, b):
            return "add", a, b
    for a in singles:
        if ctx.neg(a) != elementwise_neg(ctx, a):
            return "neg", a
    return None


def _arguments(ctx):
    elems = sorted(ctx.elements())
    odd = non_canonical(ctx, 42)
    pairs = list(itertools.product(elems, repeat=2)) + list(zip(odd, odd[::-1]))
    return pairs, elems + odd + [bytes([v] * ctx.m) for v in range(256)]


@pytest.mark.parametrize("preset", SMALL_PRESETS)
def test_packed_add_and_translate_neg_match_the_elementwise_formulas(preset):
    ctx = parse_ring_preset(preset)
    assert ctx._sum_residues is not None
    assert first_disagreement(ctx, *_arguments(ctx)) is None


def test_tables_for_canonical_bytes_only_are_caught():
    # the must-fail controls: translate tables built for range(q) (neg)
    # or for the canonical sums range(2q - 1) (add), padded with zeros,
    # agree on every element and fail on a byte past them
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
    pairs, singles = _arguments(ctx)
    elems = sorted(ctx.elements())
    canonical_pairs = list(itertools.product(elems, repeat=2))
    q = ctx.q
    ctx._negated = bytes(-i % q for i in range(q)) + bytes(256 - q)
    assert first_disagreement(ctx, canonical_pairs, elems) is None
    assert first_disagreement(ctx, pairs, singles)[0] == "neg"
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
    ctx._sum_residues = bytes(i % q for i in range(2 * q - 1)) + bytes(257 - 2 * q)
    assert first_disagreement(ctx, canonical_pairs, elems) is None
    assert first_disagreement(ctx, pairs, singles)[0] == "add"


def test_residue_tables_are_the_residues_for_every_characteristic():
    # built by repeating one period; compared with i % q and -i % q
    for q in filter(rings._is_prime, range(2, 252)):
        residues, negated = rings._residue_tables(q)
        assert residues == bytes(i % q for i in range(256)), q
        assert negated == bytes(-i % q for i in range(256)), q
        ctx = TruncPolyRing(q, 2, 1)
        assert ctx._negated == negated
        assert ctx._sum_residues in (residues, None)
        assert ctx._byte_residues in (residues, None)


def test_past_the_add_bound_takes_the_elementwise_formula():
    # 2(q - 1) = 260 > 255 at q = 131; q = 127 is the largest prime packed
    assert parse_ring_preset("truncpoly:127:2:c=3")._sum_residues is not None
    ctx = parse_ring_preset("truncpoly:131:2:c=2")
    assert ctx._sum_residues is None and ctx._byte_residues is None
    top = bytes([130, 0])
    assert ctx.add(top, top) == ctx._add(top, top) == bytes([129, 0])
    rng = random.Random(43)
    pairs = [(ctx.sample(rng), ctx.sample(rng)) for _ in range(2000)]
    singles = [a for pair in pairs for a in pair]
    assert first_disagreement(ctx, pairs, singles) is None
    # a forced packed sum there carries out of the byte of t^0
    ctx._sum_residues = bytes(i % ctx.q for i in range(256))
    assert ctx._add(top, top) == bytes([4, 1])
    assert first_disagreement(ctx, [(top, top)], []) is not None


@pytest.mark.parametrize("q", [257, 263, 1 << 61])
def test_a_characteristic_past_251_is_refused_before_any_element(monkeypatch, q):
    def no_element(self, value):
        raise AssertionError("an element was built")
    monkeypatch.setattr(TruncPolyRing, "from_int", no_element)
    with pytest.raises(ValueError, match=rf"^truncpoly characteristic {q} "
                                         r"exceeds 251: an element holds one "
                                         r"coefficient per byte$"):
        parse_ring_preset(f"truncpoly:{q}:2:c=3")


def test_the_largest_characteristic_still_builds():
    ctx = parse_ring_preset("truncpoly:251:2:c=3")
    assert ctx.mul(ctx.from_int(250), ctx.from_int(250)) == ctx.one()
    assert ctx.add(ctx.from_int(250), ctx.one()) == ctx.zero()


# commands over truncpoly:3:3:c=2 whose outputs would show an iteration
# order of elements: exhaustive suites, nilbound, and certificates
HASHSEED_COMMANDS = (
    ["check", "ring-axioms"],
    ["check", "sigma-derivation"],
    ["nilbound", "--n", "2"],
    ["rank", "1,t,t^2;0,0,0;0,0,0", "--format", "json"],
    ["rank", "1,x;0,0", "--prec", "3", "--format", "json"],
    ["check", "graded-iso", "--format", "json"],
)


def _outputs_under_hashseed(seed):
    code = ("import sys\n"
            "from skewseries.cli import main\n"
            f"for argv in {HASHSEED_COMMANDS!r}:\n"
            "    print('$', *argv)\n"
            "    print('exit', main([*argv, '--ring', 'truncpoly:3:3:c=2']))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, check=True, timeout=300)
    return done.stdout


def test_outputs_do_not_depend_on_the_hash_seed():
    first = _outputs_under_hashseed(0)
    assert first.count(b"\nexit 0\n") == len(HASHSEED_COMMANDS)
    assert _outputs_under_hashseed(12345) == first
