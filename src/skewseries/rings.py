"""Finite local coefficient rings with twist and derivation structure.

A :class:`RingContext` bundles exact arithmetic on a small finite ring R
with the extra data used by the skew polynomial and twisted power series
layers: generators of a nilpotent two-sided ideal I (the Jacobson radical
for the shipped presets), a ring endomorphism sigma with sigma(I) <= I and
a sigma-derivation delta satisfying delta(R) <= I and delta(I) <= I^2.
Because the carriers are tiny, everything ideal-theoretic (powers of I,
valuations, canonical residues mod I^k) is materialized by enumeration and
all answers are exact.

Preset grammar (also accepted by the command line front end):

    zmod:<p>^<n>              Z/p^n with I = (p), sigma = id, delta = 0
    truncpoly:<q>:<m>:c=<u>   F_q[t]/(t^m) with I = (t), sigma(f)(t) = f(u*t)
                              and delta(f) = t*(sigma(f) - f)
    ...:delta=zero            force delta = 0 on a truncpoly preset
    ...:delta=broken          deliberately non-Leibniz delta(f) = t*f, kept
                              for exercising the failure paths of the
                              structure-map checkers

Elements are plain payloads: ints for zmod presets, coefficient tuples
(low degree first) for truncpoly presets.  Payloads are canonical, so
``==`` is semantic equality.
"""

from __future__ import annotations

import itertools
import random
import re

from .report import CheckReport

INF = float("inf")

# Exhaustive enumeration replaces sampling whenever the full tuple space
# of a check is at most this large.  Both shipped preset carriers (8 and
# 27 elements) fall under the limit even for triples.
EXHAUSTIVE_TUPLE_LIMIT = 65536

_DELTA = "d"
_SIGMA = "s"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class RingContext:
    """A finite ring R with nilpotent ideal I, endomorphism sigma and
    sigma-derivation delta.

    Subclasses fix the element encoding and the primitive operations;
    this base derives ideal powers, valuations and canonical residues by
    exact enumeration.  Instances are logically immutable (internal
    caches are fill-once) and safe to share between threads.
    """

    name: str
    cardinality: int
    radical_nilpotency: int
    radical_gens: tuple

    def __init__(self):
        self._ideal_powers = None
        self._ideal_power_lists = None
        self._inv_table = None
        self._sigma_inv_table = None
        self._is_local = None
        self._mkl_cache = {}
        # nilpotency -> {b: largest l with M_{nil,l'}(b) = 0 checked for l' <= l}
        self._mkl_vanishing = {}

    # -- primitive operations (subclass responsibility) ------------------

    def elements(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def sigma(self, a):
        raise NotImplementedError

    def delta(self, a):
        raise NotImplementedError

    def sample(self, rng: random.Random):
        raise NotImplementedError

    def render(self, a) -> str:
        raise NotImplementedError

    def from_int(self, value: int):
        raise NotImplementedError

    def named_literals(self) -> dict:
        """Extra literal tokens the expression parser accepts, e.g. 't'."""
        return {}

    def ideal_power_label(self, k: int) -> str:
        raise NotImplementedError

    def _reduce(self, a, k: int):
        raise NotImplementedError

    # -- derived structure ------------------------------------------------

    def eq(self, a, b) -> bool:
        return a == b

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _additive_span(self, seed):
        """Additive subgroup generated by ``seed``, as a frozenset."""
        zero = self.zero()
        closure = {zero}
        gens = sorted(set(seed))
        changed = True
        while changed:
            changed = False
            for g in gens:
                for a in list(closure):
                    s = self.add(a, g)
                    if s not in closure:
                        closure.add(s)
                        changed = True
        return frozenset(closure)

    def _ensure_ideal_powers(self):
        if self._ideal_powers is not None:
            return
        carrier = sorted(self.elements())
        zero = self.zero()
        # two-sided ideal generated by the radical generators
        seed = []
        for g in self.radical_gens:
            for r in carrier:
                rg = self.mul(r, g)
                for s in carrier:
                    seed.append(self.mul(rg, s))
        radical = self._additive_span(seed)
        powers = [frozenset(carrier), radical]
        while len(powers) <= self.radical_nilpotency:
            prev = powers[-1]
            prods = [self.mul(a, b) for a in prev for b in radical]
            powers.append(self._additive_span(prods))
        if powers[self.radical_nilpotency] != frozenset({zero}):
            raise ValueError(
                f"{self.name}: I^{self.radical_nilpotency} does not vanish")
        if powers[self.radical_nilpotency - 1] == frozenset({zero}) and self.radical_nilpotency > 1:
            raise ValueError(
                f"{self.name}: I^{self.radical_nilpotency - 1} already vanishes")
        self._ideal_powers = powers[: self.radical_nilpotency + 1]
        self._ideal_power_lists = [sorted(s) for s in self._ideal_powers]

    def ideal_power(self, k: int) -> frozenset:
        """The set I^k (k is clamped at the nilpotency index, where I^k = 0)."""
        self._ensure_ideal_powers()
        return self._ideal_powers[min(k, self.radical_nilpotency)]

    def ideal_power_list(self, k: int) -> list:
        self._ensure_ideal_powers()
        return self._ideal_power_lists[min(k, self.radical_nilpotency)]

    def ideal_power_gens(self, k: int) -> tuple:
        """Products of k radical generators (a generating set of I^k)."""
        if k == 0:
            return (self.one(),)
        prods = set()
        for combo in itertools.product(self.radical_gens, repeat=k):
            acc = self.one()
            for g in combo:
                acc = self.mul(acc, g)
            prods.add(acc)
        return tuple(sorted(prods))

    def ideal_valuation(self, a):
        """Largest k with a in I^k; INF exactly for a = 0."""
        if a == self.zero():
            return INF
        for k in range(self.radical_nilpotency - 1, 0, -1):
            if a in self.ideal_power(k):
                return k
        return 0

    def reduce_mod_ideal_power(self, a, k: int):
        """Canonical representative of a + I^k, for 0 <= k <= nilpotency."""
        if k < 0 or k > self.radical_nilpotency:
            raise ValueError("invalid ideal power")
        if k == 0:
            return self.zero()
        if k == self.radical_nilpotency:
            return a
        return self._reduce(a, k)

    def reduce_clamped(self, a, k: int):
        """Like reduce_mod_ideal_power but with k clamped at the nilpotency
        index (I^k = 0 there, so the representative is a itself)."""
        return self.reduce_mod_ideal_power(a, min(k, self.radical_nilpotency))

    def _ensure_inv_table(self):
        if self._inv_table is not None:
            return
        table = {}
        elems = sorted(self.elements())
        one = self.one()
        for a in elems:
            for b in elems:
                if self.mul(a, b) == one and self.mul(b, a) == one:
                    table[a] = b
                    break
        self._inv_table = table

    def is_unit(self, a) -> bool:
        self._ensure_inv_table()
        return a in self._inv_table

    def inv(self, a):
        self._ensure_inv_table()
        try:
            return self._inv_table[a]
        except KeyError:
            raise ValueError(f"{self.render(a)} is not a unit in {self.name}")

    def is_local(self) -> bool:
        """True iff the non-units are exactly the elements of I."""
        if self._is_local is None:
            radical = self.ideal_power(1)
            self._is_local = all(
                self.is_unit(a) != (a in radical) for a in self.elements())
        return self._is_local

    def sigma_inv(self, a):
        """Preimage under sigma; requires sigma to be bijective on the carrier."""
        if self._sigma_inv_table is None:
            table = {}
            for x in self.elements():
                table[self.sigma(x)] = x
            if len(table) != self.cardinality:
                raise ValueError(f"sigma is not invertible on {self.name}")
            self._sigma_inv_table = table
        return self._sigma_inv_table[a]

    def sigma_radical_onto(self) -> bool:
        """Whether sigma maps I onto I (not merely into)."""
        radical = self.ideal_power(1)
        return frozenset(self.sigma(a) for a in radical) == radical

    def __eq__(self, other):
        return isinstance(other, RingContext) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<RingContext {self.name}>"


class ZmodRing(RingContext):
    """Z/p^n with radical (p), identity twist and zero derivation."""

    def __init__(self, p: int, n: int):
        if not _is_prime(p):
            raise ValueError(f"zmod modulus base {p} is not prime")
        if n < 1:
            raise ValueError("zmod exponent must be >= 1")
        self.p = p
        self.n = n
        self.cardinality = p ** n
        self.radical_nilpotency = n
        self.name = f"zmod:{p}^{n}"
        self.radical_gens = (p % self.cardinality,)
        super().__init__()

    def elements(self):
        return range(self.cardinality)

    def add(self, a, b):
        return (a + b) % self.cardinality

    def neg(self, a):
        return (-a) % self.cardinality

    def mul(self, a, b):
        return (a * b) % self.cardinality

    def zero(self):
        return 0

    def one(self):
        return 1 % self.cardinality

    def sigma(self, a):
        return a

    def delta(self, a):
        return 0

    def sample(self, rng):
        return rng.randrange(self.cardinality)

    def render(self, a):
        return str(a)

    def from_int(self, value):
        return value % self.cardinality

    def ideal_power_label(self, k):
        return str(self.p ** min(k, self.n))

    def _reduce(self, a, k):
        return a % (self.p ** k)


class TruncPolyRing(RingContext):
    """F_q[t]/(t^m) with radical (t), q-twist sigma(f)(t) = f(c*t) and the
    inner derivation delta(f) = t*(sigma(f) - f).

    delta_mode selects the derivation: "qtwist" (default), "zero", or
    "broken" (delta(f) = t*f, which violates the Leibniz rule and exists
    only so the failure paths of the checkers can be driven end to end).
    """

    def __init__(self, q: int, m: int, c: int, delta_mode: str = "qtwist"):
        if not _is_prime(q):
            raise ValueError(f"truncpoly characteristic {q} is not prime")
        if m < 1:
            raise ValueError("truncpoly truncation order must be >= 1")
        if not 1 <= c < q:
            raise ValueError("twist constant must be a nonzero residue mod q")
        if delta_mode not in ("qtwist", "zero", "broken"):
            raise ValueError(f"unknown delta mode {delta_mode!r}")
        self.q = q
        self.m = m
        self.c = c
        self.delta_mode = delta_mode
        self.cardinality = q ** m
        self.radical_nilpotency = m
        suffix = "" if delta_mode == "qtwist" else f":delta={delta_mode}"
        self.name = f"truncpoly:{q}:{m}:c={c}{suffix}"
        gen = [0] * m
        if m > 1:
            gen[1] = 1
        self.radical_gens = (tuple(gen),)
        self._cpow = [pow(c, i, q) for i in range(m)]
        super().__init__()

    def elements(self):
        return itertools.product(range(self.q), repeat=self.m)

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.q for x in a)

    def mul(self, a, b):
        out = [0] * self.m
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j in range(self.m - i):
                y = b[j]
                if y:
                    out[i + j] = (out[i + j] + x * y) % self.q
        return tuple(out)

    def zero(self):
        return (0,) * self.m

    def one(self):
        return (1 % self.q,) + (0,) * (self.m - 1)

    def sigma(self, a):
        return tuple((x * self._cpow[i]) % self.q for i, x in enumerate(a))

    def _shift(self, a):
        # multiplication by t
        return (0,) + a[:-1]

    def delta(self, a):
        if self.delta_mode == "zero":
            return self.zero()
        if self.delta_mode == "broken":
            return self._shift(a)
        return self._shift(self.sub(self.sigma(a), a))

    def sample(self, rng):
        return tuple(rng.randrange(self.q) for _ in range(self.m))

    def render(self, a):
        parts = []
        for i, x in enumerate(a):
            if x == 0:
                continue
            if i == 0:
                parts.append(str(x))
            else:
                tp = "t" if i == 1 else f"t^{i}"
                parts.append(tp if x == 1 else f"{x}*{tp}")
        return " + ".join(parts) if parts else "0"

    def from_int(self, value):
        return (value % self.q,) + (0,) * (self.m - 1)

    def named_literals(self):
        return {"t": self.radical_gens[0]}

    def ideal_power_label(self, k):
        kk = min(k, self.m)
        return "t" if kk == 1 else f"t^{kk}"

    def _reduce(self, a, k):
        return a[:k] + (0,) * (self.m - k)


_ZMOD_RE = re.compile(r"^(\d+)\^(\d+)$")


def parse_ring_preset(text: str) -> RingContext:
    """Build a ring context from a preset string (see the module docstring)."""
    parts = text.split(":")
    head = parts[0]
    if head == "zmod":
        if len(parts) < 2:
            raise ValueError(f"invalid ring preset {text!r}")
        match = _ZMOD_RE.match(parts[1])
        if not match:
            raise ValueError(f"invalid zmod preset {text!r}: expected zmod:<p>^<n>")
        for mod in parts[2:]:
            if mod != "delta=zero":
                raise ValueError(f"invalid zmod modifier {mod!r}")
        return ZmodRing(int(match.group(1)), int(match.group(2)))
    if head == "truncpoly":
        if len(parts) < 4 or not parts[3].startswith("c="):
            raise ValueError(
                f"invalid truncpoly preset {text!r}: expected truncpoly:<q>:<m>:c=<unit>")
        try:
            q, m, c = int(parts[1]), int(parts[2]), int(parts[3][2:])
        except ValueError:
            raise ValueError(f"invalid truncpoly preset {text!r}")
        mode = "qtwist"
        for mod in parts[4:]:
            if mod == "delta=zero":
                mode = "zero"
            elif mod == "delta=broken":
                mode = "broken"
            else:
                raise ValueError(f"invalid truncpoly modifier {mod!r}")
        return TruncPolyRing(q, m, c, delta_mode=mode)
    raise ValueError(f"unknown ring preset family {head!r}")


def _tuple_stream(ctx: RingContext, arity: int, samples: int, rng: random.Random):
    """All tuples when the space is small, else seeded random tuples.

    Returns (iterable, exhaustive_flag)."""
    if ctx.cardinality ** arity <= EXHAUSTIVE_TUPLE_LIMIT:
        elems = sorted(ctx.elements())
        return itertools.product(elems, repeat=arity), True

    def gen():
        for _ in range(samples):
            yield tuple(ctx.sample(rng) for _ in range(arity))

    return gen(), False


def ring_axiom_check(ctx: RingContext, samples: int, seed: int) -> CheckReport:
    """Verify the ring axioms on every sampled (or enumerated) triple."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    zero, one = ctx.zero(), ctx.one()
    checked = 0
    cex = None

    singles, _ = _tuple_stream(ctx, 1, samples, rng)
    for (a,) in singles:
        checked += 1
        if ctx.add(a, zero) != a:
            cex = f"a + 0 != a at a={ctx.render(a)}"
        elif ctx.add(a, ctx.neg(a)) != zero:
            cex = f"a + (-a) != 0 at a={ctx.render(a)}"
        elif ctx.mul(one, a) != a or ctx.mul(a, one) != a:
            cex = f"unit law fails at a={ctx.render(a)}"
        elif ctx.mul(zero, a) != zero or ctx.mul(a, zero) != zero:
            cex = f"zero absorption fails at a={ctx.render(a)}"
        if cex:
            break

    triples, exhaustive = _tuple_stream(ctx, 3, samples, rng)
    if cex is None:
        for a, b, c in triples:
            checked += 1
            if ctx.add(ctx.add(a, b), c) != ctx.add(a, ctx.add(b, c)):
                law = "additive associativity"
            elif ctx.add(a, b) != ctx.add(b, a):
                law = "additive commutativity"
            elif ctx.mul(ctx.mul(a, b), c) != ctx.mul(a, ctx.mul(b, c)):
                law = "multiplicative associativity"
            elif ctx.mul(a, ctx.add(b, c)) != ctx.add(ctx.mul(a, b), ctx.mul(a, c)):
                law = "left distributivity"
            elif ctx.mul(ctx.add(a, b), c) != ctx.add(ctx.mul(a, c), ctx.mul(b, c)):
                law = "right distributivity"
            else:
                continue
            cex = (f"{law} fails at a={ctx.render(a)}, b={ctx.render(b)}, "
                   f"c={ctx.render(c)}")
            break

    return CheckReport(
        name="ring-axioms",
        passed=cex is None,
        checked=checked,
        counterexample=cex,
        details={"mode": "exhaustive" if exhaustive else "sampled"},
    )


def sigma_derivation_check(ctx: RingContext, samples: int, seed: int) -> CheckReport:
    """Verify that sigma is a ring endomorphism preserving I and that delta
    is an additive map obeying the sigma-Leibniz rule with delta(R) <= I and
    delta(I) <= I^2."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    one = ctx.one()
    radical = ctx.ideal_power(1)
    radical_sq = ctx.ideal_power(2)
    checked = 0
    cex = None

    if ctx.sigma(one) != one:
        cex = "sigma(1) != 1"

    singles, _ = _tuple_stream(ctx, 1, samples, rng)
    if cex is None:
        for (a,) in singles:
            checked += 1
            if ctx.delta(a) not in radical:
                cex = f"delta({ctx.render(a)}) is outside I"
                break

    # I is small; run the containment checks over all of it
    if cex is None:
        for a in sorted(radical):
            checked += 2
            if ctx.sigma(a) not in radical:
                cex = f"sigma({ctx.render(a)}) leaves I"
                break
            if ctx.delta(a) not in radical_sq:
                cex = f"delta({ctx.render(a)}) is outside I^2"
                break

    pairs, exhaustive = _tuple_stream(ctx, 2, samples, rng)
    if cex is None:
        for a, b in pairs:
            checked += 1
            if ctx.sigma(ctx.add(a, b)) != ctx.add(ctx.sigma(a), ctx.sigma(b)):
                law = "sigma additivity"
            elif ctx.sigma(ctx.mul(a, b)) != ctx.mul(ctx.sigma(a), ctx.sigma(b)):
                law = "sigma multiplicativity"
            elif ctx.delta(ctx.add(a, b)) != ctx.add(ctx.delta(a), ctx.delta(b)):
                law = "delta additivity"
            elif ctx.delta(ctx.mul(a, b)) != ctx.add(
                    ctx.mul(ctx.sigma(a), ctx.delta(b)), ctx.mul(ctx.delta(a), b)):
                law = "sigma-Leibniz rule"
            else:
                continue
            cex = f"{law} fails at a={ctx.render(a)}, b={ctx.render(b)}"
            break

    return CheckReport(
        name="sigma-derivation",
        passed=cex is None,
        checked=checked,
        counterexample=cex,
        details={
            "mode": "exhaustive" if exhaustive else "sampled",
            "sigma_radical_onto": ctx.sigma_radical_onto(),
        },
    )


def sigma_nilpotence_bound(ctx: RingContext, n: int, word_limit: int = 6):
    """Least m <= word_limit such that every composite word in delta, sigma
    with at least m delta factors (and total length <= word_limit) maps the
    whole carrier into I^n.  Returns None when no such m exists within the
    word-length budget.

    The search is exhaustive over words and carrier elements, so a returned
    bound is a verified one.
    """
    if n < 1:
        raise ValueError("target power must be >= 1")
    if word_limit < 1:
        raise ValueError("word limit must be >= 1")
    target = ctx.ideal_power(n)
    elems = sorted(ctx.elements())
    failing_counts = set()
    for length in range(1, word_limit + 1):
        for word in itertools.product((_DELTA, _SIGMA), repeat=length):
            k = word.count(_DELTA)
            if k == 0 or k in failing_counts:
                continue
            for a in elems:
                x = a
                for letter in reversed(word):
                    x = ctx.delta(x) if letter == _DELTA else ctx.sigma(x)
                if x not in target:
                    failing_counts.add(k)
                    break
    m = max(failing_counts) + 1 if failing_counts else 1
    return m if m <= word_limit else None
