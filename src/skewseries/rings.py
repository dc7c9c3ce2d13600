"""Finite local coefficient rings with twist and derivation structure.

A :class:`RingContext` bundles exact arithmetic on a small finite ring R
with the extra data used by the skew polynomial and twisted power series
layers: generators of a nilpotent two-sided ideal I (the Jacobson radical
for the shipped presets), a ring endomorphism sigma with sigma(I) <= I and
a sigma-derivation delta satisfying delta(R) <= I and delta(I) <= I^2.
Each preset family knows its ideal-theoretic structure (powers of I,
valuations, canonical residues mod I^k, inverses of units, and the depth
at which the monomial operators M_{k,l} of sigma and delta vanish) in
closed form, so nothing here enumerates R: ideal powers are built lazily
per k, every inverse is verified by both products before it is used, and
the test suite checks each closed form against exhaustive enumeration on
small presets.  All answers are exact.

Preset grammar (also accepted by the command line front end):

    zmod:<p>^<n>              Z/p^n with I = (p), sigma = id, delta = 0
    truncpoly:<q>:<m>:c=<u>   F_q[t]/(t^m) with I = (t), sigma(f)(t) = f(u*t)
                              and delta(f) = t*(sigma(f) - f)
    ...:delta=zero            force delta = 0 on a truncpoly preset
    ...:delta=broken          deliberately non-Leibniz delta(f) = t*f, kept
                              for exercising the failure paths of the
                              structure-map checkers

A truncpoly preset takes at most one modifier.

Elements are plain payloads: ints for zmod presets, coefficient tuples
(low degree first) for truncpoly presets.  Payloads are canonical, so
``==`` is semantic equality.
"""

from __future__ import annotations

import itertools
import random
import re

INF = float("inf")

# Exhaustive enumeration replaces sampling whenever the full tuple space
# of a check is at most this large: single elements up to |R| = 65536,
# pairs up to |R| = 256 and triples up to |R| = 40 (zmod:2^3, zmod:3^3 and
# truncpoly:3:3 are exhaustive for triples; zmod:2^10 and truncpoly:5:4
# only for pairs).
EXHAUSTIVE_TUPLE_LIMIT = 65536

# Each operation memo of a TruncPolyRing, and its element table, holds at
# most this many entries: an exhaustive pair table at |R| = 256.  A binary
# entry, keyed by the argument pair, takes about 95 bytes, so a full binary
# table takes about 6.2 MB.  The element table saves memory, not lookup
# time: a cold dense truncpoly:3:6:c=2 product in S/G_256 peaks at 7.22 MB
# under tracemalloc with it and at 13.32 MB with plain memos.
MEMO_CAP = 1 << 16


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

    Subclasses fix the element encoding, the primitive operations and the
    closed forms of the ideal structure; this base memoizes them, checks
    the nilpotency index on the generators and verifies every inverse.
    Instances are logically immutable and safe to share between threads
    without a lock: a cache entry is stored whole by one atomic dict
    operation (item assignment or setdefault) and never changed in place,
    and any value stored for a key is correct for it (an operator row may
    be replaced by a longer prefix of the same row, or by a shorter one
    from another thread), so a reader always sees a whole, correct value.
    """

    name: str
    cardinality: int
    radical_nilpotency: int
    radical_gens: tuple

    def __init__(self):
        self._ideal_power_lists = None
        self._inv_table = None
        self._is_local = None
        self._mkl_cache = {}
        # b -> rows, rows[n] the (k, M_{k,n}(b)) with k < d = mkl_depth() and
        # a nonzero value, admitted once M_{d,n}(b) = 0 is checked, built by
        # the family's closed form (_closed_rows) or read from _mkl_cache
        self._mkl_rows = {}
        self._family_mkl_depth = None
        self._one_commutes_with_x = None

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

    # closed-form ideal structure (subclass responsibility)

    def _reduce(self, a, k: int):
        raise NotImplementedError

    def _ideal_power_list(self, k: int) -> list:
        """Sorted elements of I^k, for 0 <= k <= nilpotency."""
        raise NotImplementedError

    def _valuation(self, a):
        """Largest k with a in I^k; INF for a = 0."""
        raise NotImplementedError

    def _inv(self, a):
        """Candidate inverse of a unit a; may raise ValueError otherwise."""
        raise NotImplementedError

    def _unit_residues(self) -> list:
        """One representative of each nonzero class of R/I."""
        raise NotImplementedError

    def _mkl_depth(self) -> int:
        """Least d >= 1 with M_{d,l} = 0 for every l (see mkl_depth)."""
        raise NotImplementedError

    def _closed_rows(self, d: int, b, built: int, top: int):
        """The operator rows n = built .. top - 1 of b at depth d (see
        skewpoly._operator_rows) from the family's closed form of M_{k,l},
        or None where the family has none: the product kernel then runs the
        M_{k,l} recursion.  A closed form checks M_{d,n}(b) = 0 for every n
        it returns and raises _depth_cut_error otherwise, as the recursion's
        rows do.  It is a method of the class, never an instance attribute:
        a bound method stored on the instance would make a reference cycle,
        and every context would then wait for the cyclic collector."""
        return None

    # -- derived structure ------------------------------------------------

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _ensure_ideal_powers(self):
        """Check once that I^nil = 0 != I^(nil-1) and open the per-k memos
        of ideal powers.  Both families are commutative, so I^k = 0 exactly
        when every product of k radical generators vanishes."""
        if self._ideal_power_lists is not None:
            return
        nil = self.radical_nilpotency
        zero = self.zero()
        if any(w != zero for w in self.ideal_power_gens(nil)):
            raise ValueError(f"{self.name}: I^{nil} does not vanish")
        if all(w == zero for w in self.ideal_power_gens(nil - 1)):
            raise ValueError(f"{self.name}: I^{nil - 1} already vanishes")
        self._ideal_power_lists = {}

    def ideal_power(self, k: int) -> frozenset:
        """The set I^k (k is clamped at the nilpotency index, where I^k = 0)."""
        return frozenset(self.ideal_power_list(k))

    def ideal_power_list(self, k: int) -> list:
        """The elements of I^k in sorted order, built on first use."""
        if self._ideal_power_lists is None:
            self._ensure_ideal_powers()
        k = min(k, self.radical_nilpotency)
        if k not in self._ideal_power_lists:
            self._ideal_power_lists[k] = self._ideal_power_list(k)
        return self._ideal_power_lists[k]

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
        if self._ideal_power_lists is None:
            self._ensure_ideal_powers()
        return self._valuation(a)

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
        """Open the memo of verified inverses."""
        self._inv_table = {}

    def is_unit(self, a) -> bool:
        """In a local ring with maximal ideal I (see is_local) the units
        are exactly the elements of valuation 0."""
        return self.ideal_valuation(a) == 0

    def _verified_inv(self, a):
        """The closed-form inverse of a if both products with a give 1,
        else None."""
        try:
            b = self._inv(a)
        except ValueError:
            return None
        one = self.one()
        return b if self.mul(a, b) == one and self.mul(b, a) == one else None

    def inv(self, a):
        if self._inv_table is None:
            self._ensure_inv_table()
        b = self._inv_table.get(a)
        if b is None:
            if not self.is_unit(a):
                raise ValueError(f"{self.render(a)} is not a unit in {self.name}")
            b = self._verified_inv(a)
            if b is None:
                raise AssertionError(
                    f"inverse of {self.render(a)} in {self.name} failed to verify")
            self._inv_table[a] = b
        return b

    def is_local(self) -> bool:
        """True iff R is local with maximal ideal I: I is nilpotent and
        every nonzero residue of R/I has an inverse, verified by both
        products.  Then the non-units are exactly the elements of I."""
        if self._is_local is None:
            self._ensure_ideal_powers()
            self._is_local = all(self._verified_inv(r) is not None
                                 for r in self._unit_residues())
        return self._is_local

    def mkl_depth(self) -> int:
        """Depth at which the monomial operators vanish: M_{k,l} = 0 for
        every k >= d and every l.  The family's closed form, computed on
        first use, clamped at the radical nilpotency.  The product kernels
        cut at d, and an operator row admits n only once M_{d,n}(b) = 0 is
        checked (skewpoly._operator_rows), from the family's closed form
        (_closed_rows) or from the recursion; the mkl-oracle suite checks
        it against the word enumeration."""
        if self._family_mkl_depth is None:
            self._family_mkl_depth = self._mkl_depth()
        return min(self.radical_nilpotency, self._family_mkl_depth)

    def one_commutes_with_x(self) -> bool:
        """Whether sigma(1) = 1 and delta(1) = 0, i.e. x*1 = 1*x, computed on
        first use.  Then M_{0,l}(1) = 1 and M_{k,l}(1) = 0 for k > 0, so
        f*1 = f for every f and the class of 1 is a two-sided identity of
        S/G_N; 1*g = g holds always, since only M_{0,0} = id enters it.  The
        k0 kernels skip the products by 1 only where this holds; on
        delta=broken (delta(1) = t) it does not."""
        if self._one_commutes_with_x is None:
            one = self.one()
            self._one_commutes_with_x = (self.sigma(one) == one
                                         and self.delta(one) == self.zero())
        return self._one_commutes_with_x

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
        self._pk = [p ** k for k in range(n + 1)]
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
        return str(self._pk[min(k, self.n)])

    def _reduce(self, a, k):
        return a % self._pk[k]

    def _ideal_power_list(self, k):
        return list(range(0, self.cardinality, self._pk[k]))

    def _valuation(self, a):
        if a == 0:
            return INF
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def _inv(self, a):
        return pow(a, -1, self.cardinality)

    def _unit_residues(self):
        return list(range(1, self.p))

    def _mkl_depth(self):
        # delta = 0, so every word with a delta letter is zero
        return 1

    def _closed_rows(self, d, b, built, top):
        """sigma = id and delta = 0, so M_{0,n}(b) = b and M_{k,n}(b) = 0 for
        k >= 1: every row of b is ((0, b),), and M_{d,n}(b) = 0 at every
        depth d >= 1.  A subclass may redefine sigma or delta, so only the
        family itself takes this form."""
        if type(self) is not ZmodRing:
            return None
        return (((0, b),) if b else (),) * (top - built)


class TruncPolyRing(RingContext):
    """F_q[t]/(t^m) with radical (t), q-twist sigma(f)(t) = f(c*t) and the
    inner derivation delta(f) = t*(sigma(f) - f).

    delta_mode selects the derivation: "qtwist" (default), "zero", or
    "broken" (delta(f) = t*f, which violates the Leibniz rule and exists
    only so the failure paths of the checkers can be driven end to end).

    add, mul, neg and sigma answer a repeated call from a memo per context,
    keyed by the argument, or by the pair (a, b) for a binary operation;
    elements are the hashable tuples the ring hands out.  The formulas
    behind them (_add, _mul, _neg, _sigma) are pure, so a hit returns what
    the formula would.  delta has no memo: on the q-twist it is one closed
    formula, delta(sum a_i t^i) = sum (c^i - 1) a_i t^(i+1), which equals
    t*(sigma(f) - f) composed of the operations.  A stored value, and
    delta's value, is the one object the element table _elems holds for
    it, so equal values share one tuple: the table is there to save memory
    (see MEMO_CAP), not to speed up lookups.  Each memo and _elems hold at
    most MEMO_CAP entries.  Threads share the memos without a lock:
    concurrent misses store equal values, and setdefault keeps one object
    per element.  Nothing enumerates R.
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
        self._zero = (0,) * m
        self._one = (1 % q,) + (0,) * (m - 1)
        self._cpow = [pow(c, i, q) for i in range(m)]
        # e_i = c^i - 1 for i < m - 1: delta(t^i) = e_i t^(i+1) on the
        # q-twist, and t^m = 0
        self._delta_scale = [(x - 1) % q for x in self._cpow[:-1]]
        # one byte per t-coefficient holds every coefficient of a product
        # below t^m, at most m*(q-1)^2, when that is at most 255 (see _mul)
        if m * (q - 1) ** 2 <= 255:
            self._byte_residues = bytes(i % q for i in range(256))
            self._low_bytes = (1 << 8 * m) - 1
        else:
            self._byte_residues = self._low_bytes = None
        self._elems = {}     # element -> the one object the memos hold for it
        self._add_memo, self._mul_memo = {}, {}
        self._neg_memo, self._sigma_memo = {}, {}
        self._weights = {}   # depth d -> the weights of _closed_rows
        super().__init__()

    def elements(self):
        return itertools.product(range(self.q), repeat=self.m)

    # -- the memo --------------------------------------------------------

    def add(self, a, b):
        value = self._add_memo.get((a, b))
        if value is None:
            value = self._store(self._add_memo, (a, b), self._add(a, b))
        return value

    def mul(self, a, b):
        value = self._mul_memo.get((a, b))
        if value is None:
            value = self._store(self._mul_memo, (a, b), self._mul(a, b))
        return value

    def neg(self, a):
        value = self._neg_memo.get(a)
        if value is None:
            value = self._store(self._neg_memo, a, self._neg(a))
        return value

    def sigma(self, a):
        value = self._sigma_memo.get(a)
        if value is None:
            value = self._store(self._sigma_memo, a, self._sigma(a))
        return value

    def _store(self, memo, key, value):
        """Store the element table's object for value under key while memo
        has room, and return it; the object is entered in the table on
        first sight while the table has room, and a value new to a full
        table is returned as it is and not stored."""
        elems = self._elems
        kept = elems.get(value)
        if kept is None:
            if len(elems) >= MEMO_CAP:
                return value
            kept = elems.setdefault(value, value)
        if len(memo) < MEMO_CAP:
            memo[key] = kept
        return kept

    def _interned(self, a):
        """The one object the element table holds for a, entered on first
        sight while the table has room; None if a is new to a full
        table."""
        elems = self._elems
        kept = elems.get(a)
        if kept is None and len(elems) < MEMO_CAP:
            kept = elems.setdefault(a, a)
        return kept

    # -- the formulas behind the memo -------------------------------------

    def _add(self, a, b):
        q = self.q
        return tuple([(x + y) % q for x, y in zip(a, b)])

    def _neg(self, a):
        q = self.q
        return tuple([-x % q for x in a])

    def _mul(self, a, b):
        """The product by Kronecker substitution t -> 256 where one byte
        per coefficient cannot carry, else by _schoolbook_mul.

        Each factor is read as one int whose byte i is its t^i
        coefficient, and the two are multiplied once.  Byte k < m of the
        product is then sum_{i+j=k} a_i b_j, at most m*(q-1)^2 <= 255 (the
        bound __init__ checks), so no lower byte carries into it; the
        bytes from m up may carry, but only upward, and are dropped.  A
        256-entry table reduces each kept byte mod q."""
        residues = self._byte_residues
        if residues is None:
            return self._schoolbook_mul(a, b)
        packed = (int.from_bytes(bytes(a), "little")
                  * int.from_bytes(bytes(b), "little")) & self._low_bytes
        return tuple(packed.to_bytes(self.m, "little").translate(residues))

    def _schoolbook_mul(self, a, b):
        """The product coefficient by coefficient: the formula of every
        context past _mul's packing bound, and its test oracle."""
        out = [0] * self.m
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j in range(self.m - i):
                y = b[j]
                if y:
                    out[i + j] = (out[i + j] + x * y) % self.q
        return tuple(out)

    def _sigma(self, a):
        q = self.q
        return tuple([x * s % q for x, s in zip(a, self._cpow)])

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def _shift(self, a):
        # multiplication by t
        return (0,) + a[:-1]

    def delta(self, a):
        # no memo of its own: on the q-twist t*(sigma(a) - a) is the closed
        # formula sum e_i a_i t^(i+1), e_i = c^i - 1, which calls no other
        # operation
        if self.delta_mode == "zero":
            return self.zero()
        if self.delta_mode == "broken":
            return self._shift(a)
        q = self.q
        value = (0,) + tuple([x * e % q for x, e in zip(a, self._delta_scale)])
        return self._interned(value) or value

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

    def _ideal_power_list(self, k):
        head = (0,) * k
        return [head + tail
                for tail in itertools.product(range(self.q), repeat=self.m - k)]

    def _valuation(self, a):
        for i, x in enumerate(a):
            if x:
                return i
        return INF

    def _inv(self, a):
        # a = a0*(1 - w) with w in I, so a^-1 = a0^-1 * (1 + w + ... + w^(m-1)),
        # computed coefficient by coefficient as the power series inverse
        u = pow(a[0], -1, self.q)
        b = [u]
        for k in range(1, self.m):
            b.append(-u * sum(a[j] * b[k - j] for j in range(1, k + 1)) % self.q)
        return tuple(b)

    def _unit_residues(self):
        return [self.from_int(c) for c in range(1, self.q)]

    def _mkl_depth(self):
        if self.delta_mode == "zero":
            return 1
        if self.delta_mode == "broken":
            return self.m
        # delta(t^i) = (c^i - 1) t^(i+1) and sigma scales t^i by c^i, so a word
        # with k delta letters sends t^i to a multiple of
        # prod_{i <= j < i+k} (c^j - 1) * t^(i+k).  That is zero once i + k >= m
        # or the k consecutive j hit a multiple of ord(c) (j = 0 included),
        # and delta^(d-1)(t) != 0 for the d below.
        return max(1, min(self._twist_order(), self.m - 1))

    def _twist_order(self):
        """r = ord_q(c), the least r >= 1 with c^r = 1."""
        order = 1
        while pow(self.c, order, self.q) != 1:
            order += 1
        return order

    def _closed_rows(self, d, b, built, top):
        """The operator rows of b from one weight vector per (k, n mod r),
        r = ord_q(c), on the q-twist and on delta=zero; None on
        delta=broken and on a subclass, which may redefine sigma or delta.

        sigma(t^i) = s_i t^i with s_i = c^i, and delta(t^i) = e_i t^(i+1)
        with e_i = c^i - 1 (every e_i = 0 on delta=zero); both are
        F_q-linear, and so is every M_{k,l}.  A word with k delta letters
        and l sigma letters sends t^i to a multiple of t^(i+k): its delta
        letters meet the degrees i, ..., i+k-1 in turn, each scaling by e_j,
        and each sigma letter scales by the s_j of the degree j it meets.
        Summed over the words,

            M_{k,l}(t^i) = w_{k,l}(i) t^(i+k),
            w_{k,l}(i) = e_i ... e_(i+k-1) h_l(s_i, ..., s_(i+k)),

        h_l the complete homogeneous symmetric polynomial, and zero once
        i + k >= m.  For s_j = c^j that is c^(il) times the Gaussian binomial
        [k+l choose k]_c.  The weights follow the recursion of M,
        w_{k,l}(i) = e_(i+k-1) w_{k-1,l}(i) + s_(i+k) w_{k,l-1}(i) with
        w_{0,0} = 1, which is how _operator_weights computes them.

        They have period r in l.  If k < r, the k + 1 values s_i .. s_(i+k)
        are distinct roots of z^r = 1, so the partial fractions of
        sum_l h_l z^l = prod_j 1/(1 - s_(i+j) z) give h_l = sum_j A_j
        s_(i+j)^l with constants A_j, and s^(l+r) = s^l.  If k >= r, the k
        consecutive j from i to i+k-1 include a multiple of r, where
        e_j = c^j - 1 = 0, so w_{k,l} = 0.  Hence M_{k,n}(b) is b shifted by
        k and scaled coefficient by coefficient by w_{k,n mod r}, and b has
        at most r distinct rows, which the returned tuple repeats.  The
        weights at k = d give M_{d,n}(b), so the depth cut is checked for b
        and every n: a nonzero value raises _depth_cut_error.  Every value
        is the element table's object for it (_interned), so the rows share
        their tuples with the operation memos."""
        if self.delta_mode == "broken" or type(self) is not TruncPolyRing:
            return None
        weights = self._weights.get(d)
        if weights is None:
            weights = self._weights[d] = self._operator_weights(d)
        q, r = self.q, len(weights)
        distinct = []
        for n in range(built, min(top, built + r)):
            below, at_depth = weights[n % r]
            if at_depth and any(x * w % q for x, w in zip(b, at_depth)):
                raise _depth_cut_error(self, d, n, b)
            row = []
            for k, ws in enumerate(below):
                scaled = [x * w % q for x, w in zip(b, ws)]
                if any(scaled):
                    v = (0,) * k + tuple(scaled)
                    row.append((k, self._interned(v) or v))
            distinct.append(tuple(row))
        # rows n and n + r are the same object
        count = top - built
        return (tuple(distinct) * -(-count // len(distinct)))[:count]

    def _operator_weights(self, d):
        """weights[l] = (below, at_depth) for l < ord_q(c): below[k][i] =
        w_{k,l}(i) for k < d and i < m - k (see _closed_rows), and at_depth
        the same vector at k = d, or () where it is zero."""
        q, m, s = self.q, self.m, self._cpow
        e = [0] * m if self.delta_mode == "zero" else self._delta_scale
        weights, prev = [], None
        for l in range(self._twist_order()):
            cur = []
            for k in range(d + 1):
                cur.append(tuple(
                    (int(k == l == 0)
                     + (e[i + k - 1] * cur[k - 1][i] if k else 0)
                     + (s[i + k] * prev[k][i] if l else 0)) % q
                    for i in range(m - k)))
            weights.append((tuple(cur[:d]), cur[d] if any(cur[d]) else ()))
            prev = cur
        return tuple(weights)


def _depth_cut_error(ctx: RingContext, d: int, n: int, b) -> AssertionError:
    """The error of an operator row whose skipped term M_{d,n}(b) is
    nonzero: the depth d is wrong for this context."""
    return AssertionError(f"sigma-nilpotence bound violated: M_{{{d},{n}}}"
                          f"({ctx.render(b)}) != 0")


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
        if len(parts) > 2:
            raise ValueError(f"invalid zmod modifier {parts[2]!r}")
        return ZmodRing(int(match.group(1)), int(match.group(2)))
    if head == "truncpoly":
        if len(parts) < 4 or not parts[3].startswith("c="):
            raise ValueError(
                f"invalid truncpoly preset {text!r}: expected truncpoly:<q>:<m>:c=<unit>")
        try:
            q, m, c = int(parts[1]), int(parts[2]), int(parts[3][2:])
        except ValueError:
            raise ValueError(f"invalid truncpoly preset {text!r}")
        if len(parts) > 5:
            raise ValueError(f"invalid truncpoly preset {text!r}: at most one modifier")
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


def _exhaustive(ctx: RingContext, arity: int) -> bool:
    return ctx.cardinality ** arity <= EXHAUSTIVE_TUPLE_LIMIT


def _tuple_stream(ctx: RingContext, arity: int, samples: int, rng: random.Random):
    """All tuples when the space is small, else seeded random tuples."""
    if _exhaustive(ctx, arity):
        return itertools.product(sorted(ctx.elements()), repeat=arity)

    def gen():
        for _ in range(samples):
            yield tuple(ctx.sample(rng) for _ in range(arity))

    return gen()


def _op_tables(ctx: RingContext, elems: list, unary=(), binary=()):
    """Index tables of ctx's operations over its sorted carrier ``elems``.

    Each named operation is called once per argument, through the instance,
    and each value is stored as its position in ``elems``: T[i] for a unary
    operation applied to elems[i], T[i][j] for a binary one applied to
    (elems[i], elems[j]).  Payloads are canonical, so equal positions mean
    equal values, and a law is then checked on every tuple by list lookups.
    Returns (tables by name, None), or (None, counterexample) naming the
    first operation and arguments whose value is not in the carrier."""
    index = {a: i for i, a in enumerate(elems)}
    tables = {}
    for name in unary + binary:
        f = getattr(ctx, name)
        try:
            if name in unary:
                tables[name] = [index[f(a)] for a in elems]
            else:
                tables[name] = [[index[f(a, b)] for b in elems] for a in elems]
        except KeyError:
            arity = 1 if name in unary else 2
            for args in itertools.product(elems, repeat=arity):
                if f(*args) not in index:
                    shown = ", ".join(map(ctx.render, args))
                    return None, f"{name}({shown}) leaves the carrier"
            raise
    return tables, None


def _ring_law_failure(add, mul, a, b, c):
    """The first ring law that fails at (a, b, c), or None."""
    if add(add(a, b), c) != add(a, add(b, c)):
        return "additive associativity"
    if add(a, b) != add(b, a):
        return "additive commutativity"
    if mul(mul(a, b), c) != mul(a, mul(b, c)):
        return "multiplicative associativity"
    if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
        return "left distributivity"
    if mul(add(a, b), c) != add(mul(a, c), mul(b, c)):
        return "right distributivity"
    return None


def _ring_triples_by_table(ctx: RingContext, checked: int):
    """Every triple of the carrier against _ring_law_failure, over add and
    mul tables.  For each (a, b) the laws are first compared for all c at
    once, row against row; only a pair with a failing row is walked c by c,
    so ``checked`` and the counterexample are those of the plain loop.
    Returns (checked, counterexample or None)."""
    elems = sorted(ctx.elements())
    tables, cex = _op_tables(ctx, elems, binary=("add", "mul"))
    if cex:
        return checked, cex
    A, M = tables["add"], tables["mul"]
    n = len(elems)

    def add(i, j):
        return A[i][j]

    def mul(i, j):
        return M[i][j]

    for i in range(n):
        Ai, Mi = A[i], M[i]
        for j in range(n):
            Aj, Mj = A[j], M[j]
            Aij, Mij = Ai[j], Mi[j]
            AMij = A[Mij]
            if (A[Aij] == [Ai[x] for x in Aj]
                    and Aij == Aj[i]
                    and M[Mij] == [Mi[x] for x in Mj]
                    and [Mi[x] for x in Aj] == [AMij[y] for y in Mi]
                    and M[Aij] == [A[x][y] for x, y in zip(Mi, Mj)]):
                checked += n
                continue
            for k in range(n):
                checked += 1
                law = _ring_law_failure(add, mul, i, j, k)
                if law:
                    return checked, _triple_cex(ctx, law, elems[i], elems[j], elems[k])
    return checked, None


def _triple_cex(ctx, law, a, b, c):
    return (f"{law} fails at a={ctx.render(a)}, b={ctx.render(b)}, "
            f"c={ctx.render(c)}")


def ring_axiom_check(ctx: RingContext, samples: int,
                     seed: int) -> tuple[int, str | None, dict]:
    """Verify the ring axioms on every sampled (or enumerated) element and
    triple.

    The single-element laws call the ring's operations directly.  When the
    triples are enumerated (|R|^3 <= EXHAUSTIVE_TUPLE_LIMIT) that phase costs
    2|R|^2 operation calls, for the add and mul tables (see _op_tables),
    plus list lookups for the |R|^3 triples; a sum or product outside the
    carrier is reported as a closure failure.  Sampled triples call the
    operations directly."""
    rng = random.Random(seed)
    zero, one = ctx.zero(), ctx.one()
    checked = 0
    cex = None

    singles = _tuple_stream(ctx, 1, samples, rng)
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

    exhaustive = _exhaustive(ctx, 3)
    if cex is None and exhaustive:
        checked, cex = _ring_triples_by_table(ctx, checked)
    elif cex is None:
        triples = _tuple_stream(ctx, 3, samples, rng)
        add, mul = ctx.add, ctx.mul
        for a, b, c in triples:
            checked += 1
            law = _ring_law_failure(add, mul, a, b, c)
            if law:
                cex = _triple_cex(ctx, law, a, b, c)
                break

    return checked, cex, {"mode": "exhaustive" if exhaustive else "sampled"}


def _sigma_law_failure(add, mul, sigma, delta, a, b):
    """The first structure-map law that fails at (a, b), or None."""
    if sigma(add(a, b)) != add(sigma(a), sigma(b)):
        return "sigma additivity"
    if sigma(mul(a, b)) != mul(sigma(a), sigma(b)):
        return "sigma multiplicativity"
    if delta(add(a, b)) != add(delta(a), delta(b)):
        return "delta additivity"
    if delta(mul(a, b)) != add(mul(sigma(a), delta(b)), mul(delta(a), b)):
        return "sigma-Leibniz rule"
    return None


def _sigma_pairs_by_table(ctx: RingContext, checked: int):
    """Every pair of the carrier against _sigma_law_failure, over sigma,
    delta, add and mul tables; for each a the laws are first compared for
    all b at once, as in _ring_triples_by_table.  Returns (checked,
    counterexample or None)."""
    elems = sorted(ctx.elements())
    tables, cex = _op_tables(ctx, elems, unary=("sigma", "delta"),
                             binary=("add", "mul"))
    if cex:
        return checked, cex
    S, D, A, M = (tables[name] for name in ("sigma", "delta", "add", "mul"))
    n = len(elems)

    def add(i, j):
        return A[i][j]

    def mul(i, j):
        return M[i][j]

    for i in range(n):
        Ai, Mi = A[i], M[i]
        ASi, ADi = A[S[i]], A[D[i]]
        MSi, MDi = M[S[i]], M[D[i]]
        if ([S[x] for x in Ai] == [ASi[y] for y in S]
                and [S[x] for x in Mi] == [MSi[y] for y in S]
                and [D[x] for x in Ai] == [ADi[y] for y in D]
                and [D[x] for x in Mi] == [A[MSi[d]][y] for d, y in zip(D, MDi)]):
            checked += n
            continue
        for j in range(n):
            checked += 1
            law = _sigma_law_failure(add, mul, S.__getitem__, D.__getitem__, i, j)
            if law:
                return checked, _pair_cex(ctx, law, elems[i], elems[j])
    return checked, None


def _pair_cex(ctx, law, a, b):
    return f"{law} fails at a={ctx.render(a)}, b={ctx.render(b)}"


def sigma_derivation_check(ctx: RingContext, samples: int,
                           seed: int) -> tuple[int, str | None, dict]:
    """Verify that sigma is a ring endomorphism preserving I and that delta
    is an additive map obeying the sigma-Leibniz rule with delta(R) <= I and
    delta(I) <= I^2.

    The single-element and radical containments call sigma and delta
    directly.  When the pairs are enumerated (|R|^2 <=
    EXHAUSTIVE_TUPLE_LIMIT) that phase costs 2|R| + 2|R|^2 operation calls,
    for the sigma, delta, add and mul tables (see _op_tables), plus list
    lookups for the |R|^2 pairs; a value outside the carrier is reported as
    a closure failure.  Sampled pairs call the operations directly."""
    rng = random.Random(seed)
    one = ctx.one()
    radical = ctx.ideal_power(1)
    radical_sq = ctx.ideal_power(2)
    checked = 0
    cex = None

    if ctx.sigma(one) != one:
        cex = "sigma(1) != 1"

    singles = _tuple_stream(ctx, 1, samples, rng)
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

    exhaustive = _exhaustive(ctx, 2)
    if cex is None and exhaustive:
        checked, cex = _sigma_pairs_by_table(ctx, checked)
    elif cex is None:
        pairs = _tuple_stream(ctx, 2, samples, rng)
        ops = (ctx.add, ctx.mul, ctx.sigma, ctx.delta)
        for a, b in pairs:
            checked += 1
            law = _sigma_law_failure(*ops, a, b)
            if law:
                cex = _pair_cex(ctx, law, a, b)
                break

    return checked, cex, {"mode": "exhaustive" if exhaustive else "sampled",
                          "sigma_radical_onto": ctx.sigma_radical_onto()}


# The largest --word-limit the nilbound command accepts.  The search costs
# one pass over the carrier per distinct image in each of word_limit
# layers.  A carrier small enough to enumerate (|R| <= 2^16, and each step
# of R > I > ... > I^nil = 0 at least halves it) has nilpotency at most 16,
# and on the shipped presets the bound stops changing once the word limit
# passes the nilpotency (tests/test_rings.py checks that the bound at this
# limit is the bound at nilpotency + 2).
NILBOUND_WORD_LIMIT = 64


def sigma_nilpotence_bound(ctx: RingContext, n: int, word_limit: int = 6):
    """Least m <= word_limit such that every composite word in delta, sigma
    with at least m delta factors (and total length <= word_limit) maps the
    whole carrier into I^n.  Returns None when no such m exists within the
    word-length budget.

    A word acts on the carrier through its image tuple, and the answer is
    1 + the largest delta count of a word that leaves I^n, so the search
    keeps, per distinct image reached by the words of each length, only
    the largest delta count of those words, and extends every image by one
    more letter per layer; the two one-letter moves out of an image are
    computed once.  Each distinct image is hashed once, when it is first
    reached, and numbered; the layers carry the numbers.  The answer is
    that of the exhaustive word enumeration, so a returned bound is a
    verified one.
    """
    if n < 1:
        raise ValueError("target power must be >= 1")
    if word_limit < 1:
        raise ValueError("word limit must be >= 1")
    worst = 0    # the largest delta count of a word that leaves I^n
    images = [tuple(sorted(ctx.elements()))]   # number -> image
    numbers = {images[0]: 0}                    # image -> number
    moves = {}   # number -> [(number after one more letter, its delta count, leaves I^n)]
    layer = {0: 0}   # number -> largest delta count
    for _ in range(word_limit):
        nxt = {}
        for i, count in layer.items():
            if i not in moves:
                moves[i] = []
                for fn, dk in ((ctx.delta, 1), (ctx.sigma, 0)):
                    img = tuple(map(fn, images[i]))
                    j = numbers.setdefault(img, len(images))
                    if j == len(images):
                        images.append(img)
                    leaves = any(ctx.ideal_valuation(x) < n for x in img)
                    moves[i].append((j, dk, leaves))
            for j, dk, leaves in moves[i]:
                reached = count + dk
                nxt[j] = max(nxt.get(j, 0), reached)
                if leaves:
                    worst = max(worst, reached)
        layer = nxt
    return worst + 1 if worst < word_limit else None
