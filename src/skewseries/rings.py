"""Finite local coefficient rings with twist and derivation structure.

A :class:`RingContext` bundles exact arithmetic on a small finite ring R
with the extra data used by the skew polynomial and twisted power series
layers: generators of a nilpotent two-sided ideal I (the Jacobson radical
for the shipped presets), a ring endomorphism sigma with sigma(I) <= I and
a sigma-derivation delta satisfying delta(R) <= I and delta(I) <= I^2.
Each preset family knows its ideal-theoretic structure (powers of I and
their sizes, valuations, canonical residues mod I^k, inverses of units,
and the depth at which the monomial operators M_{k,l} of sigma and delta
vanish) in closed form, so nothing here enumerates R: I^k is listed
only when a caller asks for it and is not kept, every inverse is verified
by both products before it is used, and the test suite checks each closed
form against exhaustive enumeration on small presets.  The methods that
list R or I^k (elements, ideal_power_list, ideal_power) and the two check
hooks, _table_rows, the add and mul tables from the families' formulas,
and _column_sums, the sums of whole columns of elements, serve the checks
of :mod:`skewseries.suites`, which budget every walk.
All answers are exact.

Preset grammar (also accepted by the command line front end):

    zmod:<p>^<n>              Z/p^n with I = (p), sigma = id, delta = 0,
                              p a prime below 2^32 and p^n at most 2^64
    truncpoly:<q>:<m>:c=<u>   F_q[t]/(t^m), q a prime at most 251, with
                              I = (t), sigma(f)(t) = f(u*t) and
                              delta(f) = t*(sigma(f) - f)
    ...:delta=zero            force delta = 0 on a truncpoly preset
    ...:delta=broken          deliberately non-Leibniz delta(f) = t*f, kept
                              for exercising the failure paths of the
                              structure-map checkers

A truncpoly preset takes at most one modifier.

Elements are plain payloads: ints for zmod presets, and for truncpoly
presets ``bytes`` of length m, one coefficient per byte (low degree
first).  Payloads are canonical, so ``==`` is semantic equality.
"""

from __future__ import annotations

import itertools
import random
import re

INF = float("inf")

# Each operation memo of a TruncPolyRing (add and mul), and its element
# table, holds at most this many entries: an exhaustive pair table at
# |R| = 256.  An entry takes about 95 bytes, so a full memo takes about
# 6.2 MB.  The element table saves memory, not lookup time: a cold dense
# truncpoly:3:6:c=2 product in S/G_256 peaks at 7.01 MB under tracemalloc
# with it and 9.77 MB without it.
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


def _residue_tables(q: int) -> tuple[bytes, bytes]:
    """The translate tables i -> i % q and i -> -i % q over every byte value
    i, each built by repeating one period of q bytes."""
    repeats = 256 // q + 1
    return ((bytes(range(q)) * repeats)[:256],
            ((b"\0" + bytes(range(q - 1, 0, -1))) * repeats)[:256])


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
        self._ideal_powers_checked = False
        # j -> ideal_power_gens(j), for j >= 1
        self._ideal_power_gens = {}
        self._inv_table = None
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

    def ideal_power_size(self, k: int) -> int:
        """|I^k| (|R| at k = 0, 1 once k reaches the nilpotency)."""
        raise NotImplementedError

    def _valuation(self, a):
        """Largest k with a in I^k; INF for a = 0."""
        raise NotImplementedError

    def _inv(self, a):
        """Candidate inverse of a unit a."""
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

    def _table_rows(self, name: str, elems):
        """The index table of the binary operation ``name`` ("add" or "mul")
        over the sorted carrier ``elems``, from the family's own formulas:
        row i is ``bytes``, its byte j the position in elems of
        name(elems[i], elems[j]).  None where the family has none, for any
        other name, past 256 elements and on a subclass, which may redefine
        the operation: the checks then call the operation once per pair
        (suites._op_tables), and that per-pair table is the oracle of this
        one."""
        return None

    def _column_sums(self, columns: list):
        """The sums of a nonempty list of equally long columns of elements
        (iterables, each read once), position by position: a list whose
        i-th entry is the sum of the i-th elements, from the family's own
        formula.  None on a subclass, which may redefine add, and where the
        family has none: the checks then fold ctx.add over each position
        (suites.monomial_operator_word_sums), and that fold is the oracle
        of this one."""
        return None

    # -- derived structure ------------------------------------------------

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _ensure_ideal_powers(self):
        """Check once that I^nil = 0 != I^(nil-1).  Both families are
        commutative, so I^k = 0 exactly when every product of k radical
        generators vanishes."""
        if self._ideal_powers_checked:
            return
        nil = self.radical_nilpotency
        zero = self.zero()
        if any(w != zero for w in self.ideal_power_gens(nil)):
            raise ValueError(f"{self.name}: I^{nil} does not vanish")
        if all(w == zero for w in self.ideal_power_gens(nil - 1)):
            raise ValueError(f"{self.name}: I^{nil - 1} already vanishes")
        self._ideal_powers_checked = True

    def ideal_power(self, k: int) -> frozenset:
        """The set I^k (k is clamped at the nilpotency index, where I^k = 0)."""
        return frozenset(self.ideal_power_list(k))

    def ideal_power_list(self, k: int) -> list:
        """The elements of I^k in sorted order, built afresh on each call:
        each caller reads the list once."""
        if not self._ideal_powers_checked:
            self._ensure_ideal_powers()
        return self._ideal_power_list(min(k, self.radical_nilpotency))

    def sample_ideal_power(self, k: int, rng: random.Random):
        """The element of I^k that rng.choice(self.ideal_power_list(k))
        draws, from one rng.randrange(|I^k|) and the family's closed form
        of element r of that list (_ideal_power_element): both draw one
        _randbelow(|I^k|), so rng ends in the same state."""
        if not self._ideal_powers_checked:
            self._ensure_ideal_powers()
        k = min(k, self.radical_nilpotency)
        return self._ideal_power_element(k, rng.randrange(self.ideal_power_size(k)))

    def ideal_power_gens(self, k: int) -> tuple:
        """Products of k radical generators (a generating set of I^k), in
        sorted order.  Those of I^j are those of I^(j-1) times each
        generator on the right, one mul per pair, and each level is kept per
        context: with one generator, reading k = 0 ... m-1 costs m - 1 muls."""
        level = (self.one(),)
        for j in range(1, k + 1):
            known = self._ideal_power_gens.get(j)
            if known is None:
                known = self._ideal_power_gens.setdefault(j, tuple(sorted(
                    {self.mul(p, g) for p in level for g in self.radical_gens})))
            level = known
        return level

    def ideal_valuation(self, a):
        """Largest k with a in I^k; INF exactly for a = 0."""
        if not self._ideal_powers_checked:
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

    def inv(self, a):
        """The closed-form inverse of the unit a, memoized once both
        products with a give 1."""
        if self._inv_table is None:
            self._ensure_inv_table()
        b = self._inv_table.get(a)
        if b is None:
            if not self.is_unit(a):
                raise ValueError(f"{self.render(a)} is not a unit in {self.name}")
            b = self._inv(a)
            one = self.one()
            if self.mul(a, b) != one or self.mul(b, a) != one:
                raise AssertionError(
                    f"inverse of {self.render(a)} in {self.name} failed to verify")
            self._inv_table[a] = b
        return b

    def is_local(self) -> bool:
        """True iff R is local with maximal ideal I, so that the non-units
        are exactly the elements of I.  In both families R/I is a prime
        field (F_p for zmod, F_q for truncpoly; each constructor checks the
        prime), so R is local once I is checked nilpotent.  A family whose
        R/I is not a field overrides this."""
        self._ensure_ideal_powers()
        return True

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
        k0 kernels skip the products by 1, and the product kernel adds a
        right factor or right coefficient 1 with no multiplication and no
        operator row, only where this holds; on delta=broken (delta(1) = t)
        it does not."""
        if self._one_commutes_with_x is None:
            one = self.one()
            self._one_commutes_with_x = (self.sigma(one) == one
                                         and self.delta(one) == self.zero())
        return self._one_commutes_with_x

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

    def _ideal_power_element(self, k, r):
        return r * self._pk[k]

    def ideal_power_size(self, k):
        return self._pk[self.n - min(k, self.n)]

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

    def _table_rows(self, name, elems):
        """The sorted carrier is range(n), so a position is its value: the
        add row of a is range(n) rotated by a, and the mul row of a, the
        values a*b mod n, is every a-th byte of a copies of range(n)."""
        n = self.cardinality
        if type(self) is not ZmodRing or n > 256 or name not in ("add", "mul"):
            return None
        every = bytes(range(n))
        if name == "add":
            return [every[a:] + every[:a] for a in range(n)]
        return [(every * a)[::a] if a else bytes(n) for a in range(n)]

    def _column_sums(self, columns):
        """One int sum mod p^n per position, across the columns."""
        if type(self) is not ZmodRing:
            return None
        return list(map(self.cardinality.__rmod__, map(sum, zip(*columns))))


class TruncPolyRing(RingContext):
    """F_q[t]/(t^m) with radical (t), q-twist sigma(f)(t) = f(c*t) and the
    inner derivation delta(f) = t*(sigma(f) - f).

    delta_mode selects the derivation: "qtwist" (default), "zero", or
    "broken" (delta(f) = t*f, which violates the Leibniz rule and exists
    only so the failure paths of the checkers can be driven end to end).

    An element is ``bytes`` of length m whose byte i is its t^i
    coefficient: it caches its hash, compares by memcmp, and is already
    the packed form of the formulas below, so q is at most 251, the
    largest prime below 256.

    add and mul, the two operations the product kernel calls, answer a
    repeated call from a memo per context, keyed by the pair (a, b) of the
    elements the ring hands out; the formulas behind them (_add, _mul) are
    pure, so a hit returns what the formula would.  neg, sigma and delta
    are formulas that store nothing (memos for neg and sigma measured
    within noise on every benchmark workload); neg is one translate, and
    on the q-twist delta(sum a_i t^i) = sum (c^i - 1) a_i t^(i+1), which
    equals t*(sigma(f) - f).  A stored value, and each value of a closed
    operator row, is the one object the element table _elems holds for
    it, so equal values share one bytes object: the table saves memory
    (see MEMO_CAP), not lookup time.  Each memo and _elems hold at most
    MEMO_CAP entries.
    Threads share the memos without a lock: concurrent misses store equal
    values, and setdefault keeps one object per element.  Nothing
    enumerates R.
    """

    def __init__(self, q: int, m: int, c: int, delta_mode: str = "qtwist"):
        if q > 251:
            raise ValueError(f"truncpoly characteristic {q} exceeds 251: an "
                             f"element holds one coefficient per byte")
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
        gen = bytearray(m)
        if m > 1:
            gen[1] = 1
        self.radical_gens = (bytes(gen),)
        self._zero = bytes(m)
        self._one = self.from_int(1)
        self._cpow = [pow(c, i, q) for i in range(m)]
        # e_i = c^i - 1 for i < m - 1: delta(t^i) = e_i t^(i+1) on the
        # q-twist, and t^m = 0
        self._delta_scale = [(x - 1) % q for x in self._cpow[:-1]]
        # each translate table covers every byte value, so a byte >= q is
        # read as its residue; one byte per t-coefficient holds the sum of
        # two coefficients, at most 2(q-1), when that is at most 255 (see
        # _add), and every coefficient of a product below t^m, at most
        # m*(q-1)^2, when that is at most 255 (see _mul)
        residues, self._negated = _residue_tables(q)
        self._sum_residues = residues if 2 * (q - 1) <= 255 else None
        if m * (q - 1) ** 2 <= 255:
            self._byte_residues = residues
            self._low_bytes = (1 << 8 * m) - 1
        else:
            self._byte_residues = self._low_bytes = None
        self._elems = {}     # element -> the one object the memos hold for it
        self._add_memo, self._mul_memo = {}, {}
        self._weights = {}   # depth d -> the weights of _closed_rows
        super().__init__()

    def elements(self):
        return map(bytes, itertools.product(range(self.q), repeat=self.m))

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
        """The sum as one int add of the two packed factors where one byte
        per coefficient cannot carry (2(q-1) <= 255, the bound __init__
        checks), else coefficient by coefficient.  A 256-entry table
        reduces each byte mod q; the packed sum is the elementwise one
        wherever no byte sum passes 255, as on canonical arguments and on
        any bytes below 128.  Both ways are bytewise and keep the length
        of a, so on a and b each the concatenation of equally many
        elements it returns the concatenated sums: _table_rows builds a
        whole add row with one call."""
        residues = self._sum_residues
        if residues is None:
            q = self.q
            return bytes([(x + y) % q for x, y in zip(a, b)])
        return (int.from_bytes(a, "little") + int.from_bytes(b, "little")
                ).to_bytes(len(a), "little").translate(residues)

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
        packed = (int.from_bytes(a, "little")
                  * int.from_bytes(b, "little")) & self._low_bytes
        return packed.to_bytes(self.m, "little").translate(residues)

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
        return bytes(out)

    def _table_rows(self, name, elems):
        """The add row of a is one _add of a repeated |R| times and the
        concatenated carrier.  Within _mul's byte bound the mul row of a is
        one product, _mul's Kronecker substitution over the whole carrier:
        a times the carrier packed in zero-padded slots of 2m - 1 bytes.
        Each byte of a slot is a coefficient of the full product of a with
        one element, at most m*(q-1)^2 <= 255, so no byte carries and no
        product reaches the next slot; the low m bytes of each slot are its
        product mod t^m.  Past the bound the mul row calls _mul once per
        pair.  Both call the formulas behind add and mul without their
        memos, so the checks that read these rows check the formulas the
        memos serve.  Each value becomes its position in the sorted carrier
        from its base-q digits, byte 0 the most significant: digit slice i
        of the values (the values ``stride`` bytes apart), translated by
        x -> (x mod q)*q^(m-1-i), is read as one int, and the m ints are
        summed; each byte of the sum is a position, at most q^m - 1 <= 255,
        so no byte carries into the next."""
        n, q, m = self.cardinality, self.q, self.m
        if (type(self) is not TruncPolyRing or n > 256
                or name not in ("add", "mul")):
            return None
        scales = [bytes(x % q * q ** (m - 1 - i) for x in range(256))
                  for i in range(m)]

        def positions(values, stride):
            return sum(int.from_bytes(values[i::stride].translate(scale), "little")
                       for i, scale in enumerate(scales)).to_bytes(n, "little")

        if name == "add":
            carrier = b"".join(elems)
            return [positions(self._add(a * n, carrier), m) for a in elems]
        if self._byte_residues is None:
            mul = self._mul
            return [positions(b"".join([mul(a, b) for b in elems]), m)
                    for a in elems]
        stride = 2 * m - 1
        carrier = int.from_bytes(bytes(m - 1).join(elems), "little")
        return [positions((int.from_bytes(a, "little") * carrier
                           ).to_bytes(n * stride, "little"), stride)
                for a in elems]

    def _column_sums(self, columns):
        """One _add per column over the concatenated elements (_add is
        bytewise, so it sums whole columns at once), cut back into
        elements."""
        if type(self) is not TruncPolyRing:
            return None
        total = b"".join(columns[0])
        for column in columns[1:]:
            total = self._add(total, b"".join(column))
        m, size = self.m, len(total)
        return list(map(total.__getitem__,
                        map(slice, range(0, size, m), range(m, size + m, m))))

    def neg(self, a):
        return a.translate(self._negated)

    def sigma(self, a):
        q = self.q
        return bytes([x * s % q for x, s in zip(a, self._cpow)])

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def _shift(self, a):
        # multiplication by t
        return b"\0" + a[:-1]

    def delta(self, a):
        # on the q-twist t*(sigma(a) - a) is the closed formula
        # sum e_i a_i t^(i+1), e_i = c^i - 1, which calls no other operation
        if self.delta_mode == "zero":
            return self.zero()
        if self.delta_mode == "broken":
            return self._shift(a)
        q = self.q
        return b"\0" + bytes([x * e % q for x, e in zip(a, self._delta_scale)])

    def sample(self, rng):
        return bytes([rng.randrange(self.q) for _ in range(self.m)])

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
        return bytes([value % self.q]) + bytes(self.m - 1)

    def named_literals(self):
        return {"t": self.radical_gens[0]}

    def ideal_power_label(self, k):
        kk = min(k, self.m)
        return "t" if kk == 1 else f"t^{kk}"

    def _reduce(self, a, k):
        return a[:k] + bytes(self.m - k)

    def _ideal_power_list(self, k):
        head = bytes(k)
        return [head + bytes(tail)
                for tail in itertools.product(range(self.q), repeat=self.m - k)]

    def _ideal_power_element(self, k, r):
        # the list runs through the tails in base-q order, the coefficient
        # of t^k most significant
        digits = bytearray(self.m)
        for i in range(self.m - 1, k - 1, -1):
            r, digits[i] = divmod(r, self.q)
        return bytes(digits)

    def ideal_power_size(self, k):
        return self.q ** (self.m - min(k, self.m))

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
        return bytes(b)

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
        their bytes objects with the operation memos."""
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
                    v = bytes(k) + bytes(scaled)
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

# The largest zmod presets parse_ring_preset accepts: p < 2^32, so that
# trial division takes at most 2^16 steps, and p^n <= 2^64.
ZMOD_MAX_BASE = 1 << 32
ZMOD_MAX_CARDINALITY = 1 << 64


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
        p, n = int(match.group(1)), int(match.group(2))
        # checked before the primality test and the table of powers, whose
        # costs grow with p and with n^2
        if p >= ZMOD_MAX_BASE:
            raise ValueError(f"zmod modulus base {p} is at least 2^32")
        if p >= 2 and (n > 64 or p ** n > ZMOD_MAX_CARDINALITY):
            raise ValueError(f"zmod preset {text!r} has more than 2^64 elements")
        return ZmodRing(p, n)
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
