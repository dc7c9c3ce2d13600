"""Every check, apart from the arithmetic it checks: the property suites,
the index tables and law engine, the word oracle of M_{k,l}, the
generators only checks draw from, the nilbound search and the carrier
budgets.  Every list of R or I^k is made by _carrier.  Checks call the
names that tests and the benchmark's tracer patch (monomial_operator_apply,
poly_mul_commutation, random_idempotent, idempotent_rank) through their
modules.  A suite returns (checked, counterexample or None, details);
run_property_suite is where that becomes a CheckReport."""

from __future__ import annotations

import itertools
import math
import operator
import random

from . import k0, skewpoly
from .k0 import BaseScalars, IdempotentMatrix, SeriesScalars, mat_direct_sum
from .report import CheckReport
from .rings import RingContext
from .series import TruncatedSeries, principal_symbol, random_series
from .skewpoly import SkewPoly


# Exhaustive enumeration replaces sampling whenever the full tuple space
# of a check is at most this large: single elements up to |R| = 65536,
# pairs up to |R| = 256 and triples up to |R| = 40 (zmod:2^3, zmod:3^3 and
# truncpoly:3:3 are exhaustive for triples, zmod:3^5 and truncpoly:3:4 for
# pairs, and zmod:2^10 and truncpoly:5:4 only for single elements).
EXHAUSTIVE_TUPLE_LIMIT = 65536

# The largest carrier each full walk lists (R, or I for sigma-derivation);
# past it the command exits 2 before any work.  Measured under a 1.5 GB
# address-space cap (Python 3.11, shared 2-vCPU x86-64 host; zmod is the
# fastest family per element, truncpoly:2:m the largest in memory):
#   mkl-oracle: zmod:2^17 10 s, truncpoly:2:17 55 s; zmod:2^19 MemoryError
#   nilbound: zmod:2^22 5 s, truncpoly:2:22 34 s; truncpoly:2:23 MemoryError
#   sigma-derivation: zmod:2^23 3 s, truncpoly:2:23 61 s; zmod:2^24 MemoryError
MKL_ORACLE_CARRIER_LIMIT = 1 << 17
NILBOUND_CARRIER_LIMIT = 1 << 22
SIGMA_DERIVATION_RADICAL_LIMIT = 1 << 22


def _carrier(ctx: RingContext, k: int = 0, limit: int | None = None,
             walk: str = "") -> list:
    """The sorted elements of I^k (R for k = 0).  Past ``limit`` it raises
    ValueError, exit 2 on the command line, before building any element."""
    size = ctx.ideal_power_size(k)
    if limit is not None and size > limit:
        what = {0: "R", 1: "I"}.get(k, f"I^{k}")
        raise ValueError(f"{walk} lists {what} of {ctx.name}, {size} "
                         f"elements, past its budget of {limit}")
    return ctx.ideal_power_list(k) if k else sorted(ctx.elements())


def _exhaustive(ctx: RingContext, arity: int) -> bool:
    return ctx.cardinality ** arity <= EXHAUSTIVE_TUPLE_LIMIT


def _tuple_stream(ctx: RingContext, arity: int, samples: int, rng: random.Random):
    """All tuples when the space is small, else seeded random tuples."""
    if _exhaustive(ctx, arity):
        return itertools.product(_carrier(ctx), repeat=arity)

    def gen():
        for _ in range(samples):
            yield tuple(ctx.sample(rng) for _ in range(arity))

    return gen()


def _op_tables(ctx: RingContext, elems: list, unary=(), binary=()):
    """Index tables of ctx's operations over its sorted carrier ``elems``.

    Each value is stored as its position in ``elems``: T[i] for a unary
    operation applied to elems[i], T[i][j] for a binary one applied to
    (elems[i], elems[j]).  A binary table is the family's own (the rows of
    ctx._table_rows, from the formulas behind add and mul) wherever it has
    one; every other operation, unary ones first, is called once per
    argument through the instance, into lists.  Payloads are canonical, so
    equal positions mean equal values, and a law can then be evaluated on
    positions alone (see _on_rows).  Returns (tables by name, None), or
    (None, counterexample) naming the first operation and arguments whose
    value is not in the carrier."""
    index = {a: i for i, a in enumerate(elems)}
    tables = {}
    for name in unary + binary:
        if name in binary:
            rows = ctx._table_rows(name, elems)
            if rows is not None:
                tables[name] = rows
                continue
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


def _on_rows(table):
    """The operation of an index table (see _op_tables) on byte rows.

    The table covers at most 256 positions (_law_check runs it only on
    exhaustive pairs or triples, and EXHAUSTIVE_TUPLE_LIMIT = 256^2), so a
    position fits in one byte and a row of positions, one per last
    argument of a law, is ``bytes``.  An argument is a position (an int)
    or a row; a value that depends on the last argument is a row, any
    other a position.  Each row of the table, and each column on first
    use, is kept as a translate table padded to 256 bytes, so an operation
    on one row is one bytes.translate: a unary T on a row x is
    x.translate(T), a binary T at (i, y) is y.translate(row i) and at
    (x, j) x.translate(column j).  On two rows of which one is constant,
    a binary T is the other row translated as at that constant position;
    only on two rows that both vary does it walk them, position by
    position, in C through map."""
    pad = bytes(256 - len(table))
    if type(table[0]) is int:
        lift = bytes(table) + pad

        def unary(x):
            return lift[x] if type(x) is int else x.translate(lift)
        return unary

    rows = [bytes(row) + pad for row in table]
    columns = []

    def binary(x, y):
        if type(x) is int:
            row = rows[x]
            return row[y] if type(y) is int else y.translate(row)
        if type(y) is int:
            if not columns:
                columns.extend(bytes(column) + pad for column in zip(*table))
            return x.translate(columns[y])
        if x.count(x[0]) == len(x):
            return binary(x[0], y)
        if y.count(y[0]) == len(y):
            return binary(x, y[0])
        return bytes(map(operator.getitem, map(rows.__getitem__, x), y))
    return binary


def _law_check(ctx: RingContext, law, names, arity: int, samples: int,
               rng: random.Random, checked: int):
    """Run ``law`` on every ``arity``-tuple of the carrier, or on
    ``samples`` seeded ones, and return (checked, counterexample or None)
    as the plain loop over those tuples does.

    ``law(*ops, *args)`` returns the name of the first law that fails at
    args, or None; ``names`` names its operations in order, binary add and
    mul first.  Each law is an equation that fails where its two sides
    differ.  Sampled tuples call the ring's own operations.  On the
    exhaustive path the operations are tabled once (_op_tables: add and
    mul from the family's formulas where it has them, else one call per
    pair; a value outside the carrier is the counterexample) and ``law``
    runs once per head tuple on byte rows (_on_rows), with the row of
    every position as its last argument: two rows of side values are
    equal bytes exactly when the law holds at every last argument, so only
    a failing row is walked argument by argument."""
    if not _exhaustive(ctx, arity):
        ops = [getattr(ctx, name) for name in names]
        for args in _tuple_stream(ctx, arity, samples, rng):
            checked += 1
            failed = law(*ops, *args)
            if failed:
                return checked, _law_cex(ctx, failed, args)
        return checked, None
    elems = _carrier(ctx)
    tables, cex = _op_tables(ctx, elems, unary=names[2:], binary=names[:2])
    if cex:
        return checked, cex
    ops = [_on_rows(tables[name]) for name in names]
    n = len(elems)
    every = bytes(range(n))
    for head in itertools.product(range(n), repeat=arity - 1):
        if not law(*ops, *head, every):
            checked += n
            continue
        for last in range(n):
            checked += 1
            failed = law(*ops, *head, last)
            if failed:
                return checked, _law_cex(ctx, failed,
                                         [elems[i] for i in (*head, last)])
    return checked, None


def _law_cex(ctx, law, args):
    shown = ", ".join(f"{name}={ctx.render(x)}" for name, x in zip("abc", args))
    return f"{law} fails at {shown}"


def _ring_law_failure(add, mul, a, b, c):
    """The first ring law that fails at (a, b, c), or None; each shared
    subterm is computed once."""
    ab, bc = add(a, b), add(b, c)
    if add(ab, c) != add(a, bc):
        return "additive associativity"
    if ab != add(b, a):
        return "additive commutativity"
    mab, mbc = mul(a, b), mul(b, c)
    if mul(mab, c) != mul(a, mbc):
        return "multiplicative associativity"
    mac = mul(a, c)
    if mul(a, bc) != add(mab, mac):
        return "left distributivity"
    if mul(ab, c) != add(mac, mbc):
        return "right distributivity"
    return None


def ring_axiom_check(ctx: RingContext, samples: int,
                     seed: int) -> tuple[int, str | None, dict]:
    """Verify the ring axioms on every sampled (or enumerated) element and
    triple.

    The single-element laws call the ring's operations directly.  The
    triples run _ring_law_failure through _law_check: when they are
    enumerated (|R|^3 <= EXHAUSTIVE_TUPLE_LIMIT) the add and mul tables
    are built once, from the family's formulas (ctx._table_rows) or with
    one call per pair, and the laws are then evaluated on byte rows once
    per pair (a, b): of its 14 operations three take positions alone, ten
    are translates and one, the sum of two rows in right distributivity,
    walks its positions unless one of them is constant (see _on_rows).
    A sum or product outside the carrier is reported as a closure
    failure.  Sampled triples call the operations directly, 14 calls per
    triple."""
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

    if cex is None:
        checked, cex = _law_check(ctx, _ring_law_failure, ("add", "mul"), 3,
                                  samples, rng, checked)
    return checked, cex, {"mode": "exhaustive" if _exhaustive(ctx, 3)
                          else "sampled"}


def _sigma_law_failure(add, mul, sigma, delta, a, b):
    """The first structure-map law that fails at (a, b), or None; each
    shared subterm is computed once."""
    ab, sa, sb = add(a, b), sigma(a), sigma(b)
    if sigma(ab) != add(sa, sb):
        return "sigma additivity"
    mab = mul(a, b)
    if sigma(mab) != mul(sa, sb):
        return "sigma multiplicativity"
    da, db = delta(a), delta(b)
    if delta(ab) != add(da, db):
        return "delta additivity"
    if delta(mab) != add(mul(sa, db), mul(da, b)):
        return "sigma-Leibniz rule"
    return None


def sigma_derivation_check(ctx: RingContext, samples: int,
                           seed: int) -> tuple[int, str | None, dict]:
    """Verify that sigma is a ring endomorphism preserving I and that delta
    is an additive map obeying the sigma-Leibniz rule with delta(R) <= I and
    delta(I) <= I^2.

    The single-element and radical containments call sigma and delta
    directly, the latter over all of I (at most
    SIGMA_DERIVATION_RADICAL_LIMIT elements, see _carrier), and
    sigma_radical_onto reads the set of I the containments use.  The pairs
    run _sigma_law_failure through _law_check: when they are enumerated
    (|R|^2 <= EXHAUSTIVE_TUPLE_LIMIT) that costs |R| calls each of sigma
    and delta for their tables, the add and mul tables from the family's
    formulas (ctx._table_rows) or with one call per pair, and one
    evaluation of the laws on byte rows per a: of its 16 operations two
    take positions alone, thirteen are translates and one, the sum of two
    rows in the sigma-Leibniz rule, walks its positions unless one of them
    is constant, as it is where delta = 0 (see _on_rows).  A value outside
    the carrier is reported as a closure failure.  Sampled pairs call the
    operations directly, 16 calls per pair."""
    members = _carrier(ctx, 1, SIGMA_DERIVATION_RADICAL_LIMIT,
                       "sigma-derivation")
    rng = random.Random(seed)
    one = ctx.one()
    radical, radical_sq = frozenset(members), ctx.ideal_power(2)
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

    # I is within its budget; run the containment checks over all of it
    if cex is None:
        for a in members:
            checked += 2
            if ctx.sigma(a) not in radical:
                cex = f"sigma({ctx.render(a)}) leaves I"
                break
            if ctx.delta(a) not in radical_sq:
                cex = f"delta({ctx.render(a)}) is outside I^2"
                break

    if cex is None:
        checked, cex = _law_check(ctx, _sigma_law_failure,
                                  ("add", "mul", "sigma", "delta"), 2,
                                  samples, rng, checked)
    onto = sigma_radical_onto(ctx, radical)
    return checked, cex, {"mode": "exhaustive" if _exhaustive(ctx, 2)
                          else "sampled", "sigma_radical_onto": onto}


def sigma_radical_onto(ctx: RingContext, radical: frozenset) -> bool:
    """Whether sigma maps I, given as the set ``radical``, onto I (not
    merely into it)."""
    return frozenset(map(ctx.sigma, radical)) == radical


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

    sigma and delta are called once per element, through index tables
    over the sorted carrier (at most NILBOUND_CARRIER_LIMIT elements, see
    _carrier; _op_tables, where a value outside the carrier raises
    AssertionError), so a word acts on the carrier through its image, a
    tuple of positions, and the answer is 1 + the largest delta count of a
    word whose image holds a position outside I^n.  The search keeps, per
    distinct image reached by the words of each length, only the largest
    delta count of those words, and extends every image by one more letter
    per layer; each distinct image is numbered when first reached, and its
    two moves are computed once.  The answer is that of the exhaustive word
    enumeration, so a returned bound is a verified one.
    """
    if n < 1:
        raise ValueError("target power must be >= 1")
    if word_limit < 1:
        raise ValueError("word limit must be >= 1")
    elems = _carrier(ctx, limit=NILBOUND_CARRIER_LIMIT, walk="nilbound")
    tables, cex = _op_tables(ctx, elems, unary=("delta", "sigma"))
    if cex:
        raise AssertionError(cex)
    outside = [ctx.ideal_valuation(a) < n for a in elems]
    worst = 0    # the largest delta count of a word that leaves I^n
    images = [tuple(range(len(elems)))]   # number -> image
    numbers = {images[0]: 0}               # image -> number
    moves = {}   # number -> [(number after one more letter, its delta count, leaves I^n)]
    layer = {0: 0}   # number -> largest delta count
    for _ in range(word_limit):
        nxt = {}
        for i, count in layer.items():
            if i not in moves:
                moves[i] = []
                for name, dk in (("delta", 1), ("sigma", 0)):
                    img = tuple(map(tables[name].__getitem__, images[i]))
                    j = numbers.setdefault(img, len(images))
                    if j == len(images):
                        images.append(img)
                    leaves = any(map(outside.__getitem__, img))
                    moves[i].append((j, dk, leaves))
            for j, dk, leaves in moves[i]:
                reached = count + dk
                nxt[j] = max(nxt.get(j, 0), reached)
                if leaves:
                    worst = max(worst, reached)
        layer = nxt
    return worst + 1 if worst < word_limit else None


def monomial_operator_words(ctx: RingContext, k: int, l: int, a):
    """Oracle for M_{k,l}: enumerate every word with k delta letters and l
    sigma letters, apply each to a, and sum.  Returns (value, word_count);
    the count must equal C(k+l, k)."""
    total = ctx.zero()
    count = 0
    n = k + l
    for delta_slots in itertools.combinations(range(n), k):
        slots = set(delta_slots)
        x = a
        for idx in reversed(range(n)):
            x = ctx.delta(x) if idx in slots else ctx.sigma(x)
        total = ctx.add(total, x)
        count += 1
    return total, count

def random_poly(ctx: RingContext, max_degree: int, rng: random.Random) -> SkewPoly:
    return SkewPoly(ctx, [ctx.sample(rng) for _ in range(max_degree + 1)])


def monomial_operator_word_images(sigma_table: list, delta_table: list,
                                  size: int, top: int):
    """Yield, for n = 0 .. top, the images of the words of n letters over a
    carrier of ``size`` elements, given its sigma and delta index tables
    (see _op_tables): {word: image}, a word a str of "d" (delta) and
    "s" (sigma) letters applied last letter first, as in
    monomial_operator_words, and image[i] the position of its value at the
    i-th element.  The image of a word is the image of the word without
    its first letter after one more table pass, so the n-th layer costs
    2^n passes.  The images of the last layer, which no later layer
    needs, are lazy: one pass each when read, so each can be read once.
    The generator holds at most two layers of stored images."""
    layer = {"": range(size)}
    for n in range(top + 1):
        yield layer
        if n < top:
            layer = {letter + word: map(table.__getitem__, image)
                     for word, image in layer.items()
                     for letter, table in (("d", delta_table),
                                           ("s", sigma_table))}
            if n + 1 < top:
                layer = {word: list(image) for word, image in layer.items()}


def monomial_operator_word_sums(ctx: RingContext, k: int, l: int, elems: list,
                                images: dict):
    """monomial_operator_words for every element of the sorted carrier
    ``elems`` at once, given the images of the words of k + l letters over
    it (a layer of monomial_operator_word_images).  The words' columns of
    values are summed by the family's own formula (ctx._column_sums: one
    add per word on truncpoly, one sum per element on zmod), and elsewhere
    with ctx.add per element in the same order as monomial_operator_words.
    Returns (values, word_count)."""
    n = k + l
    columns = [map(elems.__getitem__,
                   images["".join("d" if i in delta_slots else "s"
                                  for i in range(n))])
               for delta_slots in itertools.combinations(range(n), k)]
    totals = ctx._column_sums(columns)
    if totals is None:
        totals = [ctx.zero()] * len(elems)
        for column in columns:
            totals = list(map(ctx.add, totals, column))
    return totals, len(columns)


# the sizes the mkl-oracle and poly-assoc suites check up to
MKL_ORACLE_MAX_TOTAL = 6
MKL_WORD_COUNT_TOTAL = 8
POLY_LAW_MAX_DEGREE = 3


def mkl_oracle_check(ctx: RingContext) -> tuple[int, str | None, dict]:
    """Recursion vs word enumeration for all k+l <= MKL_ORACLE_MAX_TOTAL
    over the whole carrier (at most MKL_ORACLE_CARRIER_LIMIT elements, see
    _carrier), plus the C(k+l, k) word-count identity up to
    MKL_WORD_COUNT_TOTAL.
    Where k >= ctx.mkl_depth(), M_{k,l}(a) must also vanish: the product
    kernels skip those terms.

    The words run over sigma and delta tables of the carrier (|R| calls
    each, see _op_tables).  Each word's image is built once, from
    the image of the word without its first letter
    (monomial_operator_word_images: 2^(T+1) - 2 table passes, T =
    MKL_ORACLE_MAX_TOTAL), and the words are summed per (k, l) by
    monomial_operator_word_sums: a whole column per word by the family's
    own sum (ctx._column_sums), and per element with ctx.add on a
    subclass.  A sigma or delta value outside the carrier is reported as a
    closure failure.

    Where the family has a closed form of the operator rows
    (ctx._closed_rows), it is read once into one column per (k, l) with
    k < depth (_closed_columns) and compared with the words at every
    element too; building the rows checks M_{depth,l} = 0, so a closed
    form that claims a nonzero value there fails the suite with its own
    error text.

    The recursion runs at the points _generator_positions finds: a
    spanning set of (R, +) on which sigma and delta are additive.  Every
    word, and so M_{k,l}, is then additive, and so is the recursion, built
    from sigma, delta and add alone; two additive maps that agree on a
    spanning set agree everywhere.  On a subclass, or where no such set is
    found, the points are every element.  Each point takes T + 1 calls,
    M_{T-l,l}(a) for l = 0..T, which fill a fresh memo with every M_{k,l}(a),
    k + l <= T, and each value is read back from that memo.

    Each (k, l) is compared as whole columns over the carrier: words
    against recursion at the points, closed form against words, and words
    against zero where k >= depth.  The first column that differs is
    walked element by element, with the closed form compared against the
    recursion, once the recursion has run at every element; every earlier
    column agreed at every element, so ``checked``, the counters and the
    counterexample are those of a loop over every element.

    The context's own memo (ctx._mkl_cache) is put back unchanged, so the
    check leaves no entries behind for the whole carrier.  It runs no
    product, so the operator rows (ctx._mkl_rows) are not touched either."""
    checked = vanishing = closed_checks = 0
    depth = ctx.mkl_depth()
    elems = _carrier(ctx, limit=MKL_ORACLE_CARRIER_LIMIT, walk="mkl-oracle")
    size, zero = len(elems), ctx.zero()
    tables, cex = _op_tables(ctx, elems, unary=("sigma", "delta"))
    closed, cex = (_closed_columns(ctx, depth, elems) if cex is None
                   else ([], cex))
    own_memo, recursion = ctx._mkl_cache, {}
    ctx._mkl_cache = recursion
    try:
        if cex is None:
            points = _generator_positions(ctx, elems, tables) or range(size)
            at = list(map(elems.__getitem__, points))
            _fill_recursion(ctx, at)
            layers = monomial_operator_word_images(
                tables["sigma"], tables["delta"], size, MKL_ORACLE_MAX_TOTAL)
            for k, l, images in ((k, total - k, images)
                                 for total, images in enumerate(layers)
                                 for k in range(total + 1)):
                sums, count = monomial_operator_word_sums(ctx, k, l, elems,
                                                          images)
                words = math.comb(k + l, k)
                by_recursion = [recursion[k, l, a] for a in at]
                by_closed = closed[l][k] if closed and k < depth else None
                if (count == words
                        and list(map(sums.__getitem__, points)) == by_recursion
                        and (by_closed is None or by_closed == sums)
                        and (k < depth or sums.count(zero) == size)):
                    checked += size
                    if by_closed is not None:
                        closed_checks += size
                    if k >= depth:
                        vanishing += size
                    continue
                if len(at) < size:
                    _fill_recursion(ctx, elems)
                    by_recursion = [recursion[k, l, a] for a in elems]
                for i, a in enumerate(elems):
                    checked += 1
                    if count != words:
                        cex = f"word count mismatch at k={k}, l={l}"
                        break
                    by_words = sums[i]
                    if by_words != by_recursion[i]:
                        cex = (f"M_{{{k},{l}}} mismatch at a={ctx.render(a)}: "
                               f"words give {ctx.render(by_words)}")
                        break
                    if by_closed is not None:
                        closed_checks += 1
                        if by_closed[i] != by_recursion[i]:
                            cex = (f"closed form of M_{{{k},{l}}} mismatch at "
                                   f"a={ctx.render(a)}: closed form gives "
                                   f"{ctx.render(by_closed[i])}")
                            break
                    if k >= depth:
                        vanishing += 1
                        if by_words != zero:
                            cex = (f"M_{{{k},{l}}}({ctx.render(a)}) = "
                                   f"{ctx.render(by_words)} does not vanish "
                                   f"at k >= depth {depth}")
                            break
                break
    finally:
        ctx._mkl_cache = own_memo
    if cex is None:
        for total in range(MKL_WORD_COUNT_TOTAL + 1):
            for k in range(total + 1):
                checked += 1
                n_words = sum(1 for _ in itertools.combinations(range(total), k))
                if n_words != math.comb(total, k):
                    cex = f"word count mismatch at k={k}, l={total - k}"
                    break
    return checked, cex, {"max_total_degree": MKL_ORACLE_MAX_TOTAL,
                          "vanishing_checks": vanishing,
                          "closed_form_checks": closed_checks,
                          "mkl_depth": depth}


def _fill_recursion(ctx: RingContext, at):
    """M_{T-l,l}(a) for l = 0..T (T = MKL_ORACLE_MAX_TOTAL) and every a of
    ``at``, which fills ctx._mkl_cache with every M_{k,l}(a), k + l <= T."""
    top = MKL_ORACLE_MAX_TOTAL
    for a in at:
        for l in range(top + 1):
            skewpoly.monomial_operator_apply(ctx, top - l, l, a)


def _generator_positions(ctx: RingContext, elems: list, tables: dict):
    """The positions in ``elems`` of a spanning set of (R, +) on which
    sigma and delta are additive, or None.  The candidates are the
    products of radical generators, ctx.ideal_power_gens(k) for k below the
    nilpotency, a k at a time; they span (R, +) wherever R/I is a prime
    field, the premise of ctx.is_local.  A candidate already in the span is
    skipped, and no further k is read once the span is the whole carrier.
    Each other candidate g is kept once f(a + g) = f(a) + f(g) holds for
    every element a and f in {sigma, delta}.  None on a subclass, where
    ctx._column_sums is None, where that fails, and where the candidates
    do not span.  Sums are whole columns (ctx._column_sums) and f is read
    from its index table, so the checks call no ring operation.  The span
    is the closure of {0} under adding each kept candidate in turn: a coset
    of the span so far is shifted by the candidate until a shift lands in
    the span."""
    size = len(elems)
    index = {a: i for i, a in enumerate(elems)}
    images = [list(map(elems.__getitem__, table)) for table in tables.values()]
    span = [index[ctx.zero()]]
    reached = set(span)
    points = []
    for k in range(ctx.radical_nilpotency):
        if len(reached) == size:
            break
        for g in ctx.ideal_power_gens(k):
            point = index[g]
            if point in reached:
                continue
            shifted = ctx._column_sums([elems, itertools.repeat(g, size)])
            if shifted is None:
                return None
            shifted = list(map(index.__getitem__, shifted))
            for image in images:
                if (list(map(image.__getitem__, shifted)) != ctx._column_sums(
                        [image, itertools.repeat(image[point], size)])):
                    return None
            coset, grown = span, []
            while True:
                coset = list(map(shifted.__getitem__, coset))
                if coset[0] in reached:
                    break
                reached.update(coset)
                grown += coset
            span += grown
            points.append(point)
    return points if len(reached) == size else None


def _closed_columns(ctx: RingContext, depth: int, elems: list):
    """(columns, None), columns[l][k] the closed form of M_{k,l}(a) for
    every a of ``elems``, l <= MKL_ORACLE_MAX_TOTAL and k < depth, from the
    rows of each element read once; ([], None) where the family has no
    closed form; or ([], the error text of a row that fails its depth
    check)."""
    zero, size = ctx.zero(), len(elems)
    columns = []
    try:
        for i, a in enumerate(elems):
            rows = ctx._closed_rows(depth, a, 0, MKL_ORACLE_MAX_TOTAL + 1)
            if rows is None:
                return [], None
            if not columns:
                columns = [[[zero] * size for _ in range(depth)] for _ in rows]
            for row, by_k in zip(rows, columns):
                for k, value in row:
                    by_k[k][i] = value
    except AssertionError as exc:
        return [], str(exc)
    return columns, None


def poly_law_check(ctx: RingContext, samples: int,
                   seed: int) -> tuple[int, str | None, dict]:
    """Seeded random triples of degree at most POLY_LAW_MAX_DEGREE:
    associativity, distributivity, and agreement of the closed-formula
    product with the iterated-commutation oracle."""
    rng = random.Random(seed)
    checked = 0
    cex = None
    for _ in range(samples):
        f, g, h = (random_poly(ctx, POLY_LAW_MAX_DEGREE, rng)
                   for _ in range(3))
        # each product once, computed where the laws first need it
        fg = f * g
        checked += 4
        if fg != skewpoly.poly_mul_commutation(f, g):
            cex = f"products disagree: f={f.render()}, g={g.render()}"
        elif (fg * h) != f * (gh := g * h):
            cex = f"associativity fails: f={f.render()}, g={g.render()}, h={h.render()}"
        elif (f + g) * h != (fh := f * h) + gh:
            cex = f"right distributivity fails: f={f.render()}, g={g.render()}, h={h.render()}"
        elif f * (g + h) != fg + fh:
            cex = f"left distributivity fails: f={f.render()}, g={g.render()}, h={h.render()}"
        if cex:
            break
        # degree bound
        checked += 1
        if not (fg.degree <= f.degree + g.degree or f.is_zero() or g.is_zero()):
            cex = f"degree bound fails: f={f.render()}, g={g.render()}"
            break
    return checked, cex, {"max_degree": POLY_LAW_MAX_DEGREE}


def random_nonzero_series(ctx, precision, rng) -> TruncatedSeries:
    for _ in range(1000):
        f = random_series(ctx, precision, rng)
        if not f.is_zero():
            return f
    raise RuntimeError("failed to sample a nonzero class")


def random_series_in_filtration(ctx, precision, k, rng) -> TruncatedSeries:
    """Uniform class of G_k/G_N: slot i drawn from I^max(k-i, 0)."""
    coeffs = []
    for i in range(precision):
        coeffs.append(ctx.sample_ideal_power(max(k - i, 0), rng))
    return TruncatedSeries(ctx, precision, coeffs)


def filtration_generators(ctx: RingContext, precision: int, k: int) -> list:
    """Module generators of G_k/G_N: w*x^i with w a product of k-i radical
    generators for the slots below k, and the bare powers x^i above."""
    gens = []
    for i in range(precision):
        j = k - i
        if j <= 0:
            gens.append(TruncatedSeries(
                ctx, precision,
                [ctx.zero()] * i + [ctx.one()]))
        elif j < ctx.radical_nilpotency:
            for w in ctx.ideal_power_gens(j):
                gens.append(TruncatedSeries(
                    ctx, precision, [ctx.zero()] * i + [w]))
        # j >= nilpotency: that slot of G_k is zero
    return gens


def ideal_closure_check(ctx: RingContext, precision: int, samples: int,
                        seed: int) -> tuple[int, str | None, dict]:
    """For each filtration index k = 0..N in turn, with seed ``seed + k``:
    G_k absorbs multiplication by S/G_N on both sides, exhaustively on the
    module generators for the x-multiplication case and on seeded random
    pairs otherwise; also checks G_k * G_l <= G_(k+l).  The first k that
    fails ends the run, and the details then give that k and its own
    generator checks."""
    x = TruncatedSeries.var(ctx, precision)
    checked = 0
    all_gen_checks = 0
    for k in range(precision + 1):
        rng = random.Random(seed + k)
        cex = None
        gen_checks = 0

        for gen in filtration_generators(ctx, precision, k):
            for prod, tag in ((x * gen, "x*g"), (gen * x, "g*x")):
                checked += 1
                gen_checks += 1
                if prod.filtration_degree() < k:
                    cex = f"{tag} leaves G_{k} for generator g = {gen.render()}"
                    break
            if cex:
                break

        if cex is None:
            for _ in range(samples):
                s = random_series(ctx, precision, rng)
                g = random_series_in_filtration(ctx, precision, k, rng)
                checked += 2
                if (s * g).filtration_degree() < k:
                    cex = f"s*g leaves G_{k}: s={s.render()}, g={g.render()}"
                    break
                if (g * s).filtration_degree() < k:
                    cex = f"g*s leaves G_{k}: s={s.render()}, g={g.render()}"
                    break
                l = rng.randint(0, precision)
                h = random_series_in_filtration(ctx, precision, l, rng)
                bound = min(precision, k + l)
                checked += 2
                if (g * h).filtration_degree() < bound:
                    cex = f"G_{k}*G_{l} leaves G_{k + l}: g={g.render()}, h={h.render()}"
                    break
                if (h * g).filtration_degree() < bound:
                    cex = f"G_{l}*G_{k} leaves G_{k + l}: g={g.render()}, h={h.render()}"
                    break

        if cex:
            return checked, cex, {"filtration_index": k,
                                  "generator_checks": gen_checks}
        all_gen_checks += gen_checks
    return checked, None, {"max_filtration_index": precision,
                           "generator_checks": all_gen_checks}


def graded_iso_check(ctx: RingContext, precision: int, samples: int,
                     seed: int) -> tuple[int, str | None, dict]:
    """Multiplicativity of the principal symbol: when the filtration degree
    of a product is the sum of the factor degrees, the symbol of the product
    equals the product of the symbols in the graded model; when the degree
    jumps, the model product must vanish."""
    rng = random.Random(seed)
    exact = jump = skipped = 0

    def pair_failure(f, g):
        nonlocal exact, jump, skipped
        df, dg = f.filtration_degree(), g.filtration_degree()
        if df + dg >= precision:
            skipped += 1
            return None
        model = principal_symbol(f) * principal_symbol(g)
        prod = f * g
        if prod.filtration_degree() == df + dg:
            exact += 1
            if principal_symbol(prod) != model:
                return (f"symbol mismatch: f={f.render()}, g={g.render()}, "
                        f"symbol(fg)={principal_symbol(prod).render()}, "
                        f"model={model.render()}")
        else:
            jump += 1
            if not model.is_zero():
                return (f"degree jumped but symbols multiply to "
                        f"{model.render()}: f={f.render()}, g={g.render()}")
        return None

    # deterministic boundary pairs: radical-generator constants whose layers
    # can sum past the nilpotency index reach the cancellation branch, and
    # w1*x times w2 (w1 = 1 too) the delta part of x*w2 in the model
    nil, zero = ctx.radical_nilpotency, ctx.zero()
    boundary = ((TruncatedSeries(ctx, precision, (zero,) * xdeg + (w1,)),
                 TruncatedSeries.constant(ctx, precision, w2))
                for xdeg in (0, 1) for k1 in range(1 - xdeg, nil)
                for k2 in range(1, nil)
                for w1 in ctx.ideal_power_gens(k1)
                for w2 in ctx.ideal_power_gens(k2))
    drawn = ((random_nonzero_series(ctx, precision, rng),
              random_nonzero_series(ctx, precision, rng))
             for _ in range(samples))
    cex = None
    for f, g in itertools.chain(boundary, drawn):
        cex = pair_failure(f, g)
        if cex:
            break
    return exact + jump, cex, {"exact_branch": exact, "jump_branch": jump,
                               "skipped": skipped}


def series_law_check(ctx: RingContext, precision: int, samples: int,
                     seed: int) -> tuple[int, str | None, dict]:
    """Associativity, distributivity and representative independence of the
    product in S/G_N, on seeded random triples."""
    rng = random.Random(seed)
    checked = 0
    cex = None
    for _ in range(samples):
        f = random_series(ctx, precision, rng)
        g = random_series(ctx, precision, rng)
        h = random_series(ctx, precision, rng)
        checked += 3
        # each product once, computed where the laws first need it
        if (fg := f * g) * h != f * (gh := g * h):
            cex = f"associativity fails: f={f.render()}, g={g.render()}, h={h.render()}"
            break
        if f * (g + h) != fg + (fh := f * h):
            cex = f"left distributivity fails: f={f.render()}, g={g.render()}, h={h.render()}"
            break
        if (f + g) * h != fh + gh:
            cex = f"right distributivity fails: f={f.render()}, g={g.render()}, h={h.render()}"
            break
        # the product must be well defined on classes: multiply polynomial
        # lifts differing by a G_N element and compare the truncations
        i = rng.randrange(precision)
        pert = ctx.sample_ideal_power(precision - i, rng)
        lift = f.to_poly()
        lift2 = lift + SkewPoly(ctx, [ctx.zero()] * i + [pert])
        g_lift = g.to_poly()
        checked += 2
        if TruncatedSeries.from_poly(lift2 * g_lift, precision) != fg or \
                TruncatedSeries.from_poly(g_lift * lift2, precision) != g * f:
            cex = (f"product not well defined on classes: f={f.render()}, "
                   f"perturbation {ctx.render(pert)} at slot {i}")
            break
    return checked, cex, {"precision": precision}


# the largest matrix size the k0-rank and serre-transfer suites draw
SUITE_SIZE_LIMIT = 3


def k0_rank_check(ctx: RingContext, samples: int,
                  seed: int) -> tuple[int, str | None, dict]:
    """Random rank certificates over the coefficient ring: recovery of the
    generating rank, conjugation invariance and additivity under direct sum."""
    rng = random.Random(seed)
    scalars = BaseScalars(ctx)
    checked = 0
    cex = None
    for _ in range(samples):
        n = rng.randint(1, SUITE_SIZE_LIMIT)
        e, ones = k0.random_idempotent(scalars, n, rng)
        w = k0.idempotent_rank(e)
        checked += 2
        if w.rank != ones:
            cex = f"rank {w.rank} != generating rank {ones}"
            break
        conj = IdempotentMatrix(scalars, k0.random_conjugate(scalars, e.entries, rng))
        if k0.idempotent_rank(conj).rank != w.rank:
            cex = "rank is not conjugation invariant"
            break
        m = rng.randint(1, SUITE_SIZE_LIMIT)
        f, f_ones = k0.random_idempotent(scalars, m, rng)
        checked += 1
        direct = IdempotentMatrix(
            scalars, mat_direct_sum(scalars, e.entries, f.entries))
        if k0.idempotent_rank(direct).rank != w.rank + f_ones:
            cex = "rank is not additive on direct sums"
            break
    return checked, cex, {"size_limit": SUITE_SIZE_LIMIT}


def serre_transfer_check(ctx: RingContext, precision: int, samples: int,
                         seed: int) -> tuple[int, str | None, dict]:
    """Every generated idempotent over S/G_N diagonalizes to a free summand
    with the generating rank, and constant-entry idempotents have the same
    rank over R and over S/G_N."""
    rng = random.Random(seed)
    series_scalars = SeriesScalars(ctx, precision)
    base_scalars = BaseScalars(ctx)
    checked = 0
    cex = None
    for _ in range(samples):
        n = rng.randint(1, SUITE_SIZE_LIMIT)
        e, ones = k0.random_idempotent(series_scalars, n, rng)
        w = k0.idempotent_rank(e)
        checked += 2
        if w.rank != ones:
            cex = f"series rank {w.rank} != generating rank {ones}"
            break
    if cex is None:
        for _ in range(samples):
            n = rng.randint(1, SUITE_SIZE_LIMIT)
            e_base, ones = k0.random_idempotent(base_scalars, n, rng)
            lifted = IdempotentMatrix(
                series_scalars,
                tuple(tuple(TruncatedSeries.constant(ctx, precision, x)
                            for x in row) for row in e_base.entries))
            checked += 2
            rank_base = k0.idempotent_rank(e_base).rank
            rank_series = k0.idempotent_rank(lifted).rank
            if rank_base != ones:
                cex = f"base rank {rank_base} != generating rank {ones}"
                break
            if rank_series != rank_base:
                cex = (f"constant idempotent has rank {rank_base} over R "
                       f"but {rank_series} over S/G_{precision}")
                break
    return checked, cex, {"precision": precision, "size_limit": SUITE_SIZE_LIMIT}


DEFAULT_PRECISION = 4

# name -> runner(ctx, precision, samples, seed), in the order of the CLI's
# choices; the suites over R take no precision
_SUITES = {
    "ring-axioms": lambda ctx, n, samples, seed: ring_axiom_check(
        ctx, samples, seed),
    "sigma-derivation": lambda ctx, n, samples, seed: sigma_derivation_check(
        ctx, samples, seed),
    "mkl-oracle": lambda ctx, n, samples, seed: mkl_oracle_check(ctx),
    "poly-assoc": lambda ctx, n, samples, seed: poly_law_check(
        ctx, samples, seed),
    "series-assoc": series_law_check,
    "ideal-closure": ideal_closure_check,
    "graded-iso": graded_iso_check,
    "k0-rank": lambda ctx, n, samples, seed: k0_rank_check(ctx, samples, seed),
    "serre-transfer": serre_transfer_check,
}
SUITE_NAMES = tuple(_SUITES)


def run_property_suite(name: str, ctx: RingContext, precision: int | None,
                       samples: int, seed: int) -> CheckReport:
    """Run one named invariant suite and return its report, which passes
    when the suite found no counterexample.

    ``samples`` must be at least 1, for every suite.  ``precision`` only
    matters for the series-level suites; it defaults to DEFAULT_PRECISION
    when omitted."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = precision if precision is not None else DEFAULT_PRECISION
    checked, cex, details = _SUITES[name](ctx, n, samples, seed)
    return CheckReport(name, checked, cex, details)
