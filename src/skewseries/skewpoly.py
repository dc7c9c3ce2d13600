"""Skew polynomial arithmetic in the Ore extension R[x; sigma, delta].

Elements are kept in left normal form sum_i a_i x^i.  Multiplication uses
the commutation rule x*r = sigma(r)*x + delta(r), driven through the
monomial operator M_{k,l}: the sum of all composite words in delta and
sigma with exactly k delta factors and l sigma factors.  Two independent
product routes are provided so they can be cross-validated:

* the closed coefficient formula
      coeff_m(f*g) = sum_{n=0..m} sum_{j>=n} a_j * M_{j-n,n}(b_{m-n})
  with M computed by the recursion
      M_{k,l} = delta . M_{k-1,l} + sigma . M_{k,l-1},   M_{0,0} = id
  summed only over j - n < d, d = ctx.mkl_depth() the least depth with
  M_{d,l} = 0 for every l, so the other terms vanish, and over the terms
  whose M value is nonzero.  The nonzero values come from operator rows:
  rows[n] of a coefficient b is the tuple of (k, M_{k,n}(b)) with k < d
  and a nonzero value, ordered by k, and it is admitted only once
  M_{d,n}(b) = 0 is checked, so the cut is checked, not assumed.  The
  rows of each b are kept per context in ctx._mkl_rows, keyed by b alone
  (a context's depth is fixed by its family and its radical nilpotency),
  built on first use and extended when a product needs a larger n.  They
  come from the family's closed form of M_{k,l} (ctx._closed_rows) on zmod and
  on the truncpoly q-twist and delta=zero, which fills no memo and repeats
  the at most ord_q(c) distinct rows of b, and from the recursion's memo
  (ctx._mkl_cache) on delta=broken, the one shipped family without a
  closed form, where the recursion is also the check.  Their only reader is
  :func:`_add_products`, and its only caller the block kernel
  :func:`_block_product`, the one entry of every product: a SkewPoly or
  TruncatedSeries product is a 1x1 block, a matrix product over S/G_N one
  block, and a row or column step of k0 (series.mul_add) 1x1 times 1xk or
  kx1 times 1x1.  The operator row of each right-factor coefficient is
  looked up once for every row.  A product by 1 costs no multiplication
  (a right factor 1 only where x*1 = 1*x), and an output whose only term
  it is is the partner itself, so the caller returns the partner's class
  as it is.  Neither does a coefficient 1: a left coefficient 1 adds the
  operator value itself, and a right coefficient 1, where x*1 = 1*x, adds
  its partner's coefficients with no operator row, since sigma(1) = 1 and
  delta(1) = 0 give M_{0,n}(1) = 1 and M_{k,n}(1) = 0 for k >= 1;
* :func:`poly_mul_commutation`, which expands products by repeatedly
  applying the single-step rule and collecting left-form terms.

A brute-force word enumeration of M_{k,l} (suites.monomial_operator_words)
is kept as the oracle of the recursion and of the closed forms:
suites.mkl_oracle_check compares the word sums with the closed forms at
every element, and with the recursion at every element, or only at the
products of radical generators once it has checked that they span (R, +)
and that sigma and delta are additive on them.

The depth d is a closed form per preset family, clamped at the radical
nilpotency (M_{k,l} maps R into I^k):

    zmod:<p>^<n>                      1   (delta = 0)
    truncpoly, delta=zero or c = 1    1   (delta = 0)
    truncpoly q-twist, c != 1         max(1, min(ord_q(c), m - 1))
    truncpoly, delta=broken           m

For the q-twist, delta(t^i) = (c^i - 1) t^(i+1) and delta(1) = 0.
"""

from __future__ import annotations

import itertools
import operator

from .rings import RingContext, _depth_cut_error

NEG_INF = float("-inf")


def monomial_operator_apply(ctx: RingContext, k: int, l: int, a):
    """M_{k,l}(delta, sigma) applied to a, via the additive recursion
    M_{k,l} = delta . M_{k-1,l} + sigma . M_{k,l-1}.

    Values are memoized per ring context and input element, so repeated
    series products over the same small carrier cost a dictionary lookup.
    Every call fills the whole rectangle k' <= k, l' <= l, so when
    (k, l', a) is memoized every (k'' <= k, l'' <= l', a) is too, and a
    call only has to fill the columns right of the last complete one.  A
    cell on an edge of the rectangle is sigma (k' = 0) or delta (l' = 0)
    of its one neighbour, and only an interior cell calls ctx.add, once;
    ctx.add, ctx.sigma and ctx.delta are read once per call.
    """
    if k < 0 or l < 0:
        return ctx.zero()
    cache = ctx._mkl_cache
    hit = cache.get((k, l, a))
    if hit is not None:
        return hit
    add, sigma, delta = ctx.add, ctx.sigma, ctx.delta
    first = l
    while first > 0 and (k, first - 1, a) not in cache:
        first -= 1
    for ll in range(first, l + 1):
        for kk in range(k + 1):
            key = (kk, ll, a)
            if key in cache:
                continue
            if kk == 0:
                val = sigma(cache[(0, ll - 1, a)]) if ll else a
            elif ll == 0:
                val = delta(cache[(kk - 1, 0, a)])
            else:
                val = add(delta(cache[(kk - 1, ll, a)]),
                          sigma(cache[(kk, ll - 1, a)]))
            cache[key] = val
    return cache[(k, l, a)]


_NO_TERMS = ()


def _operator_rows(ctx: RingContext, b, top: int) -> tuple:
    """The operator row of b, built or extended to ``top``: rows[n] is the
    tuple of (k, M_{k,n}(b)) for k < d = ctx.mkl_depth() with a nonzero
    value, ordered by k, and the rows with no nonzero value share one empty
    tuple.  The depth is read only here, where a row is built or extended.

    Row n is admitted only once M_{d,n}(b) = 0 is checked.  The recursion
    M_{k,l} = delta . M_{k-1,l} + sigma . M_{k,l-1} then makes every
    M_{k,n}(b) with k > d vanish as well, so every term a kernel skips for
    b is zero.  The new rows come from the family's closed form
    (ctx._closed_rows: zmod and the truncpoly q-twist and delta=zero),
    which checks M_{d,n}(b) from its own weights, and otherwise from the
    recursion (_recursion_rows: delta=broken and any carrier without a
    closed form).

    The rows live in ctx._mkl_rows[b].  An extension stores a new, longer
    tuple and never changes the old one, so whoever holds the rows (a
    product that extended them while they were being built, or another
    thread) holds a correct prefix."""
    table = ctx._mkl_rows
    rows = table.get(b, _NO_TERMS)
    built = len(rows)
    if built < top:
        d = ctx.mkl_depth()
        new = ctx._closed_rows(d, b, built, top)
        if new is None:
            new = _recursion_rows(ctx, d, b, built, top)
        rows = table[b] = rows + new
    return rows


def _recursion_rows(ctx: RingContext, d: int, b, built: int, top: int) -> tuple:
    """Rows n = built .. top - 1 of b at depth d (see _operator_rows) from
    the M_{k,l} memo (ctx._mkl_cache), which one recursion call fills for
    every k <= d and n < top; a nonzero M_{d,n}(b) raises."""
    monomial_operator_apply(ctx, d, top - 1, b)
    memo, zero = ctx._mkl_cache, ctx.zero()
    new = []
    for n in range(built, top):
        if memo[(d, n, b)] != zero:
            raise _depth_cut_error(ctx, d, n, b)
        new.append(tuple((k, v) for k in range(d)
                         if (v := memo[(k, n, b)]) != zero) or _NO_TERMS)
    return tuple(new)


def _add_products(ctx: RingContext, partners, width: int, gb, lb: int,
                  length: int, right_unit: bool):
    """acc[m] += coeff_m(f * g) for m < ``length`` and every partner
    (f, la, acc) of the right factor g = sum b_i x^i, where la is the
    length of f = sum a_j x^j, width the largest la and lb the length of
    g.  Every factor is stored without trailing zeros (a SkewPoly or a
    TruncatedSeries), so la and lb are the lengths of the stored tuples;
    its caller calls only when both are nonzero.  acc needs only the slots
    m < min(la + lb - 1, length): no term reaches further.  This is the
    one loop of the closed formula
        coeff_m(f*g) = sum_{n+i=m} sum_{j>=n} a_j M_{j-n,n}(b_i)
    behind every product; _block_product is its only caller.

    Only terms with j - n < d = ctx.mkl_depth() are summed: M_{k,l} = 0
    for k >= d (see the module docstring for d per family), so the others
    vanish.  The terms come from the operator row of b_i (_operator_rows),
    which admits row n only after checking that its skipped terms vanish:
    one lookup per nonzero b_i, then only its nonzero M_{j-n,n}(b_i), up to
    j < width.  A row is extended when a product needs
    n < min(width, length - i) beyond it.  Each acc[m] gets its terms
    unreduced, in the order of i, n and j.

    A coefficient equal to 1 costs no multiplication.  A left coefficient
    a_j = 1 adds the operator value itself (1*v = v in R).  A right
    coefficient b_i = 1, where x*1 = 1*x (``right_unit``, read once per
    block by the caller), adds a_n to slot i + n for every n, with no
    operator row: sigma(1) = 1 and delta(1) = 0 give M_{0,n}(1) = 1 and
    M_{k,n}(1) = 0 for k >= 1, and a_n*1 = a_n.  A slot that still holds
    the kernel's zero object takes a_n as it is (0 + a = a).  On
    delta=broken (delta(1) = t) a right coefficient 1 takes the full
    formula.

    A single partner (every SkewPoly or TruncatedSeries product, and the
    row steps of k0), whose la is then the width, takes a loop of its own
    with no inner loop over partners: the same ring calls in the same
    order, and the same operator rows.
    """
    zero, one = ctx.zero(), ctx.one()
    add, mul = ctx.add, ctx.mul
    table = ctx._mkl_rows
    single = len(partners) == 1
    if single:
        ((f, la, acc),) = partners
    for i in range(min(lb, length)):
        b = gb[i]
        if b == zero:
            continue
        top = min(width, length - i)
        if right_unit and b == one:
            for f, la, acc in partners:
                for m, a in zip(range(i, i + top), f):
                    if a != zero:
                        s = acc[m]
                        acc[m] = a if s is zero else add(s, a)
            continue
        rows = table.get(b, _NO_TERMS)
        if len(rows) < top:
            rows = _operator_rows(ctx, b, top)
        if single:
            for n, row in zip(range(top), rows):
                m = i + n
                for k, v in row:
                    j = n + k
                    if j >= la:
                        break
                    a = f[j]
                    if a != zero:
                        acc[m] = add(acc[m], v if a == one else mul(a, v))
            continue
        for n, row in zip(range(top), rows):
            m = i + n
            for k, v in row:
                j = n + k
                if j >= width:
                    break
                for f, la, acc in partners:
                    if j < la:
                        a = f[j]
                        if a != zero:
                            acc[m] = add(acc[m],
                                         v if a == one else mul(a, v))


def _accumulator(zero, out_row, c: int, reach: int) -> list:
    """The list of slots of out_row[c], made, or extended with zero slots,
    to at least ``reach`` slots.  A factor held there is copied to a list
    first: the kernel never writes a factor's coefficients."""
    acc = out_row[c]
    if acc is None:
        acc = out_row[c] = [zero] * reach
        return acc
    if type(acc) is not list:
        acc = out_row[c] = list(acc.coeffs)
    if len(acc) < reach:
        acc += [zero] * (reach - len(acc))
    return acc


def _add_by_one(ctx: RingContext, out_row, c: int, factor):
    """out_row[c] += factor * 1 (or 1 * factor), a product by 1, whose
    value is the factor: an output that holds nothing yet takes the factor
    itself, so the caller returns the partner's class as it is, and one
    that holds terms gets the nonzero stored coefficients of the factor
    added with ctx.add.  A factor has no more slots than the product's
    length: a class of S/G_N has at most N, and a polynomial product
    len(f) + len(g)."""
    if out_row[c] is None:
        out_row[c] = factor
        return
    coeffs = factor.coeffs
    zero = ctx.zero()
    acc = _accumulator(zero, out_row, c, len(coeffs))
    add = ctx.add
    for m, a in enumerate(coeffs):
        if a != zero:
            acc[m] = add(acc[m], a)


def _block_product(ctx: RingContext, rows, cols, length: int, out) -> None:
    """out[r][c] += the first ``length`` coefficients of
    sum_p rows[r][p] * cols[c][p], unreduced, for factors (SkewPoly or
    TruncatedSeries) whose coefficient tuples ``coeffs`` have no trailing
    zero: one pass of the closed formula (_add_products) per nonzero right
    factor cols[c][p], shared by every row whose factor rows[r][p] is
    nonzero and not 1.  Every product enters here (see the module
    docstring).  ``out`` is the caller's grid, and out[r][c] holds
    - None: no term yet;
    - a factor: the output is that factor's class so far (a caller's
      addend, or the partner of a product by 1);
    - a list of unreduced slots, which the kernel adds onto.
    A term that reaches a factor's output copies its coefficients to a new
    list first, so no operand is ever written.  An accumulator is made, or
    extended with zero slots, only as far as its products reach, so an
    output that no term reaches keeps what the caller put there.

    Per product, not per pair: the operator row of each right-factor
    coefficient is looked up once for all rows, and ctx.mkl_depth() is read
    only where a row is built or extended (_operator_rows).  A zero factor
    adds no term to any slot, so skipping it leaves every ring call and
    every operator row of the pairwise products.  A single left factor (a
    SkewPoly or TruncatedSeries product, or the row step of k0) takes a
    branch without the block set-up, and a product with one partner (that
    branch, or a column of the block with one nonzero left factor) the
    loop of _add_products for a single partner.

    A factor equal to 1 costs nothing, or additions only.  1*g = g for
    every sigma and delta, since only M_{0,0} = id enters it; f*1 = f needs
    x*1 = 1*x (ctx.one_commutes_with_x(), read once per block), so a right
    factor 1 is taken only where that holds, and on delta=broken it goes
    through the full formula.  The product by 1 of an output that holds
    nothing yet is its partner itself, and otherwise the partner's stored
    coefficients are added (_add_by_one).  Either way the output gets the
    same values: the terms of a product by 1 are the products
    a*1 = 1*a = a in R, and 0 + a = a.  The same holds one level down, for
    a coefficient 1 of any other factor (_add_products): a left coefficient
    1 costs no multiplication, and a right coefficient 1, under the same
    gate, neither a multiplication nor an operator row, because
    sigma(1) = 1 and delta(1) = 0 give M_{0,n}(1) = 1 and M_{k,n}(1) = 0
    for k >= 1.  Each output slot sums its terms in the order of the
    pairwise products: p, then i, n and j."""
    unit = (ctx.one(),)
    right_unit = ctx.one_commutes_with_x()
    if len(rows) == 1 and len(rows[0]) == 1:
        fx = rows[0][0]
        fa = fx.coeffs
        la = len(fa)
        if not la:
            return
        out_row = out[0]
        if fa == unit:
            for c, col in enumerate(cols):
                if col[0].coeffs:
                    _add_by_one(ctx, out_row, c, col[0])
            return
        zero = ctx.zero()
        for c, col in enumerate(cols):
            gb = col[0].coeffs
            lb = len(gb)
            if not lb:
                continue
            if right_unit and gb == unit:
                _add_by_one(ctx, out_row, c, fx)
                continue
            acc = _accumulator(zero, out_row, c, min(la + lb - 1, length))
            _add_products(ctx, ((fa, la, acc),), la, gb, lb, length,
                          right_unit)
        return
    zero = ctx.zero()
    for p in range(len(rows[0]) if rows else 0):
        partners, units, width = [], [], 0
        for row, out_row in zip(rows, out):
            fx = row[p]
            f = fx.coeffs
            if f == unit:
                units.append(out_row)
            elif f:
                la = len(f)
                if la > width:
                    width = la
                partners.append((fx, f, la, out_row))
        if not (partners or units):
            continue
        for c, col in enumerate(cols):
            gx = col[p]
            gb = gx.coeffs
            lb = len(gb)
            if not lb:
                continue
            for out_row in units:
                _add_by_one(ctx, out_row, c, gx)
            if not partners:
                continue
            if right_unit and gb == unit:
                for fx, _, _, out_row in partners:
                    _add_by_one(ctx, out_row, c, fx)
                continue
            group = [(f, la, _accumulator(zero, out_row, c,
                                          min(la + lb - 1, length)))
                     for _, f, la, out_row in partners]
            _add_products(ctx, group, width, gb, lb, length, right_unit)


def _power(one, base, exponent: int, mul=operator.mul):
    """base^exponent by square-and-multiply: the result starts as the base
    at the lowest set bit of the exponent and is then multiplied by the
    base on the right, the base squared in between.  ``one`` is the result
    for exponent 0 only.  ``mul`` is the product, ``*`` unless given (the
    ring's own mul folds powers of elements of R)."""
    if exponent < 0:
        raise ValueError("negative exponents are not defined")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return one if result is None else result


class _LeftForm:
    """An element sum_i a_i x^i in left normal form, stored as the tuple
    ``coeffs`` without trailing zeros: the arithmetic that R[x; sigma,
    delta] (SkewPoly) and its quotient S/G_N (series.TruncatedSeries)
    share.  A subclass keeps only what differs: which operands it accepts
    (_check), how a list of unreduced slots becomes an element (_build)
    and how many slots a product has (_product_length)."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        self._check(other)
        add = self.ctx.add
        return self._build([add(a, b) for a, b in itertools.zip_longest(
            self.coeffs, other.coeffs, fillvalue=self.ctx.zero())])

    def __neg__(self):
        neg = self.ctx.neg
        return self._build([neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The closed formula on the stored coefficients, as a 1x1 block of
        the product kernel (_block_product says which terms it skips and
        why they vanish); its unreduced slots become one element (_build)."""
        self._check(other)
        out = [[None]]
        _block_product(self.ctx, ((self,),), ((other,),),
                       self._product_length(other), out)
        prod = out[0][0]
        if type(prod) is list:
            return self._build(prod)
        if prod is None:
            # no term: a factor is zero, and so is the product
            return other if self.coeffs else self
        # a product by 1: its partner as it is
        return prod

    def __pow__(self, exponent: int):
        # the 1 is built only where it is the result
        if exponent == 0:
            return self._build([self.ctx.one()])
        return _power(None, self, exponent)


class SkewPoly(_LeftForm):
    """Left normal form sum_i a_i x^i; the zero polynomial has no coefficients."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: RingContext, coeffs):
        zero = ctx.zero()
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one(),))

    @classmethod
    def var(cls, ctx):
        return cls(ctx, (ctx.zero(), ctx.one()))

    @classmethod
    def from_scalar(cls, ctx, a):
        return cls(ctx, (a,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ctx.zero()

    def _check(self, other):
        if not isinstance(other, SkewPoly) or (
                other.ctx is not self.ctx and other.ctx != self.ctx):
            raise ValueError("ring context mismatch")

    def _build(self, slots):
        return SkewPoly(self.ctx, slots)

    def _product_length(self, other):
        return len(self.coeffs) + len(other.coeffs)

    # bench/tracer.py patches these two through the class's own __dict__
    __mul__, __pow__ = _LeftForm.__mul__, _LeftForm.__pow__

    def __eq__(self, other):
        return (isinstance(other, SkewPoly)
                and (other.ctx is self.ctx or other.ctx == self.ctx)
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ctx.name, self.coeffs))

    def __repr__(self):
        return f"SkewPoly({self.ctx.name}, {self.render()!r})"

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        ctx = self.ctx
        zero = ctx.zero()
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == zero:
                continue
            cs = ctx.render(c)
            if i == 0:
                parts.append(cs)
                continue
            xp = "x" if i == 1 else f"x^{i}"
            if cs == "1":
                parts.append(xp)
            elif " + " in cs or " - " in cs:
                parts.append(f"({cs})*{xp}")
            else:
                parts.append(f"{cs}*{xp}")
        return " + ".join(parts)


def _x_times(h: SkewPoly) -> SkewPoly:
    # x * (sum b_j x^j) = sum sigma(b_j) x^(j+1) + sum delta(b_j) x^j
    ctx = h.ctx
    out = [ctx.zero()] * (len(h.coeffs) + 1)
    for j, b in enumerate(h.coeffs):
        out[j + 1] = ctx.add(out[j + 1], ctx.sigma(b))
        out[j] = ctx.add(out[j], ctx.delta(b))
    return SkewPoly(ctx, out)


def poly_mul_commutation(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Product computed without the closed formula: build x^i * g by
    iterating the single commutation step, scale from the left by a_i and
    sum.  Used as an independent oracle against SkewPoly.__mul__."""
    if f.ctx != g.ctx:
        raise ValueError("ring context mismatch")
    ctx = f.ctx
    result = SkewPoly.zero(ctx)
    cur = g
    for i, a in enumerate(f.coeffs):
        if i > 0:
            cur = _x_times(cur)
        if a != ctx.zero():
            scaled = SkewPoly(ctx, [ctx.mul(a, c) for c in cur.coeffs])
            result = result + scaled
    return result
