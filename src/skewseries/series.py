"""Truncated twisted power series and their filtration/graded structure.

With R finite local, I = J(R) nilpotent and sigma, delta as in
:mod:`skewseries.rings`, the twisted power series ring S = R[[x; sigma,
delta]] carries the descending chain of two-sided ideals

    G_k = prod_i I^(k-i) x^i        (I^j = R for j <= 0).

The quotients S/G_N are finite and exactly computable: a class is stored
as coefficients (c_0, ..., c_{L-1}), L <= N, with c_i the canonical
representative mod I^(N-i) and the slots from L to N-1 zero; like a
SkewPoly, a class keeps no trailing zero slot, so c_{L-1} != 0 and the zero
class has no slots.  Truncating by G_N rather than by x-degree is deliberate:
when delta != 0 the x-degree cut is not a two-sided ideal (delta pushes
high-degree terms down), while G_N always is.

The associated graded ring of the filtration is modelled on
Gr_I(R)[xbar; sigma_bar, delta_bar]: homogeneous pieces are indexed by
(radical layer i, xbar-degree l) of total degree i+l, sigma_bar acts
layerwise, and delta_bar raises the layer by one while lowering the
xbar-degree, so it lands in the same total degree.  The delta_bar term is
kept because it is generally nonzero on deeper layers (for the q-twist
preset, delta(t) = t^2 sits exactly one layer down), and dropping it would
break multiplicativity of the principal symbol.
"""

from __future__ import annotations

import random

from .report import FrozenRecord
from .rings import RingContext
from .skewpoly import (SkewPoly, _LeftForm, _block_product,
                       monomial_operator_apply)


def _check_compat(ctx: RingContext, precision: int, other):
    """Raise ValueError unless other is a class of the same S/G_N."""
    if not isinstance(other, TruncatedSeries) or (
            other.ctx is not ctx and other.ctx != ctx):
        raise ValueError("ring context mismatch")
    if other.precision != precision:
        raise ValueError("precision mismatch")


class TruncatedSeries(_LeftForm):
    """A class in S/G_N, stored as canonical quotient coefficients without
    trailing zero slots.  Sums and products are taken on the lifted
    representatives and reduced once at the end (_from_slots): G_N is a
    two-sided ideal, so the class does not depend on the lifts."""

    __slots__ = ("ctx", "precision", "coeffs")

    def __init__(self, ctx: RingContext, precision: int, coeffs):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self._reduce_into(ctx, precision, list(coeffs)[:precision])

    @classmethod
    def _from_slots(cls, ctx: RingContext, precision: int, slots: list):
        """The class of sum slots[i] x^i, for a list of at most ``precision``
        unreduced coefficients that it takes over: the constructor of sums,
        negations and kernel outputs, without the public one's copy and
        cut."""
        self = object.__new__(cls)
        self._reduce_into(ctx, precision, slots)
        return self

    def _reduce_into(self, ctx, precision, slots):
        # slot i is taken mod I^(N-i), and I^k = 0 once k reaches the
        # nilpotency, so only the slots with N - i below it are reduced;
        # then the zero slots that end the list, given or left by the
        # reduction, are dropped
        reduce = ctx._reduce
        n = len(slots)
        for i in range(max(precision - ctx.radical_nilpotency + 1, 0), n):
            slots[i] = reduce(slots[i], precision - i)
        zero = ctx.zero()
        while n and slots[n - 1] == zero:
            n -= 1
        del slots[n:]
        self.ctx = ctx
        self.precision = precision
        self.coeffs = tuple(slots)

    @classmethod
    def from_poly(cls, f: SkewPoly, precision: int) -> "TruncatedSeries":
        """Image of a skew polynomial under T -> S -> S/G_N."""
        return cls(f.ctx, precision, f.coeffs)

    @classmethod
    def zero(cls, ctx, precision):
        return cls(ctx, precision, ())

    @classmethod
    def one(cls, ctx, precision):
        return cls(ctx, precision, (ctx.one(),))

    @classmethod
    def var(cls, ctx, precision):
        return cls.from_poly(SkewPoly.var(ctx), precision)

    @classmethod
    def constant(cls, ctx, precision, a):
        return cls(ctx, precision, (a,))

    def to_poly(self) -> SkewPoly:
        """The canonical polynomial representative (degree < N).  It shares
        the stored coefficients, which are already a SkewPoly's: no trailing
        zero."""
        poly = object.__new__(SkewPoly)
        poly.ctx, poly.coeffs = self.ctx, self.coeffs
        return poly

    def _check(self, other):
        # the inline test passes on nearly every call; _check_compat gives
        # the error text where it does not
        if not (type(other) is TruncatedSeries and other.ctx is self.ctx
                and other.precision == self.precision):
            _check_compat(self.ctx, self.precision, other)

    def _build(self, slots):
        return TruncatedSeries._from_slots(self.ctx, self.precision, slots)

    def _product_length(self, other):
        return self.precision

    # bench/tracer.py patches this through the class's own __dict__
    __mul__ = _LeftForm.__mul__

    def __eq__(self, other):
        # the coefficients differ first on most unequal pairs, and the
        # context is nearly always the same object
        return other is self or (
            isinstance(other, TruncatedSeries) and other.coeffs == self.coeffs
            and other.precision == self.precision
            and (other.ctx is self.ctx or other.ctx == self.ctx))

    def __hash__(self):
        return hash((self.ctx.name, self.precision, self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries({self.ctx.name}, {self.render()!r})"

    def filtration_degree(self) -> int:
        """Largest k <= N with self in G_k/G_N; N exactly for the zero class.

        Membership in G_k asks val(c_i) >= k - i for every slot, so the
        degree is min_i (val(c_i) + i) capped at N."""
        d = self.precision
        zero = self.ctx.zero()
        for i, c in enumerate(self.coeffs):
            if c != zero:
                d = min(d, self.ctx.ideal_valuation(c) + i)
        return d

    def reduce_precision(self, new_precision: int) -> "TruncatedSeries":
        """The image under S/G_N -> S/G_M for M <= N."""
        if not 1 <= new_precision <= self.precision:
            raise ValueError("can only reduce to a coarser precision")
        return TruncatedSeries(self.ctx, new_precision, self.coeffs[:new_precision])

    def render(self) -> str:
        ctx = self.ctx
        zero = ctx.zero()
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == zero:
                continue
            cs = ctx.render(c)
            if " + " in cs or " - " in cs:
                cs = f"({cs})"
            term = f"{cs} (mod {ctx.ideal_power_label(self.precision - i)})"
            if i == 1:
                term += "*x"
            elif i > 1:
                term += f"*x^{i}"
            parts.append(term)
        body = " + ".join(parts) if parts else "0"
        return f"{body} [N={self.precision}]"


def _check_entries(ctx: RingContext, precision: int, m) -> None:
    """Check every entry of m against S/G_N, row by row (_check_compat where
    the inline test does not pass, so every error keeps its text)."""
    for row in m:
        for x in row:
            if not (type(x) is TruncatedSeries and x.ctx is ctx
                    and x.precision == precision):
                _check_compat(ctx, precision, x)


def matrix_product(ctx: RingContext, precision: int, a, b) -> tuple:
    """a * b for matrices of classes in S/G_N, as one call of the block
    kernel (skewpoly._block_product).

    Each entry of a and b, zero or not, is checked against S/G_N once, row
    by row, a first.  The kernel reads each entry's stored coefficients,
    which end in a nonzero slot, skips the zero entries, takes a factor
    equal to 1 where it can (see _block_product), and looks up the operator
    row of each coefficient of each other nonzero entry of b once for every
    row.  The unreduced products of a row and a column are summed slot by
    slot, in accumulators only as long as the products reach, and each slot
    is reduced once.  That is the class the fold of + and * gives: a
    product with a zero factor adds nothing, the canonical representative
    mod I^k does not depend on whether the summands were reduced first, and
    the ring multiplications are the same ones but for those by 1.  An
    output whose only term is a product by 1 is the partner entry itself,
    and the outputs that no pair of nonzero entries reaches share one zero
    class, built on first need."""
    _check_entries(ctx, precision, a)
    _check_entries(ctx, precision, b)
    cols = list(zip(*b))
    out = [[None] * len(cols) for _ in a]
    _block_product(ctx, a, cols, precision, out)
    build = TruncatedSeries._from_slots
    zero = None
    for row in out:
        for c, prod in enumerate(row):
            if type(prod) is list:
                row[c] = build(ctx, precision, prod)
            elif prod is None:
                if zero is None:
                    zero = TruncatedSeries.zero(ctx, precision)
                row[c] = zero
    return tuple(map(tuple, out))


def mul_add(ctx: RingContext, precision: int, v, others, addends=None,
            v_right: bool = False) -> list:
    """[x + v*y for x, y in zip(addends, others)] in S/G_N, or [x + y*v]
    with v_right; with no addends the plain products v*y (y*v).  These are
    the row and column steps of the elementary operations in k0.

    The step is one block product (skewpoly._block_product): v as a 1x1
    block times the 1xk row of the y, or with v_right the kx1 column of
    the y times v, so the operator rows of the coefficients of v are looked
    up once for all y.  The output of an entry starts as x (as nothing with
    no addends or a zero x), and the terms of the product are added onto a
    copy of the coefficients of x, unreduced; the entry is reduced once,
    when its one TruncatedSeries is built.  That is the class x + v*y
    gives: reduction mod I^k is additive, so the canonical representative
    of x + P is that of x + (P reduced).  An entry whose y is zero is x
    itself (y itself, with no addends), and one whose only term is a
    product by 1 with nothing to add it to is its partner itself."""
    out = list(others if addends is None else addends)
    _check_entries(ctx, precision, ((v, *others, *(addends or ())),))
    if not v.coeffs:
        # v*y = 0 = v: each entry is x, or the zero class v with no addends
        return out if addends is not None else [v] * len(out)
    ys = [(y,) for y in others]
    if v_right:
        cells = [[x if addends is not None and x.coeffs else None] for x in out]
        _block_product(ctx, ys, ((v,),), precision, cells)
        prods = [cell[0] for cell in cells]
    else:
        prods = [x if addends is not None and x.coeffs else None for x in out]
        _block_product(ctx, ((v,),), ys, precision, [prods])
    for idx, prod in enumerate(prods):
        if type(prod) is list:
            out[idx] = TruncatedSeries._from_slots(ctx, precision, prod)
        elif prod is not None:
            out[idx] = prod
    return out


class GradedElem(FrozenRecord):
    """Element of the associated graded ring, as a map
    (radical layer i, xbar-degree l) -> canonical representative of
    I^i/I^(i+1); every stored component is nonzero in its layer."""

    __slots__ = _fields = ("ctx", "components")

    @classmethod
    def build(cls, ctx: RingContext, items) -> "GradedElem":
        """Accumulate raw (layer, xdeg) -> value contributions, reduce each
        into its layer quotient and drop the ones that vanish there."""
        zero = ctx.zero()
        nil = ctx.radical_nilpotency
        acc = {}
        for (layer, xdeg), val in items:
            if layer < 0 or xdeg < 0:
                raise ValueError("negative graded index")
            if layer >= nil:
                continue
            key = (layer, xdeg)
            acc[key] = ctx.add(acc.get(key, zero), val)
        comps = []
        for key in sorted(acc, key=lambda kv: (kv[1], kv[0])):
            layer, _ = key
            raw = acc[key]
            if ctx.ideal_valuation(raw) < layer:
                raise ValueError("component representative outside its radical layer")
            rep = ctx.reduce_clamped(raw, layer + 1)
            if rep != zero:
                comps.append((key, rep))
        return cls(ctx, tuple(comps))

    @classmethod
    def one(cls, ctx):
        return cls.build(ctx, [((0, 0), ctx.one())])

    def is_zero(self) -> bool:
        return not self.components

    def __mul__(self, other):
        """Layerwise Ore product.  Moving xbar^l past a layer-j class b uses
        the rearrangement xbar^l b = sum_n M_{l-n,n}(b) xbar^n where each
        delta factor raises the radical layer by one, preserving the total
        degree; contributions whose layer reaches the nilpotency index die."""
        if not isinstance(other, GradedElem) or other.ctx != self.ctx:
            raise ValueError("ring context mismatch")
        ctx = self.ctx
        nil = ctx.radical_nilpotency
        items = []
        for (i, l), a in self.components:
            for (j, mdeg), b in other.components:
                for n in range(l + 1):
                    k = l - n
                    layer = i + j + k
                    if layer >= nil:
                        continue
                    v = monomial_operator_apply(ctx, k, n, b)
                    items.append(((layer, n + mdeg), ctx.mul(a, v)))
        return GradedElem.build(ctx, items)

    def render(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for (layer, xdeg), rep in self.components:
            cs = self.ctx.render(rep)
            if " + " in cs or " - " in cs:
                cs = f"({cs})"
            term = f"{cs} (layer {layer})"
            if xdeg == 1:
                term += "*xbar"
            elif xdeg > 1:
                term += f"*xbar^{xdeg}"
            parts.append(term)
        return " + ".join(parts)


def principal_symbol(f: TruncatedSeries) -> GradedElem:
    """Image of a nonzero class in G_k/G_(k+1), k its filtration degree:
    one component (layer k-i, xdeg i) for each slot whose valuation sits
    exactly on the boundary."""
    if f.is_zero():
        raise ValueError("zero has no principal symbol")
    ctx = f.ctx
    k = f.filtration_degree()
    zero = ctx.zero()
    items = []
    for i, c in enumerate(f.coeffs):
        if c != zero and ctx.ideal_valuation(c) == k - i:
            items.append(((k - i, i), c))
    return GradedElem.build(ctx, items)


# -- random generators --------------------------------------------------


def random_series(ctx: RingContext, precision: int, rng: random.Random) -> TruncatedSeries:
    return TruncatedSeries(ctx, precision, [ctx.sample(rng) for _ in range(precision)])
