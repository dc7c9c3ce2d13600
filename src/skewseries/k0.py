"""Projective-module rank witnesses over local bases.

Finitely generated projectives are represented as idempotent matrices.
Over a local base with nilpotent radical every idempotent conjugates to
diag(1,...,1,0,...,0); the number of ones is the free rank, i.e. the class
in the Grothendieck group Z*[base].  All certificates are explicit
matrices whose defining identities re-verify by exact multiplication.

Two scalar bases are supported behind one small facade:

* :class:`BaseScalars`    entries from a coefficient ring R
* :class:`SeriesScalars`  entries from a truncation S/G_N; a class is a
  unit iff its constant slot is a unit in R.  Its inverse is found by
  Newton iteration from the inverse of that slot: each round squares
  1 - a*b, which starts in G_1, so ceil(log2 N) rounds of two series
  products reach G_N = 0, and two more check the inverse on both sides.
  The precision doubles each round: round j runs in S/G_(2^j).

The diagonalization pivots on a unit entry.  A nonzero idempotent always
has one: were every entry in the radical, e = e^m would have entries in
arbitrarily deep radical powers and hence vanish.  A unit may sit off the
diagonal with the whole diagonal radical (that genuinely happens, e.g.
the 3x3 all-ones-off-diagonal idempotent over Z/8), so conjugation by
I + E_{ji} is used first to drag such a unit onto the diagonal.

Each pivot step is applied as elementary row and column operations on e, U
and U^-1, O(n^3) in all; the certificate is still re-verified by plain
matrix multiplication: U*U^-1 = I, U^-1*U = I and U*e = D*U, and
(U*e)*U^-1 = D only where the last fails (RankWitness.verify says why the
verdict is the same).  Each step
x + v*y of an operation goes through the base's mul_add, with v_right for
a column, and a matrix product through the base's kernel,
``scalars.mat_mul``.  Over R these are folds of the ring's + and *.  Over
S/G_N each is one call of the block kernel (series.mul_add and
series.matrix_product; skewpoly._block_product says how it sums and
skips terms): a column step is one call for the whole column, and each
changed entry is reduced once, which gives the same class as reducing
every partial sum, since reduction mod I^k is additive.

Most entries these kernels see are zero, so a zero entry costs nothing:
the products with a zero factor are skipped on both bases (keeping the
order of the others), and the outputs that no product reaches share one
zero (over S/G_N, one zero class per product).  Every entry, zero or not,
is still checked against the base.

Most pivots and many entries are 1, and multiplying by 1 costs nothing
where 1 is a two-sided identity, that is over R and over S/G_N when
x*1 = 1*x (sigma(1) = 1 and delta(1) = 0, RingContext.one_commutes_with_x):
a pivot equal to 1 is not inverted and its row and column are not scaled
(idempotent_rank), and over S/G_N the kernel takes a product by a left
factor 1 (1*g = g for every sigma and delta) and, only where x*1 = 1*x, by
a right factor 1 without a multiplication.  SeriesScalars keeps one zero
class and one class of 1.

On delta=broken, where x*1 = x + t at N = 3, pivots and right factors
equal to 1 keep the full path.  A unit of S/G_N whose Newton residual
1 - ab is already zero is inverted without further rounds.  The outputs
are the same classes either way, and every certificate is still verified
by its products.

The random generators draw one sequence of elementary, scaling and swap
steps (_random_steps).  random_invertible applies them to I as row and
column operations; random_conjugate, and random_idempotent through it,
apply them to a copy of the matrix conjugated, in place, where 1 is a
two-sided identity, so no matrix product runs.  On delta=broken, whose
S/G_N is not associative, they build V and V^-1 and take the two products.
"""

from __future__ import annotations

from .report import FrozenRecord, Record
from .rings import RingContext
from .series import (TruncatedSeries, matrix_product, mul_add,
                     random_series)

_MAX_UNIT_RESAMPLES = 10000


class NotIdempotent(ValueError):
    """A matrix given as an idempotent has e*e != e."""


class NotUnimodular(ValueError):
    """A row given as unimodular has no unit entry."""


class _Scalars(Record):
    """A scalar base is a Record of its ring (and precision), so two bases
    are equal when they have the same class and fields.  It is not frozen:
    a subclass may keep more state on its instances.  Each base keeps the
    identity matrices it has built (mat_identity)."""

    __slots__ = ("_identities",)

    def is_local(self):
        return self.ctx.is_local()

    def one_is_two_sided(self):
        """Whether 1*y = y = y*1 for every entry y: always over R, over
        S/G_N where x*1 = 1*x (RingContext.one_commutes_with_x)."""
        return True


class BaseScalars(_Scalars):
    """Matrix entries drawn from the coefficient ring itself."""

    __slots__ = _fields = ("ctx",)

    def __init__(self, ctx: RingContext):
        self.ctx = ctx
        self._identities = {}

    @property
    def description(self):
        return self.ctx.name

    def zero(self):
        return self.ctx.zero()

    def one(self):
        return self.ctx.one()

    def add(self, a, b):
        return self.ctx.add(a, b)

    def neg(self, a):
        return self.ctx.neg(a)

    def mul(self, a, b):
        return self.ctx.mul(a, b)

    def mul_add(self, v, ys, xs=None, v_right=False):
        """[x + v*y for x, y in zip(xs, ys)], or [v*y] with no xs, and
        [x + y*v] (or [y*v]) with v_right; entry by entry, the product
        first.  A product with a zero factor is skipped: its entry is x
        (zero, with no xs)."""
        zero = self.ctx.zero()
        if xs is None:
            xs = [zero] * len(ys)
            add = None
        else:
            add = self.add
        if v == zero:
            return list(xs)
        mul = self.mul
        out = []
        for x, y in zip(xs, ys):
            if y != zero:
                p = mul(y, v) if v_right else mul(v, y)
                x = p if add is None else add(x, p)
            out.append(x)
        return out

    def mat_mul(self, a, b):
        """a * b, each entry the fold acc = acc + x*y over a row and a column,
        in the order of the column, skipping every product with a zero
        factor: it adds nothing.  The entries that no product reaches are
        all the one zero of the ring."""
        add, mul = self.ctx.add, self.ctx.mul
        zero = self.ctx.zero()
        cols = [[(p, y) for p, y in enumerate(col) if y != zero] for col in zip(*b)]
        out = []
        for row in a:
            row = [None if x == zero else x for x in row]
            out_row = []
            for col in cols:
                acc = zero
                for p, y in col:
                    x = row[p]
                    if x is not None:
                        acc = add(acc, mul(x, y))
                out_row.append(acc)
            out.append(tuple(out_row))
        return tuple(out)

    def is_unit(self, a):
        return self.ctx.is_unit(a)

    def inv(self, a):
        return self.ctx.inv(a)

    def sample(self, rng):
        return self.ctx.sample(rng)

    def render(self, a):
        return self.ctx.render(a)


class SeriesScalars(_Scalars):
    """Matrix entries drawn from S/G_N over a local coefficient ring."""

    _fields = ("ctx", "precision")
    __slots__ = _fields + ("_zero", "_one")

    def __init__(self, ctx: RingContext, precision: int):
        self.ctx = ctx
        self.precision = precision
        self._identities = {}
        # one zero class and one class of 1, shared by every caller (classes
        # are never written); TruncatedSeries rejects a precision below 1
        self._zero = TruncatedSeries.zero(ctx, precision)
        self._one = TruncatedSeries.one(ctx, precision)

    @property
    def description(self):
        return f"S/G_{self.precision} over {self.ctx.name}"

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def mul_add(self, v, ys, xs=None, v_right=False):
        """[x + v*y for x, y in zip(xs, ys)], or [v*y] with no xs, and with
        v_right [x + y*v] (or [y*v]): one call of the block kernel for all
        entries, onto the coefficients of x; with v_right they share the
        operator rows of the right factor v (series.mul_add)."""
        return mul_add(self.ctx, self.precision, v, ys, xs, v_right)

    def mat_mul(self, a, b):
        """a * b in one call of the series block kernel (matrix_product)."""
        return matrix_product(self.ctx, self.precision, a, b)

    def one_is_two_sided(self):
        return self.ctx.one_commutes_with_x()

    def is_unit(self, a: TruncatedSeries) -> bool:
        # unit iff the x^0 slot is a unit of R: the rest lies in G_1,
        # which is nilpotent in S/G_N; the zero class has no slot at all
        return bool(a.coeffs) and self.ctx.is_unit(a.coeffs[0])

    def inv(self, a: TruncatedSeries) -> TruncatedSeries:
        """Newton iteration b <- b + b(1 - ab) from b = c0^-1, c0 the x^0
        slot of a, with precision doubling.  1 - ab lies in G_1, each round
        squares it and G_k G_k lies in G_2k, so a b that inverts a mod G_k
        gives one that inverts it mod G_2k, and ceil(log2 N) rounds reach
        G_N = 0.  Round j needs only S/G_(2^j), so it runs on the images of
        a and b there (TruncatedSeries.reduce_precision, a ring map where
        delta is a sigma-derivation; on delta=broken the check decides), the
        last one in S/G_N.  Round 1 runs at N: both of its products have the
        constant factor c0^-1, so they cost a pass over a, and when its
        residual 1 - a*c0^-1 is zero (a constant unit, say) c0^-1 is the
        inverse and no round follows.  A later round whose residual is zero
        keeps b as it is, since b + b*0 = b.  The two-sided check is at N."""
        if not self.is_unit(a):
            raise ValueError("not a unit")
        ctx, precision, one = self.ctx, self.precision, self._one
        b = TruncatedSeries.constant(ctx, precision, ctx.inv(a.coeffs[0]))
        residual = one - a * b if precision > 1 else self._zero
        if not residual.is_zero():
            b = b + b * residual
            p = 2
            while p < precision:
                p = min(2 * p, precision)
                b = TruncatedSeries(ctx, p, b.coeffs)
                if p < precision:
                    residual = (TruncatedSeries.one(ctx, p)
                                - a.reduce_precision(p) * b)
                else:
                    residual = one - a * b
                if not residual.is_zero():
                    b = b + b * residual
        if b * a != one or a * b != one:
            # the text names the geometric series this method replaced; the
            # cli-cold benchmark pins it
            raise AssertionError("geometric inverse failed to verify")
        return b

    def sample(self, rng):
        return random_series(self.ctx, self.precision, rng)

    def render(self, a: TruncatedSeries) -> str:
        return a.to_poly().render()


# -- plain matrix helpers (row-major tuples of tuples) --------------------


def mat_identity(scalars, n):
    """The n x n identity, built once per base and size and then shared:
    matrices are tuples of tuples, never written."""
    ident = scalars._identities.get(n)
    if ident is None:
        ident = scalars._identities[n] = mat_diag(scalars, [1] * n)
    return ident


def mat_mul(scalars, a, b):
    """a * b, by the matrix kernel of the scalar base."""
    inner = len(a[0]) if a else 0
    if inner != len(b):
        raise ValueError("matrix dimension mismatch")
    return scalars.mat_mul(a, b)


def mat_direct_sum(scalars, a, b):
    na, nb = len(a), len(b)
    zero = scalars.zero()
    out = []
    for i in range(na):
        out.append(tuple(a[i]) + (zero,) * nb)
    for i in range(nb):
        out.append((zero,) * na + tuple(b[i]))
    return tuple(out)


def mat_diag(scalars, bits):
    """The diagonal matrix with 1 where bits[i] is true and 0 elsewhere."""
    one, zero = scalars.one(), scalars.zero()
    rows = []
    for i, bit in enumerate(bits):
        row = [zero] * len(bits)
        if bit:
            row[i] = one
        rows.append(tuple(row))
    return tuple(rows)


def _mutually_inverse(scalars, a, b):
    """a*b = I and b*a = I, checked in that order."""
    ident = mat_identity(scalars, len(a))
    return mat_mul(scalars, a, b) == ident and mat_mul(scalars, b, a) == ident


def _pad_to(e, n):
    """e embedded in the top-left corner of an n x n zero matrix.  An input
    already of size n is returned as it is, since wrapping it again would
    only repeat the e*e = e check; a padded one is wrapped and checked."""
    if e.size == n:
        return e
    pad = mat_diag(e.scalars, [0] * (n - e.size))
    return IdempotentMatrix(e.scalars, mat_direct_sum(e.scalars, e.entries, pad))


class IdempotentMatrix(FrozenRecord):
    """A square matrix e with e*e = e over the given scalar base."""

    __slots__ = _fields = ("scalars", "entries")

    def __init__(self, scalars, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix is not square")
        if n and mat_mul(scalars, entries, entries) != entries:
            raise NotIdempotent("not idempotent")
        super().__init__(scalars, entries)

    @property
    def size(self):
        return len(self.entries)


class RankWitness(FrozenRecord):
    """Certificate that conjugator * e * conjugator_inv = diag(1^rank, 0...)."""

    __slots__ = _fields = ("scalars", "matrix", "rank", "conjugator",
                           "conjugator_inv")

    def diagonal_form(self):
        bits = [1] * self.rank + [0] * (len(self.matrix) - self.rank)
        return mat_diag(self.scalars, bits)

    def verify(self) -> bool:
        """U*U^-1 = I, U^-1*U = I and (U*e)*U^-1 = D = diag(1^rank, 0...),
        the last in one product where it can: when 0 <= rank <= n and U*e
        equals D*U (the first ``rank`` rows of U above zero rows, built by
        selecting rows), the certificate holds, and (U*e)*U^-1 = D is
        checked in full only otherwise.

        The short cut gives the same verdict as the full check on every
        input, associative or not.  Both matrix kernels (BaseScalars.mat_mul
        and series.matrix_product) compute row i of a product from row i
        of its left factor and the right factor alone, and a zero row gives
        a zero row.  So when U*e = D*U and U*U^-1 = I, row i of
        (U*e)*U^-1 is row i of U*U^-1 = I for i < rank and zero below:
        that is D.  The range check is needed: U[:rank] is all of U for a
        rank above n, so on e = I such a rank passes the row comparison,
        while D then has the wrong size and the full check rejects it (a
        negative rank would slice U from its end).  In an associative base
        every valid certificate has U*e = D*U (multiply U*e*U^-1 = D by U
        on the right), so the full product runs only for a wrong
        certificate or a non-associative base (delta=broken)."""
        s, u, rank = self.scalars, self.conjugator, self.rank
        if not _mutually_inverse(s, u, self.conjugator_inv):
            return False
        ue = mat_mul(s, u, self.matrix)
        n = len(self.matrix)
        if 0 <= rank <= n:
            zero_row = (s.zero(),) * n
            if ue == tuple(u[:rank]) + (zero_row,) * (n - rank):
                return True
        return mat_mul(s, ue, self.conjugator_inv) == self.diagonal_form()


class _ElementaryOps:
    """Conjugation by an elementary matrix g, in place: each operation
    multiplies the matrices in rows by g on the left and those in cols by
    g^-1 on the right.  Entries need not commute, so row operations multiply
    from the left and column operations from the right.

    A row step is one call of the base's mul_add per matrix, a column step
    one call of mul_add with v_right on the column of every matrix in cols.
    Over R these fold through the base's add and mul entry by entry.  Over
    S/G_N each is one call of the block kernel that accumulates onto the
    coefficients of the entries it changes, and the column step shares the
    right factor's operator rows between all of them
    (series.mul_add)."""

    def __init__(self, scalars, rows, cols):
        self.scalars, self.rows, self.cols = scalars, rows, cols
        self.zero = scalars.zero()

    def add(self, i, j, v, neg_v=None):
        """g = I + v E_ij: row_i += v*row_j and col_j -= col_i*v.  A caller
        that holds -v passes it as neg_v, so the column step does not
        negate v again."""
        if v == self.zero:
            return
        s = self.scalars
        for m in self.rows:
            m[i] = s.mul_add(v, m[j], m[i])
        cells = [row for m in self.cols for row in m]
        column = s.mul_add(s.neg(v) if neg_v is None else neg_v,
                           [row[i] for row in cells],
                           [row[j] for row in cells], v_right=True)
        for row, x in zip(cells, column):
            row[j] = x

    def scale(self, i, c, c_inv):
        """g = I + (c - 1) E_ii, c a unit: row_i = c*row_i, col_i = col_i*c^-1."""
        s = self.scalars
        for m in self.rows:
            m[i] = s.mul_add(c, m[i])
        cells = [row for m in self.cols for row in m]
        column = s.mul_add(c_inv, [row[i] for row in cells], v_right=True)
        for row, x in zip(cells, column):
            row[i] = x

    def swap(self, i, j):
        """g the transposition of i and j: swaps rows, then columns."""
        for m in self.rows:
            m[i], m[j] = m[j], m[i]
        for m in self.cols:
            for row in m:
                row[i], row[j] = row[j], row[i]


def _find_unit_entry(scalars, a, start):
    """Position of a unit in the trailing block a[start:, start:], diagonal
    first; None when every entry there is a non-unit."""
    n = len(a)
    for i in range(start, n):
        if scalars.is_unit(a[i][i]):
            return i, i
    for i in range(start, n):
        for j in range(start, n):
            if i != j and scalars.is_unit(a[i][j]):
                return i, j
    return None


def idempotent_rank(e: IdempotentMatrix) -> RankWitness:
    """Diagonalize an idempotent over a local base by explicit conjugations.

    Each round finds a unit pivot in the trailing block (dragging an
    off-diagonal unit onto the diagonal if necessary), permutes it to the
    corner, conjugates so the pivot column becomes a standard basis vector
    (idempotency makes the pivot column a fixed vector of the matrix) and
    clears the pivot row; the trailing block stays idempotent and the
    recursion continues.  When the trailing block has no unit it must be
    identically zero, which is verified rather than assumed.

    A pivot equal to 1 is neither inverted nor scaled by when 1 is a
    two-sided identity of the base (scalars.one_is_two_sided(): always over
    R, over S/G_N where x*1 = 1*x), since scaling by 1 changes nothing
    there; on delta=broken it takes the full path.  The pivot column is
    checked after the step either way.
    """
    scalars = e.scalars
    if not scalars.is_local():
        raise ValueError("unsupported base")
    n = e.size
    a = [list(row) for row in e.entries]
    u = [list(row) for row in mat_identity(scalars, n)]
    uinv = [list(row) for row in mat_identity(scalars, n)]
    ops = _ElementaryOps(scalars, rows=(a, u), cols=(a, uinv))
    zero, one = scalars.zero(), scalars.one()

    pivot_row = 0
    while pivot_row < n:
        pos = _find_unit_entry(scalars, a, pivot_row)
        if pos is None:
            for i in range(pivot_row, n):
                for j in range(pivot_row, n):
                    if a[i][j] != zero:
                        raise AssertionError(
                            "radical-entry idempotent block is nonzero")
            break
        i, j = pos
        if i != j:
            # unit at (i, j): conjugating by I + E_{j,i} adds it to (j, j)
            ops.add(j, i, one)
            i = j
        if i != pivot_row:
            ops.swap(pivot_row, i)
        # basis change sending e_pivot to the pivot column of a; since the
        # column is fixed by the idempotent, the new pivot column is e_pivot.
        # The change is (D L)^-1 with D the pivot on the diagonal and L the
        # column below it, both read before the step.
        col = [row[pivot_row] for row in a]
        pivot = col[pivot_row]
        if pivot != one or not scalars.one_is_two_sided():
            ops.scale(pivot_row, scalars.inv(pivot), pivot)
        for r in range(pivot_row + 1, n):
            # v = -col[r], so the column step's -v is col[r] itself; a zero
            # entry needs no step, and is not negated
            if col[r] != zero:
                ops.add(r, pivot_row, scalars.neg(col[r]), col[r])
        if a[pivot_row][pivot_row] != one or any(
                a[r][pivot_row] != zero for r in range(n) if r != pivot_row):
            raise AssertionError("pivot column failed to normalize")
        # clear the pivot row; idempotency forces the cleared block to stay put
        clear = a[pivot_row][:]
        for c in range(pivot_row + 1, n):
            ops.add(pivot_row, c, clear[c])
        if any(a[pivot_row][c] != zero for c in range(n) if c != pivot_row):
            raise AssertionError("pivot row failed to clear")
        pivot_row += 1

    rank = pivot_row
    witness = RankWitness(
        scalars=scalars,
        matrix=e.entries,
        rank=rank,
        conjugator=tuple(tuple(row) for row in u),
        conjugator_inv=tuple(tuple(row) for row in uinv),
    )
    if not witness.verify():
        raise AssertionError("rank certificate failed to verify")
    return witness


class StableIsoWitness(FrozenRecord):
    """W * (e1 (+) I_t) * W^-1 = e2 (+) I_t after zero-padding to a common size."""

    __slots__ = _fields = ("scalars", "t", "left", "right", "conjugator",
                           "conjugator_inv")

    def verify(self) -> bool:
        """W*W^-1 = I, W^-1*W = I and (W*lhs)*W^-1 = rhs, all in full.  The
        short cut of RankWitness.verify does not apply: rhs is not a 0/1
        diagonal, so W*lhs = rhs*W gives (W*lhs)*W^-1 = rhs only through
        (rhs*W)*W^-1 = rhs*(W*W^-1), which needs associativity."""
        s = self.scalars
        ident_t = mat_identity(s, self.t)
        lhs = mat_direct_sum(s, self.left, ident_t) if self.t else self.left
        rhs = mat_direct_sum(s, self.right, ident_t) if self.t else self.right
        return (_mutually_inverse(s, self.conjugator, self.conjugator_inv)
                and mat_mul(s, mat_mul(s, self.conjugator, lhs),
                            self.conjugator_inv) == rhs)


def stable_iso_witness(e1: IdempotentMatrix, e2: IdempotentMatrix):
    """Least t with e1 (+) I_t conjugate to e2 (+) I_t, as an explicit
    witness, or None.  Over a local base padding by I_t shifts both ranks
    equally, so a witness exists iff the ranks agree, and then t = 0 works.
    """
    return _stable_iso(e1, e2)[2]


def _stable_iso(e1: IdempotentMatrix, e2: IdempotentMatrix):
    """(rank witness of e1, rank witness of e2, stable_iso_witness(e1, e2)),
    diagonalizing and verifying each input once."""
    if e1.scalars != e2.scalars:
        raise ValueError("base mismatch")
    scalars = e1.scalars
    n = max(e1.size, e2.size)
    w1, w2 = (idempotent_rank(_pad_to(e, n)) for e in (e1, e2))
    if w1.rank != w2.rank:
        return w1, w2, None
    conj = mat_mul(scalars, w2.conjugator_inv, w1.conjugator)
    conj_inv = mat_mul(scalars, w1.conjugator_inv, w2.conjugator)
    witness = StableIsoWitness(
        scalars=scalars, t=0, left=w1.matrix, right=w2.matrix,
        conjugator=conj, conjugator_inv=conj_inv)
    if not witness.verify():
        raise AssertionError("stable isomorphism certificate failed to verify")
    return w1, w2, witness


class StablyFreeWitness(FrozenRecord):
    """Mutually inverse module maps exhibiting image(e) (+) R^s = R^(r+s).

    forward (n+s) x (r+s) and backward (r+s) x (n+s) satisfy, exactly,
    backward*forward = I_(r+s) and forward*backward = e (+) I_s, i.e. the
    composites are the identity on both summands.
    """

    __slots__ = _fields = ("scalars", "matrix", "rank", "s", "forward",
                           "backward")

    def verify(self) -> bool:
        sc = self.scalars
        r, s = self.rank, self.s
        if r + s == 0:
            # image(e) and the padding are both zero modules
            zero = sc.zero()
            return all(x == zero for row in self.matrix for x in row)
        if mat_mul(sc, self.backward, self.forward) != mat_identity(sc, r + s):
            return False
        target = mat_direct_sum(sc, self.matrix, mat_identity(sc, s)) \
            if s else self.matrix
        return mat_mul(sc, self.forward, self.backward) == target


def stably_free_witness(e: IdempotentMatrix, s: int) -> StablyFreeWitness:
    """Constructive stable freeness from a rank certificate: with
    U e U^-1 = diag(1^r, 0), the maps w -> w U^-1[:, :r] and z -> z U[:r, :]
    are inverse isomorphisms between image(e) and R^r; padding both with
    I_s gives image(e) (+) R^s = R^(r+s); over a local base no further
    free summand is needed."""
    if s < 0:
        raise ValueError("free padding must be >= 0")
    scalars = e.scalars
    w = idempotent_rank(e)
    r, n = w.rank, e.size
    zero, ident = scalars.zero(), mat_identity(scalars, s)
    # forward (n+s) x (r+s): the rows of U^-1 cut to r entries, then I_s,
    # each padded with zeros
    forward = tuple(row[:r] + (zero,) * s for row in w.conjugator_inv) \
        + tuple((zero,) * r + row for row in ident)
    # backward (r+s) x (n+s): U[:r], then I_s, each padded with zeros
    backward = tuple(row + (zero,) * s for row in w.conjugator[:r]) \
        + tuple((zero,) * n + row for row in ident)
    witness = StablyFreeWitness(
        scalars=scalars, matrix=e.entries, rank=r, s=s,
        forward=forward, backward=backward)
    if not witness.verify():
        raise AssertionError("stably-free certificate failed to verify")
    return witness


class CompletedRow(FrozenRecord):
    """Invertible matrix whose first row is the given unimodular row."""

    __slots__ = _fields = ("scalars", "row", "matrix", "inverse")

    def verify(self) -> bool:
        return (self.matrix[0] == tuple(self.row)
                and _mutually_inverse(self.scalars, self.matrix, self.inverse))


def unimodular_complete(scalars, row) -> CompletedRow:
    """Complete a unimodular row over a local base to an invertible matrix.

    Over a local ring a row is unimodular iff some entry is a unit; the
    completion keeps the standard basis vectors away from that entry's
    column, and the inverse is written down in closed form."""
    row = tuple(row)
    n = len(row)
    if n == 0:
        raise ValueError("empty row")
    unit_at = None
    for idx, entry in enumerate(row):
        if scalars.is_unit(entry):
            unit_at = idx
            break
    if unit_at is None:
        raise NotUnimodular("not unimodular")
    ident = mat_identity(scalars, n)
    others = [j for j in range(n) if j != unit_at]
    matrix = (row,) + tuple(ident[j] for j in others)
    ainv = scalars.inv(row[unit_at])
    top = (ainv,) + tuple(scalars.neg(scalars.mul(ainv, row[j])) for j in others)
    # row j != unit_at of M^-1 is the identity row at j's row index in M
    inverse = tuple(top if j == unit_at else ident[j + (j < unit_at)]
                    for j in range(n))
    completed = CompletedRow(scalars=scalars, row=row, matrix=matrix,
                             inverse=inverse)
    if not completed.verify():
        raise AssertionError("row completion failed to verify")
    return completed


# -- random generation ----------------------------------------------------


def _sample_unit(scalars, rng):
    for _ in range(_MAX_UNIT_RESAMPLES):
        a = scalars.sample(rng)
        if scalars.is_unit(a):
            return a
    raise RuntimeError("failed to sample a unit")


def _random_steps(scalars, n, rng, ops):
    """Draw the elementary, unit-scaling and swap matrices E_1, ..., E_k of
    a random n x n invertible and apply each, in that order, through ops.
    This is the one place the draw order is written; the benchmark builds
    its inputs from these draws, so it must not change."""
    steps = rng.randint(n + 1, 2 * n + 2)
    for _ in range(steps):
        kind = rng.randrange(3) if n > 1 else 1
        i = rng.randrange(n)
        if kind == 1:
            unit = _sample_unit(scalars, rng)
            ops.scale(i, unit, scalars.inv(unit))
            continue
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        if kind == 0:
            ops.add(i, j, scalars.sample(rng))
        else:
            ops.swap(i, j)


def random_invertible(scalars, n, rng):
    """Product V = E_k...E_1 of random elementary, unit-scaling and swap
    matrices, applied as row operations; the inverse E_1^-1...E_k^-1 is
    accumulated alongside by the inverse column operations, so the pair is
    exact by construction."""
    m = [list(row) for row in mat_identity(scalars, n)]
    minv = [list(row) for row in mat_identity(scalars, n)]
    _random_steps(scalars, n, rng, _ElementaryOps(scalars, rows=(m,), cols=(minv,)))
    return tuple(map(tuple, m)), tuple(map(tuple, minv))


def random_conjugate(scalars, entries, rng):
    """V * entries * V^-1 for the V that random_invertible would draw from
    the same state of rng, which is left where random_invertible leaves it.

    Where 1 is a two-sided identity of the base (scalars.one_is_two_sided():
    always over R, over S/G_N where x*1 = 1*x), each step E_j is applied to
    a copy of entries in place, as a row and then a column operation:
    E_k...E_1 * entries * E_1^-1...E_k^-1 is V * entries * V^-1 wherever
    the entries multiply associatively, and V is never built.  On
    delta=broken, whose S/G_N is not associative, V and V^-1 are built and
    the two products taken, so the matrix (or the error) is theirs."""
    n = len(entries)
    if not scalars.one_is_two_sided():
        v, vinv = random_invertible(scalars, n, rng)
        return mat_mul(scalars, mat_mul(scalars, v, entries), vinv)
    a = [list(row) for row in entries]
    _random_steps(scalars, n, rng, _ElementaryOps(scalars, rows=(a,), cols=(a,)))
    return tuple(map(tuple, a))


def random_idempotent(scalars, n, rng):
    """Conjugate of a random 0/1 diagonal by random_conjugate: idempotent by
    construction, and checked (IdempotentMatrix).  Returns (matrix, number
    of ones)."""
    ones = rng.randint(0, n)
    d = mat_diag(scalars, [1] * ones + [0] * (n - ones))
    return IdempotentMatrix(scalars, random_conjugate(scalars, d, rng)), ones
