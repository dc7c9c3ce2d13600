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

The diagonalization pivots on a unit entry.  A nonzero idempotent always
has one: were every entry in the radical, e = e^m would have entries in
arbitrarily deep radical powers and hence vanish.  A unit may sit off the
diagonal with the whole diagonal radical (that genuinely happens, e.g.
the 3x3 all-ones-off-diagonal idempotent over Z/8), so conjugation by
I + E_{ji} is used first to drag such a unit onto the diagonal.

Each pivot step is applied as elementary row and column operations on e, U
and U^-1, O(n^3) in all; the certificate is still re-verified by plain
matrix multiplication, with every identity checked in full.  A matrix
product is one call of the base's kernel, ``scalars.mat_mul``.  Over R each
entry is the fold of + and *.  Over S/G_N the whole product is one pass of
the block kernel (series.matrix_product): each entry is checked and trimmed
once, the monomial operator values of each entry of the right factor are
fetched once for every row, and each slot of an entry is summed unreduced
and reduced once, which gives the same class as reducing every partial sum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .report import CheckReport
from .rings import RingContext
from .series import TruncatedSeries, matrix_product

_MAX_UNIT_RESAMPLES = 10000


class _Scalars:
    """Scalar bases compare and hash by their signature."""

    def __eq__(self, other):
        return isinstance(other, _Scalars) and other.signature == self.signature

    def __hash__(self):
        return hash(self.signature)

    def is_local(self):
        return self.ctx.is_local()


class BaseScalars(_Scalars):
    """Matrix entries drawn from the coefficient ring itself."""

    def __init__(self, ctx: RingContext):
        self.ctx = ctx
        self.description = ctx.name

    @property
    def signature(self):
        return ("base", self.ctx.name)

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

    def mat_mul(self, a, b):
        """a * b, each entry the fold acc = acc + x*y over a row and a column."""
        add, mul = self.ctx.add, self.ctx.mul
        zero = self.ctx.zero()
        cols = tuple(zip(*b))
        out = []
        for row in a:
            out_row = []
            for col in cols:
                acc = zero
                for x, y in zip(row, col):
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

    def __init__(self, ctx: RingContext, precision: int):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self.ctx = ctx
        self.precision = precision
        self.description = f"S/G_{precision} over {ctx.name}"

    @property
    def signature(self):
        return ("series", self.ctx.name, self.precision)

    def zero(self):
        return TruncatedSeries.zero(self.ctx, self.precision)

    def one(self):
        return TruncatedSeries.one(self.ctx, self.precision)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def mat_mul(self, a, b):
        """a * b in one pass of the series block kernel (matrix_product)."""
        return matrix_product(self.ctx, self.precision, a, b)

    def is_unit(self, a: TruncatedSeries) -> bool:
        # unit iff the x^0 slot is a unit of R: the rest lies in G_1,
        # which is nilpotent in S/G_N
        return self.ctx.ideal_valuation(a.coeffs[0]) == 0

    def inv(self, a: TruncatedSeries) -> TruncatedSeries:
        """Newton iteration b <- b + b(1 - ab) from b = c0^-1, c0 the x^0
        slot of a.  Then 1 - ab lies in G_1, each round squares it and
        G_k G_k lies in G_2k, so ceil(log2 N) rounds reach G_N = 0."""
        if not self.is_unit(a):
            raise ValueError("not a unit")
        one = self.one()
        b = TruncatedSeries.constant(self.ctx, self.precision,
                                     self.ctx.inv(a.coeffs[0]))
        for _ in range((self.precision - 1).bit_length()):
            b = b + b * (one - a * b)
        if b * a != one or a * b != one:
            # the text names the geometric series this method replaced; the
            # cli-cold benchmark pins it
            raise AssertionError("geometric inverse failed to verify")
        return b

    def sample(self, rng):
        return TruncatedSeries(
            self.ctx, self.precision,
            [self.ctx.sample(rng) for _ in range(self.precision)])

    def lift(self, payload) -> TruncatedSeries:
        """Constant series with the given R-coefficient."""
        return TruncatedSeries.constant(self.ctx, self.precision, payload)

    def render(self, a: TruncatedSeries) -> str:
        return a.to_poly().render()


# -- plain matrix helpers (row-major tuples of tuples) --------------------


def mat_identity(scalars, n):
    one, zero = scalars.one(), scalars.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_zero(scalars, rows, cols):
    zero = scalars.zero()
    return tuple(tuple(zero for _ in range(cols)) for _ in range(rows))


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
        out.append(tuple(a[i]) + tuple(zero for _ in range(nb)))
    for i in range(nb):
        out.append(tuple(zero for _ in range(na)) + tuple(b[i]))
    return tuple(out)


def mat_diag(scalars, bits):
    one, zero = scalars.one(), scalars.zero()
    n = len(bits)
    return tuple(tuple((one if bits[i] else zero) if i == j else zero
                       for j in range(n)) for i in range(n))


def render_matrix(scalars, a):
    return [f"[{', '.join(scalars.render(x) for x in row)}]" for row in a]


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
    pad = mat_zero(e.scalars, n - e.size, n - e.size)
    return IdempotentMatrix(e.scalars, mat_direct_sum(e.scalars, e.entries, pad))


@dataclass(frozen=True)
class IdempotentMatrix:
    """A square matrix e with e*e = e over the given scalar base."""

    scalars: object
    entries: tuple

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix is not square")
        if n and mat_mul(self.scalars, entries, entries) != entries:
            raise ValueError("not idempotent")

    @property
    def size(self):
        return len(self.entries)


@dataclass(frozen=True)
class RankWitness:
    """Certificate that conjugator * e * conjugator_inv = diag(1^rank, 0...)."""

    scalars: object
    matrix: tuple
    rank: int
    conjugator: tuple
    conjugator_inv: tuple

    def diagonal_form(self):
        bits = [1] * self.rank + [0] * (len(self.matrix) - self.rank)
        return mat_diag(self.scalars, bits)

    def verify(self) -> bool:
        s = self.scalars
        if not _mutually_inverse(s, self.conjugator, self.conjugator_inv):
            return False
        conj = mat_mul(s, mat_mul(s, self.conjugator, self.matrix),
                       self.conjugator_inv)
        return conj == self.diagonal_form()


class _ElementaryOps:
    """Conjugation by an elementary matrix g, in place: each operation
    multiplies the matrices in rows by g on the left and those in cols by
    g^-1 on the right.  Entries need not commute, so row operations multiply
    from the left and column operations from the right."""

    def __init__(self, scalars, rows, cols):
        self.scalars, self.rows, self.cols = scalars, rows, cols
        self.zero = scalars.zero()

    def add(self, i, j, v):
        """g = I + v E_ij: row_i += v*row_j and col_j -= col_i*v."""
        if v == self.zero:
            return
        s = self.scalars
        for m in self.rows:
            m[i] = [s.add(x, s.mul(v, y)) for x, y in zip(m[i], m[j])]
        neg_v = s.neg(v)
        for m in self.cols:
            for row in m:
                row[j] = s.add(row[j], s.mul(row[i], neg_v))

    def scale(self, i, c, c_inv):
        """g = I + (c - 1) E_ii, c a unit: row_i = c*row_i, col_i = col_i*c^-1."""
        s = self.scalars
        for m in self.rows:
            m[i] = [s.mul(c, x) for x in m[i]]
        for m in self.cols:
            for row in m:
                row[i] = s.mul(row[i], c_inv)

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
        ops.scale(pivot_row, scalars.inv(col[pivot_row]), col[pivot_row])
        for r in range(pivot_row + 1, n):
            ops.add(r, pivot_row, scalars.neg(col[r]))
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


@dataclass(frozen=True)
class StableIsoWitness:
    """W * (e1 (+) I_t) * W^-1 = e2 (+) I_t after zero-padding to a common size."""

    scalars: object
    t: int
    left: tuple
    right: tuple
    conjugator: tuple
    conjugator_inv: tuple

    def verify(self) -> bool:
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


@dataclass(frozen=True)
class StablyFreeWitness:
    """Mutually inverse module maps exhibiting image(e) (+) R^s = R^(r+s).

    forward (n+s) x (r+s) and backward (r+s) x (n+s) satisfy, exactly,
    backward*forward = I_(r+s) and forward*backward = e (+) I_s, i.e. the
    composites are the identity on both summands.
    """

    scalars: object
    matrix: tuple
    rank: int
    s: int
    t: int
    forward: tuple
    backward: tuple

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
    I_s gives image(e) (+) R^s = R^(r+s) (no extra free summand is needed
    over a local base, so t = 0)."""
    if s < 0:
        raise ValueError("free padding must be >= 0")
    scalars = e.scalars
    w = idempotent_rank(e)
    r, n = w.rank, e.size
    zero, one = scalars.zero(), scalars.one()
    # forward (n+s) x (r+s): Uinv[:, :r] on the module block, I_s on the padding
    forward = tuple(
        tuple(w.conjugator_inv[i][j] if i < n and j < r else
              (one if i >= n and j >= r and i - n == j - r else zero)
              for j in range(r + s))
        for i in range(n + s))
    # backward (r+s) x (n+s): U[:r, :] on the module block, I_s on the padding
    backward = tuple(
        tuple(w.conjugator[i][j] if i < r and j < n else
              (one if i >= r and j >= n and i - r == j - n else zero)
              for j in range(n + s))
        for i in range(r + s))
    witness = StablyFreeWitness(
        scalars=scalars, matrix=e.entries, rank=r, s=s, t=0,
        forward=forward, backward=backward)
    if not witness.verify():
        raise AssertionError("stably-free certificate failed to verify")
    return witness


@dataclass(frozen=True)
class CompletedRow:
    """Invertible matrix whose first row is the given unimodular row."""

    scalars: object
    row: tuple
    matrix: tuple
    inverse: tuple

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
        raise ValueError("not unimodular")
    zero, one = scalars.zero(), scalars.one()
    others = [j for j in range(n) if j != unit_at]
    mat = [list(row)]
    for j in others:
        basis = [zero] * n
        basis[j] = one
        mat.append(basis)
    ainv = scalars.inv(row[unit_at])
    inv = [[zero] * n for _ in range(n)]
    inv[unit_at][0] = ainv
    for col, j in enumerate(others, start=1):
        inv[j][col] = one
        inv[unit_at][col] = scalars.neg(scalars.mul(ainv, row[j]))
    completed = CompletedRow(
        scalars=scalars, row=row,
        matrix=tuple(tuple(r) for r in mat),
        inverse=tuple(tuple(r) for r in inv))
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


def random_invertible(scalars, n, rng):
    """Product of random elementary, unit-scaling and swap matrices, applied
    as row operations; the inverse is accumulated alongside by the inverse
    column operations, so the pair is exact by construction."""
    m = [list(row) for row in mat_identity(scalars, n)]
    minv = [list(row) for row in mat_identity(scalars, n)]
    ops = _ElementaryOps(scalars, rows=(m,), cols=(minv,))
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
    return tuple(map(tuple, m)), tuple(map(tuple, minv))


def random_idempotent(scalars, n, rng):
    """Conjugate of a random 0/1 diagonal: idempotent by construction.
    Returns (matrix, number of ones)."""
    ones = rng.randint(0, n)
    d = mat_diag(scalars, [1] * ones + [0] * (n - ones))
    v, vinv = random_invertible(scalars, n, rng)
    entries = mat_mul(scalars, mat_mul(scalars, v, d), vinv)
    return IdempotentMatrix(scalars, entries), ones


# -- property checks ------------------------------------------------------


def k0_rank_check(ctx: RingContext, samples: int, seed: int,
                  size_limit: int = 3) -> CheckReport:
    """Random rank certificates over the coefficient ring: recovery of the
    generating rank, conjugation invariance and additivity under direct sum."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    scalars = BaseScalars(ctx)
    checked = 0
    cex = None
    for _ in range(samples):
        n = rng.randint(1, size_limit)
        e, ones = random_idempotent(scalars, n, rng)
        w = idempotent_rank(e)
        checked += 2
        if w.rank != ones:
            cex = f"rank {w.rank} != generating rank {ones}"
            break
        v, vinv = random_invertible(scalars, n, rng)
        conj = IdempotentMatrix(
            scalars, mat_mul(scalars, mat_mul(scalars, v, e.entries), vinv))
        if idempotent_rank(conj).rank != w.rank:
            cex = "rank is not conjugation invariant"
            break
        m = rng.randint(1, size_limit)
        f, f_ones = random_idempotent(scalars, m, rng)
        checked += 1
        direct = IdempotentMatrix(
            scalars, mat_direct_sum(scalars, e.entries, f.entries))
        if idempotent_rank(direct).rank != w.rank + f_ones:
            cex = "rank is not additive on direct sums"
            break
    return CheckReport(
        name="k0-rank",
        passed=cex is None,
        checked=checked,
        counterexample=cex,
        details={"size_limit": size_limit},
    )


def serre_transfer_check(ctx: RingContext, precision: int, size_limit: int,
                         samples: int, seed: int) -> CheckReport:
    """Every generated idempotent over S/G_N diagonalizes to a free summand
    with the generating rank, and constant-entry idempotents have the same
    rank over R and over S/G_N."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    series_scalars = SeriesScalars(ctx, precision)
    base_scalars = BaseScalars(ctx)
    checked = 0
    cex = None
    for _ in range(samples):
        n = rng.randint(1, size_limit)
        e, ones = random_idempotent(series_scalars, n, rng)
        w = idempotent_rank(e)
        checked += 2
        if w.rank != ones:
            cex = f"series rank {w.rank} != generating rank {ones}"
            break
    if cex is None:
        for _ in range(samples):
            n = rng.randint(1, size_limit)
            e_base, ones = random_idempotent(base_scalars, n, rng)
            lifted = IdempotentMatrix(
                series_scalars,
                tuple(tuple(series_scalars.lift(x) for x in row)
                      for row in e_base.entries))
            checked += 2
            rank_base = idempotent_rank(e_base).rank
            rank_series = idempotent_rank(lifted).rank
            if rank_base != ones:
                cex = f"base rank {rank_base} != generating rank {ones}"
                break
            if rank_series != rank_base:
                cex = (f"constant idempotent has rank {rank_base} over R "
                       f"but {rank_series} over S/G_{precision}")
                break
    return CheckReport(
        name="serre-transfer",
        passed=cex is None,
        checked=checked,
        counterexample=cex,
        details={"precision": precision, "size_limit": size_limit},
    )
