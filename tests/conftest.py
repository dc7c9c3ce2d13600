import pytest

from skewseries import monomial_operator_apply, parse_ring_preset


@pytest.fixture(scope="session")
def z8():
    return parse_ring_preset("zmod:2^3")


@pytest.fixture(scope="session")
def z4():
    return parse_ring_preset("zmod:2^2")


@pytest.fixture(scope="session")
def f27():
    return parse_ring_preset("truncpoly:3:3:c=2")


# Presets for the differential tests of the product kernel: several Z/p^n,
# truncpoly with c != 1 (delta != 0), c = 1 and delta = zero (delta = 0).
PRESET_MATRIX = ("zmod:2^3", "zmod:3^5", "zmod:2^10", "truncpoly:3:3:c=2",
                 "truncpoly:3:3:c=2:delta=zero", "truncpoly:3:3:c=1",
                 "truncpoly:5:4:c=2")

# control preset whose delta is not a sigma-derivation: S/G_N is then not
# associative, which the fast paths must reproduce exactly rather than assume
BROKEN_PRESET = "truncpoly:3:3:c=2:delta=broken"

# the presets of the matrix whose delta is nonzero
DELTA_PRESETS = ("truncpoly:3:3:c=2", "truncpoly:5:4:c=2")


@pytest.fixture(scope="session", params=PRESET_MATRIX)
def matrix_ctx(request):
    return parse_ring_preset(request.param)


@pytest.fixture(scope="session", params=DELTA_PRESETS)
def delta_ctx(request):
    return parse_ring_preset(request.param)


def assert_rows_are_the_operator_values(ctx):
    """Every operator row the products stored (ctx._mkl_rows) holds exactly
    the nonzero M_{k,n}(b), k < d, of the M_{k,l} recursion, run on a fresh
    context of the same preset, for which M_{d,n}(b) = 0.  A family with a
    closed form (ctx._closed_rows) leaves the context's M_{k,l} memo empty;
    on the others the memo holds only what the rows filled: M_{k,n}(b) for
    k <= d and n < len(rows)."""
    ref, zero, d = parse_ring_preset(ctx.name), ctx.zero(), ctx.mkl_depth()
    filled = set()
    for b, rows in ctx._mkl_rows.items():
        for n, row in enumerate(rows):
            assert monomial_operator_apply(ref, d, n, b) == zero
            assert row == tuple(
                (k, v) for k in range(d)
                if (v := monomial_operator_apply(ref, k, n, b)) != zero)
        filled.update((k, n, b) for k in range(d + 1)
                      for n in range(len(rows)))
    closed = ctx._closed_rows(1, ctx.one(), 0, 1) is not None
    assert ctx._mkl_cache.keys() == (set() if closed else filled)


def assert_stored_trimmed(*values):
    """Every TruncatedSeries or SkewPoly in values (or in the tuples and
    lists among them, at any depth) is stored without trailing zeros: the
    last slot nonzero, none at all for zero, and a class of S/G_N at most N
    slots."""
    for value in values:
        if isinstance(value, (tuple, list)):
            assert_stored_trimmed(*value)
            continue
        coeffs = value.coeffs
        assert isinstance(coeffs, tuple)
        assert len(coeffs) <= getattr(value, "precision", len(coeffs))
        assert not coeffs or coeffs[-1] != value.ctx.zero(), \
            f"{value!r} is stored with a trailing zero slot: {coeffs}"
