import pytest

from skewseries import parse_ring_preset


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

# the presets of the matrix whose delta is nonzero
DELTA_PRESETS = ("truncpoly:3:3:c=2", "truncpoly:5:4:c=2")


@pytest.fixture(scope="session", params=PRESET_MATRIX)
def matrix_ctx(request):
    return parse_ring_preset(request.param)


@pytest.fixture(scope="session", params=DELTA_PRESETS)
def delta_ctx(request):
    return parse_ring_preset(request.param)
