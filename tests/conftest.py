import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from nchodge.fixtures import builtin_atlas
from nchodge.linalg import RationalMatrix, rank

# Same examples on every run and no example database.
settings.register_profile("nchodge", derandomize=True, database=None, deadline=None)
settings.load_profile("nchodge")


def pytest_configure(config):
    # Hypothesis caches the literals it reads from local source files (from
    # collection on); keep that cache in a temporary directory, so no
    # .hypothesis/ appears in the checkout.
    home = tempfile.TemporaryDirectory(prefix="nchodge-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def circle_bundle_table(ring, chern):
    """Gysin-sequence oracle for the unit circle bundle of a line bundle.

    H^m = coker(c: H^{m-2} -> H^m) + ker(c: H^{m-1} -> H^{m+1}) twisted by
    (-1); the ring is pure of type (t, t) in degree 2t so each degree is a
    single block.
    """

    def op(j):
        if j % 2 != 0 or j < 0:
            return RationalMatrix.zeros(0, 0)
        src = ring.slice_dim(j, (j // 2, j // 2))
        tgt = ring.slice_dim(j + 2, (j // 2 + 1, j // 2 + 1))
        if src == 0 or tgt == 0:
            return RationalMatrix.zeros(tgt, src)
        return ring.mult_operator(2, (1, 1), chern, j, (j // 2, j // 2))

    out = {}
    for m in range(2 * ring.dim + 2):
        blocks = []
        if m % 2 == 0:
            c = op(m - 2)
            dim_h = ring.slice_dim(m, (m // 2, m // 2))
            coker = dim_h - rank(c)
            if coker:
                blocks.append((m, (m // 2, m // 2), coker))
        else:
            c = op(m - 1)
            kernel = c.ncols - rank(c)
            if kernel:
                k = (m - 1) // 2 + 1
                blocks.append((2 * k, (k, k), kernel))
        if blocks:
            out[m] = tuple(blocks)
    return out


@pytest.fixture(scope="session")
def circle_bundle_oracle():
    return circle_bundle_table


@pytest.fixture(scope="session")
def p1_1pt():
    return builtin_atlas("p1_1pt")


@pytest.fixture(scope="session")
def p1_2pts():
    return builtin_atlas("p1_2pts")


@pytest.fixture(scope="session")
def triangle():
    return builtin_atlas("triangle")


@pytest.fixture(scope="session")
def elliptic():
    return builtin_atlas("elliptic_1pt")
