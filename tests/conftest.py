import numpy as np
import pytest

from sphelast.kelvin import LameParams
from sphelast.oracle import build_quadrature


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def params():
    return LameParams(1.0, 1.0)


@pytest.fixture(scope="session")
def quad16():
    return build_quadrature(16)


@pytest.fixture(scope="session")
def quad20():
    return build_quadrature(20)


def random_units(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def kernel_coef(blocks, kind, *args):
    """Order and two-order coefficients ``[c(s,-), c(s,+), 0, 0]`` of one
    complex-order kernel, read from the block builder ``blocks`` (an
    ``assembly._DegreeBlocks``): ``plain``/``moment`` take
    ``(l, lam, mt, mu)`` and sit on orders ``l + lam + 1``/``l + lam - 1``;
    ``axis`` takes ``(l, lam, mt, mu, q)`` and ``cross``
    ``(l, j, lam, mt, mu, q, m1)``, both on order ``l + lam`` with the
    factor ``-AXIS_COMPONENT[q]`` of their odd ``(+)`` slot."""
    from sphelast.assembly import _single_order
    from sphelast.latsum import AXIS_COMPONENT
    from sphelast.translation import cross_weights

    if kind == "cross":
        l, j, lam, mt, mu, q, m1 = args
        weight = 1j * -AXIS_COMPONENT[q] * float(cross_weights(j, lam, q, m1, mu))
    else:
        l, lam, mt, mu = args[:4]
        weight = -AXIS_COMPONENT[args[4]] if kind == "axis" else 1.0
    order = l + lam + {"plain": 1, "moment": -1}.get(kind, 0)
    plus = weight * blocks.plain(l, lam)[mu + lam, mt + l] if abs(mu) <= lam else 0.0
    return order, _single_order(order, plus)
