import numpy as np
import pytest

from sphelast import _kernels


@pytest.fixture
def problem(rng):
    targets = rng.normal(size=(7, 3)) + np.array([3.0, 0, 0])
    sources = rng.normal(size=(11, 3)) * 0.1
    weights = rng.uniform(0.1, 1.0, size=11)
    density = rng.normal(size=(11, 3))
    return targets, sources, weights, density


def test_matches_direct_tensor(problem, params):
    from sphelast.kelvin import kelvin_tensor

    targets, sources, weights, density = problem
    out = _kernels.kelvin_apply(targets, sources, weights, density, 1.0, 1.0)
    direct = np.zeros_like(out)
    for i, x in enumerate(targets):
        for j, y in enumerate(sources):
            direct[i] += weights[j] * kelvin_tensor(x - y, params) @ density[j]
    assert np.abs(out - direct).max() <= 1e-13
