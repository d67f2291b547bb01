"""The scalar harmonic route over a batch of directions, and the reference
routes over a batch of labels.

``Direction`` holds one point or N; ``legendre_row``, ``pi_tau_row``,
``ylm_complex``, ``vsh_real``, ``vsh_complex_table`` and
``shifted_ball_potential`` then gain a node axis.  One call over the batch
must give each point's one-point value.  ``vsh_real`` over arrays of labels
and the solid series over arrays of orders must give the one-label values
bit for bit.
"""

import math
import warnings

import numpy as np
import pytest

from conftest import random_units
from sphelast.kelvin import shifted_ball_potential
from sphelast.sphharm import (
    Direction,
    DomainError,
    legendre_row,
    pi_tau_row,
    ylm_complex,
)
from sphelast.translation import (
    translate_solid_irregular,
    translate_solid_regular,
)
from sphelast.vsh import Family, vsh_complex_table, vsh_real

LMAX = 8


def _points():
    """Seeded directions, both poles, one direction 8e-4 from the north pole
    and three points exactly on the equator (``z == 0``)."""
    near = np.array([8e-4 * math.cos(0.3), 8e-4 * math.sin(0.3), 1.0])
    return np.vstack([
        random_units(np.random.default_rng(5), 6),
        [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
        near / np.linalg.norm(near),
        [[1.0, 0.0, 0.0], [math.cos(0.7), math.sin(0.7), 0.0], [-1.0, 0.0, 0.0]],
    ])


def _labels():
    for l in range(LMAX + 1):
        for m in range(-l, l + 1):
            for fam in Family:
                if l or fam == Family.V:
                    yield l, m, fam


def _agree(batch, singles):
    """The batch against the one-point values stacked on its node axis, to
    1e-15 of the largest value."""
    singles = np.asarray(singles)
    assert batch.shape == singles.shape
    scale = np.abs(singles).max()
    assert np.abs(batch - singles).max() <= 1e-15 * scale


@pytest.fixture
def points():
    v = _points()
    return v, Direction.from_vector(v), [Direction.from_vector(u) for u in v]


def test_direction_batch_matches_points(points):
    v, batch, singles = points
    assert batch.theta.shape == batch.phi.shape == (len(v),)
    assert batch.vec.shape == (len(v), 3)
    assert isinstance(singles[0].theta, float) and singles[0].vec.shape == (3,)
    for key in ("theta", "phi", "vec"):
        _agree(getattr(batch, key), [getattr(d, key) for d in singles])
    for k, got in enumerate(batch.frame()):
        _agree(got, [d.frame()[k] for d in singles])
    assert batch.phi[6] == batch.phi[7] == 0.0  # the poles' azimuth
    again = Direction.from_angles(batch.theta, batch.phi)
    ones = [Direction.from_angles(d.theta, d.phi) for d in singles]
    _agree(again.phi, [d.phi for d in ones])
    _agree(again.vec, [d.vec for d in ones])
    with pytest.raises(DomainError):
        Direction.from_vector(np.vstack([v, np.zeros(3)]))
    with pytest.raises(DomainError):
        Direction.from_angles([0.3, 4.0], [0.0, 0.0])


def test_legendre_rows_over_nodes(points):
    _v, batch, singles = points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in range(LMAX + 1):
            rows = legendre_row(LMAX, m, batch.cos_theta, batch.sin_theta)
            _agree(rows, np.array([
                legendre_row(LMAX, m, d.cos_theta, d.sin_theta) for d in singles
            ]).T)
            _agree(legendre_row(LMAX, m, batch.cos_theta), np.array([
                legendre_row(LMAX, m, d.cos_theta) for d in singles
            ]).T)
            pi_rows, tau_rows = pi_tau_row(LMAX, m, batch.theta)
            one = [pi_tau_row(LMAX, m, d.theta) for d in singles]
            _agree(pi_rows, np.array([p for p, _t in one]).T)
            _agree(tau_rows, np.array([t for _p, t in one]).T)


def test_scalar_harmonics_over_nodes(points):
    v, batch, singles = points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for l in range(LMAX + 1):
            for m in range(-l, l + 1):
                values = ylm_complex(l, m, batch)
                _agree(values, [ylm_complex(l, m, d) for d in singles])
                # (N, 3) rows are the same batch
                assert np.array_equal(ylm_complex(l, m, v), values)


def test_vector_harmonics_over_nodes(points):
    v, batch, singles = points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for l, m, fam in _labels():
            values = vsh_real(fam, l, m, batch)
            assert values.shape == (len(v), 3)
            _agree(values, [vsh_real(fam, l, m, d) for d in singles])


def test_shifted_ball_potential_over_nodes(points, params):
    _v, batch, singles = points
    rho = 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for l, m, fam in _labels():
            for shift in (1.0, -0.3):
                values = shifted_ball_potential(shift, l, m, fam, batch, rho, params)
                _agree(values, [
                    shifted_ball_potential(shift, l, m, fam, d, rho, params)
                    for d in singles
                ])
                # (N, 3) rows are the same batch
                assert np.array_equal(
                    shifted_ball_potential(shift, l, m, fam, batch.vec, rho, params),
                    values)


def test_shifted_ball_potential_refuses_a_node_inside_the_ball(points, params):
    # at shift 0.19 only the node (1, 0, 0) lies within rho of the centre
    v, batch, _singles = points
    assert np.sum(np.linalg.norm(0.1 * v - [0.19, 0.0, 0.0], axis=1) <= 0.1) == 1
    for x_hat in (batch, v):
        with pytest.raises(DomainError):
            shifted_ball_potential(0.19, 2, 1, Family.W, x_hat, 0.1, params)


def _same_bits(got, want):
    want = np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_vector_harmonics_over_labels(points):
    # every label of a family to degree 8 in one call is the one-label calls
    v, batch, singles = points
    labels = np.array(list(_labels()))
    for fam in Family:
        l, m = labels[labels[:, 2] == fam, :2].T
        values = vsh_real(fam, l, m, batch)
        assert values.shape == (len(l), len(v), 3)
        _same_bits(values, [vsh_real(fam, *label, batch) for label in zip(l, m)])
        one = vsh_real(fam, l, m, singles[8])  # 8e-4 from the north pole
        assert one.shape == (len(l), 3)
        _same_bits(one, [vsh_real(fam, *label, singles[8]) for label in zip(l, m)])
    # labels broadcast, and keep their shape ahead of the node axis
    grid = vsh_real(Family.V, [[1], [2]], [-1, 0, 1], batch)
    assert grid.shape == (2, 3, len(v), 3)
    _same_bits(grid[1, 0], vsh_real(Family.V, 2, -1, batch))
    with pytest.raises(DomainError):
        vsh_real(Family.V, [1, 2], [0, 3], batch)


def test_complex_table_over_nodes(points):
    v, batch, singles = points
    table = vsh_complex_table(LMAX, batch)
    assert table.shape == (3, LMAX + 1, 2 * LMAX + 1, len(v), 3)
    _same_bits(table, np.stack([vsh_complex_table(LMAX, d) for d in singles], axis=3))
    _same_bits(vsh_complex_table(LMAX, v), table)


def test_solid_series_over_orders():
    # every order of a degree in one call is the one-order calls, off and
    # on the equator (where the decaying table takes its closed form)
    rng = np.random.default_rng(11)
    cutoff = 16
    for a in (rng.normal(size=3), np.r_[rng.normal(size=2), 0.0]):
        r = rng.normal(size=3)
        small = 0.4 * np.linalg.norm(a) * r / np.linalg.norm(r)
        for l in range(7):
            m = np.arange(-l, l + 1)
            _same_bits(translate_solid_regular(l, m, r, a),
                       [translate_solid_regular(l, k, r, a) for k in m])
            got, tail = translate_solid_irregular(l, m, small, a, cutoff, with_tail=True)
            one = [translate_solid_irregular(l, k, small, a, cutoff, with_tail=True)
                   for k in m]
            _same_bits(got, [value for value, _tail in one])
            _same_bits(tail, [t for _value, t in one])
    assert isinstance(translate_solid_regular(2, 1, r, a), complex)
    assert translate_solid_regular(2, np.array([[-2, 0, 1], [2, -1, 0]]), r, a).shape == (2, 3)
    with pytest.raises(DomainError):
        translate_solid_regular(2, np.array([0, 3]), r, a)
