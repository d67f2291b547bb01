import math

import numpy as np
import pytest

from sphelast.coupling import cg
from sphelast.kelvin import norm_factor
from sphelast.oracle import finite_diff_gradient
from sphelast.assembly import BasisMap
from sphelast.oracle import build_quadrature
from sphelast.sphharm import (
    Direction,
    DomainError,
    solid_irregular,
    solid_regular,
    ylm_complex,
)
from sphelast.vsh import (
    CHI,
    Family,
    ForbiddenIndexError,
    cross_spherical,
    rhat_dot_a_expand,
    vector_Y,
    vector_Y_table,
    vsh_complex,
    vsh_complex_or_zero,
    vsh_complex_table,
    vsh_real,
    vsh_real_table,
)

from conftest import random_units


def _poly_table():
    """Closed polynomial forms of the real vector harmonics, degree <= 2.

    The V rows follow from the definitions: gradient of the homogeneous
    polynomial extension minus (2l+1) Y r_hat.
    """
    r3 = math.sqrt(3 / (4 * math.pi))
    r15 = 0.5 * math.sqrt(15 / math.pi)
    r5 = 0.5 * math.sqrt(5 / math.pi)
    e = np.array
    return {
        (Family.V, 0, 0): lambda x, y, z: -0.5
        / math.sqrt(math.pi)
        * e([x, y, z]),
        (Family.V, 1, -1): lambda x, y, z: r3 * (e([0, 1, 0]) - 3 * y * e([x, y, z])),
        (Family.V, 1, 0): lambda x, y, z: r3 * (e([0, 0, 1]) - 3 * z * e([x, y, z])),
        (Family.V, 1, 1): lambda x, y, z: r3 * (e([1, 0, 0]) - 3 * x * e([x, y, z])),
        (Family.V, 2, -2): lambda x, y, z: r15
        * (e([y, x, 0]) - 5 * x * y * e([x, y, z])),
        (Family.V, 2, -1): lambda x, y, z: r15
        * (e([0, z, y]) - 5 * y * z * e([x, y, z])),
        (Family.V, 2, 0): lambda x, y, z: r5
        * (e([-x, -y, 2 * z]) - 2.5 * (-x * x - y * y + 2 * z * z) * e([x, y, z])),
        (Family.V, 2, 1): lambda x, y, z: r15
        * (e([z, 0, x]) - 5 * x * z * e([x, y, z])),
        (Family.V, 2, 2): lambda x, y, z: r15
        * (e([x, -y, 0]) - 2.5 * (x * x - y * y) * e([x, y, z])),
        (Family.W, 1, -1): lambda x, y, z: r3 * e([0, 1, 0]),
        (Family.W, 1, 0): lambda x, y, z: r3 * e([0, 0, 1]),
        (Family.W, 1, 1): lambda x, y, z: r3 * e([1, 0, 0]),
        (Family.W, 2, -2): lambda x, y, z: r15 * e([y, x, 0]),
        (Family.W, 2, -1): lambda x, y, z: r15 * e([0, z, y]),
        (Family.W, 2, 0): lambda x, y, z: r5 * e([-x, -y, 2 * z]),
        (Family.W, 2, 1): lambda x, y, z: r15 * e([z, 0, x]),
        (Family.W, 2, 2): lambda x, y, z: r15 * e([x, -y, 0]),
        (Family.X, 1, -1): lambda x, y, z: r3 * e([-z, 0, x]),
        (Family.X, 1, 0): lambda x, y, z: r3 * e([y, -x, 0]),
        (Family.X, 1, 1): lambda x, y, z: r3 * e([0, z, -y]),
        (Family.X, 2, -2): lambda x, y, z: r15 * e([-x * z, y * z, x * x - y * y]),
        (Family.X, 2, -1): lambda x, y, z: r15 * e([y * y - z * z, -x * y, x * z]),
        (Family.X, 2, 0): lambda x, y, z: r5 * e([3 * y * z, -3 * x * z, 0]),
        (Family.X, 2, 1): lambda x, y, z: r15 * e([x * y, z * z - x * x, -y * z]),
        (Family.X, 2, 2): lambda x, y, z: r15 * e([y * z, x * z, -2 * x * y]),
    }


def test_low_degree_polynomial_table(rng):
    table = _poly_table()
    for v in random_units(rng, 50):
        for (fam, l, m), poly in table.items():
            assert np.abs(vsh_real(fam, l, m, v) - poly(*v)).max() <= 1e-13


def test_complex_axis_values():
    r3 = math.sqrt(3 / (4 * math.pi))
    got = vsh_complex(Family.W, 1, 0, (0.3, 0.5, 0.81))
    assert np.abs(got - r3 * np.array([0, 0, 1.0])).max() <= 1e-14
    v = np.array([0.6, -0.48, 0.64])
    v /= np.linalg.norm(v)
    got = vsh_complex(Family.V, 0, 0, v)
    assert np.abs(got + 0.5 / math.sqrt(math.pi) * v).max() <= 1e-14
    got = vsh_complex(Family.X, 1, 0, (1, 0, 0))
    assert np.abs(got - r3 * np.array([0, -1.0, 0])).max() <= 1e-14


def test_forbidden_labels_raise():
    for fam in (Family.W, Family.X):
        with pytest.raises(ForbiddenIndexError):
            vsh_complex(fam, 0, 0, (0, 0, 1))
        with pytest.raises(ForbiddenIndexError):
            vsh_real(fam, 0, 0, (0, 0, 1))


def test_imaginary_part_of_real_family(rng):
    for v in random_units(rng, 20):
        for l in range(1, 5):
            for m in range(-l, l + 1):
                val = vsh_real(Family.X, l, m, v)
                assert np.isrealobj(val)


def test_pointwise_radial_identities(rng):
    for v in random_units(rng, 200):
        for l in range(1, 7):
            m = int((hash((l, round(v[0] * 1e6))) % (2 * l + 1)) - l)
            w = vsh_complex(Family.W, l, m, v)
            vv = vsh_complex(Family.V, l, m, v)
            x = vsh_complex(Family.X, l, m, v)
            y = ylm_complex(l, m, v)
            assert np.abs(w - vv - (2 * l + 1) * y * v).max() <= 1e-13
            assert abs(np.dot(v, x)) <= 1e-13
            assert abs(np.dot(v, vv) + (l + 1) * y) <= 1e-13
            assert abs(np.dot(v, w) - l * y) <= 1e-13


def test_orthogonality_and_norms(quad16):
    dirs = quad16.directions()
    fields = {}
    for fam in Family:
        for l in range(0 if fam == Family.V else 1, 7):
            for m in range(-l, l + 1):
                fields[(fam, l, m)] = np.array(
                    [vsh_real(fam, l, m, d) for d in dirs]
                )
    keys = list(fields)
    mat = np.array([fields[k].reshape(-1) for k in keys])
    w3 = np.repeat(quad16.weights, 3)
    gram = (mat * w3) @ mat.T
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            expect = norm_factor(ki[0], ki[1]) if ki == kj else 0.0
            assert abs(gram[i, j] - expect) <= 1e-11


def test_gradient_identities_by_finite_differences(rng):
    # gradients of the solid harmonics produce the V / W families, and
    # crossing with the position produces X
    for _ in range(4):
        x = rng.normal(size=3)
        x *= rng.uniform(0.5, 1.5) / np.linalg.norm(x)
        r = np.linalg.norm(x)
        v = x / r
        for l in range(5):
            m = int(rng.integers(-l, l + 1))
            grad_i = finite_diff_gradient(
                lambda p: solid_irregular(l, m, p), x
            )
            expect = (
                math.sqrt(4 * math.pi / (2 * l + 1))
                * r ** (-l - 2)
                * vsh_complex(Family.V, l, m, v)
            )
            assert np.abs(grad_i - expect).max() <= 1e-7 * max(
                1.0, np.abs(expect).max()
            )
            grad_r = finite_diff_gradient(
                lambda p: solid_regular(l, m, p), x
            )
            if l >= 1:
                expect = (
                    math.sqrt(4 * math.pi / (2 * l + 1))
                    * r ** (l - 1)
                    * vsh_complex(Family.W, l, m, v)
                )
                assert np.abs(grad_r - expect).max() <= 1e-7 * max(
                    1.0, np.abs(expect).max()
                )
                expect_x = (
                    math.sqrt(4 * math.pi / (2 * l + 1))
                    * r ** (-l - 1)
                    * vsh_complex(Family.X, l, m, v)
                )
                assert np.abs(np.cross(x, grad_i) - expect_x).max() <= 1e-7 * max(
                    1.0, np.abs(expect_x).max()
                )
                expect_x = (
                    math.sqrt(4 * math.pi / (2 * l + 1))
                    * r**l
                    * vsh_complex(Family.X, l, m, v)
                )
                assert np.abs(np.cross(x, grad_r) - expect_x).max() <= 1e-7 * max(
                    1.0, np.abs(expect_x).max()
                )


class TestVectorY:
    def test_lowest_conversion(self, rng):
        for v in random_units(rng, 5):
            got = vector_Y(1, 0, 0, v)
            expect = vsh_complex(Family.W, 1, 0, v) / math.sqrt(3)
            assert np.abs(got - expect).max() <= 1e-14

    def test_decaying_conversion(self, rng):
        v = random_units(rng, 1)[0]
        got = vector_Y(0, 1, 0, v)
        expect = vsh_complex(Family.V, 0, 0, v)
        assert np.abs(got - expect).max() <= 1e-14

    def test_toroidal_conversion(self, rng):
        v = random_units(rng, 1)[0]
        got = vector_Y(2, 2, 1, v)
        expect = -1j * vsh_complex(Family.X, 2, 1, v) / math.sqrt(6)
        assert np.abs(got - expect).max() <= 1e-14

    def test_index_error(self):
        with pytest.raises(DomainError):
            vector_Y(3, 1, 0, (0, 0, 1))

    def test_against_coupling_expansion(self, rng):
        for v in random_units(rng, 10):
            for lorb in range(5):
                for j in range(max(0, lorb - 1), lorb + 2):
                    for m in range(-j, j + 1):
                        got = vector_Y(j, lorb, m, v)
                        expect = np.zeros(3, dtype=complex)
                        for m1 in (-1, 0, 1):
                            if abs(m - m1) <= lorb:
                                expect += (
                                    cg(lorb, m - m1, 1, m1, j, m)
                                    * ylm_complex(lorb, m - m1, v)
                                    * CHI[m1]
                                )
                        assert np.abs(got - expect).max() <= 1e-13


class TestSphericalBasis:
    def test_cross_rule(self):
        assert np.abs(cross_spherical(1, 0) - 1j * CHI[1]).max() == 0.0
        assert np.abs(cross_spherical(1, -1) - 1j * CHI[0]).max() == 0.0
        assert np.abs(cross_spherical(0, 0)).max() == 0.0
        assert np.abs(cross_spherical(1, 1)).max() == 0.0

    def test_cross_rule_is_actual_cross_product(self):
        for m in (-1, 0, 1):
            for n in (-1, 0, 1):
                direct = np.cross(CHI[m], CHI[n])
                assert np.abs(direct - cross_spherical(m, n)).max() <= 1e-15

    def test_axis_components_on_lattice_shift(self):
        comps = rhat_dot_a_expand((-3.0, 0, 0))
        assert comps[-1] == pytest.approx(3 / math.sqrt(2))
        assert comps[0] == 0
        assert comps[1] == pytest.approx(-3 / math.sqrt(2))

    def test_axis_component_of_z(self):
        comps = rhat_dot_a_expand((0, 0, 1.0))
        assert comps[0] == 1.0
        assert comps[1] == 0 and comps[-1] == 0

    def test_zero_vector(self):
        comps = rhat_dot_a_expand((0.0, 0, 0))
        assert all(c == 0 for c in comps.values())

    def test_projection_expansion(self, rng):
        for v in random_units(rng, 30):
            a = rng.normal(size=3)
            comps = rhat_dot_a_expand(a)
            expand = math.sqrt(4 * math.pi / 3) * sum(
                (-1) ** q * comps[q] * ylm_complex(1, q, v)
                for q in (-1, 0, 1)
            )
            assert abs(np.dot(v, a) - expand) <= 1e-13
            rebuilt = sum(
                (-1) ** q * comps[q] * CHI[q] for q in (-1, 0, 1)
            )
            assert np.abs(rebuilt - a).max() <= 1e-13


def test_product_recoupling_consistency(rng):
    # the axis-projection product of a growing-trace harmonic re-expands
    # into vector harmonics with the pure recoupling weights
    from sphelast.translation import recoupling_weights

    for v in random_units(rng, 5):
        a = rng.normal(size=3)
        comps = rhat_dot_a_expand(a)
        for lam in range(1, 5):
            for mu in range(-lam, lam + 1):
                direct = np.dot(v, a) * vsh_complex(Family.W, lam, mu, v)
                expand = np.zeros(3, dtype=complex)
                for q in (-1, 0, 1):
                    for m1 in (-1, 0, 1):
                        for k in range(abs(lam - 2), lam + 1):
                            if k == lam - 1:
                                continue
                            for j in range(abs(k - 1), k + 2):
                                wgt = float(recoupling_weights(k, j, lam, m1, mu, q))
                                if wgt == 0.0 or abs(q + mu) > j:
                                    continue
                                expand += (
                                    wgt
                                    * comps[q]
                                    * vector_Y(j, k, q + mu, v)
                                )
                assert np.abs(direct - expand).max() <= 1e-12


NEAR_POLE = (1e-4, 1e-6, 1e-8)


def _near_pole_angles():
    """(theta, phi) within 1e-4..1e-8 of either pole, three azimuths each."""
    return [
        (theta, phi)
        for t0 in NEAR_POLE
        for theta in (t0, math.pi - t0)
        for phi in (0.0, 0.7, 2.5)
    ]


class TestHarmonicTable:
    def test_matches_scalar_route_to_degree_16(self, rng):
        # Gauss-Legendre nodes, random nodes and nodes exactly on both poles
        # (at several azimuths: the pole value does not depend on it)
        quad = build_quadrature(6)
        theta = np.concatenate([
            quad.theta, rng.uniform(0, math.pi, 10), [0.0, math.pi] * 3,
        ])
        phi = np.concatenate([
            quad.phi, rng.uniform(0, 2 * math.pi, 10),
            [0.0, 0.0, 1.3, 1.3, 4.0, 4.0],
        ])
        basis = BasisMap(16)
        table = vsh_real_table(basis, theta, phi)
        assert table.shape == (basis.n_eff, len(theta), 3)
        dirs = [Direction.from_angles(t, p) for t, p in zip(theta, phi)]
        worst = 0.0
        for i, (l, m, fam) in enumerate(basis):
            scalar = np.array([vsh_real(fam, l, m, d) for d in dirs])
            worst = max(worst, np.abs(table[i] - scalar).max())
        assert worst <= 1e-13

    def test_near_poles_against_polynomials(self):
        poly = _poly_table()
        theta, phi = np.array(_near_pole_angles()).T
        labels = [(l, m, fam) for fam, l, m in poly]
        table = vsh_real_table(labels, theta, phi)
        for k, (t, p) in enumerate(zip(theta, phi)):
            d = Direction.from_angles(t, p)
            for i, (l, m, fam) in enumerate(labels):
                assert np.abs(table[i, k] - poly[(fam, l, m)](*d.vec)).max() <= 1e-13

    def test_forbidden_labels_raise(self):
        for fam in (Family.W, Family.X):
            with pytest.raises(ForbiddenIndexError):
                vsh_real_table([(0, 0, fam)], [0.3], [0.1])
        with pytest.raises(DomainError):
            vsh_real_table([(1, 2, Family.V)], [0.3], [0.1])


def test_scalar_route_near_poles_against_polynomials():
    # sin theta from the angle, not from sqrt(1 - cos^2 theta), which is
    # 0 at 1e-8 from a pole
    poly = _poly_table()
    for theta, phi in _near_pole_angles():
        d = Direction.from_angles(theta, phi)
        for (fam, l, m), closed in poly.items():
            assert np.abs(vsh_real(fam, l, m, d) - closed(*d.vec)).max() <= 1e-13


def test_complex_tables_match_scalar_route(rng):
    # every family, order and degree, with vector_Y of every orbital degree
    # below the table's, at random directions, both poles and the equator
    dirs = [Direction.from_vector(v) for v in random_units(rng, 4)]
    dirs += [Direction.from_angles(0.0, 0.0), Direction.from_angles(math.pi, 0.0),
             Direction.from_vector((1.0, 0.0, 0.0))]
    lmax = 9
    for d in dirs:
        fields = vsh_complex_table(lmax, d)
        assert fields.shape == (3, lmax + 1, 2 * lmax + 1, 3)
        vec_y = vector_Y_table(fields)
        assert vec_y.shape == (3, lmax, 2 * lmax + 1, 3)
        for l in range(lmax + 1):
            for m in range(-lmax, lmax + 1):
                for fam in Family:
                    want = vsh_complex_or_zero(fam, l, m, d)
                    assert np.abs(fields[fam - 1, l, m + lmax] - want).max() <= 1e-14
                for j in range(max(0, l - 1), l + 2) if l < lmax else ():
                    want = vector_Y(j, l, m, d) if abs(m) <= j else np.zeros(3)
                    assert np.abs(vec_y[j - l + 1, l, m + lmax] - want).max() <= 1e-14


@pytest.mark.parametrize("seed", [1271484261, 318429186, 2147164390])
def test_vsh_suite_passes_with_directions_near_the_poles(seed):
    # seeds with a random direction 8e-4 to 8e-3 from a pole; the pointwise
    # identities read 1.0e-13 to 6.1e-13 there with theta from acos
    from sphelast.verify import suite_vsh

    rows = suite_vsh(np.random.default_rng(seed))
    assert [name for name, residual, tol in rows if not residual <= tol] == []
