import math

import numpy as np
import pytest

from sphelast.sphharm import (
    Direction,
    DomainError,
    assoc_legendre,
    equator_table,
    legendre_row,
    legendre_table,
    pi_tau_row,
    solid_irregular,
    solid_regular,
    solid_regular_table,
    ylm_complex,
    ylm_equator,
    ylm_real,
)

from conftest import random_units

SQPI = math.sqrt(math.pi)


class TestAssocLegendre:
    def test_degree_zero(self):
        assert assoc_legendre(0, 0, 0.3) == 1.0

    def test_linear(self):
        assert assoc_legendre(1, 0, 0.5) == 0.5

    def test_vanishes_at_zero_argument(self):
        assert assoc_legendre(2, 1, 0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            assoc_legendre(1, 2, 0.5)
        with pytest.raises(DomainError):
            assoc_legendre(2, 1, 1.5)

    def test_against_closed_forms(self, rng):
        for u in rng.uniform(-1, 1, size=20):
            s = math.sqrt(1 - u * u)
            assert assoc_legendre(2, 2, u) == pytest.approx(3 * s * s, abs=1e-14)
            assert assoc_legendre(3, 1, u) == pytest.approx(
                1.5 * (5 * u * u - 1) * s, abs=1e-13
            )


    def test_sine_from_the_angle_near_poles(self):
        # P_l^l = (2l-1)!! sin^l theta to full relative accuracy, where
        # sqrt(1 - cos^2 theta) loses it (1.4e-9 at 1e-4, 0 at 1e-8)
        for t0 in (1e-4, 1e-6, 1e-8):
            for theta in (t0, math.pi - t0):
                d = Direction.from_angles(theta, 0.0)
                s = math.sin(theta)
                for l in range(1, 5):
                    closed = math.prod(range(1, 2 * l, 2)) * s**l
                    got = assoc_legendre(l, l, d.cos_theta, d.sin_theta)
                    assert abs(got - closed) <= 1e-14 * closed
                expect = math.sqrt(3 / (4 * math.pi)) * d.vec[0]
                assert abs(ylm_real(1, 1, d) - expect) <= 1e-14 * abs(expect)
                assert abs(ylm_complex(1, 1, d) + expect / math.sqrt(2)) <= (
                    1e-14 * abs(expect)
                )


class TestLegendreTable:
    def test_matches_scalar_rows(self, rng):
        lmax = 12
        theta = np.concatenate([rng.uniform(0, math.pi, 15), [0.0, math.pi]])
        p, pi, tau = legendre_table(lmax, theta)
        assert p.shape == pi.shape == tau.shape == (lmax + 1, lmax + 1, 17)
        for k, t in enumerate(theta):
            for m in range(lmax + 1):
                row = legendre_row(lmax, m, math.cos(t), math.sin(t))
                pi_row, tau_row = pi_tau_row(lmax, m, t)
                scale = max(1.0, np.abs(row).max())
                assert np.abs(p[:, m, k] - row).max() <= 1e-14 * scale
                scale = max(1.0, np.abs(tau_row).max())
                assert np.abs(pi[:, m, k] - pi_row).max() <= 1e-14 * scale
                assert np.abs(tau[:, m, k] - tau_row).max() <= 1e-14 * scale


class TestComplexHarmonics:
    def test_constant(self):
        assert ylm_complex(0, 0, (0.3, -0.2, 0.9)) == pytest.approx(
            1 / (2 * SQPI)
        )

    def test_axis_value(self):
        assert ylm_complex(1, 0, (0, 0, 1)) == pytest.approx(
            math.sqrt(3 / (4 * math.pi))
        )

    def test_pole_zero_for_nonzero_order(self):
        assert ylm_complex(1, 1, (0, 0, 1)) == 0

    def test_order_bound(self):
        with pytest.raises(DomainError):
            ylm_complex(1, 2, (0, 0, 1))

    def test_conjugation_rule(self, rng):
        for v in random_units(rng, 200):
            for l in range(7):
                for m in range(l + 1):
                    lhs = ylm_complex(l, -m, v)
                    rhs = (-1) ** m * np.conj(ylm_complex(l, m, v))
                    assert abs(lhs - rhs) <= 1e-14


class TestRealHarmonics:
    def test_axis_values(self):
        r3 = math.sqrt(3 / (4 * math.pi))
        assert ylm_real(1, -1, (0, 1, 0)) == pytest.approx(r3)
        assert ylm_real(2, 2, (1, 0, 0)) == pytest.approx(
            0.25 * math.sqrt(15 / math.pi)
        )
        assert ylm_real(2, -2, (0, 0, 1)) == 0

    def test_degree_two_table(self, rng):
        # polynomial expressions restricted to the unit sphere
        table = {
            (0, 0): lambda x, y, z: 0.5 / SQPI,
            (1, -1): lambda x, y, z: math.sqrt(3 / (4 * math.pi)) * y,
            (1, 0): lambda x, y, z: math.sqrt(3 / (4 * math.pi)) * z,
            (1, 1): lambda x, y, z: math.sqrt(3 / (4 * math.pi)) * x,
            (2, -2): lambda x, y, z: 0.5 * math.sqrt(15 / math.pi) * x * y,
            (2, -1): lambda x, y, z: 0.5 * math.sqrt(15 / math.pi) * y * z,
            (2, 0): lambda x, y, z: 0.25
            * math.sqrt(5 / math.pi)
            * (-x * x - y * y + 2 * z * z),
            (2, 1): lambda x, y, z: 0.5 * math.sqrt(15 / math.pi) * x * z,
            (2, 2): lambda x, y, z: 0.25
            * math.sqrt(15 / math.pi)
            * (x * x - y * y),
        }
        for v in random_units(rng, 100):
            for (l, m), poly in table.items():
                assert ylm_real(l, m, v) == pytest.approx(
                    poly(*v), abs=1e-13
                )

    def test_matches_complex_combination(self, rng):
        # the three-case complex/real relation, both directions
        for v in random_units(rng, 30):
            for l in range(5):
                for m in range(-l, l + 1):
                    if m > 0:
                        comb = (
                            ylm_complex(l, -m, v)
                            + (-1) ** m * ylm_complex(l, m, v)
                        ) / math.sqrt(2)
                    elif m == 0:
                        comb = ylm_complex(l, 0, v)
                    else:
                        comb = (
                            1j
                            * (
                                ylm_complex(l, m, v)
                                - (-1) ** m * ylm_complex(l, -m, v)
                            )
                            / math.sqrt(2)
                        )
                    assert comb == pytest.approx(ylm_real(l, m, v), abs=1e-14)
                    # inverse relation reproduces the complex harmonic
                    if m > 0:
                        inv = (
                            (-1) ** m
                            * (ylm_real(l, m, v) + 1j * ylm_real(l, -m, v))
                            / math.sqrt(2)
                        )
                        assert inv == pytest.approx(
                            ylm_complex(l, m, v), abs=1e-14
                        )


class TestSolidHarmonics:
    def test_constant(self):
        assert solid_regular(0, 0, (0.3, -0.2, 0.9)) == pytest.approx(1.0)

    def test_inverse_distance(self):
        assert solid_irregular(0, 0, (2, 0, 0)) == pytest.approx(0.5)

    def test_linear(self):
        assert solid_regular(1, 0, (0.1, 0.2, 0.7)) == pytest.approx(0.7)

    def test_singularity(self):
        with pytest.raises(DomainError):
            solid_irregular(1, 0, (0, 0, 0))

    def test_homogeneity(self, rng):
        for _ in range(5):
            r = rng.normal(size=3)
            c = rng.uniform(0.3, 2.5)
            for l in range(4):
                m = int(rng.integers(-l, l + 1))
                assert solid_regular(l, m, c * r) == pytest.approx(
                    c**l * solid_regular(l, m, r), rel=1e-13
                )
                assert solid_irregular(l, m, c * r) == pytest.approx(
                    c ** (-l - 1) * solid_irregular(l, m, r), rel=1e-13
                )


class TestEquatorValues:
    def test_odd_parity_zero(self):
        assert ylm_equator(1, 0) == 0.0

    def test_constant(self):
        assert ylm_equator(0, 0, at_pi=True) == pytest.approx(1 / (2 * SQPI))

    def test_frozen_value(self):
        assert ylm_equator(2, 2) == pytest.approx(
            0.25 * math.sqrt(15 / (2 * math.pi)), abs=1e-15
        )

    def test_matches_complex_harmonic(self):
        for l in range(6):
            for m in range(-l, l + 1):
                d0 = Direction.from_angles(math.pi / 2, 0.0)
                dpi = Direction.from_angles(math.pi / 2, math.pi)
                assert ylm_equator(l, m) == pytest.approx(
                    complex(ylm_complex(l, m, d0)).real, abs=1e-14
                )
                assert abs(complex(ylm_complex(l, m, d0)).imag) < 1e-16
                assert ylm_equator(l, m, at_pi=True) == pytest.approx(
                    complex(ylm_complex(l, m, dpi)).real, abs=1e-14
                )

    def test_azimuth_flip_sign(self):
        for l in range(6):
            for m in range(-l, l + 1):
                assert ylm_equator(l, m, at_pi=True) == pytest.approx(
                    (-1) ** m * ylm_equator(l, m), abs=1e-15
                )
                if (l + m) % 2 == 1:
                    assert ylm_equator(l, m) == 0.0

    def test_against_mpmath_to_high_degree(self):
        # the trace reads equator values up to degree 2 lmax + 3, and the
        # command line accepts lmax up to 64
        import mpmath

        table = equator_table(131)
        worst = 0.0
        with mpmath.workdps(25):
            for l in range(132):
                for m in range(-l, l + 1, 2):
                    ref = float(mpmath.spherharm(l, m, mpmath.pi / 2, 0).real)
                    worst = max(worst, abs(ylm_equator(l, m) - ref) / abs(ref))
                    assert table[l, m + 131] == ylm_equator(l, m)
        assert worst <= 1e-13

    def test_complex_harmonic_on_the_equator(self):
        # an exact equator direction takes the closed form, at every
        # azimuth and sign of the order, and stays continuous with the
        # Legendre route just off the equator
        import mpmath

        for phi in (0.0, 0.7, math.pi):
            d = Direction.from_vector((math.cos(phi), math.sin(phi), 0.0))
            near = Direction.from_angles(math.pi / 2, phi)
            for l in range(9):
                for m in range(-l, l + 1):
                    value = ylm_complex(l, m, d)
                    assert value == pytest.approx(
                        ylm_complex(l, m, near), abs=1e-14)
                    if (l + m) % 2 == 0:
                        assert value.real == pytest.approx(
                            ylm_equator(l, m) * math.cos(m * phi), abs=1e-15)
        with mpmath.workdps(25):
            for l, m in ((88, 88), (100, -40), (131, 1)):
                ref = complex(mpmath.spherharm(l, m, mpmath.pi / 2, 0.7))
                value = ylm_complex(l, m, Direction.from_vector(
                    (math.cos(0.7), math.sin(0.7), 0.0)))
                assert abs(value - ref) <= 1e-13 * abs(ref)

    def test_table_layout(self):
        table = equator_table(5)
        assert table.shape == (6, 11)
        for l in range(6):
            for m in range(-5, 6):
                expect = ylm_equator(l, m) if abs(m) <= l else 0.0
                assert table[l, m + 5] == expect


def test_orthonormality_by_quadrature(quad20):
    dirs = quad20.directions()
    vals = {}
    for l in range(9):
        for m in range(-l, l + 1):
            vals[(l, m)] = np.array([ylm_complex(l, m, d) for d in dirs])
    worst = 0.0
    for (l, m), f in vals.items():
        for (lp, mp), g in vals.items():
            ip = np.sum(f * g.conjugate() * quad20.weights)
            expect = 1.0 if (l, m) == (lp, mp) else 0.0
            worst = max(worst, abs(ip - expect))
    assert worst <= 1e-12


def test_direction_representations_agree(rng):
    for v in random_units(rng, 50):
        d = Direction.from_vector(v)
        assert np.abs(d.vec - v).max() <= 1e-14
        d2 = Direction.from_angles(d.theta, d.phi)
        assert np.abs(d2.vec - v).max() <= 1e-13
        assert abs(np.linalg.norm(d.vec) - 1) <= 1e-14


def test_high_degree_recurrence_stability():
    # the upward recurrence stays orthonormal far above the test degrees
    for l in (32, 64):
        quad_deg = 2 * l + 2
        from sphelast.oracle import build_quadrature

        quad = build_quadrature(quad_deg)
        for m in (0, l // 2, l):
            vals = np.array(
                [ylm_complex(l, m, d) for d in quad.directions()]
            )
            norm = np.sum(np.abs(vals) ** 2 * quad.weights)
            assert norm == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("pole", [1.0, -1.0])
@pytest.mark.parametrize("offset", [1e-2, 1e-4, 1e-6])
def test_direction_near_the_poles(pole, offset):
    # theta from atan2 keeps the axial component's relative accuracy: the
    # frame's radial vector is the input to a few ulps, and the polar angle
    # is offset (north) or pi - offset (south)
    for phi in (0.0, 0.9, 2.2, 4.0):
        u = np.array([offset * math.cos(phi), offset * math.sin(phi), pole])
        u /= np.linalg.norm(u)
        d = Direction.from_vector(u)
        assert np.abs(d.frame()[0] - u).max() <= 4 * np.finfo(float).eps
        axial = math.hypot(u[0], u[1])
        expect = math.asin(axial) if pole > 0 else math.pi - math.asin(axial)
        assert d.theta == pytest.approx(expect, rel=1e-15)


def test_solid_regular_table_matches_scalar_route(rng):
    # random vectors of several lengths, the axis, the equator, the origin
    scales = (0.3, 1.0, 2.5, 7.0, 1.0)
    vecs = [v * scale for v, scale in zip(random_units(rng, 5), scales)]
    vecs += [np.array([0.0, 0.0, -1.7]), np.array([1.2, -0.4, 0.0]), np.zeros(3)]
    lmax = 10
    for v in vecs:
        table = solid_regular_table(lmax, v)
        scale = max(1.0, float(np.linalg.norm(v))) ** np.arange(lmax + 1)
        for l in range(lmax + 1):
            for m in range(-lmax, lmax + 1):
                want = solid_regular(l, m, v) if abs(m) <= l else 0.0
                assert abs(table[l, m + lmax] - want) <= 1e-14 * scale[l]


def test_solid_regular_table_low_degrees_are_polynomials(rng):
    # the Racah-normalised polynomials, up to rounding of the coordinates
    for x, y, z in rng.normal(size=(5, 3)):
        t = solid_regular_table(2, (x, y, z))
        assert t[1, 3] == pytest.approx(-(x + 1j * y) / math.sqrt(2), rel=1e-15)
        assert t[1, 2] == pytest.approx(z, rel=1e-15)
        assert t[1, 1] == pytest.approx((x - 1j * y) / math.sqrt(2), rel=1e-15)
        rr = x * x + y * y + z * z
        assert t[2, 2] == pytest.approx((3 * z * z - rr) / 2, rel=1e-13)
        assert t[2, 4] == pytest.approx(math.sqrt(3 / 8) * (x + 1j * y) ** 2, rel=1e-15)
