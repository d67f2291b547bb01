import math

import numpy as np
import pytest

from sphelast.assembly import BasisMap
from sphelast.oracle import (
    basis_samples,
    brute_lattice_entry,
    brute_potential,
    build_quadrature,
    finite_diff_gradient,
    inner_product_S2,
)
from sphelast.sphharm import solid_irregular, solid_regular, ylm_complex
from sphelast.vsh import Family


class TestQuadrature:
    def test_weight_total(self):
        quad = build_quadrature(8)
        assert quad.weights.sum() == pytest.approx(4 * math.pi, abs=1e-13)

    def test_constant_integral(self):
        quad = build_quadrature(8)
        vals = np.array([ylm_complex(0, 0, d) for d in quad.directions()])
        assert np.sum(vals * quad.weights) == pytest.approx(
            2 * math.sqrt(math.pi), abs=1e-14
        )

    def test_unit_norm(self):
        quad = build_quadrature(8)
        vals = np.array([ylm_complex(3, 2, d) for d in quad.directions()])
        assert np.sum(np.abs(vals) ** 2 * quad.weights) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_exactness_gate(self):
        # exact for harmonic products up to the declared degree
        quad = build_quadrature(12)
        worst = 0.0
        vals = {}
        for l in range(7):
            for m in range(-l, l + 1):
                vals[(l, m)] = np.array(
                    [ylm_complex(l, m, d) for d in quad.directions()]
                )
        for (l, m), f in vals.items():
            for (lp, mp), g in vals.items():
                if l + lp > 12:
                    continue
                ip = np.sum(f * g.conjugate() * quad.weights)
                expect = 1.0 if (l, m) == (lp, mp) else 0.0
                worst = max(worst, abs(ip - expect))
        assert worst <= 1e-13

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            build_quadrature(0)


class TestInnerProduct:
    def test_phase_extraction(self, quad16, rng):
        f = rng.normal(size=(quad16.n_nodes, 3))
        g = rng.normal(size=(quad16.n_nodes, 3))
        plain = inner_product_S2(f, g, quad16)
        phase = complex(math.cos(0.8), math.sin(0.8))
        assert inner_product_S2(f, phase * g, quad16) == pytest.approx(
            np.conj(phase) * plain
        )

    def test_shape_guard(self, quad16):
        with pytest.raises(ValueError):
            inner_product_S2(np.zeros((3, 3)), np.zeros((3, 3)), quad16)


class TestBrutePotential:
    @staticmethod
    def _samples(c, quad):
        # the density with coefficients c over BasisMap(1), on the grid
        return np.tensordot(c, basis_samples(BasisMap(1), quad), axes=(0, 0))

    def test_zero_density(self, params, quad16):
        basis = BasisMap(1)
        out = brute_potential(
            (1.0, 0, 0), self._samples(np.zeros(basis.n_eff), quad16),
            (0, 0, 0), 0.2, params, quad16,
        )
        assert np.abs(out).max() == 0.0

    def test_linearity(self, params, quad16, rng):
        basis = BasisMap(1)
        c1 = rng.normal(size=basis.n_eff)
        c2 = rng.normal(size=basis.n_eff)
        x = (0.9, 0.1, -0.2)

        def pot(c):
            return brute_potential(
                x, self._samples(c, quad16), (0, 0, 0), 0.2, params, quad16
            )

        out = pot(c1 + 2 * c2)
        parts = pot(c1) + 2 * pot(c2)
        assert np.abs(out - parts).max() <= 1e-14

    def test_proximity_guard(self, params, quad16):
        basis = BasisMap(1)
        with pytest.raises(ValueError):
            brute_potential(
                (0.201, 0, 0), self._samples(np.ones(basis.n_eff), quad16),
                (0, 0, 0), 0.2, params, quad16,
            )

    def test_multiple_targets(self, params, quad16):
        basis = BasisMap(1)
        c = np.ones(basis.n_eff)
        xs = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        out = brute_potential(
            xs, self._samples(c, quad16), (0, 0, 0), 0.2, params, quad16
        )
        assert out.shape == (2, 3)


class TestBruteLatticeEntry:
    def test_zero_cut(self, params):
        assert brute_lattice_entry(
            Family.W, 1, 0, Family.W, 1, 0, 1.0, 0.1, params, 0
        ) == 0

    def test_phase_reflection_conjugates(self, params):
        alpha = 1.1
        a = brute_lattice_entry(Family.W, 1, 0, Family.W, 1, 0, alpha, 0.1, params, 300)
        b = brute_lattice_entry(
            Family.W, 1, 0, Family.W, 1, 0, 2 * math.pi - alpha, 0.1, params, 300
        )
        assert b == pytest.approx(np.conj(a), abs=1e-14)

    def test_partial_sums(self, params):
        total, partials = brute_lattice_entry(
            Family.W, 1, 0, Family.V, 1, 0, 1.0, 0.1, params, 100,
            checkpoints=[10, 100],
        )
        assert partials[100] == total
        assert partials[10] != total


class TestFiniteDifferences:
    def test_inverse_distance(self):
        grad = finite_diff_gradient(lambda p: 1.0 / np.linalg.norm(p), (1.0, 0, 0))
        assert np.abs(grad - [-1.0, 0, 0]).max() <= 1e-8

    def test_linear_harmonic(self):
        grad = finite_diff_gradient(
            lambda p: solid_regular(1, 0, p), (0.3, -0.2, 0.5)
        )
        assert np.abs(grad - [0, 0, 1.0]).max() <= 1e-9

    def test_decaying_harmonic(self):
        x = np.array([0.5, 0.4, -0.3])
        grad = finite_diff_gradient(lambda p: solid_irregular(0, 0, p), x)
        r = np.linalg.norm(x)
        assert np.abs(grad - (-x / r**3)).max() <= 1e-8
