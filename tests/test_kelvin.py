import math

import numpy as np
import pytest

from sphelast.assembly import BasisMap
from sphelast.kelvin import (
    LameParams,
    exterior_response,
    kelvin_tensor,
    norm_factor,
    response_coeffs,
    shifted_ball_potential,
    surface_response,
)
from sphelast.oracle import brute_potential, build_quadrature, inner_product_S2
from sphelast.sphharm import DomainError
from sphelast.vsh import Family, ForbiddenIndexError, vsh_real

from conftest import random_units


class TestFundamentalSolution:
    def test_axis_values(self, params):
        g = kelvin_tensor((1, 0, 0), params)
        assert g[0, 0] == pytest.approx(1 / (4 * math.pi))
        assert g[1, 1] == pytest.approx(1 / (6 * math.pi))
        assert g[2, 2] == pytest.approx(1 / (6 * math.pi))
        assert np.abs(g - np.diag(np.diag(g))).max() == 0.0

    def test_homogeneity(self, params, rng):
        x = rng.normal(size=3)
        for c in (0.5, 2.0):
            assert np.abs(
                kelvin_tensor(c * x, params) - kelvin_tensor(x, params) / c
            ).max() <= 1e-15

    def test_evenness(self, params, rng):
        x = rng.normal(size=3)
        assert np.abs(
            kelvin_tensor(-x, params) - kelvin_tensor(x, params)
        ).max() == 0.0

    def test_symmetry(self, params, rng):
        x = rng.normal(size=3)
        g = kelvin_tensor(x, params)
        assert np.abs(g - g.T).max() == 0.0

    def test_singularity(self, params):
        with pytest.raises(DomainError):
            kelvin_tensor((0, 0, 0), params)

    def test_stacked_points(self, params, rng):
        # one call over many points gives the one-point tensors, stacked
        x = rng.normal(size=(4, 5, 3))
        g = kelvin_tensor(x, params)
        assert g.shape == (4, 5, 3, 3)
        for idx in np.ndindex(4, 5):
            one = kelvin_tensor(x[idx], params)
            assert np.abs(g[idx] - one).max() <= 1e-15 * np.abs(one).max()
            assert np.abs(g[idx] - g[idx].T).max() == 0.0
        with pytest.raises(DomainError):
            kelvin_tensor([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], params)

    def test_sign_flip(self, rng):
        x = rng.normal(size=3)
        plain = kelvin_tensor(x, LameParams(1.3, 0.7))
        flipped = kelvin_tensor(x, LameParams(1.3, 0.7, sign_flip=True))
        assert np.abs(plain + flipped).max() == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LameParams(1.0, -1.0)
        with pytest.raises(ValueError):
            LameParams(-3.0, 1.0)

    def test_non_finite_constants_rejected(self):
        for lam, mu in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                        (1.0, math.inf)):
            with pytest.raises(ValueError):
                LameParams(lam, mu)


class TestResponseMatrices:
    def test_toroidal_coefficient(self, params):
        # degree-1 toroidal slot at twice the radius
        mat = exterior_response(1, 2.0, params)
        assert mat[2, 2] == pytest.approx(1 / 12)

    def test_surface_value_degree_zero(self, params):
        assert surface_response(0, params)[0] == pytest.approx(1 / 9)

    def test_boundary_continuity(self, params):
        for l in range(5):
            taus = surface_response(l, params)
            errs = []
            for eps in (1e-4, 1e-5):
                mat = exterior_response(l, 1.0 + eps, params)
                errs.append(
                    max(
                        abs(mat[j, j] - taus[j])
                        for j in range(3)
                        if not (l == 0 and j > 0)
                    )
                )
            # linear approach to the surface values
            assert errs[1] <= 0.2 * errs[0]

    def test_domain_error_inside(self, params):
        with pytest.raises(DomainError):
            exterior_response(1, 0.9, params)
        with pytest.raises(DomainError):
            exterior_response(1, 1.0, params)

    def test_degree_zero_mixing_vanishes(self, params):
        mat = exterior_response(0, 2.0, params)
        assert mat[0, 1] == 0.0
        assert mat[1, 1] == 0.0

    def test_sparsity(self, params):
        mat = exterior_response(3, 1.7, params)
        nonzero = {(0, 0), (0, 1), (1, 1), (2, 2)}
        for i in range(3):
            for j in range(3):
                if (i, j) not in nonzero:
                    assert mat[i, j] == 0.0

    def test_sign_flip_negates(self):
        a = np.array(response_coeffs(2, LameParams(1.0, 2.0)))
        b = np.array(response_coeffs(2, LameParams(1.0, 2.0, sign_flip=True)))
        assert np.abs(a + b).max() == 0.0


class TestShiftedBallPotential:
    def test_rejects_zero_shift(self, params):
        with pytest.raises(DomainError):
            shifted_ball_potential(0.0, 1, 0, Family.W, (0, 0, 1), 0.1, params)

    def test_rejects_forbidden_density(self, params):
        with pytest.raises(ForbiddenIndexError):
            shifted_ball_potential(1, 0, 0, Family.W, (0, 0, 1), 0.1, params)

    def test_decay_with_distance(self, params, rng):
        xhat = random_units(rng, 1)[0]
        for l, fam, p in [(1, Family.V, 3), (1, Family.W, 1), (2, Family.X, 3)]:
            near = np.abs(
                shifted_ball_potential(1, l, 0, fam, xhat, 0.1, params)
            ).max()
            far = np.abs(
                shifted_ball_potential(4, l, 0, fam, xhat, 0.1, params)
            ).max()
            # leading radial power of the family column
            assert far <= near * (1.2 / 3.8) ** p * 4

    def test_decaying_density_uses_single_row(self, params, rng):
        # degree-0 decaying-trace densities excite only their own family
        xhat = random_units(rng, 1)[0]
        val = shifted_ball_potential(1, 0, 0, Family.V, xhat, 0.1, params)
        w = 0.1 * xhat - np.array([1.0, 0, 0])
        vdir = w / np.linalg.norm(w)
        v_field = vsh_real(Family.V, 0, 0, vdir)
        cross = np.cross(val, v_field)
        assert np.abs(cross).max() <= 1e-15 * np.abs(val).max() / max(
            np.abs(v_field).max(), 1e-30
        ) + 1e-18

    def test_against_direct_quadrature(self, params, rng, quad20):
        rho = 0.1
        for l, m, fam in [(1, 0, Family.W), (2, 1, Family.X), (1, -1, Family.V)]:
            samples = np.array(
                [vsh_real(fam, l, m, d) for d in quad20.directions()]
            )
            xhat = random_units(rng, 1)[0]
            direct = brute_potential(
                rho * xhat, samples, (1, 0, 0), rho, params, quad20
            )
            closed = shifted_ball_potential(1, l, m, fam, xhat, rho, params)
            assert np.abs(direct - closed).max() <= 1e-12


def test_exterior_identity_against_quadrature(params, rng):
    # direct surface quadrature of the layer potential against the sparse
    # closed-form response, off the surface
    quad = build_quadrature(64)
    rho = 0.25
    basis = BasisMap(3)
    for l, fam in [(0, Family.V), (2, Family.W), (3, Family.X)]:
        m = int(rng.integers(-l, l + 1))
        samples = np.array(
            [vsh_real(fam, l, m, d) for d in quad.directions()]
        )
        xhat = random_units(rng, 1)[0]
        for fac in (1.5, 3.0):
            direct = brute_potential(
                fac * rho * xhat, samples, (0, 0, 0), rho, params, quad
            )
            mat = exterior_response(l, fac, params)
            closed = rho * sum(
                mat[j - 1, fam - 1] * vsh_real(j, l, m, xhat)
                for j in Family
                if not (l == 0 and j != Family.V)
            )
            scale = max(np.abs(closed).max(), 1e-30)
            assert np.abs(direct - closed).max() / scale <= 1e-8


def test_surface_response_diagonal_inner_products(params, quad16):
    # (row, on-ball potential of column) = rho * tau * norm on the diagonal
    rho = 0.2
    for l, fam, slot in [(1, Family.V, 0), (2, Family.W, 1), (1, Family.X, 2)]:
        tau = surface_response(l, params)[slot]
        f = lambda d: vsh_real(fam, l, 0, d)
        pot = lambda d: rho * tau * vsh_real(fam, l, 0, d)
        ip = inner_product_S2(f, pot, quad16)
        assert complex(ip).real == pytest.approx(
            rho * tau * norm_factor(fam, l), rel=1e-12
        )
