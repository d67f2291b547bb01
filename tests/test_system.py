import dataclasses
import math

import numpy as np
import pytest

from sphelast.assembly import (
    BasisMap,
    assemble_dimer,
    assemble_single,
    sector,
    sectors,
)
from sphelast.kelvin import LameParams, kelvin_tensor, norm_factor
from sphelast.latsum import DimerGeometry
from sphelast.oracle import basis_samples, build_quadrature, inner_product_S2, sample_field
from sphelast.system import (
    _gauss_legendre,
    _transform,
    condition,
    project_rhs,
    solve,
)
from sphelast.vsh import Family

from conftest import grid_at

RHO = 0.1


@pytest.fixture(scope="module")
def matrix():
    return assemble_single(1.3, RHO, LameParams(1.0, 1.0), 3)


def _dense(m, dense):
    """``m`` with its blocks gathered from the dense array ``dense``."""
    return dataclasses.replace(m, blocks=[dense[np.ix_(r, r)] for r in m.rows])


class TestProjectRhs:
    def test_single_growing_harmonic(self, quad16):
        basis = BasisMap(2)
        fields = basis_samples(basis, quad16)
        idx = basis.index_of(1, 0, Family.W)
        b = project_rhs(fields[idx], quad16, basis)
        expect = np.zeros(basis.n_eff)
        expect[idx] = 3.0  # norm of the degree-1 growing-trace family
        assert np.abs(b - expect).max() <= 1e-12

    def test_zero_field(self, quad16):
        basis = BasisMap(1)
        b = project_rhs(np.zeros((quad16.n_nodes, 3)), quad16, basis)
        assert np.abs(b).max() == 0.0

    def test_two_term_combination(self, quad16):
        basis = BasisMap(3)
        fields = basis_samples(basis, quad16)
        i = basis.index_of(2, 1, Family.V)
        j = basis.index_of(3, -2, Family.X)
        phi = fields[i] + 0.5 * fields[j]
        b = project_rhs(phi, quad16, basis)
        assert b[i] == pytest.approx(15.0, abs=1e-11)   # (l+1)(2l+1) at l=2
        assert b[j] == pytest.approx(6.0, abs=1e-11)    # 0.5 * l(l+1) at l=3
        mask = np.ones(basis.n_eff, bool)
        mask[[i, j]] = False
        assert np.abs(b[mask]).max() <= 1e-11

    def test_closed_form_path_conjugates(self, quad16):
        basis = BasisMap(2)
        rng = np.random.default_rng(5)
        c = rng.normal(size=basis.n_eff) + 1j * rng.normal(size=basis.n_eff)
        b_closed = c.conjugate() * [norm_factor(fam, l) for l, _m, fam in basis]
        fields = basis_samples(basis, quad16)
        phi = np.tensordot(c, fields, axes=(0, 0))
        b_quad = project_rhs(phi, quad16, basis)
        assert np.abs(b_closed - b_quad).max() <= 1e-12

    @pytest.mark.parametrize("l_max", [2, 5, 8])
    def test_matches_scalar_projection(self, l_max):
        # the harmonic table against the oracle's one-label-one-node route
        basis = BasisMap(l_max)
        quad = build_quadrature(2 * l_max + 2)
        rng = np.random.default_rng(l_max)
        phi = rng.normal(size=(quad.n_nodes, 3)) + 1j * rng.normal(
            size=(quad.n_nodes, 3)
        )
        fields = basis_samples(basis, quad)
        scalar = np.array([inner_product_S2(f, phi, quad) for f in fields])
        assert np.abs(project_rhs(phi, quad, basis) - scalar).max() <= 1e-13

    def test_sampler_and_samples_agree(self, quad16):
        basis = BasisMap(2)

        def field(d):
            return np.array([d.vec[1] * d.vec[2], 1.0 + 0.5j, d.vec[0] ** 3])

        samples = np.array([field(d) for d in quad16.directions()])
        assert np.array_equal(
            project_rhs(sample_field(field, quad16), quad16, basis),
            project_rhs(samples, quad16, basis),
        )
        with pytest.raises(ValueError):
            project_rhs(samples[:-1], quad16, basis)

    def test_strided_samples(self, quad16):
        # samples that are a strided view project as their contiguous copy
        basis = BasisMap(2)
        rng = np.random.default_rng(3)
        both = rng.normal(size=(quad16.n_nodes, 3, 2)) + 1j * rng.normal(
            size=(quad16.n_nodes, 3, 2))
        assert np.array_equal(
            project_rhs(both[:, :, 0], quad16, basis),
            project_rhs(both[:, :, 0].copy(), quad16, basis),
        )

    def test_degree_guard(self):
        basis = BasisMap(4)
        quad = build_quadrature(6)
        with pytest.raises(ValueError):
            project_rhs(np.zeros((quad.n_nodes, 3)), quad, basis)


def _gauss_legendre_40(n):
    """The n-point Gauss-Legendre rule by Newton's method at 40 digits,
    rounded to float64: nodes and weights ``2 / ((1 - x^2) P_n'(x)^2)``."""
    import mpmath

    def values(x):
        p0, p1 = mpmath.mpf(1), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n * (p0 - x * p1) / (1 - x * x)

    nodes, weights = [], []
    with mpmath.workdps(40):
        for k in range(1, n + 1):
            x = mpmath.cos(mpmath.pi * (k - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
            for _ in range(100):
                p, dp = values(x)
                step = p / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** -45:
                    break
            p, dp = values(x)
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    order = np.argsort(nodes)
    return np.array(nodes)[order], np.array(weights)[order]


class TestRule:
    """``build_quadrature``'s Gauss-Legendre factor against 40 digits."""

    @pytest.mark.parametrize("n", [1, 2, 7, 18, 34])
    def test_nodes_and_weights(self, n):
        # leggauss's own weights are 8e-14 off at n = 18 and 3e-13 at n = 34
        x, w = _gauss_legendre(n)
        ref_x, ref_w = _gauss_legendre_40(n)
        assert np.abs(x - ref_x).max() <= 2.3e-16
        assert np.abs(w / ref_w - 1).max() <= 3e-14

    def test_gram_error_at_lmax_16(self):
        # the real vector harmonics are orthogonal under the rule to the
        # level the 40-digit rule gives (2.1e-15 for both; 2.0e-14 with
        # leggauss's weights)
        l_max = 16
        basis = BasisMap(l_max)
        n_phi = 2 * l_max + 3

        def gram_error(theta, weights):
            fields = basis_samples(basis, grid_at(theta, quad.phi))
            flat = fields.reshape(len(fields), -1)
            gram = flat @ (fields * weights[:, None]).reshape(len(fields), -1).T
            scale = np.sqrt(np.diag(gram))
            return np.abs(gram / scale[:, None] / scale - np.eye(len(gram))).max()

        quad = build_quadrature(2 * l_max + 2)
        ref_x, ref_w = _gauss_legendre_40(l_max + 2)
        ref = gram_error(
            np.repeat(np.arccos(ref_x), n_phi),
            np.repeat(ref_w, n_phi) * (2 * math.pi / n_phi),
        )
        assert ref <= 6e-15
        assert gram_error(quad.theta, quad.weights) <= 6e-15


class TestSolvePlan:
    """The cached ring tables of the projection and the per-sector solve."""

    @staticmethod
    def _seeded(seed, sign_flip, dimer):
        rng = np.random.default_rng(seed)
        alpha, rho = rng.uniform(0.3, 2 * math.pi - 0.3), rng.uniform(0.05, 0.2)
        params = LameParams(rng.uniform(0.2, 3.0), rng.uniform(0.5, 2.0), sign_flip)
        if dimer:
            geom = DimerGeometry(rng.uniform(rho + 0.02, 0.5 - rho - 0.02), rho)
            mat = assemble_dimer(alpha, geom, params, 2)
        else:
            mat = assemble_single(alpha, rho, params, 5)
        n = mat.size
        return mat, rng.normal(size=n) + 1j * rng.normal(size=n)

    @pytest.mark.parametrize("dimer", [False, True])
    @pytest.mark.parametrize("sign_flip", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sectors_match_one_group(self, seed, sign_flip, dimer):
        mat, rhs = self._seeded(seed, sign_flip, dimer)
        whole = np.linalg.solve(mat.matrix, rhs).conj()
        whole_cond = np.linalg.cond(mat.matrix, 1)
        res = solve(mat, rhs)
        assert np.abs(res.coeffs - whole).max() <= 1e-15 * np.abs(whole).max()
        assert f"{res.cond:.3e}" == f"{whole_cond:.3e}"
        assert condition(mat) == res.cond
        assert condition(mat) == pytest.approx(whole_cond, rel=1e-14)

    def test_sectors_partition_the_basis(self):
        groups = sectors(3)
        assert sectors(3) is groups
        n = BasisMap(3).n_eff
        assert len(groups) == 4
        assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(n))
        assert not any(g.flags.writeable for g in groups)
        # each sector is one block of the matrix, on both balls of the dimer
        single = assemble_single(1.3, RHO, LameParams(1.0, 1.0), 3)
        dimer = assemble_dimer(1.3, DimerGeometry(0.2, RHO), LameParams(1.0, 1.0), 3)
        secs = np.array([sector(*label) for label in BasisMap(3)])
        for b in range(4):
            assert set(secs[groups[b]]) == {b}
            assert np.array_equal(single.rows[b], groups[b])
            assert np.array_equal(dimer.rows[b], np.r_[groups[b], groups[b] + n])
            assert single.blocks[b].shape == (len(groups[b]),) * 2
            assert dimer.blocks[b].shape == (2 * len(groups[b]),) * 2
        assert [list(g) for g in sectors(0)] == [[0]]

    @pytest.mark.parametrize("l_max", range(10))
    def test_sectors_match_per_label(self, l_max):
        secs = np.array([sector(*label) for label in BasisMap(l_max)])
        groups = [np.flatnonzero(secs == k) for k in range(4)]
        assert [list(g) for g in sectors(l_max)] == [
            list(g) for g in groups if len(g)]

    def test_projection_is_cached_read_only(self):
        basis = BasisMap(3)
        quad = build_quadrature(8)
        first = _transform(3, 8)
        assert _transform(3, 8) is first
        assert _transform.cache_info().currsize == 1
        rule, dft, group, amps = first
        assert rule.degree == 8 and np.array_equal(rule.weights, quad.weights)
        assert len(group) == len(amps) == basis.n_eff
        for arr in (dft, group, amps, rule.theta, rule.phi, rule.nodes, rule.weights):
            assert not arr.flags.writeable
        phi = np.ones((quad.n_nodes, 3))
        project_rhs(phi, quad, basis)
        assert _transform(3, 8) is first

    def test_projection_refuses_another_rule(self):
        quad = build_quadrature(8)
        moved = type(quad)(quad.theta, quad.phi + 0.1, quad.nodes, quad.weights, 8)
        with pytest.raises(ValueError, match="build_quadrature"):
            project_rhs(np.ones((quad.n_nodes, 3)), moved, BasisMap(3))

    @pytest.mark.parametrize("field", ["random", "uniform-x", "point-force"])
    @pytest.mark.parametrize("l_max", [*range(9), 16, 32])
    def test_matches_table_route(self, l_max, field):
        # the ring transform against the harmonic table at every node times
        # the weights, as two real products
        basis = BasisMap(l_max)
        quad = build_quadrature(2 * l_max + 2)
        if field == "random":
            rng = np.random.default_rng(l_max)
            phi = rng.normal(size=(quad.n_nodes, 3)) + 1j * rng.normal(
                size=(quad.n_nodes, 3))
        elif field == "uniform-x":
            phi = np.tile([1.0, 0.0, 0.0], (quad.n_nodes, 1))
        else:  # the CI's point force, as the CLI samples it
            params = LameParams(1.5, 0.8)
            phi = kelvin_tensor(0.2 * quad.nodes - np.array([2.0, 0.3, 0.0]), params)[:, :, 0]
        table = basis_samples(basis, quad) * quad.weights[:, None]
        flat = np.asarray(phi, dtype=complex).conjugate().reshape(-1)
        expect = (table.reshape(len(table), -1) @ np.stack([flat.real, flat.imag], axis=1))
        expect = expect.view(complex)[:, 0]
        got = project_rhs(phi, quad, basis)
        if l_max == 0 and field == "uniform-x":
            # a uniform field has no degree-0 part: both are the rounding
            # noise of a sum whose terms add up to 5.6 in size
            assert max(abs(got[0]), abs(expect[0])) <= 1e-15
            return
        # at lmax 32 each route is about 1.8e-15 of the largest entry from
        # a long-double evaluation of the same sums for the point force,
        # and they differ by 2.0e-15
        bound = 3e-15 if l_max == 32 else 2e-15
        assert np.abs(got - expect).max() <= bound * np.abs(expect).max()

    @pytest.mark.parametrize("l_max", [5, 16])
    def test_matches_weighted_einsum(self, l_max):
        basis = BasisMap(l_max)
        quad = build_quadrature(2 * l_max + 2)
        rng = np.random.default_rng(l_max)
        phi = rng.normal(size=(quad.n_nodes, 3)) + 1j * rng.normal(
            size=(quad.n_nodes, 3)
        )
        fields = basis_samples(basis, quad)
        einsum = np.einsum("ink,nk,n->i", fields, phi.conjugate(), quad.weights)
        got = project_rhs(phi, quad, basis)
        assert np.abs(got - einsum).max() <= 4e-15 * np.abs(einsum).max()


class TestSolveSingle:
    def test_algebraic_round_trip(self, matrix, rng):
        f = rng.normal(size=matrix.basis.n_eff) + 1j * rng.normal(
            size=matrix.basis.n_eff
        )
        rhs = matrix.matrix @ f.conjugate()
        res = solve(matrix, rhs)
        assert np.abs(res.coeffs - f).max() <= 1e-10
        assert res.residual <= 1e-12
        assert np.isfinite(res.cond)

    def test_zero_rhs(self, matrix):
        res = solve(matrix, np.zeros(matrix.basis.n_eff))
        assert np.abs(res.coeffs).max() == 0.0

    def test_conjugate_linearity(self, matrix, rng):
        n = matrix.basis.n_eff
        b1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        b2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        c1, c2 = 0.3 - 1.1j, 2.0 + 0.4j
        combo = solve(matrix, c1 * b1 + c2 * b2).coeffs
        parts = (
            np.conj(c1) * solve(matrix, b1).coeffs
            + np.conj(c2) * solve(matrix, b2).coeffs
        )
        assert np.abs(combo - parts).max() <= 1e-10

    def test_ill_conditioning_warns_but_solves(self, matrix):
        scaled = matrix.matrix.copy()
        scaled[-1] *= 1e-14
        bad = _dense(matrix, scaled)
        rhs = np.ones(matrix.basis.n_eff, dtype=complex)
        res = solve(bad, rhs)
        assert res.warning is not None
        assert np.all(np.isfinite(res.coeffs))

    def test_exactly_singular_matrix_raises(self, matrix):
        singular = matrix.matrix.copy()
        singular[3] = 0.0
        rhs = np.ones(matrix.basis.n_eff, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError, match="singular operator matrix"):
            solve(_dense(matrix, singular), rhs)
        assert condition(_dense(matrix, singular)) == math.inf

    def test_non_finite_rhs_raises(self, matrix):
        # a NaN right-hand side is named as such, not blamed on the matrix
        rhs = np.ones(matrix.basis.n_eff, dtype=complex)
        rhs[2] = np.nan
        with pytest.raises(ValueError, match="right-hand side"):
            solve(matrix, rhs)

    def test_rejects_dimer_matrix(self):
        # one ball's right-hand side against the dimer matrix is refused
        mat = assemble_dimer(1.3, DimerGeometry(0.2, RHO), LameParams(1.0, 1.0), 1)
        with pytest.raises(ValueError, match="shape mismatch"):
            solve(mat, np.zeros(mat.basis.n_eff))


class TestSolveDimer:
    def test_round_trip(self, rng):
        geom = DimerGeometry(0.2, RHO)
        mat = assemble_dimer(1.3, geom, LameParams(1.0, 1.0), 2)
        n = mat.basis.n_eff
        f1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        f2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        rhs = mat.matrix @ np.concatenate([f1, f2]).conjugate()
        r1, r2 = np.split(solve(mat, rhs).coeffs, 2)
        assert np.abs(r1 - f1).max() <= 1e-10
        assert np.abs(r2 - f2).max() <= 1e-10

    def test_zero_rhs(self):
        geom = DimerGeometry(0.2, RHO)
        mat = assemble_dimer(1.3, geom, LameParams(1.0, 1.0), 1)
        res = solve(mat, np.zeros(2 * mat.basis.n_eff))
        assert np.abs(res.coeffs).max() == 0.0

    def test_rejects_single_matrix(self, matrix):
        # two balls' right-hand side against one ball's matrix is refused
        with pytest.raises(ValueError, match="shape mismatch"):
            solve(matrix, np.zeros(2 * matrix.basis.n_eff))


def test_oracle_path_manufactured_recovery(rng, params):
    # full-chain check on a small problem: the boundary field is built by
    # direct quadrature over the lattice copies (tapered outer shells to
    # damp the conditionally convergent tail) plus the closed-form on-ball
    # term, then projected and solved
    from sphelast.kelvin import surface_response
    from sphelast.oracle import brute_potential

    alpha, l_max, n_cut, window = math.pi / 2, 1, 400, 40
    basis = BasisMap(l_max)
    quad = build_quadrature(12)
    coeffs = rng.normal(size=basis.n_eff) + 1j * rng.normal(size=basis.n_eff)
    fields = basis_samples(basis, quad)
    density = np.tensordot(coeffs, fields, axes=(0, 0))
    targets = RHO * quad.nodes
    phi = np.zeros((quad.n_nodes, 3), dtype=complex)
    for j in range(1, n_cut + 1):
        wt = min(1.0, (n_cut - j + 1) / window)
        for sgn in (1, -1):
            shell = brute_potential(
                targets, density, (sgn * j, 0.0, 0.0), RHO, params, quad)
            phi += wt * np.exp(1j * alpha * sgn * j) * shell
    for i, (l, m, fam) in enumerate(basis):
        tau = surface_response(l, params)[int(fam) - 1]
        phi += coeffs[i] * RHO * tau * fields[i]
    mat = assemble_single(alpha, RHO, params, l_max)
    res = solve(mat, project_rhs(phi, quad, basis))
    assert np.abs(res.coeffs - coeffs).max() <= 1e-6
