import math

import numpy as np
import pytest

from sphelast.assembly import (
    BasisMap,
    Trace,
    _DegreeBlocks,
    _contract,
    _entry_coef,
    _mirror,
    _per_copy_values,
    _real_orders,
    _unitary_scale,
    _unrestricted,
    assemble_dimer,
    assemble_single,
    entry_dimer,
    entry_single,
    per_copy_entries,
    per_copy_entry,
    sector,
)
from sphelast.kelvin import (
    LameParams,
    norm_factor,
    shifted_ball_potential,
    surface_response,
)
from sphelast.latsum import DimerGeometry, LatticeSumCache, QuasiMomentumSingular
from sphelast.oracle import (
    brute_lattice_entry,
    build_quadrature,
    inner_product_S2,
)
from sphelast.translation import (
    combine_row,
    combine_source,
    cross_coeff,
    decay_coeff,
)
from sphelast.vsh import Family, ForbiddenIndexError, vsh_real

from conftest import kernel_coef

RHO = 0.1
GEOM = DimerGeometry(0.2, RHO)


class TestBasisMap:
    def test_first_slot(self):
        basis = BasisMap(2)
        assert basis.index_of(0, 0, Family.V) == 0

    def test_effective_size(self):
        assert BasisMap(1).n_eff == 10
        assert BasisMap(2).n_eff == 25
        for l_max in range(5):
            assert BasisMap(l_max).n_eff == 3 * (l_max + 1) ** 2 - 2

    def test_second_slot(self):
        assert BasisMap(1).index_of(1, -1, Family.V) == 1

    def test_forbidden_labels(self):
        basis = BasisMap(2)
        with pytest.raises(ForbiddenIndexError):
            basis.index_of(0, 0, Family.W)
        with pytest.raises(ForbiddenIndexError):
            basis.index_of(0, 0, Family.X)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            BasisMap(1).index_of(2, 0, Family.V)

    def test_ordering(self):
        basis = BasisMap(1)
        assert basis.labels[:4] == [
            (0, 0, Family.V),
            (1, -1, Family.V),
            (1, -1, Family.W),
            (1, -1, Family.X),
        ]


class TestShiftKernel:
    def test_matches_scalar_coefficients(self):
        # the block builder's kernels, evaluated at single shifts, are the
        # same closed forms as the scalar translation coefficients; below
        # 0.7, decay_coeff's harmonic at azimuth pi (positive shifts) has an
        # imaginary roundoff above 1e-15
        ns = np.concatenate([[1.0, -2.0, 3.5, -0.4], np.linspace(-6.0, -0.3, 115),
                             np.linspace(0.7, 6.0, 107)])
        blocks = _DegreeBlocks(2)
        plain = _per_copy_values(*kernel_coef(blocks, "plain", 2, 1, 1, 0), ns)
        cross = _per_copy_values(
            *kernel_coef(blocks, "cross", 1, 1, 1, 0, 0, 1, 0), ns)
        for i, n in enumerate(ns):
            shift = np.array([-n, 0.0, 0.0])
            assert plain[i] == pytest.approx(
                complex(decay_coeff(2, 1, 1, 0, shift)), abs=1e-15
            )
            assert cross[i] == pytest.approx(
                complex(cross_coeff(1, 1, 1, 0, 0, 1, 0, shift)), abs=1e-15
            )

    def test_rejects_zero_shift(self, params):
        with pytest.raises(ValueError):
            per_copy_entries(
                Family.W, 1, 0, Family.W, 1, 0, [1.0, 0.0], RHO, params)


def test_block_unitaries_match_scalar_combinations(rng):
    # the complex-to-real change of order on both sides of a block is the
    # per-entry combine_source (columns) then combine_row (rows)
    lp, l = 2, 3
    kernel = rng.normal(size=(2 * lp + 1, 2 * l + 1))
    cols = _real_orders(kernel)
    block = _real_orders(cols.T, row=True).T / _unitary_scale(lp, l)
    for mp in range(-lp, lp + 1):
        for m in range(-l, l + 1):
            expect = combine_row(mp, lambda mu: combine_source(
                m, lambda mt: kernel[mu + lp, mt + l]))
            assert block[mp + lp, m + l] == pytest.approx(expect, abs=1e-15)


class TestPerCopy:
    def test_decaying_source_rows_vanish(self, params):
        for lp in range(3):
            for l in range(3):
                assert per_copy_entry(
                    Family.V, lp, 0, Family.V, l, 0, 1, RHO, params
                ) == 0.0
        assert per_copy_entry(Family.X, 1, 0, Family.V, 1, 0, 2, RHO, params) == 0.0

    def test_toroidal_to_decaying_vanishes_numerically(self, params):
        assert abs(
            per_copy_entry(Family.V, 2, 1, Family.X, 1, 1, 1, RHO, params)
        ) <= 1e-10

    def test_against_quadrature(self, params, quad20):
        cases = [
            (Family.W, 1, 0, Family.V, 1, 0),
            (Family.V, 1, 1, Family.W, 2, 0),
            (Family.X, 1, 0, Family.W, 1, -1),
            (Family.W, 1, -1, Family.X, 1, 0),
            (Family.X, 1, -1, Family.X, 1, -1),
            (Family.W, 2, 0, Family.W, 2, 0),
        ]
        for pf, lp, mp, qf, l, m in cases:
            for n in (1, -2):
                proj = inner_product_S2(
                    lambda d: vsh_real(pf, lp, mp, d),
                    lambda d: shifted_ball_potential(n, l, m, qf, d, RHO, params),
                    quad20,
                )
                closed = per_copy_entry(pf, lp, mp, qf, l, m, n, RHO, params)
                assert abs(proj - closed) <= 1e-8

    def test_vectorised_matches_scalar(self, params):
        ns = [1, -1, 2, -3]
        vec = per_copy_entries(
            Family.W, 1, 0, Family.W, 1, 0, [float(n) for n in ns], RHO, params
        )
        for i, n in enumerate(ns):
            assert vec[i] == pytest.approx(
                per_copy_entry(Family.W, 1, 0, Family.W, 1, 0, n, RHO, params),
                abs=1e-15,
            )

    def test_forbidden_labels(self, params):
        with pytest.raises(ForbiddenIndexError):
            per_copy_entry(Family.W, 0, 0, Family.V, 1, 0, 1, RHO, params)


class TestEntrySingle:
    def test_zero_blocks(self, params):
        alpha = 1.2
        assert entry_single(Family.X, 1, 0, Family.V, 1, 0, alpha, RHO, params) == 0
        assert entry_single(Family.V, 1, 0, Family.X, 1, 0, alpha, RHO, params) == 0

    def test_decaying_block_is_pure_diagonal(self, params):
        # no phase dependence anywhere in the (V, V) block
        one = entry_single(Family.V, 1, 0, Family.V, 1, 0, 0.8, RHO, params)
        two = entry_single(Family.V, 1, 0, Family.V, 1, 0, 2.4, RHO, params)
        assert one == two
        tau = surface_response(1, params)[0]
        assert one == pytest.approx(RHO * tau * norm_factor(Family.V, 1))
        assert entry_single(Family.V, 1, 0, Family.V, 2, 0, 0.8, RHO, params) == 0

    def test_diagonal_consistency(self, params):
        # the diagonal entry minus its lattice part is exactly the on-ball
        # surface response times the basis norm
        from sphelast.latsum import line_values

        alpha = 1.9
        for fam, l, slot in [(Family.W, 1, 1), (Family.X, 2, 2), (Family.V, 1, 0)]:
            full = entry_single(fam, l, 0, fam, l, 0, alpha, RHO, params)
            if fam == Family.V:
                lattice = 0.0
            else:
                order, coef = _entry_coef(fam, l, 0, fam, l, 0, RHO, params)
                lattice = _contract(
                    np.array([order]), coef[None],
                    line_values(LatticeSumCache(alpha), 2 * l + 3),
                )[0]
            tau = surface_response(l, params)[slot]
            assert full - lattice == pytest.approx(
                RHO * tau * norm_factor(fam, l), abs=1e-16
            )

    @pytest.mark.parametrize(
        "pf,lp,mp,qf,l,m",
        [
            (Family.W, 2, 0, Family.V, 1, 0),
            (Family.V, 1, 1, Family.W, 2, 0),
            (Family.W, 1, 1, Family.W, 1, 1),
            (Family.X, 1, 0, Family.W, 1, -1),
            (Family.W, 1, -1, Family.X, 1, 0),
            (Family.X, 2, 1, Family.X, 2, 1),
        ],
    )
    def test_against_truncated_sums(self, params, pf, lp, mp, qf, l, m):
        alpha = math.pi / 2
        closed = entry_single(pf, lp, mp, qf, l, m, alpha, RHO, params)
        brute = brute_lattice_entry(pf, lp, mp, qf, l, m, alpha, RHO, params, 10000)
        if (pf, lp, mp) == (qf, l, m):
            tau = surface_response(l, params)[int(pf) - 1]
            brute += RHO * tau * norm_factor(pf, l)
        assert abs(closed - brute) <= 1e-5
        assert abs(closed - brute) <= max(1e-7, 3e-4 * abs(closed) + 2e-6)

    def test_singular_phase_propagates(self, params):
        with pytest.raises(QuasiMomentumSingular):
            entry_single(Family.W, 1, 0, Family.W, 1, 0, 0.0, RHO, params)


class TestAssembleSingle:
    def test_shape_and_metadata(self, params):
        mat = assemble_single(1.1, RHO, params, 2)
        assert mat.matrix.shape == (25, 25)
        assert mat.meta["basis_version"]
        assert mat.l_max == 2

    def test_zero_pattern(self, params):
        mat = assemble_single(1.1, RHO, params, 2)
        for i, (lp, mp, pf) in enumerate(mat.basis):
            for j, (l, m, qf) in enumerate(mat.basis):
                if {pf, qf} == {Family.V, Family.X}:
                    assert mat.matrix[i, j] == 0
                if pf == qf == Family.V and (lp, mp) != (l, m):
                    assert mat.matrix[i, j] == 0

    def test_conjugation_symmetry(self, params):
        for alpha in (0.7, 1.9, 3.0):
            a = assemble_single(alpha, RHO, params, 3)
            b = assemble_single(2 * math.pi - alpha, RHO, params, 3)
            assert np.abs(b.matrix - a.matrix.conjugate()).max() <= 1e-12

    def test_radius_validation(self, params):
        with pytest.raises(ValueError):
            assemble_single(1.0, 0.6, params, 1)


class TestDimer:
    def test_self_blocks_identical(self, params):
        mat = assemble_dimer(1.3, GEOM, params, 1)
        n = mat.basis.n_eff
        assert np.array_equal(mat.matrix[:n, :n], mat.matrix[n:, n:])
        single = assemble_single(1.3, RHO, params, 1)
        assert np.array_equal(mat.matrix[:n, :n], single.matrix)

    def test_coupling_zero_blocks(self, params):
        for block in ("21", "12"):
            assert entry_dimer(
                block, Family.V, 1, 0, Family.V, 1, 0, 1.3, GEOM, params
            ) == 0
            assert entry_dimer(
                block, Family.V, 1, 0, Family.X, 1, 0, 1.3, GEOM, params
            ) == 0

    @pytest.mark.parametrize("block,shift", [("21", 2 * GEOM.d), ("12", -2 * GEOM.d)])
    def test_coupling_against_shifted_sums(self, params, block, shift):
        alpha = 1.3
        cache = LatticeSumCache(alpha, GEOM)
        for pf, lp, mp, qf, l, m in [
            (Family.W, 1, 0, Family.V, 1, 0),
            (Family.W, 1, 0, Family.W, 1, 0),
            (Family.X, 1, 1, Family.X, 1, 1),
        ]:
            closed = entry_dimer(
                block, pf, lp, mp, qf, l, m, alpha, GEOM, params, cache
            )
            brute = brute_lattice_entry(
                pf, lp, mp, qf, l, m, alpha, RHO, params, 10000,
                shift=shift, include_zero=True,
            )
            assert abs(closed - brute) <= max(1e-7, 3e-4 * abs(closed) + 2e-6)

    def test_block_layout(self, params):
        # coupling block "st" sits at block row t, block column s
        mat = assemble_dimer(1.3, GEOM, params, 1)
        n = mat.basis.n_eff
        i = mat.basis.index_of(1, 0, Family.W)
        j = mat.basis.index_of(1, 0, Family.V)
        expect21 = entry_dimer(
            "21", Family.W, 1, 0, Family.V, 1, 0, 1.3, GEOM, params
        )
        expect12 = entry_dimer(
            "12", Family.W, 1, 0, Family.V, 1, 0, 1.3, GEOM, params
        )
        assert mat.matrix[i, n + j] == expect21
        assert mat.matrix[n + i, j] == expect12
        assert expect21 != expect12


class TestOperatorStructure:
    """Properties of the physical operator that the trace must preserve."""

    @staticmethod
    def _hermitian_part(mat):
        return 0.5 * (mat + mat.conj().T)

    def test_hermitian(self, params):
        single = assemble_single(1.3, RHO, params, 3).matrix
        assert np.abs(single - single.conj().T).max() <= 1e-15
        dimer = assemble_dimer(1.3, GEOM, params, 2).matrix
        assert np.abs(dimer - dimer.conj().T).max() <= 1e-15

    def test_definite_with_sign_convention(self):
        for sign_flip, sign in ((False, 1.0), (True, -1.0)):
            params = LameParams(1.0, 1.0, sign_flip)
            for mat in (
                assemble_single(1.3, RHO, params, 3).matrix,
                assemble_dimer(1.3, GEOM, params, 2).matrix,
            ):
                eig = sign * np.linalg.eigvalsh(self._hermitian_part(mat))
                assert eig.min() > 0.0

    def test_one_trace_serves_every_phase(self, params):
        trace = Trace(RHO, params, 3)
        for alpha in (0.7, 1.3, 3.0):
            assert np.array_equal(
                trace.single(alpha).matrix,
                assemble_single(alpha, RHO, params, 3).matrix,
            )

    def test_trace_skips_vanishing_entries(self, params):
        trace = Trace(RHO, params, 2)
        n = trace.basis.n_eff
        assert trace.coef.shape == (len(trace.index), 4)
        assert trace.order.shape == trace.index.shape
        assert np.all(np.any(trace.coef != 0, axis=1))
        for flat in trace.index:
            lp, mp, pf = trace.basis.labels[flat // n]
            l, m, qf = trace.basis.labels[flat % n]
            assert Family.V not in (pf, qf) or Family.W in (pf, qf)

    def test_traces_share_one_geometry(self):
        # one read-only geometry per lmax serves every radius, material and
        # sign; only the coefficients and the diagonal are per trace
        from sphelast.assembly import _geometry

        one = Trace(RHO, LameParams(1.5, 0.8), 3)
        two = Trace(0.37, LameParams(0.3, 2.1, sign_flip=True), 3)
        geo = _geometry(3)
        for name in ("basis", "index", "order"):
            assert getattr(one, name) is getattr(two, name) is getattr(geo, name)
        for array in (geo.index, geo.order, geo.weights, geo.below,
                      geo.factors, geo.norm):
            assert not array.flags.writeable
        assert not np.array_equal(one.coef, two.coef)
        assert not np.array_equal(one.diag, two.diag)

    def test_dimer_radius_must_match_trace(self, params):
        with pytest.raises(ValueError):
            Trace(0.12, params, 1).dimer(1.3, GEOM)


@pytest.fixture(scope="module")
def unrestricted_coefs():
    """Every label pair's lowest order and four coefficients at L = 3, read
    from the full degree-pair blocks (zero where the family pair has no
    lattice part)."""
    params = LameParams(1.0, 1.0)
    labels = BasisMap(3).labels
    order, coef = _unrestricted(3, RHO, params)
    secs = np.array([sector(*label) for label in labels])
    return secs, order, coef, np.abs(coef).max()


class TestParitySectors:
    """The premises of the sector/mirror shortcut, checked on the
    unrestricted blocks, and the structure it gives the assembled
    matrices."""

    def test_sector_sizes(self):
        sizes = np.bincount([sector(*label) for label in BasisMap(4).labels])
        assert sizes.tolist() == [21, 18, 18, 16]

    def test_pairs_across_sectors_vanish(self, unrestricted_coefs):
        secs, _order, coef, scale = unrestricted_coefs
        across = secs[:, None] != secs[None, :]
        assert np.abs(coef[across]).max() <= 1e-15 * scale

    def test_lower_triangle_mirrors_upper(self, unrestricted_coefs):
        secs, order, coef, scale = unrestricted_coefs
        n = len(secs)
        for i in range(n):
            for j in range(i):
                if secs[i] != secs[j]:
                    continue
                assert order[i, j] == order[j, i]
                mirrored = _mirror(coef[j, i])
                assert np.abs(coef[i, j] - mirrored).max() <= 1e-15 * scale

    def test_two_order_rule_is_enforced(self, params, monkeypatch):
        # a term off the two orders of its family pair stops the builder
        from sphelast import assembly

        monkeypatch.setitem(
            assembly._ORDER_OFFSET, (Family.W, Family.W), 0)
        with pytest.raises(RuntimeError, match="outside the two orders"):
            _DegreeBlocks(1).block(Family.W, Family.W, 1, 1)

    @staticmethod
    def _matrices(params):
        single = assemble_single(1.3, RHO, params, 3)
        dimer = assemble_dimer(1.3, GEOM, params, 2)
        secs = [sector(*label) for label in dimer.basis]
        return [
            (single.matrix, [sector(*label) for label in single.basis]),
            (dimer.matrix, secs + secs),
        ]

    def test_zero_across_sectors(self, params):
        for mat, secs in self._matrices(params):
            secs = np.array(secs)
            across = secs[:, None] != secs[None, :]
            assert np.all(mat[across] == 0)
            assert np.any(mat[~across] != 0)

    def test_exact_mirror(self, params):
        for mat, _secs in self._matrices(params):
            off = ~np.eye(len(mat), dtype=bool)
            assert np.array_equal(mat[off], mat.conj().T[off])

    @pytest.mark.parametrize("l_max", [0, 3])
    def test_trace_stores_sector_entries_once(self, params, l_max):
        trace = Trace(RHO, params, l_max)
        n = trace.basis.n_eff
        assert trace.coef.shape == (len(trace.index), 4)
        assert np.all(np.any(trace.coef != 0, axis=1))
        assert len(np.unique(trace.index)) == len(trace.index)
        for flat in trace.index:
            assert sector(*trace.basis.labels[flat // n]) == sector(
                *trace.basis.labels[flat % n])

    def test_entries_match_matrix_bitwise(self, params):
        alpha = 1.3
        single = assemble_single(alpha, RHO, params, 2)
        dimer = assemble_dimer(alpha, GEOM, params, 2)
        n = single.basis.n_eff
        cache = LatticeSumCache(alpha, GEOM)
        for i, (lp, mp, pf) in enumerate(single.basis):
            for j, (l, m, qf) in enumerate(single.basis):
                args = (pf, lp, mp, qf, l, m, alpha)
                assert entry_single(
                    *args, RHO, params, cache) == single.matrix[i, j]
                assert entry_dimer(
                    "21", *args, GEOM, params, cache) == dimer.matrix[i, n + j]
                assert entry_dimer(
                    "12", *args, GEOM, params, cache) == dimer.matrix[n + i, j]


def test_brute_zero_cut(params):
    assert brute_lattice_entry(
        Family.W, 1, 0, Family.W, 1, 0, 1.0, RHO, params, 0
    ) == 0


def test_per_copy_higher_degree_against_quadrature(params):
    # one mid-degree case beyond the acceptance range, at a quadrature
    # degree that resolves the degree-5 row exactly
    quad = build_quadrature(24)
    pf, lp, mp, qf, l, m = Family.W, 5, 2, Family.W, 4, 1
    proj = inner_product_S2(
        lambda d: vsh_real(pf, lp, mp, d),
        lambda d: shifted_ball_potential(1, l, m, qf, d, RHO, params),
        quad,
    )
    closed = per_copy_entry(pf, lp, mp, qf, l, m, 1, RHO, params)
    assert abs(proj - closed) <= 1e-12
