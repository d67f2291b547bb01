import json
import math
import warnings

import numpy as np
import pytest

import sphelast
from sphelast import assembly, verify
from sphelast.assembly import (
    BASIS_VERSION,
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
    per_copy_entries,
    sector,
)
from sphelast.cli import main
from sphelast.kelvin import (
    LameParams,
    norm_factor,
    shifted_ball_potential,
    surface_response,
)
from sphelast.latsum import (
    DimerGeometry,
    QuasiMomentumSingular,
    dimer_values,
    line_values,
    reduce_alpha,
)
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

from conftest import kernel_coef, stored_labels

RHO = 0.1
GEOM = DimerGeometry(0.2, RHO)


def _per_copy(p, lp, mp, q, l, m, n, params) -> float:
    """The inner product against the one copy at shift ``(n, 0, 0)``,
    which is real: its imaginary roundoff is held below 1e-12."""
    val = complex(per_copy_entries(p, lp, mp, q, l, m, [n], RHO, params)[0])
    assert abs(val.imag) <= 1e-12 * max(1.0, abs(val.real)), val
    return val.real


def _at(basis, p, lp, mp, q, l, m):
    """The position of the entry at row label ``(lp, mp, p)`` and column
    label ``(l, m, q)``."""
    return basis.index_of(lp, mp, p), basis.index_of(l, m, q)


def _full_contraction(trace, values):
    """A lattice block by the route that stores both triangles: the stored
    coefficients at their label positions and their mirrors (``_mirror``)
    at the transposed positions below the diagonal, all contracted with
    ``values``."""
    n = trace.basis.n_eff
    rows, cols = stored_labels(trace)
    below = rows != cols
    out = np.zeros((n, n), dtype=complex)
    out[rows, cols] = _contract(trace.order, trace.coef, values)
    out[cols[below], rows[below]] = _contract(
        trace.order[below], _mirror(trace.order[below], trace.coef[below]), values)
    return out


def _coupling(mat, block):
    """Coupling block ``block`` of a dimer matrix: "st" maps the density on
    ball s to values on ball t, so it sits at block row t, block column s."""
    n = mat.basis.n_eff
    return mat.matrix[:n, n:] if block == "21" else mat.matrix[n:, :n]


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

    def test_positions_follow_labels(self):
        # the closed form that index_of and the geometry builder read, on
        # every label, as scalars and broadcast over arrays
        for l_max in range(7):
            basis = BasisMap(l_max)
            for i, lab in enumerate(basis.labels):
                assert basis.index_of(*lab) == i
            degs, orders, fams = np.array(basis.labels).T
            for fam in Family:
                pick = fams == fam
                got = BasisMap.positions(degs[pick], orders[pick], fam)
                assert np.array_equal(got, np.flatnonzero(pick))


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
    # the complex-to-real change of order on both sides of a block, with
    # the factors i of the negative orders that _real_orders leaves out, is
    # the per-entry combine_source (columns) then combine_row (rows)
    lp, l = 2, 3
    kernel = rng.normal(size=(2 * lp + 1, 2 * l + 1))
    cols = _real_orders(kernel)
    quadrant = (np.arange(-lp, lp + 1) < 0)[:, None].astype(int) + (np.arange(-l, l + 1) < 0)
    block = _real_orders(cols.T, row=True).T / _unitary_scale(lp, l) * 1j ** quadrant
    for mp in range(-lp, lp + 1):
        for m in range(-l, l + 1):
            expect = combine_row(mp, lambda mu: combine_source(
                m, lambda mt: kernel[mu + lp, mt + l]))
            assert block[mp + lp, m + l] == pytest.approx(expect, abs=1e-15)


class TestPerCopy:
    def test_decaying_source_rows_vanish(self, params):
        for lp in range(3):
            for l in range(3):
                assert _per_copy(
                    Family.V, lp, 0, Family.V, l, 0, 1, params
                ) == 0.0
        assert _per_copy(Family.X, 1, 0, Family.V, 1, 0, 2, params) == 0.0

    def test_toroidal_to_decaying_vanishes_numerically(self, params):
        assert abs(
            _per_copy(Family.V, 2, 1, Family.X, 1, 1, 1, params)
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
                closed = _per_copy(pf, lp, mp, qf, l, m, n, params)
                assert abs(proj - closed) <= 1e-8

    def test_vectorised_matches_scalar(self, params):
        ns = [1, -1, 2, -3]
        vec = per_copy_entries(
            Family.W, 1, 0, Family.W, 1, 0, [float(n) for n in ns], RHO, params
        )
        for i, n in enumerate(ns):
            assert vec[i] == pytest.approx(
                _per_copy(Family.W, 1, 0, Family.W, 1, 0, n, params),
                abs=1e-15,
            )

    def test_forbidden_labels(self, params):
        with pytest.raises(ForbiddenIndexError):
            per_copy_entries(Family.W, 0, 0, Family.V, 1, 0, [1.0], RHO, params)

    @pytest.mark.parametrize("row, col", [
        ((Family.W, 1, 2), (Family.V, 1, 0)),    # |m| > l
        ((Family.W, 1, 0), (Family.X, 2, -3)),
        ((Family.V, -1, 0), (Family.W, 1, 0)),   # l < 0
        ((Family.W, 1, 0), (Family.W, -2, 0)),
    ])
    def test_out_of_range_labels(self, params, row, col):
        with pytest.raises(IndexError):
            per_copy_entries(*row, *col, [1.0], RHO, params)


class TestEntrySingle:
    """Entries of the single-ball matrix, read off ``Trace.single``."""

    def test_zero_blocks(self, params):
        mat = Trace(RHO, params, 1).single(1.2)
        assert mat.matrix[_at(mat.basis, Family.X, 1, 0, Family.V, 1, 0)] == 0
        assert mat.matrix[_at(mat.basis, Family.V, 1, 0, Family.X, 1, 0)] == 0

    def test_decaying_block_is_pure_diagonal(self, params):
        # no phase dependence anywhere in the (V, V) block
        trace = Trace(RHO, params, 2)
        one, two = trace.single(0.8), trace.single(2.4)
        v = [i for i, (_l, _m, fam) in enumerate(trace.basis) if fam == Family.V]
        assert np.array_equal(one.matrix[np.ix_(v, v)], two.matrix[np.ix_(v, v)])
        tau = surface_response(1, params)[0]
        assert one.matrix[_at(one.basis, Family.V, 1, 0, Family.V, 1, 0)] == (
            pytest.approx(RHO * tau * norm_factor(Family.V, 1)))
        assert one.matrix[_at(one.basis, Family.V, 1, 0, Family.V, 2, 0)] == 0

    def test_diagonal_consistency(self, params):
        # the diagonal entry minus its lattice part is exactly the on-ball
        # surface response times the basis norm, and so is Trace.diag
        alpha = 1.9
        trace = Trace(RHO, params, 2)
        mat = trace.single(alpha)
        for fam, l, slot in [(Family.W, 1, 1), (Family.X, 2, 2), (Family.V, 1, 0)]:
            i, _ = _at(mat.basis, fam, l, 0, fam, l, 0)
            if fam == Family.V:
                lattice = 0.0
            else:
                order, coef = _entry_coef(fam, l, 0, fam, l, 0, RHO, params)
                lattice = _contract(
                    np.array([order]), coef[None],
                    line_values(alpha, 2 * l + 3),
                )[0]
            expect = RHO * surface_response(l, params)[slot] * norm_factor(fam, l)
            assert mat.matrix[i, i] - lattice == pytest.approx(expect, abs=1e-16)
            assert trace.diag[i] == pytest.approx(expect, abs=1e-16)

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
        mat = Trace(RHO, params, 2).single(alpha)
        closed = mat.matrix[_at(mat.basis, pf, lp, mp, qf, l, m)]
        brute = brute_lattice_entry(pf, lp, mp, qf, l, m, alpha, RHO, params, 10000)
        if (pf, lp, mp) == (qf, l, m):
            tau = surface_response(l, params)[int(pf) - 1]
            brute += RHO * tau * norm_factor(pf, l)
        assert abs(closed - brute) <= 1e-5
        assert abs(closed - brute) <= max(1e-7, 3e-4 * abs(closed) + 2e-6)

    def test_singular_phase_propagates(self, params):
        with pytest.raises(QuasiMomentumSingular):
            Trace(RHO, params, 1).single(0.0)


class TestAssembleSingle:
    def test_shape_and_metadata(self, params, tmp_path):
        mat = assemble_single(1.1, RHO, params, 2)
        assert mat.matrix.shape == (25, 25)
        assert mat.l_max == 2
        # the inputs' provenance is the header the assemble command writes
        out = tmp_path / "m.json"
        assert main(["assemble", "--alpha", "1.1", "--rho", str(RHO), "--lambda", "1",
                     "--mu", "1", "--lmax", "2", "--out", str(out)]) == 0
        header = json.loads(out.read_text())["header"]
        assert header["basis_version"] == BASIS_VERSION
        assert header["tool_version"] == sphelast.__version__
        assert header["shape"] == [25, 25]

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


@pytest.mark.parametrize("alpha", [1e-6, 0.3, 1.3, 3.0])
def test_negative_phase_gives_exact_conjugate(alpha):
    # every value, the dimer's Bloch factor included, comes from the phase
    # as given, so M(-alpha) is conj M(alpha) entry for entry (an exact
    # zero may change sign)
    for params in (LameParams(1.0, 1.0), LameParams(1.5, 0.8, sign_flip=True)):
        trace = Trace(RHO, params, 4)
        for build in (trace.single, lambda a: trace.dimer(a, GEOM)):
            here, there = build(alpha), build(-alpha)
            assert np.array_equal(there.matrix, here.matrix.conj())
            assert there.alpha == reduce_alpha(-alpha)


def test_bad_phases_fail_before_contraction(params, monkeypatch):
    from sphelast import assembly

    trace = Trace(RHO, params, 1)

    def contract(*args):
        raise AssertionError("contracted at a bad phase")

    monkeypatch.setattr(assembly, "_contract", contract)
    with pytest.raises(QuasiMomentumSingular):
        trace.single(0.0)
    with pytest.raises(QuasiMomentumSingular):
        trace.dimer(-2 * math.pi, GEOM)
    for build in (trace.single, lambda a: trace.dimer(a, GEOM)):
        with pytest.raises(ValueError, match="finite"):
            build(math.nan)


class TestDimer:
    """Entries of the dimer matrix, read off ``Trace.dimer``."""

    def test_self_blocks_identical(self, params):
        mat = assemble_dimer(1.3, GEOM, params, 1)
        n = mat.basis.n_eff
        assert np.array_equal(mat.matrix[:n, :n], mat.matrix[n:, n:])
        single = assemble_single(1.3, RHO, params, 1)
        assert np.array_equal(mat.matrix[:n, :n], single.matrix)

    def test_coupling_zero_blocks(self, params):
        mat = assemble_dimer(1.3, GEOM, params, 1)
        for block in ("21", "12"):
            coupling = _coupling(mat, block)
            assert coupling[_at(mat.basis, Family.V, 1, 0, Family.V, 1, 0)] == 0
            assert coupling[_at(mat.basis, Family.V, 1, 0, Family.X, 1, 0)] == 0

    @pytest.mark.parametrize("block,shift", [("21", 2 * GEOM.d), ("12", -2 * GEOM.d)])
    def test_coupling_against_shifted_sums(self, params, block, shift):
        alpha = 1.3
        mat = assemble_dimer(alpha, GEOM, params, 1)
        for pf, lp, mp, qf, l, m in [
            (Family.W, 1, 0, Family.V, 1, 0),
            (Family.W, 1, 0, Family.W, 1, 0),
            (Family.X, 1, 1, Family.X, 1, 1),
        ]:
            closed = _coupling(mat, block)[_at(mat.basis, pf, lp, mp, qf, l, m)]
            brute = brute_lattice_entry(
                pf, lp, mp, qf, l, m, alpha, RHO, params, 10000,
                shift=shift, include_zero=True,
            )
            assert abs(closed - brute) <= max(1e-7, 3e-4 * abs(closed) + 2e-6)

    def test_block_layout(self, params):
        # coupling block "st" sits at block row t, block column s, contracted
        # with the Lerch values of its own half-offset lattice in both
        # triangles; block "12" is the conjugate transpose of "21"
        trace = Trace(RHO, params, 1)
        mat = trace.dimer(1.3, GEOM)
        got = {block: _coupling(mat, block) for block in ("21", "12")}
        for part, values in zip(got.values(), dimer_values(1.3, GEOM, trace.s_max)):
            want = _full_contraction(trace, values)
            assert part.tobytes() == want.tobytes()
        assert np.array_equal(got["12"], got["21"].conj().T)
        i, j = _at(mat.basis, Family.W, 1, 0, Family.V, 1, 0)
        assert got["21"][i, j] != got["12"][i, j]

    @pytest.mark.parametrize("rho, lam, mu, sign_flip, alpha", [
        (0.1, 1.5, 0.8, False, 1.3),
        (0.2, 1.0, 1.0, True, -2.0),
        (0.05, 1.5, 0.8, False, 0.02),
        (0.1, 1.5, 0.8, False, 4.0),
    ])
    def test_quarter_offset_is_half_period_chain(self, rho, lam, mu, sign_flip, alpha):
        # balls at n -+ 1/4 form one chain of period 1/2: scaled by 2, the
        # single-ball chain of radius 2 rho, whose operator scales by 1/2.
        # A density (f, e^{-i beta} f) with 2 beta = alpha is a Bloch
        # density of that chain at phase beta, so in every sector
        # A + e^{i beta} C12 = M_single(beta; 2 rho) / 2 at both beta
        params = LameParams(lam, mu, sign_flip)
        l_max = 16
        dimer = Trace(rho, params, l_max).dimer(alpha, DimerGeometry(0.25, rho))
        halves = [len(block) // 2 for block in dimer.blocks]
        largest = max(np.abs(block[h:, :h]).max() for block, h in zip(dimer.blocks, halves))
        chain = Trace(2 * rho, params, l_max)
        for beta in (alpha / 2, alpha / 2 + math.pi):
            for block, h, single in zip(dimer.blocks, halves, chain.single(beta).blocks):
                gap = block[:h, :h] + np.exp(1j * beta) * block[h:, :h] - 0.5 * single
                assert np.abs(gap).max() <= 1e-13 * largest


class TestOperatorStructure:
    """Properties of the physical operator that the trace must preserve."""

    def test_hermitian(self, params):
        single = assemble_single(1.3, RHO, params, 3).matrix
        assert np.abs(single - single.conj().T).max() <= 1e-15
        dimer = assemble_dimer(1.3, GEOM, params, 2).matrix
        assert np.abs(dimer - dimer.conj().T).max() <= 1e-15

    @pytest.mark.parametrize("sign_flip", [False, True])
    @pytest.mark.parametrize("l_max", [4, 8, 16])
    def test_single_entry_phase_follows_order_parity(self, l_max, sign_flip):
        # an entry is imaginary where the orders of its labels differ in
        # parity and real where they agree, exactly
        trace = Trace(RHO, LameParams(1.0, 1.0, sign_flip), l_max)
        m = np.array([m for _l, m, _fam in trace.basis])
        odd = (m[:, None] - m) % 2 == 1
        for alpha in (1.3, -2.0, 0.02):
            mat = trace.single(alpha).matrix
            assert np.all(mat.real[odd] == 0)
            assert np.all(mat.imag[~odd] == 0)

    @pytest.mark.parametrize("l_max", range(9))
    def test_dimer_conjugation_swaps_the_balls(self, params, l_max):
        # J conj(M) J == M exactly, J = [[0, S], [S, 0]] with
        # S = diag((-1)^(l + [family is X])): swapping the balls and
        # mirroring the labels conjugates the dimer matrix
        trace = Trace(RHO, params, l_max)
        s = np.array([(-1.0) ** (l + (fam == Family.X)) for l, _m, fam in trace.basis])
        ss = np.r_[s, s]
        for alpha in (1.3, -2.0):
            mat = trace.dimer(alpha, DimerGeometry(0.3, RHO)).matrix
            # (J A J)[i, j] = s_i s_j A[i on the other ball, j on the other ball]
            swapped = np.roll(mat.conj(), len(s), axis=(0, 1)) * np.outer(ss, ss)
            assert np.array_equal(swapped, mat)

    def test_definite_with_sign_convention(self):
        # every sector block is positive definite, negative definite under
        # sign_flip: the Cholesky factor of the block (or of minus it)
        # exists, at phases near both ends of the Brillouin zone
        for sign_flip, sign in ((False, 1.0), (True, -1.0)):
            params = LameParams(1.0, 1.0, sign_flip)
            cases = [(l_max, None) for l_max in (0, 1, 4, 8)]
            cases += [(l_max, GEOM) for l_max in (0, 2, 4)]
            for l_max, geom in cases:
                trace = Trace(RHO, params, l_max)
                for alpha in (0.05, 1.3, math.pi, 2 * math.pi - 0.05):
                    mat = trace.single(alpha) if geom is None else trace.dimer(alpha, geom)
                    for block in mat.blocks:
                        np.linalg.cholesky(sign * block)

    def test_one_trace_serves_every_phase(self, params):
        trace = Trace(RHO, params, 3)
        for alpha in (0.7, 1.3, 3.0):
            assert np.array_equal(
                trace.single(alpha).matrix,
                assemble_single(alpha, RHO, params, 3).matrix,
            )

    def test_trace_stores_every_in_sector_pair(self, params):
        # every in-sector pair i <= j of a stored family pair (the family
        # rule: all but (V, V) and V with X), zero weights or not: a sector
        # of S labels, nV of them V and nX of them X, holds exactly
        # S (S + 1) / 2 - nV (nV + 1) / 2 - nV nX entries
        from sphelast.assembly import _geometry, sectors

        trace = Trace(RHO, params, 2)
        geo = _geometry(2)
        assert trace.coef.dtype == geo.weights.dtype == np.float64
        assert trace.coef.shape == (len(trace.row), 2)
        assert trace.order.shape == trace.row.shape == trace.col.shape
        assert geo.weights.shape == (len(trace.row), 2, 2)
        for name in ("bounds", "row", "col", "order"):
            assert getattr(trace, name) is getattr(geo, name)
        for l_max in range(9):
            geo = _geometry(l_max)
            fams = np.array([fam for _l, _m, fam in geo.basis])
            expected = set()
            for k, labels in enumerate(sectors(l_max)):
                size = len(labels)
                nv, nx = (np.count_nonzero(fams[labels] == f) for f in (Family.V, Family.X))
                assert geo.bounds[k + 1] - geo.bounds[k] == (
                    size * (size + 1) // 2 - nv * (nv + 1) // 2 - nv * nx)
                expected |= {(i, j) for i in labels for j in labels if i <= j and (
                    Family.V not in (fams[i], fams[j]) or Family.W in (fams[i], fams[j]))}
            rows, cols = stored_labels(geo)
            stored = set(zip(rows.tolist(), cols.tolist()))
            assert len(stored) == len(rows)
            assert stored == expected

    def test_traces_share_one_geometry(self):
        # one read-only geometry per lmax serves every radius, material and
        # sign; only the coefficients and the diagonal are per trace
        from sphelast.assembly import _geometry

        one = Trace(RHO, LameParams(1.5, 0.8), 3)
        two = Trace(0.37, LameParams(0.3, 2.1, sign_flip=True), 3)
        geo = _geometry(3)
        for name in ("basis", "bounds", "row", "col", "order"):
            assert getattr(one, name) is getattr(two, name) is getattr(geo, name)
        for array in (geo.bounds, geo.row, geo.col, geo.order, geo.weights,
                      geo.factors, geo.norm):
            assert not array.flags.writeable
        assert not np.array_equal(one.coef, two.coef)
        assert not np.array_equal(one.diag, two.diag)

    def test_dimer_radius_must_match_trace(self, params):
        with pytest.raises(ValueError):
            Trace(0.12, params, 1).dimer(1.3, GEOM)


@pytest.fixture(scope="module")
def unrestricted_coefs():
    """Every label pair's lowest order and two coefficients at L = 3, read
    from the full degree-pair blocks (zero where the family pair has no
    lattice part)."""
    params = LameParams(1.0, 1.0)
    labels = BasisMap(3).labels
    order, coef = _unrestricted(3, RHO, params)
    secs = np.array([sector(*label) for label in labels])
    return secs, order, coef, np.abs(coef).max()


@pytest.mark.parametrize("dropped", [False, True])
@pytest.mark.parametrize("l_max", range(7))
def test_unrestricted_reads_the_per_pair_blocks(l_max, dropped):
    # one blocks call per family pair, scattered by position, against one
    # call per degree pair, scaled per column degree and scattered label by
    # label: bit for bit
    params = LameParams(1.5, 0.8)
    basis = BasisMap(l_max)
    n = basis.n_eff
    ids = {}
    for i, (l, _m, fam) in enumerate(basis.labels):
        ids.setdefault((l, fam), []).append(i)
    blocks = _DegreeBlocks(l_max)
    order, coef = np.zeros((n, n), dtype=int), np.zeros((n, n, 2))
    for (lp, p), rows in ids.items():
        for (l, q), cols in ids.items():
            if (p, q) in assembly._STORED:
                s, weights = blocks.blocks(p, q, [lp], [l], dropped)
                fac, _diag, powers = assembly._scale(
                    RHO, params, l_max, *assembly._label_columns(l, q))
                order[np.ix_(rows, cols)] = s[0]
                coef[np.ix_(rows, cols)] = assembly._scaled(s[0], weights[0], fac, powers)
    got_order, got_coef = _unrestricted(l_max, RHO, params, dropped)
    assert got_order.tobytes() == order.tobytes()
    assert got_coef.tobytes() == coef.tobytes()


def _built(geo):
    """The built entries of a geometry, sorted by row and column: ``(rows,
    cols, order, weights)`` with rows and columns as basis positions."""
    rows, cols = stored_labels(geo)
    pick = np.lexsort((cols, rows))
    return rows[pick], cols[pick], geo.order[pick], geo.weights[pick]


class TestBatchedGeometry:
    """The geometry built a tile of degree pairs at a time: no entry may
    depend on the padding of its tile or on which pairs share it."""

    def test_entries_do_not_depend_on_lmax_or_tiles(self, monkeypatch):
        from sphelast import assembly

        small, large = assembly._geometry(3), assembly._geometry(8)
        # the basis of lmax 3 is the start of that of lmax 8
        limit = small.basis.n_eff
        assert large.basis.labels[:limit] == small.basis.labels
        rows, cols, order, weights = _built(large)
        inside = cols < limit
        want = _built(small)
        got = (rows[inside], cols[inside], order[inside], weights[inside])
        for a, b in zip(want, got):
            assert a.tobytes() == b.tobytes()
        # narrow bands: lmax 6 in many tiles of one or two degrees
        whole = [a.tobytes() for a in _built(assembly._geometry(6))]
        monkeypatch.setattr(assembly, "_BAND", 20)
        assembly._geometry.cache_clear()
        assert len(assembly._bands(6)) > 3
        try:
            tiled = [a.tobytes() for a in _built(assembly._geometry(6))]
        finally:
            assembly._geometry.cache_clear()
        assert tiled == whole

    @pytest.mark.parametrize("l_max", range(9))
    def test_built_entries_and_mirror(self, l_max):
        from sphelast.assembly import _geometry, sectors

        geo = _geometry(l_max)
        n = geo.basis.n_eff
        secs = np.array([sector(*label) for label in geo.basis.labels])
        # the built triangle alone, one entry per weight, grouped by sector
        assert geo.row.shape == geo.col.shape == geo.order.shape == geo.weights.shape[:1]
        groups = sectors(l_max)
        assert geo.bounds[0] == 0 and geo.bounds[-1] == len(geo.row)
        assert len(geo.bounds) == len(groups) + 1 and np.all(np.diff(geo.bounds) >= 0)
        for labels, a, b in zip(groups, geo.bounds, geo.bounds[1:]):
            assert np.all(geo.col[a:b] < len(labels))
        rows, cols = stored_labels(geo)
        assert np.all(rows <= cols)
        assert np.array_equal(secs[rows], secs[cols])
        assert len(np.unique(rows * n + cols)) == len(rows)


@pytest.mark.parametrize("l_max", range(7))
def test_mirrored_values_match_mirrored_coefficients(l_max):
    # the entries below the diagonal are the conjugated values of the
    # stored triangle (for a coupling block, those of the other block):
    # byte for byte the mirrored coefficients contracted with the block's
    # own values, signs of zero included, for a material that cancels
    # entries (lambda = mu) and one that does not
    for params in (LameParams(1.0, 1.0), LameParams(1.5, 0.8)):
        trace = Trace(RHO, params, l_max)
        n = trace.basis.n_eff
        for alpha in (0.7, math.pi, 2 * math.pi - 1e-6):
            want = _full_contraction(trace, line_values(alpha, trace.s_max))
            want[np.diag_indices(n)] += trace.diag
            assert trace.single(alpha).matrix.tobytes() == want.tobytes()
            mat = trace.dimer(alpha, GEOM)
            assert mat.matrix[:n, :n].tobytes() == want.tobytes()
            for block, values in zip(("21", "12"), dimer_values(alpha, GEOM, trace.s_max)):
                want = _full_contraction(trace, values)
                assert _coupling(mat, block).tobytes() == want.tobytes()


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

    def test_quadrant_signs_drop_roundoff_only(self, unrestricted_coefs):
        # the quadrants whose factor phase i^k is imaginary, which the real
        # builder sets to 0, lie across sectors and hold roundoff only
        secs, _order, _coef, scale = unrestricted_coefs
        _order, lost = _unrestricted(3, RHO, LameParams(1.0, 1.0), dropped=True)
        assert np.all(lost[secs[:, None] == secs[None, :]] == 0)
        assert np.abs(lost).max() <= 1e-15 * scale

    def test_sector_rule_sees_a_wrong_phase(self, monkeypatch):
        # a family pair whose phase is off by a factor i moves its kernel
        # into the quadrants the real builder drops: verify's "sector rule"
        # reads what it drops
        terms = assembly._terms

        def wrong(p, q, *args):
            phase, found = terms(p, q, *args)
            return (1j * phase if (p, q) == (Family.W, Family.X) else phase), found

        monkeypatch.setattr(assembly, "_terms", wrong)
        try:
            checks = {name: (res, tol) for name, res, tol
                      in verify.suite_assembly(np.random.default_rng(0))}
        finally:
            assembly._geometry.cache_clear()   # built with the wrong phase
        res, tol = checks["sector rule"]
        assert res > tol

    def test_per_copy_check_sees_a_wrong_phase(self, monkeypatch):
        # every family pair's phase off by a factor i moves the lattice
        # entries and the truncated sums built from the same blocks
        # together; verify's quadrature of the shifted ball's potential
        # does not read the blocks and sees it
        terms = assembly._terms

        def wrong(p, q, *args):
            phase, found = terms(p, q, *args)
            return 1j * phase, found

        monkeypatch.setattr(assembly, "_terms", wrong)
        try:
            # every diagonal coefficient vanishes: the sector checks report
            # inf instead of dividing by 0, which would warn
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                checks = {name: (res, tol) for name, res, tol
                          in verify.suite_assembly(np.random.default_rng(0))}
        finally:
            assembly._geometry.cache_clear()   # built with the wrong phase
        for name in ("per-copy entries vs shifted potential", "sector rule",
                     "Hermitian mirror"):
            res, tol = checks[name]
            assert res > tol, name

    def test_lower_triangle_mirrors_upper(self, unrestricted_coefs):
        secs, order, coef, scale = unrestricted_coefs
        n = len(secs)
        for i in range(n):
            for j in range(i):
                if secs[i] != secs[j]:
                    continue
                assert order[i, j] == order[j, i]
                mirrored = _mirror(order[j, i], coef[j, i])
                assert np.abs(coef[i, j] - mirrored).max() <= 1e-15 * scale

    def test_two_order_rule_is_enforced(self, params, monkeypatch):
        # a term off the two orders of its family pair stops the builder
        from sphelast import assembly

        monkeypatch.setitem(
            assembly._ORDER_OFFSET, (Family.W, Family.W), 0)
        with pytest.raises(RuntimeError, match="outside the two orders"):
            _DegreeBlocks(1).blocks(Family.W, Family.W, [1], [1])

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
        from sphelast.assembly import _geometry

        trace = Trace(RHO, params, l_max)
        n = trace.basis.n_eff
        assert trace.coef.shape == (len(trace.row), 2)
        for name in ("bounds", "row", "col", "order"):
            assert getattr(trace, name) is getattr(_geometry(l_max), name)
        rows, cols = stored_labels(trace)
        assert len(np.unique(rows * n + cols)) == len(rows)
        for i, j in zip(rows, cols):
            assert sector(*trace.basis.labels[i]) == sector(*trace.basis.labels[j])

    @pytest.mark.parametrize("block", ["single", "21", "12"])
    def test_trace_gathers_unrestricted_blocks(self, params, block):
        # every label pair of the matrices against the full degree-pair
        # blocks contracted with no sector rule, no mirror and no pruning,
        # relative to the largest lattice part
        alpha = 1.3
        order, coef = _unrestricted(3, RHO, params)
        n = len(order)
        trace = Trace(RHO, params, 3)
        if block == "single":
            values = line_values(alpha, trace.s_max)
        else:
            values = dimer_values(alpha, GEOM, trace.s_max)[("21", "12").index(block)]
        # a pair with no lattice part has order 0 and zero coefficients
        lattice = _contract(order.ravel(), coef.reshape(-1, 2), values).reshape(n, n)
        if block == "single":
            got, expect = trace.single(alpha).matrix, lattice + np.diag(trace.diag)
        else:
            got, expect = _coupling(trace.dimer(alpha, GEOM), block), lattice
        assert np.abs(got - expect).max() <= 1e-15 * np.abs(lattice).max()


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
    closed = _per_copy(pf, lp, mp, qf, l, m, 1, params)
    assert abs(proj - closed) <= 1e-12
