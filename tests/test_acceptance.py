"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np

from sphelast.assembly import (
    BasisMap,
    Trace,
    assemble_dimer,
    assemble_single,
    per_copy_entries,
)
from sphelast.kelvin import (
    LameParams,
    exterior_response,
    norm_factor,
    surface_response,
)
from sphelast.latsum import DimerGeometry, lerch_orders, polylog_orders
from sphelast.oracle import (
    basis_samples,
    brute_potential,
    build_quadrature,
    finite_diff_gradient,
)
from sphelast.sphharm import solid_irregular, solid_regular, ylm_real
from sphelast.system import project_rhs, solve_single
from sphelast.translation import (
    TruncationPolicy,
    translate_V_decay,
    translate_V_neg_l,
    translate_W,
    translate_W_neg_l,
    translate_X,
    translate_solid_irregular,
    translate_solid_regular,
)
from sphelast.vsh import Family, vsh_complex, vsh_real

PARAMS = LameParams(1.0, 1.0)
RHO = 0.1
SEED = 1009


def _report(number, name, ok, detail):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _units(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def test_criterion_01_low_degree_fixture_suite():
    from test_vsh import _poly_table

    rng = np.random.default_rng(SEED)
    scalar = {
        (0, 0): lambda x, y, z: 0.5 / math.sqrt(math.pi),
        (1, -1): lambda x, y, z: math.sqrt(3 / (4 * math.pi)) * y,
        (1, 0): lambda x, y, z: math.sqrt(3 / (4 * math.pi)) * z,
        (1, 1): lambda x, y, z: math.sqrt(3 / (4 * math.pi)) * x,
        (2, -2): lambda x, y, z: 0.5 * math.sqrt(15 / math.pi) * x * y,
        (2, -1): lambda x, y, z: 0.5 * math.sqrt(15 / math.pi) * y * z,
        (2, 0): lambda x, y, z: 0.25 * math.sqrt(5 / math.pi)
        * (2 * z * z - x * x - y * y),
        (2, 1): lambda x, y, z: 0.5 * math.sqrt(15 / math.pi) * x * z,
        (2, 2): lambda x, y, z: 0.25 * math.sqrt(15 / math.pi) * (x * x - y * y),
    }
    vector = _poly_table()
    worst = 0.0
    for v in _units(rng, 200):
        for (l, m), poly in scalar.items():
            worst = max(worst, abs(ylm_real(l, m, v) - poly(*v)))
        for (fam, l, m), poly in vector.items():
            worst = max(worst, np.abs(vsh_real(fam, l, m, v) - poly(*v)).max())
    _report(1, "low-degree fixtures", worst <= 1e-13, f"max abs err {worst:.2e}")


def test_criterion_02_orthogonality_norms():
    quad = build_quadrature(16)
    dirs = quad.directions()
    fields, keys = [], []
    for fam in Family:
        for l in range(0 if fam == Family.V else 1, 7):
            for m in range(-l, l + 1):
                keys.append((fam, l))
                fields.append(
                    np.array([vsh_real(fam, l, m, d) for d in dirs]).reshape(-1)
                )
    mat = np.array(fields)
    gram = (mat * np.repeat(quad.weights, 3)) @ mat.T
    worst_cross, worst_diag = 0.0, 0.0
    for i, (fam, l) in enumerate(keys):
        for j in range(len(keys)):
            if i == j:
                worst_diag = max(
                    worst_diag, abs(gram[i, i] - norm_factor(fam, l))
                )
            else:
                worst_cross = max(worst_cross, abs(gram[i, j]))
    ok = worst_cross <= 1e-11 and worst_diag <= 1e-11
    _report(
        2, "orthogonality and norms",
        ok, f"cross {worst_cross:.2e}, diag {worst_diag:.2e}",
    )


def test_criterion_03_solid_re_expansions():
    rng = np.random.default_rng(SEED + 1)
    worst_reg = 0.0
    for _ in range(8):
        r = rng.normal(size=3)
        r *= rng.uniform(0.2, 1.0) / np.linalg.norm(r)
        a = rng.normal(size=3)
        a *= rng.uniform(0.3, 2.0) / np.linalg.norm(a)
        for l in range(7):
            for m in range(-l, l + 1):
                expect = solid_regular(l, m, r + a)
                got = translate_solid_regular(l, m, r, a)
                worst_reg = max(
                    worst_reg, abs(got - expect) / max(1.0, abs(expect))
                )
    pol = TruncationPolicy(lam_max=24)
    worst_irr = 0.0
    a = np.array([1.0, 0, 0])
    for v in _units(rng, 3):
        r = 0.3 * v
        for l in range(4):
            for m in range(-l, l + 1):
                expect = solid_irregular(l, m, r + a)
                got = translate_solid_irregular(l, m, r, a, pol)
                worst_irr = max(worst_irr, abs(got - expect))
    ok = worst_reg <= 1e-12 and worst_irr <= 1e-9
    _report(
        3, "solid-harmonic re-expansion",
        ok, f"growing {worst_reg:.2e}, decaying {worst_irr:.2e}",
    )


def test_criterion_04_vector_re_expansions():
    rng = np.random.default_rng(SEED + 2)
    pol = TruncationPolicy(lam_max=30)
    a = np.array([1.0, 0, 0])
    r = 0.25 * _units(rng, 1)[0]
    rp = r + a
    rpn = np.linalg.norm(rp)
    cases = {
        "growing": (translate_W, Family.W, lambda l: l - 1, 1, False),
        "decaying": (translate_V_decay, Family.V, lambda l: -l - 2, 0, True),
        "shifted-v": (translate_V_neg_l, Family.V, lambda l: -l, 0, True),
        "shifted-w": (translate_W_neg_l, Family.W, lambda l: -l, 1, True),
        "toroidal": (translate_X, Family.X, lambda l: -l - 1, 1, True),
    }
    worst = 0.0
    orders = []
    for name, (fn, fam, power, lmin, needs_pol) in cases.items():
        for l in range(lmin, 5):
            for m in sorted({-l, 0, l}):
                got = fn(l, m, r, a, pol) if needs_pol else fn(l, m, r, a)
                expect = rpn ** power(l) * vsh_real(fam, l, m, rp / rpn)
                worst = max(worst, np.abs(got - expect).max())
        if needs_pol:
            l, m = max(lmin, 2), 1
            expect = rpn ** power(l) * vsh_real(fam, l, m, rp / rpn)
            res = {}
            for lam_max in (8, 16):
                got = fn(l, m, r, a, TruncationPolicy(lam_max=lam_max))
                res[lam_max] = np.abs(got - expect).max()
            if res[16] > 1e-14:
                orders.append(
                    math.log(res[8] / res[16]) / (8 * math.log(1 / 0.25))
                )
            else:
                orders.append(1.0)
    ok = worst <= 1e-8 and min(orders) >= 0.6
    _report(
        4, "vector re-expansion series",
        ok, f"max residual {worst:.2e}, min geometric order {min(orders):.2f}",
    )


def test_criterion_05_gradient_identities():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(4):
        x = rng.normal(size=3)
        x *= rng.uniform(0.6, 1.4) / np.linalg.norm(x)
        rr = np.linalg.norm(x)
        v = x / rr
        for l in range(5):
            m = int(rng.integers(-l, l + 1))
            grad = finite_diff_gradient(lambda p: solid_irregular(l, m, p), x)
            expect = (
                math.sqrt(4 * math.pi / (2 * l + 1))
                * rr ** (-l - 2)
                * vsh_complex(Family.V, l, m, v)
            )
            scale = max(1.0, np.abs(expect).max())
            worst = max(worst, np.abs(grad - expect).max() / scale)
            if l >= 1:
                grad = finite_diff_gradient(lambda p: solid_regular(l, m, p), x)
                expect = (
                    math.sqrt(4 * math.pi / (2 * l + 1))
                    * rr ** (l - 1)
                    * vsh_complex(Family.W, l, m, v)
                )
                scale = max(1.0, np.abs(expect).max())
                worst = max(worst, np.abs(grad - expect).max() / scale)
    _report(5, "gradient identities", worst <= 1e-6, f"max rel err {worst:.2e}")


def test_criterion_06_exterior_layer_identity():
    rng = np.random.default_rng(SEED + 4)
    quad = build_quadrature(64)
    dirs = quad.directions()
    rho = 0.25
    worst = 0.0
    for fam in Family:
        for l in range(0 if fam == Family.V else 1, 5):
            m = int(rng.integers(-l, l + 1))
            samples = np.array([vsh_real(fam, l, m, d) for d in dirs])
            xhat = _units(rng, 1)[0]
            for fac in (1.5, 3.0):
                direct = brute_potential(
                    fac * rho * xhat, samples, (0, 0, 0), rho, PARAMS, quad
                )
                mat = exterior_response(l, fac, PARAMS)
                closed = rho * sum(
                    mat[j - 1, fam - 1] * vsh_real(j, l, m, xhat)
                    for j in Family
                    if not (l == 0 and j != Family.V)
                )
                scale = max(np.abs(closed).max(), 1e-30)
                worst = max(worst, np.abs(direct - closed).max() / scale)
    _report(6, "exterior layer identity", worst <= 1e-8, f"max rel err {worst:.2e}")


def test_criterion_07_lattice_sum_primitives():
    d = DimerGeometry(0.2, 0.1).d
    worst = abs(polylog_orders(math.pi, 2)[1] + math.pi**2 / 12)
    ok_dilog = worst <= 1e-12
    worst_trunc = 0.0
    for s in (2, 3, 4):
        for alpha in (1.1, 2.4):
            k = np.arange(1, 10**6 + 1, dtype=float)
            brute = np.sum(np.exp(1j * alpha * k) / k**s)
            worst_trunc = max(
                worst_trunc, abs(polylog_orders(alpha, s)[s - 1] - brute)
            )
            for off in (2 * d, 1 - 2 * d, 1.0):
                k0 = np.arange(0, 10**6, dtype=float)
                brute = np.sum(np.exp(-1j * alpha * k0) / (k0 + off) ** s)
                minus = lerch_orders(alpha, off, s)[s - 1].conjugate()
                worst_trunc = max(worst_trunc, abs(minus - brute))
    worst_shift = 0.0
    for s in (2, 3, 4):
        z = complex(math.cos(1.3), math.sin(1.3))
        worst_shift = max(
            worst_shift,
            abs(lerch_orders(1.3, 1.0, s)[s - 1] * z - polylog_orders(1.3, s)[s - 1]),
        )
    ok = ok_dilog and worst_trunc <= 1e-9 and worst_shift <= 1e-12
    _report(
        7, "lattice-sum primitives", ok,
        f"dilog {worst:.2e}, truncation {worst_trunc:.2e}, shift {worst_shift:.2e}",
    )


# per-copy tail orders of the slowest contributing term, by family pair
_PREDICTED_ORDER = {
    (Family.W, Family.V): lambda lp, l: l + lp + 1,
    (Family.V, Family.W): lambda lp, l: l + lp + 1,
    (Family.X, Family.W): lambda lp, l: l + lp,
    (Family.W, Family.W): lambda lp, l: l + lp - 1,
    (Family.W, Family.X): lambda lp, l: l + lp,
    (Family.X, Family.X): lambda lp, l: l + lp + 1,
}


def _phased_shell_sums(pf, lp, mp, qf, l, m, alpha, n_max, shift=0.0):
    ns = np.arange(1, n_max + 1, dtype=float)
    allns = np.concatenate([-ns[::-1], ns])
    vals = per_copy_entries(pf, lp, mp, qf, l, m, shift + allns, RHO, PARAMS)
    phased = vals * np.exp(-1j * alpha * allns)
    return np.cumsum(phased[n_max:] + phased[:n_max][::-1])


def _series_checks(closed, series, predicted, window=40):
    err = np.abs(closed - series)
    env3 = err[1000 - window:1000].max()
    env4 = err[-window:].max()
    smoothed = series[-400:].mean()
    osc = np.abs(series[-window:] - smoothed).max()
    tail_est = 4 * osc + 1e-12
    agree = err[-1] <= max(1e-7, tail_est)
    if env4 <= 1e-13:
        order_ok, order = True, float("inf")
    else:
        order = math.log10(env3 / env4)
        order_ok = order >= predicted - 0.2
    return agree, order_ok, err[-1], order


def _random_pairs(rng, rows_min, cols_min, count=20):
    # deterministic low-degree diagonal pairs first: they carry the most
    # slowly decaying tails and must not be left to chance
    pairs = {(1, 0, 1, 0), (1, 1, 1, 1), (2, 0, 2, 0)}
    while len(pairs) < count + 3:
        lp = int(rng.integers(rows_min, 4))
        l = int(rng.integers(cols_min, 4))
        mp = int(rng.integers(-lp, lp + 1))
        m = int(rng.integers(-l, l + 1))
        pairs.add((lp, mp, l, m))
    return sorted(pairs)


def test_criterion_08_entry_oracle_equivalence():
    rng = np.random.default_rng(SEED + 5)
    alphas = (0.7, math.pi / 2, 2.9)
    trace = Trace(RHO, PARAMS, 3)
    mats = {al: trace.single(al).matrix for al in alphas}
    worst_err, worst_order, n_checked = 0.0, float("inf"), 0
    for (pf, qf), pred in _PREDICTED_ORDER.items():
        rows_min = 0 if pf == Family.V else 1
        cols_min = 0 if qf == Family.V else 1
        for lp, mp, l, m in _random_pairs(rng, rows_min, cols_min):
            i, j = trace.basis.index_of(lp, mp, pf), trace.basis.index_of(l, m, qf)
            for alpha in alphas:
                series = _phased_shell_sums(pf, lp, mp, qf, l, m, alpha, 10000)
                closed = mats[alpha][i, j]
                if (pf, lp, mp) == (qf, l, m):
                    tau = surface_response(l, PARAMS)[int(pf) - 1]
                    closed -= RHO * tau * norm_factor(pf, l)
                agree, order_ok, err, order = _series_checks(
                    closed, series, pred(lp, l)
                )
                n_checked += 1
                worst_err = max(worst_err, err)
                worst_order = min(worst_order, order)
                assert agree, (
                    f"entry ({pf.name},{lp},{mp})<-({qf.name},{l},{m}) "
                    f"alpha={alpha}: err {err:.3e}"
                )
                assert order_ok, (
                    f"entry ({pf.name},{lp},{mp})<-({qf.name},{l},{m}) "
                    f"alpha={alpha}: order {order:.2f} < {pred(lp, l)} - 0.2"
                )
    _report(
        8, "entry oracle equivalence", True,
        f"{n_checked} entries, worst tail-limited err {worst_err:.2e}",
    )


def test_criterion_09_vanishing_family():
    worst = 0.0
    for lp in range(4):
        for l in range(1, 4):
            for mp in range(-lp, lp + 1):
                for m in range(-l, l + 1):
                    per_copy = per_copy_entries(
                        Family.V, lp, mp, Family.X, l, m,
                        [1.0, 2.0, 3.0, -1.0, -2.0, -3.0], RHO, PARAMS,
                    )
                    worst = max(worst, np.abs(per_copy).max())
    _report(9, "vanishing family", worst <= 1e-10, f"max magnitude {worst:.2e}")


def test_criterion_10_conjugation_symmetry():
    worst = 0.0
    for alpha in (0.6, 1.7, 2.9):
        a = assemble_single(alpha, RHO, PARAMS, 3)
        b = assemble_single(2 * math.pi - alpha, RHO, PARAMS, 3)
        worst = max(worst, np.abs(b.matrix - a.matrix.conjugate()).max())
    _report(10, "conjugation symmetry", worst <= 1e-12, f"max err {worst:.2e}")


def test_criterion_11_dimer_blocks():
    rng = np.random.default_rng(SEED + 6)
    geom = DimerGeometry(0.2, RHO)
    alpha = 1.3
    mat = assemble_dimer(alpha, geom, PARAMS, 3)
    n = mat.basis.n_eff
    exact_self = np.array_equal(mat.matrix[:n, :n], mat.matrix[n:, n:])
    # block "st" maps ball s onto ball t: block row t, block column s
    coupling = {"21": mat.matrix[:n, n:], "12": mat.matrix[n:, :n]}
    worst_err = 0.0
    for block, shift in (("21", 2 * geom.d), ("12", -2 * geom.d)):
        for (pf, qf), pred in _PREDICTED_ORDER.items():
            rows_min = 0 if pf == Family.V else 1
            cols_min = 0 if qf == Family.V else 1
            for lp, mp, l, m in _random_pairs(rng, rows_min, cols_min, count=4):
                series = _phased_shell_sums(
                    pf, lp, mp, qf, l, m, alpha, 10000, shift=shift
                )
                center = per_copy_entries(
                    pf, lp, mp, qf, l, m, [shift], RHO, PARAMS
                )[0]
                series = series + center
                closed = coupling[block][
                    mat.basis.index_of(lp, mp, pf), mat.basis.index_of(l, m, qf)
                ]
                agree, order_ok, err, order = _series_checks(
                    closed, series, pred(lp, l)
                )
                worst_err = max(worst_err, err)
                assert agree and order_ok, (
                    f"block {block} ({pf.name},{lp},{mp})<-({qf.name},{l},{m}): "
                    f"err {err:.3e}, order {order:.2f}"
                )
    _report(
        11, "dimer coupling blocks", exact_self,
        f"self blocks exact, worst coupling err {worst_err:.2e}",
    )


def test_criterion_12_manufactured_solution():
    alpha, l_max, n_cut, window = 2.0, 2, 1000, 50
    basis = BasisMap(l_max)
    quad = build_quadrature(16)
    rng = np.random.default_rng(SEED + 7)
    coeffs = rng.normal(size=basis.n_eff) + 1j * rng.normal(size=basis.n_eff)
    fields = basis_samples(basis, quad)
    density = np.tensordot(coeffs, fields, axes=(0, 0))
    targets = RHO * quad.nodes

    # all copies except the outermost shells at full weight, then a
    # tapered shell window (averaged partial sums) to damp the oscillatory
    # first-order truncation tail
    phi = np.zeros((quad.n_nodes, 3), dtype=complex)
    for j in range(1, n_cut + 1):
        wt = min(1.0, (n_cut - j + 1) / window)
        for sgn in (1, -1):
            shell = brute_potential(
                targets, density, (sgn * j, 0.0, 0.0), RHO, PARAMS, quad)
            phi += wt * np.exp(1j * alpha * sgn * j) * shell
    # on-ball term in closed form (weakly singular integrand has no brute
    # quadrature route; its exterior limit is criterion 6's subject)
    for i, (l, m, fam) in enumerate(basis):
        tau = surface_response(l, PARAMS)[int(fam) - 1]
        phi += coeffs[i] * RHO * tau * fields[i]

    rhs = project_rhs(phi, quad, basis)
    mat = assemble_single(alpha, RHO, PARAMS, l_max)
    res = solve_single(mat, rhs)
    err = np.abs(res.coeffs - coeffs).max()
    _report(
        12, "manufactured solution", err <= 1e-5,
        f"recovery err {err:.2e}, residual {res.residual:.1e}",
    )
