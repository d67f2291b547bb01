"""Self-check suites runnable from the command line.

Each suite exercises the invariants of one module against an independent
route (quadrature, finite differences, direct evaluation or truncated brute
force) and reports ``(check name, observed residual, tolerance)`` rows.
The pytest suite covers the same ground more exhaustively; these runs are
sized to finish in seconds per suite.
"""

from __future__ import annotations

import math

import numpy as np

from . import assembly, latsum, oracle, system, translation
from .kelvin import (
    LameParams,
    exterior_response,
    kelvin_tensor,
    norm_factor,
    shifted_ball_potential,
    surface_response,
)
from .sphharm import Direction, ylm_complex, ylm_equator
from .vsh import Family, rhat_dot_a_expand, vsh_complex_table, vsh_real

__all__ = ["SUITES", "run_suites"]

_PARAMS = LameParams(1.0, 1.0)


def _rand_dirs(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _relative(worst, scale):
    """``worst / scale``, or inf when a wrong kernel leaves no scale, so that
    the check fails instead of dividing by zero."""
    return worst / scale if scale > 0 else math.inf


def _largest_abs(values) -> float:
    """The largest modulus of complex ``values``, each from libm's
    ``hypot`` as for one number (numpy's array modulus can round
    differently in the last place)."""
    return max(map(abs, np.ravel(values).tolist()))


def suite_sphharm(rng):
    checks = []
    quad = oracle.build_quadrature(16)
    dirs = Direction.from_angles(quad.theta, quad.phi)
    vals = np.array([
        ylm_complex(l, m, dirs) for l in range(7) for m in range(-l, l + 1)
    ])
    gram = (vals * quad.weights) @ vals.conj().T
    worst = np.abs(gram - np.eye(len(vals))).max()
    checks.append(("orthonormality l<=6", worst, 1e-12))
    dirs = Direction.from_vector(_rand_dirs(rng, 50))
    worst = max(
        np.abs(
            ylm_complex(l, -m, dirs) - (-1) ** m * np.conj(ylm_complex(l, m, dirs))
        ).max()
        for l in range(5)
        for m in range(l + 1)
    )
    checks.append(("conjugation rule", worst, 1e-14))
    worst = 0.0
    for l in range(7):
        for m in range(-l, l + 1):
            if (l + m) % 2 == 1:
                worst = max(worst, abs(ylm_equator(l, m)))
            worst = max(
                worst,
                abs(
                    ylm_equator(l, m, at_pi=True)
                    - (-1) ** m * ylm_equator(l, m, at_pi=False)
                ),
            )
    checks.append(("equator parity", worst, 1e-14))
    return checks


def suite_vsh(rng):
    checks = []
    lmax = 5
    deg = np.arange(lmax + 1)[:, None]
    labels = (deg >= 1) & (np.abs(np.arange(-lmax, lmax + 1)) <= deg)
    vecs = _rand_dirs(rng, 40)
    dirs = Direction.from_vector(vecs)
    # Y_lm by the scalar route (legendre_row, cos/sin phase), not from the
    # legendre_table and sph_norm_table the vsh table is built on
    y_all = np.zeros((lmax + 1, 2 * lmax + 1, len(vecs)), dtype=complex)
    for l in range(1, lmax + 1):
        for m in range(-l, l + 1):
            y_all[l, m + lmax] = ylm_complex(l, m, dirs)
    # one table over every direction: [l, m + lmax, node, xyz]
    vv, w, x = vsh_complex_table(lmax, dirs)
    deg = deg[..., None]
    gaps = np.stack([
        np.abs(w - vv - ((2 * deg + 1) * y_all)[..., None] * vecs).max(axis=-1),
        np.abs(np.einsum("lmnk,nk->lmn", x, vecs)),
        np.abs(np.einsum("lmnk,nk->lmn", vv, vecs) + (deg + 1) * y_all),
        np.abs(np.einsum("lmnk,nk->lmn", w, vecs) - deg * y_all),
    ])
    worst = gaps[:, labels].max()
    checks.append(("pointwise identities", worst, 1e-13))
    quad = system.build_quadrature(14)
    basis = assembly.BasisMap(4)
    fields = oracle.basis_samples(basis, quad)
    gram = np.einsum("ink,jnk,n->ij", fields, fields, quad.weights)
    expect = np.diag([norm_factor(fam, l) for l, _m, fam in basis])
    worst = np.abs(gram - expect).max()
    checks.append(("orthogonality and norms l<=4", worst, 1e-11))
    v = _rand_dirs(rng, 20)
    a = rng.normal(size=(20, 3))
    comp = rhat_dot_a_expand(a.T)
    expand = math.sqrt(4 * math.pi / 3) * sum(
        (-1) ** q * comp[q] * ylm_complex(1, q, v) for q in (-1, 0, 1)
    )
    worst = np.abs(np.einsum("nk,nk->n", v, a) - expand).max()
    checks.append(("axis-projection expansion", worst, 1e-13))
    # vsh_real (Legendre rows per order, real arithmetic), one call per
    # family, against the complex table (legendre_table, complex phases)
    # recombined with combine_source's weights on its +m and -m entries,
    # on seeded directions and both poles
    rand = Direction.from_vector(_rand_dirs(rng, 12))
    dirs = Direction.from_angles(
        np.r_[rand.theta, 0.0, math.pi], np.r_[rand.phi, 0.0, 0.0]
    )
    lmax = 8
    table = vsh_complex_table(lmax, dirs)
    combined = np.stack([
        translation.combine_source(m, lambda k: table[:, :, k + lmax])
        for m in range(-lmax, lmax + 1)
    ], axis=2)  # [family - 1, l, m + lmax, node, xyz]
    labels = np.array(assembly.BasisMap(lmax).labels)
    worst = 0.0
    for fam in Family:
        l, m = labels[labels[:, 2] == fam, :2].T
        gap = vsh_real(fam, l, m, dirs) - combined[fam - 1, l, m + lmax]
        worst = max(worst, np.abs(gap).max())
    checks.append(("table vs scalar l<=8", worst, 1e-13))
    return checks


def vector_series_residual(r, a) -> float:
    """Largest deviation of the five vector series at ``r`` about the
    shift ``a`` from direct evaluation of the shifted fields.

    The decaying series are cut at ``lam_max = 30``: their truncation tail
    peaks for ``r`` parallel to ``a``, where it is 2.4e-12 at
    ``|r| = 0.3 |a|`` (1.8e-9 at ``lam_max = 24``).
    """
    pol = translation.TruncationPolicy(lam_max=30)
    rp = r + a
    rpn = np.linalg.norm(rp)
    # looked up at call time: a wrapper put on the module attribute (as a
    # tracer does) is then both the function called and the one compared
    cases = [
        (translation.translate_W, Family.W, lambda l: l - 1, 2, 1),
        (translation.translate_V_decay, Family.V, lambda l: -l - 2, 2, -1),
        (translation.translate_V_neg_l, Family.V, lambda l: -l, 2, 0),
        (translation.translate_W_neg_l, Family.W, lambda l: -l, 2, 2),
        (translation.translate_X, Family.X, lambda l: -l - 1, 2, -2),
    ]
    worst = 0.0
    for fn, fam, power, l, m in cases:
        got = (
            fn(l, m, r, a)
            if fn is translation.translate_W
            else fn(l, m, r, a, pol)
        )
        expect = rpn ** power(l) * vsh_real(fam, l, m, rp / rpn)
        worst = max(worst, np.abs(got - expect).max())
    return worst


def suite_translation(rng):
    checks = []
    from .sphharm import solid_irregular, solid_regular, solid_regular_table

    worst = 0.0
    worst_table = 0.0
    for _ in range(4):
        r = rng.normal(size=3) * 0.7
        a = rng.normal(size=3)
        exact = solid_regular_table(4, r + a)
        n = np.linalg.norm(r + a)
        for l in range(5):
            m = np.arange(-l, l + 1)
            series = translation.translate_solid_regular(l, m, r, a)
            worst = max(worst, _largest_abs(series - exact[l, m + 4]))
            for m in range(-l, l + 1):
                # the Cartesian table against the angle route, per |r|^l
                worst_table = max(
                    worst_table,
                    abs(exact[l, m + 4] - solid_regular(l, m, r + a)) / n**l,
                )
    checks.append(("finite growing re-expansion", worst, 1e-12))
    checks.append(("growing table vs scalar l<=4", worst_table, 1e-14))
    pol = translation.TruncationPolicy(lam_max=24)
    worst = 0.0
    a = np.array([1.0, 0.0, 0.0])
    r = _rand_dirs(rng, 1)[0] * 0.3
    for l in range(4):
        series = translation.translate_solid_irregular(l, np.arange(-l, l + 1), r, a, pol)
        direct = [solid_irregular(l, m, r + a) for m in range(-l, l + 1)]
        worst = max(worst, _largest_abs(series - direct))
    checks.append(("decaying re-expansion at ratio 0.3", worst, 1e-9))
    worst = vector_series_residual(r, a)
    checks.append(("vector re-expansion series", worst, 1e-9))
    return checks


def suite_kelvin(rng):
    checks = []
    g = kelvin_tensor((1.0, 0.0, 0.0), _PARAMS)
    worst = max(
        abs(g[0, 0] - 1.0 / (4 * math.pi)), abs(g[1, 1] - 1.0 / (6 * math.pi))
    )
    checks.append(("fundamental solution values", worst, 1e-15))
    quad = oracle.build_quadrature(60)
    grid = Direction.from_angles(quad.theta, quad.phi)
    rho = 0.3
    worst = 0.0
    for l, fam in [(1, Family.W), (3, Family.X), (2, Family.V)]:
        m = int(rng.integers(-l, l + 1))
        samples = vsh_real(fam, l, m, grid)
        xhat = _rand_dirs(rng, 1)[0]
        for fac in (1.5, 3.0):
            direct = oracle.brute_potential(
                fac * rho * xhat, samples, (0, 0, 0), rho, _PARAMS, quad
            )
            mat = exterior_response(l, fac, _PARAMS)
            closed = rho * sum(
                mat[j - 1, fam - 1] * vsh_real(j, l, m, xhat)
                for j in Family
                if not (l == 0 and j != Family.V)
            )
            scale = max(np.abs(closed).max(), 1e-30)
            worst = max(worst, np.abs(direct - closed).max() / scale)
    checks.append(("exterior layer identity", worst, 1e-8))
    worst = 0.0
    for l in range(4):
        taus = surface_response(l, _PARAMS)
        mat = exterior_response(l, 1.0 + 1e-9, _PARAMS)
        for j in range(3):
            if l == 0 and j > 0:
                continue
            worst = max(worst, abs(mat[j, j] - taus[j]))
    checks.append(("boundary continuity", worst, 1e-7))
    return checks


def suite_latsum(rng):
    checks = []
    worst = abs(latsum.polylog_orders(math.pi, 2)[1] + math.pi**2 / 12)
    checks.append(("dilogarithm at the zone edge", worst, 1e-12))
    k = np.arange(1, 100_001, dtype=float)
    worst = 0.0
    for s, al in [(3, 0.7), (4, 2.2)]:
        brute = np.sum(np.exp(1j * al * k) / k**s)
        worst = max(worst, abs(latsum.polylog_orders(al, s)[s - 1] - brute))
    k0 = np.arange(0, 100_000, dtype=float)
    for s, dd, al in [(3, 0.4, 1.0), (4, 0.6, 2.4)]:
        brute = np.sum(np.exp(-1j * al * k0) / (k0 + dd) ** s)
        minus = latsum.lerch_orders(al, dd, s)[s - 1].conjugate()
        worst = max(worst, abs(minus - brute))
    checks.append(("polylog and Lerch vs truncation", worst, 1e-9))
    z = complex(math.cos(1.3), math.sin(1.3))
    worst = abs(latsum.lerch_orders(1.3, 1.0, 3)[2] * z - latsum.polylog_orders(1.3, 3)[2])
    checks.append(("offset-1 reduction", worst, 1e-12))
    # seeded samples against the 30-digit oracle (its Lerch values are
    # direct sums with a bounded remainder, a few ms each at these phases)
    worst = 0.0
    for kind in ("polylog", "lerch") * 3:
        s = int(rng.integers(1, 17))
        al = float(rng.uniform(0.05, 2 * math.pi - 0.05))
        sign = int(rng.choice((-1, 1)))
        if kind == "polylog":
            value = latsum.polylog_orders(al, s)[s - 1]
            ref = oracle.polylog_ref(s, al, sign)
        else:
            off = float(rng.uniform(0.02, 1.0))
            value = latsum.lerch_orders(al, off, s)[s - 1]
            ref = oracle.lerch_ref(s, al, sign, off)
        value = value if sign > 0 else value.conjugate()
        worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
    checks.append(("float64 vs mpmath", worst, 1e-14))
    alpha = 1.1
    ns = np.arange(1, 20001, dtype=float)
    ns = np.concatenate([-ns[::-1], ns])
    worst = 0.0
    blocks = assembly._DegreeBlocks(2)
    values = latsum.line_values(alpha, 6)
    for l, lam, m, mu in [(1, 1, 0, 0), (2, 1, 1, 0), (1, 2, -1, 1)]:
        # the plain kernel: (+) coefficient on order l + lam + 1
        s = l + lam + 1
        coef = np.array([blocks.plain(l, lam)[mu + lam, m + l], 0.0])
        per_copy = assembly._per_copy_values(s, coef, ns)
        brute = np.sum(per_copy * np.exp(-1j * alpha * ns))
        closed = assembly._contract(np.array([s]), coef[None], values)[0]
        worst = max(worst, abs(closed - brute))
    checks.append(("phased coefficient sums vs truncation", worst, 1e-8))
    return checks


def suite_assembly(rng):
    checks = []
    rho, alpha = 0.1, 0.9
    trace = assembly.Trace(rho, _PARAMS, 2)
    mat = trace.single(alpha)
    mat2 = trace.single(2 * math.pi - alpha)
    checks.append(
        (
            "conjugation symmetry",
            float(np.abs(mat2.matrix - mat.matrix.conjugate()).max()),
            1e-12,
        )
    )
    worst = 0.0
    for i, (lp, mp, pf) in enumerate(mat.basis):
        for j, (l, m, qf) in enumerate(mat.basis):
            if pf == Family.V and qf == Family.V and (lp, mp) != (l, m):
                worst = max(worst, abs(mat.matrix[i, j]))
            if {pf, qf} == {Family.V, Family.X}:
                worst = max(worst, abs(mat.matrix[i, j]))
    checks.append(("structural zero pattern", worst, 0.0))
    # entries of the assembled matrix: the on-ball diagonal plus the
    # phased sum over the other copies, cut at 20000 shells
    worst = 0.0
    for pf, lp, mp, qf, l, m in [
        (Family.W, 1, 0, Family.V, 1, 0),
        (Family.W, 2, 0, Family.W, 2, 0),
        (Family.X, 1, 0, Family.W, 1, -1),
    ]:
        i, j = mat.basis.index_of(lp, mp, pf), mat.basis.index_of(l, m, qf)
        diag = trace.diag[i] if i == j else 0.0
        brute = oracle.brute_lattice_entry(
            pf, lp, mp, qf, l, m, alpha, rho, _PARAMS, 20000
        )
        worst = max(worst, abs(mat.matrix[i, j] - (brute + diag)))
    checks.append(("entries vs truncated sums", worst, 1e-6))
    # one copy's inner products against quadrature of the shifted ball's
    # potential, which comes from exterior_response and no translation
    # series: the truncated sums above and below read the same degree-pair
    # blocks as the trace, so only this check sees a wrong block phase
    quad = oracle.build_quadrature(12)
    dirs = Direction.from_angles(quad.theta, quad.phi)
    shifts = (1.0, -2.0)
    worst = scale = 0.0
    for pf, lp, mp, qf, l, m in [
        (Family.W, 1, 0, Family.V, 1, 0),
        (Family.X, 1, 0, Family.W, 1, -1),
    ]:
        row = vsh_real(pf, lp, mp, dirs)
        closed = assembly.per_copy_entries(pf, lp, mp, qf, l, m, shifts, rho, _PARAMS)
        for n, value in zip(shifts, closed):
            potential = shifted_ball_potential(n, l, m, qf, dirs, rho, _PARAMS)
            quadrature = np.einsum("nk,nk,n->", row, potential, quad.weights)
            worst = max(worst, abs(quadrature - value))
            scale = max(scale, abs(value), abs(quadrature))
    checks.append(("per-copy entries vs shifted potential", worst / scale, 1e-10))
    geom = latsum.DimerGeometry(0.2, 0.1)
    dim = assembly.assemble_dimer(alpha, geom, _PARAMS, 1)
    n = dim.basis.n_eff
    checks.append(
        (
            "dimer self blocks equal",
            float(np.abs(dim.matrix[:n, :n] - dim.matrix[n:, n:]).max()),
            0.0,
        )
    )
    # the W(1,0) entry of coupling block "21" (block row 1, block column 2)
    # and of block "12"
    i = dim.basis.index_of(1, 0, Family.W)
    worst = 0.0
    for entry, shift in (((i, n + i), 2 * geom.d), ((n + i, i), -2 * geom.d)):
        brute = oracle.brute_lattice_entry(
            Family.W, 1, 0, Family.W, 1, 0, alpha, geom.rho, _PARAMS, 20000,
            shift=shift, include_zero=True,
        )
        worst = max(worst, abs(dim.matrix[entry] - brute))
    checks.append(("dimer blocks vs shifted sums", worst, 1e-5))
    # the premises of the trace's sector/mirror shortcut on every label pair
    # of the full degree-pair blocks, relative to the largest diagonal entry
    labels = assembly.BasisMap(3).labels
    order, coef = assembly._unrestricted(3, rho, _PARAMS)
    scale = np.abs(coef[np.diag_indices(len(labels))]).max()
    secs = np.array([assembly.sector(*label) for label in labels])
    same = secs[:, None] == secs[None, :]
    # across sectors: the kept coefficients and those the real quadrant signs drop
    lost = np.abs(assembly._unrestricted(3, rho, _PARAMS, dropped=True)[1]).max()
    across = max(np.abs(coef[~same]).max(), lost)
    checks.append(("sector rule", _relative(across, scale), 1e-15))
    below = same & np.tri(len(labels), k=-1, dtype=bool)
    mirrored = assembly._mirror(order.T, coef.transpose(1, 0, 2))
    worst = np.abs(coef - mirrored)[below].max()
    checks.append(("Hermitian mirror", _relative(worst, scale), 1e-15))
    return checks


def suite_system(rng):
    checks = []
    rho, alpha = 0.1, 1.3
    mat = assembly.assemble_single(alpha, rho, _PARAMS, 2)
    n = mat.basis.n_eff
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    rhs = mat.matrix @ f.conjugate()
    res = system.solve_single(mat, rhs)
    checks.append(
        ("algebraic round trip", float(np.abs(res.coeffs - f).max()), 1e-10)
    )
    rhs2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    c1, c2 = 0.7 - 0.3j, -1.1 + 0.2j
    lhs = system.solve_single(mat, c1 * rhs + c2 * rhs2).coeffs
    rhsv = (
        np.conj(c1) * res.coeffs
        + np.conj(c2) * system.solve_single(mat, rhs2).coeffs
    )
    checks.append(
        ("conjugate linearity", float(np.abs(lhs - rhsv).max()), 1e-10)
    )
    quad = oracle.build_quadrature(2 * 2 + 2)
    b_closed = system.project_rhs(f, quad, mat.basis, coeffs=True)
    fields = oracle.basis_samples(mat.basis, quad)
    phi = np.tensordot(f, fields, axes=(0, 0))
    b_quad = system.project_rhs(phi, quad, mat.basis)
    checks.append(
        ("projection exactness", float(np.abs(b_closed - b_quad).max()), 1e-12)
    )
    return checks


SUITES = {
    "sphharm": suite_sphharm,
    "vsh": suite_vsh,
    "translation": suite_translation,
    "kelvin": suite_kelvin,
    "latsum": suite_latsum,
    "assembly": suite_assembly,
    "system": suite_system,
}


def run_suites(names=None, seed: int = 0):
    """Run the named suites (all by default); returns
    ``[(suite, check, residual, tol, passed), ...]``."""
    names = list(SUITES) if not names else list(names)
    rows = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        rng = np.random.default_rng(seed)
        for check, residual, tol in SUITES[name](rng):
            rows.append((name, check, float(residual), float(tol), residual <= tol))
    return rows
