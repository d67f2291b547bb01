"""Independent verification machinery: the brute-force reference.

Everything here checks the analytic machinery from the outside: product
Gauss-Legendre quadrature on the sphere (``system.build_quadrature``, which
the production projection shares) with the harmonics sampled by the scalar
``vsh_real``, one call per family over every label and node (the Legendre
rows of each order, never the degree-and-order tables the production code
reads), direct surface integration of the fundamental solution (a pairwise
Kelvin-tensor sum over the nodes, vectorised with numpy), truncated lattice
sums and finite differences.
Nothing in this module touches the re-expansion series or the closed-form
lattice sums; the only analytic inputs are the harmonics themselves, the
coupling-free Kelvin tensor and (for ``brute_lattice_entry``) the per-copy
inner products, which are themselves validated here by quadrature.  The
30-digit polylogarithm and Lerch values (``polylog_ref``, ``lerch_ref``)
are the reference for the float64 lattice-sum values: mpmath's
polylogarithm, and for a Lerch offset other than 1 or 1/2 a route of its
own (``_lerch_direct``): direct terms, then the Euler transform of the tail
(DLMF 25.14; Abel summation), stopped where a rigorous remainder bound
falls below ``1e-32 max(1, |Phi|)``.  Only next to the resonance, where
that would cost more than mpmath's ``lerchphi`` quadrature, does
``lerchphi`` give the value.  mpmath is imported only when a value is
asked for.
"""

from __future__ import annotations

import math

import numpy as np

from .assembly import BasisMap, per_copy_entries
from .kelvin import LameParams
from .sphharm import Direction
from .system import SphQuadrature, build_quadrature
from .vsh import Family, vsh_real

__all__ = [
    "SphQuadrature",
    "build_quadrature",
    "inner_product_S2",
    "sample_field",
    "brute_potential",
    "brute_lattice_entry",
    "finite_diff_gradient",
    "polylog_ref",
    "lerch_ref",
]

_REF_DPS = 30
# the direct Lerch route: its remainder bound (relative to max(1, |Phi|)),
# its rounding budget (absolute, 2^-120 = 7.5e-37), the cost of one forward
# difference against one term, and the cost (in terms) above which
# lerchphi's quadrature is cheaper
_LERCH_TOL = 1e-32
_ROUND_BITS = 120
_DIFF_COST = 0.02
_LERCH_MAX_COST = 20_000


def sample_field(f, quad: SphQuadrature) -> np.ndarray:
    """Evaluate a direction -> 3-vector sampler on all quadrature nodes."""
    out = np.zeros((quad.n_nodes, 3), dtype=complex)
    for i, d in enumerate(quad.directions()):
        out[i] = f(d)
    return out


def _as_samples(f, quad):
    if callable(f):
        return sample_field(f, quad)
    arr = np.asarray(f)
    if arr.shape != (quad.n_nodes, 3):
        raise ValueError(f"expected samples of shape ({quad.n_nodes}, 3)")
    return arr


def inner_product_S2(f, g, quad: SphQuadrature) -> complex:
    """Sphere inner product with conjugation on the second slot, so a phase
    on the second argument is extracted conjugated:
    ``(f, c g) = conj(c) (f, g)``."""
    fs = _as_samples(f, quad)
    gs = _as_samples(g, quad)
    return complex(np.einsum("nk,nk,n->", fs, gs.conjugate(), quad.weights))


def basis_samples(basis: BasisMap, quad: SphQuadrature) -> np.ndarray:
    """Real vector harmonic values for each basis label on the grid,
    shaped (n_eff, n_nodes, 3): one ``vsh_real`` call per family over all
    its labels and all the nodes."""
    dirs = Direction.from_angles(quad.theta, quad.phi)
    labels = np.array(basis.labels)
    out = np.empty((basis.n_eff, quad.n_nodes, 3))
    for fam in Family:
        of = labels[:, 2] == fam
        out[of] = vsh_real(fam, labels[of, 0], labels[of, 1], dirs)
    return out


def brute_potential(
    x, density, center, rho: float, params: LameParams, quad: SphQuadrature,
) -> np.ndarray:
    """Direct quadrature of the single-layer potential of a ball.

    ``density`` is a direction -> 3-vector sampler or samples of shape
    (n_nodes, 3) on the quadrature grid of the unit sphere; the ball has
    radius ``rho`` and the given centre.  Evaluation points must stay at
    least ``0.05 rho`` away from the surface.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    center = np.asarray(center, dtype=float)
    dist = np.abs(np.linalg.norm(x - center, axis=1) - rho)
    if np.any(dist < 0.05 * rho):
        raise ValueError("evaluation point too close to the layer surface")
    samples = _as_samples(density, quad)
    lam, mu = params.lam, params.mu
    c1, c2 = (lam + 3.0 * mu) / (lam + 2.0 * mu), (lam + mu) / (lam + 2.0 * mu)
    diff = x[:, None, :] - (center + rho * quad.nodes)[None, :, :]  # (M, N, 3)
    r2 = np.einsum("mnk,mnk->mn", diff, diff)
    r = np.sqrt(r2)
    w = rho * rho * quad.weights

    def kelvin_sum(part):
        # sum_j w_j G(x_i - y_j) f_j for a real density
        wf = w[:, None] * np.ascontiguousarray(part, dtype=float)
        iso = np.einsum("nk,mn->mk", wf, 1.0 / r)
        proj = np.einsum("mnk,nk->mn", diff, wf) / (r2 * r)
        aniso = np.einsum("mn,mnk->mk", proj, diff)
        return (c1 * iso + c2 * aniso) / (8.0 * np.pi)

    out = kelvin_sum(samples.real).astype(complex)
    if np.iscomplexobj(samples) and np.any(samples.imag):
        out = out + 1j * kelvin_sum(samples.imag)
    out = params.sign * out
    return out[0] if out.shape[0] == 1 else out


def brute_lattice_entry(
    p, lp, mp, q, l, m, alpha, rho, params: LameParams, n_cut: int,
    shift: float = 0.0, include_zero: bool = False, checkpoints=None,
):
    """Truncated phased lattice sum of per-copy inner products.

    Sums ``per_copy * e^{-i n alpha}`` over ``0 < |n| <= n_cut`` (with the
    ``n = 0`` copy included when ``include_zero`` is set, as in the dimer
    coupling blocks whose copies sit at ``shift + n``).  Returns the total,
    or (total, partial sums) when ``checkpoints`` is given, for
    convergence-order estimation.
    """
    if n_cut < 0:
        raise ValueError("n_cut must be >= 0")
    ns = np.arange(-n_cut, n_cut + 1, dtype=float)
    if not include_zero:
        ns = ns[ns != 0.0]
    if not ns.size:
        total = 0.0 + 0.0j
        return (total, {}) if checkpoints is not None else total
    vals = per_copy_entries(p, lp, mp, q, l, m, shift + ns, rho, params)
    phased = vals * np.exp(-1j * alpha * ns)
    total = complex(np.sum(phased))
    if checkpoints is None:
        return total
    partials = {}
    for nc in checkpoints:
        mask = np.abs(ns) <= nc
        partials[nc] = complex(np.sum(phased[mask]))
    return total, partials


def finite_diff_gradient(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar field, error O(h^2)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(3, dtype=complex)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        out[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    if np.allclose(out.imag, 0.0):
        return out.real
    return out


def polylog_ref(s: int, alpha: float, sign: int) -> complex:
    """``Li_s(e^{i sign alpha})`` from mpmath at 30 significant digits."""
    import mpmath

    with mpmath.workdps(_REF_DPS):
        return complex(mpmath.polylog(s, mpmath.expj(sign * mpmath.mpf(alpha))))


def _lerch_plan(s: int, gap: float, offset: float):
    """``(N, K)`` of the cheapest direct route to ``Phi(z, s, offset)`` with
    ``|1 - z| = gap`` whose remainder bound is at most ``_LERCH_TOL / 2``, or
    None where it would cost more than ``_LERCH_MAX_COST`` terms.

    The cost counts one unit per direct term and per tail value, and
    ``_DIFF_COST`` per forward difference (``K^2 / 2`` of them).
    """
    if gap == 0.0:
        return None
    best = (_LERCH_MAX_COST, None)
    k = 0
    while k + _DIFF_COST * k * k < best[0]:
        # 2 (s)_K (N + a)^-(s+K) / gap^(K+1) <= tol / 2, solved for N + a
        log_base = (
            math.log(4 / _LERCH_TOL) + math.lgamma(s + k) - math.lgamma(s)
            - (k + 1) * math.log(gap)
        ) / (s + k)
        if log_base < math.log(best[0]):
            n = max(1, math.ceil(math.exp(log_base) - offset))
            cost = n + k + _DIFF_COST * k * k
            if cost < best[0]:
                best = (cost, (n, k))
        k += 1
    return best[1]


def _fixed(x, bits: int) -> tuple[int, int]:
    """The mpmath complex ``x`` as two integers in units of ``2^-bits``."""
    import mpmath

    return int(mpmath.ldexp(x.real, bits)), int(mpmath.ldexp(x.imag, bits))


def _lerch_direct(s: int, phase: float, offset: float):
    """``Phi(e^{i phase}, s, offset)`` as a 30-digit mpmath complex by direct
    terms and the Euler transform of the tail, or None where
    ``_lerch_plan`` finds ``lerchphi`` cheaper.

    With ``F(j) = (N + a + j)^-s``,

        Phi = sum_{n<N} z^n (n + a)^-s
              + sum_{k<K} z^(N+k) Delta^k F(0) / (1 - z)^(k+1) + R_K,

    ``|R_K| <= 2 (s)_K (N + a)^-(s+K) / |1 - z|^(K+1)``: ``(-1)^K Delta^K F``
    is positive and decreasing (``F`` is completely monotone), so Abel's
    inequality bounds the remainder series by its first term times
    ``2 / |1 - z|``, and ``|Delta^K F(0)|`` is at most the largest ``K``-th
    derivative.  The sums are exact integer arithmetic on fixed-point
    values, ``F`` and ``(n + a)^-s`` rounded down from the exact float
    offset: a forward difference of order ``k`` then carries at most
    ``2^k`` units of the last place, and the tail's scale takes
    ``K log2(2 / |1 - z|)`` more bits than the direct terms' so that every
    term stays within ``2^-_ROUND_BITS``.
    """
    import mpmath

    gap = abs(2.0 * math.sin(phase / 2.0))
    plan = _lerch_plan(s, gap, offset)
    if plan is None:
        return None
    n_direct, k_euler = plan
    bits = _ROUND_BITS + 2 * n_direct.bit_length()
    tail_bits = (
        _ROUND_BITS + 2 * (k_euler + 1).bit_length()
        + math.ceil(k_euler * math.log2(2.0 / gap))
    )
    num, den = offset.as_integer_ratio()   # (n + a)^-s = den^s / (n den + num)^s
    with mpmath.workprec(max(bits, tail_bits) + 20):
        phi = mpmath.mpf(phase)
        z = mpmath.expj(phi)
        zr, zi = _fixed(z, bits)
        ur, ui = _fixed(mpmath.expj(n_direct * phi) / (1 - z), tail_bits)
        wr, wi = _fixed(z / (1 - z), tail_bits)
        # direct terms, at scale 2^(2 bits); z^n by fixed-point rotation
        top = den**s << bits
        re = im = 0
        cr, ci = 1 << bits, 0
        for n in range(n_direct):
            term = top // (n * den + num) ** s
            re += cr * term
            im += ci * term
            cr, ci = (cr * zr - ci * zi) >> bits, (cr * zi + ci * zr) >> bits
        # the tail, at scale 2^(2 tail_bits); Delta^k F(0) is diff[0] after
        # k rounds of differencing
        top = den**s << tail_bits
        diff = [top // ((n_direct + j) * den + num) ** s for j in range(k_euler)]
        tre = tim = 0
        for _ in range(k_euler):
            tre += ur * diff[0]
            tim += ui * diff[0]
            diff = [b - a for a, b in zip(diff, diff[1:])]
            ur, ui = (ur * wr - ui * wi) >> tail_bits, (ur * wi + ui * wr) >> tail_bits
        total = mpmath.mpc(
            mpmath.mpf((re, -2 * bits)) + mpmath.mpf((tre, -2 * tail_bits)),
            mpmath.mpf((im, -2 * bits)) + mpmath.mpf((tim, -2 * tail_bits)),
        )
    with mpmath.workdps(_REF_DPS):
        return +total


def lerch_ref(s: int, alpha: float, sign: int, offset: float) -> complex:
    """``Phi(e^{i sign alpha}, s, offset)`` from mpmath at 30 significant
    digits.

    Offsets 1 and 1/2 go through mpmath's polylogarithm, with
    ``Phi(z, s, 1) = Li_s(z) / z`` and
    ``Phi(z, s, 1/2) = 2^(s-1) [Li_s(sqrt z) - Li_s(-sqrt z)] / sqrt z``.
    Other offsets take ``_lerch_direct``: direct terms and the Euler
    transform of the tail, stopped where the remainder bound is below
    ``1e-32 max(1, |Phi|)``: a few ms a value.  Only where ``|1 - z|`` is
    so small that this would take more than ``_LERCH_MAX_COST`` terms (order
    1 at phase 1e-3 needs 74,000) does mpmath's ``lerchphi`` quadrature,
    55-90 ms a value, give it.
    """
    import mpmath

    with mpmath.workdps(_REF_DPS):
        phase = sign * mpmath.mpf(alpha)
        z = mpmath.expj(phase)
        if offset == 1.0:
            return complex(mpmath.polylog(s, z) / z)
        if offset == 0.5:
            w = mpmath.expj(phase / 2)
            odd = mpmath.polylog(s, w) - mpmath.polylog(s, -w)
            return complex(2 ** (s - 1) * odd / w)
        value = _lerch_direct(s, sign * alpha, offset)
        if value is None:
            value = mpmath.lerchphi(z, s, mpmath.mpf(offset))
        return complex(value)
