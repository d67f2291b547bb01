"""Independent verification machinery: the brute-force reference.

Everything here checks the analytic machinery from the outside: product
Gauss-Legendre quadrature on the sphere (``system.build_quadrature``, which
the production projection shares) with the harmonics sampled one label and
node at a time by the scalar ``vsh_real``, direct surface integration of the
fundamental solution, truncated lattice sums and finite differences.
Nothing in this module touches the re-expansion series or the closed-form
lattice sums; the only analytic inputs are the harmonics themselves, the
coupling-free Kelvin tensor and (for ``brute_lattice_entry``) the per-copy
inner products, which are themselves validated here by quadrature.  The
30-digit mpmath polylogarithm and Lerch values (``polylog_ref``,
``lerch_ref``) are the reference for the float64 lattice-sum values; mpmath
is imported only when one is asked for.
"""

from __future__ import annotations

import numpy as np

from ._kernels import kelvin_apply
from .assembly import BasisMap, per_copy_entries
from .kelvin import LameParams
from .system import SphQuadrature, build_quadrature
from .vsh import vsh_real

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
    shaped (n_eff, n_nodes, 3)."""
    dirs = quad.directions()
    out = np.zeros((basis.n_eff, quad.n_nodes, 3))
    for i, (l, m, fam) in enumerate(basis):
        for k, d in enumerate(dirs):
            out[i, k] = vsh_real(fam, l, m, d)
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
    sources = center + rho * quad.nodes
    w = rho * rho * quad.weights
    out = kelvin_apply(x, sources, w, samples.real, params.lam, params.mu)
    out = out.astype(complex)
    if np.iscomplexobj(samples) and np.any(samples.imag):
        out = out + 1j * kelvin_apply(
            x, sources, w, samples.imag, params.lam, params.mu
        )
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
    ns = [n for n in range(-n_cut, n_cut + 1) if include_zero or n != 0]
    if not ns or n_cut == 0 and not include_zero:
        total = 0.0 + 0.0j
        return (total, {}) if checkpoints is not None else total
    ns = np.array(ns, dtype=float)
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


def lerch_ref(s: int, alpha: float, sign: int, offset: float) -> complex:
    """``Phi(e^{i sign alpha}, s, offset)`` from mpmath at 30 significant
    digits.

    Offsets 1 and 1/2 go through mpmath's polylogarithm, with
    ``Phi(z, s, 1) = Li_s(z) / z`` and
    ``Phi(z, s, 1/2) = 2^(s-1) [Li_s(sqrt z) - Li_s(-sqrt z)] / sqrt z``;
    ``lerchphi``'s quadrature costs about 15 times as much at offset 1/2.
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
        return complex(mpmath.lerchphi(z, s, mpmath.mpf(offset)))
