"""Hot numeric kernels: pairwise Kelvin-tensor accumulation.

The brute-force verification paths integrate the fundamental solution over
quadrature nodes for thousands of lattice copies, which is the only place in
the package where runtime is dominated by a tight numeric loop; the loops
are vectorised with numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kelvin_apply", "kelvin_lattice_apply"]


def _kelvin_apply_numpy(targets, sources, weights, density, lam, mu):
    c1 = (lam + 3.0 * mu) / (lam + 2.0 * mu)
    c2 = (lam + mu) / (lam + 2.0 * mu)
    diff = targets[:, None, :] - sources[None, :, :]  # (M, N, 3)
    r2 = np.einsum("mnk,mnk->mn", diff, diff)
    r = np.sqrt(r2)
    wf = weights[:, None] * density  # (N, 3)
    iso = np.einsum("nk,mn->mk", wf, 1.0 / r)
    proj = np.einsum("mnk,nk->mn", diff, wf) / (r2 * r)
    aniso = np.einsum("mn,mnk->mk", proj, diff)
    return (c1 * iso + c2 * aniso) / (8.0 * np.pi)


def _kelvin_lattice_apply_numpy(
    targets, sources, weights, density, lam, mu, alpha, n_cut
):
    out = np.zeros((targets.shape[0], 3), dtype=complex)
    shift = np.zeros(3)
    for n in range(-n_cut, n_cut + 1):
        if n == 0:
            continue
        shift[0] = n
        contrib = _kelvin_apply_numpy(
            targets - shift, sources, weights, density.real, lam, mu
        ).astype(complex)
        if np.iscomplexobj(density):
            contrib = contrib + 1j * _kelvin_apply_numpy(
                targets - shift, sources, weights, density.imag, lam, mu
            )
        out += np.exp(1j * alpha * n) * contrib
    return out


def kelvin_apply(targets, sources, weights, density, lam, mu):
    """Sum of weighted Kelvin-tensor applications:
    ``out[i] = sum_j w_j G(t_i - s_j) f_j`` (real density)."""
    targets = np.ascontiguousarray(targets, dtype=float)
    sources = np.ascontiguousarray(sources, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)
    density = np.ascontiguousarray(density, dtype=float)
    return _kelvin_apply_numpy(targets, sources, weights, density, lam, mu)


def kelvin_lattice_apply(targets, sources, weights, density, lam, mu, alpha, n_cut):
    """Phased lattice sum of shifted-copy potentials over ``0 < |n| <= n_cut``:
    ``out[i] = sum_n e^{i n alpha} sum_j w_j G(t_i - s_j - n e_x) f_j``."""
    targets = np.ascontiguousarray(targets, dtype=float)
    sources = np.ascontiguousarray(sources, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)
    density = np.ascontiguousarray(density, dtype=complex)
    return _kelvin_lattice_apply_numpy(
        targets, sources, weights, density, lam, mu, float(alpha), int(n_cut)
    )
