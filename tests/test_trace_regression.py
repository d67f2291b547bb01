"""The trace against recorded matrices, and its layout at large lmax.

``trace_reference.json`` holds ``M @ x`` for a seeded complex ``x`` and
``diag(M)`` for the cases of ``CASES``, written by ``_record`` with the
per-entry implementation that preceded the degree-pair builder.  To
rewrite it (only when a change of ``M`` is intended), run
``python tests/test_trace_regression.py`` from the repository root with
``src`` on the path.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sphelast.assembly import Trace, _geometry, sector
from sphelast.kelvin import LameParams
from sphelast.latsum import DimerGeometry

from conftest import stored_labels

REFERENCE = Path(__file__).with_name("trace_reference.json")
SEED = 7

CASES = {
    "single-L6-a0.7": dict(rho=0.45, lam=1.5, mu=0.8, l_max=6, alpha=0.7),
    "single-L6-a2.9": dict(rho=0.45, lam=1.5, mu=0.8, l_max=6, alpha=2.9),
    "dimer-L3": dict(rho=0.1, lam=1.0, mu=1.0, l_max=3, alpha=1.3, d=0.2),
}


def _matrix(case):
    trace = Trace(case["rho"], LameParams(case["lam"], case["mu"]), case["l_max"])
    if "d" in case:
        return trace.dimer(case["alpha"], DimerGeometry(case["d"], case["rho"])).matrix
    return trace.single(case["alpha"]).matrix


def _record(case):
    """``M @ x`` and ``diag(M)`` of one case, as ``[re, im]`` lists."""
    mat = _matrix(case)
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=len(mat)) + 1j * rng.normal(size=len(mat))
    return {
        name: [vec.real.tolist(), vec.imag.tolist()]
        for name, vec in (("product", mat @ x), ("diag", np.diag(mat).copy()))
    }


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_recorded_matrix(reference, name):
    now = _record(CASES[name])
    for key, (re, im) in reference[name].items():
        then = np.array(re) + 1j * np.array(im)
        new = np.array(now[key][0]) + 1j * np.array(now[key][1])
        scale = np.abs(then).max()
        assert np.abs(new - then).max() <= 1e-14 * scale, key


def test_large_lmax_trace():
    """At lmax 16 the compact layout stays small, every stored entry is an
    in-sector entry of the shared geometry stored once (with lambda = mu,
    also the entries that the material cancels), and ``M`` keeps its
    structure."""
    start = time.perf_counter()
    trace = Trace(0.1, LameParams(1.0, 1.0), 16)
    print(f"Trace(0.1, lambda = mu = 1, 16) built in "
          f"{time.perf_counter() - start:.2f} s")
    stored = (trace.coef.nbytes + trace.row.nbytes + trace.order.nbytes
              + trace.col.nbytes)
    assert stored < 15e6
    assert trace.coef.shape == (len(trace.row), 2)
    for name in ("bounds", "row", "col", "order"):
        assert getattr(trace, name) is getattr(_geometry(16), name)
    n = trace.basis.n_eff
    rows, cols = stored_labels(trace)
    assert len(np.unique(rows * n + cols)) == len(rows)
    secs = np.array([sector(*label) for label in trace.basis.labels])
    assert np.array_equal(secs[rows], secs[cols])
    mat = trace.single(1.3).matrix
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(mat[off], mat.conj().T[off])
    assert np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min() > 0.0


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(
        {name: _record(case) for name, case in CASES.items()}, indent=0,
    ) + "\n")
    print(f"wrote {REFERENCE}")
