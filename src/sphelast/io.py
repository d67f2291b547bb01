"""Self-describing text containers for matrices and coefficient vectors.

A dump is a single JSON document: a header object carrying every input that
produced the data (Bloch phase, radius, material constants, truncation
degree, dimer separation, basis ordering version, tool version) followed by
the entries as ``[re, im]`` pairs in row-major order.  Matrices are only
written; ``load_vector`` reads a coefficient or grid vector back and refuses
a file of another ``kind`` or basis ordering version than the one compiled
in.  A flat CSV export (row, col, re, im) is available for external tooling.

The bytes are those of ``json.dump(doc, fh, indent=1, sort_keys=True)``
followed by a newline, written one row at a time: the header through
``json.dumps``, the entries through one pair template filled with the
shortest round-trip ``repr`` of each float (``NaN``, ``Infinity`` and
``-Infinity`` as json spells them).
"""

from __future__ import annotations

import json

import numpy as np

from .assembly import BASIS_VERSION, AssembledMatrix
from . import __version__

__all__ = [
    "save_matrix",
    "save_vector",
    "load_vector",
    "matrix_to_csv",
]


class FormatError(ValueError):
    pass


def _header(m: AssembledMatrix) -> dict:
    return {
        "kind": "matrix",
        "alpha": m.alpha,
        "rho": m.rho,
        "lambda": m.params.lam,
        "mu": m.params.mu,
        "sign_flip": m.params.sign_flip,
        "lmax": m.l_max,
        "d": m.dimer.d if m.dimer is not None else None,
        "basis_version": BASIS_VERSION,
        "tool_version": __version__,
        "shape": [m.size, m.size],
    }


# one [re, im] pair as json.dump(..., indent=1) lays it out at depth 2
_PAIR = "  [\n   %r,\n   %r\n  ]"


def _write(path, header: dict, rows: np.ndarray) -> None:
    """Write ``{"entries": rows as [re, im] pairs, "header": header}`` with
    the bytes of ``json.dump(..., indent=1, sort_keys=True)`` and a newline,
    one row of the 2-D complex array ``rows`` at a time."""
    # "entries" sorts before "header": the header and the closing brace
    # follow the entries
    tail = json.dumps({"header": header}, indent=1, sort_keys=True)[1:] + "\n"
    rows = np.ascontiguousarray(rows, dtype=complex)
    with open(path, "w") as fh:
        if not rows.size:
            fh.write('{\n "entries": [],' + tail)
            return
        fh.write('{\n "entries": [\n')
        fmt = ",\n".join([_PAIR] * rows.shape[1])
        for i, row in enumerate(rows):
            text = fmt % tuple(row.view(float).tolist())
            # a finite repr has no letter but "e": only the non-finite
            # tokens change, to json's NaN, Infinity and -Infinity
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
            fh.write((",\n" if i else "") + text)
        fh.write("\n ]," + tail)


def save_matrix(path, m: AssembledMatrix) -> None:
    _write(path, _header(m), m.matrix)


def save_vector(path, vec, header_extra: dict | None = None) -> None:
    vec = np.asarray(vec, dtype=complex)
    header = {
        "kind": "vector",
        "basis_version": BASIS_VERSION,
        "tool_version": __version__,
        "length": int(vec.shape[0]),
        **(header_extra or {}),
    }
    _write(path, header, vec.reshape(1, -1))


def load_vector(path) -> tuple[np.ndarray, dict]:
    """The entries of a vector dump as one complex array, and its header;
    refuses a ``kind`` other than ``"vector"`` and a basis ordering version
    other than the compiled one."""
    with open(path) as fh:
        doc = json.load(fh)
    hdr = doc["header"]
    if hdr.get("kind") != "vector":
        raise FormatError(f"a file of kind {hdr.get('kind')!r}, not 'vector'")
    if hdr.get("basis_version") != BASIS_VERSION:
        raise FormatError(
            f"basis ordering version {hdr.get('basis_version')!r} does not "
            f"match {BASIS_VERSION!r}"
        )
    return np.array([complex(re, im) for re, im in doc["entries"]]), hdr


def matrix_to_csv(path, m: AssembledMatrix) -> None:
    rows = np.ascontiguousarray(m.matrix, dtype=complex)
    # row i is str(i) joined over ["", ",0,%r,%r\n", ",1,%r,%r\n", ...]
    cells = [""] + [f",{j},%r,%r\n" for j in range(rows.shape[1])]
    with open(path, "w") as fh:
        fh.write("row,col,re,im\n")
        for i, row in enumerate(rows):
            fh.write(str(i).join(cells) % tuple(row.view(float).tolist()))
