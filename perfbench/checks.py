"""Correctness checks applied to every benchmark operation.

An operation fails when any check fails; a failed operation is counted,
never dropped.  ``check`` returns the list of failures (empty when the
operation is correct).
"""

from __future__ import annotations

import math
import re

import numpy as np

from sphelast import io as sio

REFERENCE_RTOL = 1e-10   # relative to the largest |value| of the reference
CONJUGATE_RTOL = 1e-12   # sweep rows at alpha and 2 pi - alpha

_VERIFY_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def basis_size(lmax: int) -> int:
    return 3 * (lmax + 1) ** 2 - 2


def output_bytes(workload: str, out_path: str, stdout: str) -> bytes:
    """What the operation produced: the output file, or verify's report."""
    if workload == "verify":
        return stdout.encode()
    try:
        with open(out_path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def values(workload: str, out_path: str):
    """The operation's numeric output as JSON values: ``[[re, im], ...]``
    for a solve, ``[[alpha, max_entry, cond], ...]`` for a sweep."""
    if workload in ("single-solve", "dimer-solve"):
        vec, _hdr = sio.load_vector(out_path)
        return [[float(v.real), float(v.imag)] for v in vec]
    if workload == "phase-sweep":
        with open(out_path) as fh:
            lines = fh.read().splitlines()
        if lines[0] != "alpha,max_entry,cond_1norm":
            raise ValueError(f"unexpected sweep header {lines[0]!r}")
        return [[float(x) for x in line.split(",")] for line in lines[1:]]
    return None


def _close(got, ref, rtol, elementwise=False) -> bool:
    """``got`` within ``rtol`` of ``ref``, relative to each value or, by
    default, to the largest |value| of ``ref``."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return False
    scale = np.abs(ref) if elementwise else np.abs(ref).max(initial=0.0)
    return bool(np.all(np.abs(got - ref) <= rtol * scale))


def check(workload: str, inp: dict, rc, stdout: str, out_path: str,
          reference) -> list[str]:
    """Failures of one operation.  ``reference`` is the recorded output for
    these inputs, or None when none was recorded."""
    if rc != 0:
        return [f"exit code {rc}"]
    if workload == "verify":
        lines = stdout.strip().splitlines()
        found = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
        if not found or found.group(1) != found.group(2) or found.group(2) == "0":
            return ["verify summary missing or not all checks passed"]
        return []
    try:
        got = values(workload, out_path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output does not load: {exc}"]
    errors = []
    arr = np.asarray(got, dtype=float)
    if not np.all(np.isfinite(arr)):
        errors.append("non-finite output values")
    if workload == "phase-sweep":
        count = inp["count"]
        if arr.shape != (count, 3):
            return errors + [f"sweep has shape {arr.shape}, expected ({count}, 3)"]
        for k in range(count // 2):
            row, mirror = arr[k], arr[count - 1 - k]
            if abs(row[0] + mirror[0] - 2.0 * math.pi) > 1e-12:
                errors.append(f"rows {k} and {count - 1 - k} are not at conjugate phases")
            elif not _close(mirror[1:], row[1:], CONJUGATE_RTOL, elementwise=True):
                errors.append(
                    f"conjugation symmetry broken between rows {k} and {count - 1 - k}")
    else:
        n = basis_size(inp["lmax"]) * (2 if workload == "dimer-solve" else 1)
        if arr.shape != (n, 2):
            errors.append(f"solution has {arr.shape[0]} coefficients, expected {n}")
    sweep = workload == "phase-sweep"
    if reference is not None and not _close(got, reference, REFERENCE_RTOL, sweep):
        errors.append(f"output differs from the recorded reference by more than "
                      f"{REFERENCE_RTOL:g} relative")
    return errors
