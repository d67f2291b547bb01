"""Per-layer tracing from outside the program.

``Tracer.run`` calls one operation with public functions of the ``sphelast``
modules replaced by wrappers that record one span per call (name, start,
end, parent span), and puts the originals back afterwards.  A function
imported by name into another module is a separate reference, so every
``sphelast`` module namespace (and module-level dict, such as
``verify.SUITES``) holding the original is rebound.  Untraced runs never
create a ``Tracer``.

Spans are kept in flat arrays in memory, one traced operation at a time.
Per-layer metrics are computed from them after each traced operation: call
counts, inclusive time of each layer (nested calls of the same layer counted
once) and self time of each span name.  The spans of the last traced
operation are written at the end of the run.

A target that a later version of the program no longer has is reported as
absent; its metrics read 0.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path).  "SUITES[x]" names an entry of a
# module-level dict, "Cls.meth" a method.
_VERIFY_SUITES = ("sphharm", "vsh", "translation", "kelvin", "latsum",
                  "assembly", "system")
_SERIES = ("translate_solid_regular", "translate_solid_irregular",
           "translate_W", "translate_V_decay", "translate_V_neg_l",
           "translate_W_neg_l", "translate_X")
_LATTICE = ("lattice_decay_sum", "lattice_axis_sum", "lattice_moment_sum",
            "lattice_cross_sum", "lattice_decay_sum_dimer",
            "lattice_axis_sum_dimer", "lattice_moment_sum_dimer",
            "lattice_cross_sum_dimer")

TARGETS = [
    ("sphharm.ylm_equator", "sphelast.sphharm", "ylm_equator"),
    ("sphharm.legendre_row", "sphelast.sphharm", "legendre_row"),
    ("translation.combine_source", "sphelast.translation", "combine_source"),
    *((f"translation.{n}", "sphelast.translation", n) for n in _SERIES),
    ("assembly.assemble_single", "sphelast.assembly", "assemble_single"),
    ("assembly.assemble_dimer", "sphelast.assembly", "assemble_dimer"),
    ("assembly.entry_single", "sphelast.assembly", "entry_single"),
    ("assembly.entry_dimer", "sphelast.assembly", "entry_dimer"),
    ("latsum.polylog_unit", "sphelast.latsum", "polylog_unit"),
    ("latsum.lerch_unit", "sphelast.latsum", "lerch_unit"),
    ("latsum.cache_polylog", "sphelast.latsum", "LatticeSumCache.polylog"),
    ("latsum.cache_lerch", "sphelast.latsum", "LatticeSumCache.lerch"),
    *((f"latsum.{n}", "sphelast.latsum", n) for n in _LATTICE),
    ("system.solve_single", "sphelast.system", "solve_single"),
    ("system.solve_dimer", "sphelast.system", "solve_dimer"),
    ("system.project_rhs", "sphelast.system", "project_rhs"),
    ("io.save_vector", "sphelast.io", "save_vector"),
    ("io.save_matrix", "sphelast.io", "save_matrix"),
    ("io.matrix_to_csv", "sphelast.io", "matrix_to_csv"),
    ("oracle.build_quadrature", "sphelast.oracle", "build_quadrature"),
    ("oracle.sample_field", "sphelast.oracle", "sample_field"),
    ("oracle.basis_samples", "sphelast.oracle", "basis_samples"),
    ("oracle.brute_potential", "sphelast.oracle", "brute_potential"),
    ("vsh.vsh_real", "sphelast.vsh", "vsh_real"),
    ("kelvin.kelvin_tensor", "sphelast.kelvin", "kelvin_tensor"),
    ("kelvin.response_coeffs", "sphelast.kelvin", "response_coeffs"),
    ("kernels.kelvin_apply", "sphelast._kernels", "kelvin_apply"),
    *((f"verify.{s}", "sphelast.verify", f"SUITES[{s}]")
      for s in _VERIFY_SUITES),
]

# Layer groups: metric stem -> span names.  A group's time counts a call
# nested inside another call of the same group once (assemble_dimer calls
# assemble_single).
GROUPS = {
    "sphharm.ylm_equator": ["sphharm.ylm_equator"],
    "sphharm.legendre_row": ["sphharm.legendre_row"],
    "translation.combine_source": ["translation.combine_source"],
    "translation.series": [f"translation.{n}" for n in _SERIES],
    "assembly.assemble": ["assembly.assemble_single", "assembly.assemble_dimer"],
    "assembly.entry": ["assembly.entry_single", "assembly.entry_dimer"],
    "latsum.polylog": ["latsum.polylog_unit"],
    "latsum.lerch": ["latsum.lerch_unit"],
    "latsum.lookup": ["latsum.cache_polylog", "latsum.cache_lerch"],
    "latsum.lattice_sum": [f"latsum.{n}" for n in _LATTICE],
    "system.solve": ["system.solve_single", "system.solve_dimer"],
    "system.project_rhs": ["system.project_rhs"],
    "io.write": ["io.save_vector", "io.save_matrix", "io.matrix_to_csv"],
    "oracle.build_quadrature": ["oracle.build_quadrature"],
    "oracle.basis_samples": ["oracle.basis_samples"],
    "oracle.brute_potential": ["oracle.brute_potential"],
    "vsh.vsh_real": ["vsh.vsh_real"],
    "kelvin.kelvin_tensor": ["kelvin.kelvin_tensor"],
    "kelvin.response_coeffs": ["kelvin.response_coeffs"],
    "kernels.kelvin_apply": ["kernels.kelvin_apply"],
    **{f"verify.{s}": [f"verify.{s}"] for s in _VERIFY_SUITES},
}

# lru caches read through cache_info(): metric stem -> (module, functions).
LRU = {
    "translation.prefactor": ("sphelast.translation", (
        "decay_prefactor", "cross_prefactor", "recoupling_weight")),
    "coupling.cg": ("sphelast.coupling", ("cg",)),
}

# Every per-layer metric, in output order, with its unit.  Times and counts
# are per operation; cache misses and hit fractions are those of the first
# (cold) operation of the worker.
PER_LAYER = [
    ("sphharm.ylm_equator_calls", "count"), ("sphharm.ylm_equator_s", "s"),
    ("sphharm.legendre_row_calls", "count"), ("sphharm.legendre_row_s", "s"),
    ("translation.combine_source_calls", "count"),
    ("translation.combine_source_s", "s"),
    ("translation.prefactor_misses", "count"),
    ("translation.prefactor_hit_frac", "ratio"),
    ("translation.series_s", "s"),
    ("coupling.cg_misses", "count"), ("coupling.cg_hit_frac", "ratio"),
    ("assembly.assemble_s", "s"), ("assembly.entry_calls", "count"),
    ("assembly.entry_s", "s"), ("assembly.entry_nonzero_frac", "ratio"),
    ("latsum.polylog_calls", "count"), ("latsum.polylog_s", "s"),
    ("latsum.lerch_calls", "count"), ("latsum.lerch_s", "s"),
    ("latsum.lattice_sum_calls", "count"), ("latsum.cache_hit_frac", "ratio"),
    ("system.solve_s", "s"), ("system.project_rhs_s", "s"),
    ("io.write_s", "s"), ("io.bytes_out", "B"),
    ("oracle.build_quadrature_s", "s"), ("oracle.basis_samples_s", "s"),
    ("oracle.brute_potential_s", "s"),
    ("vsh.vsh_real_calls", "count"), ("vsh.vsh_real_s", "s"),
    ("kelvin.kelvin_tensor_calls", "count"),
    ("kelvin.response_coeffs_calls", "count"),
    ("kernels.kelvin_apply_s", "s"), ("kernels.pair_evals", "count"),
    ("kernels.bench_kelvin_apply_s", "s"),
    ("kernels.bench_lattice_apply_s", "s"),
    *((f"verify.{s}_s", "s") for s in _VERIFY_SUITES),
    ("trace.op_s", "s"), ("trace.overhead_s", "s"),
    ("trace.coverage_frac", "ratio"), ("trace.spans", "count"),
]

ROOT = "op"


def _nonzero_entry(counters, args, result):
    counters["entry_nonzero"] = counters.get("entry_nonzero", 0) + (result != 0)


def _pair_evals(counters, args, result):
    counters["pair_evals"] = (
        counters.get("pair_evals", 0) + len(args[0]) * len(args[1]))


def _bytes_out(counters, args, result):
    counters["bytes_out"] = counters.get("bytes_out", 0) + os.path.getsize(args[0])


_POST = {
    "assembly.entry_single": _nonzero_entry,
    "assembly.entry_dimer": _nonzero_entry,
    "kernels.kelvin_apply": _pair_evals,
    "io.save_vector": _bytes_out,
    "io.save_matrix": _bytes_out,
    "io.matrix_to_csv": _bytes_out,
}


def _resolve(module_name, path):
    """(container, key, original) for a target, or None if absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if "[" in path:
        attr, key = path[:-1].split("[")
        table = getattr(module, attr, None)
        if not isinstance(table, dict) or key not in table:
            return None
        return table, key, table[key]
    *owners, attr = path.split(".")
    obj = module
    for owner in owners:
        obj = getattr(obj, owner, None)
    if obj is None or not callable(getattr(obj, attr, None)):
        return None
    return obj, attr, getattr(obj, attr)


def _references(original):
    """Every (namespace dict, key) in the loaded sphelast modules -- and the
    dicts they hold at module level -- that refers to ``original``."""
    refs = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sphelast" or name.startswith("sphelast.")):
            continue
        space = vars(module)
        for key, val in space.items():
            if val is original:
                refs.append((space, key))
            elif isinstance(val, dict) and not key.startswith("__"):
                refs.extend((val, k) for k, v in val.items() if v is original)
    return refs


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict = {}
        self.absent: list[str] = []
        self._patches = []  # (namespace, key, wrapper, original)
        for span, module, path in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(span)
                continue
            owner, key, original = found
            wrapper = self._wrap(self._intern(span), original, _POST.get(span))
            refs = [(owner, key)] if isinstance(owner, type) else _references(original)
            self._patches += [(ns, k, wrapper, original) for ns, k in refs]
        self._root = self._intern(ROOT)

    def _intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _patch(self, install: bool):
        for ns, key, wrapper, original in self._patches:
            value = wrapper if install else original
            if isinstance(ns, type):
                setattr(ns, key, value)
            else:
                ns[key] = value

    def _wrap(self, nid, fn, post):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                post(counters, args, result)
            return result

        return wrapper

    def run(self, fn):
        """Call ``fn()`` with the wrappers installed, inside a root span,
        and return its result.  Only this call's spans are kept: those of
        the previous call are dropped first."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()
        self._patch(install=True)
        try:
            return self._wrap(self._root, fn, None)()
        finally:
            self._patch(install=False)

    def arrays(self):
        """Views of the spans of the last ``run``: name ids, parent indexes
        (-1 for the root), start and end times."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)


def lru_snapshot() -> dict:
    """Summed (hits, misses) of each LRU group; absent groups are left out."""
    out = {}
    for stem, (module_name, funcs) in LRU.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        infos = [getattr(getattr(module, f, None), "cache_info", None) for f in funcs]
        infos = [info() for info in infos if info is not None]
        if infos:
            out[stem] = (sum(i.hits for i in infos), sum(i.misses for i in infos))
    return out


def op_layers(tracer: Tracer) -> dict:
    """Per-layer values of the operation last traced by ``tracer.run``."""
    names = tracer.names
    name_id, parent, start, end = tracer.arrays()
    dur = end - start
    index = {n: i for i, n in enumerate(names)}
    out = {"spans": int(len(dur))}

    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    out["coverage"] = float(child[0] / dur[0]) if dur[0] else 0.0
    self_time = np.bincount(name_id, weights=dur - child, minlength=len(names))
    out["self"] = {names[i]: float(t) for i, t in enumerate(self_time) if t}

    def ids(members):
        return [index[m] for m in members if m in index]

    for stem, members in GROUPS.items():
        mask = np.isin(name_id, ids(members))
        cand = np.flatnonzero(mask)
        keep = np.ones(len(cand), dtype=bool)
        anc = parent[cand]
        live = np.flatnonzero(anc >= 0)
        while len(live):
            keep[live] &= ~mask[anc[live]]
            anc[live] = parent[anc[live]]
            live = live[anc[live] >= 0]
        out[f"{stem}_calls"] = int(len(cand))
        out[f"{stem}_s"] = float(dur[cand[keep]].sum())

    lookup = np.isin(name_id, ids(GROUPS["latsum.lookup"]))
    evals = np.isin(name_id, ids(["latsum.polylog_unit", "latsum.lerch_unit"]))
    looked_up = int(lookup.sum())
    missed = int((evals & has_parent & lookup[np.maximum(parent, 0)]).sum())
    out["latsum.cache_hit_frac"] = 1.0 - missed / looked_up if looked_up else 0.0
    return out
