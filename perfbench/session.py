"""The operations of one benchmark worker (see ``worker.py``).

A cold worker runs the one operation ``--index`` and exits.  In a measuring
worker, operation 0 runs with cold caches.  Fresh operations follow while the
measuring window (``--seconds``) has room for them and for the closing
operation, which replays operation 0's inputs and must produce identical
bytes.  A traced worker traces operation 0, then alternates untraced and
traced operations; the difference of their medians is the tracing overhead.
Untraced operations run under ``speed.Sampler``: their record holds the
wall time less the probes' and the time scaled to the reference speed.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback

import mpmath
import numpy as np
import scipy

import checks
import speed
import tracing
import workloads


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--mode", choices=("setup", "cold", "run"), default="run",
                   help="setup: import only; cold: import and run operation "
                   "--index once; run: the measuring loop")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args()


def write_json(path, doc):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
    os.replace(tmp, path)


class Run:
    """The operations of one worker, their checks and (when traced) their
    per-layer metrics."""

    def __init__(self, cli, args):
        self.cli, self.args = cli, args
        self.workdir = os.path.join(
            os.path.dirname(os.path.abspath(args.result)), f"work-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        suffix = ".csv" if args.workload == "phase-sweep" else ".json"
        self.out_path = os.path.join(self.workdir, "out" + suffix)
        ref_path = os.path.join(os.path.dirname(__file__), "reference",
                                f"{args.workload}.json")
        self.reference = {}
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                self.reference = json.load(fh)
        self.tracer = None
        self.ops = []
        self.first_output = None

    def execute(self) -> dict:
        args = self.args
        if args.trace:
            self.tracer = tracing.Tracer()
        try:
            if args.mode == "cold":
                self._op(args.index, traced=False)
            else:
                self._loop()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {"ops": self.ops, "peak_rss_kb": peak_kb, "env": _env()}
        if self.tracer is not None:
            result.update(self._layers())
        return result

    def _loop(self):
        args = self.args
        begin = time.perf_counter()
        self._op(0, traced=bool(args.trace))
        min_ops = 3 if args.trace else 2  # including the closing replay
        index = 0
        while True:
            room = args.seconds - (time.perf_counter() - begin)
            estimate = max(op["wall_s"] for op in self.ops[-2:])
            if len(self.ops) + 1 >= min_ops and room < 2 * estimate:
                break
            index += 1
            self._op(index, traced=bool(args.trace) and not self.ops[-1]["traced"])
        self._op(0, traced=bool(args.trace) and not self.ops[-1]["traced"],
                 replay=True)

    def _op(self, index, traced, replay=False):
        w = self.args.workload
        inp = workloads.inputs(w, self.args.seed, index, self.args.size)
        argv = workloads.argv(w, inp, self.out_path)
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        stdout, stderr = io.StringIO(), io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    return self.cli.main(argv)
            except SystemExit as exc:
                return exc.code
            except Exception:  # an operation that raises is a failed operation
                stderr.write(traceback.format_exc())
                return None

        record = {"index": index, "replay": replay, "traced": traced,
                  "inputs": inp, "argv": argv}
        if traced:
            lru_before = tracing.lru_snapshot()
            t0 = time.perf_counter()
            rc = self.tracer.run(call)
            wall = time.perf_counter() - t0
            record["lru"] = {k: [a - b for a, b in zip(v, lru_before.get(k, (0, 0)))]
                             for k, v in tracing.lru_snapshot().items()}
            record["layers"] = self._op_layers()
        else:
            with speed.Sampler() as sampler:
                t0 = time.perf_counter()
                rc = call()
                wall = time.perf_counter() - t0
            wall -= sampler.inside_s
            record["speed"] = speed.scale(sampler.samples)
            record["scaled_s"] = wall * record["speed"]
        record["wall_s"] = wall
        record["rc"] = rc

        key = json.dumps(inp, sort_keys=True)
        reference = self.reference.get(key)
        errors = checks.check(w, inp, rc, stdout.getvalue(), self.out_path,
                              reference)
        first = index == 0 and self.args.mode == "run"
        if first and self.args.seed == 0 and w != "verify" and reference is None:
            errors.append("no recorded reference for the default seed's first "
                          "operation; regenerate perfbench/reference")
        produced = checks.output_bytes(w, self.out_path, stdout.getvalue())
        if replay and produced != self.first_output:
            errors.append("replay of operation 0 did not reproduce its output bytes")
        if first and not replay:
            self.first_output = produced
        if errors:
            record["stderr"] = stderr.getvalue()[-2000:]
        record["errors"] = errors
        record["reference_checked"] = reference is not None
        self.ops.append(record)

    def _op_layers(self) -> dict:
        layers = tracing.op_layers(self.tracer)
        c = self.tracer.counters
        calls = layers["assembly.entry_calls"]
        layers["assembly.entry_nonzero_frac"] = (
            c.get("entry_nonzero", 0) / calls if calls else 0.0)
        layers["io.bytes_out"] = c.get("bytes_out", 0)
        layers["kernels.pair_evals"] = c.get("pair_evals", 0)
        return layers

    def _layers(self) -> dict:
        traced = [op for op in self.ops if op["traced"]]
        # Warm traced operations give the per-operation values; the cold one
        # is used only when it is the only traced operation.
        warm = [op["layers"] for op in traced[1:]] or [traced[0]["layers"]]
        warm_traced = [op["wall_s"] for op in traced[1:]] or [traced[0]["wall_s"]]
        untraced = [op["wall_s"] for op in self.ops[1:] if not op["traced"]]

        values = {}
        cold = self.ops[0]["lru"]
        for stem, (hits, misses) in cold.items():
            values[f"{stem}_misses"] = misses
            values[f"{stem}_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
        for name, _unit in tracing.PER_LAYER:
            if name in warm[0]:
                values[name] = statistics.median(layers[name] for layers in warm)
        values["trace.op_s"] = statistics.median(warm_traced)
        values["trace.overhead_s"] = values["trace.op_s"] - statistics.median(untraced)
        values["trace.coverage_frac"] = statistics.median(l["coverage"] for l in warm)
        values["trace.spans"] = statistics.median(l["spans"] for l in warm)
        values.update(_kernel_bench(self.args.size == "tiny"))
        absent = self.tracer.absent + [s for s in tracing.LRU if s not in cold]
        absent += [n for n, _u in tracing.PER_LAYER if n not in values]
        for name in absent:
            values.setdefault(name, 0)
        self_s = {}
        for layers in warm:
            for name, t in layers["self"].items():
                self_s.setdefault(name, []).append(t)
        spans_path = os.path.join(os.path.dirname(os.path.abspath(self.args.result)),
                                  f"spans-{self.args.workload}.npz")
        self.tracer.save(spans_path)
        return {
            "per_layer": values,
            "absent": absent,
            "self_s": {k: statistics.median(v) for k, v in self_s.items()},
            "spans_file": os.path.relpath(spans_path, self.args.root),
        }


def _kernel_bench(tiny: bool) -> dict:
    """The two kernel timings of ``benchmarks/bench_kernels.py``, taken
    through the public entry points of ``sphelast._kernels`` (whichever
    backend they select): best of 3 for the pairwise sum at 153 x 153, best
    of 2 for the phased copy sum at ``n_cut`` = 300."""
    try:
        from sphelast import _kernels
    except ImportError:
        return {}
    rng = np.random.default_rng(0)
    n_nodes, rho = 153, 0.1  # degree-16 product rule
    nodes = rng.normal(size=(n_nodes, 3))
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    sources = rho * nodes
    weights = rng.uniform(0.5, 1.5, size=n_nodes) * rho * rho
    density = rng.normal(size=(n_nodes, 3))
    far = sources + np.array([5.0, 0, 0])

    def best(repeat, fn, *fargs):
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn(*fargs)
            times.append(time.perf_counter() - t0)
        return min(times)

    out = {}
    if hasattr(_kernels, "kelvin_apply"):
        out["kernels.bench_kelvin_apply_s"] = best(
            3, _kernels.kelvin_apply, far, sources, weights, density, 1.0, 1.0)
    if hasattr(_kernels, "kelvin_lattice_apply"):
        out["kernels.bench_lattice_apply_s"] = best(
            2, _kernels.kelvin_lattice_apply, sources, sources, weights,
            density.astype(complex), 1.0, 1.0, 2.0, 10 if tiny else 300)
    return out


def _env() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


