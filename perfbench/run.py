"""Benchmark of the sphelast command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run it from anywhere inside a checkout; it measures the program in that
checkout's ``src``.  Workloads (see ``README.md`` for why each exists):
single-solve, dimer-solve, phase-sweep, verify.

Every process it starts runs one after another, never two at once.  With
``--trace 0`` one worker runs operations for ``1 - COLD_SHARE`` of
``--seconds``; more fresh processes follow that each run one cold operation
(while they fit in the rest of ``--seconds``) or only import
``sphelast.cli``.  Every process's import time is a ``setup_s`` sample and
every first operation a ``cold_op_s`` sample.  These times are scaled to a
reference machine speed measured alongside them (``speed.py``); the wall
times are printed and recorded too.  With ``--trace 1`` only the worker
runs, for all of ``--seconds``; it records spans at the layer boundaries
and reports per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (operations), and ``metrics``.  The lines
before it print the same metrics by name, and the full record of the run
(inputs of every operation, environment, per-operation times) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = [("setup_s", "s"), ("cold_op_s", "s"), ("op_s", "s"),
              ("peak_rss_mb", "MB")]
# The measuring worker of an untraced run gets 1 - COLD_SHARE of --seconds;
# the rest goes to extra fresh processes that each run one cold operation.
COLD_SHARE = 0.3
# Every process gives an import sample; import-only processes make up the
# rest of this count.
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _parse():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    return p.parse_args()


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # The same dict and set layouts in every worker: one source of
    # run-to-run spread less.
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(extra: list[str], result: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    if result.exists():
        result.unlink()
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--result", str(result), *extra]
    # The worker's own output goes to stderr, keeping stdout for the result.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time limit") from None
    if rc != 0 or not result.exists():
        raise BenchError(f"worker exited with code {rc}")
    doc = json.loads(result.read_text())
    result.unlink()
    return doc


def _commit():
    """The checkout's git commit, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args) -> dict:
    if not (ROOT / "src" / "sphelast" / "cli.py").is_file():
        raise BenchError(f"no program at {ROOT / 'src' / 'sphelast'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{tag}.worker.json"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    begin = time.monotonic()
    window = args.seconds * (1.0 if args.trace else 1.0 - COLD_SHARE)
    run = _worker(["--mode", "run", "--seconds", str(window),
                   "--trace", str(args.trace), *common], result_path, deadline)
    ops = [dict(op, worker="run") for op in run["ops"]]
    imports = [run]
    colds = [ops[0]]
    if not args.trace:
        # More cold operations, each in a fresh process, while they fit in
        # --seconds; every process also gives a setup sample.
        index = max(op["index"] for op in ops) + 1
        cost = ops[0]["wall_s"] + run["import_s"]
        while time.monotonic() - begin + cost <= args.seconds:
            started = time.monotonic()
            extra = _worker(["--mode", "cold", "--index", str(index), *common],
                            result_path, deadline)
            ops.append(dict(extra["ops"][0], worker="cold"))
            colds.append(ops[-1])
            imports.append(extra)
            cost = time.monotonic() - started
            index += 1
        while len(imports) < SETUP_SAMPLES:
            imports.append(_worker(["--mode", "setup"], result_path, deadline))
    warm = run["ops"][1:]

    if args.trace:
        units = dict(tracing.PER_LAYER)
        values = {name: run["per_layer"][name] for name in units}
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(p["import_scaled_s"] for p in imports),
            "cold_op_s": statistics.median(op["scaled_s"] for op in colds),
            "op_s": statistics.median(op["scaled_s"] for op in warm),
            "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        }
    failed = sum(1 for op in ops if op["errors"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "commit": _commit(),
        "env": run["env"], "reference_probe_s": speed.REFERENCE_S,
        "samples": {
            "setup_s": [p["import_scaled_s"] for p in imports],
            "setup_wall_s": [p["import_s"] for p in imports],
            "cold_op_s": [op.get("scaled_s") for op in colds],
            "cold_op_wall_s": [op["wall_s"] for op in colds],
            "op_s": [op.get("scaled_s") for op in warm],
            "op_wall_s": [op["wall_s"] for op in warm],
        },
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "attempted": len(ops), "failed": failed, "ops": ops,
    }
    for key in ("absent", "self_s", "spans_file"):
        if key in run:
            record[key] = run[key]
    path = OUT / f"{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = path
    return record


def report(record) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  size {record['size']}  "
          f"commit {record['commit']}")
    samples = record["samples"]
    notes = {
        "setup_s": "fresh imports",
        "cold_op_s": "first operations of fresh processes",
        "op_s": "operations",
    }
    for name, m in record["metrics"].items():
        note = ""
        if name in notes:
            walls = samples[name.replace("_s", "_wall_s")]
            note = (f"  (median of {len(walls)} {notes[name]}, scaled; "
                    f"wall {statistics.median(walls):.4g} s)")
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{note}")
    if record.get("absent"):
        print(f"  absent from this program: {', '.join(record['absent'])}")
    if record.get("self_s"):
        top = sorted(record["self_s"].items(), key=lambda kv: -kv[1])[:8]
        print("  largest self times per traced operation: " + ", ".join(
            f"{name} {t:.3g} s" for name, t in top))
    print(f"  ops {record['attempted']}  ops_failed {record['failed']}")
    for op in record["ops"]:
        for err in op["errors"]:
            print(f"  FAILED op {op['index']}{' (replay)' if op['replay'] else ''}: {err}")
    print(f"  record: {os.path.relpath(record['path'], Path.cwd())}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main() -> int:
    args = _parse()
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
