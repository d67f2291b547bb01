"""Cold build time and peak memory of the lmax geometry, one process per L.

``assembly._geometry(L)`` is the phase-, radius- and material-independent
part of every trace, built once per process, so every command of the CLI
pays for it once.  This script times its first call in fresh Python
processes (one BLAS thread, ``sphelast.assembly`` imported before the clock
starts) and records each process's ``ru_maxrss``:

    python benchmarks/bench_geometry.py                    # this checkout
    python benchmarks/bench_geometry.py --src OTHER/src --label parent

Rows go to ``BENCH_geometry.json`` at the repository root (``--out``),
keyed by ``--label``: a run replaces the rows of its own label and keeps
the others, so the file holds the trajectory across changes.  Each row has
the best and the median of ``PROCESSES`` processes at one L of ``LMAX``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LMAX = (2, 3, 5, 8, 16, 32, 48)
PROCESSES = 5

# run in the child: the import is not timed, the first _geometry call is
CHILD = """
import json, resource, sys, time
from sphelast import assembly
start = time.perf_counter()
assembly._geometry(int(sys.argv[1]))
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"seconds": seconds, "peak_rss_mb": peak}))
"""


def commit(src: Path) -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(src), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_child(src: Path, child: str, *args) -> dict:
    """Run ``child`` in a fresh interpreter that imports sphelast from
    ``src``, with one BLAS thread; returns the JSON object it prints last."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", child, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def timed_rows(src: Path, label: str, child: str, lmaxes, processes: int,
               *args) -> list:
    """One row per lmax: the best and the median ``seconds`` and the largest
    ``peak_rss_mb`` of ``processes`` runs of ``child`` (arguments: the lmax,
    then ``args``)."""
    rows = []
    for l_max in lmaxes:
        runs = [run_child(src, child, l_max, *args) for _ in range(processes)]
        times = [run["seconds"] for run in runs]
        row = {
            "label": label, "commit": commit(src), "lmax": l_max,
            "processes": len(runs),
            "cold_s_best": min(times), "cold_s_median": statistics.median(times),
            "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        }
        print(f"{label} L={l_max}: best {row['cold_s_best'] * 1e3:.1f} ms, "
              f"median {row['cold_s_median'] * 1e3:.1f} ms, "
              f"peak {row['peak_rss_mb']:.0f} MB")
        rows.append(row)
    return rows


def write_rows(out: Path, label: str, rows: list, what: str) -> None:
    """Replace the rows of ``label`` in the JSON file ``out`` and keep the
    others."""
    doc = {"rows": []}
    if out.exists():
        doc = json.loads(out.read_text())
    doc["what"] = what
    doc["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                   "cpus": os.cpu_count()}
    doc["rows"] = [row for row in doc["rows"] if row["label"] != label] + rows
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree to import sphelast from")
    parser.add_argument("--label", default="this",
                        help="the name of this run's rows (default: this)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_geometry.json")
    args = parser.parse_args(argv)
    rows = timed_rows(args.src.resolve(), args.label, CHILD, LMAX, PROCESSES)
    write_rows(args.out, args.label, rows,
               "cold assembly._geometry(L) in fresh processes with one BLAS "
               "thread (import not timed); peak_rss_mb is the largest "
               "ru_maxrss of the processes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
