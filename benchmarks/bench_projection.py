"""Cold right-hand-side projection and the large point-force solve, one
process per run.

``system.project_rhs`` builds its tables for the truncation degree on its
first call, so every ``solve`` pays for them once.  This script times that
first call in fresh Python processes (one BLAS thread; the import, the rule
and the point-force samples are not timed) at each L of ``LMAX``, and the
whole point-force ``solve`` of the CLI at L = ``SOLVE_LMAX`` (the import not
timed), and records each process's ``ru_maxrss``:

    python benchmarks/bench_projection.py                    # this checkout
    python benchmarks/bench_projection.py --src OTHER/src --label parent

Rows go to ``BENCH_projection.json`` at the repository root (``--out``),
keyed by ``--label`` as in ``bench_geometry.py``; ``command`` tells the
projection rows (best and median of ``PROCESSES`` processes) from the solve
row (one process).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_geometry import ROOT, timed_rows, write_rows

LMAX = (2, 3, 5, 8, 16, 32, 48)
PROCESSES = 5
SOLVE_LMAX = 48

# the point force of the CI's solve steps
POINT_FORCE = ("--alpha", "1.1", "--rho", "0.2", "--lambda", "1.5", "--mu", "0.8",
               "--phi", "builtin:point-force:2,0.3,0")

PROJECT = """
import json, resource, sys, time
import numpy as np
from sphelast.assembly import BasisMap
from sphelast.kelvin import LameParams, kelvin_tensor
from sphelast.system import build_quadrature, project_rhs
l_max = int(sys.argv[1])
basis = BasisMap(l_max)
quad = build_quadrature(2 * l_max + 2)
source = np.array([2.0, 0.3, 0.0])
samples = kelvin_tensor(0.2 * quad.nodes - source, LameParams(1.5, 0.8))[:, :, 0]
start = time.perf_counter()
project_rhs(samples, quad, basis)
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"seconds": seconds, "peak_rss_mb": peak}))
"""

SOLVE = """
import json, os, resource, sys, tempfile, time
from sphelast.cli import main
with tempfile.TemporaryDirectory() as tmp:
    argv = ["solve", *sys.argv[2:], "--lmax", sys.argv[1],
            "--out", os.path.join(tmp, "x.json")]
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
if code:
    sys.exit(code)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"seconds": seconds, "peak_rss_mb": peak}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree to import sphelast from")
    parser.add_argument("--label", default="this",
                        help="the name of this run's rows (default: this)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_projection.json")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    rows = timed_rows(src, args.label, PROJECT, LMAX, PROCESSES)
    for row in rows:
        row["command"] = "project_rhs"
    solve = timed_rows(src, args.label, SOLVE, (SOLVE_LMAX,), 1, *POINT_FORCE)
    for row in solve:
        row["command"] = "solve"
    write_rows(args.out, args.label, rows + solve,
               "command project_rhs: the cold first project_rhs call of the "
               "point-force samples; command solve: the CLI's point-force solve "
               "(--alpha 1.1 --rho 0.2 --lambda 1.5 --mu 0.8, source (2, 0.3, 0)); "
               "fresh processes with one BLAS thread, import not timed; "
               "peak_rss_mb is the largest ru_maxrss of the processes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
