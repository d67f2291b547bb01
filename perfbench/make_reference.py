"""Record the reference outputs that the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

For the default seed (0) and both sizes, runs the first operations of each
workload that writes numbers (single-solve, dimer-solve, phase-sweep)
through ``sphelast.cli.main`` and stores their outputs in
``perfbench/reference/<workload>.json``, keyed by the operation's inputs.
A run with seed 0 then fails any operation whose output moves from the
recorded one by more than ``checks.REFERENCE_RTOL`` -- for instance after a
change that makes the lattice sums less accurate.  Re-record only when a
change of the outputs is intended.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import sphelast.cli as cli

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# Operations recorded per size; a run reaches the later indices only on a
# faster program.
COUNTS = {
    "full": {"single-solve": 24, "dimer-solve": 32, "phase-sweep": 32},
    "tiny": {"single-solve": 64, "dimer-solve": 32, "phase-sweep": 64},
}


def record(workload: str) -> dict:
    out = {}
    suffix = ".csv" if workload == "phase-sweep" else ".json"
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "out" + suffix)
        for size, counts in COUNTS.items():
            for index in range(counts[workload]):
                inp = workloads.inputs(workload, 0, index, size)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(workloads.argv(workload, inp, path))
                if rc != 0:
                    raise SystemExit(f"{workload} op {index} ({size}) exited {rc}")
                out[json.dumps(inp, sort_keys=True)] = checks.values(workload, path)
                print(f"{workload} {size} op {index}", file=sys.stderr, flush=True)
    return out


def main():
    names = sys.argv[1:] or ["single-solve", "dimer-solve", "phase-sweep"]
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for workload in names:
        doc = record(workload)
        with open(os.path.join(HERE, "reference", f"{workload}.json"), "w") as fh:
            json.dump(doc, fh, indent=0, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
