"""One benchmark worker: a fresh process that imports the program and runs
operations through ``sphelast.cli.main``.

    python3 perfbench/worker.py --root DIR --result FILE --mode setup
    python3 perfbench/worker.py --root DIR --result FILE --mode cold \
        --index I --workload NAME --seed N [--size full|tiny]
    python3 perfbench/worker.py --root DIR --result FILE --mode run \
        --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``
and single-threaded BLAS.  The worker times the import of ``sphelast.cli``
first, before it imports anything else that the program would load (numpy
and the standard modules the CLI uses among them), between two bursts of
speed probes that scale it (see ``speed.py``); the operations themselves
live in ``session.py``.
"""

import os
import sys
import time

import speed


def main() -> int:
    before = speed.burst()
    started = time.perf_counter()
    import sphelast.cli as cli

    import_s = time.perf_counter() - started
    import_scaled_s = import_s * speed.scale(before + speed.burst())

    import session

    args = session.parse_args()
    src = os.path.join(os.path.abspath(args.root), "src")
    program = os.path.abspath(cli.__file__)
    if os.path.commonpath([program, src]) != src:
        print(f"imported {program}, which is not under {src}", file=sys.stderr)
        return 2
    result = {"import_s": import_s, "import_scaled_s": import_scaled_s}
    if args.mode != "setup":
        result.update(session.Run(cli, args).execute())
    session.write_json(args.result, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
