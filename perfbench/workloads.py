"""Seeded inputs for the benchmark workloads.

An operation is one ``sphelast.cli.main(argv)`` call.  Its inputs depend
only on ``(workload, seed, index)``, so any operation can be replayed from
the record a run writes.  The last operation of every run replays the
inputs of operation 0 (see ``worker.py``).

Continuous inputs are drawn by Latin-hypercube sampling within blocks of
``STRATA`` consecutive operations: each block covers every stratum of every
input once.  The cost of a dimer operation depends on its Bloch phase and
Lerch offsets, so plain independent draws would let a seed's median drift
with its luck; stratified draws keep the medians of different seeds close.

This module uses only the standard library: ``run.py`` imports it without
importing the program.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi
STRATA = 8

WORKLOADS = ("single-solve", "dimer-solve", "phase-sweep", "verify")

# Per-size knobs.  "full" is what BENCHMARK.json runs; "tiny" keeps the smoke
# test short.  The full sweep has 8 phases: with 16 (about 7 s) a run has
# room for only one or two cold sweeps, whose spread across runs exceeded
# the 0.25 bound on the 2-core machine the bounds were set on.  Tiny verify
# runs only the suites that take well under a second, so the kelvin suite
# (direct surface integration) is left out there.
SIZES = {
    "full": {"single_lmax": 5, "dimer_lmax": 2, "sweep_lmax": 3,
             "sweep_count": 8, "verify_suites": None},
    "tiny": {"single_lmax": 1, "dimer_lmax": 1, "sweep_lmax": 1,
             "sweep_count": 4, "verify_suites": ["sphharm", "translation"]},
}


def _unit_draws(workload: str, seed: int, index: int, dims: int):
    """``dims`` numbers in [0, 1), stratified over each block of ops."""
    block, pos = divmod(index, STRATA)
    perm_rng = random.Random(f"{workload}/{seed}/block{block}")
    perms = [perm_rng.sample(range(STRATA), STRATA) for _ in range(dims)]
    jitter = random.Random(f"{workload}/{seed}/op{index}")
    return [(perms[k][pos] + jitter.random()) / STRATA for k in range(dims)]


def _lerp(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _material(u_lam: float, u_mu: float):
    # mu > 0 and lambda + 2 mu > 0 hold over the whole box.
    return _lerp(u_lam, 0.2, 3.0), _lerp(u_mu, 0.5, 2.0)


def _source(rho: float, u_r: float, u_z: float, u_phi: float):
    """A point-force position outside the ball: uniform direction, distance
    between 1.5 and 4 radii from the centre."""
    r = rho * _lerp(u_r, 1.5, 4.0)
    z = _lerp(u_z, -1.0, 1.0)
    phi = TWO_PI * u_phi
    s = math.sqrt(max(0.0, 1.0 - z * z))
    return [r * s * math.cos(phi), r * s * math.sin(phi), r * z]


def inputs(workload: str, seed: int, index: int, size: str = "full") -> dict:
    """The generated inputs of operation ``index``, as plain JSON values."""
    knobs = SIZES[size]
    if workload == "single-solve":
        u = _unit_draws(workload, seed, index, 7)
        lam, mu = _material(u[2], u[3])
        rho = _lerp(u[1], 0.05, 0.45)
        return {
            "alpha": _lerp(u[0], 0.3, TWO_PI - 0.3), "rho": rho,
            "lambda": lam, "mu": mu, "lmax": knobs["single_lmax"],
            "source": _source(rho, u[4], u[5], u[6]),
        }
    if workload == "dimer-solve":
        u = _unit_draws(workload, seed, index, 6)
        rho = _lerp(u[1], 0.05, 0.2)
        # d > rho and 1 - 2d > 2 rho, each with a margin of 0.02.
        d = _lerp(u[2], rho + 0.02, 0.5 - rho - 0.02)
        return {
            "alpha": _lerp(u[0], 0.3, TWO_PI - 0.3), "rho": rho, "d": d,
            "lambda": 1.0, "mu": 1.0, "lmax": knobs["dimer_lmax"],
            "source": _source(rho, u[3], u[4], u[5]),
        }
    if workload == "phase-sweep":
        u = _unit_draws(workload, seed, index, 4)
        lam, mu = _material(u[2], u[3])
        start = _lerp(u[0], 0.3, 1.0)
        return {
            # The grid is symmetric about pi, so row k and row count-1-k
            # sit at conjugate phases.
            "start": start, "stop": TWO_PI - start,
            "count": knobs["sweep_count"], "rho": _lerp(u[1], 0.05, 0.45),
            "lambda": lam, "mu": mu, "lmax": knobs["sweep_lmax"],
        }
    if workload == "verify":
        rng = random.Random(f"{workload}/{seed}/op{index}")
        return {"seed": rng.randrange(2**31), "suites": knobs["verify_suites"]}
    raise KeyError(f"unknown workload {workload!r}")


def argv(workload: str, inp: dict, out_path: str) -> list[str]:
    """The CLI arguments for one operation; ``out_path`` receives the
    output file (unused by verify, which reports on stdout)."""
    common = ["--rho", repr(inp.get("rho")), "--lambda", repr(inp.get("lambda")),
              "--mu", repr(inp.get("mu")), "--lmax", str(inp.get("lmax"))]
    if workload in ("single-solve", "dimer-solve"):
        src = ",".join(repr(c) for c in inp["source"])
        args = ["solve", "--alpha", repr(inp["alpha"]), *common,
                "--phi", f"builtin:point-force:{src}", "--out", out_path]
        if workload == "dimer-solve":
            args += ["--dimer-d", repr(inp["d"])]
        return args
    if workload == "phase-sweep":
        grid = f"{inp['start']!r}:{inp['stop']!r}:{inp['count']}"
        return ["sweep", "--alpha-grid", grid, *common, "--out", out_path]
    if workload == "verify":
        args = ["verify", "--seed", str(inp["seed"])]
        for suite in inp["suites"] or ():
            args += ["--suite", suite]
        return args
    raise KeyError(f"unknown workload {workload!r}")
