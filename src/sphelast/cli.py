"""Command-line front end.

Subcommands: ``assemble``, ``dimer-assemble``, ``solve``, ``sweep``,
``verify``.  Every flag has an equal-named key in an optional JSON config
file (``--config``); explicit flags override the file.  The Bloch phase
accepts plain radians or ``pi*<rational>`` literals (``pi*1/2``).

Exit codes: 0 success, 2 configuration error (including a file that
cannot be read or written), 3 singular Bloch phase, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__, io
from .assembly import BasisMap, Trace, assemble_dimer, assemble_single
from .kelvin import LameParams, kelvin_tensor
from .latsum import DimerGeometry, QuasiMomentumSingular, reduce_alpha
from .oracle import build_quadrature, sample_field
from .system import project_rhs, solve_dimer, solve_single
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_VERIFY = 4


class ConfigError(ValueError):
    pass


def parse_alpha(text: str) -> float:
    """Radians, or an exact zone point as ``pi*<rational>``."""
    text = str(text).strip()
    if text.startswith("pi*"):
        try:
            return math.pi * float(Fraction(text[3:]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad Bloch-phase literal {text!r}") from exc
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad Bloch-phase value {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"Bloch phase must be finite, got {text!r}")
    return value


def parse_grid(text: str):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError("--alpha-grid takes start:stop:count")
    start, stop = parse_alpha(parts[0]), parse_alpha(parts[1])
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError("grid count must be an integer") from exc
    if count < 1:
        raise ConfigError("grid count must be >= 1")
    return np.linspace(start, stop, count)


_FLAG_KEYS = (
    "alpha", "alpha_grid", "rho", "lambda_", "mu", "lmax", "dimer_d",
    "phi", "out", "csv", "seed", "sign_flip", "tol", "suite",
)


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for key, val in file_cfg.items():
            norm = key.replace("-", "_")
            norm = "lambda_" if norm == "lambda" else norm
            if norm not in _FLAG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[norm] = val
    for key in _FLAG_KEYS:
        val = getattr(args, key, None)
        if val is not None and val is not False:
            cfg[key] = val
    return cfg


def _require(cfg: dict, *keys):
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        pretty = ", ".join("--" + k.rstrip("_").replace("_", "-") for k in missing)
        raise ConfigError(f"missing required option(s): {pretty}")


def _params(cfg) -> LameParams:
    try:
        return LameParams(
            float(cfg["lambda_"]), float(cfg["mu"]),
            bool(cfg.get("sign_flip", False)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _ball_inputs(cfg):
    try:
        rho, lmax = float(cfg["rho"]), int(cfg["lmax"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad rho or lmax value: {exc}") from exc
    if not 0.0 < rho < 0.5:
        raise ConfigError("rho must satisfy 0 < rho < 1/2")
    if lmax < 0 or lmax > 64:
        raise ConfigError("lmax must be in 0..64")
    return rho, _params(cfg), lmax


def _common_inputs(cfg):
    _require(cfg, "alpha", "rho", "lambda_", "mu", "lmax")
    return (parse_alpha(cfg["alpha"]), *_ball_inputs(cfg))


def _geometry(cfg, rho) -> DimerGeometry:
    try:
        return DimerGeometry(float(cfg["dimer_d"]), rho)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_vector(path):
    try:
        return io.load_vector(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read vector file {path!r}: {exc}") from exc


def _phi_samples(spec: str, quad, basis, rho, params):
    """Resolve a boundary-field source: ``builtin:<name>``, ``coeffs:<path>``
    or ``grid:<path>``.  Returns (samples or None, coeffs or None)."""
    kind, _, rest = str(spec).partition(":")
    if kind == "coeffs":
        vec, _hdr = _load_vector(rest)
        if vec.shape != (basis.n_eff,):
            raise ConfigError(
                f"coefficient file length {vec.shape[0]} != basis size "
                f"{basis.n_eff}"
            )
        return None, vec
    if kind == "grid":
        vec, hdr = _load_vector(rest)
        if hdr.get("grid_degree") != quad.degree:
            raise ConfigError(
                f"grid file degree {hdr.get('grid_degree')} != projection "
                f"degree {quad.degree}"
            )
        return vec.reshape(quad.n_nodes, 3), None
    if kind == "builtin":
        name, _, arg = rest.partition(":")
        if name == "uniform-x":
            return np.tile([1.0, 0.0, 0.0], (quad.n_nodes, 1)).astype(complex), None
        if name == "point-force":
            try:
                src = np.array([float(t) for t in arg.split(",")])
                if src.shape != (3,):
                    raise ValueError
            except ValueError:
                raise ConfigError(
                    "builtin:point-force needs x,y,z source coordinates"
                ) from None
            if np.linalg.norm(src) <= rho:
                raise ConfigError("point-force source must lie outside the ball")
            return (
                sample_field(
                    lambda d: kelvin_tensor(rho * d.vec - src, params)[:, 0],
                    quad,
                ),
                None,
            )
        raise ConfigError(f"unknown builtin field {name!r}")
    raise ConfigError(
        f"bad --phi spec {spec!r} (use builtin:name, coeffs:path or grid:path)"
    )


def cmd_assemble(cfg) -> int:
    alpha, rho, params, lmax = _common_inputs(cfg)
    _require(cfg, "out")
    mat = assemble_single(alpha, rho, params, lmax)
    io.save_matrix(cfg["out"], mat)
    if cfg.get("csv"):
        io.matrix_to_csv(cfg["csv"], mat)
    print(f"wrote {mat.matrix.shape[0]}x{mat.matrix.shape[1]} matrix to {cfg['out']}")
    return EXIT_OK


def cmd_dimer_assemble(cfg) -> int:
    alpha, rho, params, lmax = _common_inputs(cfg)
    _require(cfg, "out", "dimer_d")
    geom = _geometry(cfg, rho)
    mat = assemble_dimer(alpha, geom, params, lmax)
    io.save_matrix(cfg["out"], mat)
    if cfg.get("csv"):
        io.matrix_to_csv(cfg["csv"], mat)
    print(f"wrote {mat.matrix.shape[0]}x{mat.matrix.shape[1]} dimer matrix to {cfg['out']}")
    return EXIT_OK


def cmd_solve(cfg) -> int:
    alpha, rho, params, lmax = _common_inputs(cfg)
    _require(cfg, "phi", "out")
    geom = _geometry(cfg, rho) if cfg.get("dimer_d") is not None else None
    basis = BasisMap(lmax)
    quad = build_quadrature(2 * lmax + 2)
    samples, coeffs = _phi_samples(cfg["phi"], quad, basis, rho, params)
    if coeffs is not None:
        rhs = project_rhs(coeffs, quad, basis, coeffs=True)
    else:
        rhs = project_rhs(samples, quad, basis)
    header = {
        "alpha": parse_alpha(cfg["alpha"]), "rho": rho, "lmax": lmax,
        "lambda": params.lam, "mu": params.mu, "sign_flip": params.sign_flip,
    }
    if geom is not None:
        mat = assemble_dimer(alpha, geom, params, lmax)
        r1, r2 = solve_dimer(mat, (rhs, rhs))
        out = np.concatenate([r1.coeffs, r2.coeffs])
        result = r1
        header["d"] = geom.d
    else:
        mat = assemble_single(alpha, rho, params, lmax)
        result = solve_single(mat, rhs)
        out = result.coeffs
    io.save_vector(cfg["out"], out, header_extra=header)
    print(f"solved {mat.matrix.shape[0]} unknowns -> {cfg['out']}")
    print(f"relative residual: {result.residual:.3e}")
    print(f"condition estimate (1-norm): {result.cond:.3e}")
    if result.warning:
        print(f"warning: {result.warning}")
    tol = float(cfg.get("tol", 1e-10))
    if result.residual > tol:
        print(f"residual exceeds tolerance {tol:g}")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_sweep(cfg) -> int:
    _require(cfg, "alpha_grid", "rho", "lambda_", "mu", "lmax")
    grid = parse_grid(cfg["alpha_grid"])
    rho, params, lmax = _ball_inputs(cfg)
    for alpha in grid:
        reduce_alpha(alpha)
    trace = Trace(rho, params, lmax)
    lines = ["alpha,max_entry,cond_1norm"]
    for alpha in grid:
        mat = trace.single(float(alpha))
        cond = abs(np.linalg.cond(mat.matrix, 1))
        lines.append(
            f"{float(alpha)!r},{float(np.abs(mat.matrix).max())!r},{float(cond)!r}"
        )
    text = "\n".join(lines) + "\n"
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
            fh.write(text)
        print(f"wrote sweep table ({len(grid)} rows) to {cfg['out']}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(cfg) -> int:
    names = cfg.get("suite")
    if isinstance(names, str):
        names = [names]
    try:
        rows = run_suites(names, seed=int(cfg.get("seed", 0)))
    except KeyError as exc:
        raise ConfigError(
            f"{exc.args[0]}; available suites: {', '.join(SUITES)}"
        ) from exc
    failed = 0
    for suite, check, residual, tol, ok in rows:
        status = "PASS" if ok else "FAIL"
        failed += not ok
        print(f"{status}  {suite:<12} {check:<40} residual={residual:.3e} tol={tol:.3e}")
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sphelast",
        description="Exact operator matrices for chains of spherical "
        "elastic scatterers.",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file with flag values")
        p.add_argument("--alpha", help="Bloch phase (radians or pi*<rational>)")
        p.add_argument("--alpha-grid", dest="alpha_grid", help="start:stop:count")
        p.add_argument("--rho", type=float, help="ball radius (< 1/2)")
        p.add_argument("--lambda", dest="lambda_", type=float,
                       help="first material constant")
        p.add_argument("--mu", type=float, help="shear modulus")
        p.add_argument("--lmax", type=int, help="basis truncation degree")
        p.add_argument("--dimer-d", dest="dimer_d", type=float,
                       help="half-separation of the two-ball cell")
        p.add_argument("--phi", help="builtin:name | coeffs:path | grid:path")
        p.add_argument("--out", help="output path")
        p.add_argument("--csv", help="secondary flat CSV export path")
        p.add_argument("--seed", type=int, help="seed for randomized checks")
        p.add_argument("--sign-flip", dest="sign_flip", action="store_true",
                       default=None, help="negated-operator convention")
        p.add_argument("--tol", type=float, help="tolerance override")
        p.add_argument("--suite", action="append",
                       help="verify: restrict to one suite (repeatable)")

    for name in ("assemble", "dimer-assemble", "solve", "sweep", "verify"):
        add_common(sub.add_parser(name))
    return top


_COMMANDS = {
    "assemble": cmd_assemble,
    "dimer-assemble": cmd_dimer_assemble,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuasiMomentumSingular as exc:
        print(
            f"singular Bloch phase: {exc}\n"
            "hint: stay inside the open interval (0, 2*pi), or drop the "
            "lowest-degree growing-trace block where the divergence lives",
            file=sys.stderr,
        )
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
