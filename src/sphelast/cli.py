"""Command-line front end.

Subcommands: ``assemble``, ``dimer-assemble``, ``solve``, ``sweep``,
``verify``.  Each takes only the options it reads, spelled in full (README,
"Command line"); argparse declares, converts and range-checks every one of
them.  An optional JSON file (``--config``) holds the same command's
options by name (``_`` or ``-`` in a key): its keys are turned into option
text and parsed by the same subcommand parser ahead of the explicit flags,
so explicit flags win.  The Bloch phase accepts plain radians or
``pi*<rational>`` literals (``pi*1/2``).

Exit codes: 0 success, 2 configuration error (any input the parser
rejects, inputs whose matrix leaves the float64 range, a run that does not
fit in the memory available, or a file that cannot be read or written),
3 singular Bloch phase, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, io
from .assembly import (
    BasisMap,
    ScaleOverflow,
    Trace,
    assemble_dimer,
    assemble_single,
)
from .kelvin import LameParams, kelvin_tensor
from .latsum import (
    DimerGeometry,
    LatticeSumOverflow,
    QuasiMomentumSingular,
    reduce_alpha,
)
from .system import build_quadrature, condition, project_rhs, solve_dimer, solve_single

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_VERIFY = 4

# the farthest a point force may lie from the ball's centre, plus the radius:
# the square root of the largest float64, with a margin for the roundings
_FAR = math.sqrt(np.finfo(float).max) * (1.0 - 1e-9)

# the names of ``verify.SUITES``, so that only ``verify`` imports the module
SUITES = ("sphharm", "vsh", "translation", "kelvin", "latsum", "assembly", "system")


class ConfigError(argparse.ArgumentTypeError, ValueError):
    """Bad command-line or config-file input.  As an ``ArgumentTypeError``
    raised by an option's type, argparse reports its message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def parse_alpha(text: str) -> float:
    """Radians, or an exact zone point as ``pi*<rational>``."""
    text = str(text).strip()
    exact = text.startswith("pi*")
    try:
        value = math.pi * float(Fraction(text[3:])) if exact else float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        kind = "literal" if exact else "value"
        raise ConfigError(f"bad Bloch-phase {kind} {text!r}") from exc
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
    if not math.isfinite(stop - start):
        raise ConfigError(f"grid span {start!r}:{stop!r} overflows float64")
    try:
        return np.linspace(start, stop, count)
    except MemoryError as exc:
        raise ConfigError(f"grid count {count} is too large to allocate") from exc


def _checked(convert, ok, rule: str):
    """An argparse type: ``convert`` the text, then require ``ok(value)``."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise ConfigError(f"{rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


_RADIUS = _checked(float, lambda r: 0.0 < r < 0.5, "rho must satisfy 0 < rho < 1/2")
_LMAX = _checked(int, lambda l: 0 <= l <= 64, "lmax must be in 0..64")
_TOL = _checked(float, lambda t: 0.0 < t < math.inf, "tol must be positive and finite")
_SEED = _checked(int, lambda n: n >= 0, "seed must be >= 0")


def _config_tokens(path) -> list[str]:
    """A config file's keys as option text: ``{"dimer_d": 0.2}`` becomes
    ``--dimer-d=0.2``.  ``true`` gives the bare switch and ``false`` leaves
    the option out; a list repeats ``--suite``, the one repeatable option."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    tokens = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if flag == "--config":
            raise ConfigError("config files do not nest")
        items = value if flag == "--suite" and isinstance(value, list) else [value]
        for item in items:
            if isinstance(item, bool):
                tokens += [flag] if item else []
            elif isinstance(item, (str, int, float)):
                tokens.append(f"{flag}={item}")
            else:
                raise ConfigError(f"bad value {item!r} for config key {key!r}")
    return tokens


def _params_geometry(args):
    """Material constants and, with ``--dimer-d``, the two-ball cell; their
    range checks become configuration errors."""
    try:
        params = LameParams(args.lambda_, args.mu, args.sign_flip)
        d = getattr(args, "dimer_d", None)
        return params, None if d is None else DimerGeometry(d, args.rho)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _matrix(args, params, geom):
    if geom is None:
        return assemble_single(args.alpha, args.rho, params, args.lmax)
    return assemble_dimer(args.alpha, geom, params, args.lmax)


def _load_vector(path):
    try:
        vec, hdr = io.load_vector(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            OverflowError) as exc:
        # AttributeError: a header that is not an object; OverflowError: an
        # integer entry beyond the float64 range
        raise ConfigError(f"cannot read vector file {path!r}: {exc}") from exc
    if not np.isfinite(vec).all():
        raise ConfigError(f"vector file {path!r} holds non-finite entries")
    return vec, hdr


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
        if vec.shape != (3 * quad.n_nodes,):
            raise ConfigError(
                f"grid file length {vec.shape[0]} != 3 x {quad.n_nodes} nodes"
            )
        return vec.reshape(quad.n_nodes, 3), None
    if kind == "builtin":
        name, _, arg = rest.partition(":")
        if name == "uniform-x":
            return np.tile([1.0, 0.0, 0.0], (quad.n_nodes, 1)).astype(complex), None
        if name == "point-force":
            try:
                src = np.array([float(t) for t in arg.split(",")])
                if src.shape != (3,) or not np.isfinite(src).all():
                    raise ValueError
            except ValueError:
                raise ConfigError(
                    "builtin:point-force needs finite x,y,z source coordinates"
                ) from None
            # the squared distances to the ball's nodes stay below the
            # largest float64 (math.hypot does not overflow)
            if math.hypot(*src) + rho >= _FAR:
                raise ConfigError(
                    f"point-force source must lie within {_FAR:.4g} of the ball's "
                    "centre, less its radius (its squared distances overflow float64)")
            if np.linalg.norm(src) <= rho:
                raise ConfigError("point-force source must lie outside the ball")
            return kelvin_tensor(rho * quad.nodes - src, params)[:, :, 0], None
        raise ConfigError(f"unknown builtin field {name!r}")
    raise ConfigError(
        f"bad --phi spec {spec!r} (use builtin:name, coeffs:path or grid:path)"
    )


def cmd_assemble(args) -> int:
    if args.csv and os.path.realpath(args.csv) == os.path.realpath(args.out):
        raise ConfigError(f"--csv {args.csv!r} names the --out file; the CSV "
                          "would overwrite the matrix")
    params, geom = _params_geometry(args)
    mat = _matrix(args, params, geom)
    io.save_matrix(args.out, mat)
    if args.csv:
        io.matrix_to_csv(args.csv, mat)
    kind = "matrix" if geom is None else "dimer matrix"
    print(f"wrote {mat.matrix.shape[0]}x{mat.matrix.shape[1]} {kind} to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    params, geom = _params_geometry(args)
    basis = BasisMap(args.lmax)
    quad = build_quadrature(2 * args.lmax + 2)
    samples, coeffs = _phi_samples(args.phi, quad, basis, args.rho, params)
    # finite fields near float64's limit can still project to inf: the
    # norms reach 3 from degree 1 up
    with np.errstate(over="ignore", invalid="ignore"):
        if coeffs is not None:
            rhs = project_rhs(coeffs, quad, basis, coeffs=True)
        else:
            rhs = project_rhs(samples, quad, basis)
    if not np.isfinite(rhs).all():
        raise ConfigError(f"--phi {args.phi!r} projects to a right-hand side "
                          "outside float64")
    header = {
        "alpha": args.alpha, "rho": args.rho, "lmax": args.lmax,
        "lambda": params.lam, "mu": params.mu, "sign_flip": params.sign_flip,
    }
    mat = _matrix(args, params, geom)
    if geom is not None:
        r1, r2 = solve_dimer(mat, (rhs, rhs))
        out = np.concatenate([r1.coeffs, r2.coeffs])
        result = r1
        header["d"] = geom.d
    else:
        result = solve_single(mat, rhs)
        out = result.coeffs
    io.save_vector(args.out, out, header_extra=header)
    print(f"solved {mat.size} unknowns -> {args.out}")
    print(f"relative residual: {result.residual:.3e}")
    print(f"condition estimate (1-norm): {result.cond:.3e}")
    if result.warning:
        print(f"warning: {result.warning}")
    if result.residual > args.tol:
        print(f"residual exceeds tolerance {args.tol:g}")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_sweep(args) -> int:
    params, _ = _params_geometry(args)
    for alpha in args.alpha_grid:
        reduce_alpha(alpha)
    trace = Trace(args.rho, params, args.lmax)
    lines = ["alpha,max_entry,cond_1norm"]
    for alpha in args.alpha_grid:
        mat = trace.single(float(alpha))
        top = max(np.abs(block).max() for block in mat.blocks)
        lines.append(f"{float(alpha)!r},{float(top)!r},{condition(mat)!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote sweep table ({len(args.alpha_grid)} rows) to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def run_suites(names=None, seed: int = 0):
    """``verify.run_suites``, imported on the first call."""
    from .verify import run_suites as run

    return run(names, seed=seed)


def cmd_verify(args) -> int:
    rows = run_suites(args.suite, seed=args.seed)
    failed = 0
    for suite, check, residual, tol, ok in rows:
        status = "PASS" if ok else "FAIL"
        failed += not ok
        print(f"{status}  {suite:<12} {check:<40} residual={residual:.3e} tol={tol:.3e}")
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


_OPTIONS = {
    "alpha": dict(type=parse_alpha, help="Bloch phase (radians or pi*<rational>)"),
    "alpha-grid": dict(type=parse_grid, help="start:stop:count"),
    "rho": dict(type=_RADIUS, help="ball radius (< 1/2)"),
    "lambda": dict(dest="lambda_", type=float, help="first material constant"),
    "mu": dict(type=float, help="shear modulus"),
    "lmax": dict(type=_LMAX, help="basis truncation degree"),
    "dimer-d": dict(type=float, help="half-separation of the two-ball cell"),
    "phi": dict(help="builtin:name | coeffs:path | grid:path"),
    "out": dict(help="output path"),
    "csv": dict(help="secondary flat CSV export path"),
    "sign-flip": dict(action="store_true", help="negated-operator convention"),
    "tol": dict(type=_TOL, default=1e-10, help="largest accepted relative residual"),
    "seed": dict(type=_SEED, default=0, help="seed for randomized checks"),
    "suite": dict(action="append", choices=SUITES, help="one suite (repeatable)"),
    "config": dict(help="JSON file of this command's options"),
}

# command: (handler, required options, optional options)
_COMMANDS = {
    "assemble": (cmd_assemble, "alpha rho lambda mu lmax out", "sign-flip csv config"),
    "dimer-assemble": (
        cmd_assemble, "alpha rho lambda mu lmax out dimer-d", "sign-flip csv config"
    ),
    "solve": (
        cmd_solve, "alpha rho lambda mu lmax phi out", "dimer-d sign-flip tol config"
    ),
    "sweep": (cmd_sweep, "alpha-grid rho lambda mu lmax", "sign-flip out config"),
    "verify": (cmd_verify, "", "seed suite config"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing reads it and never
    changes it."""
    top = _Parser(
        prog="sphelast",
        allow_abbrev=False,
        description="Exact operator matrices for chains of spherical "
        "elastic scatterers.",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (handler, required, optional) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(handler=handler)
        for opt in required.split():
            p.add_argument("--" + opt, required=True, **_OPTIONS[opt])
        for opt in optional.split():
            p.add_argument("--" + opt, **_OPTIONS[opt])
    return top


# Built at import, so that no operation pays for the parsers (or for the
# locale module that argparse's first message lookup imports).
build_parser()
_CONFIG_PARSER = _Parser(add_help=False, allow_abbrev=False)
_CONFIG_PARSER.add_argument("--config")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # A --config file's options go right after the command, so the
        # explicit flags come later and win; an explicit --suite replaces the
        # file's list instead of extending it.
        path = _CONFIG_PARSER.parse_known_args(argv)[0].config
        tokens = _config_tokens(path) if path else []
        args = build_parser().parse_args([*argv[:1], *tokens, *argv[1:]])
        n_file = sum(t.startswith("--suite=") for t in tokens)
        if n_file and len(args.suite) > n_file:
            args.suite = args.suite[n_file:]
        try:
            return args.handler(args)
        except MemoryError:
            # the lmax commands allocate before writing; verify has no lmax
            lmax, size = getattr(args, "lmax", None), ""
            if lmax is not None:
                n = BasisMap(lmax).n_eff * (1 if getattr(args, "dimer_d", None) is None else 2)
                size = f" at lmax {lmax} (n = {n} unknowns)"
            raise ConfigError(f"this run needs more memory than is available{size}") from None
    except (ConfigError, LatticeSumOverflow, ScaleOverflow) as exc:
        # all three are raised before any output is written
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
