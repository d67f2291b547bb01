import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphelast
from sphelast import io
from sphelast.assembly import assemble_dimer, assemble_single
from sphelast.cli import build_parser, main, parse_alpha, parse_grid
from sphelast.kelvin import LameParams
from sphelast.latsum import DimerGeometry


@pytest.fixture(scope="module")
def small_matrix():
    return assemble_single(1.3, 0.1, LameParams(1.0, 1.0), 1)


class TestFormats:
    def test_version_rejection(self, tmp_path):
        path = tmp_path / "v.json"
        io.save_vector(path, np.zeros(10))
        doc = json.loads(path.read_text())
        doc["header"]["basis_version"] = "something-else"
        path.write_text(json.dumps(doc))
        with pytest.raises(io.FormatError, match="something-else"):
            io.load_vector(path)

    def test_kind_rejection(self, small_matrix, tmp_path):
        # a matrix file, or a vector file without its kind, is no vector
        path = tmp_path / "m.json"
        io.save_matrix(path, small_matrix)
        with pytest.raises(io.FormatError, match="kind 'matrix'"):
            io.load_vector(path)
        io.save_vector(path, np.zeros(10))
        doc = json.loads(path.read_text())
        del doc["header"]["kind"]
        path.write_text(json.dumps(doc))
        with pytest.raises(io.FormatError, match="kind None"):
            io.load_vector(path)

    def test_vector_round_trip(self, tmp_path, rng):
        vec = rng.normal(size=10) + 1j * rng.normal(size=10)
        path = tmp_path / "v.json"
        io.save_vector(path, vec, header_extra={"alpha": 1.0})
        loaded, hdr = io.load_vector(path)
        assert np.array_equal(loaded, vec)
        assert hdr["alpha"] == 1.0

    def test_csv_export(self, small_matrix, tmp_path):
        path = tmp_path / "m.csv"
        io.matrix_to_csv(path, small_matrix)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 1 + small_matrix.matrix.size
        row, col, re, im = lines[1].split(",")
        assert complex(float(re), float(im)) == small_matrix.matrix[0, 0]


def _json_dump_reference(path, header, arr):
    """The byte contract of the writers: ``json.dump`` of the whole document
    with ``indent=1, sort_keys=True`` and a newline, each entry an
    ``[re, im]`` pair of floats."""
    flat = np.asarray(arr, dtype=complex).ravel()
    doc = {
        "header": header,
        "entries": [[float(v.real), float(v.imag)] for v in flat],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _csv_reference(path, m):
    with open(path, "w") as fh:
        fh.write("row,col,re,im\n")
        rows, cols = m.matrix.shape
        for i in range(rows):
            for j in range(cols):
                v = complex(m.matrix[i, j])
                fh.write(f"{i},{j},{v.real!r},{v.imag!r}\n")


def _reference_load(path, matrix):
    """The entries as a per-pair loop reads them: one ``complex`` per pair,
    reshaped to the header's shape for a matrix."""
    with open(path) as fh:
        doc = json.load(fh)
    flat = np.array([complex(re, im) for re, im in doc["entries"]])
    return flat.reshape(tuple(doc["header"]["shape"])) if matrix else flat


@pytest.mark.parametrize("lmax", [0, 1, 2, 5, 8])
@pytest.mark.parametrize("dimer", [False, True], ids=["single", "dimer"])
def test_matrix_files_match_json_dump(tmp_path, lmax, dimer):
    rng = np.random.default_rng(1000 + lmax)
    alpha, rho = rng.uniform(0.3, 6.0), rng.uniform(0.05, 0.15)
    lam, mu = rng.uniform(0.2, 3.0), rng.uniform(0.5, 2.0)
    new, ref = tmp_path / "new", tmp_path / "ref"
    for sign_flip in (False, True):
        params = LameParams(lam, mu, sign_flip)
        if dimer:
            m = assemble_dimer(alpha, DimerGeometry(rho + 0.1, rho), params, lmax)
        else:
            m = assemble_single(alpha, rho, params, lmax)
        io.save_matrix(new, m)
        _json_dump_reference(ref, io._header(m), m.matrix)
        assert new.read_bytes() == ref.read_bytes()
        assert np.array_equal(_reference_load(new, matrix=True), m.matrix)
        io.matrix_to_csv(new, m)
        _csv_reference(ref, m)
        assert new.read_bytes() == ref.read_bytes()


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1]


@pytest.mark.parametrize("values", [
    [],
    [complex(math.nan, -0.0)],
    [complex(-math.inf, math.inf)],
    [complex(-0.0, 0.0)],
    [complex(a, b) for a in _SPECIAL for b in _SPECIAL],
], ids=["empty", "nan", "inf", "signed-zero", "pairs"])
def test_vector_files_match_json_dump(tmp_path, values):
    # json spells the non-finite floats NaN, Infinity and -Infinity, where
    # repr gives nan, inf and -inf
    extra = {"alpha": 1.3, "grid": {"b": [1, 2.5, None, True], "a": {"z": -0.0}},
             "note": "x"}
    vec = np.array(values, dtype=complex)
    new, ref = tmp_path / "new.json", tmp_path / "ref.json"
    io.save_vector(new, vec, header_extra=extra)
    header = {
        "kind": "vector", "basis_version": io.BASIS_VERSION,
        "tool_version": sphelast.__version__, "length": len(values), **extra,
    }
    _json_dump_reference(ref, header, vec)
    assert new.read_bytes() == ref.read_bytes()
    loaded, hdr = io.load_vector(new)
    assert hdr == json.loads(ref.read_text())["header"]
    assert np.array_equal(loaded, _reference_load(new, matrix=False), equal_nan=True)
    if values:
        assert loaded.dtype == complex
        assert np.array_equal(loaded, vec, equal_nan=True)


# entries of a vector file: the loader accepts the first eight
_ENTRIES = {
    "ints": [[1, -2]],
    "floats": [[0.5, 1e-300]],
    "non-finite": [[math.nan, -math.inf]],
    "bools": [[True, False]],
    "big-int": [[2**70, 1]],
    "count": [[1, 2], [3.0, 4.0]],
    "empty": [],
    "empty-object": {},
    "strings": [["1", "2"]],
    "string-im": [[1.0, "2"]],
    "null": [[None, 1.0]],
    "flat": [1, 2],
    "flat-string": ["12"],
    "triple": [[1, 2, 3]],
    "single": [[1]],
    "nested": [[[1, 2], [3, 4]]],
    "ragged": [[1, 2], [3]],
    "pair-and-string": [[1, 2], "ab"],
    "object": [{"re": 1, "im": 2}],
    "number": 5,
    "huge-int": [[10**400, 0]],
}


def _outcome(load):
    try:
        return "ok", load()
    except Exception as exc:  # noqa: BLE001 - the kind of failure is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("name", list(_ENTRIES))
def test_loaders_accept_and_refuse_as_per_pair_loop(tmp_path, name, capsys):
    header = {"kind": "vector", "basis_version": io.BASIS_VERSION, "length": 1}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"header": header, "entries": _ENTRIES[name]}))
    got = _outcome(lambda: io.load_vector(path))
    want = _outcome(lambda: _reference_load(path, matrix=False))
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert got[1][0].dtype == want[1].dtype
        assert np.array_equal(got[1][0], want[1], equal_nan=True)
    else:
        assert got == want
    assert (got[0] == "ok") == (list(_ENTRIES).index(name) < 8)
    # no vector file among them is a field the solve takes: each exits 2
    for kind in ("coeffs", "grid"):
        out = tmp_path / "f.json"
        rc = main(["solve", *TestCli.BASE, "--phi", f"{kind}:{path}",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.strip()
        assert not out.exists()


class TestAlphaParsing:
    def test_plain_radians(self):
        assert parse_alpha("1.25") == 1.25

    def test_pi_rational(self):
        assert parse_alpha("pi*1/2") == pytest.approx(math.pi / 2)
        assert parse_alpha("pi*3/4") == pytest.approx(3 * math.pi / 4)

    def test_bad_literal(self):
        from sphelast.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_alpha("pi*banana")

    def test_grid(self):
        grid = parse_grid("0.5:2.5:3")
        assert np.allclose(grid, [0.5, 1.5, 2.5])


class TestCli:
    BASE = [
        "--alpha", "1.3", "--rho", "0.1", "--lambda", "1", "--mu", "1",
        "--lmax", "1",
    ]

    def test_assemble_writes_file(self, tmp_path):
        out = tmp_path / "m.json"
        csv = tmp_path / "m.csv"
        rc = main(["assemble", *self.BASE, "--out", str(out), "--csv", str(csv)])
        assert rc == 0
        assert _reference_load(out, matrix=True).shape == (10, 10)
        assert csv.exists()

    def test_assemble_degree_two_size(self, tmp_path):
        out = tmp_path / "m2.json"
        rc = main([
            "assemble", "--alpha", "1.5708", "--rho", "0.1", "--lambda", "1",
            "--mu", "1", "--lmax", "2", "--out", str(out),
        ])
        assert rc == 0
        assert _reference_load(out, matrix=True).shape == (25, 25)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["assemble", *self.BASE, "--out", str(out1)])
        main(["assemble", *self.BASE, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_dimer_assemble(self, tmp_path):
        out = tmp_path / "d.json"
        rc = main(["dimer-assemble", *self.BASE, "--dimer-d", "0.2", "--out", str(out)])
        assert rc == 0
        assert _reference_load(out, matrix=True).shape == (20, 20)

    def test_solve_with_coefficient_field(self, tmp_path, rng):
        coeff_path = tmp_path / "phi.json"
        vec = rng.normal(size=10)
        io.save_vector(coeff_path, vec)
        out = tmp_path / "f.json"
        rc = main([
            "solve", *self.BASE, "--phi", f"coeffs:{coeff_path}",
            "--out", str(out),
        ])
        assert rc == 0
        coeffs, hdr = io.load_vector(out)
        assert coeffs.shape == (10,)
        assert hdr["alpha"] == 1.3

    def test_solve_round_trip_through_files(self, tmp_path):
        # density recovered from the field it generates
        mat = assemble_single(1.3, 0.1, LameParams(1.0, 1.0), 1)
        rng = np.random.default_rng(3)
        f = rng.normal(size=10)
        from sphelast.kelvin import norm_factor

        # phi expanded over the basis with coefficients c solves
        # M conj(F) = conj(c) * norms; choose c so the solution is f
        norms = np.array([norm_factor(k, l) for l, _m, k in mat.basis])
        c = np.conj(mat.matrix @ np.conj(f)) / norms
        coeff_path = tmp_path / "phi.json"
        io.save_vector(coeff_path, c)
        out = tmp_path / "f.json"
        rc = main([
            "solve", *self.BASE, "--phi", f"coeffs:{coeff_path}",
            "--out", str(out),
        ])
        assert rc == 0
        coeffs, _hdr = io.load_vector(out)
        assert np.abs(coeffs - f).max() <= 1e-10

    @pytest.mark.parametrize("kind", ["coeffs", "point-force"])
    def test_dimer_solve_stacks_one_rhs_twice(self, tmp_path, kind):
        # the written coefficients are solve's on [b, b], b the field's
        # right-hand side for one ball
        from sphelast.kelvin import kelvin_tensor, norm_factor
        from sphelast.system import build_quadrature, project_rhs, solve

        params = LameParams(1.0, 1.0)
        mat = assemble_dimer(1.3, DimerGeometry(0.2, 0.1), params, 1)
        if kind == "coeffs":
            c = np.random.default_rng(4).normal(size=10) + 0.5j
            phi = tmp_path / "phi.json"
            io.save_vector(phi, c)
            spec = f"coeffs:{phi}"
            b = c.conjugate() * [norm_factor(fam, l) for l, _m, fam in mat.basis]
        else:
            spec = "builtin:point-force:2,0.3,0"
            quad = build_quadrature(4)
            field = kelvin_tensor(0.1 * quad.nodes - [2.0, 0.3, 0.0], params)[:, :, 0]
            b = project_rhs(field, quad, mat.basis)
        out = tmp_path / "f.json"
        rc = main(["solve", *self.BASE, "--dimer-d", "0.2", "--phi", spec, "--out", str(out)])
        assert rc == 0
        coeffs, hdr = io.load_vector(out)
        assert np.array_equal(coeffs, solve(mat, np.concatenate([b, b])).coeffs)
        assert hdr["d"] == 0.2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "alpha": "pi*1/2", "rho": 0.1, "lambda": 1.0, "mu": 1.0,
            "lmax": 2,
        }))
        out = tmp_path / "m.json"
        rc = main([
            "assemble", "--config", str(cfg), "--lmax", "1",
            "--out", str(out),
        ])
        assert rc == 0
        header = json.loads(out.read_text())["header"]
        assert header["lmax"] == 1                   # flag wins
        assert _reference_load(out, matrix=True).shape == (10, 10)
        assert header["alpha"] == pytest.approx(math.pi / 2)

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.0, "bogus": 2}))
        rc = main(["assemble", "--config", str(cfg), "--out", "x.json"])
        assert rc == 2

    def test_missing_options_exit_code(self):
        assert main(["assemble", "--alpha", "1.0"]) == 2

    def test_invalid_radius_exit_code(self, tmp_path):
        rc = main([
            "assemble", "--alpha", "1.0", "--rho", "0.7", "--lambda", "1",
            "--mu", "1", "--lmax", "1", "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 2

    def test_singular_phase_exit_code(self, tmp_path):
        rc = main([
            "assemble", "--alpha", "0", "--rho", "0.1", "--lambda", "1",
            "--mu", "1", "--lmax", "1", "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 3

    def test_sweep_table(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--alpha-grid", "0.5:2.5:3", "--rho", "0.1",
            "--lambda", "1", "--mu", "1", "--lmax", "1", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,max_entry,cond_1norm"
        assert len(lines) == 4

    def test_verify_subcommand(self):
        assert main(["verify", "--suite", "system", "--seed", "3"]) == 0

    def test_verify_vsh_checks_the_table(self):
        from sphelast.verify import run_suites

        rows = run_suites(["vsh"], seed=3)
        assert "table vs scalar l<=8" in [row[1] for row in rows]
        assert all(row[4] for row in rows)
        assert main(["verify", "--suite", "vsh", "--seed", "3"]) == 0

    def test_verify_unknown_suite(self):
        assert main(["verify", "--suite", "nonsense"]) == 2

    def test_sign_flip_negates_output(self, tmp_path):
        out1, out2 = tmp_path / "p.json", tmp_path / "n.json"
        main(["assemble", *self.BASE, "--out", str(out1)])
        main(["assemble", *self.BASE, "--sign-flip", "--out", str(out2)])
        a = _reference_load(out1, matrix=True)
        b = _reference_load(out2, matrix=True)
        assert np.abs(a + b).max() == 0.0


class TestPhiInputs:
    BASE = TestCli.BASE

    def test_grid_field_input(self, tmp_path):
        from sphelast.oracle import build_quadrature

        quad = build_quadrature(4)  # 2*lmax+2 for lmax=1
        samples = np.tile([0.0, 0.0, 1.0], (quad.n_nodes, 1)).astype(complex)
        grid_path = tmp_path / "phi_grid.json"
        io.save_vector(
            grid_path, samples.reshape(-1), header_extra={"grid_degree": 4}
        )
        out = tmp_path / "f.json"
        rc = main([
            "solve", *self.BASE, "--phi", f"grid:{grid_path}",
            "--out", str(out),
        ])
        assert rc == 0

    def test_grid_degree_mismatch(self, tmp_path):
        grid_path = tmp_path / "phi_grid.json"
        io.save_vector(grid_path, np.zeros(30), header_extra={"grid_degree": 9})
        rc = main([
            "solve", *self.BASE, "--phi", f"grid:{grid_path}",
            "--out", str(tmp_path / "f.json"),
        ])
        assert rc == 2

    def test_builtin_point_force_must_be_outside(self, tmp_path):
        rc = main([
            "solve", *self.BASE, "--phi", "builtin:point-force:0.05,0,0",
            "--out", str(tmp_path / "f.json"),
        ])
        assert rc == 2

    def test_unknown_builtin(self, tmp_path):
        rc = main([
            "solve", *self.BASE, "--phi", "builtin:mystery",
            "--out", str(tmp_path / "f.json"),
        ])
        assert rc == 2


class TestBadInputs:
    """Every bad input exits 2 with a message: no hang, no NaN output, no
    traceback."""

    BASE = TestCli.BASE

    @staticmethod
    def _argv(base, **changes):
        argv = list(base)
        for flag, value in changes.items():
            argv[argv.index("--" + flag) + 1] = value
        return argv

    def _assert_config_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.strip()

    @pytest.mark.parametrize("command", ["assemble", "dimer-assemble"])
    def test_csv_naming_the_out_file(self, tmp_path, monkeypatch, capsys, command):
        # the CSV would overwrite the JSON matrix: refused before anything
        # is written, however the two paths spell the same file
        monkeypatch.chdir(tmp_path)
        extra = ["--dimer-d", "0.2"] if command == "dimer-assemble" else []
        (tmp_path / "sub").mkdir()
        for out, csv in (("m.json", "m.json"), ("./m.json", "m.json"),
                         (str(tmp_path / "m.json"), "sub/../m.json")):
            self._assert_config_error(
                [command, *self.BASE, *extra, "--out", out, "--csv", csv], capsys)
            assert not (tmp_path / "m.json").exists()
        assert main([command, *self.BASE, *extra, "--out", "m.json",
                     "--csv", "m.csv"]) == 0
        assert _reference_load(tmp_path / "m.json", matrix=True).shape[0] == (
            20 if extra else 10)

    def test_non_finite_alpha(self, tmp_path, capsys):
        # pi*1e400 overflows the float conversion, pi*+-1e308 the product
        for bad in ("nan", "inf", "pi*1e400", "pi*1e308", "pi*-1e308"):
            self._assert_config_error([
                "assemble", *self._argv(self.BASE, alpha=bad),
                "--out", str(tmp_path / "m.json"),
            ], capsys)
        # a span beyond float64, and a count numpy refuses to allocate
        for grid in ("0.5:nan:3", "-1e308:1e308:3", "0.5:1:100000000000000"):
            self._assert_config_error([
                "sweep", f"--alpha-grid={grid}", "--rho", "0.1",
                "--lambda", "1", "--mu", "1", "--lmax", "1",
            ], capsys)

    def test_non_finite_material(self, tmp_path, capsys):
        for flag in ("lambda", "mu"):
            out = tmp_path / f"{flag}.json"
            self._assert_config_error([
                "assemble", *self._argv(self.BASE, **{flag: "nan"}),
                "--out", str(out),
            ], capsys)
            assert not out.exists()

    def test_non_finite_dimer_separation(self, tmp_path, capsys):
        self._assert_config_error([
            "dimer-assemble", *self.BASE, "--dimer-d", "nan",
            "--out", str(tmp_path / "d.json"),
        ], capsys)

    def test_solve_with_overlapping_dimer(self, tmp_path, capsys):
        self._assert_config_error([
            "solve", *self.BASE, "--dimer-d", "0.05",
            "--phi", "builtin:uniform-x", "--out", str(tmp_path / "f.json"),
        ], capsys)

    def test_missing_phi_file(self, tmp_path, capsys):
        for kind in ("coeffs", "grid"):
            self._assert_config_error([
                "solve", *self.BASE, "--phi", f"{kind}:{tmp_path / 'none.json'}",
                "--out", str(tmp_path / "f.json"),
            ], capsys)

    def test_malformed_phi_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in ("{not json", json.dumps({"entries": []}),
                     json.dumps({"header": "abc", "entries": []}),
                     json.dumps({"header": {"basis_version": io.BASIS_VERSION},
                                 "entries": [1, 2]})):
            bad.write_text(text)
            for kind in ("coeffs", "grid"):
                self._assert_config_error([
                    "solve", *self.BASE, "--phi", f"{kind}:{bad}",
                    "--out", str(tmp_path / "f.json"),
                ], capsys)

    def test_wrong_basis_version_phi_file(self, tmp_path, capsys):
        path = tmp_path / "phi.json"
        io.save_vector(path, np.zeros(10))
        doc = json.loads(path.read_text())
        doc["header"]["basis_version"] = "something-else"
        path.write_text(json.dumps(doc))
        self._assert_config_error([
            "solve", *self.BASE, "--phi", f"coeffs:{path}",
            "--out", str(tmp_path / "f.json"),
        ], capsys)

    @pytest.mark.parametrize("lmax", ["0", "1"])
    def test_matrix_file_as_phi_file(self, tmp_path, capsys, lmax):
        # at lmax 0 the 1 x 1 matrix has the length of a coefficient vector:
        # refused for its kind all the same, by name
        base = self._argv(self.BASE, lmax=lmax)
        matrix, out = tmp_path / "m.json", tmp_path / "f.json"
        assert main(["assemble", *base, "--out", str(matrix)]) == 0
        capsys.readouterr()
        for kind in ("coeffs", "grid"):
            assert main(["solve", *base, "--phi", f"{kind}:{matrix}",
                         "--out", str(out)]) == 2
            assert "kind 'matrix'" in capsys.readouterr().err
            assert not out.exists()

    def test_grid_file_of_wrong_length(self, tmp_path, capsys):
        # the right grid_degree (2*lmax+2 = 4) but one node too few or
        # too many
        from sphelast.system import build_quadrature

        right = 3 * build_quadrature(4).n_nodes
        grid, out = tmp_path / "phi_grid.json", tmp_path / "f.json"
        for size in (right - 3, right + 3):
            io.save_vector(grid, np.ones(size), header_extra={"grid_degree": 4})
            self._assert_config_error([
                "solve", *self.BASE, "--phi", f"grid:{grid}", "--out", str(out),
            ], capsys)
            assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_file(self, tmp_path, capsys, bad):
        # lmax 1: 10 coefficients, or 3 samples a node on the degree-4 grid
        from sphelast.system import build_quadrature

        out = tmp_path / "f.json"
        nodes = build_quadrature(4).n_nodes
        for kind, size, extra in (("coeffs", 10, None),
                                  ("grid", 3 * nodes, {"grid_degree": 4})):
            vec = np.ones(size, dtype=complex)
            vec[size // 2] = complex(0.0, bad)
            path = tmp_path / f"{kind}.json"
            io.save_vector(path, vec, header_extra=extra)
            self._assert_config_error([
                "solve", *self.BASE, "--phi", f"{kind}:{path}", "--out", str(out),
            ], capsys)
            assert not out.exists()

    def test_phi_file_projecting_beyond_float64(self, tmp_path, capsys):
        # finite entries whose projection is not: a coefficient times a norm
        # of at least 3, and a sum over the nodes of the degree-4 grid
        from sphelast.system import build_quadrature

        out = tmp_path / "f.json"
        nodes = build_quadrature(4).n_nodes
        for kind, size, extra in (("coeffs", 10, None),
                                  ("grid", 3 * nodes, {"grid_degree": 4})):
            path = tmp_path / f"{kind}.json"
            io.save_vector(path, np.full(size, 1e308), header_extra=extra)
            self._assert_config_error([
                "solve", *self.BASE, "--phi", f"{kind}:{path}", "--out", str(out),
            ], capsys)
            assert not out.exists()

    def test_non_numeric_config_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for key, value in (("rho", "abc"), ("lmax", [1]), ("lambda", "abc")):
            doc = {"alpha": 1.3, "rho": 0.1, "lambda": 1, "mu": 1, "lmax": 1}
            doc[key] = value
            cfg.write_text(json.dumps(doc))
            self._assert_config_error([
                "assemble", "--config", str(cfg),
                "--out", str(tmp_path / "m.json"),
            ], capsys)

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "m.json"
        self._assert_config_error(
            ["assemble", *self.BASE, "--out", str(out)], capsys
        )
        self._assert_config_error([
            "sweep", "--alpha-grid", "0.5:2.5:2", "--rho", "0.1",
            "--lambda", "1", "--mu", "1", "--lmax", "1", "--out", str(out),
        ], capsys)

    def test_lattice_sums_beyond_float64(self, tmp_path, capsys):
        # (2d)^-s overflows at order 11 (lmax 4) while the radius
        # coefficients underflow: both commands stop before writing
        tiny = ["--alpha", "1.3", "--rho", "1e-30", "--dimer-d", "2e-30",
                "--lambda", "1", "--mu", "1", "--lmax", "4"]
        for argv in (
            ["dimer-assemble", *tiny],
            ["solve", *tiny, "--phi", "builtin:uniform-x"],
        ):
            out = tmp_path / "out.json"
            assert main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "outside float64" in err and "lmax" in err
            assert not out.exists()

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # a run that does not fit in memory exits 2 with a message naming
        # its size, before writing; the failure is faked, nothing is allocated
        from sphelast.assembly import Trace

        def single(self, alpha):
            raise MemoryError

        monkeypatch.setattr(Trace, "single", single)
        out = tmp_path / "f.json"
        assert main(["solve", *self.BASE, "--phi", "builtin:uniform-x",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "lmax 1 (n = 10 unknowns)" in err and "Traceback" not in err
        assert not out.exists()

    def test_out_of_memory_in_verify(self, capsys, monkeypatch):
        # verify has no lmax: the message names none, and still no traceback
        from sphelast import verify

        def suite(rng):
            raise MemoryError

        monkeypatch.setitem(verify.SUITES, "latsum", suite)
        assert main(["verify", "--suite", "latsum"]) == 2
        err = capsys.readouterr().err
        assert "more memory than is available" in err and "lmax" not in err
        assert "Traceback" not in err

    def test_non_finite_point_force_source(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        # 1.4e154 and -1e300 are finite, but their squared distances are not
        for bad in ("nan", "inf", "1.4e154", "-1e300"):
            self._assert_config_error([
                "solve", *self.BASE, "--phi", f"builtin:point-force:{bad},0,0",
                "--out", str(out),
            ], capsys)
            assert not out.exists()

    def test_scale_beyond_float64(self, tmp_path, capsys):
        # response coefficients that are not finite (huge constants, a
        # subnormal shear modulus, tiny constants whose product underflows
        # to a zero divisor) or an on-ball diagonal that underflows (a
        # subnormal radius): every command stops before writing
        huge = self._argv(self.BASE, **{"lambda": "1e308", "mu": "1e308"})
        tiny = self._argv(self.BASE, **{"lambda": "1e-200", "mu": "1e-200"})
        out = tmp_path / "out.json"
        for argv in (
            ["assemble", *huge],
            ["assemble", *tiny],
            ["solve", *tiny, "--phi", "builtin:uniform-x"],
            ["sweep", "--alpha-grid", "0.5:2.5:3", "--rho", "0.1",
             "--lambda", "1e-200", "--mu", "1e-200", "--lmax", "1"],
            ["dimer-assemble", *huge, "--dimer-d", "0.2"],
            ["solve", *huge, "--phi", "builtin:uniform-x"],
            ["solve", *self._argv(self.BASE, rho="1e-310"),
             "--phi", "builtin:point-force:2,0,0"],
            ["sweep", "--alpha-grid", "0.5:2.5:3", "--rho", "0.1",
             "--lambda", "1", "--mu", "1e-320", "--lmax", "1"],
        ):
            assert main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "configuration error" in err and "finite" in err
            assert not out.exists()


class TestOptionsPerCommand:
    """Each command takes only the options it reads; the rest exit 2, as a
    flag and as a config-file key, before any output is written."""

    BASE = TestCli.BASE
    SWEEP = [
        "sweep", "--alpha-grid", "0.5:2.5:2", "--rho", "0.1", "--lambda", "1",
        "--mu", "1", "--lmax", "1",
    ]
    # command: (required options, optional options)
    TABLE = {
        "assemble": (
            {"alpha", "rho", "lambda", "mu", "lmax", "out"},
            {"sign-flip", "csv", "config"},
        ),
        "dimer-assemble": (
            {"alpha", "rho", "lambda", "mu", "lmax", "out", "dimer-d"},
            {"sign-flip", "csv", "config"},
        ),
        "solve": (
            {"alpha", "rho", "lambda", "mu", "lmax", "phi", "out"},
            {"dimer-d", "sign-flip", "tol", "config"},
        ),
        "sweep": (
            {"alpha-grid", "rho", "lambda", "mu", "lmax"},
            {"sign-flip", "out", "config"},
        ),
        "verify": (set(), {"seed", "suite", "config"}),
    }

    def test_parser_matches_table(self):
        (commands,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(commands.choices) == set(self.TABLE)
        settable = 0
        for name, parser in commands.choices.items():
            actions = [
                a for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
            ]
            assert all(len(a.option_strings) == 1 for a in actions)
            required = {a.option_strings[0][2:] for a in actions if a.required}
            optional = {a.option_strings[0][2:] for a in actions if not a.required}
            assert (required, optional) == self.TABLE[name], name
            settable += len(actions)
        assert settable == 41

    def test_unread_flags_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in (
            ["assemble", *self.BASE, "--dimer-d", "0.2", "--out", str(out)],
            [*self.SWEEP, "--dimer-d", "0.2", "--out", str(out)],
            ["solve", *self.BASE, "--phi", "builtin:uniform-x",
             "--out", str(out), "--csv", str(tmp_path / "f.csv")],
            ["verify", "--suite", "system", "--rho", "0.1"],
            # no abbreviations: --cs is not taken for --csv
            ["assemble", *self.BASE, "--out", str(out), "--cs", str(out)],
        ):
            assert main(argv) == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not out.exists()
        assert not (tmp_path / "f.csv").exists()

    def _run_config(self, tmp_path, command, doc, *argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        return main([command, "--config", str(cfg), *argv])

    def test_bad_config_values_exit_2(self, tmp_path, capsys):
        good = {"alpha": 1.3, "rho": 0.1, "lambda": 1, "mu": 1, "lmax": 1}
        out = tmp_path / "m.json"
        for command, changes in (
            ("assemble", {"sign_flip": "false"}),
            ("assemble", {"lmax": 1.9}),
            ("assemble", {"dimer_d": 0.2}),
            ("assemble", {"o": "x.json"}),
            ("solve", {"phi": "builtin:uniform-x", "tol": "abc"}),
            ("solve", {"phi": "builtin:uniform-x", "csv": str(tmp_path / "f.csv")}),
        ):
            rc = self._run_config(
                tmp_path, command, {**good, **changes}, "--out", str(out)
            )
            assert rc == 2, changes
            assert capsys.readouterr().err.startswith("configuration error")
            assert not out.exists()
        assert self._run_config(tmp_path, "verify", {"seed": "x"}) == 2
        assert self._run_config(tmp_path, "verify", {"rho": 0.1}) == 2

    def test_bad_tol_and_seed_exit_2(self, tmp_path, capsys):
        for tol in ("nan", "inf", "-1"):
            rc = main([
                "solve", *self.BASE, "--phi", "builtin:uniform-x",
                "--out", str(tmp_path / "f.json"), "--tol", tol,
            ])
            assert rc == 2, tol
            assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()
        assert main(["verify", "--suite", "system", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_config_file_matches_flags(self, tmp_path):
        doc = {
            "alpha": "pi*1/2", "rho": 0.1, "lambda": 1.5, "mu": 1,
            "lmax": 1, "dimer-d": 0.2, "sign_flip": True,
        }
        flags = [
            "--alpha", "pi*1/2", "--rho", "0.1", "--lambda", "1.5", "--mu", "1",
            "--lmax", "1", "--dimer-d", "0.2", "--sign-flip",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert self._run_config(
            tmp_path, "dimer-assemble", {**doc, "csv": f"{a}.csv"},
            "--out", f"{a}.json",
        ) == 0
        assert main([
            "dimer-assemble", *flags, "--out", f"{b}.json", "--csv", f"{b}.csv",
        ]) == 0
        for ext in ("json", "csv"):
            assert Path(f"{a}.{ext}").read_bytes() == Path(f"{b}.{ext}").read_bytes()
        sweep = {k: doc[k] for k in ("rho", "lambda", "mu", "lmax", "sign_flip")}
        assert self._run_config(
            tmp_path, "sweep", {**sweep, "alpha_grid": "0.5:2.5:2"},
            "--out", f"{a}.csv",
        ) == 0
        assert main([*self.SWEEP, "--sign-flip", "--lambda", "1.5",
                     "--out", f"{b}.csv"]) == 0
        assert Path(f"{a}.csv").read_bytes() == Path(f"{b}.csv").read_bytes()


def test_verify_failure_exit_code(monkeypatch):
    import sphelast.cli as cli_mod

    def fake_run_suites(names=None, seed=0):
        return [("fake", "always fails", 1.0, 0.5, False)]

    monkeypatch.setattr(cli_mod, "run_suites", fake_run_suites)
    assert main(["verify"]) == 4


def test_parser_is_built_once_and_suites_do_not_leak(monkeypatch):
    import sphelast.cli as cli_mod

    seen = []

    def fake_run_suites(names=None, seed=0):
        seen.append(names)
        return []

    monkeypatch.setattr(cli_mod, "run_suites", fake_run_suites)
    assert build_parser() is build_parser()
    assert main(["verify", "--suite", "vsh", "--suite", "system"]) == 0
    assert main(["verify", "--suite", "kelvin"]) == 0
    assert main(["verify"]) == 0
    assert seen == [["vsh", "system"], ["kelvin"], None]


def _run_python(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(sphelast.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=120,
    )


def test_module_entry_point():
    # ``python -m sphelast`` runs the CLI without the console script
    done = _run_python("-m", "sphelast", "--version")
    assert done.returncode == 0
    assert done.stdout.strip() == sphelast.__version__


@pytest.mark.parametrize("seed", [0, 845589051, 1271484261])
def test_verify_replays_byte_for_byte_cold_and_warm(seed):
    # one fresh interpreter runs verify twice: every cache cold, then warm;
    # the two reports must be the same bytes, with every check passed
    done = _run_python(
        "-c",
        "import contextlib, io, json, sys; from sphelast.cli import main\n"
        "runs = []\n"
        "for _ in range(2):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(['verify', '--seed', sys.argv[1]])\n"
        "    runs.append([code, out.getvalue()])\n"
        "print(json.dumps(runs))",
        str(seed),
    )
    assert done.returncode == 0, done.stderr
    (cold_code, cold), (warm_code, warm) = json.loads(done.stdout)
    assert cold_code == warm_code == 0
    assert cold == warm
    total = len(cold.splitlines()) - 1
    assert cold.splitlines()[-1] == f"{total}/{total} checks passed"


_LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_out_mpmath_and_scipy_special():
    # mpmath is only the oracle's reference; neither belongs on the import
    # path of every command, and the package does not use scipy at all.
    # The self-checks, the oracle and the re-expansion series behind them
    # load when verify runs; the package and the command line load none.
    reference = "('mpmath', 'scipy.special', 'sphelast.verify', " \
        "'sphelast.oracle', 'sphelast.translation')"
    done = _run_python(
        "-c",
        "import sys, sphelast, sphelast.cli; "
        f"print(sorted(m for m in {reference} if m in sys.modules)); "
        f"print({_LOADED_SCIPY})",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "[]"]


def test_suite_choices_name_the_verify_suites():
    from sphelast.cli import SUITES
    from sphelast.verify import SUITES as suites

    assert SUITES == tuple(suites)


def test_single_and_dimer_solves_load_no_scipy(tmp_path):
    # the solve itself, not just the import, runs without scipy
    base = (
        "'--alpha', '1.3', '--rho', '0.1', '--lambda', '1', '--mu', '1', "
        "'--lmax', '2', '--phi', 'builtin:point-force:0.3,0.4,0.2'"
    )
    done = _run_python(
        "-c",
        "import sys; from sphelast.cli import main; "
        f"rcs = [main(['solve', {base}, '--out', {str(tmp_path / 'a.json')!r}]), "
        f"main(['solve', {base}, '--dimer-d', '0.2', "
        f"'--out', {str(tmp_path / 'b.json')!r}])]; "
        f"print(rcs, {_LOADED_SCIPY})",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] []"


def test_system_import_leaves_out_the_oracle():
    # the production projection and its quadrature do not go through the
    # brute-force reference
    done = _run_python(
        "-c",
        "import sys, sphelast.system; print('sphelast.oracle' in sys.modules)",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_solve_projects_without_the_harmonic_table_or_fft(tmp_path):
    # the projection runs on the rule's rings: the solve neither evaluates
    # vsh_real at the nodes (under any module's name for it) nor loads
    # numpy.fft
    done = _run_python(
        "-c",
        "import sys, sphelast.vsh as vsh; calls = []; real = vsh.vsh_real; "
        "counted = lambda *a: calls.append(a) or real(*a); "
        "[setattr(m, 'vsh_real', counted) for n, m in list(sys.modules.items()) "
        "if n.startswith('sphelast') and getattr(m, 'vsh_real', None) is real]; "
        "from sphelast.cli import main; "
        "rc = main(['solve', '--alpha', '1.3', '--rho', '0.1', '--lambda', '1', "
        "'--mu', '1', '--lmax', '3', '--phi', 'builtin:point-force:0.3,0.4,0.2', "
        f"'--out', {str(tmp_path / 'x.json')!r}]); "
        "print(rc, len(calls), 'numpy.fft' in sys.modules)",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 0 False"


def test_point_force_samples_match_per_node_sampling():
    # one stacked Kelvin-tensor call against the oracle's node-by-node loop
    from sphelast.cli import _phi_samples
    from sphelast.kelvin import kelvin_tensor
    from sphelast.oracle import build_quadrature, sample_field

    params, rho = LameParams(1.4, 0.8), 0.2
    src = np.array([0.3, 0.1, -0.2])
    quad = build_quadrature(12)
    samples = _phi_samples("builtin:point-force:0.3,0.1,-0.2", quad, rho, params)
    per_node = sample_field(
        lambda d: kelvin_tensor(rho * d.vec - src, params)[:, 0], quad
    )
    assert np.abs(samples - per_node).max() <= 1e-15 * np.abs(per_node).max()


_BLOCK_RUNS = {
    "solve-single": ["solve", "--alpha", "1.1", "--rho", "0.2", "--lambda", "1.5",
                     "--mu", "0.8", "--lmax", "3", "--phi", "builtin:point-force:2,0.3,0"],
    "solve-dimer": ["solve", "--alpha", "1.1", "--rho", "0.1", "--dimer-d", "0.25",
                    "--lambda", "1.5", "--mu", "0.8", "--lmax", "3",
                    "--phi", "builtin:point-force:2,0.3,0"],
    "sweep": ["sweep", "--alpha-grid", "0.3:6:5", "--rho", "0.2", "--lambda", "1.5",
              "--mu", "0.8", "--lmax", "3"],
}


@pytest.mark.parametrize("name", list(_BLOCK_RUNS))
def test_solve_and_sweep_never_build_the_dense_matrix(tmp_path, monkeypatch, name):
    # solve and sweep read the sector blocks alone: with the dense matrix
    # refused they exit 0 and write the bytes of a plain run
    from sphelast.assembly import AssembledMatrix

    plain, blocks = tmp_path / "plain", tmp_path / "blocks"
    assert main([*_BLOCK_RUNS[name], "--out", str(plain)]) == 0

    def refuse(self):
        raise AssertionError("the dense matrix was built")

    monkeypatch.setattr(AssembledMatrix, "matrix", property(refuse))
    assert main([*_BLOCK_RUNS[name], "--out", str(blocks)]) == 0
    assert blocks.read_bytes() == plain.read_bytes()
