"""Smoke test of the benchmark: every workload at the tiny size, untraced
and traced, reports every metric of ``BENCHMARK.json`` with its unit and no
failed operation.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import speed  # noqa: E402
import tracing  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    # Two seconds leave room for one extra cold process where the
    # operation is short enough.
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "2",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True
    assert result["attempted"] >= (3 if trace else 2)
    assert any(line.split()[-2:] == ["ops_failed", "0"] for line in lines)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_per_layer_metrics_match_spec():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER


def test_missing_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "single-solve", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_absent_target_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", [
        *tracing.TARGETS, ("sphharm.gone", "sphelast.sphharm", "no_such_function"),
        ("nowhere.gone", "sphelast.no_such_module", "f"),
    ])
    tracer = tracing.Tracer()
    assert {"sphharm.gone", "nowhere.gone"} <= set(tracer.absent)
    from sphelast import sphharm

    original = sphharm.ylm_equator
    assert tracer.run(lambda: sphharm.ylm_equator(2, 0)) == original(2, 0)
    assert sphharm.ylm_equator is original
    assert tracing.op_layers(tracer)["sphharm.ylm_equator_calls"] == 1


def test_speed_sampler_probes_inside_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    # One probe before, one after, and one per INTERVAL_S inside.
    assert len(sampler.samples) >= 4
    assert 0 < sampler.inside_s < sum(sampler.samples)


def test_speed_scale_trims_outliers():
    samples = [2 * speed.REFERENCE_S] * 18 + [0.0, 1.0]
    assert speed.scale(samples) == pytest.approx(0.5)
