"""Tests of the benchmark itself, on tiny (n = 128) configurations.

Run with: python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_plan(tmp_path: Path, workload: str = "cross_scheme") -> tuple[run.Runner, workloads.Plan]:
    work = tmp_path / "work"
    work.mkdir()
    return run.Runner(ROOT, work, perf_counter() + 120), workloads.make_plan(workload, ROOT, work, 0, n=128)


def test_tiny_run_is_correct_and_reports_end_to_end_metrics(tmp_path):
    record = run.run_workload("cross_scheme", seed=4, seconds=0, trace=False, state=tmp_path, n=128)
    assert record["attempted"] == 3 and record["failed"] == 0
    assert record["params"]["m"] in (0, 1, 2)
    assert {k: run.unit_of(k) for k in record["metrics"]} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in record["metrics"].values())


def test_nonzero_exit_counts_as_failure(tmp_path):
    runner, plan = tiny_plan(tmp_path)
    inv = plan.invocations[0]
    inv.args = ["simulate", str(tmp_path / "missing.cfg")]
    bad = runner.run_invocation(0, inv, traced=False)
    assert bad.exit_code != 0 and bad.errors == [f"exit code {bad.exit_code}"]


def test_corrupted_output_fails_its_checks(tmp_path):
    runner, plan = tiny_plan(tmp_path, "scaled_spectral")
    inv = plan.invocations[0]
    assert runner.run_invocation(0, inv, traced=False).errors == []
    victim = inv.out_dir / "rho12_001.vxf"
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    assert any("rho12_001.vxf" in e for e in workloads.run_checks(inv, ""))
    (inv.out_dir / "fidelity.csv").write_text("t,s,efficiency,total_population\n0,1,1,1\n1,5,0.5,1\n")
    assert any("efficiency" in e for e in workloads.run_checks(inv, ""))


def test_traced_run_reports_every_layer_and_keeps_manifests(tmp_path):
    record = run.run_workload("scaled_spectral", seed=0, seconds=0, trace=True, state=tmp_path, n=128)
    # the traced run's outputs are compared with the untraced run's
    assert [[r["traced"] for r in runs] for runs in record["runs"]] == [[False, True]]
    assert record["failed"] == 0
    metrics = record["metrics"]
    assert {k: run.unit_of(k) for k in metrics} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v is not None for v in metrics.values())
    for layer in run.LAYERS:
        assert f"{layer}.self_s" in metrics
    assert metrics["solvers.evolve_calls"] == 16
    assert metrics["grid.azimuthal_calls"] == 48
    assert metrics["solvers.fft2d_calls"] == 60
    assert metrics["fieldio.vxf_field_s"] > 0 and metrics["fieldio.csv_field_s"] == 0


def test_self_time_subtracts_covered_child_time_and_marks_missing_functions_absent():
    spans = [
        ["cli.main", "cli", 0.0, 10.0, -1],
        ["solvers.diffuse_spectral", "solvers", 1.0, 4.0, 0],
        ["grid.ComplexField2D.__post_init__", "grid", 3.0, 4.0, 1],
        ["solvers.diffuse_spectral", "solvers", 5.0, 6.0, 0],
    ]
    wrapped = ["cli.main", "solvers.diffuse_spectral", "grid.ComplexField2D.__post_init__"]
    out = run.layer_metrics({"spans": spans, "wrapped": wrapped, "counters": {}})
    assert out["cli.self_s"] == pytest.approx(6.0)
    assert out["solvers.self_s"] == pytest.approx(3.0)
    assert out["solvers.spectral_s"] == pytest.approx(4.0)
    assert out["solvers.fd_s"] is None and out["fieldio.self_s"] is None


def test_parse_importtime_counts_outermost_scipy_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       200 |        250 |     scipy",
        "import time:       300 |        550 |   scipy.signal",
        "import time:        10 |        660 | vortexdiff",
        "import time:         5 |          5 | site",
    ])
    total, scipy_total = run.parse_importtime(text)
    assert total == pytest.approx(665e-6)
    assert scipy_total == pytest.approx(550e-6)


def test_seed_draws_the_mode_and_keeps_the_work(tmp_path):
    plans = [workloads.generated_plan("cross_scheme", tmp_path / str(seed), seed) for seed in range(12)]
    assert {p.params["m"] for p in plans} == {0, 1, 2}
    assert {(p.params["n"], tuple(p.params["times"])) for p in plans} == {(512, (0.0, 0.125, 0.25, 0.5))}
    assert {sum(inv.samples for inv in p.invocations) for p in plans} == {3 * 512**2 * 4}
    again = workloads.generated_plan("cross_scheme", tmp_path / "again", 5)
    assert again.params == plans[5].params


def test_benchmark_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_session", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
