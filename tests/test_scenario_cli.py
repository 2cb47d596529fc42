import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vortexdiff as vd
from vortexdiff.cli import main

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def small_vortex_cfg(out_dir, extra=""):
    return f"""
mode.kind = lg
mode.m = 1
mode.w0 = 1.0
mode.P = 1.0
diffusion.D = 1.0
diffusion.times = [0, 0.05, 0.1, 0.15, 0.25]
grid.n = 64
grid.extent = 8
nbins = 48
outputs = snapshots, radial_profiles, coherence_factor, fidelity_trace, center_trace, nodes, fit
out_dir = {out_dir}
{extra}
"""


class TestRunScenario:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run"))
        manifest = vd.run_scenario(cfg, fmt="both")
        names = {e.path for e in manifest.entries}
        assert "rho12_000.vxf" in names
        assert "rho22_004.csv" in names
        assert "profile_002.csv" in names
        assert "cfactor_summary.csv" in names
        assert "fidelity.csv" in names
        assert "center.csv" in names
        assert "nodes.csv" in names
        assert "fit.csv" in names
        # manifest checksums match the files on disk
        for entry in manifest.entries:
            blob = (manifest.out_dir / entry.path).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry.sha256
            assert len(blob) == entry.bytes

    def test_fidelity_trace_contents(self, tmp_path):
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run"))
        manifest = vd.run_scenario(cfg)
        table = vd.read_table_csv(manifest.out_dir / "fidelity.csv")
        assert np.allclose(table["t"], [0, 0.05, 0.1, 0.15, 0.25])
        assert np.allclose(table["s"], 1 + 4 * table["t"])
        assert np.allclose(table["efficiency"], table["s"] ** -2.0, atol=1e-4)
        assert np.allclose(table["total_population"], table["total_population"][0], rtol=1e-3)

    def test_csv_headers_embed_config(self, tmp_path):
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run"))
        manifest = vd.run_scenario(cfg)
        text = (manifest.out_dir / "fidelity.csv").read_text()
        for line in vd.render_config(cfg).strip().splitlines():
            assert f"# config: {line}\n" in text

    def test_byte_identical_reruns(self, tmp_path):
        # identical config, run twice: every output byte must repeat
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "a"))
        ma = vd.run_scenario(cfg, fmt="both")
        first = {e.path: e.sha256 for e in ma.entries}
        first_manifest = ma.manifest_path.read_bytes()
        mb = vd.run_scenario(cfg, fmt="both")
        assert {e.path: e.sha256 for e in mb.entries} == first
        assert mb.manifest_path.read_bytes() == first_manifest

    def test_threads_match_serial(self, tmp_path):
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "serial"))
        m1 = vd.run_scenario(cfg, threads=1)
        serial = [e.sha256 for e in m1.entries]
        m4 = vd.run_scenario(cfg, threads=4)
        assert [e.sha256 for e in m4.entries] == serial

    def test_vxf_snapshots_agree_with_solver(self, tmp_path):
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run"))
        manifest = vd.run_scenario(cfg, fmt="vxf")
        dump = vd.read_field(manifest.out_dir / "rho12_004.vxf")
        field0 = vd.build_mode(cfg.mode, cfg.grid)
        expected = vd.diffuse_spectral(field0, 1.0, 0.25)
        assert np.array_equal(dump.values, expected.values)
        assert dump.time == 0.25

    def test_hole_refill_output(self, tmp_path):
        text = f"""
mode.kind = blocked_gaussian
mode.w0 = 1.0
mode.block_radius = 1.0
diffusion.D = 1.0
diffusion.times = [0, 0.1, 0.25]
grid.n = 128
grid.extent = 8
outputs = hole_refill
out_dir = {tmp_path / "blocked"}
"""
        manifest = vd.run_scenario(vd.parse_config(text))
        table = vd.read_table_csv(manifest.out_dir / "hole_refill.csv")
        assert table["refill_ratio"][0] == 0.0
        assert np.all(np.diff(table["refill_ratio"]) > 0)

    def test_bad_format_rejected(self, tmp_path):
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run"))
        with pytest.raises(ValueError):
            vd.run_scenario(cfg, fmt="json")

    @staticmethod
    def _fd_vortex_cfg(out_dir):
        return vd.parse_config(small_vortex_cfg(out_dir, "solver.scheme = fd\n"))

    def test_fd_threads_write_identical_manifest(self, tmp_path):
        cfg = self._fd_vortex_cfg(tmp_path / "fd")
        serial = vd.run_scenario(cfg, fmt="both", threads=1).manifest_path.read_bytes()
        threaded = vd.run_scenario(cfg, fmt="both", threads=4).manifest_path.read_bytes()
        assert threaded == serial

    def test_fd_snapshots_equal_single_time_evolution(self, tmp_path):
        # one march across all times must reproduce a fresh march to each time
        cfg = self._fd_vortex_cfg(tmp_path / "fd")
        manifest = vd.run_scenario(cfg, fmt="vxf")
        snap0 = vd.initial_snapshot(vd.build_mode(cfg.mode, cfg.grid))
        for i, t in enumerate(cfg.diffusion.times):
            single = vd.evolve_snapshot(snap0, cfg.diffusion.D, t, cfg.solver)
            rho12 = vd.read_field(manifest.out_dir / f"rho12_{i:03d}.vxf")
            rho22 = vd.read_field(manifest.out_dir / f"rho22_{i:03d}.vxf")
            assert rho12.time == t
            assert np.array_equal(rho12.values, single.rho12.values)
            assert np.array_equal(rho22.values, single.rho22)


class TestCliSimulate:
    def test_simulate_and_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out"))
        assert main(["simulate", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_out_dir_override(self, tmp_path):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "ignored"))
        assert main(["--out-dir", str(tmp_path / "forced"), "simulate", str(cfg_file)]) == 0
        assert (tmp_path / "forced" / "fidelity.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_strict_rejects_unknown_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out", extra="mode.waist = 2\n"))
        assert main(["simulate", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["exit_code"] == 2
        assert "mode.waist" in record["message"]

    def test_no_strict_downgrades_to_warning(self, tmp_path, capsys):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out", extra="mode.waist = 2\n"))
        assert main(["--no-strict", "simulate", str(cfg_file)]) == 0
        assert "mode.waist" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, capsys):
        assert main(["simulate", "/nonexistent/x.cfg"]) == 4

    def test_config_error_exit_code(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out").replace("[0, 0.05, 0.1, 0.15, 0.25]", "[0.3, 0.1]"))
        assert main(["simulate", str(cfg_file)]) == 2

    def test_non_finite_config_value_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out").replace("diffusion.D = 1.0", "diffusion.D = nan"))
        assert main(["simulate", str(cfg_file)]) == 2
        assert "diffusion.D must be finite" in capsys.readouterr().err

    def test_import_does_not_load_scipy(self):
        # scipy is a test-only dependency; the CLI must start without it
        probe = ("import vortexdiff.cli, sys; "
                 "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        subprocess.run([sys.executable, "-c", probe], env=env, check=True)

    def test_cli_reruns_byte_identical(self, tmp_path):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out"))
        assert main(["--out-dir", str(tmp_path / "r1"), "--format", "both", "simulate", str(cfg_file)]) == 0
        assert main(["--out-dir", str(tmp_path / "r2"), "--format", "both", "simulate", str(cfg_file)]) == 0
        files1 = sorted((tmp_path / "r1").iterdir())
        files2 = sorted((tmp_path / "r2").iterdir())
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            if f1.name == "manifest.json":
                continue  # embeds out_dir, which differs by construction here
            assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_threads_below_one_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "0", "simulate", str(cfg_file)])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCliAnalysis:
    def test_fit_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        times = np.linspace(0, 0.25, 6)
        values = (1 + 4 * times) ** -2.0
        vd.write_table_csv(trace, {"t": times, "efficiency": values})
        assert main(["fit", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "power law" in out
        assert "preferred" in out.splitlines()[0]

    def test_fit_on_exponential_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        times = np.linspace(0, 1, 8)
        vd.write_table_csv(trace, {"t": times, "value": np.exp(-3.0 * times)})
        assert main(["fit", str(trace)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "preferred" in lines[1]
        assert "3" in lines[1]

    def test_nodes_subcommand(self, tmp_path, capsys):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out"))
        assert main(["--out-dir", str(tmp_path / "nodes"), "nodes", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "node radii" in out
        table = vd.read_table_csv(tmp_path / "nodes" / "nodes.csv")
        assert np.all(table["radius"] == 0.0)  # p=0 vortex: center node only

    def test_compare_blocked(self, tmp_path, capsys):
        cfg_file = tmp_path / "b.cfg"
        cfg_file.write_text(f"""
mode.kind = blocked_gaussian
mode.w0 = 1.0
mode.block_radius = 1.0
diffusion.D = 1.0
diffusion.times = [0, 0.1, 0.25]
grid.n = 128
grid.extent = 8
outputs = hole_refill
out_dir = {tmp_path / "cmp"}
""")
        assert main(["compare-blocked", str(cfg_file)]) == 0
        table = vd.read_table_csv(tmp_path / "cmp" / "compare_blocked.csv")
        assert table["blocked_refill"][-1] > 0.5
        assert np.all(table["vortex_refill"] <= 1e-8)

    def test_compare_blocked_needs_blocked_mode(self, tmp_path):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out"))
        assert main(["compare-blocked", str(cfg_file)]) == 2

    def test_echo_subcommand(self, tmp_path, capsys):
        cfg_file = tmp_path / "e.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "echo", extra="quantum.beta = 1.0\n"))
        assert main(["echo", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "round-trip" in out
        table_path = tmp_path / "echo" / "echo_report.csv"
        data_lines = [
            ln for ln in table_path.read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        rows = dict(line.split(",") for line in data_lines[1:])
        assert float(rows["echo_roundtrip_l2_error"]) <= 1e-10
        assert float(rows["classical_amplification"]) > 1e6

    def test_echo_needs_quantum_params(self, tmp_path):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out"))
        assert main(["echo", str(cfg_file)]) == 2

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(f"""
mode.kind = lg
mode.m = 0
mode.w0 = 1.0
diffusion.D = 1.0
diffusion.times = [0, 0.05, 0.1, 0.15, 0.25]
grid.n = 128
grid.extent = 16
out_dir = {tmp_path / "sweep"}
""")
        assert main(["sweep", "--param", "m=0..4", str(cfg_file)]) == 0
        table = vd.read_table_csv(tmp_path / "sweep" / "sweep_fidelity.csv")
        assert set(table) == {"s"} | {f"efficiency_m{m}" for m in range(5)}
        # efficiency strictly decreasing in m at every positive time
        for i in range(1, 5):
            row = [table[f"efficiency_m{m}"][i] for m in range(5)]
            assert np.all(np.diff(row) < 0)

    def test_sweep_bad_param(self, tmp_path):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out"))
        assert main(["sweep", "--param", "w0=0..2", str(cfg_file)]) == 2

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        # a 4-point trace cannot be fitted; the failure maps to exit 3
        trace = tmp_path / "short.csv"
        vd.write_table_csv(trace, {"t": [0, 0.1, 0.2, 0.3], "value": [1, 0.9, 0.8, 0.7]})
        assert main(["fit", str(trace)]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["exit_code"] == 3

    def test_fd_scheme_scenario_end_to_end(self, tmp_path):
        def cfg_text(scheme, out):
            return f"""
mode.kind = lg
mode.m = 1
diffusion.D = 1.0
diffusion.times = [0, 0.1, 0.25]
grid.n = 64
grid.extent = 8
solver.scheme = {scheme}
outputs = fidelity_trace
out_dir = {out}
"""
        m_fd = vd.run_scenario(vd.parse_config(cfg_text("fd", tmp_path / "fd")))
        m_sp = vd.run_scenario(vd.parse_config(cfg_text("spectral", tmp_path / "sp")))
        eff_fd = vd.read_table_csv(m_fd.out_dir / "fidelity.csv")["efficiency"]
        eff_sp = vd.read_table_csv(m_sp.out_dir / "fidelity.csv")["efficiency"]
        # coarse 64-point FD tracks the exact step at the percent level
        assert np.allclose(eff_fd, eff_sp, rtol=2e-2)
        assert not np.array_equal(eff_fd, eff_sp)  # genuinely different scheme


class TestShippedScenarios:
    @pytest.mark.parametrize("name", ["vortex.cfg", "gaussian.cfg", "blocked.cfg", "plane_wave.cfg", "echo.cfg", "sweep.cfg"])
    def test_scenarios_parse(self, name):
        cfg = vd.parse_config((SCENARIOS / name).read_text())
        assert cfg.grid.n >= 8

    def test_blocked_scenario_runs(self, tmp_path):
        cfg = vd.parse_config((SCENARIOS / "blocked.cfg").read_text())
        manifest = vd.run_scenario(cfg, out_dir=tmp_path / "blocked")
        table = vd.read_table_csv(manifest.out_dir / "hole_refill.csv")
        assert table["refill_ratio"][0] == 0.0
        assert table["refill_ratio"][-1] > 0.5

    @pytest.mark.parametrize("name,m,population", [
        ("vortex.cfg", 1, vd.population_m1),
        ("gaussian.cfg", 0, vd.population_m0),
    ])
    def test_profile_curves_match_closed_forms(self, tmp_path, name, m, population):
        # the emitted radial curves are the figure-style |rho12|, rho22, f;
        # oracle = the closed-form fields pushed through the same binning,
        # so this isolates what the runner adds (evolution, reduction, CSV)
        cfg = vd.parse_config((SCENARIOS / name).read_text())
        manifest = vd.run_scenario(cfg, out_dir=tmp_path / "run")
        t = cfg.diffusion.times[1]  # w0^2/(8D)
        grid = cfg.grid
        spec = cfg.mode
        r, theta = grid.radius(), grid.theta()
        coh_field = vd.ComplexField2D(
            grid, vd.coherence_closed_form(r, theta, t, spec, cfg.diffusion.D)
        )
        pop_field = vd.ComplexField2D(
            grid, population(r, t, spec.w0, spec.P, cfg.diffusion.D).astype(complex)
        )
        coh_prof = vd.azimuthal_average(coh_field, cfg.nbins)
        pop_prof = vd.azimuthal_average(pop_field, cfg.nbins)

        prof = vd.read_table_csv(manifest.out_dir / "profile_001.csv")
        assert np.allclose(prof["r"], coh_prof.radii)
        coh_curve = np.sqrt(coh_prof.mean_intensity)
        pop_curve = pop_prof.mean_amplitude.real
        assert np.max(np.abs(prof["rho12_abs"] - coh_curve)) <= 1e-6 * coh_curve.max()
        assert np.max(np.abs(prof["rho22"] - pop_curve)) <= 1e-5 * pop_curve.max()

        cfact = vd.read_table_csv(manifest.out_dir / "cfactor_001.csv")
        f_oracle = np.clip(
            (coh_prof.mean_intensity + cfg.eta) / (np.maximum(pop_curve, 0.0) + cfg.eta),
            0.0, 1.0,
        )
        assert np.max(np.abs(cfact["coherence_factor"] - f_oracle)) <= 1e-5
