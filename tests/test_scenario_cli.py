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
from vortexdiff.grid import radial_mean

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

    @pytest.mark.parametrize("scheme", ["spectral", "fd"])
    def test_byte_identical_reruns(self, tmp_path, scheme):
        # identical config, run twice: every output byte must repeat
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "a", f"solver.scheme = {scheme}\n"))
        ma = vd.run_scenario(cfg, fmt="both")
        first = {e.path: e.sha256 for e in ma.entries}
        first_manifest = ma.manifest_path.read_bytes()
        mb = vd.run_scenario(cfg, fmt="both")
        assert {e.path: e.sha256 for e in mb.entries} == first
        assert mb.manifest_path.read_bytes() == first_manifest

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

    def test_fit_csv_layout(self, tmp_path):
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run"))
        manifest = vd.run_scenario(cfg, fmt="vxf")
        lines = (manifest.out_dir / "fit.csv").read_text().splitlines()
        assert lines[0] == "# vortexdiff decay-law fits"
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert rows[0] == "model,amplitude,parameter,rms_log_residual,preferred"
        fields = [row.split(",") for row in rows[1:]]
        assert [f[0] for f in fields] == ["power_law", "exponential"]
        assert [f[-1] for f in fields] == ["1", "0"]  # the vortex decays as a power law
        assert float(fields[0][2]) == pytest.approx(-2.0, abs=1e-3)

    def test_each_reduction_runs_once_per_snapshot(self, tmp_path, monkeypatch):
        import vortexdiff.grid as grid
        import vortexdiff.scenario as scenario

        calls = {"azimuthal": 0, "radial": 0, "coherence": 0, "binned": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        binned = grid._binned

        def weighted_binned(idx, weights, nbins):
            # a weighted sum is a pass over the grid; the cached bin-count
            # build (weights None) is not
            calls["binned"] += weights is not None
            return binned(idx, weights, nbins)

        monkeypatch.setattr(scenario, "azimuthal_average",
                            counted("azimuthal", scenario.azimuthal_average))
        monkeypatch.setattr(scenario, "radial_mean", counted("radial", scenario.radial_mean))
        monkeypatch.setattr(scenario, "coherence_factor_field",
                            counted("coherence", scenario.coherence_factor_field))
        monkeypatch.setattr(grid, "_binned", weighted_binned)
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run"))
        vd.run_scenario(cfg, fmt="vxf")
        # per snapshot: the rho12 profile, the rho22 radial mean and the
        # coherence map, once each; the two radial reductions are one
        # weighted binned sum each, of |rho12|^2 and of rho22
        assert calls == {"azimuthal": 5, "radial": 5, "coherence": 5, "binned": 10}

    @pytest.mark.parametrize("scheme", ["spectral", "kernel", "fd"])
    def test_run_holds_one_evolved_snapshot_at_a_time(self, tmp_path, monkeypatch, scheme):
        import weakref

        import vortexdiff.solvers as solvers

        alive = []  # weak references to each evolved snapshot and its arrays
        seen = {"snapshots": 0, "older_alive": 0}

        def live():
            alive[:] = [ref for ref in alive if ref() is not None]
            return len(alive)

        def tracked(*args, **kwargs):
            # no earlier snapshot, nor any of its arrays, survives to the next one
            seen["older_alive"] = max(seen["older_alive"], live())
            snap = vd.StateSnapshot(*args, **kwargs)
            alive.extend(weakref.ref(x) for x in (snap, snap.rho12.values, snap.rho22))
            seen["snapshots"] += 1
            return snap

        ifft2 = np.fft.ifft2

        def probed_ifft2(*args, **kwargs):
            # nor while the next time's transforms run
            seen["older_alive"] = max(seen["older_alive"], live())
            return ifft2(*args, **kwargs)

        monkeypatch.setattr(solvers, "StateSnapshot", tracked)
        monkeypatch.setattr(np.fft, "ifft2", probed_ifft2)
        times = "[0, 0.03, 0.06, 0.09, 0.12, 0.15, 0.2, 0.25]"
        text = small_vortex_cfg(tmp_path / "run", f"solver.scheme = {scheme}\n").replace(
            "grid.n = 64", "grid.n = 128").replace("[0, 0.05, 0.1, 0.15, 0.25]", times)
        vd.run_scenario(vd.parse_config(text), fmt="vxf")
        assert seen == {"snapshots": 8, "older_alive": 0}

    def test_failed_run_leaves_no_stale_manifest(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text('{"files": []}\n')
        (out / "fidelity.csv").mkdir()  # the fidelity table cannot be written
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(out))
        assert main(["--format", "vxf", "simulate", str(cfg_file)]) == 4
        assert not (out / "manifest.json").exists()
        # a numeric failure: on this grid the m = 0 mode's rho22 dips to -7.7e-6
        (out / "manifest.json").write_text('{"files": []}\n')
        rough = small_vortex_cfg(out).replace("mode.m = 1", "mode.m = 0")
        rough = rough.replace("grid.extent = 8", "grid.extent = 16").replace(
            "[0, 0.05, 0.1, 0.15, 0.25]", f"[0, {1 / 15!r}]").replace(", fit\n", "\n")
        cfg_file.write_text(rough)
        capsys.readouterr()
        assert main(["--format", "vxf", "simulate", str(cfg_file)]) == 3
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
        assert "rho22 has negative values" in message and "min -7.662e-06" in message
        assert not (out / "manifest.json").exists()

    def test_bad_format_rejected(self, tmp_path):
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run"))
        with pytest.raises(ValueError):
            vd.run_scenario(cfg, fmt="json")

    def test_efficiency_equals_retrieval_efficiency(self, tmp_path):
        # the run computes its reference norm once and reads each snapshot's
        # |rho12|^2 from the physicality check: the bytes of the public helper
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run"))
        table = vd.read_table_csv(vd.run_scenario(cfg).out_dir / "fidelity.csv")
        f0 = vd.build_mode(cfg.mode, cfg.grid)
        snap0 = vd.initial_snapshot(f0)
        evolved = [vd.evolve_snapshot(snap0, cfg.diffusion.D, t, cfg.solver).rho12
                   for t in cfg.diffusion.times]
        expected = [vd.retrieval_efficiency(f, f0) for f in evolved]
        assert list(table["efficiency"]) == expected

    def test_manifest_hash_is_chunked_without_changing_the_digest(self, tmp_path):
        from vortexdiff.scenario import _HASH_CHUNK, _sha256

        for size in (0, _HASH_CHUNK, 2 * _HASH_CHUNK + 7):
            blob = bytes(range(256)) * (size // 256) + b"t" * (size % 256)
            path = tmp_path / f"blob{size}"
            path.write_bytes(blob)
            assert _sha256(path) == (hashlib.sha256(blob).hexdigest(), size)

    def test_fd_snapshots_equal_single_time_evolution(self, tmp_path):
        # one march across all times must reproduce a fresh march to each time
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "fd", "solver.scheme = fd\n"))
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

    def test_unresolved_kernel_time_fails_before_any_output(self, tmp_path, capsys):
        # dx = 1/16 resolves the kernel only for t >= 1/1024
        out = tmp_path / "out"
        cfg_file = tmp_path / "k.cfg"
        cfg_file.write_text(small_vortex_cfg(out, "solver.scheme = kernel\n").replace(
            "grid.n = 64", "grid.n = 256").replace(
            "[0, 0.05, 0.1, 0.15, 0.25]", "[0.0, 0.0005, 0.25]").replace(", fit\n", "\n"))
        assert main(["--format", "vxf", "simulate", str(cfg_file)]) == 2
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
        assert message.startswith("line 7: diffusion.times: kernel unresolved")
        assert not out.exists()

    def test_threads_option_still_accepted(self, tmp_path):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out"))
        out = tmp_path / "threads2"
        assert main(["--out-dir", str(out), "--format", "vxf", "--threads", "2",
                     "simulate", str(cfg_file)]) == 0
        assert (out / "manifest.json").exists()

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

    @pytest.mark.parametrize("ring", [False, True])
    def test_nodes_rows_match_simulate(self, tmp_path, capsys, ring):
        if ring:  # LG_1^1: a centre node, and a ring node that the fine bins resolve
            cfg_file = tmp_path / "ring.cfg"
            cfg_file.write_text(small_vortex_cfg(tmp_path / "unused").replace(
                "mode.m = 1", "mode.m = 1\nmode.p = 1").replace(
                "[0, 0.05, 0.1, 0.15, 0.25]", "[0, 0.03, 0.0625]").replace(
                "grid.n = 64", "grid.n = 512").replace(
                "nbins = 48", "nbins = 400").replace(", fit", ""))
        else:
            cfg_file = SCENARIOS / "vortex.cfg"
        assert main(["--format", "vxf", "--out-dir", str(tmp_path / "sim"),
                     "simulate", str(cfg_file)]) == 0
        assert main(["--out-dir", str(tmp_path / "nodes"), "nodes", str(cfg_file)]) == 0

        def rows(path):
            return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]

        expected = rows(tmp_path / "sim" / "nodes.csv")
        assert rows(tmp_path / "nodes" / "nodes.csv") == expected
        assert expected[0] == "t,node_index,radius"
        if ring:
            radii = vd.read_table_csv(tmp_path / "sim" / "nodes.csv")["radius"]
            assert np.any(radii > 0.5)

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

    def test_fit_on_fit_table_is_format_error(self, tmp_path, capsys):
        # fit.csv carries model-name labels; fit reads numeric traces only
        manifest = vd.run_scenario(vd.parse_config(small_vortex_cfg(tmp_path / "run")), fmt="vxf")
        assert main(["fit", str(manifest.out_dir / "fit.csv")]) == 4
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "FieldFormatError"
        assert record["message"] == "column 'model', row 1: 'power_law' is not a number"

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
        coh_prof = vd.azimuthal_average(coh_field, cfg.nbins)
        pop_curve = radial_mean(population(r, t, spec.w0, spec.P, cfg.diffusion.D), grid, cfg.nbins)

        prof = vd.read_table_csv(manifest.out_dir / "profile_001.csv")
        assert np.allclose(prof["r"], coh_prof.radii)
        coh_curve = np.sqrt(coh_prof.mean_intensity)
        assert np.max(np.abs(prof["rho12_abs"] - coh_curve)) <= 1e-6 * coh_curve.max()
        assert np.max(np.abs(prof["rho22"] - pop_curve)) <= 1e-5 * pop_curve.max()

        cfact = vd.read_table_csv(manifest.out_dir / "cfactor_001.csv")
        f_oracle = np.clip(
            (coh_prof.mean_intensity + cfg.eta) / (np.maximum(pop_curve, 0.0) + cfg.eta),
            0.0, 1.0,
        )
        assert np.max(np.abs(cfact["coherence_factor"] - f_oracle)) <= 1e-5
