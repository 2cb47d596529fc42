import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vortexdiff as vd
from vortexdiff.cli import main
from vortexdiff.grid import radial_mean

from helpers import population_m0, population_m1

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


def listed_files_match(out):
    """The file names manifest.json lists, after checking each entry's
    sha256 and byte count against the file on disk."""
    listed = json.loads((out / "manifest.json").read_text())["files"]
    for entry in listed:
        blob = (out / entry["path"]).read_bytes()
        assert (entry["sha256"], entry["bytes"]) == (hashlib.sha256(blob).hexdigest(), len(blob)), entry
    return [entry["path"] for entry in listed]


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

    @pytest.mark.parametrize("kind", [k for k in vd.OutputKind if k is not vd.OutputKind.SNAPSHOTS],
                             ids=lambda k: k.value)
    def test_each_table_runs_alone(self, tmp_path, kind):
        # run_scenario computes only the reductions _TABLES declares for the
        # requested tables, and releases each snapshot after them, so a
        # table that reads an undeclared reduction fails when run alone
        from vortexdiff.scenario import _TABLES

        assert kind in _TABLES
        if kind is vd.OutputKind.HOLE_REFILL:  # a blocked Gaussian, as in test_hole_refill_output
            text = f"""
mode.kind = blocked_gaussian
mode.block_radius = 1.0
diffusion.D = 1.0
diffusion.times = [0, 0.1, 0.25]
grid.n = 128
grid.extent = 8
out_dir = {tmp_path / "run"}
"""
        else:
            text = small_vortex_cfg(tmp_path / "run")
        text = "\n".join(ln for ln in text.splitlines() if not ln.startswith("outputs"))
        text += f"\noutputs = {kind.value}\n"
        manifest = vd.run_scenario(vd.parse_config(text), fmt="csv")
        on_disk = sorted(p.name for p in manifest.out_dir.iterdir() if p.name != "manifest.json")
        assert on_disk and [e.path for e in manifest.entries] == on_disk
        for entry in manifest.entries:
            blob = (manifest.out_dir / entry.path).read_bytes()
            assert (hashlib.sha256(blob).hexdigest(), len(blob)) == (entry.sha256, entry.bytes)

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

        walked, means = [], [0]
        walk, mean = scenario.SnapshotDiagnostics._walk, grid.RadialSums.mean

        def counted_walk(self, names):
            walked.append(set(names))
            return walk(self, names)

        def counted_mean(self):
            means[0] += 1
            return mean(self)

        monkeypatch.setattr(scenario.SnapshotDiagnostics, "_walk", counted_walk)
        monkeypatch.setattr(grid.RadialSums, "mean", counted_mean)
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run"))
        vd.run_scenario(cfg, fmt="vxf")
        # per snapshot: one row-block pass for the rho12 profile, the rho22
        # radial mean, the efficiency and the coherence factor, whose two
        # radial reductions are one RadialSums each
        assert walked == [{"profile", "rho22_radial", "efficiency", "cfactor"}] * 5
        assert means[0] == 10

    @pytest.mark.parametrize("scheme", ["spectral", "kernel", "fd"])
    def test_run_holds_one_evolved_snapshot_at_a_time(self, tmp_path, monkeypatch, scheme):
        # While snapshot k evolves and is built, nothing of an earlier
        # snapshot is alive: not the snapshot object, and not its rho12 or
        # rho22 arrays, in a csv run, in one without dumps, or in a VXF run,
        # whose writer thread is handed those arrays.  Each VXF write is
        # slowed by a fixed sleep, far longer than a snapshot's reductions
        # at this size, so a run that evolved snapshot k + 1 before
        # snapshot k's dumps were on disk would be seen doing so.
        import time
        import weakref

        import vortexdiff.scenario as scenario
        import vortexdiff.solvers as solvers

        times = [0, 0.03, 0.06, 0.09, 0.12, 0.15, 0.2, 0.25]
        alive = []  # (weak reference, snapshot index, which object)
        seen = {"snapshots": 0, "held": set(), "writes": 0}

        def probe():
            # what is alive of each earlier snapshot, by how many snapshots back
            k = seen["snapshots"]
            alive[:] = [item for item in alive if item[0]() is not None]
            seen["held"] |= {(k - i, what) for _, i, what in alive}

        def tracked(*args, **kwargs):
            probe()
            snap = vd.StateSnapshot(*args, **kwargs)
            k = seen["snapshots"]
            alive.extend((weakref.ref(x), k, what) for x, what in (
                (snap, "snapshot"), (snap.rho12.values, "rho12"), (snap.rho22, "rho22")))
            seen["snapshots"] += 1
            return snap

        ifft = np.fft.ifft

        def probed_ifft(*args, **kwargs):
            probe()  # and while the next time's transforms run
            return ifft(*args, **kwargs)

        write_field = scenario.write_field

        def slow_write_field(path, values, grid, time_):
            time.sleep(0.05)
            write_field(path, values, grid, time_)
            seen["writes"] += 1

        monkeypatch.setattr(solvers, "StateSnapshot", tracked)
        monkeypatch.setattr(np.fft, "ifft", probed_ifft)
        monkeypatch.setattr(scenario, "write_field", slow_write_field)
        text = small_vortex_cfg(tmp_path / "run", f"solver.scheme = {scheme}\n").replace(
            "grid.n = 64", "grid.n = 128").replace("[0, 0.05, 0.1, 0.15, 0.25]", str(times))
        for run, fmt in (("vxf", "vxf"), ("csv", "csv"), ("no_snapshots", "vxf")):
            seen.update(snapshots=0, held=set(), writes=0)
            cfg_text = text.replace("snapshots, ", "") if run == "no_snapshots" else text
            vd.run_scenario(vd.parse_config(cfg_text), fmt=fmt, out_dir=tmp_path / run)
            assert seen["snapshots"] == len(times), run
            assert seen["writes"] == (2 * len(times) if run == "vxf" else 0), run
            assert seen["held"] == set(), run

    @pytest.mark.parametrize("scheme", ["spectral", "fd", "kernel"])
    def test_stream_holds_only_what_it_still_needs(self, tmp_path, monkeypatch, scheme):
        # A stored field goes once its spectrum serves every later time:
        # from the first transformed snapshot on for spectral and FD, whose
        # every nonzero time has the grid's side.  The kernel pads each time
        # by its own half-width (here to sides 80, 80, 90, 90), so the stored
        # fields stay until only one side is left.  The stored snapshot is
        # the built mode itself, and every evolved rho22 is clipped in place,
        # so the stream forms no unclipped twin.  While the consumer reduces
        # a snapshot, the stream holds no multiplier.
        import weakref

        import vortexdiff.scenario as scenario
        import vortexdiff.solvers as solvers

        stored, clipped, factors, sides = [], [], [], []
        build_mode, fourier_stream = scenario.build_mode, solvers._fourier_stream

        def tracked_build(spec, grid):
            mode = build_mode(spec, grid)
            stored.append(weakref.ref(mode.values))
            return mode

        def tracked_stored(time, rho12, rho22, **kwargs):
            assert rho12.values is stored[0]()  # the mode itself, not a copy
            stored.append(weakref.ref(rho22))
            return vd.StateSnapshot(time, rho12, rho22, **kwargs)

        def tracked_snapshot(time, rho12, rho22, **kwargs):
            residues = bool(np.any(rho22 <= 0.0))
            snap = vd.StateSnapshot(time, rho12, rho22, **kwargs)
            assert snap.rho22 is rho22  # no second array
            clipped.append(residues and not np.any(np.signbit(rho22)))
            return snap

        def tracked_stream(grid, fields, times, stream_sides, multiplier):
            sides.extend(stream_sides)

            def tracked_multiplier(t, side):
                factor = multiplier(t, side)
                factors.append(weakref.ref(factor))
                return factor
            return fourier_stream(grid, fields, times, stream_sides, tracked_multiplier)

        monkeypatch.setattr(scenario, "build_mode", tracked_build)
        monkeypatch.setattr(scenario, "StateSnapshot", tracked_stored)
        monkeypatch.setattr(solvers, "StateSnapshot", tracked_snapshot)
        monkeypatch.setattr(solvers, "_fourier_stream", tracked_stream)
        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run", f"solver.scheme = {scheme}\n"))
        for k, d in enumerate(scenario.stream_diagnostics(cfg)):
            # the first time from which one side serves the rest of the run
            last_side = min(i for i in range(len(sides)) if len(set(sides[i:])) == 1)
            assert [ref() is not None for ref in stored] == [k < last_side] * 2, k
            assert [ref() for ref in factors] == [None] * len(factors), k
            d.profile, d.rho22_radial, d.cfactor, d.efficiency, d.population, d.center
        assert last_side == (3 if scheme == "kernel" else 1)
        assert clipped == [True] * len(cfg.diffusion.times)  # every rho22 had residues to clip
        assert len(factors) == len(cfg.diffusion.times) - 1

    @pytest.mark.parametrize("run", ["csv", "no_snapshots"])
    @pytest.mark.parametrize("scheme", ["spectral", "fd"])
    def test_run_peak_memory(self, tmp_path, scheme, run):
        # Neither run starts a writer thread.  The first time builds the held
        # spectra (rho12's and rho22's half), which serve the second too, so
        # the stored fields go.  A snapshot (rho12, rho22, |rho12|^2) and its
        # reductions' maps come and go beside them: 4.5 to 5.0 complex n^2
        # arrays.  A csv field dump is formatted a block of rows at a time,
        # at most fieldio._BLOCK numbers, so it adds no n^2 label columns;
        # the block's temporaries read 5.18 at spectral-csv, against 5.02
        # for one Python row at a time.  Holding the stored fields, the
        # multiplier or the unclipped rho22 as well read 7.0 to 7.6.
        import tracemalloc

        n = 256
        text = small_vortex_cfg(tmp_path / "run", f"solver.scheme = {scheme}\n").replace(
            "grid.n = 64", f"grid.n = {n}").replace(
            "[0, 0.05, 0.1, 0.15, 0.25]", "[0.1, 0.25]").replace(", fit", "")
        if run == "no_snapshots":
            text = text.replace("snapshots, ", "")
        cfg = vd.parse_config(text)
        tracemalloc.start()
        try:
            vd.run_scenario(cfg, fmt="csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 16 * n**2

    @pytest.mark.parametrize("run", ["vxf", "no_snapshots"])
    @pytest.mark.parametrize("scheme", ["spectral", "fd"])
    def test_run_memory_budget(self, tmp_path, scheme, run):
        # The run's budget is MEMORY_BUDGET = 3.4 complex n^2 arrays: the
        # held spectra (1.5) and the snapshot (rho12 and rho22, 1.5), beside
        # the one-byte radial bin map (1/16) and row blocks.  No mode,
        # transform, multiplier, check or reduction forms another full-grid
        # array: each field comes back inside its own spectrum's buffer, the
        # check clips rho22 in place, and one row-block pass reduces each
        # snapshot.  The VXF run hands each snapshot to the writer thread,
        # which reads its dumps back in small chunks.  The bin map is built
        # inside the traced run, and the writer thread's modules are loaded
        # before it: the budget is arrays.  With a whole |rho12|^2 buffer,
        # an unclipped twin and an irfft2 output beside its spectrum, these
        # runs read 4.08 to 4.10.
        import tracemalloc
        from concurrent.futures import ThreadPoolExecutor  # noqa: F401

        from vortexdiff.grid import radial_bins
        from vortexdiff.solvers import MEMORY_BUDGET

        n = 256
        text = small_vortex_cfg(tmp_path / "run", f"solver.scheme = {scheme}\n").replace(
            "grid.n = 64", f"grid.n = {n}").replace(
            "[0, 0.05, 0.1, 0.15, 0.25]", "[0.1, 0.25]").replace(", fit", "")
        if run == "no_snapshots":
            text = text.replace("snapshots, ", "")
        cfg = vd.parse_config(text)
        radial_bins.cache_clear()
        tracemalloc.start()
        try:
            vd.run_scenario(cfg, fmt="vxf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= MEMORY_BUDGET * 16 * n**2

    def test_one_abs_per_evolved_snapshot(self, tmp_path, monkeypatch):
        # |rho12| is formed whole once per run, for the stored rho22, which
        # is also the efficiency's reference; at most one per evolved
        # snapshot, and in fact none: the physicality check and the
        # reductions form |rho12|^2 a row block at a time, which is not
        # counted
        import vortexdiff.scenario as scenario

        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run").replace("grid.n = 64", "grid.n = 128"))
        n, calls, at_stored = cfg.grid.n, [0], []
        absolute, evolve_snapshots = np.abs, scenario.evolve_snapshots

        def counted_abs(x, *args, **kwargs):
            calls[0] += np.shape(x) == (n, n)
            return absolute(x, *args, **kwargs)

        def marked_evolve(snap, *args):
            at_stored.append(calls[0])
            return evolve_snapshots(snap, *args)

        monkeypatch.setattr(np, "abs", counted_abs)
        monkeypatch.setattr(scenario, "evolve_snapshots", marked_evolve)
        vd.run_scenario(cfg, fmt="both")
        assert at_stored == [1]
        assert calls[0] - at_stored[0] == 0

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

    @pytest.mark.parametrize("case", ["at_hand_off", "at_final_join", "before_a_later_error"])
    def test_failed_vxf_write_exits_as_a_serial_run(self, tmp_path, monkeypatch, capsys, case):
        # the writer thread's OSError re-raises before the next snapshot is
        # built, at the first snapshot or at the last, with its own type and
        # message; it also wins over a later failure of the main thread in
        # the same snapshot's reductions, as it would serially
        import threading

        import vortexdiff.scenario as scenario
        import vortexdiff.solvers as solvers

        fail_at = 10 if case == "at_final_join" else 2  # 5 times, two dumps each
        write_field, calls = scenario.write_field, []

        def failing_write_field(path, values, grid, time):
            calls.append(path.name)
            if len(calls) == fail_at:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            write_field(path, values, grid, time)

        def failing_map(*args, **kwargs):
            raise ValueError("a later failure of the main thread")

        def counted_snapshot(*args, **kwargs):
            built[0] += 1
            return vd.StateSnapshot(*args, **kwargs)

        built = [0]  # evolved snapshots built
        monkeypatch.setattr(scenario, "write_field", failing_write_field)
        monkeypatch.setattr(solvers, "StateSnapshot", counted_snapshot)
        if case == "before_a_later_error":
            monkeypatch.setattr(scenario, "coherence_factor_values", failing_map)
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text('{"files": []}\n')
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(out))
        threads = threading.active_count()
        assert main(["--format", "vxf", "simulate", str(cfg_file)]) == 4
        failed = out / calls[-1]
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "OSError", "exit_code": 4,
                          "message": f"[Errno {errno.ENOSPC}] No space left on device: '{failed}'"}
        assert failed.name == ("rho22_004.vxf" if case == "at_final_join" else "rho22_000.vxf")
        assert built[0] == (5 if case == "at_final_join" else 1)
        assert not (out / "manifest.json").exists()
        assert threading.active_count() == threads

    def test_only_a_run_that_dumps_vxf_starts_a_thread(self, tmp_path, monkeypatch):
        import threading

        started, start = [], threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        text = small_vortex_cfg(tmp_path / "unused")
        no_snapshots = text.replace("snapshots, ", "")
        for run, fmt, cfg_text, threads in [("csv", "csv", text, 0),
                                            ("vxf_without_snapshots", "vxf", no_snapshots, 0),
                                            ("both_without_snapshots", "both", no_snapshots, 0),
                                            ("vxf", "vxf", text, 1), ("both", "both", text, 1)]:
            started.clear()
            vd.run_scenario(vd.parse_config(cfg_text), fmt=fmt, out_dir=tmp_path / run)
            assert len(started) == threads, run
            assert not any(thread.is_alive() for thread in started), run

    def test_both_formats_manifest_matches_every_file_on_disk(self, tmp_path):
        # CSV files are hashed as written, VXF dumps read back on the writer thread
        manifest = vd.run_scenario(vd.parse_config(small_vortex_cfg(tmp_path / "run")), fmt="both")
        on_disk = sorted(p.name for p in manifest.out_dir.iterdir() if p.name != "manifest.json")
        listed = json.loads(manifest.manifest_path.read_text())["files"]
        assert [entry["path"] for entry in listed] == on_disk
        assert sum(name.endswith(".vxf") for name in on_disk) == 10
        for entry in listed:
            blob = (manifest.out_dir / entry["path"]).read_bytes()
            assert (entry["sha256"], entry["bytes"]) == (hashlib.sha256(blob).hexdigest(), len(blob))

    def test_csv_files_are_hashed_as_written(self, tmp_path, monkeypatch):
        # a CSV file's digest comes from its writer; only VXF dumps are read back
        import vortexdiff.scenario as scenario

        read_back = []
        sha256 = scenario._sha256
        monkeypatch.setattr(scenario, "_sha256", lambda path: read_back.append(path) or sha256(path))
        manifest = vd.run_scenario(vd.parse_config(small_vortex_cfg(tmp_path / "run")), fmt="both")
        assert read_back and all(path.suffix == ".vxf" for path in read_back)
        for entry in manifest.entries:
            blob = (manifest.out_dir / entry.path).read_bytes()
            assert (entry.sha256, entry.bytes) == (hashlib.sha256(blob).hexdigest(), len(blob))

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

    def test_one_pass_keeps_the_library_reductions(self, tmp_path):
        # each snapshot's one row-block pass gives the bytes of
        # azimuthal_average, radial_mean and the coherence factor's centre
        # sample; its sums of per-block sums (the efficiency and the
        # weighted coherence factor) are the whole-grid np.sum's to rounding.
        # n = 200 is not a multiple of the block's rows
        from vortexdiff.grid import radial_mean
        from vortexdiff.scenario import stream_diagnostics

        cfg = vd.parse_config(small_vortex_cfg(tmp_path / "run").replace("grid.n = 64", "grid.n = 200"))
        i0 = cfg.grid.origin_index
        for d in stream_diagnostics(cfg):
            snap = d.snap
            d.compute(("profile", "rho22_radial", "efficiency", "cfactor"))
            profile = vd.azimuthal_average(snap.rho12, cfg.nbins)
            assert d.profile.radii.tobytes() == profile.radii.tobytes()
            assert d.profile.mean_intensity.tobytes() == profile.mean_intensity.tobytes()
            assert d.rho22_radial.tobytes() == radial_mean(snap.rho22, cfg.grid, cfg.nbins).tobytes()
            field = vd.coherence_factor_field(snap, cfg.eta)
            assert d.cfactor[1] == field.values[i0, i0]
            assert d.cfactor[0] == pytest.approx(field.weighted_average, rel=1e-15, abs=0)
            energy = float(np.sum(np.abs(snap.rho12.values) ** 2))
            assert d.efficiency == pytest.approx(energy / d.reference, rel=1e-15, abs=0)

    def test_manifest_hash_is_chunked_without_changing_the_digest(self, tmp_path):
        from vortexdiff.scenario import _HASH_CHUNK, _sha256

        for size in (0, _HASH_CHUNK, 2 * _HASH_CHUNK + 7):
            blob = bytes(range(256)) * (size // 256) + b"t" * (size % 256)
            path = tmp_path / f"blob{size}"
            path.write_bytes(blob)
            assert _sha256(path) == (hashlib.sha256(blob).hexdigest(), size)

    def test_fd_snapshots_equal_single_time_evolution(self, tmp_path):
        # the FD stream across all times must reproduce a step to each time alone
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

    @pytest.mark.parametrize("key,lines", [
        ("mode.amp", ["mode.amp = 1e200+0j"]),
        ("mode.amp", ["mode.amp = 1.7e308+1.7e308j"]),  # abs(amp) itself overflows
        ("mode.P", ["mode.P = 1e300", "mode.w0 = 1e-5"]),
    ])
    def test_config_beyond_float64_fails_at_parse_time(self, tmp_path, capsys, key, lines):
        # copies of sweep.cfg whose peak intensity times n^2 overflows: a
        # config error naming the key and its line, before any directory is
        # made or any array overflows
        import warnings

        text = (SCENARIOS / "sweep.cfg").read_text()
        for line in lines:
            name = line.split(" =")[0]
            text = re.sub(rf"(?m)^{re.escape(name)} .*$", line, text)
            if line not in text:
                text += line + "\n"
        cfg_file, out = tmp_path / "overflow.cfg", tmp_path / "out"
        cfg_file.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--out-dir", str(out), "simulate", str(cfg_file)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        line = next(i for i, ln in enumerate(text.splitlines(), 1) if ln.startswith(lines[0]))
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"line {line}: {key}: peak intensity times n^2")
        assert not out.exists()

    def test_power_near_the_float64_limit_runs(self, tmp_path):
        # P = 1e308 with a waist of 1e100 keeps every field and sum finite
        # (peak intensity 6.4e107); the amplitude's sqrt(2 P / pi) must not
        # form 2 P, which overflows
        import warnings

        text = (SCENARIOS / "sweep.cfg").read_text()
        for line in ("mode.P = 1e308", "mode.w0 = 1e100", "grid.extent = 1e101", "grid.n = 64",
                     "outputs = fidelity_trace"):
            text = re.sub(rf"(?m)^{re.escape(line.split(' =')[0])} .*$", line, text)
            assert line in text
        cfg_file, out = tmp_path / "big.cfg", tmp_path / "out"
        cfg_file.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--out-dir", str(out), "simulate", str(cfg_file)]) == 0
        table = vd.read_table_csv(out / "fidelity.csv")
        assert table["efficiency"][0] == 1.0
        assert table["total_population"][0] == pytest.approx(1e308, rel=1e-12)

    def test_non_finite_config_value_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out").replace("diffusion.D = 1.0", "diffusion.D = nan"))
        assert main(["simulate", str(cfg_file)]) == 2
        # the parser only parses; D's owner, check_diffusion, names the value
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "ConfigError", "exit_code": 2, "message":
                          "line 6: diffusion.D: diffusion coefficient must be finite and >= 0, got nan"}

    def test_import_does_not_load_scipy(self):
        # scipy is a test-only dependency; the CLI must start without it
        probe = ("import vortexdiff.cli, sys; "
                 "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        subprocess.run([sys.executable, "-c", probe], env=env, check=True)

    def test_import_does_not_load_numpy_polynomial(self):
        # lg_closed_form imports its quadrature when called; a CLI run never pays for it
        probe = "import vortexdiff.cli, sys; assert 'numpy.polynomial' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        subprocess.run([sys.executable, "-c", probe], env=env, check=True)

    def test_import_does_not_load_an_executor(self):
        # only a run that dumps VXF fields imports the writer's executor
        probe = "import vortexdiff.cli, sys; assert 'concurrent.futures' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        subprocess.run([sys.executable, "-c", probe], env=env, check=True)

    @pytest.mark.parametrize("caller_env,probe", [
        pytest.param({}, "import os, vortexdiff.cli; threads = os.listdir('/proc/self/task'); "
                         "assert len(threads) == 1, threads",
                     marks=pytest.mark.skipif(
                         not (os.path.isdir("/proc/self/task") and len(os.sched_getaffinity(0)) > 1),
                         reason="needs /proc/self/task and 2 CPUs: OpenBLAS starts no pool on one"),
                     id="one_os_thread"),
        pytest.param({"OPENBLAS_NUM_THREADS": "2"},
                     "import os, vortexdiff.cli; assert os.environ['OPENBLAS_NUM_THREADS'] == '2'",
                     id="caller_value_kept"),
        pytest.param({}, "import os, numpy; before = dict(os.environ); import vortexdiff.cli; "
                         "assert dict(os.environ) == before",
                     id="numpy_first_environ_untouched"),
    ])
    def test_import_keeps_the_thread_budget(self, caller_env, probe):
        # numpy's OpenBLAS pool would idle through every run; the package
        # turns it off only before numpy loads, never over a caller's value
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env.update(caller_env, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
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

    def test_benchmark_invocation_writes_only_manifested_files(self, tmp_path):
        # the command line the benchmark runs, in a fresh process: it must
        # exit 0 and leave only regular files, each listed in the manifest
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "unused"))
        out = tmp_path / "bench"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-m", "vortexdiff.cli", "--out-dir", str(out),
                               "--format", "vxf", "--threads", "1", "simulate", str(cfg_file)],
                              env=env, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        paths = sorted(out.iterdir())
        assert paths and all(path.is_file() and not path.is_symlink() for path in paths)
        listed = [entry["path"] for entry in json.loads((out / "manifest.json").read_text())["files"]]
        assert sorted(listed) == [path.name for path in paths if path.name != "manifest.json"]

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

    @pytest.mark.parametrize("argv,table", [
        (["sweep", "--param", "m=0..2", "sweep.cfg"], "sweep_fidelity.csv"),
        (["nodes", "vortex.cfg"], "nodes.csv"),
        (["compare-blocked", "blocked.cfg"], "compare_blocked.csv"),
        (["echo", "echo.cfg"], "echo_report.csv"),
    ])
    def test_subcommand_table_is_manifested(self, tmp_path, capsys, argv, table):
        # one output path: the table, then a manifest that lists it and the
        # loaded config, with the global --format although no field is dumped
        out = tmp_path / "out"
        cfg_file = SCENARIOS / argv[-1]
        assert main(["--out-dir", str(out), "--format", "vxf", *argv[:-1], str(cfg_file)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([table, "manifest.json"])
        assert listed_files_match(out) == [table]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == "vxf"
        cfg = vd.parse_config(cfg_file.read_text())
        assert manifest["config"] == vd.render_config(cfg).strip().splitlines()
        said, listed, where = capsys.readouterr().out.splitlines()[-3:]  # simulate's report
        assert (said, where) == (f"wrote 1 files to {out}", f"manifest: {out / 'manifest.json'}")
        assert listed.startswith(f"  {table}  sha256=")

    def test_nodes_after_simulate_leaves_a_true_manifest(self, tmp_path):
        # nodes rewrites simulate's nodes.csv under its own header; the
        # directory's manifest is then nodes', and it lists what nodes wrote
        out = tmp_path / "run"
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(out).replace(
            "outputs = snapshots, radial_profiles, coherence_factor, fidelity_trace, center_trace, nodes, fit",
            "outputs = fidelity_trace, nodes"))
        assert main(["simulate", str(cfg_file)]) == 0
        assert listed_files_match(out) == ["fidelity.csv", "nodes.csv"]
        assert main(["--out-dir", str(out), "nodes", str(cfg_file)]) == 0
        assert listed_files_match(out) == ["nodes.csv"]

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

    def test_sweep_over_radial_index_matches_closed_form(self, tmp_path):
        out = tmp_path / "sweep-p"
        assert main(["--out-dir", str(out), "sweep", "--param", "p=0..2", str(SCENARIOS / "sweep.cfg")]) == 0
        cfg = vd.parse_config((SCENARIOS / "sweep.cfg").read_text())
        table = vd.read_table_csv(out / "sweep_fidelity.csv")
        assert set(table) == {"s"} | {f"efficiency_p{p}" for p in range(3)}
        for p in range(3):
            spec = dataclasses.replace(cfg.mode, p=p)
            oracle = [vd.lg_closed_form(spec, cfg.diffusion.D, t, 0.0)[2] for t in cfg.diffusion.times]
            assert np.max(np.abs(table[f"efficiency_p{p}"] - oracle)) <= 1e-9

    @pytest.mark.parametrize("argv", [
        ["sweep", "--param", "m=0..8", str(SCENARIOS / "sweep.cfg")],
        # the blocked Gaussian is contained on a 6-unit box at s = 2, its m = 1 twin is not
        ["compare-blocked", "{blocked}"],
        # valid configs whose hole compare-blocked cannot measure: the
        # reference annulus leaves the grid, or the hole is under 2 dx wide
        ["compare-blocked", "{wide_hole}"],
        ["compare-blocked", "{narrow_hole}"],
    ])
    def test_uncontained_configs_fail_before_anything_evolves(self, tmp_path, monkeypatch, capsys, argv):
        # every config a subcommand runs is built before the first stream,
        # so one that leaves the box, or breaks the hole rule, exits 2 with
        # no snapshot built
        shipped = (SCENARIOS / "blocked.cfg").read_text()
        files = {name: tmp_path / f"{name}.cfg" for name in ("blocked", "wide_hole", "narrow_hole")}
        files["blocked"].write_text(shipped.replace(
            "grid.extent       = 8.0", "grid.extent       = 6.0").replace(
            "grid.n            = 256", "grid.n            = 64"))
        for name, radius in (("wide_hole", "5.0"), ("narrow_hole", "0.1")):
            files[name].write_text(shipped.replace(
                "mode.block_radius = 1.0", f"mode.block_radius = {radius}").replace(
                "radial_profiles, fidelity_trace, hole_refill", "fidelity_trace"))
        post_init, built = vd.StateSnapshot.__post_init__, [0]

        def counted(snap):
            built[0] += 1
            post_init(snap)
        monkeypatch.setattr(vd.StateSnapshot, "__post_init__", counted)
        out = tmp_path / "out"
        hole_rule = {"{wide_hole}": "annulus extends past the grid",
                     "{narrow_hole}": "block_radius 0.1 too small to resolve"}.get(argv[-1])
        argv = ["--out-dir", str(out)] + [a.format(**files) for a in argv]
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        if hole_rule:
            assert record["message"].startswith("mode.block_radius: " + hole_rule)
        else:
            prefix = "--param m=8: " if "sweep" in argv else ""  # a swept config names the swept value
            assert record["message"].startswith(prefix + "grid.extent: ")
            assert "is not contained" in record["message"]
        assert built[0] == 0
        assert not out.exists()

    def test_swept_config_error_keeps_its_key(self):
        from vortexdiff.cli import build_parser

        args = build_parser().parse_args(["sweep", "--param", "m=0..8", str(SCENARIOS / "sweep.cfg")])
        with pytest.raises(vd.ConfigError) as err:
            args.func(args)
        assert str(err.value).startswith("--param m=8: grid.extent: ")
        assert err.value.key == "grid.extent"

    def test_wide_sweep_range_is_not_formed(self, tmp_path, capsys):
        # the range stays lazy: p = 8 leaves sweep.cfg's box before the other
        # million values are formed
        import tracemalloc

        argv = ["--out-dir", str(tmp_path / "out"), "sweep", "--param", "p=0..1000000",
                str(SCENARIOS / "sweep.cfg")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["message"].startswith("--param p=8: grid.extent: ")
        assert not (tmp_path / "out").exists()

    def test_sweep_bad_param(self, tmp_path):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(small_vortex_cfg(tmp_path / "out"))
        assert main(["sweep", "--param", "w0=0..2", str(cfg_file)]) == 2

    def test_sweep_rejects_an_index_the_mode_rejects(self, tmp_path, capsys):
        argv = ["--out-dir", str(tmp_path), "sweep", "--param", "p=-1..0", str(SCENARIOS / "sweep.cfg")]
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("--param p=-1: radial index p must be")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("scenario", ["plane_wave.cfg", "blocked.cfg"])
    def test_sweep_needs_an_lg_scenario(self, tmp_path, capsys, scenario):
        # m and p do not shape these modes: a sweep would print identical columns
        argv = ["--out-dir", str(tmp_path), "sweep", "--param", "m=0..2", str(SCENARIOS / scenario)]
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (record["error"], record["message"]) == ("ConfigError", "sweep needs an lg scenario")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,fragment", [
        (["sweep", "--param", "m0..2", "{cfg}"], "--param needs name=a..b, got 'm0..2'"),
        (["sweep", "--param", "m=0-2", "{cfg}"], "sweep range needs a..b, got '0-2'"),
        (["sweep", "--param", "m=a..2", "{cfg}"], "sweep bounds must be integers, got 'a..2'"),
        (["sweep", "--param", "m=2..0", "{cfg}"], "empty sweep range '2..0'"),
        (["fit", "{t_only}"], "trace has no value column"),
        (["fit", "--value-column", "eff", "{trace}"], "trace has no column 'eff'"),
        (["--threads", "x", "simulate", "{cfg}"], "argument --threads: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
        (["simulate"], "the following arguments are required: config"),
        (["nodes", "--threshold", "0.5", "{cfg}"],
         "argument --threshold: rel_threshold must be in (0, 0.1], got 0.5"),
        (["nodes", "--threshold", "nan", "{cfg}"], "argument --threshold: rel_threshold must be in"),
        (["nodes", "--threshold", "x", "{cfg}"], "argument --threshold: could not convert string to float: 'x'"),
        # fit reads s from the trace, so it takes no diffusion or waist flag
        (["fit", "--dcoeff", "1", "{trace}"], "unrecognized arguments: --dcoeff"),
    ])
    def test_malformed_argument_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, fragment):
        # each is rejected before any field is built
        import vortexdiff.scenario as scenario

        built = []
        monkeypatch.setattr(scenario, "build_mode", lambda *args: built.append(args))
        files = {"cfg": tmp_path / "v.cfg", "t_only": tmp_path / "t.csv", "trace": tmp_path / "trace.csv"}
        files["cfg"].write_text(small_vortex_cfg(tmp_path / "out"))
        vd.write_table_csv(files["t_only"], {"t": [0.0, 0.1]})
        vd.write_table_csv(files["trace"], {"t": [0.0, 0.1], "efficiency": [1.0, 0.9]})
        try:
            code = main([arg.format(**files) for arg in argv])
        except SystemExit as exc:  # argparse rejects a bad option before main's handlers
            code = exc.code
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["exit_code"] == 2
        assert fragment in record["message"]
        assert not (tmp_path / "out").exists()
        assert built == []

    def test_nodes_threshold_flag_is_the_table_threshold(self, tmp_path):
        # an accepted --threshold reaches the node search and the table header
        from vortexdiff.scenario import node_columns, stream_diagnostics

        text = small_vortex_cfg(tmp_path / "run", "mode.p = 1\n").replace(  # LG_1^1
            "[0, 0.05, 0.1, 0.15, 0.25]", "[0, 0.02, 0.05]").replace(", fit", "").replace(
            "grid.n = 64", "grid.n = 128").replace("nbins = 48", "nbins = 200")
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(text)
        assert main(["--out-dir", str(tmp_path / "out"), "nodes", "--threshold", "0.05",
                     str(cfg_file)]) == 0
        table = tmp_path / "out" / "nodes.csv"
        assert any(ln.startswith("#") and "threshold 0.05" in ln
                   for ln in table.read_text().splitlines())
        profiles = [(d.time, d.profile) for d in stream_diagnostics(vd.parse_config(text))]
        expected, by_default = (
            node_columns([vd.find_radial_nodes(prof, threshold, time=t) for t, prof in profiles])
            for threshold in (0.05, 0.02))
        assert expected != by_default  # at t = 0 only 0.05 finds the ring at r = w0
        written = vd.read_table_csv(table)
        assert list(written) == list(expected)
        for name, column in expected.items():
            assert np.array_equal(written[name], column), name

    def test_trace_s_column_sets_the_evolution_factor(self, tmp_path, capsys):
        # v = s(t)^-2 with s for D = 2, w0 = 0.5 is a pure power law only in
        # that s; a trace without an s column is read in natural units
        t = np.linspace(0.0, 0.5, 8)
        s = [vd.evolution_factor(ti, 2.0, 0.5) for ti in t]
        v = [si ** -2.0 for si in s]

        def power_line(columns):
            trace = tmp_path / "trace.csv"
            vd.write_table_csv(trace, columns)
            assert main(["fit", str(trace)]) == 0
            (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("power law")]
            return line

        line = power_line({"t": t, "s": s, "efficiency": v})
        assert " * s(t)^-2 " in line and line.endswith("preferred")
        assert " * s(t)^-2 " not in power_line({"t": t, "efficiency": v})

    def test_fit_of_a_run_prints_its_fit_table(self, tmp_path, capsys):
        # outside natural units (D = 0.5, w0 = 0.8) the fit of a run's
        # fidelity.csv is the run's own fit.csv, to the printed digits
        text = (SCENARIOS / "sweep.cfg").read_text()
        for old, new in (("diffusion.D     = 1.0", "diffusion.D     = 0.5"),
                         ("mode.w0         = 1.0", "mode.w0         = 0.8")):
            assert old in text
            text = text.replace(old, new)
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "run"
        assert main(["--out-dir", str(out), "simulate", str(cfg_file)]) == 0
        capsys.readouterr()
        assert main(["fit", str(out / "fidelity.csv")]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("power law")]
        rows = [ln.split(",") for ln in (out / "fit.csv").read_text().splitlines() if not ln.startswith("#")]
        (power,) = [row for row in rows if row[0] == "power_law"]
        exponent, rms = float(power[2]), float(power[3])
        assert f" * s(t)^{exponent:.6g} " in line
        assert f"rms log residual {rms:.3e} " in line
        assert round(exponent, 6) == -1.0  # sweep.cfg stores a Gaussian: s^-(|m|+1)

    def test_fit_on_fit_table_is_format_error(self, tmp_path, capsys):
        # fit.csv carries model-name labels; fit reads numeric traces only
        manifest = vd.run_scenario(vd.parse_config(small_vortex_cfg(tmp_path / "run")), fmt="vxf")
        assert main(["fit", str(manifest.out_dir / "fit.csv")]) == 4
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "FieldFormatError"
        assert record["message"] == "column 'model', row 1: 'power_law' is not a number"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_fit_on_a_non_finite_value_is_a_numeric_error(self, tmp_path, capsys, bad):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"t,efficiency\n0,1\n0.05,0.8\n0.1,{bad}\n0.15,0.6\n0.25,0.4\n")
        assert main(["fit", str(trace)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError", "exit_code": 3,
                                        "message": "decay fits need finite, strictly positive values"}

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        # a 4-point trace cannot be fitted; the failure maps to exit 3
        trace = tmp_path / "short.csv"
        vd.write_table_csv(trace, {"t": [0, 0.1, 0.2, 0.3], "value": [1, 0.9, 0.8, 0.7]})
        assert main(["fit", str(trace)]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["exit_code"] == 3

    def test_out_of_memory_is_a_numeric_error(self, tmp_path, monkeypatch, capsys):
        # a run that validates can still fail to allocate, on a machine whose
        # memory is in use; that is reported as one JSON line with exit 3, no traceback
        import vortexdiff.scenario as scenario

        def exhausted(spec, grid):
            raise MemoryError("Unable to allocate 1.46 PiB for an array")
        monkeypatch.setattr(scenario, "build_mode", exhausted)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(small_vortex_cfg(tmp_path / "run"))
        assert main(["simulate", str(cfg)]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "MemoryError", "exit_code": 3,
                          "message": "Unable to allocate 1.46 PiB for an array"}
        assert not (tmp_path / "run" / "manifest.json").exists()

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
        ("vortex.cfg", 1, population_m1),
        ("gaussian.cfg", 0, population_m0),
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
        coh_field = vd.ComplexField2D(grid, vd.lg_closed_form(spec, cfg.diffusion.D, t, r, theta)[0])
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
