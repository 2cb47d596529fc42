import math

import pytest

import vortexdiff as vd
from vortexdiff.config import OutputKind, lg_required_extent

MINIMAL = """
mode.kind = lg
mode.p = 0
mode.m = 1
mode.w0 = 1.0
mode.P = 1.0
diffusion.D = 1.0
diffusion.times = [0, 0.25]
grid.n = 256
grid.extent = 8
"""


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = vd.parse_config(MINIMAL)
        assert cfg.mode.kind is vd.ModeKind.LG
        assert cfg.mode.amp == 1.0 + 0.0j
        assert cfg.eta == 1e-12
        assert cfg.solver.scheme is vd.Scheme.SPECTRAL
        assert cfg.solver.cfl_safety == 0.9
        assert cfg.outputs == (OutputKind.FIDELITY_TRACE,)
        assert cfg.diffusion.times == (0.0, 0.25)

    def test_comments_and_blanks_ignored(self):
        cfg = vd.parse_config("# leading comment\n\n" + MINIMAL + "\n# trailing\n")
        assert cfg.grid.n == 256

    def test_times_not_ascending(self):
        bad = MINIMAL.replace("[0, 0.25]", "[0.25, 0.1]")
        with pytest.raises(vd.ConfigError, match="ascending"):
            vd.parse_config(bad)

    def test_containment_error_names_required_extent(self):
        bad = MINIMAL.replace("mode.w0 = 1.0", "mode.w0 = 2.0")
        bad = bad.replace("mode.m = 1", "mode.m = 3")
        bad = bad.replace("mode.p = 0", "mode.p = 1")
        bad = bad.replace("[0, 0.25]", "[0]")
        with pytest.raises(vd.ConfigError) as err:
            vd.parse_config(bad)
        # 4 * w0 * sqrt(1 + |m| + p) = 4 * 2 * sqrt(5) ~ 17.9
        assert f"{4 * 2 * math.sqrt(5):.6g}"[:4] in str(err.value)

    def test_growth_rule_uses_latest_time(self):
        # s_max = 5 at t = 1 pushes the m=1 requirement past extent 8
        bad = MINIMAL.replace("[0, 0.25]", "[0, 1.0]")
        with pytest.raises(vd.ConfigError, match="contained"):
            vd.parse_config(bad)
        ok = bad.replace("grid.extent = 8", "grid.extent = 16")
        assert vd.parse_config(ok).grid.extent == 16.0

    def test_boundary_containment_accepted(self):
        # the canonical m=1 scenario sits exactly on the containment boundary
        cfg = vd.parse_config(MINIMAL)
        assert lg_required_extent(1.0, 1, 0, 2.0) == pytest.approx(8.0)
        assert cfg.grid.extent == 8.0

    def test_unknown_key_rejected_in_strict_mode(self):
        bad = MINIMAL + "mode.waist = 2.0\n"
        with pytest.raises(vd.ConfigError, match="unknown key") as err:
            vd.parse_config(bad, strict=True)
        assert err.value.line is not None

    def test_unknown_key_warned_in_lenient_mode(self):
        cfg = vd.parse_config(MINIMAL + "mode.waist = 2.0\n", strict=False)
        assert any("mode.waist" in w for w in cfg.warnings)

    def test_duplicate_key_rejected(self):
        with pytest.raises(vd.ConfigError, match="duplicate"):
            vd.parse_config(MINIMAL + "grid.n = 128\n")

    def test_missing_required_key(self):
        bad = "\n".join(
            ln for ln in MINIMAL.splitlines() if not ln.startswith("diffusion.D")
        )
        with pytest.raises(vd.ConfigError, match="diffusion.D"):
            vd.parse_config(bad)

    def test_malformed_line_is_line_addressed(self):
        with pytest.raises(vd.ConfigError) as err:
            vd.parse_config("mode.kind = lg\nnot a config line\n")
        assert err.value.line == 2

    def test_bad_scalar_reports_line(self):
        bad = MINIMAL.replace("grid.n = 256", "grid.n = many")
        with pytest.raises(vd.ConfigError, match="grid.n"):
            vd.parse_config(bad)

    @pytest.mark.parametrize("key,value", [
        ("diffusion.D", "nan"),
        ("grid.extent", "inf"),
        ("diffusion.times", "[0, nan]"),
        ("mode.amp", "nan+0j"),
    ])
    def test_non_finite_value_names_key_and_line(self, key, value):
        lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith(key)]
        lines.insert(3, f"{key} = {value}")
        with pytest.raises(vd.ConfigError, match="must be finite") as err:
            vd.parse_config("\n".join(lines))
        assert err.value.line == 4
        assert key in str(err.value)

    def test_outputs_parsing(self):
        cfg = vd.parse_config(MINIMAL + "outputs = snapshots, nodes, fidelity_trace\n")
        assert cfg.outputs == (OutputKind.SNAPSHOTS, OutputKind.NODES, OutputKind.FIDELITY_TRACE)

    def test_unknown_output_rejected(self):
        with pytest.raises(vd.ConfigError, match="unknown output"):
            vd.parse_config(MINIMAL + "outputs = snapshots, movies\n")

    def test_eta_bounds(self):
        with pytest.raises(vd.ConfigError, match="eta"):
            vd.parse_config(MINIMAL + "eta = 1e-6\n")

    def test_fit_needs_five_times(self):
        with pytest.raises(vd.ConfigError, match="fit"):
            vd.parse_config(MINIMAL + "outputs = fit\n")

    def test_hole_refill_needs_blocked_mode(self):
        with pytest.raises(vd.ConfigError, match="hole_refill"):
            vd.parse_config(MINIMAL + "outputs = hole_refill\n")

    def test_plane_wave_periodicity_checked(self):
        cfg_text = """
mode.kind = plane_wave
mode.k = 1.0
diffusion.D = 1.0
diffusion.times = [0, 0.1]
grid.n = 256
grid.extent = 8
"""
        with pytest.raises(vd.ConfigError, match="periodic"):
            vd.parse_config(cfg_text)

    def test_plane_wave_nyquist_error_names_key(self):
        cfg_text = """
mode.kind = plane_wave
mode.k = 64.0
diffusion.D = 1.0
diffusion.times = [0, 0.1]
grid.n = 64
grid.extent = 8
"""
        with pytest.raises(vd.ConfigError, match=r"^mode\.k: .*Nyquist"):
            vd.parse_config(cfg_text)

    def test_fd_dt_against_cfl(self):
        bad = MINIMAL + "solver.scheme = fd\nsolver.dt = 1.0\n"
        with pytest.raises(vd.ConfigError, match="stability"):
            vd.parse_config(bad)


class TestRenderRoundTrip:
    def test_render_reparses_identically(self):
        cfg = vd.parse_config(MINIMAL + "outputs = snapshots, center_trace\nquantum.beta = 0.5\n")
        text = vd.render_config(cfg)
        again = vd.parse_config(text)
        assert again == cfg
        assert vd.render_config(again) == text

    def test_shipped_scenarios_parse_and_render(self):
        from pathlib import Path

        scenario_dir = Path(__file__).parent.parent / "scenarios"
        configs = sorted(scenario_dir.glob("*.cfg"))
        assert len(configs) >= 4
        for path in configs:
            cfg = vd.parse_config(path.read_text())
            assert vd.parse_config(vd.render_config(cfg)) == cfg
