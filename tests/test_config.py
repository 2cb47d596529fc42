import dataclasses
import math
import os
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

import vortexdiff as vd
from vortexdiff.analysis import check_fit_trace
from vortexdiff.cli import main
from vortexdiff.config import OutputKind
from vortexdiff.modes import lg_required_extent
from vortexdiff.solvers import MEMORY_BUDGET

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


def off_lg(kind):
    """MINIMAL as a mode of another kind, whose lg indices p and m are zero."""
    return MINIMAL.replace("= lg", f"= {kind}").replace("mode.m = 1", "mode.m = 0")


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def scenario_configs(draw):
    """Valid ScenarioConfigs over every mode kind, scheme, output set and time list.

    A mode field its kind does not use (k off plane waves, block_radius off
    blocked Gaussians) is drawn too, zero or not: render_config must keep it.
    The indices p and m are drawn for lg modes only; validation rejects a
    nonzero one on any other kind."""
    kind = draw(st.sampled_from(list(vd.ModeKind)))
    n = 2 * draw(st.integers(4, 256))
    w0, D = draw(_floats(0.1, 4.0)), draw(_floats(0.0, 10.0))
    times = tuple(sorted(draw(st.lists(_floats(0.0, 5.0), min_size=1, max_size=8, unique=True))))
    p, m = (draw(st.integers(0, 4)), draw(st.integers(-5, 5))) if kind is vd.ModeKind.LG else (0, 0)
    allowed = [o for o in OutputKind
               if o is not OutputKind.HOLE_REFILL or kind is vd.ModeKind.BLOCKED_GAUSSIAN]
    try:
        check_fit_trace(times, [vd.evolution_factor(t, D, w0) for t in times])
    except ValueError:
        allowed.remove(OutputKind.FIT)
    outputs = tuple(draw(st.lists(st.sampled_from(allowed), unique=True)))
    k = block_radius = 0.0
    if kind is vd.ModeKind.PLANE_WAVE:
        extent = draw(_floats(0.5, 100.0))
        k = draw(st.integers(-n // 2, n // 2)) * math.pi / extent
    else:
        k = draw(st.just(0.0) | _floats(-10.0, 10.0))
        s_max = vd.evolution_factor(times[-1], D, w0)
        required = lg_required_extent(w0, m, p, s_max)
        extent = required * draw(_floats(1.0, 4.0))
    grid = vd.make_grid(n, extent)
    if OutputKind.HOLE_REFILL in outputs:
        block_radius = draw(_floats(2.0 * grid.dx, extent / 2.0))
    elif kind is vd.ModeKind.BLOCKED_GAUSSIAN:
        block_radius = draw(_floats(0.0, extent, exclude_max=True))
    else:
        block_radius = draw(st.just(0.0) | _floats(0.0, 10.0))
    amp = draw(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
               .filter(lambda z: z != 0))
    mode = vd.ModeSpec(kind=kind, p=p, m=m, w0=w0, P=draw(_floats(0.01, 100.0)), amp=amp, k=k,
                       block_radius=block_radius)
    # the kernel scheme needs 4 D t >= dx^2 at every nonzero time
    kernel_resolved = all(t == 0 or 4.0 * D * t >= grid.dx**2 for t in times) or D == 0
    scheme = draw(st.sampled_from([s for s in vd.Scheme
                                   if kernel_resolved or s is not vd.Scheme.KERNEL]))
    cfl_safety = draw(_floats(0.0, 1.0, exclude_min=True))
    dt = draw(st.none() | _floats(0.0, 1.0, exclude_min=True))
    if scheme is vd.Scheme.FD_EXPLICIT and D > 0:
        # a fraction of the stability bound; FD needs a step at or above its
        # floor, 1e-12 dx^2 / (4 D), which a tiny cfl_safety or fraction misses
        bound = vd.fd_max_dt(grid, D, cfl_safety)
        dt = None if dt is None else dt * bound
        assume((bound if dt is None else dt) >= vd.fd_max_dt(grid, D, 1e-12))
    return vd.ScenarioConfig(
        mode=mode, grid=grid, diffusion=vd.DiffusionParams(D=D, times=times),
        solver=vd.SolverConfig(scheme=scheme, dt=dt, cfl_safety=cfl_safety),
        quantum=draw(st.none() | st.builds(vd.QuantumParams, beta=_floats(-10.0, 10.0))),
        eta=draw(_floats(0.0, 1e-8, exclude_min=True)),
        nbins=draw(st.integers(4, min(1000, n * n))),
        outputs=outputs,
        out_dir=draw(st.text(min_size=1).filter(
            lambda s: "#" not in s and s.strip().splitlines() == [s])),
    )


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

    def test_growth_rule_uses_latest_time(self, tmp_path, capsys):
        # s_max = 5 at t = 1 pushes the m=1 requirement past extent 8
        bad = MINIMAL.replace("[0, 0.25]", "[0, 1.0]")
        with pytest.raises(vd.ConfigError, match="contained"):
            vd.parse_config(bad)
        ok = bad.replace("grid.extent = 8", "grid.extent = 16")
        assert vd.parse_config(ok).grid.extent == 16.0
        # the CLI reports it as a config error naming 4 * sqrt(5 * 2)
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(bad)
        assert main(["simulate", str(cfg_file)]) == 2
        assert "grid.extent: LG mode (p=0, m=1, w0=1.0) is not contained at s = 5" in capsys.readouterr().err
        with pytest.raises(vd.ConfigError, match=f">= .* = {4 * math.sqrt(10):.6g}, got 8"):
            vd.parse_config(bad)

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

    # the parser only parses: the owner of each value's rule rejects NaN and
    # infinities, and its message is prefixed with the key and line
    NON_FINITE_OWNER_MESSAGE = {
        "diffusion.D": "diffusion coefficient must be finite and >= 0, got nan",
        "grid.extent": "grid spacing dx = 2 extent / n must be positive and finite, "
                       "got extent inf with n 256",
        "diffusion.times": "time must be finite and >= 0, got nan",
        "mode.amp": "amplitude amp must be finite, got (nan+0j)",
        "solver.dt": "dt must be positive and finite, got nan",
    }

    @pytest.mark.parametrize("key,value", [
        ("diffusion.D", "nan"),
        ("grid.extent", "inf"),
        ("diffusion.times", "[0, nan]"),
        ("mode.amp", "nan+0j"),
        ("solver.dt", "nan"),
    ])
    def test_non_finite_value_names_key_and_line(self, key, value):
        lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith(key)]
        lines.insert(3, f"{key} = {value}")
        with pytest.raises(vd.ConfigError) as err:
            vd.parse_config("\n".join(lines))
        assert str(err.value) == f"line 4: {key}: {self.NON_FINITE_OWNER_MESSAGE[key]}"
        assert (err.value.line, err.value.key) == (4, key)

    @pytest.mark.parametrize("key,text,line", [
        ("grid.extent", MINIMAL.replace("grid.extent = 8", "grid.extent = 7"), 10),
        ("mode.block_radius", off_lg("blocked_gaussian") + "mode.block_radius = 8\n", 11),
        ("mode.k", off_lg("plane_wave") + "mode.k = 1.0\n", 11),
        ("solver.dt", MINIMAL + "solver.scheme = fd\nsolver.dt = 1.0\n", 12),
        ("diffusion.times",
         MINIMAL.replace("[0, 0.25]", "[0, 0.0005, 0.25]") + "solver.scheme = kernel\n", 8),
        ("eta", "eta = 1.0" + MINIMAL, 1),
        ("nbins", MINIMAL + "nbins = 3\n", 11),
        ("solver.cfl_safety", MINIMAL + "solver.scheme = fd\nsolver.cfl_safety = 1e-13\n", 12),
        # peak intensity times n^2 overflows float64; a plane wave's peak has no P
        ("mode.amp", off_lg("plane_wave") + "mode.amp = 1e152\n", 11),
        ("mode.P", MINIMAL.replace("mode.P = 1.0", "mode.P = 1e300").replace("mode.w0 = 1.0", "mode.w0 = 1e-5"), 6),
    ])
    def test_keyed_validation_error_names_its_line(self, key, text, line):
        # the key opens the message once, as its prefix or as the rule's own subject
        with pytest.raises(vd.ConfigError, match=rf"^line {line}: {re.escape(key)}:? ") as err:
            vd.parse_config(text)
        assert (err.value.line, err.value.key) == (line, key)
        assert str(err.value).count(key) == 1

    @pytest.mark.parametrize("key,value,line", [
        # one config per rule of a section dataclass, each breaking only that rule
        ("mode.w0", "-1", 5),
        ("mode.P", "0", 6),
        ("mode.amp", "0", 11),
        ("mode.p", "-1", 3),
        ("mode.block_radius", "-1", 11),
        ("grid.n", "6", 9),
        ("grid.n", "255", 9),
        ("grid.extent", "0", 10),
        ("grid.extent", "1e308", 10),  # 2 extent / n overflows
        ("diffusion.D", "-1", 7),
        ("diffusion.times", "[-0.1, 0.25]", 8),
        ("diffusion.times", "[0.25, 0.1]", 8),
        ("diffusion.times", "[0.25, 0.25]", 8),
        ("solver.cfl_safety", "2", 11),
        ("solver.cfl_safety", "0", 11),
        ("solver.dt", "0", 11),
        ("solver.dt", "-1", 11),
    ])
    def test_section_rule_names_its_key_and_line(self, key, value, line):
        text = re.sub(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", MINIMAL)
        if text == MINIMAL:  # a key MINIMAL leaves at its default
            text += f"{key} = {value}\n"
        with pytest.raises(vd.ConfigError, match=rf"^line {line}: {re.escape(key)}: ") as err:
            vd.parse_config(text)
        assert (err.value.line, err.value.key) == (line, key)

    def test_grid_beyond_physical_memory_fails_at_parse_time(self):
        # the run's arrays, MEMORY_BUDGET x 16 B x n^2, would need about 5e8 GiB
        import tracemalloc

        try:
            page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):
            page = pages = -1
        if page < 1 or pages < 1:
            pytest.skip("os.sysconf cannot report physical memory here")
        budget = page * pages
        n = 100_000_000
        tracemalloc.start()
        try:
            with pytest.raises(vd.ConfigError) as err:
                vd.parse_config(MINIMAL.replace("grid.n = 256", f"grid.n = {n}"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.line, err.value.key) == (9, "grid.n")
        assert str(err.value) == (
            f"line 9: grid.n: a run at n = {n} needs about {MEMORY_BUDGET * 16 * n**2 / 2**30:.3g} GiB for "
            f"its arrays ({MEMORY_BUDGET} x 16 B x {n}^2), over the {budget / 2**30:.3g} GiB of physical memory")
        assert peak < 2**20  # nothing was allocated for the grid

    @pytest.mark.parametrize("scheme", ["spectral", "fd", "kernel"])
    def test_memory_rule_reads_the_side_the_run_transforms_at(self, monkeypatch, scheme):
        # on a machine of 1 MiB, n = 96 (3.4 x 16 B x 96^2 = 0.48 MiB) fits for
        # the spectral and FD schemes, which run on the grid's own side; the
        # kernel's plan pads by its half-width, widest at the last time
        from vortexdiff.solvers import _kernel_side

        monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}[name])
        text = MINIMAL.replace("grid.n = 256", "grid.n = 96") + f"solver.scheme = {scheme}\n"
        if scheme != "kernel":
            assert vd.parse_config(text).grid.n == 96
            return
        side = _kernel_side(vd.GridSpec(96, 8.0), 1.0, 0.25)
        with pytest.raises(vd.ConfigError, match=rf"^line 9: grid\.n: a run at n = 96 needs .* "
                                                 rf"\({re.escape(str(MEMORY_BUDGET))} x 16 B x {side}\^2\), "
                                                 rf"over the 0\.000977 GiB "):
            vd.parse_config(text)

    def test_memory_rule_admits_a_grid_within_the_budget(self, monkeypatch):
        # a machine with memory for 4.5 complex n^2 arrays at n = 256: more
        # than the budget of MEMORY_BUDGET = 3.4 that a run's traced peak is
        # held to, less than an estimate of 5.5 arrays
        n = 256
        pages = int(4.5 * 16 * n**2) // 4096
        assert MEMORY_BUDGET * 16 * n**2 < 4096 * pages < 5.5 * 16 * n**2
        monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}[name])
        assert vd.parse_config(MINIMAL).grid.n == n

    @pytest.mark.parametrize("report", ["raises", "indeterminate"])
    def test_memory_rule_is_skipped_without_a_physical_memory_report(self, monkeypatch, report):
        def sysconf(name):
            if report == "raises":
                raise ValueError(f"unrecognized configuration name {name!r}")
            return -1
        monkeypatch.setattr(os, "sysconf", sysconf)
        assert vd.parse_config(MINIMAL.replace("grid.n = 256", "grid.n = 100000000")).grid.n == 10**8

    @pytest.mark.parametrize("kind,extra", [("blocked_gaussian", "mode.block_radius = 1.0\n"),
                                            ("plane_wave", "")])
    @pytest.mark.parametrize("key,value,line", [("mode.p", 2, 3), ("mode.m", 3, 4), ("mode.m", -1, 4)])
    def test_mode_index_off_lg_is_rejected(self, kind, extra, key, value, line):
        # the mode would ignore the index, so a typo in it could not show
        base = off_lg(kind) + extra
        assert vd.parse_config(base).mode.kind.value == kind  # zero indices are accepted
        with pytest.raises(vd.ConfigError) as err:
            vd.parse_config(base.replace(f"{key} = 0", f"{key} = {value}"))
        assert str(err.value) == f"line {line}: {key} applies to lg modes only, got {value} on a {kind} mode"
        assert (err.value.line, err.value.key) == (line, key)

    @pytest.mark.parametrize("text,fragment", [
        (MINIMAL + " = 1\n", "line 11: empty key"),
        (MINIMAL + "nbins =\n", "line 11: empty value for key 'nbins'"),
        (MINIMAL.replace("[0, 0.25]", "[]"), "line 8: diffusion.times needs at least one value"),
        (MINIMAL + "solver.scheme = foo\n",
         "line 11: solver.scheme must be one of ['fd', 'kernel', 'spectral'], got 'foo'"),
    ])
    def test_malformed_line_is_rejected_with_its_line(self, text, fragment):
        with pytest.raises(vd.ConfigError) as err:
            vd.parse_config(text)
        assert fragment in str(err.value)

    def test_outputs_parsing(self):
        cfg = vd.parse_config(MINIMAL + "outputs = snapshots, nodes, fidelity_trace\n")
        assert cfg.outputs == (OutputKind.SNAPSHOTS, OutputKind.NODES, OutputKind.FIDELITY_TRACE)

    def test_unknown_output_rejected(self):
        with pytest.raises(vd.ConfigError, match="unknown output"):
            vd.parse_config(MINIMAL + "outputs = snapshots, movies\n")

    def test_eta_bounds(self):
        for eta in ("1e-6", "0", "-1e-12"):
            with pytest.raises(vd.ConfigError, match=r"eta must be in \(0, 1e-8\]"):
                vd.parse_config(MINIMAL + f"eta = {eta}\n")
        assert vd.parse_config(MINIMAL + "eta = 1e-8\n").eta == 1e-8

    def test_fit_needs_five_times(self):
        with pytest.raises(vd.ConfigError, match="fit"):
            vd.parse_config(MINIMAL + "outputs = fit\n")

    def test_fit_needs_a_varying_evolution_factor(self, tmp_path):
        # with D = 0, s(t) = 1 at every time and neither decay law is determined
        still = MINIMAL.replace("diffusion.D = 1.0", "diffusion.D = 0.0")
        still = still.replace("[0, 0.25]", "[0, 0.05, 0.1, 0.15, 0.25]")
        with pytest.raises(vd.ConfigError, match=r"^the fit output needs the evolution factor"):
            vd.parse_config(still + "outputs = fit\n")
        cfg = vd.parse_config(still)
        with pytest.raises(vd.ConfigError, match="^the fit output "):
            dataclasses.replace(cfg, outputs=(OutputKind.FIT,))
        out = tmp_path / "run"
        with pytest.raises(vd.ConfigError, match="^the fit output "):
            vd.run_scenario(dataclasses.replace(cfg, outputs=(OutputKind.FIT,)), "vxf", out)
        assert not out.exists()

    def test_zero_amplitude_rejected(self):
        with pytest.raises(vd.ConfigError,
                           match="^line 11: mode.amp: amplitude amp must be nonzero, got 0j$"):
            vd.parse_config(MINIMAL + "mode.amp = 0\n")

    def test_grid_spacing_must_be_finite(self):
        from pathlib import Path

        text = (Path(__file__).parent.parent / "scenarios" / "gaussian.cfg").read_text()
        huge = text.replace("grid.extent     = 16.0", "grid.extent     = 1e308")
        assert huge != text
        with pytest.raises(vd.ConfigError, match="dx = 2 extent / n must be positive and finite"):
            vd.parse_config(huge)

    def test_required_keys_alone_take_dataclass_defaults(self):
        text = """
mode.kind = lg
grid.n = 64
grid.extent = 8
diffusion.D = 0.5
diffusion.times = [0, 0.25]
"""
        assert vd.parse_config(text) == vd.ScenarioConfig(
            mode=vd.ModeSpec(kind=vd.ModeKind.LG), grid=vd.make_grid(64, 8.0),
            diffusion=vd.DiffusionParams(D=0.5, times=(0.0, 0.25)))

    def test_hole_refill_needs_blocked_mode(self):
        with pytest.raises(vd.ConfigError, match="hole_refill"):
            vd.parse_config(MINIMAL + "outputs = hole_refill\n")
        # the blocked mode's hole geometry, checked at parse time (extent 8, dx = 1/16)
        blocked = off_lg("blocked_gaussian")
        for radius, outputs, message in [
            (8.0, "fidelity_trace", "smaller than grid extent"),
            (4.5, "hole_refill", "annulus extends past the grid"),
            (0.1, "hole_refill", "too small to resolve"),
        ]:
            text = blocked + f"mode.block_radius = {radius}\noutputs = {outputs}\n"
            with pytest.raises(vd.ConfigError, match=rf"^line 11: mode\.block_radius: .*{message}"):
                vd.parse_config(text)
        ok = vd.parse_config(blocked + "mode.block_radius = 4\noutputs = hole_refill\n")
        assert ok.mode.block_radius == 4.0

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
        with pytest.raises(vd.ConfigError, match=r"^line 3: mode\.k: .*Nyquist"):
            vd.parse_config(cfg_text)

    def test_fd_dt_against_cfl(self):
        bad = MINIMAL + "solver.scheme = fd\nsolver.dt = 1.0\n"
        with pytest.raises(vd.ConfigError, match="stability"):
            vd.parse_config(bad)
        # a subnormal cfl_safety makes the bound, and the default dt, 0
        underflow = MINIMAL + "solver.scheme = fd\nsolver.cfl_safety = 5e-324\n"
        with pytest.raises(vd.ConfigError, match="maximum admissible dt is 0 "):
            vd.parse_config(underflow)

    def test_fd_dt_below_floor(self):
        # dx = 1/16: the floor 1e-12 dx^2 / (4 D) is 9.765625e-16, printed 9.76562e-16
        tiny = MINIMAL + "solver.scheme = fd\nsolver.dt = 1e-30\n"
        with pytest.raises(vd.ConfigError, match=r"^line 12: solver\.dt: .*minimum admissible dt is 9\.76562e-16 "):
            vd.parse_config(tiny)
        # the default dt is the bound, here below the floor: cfl_safety is the value to change
        small_bound = MINIMAL + "solver.scheme = fd\nsolver.cfl_safety = 1e-13\n"
        with pytest.raises(vd.ConfigError, match=r"^line 12: solver\.cfl_safety: .*minimum admissible dt is 9\.76562e-16 ") as err:
            vd.parse_config(small_bound)
        assert err.value.line == 12

    def test_kernel_resolution_checked_at_every_nonzero_time(self):
        # dx = 1/16: the kernel needs 4 D t >= dx^2, t >= 1/1024, at every t > 0
        kernel = MINIMAL + "solver.scheme = kernel\n"
        with pytest.raises(vd.ConfigError, match=r"^line 8: diffusion\.times: kernel unresolved"):
            vd.parse_config(kernel.replace("[0, 0.25]", "[0, 0.0005, 0.25]"))
        assert vd.parse_config(kernel.replace("[0, 0.25]", "[0, 0.001, 0.25]"))
        assert vd.parse_config(MINIMAL.replace("[0, 0.25]", "[0, 0.0005, 0.25]"))
        no_diffusion = kernel.replace("diffusion.D = 1.0", "diffusion.D = 0.0")
        assert vd.parse_config(no_diffusion.replace("[0, 0.25]", "[0, 0.0005, 0.25]"))

    def test_nbins_rule_checked_at_parse_and_validation(self):
        with pytest.raises(vd.ConfigError, match=r"^line 11: nbins must be an integer >= 4, got 3$"):
            vd.parse_config(MINIMAL + "nbins = 3\n")
        cfg = vd.parse_config(MINIMAL)
        with pytest.raises(vd.ConfigError, match="^nbins must be an integer >= 4, got 2$") as err:
            dataclasses.replace(cfg, nbins=2)
        assert (err.value.key, err.value.line) == ("nbins", None)

    def test_nbins_beyond_the_grid_sample_count_fails_at_parse(self):
        # 4e9 bins on 64^2 samples would allocate three 30 GiB per-bin arrays at the first reduction
        import tracemalloc

        text = MINIMAL.replace("grid.n = 256", "grid.n = 64") + "nbins = 4000000000\n"
        tracemalloc.start()
        try:
            with pytest.raises(vd.ConfigError) as err:
                vd.parse_config(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "line 11: nbins: 4000000000 bins exceed the grid's n^2 = 4096 samples"
        assert (err.value.key, err.value.line) == ("nbins", 11)
        assert peak < 2**20
        assert vd.parse_config(text.replace("4000000000", "4096")).nbins == 4096

    def test_eta_rule_checked_by_validation_before_any_output(self, tmp_path):
        cfg = vd.parse_config(MINIMAL)
        with pytest.raises(vd.ConfigError, match=r"^eta must be in \(0, 1e-8\]") as err:
            dataclasses.replace(cfg, eta=1.0)
        assert (err.value.key, err.value.line) == ("eta", None)
        out = tmp_path / "run"
        with pytest.raises(vd.ConfigError, match="^eta must be in "):
            vd.run_scenario(dataclasses.replace(cfg, eta=1.0), "vxf", out)
        assert not out.exists()

    def test_empty_times_rejected_by_validation(self):
        # DiffusionParams owns the rule; parse_config names its key and line
        with pytest.raises(vd.ParameterError, match="^diffusion.times needs at least one value$") as err:
            vd.DiffusionParams(D=1.0, times=())
        assert err.value.name == "times"


class TestRenderRoundTrip:
    def test_render_reparses_identically(self):
        cfg = vd.parse_config(MINIMAL + "outputs = snapshots, center_trace\nquantum.beta = 0.5\n")
        text = vd.render_config(cfg)
        again = vd.parse_config(text)
        assert again == cfg
        assert vd.render_config(again) == text
        empty = vd.parse_config(MINIMAL + "outputs = []\n")
        assert empty.outputs == ()
        assert vd.parse_config(vd.render_config(empty)) == empty

    def test_every_key_renders_to_pinned_text(self):
        # every key set, including the ones render_config may leave out: a
        # non-zero k and a block_radius on an LG mode, solver.dt, quantum.beta
        text = """
mode.kind = lg
mode.p = 1
mode.m = -2
mode.w0 = 0.75
mode.P = 2.5
mode.amp = 0.5 - 0.25j
mode.k = 0.1
mode.block_radius = 0.5
grid.n = 64
grid.extent = 8
diffusion.D = 0.5
diffusion.times = 0, 0.1, 0.2
solver.scheme = fd
solver.dt = 0.001
solver.cfl_safety = 0.5
quantum.beta = -0.5
eta = 1e-10
nbins = 50
outputs = []
out_dir = runs/every key
"""
        rendered = vd.render_config(vd.parse_config(text))
        assert rendered == """\
mode.kind = lg
mode.p = 1
mode.m = -2
mode.w0 = 0.75
mode.P = 2.5
mode.amp = 0.5-0.25j
mode.k = 0.10000000000000001
mode.block_radius = 0.5
grid.n = 64
grid.extent = 8
diffusion.D = 0.5
diffusion.times = [0, 0.10000000000000001, 0.20000000000000001]
solver.scheme = fd
solver.dt = 0.001
solver.cfl_safety = 0.5
quantum.beta = -0.5
eta = 1e-10
nbins = 50
outputs = []
out_dir = runs/every key
"""
        assert vd.parse_config(rendered) == vd.parse_config(text)

    @pytest.mark.parametrize("out_dir", ["runs/#3", "runs\n3", "runs\r3", "runs\v3", " runs", "runs ", ""])
    def test_out_dir_that_cannot_round_trip_rejected(self, out_dir):
        cfg = vd.parse_config(MINIMAL)
        with pytest.raises(vd.ConfigError, match="^out_dir must be one line"):
            dataclasses.replace(cfg, out_dir=out_dir)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(cfg=scenario_configs())
    def test_generated_configs_round_trip(self, cfg):
        assert vd.parse_config(vd.render_config(cfg)) == cfg

    def test_shipped_scenarios_parse_and_render(self):
        from pathlib import Path

        scenario_dir = Path(__file__).parent.parent / "scenarios"
        configs = sorted(scenario_dir.glob("*.cfg"))
        assert len(configs) >= 4
        for path in configs:
            cfg = vd.parse_config(path.read_text())
            assert vd.parse_config(vd.render_config(cfg)) == cfg
