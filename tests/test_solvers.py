import math
import tracemalloc
import weakref

import numpy as np
import pytest

import vortexdiff as vd
import vortexdiff.solvers as solvers
from vortexdiff.solvers import (_classical_stream, _fft_size, _free_space_size, _inverse_fft2, _outer,
                                _wavenumbers)
from helpers import fd_march, free_gaussian_dispersed, heat_kernel_patch, kernel_convolution_sum


def rel_linf(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def spectral_cfg():
    return vd.SolverConfig(scheme=vd.Scheme.SPECTRAL)


def fd_cfg(cfl=0.9, dt=None):
    return vd.SolverConfig(scheme=vd.Scheme.FD_EXPLICIT, dt=dt, cfl_safety=cfl)


class TestDiffuseSpectral:
    def test_identity_at_t_zero(self, lg01):
        out = vd.diffuse_spectral(lg01, 1.0, 0.0)
        assert np.array_equal(out.values, lg01.values)

    def test_identity_at_d_zero(self, lg01):
        out = vd.diffuse_spectral(lg01, 0.0, 3.0)
        assert np.array_equal(out.values, lg01.values)

    def test_plane_wave_decays_at_rate_2dk2(self, grid256):
        k = 2.0 * math.pi  # 16 half-waves across the box
        wave = vd.plane_wave(vd.ModeSpec(kind=vd.ModeKind.PLANE_WAVE, k=k), grid256)
        t, D = 0.013, 1.0
        out = vd.diffuse_spectral(wave, D, t)
        expected_amp = math.exp(-D * k * k * t)
        assert np.allclose(out.values, expected_amp * wave.values, rtol=1e-12, atol=0)
        intensity_ratio = vd.l2_norm_sq(out) / vd.l2_norm_sq(wave)
        assert intensity_ratio == pytest.approx(math.exp(-2 * D * k * k * t), rel=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_closed_form(self, m):
        g = vd.make_grid(256, 8.0)
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=0, m=m, w0=1.0, P=1.0)
        f = vd.lg_field(spec, g)
        t = 0.25
        evolved = vd.diffuse_spectral(f, 1.0, t)
        ref = vd.lg_closed_form(spec, 1.0, t, g.radius(), g.theta())[0]
        assert rel_linf(evolved.values, ref) <= 1e-6

    def test_norm_strictly_decreasing_for_nonconstant(self, lg01):
        norms = [vd.l2_norm_sq(vd.diffuse_spectral(lg01, 1.0, t)) for t in (0.0, 0.05, 0.1, 0.2)]
        assert np.all(np.diff(norms) < 0)


class TestDiffuseFd:
    def test_constant_field_unchanged(self, grid256):
        f = vd.ComplexField2D(grid256, np.full((256, 256), 2.0 - 1.0j))
        out = vd.diffuse_fd(f, 1.0, 0.05, fd_cfg())
        assert np.allclose(out.values, f.values, rtol=1e-13, atol=1e-13)

    def test_cfl_violation_is_hard_error(self, lg01):
        bound = vd.fd_max_dt(lg01.grid, 1.0, 0.9)
        with pytest.raises(vd.CflError) as err:
            vd.diffuse_fd(lg01, 1.0, 0.1, fd_cfg(cfl=0.9, dt=2 * bound))
        assert err.value.max_dt == pytest.approx(bound)
        assert f"{bound:.6g}" in str(err.value)

    def test_step_below_floor_is_hard_error(self, lg01):
        # 1 + D dt lambda rounds to 1 for so small a step: FD would do nothing
        floor = 1e-12 * lg01.grid.dx**2 / 4.0
        with pytest.raises(vd.CflError, match=f"minimum admissible dt is {floor:.6g} ") as err:
            vd.diffuse_fd(lg01, 1.0, 0.25, fd_cfg(dt=1e-30))
        assert err.value.max_dt == pytest.approx(vd.fd_max_dt(lg01.grid, 1.0, 0.9))
        assert vd.fd_timestep(lg01.grid, 1.0, fd_cfg(dt=floor)) == floor

    def test_halving_dx_quarters_error(self):
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=0, m=1)
        errors = {}
        for n in (128, 256):
            g = vd.make_grid(n, 8.0)
            f = vd.lg_field(spec, g)
            a = vd.diffuse_spectral(f, 1.0, 0.25)
            b = vd.diffuse_fd(f, 1.0, 0.25, fd_cfg(cfl=0.9))
            errors[n] = rel_linf(b.values, a.values)
        order = math.log2(errors[128] / errors[256])
        assert 1.7 <= order <= 2.3

    def test_partial_final_step_reaches_exact_time(self, lg00):
        # t is not a multiple of dt; the final shorter step must cover the gap
        bound = vd.fd_max_dt(lg00.grid, 1.0, 0.9)
        dt = bound * 0.97
        t = 10.5 * dt
        out = vd.diffuse_fd(lg00, 1.0, t, fd_cfg(dt=dt))
        ref = vd.diffuse_spectral(lg00, 1.0, t)
        assert rel_linf(out.values, ref.values) < 5e-3


class TestFdMarch:
    """The FD scheme is the periodic 5-point march, applied as the stencil's
    Fourier multiplier: it matches a stepwise march, and a stream of times
    equals a step to each time alone."""

    @staticmethod
    def _setup():
        g = vd.make_grid(64, 8.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1), g)
        dt = 0.8 * vd.fd_max_dt(g, 1.0, 0.9)
        cfg = fd_cfg(dt=dt)
        k = 7
        times = [0.0, k * dt, k * dt + 0.4 * dt, 25.3 * dt]
        return f, cfg, times

    @pytest.mark.parametrize("given_dt", [True, False])
    def test_matches_stepwise_march(self, given_dt):
        # under the given dt and under the default one (the stability
        # bound), some times end in a remainder step
        f, cfg, times = self._setup()
        cfg = cfg if given_dt else fd_cfg()
        dt = vd.fd_timestep(f.grid, 1.0, cfg)
        assert any(t / dt % 1 > 0.1 for t in times)
        snap = vd.initial_snapshot(f)
        for t, out in zip(times, vd.evolve_snapshots(snap, 1.0, times, cfg)):
            expected = fd_march(f.values, f.grid.dx, 1.0, dt, t)
            expected22 = fd_march(snap.rho22, f.grid.dx, 1.0, dt, t)
            assert expected22.dtype == out.rho22.dtype == np.float64
            assert rel_linf(vd.diffuse_fd(f, 1.0, t, cfg).values, expected) <= 1e-13
            assert rel_linf(out.rho12.values, expected) <= 1e-13
            assert rel_linf(out.rho22, expected22) <= 1e-13

    def test_march_matches_per_time_diffuse_fd(self):
        f, cfg, times = self._setup()
        real = np.abs(f.values) ** 2
        stream = _classical_stream(cfg, f.grid, f.free_space, [f.values, real], 1.0, times)
        for t, (u, v) in zip(times, stream):
            assert np.array_equal(u, vd.diffuse_fd(f, 1.0, t, cfg).values)
            ((alone,),) = _classical_stream(cfg, f.grid, f.free_space, [real], 1.0, [t])
            assert v.dtype == np.float64
            assert np.array_equal(v, alone)

    def test_evolve_snapshots_matches_evolve_snapshot(self):
        f, cfg, times = self._setup()
        snap = vd.initial_snapshot(f)
        for t, out in zip(times, vd.evolve_snapshots(snap, 1.0, times, cfg)):
            single = vd.evolve_snapshot(snap, 1.0, t, cfg)
            assert out.time == single.time
            assert np.array_equal(out.rho12.values, single.rho12.values)
            assert np.array_equal(out.rho22, single.rho22)
            assert out.rho12.free_space == single.rho12.free_space

    def test_d_zero_returns_copies(self):
        f, cfg, times = self._setup()
        marched = [u for (u,) in _classical_stream(cfg, f.grid, f.free_space, [f.values], 0.0, times)]
        assert len(marched) == len(times)
        for u in marched:
            assert np.array_equal(u, f.values)
            assert not np.shares_memory(u, f.values)
        assert not np.shares_memory(marched[0], marched[1])


class TestDiffuseKernel:
    def test_gaussian_widens_per_convolution_identity(self):
        g = vd.make_grid(256, 8.0)
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=0, m=0, w0=1.0, P=1.0)
        f = vd.lg_field(spec, g)
        t = 0.25
        out = vd.diffuse_kernel(f, 1.0, t)
        ref = vd.lg_closed_form(spec, 1.0, t, g.radius(), g.theta())[0]
        assert rel_linf(out.values, ref) <= 1e-6

    def test_single_pixel_reproduces_kernel(self):
        g = vd.make_grid(128, 8.0)
        vals = np.zeros((128, 128), dtype=complex)
        i0 = g.origin_index
        vals[i0, i0] = 1.0
        out = vd.diffuse_kernel(vd.ComplexField2D(g, vals), 1.0, 0.1)
        r = g.radius()
        expected = np.exp(-(r**2) / 0.4) / (0.4 * math.pi) * g.dx**2
        core = r < 1.5
        assert np.max(np.abs(out.values[core] - expected[core])) <= 1e-12 * expected.max()

    def test_result_does_not_keep_the_padded_transform(self):
        # the kept n x n window is cropped from a padded transform; the
        # stored values must own (or view) at most n^2 complex samples
        g = vd.make_grid(32, 8.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1), g)
        buffer = vd.diffuse_kernel(f, 1.0, 0.25).values
        while buffer.base is not None:
            buffer = buffer.base
        assert buffer.nbytes <= g.n**2 * 16

    def test_matches_direct_convolution_sum(self):
        # the "same" window of the linear convolution, summed term by term
        # with no transform: a wrong window or a pad too small to hold it
        # shifts or wraps this asymmetric, edge-heavy field.  At t = 0.2
        # the kernel's half-width exceeds n, so its weights sit at both ends
        # of each padded axis and offsets of n or more must wrap outside
        # the window
        g = vd.make_grid(16, 2.0)
        x = np.arange(16)
        vals = np.exp(-((x[:, None] - 11.0) ** 2 + (x[None, :] - 4.0) ** 2) / 20.0)
        vals = vals * np.exp(0.7j * x[:, None]) + 0.3 + 0.1j * x[None, :]
        assert (heat_kernel_patch(g.dx, 1.0, 0.2).shape[0] - 1) // 2 >= g.n
        for t in (1.05 * g.dx**2 / 4.0, 0.2):
            out = vd.diffuse_kernel(vd.ComplexField2D(g, vals), 1.0, t)
            assert rel_linf(out.values, kernel_convolution_sum(vals, g.dx, 1.0, t)) <= 1e-13

    def test_multiplier_is_real_and_separable(self, monkeypatch):
        # the weights G dx^2 = g(x) g(y), centred at index 0 of each padded
        # axis: their spectrum is real, the outer product of one 1-D factor,
        # and within rounding that of the sampled disk of the heat kernel
        captured = {}

        def capture(grid, fields, times, plan, multiplier):
            captured.update(plan=plan, multiplier=multiplier)
            return iter(())
        monkeypatch.setattr(solvers, "_fourier_stream", capture)
        g, t = vd.make_grid(64, 8.0), 0.25
        _classical_stream(vd.SolverConfig(scheme=vd.Scheme.KERNEL), g, None, [np.zeros((64, 64))], 1.0, [t])
        side = captured["plan"](t)
        factor = captured["multiplier"](t, side)
        assert factor.dtype == np.float64 and factor.shape == (side, side)
        axis = factor[0] / math.sqrt(factor[0, 0])  # factor[0, 0] is the axis factor's [0] squared
        assert np.max(np.abs(factor - _outer(axis))) <= 1e-15
        patch = heat_kernel_patch(g.dx, 1.0, t) * g.dx**2
        half = (patch.shape[0] - 1) // 2
        centred = np.zeros((side, side))
        centred[:2 * half + 1, :2 * half + 1] = patch
        centred = np.roll(centred, (-half, -half), axis=(0, 1))
        assert np.max(np.abs(factor - np.fft.fft2(centred))) <= 1e-14

    def test_total_mass_preserved(self, lg00):
        before = np.sum(lg00.values) * lg00.grid.dx**2
        after = np.sum(vd.diffuse_kernel(lg00, 1.0, 0.2).values) * lg00.grid.dx**2
        assert abs(after - before) / abs(before) <= 1e-6

    def test_t_zero_is_the_identity(self, lg00):
        # as for every classical step: no kernel is sampled, the field is copied
        out = vd.diffuse_kernel(lg00, 1.0, 0.0)
        assert out.values is not lg00.values
        assert np.array_equal(out.values, lg00.values)
        assert out.free_space == lg00.free_space

    def test_rejects_unresolved_kernel(self, lg00):
        # 4 D t below dx^2 under-samples the kernel and would inflate mass
        t_bad = 0.2 * lg00.grid.dx**2 / 4.0
        with pytest.raises(ValueError, match="unresolved"):
            vd.diffuse_kernel(lg00, 1.0, t_bad)


class TestSchemeAgreement:
    """Triple redundancy: the three discretizations of the same diffusion law
    must agree on smooth and rough initial data."""

    @pytest.mark.parametrize("mode", ["lg01", "lg11", "blocked_w0"])
    @pytest.mark.parametrize("t", [0.1, 0.25])
    def test_spectral_vs_kernel(self, mode, t, request):
        f = request.getfixturevalue(mode)
        a = vd.diffuse_spectral(f, 1.0, t)
        b = vd.diffuse_kernel(f, 1.0, t)
        assert rel_linf(b.values, a.values) <= 1e-5

    @pytest.mark.parametrize("mode,t,n", [
        ("lg01", 0.1, 512),
        ("lg11", 0.25, 512),
        ("lg11", 0.1, 768),
        ("blocked", 0.1, 512),
        ("blocked", 0.25, 512),
    ])
    def test_spectral_vs_converged_fd(self, mode, t, n):
        g = vd.make_grid(n, 8.0)
        if mode == "blocked":
            f = vd.blocked_gaussian(
                vd.ModeSpec(kind=vd.ModeKind.BLOCKED_GAUSSIAN, block_radius=1.0), g
            )
        else:
            p = 1 if mode == "lg11" else 0
            f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, p=p, m=1), g)
        a = vd.diffuse_spectral(f, 1.0, t)
        b = vd.diffuse_fd(f, 1.0, t, fd_cfg(cfl=0.45))
        assert rel_linf(b.values, a.values) <= 1e-4


class TestQuantumEvolution:
    def test_norm_conserved(self, lg01):
        q = vd.QuantumParams(beta=1.0)
        out = vd.evolve_quantum(lg01, q, 0.7)
        assert vd.l2_norm_sq(out) == pytest.approx(vd.l2_norm_sq(lg01), rel=1e-12)

    def test_inverse_phase_restores(self, lg01):
        q = vd.QuantumParams(beta=0.8)
        there = vd.evolve_quantum(lg01, q, 0.3)
        back = vd.evolve_quantum(there, q, -0.3)
        assert rel_linf(back.values, lg01.values) <= 1e-12

    def test_gaussian_acquires_complex_width(self):
        g = vd.make_grid(256, 8.0)
        r = g.radius()
        f = vd.ComplexField2D(g, np.exp(-(r**2)).astype(complex))
        beta, t = 1.0, 0.2
        out = vd.evolve_quantum(f, vd.QuantumParams(beta=beta), t)
        i0 = g.origin_index
        for j in range(1, 11):
            radius = r[i0 + j, i0]
            expected = free_gaussian_dispersed(radius, 1.0, beta, t)
            assert out.values[i0 + j, i0] == pytest.approx(expected, rel=1e-10)

    def test_matches_direct_transform(self, lg01):
        # the periodic one-time case of the Fourier loop: fft2, multiply by
        # e^{-i beta kx^2 t} e^{-i beta ky^2 t}, ifft2, with the same bytes
        beta, t = 0.8, 0.3
        k = 2.0 * np.pi * np.fft.fftfreq(lg01.grid.n, d=lg01.grid.dx)
        phase = np.exp(-1j * beta * k**2 * t)
        expected = np.fft.ifft2(np.fft.fft2(lg01.values) * np.outer(phase, phase))
        out = vd.evolve_quantum(lg01, vd.QuantumParams(beta=beta), t)
        assert np.array_equal(out.values, expected)
        assert out.free_space == lg01.free_space

    def test_echo_round_trip(self, lg01):
        q = vd.QuantumParams(beta=1.0)
        forward = vd.evolve_quantum(lg01, q, 0.25)
        back = vd.echo_reverse(forward, q, 0.25)
        err = math.sqrt(
            vd.l2_norm_sq(vd.ComplexField2D(lg01.grid, back.values - lg01.values))
            / vd.l2_norm_sq(lg01)
        )
        assert err <= 1e-10

    def test_echo_at_t_zero_is_identity(self, lg01):
        q = vd.QuantumParams(beta=1.0)
        out = vd.echo_reverse(lg01, q, 0.0)
        assert rel_linf(out.values, lg01.values) <= 1e-13


class TestSeparableMultiplier:
    """The spectral and quantum multipliers are outer products of 1-D
    factors; they stay within rounding of the n^2 exp of |k|^2: 1e-12 of
    the peak for the decay, the phase's own rounding for the phase."""

    @pytest.mark.parametrize("side,extent", [(1024, 8.0), (256, 8.0), (216, 6.0)])
    def test_outer_product_matches_full_grid_exp(self, side, extent):
        dx = 2.0 * extent / side
        k = _wavenumbers(side, dx)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        k2 = kx**2 + ky**2
        for t in (0.01, 0.25, 2.5):
            full = np.exp(-k2 * t)
            assert np.max(np.abs(_outer(np.exp(-k**2 * t)) - full)) <= 1e-12 * np.max(full)
        for beta, t in ((1.0, 0.25), (0.8, 0.3)):
            # a phase is resolved only to its own rounding, so the gap is
            # bounded by that rounding, which grows with k_max^2 t
            full = np.exp(-1j * beta * k2 * t)
            bound = 4.0 * np.finfo(float).eps * beta * k2.max() * t
            assert np.max(np.abs(_outer(np.exp(-1j * beta * k**2 * t)) - full)) <= bound


class TestClassicalIrreversibility:
    def test_reversal_raises_with_amplification(self, lg01):
        with pytest.raises(vd.IrreversibleEvolutionError) as err:
            vd.reverse_classical(lg01, 1.0, 0.25)
        expected = math.exp(1.0 * (math.pi / lg01.grid.dx) ** 2 * 0.25)
        assert err.value.amplification == pytest.approx(expected, rel=1e-9)
        assert err.value.amplification > 1e6
        assert "irreversible" in str(err.value)

    def test_t_zero_is_noop(self, lg01):
        out = vd.reverse_classical(lg01, 1.0, 0.0)
        assert np.array_equal(out.values, lg01.values)

    def test_amplification_helper(self, grid256):
        amp = vd.classical_reversal_amplification(grid256, 1.0, 0.25)
        assert amp == pytest.approx(math.exp((16 * math.pi) ** 2 * 0.25), rel=1e-9)


class TestEvolveSnapshot:
    def test_m1_center_population(self):
        g = vd.make_grid(256, 8.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1, P=math.pi), g)
        snap = vd.initial_snapshot(f)
        out = vd.evolve_snapshot(snap, 1.0, 0.125, spectral_cfg())
        assert out.time == 0.125
        assert vd.center_intensity(out) == pytest.approx(0.5, abs=1e-4)

    def test_m0_population_profile_matches_closed_form(self, lg00):
        snap = vd.initial_snapshot(lg00)
        t = 0.2
        out = vd.evolve_snapshot(snap, 1.0, t, spectral_cfg())
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, m=0)
        ref = vd.lg_closed_form(spec, 1.0, t, lg00.grid.radius())[1]
        assert np.max(np.abs(out.rho22 - ref)) / ref.max() <= 1e-5

    def test_physicality_preserved(self, lg01):
        snap = vd.initial_snapshot(lg01)
        out = vd.evolve_snapshot(snap, 1.0, 0.3, spectral_cfg())
        coh_sq = np.abs(out.rho12.values) ** 2
        assert np.all(coh_sq <= out.rho22 + 1e-9)
        assert np.all(out.rho22 >= 0)

    def test_free_space_past_containment(self, lg01, grid256):
        # [-8, 8) contains LG_0^1 only up to s = 2 (t = 0.25); beyond it the
        # spectral step must not wrap rho22, nor a field it produced itself.
        r, theta = grid256.radius(), grid256.theta()
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, m=1)
        snap = vd.initial_snapshot(lg01)
        for t in (1.0, 2.0):
            out = vd.evolve_snapshot(snap, 1.0, t, spectral_cfg())
            assert rel_linf(out.rho22, vd.lg_closed_form(spec, 1.0, t, r)[1]) <= 1e-5
        half = vd.diffuse_spectral(lg01, 1.0, 0.5)
        assert half.free_space.w0_sq == pytest.approx(3.0)
        chained = vd.diffuse_spectral(half, 1.0, 0.5)
        ref = vd.lg_closed_form(spec, 1.0, 1.0, r, theta)[0]
        assert rel_linf(chained.values, ref) <= 1e-6

    def test_kernel_scheme_identity_at_t_zero(self, lg01):
        cfg = vd.SolverConfig(scheme=vd.Scheme.KERNEL)
        out = vd.evolve_snapshot(vd.initial_snapshot(lg01), 1.0, 0.0, cfg)
        assert np.array_equal(out.rho12.values, lg01.values)

    @pytest.mark.parametrize("scheme", [vd.Scheme.SPECTRAL, vd.Scheme.KERNEL, vd.Scheme.FD_EXPLICIT])
    @pytest.mark.parametrize("m", [1, -1, 2])
    def test_vortex_center_pinned(self, scheme, m):
        g = vd.make_grid(128, 8.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=m), g)
        cfg = vd.SolverConfig(scheme=scheme)
        i0 = g.origin_index
        for t in (0.1, 0.25):
            out = vd.diffuse_spectral(f, 1.0, t) if scheme is vd.Scheme.SPECTRAL else (
                vd.diffuse_kernel(f, 1.0, t) if scheme is vd.Scheme.KERNEL
                else vd.diffuse_fd(f, 1.0, t, cfg)
            )
            assert abs(out.values[i0, i0]) <= 1e-10

    def test_p_padding_decays_faster(self, lg01, lg11):
        # LG_1^1 loses coherent energy faster than LG_0^1 in the s < 3 window
        for t in (0.05, 0.1, 0.15, 0.2, 0.25):
            e01 = vd.retrieval_efficiency(vd.diffuse_spectral(lg01, 1.0, t), lg01)
            e11 = vd.retrieval_efficiency(vd.diffuse_spectral(lg11, 1.0, t), lg11)
            assert e11 < e01


class TestInverseTransform:
    """The per-axis inverse runs in numpy's own axis order, so its bytes are
    those of ifft2 and irfft2, at the padded sides the streams use."""

    @pytest.mark.parametrize("side", [150, 180])
    def test_complex_inverse_in_place_matches_ifft2(self, side):
        rng = np.random.default_rng(side)
        spectrum = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        expected = np.fft.ifft2(spectrum)
        work = spectrum.copy()
        out = _inverse_fft2(work, side, real=False)
        assert out is work  # in place: no padded array beside the product
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("side", [150, 180])
    def test_real_inverse_matches_irfft2(self, side):
        rng = np.random.default_rng(side)
        half = np.fft.rfft2(rng.standard_normal((side - 20, side - 20)), s=(side, side))
        half *= np.exp(-rng.random(half.shape))
        expected = np.fft.irfft2(half, s=(side, side))
        out = _inverse_fft2(half.copy(), side, real=True)
        assert out.dtype == np.float64 and out.shape == (side, side)
        assert np.array_equal(out, expected)


class TestSnapshotStream:
    """evolve_snapshots shares transforms between times and fields; every
    time must keep the bytes of a step from the initial snapshot alone."""

    @staticmethod
    def _spectral_reference(grid: vd.GridSpec, fs, values: np.ndarray, D: float, t: float) -> np.ndarray:
        # one forward transform, multiply by e^{-D kx^2 t} e^{-D ky^2 t},
        # inverse and crop of this field at this time: fft2 / ifft2 for a
        # complex field, rfft2 / irfft2 for a real one
        size = _free_space_size(grid, fs, D, t)
        k = 2.0 * np.pi * np.fft.fftfreq(size, d=grid.dx)
        axis = np.exp(-D * k**2 * t)
        factor = np.outer(axis, axis)
        if np.iscomplexobj(values):
            back = np.fft.ifft2(np.fft.fft2(values, s=(size, size)) * factor)
        else:
            half = np.fft.rfft2(values, s=(size, size)) * factor[:, :size // 2 + 1]
            back = np.fft.irfft2(half, s=(size, size))
        return np.ascontiguousarray(back[:grid.n, :grid.n])

    @staticmethod
    def _real_step(cfg: vd.SolverConfig, snap: vd.StateSnapshot, t: float) -> np.ndarray:
        # rho22 alone, diffused to t alone as a real field, clipped as the
        # snapshot clips it
        ((out,),) = _classical_stream(cfg, snap.grid, snap.rho12.free_space, [snap.rho22], 1.0, [t])
        assert out.dtype == np.float64
        return np.maximum(out, 0.0)

    def test_padded_spectral_stream_matches_per_time_steps(self):
        # [-6, 6) contains LG_0^1 up to s = 1.125; later times pad, to
        # sides 96, 96, 144 and 216, so the stream reuses and then renews
        # its transforms
        g = vd.make_grid(64, 6.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1), g)
        snap = vd.initial_snapshot(f)
        times = [0.0, 0.01, 0.02, 0.31, 0.32, 1.0, 2.5]
        sides = [_free_space_size(g, f.free_space, 1.0, t) for t in times[1:]]
        assert sides == [64, 64, 96, 96, 144, 216]
        outs = vd.evolve_snapshots(snap, 1.0, times, spectral_cfg())
        for t, out in zip(times, outs):
            assert out.time == t
            single = vd.diffuse_spectral(f, 1.0, t).values
            single22 = self._real_step(spectral_cfg(), snap, t)
            assert np.array_equal(out.rho12.values, single)
            assert np.array_equal(out.rho22, single22)
            if t > 0:
                assert np.array_equal(single, self._spectral_reference(g, f.free_space, f.values, 1.0, t))
                assert np.array_equal(single22, np.maximum(
                    self._spectral_reference(g, f.free_space, snap.rho22, 1.0, t), 0.0))

    @staticmethod
    def _kernel_side(g: vd.GridSpec, t: float) -> int:
        return _fft_size(g.n + (heat_kernel_patch(g.dx, 1.0, t).shape[0] - 1) // 2)

    def test_kernel_stream_matches_per_field_steps(self):
        # the first three nonzero times share one padded side, with a
        # different kernel width each, so the stream holds their spectra;
        # the last has a side of its own and forms its spectra afresh
        g = vd.make_grid(64, 8.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1), g)
        snap = vd.initial_snapshot(f)
        times = [0.0, 0.05, 0.06, 0.08, 0.25]
        assert [self._kernel_side(g, t) for t in times[1:]] == [80, 80, 80, 90]
        assert len({heat_kernel_patch(g.dx, 1.0, t).shape for t in times[1:4]}) == 3
        cfg = vd.SolverConfig(scheme=vd.Scheme.KERNEL)
        for t, out in zip(times, vd.evolve_snapshots(snap, 1.0, times, cfg)):
            if t == 0:
                assert np.array_equal(out.rho12.values, f.values)
                assert np.array_equal(out.rho22, snap.rho22)
                continue
            assert np.array_equal(out.rho12.values, vd.diffuse_kernel(f, 1.0, t).values)
            assert np.array_equal(out.rho22, self._real_step(cfg, snap, t))

    @staticmethod
    def _stream_peak(snap: vd.StateSnapshot, times, cfg: vd.SolverConfig) -> int:
        tracemalloc.start()
        try:
            for out in vd.evolve_snapshots(snap, 1.0, times, cfg):
                del out  # the caller keeps no snapshot
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The stream's one rule: a field's spectrum at a side is formed once,
    # held while the next time reads that side, and multiplied in place by
    # its last reader; each time's multiplier is built after its first
    # spectrum.  In the kernel and padded spectral cases each time is on its
    # own padded side, so the padded arrays alive at once are the multiplier
    # and one spectrum: the inverse runs in place, rho22's half spectrum and
    # real inverse are half a padded array each, and the kernel's multiplier
    # is real.  Holding both fields' spectra, ifft2's two working arrays, or
    # a multiplier past its time would break the bound.  FD times all share
    # the grid's side, so both spectra are held, beside a real multiplier
    # and one product.  A snapshot is complex rho12, real rho22 and real
    # |rho12|^2; the caller here keeps the stored snapshot, so its fields
    # stay alive (and untraced) for the whole stream.  No generator keeps
    # what it yielded: a list or snapshot the caller drops is freed before
    # the next time is computed.

    @pytest.mark.parametrize("scheme", list(vd.Scheme))
    def test_no_stream_keeps_what_it_yielded(self, lg01, scheme):
        # times 0 (copies), 0.1 (spectra held for the next time) and 0.2
        snap = vd.initial_snapshot(lg01)
        cfg = vd.SolverConfig(scheme=scheme)
        times = [0.0, 0.1, 0.2]
        stream = _classical_stream(cfg, lg01.grid, lg01.free_space, [lg01.values, snap.rho22], 1.0, times)
        snaps = vd.evolve_snapshots(snap, 1.0, times, cfg)
        for _ in times:
            arrays = [weakref.ref(a) for a in next(stream)]
            snapshot = weakref.ref(next(snaps))
            assert [ref() for ref in arrays] == [None, None]
            assert snapshot() is None

    def test_kernel_stream_peak_memory(self):
        g = vd.make_grid(64, 8.0)
        snap = vd.initial_snapshot(vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1), g))
        times = [0.25, 0.5, 1.0]
        sides = [self._kernel_side(g, t) for t in times]
        assert sides == sorted(set(sides))
        peak = self._stream_peak(snap, times, vd.SolverConfig(scheme=vd.Scheme.KERNEL))
        padded = 16 * sides[-1] ** 2
        snapshot = 32 * g.n**2
        assert peak <= 2 * padded + 2 * snapshot

    def test_padded_spectral_stream_peak_memory(self):
        g = vd.make_grid(256, 6.0)
        snap = vd.initial_snapshot(vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1), g))
        times = [0.31, 1.0, 2.5]
        sides = [_free_space_size(g, snap.rho12.free_space, 1.0, t) for t in times]
        assert sides == sorted(set(sides)) and sides[0] > g.n
        peak = self._stream_peak(snap, times, spectral_cfg())
        padded = 16 * sides[-1] ** 2
        snapshot = 32 * g.n**2
        assert peak <= 2 * padded + 2 * snapshot

    def test_fd_stream_peak_memory(self):
        g = vd.make_grid(128, 8.0)
        snap = vd.initial_snapshot(vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1), g))
        peak = self._stream_peak(snap, [0.05, 0.1, 0.2], fd_cfg())
        padded = 16 * g.n**2
        snapshot = 32 * g.n**2
        assert peak <= 2 * padded + 2 * snapshot

    def test_stream_is_lazy(self, lg01):
        stream = vd.evolve_snapshots(vd.initial_snapshot(lg01), -1.0, [0.1], spectral_cfg())
        with pytest.raises(ValueError, match="diffusion coefficient"):
            next(stream)


class TestSolverConfig:
    def test_rejects_bad_cfl(self):
        with pytest.raises(ValueError):
            vd.SolverConfig(cfl_safety=0.0)
        with pytest.raises(ValueError):
            vd.SolverConfig(cfl_safety=1.5)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            vd.SolverConfig(dt=-1e-3)
