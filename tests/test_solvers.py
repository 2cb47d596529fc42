import math

import numpy as np
import pytest

import vortexdiff as vd
from vortexdiff.solvers import heat_kernel_patch
from vortexdiff.solvers import _fd_march
from helpers import free_gaussian_dispersed


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
        ref = vd.coherence_closed_form(g.radius(), g.theta(), t, spec, 1.0)
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
    """One FD march across ascending times equals a fresh march to each time."""

    @staticmethod
    def _setup():
        g = vd.make_grid(64, 8.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1), g)
        dt = 0.8 * vd.fd_max_dt(g, 1.0, 0.9)
        cfg = fd_cfg(dt=dt)
        k = 7
        times = [0.0, k * dt, k * dt + 0.4 * dt, 25.3 * dt]
        return f, cfg, times

    def test_march_matches_per_time_diffuse_fd(self):
        f, cfg, times = self._setup()
        marched = _fd_march(f.values, f.grid, 1.0, times, cfg)
        for t, u in zip(times, marched):
            assert np.array_equal(u, vd.diffuse_fd(f, 1.0, t, cfg).values)
        real = np.abs(f.values) ** 2
        marched_real = _fd_march(real, f.grid, 1.0, times, cfg)
        for t, u in zip(times, marched_real):
            assert u.dtype == np.float64
            per_time = vd.diffuse_fd(vd.ComplexField2D(f.grid, real), 1.0, t, cfg).values
            assert np.array_equal(u, per_time.real)

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
        marched = list(_fd_march(f.values, f.grid, 0.0, times, cfg))
        assert len(marched) == len(times)
        for u in marched:
            assert np.array_equal(u, f.values)
            assert not np.shares_memory(u, f.values)
        assert not np.shares_memory(marched[0], marched[1])

    def test_descending_times_rejected(self):
        f, cfg, _ = self._setup()
        with pytest.raises(ValueError, match="ascending"):
            list(_fd_march(f.values, f.grid, 1.0, [0.1, 0.05], cfg))


class TestDiffuseKernel:
    def test_gaussian_widens_per_convolution_identity(self):
        g = vd.make_grid(256, 8.0)
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=0, m=0, w0=1.0, P=1.0)
        f = vd.lg_field(spec, g)
        t = 0.25
        out = vd.diffuse_kernel(f, 1.0, t)
        ref = vd.coherence_closed_form(g.radius(), g.theta(), t, spec, 1.0)
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

    def test_matches_direct_convolution_sum(self):
        # the "same" window of the linear convolution, summed term by term
        # with no transform: a wrong crop offset or a pad too small to hold
        # the window shifts or wraps this asymmetric, edge-heavy field
        g = vd.make_grid(16, 2.0)
        t = 1.05 * g.dx**2 / 4.0
        x = np.arange(16)
        vals = np.exp(-((x[:, None] - 11.0) ** 2 + (x[None, :] - 4.0) ** 2) / 20.0)
        vals = vals * np.exp(0.7j * x[:, None]) + 0.3 + 0.1j * x[None, :]
        kernel = heat_kernel_patch(g, 1.0, t)
        half = (kernel.shape[0] - 1) // 2
        expected = np.zeros((16, 16), dtype=complex)
        for i in range(16):
            for j in range(16):
                for u in range(kernel.shape[0]):
                    for v in range(kernel.shape[1]):
                        a, b = i + half - u, j + half - v
                        if 0 <= a < 16 and 0 <= b < 16:
                            expected[i, j] += vals[a, b] * kernel[u, v]
        expected *= g.dx**2
        out = vd.diffuse_kernel(vd.ComplexField2D(g, vals), 1.0, t)
        assert rel_linf(out.values, expected) <= 1e-13

    def test_total_mass_preserved(self, lg00):
        before = np.sum(lg00.values) * lg00.grid.dx**2
        after = np.sum(vd.diffuse_kernel(lg00, 1.0, 0.2).values) * lg00.grid.dx**2
        assert abs(after - before) / abs(before) <= 1e-6

    def test_rejects_t_zero(self, lg00):
        with pytest.raises(ValueError):
            vd.diffuse_kernel(lg00, 1.0, 0.0)

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
        ref = vd.population_m0(lg00.grid.radius(), t, 1.0, 1.0, 1.0)
        assert np.max(np.abs(out.rho22 - ref)) / ref.max() <= 1e-5

    def test_physicality_preserved(self, lg01):
        snap = vd.initial_snapshot(lg01)
        out = vd.evolve_snapshot(snap, 1.0, 0.3, spectral_cfg())
        coh_sq = np.abs(out.rho12.values) ** 2
        assert np.all(coh_sq <= out.rho22 + 1e-9)
        assert np.all(out.rho22 >= 0)

    def test_rho11_stays_unity(self, lg01):
        out = vd.evolve_snapshot(vd.initial_snapshot(lg01), 1.0, 0.1, spectral_cfg())
        assert out.rho11 == 1.0

    def test_free_space_past_containment(self, lg01, grid256):
        # [-8, 8) contains LG_0^1 only up to s = 2 (t = 0.25); beyond it the
        # spectral step must not wrap rho22, nor a field it produced itself.
        r, theta = grid256.radius(), grid256.theta()
        snap = vd.initial_snapshot(lg01)
        for t in (1.0, 2.0):
            out = vd.evolve_snapshot(snap, 1.0, t, spectral_cfg())
            assert rel_linf(out.rho22, vd.population_m1(r, t, 1.0, 1.0, 1.0)) <= 1e-5
        half = vd.diffuse_spectral(lg01, 1.0, 0.5)
        assert half.free_space.w0_sq == pytest.approx(3.0)
        chained = vd.diffuse_spectral(half, 1.0, 0.5)
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, m=1)
        ref = vd.coherence_closed_form(r, theta, 1.0, spec, 1.0)
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


class TestSolverConfig:
    def test_rejects_bad_cfl(self):
        with pytest.raises(ValueError):
            vd.SolverConfig(cfl_safety=0.0)
        with pytest.raises(ValueError):
            vd.SolverConfig(cfl_safety=1.5)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            vd.SolverConfig(dt=-1e-3)
