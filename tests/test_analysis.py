import math

import numpy as np
import pytest

import vortexdiff as vd


def evolved(field, t, D=1.0):
    return vd.diffuse_spectral(field, D, t)


class TestRetrievalEfficiency:
    def test_identity(self, lg01):
        assert vd.retrieval_efficiency(lg01, lg01) == 1.0

    def test_gaussian_and_vortex_at_s_two(self, lg00, lg01):
        assert vd.retrieval_efficiency(evolved(lg00, 0.25), lg00) == pytest.approx(0.5, abs=1e-5)
        assert vd.retrieval_efficiency(evolved(lg01, 0.25), lg01) == pytest.approx(0.25, abs=1e-5)

    def test_m2_at_s_two(self, grid256):
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=2), grid256)
        assert vd.retrieval_efficiency(evolved(f, 0.25), f) == pytest.approx(0.125, abs=1e-4)

    def test_rejects_zero_reference(self, grid256, lg01):
        zero = vd.ComplexField2D(grid256, np.zeros((256, 256), dtype=complex))
        with pytest.raises(ValueError):
            vd.retrieval_efficiency(lg01, zero)

    def test_rejects_grid_mismatch(self, lg01):
        other = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1), vd.make_grid(128, 8.0))
        with pytest.raises(ValueError):
            vd.retrieval_efficiency(other, lg01)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_fidelity_law(self, m):
        g = vd.make_grid(512, 16.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=m), g)
        for t in (0.1, 0.25, 0.5):
            eff = vd.retrieval_efficiency(evolved(f, t), f)
            oracle = vd.lg_closed_form(vd.ModeSpec(kind=vd.ModeKind.LG, m=m), 1.0, t, 0.0)[2]
            assert eff == pytest.approx(oracle, abs=1e-4)

    def test_gaussian_beats_all_vortices(self):
        g = vd.make_grid(512, 16.0)
        fields = [vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=m), g) for m in range(4)]
        for t in (0.05, 0.2, 0.5):
            effs = [vd.retrieval_efficiency(evolved(f, t), f) for f in fields]
            assert np.all(np.diff(effs) < 0)


class TestCoherenceFactorField:
    def test_map_uses_the_array_formula(self):
        g = vd.make_grid(64, 8.0)
        snap0 = vd.initial_snapshot(vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1), g))
        snap = vd.evolve_snapshot(snap0, 1.0, 0.1, vd.SolverConfig())
        eta = 1e-10
        cf = vd.coherence_factor_field(snap, eta)
        coh_sq = np.abs(snap.rho12.values) ** 2
        expected = vd.coherence_factor_values(coh_sq, snap.rho22, eta)
        assert np.array_equal(cf.values, expected)
        i, j = 20, 37
        direct = min((coh_sq[i, j] + eta) / (snap.rho22[i, j] + eta), 1.0)
        assert expected[i, j] == pytest.approx(direct, rel=1e-15)

    def test_array_formula_clamps_negative_rho22(self):
        f = vd.coherence_factor_values(np.array([0.0, 0.5]), np.array([-1e-20, 0.25]), 1e-12)
        assert f[0] == 1.0  # eta / eta
        assert f[1] == 1.0  # 0.5 / 0.25 clamped

    def test_pure_initial_state_is_unity(self, lg01):
        snap = vd.initial_snapshot(lg01)
        cf = vd.coherence_factor_field(snap)
        assert np.all(np.abs(cf.values - 1.0) <= 1e-9)
        assert cf.weighted_average == pytest.approx(1.0, abs=1e-9)

    def test_vortex_center_becomes_incoherent(self):
        g = vd.make_grid(256, 8.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1, P=2 * math.pi), g)
        snap = vd.initial_snapshot(f)
        eta = 1e-12
        i0 = g.origin_index
        for t in (0.05, 0.125, 0.25):
            out = vd.evolve_snapshot(snap, 1.0, t, vd.SolverConfig())
            cf = vd.coherence_factor_field(out, eta)
            assert cf.values[i0, i0] <= 2 * eta

    def test_untouched_region_stays_pure_with_tiny_weight(self, lg01):
        out = vd.evolve_snapshot(vd.initial_snapshot(lg01), 1.0, 0.1, vd.SolverConfig())
        # eta well above the FFT noise floor (~1e-17) so 0/0 resolves cleanly
        cf = vd.coherence_factor_field(out, 1e-8)
        far = out.grid.radius() > 6.0
        assert np.all(np.abs(cf.values[far] - 1.0) <= 1e-7)
        assert np.sum(out.rho22[far]) / np.sum(out.rho22) < 1e-8

    def test_values_stay_in_unit_interval(self, lg11):
        out = vd.evolve_snapshot(vd.initial_snapshot(lg11), 1.0, 0.2, vd.SolverConfig())
        cf = vd.coherence_factor_field(out)
        assert cf.values.min() >= 0.0
        assert cf.values.max() <= 1.0

    def test_weighted_average_tracks_fidelity(self, lg01):
        # sum(|rho12|^2) / sum(rho22) is the fidelity when eta -> 0
        snap = vd.initial_snapshot(lg01)
        for t, s in ((0.125, 1.5), (0.25, 2.0), (0.5, 3.0)):
            out = vd.evolve_snapshot(snap, 1.0, t, vd.SolverConfig())
            cf = vd.coherence_factor_field(out)
            assert cf.weighted_average == pytest.approx(s**-2, rel=1e-4)


class TestFindRadialNodes:
    def test_vortex_has_single_center_node(self, lg01):
        prof = vd.azimuthal_average(lg01, 256)
        assert vd.find_radial_nodes(prof).node_radii == [0.0]

    def test_lg10_node_at_w0_over_sqrt2(self):
        g = vd.make_grid(256, 8.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, p=1, m=0), g)
        prof = vd.azimuthal_average(f, 256)
        nodes = vd.find_radial_nodes(prof).node_radii
        assert len(nodes) == 1
        assert nodes[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=prof.bin_width)

    def test_lg21_finds_both_rings(self):
        g = vd.make_grid(256, 8.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, p=2, m=1), g)
        prof = vd.azimuthal_average(f, 320)
        nodes = vd.find_radial_nodes(prof, rel_threshold=0.05).node_radii
        # zeros of L_2^1(2 r^2): r = sqrt((3 -+ sqrt(3))/2), plus the center
        assert len(nodes) == 3
        assert nodes[0] == 0.0
        assert nodes[1] == pytest.approx(math.sqrt((3 - math.sqrt(3)) / 2), abs=2 * prof.bin_width)
        assert nodes[2] == pytest.approx(math.sqrt((3 + math.sqrt(3)) / 2), abs=2 * prof.bin_width)

    @pytest.mark.parametrize("t,expected_radius", [
        # node radius of the evolved LG_1^1 profile: r^2 = 8a(1 - 2a), a = 1/4 + t
        (0.0625, 0.96825), (0.125, 0.86603), (0.1875, 0.66144),
    ])
    def test_lg11_node_migrates_inward(self, lg11, t, expected_radius):
        prof = vd.azimuthal_average(evolved(lg11, t), 200)
        nodes = vd.find_radial_nodes(prof, rel_threshold=0.05, time=t).node_radii
        assert len(nodes) == 2
        assert nodes[0] == 0.0
        assert nodes[1] == pytest.approx(expected_radius, abs=2 * prof.bin_width)

    def test_node_count_conserved_while_nodes_exist(self, lg11):
        for t in (0.0, 0.0625, 0.125, 0.1875):
            prof = vd.azimuthal_average(evolved(lg11, t) if t else lg11, 200)
            nodes = vd.find_radial_nodes(prof, rel_threshold=0.05, time=t).node_radii
            assert len(nodes) == 2, t

    def test_gaussian_has_no_nodes(self, lg00):
        prof = vd.azimuthal_average(lg00, 128)
        assert vd.find_radial_nodes(prof).node_radii == []

    def test_rejects_bad_threshold(self, lg01):
        prof = vd.azimuthal_average(lg01, 64)
        for thr in (0.0, -0.01, 0.2):
            with pytest.raises(ValueError):
                vd.find_radial_nodes(prof, rel_threshold=thr)

    def test_rejects_empty_profile(self):
        prof = vd.RadialProfile(radii=np.array([]), mean_intensity=np.array([]), bin_width=0.1)
        with pytest.raises(ValueError):
            vd.find_radial_nodes(prof)


class TestCenterIntensity:
    def test_zero_at_t_zero(self, lg01):
        assert vd.center_intensity(vd.initial_snapshot(lg01)) == 0.0

    def test_peak_value_at_t_star(self):
        g = vd.make_grid(256, 8.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1, P=math.pi), g)
        snap = vd.initial_snapshot(f)
        out = vd.evolve_snapshot(snap, 1.0, 0.125, vd.SolverConfig())
        assert vd.center_intensity(out) == pytest.approx(0.5, abs=1e-4)

    def test_t_star_is_the_maximum_over_samples(self):
        g = vd.make_grid(256, 8.0)
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1, P=math.pi), g)
        snap = vd.initial_snapshot(f)
        times = [0.05, 0.075, 0.1, 0.125, 0.15, 0.2, 0.3]
        values = [
            vd.center_intensity(vd.evolve_snapshot(snap, 1.0, t, vd.SolverConfig()))
            for t in times
        ]
        assert times[int(np.argmax(values))] == 0.125


class TestFitDecay:
    def test_synthetic_power_law(self):
        times = np.linspace(0.0, 1.0, 8)
        values = [vd.evolution_factor(t, 1.0, 1.0) ** -2 for t in times]
        power, expo = vd.fit_decay(times, values, 1.0, 1.0)
        assert power.exponent == pytest.approx(-2.0, abs=0.01)
        assert power.preferred and not expo.preferred

    def test_plane_wave_rate(self, grid256):
        k = 2.0 * math.pi
        wave = vd.plane_wave(vd.ModeSpec(kind=vd.ModeKind.PLANE_WAVE, k=k), grid256)
        times = np.linspace(0.0, 0.02, 8)
        values = [vd.retrieval_efficiency(evolved(wave, t), wave) for t in times]
        power, expo = vd.fit_decay(times, values, 1.0, 1.0)
        assert expo.preferred and not power.preferred
        assert expo.rate == pytest.approx(2.0 * k**2, rel=5e-3)

    def test_vortex_energy_trace_prefers_power_law(self, lg01):
        times = np.linspace(0.0, 0.25, 6)
        values = [vd.retrieval_efficiency(evolved(lg01, t), lg01) for t in times]
        power, expo = vd.fit_decay(times, values, 1.0, 1.0)
        assert power.preferred
        assert power.exponent == pytest.approx(-2.0, rel=0.01)
        assert power.rms_log_residual < expo.rms_log_residual

    def test_exponential_data_prefers_exponential(self):
        times = np.linspace(0.0, 1.0, 6)
        values = 3.0 * np.exp(-1.7 * times)  # spans a factor e^1.7 > 4
        power, expo = vd.fit_decay(times, values, 1.0, 1.0)
        assert expo.preferred
        assert expo.rate == pytest.approx(1.7, rel=1e-9)
        assert expo.amplitude == pytest.approx(3.0, rel=1e-9)

    def test_exactly_one_preferred(self):
        times = np.linspace(0.0, 1.0, 7)
        values = np.exp(-times)
        power, expo = vd.fit_decay(times, values, 1.0, 1.0)
        assert power.preferred != expo.preferred

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            vd.fit_decay([0, 0.1, 0.2, 0.3], [1, 0.9, 0.8, 0.7], 1.0, 1.0)
        with pytest.raises(ValueError):
            vd.fit_decay([0, 0.1, 0.2, 0.3, 0.4], [1, 0.9, 0.0, 0.7, 0.6], 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, bad):
        # NaN passes a "<= 0" test, so the rule is stated as 0 < v < inf
        with pytest.raises(ValueError, match="^decay fits need finite, strictly positive values$"):
            vd.fit_decay([0, 0.1, 0.2, 0.3, 0.4], [1, 0.9, bad, 0.7, 0.6], 1.0, 1.0)


class TestTotalPopulation:
    def test_unit_mode_at_t_zero(self, lg01):
        assert vd.total_population(vd.initial_snapshot(lg01)) == pytest.approx(1.0, abs=1e-6)

    def test_conserved_under_evolution(self, lg01):
        snap = vd.initial_snapshot(lg01)
        base = vd.total_population(snap)
        for t in (0.1, 0.5):
            out = vd.evolve_snapshot(snap, 1.0, t, vd.SolverConfig())
            assert vd.total_population(out) == pytest.approx(base, rel=1e-3)

    def test_zero_field(self, grid256):
        zero = vd.ComplexField2D(grid256, np.zeros((256, 256), dtype=complex))
        snap = vd.StateSnapshot(time=0.0, rho12=zero, rho22=np.zeros((256, 256)))
        assert vd.total_population(snap) == 0.0


class TestHoleRefill:
    def test_blocked_hole_empty_at_t_zero(self, blocked_w0):
        assert vd.hole_refill_ratio(blocked_w0, 1.0) == 0.0

    def test_monotone_refill(self, blocked_w0):
        ratios = [
            vd.hole_refill_ratio(evolved(blocked_w0, t), 1.0)
            for t in (0.05, 0.1, 0.15, 0.25)
        ]
        assert ratios[0] > 0
        assert np.all(np.diff(ratios) > 0)

    def test_vortex_core_never_refills(self, lg01):
        for t in (0.0, 0.1, 0.25, 0.5):
            field = evolved(lg01, t) if t else lg01
            assert vd.hole_refill_ratio(field, 0.5) <= 1e-8

    def test_rejects_unresolvable_hole(self, blocked_w0):
        with pytest.raises(ValueError):
            vd.hole_refill_ratio(blocked_w0, 0.1)

    def test_rejects_annulus_past_grid(self, blocked_w0):
        with pytest.raises(ValueError):
            vd.hole_refill_ratio(blocked_w0, 5.0)
