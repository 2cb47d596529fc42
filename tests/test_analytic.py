import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vortexdiff as vd
from vortexdiff.analytic import DEFAULT_ETA, check_eta
from vortexdiff.modes import check_contained
from vortexdiff.scenario import stream_diagnostics
from helpers import (heat_flow_radial, lg_amplitude, lg_intensity, population_m0, population_m1,
                     radial_integral)


class TestEvolutionFactor:
    def test_t_zero(self):
        assert vd.evolution_factor(0.0, 1.0, 1.0) == 1.0

    def test_quarter_time_doubles(self):
        assert vd.evolution_factor(0.25, 1.0, 1.0) == 2.0

    def test_d_zero(self):
        assert vd.evolution_factor(31.4, 0.0, 2.0) == 1.0

    def test_monotone_in_time(self):
        svals = [vd.evolution_factor(t, 0.7, 1.3) for t in np.linspace(0, 5, 40)]
        assert np.all(np.diff(svals) > 0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            vd.evolution_factor(-0.1, 1.0, 1.0)


def lg_spec(m, p=0, **kw):
    return vd.ModeSpec(kind=vd.ModeKind.LG, p=p, m=m, **kw)


def closed(spec, t, r, theta=0.0, D=1.0):
    return vd.lg_closed_form(spec, D, t, r, theta)


class TestCoherenceClosedForm:
    def test_t_zero_matches_field(self, lg01):
        r = lg01.grid.radius()
        theta = lg01.grid.theta()
        rho12, _, _ = closed(lg_spec(1, w0=1.0, P=1.0), 0.0, r, theta)
        assert np.allclose(rho12, lg01.values, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("m,p", [(1, 1), (0, 2), (-2, 1)])
    def test_t_zero_matches_field_with_radial_index(self, grid256, m, p):
        spec = lg_spec(m, p, w0=0.9, P=1.3, amp=0.7 - 0.2j)
        field = vd.lg_field(spec, grid256)
        rho12, rho22, eff = closed(spec, 0.0, grid256.radius(), grid256.theta())
        assert np.max(np.abs(rho12 - field.values)) <= 1e-14 * np.max(np.abs(field.values))
        intensity = np.abs(field.values) ** 2
        assert np.max(np.abs(rho22 - intensity)) <= 1e-13 * intensity.max()
        assert eff == 1.0

    def test_vortex_center_never_fills(self):
        for spec in (lg_spec(1), lg_spec(1, 1), lg_spec(-2, 2)):
            for t in (0.0, 0.1, 0.25, 2.5):
                assert closed(spec, t, 0.0, 0.3)[0] == 0.0

    def test_gaussian_center_at_s_two(self):
        # (1/sqrt(s)) * A_0(0, sqrt(s) w0) with w0=1, P=pi/2 evaluates to 1/2
        value = closed(lg_spec(0, w0=1.0, P=math.pi / 2), 0.25, 0.0)[0]
        assert complex(value) == pytest.approx(0.5 + 0.0j, rel=1e-12)

    def test_p0_is_the_mode_at_the_grown_waist(self):
        # amp / sqrt(s^(|m|+1)) * A(r; sqrt(s) w0) * e^{-i m theta}
        r, theta = np.linspace(0.0, 6.0, 301), np.linspace(-3.0, 3.0, 301)
        for m in (0, 1, -1, 2):
            spec = lg_spec(m, w0=1.1, P=1.3, amp=0.7 - 0.2j)
            for t in (0.05, 0.3025, 1.0):
                s = vd.evolution_factor(t, 1.0, 1.1)
                ref = (spec.amp * lg_amplitude(r, math.sqrt(s) * 1.1, 1.3, m)
                       * np.exp(-1j * m * theta) / math.sqrt(s ** (abs(m) + 1)))
                rho12 = closed(spec, t, r, theta)[0]
                assert np.max(np.abs(rho12 - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m,p", [(1, 1), (0, 2), (2, 1), (-1, 3)])
    def test_matches_heat_kernel_quadrature(self, m, p):
        # pointwise against an independent radial quadrature of the heat flow,
        # through s = 2 (q = 0), where the scaled Laguerre argument is singular
        spec = lg_spec(m, p, w0=1.0, P=1.0)
        radii = np.linspace(0.0, 5.0, 11)
        for t in (0.1, 0.25, 1.0):
            rho12, rho22, _ = closed(spec, t, radii)
            ref12 = [heat_flow_radial(lambda x: lg_amplitude(x, 1.0, 1.0, m, p), r, 1.0, t, m)
                     for r in radii]
            ref22 = [heat_flow_radial(lambda x: lg_intensity(x, 1.0, 1.0, m, p), r, 1.0, t)
                     for r in radii]
            assert np.max(np.abs(rho12 - ref12)) <= 1e-12 * np.max(np.abs(rho12))
            assert np.max(np.abs(rho22 - ref22)) <= 1e-12 * np.max(rho22)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_energy_ratio_equals_fidelity(self, m):
        # the coherent-energy ratio of the closed form reproduces its efficiency
        g = vd.make_grid(256, 8.0)
        r, theta = g.radius(), g.theta()
        for p in (0, 1):
            spec = lg_spec(m, p, w0=1.0, P=1.0)
            e0 = np.sum(np.abs(closed(spec, 0.0, r, theta)[0]) ** 2)
            for t in (0.1, 0.25):
                rho12, _, eff = closed(spec, t, r, theta)
                assert np.sum(np.abs(rho12) ** 2) / e0 == pytest.approx(eff, rel=1e-6)

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            closed(vd.ModeSpec(kind=vd.ModeKind.BLOCKED_GAUSSIAN, block_radius=0.5), 0.1, 1.0)


class TestPopulations:
    def test_m1_reduces_to_initial_intensity(self):
        radii = np.linspace(0.0, 4.0, 50)
        ours = closed(lg_spec(1), 0.0, radii)[1]
        oracle = lg_intensity(radii, 1.0, 1.0, 1)
        assert np.allclose(ours, oracle, rtol=1e-10, atol=1e-300)

    def test_m1_center_at_peak_time(self):
        assert closed(lg_spec(1, P=math.pi), 0.125, 0.0)[1] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0])
    def test_m1_conserves_total(self, t):
        total = radial_integral(lambda r: closed(lg_spec(1), t, r)[1])
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_m0_center_value(self):
        value = closed(lg_spec(0, w0=2.0, P=3.0), 0.0, 0.0)[1]
        assert value == pytest.approx(2 * 3.0 / (math.pi * 4.0), rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0])
    def test_m0_conserves_total(self, t):
        total = radial_integral(lambda r: closed(lg_spec(0), t, r)[1])
        assert total == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("m,p", [(1, 1), (0, 2), (2, 1)])
    def test_radial_index_conserves_total(self, m, p):
        spec = lg_spec(m, p, P=1.3, amp=0.7 - 0.2j)
        for t in (0.1, 0.25, 1.0):
            total = radial_integral(lambda r: closed(spec, t, r)[1])
            assert total == pytest.approx(abs(spec.amp) ** 2 * 1.3, rel=1e-9)

    def test_m0_vanishes_at_late_time(self):
        assert closed(lg_spec(0), 1e9, 1.0)[1] < 1e-9

    def test_m0_reduces_to_initial_intensity(self):
        radii = np.linspace(0.0, 4.0, 50)
        ours = closed(lg_spec(0), 0.0, radii)[1]
        oracle = lg_intensity(radii, 1.0, 1.0, 0)
        assert np.allclose(ours, oracle, rtol=1e-10)

    @pytest.mark.parametrize("m,oracle", [(0, population_m0), (1, population_m1), (-1, population_m1)])
    def test_p0_matches_hand_derived(self, m, oracle):
        radii = np.linspace(0.0, 6.0, 301)
        spec = lg_spec(m, w0=1.1, P=1.3, amp=0.7 - 0.2j)
        for t in (0.0, 0.05, 0.3025, 1.0):
            ours = closed(spec, t, radii, D=0.8)[1]
            ref = abs(spec.amp) ** 2 * oracle(radii, t, 1.1, 1.3, 0.8)
            assert np.max(np.abs(ours - ref)) <= 1e-13 * ref.max()


class TestFidelity:
    def test_unity_at_t_zero(self):
        for m in range(4):
            for p in range(3):
                assert closed(lg_spec(m, p), 0.0, 0.0)[2] == 1.0

    def test_values_at_s_two(self):
        assert closed(lg_spec(1), 0.25, 0.0)[2] == pytest.approx(0.25, rel=1e-12)
        assert closed(lg_spec(0), 0.25, 0.0)[2] == pytest.approx(0.5, rel=1e-12)
        # less phase gradient, more robust: a radial node costs coherence too
        assert closed(lg_spec(1, 1), 0.25, 0.0)[2] == pytest.approx(0.1875, rel=1e-12)

    def test_p0_power_law(self):
        for m in (0, 1, -1, 2, -3):
            for t in (0.05, 0.3, 2.0):
                s = vd.evolution_factor(t, 0.7, 1.3)
                eff = closed(lg_spec(m, w0=1.3), t, 0.0, D=0.7)[2]
                assert eff == pytest.approx(s ** -(abs(m) + 1), rel=1e-14)

    def test_decreasing_in_m(self):
        vals = [closed(lg_spec(m), 0.4, 0.0)[2] for m in range(5)]
        assert np.all(np.diff(vals) < 0)

    def test_decreasing_in_time(self):
        ts = np.linspace(0.0, 2.0, 30)
        for p in (0, 2):
            vals = [closed(lg_spec(2, p), t, 0.0)[2] for t in ts]
            assert np.all(np.diff(vals) < 0)


class TestCoherenceFactor:
    # the one formula for f, coherence_factor_values, on 1-element arrays
    @staticmethod
    def f(coh_sq, rho22, eta=1e-12):
        return vd.coherence_factor_values(np.array([coh_sq]), np.array([rho22]), eta)[0]

    def test_pure_state(self):
        assert self.f(0.35, 0.35) == pytest.approx(1.0, rel=1e-9)

    def test_fully_mixed(self):
        eta = 1e-12
        assert self.f(0.0, 1.0, eta) == pytest.approx(eta / (1 + eta), rel=1e-6)

    def test_zero_over_zero_is_one(self):
        # undisturbed region: no population and no coherence stays pure
        assert self.f(0.0, 0.0) == 1.0


class TestCenterPopulationPeak:
    def test_reference_values(self):
        t_star, peak = vd.center_population_peak_m1(1.0, 1.0, math.pi)
        assert t_star == pytest.approx(0.125, rel=1e-12)
        assert peak == pytest.approx(0.5, rel=1e-12)

    def test_dense_scan_oracle(self):
        w0, D, P = 1.3, 0.6, 2.2
        t_star, peak = vd.center_population_peak_m1(w0, D, P)
        ts = np.linspace(1e-4, 10 * t_star, 40001)
        vals = np.array([population_m1(0.0, t, w0, P, D) for t in ts])
        best = ts[np.argmax(vals)]
        assert best == pytest.approx(t_star, rel=1e-3)
        assert np.max(vals) == pytest.approx(peak, rel=1e-6)
        assert np.max(vals) <= peak * (1 + 1e-12)
        # single rise to the peak, single fall after it
        assert np.all(np.diff(vals[ts <= t_star]) > 0)
        assert np.all(np.diff(vals[ts >= t_star * (1 + 1e-6)]) < 0)

    def test_matches_lg_closed_form(self):
        w0, D, P = 1.3, 0.6, 2.2
        t_star, peak = vd.center_population_peak_m1(w0, D, P)
        spec = lg_spec(1, w0=w0, P=P)
        assert closed(spec, t_star, 0.0, D=D)[1] == pytest.approx(peak, rel=1e-12)
        for t in (0.99 * t_star, 1.01 * t_star, 0.1 * t_star, 10 * t_star):
            assert closed(spec, t, 0.0, D=D)[1] < peak

    def test_doubling_d_halves_time_keeps_peak(self):
        t1, p1 = vd.center_population_peak_m1(1.0, 1.0, 1.0)
        t2, p2 = vd.center_population_peak_m1(1.0, 2.0, 1.0)
        assert t2 == pytest.approx(t1 / 2, rel=1e-12)
        assert p2 == pytest.approx(p1, rel=1e-12)

    def test_rejects_zero_d(self):
        with pytest.raises(ValueError):
            vd.center_population_peak_m1(1.0, 0.0, 1.0)


class TestStateSnapshot:
    def test_initial_snapshot_is_physical(self, lg01):
        snap = vd.initial_snapshot(lg01)
        assert snap.time == 0.0
        assert np.all(snap.rho22 >= 0)
        assert np.allclose(snap.rho22, np.abs(snap.rho12.values) ** 2)

    def test_rejects_unphysical_coherence(self, lg01):
        rho22 = np.zeros_like(np.abs(lg01.values))
        with pytest.raises(ValueError):
            vd.StateSnapshot(time=0.0, rho12=lg01, rho22=rho22)

    def test_rejects_negative_population(self, lg01):
        rho22 = np.abs(lg01.values) ** 2
        rho22[10, 10] = -0.5
        with pytest.raises(ValueError):
            vd.StateSnapshot(time=0.0, rho12=lg01, rho22=rho22)

    def test_rejects_non_finite_population(self, lg01):
        rho22 = np.abs(lg01.values) ** 2
        rho22[10, 10] = np.nan
        with pytest.raises(ValueError, match="rho22 contains non-finite values"):
            vd.StateSnapshot(time=0.0, rho12=lg01, rho22=rho22)
        rho22[10, 10] = -np.inf
        with pytest.raises(ValueError, match="rho22 contains non-finite values"):
            vd.StateSnapshot(time=0.0, rho12=lg01, rho22=rho22)

    def test_rejects_coherence_whose_square_overflows(self):
        # |rho12|^2 = 1e400 is inf; an inf tolerance would let every comparison pass
        rho12 = vd.ComplexField2D(vd.GridSpec(8, 1.0), np.full((8, 8), 1e200 + 0j))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="rho12"):
            vd.StateSnapshot(0.0, rho12, np.ones((8, 8)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.nan, 1.0)])
    @pytest.mark.parametrize("at", [(40, 40), (0, 0)])
    def test_rejects_non_finite_coherence(self, value, at):
        # a block maximum of |rho12|^2 that is NaN is rejected like an inf
        # one: NaN must not compare its way past the check
        f = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=1), vd.make_grid(64, 8.0))
        rho22 = np.abs(f.values) ** 2
        f.values[at] = value
        with pytest.raises(ValueError, match="^rho12 contains non-finite values"):
            vd.StateSnapshot(0.0, f, rho22)

    def test_clips_its_own_array_in_place(self, lg01):
        # the stream's rho22 is its own: the check clips it where it is
        rho22 = np.abs(lg01.values) ** 2
        rho22[0, 0], rho22[0, 1] = -1e-12, -0.0  # within tolerance
        expected = np.maximum(rho22, 0.0)
        snap = vd.StateSnapshot(time=0.0, rho12=lg01, rho22=rho22, _owned=True)
        assert snap.rho22 is rho22
        assert rho22.tobytes() == expected.tobytes() and not np.any(np.signbit(rho22))

    def test_clips_residues_into_a_copy(self, lg01):
        rho22 = np.abs(lg01.values) ** 2
        rho22[0, 0], rho22[0, 1] = -1e-12, -0.0  # within tolerance
        given = rho22.copy()
        snap = vd.StateSnapshot(time=0.0, rho12=lg01, rho22=rho22)
        assert np.array_equal(rho22, given) and np.signbit(rho22[0, 1])  # the caller's array is kept
        assert snap.rho22 is not rho22
        assert np.array_equal(snap.rho22, np.maximum(given, 0.0))
        assert not np.any(np.signbit(snap.rho22))

    def test_positive_population_passes_through(self, lg01):
        rho22 = np.abs(lg01.values) ** 2 + 1e-3
        snap = vd.StateSnapshot(time=0.0, rho12=lg01, rho22=rho22)
        assert np.array_equal(snap.rho22, rho22)


@functools.lru_cache(maxsize=None)
def _verdict(m, p, n, scheme, times, P):
    """Efficiency at each time of LG_p^m run at P on an n x n grid of extent
    16, or None when an evolved snapshot fails the physicality check."""
    cfg = vd.ScenarioConfig(mode=vd.ModeSpec(vd.ModeKind.LG, p=p, m=m, P=P),
                            grid=vd.GridSpec(n, 16.0),
                            diffusion=vd.DiffusionParams(1.0, times),
                            solver=vd.SolverConfig(scheme))
    try:
        return [d.efficiency for d in stream_diagnostics(cfg)]
    except ValueError as exc:
        assert "below tolerance" in str(exc) or "violates" in str(exc), exc
        return None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(m=st.integers(-2, 2), p=st.integers(0, 1), n=st.sampled_from([96, 112, 128]),
       scheme=st.sampled_from(list(vd.Scheme)),
       times=st.lists(st.sampled_from([0.0, 0.05, 0.125, 0.25, 0.5]), min_size=2, max_size=3,
                      unique=True).map(lambda ts: tuple(sorted(ts))),
       u=st.floats(-3.0, 3.0))
def test_physicality_verdict_does_not_depend_on_power(m, p, n, scheme, times, u):
    # the tolerance is relative to the field's peaks: scaling P scales every
    # field, so the run's verdict and its normalised efficiency stay as at P = 1
    at_one = _verdict(m, p, n, scheme, times, 1.0)
    for P in (10.0**u, 10.0**-u):
        at_P = _verdict(m, p, n, scheme, times, P)
        assert (at_P is None) == (at_one is None), P
        if at_one is not None:
            np.testing.assert_allclose(at_P, at_one, rtol=1e-12, atol=0)


class TestDiffusionParams:
    def test_rejects_descending_times(self):
        with pytest.raises(ValueError):
            vd.DiffusionParams(D=1.0, times=(0.25, 0.1))

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            vd.DiffusionParams(D=-1.0, times=(0.0,))

    def test_accepts_valid(self):
        params = vd.DiffusionParams(D=0.5, times=(0.0, 0.1, 0.2))
        assert params.times == (0.0, 0.1, 0.2)


_NON_FINITE_RULES = {  # field -> its dataclass built with that field set to the value
    "D": lambda v: vd.DiffusionParams(D=v, times=(0.1,)),
    "times": lambda v: vd.DiffusionParams(D=1.0, times=(0.1, v)),
    "w0": lambda v: vd.ModeSpec(kind=vd.ModeKind.LG, w0=v),
    "P": lambda v: vd.ModeSpec(kind=vd.ModeKind.LG, P=v),
    "amp": lambda v: vd.ModeSpec(kind=vd.ModeKind.LG, amp=complex(v, 0.0)),
    "k": lambda v: vd.ModeSpec(kind=vd.ModeKind.PLANE_WAVE, k=v),
    "block_radius": lambda v: vd.ModeSpec(kind=vd.ModeKind.BLOCKED_GAUSSIAN, block_radius=v),
    "beta": lambda v: vd.QuantumParams(beta=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(_NON_FINITE_RULES))
def test_non_finite_parameter_breaks_its_fields_rule(name, value):
    # the library's own rules reject NaN and infinities, not only the config parser
    with pytest.raises(vd.ParameterError) as err:
        _NON_FINITE_RULES[name](value)
    assert err.value.name == name
    assert "finite" in str(err.value)


def test_nan_fails_the_closed_form_rules():
    with pytest.raises(vd.ParameterError, match="time must be finite"):
        vd.evolution_factor(math.nan, 1.0, 1.0)
    with pytest.raises(vd.ParameterError, match="waist w0 must be positive and finite"):
        vd.evolution_factor(0.1, 1.0, math.inf)
    for extent, s in [(math.nan, 1.0), (10.0, math.nan)]:
        with pytest.raises(vd.ContainmentError):
            check_contained(extent, 1.0, 1, 0, s)


class TestCoherenceFactorParams:
    def test_default_eta(self):
        assert DEFAULT_ETA == 1e-12
        check_eta(DEFAULT_ETA)

    @pytest.mark.parametrize("eta", [0.0, -1e-12, 1e-7])
    def test_rejects_out_of_range(self, eta):
        with pytest.raises(ValueError, match=r"^eta must be in \(0, 1e-8\], got "):
            check_eta(eta)
