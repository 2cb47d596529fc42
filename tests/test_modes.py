import math
import sys

import numpy as np
import pytest

import vortexdiff as vd
from vortexdiff.grid import ParameterError
from vortexdiff.modes import _scaled_laguerre, check_float_range
from helpers import laguerre_series, lg_amplitude, lg_intensity, radial_integral


class TestAssocLaguerre:
    """At q = 1 the package's one Laguerre recurrence, modes._scaled_laguerre,
    is the associated Laguerre polynomial L_p^alpha itself."""

    @pytest.mark.parametrize("alpha,x", [(0, 0.0), (3, 1.5), (6, 19.0)])
    def test_degree_zero_is_one(self, alpha, x):
        assert _scaled_laguerre(0, alpha, np.asarray(x)) == 1.0

    def test_degree_one(self):
        assert _scaled_laguerre(1, 2, np.asarray(3.0)) == pytest.approx(0.0, abs=1e-14)

    def test_degree_two_value(self):
        # L_2(x) = (x^2 - 4x + 2)/2, series oracle agrees
        assert laguerre_series(2, 0, 2.0) == pytest.approx(-1.0, rel=1e-14)
        assert _scaled_laguerre(2, 0, np.asarray(2.0)) == pytest.approx(-1.0, rel=1e-12)

    def test_matches_series_oracle(self):
        xs = np.linspace(0.0, 20.0, 21)
        for p in range(7):
            for alpha in range(7):
                ours = _scaled_laguerre(p, alpha, xs)
                oracle = np.array([laguerre_series(p, alpha, x) for x in xs])
                scale = np.maximum(np.abs(oracle), 1.0)
                assert np.all(np.abs(ours - oracle) / scale <= 1e-10), (p, alpha)


class TestLgField:
    def test_gaussian_origin_value(self):
        g = vd.make_grid(256, 8.0)
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=0, m=0, w0=1.0, P=math.pi / 2)
        f = vd.lg_field(spec, g)
        i0 = g.origin_index
        assert f.values[i0, i0] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p,m", [(0, 0), (0, -2), (1, 1), (2, 0), (3, 2)])
    def test_amplitude_at_s_one_is_the_stored_mode(self, p, m):
        # the one LG formula at s = 1, against the definition rebuilt term by term
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=p, m=m, w0=1.1, P=0.7)
        r = np.linspace(0.0, 6.0, 61)
        ref = np.array([lg_amplitude(x, 1.1, 0.7, m, p) for x in r])
        assert np.max(np.abs(vd.lg_amplitude(spec, 1.0, r) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_vortex_origin_is_zero(self, lg01):
        i0 = lg01.grid.origin_index
        assert lg01.values[i0, i0] == 0.0

    def test_lg01_unit_norm(self, lg01):
        assert vd.l2_norm_sq(lg01) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("p,m", [(0, 0), (0, 1), (0, -1), (0, 3), (1, 0), (1, 1), (1, -2), (2, 1)])
    def test_norm_is_amp_sq_times_p(self, p, m):
        g = vd.make_grid(256, 8.0)
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=p, m=m, w0=1.0, P=0.7, amp=2.0j)
        f = vd.lg_field(spec, g)
        assert vd.l2_norm_sq(f) == pytest.approx(abs(2.0j) ** 2 * 0.7, rel=1e-5)
        oracle = radial_integral(lambda r: lg_intensity(r, 1.0, 0.7, m, p))
        assert oracle == pytest.approx(0.7, rel=1e-8)

    @pytest.mark.parametrize("m", [-4, -2, -1, 1, 2, 4])
    def test_phase_winding(self, m):
        g = vd.make_grid(256, 16.0)
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=0, m=m, w0=1.0, P=1.0)
        f = vd.lg_field(spec, g)
        for radius in (0.8, 1.5):
            total = vd.accumulated_phase(f, radius)
            assert total == pytest.approx(-2.0 * math.pi * m, abs=1e-6)

    def test_opposite_m_same_modulus(self):
        g = vd.make_grid(128, 8.0)
        plus = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=2), g)
        minus = vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, m=-2), g)
        assert np.array_equal(np.abs(plus.values), np.abs(minus.values))

    def test_containment_guard(self):
        g = vd.make_grid(256, 8.0)
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=1, m=3, w0=2.0)
        with pytest.raises(vd.ContainmentError) as err:
            vd.lg_field(spec, g)
        assert err.value.required_extent == pytest.approx(4 * 2 * math.sqrt(5), rel=1e-12)
        # the blocked Gaussian asks the same rule with p = m = 0
        blocked = vd.ModeSpec(kind=vd.ModeKind.BLOCKED_GAUSSIAN, w0=1.0, block_radius=0.5)
        with pytest.raises(vd.ContainmentError) as err:
            vd.blocked_gaussian(blocked, vd.make_grid(64, 3.0))
        assert err.value.required_extent == 4.0

    def test_wrong_kind_rejected(self, grid256):
        with pytest.raises(ValueError):
            vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.PLANE_WAVE), grid256)

    @pytest.mark.parametrize("kind,peak", [
        (vd.ModeKind.LG, 2.0 / math.pi),  # |amp|^2 2 P / (pi w0^2) at P = w0 = 1
        (vd.ModeKind.BLOCKED_GAUSSIAN, 2.0 / math.pi),
        (vd.ModeKind.PLANE_WAVE, 1.0),
    ])
    def test_float_range_bounds_peak_times_n_squared(self, kind, peak):
        # an amp whose peak intensity times n^2 is half the largest float64
        # passes; twice it breaks the rule, which names P where the peak has one
        n = 256
        bound = sys.float_info.max / (peak * n * n)
        check_float_range(vd.ModeSpec(kind=kind, amp=math.sqrt(0.5 * bound)), n)
        spec = vd.ModeSpec(kind=kind, amp=math.sqrt(2.0 * bound))
        with pytest.raises(ParameterError) as err:
            check_float_range(spec, n)
        assert err.value.name == ("amp" if kind is vd.ModeKind.PLANE_WAVE else "P")


class TestBlockedGaussian:
    def test_zero_block_matches_gaussian(self, grid256, lg00):
        spec = vd.ModeSpec(kind=vd.ModeKind.BLOCKED_GAUSSIAN, w0=1.0, P=1.0, block_radius=0.0)
        f = vd.blocked_gaussian(spec, grid256)
        assert np.array_equal(f.values, lg00.values)

    def test_hole_is_exactly_zero(self, blocked_w0):
        r = blocked_w0.grid.radius()
        assert np.all(blocked_w0.values[r < 1.0] == 0.0)
        i0 = blocked_w0.grid.origin_index
        assert blocked_w0.values[i0, i0] == 0.0

    def test_norm_matches_truncated_gaussian(self):
        # oracle: integral of |A_0|^2 from w0 outward is P e^{-2}
        oracle = radial_integral(lambda r: lg_intensity(r, 1.0, 1.0, 0), lower=1.0)
        assert oracle == pytest.approx(math.exp(-2.0), rel=1e-10)
        g = vd.make_grid(512, 8.0)
        spec = vd.ModeSpec(kind=vd.ModeKind.BLOCKED_GAUSSIAN, w0=1.0, P=1.0, block_radius=1.0)
        f = vd.blocked_gaussian(spec, g)
        # hard-edge sampling makes the Riemann sum first-order accurate only
        assert vd.l2_norm_sq(f) == pytest.approx(math.exp(-2.0), rel=1e-2)

    def test_block_beyond_grid_rejected(self, grid256):
        for radius in (8.5, 8.0):  # at or beyond the extent
            spec = vd.ModeSpec(kind=vd.ModeKind.BLOCKED_GAUSSIAN, w0=1.0, block_radius=radius)
            with pytest.raises(ValueError, match="smaller than grid extent"):
                vd.blocked_gaussian(spec, grid256)


class TestPlaneWave:
    def test_k_zero_is_constant(self, grid256):
        f = vd.plane_wave(vd.ModeSpec(kind=vd.ModeKind.PLANE_WAVE, k=0.0, amp=0.5j), grid256)
        assert np.all(f.values == 0.5j)

    def test_unit_modulus_everywhere(self, grid256):
        k = 8 * math.pi / 8.0
        f = vd.plane_wave(vd.ModeSpec(kind=vd.ModeKind.PLANE_WAVE, k=k, amp=2.0), grid256)
        assert np.allclose(np.abs(f.values), 2.0, rtol=1e-12, atol=0)

    def test_norm_is_area(self, grid256):
        k = math.pi / 8.0
        f = vd.plane_wave(vd.ModeSpec(kind=vd.ModeKind.PLANE_WAVE, k=k), grid256)
        assert vd.l2_norm_sq(f) == pytest.approx(16.0**2, rel=1e-12)

    def test_nonperiodic_k_rejected_unless_overridden(self, grid256):
        spec = vd.ModeSpec(kind=vd.ModeKind.PLANE_WAVE, k=1.0)  # pi/L does not divide 1
        with pytest.raises(ValueError):
            vd.plane_wave(spec, grid256)

    def test_beyond_nyquist_rejected(self, grid256):
        k_max = math.pi / grid256.dx
        spec = vd.ModeSpec(kind=vd.ModeKind.PLANE_WAVE, k=2 * k_max)
        with pytest.raises(ValueError):
            vd.plane_wave(spec, grid256)


class TestModeSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(w0=0.0), dict(w0=-1.0), dict(P=0.0), dict(P=-2.0),
        dict(p=-1), dict(block_radius=-0.5),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            vd.ModeSpec(kind=vd.ModeKind.LG, **kwargs)
