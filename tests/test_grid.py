import numpy as np
import pytest

import vortexdiff as vd
from vortexdiff.grid import radial_mean
from helpers import lg_intensity, radial_integral


class TestMakeGrid:
    def test_dx_and_coords(self):
        g = vd.make_grid(8, 4.0)
        assert g.dx == 1.0
        assert np.array_equal(g.coords(), np.arange(-4.0, 4.0))

    def test_dx_16_8(self):
        assert vd.make_grid(16, 8.0).dx == 1.0

    def test_origin_on_grid(self):
        g = vd.make_grid(10, 1.0)
        assert g.dx == pytest.approx(0.2)
        assert np.min(np.abs(g.coords())) == 0.0
        assert g.coords()[g.origin_index] == 0.0

    def test_coords_reproducible(self):
        a = vd.make_grid(64, 3.7)
        b = vd.make_grid(64, 3.7)
        assert np.array_equal(a.coords(), b.coords())

    @pytest.mark.parametrize("n,extent", [(9, 4.0), (7, 4.0), (6, 4.0), (8, 0.0), (8, -1.0),
                                          (8, np.inf), (8, np.nan), (8, 1e308), (8, 5e-324)])
    def test_rejects_bad_parameters(self, n, extent):
        with pytest.raises(ValueError):
            vd.make_grid(n, extent)


class TestL2NormSq:
    def test_zero_field(self, grid256):
        f = vd.ComplexField2D(grid256, np.zeros((256, 256), dtype=complex))
        assert vd.l2_norm_sq(f) == 0.0

    def test_lg01_carries_unit_intensity(self, lg01):
        # oracle: integral of |A_1|^2 over the plane equals P
        oracle = radial_integral(lambda r: lg_intensity(r, 1.0, 1.0, 1))
        assert oracle == pytest.approx(1.0, rel=1e-10)
        assert vd.l2_norm_sq(lg01) == pytest.approx(1.0, rel=1e-6)

    def test_constant_field_gives_area(self):
        g = vd.make_grid(64, 3.0)
        f = vd.ComplexField2D(g, np.full((64, 64), 1.0 + 0.0j))
        assert vd.l2_norm_sq(f) == pytest.approx((2 * 3.0) ** 2, rel=1e-12)

    def test_invariant_under_constant_phase(self, grid256):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        f = vd.ComplexField2D(grid256, vals)
        base = vd.l2_norm_sq(f)
        for phi in (0.3, 1.7, -2.9):
            rotated = vd.ComplexField2D(grid256, vals * np.exp(1j * phi))
            assert vd.l2_norm_sq(rotated) == pytest.approx(base, rel=1e-12)

    def test_quadrature_converges_when_n_doubles(self):
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=0, m=1)
        coarse = vd.l2_norm_sq(vd.lg_field(spec, vd.make_grid(256, 8.0)))
        fine = vd.l2_norm_sq(vd.lg_field(spec, vd.make_grid(512, 8.0)))
        assert abs(fine - coarse) / abs(fine) <= 1e-6


class TestAzimuthalAverage:
    def test_gaussian_intensity_monotone(self, lg00):
        prof = vd.azimuthal_average(lg00, 32)
        inner = prof.mean_intensity[prof.radii < 4.0]
        assert np.all(np.diff(inner) < 0)

    def test_vortex_phase_cancels(self, lg01):
        prof = vd.azimuthal_average(lg01, 64)
        # the phase e^{-i theta} drops out of |f|^2, which survives off-center
        off_center = (prof.radii > 0.3) & (prof.radii < 2.0)
        assert np.all(prof.mean_intensity[off_center] > 0)

    def test_constant_field(self, grid256):
        c = 0.4 - 0.9j
        f = vd.ComplexField2D(grid256, np.full((256, 256), c))
        prof = vd.azimuthal_average(f, 16)
        assert np.allclose(prof.mean_intensity, abs(c) ** 2, rtol=1e-12, atol=0)

    def test_rejects_small_nbins(self, lg00):
        with pytest.raises(ValueError):
            vd.azimuthal_average(lg00, 3)

    def test_intensity_invariant_under_phase(self, lg01):
        rotated = vd.ComplexField2D(lg01.grid, lg01.values * np.exp(1j * 0.77))
        a = vd.azimuthal_average(lg01, 50)
        b = vd.azimuthal_average(rotated, 50)
        assert np.allclose(a.mean_intensity, b.mean_intensity, rtol=1e-12, atol=0)

    def test_profile_invariants(self, lg11):
        prof = vd.azimuthal_average(lg11, 100)
        assert np.all(np.diff(prof.radii) > 0)
        # every bin inside the grid holds samples, so each is kept once
        assert np.allclose(prof.radii, (np.arange(100) + 0.5) * prof.bin_width)
        assert np.all(prof.mean_intensity >= 0)
        assert len(prof.mean_intensity) == len(prof.radii)

    def test_bins_beyond_extent_dropped(self, lg00):
        prof = vd.azimuthal_average(lg00, 40)
        assert prof.radii[-1] < lg00.grid.extent

    def test_overflow_bin_matches_a_gather_of_the_binned_samples(self, lg01):
        # the corner samples go to an overflow bin that is dropped; every
        # kept bin sums the same samples in the same order as a gather would
        nbins = 50
        g = lg01.grid
        idx = np.floor(g.radius() / (g.extent / nbins)).astype(np.intp).ravel()
        inside = idx < nbins
        vals = lg01.values.ravel()[inside]
        counts = np.bincount(idx[inside], minlength=nbins)
        occupied = counts > 0
        sums = [np.bincount(idx[inside], weights=w, minlength=nbins)[occupied]
                for w in (vals.real, np.abs(vals) ** 2)]
        radii = (np.arange(nbins)[occupied] + 0.5) * (g.extent / nbins)
        intensity = np.abs(lg01.values) ** 2
        for prof in (vd.azimuthal_average(lg01, nbins),
                     vd.azimuthal_average(lg01, nbins, intensity=intensity)):
            assert np.array_equal(prof.radii, radii)
            assert np.array_equal(prof.mean_intensity, sums[1] / counts[occupied])
        assert np.array_equal(radial_mean(np.ascontiguousarray(lg01.values.real), g, nbins),
                              sums[0] / counts[occupied])


class TestComplexField2D:
    def test_shape_mismatch_rejected(self, grid256):
        with pytest.raises(ValueError):
            vd.ComplexField2D(grid256, np.zeros((16, 16), dtype=complex))

    def test_nonfinite_rejected(self, grid256):
        vals = np.zeros((256, 256), dtype=complex)
        vals[3, 4] = np.nan
        with pytest.raises(ValueError):
            vd.ComplexField2D(grid256, vals)
