"""Square Cartesian grids, complex field storage, and radial reductions.

Everything downstream (mode construction, propagators, diagnostics) runs on
the same grid convention: n samples per axis (n even), coordinates
x_i = -L + i*dx with dx = 2L/n, so the domain is [-L, L) and the origin is an
exact sample at index n//2.  Having r = 0 on the grid matters: the dark
center of a stored vortex is the key observable and must not be interpolated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """A broken rule of a parameter dataclass.  name is the field the rule is
    about, so that a config error can name the key that sets it."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


@dataclass(frozen=True)
class GridSpec:
    """Uniform square grid covering [-extent, extent) with n samples per axis.

    dx = 2*extent/n, positive and finite.  n must be even (the
    spectral propagator's wavenumber layout needs a symmetric band) and >= 8.
    """

    n: int
    extent: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ParameterError("n", f"grid n must be an integer, got {self.n!r}")
        if self.n < 8:
            raise ParameterError("n", f"grid n must be >= 8, got {self.n}")
        if self.n % 2 != 0:
            raise ParameterError("n", f"grid n must be even, got {self.n}")
        if not (0 < self.dx < np.inf):
            raise ParameterError("extent", f"grid spacing dx = 2 extent / n must be positive "
                                           f"and finite, got extent {self.extent} with n {self.n}")

    @property
    def dx(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def origin_index(self) -> int:
        """Index of the x = y = 0 sample along each axis."""
        return self.n // 2

    def coords(self) -> np.ndarray:
        """1-D coordinate array, reproducible bit-exactly from (n, extent)."""
        return -self.extent + self.dx * np.arange(self.n)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        c = self.coords()
        return np.meshgrid(c, c, indexing="ij")

    def radius(self) -> np.ndarray:
        x, y = self.meshgrid()
        return np.hypot(x, y)

    def theta(self) -> np.ndarray:
        x, y = self.meshgrid()
        return np.arctan2(y, x)


def make_grid(n: int, extent: float) -> GridSpec:
    """Build a GridSpec; rejects odd n, n < 8 and an extent whose dx is not positive and finite."""
    return GridSpec(n=n, extent=extent)


@dataclass(frozen=True)
class FreeSpace:
    """Boundary record of a localized field living in an unbounded plane.

    w0_sq is the field's current squared waist and order is 1 + |m| + p of
    the mode it came from: the two numbers the containment rule needs to
    tell how large a box keeps the field's tails.  Diffusing for time t
    grows the waist to w0_sq + 4 D t.
    """

    w0_sq: float
    order: int

    def diffused(self, D: float, t: float) -> "FreeSpace":
        return FreeSpace(self.w0_sq + 4.0 * D * t, self.order)


@dataclass
class ComplexField2D:
    """Complex scalar field sampled on a GridSpec.

    values[i, j] is the amplitude at (x_i, y_j).  All values must be finite;
    every operation in this package preserves that.

    free_space is the field's boundary: None means periodic on the grid (a
    plane wave, or raw data), a FreeSpace record means a localized mode in
    an unbounded plane, which the spectral propagator evolves without
    periodic wrap.
    """

    grid: GridSpec
    values: np.ndarray
    free_space: FreeSpace | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"field shape {v.shape} does not match grid ({self.grid.n}, {self.grid.n})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        self.values = v

    def copy(self) -> "ComplexField2D":
        return ComplexField2D(self.grid, self.values.copy(), self.free_space)


@dataclass
class RadialProfile:
    """Mean intensity |f|^2 per radial bin.

    radii are the centers of the occupied bins (strictly increasing) and
    bin_width is the uniform bin size used for the reduction; empty bins
    are omitted.
    """

    radii: np.ndarray
    mean_intensity: np.ndarray
    bin_width: float


def l2_norm_sq(f: ComplexField2D) -> float:
    """Riemann-sum estimate of the squared L2 norm, sum(|f|^2) * dx^2.

    The fields handled here decay like Gaussians well inside the grid, so
    the plain Riemann sum is already spectrally accurate; no higher-order
    quadrature rule is warranted.
    """
    intensity = np.abs(f.values) ** 2
    return float(np.sum(intensity)) * f.grid.dx**2


def check_nbins(nbins) -> None:
    """The one rule on the radial bin count: raise ValueError unless nbins is
    an integer >= 4.  radial_bins asks it before building any bins."""
    if not isinstance(nbins, (int, np.integer)) or nbins < 4:
        raise ValueError(f"nbins must be an integer >= 4, got {nbins!r}")


@functools.lru_cache(maxsize=4, typed=True)
def radial_bins(grid: GridSpec, nbins: int) -> tuple[np.ndarray, np.ndarray]:
    """The radial binning of grid: the bin of every sample, in flat order,
    and the sample count of each bin.

    Bin b holds the samples with r in [b*dr, (b+1)*dr), dr = extent/nbins;
    samples at r >= extent (the grid corners) go to an overflow bin nbins,
    which each reduction drops after its bincount, so no sample is gathered.
    The bin indices and the nbins counts are read-only and cached per
    (grid, nbins), so the radius map is built once per grid instead of once
    per reduction.
    """
    check_nbins(nbins)
    idx = np.floor(grid.radius() / (grid.extent / nbins)).astype(np.intp).ravel()
    np.minimum(idx, nbins, out=idx)
    counts = _binned(idx, None, nbins)
    for a in (idx, counts):
        a.flags.writeable = False
    return idx, counts


def _binned(idx: np.ndarray, weights, nbins: int) -> np.ndarray:
    """Per-bin sums of weights (or counts) over bins 0..nbins-1, the overflow bin dropped."""
    return np.bincount(idx, weights=weights, minlength=nbins + 1)[:nbins]


def radial_mean(values: np.ndarray, grid: GridSpec, nbins: int) -> np.ndarray:
    """Azimuthal mean of a real field per occupied bin of radial_bins: one
    weighted bincount, sums / counts.  The one radial reduction."""
    idx, counts = radial_bins(grid, nbins)
    occupied = counts > 0
    return _binned(idx, values.ravel(), nbins)[occupied] / counts[occupied]


def azimuthal_average(f: ComplexField2D, nbins: int, intensity: np.ndarray | None = None) -> RadialProfile:
    """Mean of |f|^2 over azimuth in radial bins of width extent/nbins.

    Bin b collects samples with r in [b*dr, (b+1)*dr); samples at r >= extent
    (grid corners) fall outside the last bin and are dropped.  The mean is
    radial_mean of intensity, which is |f|^2 when the caller has it already.
    """
    if intensity is None:
        intensity = np.abs(f.values) ** 2
    mean = radial_mean(intensity, f.grid, nbins)  # asks check_nbins first
    occupied, dr = radial_bins(f.grid, nbins)[1] > 0, f.grid.extent / nbins
    return RadialProfile((np.arange(nbins)[occupied] + 0.5) * dr, mean, dr)
