"""Square Cartesian grids, complex field storage, and radial reductions.

Everything downstream (mode construction, propagators, diagnostics) runs on
the same grid convention: n samples per axis (n even), coordinates
x_i = -L + i*dx with dx = 2L/n, so the domain is [-L, L) and the origin is an
exact sample at index n//2.  Having r = 0 on the grid matters: the dark
center of a stored vortex is the key observable and must not be interpolated.

Full-grid passes that need no full-grid temporary (mode construction, the
Fourier multipliers, the physicality check, a snapshot's reductions) walk
the rows in blocks of ROWS (row_blocks); every operation in such a pass is
elementwise, so a block gives the bytes of the whole-grid formula.  The
radial reductions add a row block at a time too (RadialSums), one sample
at a time in row order, which is np.bincount's order and so its bytes; the
radial bin map beside them is one byte per sample for every nbins < 256,
so a run's three-array budget (solvers) holds the held spectra, one
snapshot and row blocks.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np


#: Rows per block of a blockwise full-grid pass.
ROWS = 32


def row_blocks(n: int) -> Iterator[slice]:
    """The row slices of an n-row array, ROWS rows each (the last may be shorter)."""
    return (slice(i, i + ROWS) for i in range(0, n, ROWS))


def by_rows(n: int, dtype, block) -> np.ndarray:
    """The n x n array of dtype whose rows are block(rows), for each slice
    of row_blocks(n); each block is freed before the next is formed."""
    out = np.empty((n, n), dtype)
    for rows in row_blocks(n):
        out[rows] = block(rows)
    return out


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

    def meshgrid(self, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """x and y at every sample of the given rows (all rows by default)."""
        c = self.coords()
        return np.meshgrid(c[rows], c, indexing="ij")

    def radius(self, rows: slice = slice(None)) -> np.ndarray:
        x, y = self.meshgrid(rows)
        return np.hypot(x, y)

    def theta(self, rows: slice = slice(None)) -> np.ndarray:
        x, y = self.meshgrid(rows)
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
    every operation in this package preserves that.  The constructor checks
    it, except where _unchecked says that the caller's own check covers it
    (the stream's evolved rho12, which the StateSnapshot constructor checks
    next).

    free_space is the field's boundary: None means periodic on the grid (a
    plane wave, or raw data), a FreeSpace record means a localized mode in
    an unbounded plane, which the spectral propagator evolves without
    periodic wrap.
    """

    grid: GridSpec
    values: np.ndarray
    free_space: FreeSpace | None = None
    _: KW_ONLY
    _unchecked: InitVar[bool] = False

    def __post_init__(self, _unchecked: bool):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"field shape {v.shape} does not match grid ({self.grid.n}, {self.grid.n})"
            )
        if not (_unchecked or np.all(np.isfinite(v))):
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


def intensity(values: np.ndarray) -> np.ndarray:
    """|values|^2 as one new real array: np.abs, squared in place, so no
    second full-grid array is formed beside it."""
    out = np.abs(values)
    return np.square(out, out=out)


def l2_norm_sq(f: ComplexField2D) -> float:
    """Riemann-sum estimate of the squared L2 norm, sum(|f|^2) * dx^2.

    The fields handled here decay like Gaussians well inside the grid, so
    the plain Riemann sum is already spectrally accurate; no higher-order
    quadrature rule is warranted.
    """
    return float(np.sum(intensity(f.values))) * f.grid.dx**2


def check_nbins(nbins, grid: GridSpec) -> None:
    """The one rule on the radial bin count: raise ValueError unless nbins is
    an integer with 4 <= nbins <= n^2, the grid's sample count, so that the
    per-bin arrays never outweigh a field.  radial_bins asks it before
    building any bins."""
    if not isinstance(nbins, (int, np.integer)) or nbins < 4:
        raise ValueError(f"nbins must be an integer >= 4, got {nbins!r}")
    if nbins > grid.n**2:
        raise ValueError(f"{nbins} bins exceed the grid's n^2 = {grid.n**2} samples")


@functools.lru_cache(maxsize=4, typed=True)
def radial_bins(grid: GridSpec, nbins: int) -> tuple[np.ndarray, np.ndarray]:
    """The radial binning of grid: the bin of every sample, in flat order,
    and the sample count of each bin.

    Bin b holds the samples with r in [b*dr, (b+1)*dr), dr = extent/nbins;
    samples at r >= extent (the grid corners) go to an overflow bin nbins,
    which each reduction drops, so no sample is gathered.  The bin map is
    stored in the smallest unsigned dtype that holds nbins (uint8 below
    256 bins).  The map and the nbins counts are cached per (grid, nbins),
    so the map is built once per grid instead of once per reduction; it and
    the counts are built a row block at a time, so no full-grid radius or
    index array is formed beside it.  Every reduction on the grid shares
    them, so a caller reads them and never writes them.
    """
    check_nbins(nbins, grid)
    c = grid.coords()

    def bins(rows):
        r = np.hypot(c[rows, None], c)  # grid.radius(rows), without its meshgrid
        r /= grid.extent / nbins
        return np.minimum(np.floor(r, out=r), nbins, out=r)
    idx = by_rows(grid.n, np.min_scalar_type(nbins), bins).ravel()
    counts = np.zeros(nbins + 1, np.intp)
    for rows in row_blocks(grid.n):
        counts += np.bincount(idx[rows.start * grid.n:rows.stop * grid.n], minlength=nbins + 1)
    return idx, counts[:nbins]


class RadialSums:
    """Per-bin sums of a real field over radial_bins(grid, nbins), added a
    row block at a time: the one radial reduction.  add puts each sample
    of a block into its bin one at a time, in row order, which is
    np.bincount's order, so the sums over row_blocks are np.bincount's
    bytes."""

    def __init__(self, grid: GridSpec, nbins: int):
        self.idx, self.counts = radial_bins(grid, nbins)  # asks check_nbins first
        self.grid, self.sums = grid, np.zeros(nbins + 1)

    def add(self, rows: slice, block: np.ndarray) -> None:
        """Add block, the field's values on the given rows."""
        n = self.grid.n
        np.add.at(self.sums, self.idx[rows.start * n:rows.stop * n], block.ravel())

    def mean(self) -> np.ndarray:
        """sums / counts per occupied bin, the overflow bin dropped."""
        occupied = self.counts > 0
        return self.sums[:len(self.counts)][occupied] / self.counts[occupied]

    def profile(self) -> RadialProfile:
        """mean() with the centres of the occupied bins."""
        nbins, dr = len(self.counts), self.grid.extent / len(self.counts)
        return RadialProfile((np.arange(nbins)[self.counts > 0] + 0.5) * dr, self.mean(), dr)


def _summed(values: np.ndarray, grid: GridSpec, nbins: int) -> RadialSums:
    """The RadialSums of a real field, added over every row block."""
    sums = RadialSums(grid, nbins)
    for rows in row_blocks(grid.n):
        sums.add(rows, values[rows])
    return sums


def radial_mean(values: np.ndarray, grid: GridSpec, nbins: int) -> np.ndarray:
    """Azimuthal mean of a real field per occupied bin of radial_bins."""
    return _summed(values, grid, nbins).mean()


def azimuthal_average(f: ComplexField2D, nbins: int, intensity: np.ndarray | None = None) -> RadialProfile:
    """Mean of |f|^2 over azimuth in radial bins of width extent/nbins.

    Bin b collects samples with r in [b*dr, (b+1)*dr); samples at r >= extent
    (grid corners) fall outside the last bin and are dropped.  The mean is
    that of intensity, which is |f|^2 when the caller has it already.
    """
    if intensity is None:
        intensity = np.abs(f.values) ** 2
    return _summed(intensity, f.grid, nbins).profile()
