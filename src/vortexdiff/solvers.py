"""Numerical propagators for classical diffusion and unitary quantum diffusion.

Three independent classical schemes on the same grid:

* SPECTRAL: multiply each Fourier mode by e^{-D k^2 t}; exact solution of the
  heat equation in one step.  Production path.  A localized field (marked
  free space by its constructor) is evolved in an unbounded plane: when the
  containment rule asks for a larger box than the grid, the step runs on a
  zero-padded grid of the same dx and is cropped back, so the field never
  meets its own periodic images.  Other fields (plane waves, raw data) are
  evolved periodically.
* FD_EXPLICIT: forward-Euler 5-point stencil with periodic wrap; O(dx^2)+O(dt),
  kept deliberately simple as convergence-order evidence.  It marches once
  across all requested times (evolve_snapshots), at O(t_max) work instead of
  one march from t = 0 per time, and gives each time the same bytes as a
  march to that time alone.
* KERNEL: discrete convolution with the sampled heat kernel
  G = e^{-|r|^2 / 4 D t} / (4 pi D t), truncated where G < 1e-16 G(0).  It is
  a zero-padded numpy.fft linear convolution, so this scheme is free-space
  for every field.

All three transform-based steps (spectral, kernel, quantum) share one path:
fft2 at a chosen size, multiply, ifft2, crop back to the grid.

Every classical step returns a field with its input's boundary; a free-space
record grows to the diffused waist w0^2 + 4 D t, so chained steps pad enough.

Quantum diffusion is the dispersive analogue e^{-i beta k^2 t}: unitary and
reversible by a conjugation echo, in contrast with classical diffusion whose
inverse amplifies the top of the band by e^{D k_max^2 t} and is therefore
exposed only as a conditioning report, never performed.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  numpy 2 imports numpy.fft lazily; load it with the package

from .analytic import PHYSICALITY_TOL, StateSnapshot
from .grid import ComplexField2D, GridSpec
from .modes import lg_required_extent


class Scheme(enum.Enum):
    SPECTRAL = "spectral"
    FD_EXPLICIT = "fd"
    KERNEL = "kernel"


class CflError(ValueError):
    """Explicit-FD timestep above the stability bound; carries max admissible dt."""

    def __init__(self, message: str, max_dt: float):
        super().__init__(message)
        self.max_dt = max_dt


class IrreversibleEvolutionError(RuntimeError):
    """Classical un-diffusion requested; carries the amplification factor."""

    def __init__(self, message: str, amplification: float):
        super().__init__(message)
        self.amplification = amplification


@dataclass(frozen=True)
class SolverConfig:
    """Scheme selection plus FD stepping parameters.

    dt applies to FD_EXPLICIT only; None means "largest stable step",
    cfl_safety * dx^2 / (4 D).
    """

    scheme: Scheme = Scheme.SPECTRAL
    dt: float | None = None
    cfl_safety: float = 0.9

    def __post_init__(self):
        if not (0 < self.cfl_safety <= 1):
            raise ValueError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if self.dt is not None and not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class QuantumParams:
    """Dispersion coefficient beta of the unitary phase e^{-i beta k^2 t}."""

    beta: float = 1.0


def _k_squared(n: int, dx: float) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return kx**2 + ky**2


def max_wavenumber(grid: GridSpec) -> float:
    """Nyquist wavenumber pi/dx, the top of the resolved band per axis."""
    return math.pi / grid.dx


def _diffused_boundary(f: ComplexField2D, D: float, t: float):
    """f's boundary after diffusing for time t: the waist grows, periodic stays periodic."""
    return None if f.free_space is None else f.free_space.diffused(D, t)


def _fft_size(n_min: int) -> int:
    """Smallest even n >= n_min whose only prime factors are 2, 3 and 5."""
    n = n_min + n_min % 2
    while True:
        rest = n
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 2


def _fourier_multiply(values: np.ndarray, size: int,
                      multiplier: Callable[[int], np.ndarray], offset: int = 0) -> np.ndarray:
    """The one transform path: fft2 of values zero-padded to size x size,
    times multiplier(size), ifft2, and the n x n window starting at offset.

    The multiplier is built after the forward transform and released before
    the inverse one, so no transform runs while it is alive: holding it longer
    raised the peak RSS of an n = 1024 run with 16 times by about 100 MB.
    """
    n = values.shape[0]
    spectrum = np.fft.fft2(values, s=(size, size))
    spectrum *= multiplier(size)
    return np.fft.ifft2(spectrum)[offset:offset + n, offset:offset + n]


def _free_space_size(f: ComplexField2D, D: float, t: float) -> int:
    """FFT side that contains f's mode after time t, on the grid's dx.

    The extent comes from the containment rule at s = (w0^2 + 4 D t) / w0^2
    for the field's recorded waist; a periodic field, or one whose grid
    already contains the mode, keeps the grid's own size.
    """
    fs = f.free_space
    if fs is None:
        return f.grid.n
    s = (fs.w0_sq + 4.0 * D * t) / fs.w0_sq
    required = lg_required_extent(math.sqrt(fs.w0_sq), 0, fs.order - 1, s)
    if required <= f.grid.extent * (1.0 + 1e-12):
        return f.grid.n
    return _fft_size(math.ceil(2.0 * required / f.grid.dx))


def diffuse_spectral(f: ComplexField2D, D: float, t: float) -> ComplexField2D:
    """Heat-equation step: multiply Fourier components by e^{-D k^2 t}.

    A free-space field whose grid is smaller than the containment extent at
    time t is zero-padded on the same dx to an FFT-friendly size, stepped
    and cropped: a linear convolution with the heat kernel instead of a
    periodic one.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if D < 0:
        raise ValueError(f"diffusion coefficient must be >= 0, got {D}")
    if t == 0 or D == 0:
        return f.copy()
    size = _free_space_size(f, D, t)
    out = _fourier_multiply(
        f.values, size, lambda side: np.exp(-D * _k_squared(side, f.grid.dx) * t)
    )
    return ComplexField2D(f.grid, out, _diffused_boundary(f, D, t))


def fd_max_dt(grid: GridSpec, D: float, cfl_safety: float = 1.0) -> float:
    """Stability bound of the explicit 5-point step, cfl_safety * dx^2 / (4 D)."""
    return cfl_safety * grid.dx**2 / (4.0 * D)


def _periodic_laplacian(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.multiply(u, -4.0, out=out)
    out[1:, :] += u[:-1, :]
    out[0, :] += u[-1, :]
    out[:-1, :] += u[1:, :]
    out[-1, :] += u[0, :]
    out[:, 1:] += u[:, :-1]
    out[:, 0] += u[:, -1]
    out[:, :-1] += u[:, 1:]
    out[:, -1] += u[:, 0]
    return out


def fd_timestep(grid: GridSpec, D: float, cfg: SolverConfig) -> float:
    """The explicit-FD step size: cfg.dt, or the stability bound when cfg.dt
    is None.  A dt above the bound is a hard error (CflError) naming the
    maximum admissible value; this is the one CFL rule, shared by the march
    and by config validation.  Needs D > 0."""
    bound = fd_max_dt(grid, D, cfg.cfl_safety)
    dt = bound if cfg.dt is None else cfg.dt
    if dt > bound * (1.0 + 1e-12):
        raise CflError(
            f"FD timestep dt={dt:.6g} violates the stability bound; "
            f"maximum admissible dt is {bound:.6g} "
            f"(cfl_safety={cfg.cfl_safety}, dx={grid.dx:.6g}, D={D})",
            max_dt=bound,
        )
    return dt


def _fd_march(values: np.ndarray, grid: GridSpec, D: float, times: list[float],
              cfg: SolverConfig) -> Iterator[np.ndarray]:
    """The one explicit-FD stepping loop, marched once across ascending times.

    For each t the shared state advances to floor(t/dt) full steps; one
    shorter step over the remainder is applied to a copy only, and the march
    goes on from the full-step state.  Every result thus follows the step
    sequence of a march to that t alone, byte for byte, at O(t_max) work
    instead of O(sum of t).  values keeps its dtype: a real field marches as
    float64.  Results are yielded one time at a time, each a new array, so a
    caller can consume them as they come.
    """
    for t in times:
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
    if D < 0:
        raise ValueError(f"diffusion coefficient must be >= 0, got {D}")
    if any(later < earlier for earlier, later in zip(times, times[1:])):
        raise ValueError(f"FD march needs ascending times, got {times}")
    if D == 0 or not times or times[-1] == 0:
        for _ in times:
            yield values.copy()
        return
    dt = fd_timestep(grid, D, cfg)
    u = values.copy()
    lap = np.empty_like(u)
    coeff = D * dt / grid.dx**2
    steps_done = 0
    for t in times:
        n_full = int(math.floor(t / dt + 1e-12))
        for _ in range(n_full - steps_done):
            _periodic_laplacian(u, lap)
            lap *= coeff
            u += lap
        steps_done = n_full
        remainder = t - n_full * dt
        if remainder > 1e-12 * dt:
            _periodic_laplacian(u, lap)
            lap *= D * remainder / grid.dx**2
            yield u + lap
        else:
            yield u.copy()


def diffuse_fd(f: ComplexField2D, D: float, t: float, cfg: SolverConfig) -> ComplexField2D:
    """Explicit 5-point-stencil time stepping with periodic wrap.

    The wrap is kept for every field, free-space ones included: this scheme
    is the independent convergence witness, so it stays as simple as
    possible.

    Marches floor(t/dt) full steps of cfg.dt (or the stability bound when
    cfg.dt is None) plus one shorter final step covering the remainder, so
    an arbitrary t is reached exactly.  A dt above the stability bound is a
    hard error naming the maximum admissible value.  This is the one-time
    case of the march that evolve_snapshots runs once across all requested
    times, at O(t_max).
    """
    (u,) = _fd_march(f.values, f.grid, D, [t], cfg)
    return ComplexField2D(f.grid, u, _diffused_boundary(f, D, t))


def heat_kernel_patch(grid: GridSpec, D: float, t: float) -> np.ndarray:
    """Sampled free-space heat kernel on a square patch, zero beyond the
    radius where G drops below 1e-16 of its center value."""
    r_cut = math.sqrt(4.0 * D * t * math.log(1e16))
    half = max(1, int(math.ceil(r_cut / grid.dx)))
    offsets = grid.dx * np.arange(-half, half + 1)
    ox, oy = np.meshgrid(offsets, offsets, indexing="ij")
    r_sq = ox**2 + oy**2
    kernel = np.exp(-r_sq / (4.0 * D * t)) / (4.0 * np.pi * D * t)
    kernel[r_sq > r_cut**2] = 0.0
    return kernel


def diffuse_kernel(f: ComplexField2D, D: float, t: float) -> ComplexField2D:
    """Green-function propagation: discrete convolution with the sampled
    heat kernel times dx^2.  The convolution is linear: field and K x K
    kernel patch (K odd) are zero-padded to at least n + (K - 1) / 2 and the
    centred n x n window, starting at (K - 1) / 2, is kept; the circular
    wrap of that transform lands only outside the window.  t = 0 is
    rejected (the kernel degenerates to a delta; use the identity instead),
    as are steps too short for the grid to resolve the kernel
    (4 D t < dx^2), which would fabricate mass."""
    if not (t > 0):
        raise ValueError("kernel propagator needs t > 0 (t = 0 is the identity)")
    if D < 0:
        raise ValueError(f"diffusion coefficient must be >= 0, got {D}")
    if D == 0:
        return f.copy()
    if 4.0 * D * t < f.grid.dx**2:
        raise ValueError(
            f"kernel unresolved: needs 4 D t >= dx^2 = {f.grid.dx ** 2:.6g}, "
            f"got {4.0 * D * t:.6g}; use the spectral scheme for short steps"
        )
    kernel = heat_kernel_patch(f.grid, D, t)
    half = (kernel.shape[0] - 1) // 2
    out = _fourier_multiply(
        f.values, _fft_size(f.grid.n + half),
        lambda side: np.fft.fft2(kernel, s=(side, side)), offset=half,
    )
    out *= f.grid.dx**2
    return ComplexField2D(f.grid, out, _diffused_boundary(f, D, t))


def evolve_quantum(f: ComplexField2D, q: QuantumParams, t: float) -> ComplexField2D:
    """Unitary dispersive evolution: multiply Fourier components by e^{-i beta k^2 t}.

    The step is periodic on the grid, so that the echo undoes it exactly; the
    boundary record passes through unchanged.
    """
    out = _fourier_multiply(
        f.values, f.grid.n, lambda side: np.exp(-1j * q.beta * _k_squared(side, f.grid.dx) * t)
    )
    return ComplexField2D(f.grid, out, f.free_space)


def echo_reverse(f: ComplexField2D, q: QuantumParams, t: float) -> ComplexField2D:
    """Photon-echo style reversal of evolve_quantum(f, q, t).

    Conjugate, evolve forward for the same duration, conjugate again; the net
    effect multiplies each Fourier mode by e^{+i beta k^2 t}, undoing the
    forward pass to rounding accuracy.
    """
    conjugated = ComplexField2D(f.grid, np.conj(f.values), f.free_space)
    evolved = evolve_quantum(conjugated, q, t)
    return ComplexField2D(f.grid, np.conj(evolved.values), f.free_space)


def classical_reversal_amplification(grid: GridSpec, D: float, t: float) -> float:
    """Amplification e^{D k_max^2 t} that inverting classical diffusion would
    apply to the top of the resolved band (k_max = pi/dx)."""
    with np.errstate(over="ignore"):
        return float(np.exp(D * max_wavenumber(grid) ** 2 * t))


def reverse_classical(f: ComplexField2D, D: float, t: float) -> ComplexField2D:
    """Refuse to invert classical diffusion; report the conditioning instead.

    The would-be inverse multiplies Fourier modes by e^{+D k^2 t}, amplifying
    band-top noise by e^{D k_max^2 t}.  Raises IrreversibleEvolutionError
    carrying that factor without touching the field; the t = 0 / D = 0 no-op
    is returned unchanged.
    """
    if t < 0 or D < 0:
        raise ValueError("reverse_classical needs t >= 0 and D >= 0")
    if t == 0 or D == 0:
        return f.copy()
    amplification = classical_reversal_amplification(f.grid, D, t)
    raise IrreversibleEvolutionError(
        f"irreversible: amplification factor {amplification:.6g} "
        f"(e^(D k_max^2 t), k_max = pi/dx = {max_wavenumber(f.grid):.6g})",
        amplification=amplification,
    )


def _diffuse(f: ComplexField2D, D: float, t: float, cfg: SolverConfig) -> ComplexField2D:
    """One per-time step of the spectral or kernel scheme."""
    if cfg.scheme is Scheme.SPECTRAL:
        return diffuse_spectral(f, D, t)
    if cfg.scheme is Scheme.KERNEL:
        if t == 0:
            return f.copy()
        return diffuse_kernel(f, D, t)
    raise ValueError(f"unknown scheme {cfg.scheme!r}")


def _physical_snapshot(s: StateSnapshot, t: float, rho12: ComplexField2D,
                       rho22: np.ndarray) -> StateSnapshot:
    """The snapshot s evolved for t, from its diffused fields.  rho22 values
    below -PHYSICALITY_TOL (relative to its peak) raise; StateSnapshot clips
    the tiny negative rounding residues above that."""
    floor = -PHYSICALITY_TOL * max(1.0, float(np.max(rho22, initial=0.0)))
    if float(rho22.min()) < floor:
        raise ValueError(
            f"rho22 developed negative values ({rho22.min():.3e}) beyond tolerance; "
            "initial data too rough for this scheme/grid"
        )
    return StateSnapshot(time=s.time + t, rho12=rho12, rho22=rho22, rho11=s.rho11)


def evolve_snapshot(s: StateSnapshot, D: float, t: float, cfg: SolverConfig) -> StateSnapshot:
    """Propagate a snapshot for duration t under the configured scheme.

    rho12 diffuses as a complex field, rho22 as a real nonnegative field
    with rho12's boundary (its tiny negative rounding residues are clipped
    within the physicality tolerance); rho11 is homogeneous and
    diffusion-invariant.  The FD scheme runs as the one-time case of the
    march in evolve_snapshots.
    """
    if cfg.scheme is Scheme.FD_EXPLICIT:
        (snap,) = evolve_snapshots(s, D, [t], cfg)
        return snap
    rho12 = _diffuse(s.rho12, D, t, cfg)
    rho22_c = _diffuse(
        ComplexField2D(s.grid, s.rho22.astype(np.complex128), s.rho12.free_space), D, t, cfg
    )
    return _physical_snapshot(s, t, rho12, rho22_c.values.real)


def evolve_snapshots(s: StateSnapshot, D: float, times, cfg: SolverConfig) -> list[StateSnapshot]:
    """Propagate a snapshot to each of the given durations, as evolve_snapshot does.

    The spectral and kernel schemes step each time from s.  The FD scheme
    marches rho12, then rho22 (as float64), once each across the ascending
    times, and gives each time the same bytes as a march to it alone.
    """
    times = list(times)
    if cfg.scheme is not Scheme.FD_EXPLICIT:
        return [evolve_snapshot(s, D, t, cfg) for t in times]
    # rho12's march ends (freeing its work arrays) before rho22's starts;
    # rho22's results become snapshots as they come, so the peak memory
    # stays near that of one march per time
    rho12s = list(_fd_march(s.rho12.values, s.grid, D, times, cfg))
    rho22s = _fd_march(np.asarray(s.rho22, dtype=np.float64), s.grid, D, times, cfg)
    return [
        _physical_snapshot(
            s, t, ComplexField2D(s.grid, rho12, _diffused_boundary(s.rho12, D, t)), rho22
        )
        for t, rho12, rho22 in zip(times, rho12s, rho22s)
    ]
