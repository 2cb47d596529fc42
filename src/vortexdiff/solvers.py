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
  kept deliberately simple as convergence-order evidence.  The DFT modes are
  the eigenvectors of the periodic stencil, with eigenvalue
  lambda = (2 cos(kx dx) - 2 + 2 cos(ky dx) - 2) / dx^2, so N full steps of
  dt and one over the remainder r are the multiplier
  (1 + D dt lambda)^N (1 + D r lambda) on the grid's own side: the same
  discretization and step count as a march, evaluated exactly.
* KERNEL: discrete convolution with the sampled heat kernel
  G = e^{-|r|^2 / 4 D t} / (4 pi D t), truncated where G < 1e-16 G(0): the
  spectral step again with the multiplier fft2(G dx^2) on a zero-padded
  side, a linear convolution, so this scheme is free-space for every field.

The three classical steps and the quantum step are one loop,
_fourier_stream: per time a plan gives the FFT side and crop offset (or the
identity) and a multiplier, built once for all fields; each field goes to
its spectrum at that side, is multiplied, goes back and is cropped.  A
complex field uses fft2; a real one (rho22) uses rfft2 and half the
multiplier, and comes back real.  Every inverse runs one axis at a time,
the complex passes in place, with the bytes of ifft2 / irfft2.  Its memory
rule: a field's padded spectrum is held only while the next time uses the
same side; otherwise each field is transformed lazily, multiplied in place
and dropped.  The stored fields go once the held spectra serve every later
time, and the stream keeps nothing it has yielded.  _classical_stream is
the one scheme dispatch: the schemes differ only in plan and multiplier,
which holds every weight.  The spectral and quantum multipliers are
separable, outer products of 1-D factors.  evolve_snapshots (a lazy
generator that keeps of its input snapshot only time, grid and boundary,
and no snapshot it has yielded) calls it, and so does _diffuse_one, the
one-field step that diffuse_spectral, diffuse_kernel and diffuse_fd each
are; evolve_quantum is the loop's periodic one-time case.

Every classical step returns a field with its input's boundary; a free-space
record grows to the diffused waist w0^2 + 4 D t, so chained steps pad enough.
The padding asks modes.check_contained, the inputs analytic.check_diffusion,
the kernel check_kernel_resolution, and every evolved snapshot passes the
one physicality check, the StateSnapshot constructor.

Quantum diffusion is the dispersive analogue e^{-i beta k^2 t}: unitary and
reversible by a conjugation echo, in contrast with classical diffusion whose
inverse amplifies the top of the band by e^{D k_max^2 t} and is therefore
exposed only as a conditioning report, never performed.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
import numpy.fft  # noqa: F401  numpy 2 imports numpy.fft lazily; load it with the package

from .analytic import StateSnapshot, check_diffusion
from .grid import ComplexField2D, FreeSpace, GridSpec, ParameterError
from .modes import ContainmentError, check_contained


class Scheme(enum.Enum):
    SPECTRAL = "spectral"
    FD_EXPLICIT = "fd"
    KERNEL = "kernel"


class CflError(ValueError):
    """Explicit-FD timestep above the stability bound or below the step floor;
    carries the max admissible dt."""

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
            raise ParameterError("cfl_safety",
                                 f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if self.dt is not None and not (self.dt > 0):
            raise ParameterError("dt", f"dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class QuantumParams:
    """Dispersion coefficient beta of the unitary phase e^{-i beta k^2 t}."""

    beta: float = 1.0


def _wavenumbers(n: int, dx: float) -> np.ndarray:
    """Angular wavenumbers 2 pi fftfreq(n, dx) of one axis of an n x n FFT
    grid.  Every multiplier is built from them."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=dx)


def _outer(axis_factor: np.ndarray) -> np.ndarray:
    """The 2-D multiplier f(kx) f(ky) of a separable symbol, from its 1-D
    factor: one n^2 product instead of an n^2 exp."""
    return np.multiply.outer(axis_factor, axis_factor)


def max_wavenumber(grid: GridSpec) -> float:
    """Nyquist wavenumber pi/dx, the top of the resolved band per axis."""
    return math.pi / grid.dx


def _diffused_boundary(fs: FreeSpace | None, D: float, t: float) -> FreeSpace | None:
    """Boundary fs after diffusing for time t: the waist grows, periodic stays periodic."""
    return None if fs is None else fs.diffused(D, t)


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


def _free_space_size(grid: GridSpec, fs: FreeSpace | None, D: float, t: float) -> int:
    """FFT side that contains a field with boundary fs after time t, on the grid's dx.

    The extent comes from the containment rule at s = (w0^2 + 4 D t) / w0^2
    for the field's recorded waist; a periodic field, or one whose grid
    already contains the mode, keeps the grid's own size.
    """
    if fs is None:
        return grid.n
    s = (fs.w0_sq + 4.0 * D * t) / fs.w0_sq
    try:
        check_contained(grid.extent, math.sqrt(fs.w0_sq), 0, fs.order - 1, s)
    except ContainmentError as exc:
        return _fft_size(math.ceil(2.0 * exc.required_extent / grid.dx))
    return grid.n


def _inverse_fft2(product: np.ndarray, side: int, real: bool) -> np.ndarray:
    """ifft2 of a full spectrum, or irfft2 at side of a half spectrum, one
    axis at a time in numpy's own order, so the bytes are those of
    ifft2 / irfft2.  The complex passes run in place and overwrite product,
    so no padded working array is allocated beside it."""
    if real:
        np.fft.ifft(product, axis=0, out=product)
        return np.fft.irfft(product, n=side, axis=1)
    np.fft.ifft(product, axis=1, out=product)
    return np.fft.ifft(product, axis=0, out=product)


def _fourier_stream(grid: GridSpec, fields: list[np.ndarray], times: list[float], plan,
                    multiplier) -> Iterator[list[np.ndarray]]:
    """The one Fourier-multiplier loop, one list of results per time,
    yielded as it is computed.  plan(t) gives (side, offset), or None for
    the identity (copies).  Each array in fields goes to the spectrum at
    that side, times multiplier(t, side), back, and its n x n window at
    offset.  A complex field goes fft2 and the per-axis in-place inverse;
    a real field goes rfft2, times the multiplier's first side // 2 + 1
    columns, and the per-axis irfft2, and stays real.
    That is exact because every multiplier applied to a real field is the
    spectrum of a real kernel.  A field's padded spectrum is held only while
    the next time uses the same side: such a time transforms every field up
    front, any other transforms each field lazily, multiplies it in place
    and drops it.  Once the held spectra serve every later time, the stream
    drops fields, which a caller that keeps no other reference to them
    frees.  The multiplier is dropped before each yield.  The suspended
    stream still refers to the list it yielded, so a caller empties it once
    it has taken the arrays.  Results are the bytes of a separate forward
    transform, multiply and inverse per field and time."""
    def spectrum(v: np.ndarray, side: int) -> np.ndarray:
        if np.iscomplexobj(v):
            return np.fft.fft2(v, s=(side, side))
        return np.fft.rfft2(v, s=(side, side))

    steps = [plan(t) for t in times]
    sides = [None if step is None else step[0] for step in steps]
    reals = [not np.iscomplexobj(v) for v in fields]
    held = []  # this side's spectra, kept while the next time uses the same side
    for i, (t, step) in enumerate(zip(times, steps)):
        if step is None:
            yield [v.copy() for v in fields]
            continue
        side, offset = step
        keep = sides[i + 1:i + 2] == [side]
        if keep and not held:
            held = [spectrum(v, side) for v in fields]
            if all(later == side for later in sides[i + 1:]):
                fields = None  # every later time reads the held spectra
        factor = multiplier(t, side)
        window = slice(offset, offset + grid.n)
        out = []
        for j, real in enumerate(reals):
            mul = factor[:, :side // 2 + 1] if real else factor
            if held:
                product = held[j] * mul
            else:
                product = spectrum(fields[j], side)
                product *= mul
            del mul
            # the window is copied out, so no result keeps a padded array alive
            out.append(np.ascontiguousarray(_inverse_fft2(product, side, real)[window, window]))
            del product
        if not keep:
            held = []
        del factor
        yield out
        del out  # the caller holds this time's results; drop them before the next time


def heat_kernel_patch(grid: GridSpec, D: float, t: float) -> np.ndarray:
    """Sampled free-space heat kernel on a square patch, zero beyond the
    radius where G drops below 1e-16 of its center value."""
    r_cut, half = _kernel_cut(grid, D, t)
    offsets = grid.dx * np.arange(-half, half + 1)
    ox, oy = np.meshgrid(offsets, offsets, indexing="ij")
    r_sq = ox**2 + oy**2
    kernel = np.exp(-r_sq / (4.0 * D * t)) / (4.0 * np.pi * D * t)
    kernel[r_sq > r_cut**2] = 0.0
    return kernel


def _kernel_cut(grid: GridSpec, D: float, t: float) -> tuple[float, int]:
    """Cut radius of the truncated heat kernel and the patch's half-width in samples."""
    r_cut = math.sqrt(4.0 * D * t * math.log(1e16))
    return r_cut, max(1, int(math.ceil(r_cut / grid.dx)))


def check_kernel_resolution(grid: GridSpec, D: float, times) -> None:
    """The kernel scheme's resolution rule: every nonzero step has 4 D t >= dx^2.
    A shorter one under-samples the kernel and would fabricate mass."""
    for t in times:
        if 0 < 4.0 * D * t < grid.dx**2:
            raise ValueError(
                f"kernel unresolved: needs 4 D t >= dx^2 = {grid.dx ** 2:.6g}, "
                f"got {4.0 * D * t:.6g}; use the spectral scheme for short steps"
            )


def fd_max_dt(grid: GridSpec, D: float, cfl_safety: float = 1.0) -> float:
    """Stability bound of the explicit 5-point step, cfl_safety * dx^2 / (4 D)."""
    return cfl_safety * grid.dx**2 / (4.0 * D)


def fd_timestep(grid: GridSpec, D: float, cfg: SolverConfig) -> float:
    """The explicit-FD step size: cfg.dt, or the stability bound when cfg.dt
    is None.  A dt above the bound, a bound that underflows to 0, or a dt
    below the floor 1e-12 dx^2 / (4 D), where 1 + D dt lambda rounds to 1 and
    a step does no diffusion, is a hard error (CflError) naming both limits;
    this is the one CFL rule, shared by the FD stream and by config
    validation.  Needs D > 0."""
    bound, floor = fd_max_dt(grid, D, cfg.cfl_safety), fd_max_dt(grid, D, 1e-12)
    dt = bound if cfg.dt is None else cfg.dt
    if not (0 < dt and floor <= dt <= bound * (1.0 + 1e-12)):
        raise CflError(
            f"FD timestep dt={dt:.6g} violates the stability bound or the step floor; "
            f"minimum admissible dt is {floor:.6g} = 1e-12 dx^2/(4 D) and "
            f"maximum admissible dt is {bound:.6g} "
            f"(cfl_safety={cfg.cfl_safety}, dx={grid.dx:.6g}, D={D})",
            max_dt=bound,
        )
    return dt


def _classical_stream(cfg: SolverConfig, grid: GridSpec, free_space: FreeSpace | None,
                      fields: list[np.ndarray], D: float, times: list[float]) -> Iterator[list[np.ndarray]]:
    """The one scheme dispatch for classical steps: each array in fields
    (with boundary free_space) diffused to each time under cfg.scheme, one
    list of results per time, yielded lazily; every result keeps its
    field's dtype, so a real field stays real.  Every scheme runs through
    _fourier_stream and differs only in plan and multiplier: spectral pads a
    free-space field as containment asks, kernel pads by the patch's
    half-width, FD stays periodic on the grid's own side.  t = 0 and D = 0
    are the identity.  An FD dt above the stability bound raises CflError
    here, before any transform.
    """
    check_diffusion(D, times)
    if cfg.scheme is Scheme.SPECTRAL:
        def step(t):
            return _free_space_size(grid, free_space, D, t), 0

        def factor(t, side):
            return _outer(np.exp(-D * _wavenumbers(side, grid.dx) ** 2 * t))
    elif cfg.scheme is Scheme.FD_EXPLICIT:
        dt = fd_timestep(grid, D, cfg) if D > 0 else None

        def step(t):  # periodic for every field: no padding
            return grid.n, 0

        def factor(t, side):  # N full steps, then one over the remainder
            axis = (2.0 * np.cos(_wavenumbers(side, grid.dx) * grid.dx) - 2.0) / grid.dx**2
            lam = np.add.outer(axis, axis)
            n_full = math.floor(t / dt + 1e-12)
            remainder = t - n_full * dt
            out = (1.0 + D * dt * lam) ** n_full
            if remainder > 1e-12 * dt:
                out *= 1.0 + D * remainder * lam
            return out
    elif cfg.scheme is Scheme.KERNEL:
        def step(t):  # pad by the patch's half-width, keep the window at that offset
            check_kernel_resolution(grid, D, (t,))
            half = _kernel_cut(grid, D, t)[1]
            return _fft_size(grid.n + half), half

        def factor(t, side):  # the convolution weights G dx^2
            return np.fft.fft2(heat_kernel_patch(grid, D, t) * grid.dx**2, s=(side, side))
    else:
        raise ValueError(f"unknown scheme {cfg.scheme!r}")
    return _fourier_stream(grid, fields, times, lambda t: None if t == 0 or D == 0 else step(t),
                           factor)


def _diffuse_one(f: ComplexField2D, D: float, t: float, cfg: SolverConfig) -> ComplexField2D:
    """The one-field classical step: f diffused for time t under cfg.scheme,
    with its boundary grown to match."""
    ((out,),) = _classical_stream(cfg, f.grid, f.free_space, [f.values], D, [t])
    return ComplexField2D(f.grid, out, _diffused_boundary(f.free_space, D, t))


def diffuse_spectral(f: ComplexField2D, D: float, t: float) -> ComplexField2D:
    """Heat-equation step: multiply Fourier components by e^{-D k^2 t}.

    A free-space field whose grid is smaller than the containment extent at
    time t is zero-padded on the same dx to an FFT-friendly size, stepped
    and cropped: a linear convolution with the heat kernel instead of a
    periodic one.
    """
    return _diffuse_one(f, D, t, SolverConfig(Scheme.SPECTRAL))


def diffuse_fd(f: ComplexField2D, D: float, t: float, cfg: SolverConfig) -> ComplexField2D:
    """Explicit 5-point-stencil time stepping with periodic wrap, for every
    field, free-space ones included: this scheme is the independent
    convergence witness, so it stays as simple as possible.

    Takes floor(t/dt) full steps of cfg.dt (or the stability bound when
    cfg.dt is None) plus one shorter final step covering the remainder, so
    an arbitrary t is reached exactly.  The steps are applied at once, as
    the stencil's Fourier multiplier (1 + D dt lambda)^N (1 + D r lambda):
    the result is a stepwise march's to rounding, at the cost of one
    transform pair.  A dt above the stability bound is a hard error naming
    the maximum admissible value.
    """
    return _diffuse_one(f, D, t, replace(cfg, scheme=Scheme.FD_EXPLICIT))


def diffuse_kernel(f: ComplexField2D, D: float, t: float) -> ComplexField2D:
    """Green-function propagation: discrete convolution with the sampled
    heat kernel times dx^2.  The convolution is linear: field and K x K
    kernel patch (K odd) are zero-padded to at least n + (K - 1) / 2 and the
    centred n x n window, starting at (K - 1) / 2, is kept; the circular
    wrap of that transform lands only outside the window.  t = 0 is
    rejected (the kernel degenerates to a delta; use the identity instead),
    as are steps too short for the grid to resolve the kernel."""
    if not (t > 0):
        raise ValueError("kernel propagator needs t > 0 (t = 0 is the identity)")
    return _diffuse_one(f, D, t, SolverConfig(Scheme.KERNEL))


def evolve_quantum(f: ComplexField2D, q: QuantumParams, t: float) -> ComplexField2D:
    """Unitary dispersive evolution: multiply Fourier components by e^{-i beta k^2 t}.

    The step is periodic on the grid, so that the echo undoes it exactly; the
    boundary record passes through unchanged.
    """
    ((out,),) = _fourier_stream(
        f.grid, [f.values], [t], lambda _: (f.grid.n, 0),
        lambda t, side: _outer(np.exp(-1j * q.beta * _wavenumbers(side, f.grid.dx) ** 2 * t)))
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
    check_diffusion(D, (t,))
    if t == 0 or D == 0:
        return f.copy()
    amplification = classical_reversal_amplification(f.grid, D, t)
    raise IrreversibleEvolutionError(
        f"irreversible: amplification factor {amplification:.6g} "
        f"(e^(D k_max^2 t), k_max = pi/dx = {max_wavenumber(f.grid):.6g})",
        amplification=amplification,
    )


def evolve_snapshots(s: StateSnapshot, D: float, times, cfg: SolverConfig) -> Iterator[StateSnapshot]:
    """Propagate a snapshot to each of the given durations under the
    configured scheme, yielding one evolved snapshot per time, lazily.

    rho12 diffuses as a complex field, rho22 as a real field with rho12's
    boundary, both in one _classical_stream (rho11 = 1 is homogeneous, so
    diffusion leaves it as it is).  Each result passes the one physicality check, the
    StateSnapshot constructor, which rejects data too rough for the scheme
    and grid and clips rounding residues.  Every time gets the bytes of a
    step from s to that time alone.  Nothing is computed until a snapshot
    is asked for.  Once the stream is built the generator keeps only s's
    time, grid and boundary, so s's fields go as soon as the stream's held
    spectra serve every later time, if the caller drops s too.  It keeps no
    reference to a snapshot, or to an array, it has yielded, so a caller
    that reduces each snapshot and lets it go holds one at a time.
    """
    times = list(times)
    time0, grid, boundary = s.time, s.grid, s.rho12.free_space
    fields = _classical_stream(cfg, grid, boundary, [s.rho12.values, s.rho22], D, times)
    del s
    # next() rather than zip: zip keeps its last tuple, and with it the
    # previous time's arrays, alive while the next time is computed
    for t in times:
        out = next(fields)
        rho12, rho22 = out
        out.clear()  # the suspended stream refers to this list; the unclipped rho22 goes with it
        rho12 = ComplexField2D(grid, rho12, _diffused_boundary(boundary, D, t))
        snap = StateSnapshot(time0 + t, rho12, rho22)
        del out, rho12, rho22
        yield snap
        del snap


def evolve_snapshot(s: StateSnapshot, D: float, t: float, cfg: SolverConfig) -> StateSnapshot:
    """Propagate a snapshot for duration t: the one-time case of evolve_snapshots."""
    (snap,) = evolve_snapshots(s, D, [t], cfg)
    return snap
