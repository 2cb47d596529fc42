"""Initial stored-coherence fields: LG modes, plane waves, blocked Gaussian.

The Laguerre-Gaussian radial amplitude used throughout is lg_amplitude at
evolution factor s; the stored mode is its s = 1 case,

    A(r; w0, P, m, p) = (1/w0) * sqrt(2 P / pi) * sqrt(p! / (p+|m|)!)
                        * (sqrt(2) r / w0)^|m| * L_p^{|m|}(2 r^2 / w0^2)
                        * exp(-r^2 / w0^2)

normalized so that the integral of |A|^2 over the plane equals P for every
(p, m).  The full mode carries the helical phase e^{-i m theta} and a complex
prefactor amp (unit by default; it cancels in every fidelity or coherence
diagnostic and is never fitted).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .grid import ComplexField2D, FreeSpace, GridSpec, ParameterError


class ModeKind(enum.Enum):
    LG = "lg"
    PLANE_WAVE = "plane_wave"
    BLOCKED_GAUSSIAN = "blocked_gaussian"


class ContainmentError(ValueError):
    """Mode does not fit the grid; carries the minimum admissible extent."""

    def __init__(self, message: str, required_extent: float):
        super().__init__(message)
        self.required_extent = required_extent


@dataclass(frozen=True)
class ModeSpec:
    """Parameters of a stored optical mode.

    kind selects the constructor; p, m, w0, P apply to LG (and the Gaussian
    underlying BLOCKED_GAUSSIAN), k to PLANE_WAVE, block_radius to
    BLOCKED_GAUSSIAN.  amp is a mode-independent complex scale.
    """

    kind: ModeKind
    p: int = 0
    m: int = 0
    w0: float = 1.0
    P: float = 1.0
    amp: complex = 1.0 + 0.0j
    k: float = 0.0
    block_radius: float = 0.0

    def __post_init__(self):
        check_waist(self.w0)
        if not (0 < self.P < math.inf):
            raise ParameterError("P", f"total intensity P must be positive and finite, got {self.P}")
        if self.amp == 0:
            raise ParameterError("amp", f"amplitude amp must be nonzero, got {self.amp}")
        if not cmath.isfinite(self.amp):
            raise ParameterError("amp", f"amplitude amp must be finite, got {self.amp}")
        if not math.isfinite(self.k):
            raise ParameterError("k", f"wavenumber k must be finite, got {self.k}")
        if not isinstance(self.p, (int, np.integer)) or self.p < 0:
            raise ParameterError("p", f"radial index p must be a nonnegative integer, "
                                      f"got {self.p!r}")
        if not isinstance(self.m, (int, np.integer)):
            raise ParameterError("m", f"winding number m must be an integer, got {self.m!r}")
        for name in ("p", "m"):  # another kind would ignore the index, hiding a typo
            if self.kind is not ModeKind.LG and (value := getattr(self, name)):
                raise ParameterError(name, f"mode.{name} applies to lg modes only, got {value} "
                                           f"on a {self.kind.value} mode")
        if not (0 <= self.block_radius < math.inf):
            raise ParameterError("block_radius", f"block_radius must be nonnegative and finite, "
                                                 f"got {self.block_radius}")


def check_waist(w0: float) -> None:
    """The waist rule: 0 < w0 < inf.  ModeSpec and evolution_factor ask it."""
    if not (0 < w0 < math.inf):
        raise ParameterError("w0", f"waist w0 must be positive and finite, got {w0}")


def lg_required_extent(w0: float, m: int, p: int, s_max: float) -> float:
    """Minimum extent keeping an LG mode contained through evolution factor s_max
    (truncated intensity below ~1e-6 P); s_max = 1 is the undiffused mode."""
    return 4.0 * w0 * math.sqrt(s_max * (1.0 + abs(m) + p))


def check_contained(extent: float, w0: float, m: int, p: int, s: float = 1.0) -> None:
    """The containment rule: raise ContainmentError, carrying the required
    extent, unless extent >= lg_required_extent(w0, m, p, s).  Mode
    constructors, config validation and free-space padding all ask it."""
    required = lg_required_extent(w0, m, p, s)
    if not (required <= extent * (1.0 + 1e-12)):  # a NaN extent or s is not contained
        raise ContainmentError(
            f"LG mode (p={p}, m={m}, w0={w0}) is not contained at s = {s:.6g}: requires "
            f"grid extent >= 4*w0*sqrt(s*(1+|m|+p)) = {required:.6g}, got {extent:.6g}",
            required_extent=required,
        )


def check_block_radius(block_radius: float, grid: GridSpec) -> None:
    """The blocked-Gaussian rule: raise ValueError unless the hole lies inside the grid."""
    if block_radius >= grid.extent:
        raise ValueError(
            f"block_radius {block_radius} must be smaller than grid extent {grid.extent}"
        )


def _scaled_laguerre(p: int, alpha: int, x, q: float = 1.0):
    """M_p = q^p L_p^alpha(x / q) for float64 array x, finite at q = 0, by the
    package's one Laguerre recurrence (exact products at q = 1):
    (k+1) M_{k+1} = (q (2k+1+alpha) - x) M_k - q^2 (k+alpha) M_{k-1}, M_0 = 1."""
    prev = np.ones_like(x)
    if p == 0:
        return prev
    cur = q * (1 + alpha) - x
    for kk in range(1, p):
        prev, cur = cur, ((q * (2 * kk + 1 + alpha) - x) * cur - q * q * (kk + alpha) * prev) / (kk + 1)
    return cur


def lg_amplitude(spec: ModeSpec, s: float, r):
    """Radial amplitude of LG_p^m at evolution factor s = 1 + 4 D t / w0^2:
    A's normalization times s^-(|m|+1) q^p L_p^|m|(2 u^2 / (s^2 q))
    (sqrt(2) u)^|m| e^{-u^2 / s}, with u = r / w0 and q = (2 - s) / s, finite
    at s = 2.  At s = 1 every s term is an exact 1, so it is A itself."""
    r = np.asarray(r, dtype=np.float64)
    am, w0 = abs(spec.m), spec.w0
    norm = math.sqrt(math.factorial(spec.p) / math.factorial(spec.p + am))
    rad = (np.sqrt(2.0) * r / w0) ** am * np.exp(-(r**2) / (w0**2 * s))
    if spec.p > 0:
        rad = rad * _scaled_laguerre(spec.p, am, 2.0 * r**2 / w0**2 / s**2, (2.0 - s) / s)
    return (1.0 / w0) * math.sqrt(2.0 * spec.P / math.pi) * norm * rad / s ** (am + 1)


def lg_field(spec: ModeSpec, grid: GridSpec) -> ComplexField2D:
    """Sample an LG_p^m mode: amp * A(r) * e^{-i m theta}.

    Rejects modes whose tails are not contained by the grid (see
    check_contained); conservation checks downstream need a closed
    intensity budget.  The field is marked free space (w0^2, 1 + |m| + p).
    """
    if spec.kind is not ModeKind.LG:
        raise ValueError(f"lg_field needs kind=LG, got {spec.kind}")
    check_contained(grid.extent, spec.w0, spec.m, spec.p)
    r, theta = grid.radius(), grid.theta()
    values = spec.amp * lg_amplitude(spec, 1.0, r) * np.exp(-1j * spec.m * theta)
    return ComplexField2D(grid, values, FreeSpace(spec.w0**2, 1 + abs(spec.m) + spec.p))


def blocked_gaussian(spec: ModeSpec, grid: GridSpec) -> ComplexField2D:
    """Gaussian (p=0, m=0) mode with values set to exactly 0 for r < block_radius.

    The field is marked free space with the Gaussian's numbers (w0^2, 1).
    """
    if spec.kind is not ModeKind.BLOCKED_GAUSSIAN:
        raise ValueError(f"blocked_gaussian needs kind=BLOCKED_GAUSSIAN, got {spec.kind}")
    check_block_radius(spec.block_radius, grid)
    check_contained(grid.extent, spec.w0, 0, 0)
    r = grid.radius()
    values = spec.amp * lg_amplitude(spec, 1.0, r).astype(np.complex128)
    values[r < spec.block_radius] = 0.0
    return ComplexField2D(grid, values, FreeSpace(spec.w0**2, 1))


def check_plane_wave_k(k: float, grid: GridSpec) -> None:
    """The plane-wave rule: raise ValueError unless e^{-i k x} suits the grid.

    k must be an integer multiple of pi/extent so the wave is periodic on the
    grid (a non-periodic k would silently corrupt spectral evolution), and
    at most the Nyquist limit pi/dx.
    """
    if abs(k) * grid.dx > math.pi * (1.0 + 1e-12):
        raise ValueError(f"k = {k} exceeds the Nyquist limit pi/dx = {math.pi / grid.dx:.6g}")
    harmonics = k * grid.extent / math.pi
    if abs(harmonics - round(harmonics)) > 1e-9:
        raise ValueError(
            f"k = {k} is not grid-periodic; use an integer multiple of "
            f"pi/extent = {math.pi / grid.extent:.6g}"
        )


def plane_wave(spec: ModeSpec, grid: GridSpec) -> ComplexField2D:
    """Plane wave amp * e^{-i k x}; k obeys check_plane_wave_k."""
    if spec.kind is not ModeKind.PLANE_WAVE:
        raise ValueError(f"plane_wave needs kind=PLANE_WAVE, got {spec.kind}")
    check_plane_wave_k(spec.k, grid)
    x, _ = grid.meshgrid()
    values = spec.amp * np.exp(-1j * spec.k * x)
    return ComplexField2D(grid, values)


def build_mode(spec: ModeSpec, grid: GridSpec) -> ComplexField2D:
    """Dispatch on spec.kind."""
    if spec.kind is ModeKind.LG:
        return lg_field(spec, grid)
    if spec.kind is ModeKind.BLOCKED_GAUSSIAN:
        return blocked_gaussian(spec, grid)
    if spec.kind is ModeKind.PLANE_WAVE:
        return plane_wave(spec, grid)
    raise ValueError(f"unknown mode kind {spec.kind!r}")
