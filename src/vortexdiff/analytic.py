"""Closed-form ground truth for diffusing stored coherence.

A stored LG_0^m coherence spreading under rho_t = D lap(rho) keeps its
functional form; only the waist grows and the amplitude decays:

    rho12(r, theta, t) = amp / sqrt(s^(|m|+1)) * A(r; sqrt(s) w0) * e^{-i m theta},
    s(t) = (w0^2 + 4 D t) / w0^2.

The surviving coherent fraction (fidelity, equal to the forward retrieval
efficiency realized as a coherent-energy ratio) is F = s^-(|m|+1).  The
populations follow their own diffusion solutions with closed forms for the
m = 1 vortex and the m = 0 Gaussian.  These formulas are the oracles against
which the numerical propagators are validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import ComplexField2D
from .modes import ModeKind, ModeSpec, lg_radial_amplitude

#: Default regularizer for the coherence factor; only role is to define the
#: undisturbed-region limit 0/0 = 1.
DEFAULT_ETA = 1e-12

# Density-matrix physicality slack (absolute, for fields normalized to O(1)
# peaks); covers quadrature and FFT rounding noise.
PHYSICALITY_TOL = 1e-9


def check_diffusion(D: float, times) -> None:
    """The diffusion-input rule: D >= 0 and every time t >= 0."""
    if D < 0:
        raise ValueError(f"diffusion coefficient must be >= 0, got {D}")
    for t in times:
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")


@dataclass(frozen=True)
class DiffusionParams:
    """Diffusion coefficient and the times at which diagnostics are evaluated."""

    D: float
    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        check_diffusion(self.D, times)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"times must be strictly ascending, got {times}")
        object.__setattr__(self, "times", times)


@dataclass(frozen=True)
class CoherenceFactorParams:
    """Regularizer eta for the coherence factor (infinitesimal, > 0)."""

    eta: float = DEFAULT_ETA

    def __post_init__(self):
        if not (0 < self.eta <= 1e-8):
            raise ValueError(f"eta must be in (0, 1e-8], got {self.eta}")


@dataclass
class StateSnapshot:
    """Density-matrix fields at one time: rho12 (complex), rho22 (real >= 0).

    rho11 is spatially constant (strong-pump initial condition) and stays so
    under diffusion, so it is carried as a scalar.  Construction is the one
    physicality check, for initial and evolved snapshots alike: rho22 >= -tol
    and |rho12|^2 <= rho11 * rho22 + tol, with tol = PHYSICALITY_TOL scaled
    by the field peaks; rho22's residues within tol are clipped to 0.

    coh_sq is |rho12|^2 as the check computed it, kept so that the
    diagnostics read it instead of forming it again; it describes rho12 at
    construction.
    """

    time: float
    rho12: ComplexField2D
    rho22: np.ndarray
    rho11: float = 1.0
    coh_sq: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r22 = np.asarray(self.rho22, dtype=np.float64)
        n = self.rho12.grid.n
        if r22.shape != (n, n):
            raise ValueError(f"rho22 shape {r22.shape} does not match grid ({n}, {n})")
        if not np.all(np.isfinite(r22)):
            raise ValueError("rho22 contains non-finite values")
        coh_sq = np.abs(self.rho12.values) ** 2
        scale = max(1.0, float(r22.max(initial=0.0)), float(coh_sq.max(initial=0.0)))
        tol = PHYSICALITY_TOL * scale
        if float(r22.min()) < -tol:
            raise ValueError(f"rho22 has negative values below tolerance (min {r22.min():.3e}, "
                             f"tol {tol:.3e}); initial data too rough for the scheme and grid?")
        clipped = np.maximum(r22, 0.0)
        excess = float(np.max(coh_sq - self.rho11 * clipped))
        if excess > tol:
            raise ValueError(
                f"snapshot violates |rho12|^2 <= rho11*rho22 by {excess:.3e} (tol {tol:.3e})"
            )
        self.rho22, self.coh_sq = clipped, coh_sq

    @property
    def grid(self):
        return self.rho12.grid


def initial_snapshot(rho12: ComplexField2D) -> StateSnapshot:
    """Strong-pump initial condition: rho11 = 1, rho22 = |rho12|^2 at t = 0."""
    return StateSnapshot(time=0.0, rho12=rho12.copy(), rho22=np.abs(rho12.values) ** 2)


def evolution_factor(t: float, D: float, w0: float) -> float:
    """s(t) = (w0^2 + 4 D t) / w0^2, the squared waist-growth factor (>= 1)."""
    check_diffusion(D, (t,))
    if not (w0 > 0):
        raise ValueError(f"waist must be positive, got {w0}")
    return (w0**2 + 4.0 * D * t) / w0**2


def coherence_closed_form(r, theta, t: float, spec: ModeSpec, D: float):
    """Diffused coherence of a p = 0 LG mode at (r, theta, t).

    amp / sqrt(s^(|m|+1)) * A(r; sqrt(s) w0) * e^{-i m theta}.  There is no
    closed form for p > 0 (those modes do not keep their shape); use the
    numerical propagators instead.
    """
    if spec.kind is not ModeKind.LG:
        raise ValueError("coherence closed form applies to LG modes only")
    if spec.p != 0:
        raise ValueError("no closed form for p > 0; evolve numerically")
    s = evolution_factor(t, D, spec.w0)
    am = abs(spec.m)
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    amplitude = lg_radial_amplitude(r, np.sqrt(s) * spec.w0, spec.P, spec.m, 0)
    return spec.amp * amplitude * np.exp(-1j * spec.m * theta) / np.sqrt(s ** (am + 1))


def population_m1(r, t: float, w0: float, P: float, D: float):
    """rho22(r, t) for a stored m = 1 vortex (per-unit rho11, prefactor |amp|^2 = 1).

    4 P e^{-2 r^2 / (8 D t + w0^2)} (32 D^2 t^2 + r^2 w0^2 + 4 D t w0^2)
    / (pi (8 D t + w0^2)^3).
    """
    check_diffusion(D, (t,))
    r = np.asarray(r, dtype=np.float64)
    q = 8.0 * D * t + w0**2
    poly = 32.0 * D**2 * t**2 + r**2 * w0**2 + 4.0 * D * t * w0**2
    return 4.0 * P * np.exp(-2.0 * r**2 / q) * poly / (np.pi * q**3)


def population_m0(r, t: float, w0: float, P: float, D: float):
    """rho22(r, t) for a stored Gaussian: 2 P e^{-2 r^2/(8 D t + w0^2)} / (pi (8 D t + w0^2))."""
    check_diffusion(D, (t,))
    r = np.asarray(r, dtype=np.float64)
    q = 8.0 * D * t + w0**2
    return 2.0 * P * np.exp(-2.0 * r**2 / q) / (np.pi * q)


def fidelity_closed_form(m: int, t: float, D: float, w0: float) -> float:
    """Stored-coherence fidelity F = s(t)^-(m+1) for LG_0^m; in (0, 1]."""
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"winding number must be a nonnegative integer, got {m!r}")
    s = evolution_factor(t, D, w0)
    return float(s ** (-(m + 1)))


def coherence_factor(coh_sq: float, pbb: float, pcc: float, eta: float) -> float:
    """Local purity diagnostic f = (|rho_bc|^2 + eta) / (rho_bb rho_cc + eta).

    1 for a pure state, ~0 for a completely mixed one; eta > 0 defines the
    undisturbed-region limit 0/0 = 1.  Values are clamped to [0, 1] after a
    small physicality allowance.
    """
    if coh_sq < 0 or pbb < 0 or pcc < 0:
        raise ValueError("coherence factor inputs must be nonnegative")
    if not (eta > 0):
        raise ValueError(f"eta must be positive, got {eta}")
    f = (coh_sq + eta) / (pbb * pcc + eta)
    if f > 1.0 + PHYSICALITY_TOL:
        raise ValueError(f"coherence factor {f} exceeds 1 beyond physicality tolerance")
    return min(max(f, 0.0), 1.0)


def center_population_peak_m1(w0: float, D: float, P: float) -> tuple[float, float]:
    """Time and value of the global maximum of rho22(0, t) for the m = 1 vortex.

    rho22(0, t) = 2 P u / (pi (u + w0^2)^2) with u = 8 D t rises from 0 to a
    single maximum at u = w0^2, i.e. t* = w0^2 / (8 D), where it equals
    P / (2 pi w0^2) independent of D.
    """
    if not (D > 0):
        raise ValueError("center peak time is undefined for D = 0")
    t_star = w0**2 / (8.0 * D)
    peak = P / (2.0 * np.pi * w0**2)
    return t_star, float(peak)
