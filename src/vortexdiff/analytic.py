"""The strong-pump density matrix and the closed-form ground truth for it.

A snapshot (StateSnapshot) holds rho12 and rho22 at one time; in the
strong-pump limit rho11 = 1 everywhere and stays so, so it is not stored.
Diffusion is the paraxial wave equation in imaginary time, so a stored
LG_p^m stays Laguerre-Gaussian under rho_t = D lap(rho): one closed form,
lg_closed_form, gives its coherence, its population and its retrieval
efficiency at every time, for every (p, m); its coherence is the stored
mode's formula, modes.lg_amplitude, at s = 1 + 4 D t / w0^2 instead of 1.
It is the oracle against which the numerical propagators are validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import ComplexField2D, ParameterError
from .modes import ModeKind, ModeSpec, _scaled_laguerre, check_waist, lg_amplitude

#: Default regularizer for the coherence factor; only role is to define the
#: undisturbed-region limit 0/0 = 1.
DEFAULT_ETA = 1e-12

# Density-matrix physicality slack, relative to the larger of the peaks of
# rho22 and |rho12|^2; covers quadrature and FFT rounding noise.
PHYSICALITY_TOL = 1e-9

# Rows per block of the physicality check's |rho12|^2 - rho22 pass.
_ROWS = 64


def check_diffusion(D: float, times) -> None:
    """The diffusion-input rule: D and every time t finite and >= 0."""
    if not (0 <= D < math.inf):
        raise ParameterError("D", f"diffusion coefficient must be finite and >= 0, got {D}")
    for t in times:
        if not (0 <= t < math.inf):
            raise ParameterError("times", f"time must be finite and >= 0, got {t}")


@dataclass(frozen=True)
class DiffusionParams:
    """Diffusion coefficient and the times at which diagnostics are evaluated."""

    D: float
    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        check_diffusion(self.D, times)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ParameterError("times", f"times must be strictly ascending, got {times}")
        object.__setattr__(self, "times", times)


def check_eta(eta: float) -> None:
    """The coherence-factor regularizer rule: 0 < eta <= 1e-8 (infinitesimal)."""
    if not (0 < eta <= 1e-8):
        raise ValueError(f"eta must be in (0, 1e-8], got {eta}")


@dataclass
class StateSnapshot:
    """Density-matrix fields at one time: rho12 (complex), rho22 (real >= 0).

    The model is the strong-pump limit: rho11 = 1 everywhere, and diffusion
    keeps it so.  Construction is the one physicality check, for initial and
    evolved snapshots alike: rho22 and |rho12|^2 finite, rho22 >= -tol and
    |rho12|^2 <= rho22 + tol, tol = PHYSICALITY_TOL max(max rho22, max |rho12|^2).
    When rho22 has a value <= 0, the snapshot keeps a copy with those
    residues clipped to +0; otherwise it keeps the array it was given.

    coh_sq is |rho12|^2 as the check computed it, kept so that the
    diagnostics read it instead of forming it again; it describes rho12 at
    construction.
    """

    time: float
    rho12: ComplexField2D
    rho22: np.ndarray
    coh_sq: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r22 = np.asarray(self.rho22, dtype=np.float64)
        n = self.rho12.grid.n
        if r22.shape != (n, n):
            raise ValueError(f"rho22 shape {r22.shape} does not match grid ({n}, {n})")
        lo, hi = float(r22.min()), float(r22.max())  # NaN propagates, inf shows
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("rho22 contains non-finite values")
        coh_sq = np.abs(self.rho12.values)
        np.square(coh_sq, out=coh_sq)
        coh_max = float(coh_sq.max())
        if not math.isfinite(coh_max):
            raise ValueError("|rho12|^2 overflows: rho12 is too large to square")
        tol = PHYSICALITY_TOL * max(hi, coh_max)
        if lo < -tol:
            raise ValueError(f"rho22 has negative values below tolerance (min {lo:.3e}, "
                             f"tol {tol:.3e}); initial data too rough for the scheme and grid?")
        if lo <= 0.0:
            r22 = np.maximum(r22, 0.0)  # a copy: -0.0 becomes +0.0, the caller's array is kept
        # the max over row blocks is the max, without a full-grid difference
        excess = max(float(np.max(coh_sq[i:i + _ROWS] - r22[i:i + _ROWS]))
                     for i in range(0, n, _ROWS))
        if excess > tol:
            raise ValueError(
                f"snapshot violates |rho12|^2 <= rho11*rho22 by {excess:.3e} (tol {tol:.3e})"
            )
        self.rho22, self.coh_sq = r22, coh_sq

    @property
    def grid(self):
        return self.rho12.grid


def initial_snapshot(rho12: ComplexField2D) -> StateSnapshot:
    """Strong-pump initial condition: rho22 = |rho12|^2 at t = 0."""
    return StateSnapshot(time=0.0, rho12=rho12.copy(), rho22=np.abs(rho12.values) ** 2)


def evolution_factor(t: float, D: float, w0: float) -> float:
    """s(t) = (w0^2 + 4 D t) / w0^2, the squared waist-growth factor (>= 1)."""
    check_diffusion(D, (t,))
    check_waist(w0)
    return (w0**2 + 4.0 * D * t) / w0**2


def lg_closed_form(spec: ModeSpec, D: float, t: float, r, theta=0.0):
    """(rho12, rho22, efficiency) of a stored LG_p^m diffused for time t.

    rho12 at (r, theta) carries amp and P as lg_field does, and rho22 at r
    carries |amp|^2.  With s = 1 + 4 D t / w0^2, rho12 is amp
    lg_amplitude(spec, s, r) e^{-i m theta}, the stored mode at s instead of
    1.  In units u = r / w0, rho22 at t = 0 is a sum of L_j(4 u^2) e^{-2 u^2},
    j <= |m| + 2p, each diffusing by that formula as LG_j^0 at waist
    w0 / sqrt(2).  The efficiency is the integral of v^|m| L_p^|m|(v)^2
    e^{-s v} over its value at s = 1 (s^-(|m|+1) for p = 0).  Gauss-Laguerre
    quadrature evaluates both integrals exactly.
    """
    from numpy.polynomial.laguerre import laggauss  # ~7 ms to import; off the run path

    if spec.kind is not ModeKind.LG:
        raise ValueError("the LG closed form applies to LG modes only")
    am, p = abs(spec.m), spec.p
    s, s2 = evolution_factor(t, D, spec.w0), evolution_factor(t, D, spec.w0 / math.sqrt(2.0))
    u_sq = (np.asarray(r, dtype=np.float64) / spec.w0) ** 2
    scale = math.sqrt(2.0 * spec.P / math.pi * math.factorial(p) / math.factorial(p + am)) / spec.w0

    rho12 = spec.amp * lg_amplitude(spec, s, r) * np.exp(-1j * spec.m * np.asarray(theta))

    nodes, weights = laggauss(am + 2 * p + 1)  # project the stored rho22 onto L_j(4 u^2)
    stored = weights * (nodes / 2.0) ** am * _scaled_laguerre(p, am, nodes / 2.0) ** 2
    rho22 = sum(np.dot(stored, _scaled_laguerre(j, 0, nodes))
                * _scaled_laguerre(j, 0, 4.0 * u_sq / s2**2, (2.0 - s2) / s2) for j in range(nodes.size))
    rho22 = abs(spec.amp) ** 2 * scale**2 * rho22 * np.exp(-2.0 * u_sq / s2) / s2

    nodes, weights = laggauss(am + p + 1)

    def energy(a):  # the integral of v^|m| L_p^|m|(v)^2 e^{-a v}, with v -> v / a
        return float(np.dot(weights, (nodes / a) ** am * _scaled_laguerre(p, am, nodes / a) ** 2)) / a

    return rho12, rho22, energy(s) / energy(1.0)


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
