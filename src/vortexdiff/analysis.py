"""Decoherence diagnostics: retrieval efficiency, coherence-factor maps,
radial node tracking, center traces, decay-law fits, conservation checks."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .analytic import DEFAULT_ETA, StateSnapshot, check_eta
from .grid import ComplexField2D, GridSpec, RadialProfile


class DecayModel(enum.Enum):
    POWER_LAW = "power_law"
    EXPONENTIAL = "exponential"


@dataclass
class DecayFit:
    """One fitted decay law with its log-domain residual.

    POWER_LAW: v = amplitude * s^exponent, regressed against the trace's
    evolution factor s, not raw t, so the exponent estimates -(m+1) directly.
    EXPONENTIAL: v = amplitude * e^(-rate * t).
    preferred marks the lower-residual model of a compared pair.
    """

    model: DecayModel
    amplitude: float
    exponent: float | None
    rate: float | None
    rms_log_residual: float
    preferred: bool = False


@dataclass
class NodeReport:
    """Radii where the azimuthally averaged coherence magnitude vanishes."""

    time: float
    node_radii: list[float]


@dataclass
class CoherenceFactorMap:
    """Pointwise coherence factor plus its rho22-weighted spatial average."""

    values: np.ndarray
    weighted_average: float


def retrieval_efficiency(f_t: ComplexField2D, f_0: ComplexField2D) -> float:
    """Coherent-energy ratio norm2(f_t) / norm2(f_0).

    For a diffused LG_0^m mode this equals the fidelity s^-(m+1): the
    fraction of the stored excitation retrievable in the forward mode.
    """
    if f_t.grid != f_0.grid:
        raise ValueError("fields must share a grid")
    ref = reference_energy(np.abs(f_0.values) ** 2)
    return float(np.sum(np.abs(f_t.values) ** 2)) / ref


def reference_energy(coh_sq_0: np.ndarray) -> float:
    """The efficiency's denominator sum(|rho12|^2) of the stored field,
    from its |rho12|^2 map; an identically zero field has no efficiency."""
    ref = float(np.sum(coh_sq_0))
    if ref == 0.0:
        raise ValueError("reference field is identically zero")
    return ref


def coherence_factor_values(coh_sq, rho22, eta: float) -> np.ndarray:
    """The coherence factor f = (|rho12|^2 + eta) / (max(rho22, 0) + eta),
    clamped to [0, 1]: |rho12|^2 / (rho11 rho22) with rho11 = 1, the
    strong-pump limit.  1 for a pure state, ~eta for a fully mixed one, and
    eta > 0 makes an untouched region's 0/0 read 1.  The one formula for f,
    applied pointwise by coherence_factor_field and per radial bin to
    azimuthal averages.
    """
    den = np.maximum(rho22, 0.0)
    den += eta
    f = coh_sq + eta
    f /= den
    np.clip(f, 0.0, 1.0, out=f)
    return f


def coherence_factor_field(s: StateSnapshot, eta: float = DEFAULT_ETA) -> CoherenceFactorMap:
    """Pointwise coherence factor (see coherence_factor_values) of one
    snapshot, with eta checked by analytic.check_eta.

    Also returns the rho22-weighted average, the natural summary for the
    retrieved light (regions the diffusion never reached keep f = 1 but carry
    vanishing weight).  Reads the snapshot's |rho12|^2, s.coh_sq.
    """
    check_eta(eta)
    f = coherence_factor_values(s.coh_sq, s.rho22, eta)
    weight = float(np.sum(s.rho22))
    if weight > 0.0:
        weighted = float(np.sum(f * s.rho22) / weight)
    else:
        weighted = 1.0
    return CoherenceFactorMap(values=f, weighted_average=weighted)


def center_intensity(s: StateSnapshot) -> float:
    """rho22 at the origin sample (readout intensity at the vortex core)."""
    i0 = s.grid.origin_index
    return float(s.rho22[i0, i0])


def total_population(s: StateSnapshot) -> float:
    """sum(rho22) * dx^2; conserved by diffusion of contained fields."""
    return float(np.sum(s.rho22)) * s.grid.dx**2


def check_threshold(rel_threshold: float) -> None:
    """The node-threshold rule of find_radial_nodes: 0 < rel_threshold <= 0.1."""
    if not (0 < rel_threshold <= 0.1):
        raise ValueError(f"rel_threshold must be in (0, 0.1], got {rel_threshold}")


def find_radial_nodes(
    prof: RadialProfile, rel_threshold: float = 0.02, time: float = 0.0
) -> NodeReport:
    """Locate radii where the azimuthal amplitude profile drops to zero.

    Works on sqrt(mean_intensity), which for the radially symmetric moduli
    of LG coherences is the azimuthal amplitude itself.  r = 0 is reported
    iff the origin bin sits below rel_threshold * peak.  Off-center nodes are
    below-threshold local minima bracketed by above-threshold amplitude on
    both sides (the bracket rejects the decaying far tail, which is dark but
    not a node), refined by parabolic interpolation of the intensity over
    three bins.
    """
    check_threshold(rel_threshold)
    if len(prof.radii) == 0:
        raise ValueError("empty radial profile")
    amp = np.sqrt(prof.mean_intensity)
    peak = float(amp.max())
    if peak == 0.0:
        raise ValueError("profile is identically zero")
    cut = rel_threshold * peak
    radii = prof.radii
    dr = prof.bin_width

    nodes: list[float] = []
    if radii[0] < dr and amp[0] < cut:
        nodes.append(0.0)

    above = amp >= cut
    for i in range(1, len(amp) - 1):
        if radii[i] <= dr:
            continue  # origin bin handled above
        if amp[i] >= cut or amp[i] > amp[i - 1] or amp[i] > amp[i + 1]:
            continue
        if amp[i] == amp[i - 1] and amp[i] == amp[i + 1]:
            continue  # interior of a flat dark plateau, not an isolated zero
        if not (above[:i].any() and above[i + 1 :].any()):
            continue
        y0, y1, y2 = amp[i - 1] ** 2, amp[i] ** 2, amp[i + 1] ** 2
        denom = y0 - 2.0 * y1 + y2
        offset = 0.5 * (y0 - y2) / denom if denom > 0 else 0.0
        offset = min(max(offset, -1.0), 1.0)
        nodes.append(float(radii[i] + offset * dr))
    return NodeReport(time=time, node_radii=sorted(nodes))


def check_fit_trace(times, s, values=None) -> None:
    """The fit-trace rule: raise ValueError unless times, the evolution factor
    s at each time and, when given, the values are 1-D rows of one length, at
    least 5, the times finite, s and the values finite and > 0, and s varies,
    so that both decay laws are determined (D = 0 makes s(t) = 1 throughout).
    fit_decay and, for the fit output, ScenarioConfig ask it."""
    t, s = np.asarray(times, dtype=np.float64), np.asarray(s, dtype=np.float64)
    v = s if values is None else np.asarray(values, dtype=np.float64)  # s passes its own check
    if t.ndim != 1 or s.shape != t.shape or v.shape != t.shape:
        raise ValueError("times, s and values must be 1-D arrays of equal length")
    if len(t) < 5:
        raise ValueError("needs at least 5 diffusion times")
    if not np.all(np.isfinite(t)):
        raise ValueError("needs finite times")
    if not np.all((0 < s) & (s < np.inf)):  # NaN fails both
        raise ValueError("needs a finite evolution factor s(t) > 0 at every time")
    if not np.all((0 < v) & (v < np.inf)):
        raise ValueError("decay fits need finite, strictly positive values")
    if np.all(s == s[0]):
        raise ValueError("needs the evolution factor s(t) to vary over the times")


def fit_decay(times, values, s) -> tuple[DecayFit, DecayFit]:
    """Least-squares fits of a trace to a power law in s and an exponential in t.

    s is the evolution factor s(t) = 1 + 4 D t / w0^2 at each time, as the
    trace states it (a fidelity table's s column), so the fit needs neither
    D nor w0.  log v = log a + q log s   and   log v = log a - gamma t,
    both solved in the log domain; the lower-rms model gets preferred=True.
    The trace obeys check_fit_trace.
    """
    check_fit_trace(times, s, values)
    t = np.asarray(times, dtype=np.float64)
    log_v = np.log(np.asarray(values, dtype=np.float64))
    log_s = np.log(np.asarray(s, dtype=np.float64))

    def linfit(x):
        design = np.column_stack([np.ones_like(x), x])
        coef, *_ = np.linalg.lstsq(design, log_v, rcond=None)
        resid = log_v - design @ coef
        return coef, float(np.sqrt(np.mean(resid**2)))

    (a_pow, q), rms_pow = linfit(log_s)
    (a_exp, slope), rms_exp = linfit(t)

    power = DecayFit(DecayModel.POWER_LAW, math.exp(a_pow), float(q), None, rms_pow)
    expo = DecayFit(DecayModel.EXPONENTIAL, math.exp(a_exp), None, float(-slope), rms_exp)
    if rms_pow <= rms_exp:
        power.preferred = True
    else:
        expo.preferred = True
    return power, expo


def check_hole_geometry(block_radius: float, grid: GridSpec) -> None:
    """The hole-refill rule: raise ValueError unless 2 dx <= block_radius <=
    extent / 2, so that the hole is resolved and its reference annulus (out
    to 2 block_radius) lies inside the grid."""
    if block_radius < 2.0 * grid.dx:
        raise ValueError(
            f"block_radius {block_radius} too small to resolve (needs >= 2 dx = {2 * grid.dx:.6g})"
        )
    if 2.0 * block_radius > grid.extent:
        raise ValueError(
            f"annulus extends past the grid (needs 2*block_radius <= extent = {grid.extent})"
        )


def hole_refill_ratio(blocked_evolved: ComplexField2D, block_radius: float) -> float:
    """Coherent refill of a dark hole, normalized by the surrounding annulus.

    Ratio of |spatial mean of rho12| over r < block_radius to the mean
    |rho12| over block_radius <= r < 2 block_radius.  The complex mean keeps
    the diagnostic phase-sensitive: the in-phase refill of a blocked Gaussian
    registers fully, while coherence flowing into a vortex core cancels
    azimuthally and the ratio stays at zero.  Normalizing by a neighboring
    annulus rather than the initial peak makes the value insensitive to
    global decay.  block_radius obeys check_hole_geometry.
    """
    check_hole_geometry(block_radius, blocked_evolved.grid)
    r = blocked_evolved.grid.radius()
    inside = r < block_radius
    annulus = (r >= block_radius) & (r < 2.0 * block_radius)
    reference = float(np.mean(np.abs(blocked_evolved.values[annulus])))
    if reference == 0.0:
        raise ValueError("annulus carries no coherence; diagnostic undefined")
    coherent_fill = abs(complex(np.mean(blocked_evolved.values[inside])))
    return coherent_fill / reference


def accumulated_phase(f: ComplexField2D, radius: float, samples: int = 4096) -> float:
    """Total unwrapped phase change of f along the grid circle of given radius.

    Walks the nearest grid samples to a dense set of angles, unwraps the
    phase differences, and sums them; an LG mode with winding number m gives
    -2 pi m.  The radius must comfortably exceed dx so consecutive samples
    stay within half a phase turn.
    """
    grid = f.grid
    if not (grid.dx < radius < grid.extent):
        raise ValueError(f"radius must lie inside the grid, got {radius}")
    angles = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=True)
    ix = np.clip(np.rint((radius * np.cos(angles) + grid.extent) / grid.dx), 0, grid.n - 1)
    iy = np.clip(np.rint((radius * np.sin(angles) + grid.extent) / grid.dx), 0, grid.n - 1)
    phases = np.angle(f.values[ix.astype(np.intp), iy.astype(np.intp)])
    steps = np.diff(phases)
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.sum(steps))
