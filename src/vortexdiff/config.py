"""Scenario configuration: a small line-oriented key = value grammar.

Example document (see README for the full grammar):

    # stored vortex, figure-1 style run
    mode.kind       = lg
    mode.m          = 1
    mode.w0         = 1.0
    mode.P          = 1.0
    grid.n          = 256
    grid.extent     = 16.0
    diffusion.D     = 1.0
    diffusion.times = [0, 0.125, 0.25, 1.0]
    outputs         = radial_profiles, fidelity_trace
    out_dir         = out/vortex

Keys are dotted, values are scalars or comma lists (brackets optional),
comments run from '#' to end of line.  Parse errors are line-addressed;
semantic errors name the violated invariant.  Strict mode rejects unknown
keys so a typo in a physics parameter cannot pass silently.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass, field

from .analysis import check_hole_geometry
from .analytic import DEFAULT_ETA, CoherenceFactorParams, DiffusionParams, evolution_factor
from .grid import GridSpec, check_nbins
from .modes import (ContainmentError, ModeKind, ModeSpec, check_block_radius, check_contained,
                    check_plane_wave_k, lg_required_extent)
from .solvers import (CflError, QuantumParams, Scheme, SolverConfig, check_kernel_resolution,
                      fd_timestep)


class ConfigError(ValueError):
    """Configuration problem; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class OutputKind(enum.Enum):
    SNAPSHOTS = "snapshots"
    RADIAL_PROFILES = "radial_profiles"
    FIDELITY_TRACE = "fidelity_trace"
    COHERENCE_FACTOR = "coherence_factor"
    NODES = "nodes"
    CENTER_TRACE = "center_trace"
    FIT = "fit"
    HOLE_REFILL = "hole_refill"


_MODE_KINDS = {"lg": ModeKind.LG, "plane_wave": ModeKind.PLANE_WAVE,
               "blocked_gaussian": ModeKind.BLOCKED_GAUSSIAN}
_SCHEMES = {"spectral": Scheme.SPECTRAL, "fd": Scheme.FD_EXPLICIT, "kernel": Scheme.KERNEL}

_KNOWN_KEYS = {
    "mode.kind", "mode.p", "mode.m", "mode.w0", "mode.P", "mode.amp", "mode.k",
    "mode.block_radius",
    "grid.n", "grid.extent",
    "diffusion.D", "diffusion.times",
    "solver.scheme", "solver.dt", "solver.cfl_safety",
    "quantum.beta",
    "eta", "nbins", "outputs", "out_dir",
}

_REQUIRED_KEYS = ("mode.kind", "grid.n", "grid.extent", "diffusion.D", "diffusion.times")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario: mode, grid, diffusion, solver, outputs."""

    mode: ModeSpec
    grid: GridSpec
    diffusion: DiffusionParams
    solver: SolverConfig = SolverConfig()
    quantum: QuantumParams | None = None
    eta: float = DEFAULT_ETA
    nbins: int = 200
    outputs: tuple[OutputKind, ...] = (OutputKind.FIDELITY_TRACE,)
    out_dir: str = "out"
    warnings: tuple[str, ...] = field(default=(), compare=False)


def _split_lines(text: str):
    """Yield (lineno, key, value) for every assignment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        yield lineno, key, value


def _parse_scalar(value: str, kind, key: str, lineno: int):
    """Parse one int, float or complex value; NaN and infinities are rejected."""
    try:
        parsed = kind(value.replace(" ", "") if kind is complex else value)
    except ValueError:
        message = f"cannot parse {key} value {value!r} as {kind.__name__}"
        raise ConfigError(message, lineno) from None
    if kind is not int and not cmath.isfinite(parsed):
        raise ConfigError(f"{key} must be finite, got {value!r}", lineno)
    return parsed


def _parse_float_list(value: str, key: str, lineno: int) -> tuple[float, ...]:
    inner = value.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    items = [s.strip() for s in inner.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{key} needs at least one value", lineno)
    return tuple(_parse_scalar(s, float, key, lineno) for s in items)


def parse_config(text: str, strict: bool = True) -> ScenarioConfig:
    """Parse and validate a scenario document; defaults are filled in.

    strict=True (the default) rejects unknown keys; otherwise they are
    collected into ScenarioConfig.warnings.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, key, value in _split_lines(text):
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} (first at line {entries[key][1]})", lineno)
        entries[key] = (value, lineno)

    warnings = []
    for key, (_, lineno) in entries.items():
        if key not in _KNOWN_KEYS:
            if strict:
                raise ConfigError(f"unknown key {key!r}", lineno)
            warnings.append(f"line {lineno}: ignoring unknown key {key!r}")

    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"missing required key {key!r}")

    def take(key: str, kind, default=None):
        if key not in entries:
            return default
        value, lineno = entries[key]
        return _parse_scalar(value, kind, key, lineno)

    kind_value, kind_line = entries["mode.kind"]
    if kind_value not in _MODE_KINDS:
        raise ConfigError(
            f"mode.kind must be one of {sorted(_MODE_KINDS)}, got {kind_value!r}", kind_line
        )
    scheme_name = entries.get("solver.scheme", ("spectral", 0))[0]
    if scheme_name not in _SCHEMES:
        raise ConfigError(
            f"solver.scheme must be one of {sorted(_SCHEMES)}, got {scheme_name!r}",
            entries.get("solver.scheme", (None, None))[1],
        )
    try:
        mode = ModeSpec(
            kind=_MODE_KINDS[kind_value],
            p=take("mode.p", int, 0),
            m=take("mode.m", int, 0),
            w0=take("mode.w0", float, 1.0),
            P=take("mode.P", float, 1.0),
            amp=take("mode.amp", complex, 1.0 + 0.0j),
            k=take("mode.k", float, 0.0),
            block_radius=take("mode.block_radius", float, 0.0),
        )
        grid = GridSpec(n=take("grid.n", int), extent=take("grid.extent", float))
        times_value, times_line = entries["diffusion.times"]
        diffusion = DiffusionParams(
            D=take("diffusion.D", float),
            times=_parse_float_list(times_value, "diffusion.times", times_line),
        )
        solver = SolverConfig(
            scheme=_SCHEMES[scheme_name],
            dt=take("solver.dt", float, None),
            cfl_safety=take("solver.cfl_safety", float, 0.9),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    quantum = None
    if "quantum.beta" in entries:
        quantum = QuantumParams(beta=take("quantum.beta", float))

    nbins = take("nbins", int, 200)
    try:
        check_nbins(nbins)
    except ValueError as exc:
        raise ConfigError(str(exc), entries["nbins"][1]) from exc

    outputs = (OutputKind.FIDELITY_TRACE,)
    if "outputs" in entries:
        value, lineno = entries["outputs"]
        inner = value.strip()
        if inner.startswith("[") and inner.endswith("]"):
            inner = inner[1:-1]
        names = [s.strip() for s in inner.split(",") if s.strip()]
        valid = {o.value: o for o in OutputKind}
        parsed = []
        for name in names:
            if name not in valid:
                raise ConfigError(
                    f"unknown output {name!r}; valid: {sorted(valid)}", lineno
                )
            parsed.append(valid[name])
        outputs = tuple(dict.fromkeys(parsed))

    cfg = ScenarioConfig(
        mode=mode,
        grid=grid,
        diffusion=diffusion,
        solver=solver,
        quantum=quantum,
        eta=take("eta", float, DEFAULT_ETA),
        nbins=nbins,
        outputs=outputs,
        out_dir=entries.get("out_dir", ("out", 0))[0],
        warnings=tuple(warnings),
    )
    validate_scenario(cfg)
    return cfg


def validate_scenario(cfg: ScenarioConfig) -> None:
    """Semantic checks shared by parse_config and programmatic construction.

    Each physical rule is asked of its one owner (README, "Invariants"); its
    error becomes a ConfigError naming the key: grid.extent (containment at
    the latest time), mode.block_radius, mode.k, solver.dt, diffusion.times
    (kernel resolution), eta or nbins.  An empty diffusion.times fails with the
    message parse_config gives it.
    """
    mode, grid, diffusion = cfg.mode, cfg.grid, cfg.diffusion
    if not diffusion.times:
        raise ConfigError("diffusion.times needs at least one value")
    t_max = diffusion.times[-1]

    if mode.kind in (ModeKind.LG, ModeKind.BLOCKED_GAUSSIAN):
        lg = mode.kind is ModeKind.LG
        try:
            check_contained(grid.extent, mode.w0, mode.m if lg else 0, mode.p if lg else 0,
                            evolution_factor(t_max, diffusion.D, mode.w0))
        except ContainmentError as exc:
            raise ConfigError(f"grid.extent: {exc}") from exc

    if mode.kind is ModeKind.BLOCKED_GAUSSIAN:
        try:
            check_block_radius(mode.block_radius, grid)
            if OutputKind.HOLE_REFILL in cfg.outputs:
                check_hole_geometry(mode.block_radius, grid)
        except ValueError as exc:
            raise ConfigError(f"mode.block_radius: {exc}") from exc
    elif OutputKind.HOLE_REFILL in cfg.outputs:
        raise ConfigError("hole_refill output applies to blocked_gaussian scenarios only")

    if mode.kind is ModeKind.PLANE_WAVE:
        try:
            check_plane_wave_k(mode.k, grid)
        except ValueError as exc:
            raise ConfigError(f"mode.k: {exc}") from exc

    if cfg.solver.scheme is Scheme.FD_EXPLICIT and diffusion.D > 0:
        try:
            fd_timestep(grid, diffusion.D, cfg.solver)
        except CflError as exc:
            raise ConfigError(f"solver.dt: {exc}") from exc

    if cfg.solver.scheme is Scheme.KERNEL:
        try:
            check_kernel_resolution(grid, diffusion.D, diffusion.times)
        except ValueError as exc:
            raise ConfigError(f"diffusion.times: {exc}") from exc

    try:
        CoherenceFactorParams(eta=cfg.eta)
    except ValueError as exc:
        raise ConfigError(f"eta: {exc}") from exc

    try:
        check_nbins(cfg.nbins)
    except ValueError as exc:
        raise ConfigError(f"nbins: {exc}") from exc

    if OutputKind.FIT in cfg.outputs and len(diffusion.times) < 5:
        raise ConfigError("the fit output needs at least 5 diffusion times")

    # render_config writes out_dir raw on one line, parse_config strips it
    if "#" in cfg.out_dir or cfg.out_dir.strip().splitlines() != [cfg.out_dir]:
        raise ConfigError(f"out_dir must be one line without '#' or surrounding whitespace, "
                          f"got {cfg.out_dir!r}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def render_config(cfg: ScenarioConfig) -> str:
    """Canonical text form of a resolved config (round-trips through parse_config)."""
    lines = [
        f"mode.kind = {cfg.mode.kind.value}",
        f"mode.p = {cfg.mode.p}",
        f"mode.m = {cfg.mode.m}",
        f"mode.w0 = {_fmt(cfg.mode.w0)}",
        f"mode.P = {_fmt(cfg.mode.P)}",
        f"mode.amp = {cfg.mode.amp.real:.17g}{cfg.mode.amp.imag:+.17g}j",
    ]
    # a field the mode kind does not use is written too when it is set, so
    # the text parses back to an equal config
    if cfg.mode.kind is ModeKind.PLANE_WAVE or cfg.mode.k != 0:
        lines.append(f"mode.k = {_fmt(cfg.mode.k)}")
    if cfg.mode.kind is ModeKind.BLOCKED_GAUSSIAN or cfg.mode.block_radius != 0:
        lines.append(f"mode.block_radius = {_fmt(cfg.mode.block_radius)}")
    lines += [
        f"grid.n = {cfg.grid.n}",
        f"grid.extent = {_fmt(cfg.grid.extent)}",
        f"diffusion.D = {_fmt(cfg.diffusion.D)}",
        "diffusion.times = [" + ", ".join(_fmt(t) for t in cfg.diffusion.times) + "]",
        f"solver.scheme = {cfg.solver.scheme.value}",
    ]
    if cfg.solver.dt is not None:
        lines.append(f"solver.dt = {_fmt(cfg.solver.dt)}")
    lines.append(f"solver.cfl_safety = {_fmt(cfg.solver.cfl_safety)}")
    if cfg.quantum is not None:
        lines.append(f"quantum.beta = {_fmt(cfg.quantum.beta)}")
    lines += [
        f"eta = {_fmt(cfg.eta)}",
        f"nbins = {cfg.nbins}",
        "outputs = " + (", ".join(o.value for o in cfg.outputs) or "[]"),
        f"out_dir = {cfg.out_dir}",
    ]
    return "\n".join(lines) + "\n"
