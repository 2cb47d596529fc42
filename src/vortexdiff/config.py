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
comments run from '#' to end of line.  One table, _KEYS, is the grammar:
each key is the path of the ScenarioConfig field it sets, and its declared
kind both parses and renders the value.  An absent key takes the default of
the dataclass field it names; an absent quantum section stays None.  A
ScenarioConfig is valid by construction, parsed or built with
dataclasses.replace alike.  Parse errors are line-addressed; semantic errors
name the violated invariant, and the key (and, when parsed, the line) of
the value to change.
Strict mode rejects unknown keys so a typo in a physics parameter cannot
pass silently.
"""

from __future__ import annotations

import contextlib
import enum
import typing
from dataclasses import dataclass, field

from .analysis import check_fit_trace, check_hole_geometry
from .analytic import DEFAULT_ETA, DiffusionParams, check_eta, evolution_factor
from .grid import GridSpec, check_nbins
from .modes import (ModeKind, ModeSpec, check_block_radius, check_contained, check_float_range,
                    check_plane_wave_k)
from .solvers import (QuantumParams, Scheme, SolverConfig, check_kernel_resolution,
                      check_memory_budget, fd_timestep)


class ConfigError(ValueError):
    """Configuration problem; carries the offending line number when known, and
    the key to change when a validation rule names one."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line, self.key = line, key


class OutputKind(enum.Enum):
    SNAPSHOTS = "snapshots"
    RADIAL_PROFILES = "radial_profiles"
    FIDELITY_TRACE = "fidelity_trace"
    COHERENCE_FACTOR = "coherence_factor"
    NODES = "nodes"
    CENTER_TRACE = "center_trace"
    FIT = "fit"
    HOLE_REFILL = "hole_refill"


# The grammar, in rendering order.  Each key is the path of the field it sets
# (mode.w0 sets ScenarioConfig.mode.w0, eta sets ScenarioConfig.eta) and maps
# to the kind of its value: int, float, complex, str, an enum written by its
# value, or a comma list of floats or of outputs.
_KEYS = {
    "mode.kind": ModeKind, "mode.p": int, "mode.m": int, "mode.w0": float, "mode.P": float,
    "mode.amp": complex, "mode.k": float, "mode.block_radius": float,
    "grid.n": int, "grid.extent": float,
    "diffusion.D": float, "diffusion.times": tuple[float, ...],
    "solver.scheme": Scheme, "solver.dt": float, "solver.cfl_safety": float,
    "quantum.beta": float,
    "eta": float, "nbins": int, "outputs": tuple[OutputKind, ...], "out_dir": str,
}
_SECTIONS = {"mode": ModeSpec, "grid": GridSpec, "diffusion": DiffusionParams,
             "solver": SolverConfig, "quantum": QuantumParams}
_REQUIRED_KEYS = ("mode.kind", "grid.n", "grid.extent", "diffusion.D", "diffusion.times")
# a mode field that one kind uses is rendered for the other kinds only when
# set, so the text parses back to an equal config
_USED_BY = {"mode.k": ModeKind.PLANE_WAVE, "mode.block_radius": ModeKind.BLOCKED_GAUSSIAN}


@contextlib.contextmanager
def _key(name: str):
    """Turn a rule's ValueError into a ConfigError that names the key to
    change, once: a message that already opens with the key keeps its text.
    A name that ends in '.' is a section, whose key is the one that sets
    the field its rule's ParameterError names."""
    try:
        yield
    except ValueError as exc:
        key = name + exc.name if name.endswith(".") else name
        message = str(exc)
        raise ConfigError(message if message.startswith(f"{key} ") else f"{key}: {message}",
                          key=key) from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario: mode, grid, diffusion, solver, outputs; valid by construction.

    Every construction, parse_config's or a dataclasses.replace copy's, asks
    each physical rule of its one owner (README, "Invariants"); a broken rule
    is a ConfigError naming the key to change: grid.extent (containment at
    the latest time), grid.n (memory), mode.amp or mode.P (float64 range),
    mode.block_radius, mode.k, solver.dt (or solver.cfl_safety when dt is
    unset), diffusion.times (kernel resolution), eta or nbins; parse_config
    adds the key's line.  A fit output whose trace cannot be fitted
    (check_fit_trace, at the configured times and their evolution factors)
    fails naming that output.
    """

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

    def __post_init__(self):
        mode, grid, diffusion = self.mode, self.grid, self.diffusion
        if mode.kind in (ModeKind.LG, ModeKind.BLOCKED_GAUSSIAN):
            with _key("grid.extent"):
                check_contained(grid.extent, mode.w0, mode.m, mode.p, self.evolution_factors[-1])

        with _key("grid.n"):
            check_memory_budget(grid, diffusion.D, diffusion.times, self.solver.scheme)

        with _key("mode."):
            check_float_range(mode, grid.n)

        if mode.kind is ModeKind.BLOCKED_GAUSSIAN:
            with _key("mode.block_radius"):
                check_block_radius(mode.block_radius, grid)
                if OutputKind.HOLE_REFILL in self.outputs:
                    check_hole_geometry(mode.block_radius, grid)
        elif OutputKind.HOLE_REFILL in self.outputs:
            raise ConfigError("hole_refill output applies to blocked_gaussian scenarios only")

        if mode.kind is ModeKind.PLANE_WAVE:
            with _key("mode.k"):
                check_plane_wave_k(mode.k, grid)

        if self.solver.scheme is Scheme.FD_EXPLICIT and diffusion.D > 0:
            # an unset dt is derived from cfl_safety, so that is the value to change
            with _key("solver.cfl_safety" if self.solver.dt is None else "solver.dt"):
                fd_timestep(grid, diffusion.D, self.solver)

        if self.solver.scheme is Scheme.KERNEL:
            with _key("diffusion.times"):
                check_kernel_resolution(grid, diffusion.D, diffusion.times)

        with _key("eta"):
            check_eta(self.eta)

        with _key("nbins"):
            check_nbins(self.nbins, grid)

        if OutputKind.FIT in self.outputs:
            try:
                check_fit_trace(diffusion.times, self.evolution_factors)
            except ValueError as exc:
                raise ConfigError(f"the fit output {exc}") from exc

        # render_config writes out_dir raw on one line, parse_config strips it
        if "#" in self.out_dir or self.out_dir.strip().splitlines() != [self.out_dir]:
            raise ConfigError(f"out_dir must be one line without '#' or surrounding whitespace, "
                              f"got {self.out_dir!r}")

    @property
    def evolution_factors(self) -> list[float]:
        """s(t) at each configured time: containment's, the fit rule's and each s column's."""
        return [evolution_factor(t, self.diffusion.D, self.mode.w0) for t in self.diffusion.times]


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


def _parse_value(value: str, kind, key: str, lineno: int):
    """Parse one value of a _KEYS kind; each value's owner checks its range."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        if value.startswith("[") and value.endswith("]"):
            value = value[1:-1]
        items = tuple(_parse_value(s.strip(), item, key, lineno)
                      for s in value.split(",") if s.strip())
        return tuple(dict.fromkeys(items)) if item is OutputKind else items
    if kind is str:
        return value
    if isinstance(kind, enum.EnumMeta):
        valid = sorted(member.value for member in kind)
        if value in valid:
            return kind(value)
        if kind is OutputKind:
            raise ConfigError(f"unknown output {value!r}; valid: {valid}", lineno)
        raise ConfigError(f"{key} must be one of {valid}, got {value!r}", lineno)
    try:
        return kind(value.replace(" ", "") if kind is complex else value)
    except ValueError:
        message = f"cannot parse {key} value {value!r} as {kind.__name__}"
        raise ConfigError(message, lineno) from None


def _render_value(value, kind) -> str:
    """Text of one value of a _KEYS kind; floats keep all 17 significant digits."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        text = ", ".join(_render_value(v, item) for v in value)
        return (text or "[]") if item is OutputKind else f"[{text}]"
    if isinstance(kind, enum.EnumMeta):
        return value.value
    if kind is float:
        return format(float(value), ".17g")
    if kind is complex:
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return f"{value}"


def parse_config(text: str, strict: bool = True) -> ScenarioConfig:
    """Parse a scenario document into a ScenarioConfig.

    Only the keys present are parsed; each section's dataclass is built from
    them, so an absent key takes that field's default.  A rule that any of
    those constructors breaks is reported with the line of the key it names.

    strict=True (the default) rejects unknown keys; otherwise they are
    collected into ScenarioConfig.warnings.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, key, value in _split_lines(text):
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} (first at line {entries[key][1]})", lineno)
        entries[key] = (value, lineno)

    warnings = []
    sections: dict[str, dict] = {}  # section -> field -> value; "" holds the top level
    for key, (value, lineno) in entries.items():
        if key not in _KEYS:
            if strict:
                raise ConfigError(f"unknown key {key!r}", lineno)
            warnings.append(f"line {lineno}: ignoring unknown key {key!r}")
            continue
        section, _, name = key.rpartition(".")
        sections.setdefault(section, {})[name] = _parse_value(value, _KEYS[key], key, lineno)

    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"missing required key {key!r}")

    top = sections.pop("", {})
    try:
        parts = {}
        for section, fields in sections.items():
            with _key(f"{section}."):
                parts[section] = _SECTIONS[section](**fields)
        cfg = ScenarioConfig(**parts, **top, warnings=tuple(warnings))
    except ConfigError as exc:
        if exc.key not in entries:
            raise
        raise ConfigError(str(exc), entries[exc.key][1], exc.key) from exc
    return cfg


def render_config(cfg: ScenarioConfig) -> str:
    """Canonical text form of a resolved config (round-trips through parse_config).

    Walks _KEYS in order; a field that is None (solver.dt, or the quantum
    section) is left out, and so is a zero mode field its kind does not use."""
    lines = []
    for key, kind in _KEYS.items():
        section, _, name = key.rpartition(".")
        owner = getattr(cfg, section) if section else cfg
        value = None if owner is None else getattr(owner, name)
        if value is None or (key in _USED_BY and value == 0 and cfg.mode.kind is not _USED_BY[key]):
            continue
        lines.append(f"{key} = {_render_value(value, kind)}")
    return "\n".join(lines) + "\n"
