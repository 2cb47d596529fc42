"""Scenario runner: evolve a configured mode and emit diagnostic files.

Each evolved snapshot gets one SnapshotDiagnostics, which runs each
reduction (radial profiles, coherence-factor summary, efficiency) at most
once and keeps only reduced numbers, never a full-grid map.  Each table
OutputKind is one function from those reductions to its table's columns;
every table is written by fieldio.write_table_csv, every field dump by
write_field or write_field_csv.

manifest.json lists each output file with its SHA-256 checksum.  It is
removed before the first file is written and rewritten last, so a failed run
leaves none.  Identical configs produce byte-identical outputs in any thread
mode: each evolution time is an independent pure computation (the FD march
reproduces a fresh march to each time) and files are written serially.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .analysis import (
    NodeReport,
    center_intensity,
    coherence_factor_field,
    coherence_factor_values,
    find_radial_nodes,
    fit_decay,
    hole_refill_ratio,
    retrieval_efficiency,
    total_population,
)
from .analytic import CoherenceFactorParams, StateSnapshot, evolution_factor, initial_snapshot
from .config import OutputKind, ScenarioConfig, render_config
from .fieldio import write_field, write_field_csv, write_table_csv
from .grid import ComplexField2D, RadialProfile, azimuthal_average
from .modes import build_mode
from .solvers import Scheme, evolve_snapshot, evolve_snapshots


@dataclass
class ManifestEntry:
    path: str
    sha256: str
    bytes: int


@dataclass
class Manifest:
    out_dir: Path
    entries: list[ManifestEntry]

    @property
    def manifest_path(self) -> Path:
        return self.out_dir / "manifest.json"


def _config_header(cfg: ScenarioConfig, title: str | None = None,
                   time: float | None = None) -> list[str]:
    """Header lines of an output file: title, time, then the resolved config."""
    lines = [] if title is None else [f"vortexdiff {title}"]
    if time is not None:
        lines.append(f"time = {time:.17g}")
    lines += [f"config: {ln}" for ln in render_config(cfg).strip().splitlines()]
    return lines


def compute_snapshots(cfg: ScenarioConfig, threads: int = 1) -> tuple[StateSnapshot, list[StateSnapshot]]:
    """Initial snapshot plus one evolved snapshot per configured time.

    Spectral and kernel times are independent and spread over `threads`
    workers; the FD scheme marches once across all times, whatever `threads`.
    """
    snap0 = initial_snapshot(build_mode(cfg.mode, cfg.grid))
    D, times = cfg.diffusion.D, cfg.diffusion.times
    if threads > 1 and cfg.solver.scheme is not Scheme.FD_EXPLICIT:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            snaps = list(pool.map(lambda t: evolve_snapshot(snap0, D, t, cfg.solver), times))
    else:
        snaps = evolve_snapshots(snap0, D, times, cfg.solver)
    return snap0, snaps


class SnapshotDiagnostics:
    """The reductions of one evolved snapshot, each computed on first use and
    kept; a full-grid map such as the coherence factor is dropped once reduced."""

    def __init__(self, cfg: ScenarioConfig, snap0: StateSnapshot, snap: StateSnapshot):
        self.cfg, self.snap0, self.snap, self.time = cfg, snap0, snap, snap.time

    @cached_property
    def profile(self) -> RadialProfile:
        """Azimuthal average of rho12."""
        return azimuthal_average(self.snap.rho12, self.cfg.nbins)

    @cached_property
    def rho22_radial(self) -> np.ndarray:
        """Azimuthal average of rho22, on the bins of profile."""
        rho22 = ComplexField2D(self.cfg.grid, self.snap.rho22.astype(np.complex128))
        return azimuthal_average(rho22, self.cfg.nbins).mean_amplitude.real

    @cached_property
    def cfactor(self) -> tuple[float, float]:
        """rho22-weighted average and centre sample of the coherence-factor map."""
        cmap = coherence_factor_field(self.snap, CoherenceFactorParams(eta=self.cfg.eta))
        i0 = self.cfg.grid.origin_index
        return cmap.weighted_average, float(cmap.values[i0, i0])

    @cached_property
    def efficiency(self) -> float:
        return retrieval_efficiency(self.snap.rho12, self.snap0.rho12)

    def nodes(self, rel_threshold: float = 0.02) -> NodeReport:
        return find_radial_nodes(self.profile, rel_threshold, time=self.time)


def compute_diagnostics(cfg: ScenarioConfig, threads: int = 1) -> list[SnapshotDiagnostics]:
    """compute_snapshots, with each evolved snapshot wrapped for reduction."""
    snap0, snaps = compute_snapshots(cfg, threads=threads)
    return [SnapshotDiagnostics(cfg, snap0, s) for s in snaps]


def node_columns(reports: list[NodeReport]) -> dict[str, list[float]]:
    """The node table: one (t, node_index, radius) row per node found."""
    rows = [(rep.time, float(j), radius)
            for rep in reports for j, radius in enumerate(rep.node_radii)]
    return {name: [row[k] for row in rows]
            for k, name in enumerate(("t", "node_index", "radius"))}


# Each table OutputKind: (cfg, diagnostics) -> [(file name, title, time or
# None, columns)], written with _config_header(cfg, title, time).

def _profile_tables(cfg, diags):
    return [(f"profile_{i:03d}.csv", "radial profile", d.time,
             {"r": d.profile.radii, "rho12_abs": np.sqrt(d.profile.mean_intensity),
              "rho22": d.rho22_radial})
            for i, d in enumerate(diags)]


def _cfactor_tables(cfg, diags):
    profiles = [(f"cfactor_{i:03d}.csv", "coherence factor profile", d.time,
                 {"r": d.profile.radii,
                  "coherence_factor": coherence_factor_values(
                      d.profile.mean_intensity, d.snap.rho11, d.rho22_radial, cfg.eta)})
                for i, d in enumerate(diags)]
    summary = {"t": cfg.diffusion.times, "weighted_average": [d.cfactor[0] for d in diags]}
    return profiles + [("cfactor_summary.csv", "rho22-weighted coherence factor", None, summary)]


def _fidelity_table(cfg, diags):
    times = cfg.diffusion.times
    return [("fidelity.csv", "fidelity trace", None, {
        "t": times,
        "s": [evolution_factor(t, cfg.diffusion.D, cfg.mode.w0) for t in times],
        "efficiency": [d.efficiency for d in diags],
        "total_population": [total_population(d.snap) for d in diags],
    })]


def _nodes_table(cfg, diags):
    return [("nodes.csv", "radial nodes", None, node_columns([d.nodes() for d in diags]))]


def _center_table(cfg, diags):
    i0 = cfg.grid.origin_index
    return [("center.csv", "center trace", None, {
        "t": cfg.diffusion.times,
        "rho22_center": [center_intensity(d.snap) for d in diags],
        "rho12_abs_center": [abs(d.snap.rho12.values[i0, i0]) for d in diags],
        "cfactor_center": [d.cfactor[1] for d in diags],
    })]


def _fit_table(cfg, diags):
    power, expo = fit_decay(cfg.diffusion.times, [d.efficiency for d in diags],
                            cfg.diffusion.D, cfg.mode.w0)
    return [("fit.csv", "decay-law fits", None, {
        "model": [power.model.value, expo.model.value],
        "amplitude": [power.amplitude, expo.amplitude],
        "parameter": [power.exponent, expo.rate],
        "rms_log_residual": [power.rms_log_residual, expo.rms_log_residual],
        "preferred": [int(power.preferred), int(expo.preferred)],
    })]


def _hole_refill_table(cfg, diags):
    return [("hole_refill.csv", "hole refill", None, {
        "t": cfg.diffusion.times,
        "refill_ratio": [hole_refill_ratio(d.snap.rho12, cfg.mode.block_radius) for d in diags],
    })]


_TABLES = {
    OutputKind.RADIAL_PROFILES: _profile_tables,
    OutputKind.COHERENCE_FACTOR: _cfactor_tables,
    OutputKind.FIDELITY_TRACE: _fidelity_table,
    OutputKind.NODES: _nodes_table,
    OutputKind.CENTER_TRACE: _center_table,
    OutputKind.FIT: _fit_table,
    OutputKind.HOLE_REFILL: _hole_refill_table,
}


def run_scenario(cfg: ScenarioConfig, fmt: str = "csv", threads: int = 1,
                 out_dir: str | Path | None = None) -> Manifest:
    """Run one scenario and write the requested outputs plus manifest.json."""
    if fmt not in ("csv", "vxf", "both"):
        raise ValueError(f"format must be csv, vxf or both, got {fmt!r}")
    manifest = Manifest(out_dir=Path(out_dir) if out_dir is not None else Path(cfg.out_dir),
                        entries=[])
    out = manifest.out_dir
    out.mkdir(parents=True, exist_ok=True)
    manifest.manifest_path.unlink(missing_ok=True)

    diags = compute_diagnostics(cfg, threads=threads)
    written: list[Path] = []

    if OutputKind.SNAPSHOTS in cfg.outputs:
        for i, d in enumerate(diags):
            for name, values in ((f"rho12_{i:03d}", d.snap.rho12.values),
                                 (f"rho22_{i:03d}", d.snap.rho22)):
                if fmt in ("vxf", "both"):
                    write_field(out / f"{name}.vxf", values, cfg.grid, d.time)
                    written.append(out / f"{name}.vxf")
                if fmt in ("csv", "both"):
                    write_field_csv(out / f"{name}.csv", values, cfg.grid,
                                    _config_header(cfg, f"field {name}", d.time))
                    written.append(out / f"{name}.csv")

    for kind, tables in _TABLES.items():
        if kind in cfg.outputs:
            for name, title, time, columns in tables(cfg, diags):
                write_table_csv(out / name, columns, _config_header(cfg, title, time))
                written.append(out / name)

    for path in sorted(written):
        blob = path.read_bytes()
        manifest.entries.append(ManifestEntry(path.name, hashlib.sha256(blob).hexdigest(), len(blob)))
    payload = {
        "generator": "vortexdiff",
        "config": render_config(cfg).strip().splitlines(),
        "format": fmt,
        "files": [asdict(e) for e in manifest.entries],
    }
    manifest.manifest_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return manifest
