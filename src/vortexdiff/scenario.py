"""Scenario runner: evolve a configured mode and emit diagnostic files.

Every run writes a manifest.json listing each output file with its SHA-256
checksum; identical configs produce byte-identical outputs (and therefore
identical manifests) in any thread mode, because each evolution time is an
independent pure computation (the FD march runs serially and reproduces a
fresh march to each time) and files are written serially.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    center_intensity,
    coherence_factor_field,
    find_radial_nodes,
    fit_decay,
    hole_refill_ratio,
    retrieval_efficiency,
    total_population,
)
from .analytic import CoherenceFactorParams, StateSnapshot, evolution_factor, initial_snapshot
from .config import OutputKind, ScenarioConfig, render_config
from .fieldio import write_field, write_field_csv, write_table_csv
from .grid import ComplexField2D, azimuthal_average
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


def _sha256(path: Path) -> tuple[str, int]:
    blob = path.read_bytes()
    return hashlib.sha256(blob).hexdigest(), len(blob)


def _config_header(cfg: ScenarioConfig, title: str, time: float | None = None) -> list[str]:
    lines = [f"vortexdiff {title}"]
    if time is not None:
        lines.append(f"time = {time:.17g}")
    lines += [f"config: {ln}" for ln in render_config(cfg).strip().splitlines()]
    return lines


def compute_snapshots(cfg: ScenarioConfig, threads: int = 1) -> tuple[StateSnapshot, list[StateSnapshot]]:
    """Initial snapshot plus one evolved snapshot per configured time.

    Spectral and kernel times are independent and spread over `threads`
    workers; the FD scheme marches once across all times, whatever `threads`.
    """
    field0 = build_mode(cfg.mode, cfg.grid)
    snap0 = initial_snapshot(field0)
    D, times = cfg.diffusion.D, cfg.diffusion.times
    if threads > 1 and cfg.solver.scheme is not Scheme.FD_EXPLICIT:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            snaps = list(pool.map(lambda t: evolve_snapshot(snap0, D, t, cfg.solver), times))
    else:
        snaps = evolve_snapshots(snap0, D, times, cfg.solver)
    return snap0, snaps


def run_scenario(cfg: ScenarioConfig, fmt: str = "csv", threads: int = 1,
                 out_dir: str | Path | None = None) -> Manifest:
    """Run one scenario and write the requested outputs plus manifest.json."""
    if fmt not in ("csv", "vxf", "both"):
        raise ValueError(f"format must be csv, vxf or both, got {fmt!r}")
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    snap0, snaps = compute_snapshots(cfg, threads=threads)
    times = cfg.diffusion.times
    written: list[Path] = []

    def emit_field(name: str, values, time: float):
        if fmt in ("vxf", "both"):
            path = out / f"{name}.vxf"
            write_field(path, values, cfg.grid, time)
            written.append(path)
        if fmt in ("csv", "both"):
            path = out / f"{name}.csv"
            write_field_csv(path, values, cfg.grid,
                            _config_header(cfg, f"field {name}", time))
            written.append(path)

    if OutputKind.SNAPSHOTS in cfg.outputs:
        for i, snap in enumerate(snaps):
            emit_field(f"rho12_{i:03d}", snap.rho12.values, snap.time)
            emit_field(f"rho22_{i:03d}", snap.rho22, snap.time)

    params = CoherenceFactorParams(eta=cfg.eta)
    if OutputKind.RADIAL_PROFILES in cfg.outputs or OutputKind.COHERENCE_FACTOR in cfg.outputs:
        for i, snap in enumerate(snaps):
            prof12 = azimuthal_average(snap.rho12, cfg.nbins)
            prof22 = azimuthal_average(
                ComplexField2D(cfg.grid, snap.rho22.astype(np.complex128)), cfg.nbins
            )
            rho22_radial = prof22.mean_amplitude.real
            if OutputKind.RADIAL_PROFILES in cfg.outputs:
                path = out / f"profile_{i:03d}.csv"
                write_table_csv(
                    path,
                    {
                        "r": prof12.radii,
                        "rho12_abs": np.sqrt(prof12.mean_intensity),
                        "rho22": rho22_radial,
                    },
                    _config_header(cfg, "radial profile", snap.time),
                )
                written.append(path)
            if OutputKind.COHERENCE_FACTOR in cfg.outputs:
                f_radial = (prof12.mean_intensity + cfg.eta) / (
                    snap.rho11 * np.maximum(rho22_radial, 0.0) + cfg.eta
                )
                np.clip(f_radial, 0.0, 1.0, out=f_radial)
                path = out / f"cfactor_{i:03d}.csv"
                write_table_csv(
                    path,
                    {"r": prof12.radii, "coherence_factor": f_radial},
                    _config_header(cfg, "coherence factor profile", snap.time),
                )
                written.append(path)
        if OutputKind.COHERENCE_FACTOR in cfg.outputs:
            averages = [coherence_factor_field(s, params).weighted_average for s in snaps]
            path = out / "cfactor_summary.csv"
            write_table_csv(
                path,
                {"t": np.asarray(times), "weighted_average": np.asarray(averages)},
                _config_header(cfg, "rho22-weighted coherence factor"),
            )
            written.append(path)

    efficiencies = None
    if OutputKind.FIDELITY_TRACE in cfg.outputs or OutputKind.FIT in cfg.outputs:
        efficiencies = [retrieval_efficiency(s.rho12, snap0.rho12) for s in snaps]
    if OutputKind.FIDELITY_TRACE in cfg.outputs:
        svals = [evolution_factor(t, cfg.diffusion.D, cfg.mode.w0) for t in times]
        path = out / "fidelity.csv"
        write_table_csv(
            path,
            {
                "t": np.asarray(times),
                "s": np.asarray(svals),
                "efficiency": np.asarray(efficiencies),
                "total_population": np.asarray([total_population(s) for s in snaps]),
            },
            _config_header(cfg, "fidelity trace"),
        )
        written.append(path)

    if OutputKind.NODES in cfg.outputs:
        rows_t, rows_i, rows_r = [], [], []
        for snap in snaps:
            prof = azimuthal_average(snap.rho12, cfg.nbins)
            report = find_radial_nodes(prof, time=snap.time)
            for j, radius in enumerate(report.node_radii):
                rows_t.append(snap.time)
                rows_i.append(float(j))
                rows_r.append(radius)
        path = out / "nodes.csv"
        write_table_csv(
            path,
            {"t": rows_t, "node_index": rows_i, "radius": rows_r},
            _config_header(cfg, "radial nodes"),
        )
        written.append(path)

    if OutputKind.CENTER_TRACE in cfg.outputs:
        i0 = cfg.grid.origin_index
        rows = {
            "t": np.asarray(times),
            "rho22_center": np.asarray([center_intensity(s) for s in snaps]),
            "rho12_abs_center": np.asarray([abs(s.rho12.values[i0, i0]) for s in snaps]),
            "cfactor_center": np.asarray(
                [float(coherence_factor_field(s, params).values[i0, i0]) for s in snaps]
            ),
        }
        path = out / "center.csv"
        write_table_csv(path, rows, _config_header(cfg, "center trace"))
        written.append(path)

    if OutputKind.FIT in cfg.outputs:
        power, expo = fit_decay(times, efficiencies, cfg.diffusion.D, cfg.mode.w0)
        path = out / "fit.csv"
        with open(path, "w", newline="\n") as fh:
            for line in _config_header(cfg, "decay-law fits"):
                fh.write(f"# {line}\n")
            fh.write("model,amplitude,parameter,rms_log_residual,preferred\n")
            fh.write(
                f"power_law,{power.amplitude:.17g},{power.exponent:.17g},"
                f"{power.rms_log_residual:.17g},{int(power.preferred)}\n"
            )
            fh.write(
                f"exponential,{expo.amplitude:.17g},{expo.rate:.17g},"
                f"{expo.rms_log_residual:.17g},{int(expo.preferred)}\n"
            )
        written.append(path)

    if OutputKind.HOLE_REFILL in cfg.outputs:
        ratios = [hole_refill_ratio(s.rho12, cfg.mode.block_radius) for s in snaps]
        path = out / "hole_refill.csv"
        write_table_csv(
            path,
            {"t": np.asarray(times), "refill_ratio": np.asarray(ratios)},
            _config_header(cfg, "hole refill"),
        )
        written.append(path)

    entries = []
    for path in sorted(written):
        digest, size = _sha256(path)
        entries.append(ManifestEntry(path=path.name, sha256=digest, bytes=size))
    manifest = Manifest(out_dir=out, entries=entries)
    payload = {
        "generator": "vortexdiff",
        "config": render_config(cfg).strip().splitlines(),
        "format": fmt,
        "files": [
            {"path": e.path, "sha256": e.sha256, "bytes": e.bytes} for e in entries
        ],
    }
    manifest.manifest_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return manifest
