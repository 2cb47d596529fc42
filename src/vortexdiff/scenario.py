"""Scenario runner: evolve a configured mode and emit diagnostic files.

The run is one stream.  stream_diagnostics wraps each snapshot that
solvers.evolve_snapshots yields in a SnapshotDiagnostics, which runs each
reduction (radial profiles, coherence-factor summary, efficiency, ...) at
most once and keeps only reduced numbers, never a full-grid map.  The
reductions that read |rho12|^2 share the one array the physicality check
formed (StateSnapshot.coh_sq), and the efficiency's t = 0 reference is
computed once per run.  The stream keeps of the stored snapshot only what
the evolution still reads: its fields go once the held spectra serve every
later time (solvers' memory rule), and it keeps nothing it has yielded.
A ScenarioConfig is valid by construction, so nothing here checks it again.
run_scenario writes each snapshot's field dumps and computes the reductions
its tables read as the snapshot arrives; the stream then releases the
snapshot before the next time is evolved.  Each table OutputKind is one
function from those reductions to its table's columns; every CSV file is
written by fieldio's one CSV writer (write_table_csv for a table,
write_field_csv for a field dump), every VXF dump by write_field.

Evolution, reductions and CSV writes run on the calling thread, in order.
A run that dumps VXF fields starts one writer thread: it is handed each
snapshot's rho12 and rho22 arrays, never the snapshot, and writes them while
the calling thread reduces the snapshot.  The calling thread waits for those
writes before it asks for the next snapshot, so one evolved snapshot is
alive at a time, and a failed write stops the run where a serial run would.

Every run's files, run_scenario's and each CLI subcommand's table alike,
go through one output path.  open_run creates the directory and removes its
old manifest.json before the first file is written; write_run writes the
tables, then manifest.json last, so a failed run leaves none.  manifest.json
lists each file of the run that wrote it with its SHA-256 checksum and size.
A CSV file is hashed by its writer as its bytes are written; a VXF dump is
read back from disk by _sha256, in fixed-size chunks, on the writer thread
behind its write, so it overlaps the next evolution; the digests are
collected after the last snapshot and handed to write_run.  Every step is a
pure computation and each file has one writer, so identical configs produce
byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
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
    reference_energy,
    total_population,
)
from .analytic import StateSnapshot, initial_snapshot
from .config import OutputKind, ScenarioConfig, render_config
from .fieldio import write_field, write_field_csv, write_table_csv
from .grid import RadialProfile, azimuthal_average, radial_mean
from .modes import build_mode
from .solvers import evolve_snapshots


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


class SnapshotDiagnostics:
    """The reductions of one evolved snapshot, each computed on first use and
    kept; a full-grid map such as the coherence factor is dropped once
    reduced.  reference is the efficiency's denominator, the stored field's
    coherent energy.  After release() only the reductions computed so far
    remain."""

    def __init__(self, cfg: ScenarioConfig, reference: float, snap: StateSnapshot):
        self.cfg, self.reference, self.snap = cfg, reference, snap
        self.time = snap.time

    def release(self) -> None:
        """Drop the snapshot and its full-grid arrays."""
        self.snap = None

    @cached_property
    def profile(self) -> RadialProfile:
        """Azimuthal mean of |rho12|^2."""
        return azimuthal_average(self.snap.rho12, self.cfg.nbins, intensity=self.snap.coh_sq)

    @cached_property
    def rho22_radial(self) -> np.ndarray:
        """Azimuthal mean of rho22, on the bins of profile."""
        return radial_mean(self.snap.rho22, self.cfg.grid, self.cfg.nbins)

    @cached_property
    def cfactor(self) -> tuple[float, float]:
        """rho22-weighted average and centre sample of the coherence-factor map."""
        cmap = coherence_factor_field(self.snap, self.cfg.eta)
        i0 = self.cfg.grid.origin_index
        return cmap.weighted_average, float(cmap.values[i0, i0])

    @cached_property
    def efficiency(self) -> float:
        return float(np.sum(self.snap.coh_sq)) / self.reference

    @cached_property
    def population(self) -> float:
        return total_population(self.snap)

    @cached_property
    def center(self) -> tuple[float, float]:
        """rho22 and |rho12| at the origin sample."""
        i0 = self.cfg.grid.origin_index
        return center_intensity(self.snap), abs(self.snap.rho12.values[i0, i0])

    @cached_property
    def hole_refill(self) -> float:
        return hole_refill_ratio(self.snap.rho12, self.cfg.mode.block_radius)

    def nodes(self, rel_threshold: float = 0.02) -> NodeReport:
        return find_radial_nodes(self.profile, rel_threshold, time=self.time)


def stream_diagnostics(cfg: ScenarioConfig) -> Iterator[SnapshotDiagnostics]:
    """One SnapshotDiagnostics per configured time, evolved lazily.

    A consumer takes what it needs from each before asking for the next:
    each is released then, before the next time is evolved.
    """
    snap0 = initial_snapshot(build_mode(cfg.mode, cfg.grid))
    reference = reference_energy(snap0.coh_sq)
    snaps = evolve_snapshots(snap0, cfg.diffusion.D, cfg.diffusion.times, cfg.solver)
    del snap0  # the stream keeps the stored fields only while a later time reads them
    for snap in snaps:
        d = SnapshotDiagnostics(cfg, reference, snap)
        del snap
        yield d
        d.release()


def node_columns(reports: list[NodeReport]) -> dict[str, list[float]]:
    """The node table: one (t, node_index, radius) row per node found."""
    rows = [(rep.time, float(j), radius)
            for rep in reports for j, radius in enumerate(rep.node_radii)]
    return {name: [row[k] for row in rows]
            for k, name in enumerate(("t", "node_index", "radius"))}


# Each table OutputKind: (cfg, diagnostics) -> [(file name, title, time or
# None, columns)], written with _config_header(cfg, title, time).  It reads
# only the reductions listed for it in _TABLES, which run_scenario computes
# while each snapshot is alive.

def _profile_tables(cfg, diags):
    return [(f"profile_{i:03d}.csv", "radial profile", d.time,
             {"r": d.profile.radii, "rho12_abs": np.sqrt(d.profile.mean_intensity),
              "rho22": d.rho22_radial})
            for i, d in enumerate(diags)]


def _cfactor_tables(cfg, diags):
    profiles = [(f"cfactor_{i:03d}.csv", "coherence factor profile", d.time,
                 {"r": d.profile.radii,
                  "coherence_factor": coherence_factor_values(
                      d.profile.mean_intensity, d.rho22_radial, cfg.eta)})
                for i, d in enumerate(diags)]
    summary = {"t": cfg.diffusion.times, "weighted_average": [d.cfactor[0] for d in diags]}
    return profiles + [("cfactor_summary.csv", "rho22-weighted coherence factor", None, summary)]


def _fidelity_table(cfg, diags):
    return [("fidelity.csv", "fidelity trace", None, {
        "t": cfg.diffusion.times,
        "s": cfg.evolution_factors,
        "efficiency": [d.efficiency for d in diags],
        "total_population": [d.population for d in diags],
    })]


def _nodes_table(cfg, diags):
    return [("nodes.csv", "radial nodes", None, node_columns([d.nodes() for d in diags]))]


def _center_table(cfg, diags):
    return [("center.csv", "center trace", None, {
        "t": cfg.diffusion.times,
        "rho22_center": [d.center[0] for d in diags],
        "rho12_abs_center": [d.center[1] for d in diags],
        "cfactor_center": [d.cfactor[1] for d in diags],
    })]


def _fit_table(cfg, diags):
    power, expo = fit_decay(cfg.diffusion.times, [d.efficiency for d in diags],
                            cfg.evolution_factors)
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
        "refill_ratio": [d.hole_refill for d in diags],
    })]


_TABLES = {
    OutputKind.RADIAL_PROFILES: (("profile", "rho22_radial"), _profile_tables),
    OutputKind.COHERENCE_FACTOR: (("profile", "rho22_radial", "cfactor"), _cfactor_tables),
    OutputKind.FIDELITY_TRACE: (("efficiency", "population"), _fidelity_table),
    OutputKind.NODES: (("profile",), _nodes_table),
    OutputKind.CENTER_TRACE: (("center", "cfactor"), _center_table),
    OutputKind.FIT: (("efficiency",), _fit_table),
    OutputKind.HOLE_REFILL: (("hole_refill",), _hole_refill_table),
}


_HASH_CHUNK = 1 << 20


def _sha256(path: Path) -> tuple[str, int]:
    """SHA-256 hex digest and size of a file, read in _HASH_CHUNK pieces
    into one buffer, so no file is held in memory whole."""
    digest, size = hashlib.sha256(), 0
    buf = bytearray(_HASH_CHUNK)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while got := fh.readinto(buf):
            digest.update(view[:got])
            size += got
    return digest.hexdigest(), size


def _write_dumps(dumps: list[tuple[Path, np.ndarray]], grid, time: float) -> None:
    """Write each (path, values) VXF dump of one snapshot on the writer
    thread.  It empties dumps, so no array stays with the finished call."""
    while dumps:
        path, values = dumps.pop(0)
        write_field(path, values, grid, time)


def open_run(out_dir: str | Path) -> Path:
    """The first step of a run's output: create out_dir and remove its old
    manifest.json before any file is written, so a failed run leaves none."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    return out


def write_run(cfg: ScenarioConfig, fmt: str, out: Path, tables, digests=()) -> Manifest:
    """The last step: write each (name, title, time or None, columns) table
    into out, which open_run opened, with _config_header(cfg, title, time),
    then manifest.json over those tables and the (path, (sha256, bytes))
    digests of the files the run wrote before them."""
    digests = dict(digests)
    for name, title, time, columns in tables:
        digests[out / name] = write_table_csv(out / name, columns, _config_header(cfg, title, time))
    manifest = Manifest(out, [ManifestEntry(path.name, *digests[path]) for path in sorted(digests)])
    payload = {"generator": "vortexdiff", "config": render_config(cfg).strip().splitlines(),
               "format": fmt, "files": [asdict(e) for e in manifest.entries]}
    manifest.manifest_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return manifest


def run_scenario(cfg: ScenarioConfig, fmt: str = "csv", out_dir: str | Path | None = None) -> Manifest:
    """Run one scenario and write the requested outputs plus manifest.json.

    cfg is valid by construction, so only fmt is checked before the output
    directory is touched.  The stream runs on the calling thread; VXF dumps
    go to one writer thread, and snapshot i's dumps are on disk before
    snapshot i + 1 evolves.
    """
    if fmt not in ("csv", "vxf", "both"):
        raise ValueError(f"format must be csv, vxf or both, got {fmt!r}")
    out = open_run(cfg.out_dir if out_dir is None else out_dir)

    reads = dict.fromkeys(name for kind, (names, _) in _TABLES.items() if kind in cfg.outputs
                          for name in names)
    snapshots = OutputKind.SNAPSHOTS in cfg.outputs
    digests: dict[Path, tuple[str, int]] = {}  # path -> (sha256, bytes)
    hashed = []  # (path, future digest) of each VXF dump, queued behind its write
    diags = []
    writer = None
    if snapshots and fmt != "csv":
        from concurrent.futures import ThreadPoolExecutor  # loaded only by a run that dumps VXF
        writer = ThreadPoolExecutor(max_workers=1)
    try:
        for i, d in enumerate(stream_diagnostics(cfg)):
            written = None
            try:
                if snapshots:
                    fields = {f"rho12_{i:03d}": d.snap.rho12.values, f"rho22_{i:03d}": d.snap.rho22}
                    if writer is not None:
                        paths = [out / f"{name}.vxf" for name in fields]
                        written = writer.submit(_write_dumps, list(zip(paths, fields.values())),
                                                cfg.grid, d.time)
                        hashed += [(path, writer.submit(_sha256, path)) for path in paths]
                    if fmt != "vxf":  # no comprehension variable keeps an array into the next evolution
                        digests.update({out / f"{name}.csv": write_field_csv(
                            out / f"{name}.csv", values, cfg.grid, _config_header(cfg, f"field {name}", d.time))
                            for name, values in fields.items()})
                    del fields
                for name in reads:
                    getattr(d, name)
                diags.append(d)
            finally:
                if written is not None:  # serially, snapshot i's write fails before anything after it
                    written.result()
        digests.update((path, digest.result()) for path, digest in hashed)
    finally:
        if writer is not None:
            writer.shutdown()

    tables = (table for kind, (_, make) in _TABLES.items() if kind in cfg.outputs
              for table in make(cfg, diags))
    return write_run(cfg, fmt, out, tables, digests)
