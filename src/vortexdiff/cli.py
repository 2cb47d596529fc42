"""Command-line interface.

Subcommands:
    simulate <config>         run one scenario, write outputs + manifest
    sweep --param m=0..4 <config>   repeat over a parameter, fidelity-vs-s table
    fit <trace.csv>           fit power-law and exponential decay, print both
    nodes <config>            node-radius table vs time
    compare-blocked <config>  blocked-Gaussian vs vortex hole refill vs time
    echo <config>             quantum echo round trip + classical conditioning

Exit codes: 0 success, 2 config error, 3 numeric/solver error, 4 I/O error.
Errors are also emitted to stderr as a single machine-readable JSON line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import fit_decay, hole_refill_ratio, retrieval_efficiency, find_radial_nodes
from .analytic import evolution_factor
from .config import ConfigError, OutputKind, ScenarioConfig, parse_config, render_config, validate_scenario
from .fieldio import FieldFormatError, read_table_csv, write_table_csv
from .grid import azimuthal_average, l2_norm_sq, ComplexField2D
from .modes import ContainmentError, ModeKind, ModeSpec, build_mode
from .scenario import compute_snapshots, run_scenario
from .solvers import CflError, IrreversibleEvolutionError, classical_reversal_amplification, echo_reverse, evolve_quantum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _load_config(path: str, strict: bool) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FieldFormatError(f"cannot read config {path}: {exc}", "io") from exc
    cfg = parse_config(text, strict=strict)
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args.strict)
    manifest = run_scenario(cfg, fmt=args.format, threads=args.threads, out_dir=args.out_dir)
    print(f"wrote {len(manifest.entries)} files to {manifest.out_dir}")
    for entry in manifest.entries:
        print(f"  {entry.path}  sha256={entry.sha256[:16]}...  {entry.bytes} bytes")
    print(f"manifest: {manifest.manifest_path}")
    return EXIT_OK


def _parse_sweep(spec: str) -> tuple[str, list[int]]:
    if "=" not in spec:
        raise ConfigError(f"--param needs name=a..b, got {spec!r}")
    name, _, rng = spec.partition("=")
    name = name.strip()
    if name not in ("m", "p"):
        raise ConfigError(f"sweep parameter must be m or p, got {name!r}")
    if ".." not in rng:
        raise ConfigError(f"sweep range needs a..b, got {rng!r}")
    lo_s, _, hi_s = rng.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ConfigError(f"sweep bounds must be integers, got {rng!r}")
    if hi < lo:
        raise ConfigError(f"empty sweep range {rng!r}")
    return name, list(range(lo, hi + 1))


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.strict)
    name, values = _parse_sweep(args.param)
    times = cfg.diffusion.times
    svals = [evolution_factor(t, cfg.diffusion.D, cfg.mode.w0) for t in times]
    columns: dict[str, np.ndarray] = {"s": np.asarray(svals)}
    for value in values:
        mode = dataclasses.replace(cfg.mode, **{name: value})
        sub = dataclasses.replace(cfg, mode=mode)
        validate_scenario(sub)
        snap0, snaps = compute_snapshots(sub, threads=args.threads)
        columns[f"efficiency_{name}{value}"] = np.asarray(
            [retrieval_efficiency(s.rho12, snap0.rho12) for s in snaps]
        )
    out = Path(args.out_dir) if args.out_dir else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep_fidelity.csv"
    write_table_csv(path, columns, [f"vortexdiff sweep over {name}"]
                    + [f"config: {ln}" for ln in render_config(cfg).strip().splitlines()])
    header = "s      " + "  ".join(f"{k:>16s}" for k in columns if k != "s")
    print(header)
    for i, s in enumerate(svals):
        row = "  ".join(f"{columns[k][i]:16.10f}" for k in columns if k != "s")
        print(f"{s:6.3f} {row}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    table = read_table_csv(args.trace)
    tcol = args.time_column
    vcol = args.value_column
    if tcol not in table:
        raise ConfigError(f"trace has no column {tcol!r}; columns: {sorted(table)}")
    if vcol is None:
        candidates = [c for c in table if c != tcol]
        if not candidates:
            raise ConfigError("trace has no value column")
        vcol = "efficiency" if "efficiency" in table else candidates[0]
    elif vcol not in table:
        raise ConfigError(f"trace has no column {vcol!r}; columns: {sorted(table)}")
    power, expo = fit_decay(table[tcol], table[vcol], args.dcoeff, args.waist)
    for fit in (power, expo):
        tag = "preferred" if fit.preferred else "         "
        if fit.model.value == "power_law":
            print(f"power law    v = {fit.amplitude:.6g} * s(t)^{fit.exponent:.6g}   "
                  f"rms log residual {fit.rms_log_residual:.3e}  {tag}")
        else:
            print(f"exponential  v = {fit.amplitude:.6g} * exp(-{fit.rate:.6g} t)   "
                  f"rms log residual {fit.rms_log_residual:.3e}  {tag}")
    return EXIT_OK


def _cmd_nodes(args) -> int:
    cfg = _load_config(args.config, args.strict)
    snap0, snaps = compute_snapshots(cfg, threads=args.threads)
    print(f"{'t':>10s}  node radii")
    rows_t, rows_i, rows_r = [], [], []
    for snap in snaps:
        prof = azimuthal_average(snap.rho12, cfg.nbins)
        report = find_radial_nodes(prof, rel_threshold=args.threshold, time=snap.time)
        radii = ", ".join(f"{r:.5f}" for r in report.node_radii) or "(none)"
        print(f"{snap.time:10.5f}  {radii}")
        for j, radius in enumerate(report.node_radii):
            rows_t.append(snap.time)
            rows_i.append(float(j))
            rows_r.append(radius)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "nodes.csv"
        write_table_csv(
            path,
            {"t": rows_t, "node_index": rows_i, "radius": rows_r},
            [f"vortexdiff node table (threshold {args.threshold})"]
            + [f"config: {ln}" for ln in render_config(cfg).strip().splitlines()],
        )
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_compare_blocked(args) -> int:
    cfg = _load_config(args.config, args.strict)
    if cfg.mode.kind is not ModeKind.BLOCKED_GAUSSIAN:
        raise ConfigError("compare-blocked needs a blocked_gaussian scenario")
    hole = cfg.mode.block_radius
    vortex_mode = ModeSpec(kind=ModeKind.LG, p=0, m=1, w0=cfg.mode.w0,
                           P=cfg.mode.P, amp=cfg.mode.amp)
    # the twin only feeds the refill diagnostic below; strip outputs that
    # are tied to the blocked mode before re-validating
    vortex_cfg = dataclasses.replace(
        cfg, mode=vortex_mode, outputs=(OutputKind.FIDELITY_TRACE,)
    )
    validate_scenario(vortex_cfg)
    _, blocked_snaps = compute_snapshots(cfg, threads=args.threads)
    _, vortex_snaps = compute_snapshots(vortex_cfg, threads=args.threads)
    rows = {
        "t": np.asarray(cfg.diffusion.times),
        "blocked_refill": np.asarray(
            [hole_refill_ratio(s.rho12, hole) for s in blocked_snaps]
        ),
        "vortex_refill": np.asarray(
            [hole_refill_ratio(s.rho12, hole) for s in vortex_snaps]
        ),
    }
    print(f"{'t':>10s}  {'blocked':>14s}  {'vortex':>14s}")
    for i, t in enumerate(cfg.diffusion.times):
        print(f"{t:10.5f}  {rows['blocked_refill'][i]:14.8f}  {rows['vortex_refill'][i]:14.3e}")
    out = Path(args.out_dir) if args.out_dir else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "compare_blocked.csv"
    write_table_csv(path, rows, ["vortexdiff blocked-vs-vortex hole refill"]
                    + [f"config: {ln}" for ln in render_config(cfg).strip().splitlines()])
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_echo(args) -> int:
    cfg = _load_config(args.config, args.strict)
    if cfg.quantum is None:
        raise ConfigError("echo needs quantum.beta in the config")
    field0 = build_mode(cfg.mode, cfg.grid)
    t = cfg.diffusion.times[-1]
    forward = evolve_quantum(field0, cfg.quantum, t)
    back = echo_reverse(forward, cfg.quantum, t)
    norm0 = l2_norm_sq(field0)
    err = float(np.sqrt(l2_norm_sq(ComplexField2D(cfg.grid, back.values - field0.values)) / norm0))
    norm_drift = abs(l2_norm_sq(forward) / norm0 - 1.0)
    amplification = classical_reversal_amplification(cfg.grid, cfg.diffusion.D, t)
    print(f"quantum evolution for t = {t:g} (beta = {cfg.quantum.beta:g})")
    print(f"  norm drift under forward evolution: {norm_drift:.3e}")
    print(f"  echo round-trip relative L2 error:  {err:.3e}")
    print(f"classical diffusion over the same window is not invertible:")
    print(f"  band-top amplification e^(D k_max^2 t) = {amplification:.6g}")
    out = Path(args.out_dir) if args.out_dir else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "echo_report.csv"
    with open(path, "w", newline="\n") as fh:
        for line in render_config(cfg).strip().splitlines():
            fh.write(f"# config: {line}\n")
        fh.write("quantity,value\n")
        fh.write(f"time,{t:.17g}\n")
        fh.write(f"beta,{cfg.quantum.beta:.17g}\n")
        fh.write(f"norm_drift,{norm_drift:.17g}\n")
        fh.write(f"echo_roundtrip_l2_error,{err:.17g}\n")
        fh.write(f"classical_amplification,{amplification:.17g}\n")
    print(f"wrote {path}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexdiff",
        description="Thermal-diffusion decoherence of stored optical modes "
                    "(natural units: w0 = 1, D = 1; time scale w0^2/D).",
    )
    parser.add_argument("--out-dir", default=None, help="override the config out_dir")
    parser.add_argument("--format", choices=("csv", "vxf", "both"), default="csv",
                        help="field dump format (default csv)")
    parser.add_argument("--threads", type=_positive_int, default=1, metavar="N",
                        help="evaluate spectral/kernel diffusion times with N worker "
                             "threads; FD marches once")
    parser.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                        help="reject unknown config keys (default on; --no-strict downgrades "
                             "them to warnings)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario")
    p.add_argument("config")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="repeat a scenario over a parameter")
    p.add_argument("--param", required=True, metavar="NAME=A..B", help="e.g. m=0..4")
    p.add_argument("config")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="fit decay laws to a trace CSV")
    p.add_argument("trace")
    p.add_argument("--time-column", default="t")
    p.add_argument("--value-column", default=None)
    p.add_argument("--dcoeff", type=float, default=1.0, help="diffusion coefficient for s(t)")
    p.add_argument("--waist", type=float, default=1.0, help="waist for s(t)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("nodes", help="node-radius table vs time")
    p.add_argument("config")
    p.add_argument("--threshold", type=float, default=0.02,
                   help="node detection threshold, fraction of peak amplitude")
    p.set_defaults(func=_cmd_nodes)

    p = sub.add_parser("compare-blocked", help="blocked Gaussian vs vortex hole refill")
    p.add_argument("config")
    p.set_defaults(func=_cmd_compare_blocked)

    p = sub.add_parser("echo", help="quantum reversibility demonstration")
    p.add_argument("config")
    p.set_defaults(func=_cmd_echo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContainmentError) as exc:
        _emit_error(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except (FieldFormatError, OSError) as exc:
        _emit_error(exc, EXIT_IO)
        return EXIT_IO
    except (CflError, IrreversibleEvolutionError, FloatingPointError, ValueError) as exc:
        _emit_error(exc, EXIT_NUMERIC)
        return EXIT_NUMERIC


def _emit_error(exc: Exception, code: int) -> None:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
