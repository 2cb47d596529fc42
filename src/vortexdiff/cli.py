"""Command-line interface.

Subcommands:
    simulate <config>         run one scenario, write outputs + manifest
    sweep --param m=0..4 <config>   repeat over a parameter, fidelity-vs-s table
    fit <trace.csv>           fit power-law and exponential decay, print both
    nodes <config>            print node radii vs time; the table only with --out-dir
    compare-blocked <config>  blocked-Gaussian vs vortex hole refill vs time
    echo <config>             quantum echo round trip + classical conditioning

Every file a subcommand writes goes through scenario's one output path
(open_run, then write_run): its tables, then a manifest.json that lists the
files of that run; _report prints what was written.

Exit codes: 0 success, 2 config error, 3 numeric/solver error (out of memory
included), 4 I/O error.
Errors are also emitted to stderr as a single machine-readable JSON line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import check_threshold, fit_decay
from .analytic import evolution_factor
from .config import ConfigError, OutputKind, ScenarioConfig, parse_config
from .fieldio import FieldFormatError, read_table_csv
from .grid import l2_norm_sq, ComplexField2D
from .modes import ContainmentError, ModeKind, build_mode
from .scenario import node_columns, open_run, run_scenario, stream_diagnostics, write_run
from .solvers import classical_reversal_amplification, echo_reverse, evolve_quantum

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


def _report(manifest) -> int:
    """Say what a subcommand wrote: each file with its checksum, then the manifest."""
    print(f"wrote {len(manifest.entries)} files to {manifest.out_dir}")
    for entry in manifest.entries:
        print(f"  {entry.path}  sha256={entry.sha256[:16]}...  {entry.bytes} bytes")
    print(f"manifest: {manifest.manifest_path}")
    return EXIT_OK


def _write_one(args, cfg: ScenarioConfig, name: str, title: str | None, columns: dict) -> int:
    """Write a subcommand's one table and its manifest, then say what it wrote."""
    out = open_run(args.out_dir or cfg.out_dir)
    return _report(write_run(cfg, args.format, out, [(name, title, None, columns)]))


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args.strict)
    return _report(run_scenario(cfg, fmt=args.format, out_dir=args.out_dir))


def _parse_sweep(spec: str) -> tuple[str, range]:
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
    return name, range(lo, hi + 1)  # lazy: a bad value fails before the rest is formed


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.strict)
    if cfg.mode.kind is not ModeKind.LG:
        raise ConfigError("sweep needs an lg scenario")
    name, values = _parse_sweep(args.param)
    subs = {}  # every swept config is built, so valid, before anything evolves
    for value in values:
        try:
            mode = dataclasses.replace(cfg.mode, **{name: value})
            subs[f"efficiency_{name}{value}"] = dataclasses.replace(cfg, mode=mode)
        except ValueError as exc:
            raise ConfigError(f"--param {name}={value}: {exc}", key=getattr(exc, "key", None)) from exc
    columns = {"s": cfg.evolution_factors} | {
        column: [d.efficiency for d in stream_diagnostics(sub)] for column, sub in subs.items()}
    print("s      " + "  ".join(f"{k:>16s}" for k in columns if k != "s"))
    for i, s in enumerate(columns["s"]):
        row = "  ".join(f"{columns[k][i]:16.10f}" for k in columns if k != "s")
        print(f"{s:6.3f} {row}")
    return _write_one(args, cfg, "sweep_fidelity.csv", f"sweep over {name}", columns)


def _cmd_fit(args) -> int:
    table = read_table_csv(args.trace)
    tcol = args.time_column
    vcol = args.value_column
    if vcol is None:
        candidates = [c for c in table if c not in (tcol, "s")]
        if not candidates:
            raise ConfigError("trace has no value column")
        vcol = "efficiency" if "efficiency" in table else candidates[0]
    for column in (tcol, vcol):
        if column not in table:
            raise ConfigError(f"trace has no column {column!r}; columns: {sorted(table)}")
    # a trace without an s column is read in natural units, D = w0 = 1
    s = table["s"] if "s" in table else [evolution_factor(t, 1.0, 1.0) for t in table[tcol]]
    power, expo = fit_decay(table[tcol], table[vcol], s)
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
    reports = [d.nodes(args.threshold) for d in stream_diagnostics(cfg)]
    print(f"{'t':>10s}  node radii")
    for report in reports:
        radii = ", ".join(f"{r:.5f}" for r in report.node_radii) or "(none)"
        print(f"{report.time:10.5f}  {radii}")
    if not args.out_dir:  # cfg.out_dir is simulate's, and its manifest stays
        return EXIT_OK
    return _write_one(args, cfg, "nodes.csv", f"node table (threshold {args.threshold})", node_columns(reports))


def _cmd_compare_blocked(args) -> int:
    cfg = _load_config(args.config, args.strict)
    if cfg.mode.kind is not ModeKind.BLOCKED_GAUSSIAN:
        raise ConfigError("compare-blocked needs a blocked_gaussian scenario")
    # the blocked run streams a copy whose outputs are its hole refill, so
    # building it asks the hole rule; the twin keeps the hole, which its lg
    # mode ignores, for the refill diagnostic, and building it checks that it
    # is contained; both before anything evolves (the header renders cfg)
    blocked_cfg = dataclasses.replace(cfg, outputs=(OutputKind.HOLE_REFILL,))
    vortex_mode = dataclasses.replace(cfg.mode, kind=ModeKind.LG, m=1)
    vortex_cfg = dataclasses.replace(cfg, mode=vortex_mode, outputs=(OutputKind.FIDELITY_TRACE,))
    rows = {
        "t": cfg.diffusion.times,
        "blocked_refill": [d.hole_refill for d in stream_diagnostics(blocked_cfg)],
        "vortex_refill": [d.hole_refill for d in stream_diagnostics(vortex_cfg)],
    }
    print(f"{'t':>10s}  {'blocked':>14s}  {'vortex':>14s}")
    for i, t in enumerate(cfg.diffusion.times):
        print(f"{t:10.5f}  {rows['blocked_refill'][i]:14.8f}  {rows['vortex_refill'][i]:14.3e}")
    return _write_one(args, cfg, "compare_blocked.csv", "blocked-vs-vortex hole refill", rows)


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
    report = {"time": t, "beta": cfg.quantum.beta, "norm_drift": norm_drift,
              "echo_roundtrip_l2_error": err, "classical_amplification": amplification}
    return _write_one(args, cfg, "echo_report.csv", None,
                      {"quantity": list(report), "value": list(report.values())})


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _threshold(text: str) -> float:
    """The --threshold type: a float that check_threshold, the owner of its
    rule, accepts; otherwise a usage error that carries the parse or rule message."""
    try:
        value = float(text)
        check_threshold(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejections, like every other failure, end
    with the JSON error line; its subcommand parsers are _Parsers too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        _emit_error(argparse.ArgumentError(None, message), EXIT_CONFIG)
        self.exit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vortexdiff",
        description="Thermal-diffusion decoherence of stored optical modes "
                    "(natural units: w0 = 1, D = 1; time scale w0^2/D).",
    )
    parser.add_argument("--out-dir", default=None, help="override the config out_dir")
    parser.add_argument("--format", choices=("csv", "vxf", "both"), default="csv",
                        help="field dump format (default csv)")
    parser.add_argument("--threads", type=_positive_int, default=1, metavar="N",
                        help="accepted for compatibility (N >= 1) and ignored: a process runs "
                             "on its main thread, plus one writer thread while a run dumps VXF; "
                             "numpy's BLAS starts no pool unless OPENBLAS_NUM_THREADS is set")
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
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("nodes", help="node-radius table vs time")
    p.add_argument("config")
    p.add_argument("--threshold", type=_threshold, default=0.02,
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
    except (FloatingPointError, ValueError, MemoryError) as exc:
        _emit_error(exc, EXIT_NUMERIC)
        return EXIT_NUMERIC


def _emit_error(exc: Exception, code: int) -> None:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
