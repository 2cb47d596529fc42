#!/usr/bin/env bash
# Byte-identity check: run every shipped scenario and subcommand from a base
# revision and from this working tree, then compare the outputs.
#
#   scripts/same_outputs.sh <base-rev>
#
# The base revision is exported with `git archive` into a temporary
# directory, which is removed on exit.  Each tree runs its own code on its
# own scenarios.  The script prints nothing and exits 0 when every manifest,
# table and dump is byte-identical.  Otherwise it lists the files that
# differ (`diff -rq`), then explains the numeric change: the worst relative
# L-infinity per output kind (tables by column, VXF and CSV dumps by field,
# the time index folded into NNN), against the base's peak, beside the worst
# absolute gap, so a large relative change of a near-zero output reads as
# what it is, with the run where the relative worst occurs; and the exit
# status is nonzero.  Needs only Python with numpy.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
head=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$head" archive "$1" | tar -x -C "$work/base"

run_all() {  # run_all TREE OUT
  (
    cd "$1"
    cli() { PYTHONPATH=src python -m vortexdiff.cli "$@"; }
    for cfg in scenarios/*.cfg; do
      for fmt in vxf csv both; do
        cli --out-dir "$2/simulate-$fmt-$(basename "$cfg" .cfg)" --format "$fmt" \
          simulate "$cfg" > /dev/null
      done
    done
    # the shipped scenarios all use the spectral scheme; these copies
    # of vortex.cfg cover the FD and kernel bytes and a rendered solver.dt
    mkdir -p "$2-cfg"
    sed 's/^solver.scheme .*/solver.scheme = fd/' scenarios/vortex.cfg > "$2-cfg/fd.cfg"
    { cat "$2-cfg/fd.cfg"; echo "solver.dt = 0.001"; } > "$2-cfg/fd_dt.cfg"
    sed 's/^solver.scheme .*/solver.scheme = kernel/' scenarios/vortex.cfg > "$2-cfg/kernel.cfg"
    for cfg in "$2-cfg"/*.cfg; do
      for fmt in vxf csv; do
        cli --out-dir "$2/simulate-$fmt-vortex-$(basename "$cfg" .cfg)" --format "$fmt" \
          simulate "$cfg" > /dev/null
      done
    done
    # no shipped scenario dumps a strictly positive rho22, which a snapshot
    # keeps as given instead of clipping it; the plane wave's stays at |amp|^2
    sed 's/^outputs .*/outputs = snapshots, fidelity_trace/' scenarios/plane_wave.cfg \
      > "$2-cfg/plane_wave_snapshots.cfg"
    for fmt in vxf csv; do
      cli --out-dir "$2/simulate-$fmt-plane_wave_snapshots" --format "$fmt" \
        simulate "$2-cfg/plane_wave_snapshots.cfg" > /dev/null
    done
    # dumps of the fields no shipped run writes: the blocked Gaussian, an
    # LG_1^1, and a kernel run whose dx^2 = (2/15)^2 is not a power of two
    sed 's/^outputs .*/&, snapshots/' scenarios/blocked.cfg > "$2-cfg/blocked_snapshots.cfg"
    sed 's/^mode.p .*/mode.p = 1/' scenarios/vortex.cfg > "$2-cfg/vortex_p1.cfg"
    sed 's/^grid.n .*/grid.n = 240/' "$2-cfg/kernel.cfg" > "$2-cfg/kernel_n240.cfg"
    for cfg in blocked_snapshots vortex_p1 kernel_n240; do
      cli --out-dir "$2/simulate-vxf-$cfg" --format vxf simulate "$2-cfg/$cfg.cfg" > /dev/null
    done
    cli --out-dir "$2/echo" echo scenarios/echo.cfg > /dev/null
    cli --out-dir "$2/sweep" sweep --param m=0..4 scenarios/sweep.cfg > /dev/null
    # no shipped scenario has p > 0; this sweep covers the Laguerre factor's bytes
    cli --out-dir "$2/sweep-p" sweep --param p=0..2 scenarios/sweep.cfg > /dev/null
    cli --out-dir "$2/compare-blocked" compare-blocked scenarios/blocked.cfg > /dev/null
    cli --out-dir "$2/nodes" nodes scenarios/vortex.cfg > /dev/null
    # fit prints its result; its stdout is an output to compare too
    cli fit "$2/simulate-csv-sweep/fidelity.csv" > "$2/fit.stdout"
  )
}

explain() {  # explain BASE HEAD: worst relative and absolute gaps per output kind
  python - "$1" "$2" << 'PY'
import re
import struct
import sys
from pathlib import Path

import numpy as np

base, head = map(Path, sys.argv[1:])
HEADER = struct.Struct("<4sIIddB")  # VXF1: magic, version, n, extent, time, kind


def number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def fields(path):
    """{field or column: values} of a dump or table, None for any other file.

    A dump is one field; a table gives one entry per numeric column, or,
    when its first column holds labels (fit.csv, echo_report.csv), one per
    labelled cell."""
    if path.suffix == ".vxf":
        blob = path.read_bytes()
        kind = HEADER.unpack_from(blob)[5]
        return {"": np.frombuffer(blob[HEADER.size:], "<c16" if kind == 0 else "<f8")}
    if path.suffix != ".csv":
        return None
    rows = [ln.split(",") for ln in path.read_text().splitlines() if not ln.startswith("#")]
    names, cells = rows[0], rows[1:]
    if cells and number(cells[0][0]) is None:
        return {f"{name}[{row[0]}]": np.array([number(cell)]) for row in cells
                for name, cell in zip(names[1:], row[1:])}
    cols = {name: np.array([float(r[i]) for r in cells]) for i, name in enumerate(names)}
    if names[:2] == ["x", "y"]:  # a field dump: one complex or real field
        return {"": cols["re"] + 1j * cols["im"] if "re" in cols else cols["value"]}
    return cols


worst = {}  # kind -> (relative L-infinity, base peak, run, absolute L-infinity)
for b in sorted(p for p in base.rglob("*") if p.is_file()):
    rel = b.relative_to(base)
    h = head / rel
    if not h.is_file() or b.read_bytes() == h.read_bytes():
        continue
    stem = re.sub(r"_\d{3}$", "_NNN", b.stem) + b.suffix
    old, new = fields(b), fields(h)
    if old is None or new is None or old.keys() != new.keys() or any(
            old[k].shape != new[k].shape for k in old):
        worst.setdefault(stem, (np.inf, np.nan, str(rel.parent), np.nan))  # text, or a changed layout
        continue
    for k in old:
        peak = np.max(np.abs(old[k]), initial=0.0)
        gap = np.max(np.abs(new[k] - old[k]), initial=0.0)
        change = gap / peak if peak > 0 else (0.0 if gap == 0 else np.inf)
        kind = f"{stem}:{k}" if k else stem
        rel_worst, rel_peak, rel_run, abs_worst = worst.get(kind, (-1.0, np.nan, "", 0.0))
        if change >= rel_worst:
            rel_worst, rel_peak, rel_run = change, peak, str(rel.parent)
        worst[kind] = (rel_worst, rel_peak, rel_run, max(gap, abs_worst))

print(f"{'output kind':<48} {'worst rel. Linf':>15} {'worst abs.':>10} {'base peak':>10}  run")
for kind, (change, peak, run, gap) in sorted(worst.items()):
    shown = "text" if np.isnan(peak) else f"{change:.3g}"
    print(f"{kind:<48} {shown:>15} {gap:>10.3g} {peak:>10.3g}  {run}")
PY
}

run_all "$work/base" "$work/out-base"
run_all "$head" "$work/out-head"
if ! diff -rq "$work/out-base" "$work/out-head"; then
  explain "$work/out-base" "$work/out-head"
  exit 1
fi
