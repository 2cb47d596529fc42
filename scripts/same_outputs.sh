#!/usr/bin/env bash
# Byte-identity check: run every shipped scenario and subcommand from a base
# revision and from this working tree, then compare the outputs.
#
#   scripts/same_outputs.sh <base-rev>
#
# The base revision is checked out with `git worktree` into a temporary
# directory, which is removed on exit.  Each tree runs its own code on its
# own scenarios.  The script prints nothing and exits 0 when every manifest,
# table and dump is byte-identical; otherwise `diff -r` shows what differs
# and the exit status is nonzero.  Needs only Python with numpy.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
head=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
  git -C "$head" worktree remove --force "$work/base" 2> /dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT
git -C "$head" worktree add --quiet --detach "$work/base" "$1"

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
    cli --out-dir "$2/echo" echo scenarios/echo.cfg > /dev/null
    cli --out-dir "$2/sweep" sweep --param m=0..4 scenarios/sweep.cfg > /dev/null
    cli --out-dir "$2/compare-blocked" compare-blocked scenarios/blocked.cfg > /dev/null
    cli --out-dir "$2/nodes" nodes scenarios/vortex.cfg > /dev/null
    # fit prints its result; its stdout is an output to compare too
    cli fit "$2/simulate-csv-sweep/fidelity.csv" > "$2/fit.stdout"
  )
}

run_all "$work/base" "$work/out-base"
run_all "$head" "$work/out-head"
diff -r "$work/out-base" "$work/out-head"
