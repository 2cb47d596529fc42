"""vortexdiff benchmark: timed CLI sessions with correctness checks.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli_session, scaled_spectral, cross_scheme, or `all`.  Every
invocation is a fresh `python -m vortexdiff.cli` process (PYTHONPATH=src,
--threads 1), run one after another by a single closed-loop client.  The
plan runs once in full, then cycles on, one invocation at a time, while the
next one fits in --seconds.  Each metric sums (or, for memory, takes the
largest of) the invocations' medians over their runs, so it describes one
pass of the plan.  Every output is checked; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced pass,
then traced runs through launch.py, and reports per-layer metrics built from
the recorded spans.  Scratch files and a detail record of the last run go to
.perfbench/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

# Stop starting work after this long, and kill a child that runs past it, so
# a run ends well within its 180 s allowance.
RUN_LIMIT_S = 165.0
SETUP_REPEATS = 3

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "msamples_per_s": "Msample/s",
}
LAYERS = ("cli", "config", "modes", "analytic", "solvers", "grid", "analysis", "fieldio", "scenario")
# metric -> functions whose outermost spans' inclusive time is summed
FUNCTION_TIME = {
    "solvers.spectral_s": ("solvers.diffuse_spectral",),
    "solvers.fd_s": ("solvers.diffuse_fd",),
    "solvers.kernel_s": ("solvers.diffuse_kernel",),
    "solvers.quantum_s": ("solvers.evolve_quantum", "solvers.echo_reverse"),
    "fieldio.csv_field_s": ("fieldio.write_field_csv",),
    "fieldio.vxf_field_s": ("fieldio.write_field",),
    "fieldio.table_s": ("fieldio.write_table_csv",),
}
# metric -> function whose calls are counted
FUNCTION_CALLS = {
    "config.render_calls": "config.render_config",
    "analytic.snapshot_calls": "analytic.StateSnapshot.__post_init__",
    "solvers.evolve_calls": "solvers.evolve_snapshot",
    "grid.azimuthal_calls": "grid.azimuthal_average",
    "analysis.coherence_calls": "analysis.coherence_factor_field",
}
CSV_BYTES = "fieldio.csv_field_bytes"  # internal: the numerator of csv_field_mb_per_s
# metric -> launcher counter
COUNTERS = {
    "solvers.fft2d_calls": "fft2d_calls",
    "solvers.fft2d_points": "fft2d_points",
    "scenario.hashed_bytes": "scenario.hashed_bytes",
}


@dataclass
class InvocationResult:
    name: str
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    digest: str
    errors: list[str]
    spans: dict | None = None


class Runner:
    """Starts child processes against one checkout, within one run's deadline."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def spawn(self, argv: list[str], stdout, stderr) -> tuple[int, float, os.struct_rusage | None]:
        """Run one child to completion; returns exit code, wall seconds and its rusage."""
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            return -1, 0.0, None
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=stdout, stderr=stderr)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter that only imports vortexdiff.cli."""
        code, wall, _ = self.spawn([sys.executable, "-c", "import vortexdiff.cli"],
                                   subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError("importing vortexdiff.cli failed")
        return wall

    def import_times(self) -> tuple[float, float]:
        """Total and scipy import seconds of `import vortexdiff.cli`, from -X importtime."""
        err = self.work / "importtime.txt"
        with open(err, "w") as fh:
            code, _, _ = self.spawn([sys.executable, "-X", "importtime", "-c", "import vortexdiff.cli"],
                                    subprocess.DEVNULL, fh)
        if code != 0:
            raise RuntimeError("importing vortexdiff.cli failed")
        return parse_importtime(err.read_text())

    def run_invocation(self, idx: int, inv: workloads.Invocation, traced: bool) -> InvocationResult:
        """One CLI process in a fresh output directory, then the checks of its outputs."""
        if inv.out_dir.exists():
            shutil.rmtree(inv.out_dir)
        inv.out_dir.mkdir(parents=True)
        spans_file = self.work / f"spans-{idx}.json"
        spans_file.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "launch.py"), str(spans_file), f"{idx}-{inv.name}", "--"]
        else:
            argv = [sys.executable, "-m", "vortexdiff.cli"]
        out_path = self.work / f"{inv.name}.stdout"
        with open(out_path, "w") as out, open(self.work / f"{inv.name}.stderr", "w") as err:
            code, wall, usage = self.spawn(argv + inv.cli_args(), out, err)
        errors = workloads.run_checks(inv, out_path.read_text()) if code == 0 else [f"exit code {code}"]
        return InvocationResult(
            inv.name, traced, code, wall,
            usage.ru_utime + usage.ru_stime if usage else 0.0,
            usage.ru_maxrss / 1024.0 if usage else 0.0,
            workloads.outputs_digest(inv.out_dir), errors,
            json.loads(spans_file.read_text()) if spans_file.exists() else None)

    def measure(self, plan: workloads.Plan, traced: bool, seconds: float) -> list[list[InvocationResult]]:
        """Cycle through the plan one invocation at a time; returns the runs of each invocation.

        The first full pass always runs.  After it, the next invocation runs
        only while its typical time still fits in `seconds`, so short
        invocations of a long plan get more samples instead of idle time.
        """
        runs: list[list[InvocationResult]] = [[] for _ in plan.invocations]
        start = perf_counter()
        for k in itertools.count():
            idx = k % len(runs)
            if k >= len(runs):
                typical = statistics.median(r.wall_s for r in runs[idx])
                now = perf_counter()
                if now - start + typical > seconds or now + 2 * typical > self.deadline:
                    break
            runs[idx].append(self.run_invocation(idx, plan.invocations[idx], traced))
        return runs


def summed_median(runs: list[list[InvocationResult]], fn) -> float:
    """A pass's total, from each invocation's median over its runs."""
    return sum(statistics.median(fn(r) for r in inv_runs) for inv_runs in runs)


def parse_importtime(text: str) -> tuple[float, float]:
    """Sum of top-level cumulative import times, and of the outermost scipy imports."""
    entries = []  # (depth, name, cumulative seconds), children listed before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    total = sum(cum for depth, _, cum in entries if depth == 0)
    scipy_total = 0.0
    ancestors: list[bool] = []  # per depth: is that ancestor a scipy module?
    for depth, name, cum in reversed(entries):  # reversed post-order visits parents first
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(ancestors):
            scipy_total += cum
        ancestors.append(is_scipy)
    return total, scipy_total


def union_length(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def layer_metrics(rec: dict) -> dict[str, float | None]:
    """Additive per-layer metrics of one traced process; None marks a metric whose function is gone.

    The rate csv_field_mb_per_s is left out; pass_layer_metrics derives it.
    """
    wrapped = set(rec["wrapped"])
    counters = rec["counters"]
    spans = rec["spans"]
    self_s = {layer: 0.0 for layer in LAYERS}
    calls: dict[str, int] = {}
    inclusive = {metric: 0.0 for metric in FUNCTION_TIME}
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(i)
    for i, (name, layer, start, end, parent) in enumerate(spans):
        if end is None:
            continue
        covered = union_length([(spans[c][2], spans[c][3]) for c in children[i] if spans[c][3] is not None])
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - covered
        calls[name] = calls.get(name, 0) + 1
        for metric, names in FUNCTION_TIME.items():
            if name in names and not _has_ancestor(spans, parent, names):
                inclusive[metric] += end - start

    present = {name.partition(".")[0] for name in wrapped}
    out: dict[str, float | None] = {f"{layer}.self_s": self_s[layer] if layer in present else None
                                    for layer in LAYERS}
    for metric, names in FUNCTION_TIME.items():
        out[metric] = inclusive[metric] if wrapped & set(names) else None
    for metric, name in FUNCTION_CALLS.items():
        out[metric] = calls.get(name, 0) if name in wrapped else None
    for metric, key in COUNTERS.items():
        out[metric] = counters.get(key, 0)
    writers = [n for n in wrapped if n.startswith("fieldio.write_")]
    out["fieldio.bytes"] = sum(counters.get(f"{n}.bytes", 0) for n in writers) if writers else None
    out[CSV_BYTES] = counters.get("fieldio.write_field_csv.bytes", 0)
    return out


def pass_layer_metrics(runs: list[list[InvocationResult]]) -> dict[str, float | None]:
    """Per-layer metrics of one pass: each invocation's median over its traced runs, summed."""
    per_invocation = [[layer_metrics(r.spans) for r in inv_runs if r.spans] for inv_runs in runs]
    per_invocation = [ms for ms in per_invocation if ms]
    if not per_invocation:
        return {}
    out: dict[str, float | None] = {}
    for key in per_invocation[0][0]:
        values = [[m[key] for m in ms] for ms in per_invocation]
        out[key] = None if any(None in v for v in values) else sum(statistics.median(v) for v in values)
    csv_bytes, csv_s = out.pop(CSV_BYTES), out["fieldio.csv_field_s"]
    out["fieldio.csv_field_mb_per_s"] = None if csv_s is None else (csv_bytes / 1e6 / csv_s if csv_s else 0.0)
    return out


def _has_ancestor(spans: list, parent: int, names) -> bool:
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][4]
    return False


def environment(plan: workloads.Plan) -> dict:
    """Machine and library versions, read without importing the measured libraries."""
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    for lib in ("numpy", "scipy"):
        try:
            env[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            env[lib] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                env[f"l{level}_per_instance"] = (index / "size").read_text().strip()
        except OSError:
            pass
    n = plan.largest_n
    env["largest_field"] = {"n": n, "complex_field_mib": n * n * 16 / 2**20, "real_field_mib": n * n * 8 / 2**20}
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool, state: Path = STATE,
                 n: int | None = None) -> dict:
    """One benchmark run of one workload; returns the result record."""
    started = perf_counter()
    work = state / "work"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner(ROOT, work, started + RUN_LIMIT_S)
    plan = workloads.make_plan(name, ROOT, work, seed, n)
    record: dict = {"workload": name, "seed": seed, "trace": int(trace), "params": plan.params,
                    "environment": environment(plan)}

    if trace:
        imports = [runner.import_times() for _ in range(SETUP_REPEATS)]
        measure_start = perf_counter()
        # one untraced pass: the base of trace.overhead_ratio and of the output comparison
        base = runner.measure(plan, traced=False, seconds=0)
        runs = runner.measure(plan, traced=True, seconds=seconds - (perf_counter() - measure_start))
        all_runs = [b + r for b, r in zip(base, runs)]
    else:
        setups = [runner.setup_time() for _ in range(SETUP_REPEATS)]
        runs = all_runs = runner.measure(plan, traced=False, seconds=seconds)

    attempted = failed = 0
    for inv_runs in all_runs:
        for r in inv_runs:
            if r.digest != inv_runs[0].digest:
                r.errors.append("outputs differ from the invocation's first run")
            attempted += 1
            failed += bool(r.errors)
    record["runs"] = [[{k: v for k, v in asdict(r).items() if k != "spans"} for r in inv_runs]
                      for inv_runs in all_runs]
    record["output_digests"] = {inv_runs[0].name: inv_runs[0].digest for inv_runs in all_runs}
    record["attempted"], record["failed"] = attempted, failed
    record["fail_ratio"] = failed / attempted
    wall = summed_median(runs, lambda r: r.wall_s)

    if trace:
        metrics = pass_layer_metrics(runs)
        metrics["setup.import_s"] = statistics.median(t for t, _ in imports)
        metrics["setup.scipy_import_s"] = statistics.median(s for _, s in imports)
        metrics["trace.overhead_ratio"] = wall / summed_median(base, lambda r: r.wall_s) - 1
        record["spans"] = [r.spans for inv_runs in runs for r in inv_runs if r.spans]
    else:
        samples = sum(inv.samples for inv in plan.invocations)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "cpu_s": summed_median(runs, lambda r: r.cpu_s),
            "peak_rss_mb": max(statistics.median(r.maxrss_mb for r in inv_runs) for inv_runs in runs),
            "msamples_per_s": samples / 1e6 / wall if wall else 0.0,
        }
    record["metrics"] = metrics
    shutil.rmtree(work)
    return record


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_s", "s"), ("_calls", "count"), ("_points", "count"),
                         ("bytes", "B")):
        if metric.endswith(suffix):
            return unit
    return "1"


def report(record: dict) -> dict:
    """Print the human-readable summary; return the contract's metrics mapping."""
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  params {json.dumps(record['params'])}")
    print(f"  machine: {env.get('nproc')} cpus, {env.get('cpu_model')}, L2 {env.get('l2_per_instance')}, "
          f"L3 {env.get('l3_per_instance')}; python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    field = env["largest_field"]
    print(f"  largest field: n={field['n']}, complex {field['complex_field_mib']:g} MiB")
    counts = ", ".join(f"{runs[0]['name']} x{len(runs)}" for runs in record["runs"])
    print(f"  runs: {counts}; attempted {record['attempted']}, failed {record['failed']}")
    for runs in record["runs"]:
        for r in runs:
            for err in r["errors"]:
                print(f"  FAIL {r['name']}: {err}")
    metrics = {}
    for name, value in record["metrics"].items():
        unit = unit_of(name)
        if value is None:
            print(f"  {name:28s} absent (its function is no longer in the package)", file=sys.stderr)
            continue
        print(f"  {name:28s} {value:14.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    if not record["trace"]:
        print(f"  {'fail_ratio':28s} {record['fail_ratio']:14.6g} 1")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/vortexdiff/cli.py", "scenarios/vortex.cfg") if not (ROOT / p).exists()]
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}; nothing to measure", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results, metrics = [], {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        STATE.mkdir(exist_ok=True)
        (STATE / f"last-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        shown = report(record)
        metrics.update(shown if len(names) == 1 else {f"{name}.{k}": v for k, v in shown.items()})
        results.append(record)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
