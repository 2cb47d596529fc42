"""Workload plans and output checks for the vortexdiff benchmark.

A plan is a list of CLI invocations that run one after another, each as a
fresh process.  Checks read only what an invocation wrote (files and
stdout) plus the config it was given.  They use the standard library alone,
so the benchmark does not lean on the package API it measures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("cli_session", "scaled_spectral", "cross_scheme")

SHIPPED = ("vortex", "gaussian", "blocked", "plane_wave", "sweep", "echo")
# Half-width of the generated scenarios' box: contains LG_0^2 up to s = 5.
EXTENT = 16.0

# Relative tolerance of the retrieval efficiency against s^-(|m|+1).  The
# explicit FD scheme is second order in dx; its bound is 2e-3 at dx = 1/16
# and scales with dx^2 for other grids.
EXACT_SCHEME_TOL = 1e-6
FD_TOL_AT_DX16 = 2e-3
POPULATION_DRIFT_TOL = 1e-3
ECHO_TOL = 1e-10

Check = Callable[["Invocation", str], "list[str]"]


@dataclass
class Invocation:
    """One `python -m vortexdiff.cli` process and what its outputs must satisfy."""

    name: str
    args: list[str]
    out_dir: Path
    fmt: str
    samples: int
    checks: list[Check] = field(default_factory=list)

    def cli_args(self) -> list[str]:
        return ["--out-dir", str(self.out_dir), "--format", self.fmt, "--threads", "1", *self.args]


@dataclass
class Plan:
    invocations: list[Invocation]
    params: dict
    largest_n: int


def read_cfg(path: Path) -> dict[str, str]:
    """key = value pairs of a scenario config, comments stripped."""
    out = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def read_table(path: Path) -> dict[str, list[float]]:
    """Numeric CSV table with `#` comment lines, keyed by column name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    names = rows[0]
    return {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(names)}


def render_cfg(m: int, n: int, times: list[float], scheme: str, outputs: str) -> str:
    return "\n".join([
        "mode.kind = lg", "mode.p = 0", f"mode.m = {m}", "mode.w0 = 1.0", "mode.P = 1.0",
        f"grid.n = {n}", f"grid.extent = {EXTENT!r}", "diffusion.D = 1.0",
        "diffusion.times = [" + ", ".join(repr(t) for t in times) + "]",
        f"solver.scheme = {scheme}", "eta = 1e-12", f"outputs = {outputs}",
        "out_dir = out/bench",
    ]) + "\n"


# ---------------------------------------------------------------- checks


def check_manifest(inv: Invocation, stdout: str) -> list[str]:
    """Every manifest entry names a file whose SHA-256 and size match."""
    path = inv.out_dir / "manifest.json"
    if not path.exists():
        return ["manifest.json missing"]
    errors = []
    for entry in json.loads(path.read_text())["files"]:
        blob_path = inv.out_dir / entry["path"]
        if not blob_path.exists():
            errors.append(f"{entry['path']}: listed but missing")
            continue
        digest, size = file_digest(blob_path)
        if digest != entry["sha256"] or size != entry["bytes"]:
            errors.append(f"{entry['path']}: checksum or size differs from manifest")
    return errors


def population_check(inv: Invocation, stdout: str) -> list[str]:
    """total_population in fidelity.csv stays within POPULATION_DRIFT_TOL of its start."""
    pops = read_table(inv.out_dir / "fidelity.csv")["total_population"]
    drift = max(abs(p / pops[0] - 1) for p in pops)
    return [f"total_population drifts by {drift:.3g}"] if drift > POPULATION_DRIFT_TOL else []


def fidelity_check(m: int, scheme: str, dx: float, D: float = 1.0, w0: float = 1.0) -> Check:
    """efficiency(t) in fidelity.csv against s^-(|m|+1), plus the population drift."""
    tol = FD_TOL_AT_DX16 * (16 * dx) ** 2 if scheme == "fd" else EXACT_SCHEME_TOL

    def check(inv: Invocation, stdout: str) -> list[str]:
        data = read_table(inv.out_dir / "fidelity.csv")
        errors = population_check(inv, stdout)
        for t, eff in zip(data["t"], data["efficiency"]):
            expect = ((w0**2 + 4 * D * t) / w0**2) ** -(abs(m) + 1)
            if abs(eff / expect - 1) > tol:
                errors.append(f"efficiency at t={t:g} is {eff:.12g}, expected {expect:.12g}")
        return errors

    return check


def fit_preference_check(model: str) -> Check:
    """fit.csv marks `model` as the preferred decay law."""
    def check(inv: Invocation, stdout: str) -> list[str]:
        rows = {r[0]: r for r in csv.reader(
            ln for ln in (inv.out_dir / "fit.csv").read_text().splitlines() if not ln.startswith("#"))}
        return [] if rows.get(model, ["", "", "", "", "0"])[4] == "1" else [f"fit does not prefer {model}"]
    return check


def sweep_check(ms: list[int]) -> Check:
    """Each efficiency_m<k> column of sweep_fidelity.csv against s^-(k+1)."""
    def check(inv: Invocation, stdout: str) -> list[str]:
        data = read_table(inv.out_dir / "sweep_fidelity.csv")
        errors = []
        for m in ms:
            for s, eff in zip(data["s"], data[f"efficiency_m{m}"]):
                if abs(eff / s ** -(m + 1) - 1) > EXACT_SCHEME_TOL:
                    errors.append(f"sweep m={m} at s={s:g}: efficiency {eff:.12g}")
        return errors
    return check


def fit_stdout_check(exponent: float) -> Check:
    """The power law is preferred and its exponent is -(m+1)."""
    def check(inv: Invocation, stdout: str) -> list[str]:
        for line in stdout.splitlines():
            if line.startswith("power law"):
                got = float(line.split("s(t)^", 1)[1].split()[0])
                ok = line.rstrip().endswith("preferred") and abs(got - exponent) < 1e-6
                return [] if ok else [f"fit line wrong: {line.strip()}"]
        return ["fit printed no power-law line"]
    return check


def compare_blocked_check(inv: Invocation, stdout: str) -> list[str]:
    """The blocked hole refills monotonically; the vortex core stays dark."""
    data = read_table(inv.out_dir / "compare_blocked.csv")
    blocked, vortex = data["blocked_refill"], data["vortex_refill"]
    errors = []
    if any(b <= a for a, b in zip(blocked, blocked[1:])):
        errors.append("blocked refill is not increasing")
    if max(abs(v) for v in vortex) > 1e-10:
        errors.append("vortex core refilled")
    return errors


def echo_check(inv: Invocation, stdout: str) -> list[str]:
    rows = dict(csv.reader(
        ln for ln in (inv.out_dir / "echo_report.csv").read_text().splitlines() if not ln.startswith("#")))
    err = float(rows["echo_roundtrip_l2_error"])
    return [] if err <= ECHO_TOL else [f"echo round-trip error {err:.3g}"]


# ---------------------------------------------------------------- plans


def _simulate_checks(cfg: dict[str, str]) -> list[Check]:
    checks: list[Check] = [check_manifest]
    outputs = cfg.get("outputs", "fidelity_trace")
    if "fidelity_trace" in outputs:
        if cfg["mode.kind"] == "lg" and int(cfg.get("mode.p", "0")) == 0:
            dx = 2 * float(cfg["grid.extent"]) / int(cfg["grid.n"])
            checks.append(fidelity_check(int(cfg.get("mode.m", "0")), cfg.get("solver.scheme", "spectral"),
                                         dx, float(cfg["diffusion.D"]), float(cfg.get("mode.w0", "1.0"))))
        else:
            checks.append(population_check)
    if "fit" in outputs:
        checks.append(fit_preference_check("exponential" if cfg["mode.kind"] == "plane_wave" else "power_law"))
    return checks


def cli_session_plan(root: Path, work: Path) -> Plan:
    """The README quick start: every shipped scenario, then each other subcommand."""
    scen = root / "scenarios"
    cfgs = {name: read_cfg(scen / f"{name}.cfg") for name in SHIPPED}

    def samples(name: str, modes: int = 1) -> int:
        times = cfgs[name]["diffusion.times"].strip("[]").split(",")
        return int(cfgs[name]["grid.n"]) ** 2 * len(times) * modes

    invs = [Invocation(f"simulate-{name}", ["simulate", str(scen / f"{name}.cfg")], work / f"simulate-{name}",
                       "csv", samples(name), _simulate_checks(cfgs[name])) for name in SHIPPED]
    sweep_ms = list(range(5))
    echo_n = int(cfgs["echo"]["grid.n"])
    invs += [
        Invocation("sweep", ["sweep", "--param", "m=0..4", str(scen / "sweep.cfg")], work / "sweep", "csv",
                   samples("sweep", len(sweep_ms)), [sweep_check(sweep_ms)]),
        Invocation("nodes", ["nodes", str(scen / "vortex.cfg")], work / "nodes", "csv", samples("vortex")),
        Invocation("compare-blocked", ["compare-blocked", str(scen / "blocked.cfg")], work / "compare-blocked",
                   "csv", samples("blocked", 2), [compare_blocked_check]),
        # forward evolution plus its echo, at the last configured time
        Invocation("echo", ["echo", str(scen / "echo.cfg")], work / "echo", "csv", 2 * echo_n**2, [echo_check]),
        Invocation("fit", ["fit", str(work / "simulate-sweep" / "fidelity.csv")], work / "fit", "csv", 0,
                   [fit_stdout_check(-1.0)]),
    ]
    return Plan(invs, {}, max(int(c["grid.n"]) for c in cfgs.values()))


def generated_plan(workload: str, work: Path, seed: int, n: int | None = None) -> Plan:
    """A seeded LG_0^m scenario (m drawn from {0, 1, 2}) on a fixed grid and time set.

    Every seed does the same transform work; only the stored mode differs.
    """
    m = random.Random(seed).choice((0, 1, 2))
    if workload == "scaled_spectral":
        n = n or 1024
        times = [i / 15 for i in range(16)]
        runs = [("spectral", "snapshots, radial_profiles, coherence_factor, fidelity_trace, center_trace, nodes")]
    else:
        n = n or 512
        times = [0.0, 0.125, 0.25, 0.5]
        outputs = "radial_profiles, coherence_factor, fidelity_trace, center_trace"
        runs = [(scheme, outputs) for scheme in ("spectral", "fd", "kernel")]
    work.mkdir(parents=True, exist_ok=True)
    invs = []
    for scheme, outputs in runs:
        cfg_path = work / f"{workload}-{scheme}.cfg"
        cfg_path.write_text(render_cfg(m, n, times, scheme, outputs))
        invs.append(Invocation(
            f"simulate-{scheme}", ["simulate", str(cfg_path)], work / f"simulate-{scheme}", "vxf",
            n * n * len(times), [check_manifest, fidelity_check(m, scheme, 2 * EXTENT / n)]))
    return Plan(invs, {"m": m, "n": n, "times": times}, n)


def make_plan(workload: str, root: Path, work: Path, seed: int, n: int | None = None) -> Plan:
    """The plan of one workload; n overrides the grid size of the generated ones."""
    if workload == "cli_session":
        return cli_session_plan(root, work)
    if workload in WORKLOADS:
        return generated_plan(workload, work, seed, n)
    raise ValueError(f"unknown workload {workload!r}")


def run_checks(inv: Invocation, stdout: str) -> list[str]:
    """Every check of an invocation that exited 0; a check that cannot read its output fails."""
    errors = []
    for check in inv.checks:
        try:
            errors += check(inv, stdout)
        except Exception as exc:
            errors.append(f"{getattr(check, '__qualname__', check)}: {type(exc).__name__}: {exc}")
    return errors


def file_digest(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            h.update(chunk)
            size += len(chunk)
    return h.hexdigest(), size


def outputs_digest(out_dir: Path) -> str:
    """One digest over what an invocation wrote, file names included.

    Where a manifest exists, check_manifest has tied every listed file to it,
    so the manifest's bytes stand for their contents.
    """
    h = hashlib.sha256()
    paths = sorted(out_dir.iterdir())
    manifest = out_dir / "manifest.json"
    for path in paths:
        h.update(path.name.encode() + b"\0")
        if not manifest.exists() or path == manifest:
            h.update(file_digest(path)[0].encode())
    return h.hexdigest()
