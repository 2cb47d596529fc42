"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  All
tolerances are pinned here, not calibrated elsewhere.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

import vortexdiff as vd

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def rel_linf(values, reference) -> float:
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


def lg(m, grid, p=0, P=1.0):
    return vd.lg_field(vd.ModeSpec(kind=vd.ModeKind.LG, p=p, m=m, w0=1.0, P=P), grid)


def test_criterion_01_closed_form_oracle_equivalence():
    """Spectral evolution of LG_p^m matches the closed form pointwise.

    The closed form is the free-space solution.  At t = 1 (evolution factor
    s = 5) the mandated [-8, 8) box is smaller than the containment rule
    demands (extent >= 4 w0 sqrt(s_max (1+|m|+p))), so these cases check
    that the spectral step treats an LG field as free space (zero-padded,
    not periodically wrapped); the t <= 0.25 cases need no padding.
    """
    grid = vd.make_grid(256, 8.0)
    r, theta = grid.radius(), grid.theta()
    failures = []
    for m, p in ((0, 0), (1, 0), (2, 0), (1, 1), (0, 2)):
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=p, m=m, w0=1.0, P=1.0)
        field = vd.lg_field(spec, grid)
        for t in (0.1, 0.25, 1.0):
            start = time.perf_counter()
            evolved = vd.diffuse_spectral(field, 1.0, t)
            reference, _, _ = vd.lg_closed_form(spec, 1.0, t, r, theta)
            err = rel_linf(evolved.values, reference)
            elapsed = time.perf_counter() - start
            ok = err <= 1e-6 and elapsed < 1.0
            if not ok:
                failures.append((m, p, t, err))
            print(f"    m={m} p={p} t={t}: rel Linf {err:.3e}  ({elapsed * 1e3:.0f} ms)")
    detail = "spectral vs closed form <= 1e-6 ((m, p) in (0..2, 0), (1, 1), (0, 2); t in {0.1, 0.25, 1})"
    if failures:
        detail += f"; {len(failures)} case(s) above tolerance: " + ", ".join(
            f"(m={m}, p={p}, t={t}: {e:.2e})" for m, p, t, e in failures
        )
    assert report(1, not failures, detail), (
        "spectral step departs from the free-space closed form; at t = 1 a "
        "field that is not padded beyond the [-8, 8) box meets its periodic images"
    )


def test_criterion_02_population_oracle_equivalence():
    grid = vd.make_grid(256, 8.0)
    r = grid.radius()
    worst = 0.0
    for m, p in ((1, 0), (0, 0), (1, 1), (0, 2)):
        spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=p, m=m, w0=1.0, P=1.0)
        snap = vd.initial_snapshot(vd.lg_field(spec, grid))
        for t in (0.0625, 0.125, 0.25):
            out = vd.evolve_snapshot(snap, 1.0, t, vd.SolverConfig())
            _, reference, _ = vd.lg_closed_form(spec, 1.0, t, r)
            worst = max(worst, rel_linf(out.rho22, reference))
    ok = worst <= 1e-5
    assert report(
        2, ok,
        f"diffused |rho12(0)|^2 matches the closed-form population profiles, worst {worst:.3e} <= 1e-5",
    )


def test_criterion_03_fidelity_power_law():
    grid = vd.make_grid(512, 16.0)
    times = np.linspace(0.0, 0.75, 8)
    traces = {}
    worst_q_err = 0.0
    for m in range(4):
        field = lg(m, grid)
        effs = [vd.retrieval_efficiency(vd.diffuse_spectral(field, 1.0, t), field)
                for t in times]
        traces[m] = effs
        power, _ = vd.fit_decay(times, effs, [vd.evolution_factor(t, 1.0, 1.0) for t in times])
        q_err = abs(power.exponent + (m + 1)) / (m + 1)
        worst_q_err = max(worst_q_err, q_err)
        print(f"    m={m}: fitted exponent {power.exponent:.6f} (target {-(m + 1)})")
    ordering = all(
        traces[0][i] > traces[1][i] > traces[2][i] > traces[3][i]
        for i in range(1, len(times))
    )
    ok = worst_q_err <= 0.01 and ordering
    assert report(
        3, ok,
        f"power-law exponents within 1% (worst {worst_q_err:.2e}) and "
        f"Gaussian-beats-vortex ordering at every sampled t > 0: {ordering}",
    )


def test_criterion_04_plane_wave_rate():
    grid = vd.make_grid(256, 8.0)
    times = np.linspace(0.0, 0.02, 8)
    worst = 0.0
    for j in (10, 16):  # grid-periodic k = j pi / extent
        k = j * math.pi / grid.extent
        wave = vd.plane_wave(vd.ModeSpec(kind=vd.ModeKind.PLANE_WAVE, k=k), grid)
        values = [vd.retrieval_efficiency(vd.diffuse_spectral(wave, 1.0, t), wave)
                  for t in times]
        power, expo = vd.fit_decay(times, values, [vd.evolution_factor(t, 1.0, 1.0) for t in times])
        rate_err = abs(expo.rate - 2.0 * k * k) / (2.0 * k * k)
        worst = max(worst, rate_err)
        assert expo.preferred and not power.preferred
        print(f"    k={k:.4f}: rate {expo.rate:.6f} vs 2Dk^2 {2 * k * k:.6f}")
    ok = worst <= 5e-3
    assert report(4, ok, f"intensity decay rate = 2Dk^2 within 0.5% for two k (worst {worst:.2e})")


def test_criterion_05_radial_index_penalty():
    grid = vd.make_grid(256, 8.0)
    f01, f11 = lg(1, grid), lg(1, grid, p=1)
    times = (0.05, 0.1, 0.15, 0.2, 0.25)
    strictly_below = True
    margin_at_s2 = 0.0
    oracle_gap = 0.0
    for t in times:
        e01 = vd.retrieval_efficiency(vd.diffuse_spectral(f01, 1.0, t), f01)
        e11 = vd.retrieval_efficiency(vd.diffuse_spectral(f11, 1.0, t), f11)
        strictly_below &= e11 < e01
        if t == 0.25:
            margin_at_s2 = (e01 - e11) / e01
        # the [-8, 8) box crops these modes by t = 1, so the oracle stops at s = 2
        for eff, p in ((e01, 0), (e11, 1)):
            spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=p, m=1)
            oracle_gap = max(oracle_gap, abs(eff - vd.lg_closed_form(spec, 1.0, t, 0.0)[2]))
    ok = strictly_below and margin_at_s2 >= 0.05 and oracle_gap <= 1e-9
    assert report(
        5, ok,
        f"LG_1^1 below LG_0^1 at {len(times)} times, margin {margin_at_s2:.1%} >= 5% at 4Dt = w0^2; "
        f"both efficiencies within {oracle_gap:.1e} <= 1e-9 of the closed form",
    )


def test_criterion_06_center_diagnostics():
    grid = vd.make_grid(256, 8.0)
    P = 2.0 * math.pi
    field = lg(1, grid, P=P)
    snap0 = vd.initial_snapshot(field)
    eta = 1e-12
    times = (0.05, 0.075, 0.1, 0.125, 0.15, 0.2, 0.25)
    i0 = grid.origin_index

    rho22_center, rho12_center, f_center = [], [], []
    for t in times:
        out = vd.evolve_snapshot(snap0, 1.0, t, vd.SolverConfig())
        rho22_center.append(vd.center_intensity(out))
        rho12_center.append(abs(out.rho12.values[i0, i0]))
        cf = vd.coherence_factor_field(out, eta)
        f_center.append(float(cf.values[i0, i0]))

    t_star, peak = vd.center_population_peak_m1(1.0, 1.0, P)
    argmax = int(np.argmax(rho22_center))
    peak_at_tstar = abs(times[argmax] - t_star) <= 0.026  # one time-sample
    peak_value_ok = abs(rho22_center[argmax] - peak) / peak <= 1e-3
    pinned = max(rho12_center) <= 1e-10
    cf0 = vd.coherence_factor_field(snap0, eta)
    pure_at_zero = abs(cf0.values[i0, i0] - 1.0) <= 1e-12
    incoherent_after = max(f_center) <= 2 * eta
    ok = peak_at_tstar and peak_value_ok and pinned and pure_at_zero and incoherent_after
    assert report(
        6, ok,
        f"rho22(0) peaks at t={times[argmax]} (t*={t_star}), value {rho22_center[argmax]:.6f} "
        f"vs {peak:.6f}; |rho12(0)| <= {max(rho12_center):.1e}; f(0): 1 -> <= {max(f_center):.1e}",
    )


def test_criterion_07_conservation_on_shipped_scenarios():
    ok = True
    details = []
    for path in sorted(SCENARIOS.glob("*.cfg")):
        cfg = vd.parse_config(path.read_text())
        field = vd.build_mode(cfg.mode, cfg.grid)
        snap0 = vd.initial_snapshot(field)
        base = vd.total_population(snap0)
        horizon = cfg.mode.w0**2 / cfg.diffusion.D
        drift = 0.0
        for frac in (0.25, 0.5, 0.75, 1.0):
            out = vd.evolve_snapshot(snap0, cfg.diffusion.D, frac * horizon, cfg.solver)
            drift = max(drift, abs(vd.total_population(out) - base) / base)
        details.append(f"{path.stem}: {drift:.2e}")
        ok &= drift <= 1e-3
    assert report(7, ok, "total population drift <= 0.1% over [0, w0^2/D]: " + ", ".join(details))


def test_criterion_08_node_behavior():
    grid = vd.make_grid(256, 8.0)
    field = lg(1, grid, p=1)
    nbins, threshold = 200, 0.05
    bin_width = grid.extent / nbins

    def nodes_at(t):
        evolved = vd.diffuse_spectral(field, 1.0, t) if t > 0 else field
        prof = vd.azimuthal_average(evolved, nbins)
        return vd.find_radial_nodes(prof, rel_threshold=threshold, time=t).node_radii

    pre_merge_times = (0.0, 0.0625, 0.125, 0.1875)
    histories = {t: nodes_at(t) for t in pre_merge_times + (0.25,)}
    for t, radii in histories.items():
        print(f"    t={t}: nodes {['%.4f' % r for r in radii]}")

    center_pinned = all(radii and radii[0] <= bin_width for radii in histories.values())
    count_conserved = all(len(histories[t]) == 2 for t in pre_merge_times)
    r0 = histories[0.0][1]  # off-center node starts at w0
    starts_at_w0 = abs(r0 - 1.0) <= bin_width
    # by 4Dt = w0^2 the off-center node has migrated into the core (its
    # radius shrinks as r^2 = 8a(1 - 2a), a = 1/4 + Dt, reaching 0 exactly
    # at Dt = w0^2/4), so no off-center node remains anywhere near r0
    final_off_center = [r for r in histories[0.25] if r > bin_width]
    moved = all(abs(r - r0) > 2 * bin_width for r in final_off_center) if final_off_center else True
    migration = [histories[t][1] for t in pre_merge_times[1:] if len(histories[t]) > 1]
    monotone_inward = all(b < a for a, b in zip([r0] + migration, migration))
    ok = center_pinned and count_conserved and starts_at_w0 and moved and monotone_inward
    assert report(
        8, ok,
        f"center node fixed (<= 1 bin), count 2 while 4Dt < w0^2, off-center node "
        f"migrates {r0:.3f} -> {migration[-1]:.3f} -> merged at 4Dt = w0^2 (> 2 bins)",
    )


def test_criterion_09_hole_refilling():
    grid = vd.make_grid(256, 8.0)
    blocked = vd.blocked_gaussian(
        vd.ModeSpec(kind=vd.ModeKind.BLOCKED_GAUSSIAN, w0=1.0, P=1.0, block_radius=1.0), grid
    )
    vortex = lg(1, grid)
    times = (0.0, 0.05, 0.1, 0.15, 0.25)
    blocked_ratios = [
        vd.hole_refill_ratio(vd.diffuse_spectral(blocked, 1.0, t) if t else blocked, 1.0)
        for t in times
    ]
    vortex_ratios = [
        vd.hole_refill_ratio(vd.diffuse_spectral(vortex, 1.0, t) if t else vortex, 0.5)
        for t in times
    ]
    starts_empty = blocked_ratios[0] == 0.0
    monotone = all(b > a for a, b in zip(blocked_ratios, blocked_ratios[1:]))
    exceeds = blocked_ratios[-1] > 0.5
    vortex_dark = max(vortex_ratios) <= 1e-8
    ok = starts_empty and monotone and exceeds and vortex_dark
    assert report(
        9, ok,
        f"blocked hole refills 0 -> {blocked_ratios[-1]:.3f} (monotone, > 0.5 at 4Dt = w0^2); "
        f"vortex core stays <= {max(vortex_ratios):.1e}",
    )


def test_criterion_10_quantum_vs_classical():
    grid = vd.make_grid(256, 8.0)
    field = lg(1, grid)
    q = vd.QuantumParams(beta=1.0)
    t = 0.25
    forward = vd.evolve_quantum(field, q, t)
    norm_drift = abs(vd.l2_norm_sq(forward) / vd.l2_norm_sq(field) - 1.0)
    back = vd.echo_reverse(forward, q, t)
    echo_err = math.sqrt(
        vd.l2_norm_sq(vd.ComplexField2D(grid, back.values - field.values))
        / vd.l2_norm_sq(field)
    )
    try:
        vd.reverse_classical(forward, 1.0, t)
        refused, amplification = False, 0.0
    except vd.IrreversibleEvolutionError as err:
        refused, amplification = True, err.amplification
    ok = norm_drift <= 1e-12 and echo_err <= 1e-10 and refused and amplification >= 1e6
    assert report(
        10, ok,
        f"unitary norm drift {norm_drift:.1e} <= 1e-12, echo error {echo_err:.1e} <= 1e-10, "
        f"classical reversal refused with amplification {amplification:.3g} >= 1e6",
    )


def test_criterion_11_scheme_triangulation():
    D, t = 1.0, 0.25  # 4Dt = w0^2

    # pairwise agreement at converged resolution
    g512 = vd.make_grid(512, 8.0)
    f512 = lg(1, g512)
    spectral = vd.diffuse_spectral(f512, D, t)
    kernel = vd.diffuse_kernel(f512, D, t)
    fd = vd.diffuse_fd(f512, D, t, vd.SolverConfig(scheme=vd.Scheme.FD_EXPLICIT, cfl_safety=0.45))
    pair_sk = rel_linf(kernel.values, spectral.values)
    pair_sf = rel_linf(fd.values, spectral.values)
    pair_kf = rel_linf(fd.values, kernel.values)
    agreement = max(pair_sk, pair_sf, pair_kf)
    print(f"    spectral-kernel {pair_sk:.2e}, spectral-fd {pair_sf:.2e}, kernel-fd {pair_kf:.2e}")

    # second-order convergence of the FD scheme (dt proportional to dx^2)
    errors = {}
    for n in (256, 512):
        g = vd.make_grid(n, 8.0)
        f = lg(1, g)
        a = vd.diffuse_spectral(f, D, t)
        b = vd.diffuse_fd(f, D, t, vd.SolverConfig(scheme=vd.Scheme.FD_EXPLICIT, cfl_safety=0.9))
        errors[n] = rel_linf(b.values, a.values)
    order = math.log2(errors[256] / errors[512])
    ok = agreement <= 1e-4 and 1.7 <= order <= 2.3
    assert report(
        11, ok,
        f"pairwise agreement {agreement:.2e} <= 1e-4 on LG_0^1 at 4Dt = w0^2; "
        f"FD error {errors[256]:.2e} -> {errors[512]:.2e}, order {order:.2f} in [1.7, 2.3]",
    )


def test_criterion_12_determinism_and_formats(tmp_path):
    cfg_text = f"""
mode.kind = lg
mode.m = 1
diffusion.D = 1.0
diffusion.times = [0, 0.1, 0.25]
grid.n = 64
grid.extent = 8
nbins = 48
outputs = snapshots, radial_profiles, fidelity_trace
out_dir = {tmp_path / "det"}
"""
    cfg = vd.parse_config(cfg_text)
    m1 = vd.run_scenario(cfg, fmt="both")
    checks1 = {e.path: e.sha256 for e in m1.entries}
    manifest1 = m1.manifest_path.read_bytes()
    m2 = vd.run_scenario(cfg, fmt="both")
    identical = {e.path: e.sha256 for e in m2.entries} == checks1
    identical &= m2.manifest_path.read_bytes() == manifest1

    rng = np.random.default_rng(0)
    grid = vd.make_grid(16, 2.0)
    values = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    p1, p2 = tmp_path / "rt1.vxf", tmp_path / "rt2.vxf"
    vd.write_field(p1, values, grid, time=0.5)
    dump = vd.read_field(p1)
    vd.write_field(p2, dump.values, dump.grid, dump.time)
    round_trip = p1.read_bytes() == p2.read_bytes() and np.array_equal(dump.values, values)

    try:
        vd.parse_config(cfg_text + "mode.typo = 1\n", strict=True)
        strict_rejects = False
    except vd.ConfigError:
        strict_rejects = True

    ok = identical and round_trip and strict_rejects
    assert report(
        12, ok,
        f"byte-identical reruns: {identical}; VXF round trip bit-exact: {round_trip}; "
        f"strict mode rejects unknown keys: {strict_rejects}",
    )
