import numpy as np
import pytest

from fplab.dynamics import (
    approximate_attractor,
    integrate_flow,
    verify_lyapunov,
    verify_uniform_lyapunov,
)
from fplab.errors import NotSettledError
from fplab.fields import isotropic_diffusion, isotropic_schedule, sample_vector_field
from fplab.fpe import assemble, solve_stationary
from fplab.grid import Grid2D
from fplab.scenarios import hopf_drift

LINEAR = lambda x, y: (-x, -y)


def test_linear_contraction_endpoint():
    _, pts, escaped = integrate_flow(LINEAR, (1.0, 1.0), 5.0, 0.01)
    assert not escaped
    assert np.hypot(*pts[-1]) == pytest.approx(np.hypot(1, 1) * np.exp(-5.0), abs=1e-2)


def test_hopf_limit_cycle_radius():
    _, pts, _ = integrate_flow(hopf_drift(1.0), (0.1, 0.0), 30.0, 0.005)
    assert abs(np.hypot(*pts[-1]) - 1.0) < 1e-2


def test_hopf_subcritical_origin():
    _, pts, _ = integrate_flow(hopf_drift(-0.5), (1.0, 0.0), 30.0, 0.005)
    assert np.hypot(*pts[-1]) < 1e-2


def test_rk4_order():
    # halving dt reduces the endpoint error by >= 8x on the linear field
    exact = np.array([1.0, 1.0]) * np.exp(-2.0)
    errs = []
    for dt in (0.2, 0.1):
        _, pts, _ = integrate_flow(LINEAR, (1.0, 1.0), 2.0, dt)
        errs.append(np.hypot(*(pts[-1] - exact)))
    assert errs[1] < errs[0] / 8.0


def test_escape_flag():
    g = Grid2D(-1, 1, -1, 1, 8, 8)
    _, pts, escaped = integrate_flow(lambda x, y: (1.0 + 0 * x, 0 * y), (0.5, 0.0), 10.0, 0.01, box=g)
    assert escaped
    assert pts[-1][0] > 1.0 - 1e-6


def test_negative_time_reverses_field():
    _, fwd, _ = integrate_flow(LINEAR, (0.5, 0.2), 1.0, 0.01)
    _, bwd, _ = integrate_flow(lambda x, y: (x, y), (0.5, 0.2), -1.0, 0.01)
    np.testing.assert_allclose(fwd[-1], bwd[-1], atol=1e-12)


def test_attractor_origin():
    g = Grid2D(-2, 2, -2, 2, 32, 32)
    ap = approximate_attractor(LINEAR, g, ensemble_size=64, t_end=20.0)
    assert ap.kind == "global-attractor"
    cells = ap.cells()
    centers_x = g.x_centers()[cells[:, 0]]
    centers_y = g.y_centers()[cells[:, 1]]
    assert np.hypot(centers_x, centers_y).max() < 3 * max(g.hx, g.hy)


def test_attractor_hopf_annulus():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 64, 64)
    ap = approximate_attractor(hopf_drift(1.0), g, ensemble_size=128, t_end=40.0)
    cells = ap.cells()
    r = np.hypot(g.x_centers()[cells[:, 0]], g.y_centers()[cells[:, 1]])
    assert np.all(np.abs(r - 1.0) < 3 * max(g.hx, g.hy))
    # orbits approach the flagged set: distance at 80% of t_end is not smaller
    assert ap.diagnostics["diameter_final"] == pytest.approx(
        ap.diagnostics["diameter_early"], abs=0.1 * ap.diagnostics["diameter_final"]
    )


def test_repeller_via_time_reversal():
    # reversed-time Hopf flow from inside r < 0.5 collapses onto the origin
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 64, 64)
    ap = approximate_attractor(
        hopf_drift(1.0), g, ensemble_size=64, t_end=30.0, reverse_time=True,
        seed_region=lambda x, y: x**2 + y**2 < 0.25,
    )
    assert ap.kind == "local-repeller"
    cells = ap.cells()
    r = np.hypot(g.x_centers()[cells[:, 0]], g.y_centers()[cells[:, 1]])
    assert r.max() < 3 * max(g.hx, g.hy)


def test_not_settled_raises():
    # at t_end=1 the linear ensemble still contracts by ~22% over the last 20%
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 32, 32)
    with pytest.raises(NotSettledError):
        approximate_attractor(LINEAR, g, ensemble_size=32, t_end=1.0)


# ---------------------------------------------------------------------------
# certificates

def test_hopf_lyapunov_certificate(hopf_grid, hopf_field, radial_u):
    # V.grad(U) = 2U(1-U) <= -1.5 on {U > 1.5}
    cert = verify_lyapunov(radial_u, hopf_field, rho_m=1.5, gamma=1.5)
    assert cert.passed
    assert cert.worst_margin > -cert.slack


def test_linear_lyapunov_certificate(small_grid):
    v = sample_vector_field(LINEAR, small_grid)
    xx, yy = small_grid.centers()
    u = xx**2 + yy**2
    rho_m = 0.5
    cert = verify_lyapunov(u, v, rho_m=rho_m, gamma=2 * rho_m)
    assert cert.passed


def test_rotation_fails_strict_but_passes_entire_weak(small_grid):
    v = sample_vector_field(lambda x, y: (y, -x), small_grid)
    xx, yy = small_grid.centers()
    u = xx**2 + yy**2
    # V.grad U is exactly zero for the sampled rotation; tighten the slack so
    # any positive gamma must fail
    strict = verify_lyapunov(u, v, rho_m=0.5, gamma=0.1, slack=1e-9)
    assert not strict.passed
    assert len(strict.violations) > 0
    weak = verify_lyapunov(u, v, rho_m=0.5, gamma=0.0, kind="entire-weak")
    assert weak.passed


def test_time_reversal_duality(hopf_grid, hopf_field, radial_u):
    gamma = 1.5
    lyap = verify_lyapunov(radial_u, hopf_field, 1.5, gamma)
    anti = verify_lyapunov(radial_u, hopf_field.negated(), 1.5, gamma, kind="anti-lyapunov")
    assert lyap.passed == anti.passed
    assert lyap.worst_margin == pytest.approx(anti.worst_margin)


def test_margins_grid_stable(hopf_field, hopf_grid, radial_u):
    # passing with margin beyond the slack survives 2x refinement
    cert = verify_lyapunov(radial_u, hopf_field, 2.0, 1.0)
    assert cert.passed and cert.worst_margin > cert.slack
    fine = Grid2D(-2.5, 2.5, -2.5, 2.5, 200, 200)
    vf = sample_vector_field(hopf_drift(1.0), fine)
    xx, yy = fine.centers()
    cert2 = verify_lyapunov(xx**2 + yy**2, vf, 2.0, 1.0)
    assert cert2.passed and cert2.worst_margin > cert2.slack


def test_uniform_lyapunov_hopf(hopf_grid, hopf_field, radial_u):
    # L_A U = 4 eps + 2U(1-U) <= -(1.5 - 4 eps_max) on {U > 1.5}
    fam = isotropic_schedule(hopf_grid, (0.2, 0.1, 0.05))
    certs, uniform, first = verify_uniform_lyapunov(radial_u, hopf_field, fam, 1.5, 0.7)
    assert uniform
    assert first == 0
    # closed form: worst margin at U slightly above rho_m, member eps:
    # -(4 eps + 2U(1-U)) - gamma ~ 1.5 - 4 eps - 0.7
    for (eps, _), cert in zip(fam, certs):
        expect = 1.5 - 4 * eps - 0.7
        assert cert.worst_margin == pytest.approx(expect, abs=0.1)


def test_uniform_fails_for_large_member(hopf_grid, hopf_field, radial_u):
    fam = isotropic_schedule(hopf_grid, (0.5, 0.05))
    certs, uniform, first = verify_uniform_lyapunov(radial_u, hopf_field, fam, 1.5, 1.0)
    assert not uniform
    assert not certs[0].passed and certs[1].passed
    assert first == 1  # passes from the second member on


def test_lasalle_consistency(hopf_grid, hopf_field, radial_u):
    # omega-limit points of the b=1 flow land in {V.grad U = 0} = {U=0}+{U=1}
    for x0 in ((0.3, 0.1), (1.4, -0.2), (0.05, 0.0)):
        _, pts, _ = integrate_flow(hopf_drift(1.0), x0, 60.0, 0.005)
        u_end = pts[-1, 0] ** 2 + pts[-1, 1] ** 2
        assert min(abs(u_end - 1.0), abs(u_end)) < 0.05
    # and the solved measure at small eps concentrates near that set: little
    # mass where |V.grad U| = |2U(1-U)| > 1.5
    mu, _ = solve_stationary(assemble(hopf_field, isotropic_diffusion(hopf_grid, 0.02), hopf_grid))
    assert float(mu.weights[np.abs(2 * radial_u * (1 - radial_u)) > 1.5].sum()) < 0.02
