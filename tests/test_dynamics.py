import numpy as np
import pytest

from fplab.dynamics import (
    _rk4_steps,
    approximate_attractor,
    verify_lyapunov,
    verify_uniform_lyapunov,
)
from fplab.errors import NotSettledError
from fplab.fields import VectorField, isotropic_diffusion, isotropic_schedule, sample_vector_field
from fplab.fpe import assemble, solve_stationary
from fplab.grid import Grid2D
from fplab.scenarios import hopf_drift

LINEAR = lambda x, y: (-x, -y)


def _endpoint(v_fn, x0, total, dt, sign=1.0):
    """The point where the RK4 steps of dx/dt = sign V(x) from x0 end, at time total."""
    steps = list(_rk4_steps(v_fn, np.asarray(x0, dtype=float), total, dt, sign))
    assert steps[-1][0] == pytest.approx(total)
    return steps[-1][1]


def test_linear_contraction_endpoint():
    end = _endpoint(LINEAR, (1.0, 1.0), 5.0, 0.01)
    assert np.hypot(*end) == pytest.approx(np.hypot(1, 1) * np.exp(-5.0), abs=1e-2)


def test_hopf_limit_cycle_radius():
    assert abs(np.hypot(*_endpoint(hopf_drift(1.0), (0.1, 0.0), 30.0, 0.005)) - 1.0) < 1e-2


def test_hopf_subcritical_origin():
    assert np.hypot(*_endpoint(hopf_drift(-0.5), (1.0, 0.0), 30.0, 0.005)) < 1e-2


def test_rk4_order():
    # halving dt reduces the endpoint error by >= 8x on the linear field
    exact = np.array([1.0, 1.0]) * np.exp(-2.0)
    errs = [np.hypot(*(_endpoint(LINEAR, (1.0, 1.0), 2.0, dt) - exact)) for dt in (0.2, 0.1)]
    assert errs[1] < errs[0] / 8.0


def test_negative_time_reverses_field():
    fwd = _endpoint(LINEAR, (0.5, 0.2), 1.0, 0.01)
    bwd = _endpoint(lambda x, y: (x, y), (0.5, 0.2), 1.0, 0.01, sign=-1.0)
    np.testing.assert_allclose(fwd, bwd, atol=1e-12)


def test_attractor_origin():
    g = Grid2D(-2, 2, -2, 2, 32, 32)
    ap = approximate_attractor(LINEAR, g, ensemble_size=64, t_end=20.0)
    assert ap.kind == "global-attractor"
    cells = np.argwhere(ap.mask)
    centers_x = g.x_centers()[cells[:, 0]]
    centers_y = g.y_centers()[cells[:, 1]]
    assert np.hypot(centers_x, centers_y).max() < 3 * max(g.hx, g.hy)


def test_attractor_hopf_annulus():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 64, 64)
    ap = approximate_attractor(hopf_drift(1.0), g, ensemble_size=128, t_end=40.0)
    cells = np.argwhere(ap.mask)
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
    cells = np.argwhere(ap.mask)
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
    # V.grad U is zero for the sampled rotation away from the box edge, so a
    # gamma above the slack 2 max|D2 U| (hx + hy) fails there
    strict = verify_lyapunov(u, v, rho_m=0.5, gamma=5.0)
    assert strict.slack < 5.0
    assert not strict.passed
    assert len(strict.violations) > 0
    weak = verify_lyapunov(u, v, rho_m=0.5, gamma=0.0, kind="entire-weak")
    assert weak.passed


def test_time_reversal_duality(hopf_grid, hopf_field, radial_u):
    gamma = 1.5
    lyap = verify_lyapunov(radial_u, hopf_field, 1.5, gamma)
    reversed_field = VectorField(hopf_grid, -hopf_field.vx, -hopf_field.vy)
    anti = verify_lyapunov(radial_u, reversed_field, 1.5, gamma, kind="anti-lyapunov")
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
    certs, uniform = verify_uniform_lyapunov(radial_u, hopf_field, fam, 1.5, 0.7)
    assert uniform
    # closed form: worst margin at U slightly above rho_m, member eps:
    # -(4 eps + 2U(1-U)) - gamma ~ 1.5 - 4 eps - 0.7
    for (eps, _), cert in zip(fam, certs):
        expect = 1.5 - 4 * eps - 0.7
        assert cert.worst_margin == pytest.approx(expect, abs=0.1)


def test_uniform_fails_for_large_member(hopf_grid, hopf_field, radial_u):
    fam = isotropic_schedule(hopf_grid, (0.5, 0.05))
    certs, uniform = verify_uniform_lyapunov(radial_u, hopf_field, fam, 1.5, 1.0)
    assert not uniform
    assert not certs[0].passed and certs[1].passed


# a NaN margin is no pass, nor is a band {rho_m < U < max U + 1} with no cell
# in it; the first case shows that the inputs, not the field, fail the others
@pytest.mark.parametrize("rho_m,gamma,passed", [(1.5, 0.7, True), (1.5, np.nan, False),
                                                (1e9, 0.7, False)],
                         ids=["control", "nan-gamma", "empty-band"])
@pytest.mark.parametrize("verified_for", ["ode", "operator-family"])
def test_certificate_fails_closed(hopf_grid, hopf_field, radial_u, verified_for, rho_m, gamma,
                                  passed):
    if verified_for == "ode":
        certs = [verify_lyapunov(radial_u, hopf_field, rho_m, gamma)]
    else:
        fam = isotropic_schedule(hopf_grid, (0.1, 0.05))
        certs, uniform = verify_uniform_lyapunov(radial_u, hopf_field, fam, rho_m, gamma)
        assert uniform is passed
    for cert in certs:
        assert cert.verified_for == verified_for
        assert cert.passed is passed
        # every checked cell is a violation when gamma is NaN
        assert len(cert.violations) == (int(np.sum((radial_u > rho_m) & (radial_u < cert.rho_M)))
                                        if np.isnan(gamma) else 0)


def test_lasalle_consistency(hopf_grid, hopf_field, radial_u):
    # omega-limit points of the b=1 flow land in {V.grad U = 0} = {U=0}+{U=1}
    for x0 in ((0.3, 0.1), (1.4, -0.2), (0.05, 0.0)):
        u_end = np.sum(_endpoint(hopf_drift(1.0), x0, 60.0, 0.005) ** 2)
        assert min(abs(u_end - 1.0), abs(u_end)) < 0.05
    # and the solved measure at small eps concentrates near that set: little
    # mass where |V.grad U| = |2U(1-U)| > 1.5
    mu, _ = solve_stationary(assemble(hopf_field, isotropic_diffusion(hopf_grid, 0.02), hopf_grid))
    assert float(mu.weights[np.abs(2 * radial_u * (1 - radial_u)) > 1.5].sum()) < 0.02
