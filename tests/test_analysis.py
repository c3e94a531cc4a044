import functools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab.analysis import (
    angular_w1_to_uniform,
    anti_lyapunov_lower_bound,
    bl_distance,
    bump_d1,
    bump_d2,
    bump_profile,
    grid_dictionary,
    invariance_residual,
    lyapunov_upper_bound,
    make_dictionary,
    marginal_w1,
)
from fplab.dynamics import verify_lyapunov, verify_uniform_lyapunov
from fplab.fields import (
    DiscreteMeasure,
    isotropic_diffusion,
    isotropic_schedule,
    normalized_measure,
    sample_vector_field,
)
from fplab.fpe import assemble, solve_stationary
from fplab.grid import Grid2D
from fplab.scenarios import delta_at, dictionary_for, haar_on_circle, hopf_drift


def test_bump_derivatives_match_finite_differences():
    t = np.linspace(-0.95, 0.95, 101)
    h = 1e-6
    d1_fd = (bump_profile(t + h) - bump_profile(t - h)) / (2 * h)
    d2_fd = (bump_profile(t + h) - 2 * bump_profile(t) + bump_profile(t - h)) / h**2
    np.testing.assert_allclose(bump_d1(t), d1_fd, atol=1e-6)
    np.testing.assert_allclose(bump_d2(t), d2_fd, atol=1e-3)
    assert bump_profile(np.array([0.0]))[0] == 1.0
    assert bump_profile(np.array([1.0, -1.0, 2.0])).max() == 0.0


def test_dictionary_vanishes_near_boundary(small_grid):
    d = grid_dictionary(small_grid, 3)
    assert len(d) == 9
    border = np.ones((16, 16), dtype=bool)
    border[1:-1, 1:-1] = False
    assist = np.abs(d.h[:, border])
    assert assist.max() <= 1e-12


def test_dictionary_rejects_boundary_touching(small_grid):
    with pytest.raises(ValueError):
        make_dictionary(small_grid, [(0.0, 0.0, 2.1, 1.0)], "bad")


@functools.lru_cache(maxsize=None)
def _reference_sup_norms(wx, wy):
    """sup |grad h| and sup |lap h| from the whole 2001^2 fine lattice at once."""
    fine = np.linspace(-1.0, 1.0, 2001)
    psi_f, d1_f, d2_f = bump_profile(fine), bump_d1(fine), bump_d2(fine)
    gx = np.abs(np.outer(d1_f, psi_f)) / wx
    gy = np.abs(np.outer(psi_f, d1_f)) / wy
    lf = np.outer(d2_f, psi_f) / wx**2 + np.outer(psi_f, d2_f) / wy**2
    return float(np.sqrt(gx**2 + gy**2).max()), float(np.abs(lf).max())


@pytest.mark.parametrize("n", [96, 256])
@pytest.mark.parametrize("name", ["grid3x3-v1", "grid4x4-v1", "hopf-offcycle-v1"])
def test_dictionary_sup_norms_equal_the_whole_lattice(n, name):
    d = dictionary_for(name, Grid2D(-2.5, 2.5, -2.5, 2.5, n, n))
    ref = [_reference_sup_norms(wx, wy) for _, _, wx, wy in d.bumps]
    assert d.grad_inf.tolist() == [g for g, _ in ref]
    assert d.lap_inf.tolist() == [lap for _, lap in ref]


def test_dictionary_sup_norms_of_an_anisotropic_bump():
    d = make_dictionary(Grid2D(-2.5, 2.5, -2.5, 2.5, 96, 96), [(0.3, -0.2, 0.7, 0.35)], "aniso")
    g, lap = _reference_sup_norms(0.7, 0.35)
    assert d.grad_inf.tolist() == [g] and d.lap_inf.tolist() == [lap]


@pytest.mark.parametrize("wx,wy", [(0.45, 0.45), (0.6, 0.6), (0.3, 0.7), (1.1, 0.9)])
def test_pruned_sup_norms_equal_the_whole_lattice(wx, wy):
    d = make_dictionary(Grid2D(-2.5, 2.5, -2.5, 2.5, 96, 96), [(0.0, 0.0, wx, wy)], "pruned")
    assert (d.grad_inf[0], d.lap_inf[0]) == _reference_sup_norms(wx, wy)


def _dense_reference(grid, bumps):
    """h, dxh and dyh built as 2D arrays per bump, as first written."""
    xx, yy = grid.centers()
    hs, dxs, dys = [], [], []
    for cx, cy, wx, wy in bumps:
        ux, uy = (xx - cx) / wx, (yy - cy) / wy
        px, py = bump_profile(ux), bump_profile(uy)
        hs.append(px * py)
        dxs.append(bump_d1(ux) * py / wx)
        dys.append(px * bump_d1(uy) / wy)
    return np.asarray(hs), np.asarray(dxs), np.asarray(dys)


@pytest.mark.parametrize("n", [96, 256])
@pytest.mark.parametrize("name", ["grid3x3-v1", "grid4x4-v1", "hopf-offcycle-v1"])
def test_factored_dictionary_equals_dense_construction(n, name):
    grid = Grid2D(-2.5, 2.5, -2.5, 2.5, n, n)
    d = dictionary_for(name, grid)
    h, dxh, dyh = _dense_reference(grid, d.bumps)
    assert np.array_equal(d.h, h) and np.array_equal(d.dxh, dxh) and np.array_equal(d.dyh, dyh)
    assert d.h.shape == (len(d), n, n)


def test_dictionary_holds_only_profiles_until_read():
    # the nine 256^2 bumps of hopf-offcycle-v1 take 14 MB as h, dxh and dyh;
    # until one of them is read the dictionary holds 1D profiles only
    grid = Grid2D(-2.5, 2.5, -2.5, 2.5, 256, 256)
    tracemalloc.start()
    try:
        d = dictionary_for("hopf-offcycle-v1", grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not {"h", "dxh", "dyh"} & set(vars(d))
    assert d.h is d.h  # built once, then kept


def test_dictionary_never_holds_the_whole_fine_lattice():
    # a width no other test uses, so the sup norms are computed inside the
    # traced region; one 2001^2 float64 array is 32 MB
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 32, 32)
    tracemalloc.start()
    try:
        make_dictionary(grid, [(0.0, 0.0, 0.3137, 0.2719)], "cold")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2001**2 * 8


def test_dictionary_sup_norms_under_concurrent_cold_calls():
    # more threads than cores share the sup-norm cache on a width no other test
    # uses, with a short switch interval; every thread gets the lattice values
    grid = Grid2D(-2.5, 2.5, -2.5, 2.5, 48, 48)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(make_dictionary, grid, [(0.0, 0.0, 0.5123, 0.4567)], "race")
                       for _ in range(8)]
            dicts = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    ref = _reference_sup_norms(0.5123, 0.4567)
    assert [(d.grad_inf[0], d.lap_inf[0]) for d in dicts] == [ref] * 8


def test_bl_point_masses():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    mu = delta_at(g, (0.0, 0.0))
    nu = delta_at(g, (1.0, 0.0))
    res = bl_distance(mu, nu)
    assert res.value >= 1.0 - 0.05  # f = clip(x) separates the points
    assert res.radial_w1 == pytest.approx(1.0, abs=0.05)
    assert bl_distance(mu, mu).value == 0.0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_bl_pseudometric_properties(seed):
    g = Grid2D(-1, 1, -1, 1, 12, 12)
    rng = np.random.default_rng(seed)
    mus = [normalized_measure(g, rng.random((12, 12)))[0] for _ in range(3)]
    d01 = bl_distance(mus[0], mus[1]).value
    d10 = bl_distance(mus[1], mus[0]).value
    d02 = bl_distance(mus[0], mus[2]).value
    d12 = bl_distance(mus[1], mus[2]).value
    assert d01 == pytest.approx(d10, abs=1e-14)          # symmetry
    assert d02 <= d01 + d12 + 1e-12                      # triangle
    assert 0.0 <= d01 <= 2.0


def test_marginal_w1_translation():
    coords = np.linspace(0, 10, 200)
    w1 = np.zeros(200); w1[50] = 1.0
    w2 = np.zeros(200); w2[90] = 1.0
    assert marginal_w1(coords, w1, w2) == pytest.approx(coords[90] - coords[50], rel=1e-9)


def test_angular_w1_uniformity():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    haar = haar_on_circle(g, 1.0)
    assert angular_w1_to_uniform(haar) < 0.02
    lump = delta_at(g, (1.0, 0.0))
    assert angular_w1_to_uniform(lump) > 1.0  # all mass at angle 0


def test_residual_at_equilibrium_point_mass():
    g = Grid2D(-2, 2, -2, 2, 64, 64)
    v = sample_vector_field(lambda x, y: (-x, -y), g)
    d = grid_dictionary(g, 3)
    mu = delta_at(g, (0.0, 0.0))
    res = invariance_residual(mu, v, d)
    # |V| at the cell containing the origin is ~ h/2 in each coordinate
    assert res.max <= d.grad_inf.max() * np.hypot(g.hx, g.hy)


def test_haar_residual_refines_to_zero():
    # radial bump: V_b tangent to the circle makes V.grad h vanish on it
    vals = []
    for n in (50, 100, 200):
        g = Grid2D(-2.5, 2.5, -2.5, 2.5, n, n)
        v = sample_vector_field(hopf_drift(1.0), g)
        d = grid_dictionary(g, 3)
        haar = haar_on_circle(g, 1.0)
        vals.append(invariance_residual(haar, v, d).max)
    assert vals[2] < vals[0]
    assert vals[2] < 0.02


def test_ou_residual_identity_bound():
    # stationarity: |int V.grad h dmu| = (eps/2) |int lap h dmu| <= (eps/2)||lap h||
    g = Grid2D(-4, 4, -4, 4, 128, 128)
    eps = 0.1
    v = sample_vector_field(lambda x, y: (-x, -y), g)
    mu, _ = solve_stationary(assemble(v, isotropic_diffusion(g, eps / 2), g))
    d = grid_dictionary(g, 3)
    res = invariance_residual(mu, v, d)
    per_bound = (eps / 2) * d.lap_inf
    assert np.all(res.per_function <= per_bound)


def test_ou_bound_closed_form_and_domination():
    g = Grid2D(-4, 4, -4, 4, 128, 128)
    v = sample_vector_field(lambda x, y: (-x, -y), g)
    xx, yy = g.centers()
    u = xx**2 + yy**2
    rho_m, gamma = 1.0, 1.6
    fam = isotropic_schedule(g, (0.2, 0.1), shape=(0.5, 0.0, 0.5))
    certs, uniform, _ = verify_uniform_lyapunov(u, v, fam, rho_m, gamma)
    assert uniform
    for (eps, a), cert in zip(fam, certs):
        mu, _ = solve_stationary(assemble(v, a, g))
        for rho in (1.5, 2.5, 3.5):
            b = lyapunov_upper_bound(cert, a, rho)
            closed = (rho_m / rho) ** (gamma / (2 * eps))
            assert b.form == "integral" and b.hypothesis_ok
            assert b.value == pytest.approx(closed, rel=0.01)
            exterior = 1.0 - float(mu.weights[u < rho].sum())
            assert b.value >= exterior


def test_bound_concentration_as_eps_vanishes():
    # fixed rho: the bound decays to zero along the schedule
    g = Grid2D(-4, 4, -4, 4, 64, 64)
    v = sample_vector_field(lambda x, y: (-x, -y), g)
    xx, yy = g.centers()
    u = xx**2 + yy**2
    fam = isotropic_schedule(g, (0.2, 0.1, 0.05, 0.02), shape=(0.5, 0.0, 0.5))
    certs, uniform, _ = verify_uniform_lyapunov(u, v, fam, 1.0, 1.2)
    vals = [lyapunov_upper_bound(c, a, 3.0).value for c, (_, a) in zip(certs, fam)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-12


def test_bound_constant_fallback_on_flat_level():
    # U = (r^2 - 1)^2 has an interior critical point at the origin with
    # U = 1: the gradient hypothesis fails on that level band
    from fplab.dynamics import LyapunovCertificate

    g = Grid2D(-2, 2, -2, 2, 64, 64)
    xx, yy = g.centers()
    u = (xx**2 + yy**2 - 1.0) ** 2
    cert = LyapunovCertificate(
        grid=g, u=u, rho_m=0.2, rho_M=float(u.max()) + 1, gamma=0.5,
        kind="lyapunov", verified_for="operator-family", passed=True,
        worst_margin=1.0, slack=0.0,
    )
    a = isotropic_diffusion(g, 0.1)
    b = lyapunov_upper_bound(cert, a, rho=1.5)
    assert b.form == "constant"
    assert not b.hypothesis_ok


def test_anti_bound_trivial_cases(hopf_grid, hopf_field, radial_u):
    cert = verify_lyapunov(radial_u, hopf_field.negated(), 0.05, 0.09,
                           kind="anti-lyapunov", rho_M=0.5)
    a = isotropic_diffusion(hopf_grid, 0.1)
    same = anti_lyapunov_lower_bound(cert, a, 0.2, 0.2)
    assert same.value == 1.0
    zero_gamma = verify_lyapunov(radial_u, hopf_field, 0.05, 0.0,
                                 kind="weak", rho_M=0.5)
    factor = anti_lyapunov_lower_bound(zero_gamma, a, 0.1, 0.3)
    assert factor.value == 1.0


def test_anti_bound_hopf_origin_inequality(hopf_grid, radial_u):
    # anti-Lyapunov mass growth away from the origin repeller, checked against
    # solved measures for eps in {0.2, 0.1}
    v = sample_vector_field(hopf_drift(1.0), hopf_grid)
    rho_m, rho0, rho_M = 0.05, 0.1, 0.5
    gamma = 2 * rho_m * (1 - rho_m)  # min of 2U(1-U) on [rho_m, rho_M]
    cert = verify_lyapunov(radial_u, v, rho_m, gamma, kind="anti-lyapunov", rho_M=rho_M)
    assert cert.passed
    exterior = []
    for eps in (0.2, 0.1):
        a = isotropic_diffusion(hopf_grid, eps)
        mu, _ = solve_stationary(assemble(v, a, hopf_grid))
        for rho in (0.2, 0.3, 0.4):
            factor = anti_lyapunov_lower_bound(cert, a, rho0, rho)
            assert factor.value > 1.0
            lhs = float(mu.weights[(radial_u < rho) & (radial_u > rho_m)].sum())
            rhs = float(mu.weights[(radial_u < rho0) & (radial_u > rho_m)].sum())
            assert lhs >= rhs * factor.value
        exterior.append([1.0 - float(mu.weights[radial_u < rho].sum())
                         for rho in (1.5, 2.0, 3.0, 4.0)])
    # tightness of the same solves: the mass outside {U < rho} shrinks in rho
    # and along the schedule, and is below 1e-3 at both eps beyond U = 4
    exterior = np.asarray(exterior)
    assert np.all(np.diff(exterior, axis=1) <= 1e-15)
    assert np.all(exterior[1] <= exterior[0] + 1e-12)
    assert exterior[:, -1].max() < 1e-3


def test_certificate_derivatives_computed_once_and_never_stale(monkeypatch):
    # the certificate caches U's derivatives, never g = a^{ij} d_i U d_j U:
    # a bound for a second member must equal that member's bound on a fresh
    # certificate, and five bounds compute U's gradient at most once
    from fplab import dynamics

    g = Grid2D(-4, 4, -4, 4, 64, 64)
    v = sample_vector_field(lambda x, y: (-x, -y), g)
    xx, yy = g.centers()
    u = xx**2 + yy**2
    fam = isotropic_schedule(g, (0.2, 0.05), shape=(0.5, 0.0, 0.5))
    (_, a1), (_, a2) = fam

    calls = []
    grad = dynamics.grad_central
    monkeypatch.setattr(dynamics, "grad_central", lambda *args: calls.append(1) or grad(*args))
    certs, uniform, _ = verify_uniform_lyapunov(u, v, fam, 1.0, 1.2)
    assert uniform and len(calls) == 1  # once per U in the verify pass
    cert = certs[0]
    first = lyapunov_upper_bound(cert, a1, 2.5)
    second = lyapunov_upper_bound(cert, a2, 2.5)
    for rho in (1.5, 3.0, 3.5):
        lyapunov_upper_bound(cert, a2, rho)
    assert len(calls) == 2  # five bounds, one more gradient
    fresh = verify_uniform_lyapunov(u, v, fam, 1.0, 1.2)[0][0]
    assert repr(second) == repr(lyapunov_upper_bound(fresh, a2, 2.5))
    assert repr(second) != repr(first)
