import numpy as np
import pytest

from fplab.analysis import bl_distance
from fplab.errors import NotSPDError, UnderresolvedError
from fplab.fields import isotropic_diffusion, rebin_measure, sample_vector_field
from fplab.fpe import assemble, solve_stationary
from fplab.grid import Grid2D
from fplab.sampler import SamplerConfig, _path_rng, noise_factor, occupation_measure
from fplab.scenarios import hopf_drift


def test_noise_factor_isotropic():
    g = noise_factor(np.array([[0.05, 0.0], [0.0, 0.05]]))
    np.testing.assert_allclose(g, np.sqrt(0.1) * np.eye(2), atol=1e-15)


def test_noise_factor_general():
    a = np.array([[0.1, 0.02], [0.02, 0.05]])
    g = noise_factor(a)
    assert np.abs(g @ g.T / 2.0 - a).max() < 1e-14
    assert g[0, 1] == 0.0  # lower-triangular


def test_noise_factor_rejects_indefinite():
    with pytest.raises(NotSPDError):
        noise_factor(np.array([[0.1, 0.2], [0.2, 0.1]]))
    with pytest.raises(NotSPDError):
        noise_factor(np.array([[-0.1, 0.0], [0.0, 0.1]]))


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(dt=-0.1, t_total=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(dt=0.1, t_total=1.0, t_burn=2.0)
    cfg = SamplerConfig(dt=0.1, t_total=10.0)
    assert cfg.t_burn == pytest.approx(2.0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="rng_seed"):
            SamplerConfig(dt=0.1, t_total=10.0, rng_seed=seed)
    assert SamplerConfig(dt=0.1, t_total=10.0, rng_seed=2**64 - 1).rng_seed == 2**64 - 1


def test_path_streams_do_not_collide():
    # with the key (seed << 16) + p, seed 3 path 65536 and seed 4 path 0 got
    # one stream; the key must separate seed and path index
    a = _path_rng(3, 65536).standard_normal(16)
    b = _path_rng(4, 0).standard_normal(16)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, _path_rng(3, 65536).standard_normal(16))


OU = lambda x, y: (-x, -y)


def _const_a(a):
    return lambda x, y: (a + 0 * x, 0 * x, a + 0 * x)


def test_determinism_same_seed():
    g = Grid2D(-3, 3, -3, 3, 32, 32)
    cfg = SamplerConfig(dt=0.01, t_total=20.0, n_paths=8, rng_seed=123)
    mu1, _ = occupation_measure(OU, _const_a(0.05), g, cfg)
    mu2, _ = occupation_measure(OU, _const_a(0.05), g, cfg)
    assert np.array_equal(mu1.weights, mu2.weights)
    mu3, _ = occupation_measure(OU, _const_a(0.05), g,
                                SamplerConfig(dt=0.01, t_total=20.0, n_paths=8, rng_seed=124))
    assert not np.array_equal(mu1.weights, mu3.weights)


def test_zero_drift_uniform_occupation():
    g = Grid2D(-1, 1, -1, 1, 8, 8)
    cfg = SamplerConfig(dt=0.02, t_total=400.0, n_paths=16, rng_seed=5)
    mu, diag = occupation_measure(lambda x, y: (0 * x, 0 * y), _const_a(0.3), g, cfg)
    per_cell = diag["n_samples"] / 64
    assert np.abs(mu.weights - 1 / 64).max() < 3.0 / np.sqrt(per_cell)


def test_ou_cross_oracle_bl():
    g = Grid2D(-4, 4, -4, 4, 64, 64)
    eps = 0.1
    v = sample_vector_field(OU, g)
    mu_pde, _ = solve_stationary(assemble(v, isotropic_diffusion(g, eps / 2), g))
    cfg = SamplerConfig(dt=0.01, t_total=150.0, n_paths=32, rng_seed=7)
    mu_mc, diag = occupation_measure(OU, _const_a(eps / 2), g, cfg)
    res = bl_distance(mu_pde, mu_mc)
    assert res.value < 0.02
    assert diag["frac_jump_gt_2cells"] <= 0.05
    assert diag["frac_drift_below_cell"] >= 0.99


def test_hopf_radial_mode():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 50, 50)
    cfg = SamplerConfig(dt=0.005, t_total=100.0, n_paths=32, rng_seed=11)
    mu, _ = occupation_measure(hopf_drift(1.0), _const_a(0.1), g, cfg)
    xx, yy = g.centers()
    r = np.hypot(xx, yy)
    bins = np.linspace(0, 2.5, 26)
    hist = np.histogram(r.ravel(), bins=bins, weights=mu.weights.ravel())[0]
    area = np.histogram(r.ravel(), bins=bins)[0].astype(float)
    dens = np.where(area > 0, hist / np.maximum(area, 1), 0.0)
    mode = 0.5 * (bins[np.argmax(dens)] + bins[np.argmax(dens) + 1])
    assert abs(mode - 1.0) < 0.1


def test_underresolved_raises():
    g = Grid2D(-1, 1, -1, 1, 64, 64)  # tiny cells
    cfg = SamplerConfig(dt=0.05, t_total=5.0, n_paths=8, rng_seed=1)
    with pytest.raises(UnderresolvedError):
        occupation_measure(lambda x, y: (0 * x, 0 * y), _const_a(0.3), g, cfg)


def test_dt_robustness_within_mc_error():
    # halving dt moves the occupation estimate by less than a few MC
    # standard errors of a reference functional
    g = Grid2D(-3, 3, -3, 3, 32, 32)
    xx, yy = g.centers()
    ball = xx**2 + yy**2 < 0.5
    vals = []
    for dt in (0.02, 0.01):
        cfg = SamplerConfig(dt=dt, t_total=200.0, n_paths=16, rng_seed=3)
        mu, _ = occupation_measure(OU, _const_a(0.05), g, cfg)
        vals.append(float(mu.weights[ball].sum()))
    # MC standard error of the ball mass: relaxation time ~ 1, so roughly
    # independent samples every unit time across paths
    n_eff = 16 * (200.0 - 40.0) / 1.0
    p = vals[1]
    se = np.sqrt(max(p * (1 - p), 1e-6) / n_eff)
    assert abs(vals[0] - vals[1]) < 4 * se
