import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab import sampler
from fplab.analysis import bl_distance
from fplab.errors import GridMismatchError, NonFiniteFieldError, NotSPDError, UnderresolvedError
from fplab.fields import (
    DiffusionField,
    isotropic_diffusion,
    normalized_measure,
    sample_vector_field,
)
from fplab.fpe import assemble, solve_stationary
from fplab.grid import Grid2D
from fplab.sampler import (
    _CHUNK_STEPS,
    SamplerConfig,
    _chol_2x2_batch,
    _count_norms,
    _path_rng,
    _reflect,
    occupation_measure,
)
from fplab.scenarios import double_well_drift, hopf_drift


def _noise_factor(a11, a12, a22):
    """The lower-triangular G that _chol_2x2_batch gives for one A."""
    g00, g10, g11 = _chol_2x2_batch(a11, a12, a22)
    return np.array([[g00, 0.0], [g10, g11]])


def test_noise_factor_isotropic():
    g = _noise_factor(0.05, 0.0, 0.05)
    np.testing.assert_allclose(g, np.sqrt(0.1) * np.eye(2), atol=1e-15)


def test_noise_factor_general():
    a = np.array([[0.1, 0.02], [0.02, 0.05]])
    g = _noise_factor(0.1, 0.02, 0.05)
    assert np.abs(g @ g.T / 2.0 - a).max() < 1e-14


def test_noise_factor_rejects_indefinite():
    with pytest.raises(NotSPDError):
        _noise_factor(0.1, 0.2, 0.1)
    with pytest.raises(NotSPDError):
        _noise_factor(-0.1, 0.0, 0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(dt=-0.1, t_total=1.0)
    cfg = SamplerConfig(dt=0.1, t_total=10.0)
    assert cfg.t_burn == pytest.approx(2.0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="rng_seed"):
            SamplerConfig(dt=0.1, t_total=10.0, rng_seed=seed)
    assert SamplerConfig(dt=0.1, t_total=10.0, rng_seed=2**64 - 1).rng_seed == 2**64 - 1
    for bad in ({"dt": float("nan")}, {"dt": float("inf")}, {"t_total": float("inf")},
                {"t_total": 0.001}):
        with pytest.raises(ValueError):
            SamplerConfig(**{"dt": 0.1, "t_total": 10.0, **bad})
    # t_total/dt overflows to inf: no step count, not an OverflowError
    for dt, t_total in ((5e-324, 1.0), (1e-300, 1e300)):
        with pytest.raises(ValueError, match="t_total/dt"):
            SamplerConfig(dt=dt, t_total=t_total)
    cfg = SamplerConfig(dt=0.1, t_total=1.0)
    assert (cfg.n_steps, cfg.burn_steps) == (10, 2)


@pytest.mark.parametrize("field,value", [("n_paths", True), ("n_paths", 8.0),
                                         ("rng_seed", 1.5), ("rng_seed", False),
                                         ("rng_seed", "3")])
def test_config_refuses_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=field):
        SamplerConfig(dt=0.1, t_total=10.0, **{field: value})


def test_config_takes_numpy_integers_as_python_ints():
    # np.int64(3) << 64 wraps to 0, so a numpy seed would give path p the
    # stream of seed 0
    cfg = SamplerConfig(dt=0.1, t_total=10.0, n_paths=np.int64(4), rng_seed=np.uint64(3))
    assert (cfg.n_paths, cfg.rng_seed) == (4, 3)
    assert type(cfg.n_paths) is int and type(cfg.rng_seed) is int


def test_occupation_refuses_no_members():
    g = Grid2D(-1, 1, -1, 1, 16, 16)
    with pytest.raises(ValueError, match="members"):
        occupation_measure(OU, [], g, SamplerConfig(dt=0.01, t_total=1.0, n_paths=4))


def test_path_streams_do_not_collide():
    # with the key (seed << 16) + p, seed 3 path 65536 and seed 4 path 0 got
    # one stream; the key must separate seed and path index
    a = _path_rng(3, 65536).standard_normal(16)
    b = _path_rng(4, 0).standard_normal(16)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, _path_rng(3, 65536).standard_normal(16))


OU = lambda x, y: (-x, -y)


def _sample_one(v_fn, a, grid, cfg):
    """occupation_measure for the single diffusion field a."""
    (mu,), diag = occupation_measure(v_fn, [a], grid, cfg)
    return mu, diag["members"][0]


def _reference_occupation(v_fn, a_fn, grid, cfg):
    """The straightforward per-step loop for one member: every normal drawn
    up front, one np.add.at per kept step."""
    n_steps = int(round(cfg.t_total / cfg.dt))
    burn_steps = int(round(cfg.t_burn / cfg.dt))
    npaths = cfg.n_paths

    k = int(np.ceil(np.sqrt(npaths)))
    gx = np.linspace(0.3, 0.7, k)
    pts = np.stack(np.meshgrid(
        grid.x_min + gx * (grid.x_max - grid.x_min),
        grid.y_min + gx * (grid.y_max - grid.y_min),
        indexing="ij",
    ), axis=-1).reshape(-1, 2)[:npaths]
    x = pts[:, 0].copy()
    y = pts[:, 1].copy()

    normals = np.empty((npaths, n_steps, 2))
    for p in range(npaths):
        normals[p] = _path_rng(cfg.rng_seed, p).standard_normal((n_steps, 2))

    sqdt = np.sqrt(cfg.dt)
    counts = np.zeros(grid.nx * grid.ny)
    big_jumps = 0
    slow_drift_steps = 0
    kept = 0
    cell_diag = min(grid.hx, grid.hy)

    for step in range(n_steps):
        vx, vy = v_fn(x, y)
        a11, a12, a22 = a_fn(x, y)
        a11 = np.broadcast_to(np.asarray(a11, dtype=float), x.shape)
        a12 = np.broadcast_to(np.asarray(a12, dtype=float), x.shape)
        a22 = np.broadcast_to(np.asarray(a22, dtype=float), x.shape)
        g00, g10, g11 = _chol_2x2_batch(a11, a12, a22)
        dwx = normals[:, step, 0] * sqdt
        dwy = normals[:, step, 1] * sqdt
        dx = vx * cfg.dt + g00 * dwx
        dy = vy * cfg.dt + g10 * dwx + g11 * dwy
        jump = np.hypot(dx, dy)
        big_jumps += int(np.count_nonzero(jump > 2.0 * cell_diag))
        slow_drift_steps += int(np.count_nonzero(np.hypot(vx, vy) * cfg.dt < cell_diag))
        x = x + dx
        y = y + dy
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NonFiniteFieldError(("path", step), float("nan"))
        x = _reflect(x, grid.x_min, grid.x_max)
        y = _reflect(y, grid.y_min, grid.y_max)
        if step >= burn_steps:
            i = np.clip(((x - grid.x_min) / grid.hx).astype(np.int64), 0, grid.nx - 1)
            j = np.clip(((y - grid.y_min) / grid.hy).astype(np.int64), 0, grid.ny - 1)
            np.add.at(counts, i * grid.ny + j, 1.0)
            kept += npaths

    total_steps = n_steps * npaths
    frac_big = big_jumps / total_steps
    if frac_big > 0.05:
        raise UnderresolvedError(
            f"{frac_big:.1%} of steps jump more than 2 cells; reduce dt or coarsen the grid"
        )
    mu, _ = normalized_measure(grid, counts.reshape(grid.nx, grid.ny))
    diagnostics = {
        "n_samples": kept,
        "frac_jump_gt_2cells": frac_big,
        "frac_drift_below_cell": slow_drift_steps / total_steps,
        "n_steps": n_steps,
        "burn_steps": burn_steps,
    }
    return mu, diagnostics


def _tables(grid, eps_list):
    """Stacked (k, nx, ny) diffusion tables varying in space, with a12 != 0."""
    xx, yy = grid.centers()
    e = np.asarray(eps_list, dtype=float)[:, None, None]
    return (e * (1.0 + 0.3 * np.cos(2 * xx)),
            e * 0.2 * np.sin(xx * yy),
            e * (1.0 + 0.3 * np.sin(3 * yy)))


def _lookup(grid, tables, member):
    """a_fn of the reference loop reading member's cell values from the
    stacked tables."""
    def a_fn(x, y):
        i, j = grid.cell_index(x, y)
        return tuple(t[member, i, j] for t in tables)
    return a_fn


def _fields(grid, tables):
    """The stacked tables as one DiffusionField per member."""
    return [DiffusionField(grid, *(t[m] for t in tables)) for m in range(len(tables[0]))]


_WIDE = Grid2D(-2.0, 2.0, -2.0, 2.0, 24, 24)
# paths cross this box in a few hundred steps, so most steps reflect
_SMALL = Grid2D(-0.6, 0.6, -0.4, 0.4, 12, 8)
# at dt 0.01 the run ends 100 steps into its seventh chunk, and burn-in, the
# first fifth of the steps, ends in the middle of the second chunk (1636 and
# 327 steps for chunks of 256); the id "2-25.3-15.0" keeps the (t_total, t_burn)
# of an earlier layout of this case, so that the test keeps its name
_T_MID_SEVENTH = 0.01 * (6 * _CHUNK_STEPS + 100)
# paths start on the steep outer flank of the left well, where a step's drift
# carries them more than a cell, and on cells of 0.02 a few noise kicks jump
# more than two: both diagnostics count steps
_STEEP = Grid2D(-3.0, 1.0, -2.0, 2.0, 200, 200)


@pytest.mark.parametrize("n_members,t_total,g,scale", [
    pytest.param(1, 20.0, _WIDE, 1.0, id="1-20.0-None"),  # one member, the tests' call
    pytest.param(3, 20.0, _WIDE, 1.0, id="3-20.0-None"),
    pytest.param(2, _T_MID_SEVENTH, _WIDE, 1.0, id="2-25.3-15.0"),
    pytest.param(2, _T_MID_SEVENTH, _SMALL, 0.25, id="reflecting"),
    pytest.param(2, _T_MID_SEVENTH, _STEEP, 0.05, id="diagnostics"),
])
def test_kernel_matches_reference_loop(monkeypatch, n_members, t_total, g, scale):
    reflecting_steps = []

    def counted_reflect(x, lo, hi):
        reflecting_steps.append(x.shape)
        return _reflect(x, lo, hi)

    monkeypatch.setattr(sampler, "_reflect", counted_reflect)
    cfg = SamplerConfig(dt=0.01, t_total=t_total, n_paths=8, rng_seed=9)
    assert cfg.n_steps % _CHUNK_STEPS != 0
    if t_total == _T_MID_SEVENTH:
        assert _CHUNK_STEPS < cfg.burn_steps < 2 * _CHUNK_STEPS
    eps = (0.2, 0.1, 0.05)[:n_members]
    tables = tuple(scale * t for t in _tables(g, eps))
    measures, diag = occupation_measure(double_well_drift, _fields(g, tables), g, cfg)
    assert (diag["n_steps"], diag["burn_steps"]) == (cfg.n_steps, cfg.burn_steps)
    got = list(zip(measures, diag["members"]))
    assert len(got) == len(eps)
    for m, (mu, diag) in enumerate(got):
        mu_ref, diag_ref = _reference_occupation(double_well_drift, _lookup(g, tables, m), g, cfg)
        assert np.array_equal(mu.weights, mu_ref.weights)
        assert diag == diag_ref
        if g is _STEEP:
            assert 0.0 < diag["frac_jump_gt_2cells"] <= 0.05
            assert 0.0 < diag["frac_drift_below_cell"] < 1.0
    if g is _SMALL:
        # the kernel calls _reflect only on steps where some path left the box
        assert len(reflecting_steps) > cfg.n_steps // 2


def _norm_counts(x, y, t, pred):
    """_count_norms and the np.hypot count it stands for, over the pairs (x, y)
    laid out as (step, member, path) arrays of shape (len(x), 1, 1)."""
    x, y = (np.asarray(v, dtype=float).reshape(-1, 1, 1) for v in (x, y))
    with np.errstate(over="ignore", under="ignore"):
        want = np.count_nonzero(pred(np.hypot(x, y)), axis=(0, 2))
    return _count_norms(x, y, t, pred, np.empty((2, *x.shape))), want


def _thresholds(t, c, dt):
    """Both diagnostics' predicates: r > t, and r * dt < c at t = c / dt."""
    return ((t, lambda r: r > t), (c / dt, lambda r: r * dt < c))


# thresholds t and c / dt that are normal, whose square overflows (as a cell
# over dt = 1e-300 does), underflows to 0, lies just above the smallest normal
# float or is subnormal, and c / dt that underflows to 0
@pytest.mark.parametrize("t,c,dt", [(0.2, 0.1, 0.005), (1e200, 0.1, 1e-300),
                                    (1e-200, 1.0, 1e-200), (1.5e-154, 1e-150, 1e300),
                                    (3e-155, 7.5e-155, 5.0), (0.3, 1.0, 3.0)])
def test_norm_counts_match_hypot_at_planted_values(t, c, dt):
    for thr, pred in _thresholds(t, c, dt):
        up, down = np.nextafter(thr, np.inf), np.nextafter(thr, -np.inf)
        radii = [thr, up, down, np.nextafter(up, np.inf), np.nextafter(down, -np.inf),
                 0.0, 5e-324, 1e-310, 2.2e-308, 1e-160, 1e200, 1e300, np.finfo(float).max]
        # each radius along an axis and split over both components, and points on
        # the threshold circle, where q and hypot round to either side of it
        angles = np.linspace(0.05, 1.5, 16)
        x = [*radii, *[0.0] * len(radii), *[0.6 * r for r in radii], *thr * np.cos(angles)]
        y = [*[0.0] * len(radii), *radii, *[0.8 * r for r in radii], *thr * np.sin(angles)]
        got, want = _norm_counts(x, y, thr, pred)
        assert np.array_equal(got, want), (thr, got, want)
        assert 0 < want[0] < len(x)


def test_norm_counts_fall_back_where_the_squares_cannot_decide():
    # t^2 is subnormal: x^2 and y^2 each round down by about half a unit of
    # 2^-1074, so q = 2023 units falls below fl(t^2) = 2024, yet hypot(x, y) > t
    s = 2.0**-537  # s * s = 2^-1074
    t = math.sqrt(2023.6) * s
    x, y = math.sqrt(1011.49) * s, math.sqrt(1012.49) * s
    got, want = _norm_counts([x], [y], t, lambda r: r > t)
    assert np.array_equal(got, want) and want[0] == 1
    # a NaN with an infinite partner: q is NaN, but hypot is inf
    got, want = _norm_counts([np.nan, np.inf, 1.0], [np.inf, np.nan, np.nan], 0.2,
                             lambda r: r > 0.2)
    assert np.array_equal(got, want) and want[0] == 2


@settings(max_examples=300, deadline=None)
@given(t=st.floats(min_value=5e-324, max_value=1.7e308),
       c=st.floats(min_value=np.finfo(float).tiny, max_value=1.7e308),
       dt=st.floats(min_value=5e-324, max_value=1.7e308),
       far=st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
                    max_size=6),
       near=st.lists(st.tuples(st.floats(0.0, 2 * math.pi), st.integers(-8, 8)),
                     min_size=1, max_size=6))
def test_norm_counts_match_hypot_over_magnitudes(t, c, dt, far, near):
    for thr, pred in _thresholds(t, c, dt):
        # points within a few ulps of the threshold circle, and anywhere at all
        pairs = far + [(thr * math.cos(a) * (1.0 + k * 2.0**-52), thr * math.sin(a))
                       for a, k in near]
        got, want = _norm_counts(*zip(*pairs), thr, pred)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_path_raises_at_the_reference_step(bad):
    g = Grid2D(-2.0, 2.0, -2.0, 2.0, 24, 24)
    cfg = SamplerConfig(dt=0.01, t_total=20.0, n_paths=8, rng_seed=9)
    tables = _tables(g, (0.2, 0.1))
    blow_up = _CHUNK_STEPS + 100  # in the second chunk

    def drift():
        """double_well_drift, but path 3's drift is ``bad`` on call blow_up."""
        calls = []

        def v(x, y):
            vx, vy = double_well_drift(x, y)
            calls.append(None)
            if len(calls) == blow_up + 1:
                vx = vx.copy()
                vx[..., 3] = bad
            return vx, vy
        return v

    with pytest.raises(NonFiniteFieldError) as ref:
        _reference_occupation(drift(), _lookup(g, tables, 1), g, cfg)
    with pytest.raises(NonFiniteFieldError) as got:
        occupation_measure(drift(), _fields(g, tables), g, cfg)
    assert ref.value.where == ("path", blow_up)
    assert str(got.value) == str(ref.value)
    assert got.value.where == ref.value.where


@pytest.mark.parametrize("n_members", [1, 3])
def test_drift_is_called_once_per_step_for_all_members(n_members):
    g = Grid2D(-2.0, 2.0, -2.0, 2.0, 24, 24)
    cfg = SamplerConfig(dt=0.01, t_total=12.0, n_paths=8, rng_seed=9)
    shapes = []

    def drift(x, y):
        shapes.append(x.shape)
        return double_well_drift(x, y)

    occupation_measure(drift, _fields(g, _tables(g, (0.2, 0.1, 0.05)[:n_members])), g, cfg)
    assert shapes == [(n_members, cfg.n_paths)] * cfg.n_steps


def test_underresolved_names_first_offending_member():
    # members 1 and 2 jump too far on 64^2 cells; the error is member 1's
    g = Grid2D(-1, 1, -1, 1, 64, 64)
    cfg = SamplerConfig(dt=0.05, t_total=5.0, n_paths=8, rng_seed=1)
    fields = _fields(g, _tables(g, (0.002, 0.3, 0.6)))
    with pytest.raises(UnderresolvedError) as one:
        occupation_measure(OU, fields[1:2], g, cfg)
    with pytest.raises(UnderresolvedError) as batched:
        occupation_measure(OU, fields, g, cfg)
    assert str(batched.value) == str(one.value)
    occupation_measure(OU, fields[:1], g, cfg)  # member 0 alone passes


def test_fields_must_live_on_the_sampler_grid():
    g = Grid2D(-1, 1, -1, 1, 16, 16)
    cfg = SamplerConfig(dt=0.01, t_total=1.0, n_paths=4)
    with pytest.raises(GridMismatchError):
        occupation_measure(OU, [isotropic_diffusion(Grid2D(-1, 1, -1, 1, 32, 32), 0.1)], g, cfg)


def test_determinism_same_seed():
    g = Grid2D(-3, 3, -3, 3, 32, 32)
    cfg = SamplerConfig(dt=0.01, t_total=20.0, n_paths=8, rng_seed=123)
    a = isotropic_diffusion(g, 0.05)
    mu1, _ = _sample_one(OU, a, g, cfg)
    mu2, _ = _sample_one(OU, a, g, cfg)
    assert np.array_equal(mu1.weights, mu2.weights)
    mu3, _ = _sample_one(OU, a, g, SamplerConfig(dt=0.01, t_total=20.0, n_paths=8, rng_seed=124))
    assert not np.array_equal(mu1.weights, mu3.weights)


def test_zero_drift_uniform_occupation():
    g = Grid2D(-1, 1, -1, 1, 8, 8)
    cfg = SamplerConfig(dt=0.02, t_total=400.0, n_paths=16, rng_seed=5)
    mu, diag = _sample_one(lambda x, y: (0 * x, 0 * y), isotropic_diffusion(g, 0.3), g, cfg)
    per_cell = diag["n_samples"] / 64
    assert np.abs(mu.weights - 1 / 64).max() < 3.0 / np.sqrt(per_cell)


def test_ou_cross_oracle_bl():
    g = Grid2D(-4, 4, -4, 4, 64, 64)
    eps = 0.1
    v = sample_vector_field(OU, g)
    mu_pde, _ = solve_stationary(assemble(v, isotropic_diffusion(g, eps / 2), g))
    cfg = SamplerConfig(dt=0.01, t_total=150.0, n_paths=32, rng_seed=7)
    mu_mc, diag = _sample_one(OU, isotropic_diffusion(g, eps / 2), g, cfg)
    res = bl_distance(mu_pde, mu_mc)
    assert res.value < 0.02
    assert diag["frac_jump_gt_2cells"] <= 0.05
    assert diag["frac_drift_below_cell"] >= 0.99


def test_hopf_radial_mode():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 50, 50)
    cfg = SamplerConfig(dt=0.005, t_total=100.0, n_paths=32, rng_seed=11)
    mu, _ = _sample_one(hopf_drift(1.0), isotropic_diffusion(g, 0.1), g, cfg)
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
        _sample_one(lambda x, y: (0 * x, 0 * y), isotropic_diffusion(g, 0.3), g, cfg)


def test_dt_robustness_within_mc_error():
    # halving dt moves the occupation estimate by less than a few MC
    # standard errors of a reference functional
    g = Grid2D(-3, 3, -3, 3, 32, 32)
    xx, yy = g.centers()
    ball = xx**2 + yy**2 < 0.5
    vals = []
    for dt in (0.02, 0.01):
        cfg = SamplerConfig(dt=dt, t_total=200.0, n_paths=16, rng_seed=3)
        mu, _ = _sample_one(OU, isotropic_diffusion(g, 0.05), g, cfg)
        vals.append(float(mu.weights[ball].sum()))
    # MC standard error of the ball mass: relaxation time ~ 1, so roughly
    # independent samples every unit time across paths
    n_eff = 16 * (200.0 - 40.0) / 1.0
    p = vals[1]
    se = np.sqrt(max(p * (1 - p), 1e-6) / n_eff)
    assert abs(vals[0] - vals[1]) < 4 * se
