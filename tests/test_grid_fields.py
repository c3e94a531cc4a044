import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab.errors import GridMismatchError, NonFiniteFieldError, NotSPDError
from fplab.fields import (
    DiffusionField,
    DiscreteMeasure,
    NullFamilySchedule,
    isotropic_diffusion,
    isotropic_schedule,
    measure_mass_on,
    normalized_measure,
    rebin_measure,
    sample_diffusion_field,
    sample_vector_field,
)
from fplab.grid import Grid1D, Grid2D, dilate


def test_grid_geometry():
    g = Grid2D(-2.0, 2.0, -1.0, 1.0, 16, 8)
    assert g.hx == pytest.approx(0.25)
    assert g.hy == pytest.approx(0.25)
    assert g.n_cells == 128
    xx, yy = g.centers()
    assert xx[0, 0] == pytest.approx(-2.0 + 0.125)
    assert yy[0, 0] == pytest.approx(-1.0 + 0.125)
    assert xx.shape == (16, 8)


def test_grid_rejects_tiny():
    with pytest.raises(ValueError):
        Grid2D(-1, 1, -1, 1, 4, 16)
    with pytest.raises(ValueError):
        Grid1D(0.0, 0.0, 16)


def test_cell_index_roundtrip():
    g = Grid2D(-2, 2, -2, 2, 16, 16)
    xx, yy = g.centers()
    i, j = g.cell_index(xx.ravel(), yy.ravel())
    np.testing.assert_array_equal(i, np.repeat(np.arange(16), 16))
    np.testing.assert_array_equal(j, np.tile(np.arange(16), 16))


def test_sample_linear_field_centers():
    # V(x,y) = (-x,-y) on [-2,2]^2 with 16 cells: innermost centers at +-0.125
    g = Grid2D(-2, 2, -2, 2, 16, 16)
    v = sample_vector_field(lambda x, y: (-x, -y), g)
    assert v.vx[8, 8] == pytest.approx(-0.125)
    assert v.vx[7, 8] == pytest.approx(0.125)
    assert v.vy[8, 7] == pytest.approx(0.125)


def test_sample_constant_isotropic_diffusion():
    g = Grid2D(-2, 2, -2, 2, 16, 16)
    a = sample_diffusion_field(lambda x, y: (0.05 + 0 * x, 0 * x, 0.05 + 0 * x), g)
    assert np.allclose(a.lam, 0.05)
    assert np.allclose(a.frob, 0.05 * np.sqrt(2))


def test_hopf_drift_point_value():
    # drift (bx - y - x(x^2+y^2), x + by - y(x^2+y^2)) at (1,0), b=1 -> (0,1)
    from fplab.scenarios import hopf_drift

    vx, vy = hopf_drift(1.0)(np.array([1.0]), np.array([0.0]))
    assert vx[0] == pytest.approx(0.0)
    assert vy[0] == pytest.approx(1.0)


def test_nonfinite_sampling_rejected():
    g = Grid2D(-2, 2, -2, 2, 16, 16)
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteFieldError):
        sample_vector_field(lambda x, y: (1.0 / (x - x[0, 0]), 0 * y), g)


def test_not_spd_rejected():
    g = Grid2D(-2, 2, -2, 2, 16, 16)
    with pytest.raises(NotSPDError):
        sample_diffusion_field(lambda x, y: (0 * x - 0.1, 0 * x, 0.05 + 0 * x), g)
    with pytest.raises(NotSPDError):
        # indefinite: large off-diagonal
        sample_diffusion_field(lambda x, y: (0.1 + 0 * x, 0.2 + 0 * x, 0.1 + 0 * x), g)


def test_lambda_min_matches_eigensolve():
    rng = np.random.default_rng(7)
    g = Grid2D(-2, 2, -2, 2, 16, 16)
    a11 = 0.5 + rng.random((16, 16))
    a22 = 0.5 + rng.random((16, 16))
    a12 = 0.3 * (rng.random((16, 16)) - 0.5)
    a = DiffusionField(g, a11, a12, a22)
    idx = rng.integers(0, 16, size=(100, 2))
    for i, j in idx:
        m = np.array([[a11[i, j], a12[i, j]], [a12[i, j], a22[i, j]]])
        lam = np.linalg.eigvalsh(m)[0]
        assert a.lam[i, j] == pytest.approx(lam, abs=1e-12)


def test_measure_mass_on_examples():
    g = Grid2D(-1, 1, -1, 1, 8, 8)
    # uniform on 4 cells
    w = np.zeros((8, 8))
    w[:2, :2] = 0.25
    mu = DiscreteMeasure(g, w)
    region = np.zeros((8, 8), dtype=bool)
    region[0, 0] = True
    assert measure_mass_on(mu, region) == pytest.approx(0.25)
    # point mass, region excludes it
    w2 = np.zeros((8, 8))
    w2[3, 3] = 1.0
    mu2 = DiscreteMeasure(g, w2)
    region2 = np.ones((8, 8), dtype=bool)
    region2[3, 3] = False
    assert measure_mass_on(mu2, region2) == 0.0


def test_measure_mass_on_gaussian_quadrature_oracle():
    # Gaussian with sigma^2 = 0.05 on [-2,2]^2; mass of {x^2+y^2 < 0.3^2}
    # computed by direct summation of the analytic density over cell centers
    g = Grid2D(-2, 2, -2, 2, 64, 64)
    xx, yy = g.centers()
    dens = np.exp(-(xx**2 + yy**2) / (2 * 0.05))
    w = dens / dens.sum()
    mu = DiscreteMeasure(g, w)
    oracle = float(w[xx**2 + yy**2 < 0.09].sum())
    got = measure_mass_on(mu, lambda x, y: x**2 + y**2 < 0.09)
    assert got == pytest.approx(oracle, abs=1e-15)
    assert 0.5 < got < 0.7  # sanity: ~1 - exp(-0.09/0.1)


def test_measure_mass_full_domain(small_grid):
    rng = np.random.default_rng(0)
    w = rng.random((16, 16))
    mu, _ = normalized_measure(small_grid, w)
    assert measure_mass_on(mu, np.ones((16, 16), dtype=bool)) == pytest.approx(1.0, abs=1e-12)


def test_measure_region_mismatch(small_grid):
    mu, _ = normalized_measure(small_grid, np.ones((16, 16)))
    with pytest.raises(GridMismatchError):
        measure_mass_on(mu, np.ones((8, 8), dtype=bool))


def test_rebin_measure(small_grid):
    rng = np.random.default_rng(3)
    mu, _ = normalized_measure(small_grid, rng.random((16, 16)))
    coarse = rebin_measure(mu, 2)
    assert coarse.grid.nx == 8
    assert coarse.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert coarse.weights[0, 0] == pytest.approx(mu.weights[:2, :2].sum())


def test_schedule_invariants(small_grid):
    s = isotropic_schedule(small_grid, (0.2, 0.1, 0.05))
    assert s.is_normal
    assert s.eps == (0.2, 0.1, 0.05)
    with pytest.raises(ValueError):
        isotropic_schedule(small_grid, (0.1, 0.2))
    with pytest.raises(ValueError):
        NullFamilySchedule((0.2, 0.1), (isotropic_diffusion(small_grid, 0.1),
                                        isotropic_diffusion(small_grid, 0.1)))


@pytest.mark.parametrize("a_values", [(0.1, 0.2), (0.1, 0.1), (0.3, 0.1, 0.1)])
def test_schedule_rejects_noise_that_does_not_shrink(small_grid, a_values):
    # eps labels decrease, but max |A_k| does not decrease strictly
    eps = (0.3, 0.2, 0.1)[: len(a_values)]
    members = tuple(isotropic_diffusion(small_grid, a) for a in a_values)
    with pytest.raises(ValueError, match="must decrease strictly"):
        NullFamilySchedule(eps, members)


@given(st.integers(0, 15), st.integers(0, 15))
@settings(max_examples=20, deadline=None)
def test_point_mass_region_property(i, j):
    g = Grid2D(-1, 1, -1, 1, 16, 16)
    w = np.zeros((16, 16))
    w[i, j] = 1.0
    mu = DiscreteMeasure(g, w)
    region = np.zeros((16, 16), dtype=bool)
    region[i, j] = True
    assert measure_mass_on(mu, region) == 1.0
    assert measure_mass_on(mu, ~region) == 0.0


def _dilate_box_reference(cells):
    """One-cell 8-neighbourhood dilation by nine shifted copies."""
    nx, ny = cells.shape
    dil = cells.copy()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            shifted = np.zeros_like(cells)
            src = cells[max(0, -di): nx - max(0, di), max(0, -dj): ny - max(0, dj)]
            shifted[max(0, di): nx - max(0, -di), max(0, dj): ny - max(0, -dj)] = src
            dil |= shifted
    return dil


def _dilate_cross_reference(mask, n):
    """n-cell 4-neighbourhood dilation, one cross step at a time."""
    out = mask.copy()
    for _ in range(n):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_dilate_matches_reference_loops(n):
    rng = np.random.default_rng(7)
    masks = [rng.random((12, 9)) < p for p in (0.02, 0.1, 0.3)]
    for i, j in [(0, 0), (0, 8), (11, 0), (11, 8), (0, 4), (11, 4), (6, 0), (6, 8)]:
        m = np.zeros((12, 9), dtype=bool)
        m[i, j] = True  # a corner or edge cell alone
        masks.append(m)
    edges = np.zeros((12, 9), dtype=bool)
    edges[[0, -1], :] = edges[:, [0, -1]] = True
    masks += [edges, np.zeros((12, 9), dtype=bool), np.ones((12, 9), dtype=bool)]
    for m in masks:
        before = m.copy()
        box = m
        for _ in range(n):
            box = _dilate_box_reference(box)
        np.testing.assert_array_equal(dilate(m, n, diagonal=True), box)
        np.testing.assert_array_equal(dilate(m, n, diagonal=False), _dilate_cross_reference(m, n))
        np.testing.assert_array_equal(m, before)  # the input mask is left as it was


def test_isotropic_schedule_members_are_scaled_shape():
    # the sheared constant shape of the ou-sheared-oracle benchmark inputs
    g = Grid2D(-3.0, 3.0, -3.0, 3.0, 16, 16)
    shape = (0.5, 0.15, 0.3)
    fam = isotropic_schedule(g, (0.4, 0.2, 0.1, 0.05), shape=shape)
    assert fam.is_normal
    for e, a in fam:
        for got, s in zip((a.a11, a.a12, a.a22), shape):
            assert got.tobytes() == np.full((16, 16), e * s).tobytes()
