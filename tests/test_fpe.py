import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab.errors import SingularOperatorError, StencilOverflowError
from fplab.fields import (
    DiffusionField,
    NullFamilySchedule,
    isotropic_diffusion,
    isotropic_schedule,
    normalized_measure,
    sample_diffusion_field,
    sample_vector_field,
)
from fplab.fpe import (
    DiscreteOperator,
    assemble,
    assemble_1d,
    bernoulli,
    solve_family,
    solve_stationary,
)
from fplab.grid import Grid1D, Grid2D
from fplab.scenarios import build_schedule, hopf_drift


@given(st.floats(min_value=-600, max_value=600))
@settings(max_examples=100, deadline=None)
def test_bernoulli_properties(z):
    b = float(bernoulli(np.array([z]))[0])
    b_neg = float(bernoulli(np.array([-z]))[0])
    assert b > 0
    assert b_neg - b == pytest.approx(z, rel=1e-9, abs=1e-9)


def test_bernoulli_small_z_limit():
    assert bernoulli(np.array([0.0]))[0] == 1.0
    assert bernoulli(np.array([1e-13]))[0] == pytest.approx(1.0, abs=1e-12)
    # extreme arguments stay finite
    assert np.isfinite(bernoulli(np.array([690.0, -690.0]))).all()


def test_zero_drift_reduces_to_laplacian():
    # with V = 0 the SG flux is pure diffusion: matrix equals the 5-point
    # Laplacian in mass variables, and uniform w is stationary
    g = Grid2D(-1, 1, -1, 1, 8, 8)
    c = 0.37
    v = sample_vector_field(lambda x, y: (0 * x, 0 * y), g)
    op = assemble(v, isotropic_diffusion(g, c), g)
    n = g.nx * g.ny
    idx = np.arange(n).reshape(g.nx, g.ny)
    rows, cols, vals = [], [], []
    rx, ry = c / g.hx**2, c / g.hy**2
    for i in range(g.nx):
        for j in range(g.ny):
            for di, dj, r in ((1, 0, rx), (-1, 0, rx), (0, 1, ry), (0, -1, ry)):
                ii, jj = i + di, j + dj
                if 0 <= ii < g.nx and 0 <= jj < g.ny:
                    rows.append(idx[i, j]); cols.append(idx[ii, jj]); vals.append(r)
                    rows.append(idx[i, j]); cols.append(idx[i, j]); vals.append(-r)
    lap = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).toarray()
    assert np.allclose(op.matrix.toarray(), lap, atol=1e-12)
    mu, rep = solve_stationary(op)
    assert np.allclose(mu.weights, 1.0 / n, atol=1e-12)
    assert rep.residual < 1e-12


def test_column_sums_vanish_random_spd_fields():
    rng = np.random.default_rng(0)
    g = Grid2D(-1, 1, -1, 1, 12, 12)
    for _ in range(5):
        vx = rng.normal(size=(12, 12))
        vy = rng.normal(size=(12, 12))
        a11 = 0.5 + rng.random((12, 12))
        a22 = 0.5 + rng.random((12, 12))
        a12 = 0.4 * (rng.random((12, 12)) - 0.5)
        v = sample_vector_field(lambda x, y: (vx, vy), g)
        a = DiffusionField(g, a11, a12, a22)
        op = assemble(v, a, g)
        assert op.column_sum_defect() < 1e-10 * op.norm_inf()


def test_sg_off_diagonal_rates_nonnegative():
    rng = np.random.default_rng(2)
    g = Grid2D(-1, 1, -1, 1, 10, 10)
    v = sample_vector_field(lambda x, y: (3 * np.sin(4 * y), -2 * np.cos(3 * x)), g)
    a = isotropic_diffusion(g, 0.07)
    m = assemble(v, a, g).matrix.toarray()
    off = m - np.diag(np.diag(m))
    assert off.min() >= 0.0


def test_ou_1d_analytic_oracle():
    # stationary density of a u'' + (x u)' = 0 with a = eps/2 is ~ exp(-x^2/eps)
    g = Grid1D(-4.0, 4.0, 400)
    x = g.centers()
    eps = 0.1
    op = assemble_1d(-x, np.full_like(x, eps / 2), g)
    mu, rep = solve_stationary(op)
    ref = np.exp(-(x**2) / eps)
    ref /= ref.sum()
    assert np.abs(mu.weights - ref).sum() < 1e-3
    assert rep.residual <= 1e-10 * op.norm_inf()
    assert rep.min_weight >= -1e-12


def test_ou_1d_rate_matrix_eigensolve_equivalence():
    # independently build the nearest-neighbor jump-rate matrix from the
    # exponential-fitting weights and cross-check via dense eigensolve
    g = Grid1D(-4.0, 4.0, 64)
    x = g.centers()
    eps = 0.1
    a = np.full_like(x, eps / 2)
    op = assemble_1d(-x, a, g)
    w_solve, _ = solve_stationary(op)

    h = g.hx
    n = g.nx
    q = np.zeros((n, n))
    for i in range(n - 1):
        af = 0.5 * (a[i] + a[i + 1])
        vf = 0.5 * (-x[i] - x[i + 1]) - (a[i + 1] - a[i]) / h
        z = vf * h / af
        b_pos = z / np.expm1(z) if abs(z) > 1e-12 else 1.0 - z / 2
        b_neg = -z / np.expm1(-z) if abs(z) > 1e-12 else 1.0 + z / 2
        rate_lr = af * b_neg / h**2   # i -> i+1
        rate_rl = af * b_pos / h**2   # i+1 -> i
        q[i + 1, i] += rate_lr
        q[i, i] -= rate_lr
        q[i, i + 1] += rate_rl
        q[i + 1, i + 1] -= rate_rl
    vals, vecs = np.linalg.eig(q)
    k = np.argmin(np.abs(vals))
    w_eig = np.real(vecs[:, k])
    w_eig = w_eig / w_eig.sum()
    assert np.abs(w_solve.weights - w_eig).max() < 1e-10


def test_gibbs_2d_analytic_oracle():
    # V = -grad(Phi), A = eps I  =>  u ~ exp(-Phi/eps) exactly
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    eps = 0.2
    v = sample_vector_field(lambda x, y: (x - x**3, -y), g)
    mu, rep = solve_stationary(assemble(v, isotropic_diffusion(g, eps), g))
    xx, yy = g.centers()
    ref = np.exp(-((xx**2 - 1) ** 2 / 4 + yy**2 / 2) / eps)
    ref /= ref.sum()
    assert np.abs(mu.weights - ref).sum() < 5e-3
    assert mu.weights.min() > 0.0  # strict interior positivity for SPD A


def test_gibbs_grid_convergence():
    errs = []
    eps = 0.2
    for n in (50, 100):
        g = Grid2D(-2.5, 2.5, -2.5, 2.5, n, n)
        v = sample_vector_field(lambda x, y: (x - x**3, -y), g)
        mu, _ = solve_stationary(assemble(v, isotropic_diffusion(g, eps), g))
        xx, yy = g.centers()
        ref = np.exp(-((xx**2 - 1) ** 2 / 4 + yy**2 / 2) / eps)
        ref /= ref.sum()
        errs.append(np.abs(mu.weights - ref).sum())
    assert errs[1] < errs[0] / 2.0  # at least first order


def test_mixed_term_constant_anisotropic_consistency():
    # constant full A with a12 != 0, gradient drift of its Gibbs density:
    # exact density exp(-q(x)) with A grad q = V checks the corner stencils
    g = Grid2D(-2, 2, -2, 2, 80, 80)
    a11, a12, a22 = 0.12, 0.04, 0.08
    # choose u = exp(-(x^2+y^2)): then V must equal A grad(log u) = -2 A x
    v = sample_vector_field(
        lambda x, y: (-2 * (a11 * x + a12 * y), -2 * (a12 * x + a22 * y)), g
    )
    a = sample_diffusion_field(lambda x, y: (a11 + 0 * x, a12 + 0 * x, a22 + 0 * x), g)
    op = assemble(v, a, g)
    assert op.column_sum_defect() < 1e-10 * op.norm_inf()
    mu, rep = solve_stationary(op)
    xx, yy = g.centers()
    ref = np.exp(-(xx**2 + yy**2))
    ref /= ref.sum()
    assert np.abs(mu.weights - ref).sum() < 2e-3
    assert rep.min_weight >= -1e-12


def _random_spd_problem(rng, g):
    shape = (g.nx, g.ny)
    vx, vy = rng.normal(size=shape), rng.normal(size=shape)
    a11 = 0.5 + rng.random(shape)
    a22 = 0.5 + rng.random(shape)
    a12 = 0.4 * (rng.random(shape) - 0.5)
    v = sample_vector_field(lambda x, y: (vx, vy), g)
    return v, DiffusionField(g, a11, a12, a22)


def test_assembly_commutes_with_swapping_x_and_y():
    # the problem with x and y swapped is the same operator under the cell
    # permutation (i, j) -> (j, i); a mixed-term coefficient taken from the
    # wrong side or axis breaks this while column sums still vanish
    rng = np.random.default_rng(7)
    g = Grid2D(-1.0, 1.0, -1.5, 2.0, 9, 13)
    v, a = _random_spd_problem(rng, g)
    gs = Grid2D(g.y_min, g.y_max, g.x_min, g.x_max, g.ny, g.nx)
    vs = sample_vector_field(lambda x, y: (v.vy.T, v.vx.T), gs)
    a_s = DiffusionField(gs, a.a22.T, a.a12.T, a.a11.T)
    m = assemble(v, a, g).matrix.toarray()
    ms = assemble(vs, a_s, gs).matrix.toarray()
    perm = np.arange(g.nx * g.ny).reshape(g.ny, g.nx).T.ravel()
    np.testing.assert_allclose(ms[np.ix_(perm, perm)], m, rtol=1e-14, atol=1e-14 * np.abs(m).max())


def test_mixed_term_matches_cellwise_reference():
    # entry-by-entry mixed stencil: d_t(a12 u) at each face from the cells on
    # both sides, centred tangentially inside and one-sided on edge rows
    rng = np.random.default_rng(3)
    g = Grid2D(-1.0, 1.0, -1.0, 1.5, 8, 11)
    v, a = _random_spd_problem(rng, g)
    mixed = (assemble(v, a, g).matrix
             - assemble(v, DiffusionField(g, a.a11, 0 * a.a12, a.a22), g).matrix).toarray()
    ref = np.zeros_like(mixed)
    cell = lambda i, j: i * g.ny + j
    for i in range(g.nx):
        for j in range(g.ny):
            for di, dj, h, ht in ((1, 0, g.hx, g.hy), (0, 1, g.hy, g.hx)):
                ii, jj = i + di, j + dj
                if ii >= g.nx or jj >= g.ny:
                    continue
                # tangential neighbours of the face, clamped to the grid
                n_t = g.ny if di else g.nx
                t = j if di else i
                tp, tm = min(t + 1, n_t - 1), max(t - 1, 0)
                w = 1.0 / (2.0 * h * (tp - tm) * ht)
                for side in ((i, j), (ii, jj)):
                    for t_new, sign in ((tp, 1.0), (tm, -1.0)):
                        src = (side[0], t_new) if di else (t_new, side[1])
                        val = sign * w * a.a12[src]
                        ref[cell(i, j), cell(*src)] += val
                        ref[cell(ii, jj), cell(*src)] -= val
    np.testing.assert_allclose(mixed, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_five_point_assembly_equals_facewise_sum_bit_for_bit():
    # with a12 = 0 each entry is summed face by face in a fixed order: x-faces
    # (entries of the low cells, then of the high cells), then y-faces
    rng = np.random.default_rng(5)
    g = Grid2D(-1.0, 1.0, -1.0, 1.5, 9, 12)
    v, a = _random_spd_problem(rng, g)
    a = DiffusionField(g, a.a11, 0 * a.a12, a.a22)
    ref = np.zeros((g.nx * g.ny, g.nx * g.ny))
    idx = np.arange(g.nx * g.ny).reshape(g.nx, g.ny)
    for vn, ann, h, ids in ((v.vx, a.a11, g.hx, idx), (v.vy.T, a.a22.T, g.hy, idx.T)):
        a_f = 0.5 * (ann[:-1] + ann[1:])
        z = (0.5 * (vn[:-1] + vn[1:]) - (ann[1:] - ann[:-1]) / h) * h / a_f
        rl, lr = a_f * bernoulli(z) / h**2, a_f * bernoulli(-z) / h**2
        faces = list(zip(ids[:-1].ravel(), ids[1:].ravel(), rl.ravel(), lr.ravel()))
        for lo, hi, r_rl, r_lr in faces:
            ref[lo, hi] += r_rl
            ref[lo, lo] -= r_lr
        for lo, hi, r_rl, r_lr in faces:
            ref[hi, lo] += r_lr
            ref[hi, hi] -= r_rl
    m = assemble(v, a, g).matrix
    assert m.has_canonical_format and m.nnz == np.count_nonzero(ref)
    assert np.array_equal(m.toarray(), ref)


def test_y_face_overflow_reports_grid_index():
    # only the y-face between cells (2, 7) and (2, 8) overflows; its index is
    # reported in grid (i, j) order
    g = Grid2D(-2, 2, -2, 2, 10, 16)
    vy = np.zeros((g.nx, g.ny))
    vy[2, 7] = vy[2, 8] = 1e4
    v = sample_vector_field(lambda x, y: (0 * x, vy), g)
    with pytest.raises(StencilOverflowError) as exc:
        assemble(v, isotropic_diffusion(g, 1.0), g)
    assert exc.value.face == ("y-face", (2, 7))


def test_stencil_overflow_raised():
    g = Grid2D(-2, 2, -2, 2, 16, 16)
    v = sample_vector_field(lambda x, y: (10.0 + 0 * x, 0 * y), g)
    with pytest.raises(StencilOverflowError):
        assemble(v, isotropic_diffusion(g, 1e-6), g)


def test_solve_family_collects_errors():
    g = Grid2D(-2, 2, -2, 2, 16, 16)
    v = sample_vector_field(lambda x, y: (10.0 + 0 * x, 0 * y), g)
    fam = isotropic_schedule(g, (0.2, 0.1, 1e-6))
    out = solve_family(v, fam, g)
    assert len(out) == 3
    assert out[0][1] is not None and out[1][1] is not None
    assert out[2][1] is None and isinstance(out[2][2], StencilOverflowError)


def test_solve_family_empty_schedule():
    g = Grid2D(-2, 2, -2, 2, 16, 16)
    v = sample_vector_field(lambda x, y: (0 * x, 0 * y), g)
    fam = NullFamilySchedule((), ())
    assert solve_family(v, fam, g) == []


def test_singular_null_space_detected():
    # two decoupled 1D operators => null space dimension 2
    g1 = Grid1D(-1, 1, 8)
    x = g1.centers()
    op_a = assemble_1d(-x, np.full(8, 0.1), g1)
    op_b = assemble_1d(-x, np.full(8, 0.2), g1)
    big = DiscreteOperator(Grid1D(-1, 1, 16), sp.block_diag([op_a.matrix, op_b.matrix]).tocsr())
    with pytest.raises(SingularOperatorError):
        solve_stationary(big)


def _chain(rng, n):
    # birth-death generator on n cells, rates uniform in [0.1, 1.1]; entry
    # (j, i) is the rate i -> j, so columns sum to zero
    up, down = rng.uniform(0.1, 1.1, (2, n - 1))
    m = sp.diags([up, down], [-1, 1], shape=(n, n)).tolil()
    m.setdiag(-np.asarray(m.sum(axis=0)).ravel())
    return m.tocsr()


def _on_16_cells(m):
    # Grid1D with 16 cells: the solve pins cell 8, the uniqueness check cell 4
    return DiscreteOperator(Grid1D(-1, 1, 16), sp.csr_matrix(m))


def test_reducible_two_block_batch_refused():
    # with both pinned cells in one closed block the other block has exact
    # zeros and the two pinned solves agree up to rounding, so only the
    # pattern of the operator shows that it splits
    rng = np.random.default_rng(2024)
    for _ in range(100):
        k = int(rng.choice([3, 5, 8, 11, 13]))
        op = _on_16_cells(sp.block_diag([_chain(rng, k), _chain(rng, 16 - k)]))
        with pytest.raises(SingularOperatorError, match="reducible: 2 strongly"):
            solve_stationary(op, check_unique=True)


def test_one_way_coupled_pair_refused():
    # block A (cells 12-15) feeds block B (cells 0-11), which never returns
    # mass: A is transient and the null vector vanishes on it
    rng = np.random.default_rng(7)
    m = sp.block_diag([_chain(rng, 12), _chain(rng, 4)]).tolil()
    m[11, 12] += 0.5
    m[12, 12] -= 0.5
    with pytest.raises(SingularOperatorError, match="reducible: 2 strongly"):
        solve_stationary(_on_16_cells(m), check_unique=True)


def test_coupling_stored_as_zero_does_not_hide_reducibility():
    # explicit 0.0 entries between the blocks are edges to csgraph; the check
    # must read the pattern of the nonzero entries
    rng = np.random.default_rng(0)
    m = sp.block_diag([_chain(rng, 12), _chain(rng, 4)]).tocoo()
    rows = np.concatenate([m.row, [11, 12]])
    cols = np.concatenate([m.col, [12, 11]])
    data = np.concatenate([m.data, [0.0, 0.0]])
    op = _on_16_cells(sp.csr_matrix((data, (rows, cols)), shape=(16, 16)))
    assert op.matrix.nnz == m.nnz + 2
    with pytest.raises(SingularOperatorError, match="reducible: 2 strongly"):
        solve_stationary(op, check_unique=True)


def test_ou_2d_oracle():
    g = Grid2D(-3, 3, -3, 3, 64, 64)
    eps = 0.1
    v = sample_vector_field(lambda x, y: (-x, -y), g)
    mu, _ = solve_stationary(assemble(v, isotropic_diffusion(g, eps / 2), g))
    xx, yy = g.centers()
    ref = np.exp(-(xx**2 + yy**2) / eps)
    ref /= ref.sum()
    assert np.abs(mu.weights - ref).sum() < 2e-4


def _count_factorizations(monkeypatch):
    from fplab import fpe

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("splu", "spsolve", "factorized"):
        monkeypatch.setattr(fpe.spla, name, counted(name, getattr(fpe.spla, name)))
    return calls


def test_solve_stationary_factorizes_once(monkeypatch):
    # one sparse LU per operator, uniqueness check included: the alternate
    # pinned system is solved from the same factors
    calls = _count_factorizations(monkeypatch)
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 32, 32)
    v = sample_vector_field(hopf_drift(1.0), g)
    mu, rep = solve_stationary(assemble(v, isotropic_diffusion(g, 0.2), g), check_unique=True)
    assert calls == ["splu"]
    assert rep.method == "bordered-lu"
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_pinned_solve_passes_residual_test_without_fallback(monkeypatch):
    # the pinned solve has w = 1 at the centre cell, where the Hopf measure is
    # ~1e-6 of its peak at eps 0.02, so its entries sum to ~6e8: the residual
    # test and the report must see the unit-mass vector (at 256² the raw one
    # fails the test and every member falls back to inverse power, a second
    # splu)
    from fplab.fpe import RESIDUAL_RTOL

    calls = _count_factorizations(monkeypatch)
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 128, 128)
    v = sample_vector_field(hopf_drift(1.0), g)
    (_, a), = build_schedule(g, (0.02,), "modulated")
    op = assemble(v, a, g)
    mu, rep = solve_stationary(op)
    assert calls == ["splu"]
    assert rep.method == "bordered-lu"
    assert rep.meta["pinned_cell"] == 64 * 128 + 64
    assert rep.meta["lu_nnz"] > op.matrix.nnz
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert rep.residual <= RESIDUAL_RTOL * op.norm_inf()
    assert rep.residual == pytest.approx(np.abs(op.matrix @ mu.weights.ravel()).max(), rel=1e-6, abs=0)


def test_pinned_solve_matches_inverse_power_on_double_well():
    # the saddle cell pinned at the centre carries ~4e-6 of the peak mass
    from fplab.fpe import RESIDUAL_RTOL, _inverse_power

    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 200, 200)
    v = sample_vector_field(lambda x, y: (x - x**3, -y), g)
    op = assemble(v, isotropic_diffusion(g, 0.02), g)
    mu, rep = solve_stationary(op)
    assert rep.method == "bordered-lu"
    w_ip, _, _ = _inverse_power(op.matrix, RESIDUAL_RTOL * op.norm_inf())
    assert np.abs(mu.weights.ravel() - w_ip).sum() <= 1e-8


def _isolated_cell_operator():
    # an OU chain of 15 cells plus a 16th cell with no transitions at all:
    # every pinned matrix has a zero row, so its LU is exactly singular
    g = Grid1D(-1, 1, 15)
    x = g.centers()
    m = sp.block_diag([assemble_1d(-x, np.full(15, 0.1), g).matrix, sp.csr_matrix((1, 1))])
    return DiscreteOperator(Grid1D(-1, 1, 16), m.tocsr())


def test_exactly_singular_factor_fails_uniqueness_check():
    with pytest.raises(SingularOperatorError):
        solve_stationary(_isolated_cell_operator(), check_unique=True)


def test_exactly_singular_factor_falls_back_to_inverse_power():
    op = _isolated_cell_operator()
    mu, rep = solve_stationary(op, check_unique=False)
    assert rep.method == "inverse-power"
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert rep.residual <= 1e-10 * op.norm_inf()


def test_zero_operator_is_singular_without_uniqueness_check():
    # the shifted matrix of the inverse-power fallback is exactly singular too
    op = DiscreteOperator(Grid1D(-1, 1, 8), sp.csr_matrix((8, 8)))
    with pytest.raises(SingularOperatorError):
        solve_stationary(op, check_unique=False)


def test_solve_family_propagates_programming_errors():
    # only package errors are per-member failures; a caller's bug must surface
    g = Grid2D(-2, 2, -2, 2, 16, 16)
    v = sample_vector_field(lambda x, y: (-x, -y), g)
    fam = isotropic_schedule(g, (0.2, 0.1))
    other = Grid2D(-2, 2, -2, 2, 12, 12)
    with pytest.raises(ValueError, match="grids must match"):
        solve_family(sample_vector_field(lambda x, y: (-x, -y), other), fam, other)
    with pytest.raises(AttributeError):
        solve_family(v, [(0.2, "not a DiffusionField")], g)


def _direct(op):
    # the same operator without the stencil label, so the solve factors the
    # whole pinned matrix instead of its checkerboard Schur complement
    return DiscreteOperator(op.grid, op.matrix, {k: v for k, v in op.meta.items() if k != "stencil"})


def _five_point_operator(kind, n):
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, n, n)
    if kind == "hopf":
        v = sample_vector_field(hopf_drift(1.0), g)
        (_, a), = build_schedule(g, (0.1,), "modulated")
    else:
        v = sample_vector_field(lambda x, y: (-x, -y), g)
        a = isotropic_diffusion(g, 0.1)
    return assemble(v, a, g)


def _sheared_ou_operator(n):
    g = Grid2D(-3, 3, -3, 3, n, n)
    v = sample_vector_field(lambda x, y: (-x, -y), g)
    a = DiffusionField(g, np.full((n, n), 0.1), np.full((n, n), 0.03), np.full((n, n), 0.08))
    return assemble(v, a, g)


@pytest.mark.parametrize("n", [12, 48, 100])
@pytest.mark.parametrize("kind", ["hopf", "ou-iso"])
def test_checkerboard_solve_matches_direct_solve(kind, n):
    op = _five_point_operator(kind, n)
    assert op.meta["stencil"] == "5-point"
    mu, rep = solve_stationary(op)
    mu_direct, rep_direct = solve_stationary(_direct(op))
    assert rep.method == rep_direct.method == "bordered-lu"
    assert np.abs(mu.weights - mu_direct.weights).sum() <= 1e-13
    assert rep.residual <= 1e-10 * op.norm_inf()
    # the stored LU is that of the half-size system
    assert rep.meta["lu_nnz"] < rep_direct.meta["lu_nnz"]


def test_checkerboard_solve_keeps_metastable_accuracy():
    # at eps 0.03 the two wells of x - x^3 are metastable: a Schur diagonal
    # formed by subtraction put the measure 4e-12 in L1 from the reference,
    # and the LU of the whole pinned matrix 2e-13. Reference: that LU's solve
    # refined with residuals in long double
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    v = sample_vector_field(lambda x, y: (x - x**3, -y), g)
    op = assemble(v, isotropic_diffusion(g, 0.03), g)
    mu, _ = solve_stationary(op)
    r1 = 50 * 100 + 50
    b = op.matrix.tolil()
    b[r1, :] = 0.0
    b[r1, r1] = 1.0
    b = b.tocsc()
    lu = spla.splu(b)
    coo = b.tocoo()
    e = np.zeros(op.n)
    e[r1] = 1.0
    x = lu.solve(e)
    for _ in range(3):
        r = np.zeros(op.n, dtype=np.longdouble)
        np.add.at(r, coo.row, coo.data.astype(np.longdouble) * x.astype(np.longdouble)[coo.col])
        x = x - lu.solve((r - e).astype(float))
    assert np.abs(mu.weights.ravel() - x / x.sum()).sum() <= 5e-14


def _reference_direct_solve(op):
    """The direct path as first written: the pinned matrix from COO copies, one
    MMD LU of it, and the unit-mass solve with its residual."""
    m = op.matrix
    r1 = (op.grid.nx // 2) * op.grid.ny + op.grid.ny // 2
    coo = m.tocoo()
    keep = coo.row != r1
    b = sp.csc_matrix(
        (np.append(coo.data[keep], 1.0),
         (np.append(coo.row[keep], r1), np.append(coo.col[keep], r1))),
        shape=m.shape,
    )
    lu = spla.splu(b, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                   options=dict(SymmetricMode=True))
    e = np.zeros(m.shape[0])
    e[r1] = 1.0
    w = lu.solve(e)
    w = w / w.sum()
    return w, float(np.abs(m @ w).max()), int(lu.nnz)


def test_nine_point_solve_is_bit_identical_to_direct_reference():
    op = _sheared_ou_operator(48)
    assert op.meta["stencil"] == "9-point"
    mu, rep = solve_stationary(op)
    w, residual, lu_nnz = _reference_direct_solve(op)
    mu_ref, clipped = normalized_measure(op.grid, w.reshape(48, 48))
    assert np.array_equal(mu.weights, mu_ref.weights)
    assert (rep.method, rep.residual, rep.meta["lu_nnz"], rep.clipped_mass) == (
        "bordered-lu", residual, lu_nnz, clipped)
    assert (rep.min_weight, rep.mass_defect) == (
        float(w.min() / max(w.sum(), 1e-300)), abs(float(w.sum()) - 1.0))


def test_zero_eliminated_diagonal_falls_back_without_warning(monkeypatch):
    # cell (3, 4) has the other colour than the pinned centre (6, 6); cutting
    # all its transitions leaves a zero on the eliminated diagonal, so the
    # pinned matrix is exactly singular and no LU of it is attempted
    op = _five_point_operator("ou-iso", 12)
    keep = np.ones(op.n)
    keep[3 * 12 + 4] = 0.0
    off = op.matrix - sp.diags(op.matrix.diagonal())
    off = sp.diags(keep) @ off @ sp.diags(keep)
    m = (off - sp.diags(np.asarray(off.sum(axis=0)).ravel())).tocsr()
    calls = _count_factorizations(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu, rep = solve_stationary(DiscreteOperator(op.grid, m, op.meta), check_unique=False)
    assert rep.method == "inverse-power"
    assert calls == ["splu"]  # the shifted operator of the fallback only
    assert rep.meta["lu_nnz"] is None
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("make", [
    lambda: _five_point_operator("hopf", 24),
    lambda: _sheared_ou_operator(24),
    lambda: assemble_1d(-Grid1D(-1, 1, 40).centers(), np.full(40, 0.1), Grid1D(-1, 1, 40)),
], ids=["5-point", "9-point", "1d"])
def test_every_stencil_factorizes_once(monkeypatch, make):
    op = make()
    calls = _count_factorizations(monkeypatch)
    _, rep = solve_stationary(op, check_unique=True)
    assert calls == ["splu"]
    assert rep.method == "bordered-lu"
