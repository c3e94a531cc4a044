"""Finite-volume discretization and direct solve of the stationary Fokker-Planck
equation  d2_ij(a^{ij} u) - d_i(V^i u) = 0  with no-flux (reflecting) boundaries.

The operator is assembled in divergence form with exponentially-fitted
(Scharfetter-Gummel) face fluxes for the diagonal diffusion, which makes the
scheme exact for 1D constant-coefficient drift-diffusion and keeps all
nearest-neighbor transition rates non-negative. Mixed-derivative terms enter
through 4-point corner stencils on the faces: centered tangential differences
inside, one-sided ones on the edge rows and columns. Both axes share one face
routine; the y-faces are the x-faces of the transposed arrays. Face entries are
summed into a (3, 3, nx, ny) stencil array, so the CSR matrix is built without
duplicate entries. The assembled matrix M acts on cell masses w (so M is
generator-like: column sums vanish) and the stationary measure is the
unit-mass null vector of M.

The null vector comes from one sparse LU per operator. The balance row of the
grid's centre cell is replaced by the unit row that pins that cell's weight
to 1 (the "replace one equation" method for stationary Markov chains, Stewart
1994, ch. 2); the pinned matrix B keeps the stencil's sparsity, so it is
ordered by minimum degree on B^T + B. A 5-point operator couples each cell
only to cells of the other colour of the (i + j) parity checkerboard, so the
block of B on one colour is diagonal: one step of red-black (cyclic)
reduction (Saad, Iterative Methods for Sparse Linear Systems, sec. 3.3)
eliminates that colour, and the LU is taken of the Schur complement on the
half of the cells that keeps the pinned one, with its diagonal set from its
column sums (no cancellation). 9-point and hand-built operators factor B
itself. There is no second method: the solve fails closed with
SingularOperatorError when the operator is reducible (more than one strongly
connected component in its nonzero pattern, refused before it is factorized),
when SuperLU finds the pinned matrix exactly singular, or when the solve,
normalized to unit mass, leaves a residual above the tolerance. An irreducible
generator has a one-dimensional null space (Perron-Frobenius for irreducible
Metzler matrices), so the system pinned at a second cell has the same
solution; it is a rank-2 update of the first, solved from the same factors
through the Sherman-Morrison-Woodbury formula (Hager 1989). The L1 distance of
the two normalized solves, reported as pinned_pair_l1, indicates the rounding
error of the measure; above the tolerance it raises IllConditionedError when
every off-diagonal rate is non-negative, and SingularOperatorError otherwise.

scipy's sparse modules load on their first use, so commands that never solve
(sampling, attractor and Lyapunov checks) do not pay for importing them.
Every factorization goes through the module attribute ``spla``, the one
place to patch to count or wrap them.
"""

from __future__ import annotations

import importlib
import time
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import FplabError, IllConditionedError, SingularOperatorError, StencilOverflowError
from .fields import DiffusionField, DiscreteMeasure, NullFamilySchedule, VectorField, normalized_measure
from .grid import Grid2D

__all__ = [
    "bernoulli",
    "DiscreteOperator",
    "SolveReport",
    "assemble",
    "solve_stationary",
    "solve_family",
]


class _LazyModule(types.ModuleType):
    """The module named ``__name__``, imported on the first attribute read,
    which copies its namespace into this object: later reads are plain dict
    lookups. Loading never rebinds the global holding this object, so a
    wrapper put in its place keeps seeing every call."""

    def __getattr__(self, name):
        module = importlib.import_module(self.__name__)
        vars(self).update(vars(module))
        return getattr(module, name)


sp = _LazyModule("scipy.sparse")
csgraph = _LazyModule("scipy.sparse.csgraph")
spla = _LazyModule("scipy.sparse.linalg")

Z_MAX = 700.0
RESIDUAL_RTOL = 1e-10
UNIQUENESS_TOL = 1e-6


def bernoulli(z):
    """B(z) = z / (e^z - 1), the exponential-fitting weight; B(0) = 1.

    Satisfies B(-z) = B(z) + z and B(z) > 0 for all finite z.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-12
    out[small] = 1.0 - 0.5 * z[small]
    pos = ~small & (z > 0)
    neg = ~small & (z < 0)
    zp, zn = z[pos], z[neg]
    out[pos] = zp * np.exp(-zp) / (-np.expm1(-zp))
    out[neg] = zn / np.expm1(zn)
    return out


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse generator-like matrix M with (M w)_cell ~ cell-integrated L_A u."""

    grid: Grid2D
    matrix: sp.csr_matrix
    meta: dict = field(default_factory=dict)

    def norm_inf(self) -> float:
        return float(np.abs(self.matrix).sum(axis=1).max())


@dataclass
class SolveReport:
    """How a solve went. min_weight is the raw null vector's minimum over its
    sum, taken before normalized_measure clips negatives (and -0.0) away."""

    residual: float
    mass_defect: float
    min_weight: float
    clipped_mass: float
    method: str
    wall_time: float
    meta: dict = field(default_factory=dict)


def _check_overflow(z, what):
    amax = float(np.abs(z).max()) if z.size else 0.0
    if amax > Z_MAX:
        idx = tuple(map(int, np.unravel_index(np.abs(z).argmax(), z.shape)))
        raise StencilOverflowError((what, idx), amax, Z_MAX)


def _faces(vn, ann, st, h, a12=None, ht=None):
    """Add the fluxes across the faces normal to axis 0 to the stencil st and
    return the face Peclet numbers z; the y-faces are the x-faces of the
    transposed arrays and stencil.

    st[1 + di, 1 + dj, i, j] is the matrix entry of row (i, j) and column
    (i + di, j + dj), so each (row, column) pair is summed here and the CSR
    step sees no duplicates. The SG flux F = d_n(a_nn u) - v_n u is
    (a/h)[B(z) u_hi - B(-z) u_lo] with z = v h / a at the face (v corrected by
    the face gradient of a_nn); in mass variables it exchanges a B(z)/h^2
    (hi -> lo) and a B(-z)/h^2 (lo -> hi), both >= 0. With a12, the mixed
    term d_t(a12 u) is taken at the face from the cells on both sides, by a
    tangential difference between the clamped neighbours jp = min(j+1, n-1)
    and jm = max(j-1, 0) with weight 1 / (2 h (jp - jm) ht): centred inside,
    one-sided on the edge rows. Each face value enters the low cell with +
    and the high cell with -, so column sums cancel exactly.
    """
    a_f = 0.5 * (ann[:-1] + ann[1:])
    v_f = 0.5 * (vn[:-1] + vn[1:]) - (ann[1:] - ann[:-1]) / h
    z = v_f * h / a_f
    rate_rl = a_f * bernoulli(z) / h**2
    rate_lr = a_f * bernoulli(-z) / h**2
    st[2, 1, :-1] += rate_rl
    st[1, 1, :-1] -= rate_lr
    st[0, 1, 1:] += rate_lr
    st[1, 1, 1:] -= rate_rl
    if a12 is not None:
        n = st.shape[3]
        j = np.arange(n)
        jp, jm = np.minimum(j + 1, n - 1), np.maximum(j - 1, 0)
        c = 1.0 / (2.0 * h * (jp - jm) * ht)
        lo = np.arange(st.shape[2] - 1)[:, None]
        for jt, weight in ((jp, c), (jm, -c)):
            dj = 1 + jt - j
            for di, side in ((0, slice(None, -1)), (1, slice(1, None))):
                coeff = weight * a12[side][:, jt]
                st[1 + di, dj, lo, j] += coeff
                st[di, dj, lo + 1, j] -= coeff
    return z


# stencil offsets (di, dj) in column order within a row
_FIVE_POINT = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))
_NINE_POINT = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))


def _csr(st, offsets) -> sp.csr_matrix:
    """CSR matrix of the stencil entries at `offsets` that stay on the grid."""
    _, _, nx, ny = st.shape
    i, j = np.indices((nx, ny))
    keep, cols = [], []
    for di, dj in offsets:
        keep.append((0 <= i + di) & (i + di < nx) & (0 <= j + dj) & (j + dj < ny))
        cols.append((i + di) * ny + j + dj)
    keep = np.stack(keep, axis=-1)
    vals = np.stack([st[1 + di, 1 + dj] for di, dj in offsets], axis=-1)[keep]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=-1).ravel())])
    return sp.csr_matrix((vals, np.stack(cols, axis=-1)[keep], indptr), shape=(nx * ny, nx * ny))


def assemble(v: VectorField, a: DiffusionField, grid: Grid2D) -> DiscreteOperator:
    """2D stationary operator; no-flux truncation boundary."""
    if v.grid != grid or a.grid != grid:
        raise ValueError("field grids must match the assembly grid")
    a12 = a.a12 if np.any(a.a12 != 0.0) else None
    st = np.zeros((3, 3, grid.nx, grid.ny))
    zx = _faces(v.vx, a.a11, st, grid.hx, a12, grid.hy)
    _check_overflow(zx, "x-face")
    zy = _faces(v.vy.T, a.a22.T, st.transpose(1, 0, 3, 2), grid.hy,
                None if a12 is None else a12.T, grid.hx)
    _check_overflow(zy.T, "y-face")  # face index in grid (i, j) order
    meta = {"max_abs_z": float(max(np.abs(zx).max(), np.abs(zy).max())),
            "stencil": "5-point" if a12 is None else "9-point"}
    return DiscreteOperator(grid, _csr(st, _FIVE_POINT if a12 is None else _NINE_POINT), meta)


def _pinned_cells(grid: Grid2D) -> tuple[int, int]:
    """Flat indices of the cell the solve pins (the centre cell) and of the one
    the uniqueness check pins instead (the centre of the low-x half)."""
    mid = grid.ny // 2
    return (grid.nx // 2) * grid.ny + mid, (grid.nx // 4) * grid.ny + mid


def _pinned(m: sp.csr_matrix, row: int) -> sp.csr_matrix:
    """B = m with balance row `row` replaced by the unit row e_row^T (that
    cell's weight pinned to 1), spliced out of m's CSR arrays."""
    lo, hi = m.indptr[row], m.indptr[row + 1]
    indptr = m.indptr.copy()
    indptr[row + 1:] -= hi - lo - 1
    return sp.csr_matrix(
        (np.concatenate([m.data[:lo], [1.0], m.data[hi:]]),
         np.concatenate([m.indices[:lo], np.array([row], m.indices.dtype), m.indices[hi:]]),
         indptr),
        shape=m.shape,
    )


def _splu(a: sp.csc_matrix):
    """LU of a, ordered by minimum degree on a^T + a with the diagonal preferred
    as pivot (SymmetricMode); SingularOperatorError when a is exactly singular."""
    try:
        return spla.splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularOperatorError(f"pinned matrix is exactly singular: {exc}") from exc


def _censored(m_ke: sp.csr_matrix, m_ek: sp.csr_matrix, d: np.ndarray) -> sp.csr_matrix:
    """Schur complement M_KK - M_KE D^{-1} M_EK of a 5-point generator on the
    colour K, where M_KK is diagonal. It generates the chain watched only on
    K: its off-diagonal entries are the rates of the paths j -> e -> i, sums
    of non-negative products, and its diagonal is minus their column sums,
    as in exact arithmetic. Setting the diagonal that way instead of by the
    subtraction avoids its cancellation (Grassmann, Taksar and Heyman 1985),
    which costs a metastable operator digits of its measure."""
    p = m_ke @ sp.diags(-1.0 / d) @ m_ek
    off = (p - sp.diags(p.diagonal())).tocsr()
    return (off - sp.diags(np.asarray(off.sum(axis=0)).ravel())).tocsr()


def _checkerboard_solver(m: sp.csr_matrix, ny: int, row: int):
    """Red-black reduction of a 5-point operator m on an (nx, ny) grid, pinned
    at cell `row`: (solve, lu_nnz). K is the colour of the pinned cell, E the
    other one. No two cells of one colour are coupled, so B_EE = diag(D) and
    the Schur complement of B on K is that of m with its row `row` pinned;
    only that complement is factored. A zero in D makes B exactly singular:
    a generator cell with no transitions is refused earlier as reducible, but
    a hand-built operator whose columns do not sum to zero can reach here."""
    i, j = np.divmod(np.arange(m.shape[0]), ny)
    kept = (i + j) % 2 == sum(divmod(row, ny)) % 2
    k, e = np.flatnonzero(kept), np.flatnonzero(~kept)
    d = m.diagonal()[e]
    if not np.all(d != 0.0):
        raise SingularOperatorError(
            f"pinned matrix is exactly singular: zero diagonal at cell {int(e[d == 0.0][0])}")
    m_ke, m_ek = m[k][:, e], m[e][:, k]
    r = int(np.searchsorted(k, row))  # the pinned cell's index within K
    lu = _splu(_pinned(_censored(m_ke, m_ek, d), r).tocsc())

    def solve(f):
        # B differs from m only in row `row`, whose B_KE row is zero
        g = f[k] - m_ke @ (f[e] / d)
        g[r] = f[row]
        x = np.empty(m.shape[0])
        x[k] = lu.solve(g)
        x[e] = (f[e] - m_ek @ x[k]) / d
        return x

    return solve, int(lu.nnz)


def _pinned_solver(op: DiscreteOperator, row: int):
    """(solve, lu_nnz) for B, the operator pinned at cell `row`. solve(f)
    returns B^{-1} f, and lu_nnz counts the nonzeros of the one stored LU:
    that of the checkerboard Schur complement for 5-point operators, that of
    B otherwise."""
    if op.meta.get("stencil") == "5-point":
        return _checkerboard_solver(op.matrix, op.grid.ny, row)
    lu = _splu(_pinned(op.matrix, row).tocsc())
    return lu.solve, int(lu.nnz)


def _unit(n: int, row: int) -> np.ndarray:
    e = np.zeros(n)
    e[row] = 1.0
    return e


def _alternate_solve(m: sp.csr_matrix, solve, w: np.ndarray, r1: int, r2: int) -> np.ndarray:
    """Solve of the system pinned at cell r2 instead of r1, from solve(f) =
    B1^{-1} f, exact for any pinned cells.

    B1 is m with row r1 replaced by e_r1^T, and w = B1^{-1} e_r1 is its raw
    (unnormalized) solve. B2 = B1 + U V^T with U = [e_r1, e_r2] and V^T rows
    (m_r1 - e_r1^T), (e_r2^T - m_r2), so by Sherman-Morrison-Woodbury, with
    W = B1^{-1} U = [w, z2] and K = I + V^T W:  B2^{-1} e_r2 = z2 - W K^{-1} V^T z2.
    """
    z2 = solve(_unit(m.shape[0], r2))

    def vt(x):
        mx = m @ x
        return np.array([mx[r1] - x[r1], x[r2] - mx[r2]])

    k = np.eye(2) + np.column_stack([vt(w), vt(z2)])
    try:
        y = np.linalg.solve(k, vt(z2))
    except np.linalg.LinAlgError:
        return np.full(m.shape[0], np.nan)  # det B2 = det B1 det K: B2 is singular
    return z2 - np.column_stack([w, z2]) @ y


def _require_irreducible(m: sp.csr_matrix):
    """Raise SingularOperatorError if the nonzero pattern of m has more than
    one strongly connected component. Stored zeros are dropped first: csgraph
    counts them as edges, so a coupling stored as 0.0 would hide the split."""
    pattern = m.copy()
    pattern.eliminate_zeros()
    k, _ = csgraph.connected_components(pattern, directed=True, connection="strong")
    if k > 1:
        raise SingularOperatorError(
            f"operator is reducible: {k} strongly connected components; "
            "null space dimension > 1 or a transient class"
        )


def _nonnegative_rates(m: sp.csr_matrix) -> bool:
    """Whether every stored off-diagonal entry of m is >= 0 (m is Metzler)."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return bool(np.all(m.data[m.indices != rows] >= 0.0))


def solve_stationary(op: DiscreteOperator) -> tuple[DiscreteMeasure, SolveReport]:
    """Unit-mass non-negative null vector of the assembled operator.

    One path; each step fails closed with SingularOperatorError:
    1. the operator's nonzero pattern must be one strongly connected
       component (irreducible), checked before any factorization;
    2. one sparse LU of B1, the operator with the centre cell's balance row
       replaced by the unit row that pins its weight to 1, must exist
       (SuperLU must not find B1 exactly singular). A 5-point operator
       (op.meta["stencil"], set by assemble) factors the checkerboard Schur
       complement of B1 instead;
    3. the solve, normalized to unit mass, must leave a finite residual
       max |M w| <= RESIDUAL_RTOL * ||M||_inf;
    4. the system pinned at the centre of the low-x half, solved from the
       same factors by a rank-2 Woodbury update, must agree with it within
       UNIQUENESS_TOL in L1 (a NaN distance disagrees). When every
       off-diagonal rate is >= 0 the null vector is unique, so a disagreement
       is rounding and raises IllConditionedError.
    A solve with no mass left after its negative entries are clipped is
    refused too. The report's meta adds pinned_cell, lu_nnz (the nonzeros of
    the one stored LU) and pinned_pair_l1, the distance of step 4: an
    indicator of the measure's rounding error, not a bound on it.
    """
    t0 = time.perf_counter()
    m = op.matrix
    n = m.shape[0]
    tol = RESIDUAL_RTOL * op.norm_inf()
    r1, r2 = _pinned_cells(op.grid)

    _require_irreducible(m)
    solve, lu_nnz = _pinned_solver(op, r1)
    with np.errstate(all="ignore"):
        w_lu = solve(_unit(n, r1))
        w = w_lu / w_lu.sum()
    residual = float(np.abs(m @ w).max()) if np.all(np.isfinite(w)) else np.inf
    if not residual <= tol:
        raise SingularOperatorError(
            f"normalized solve leaves residual {residual:.3e} above the tolerance "
            f"{tol:.3e} (RESIDUAL_RTOL * ||M||_inf)"
        )

    with np.errstate(all="ignore"):
        w_alt = _alternate_solve(m, solve, w_lu, r1, r2)
        pair_l1 = float(np.abs(w - w_alt / w_alt.sum()).sum())
    if not pair_l1 <= UNIQUENESS_TOL:
        if _nonnegative_rates(m):
            raise IllConditionedError(
                f"two pinned solves disagree by L1 distance {pair_l1:.3e}: the null "
                "vector of this irreducible operator is unique but not resolved "
                "in double precision"
            )
        raise SingularOperatorError(
            f"two pinned solves disagree by L1 distance {pair_l1:.3e}; "
            "null space dimension > 1 suspected"
        )

    mass_defect = abs(float(w.sum()) - 1.0)
    min_weight = float(w.min() / max(w.sum(), 1e-300))
    try:
        mu, clipped = normalized_measure(op.grid, w.reshape(op.grid.nx, op.grid.ny))
    except ValueError as exc:
        raise SingularOperatorError(f"null vector is not a measure: {exc}") from exc
    report = SolveReport(
        residual=residual,
        mass_defect=mass_defect,
        min_weight=min_weight,
        clipped_mass=clipped,
        method="bordered-lu",
        wall_time=time.perf_counter() - t0,
        meta=dict(op.meta, pinned_cell=r1, lu_nnz=lu_nnz, pinned_pair_l1=pair_l1),
    )
    return mu, report


def solve_family(
    v: VectorField, family: NullFamilySchedule, grid: Grid2D
) -> list[tuple[float, DiscreteMeasure | None, SolveReport | FplabError]]:
    """Solve each family member in schedule order.

    Package errors (FplabError) are collected per member, not raised; any other
    exception is a programming error and propagates.
    """
    out = []
    for eps, a in family:
        try:
            op = assemble(v, a, grid)
            mu, report = solve_stationary(op)
            out.append((eps, mu, report))
        except FplabError as exc:
            out.append((eps, None, exc))
    return out
