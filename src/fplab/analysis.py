"""Weak*-convergence diagnostics, invariance residuals and sublevel-set bounds
for solved measure families.

Weak* convergence is metrized by a bounded-Lipschitz dictionary (fixed,
versioned), the exact 1D Wasserstein-1 distance on the radial marginal, and
the angular marginal's W1 distance to uniform. The exponential sublevel-set
bounds follow the level-set estimates: mass outside {U < rho} is bounded by
exp(-gamma * int_{rho_m}^{rho} dt/H(t)) with H an upper envelope of
a^{ij} d_i U d_j U on level bands.

Each function here gives metric values of one solved member; the runners of
``scenarios`` keep them with the member's eps and measure in one record.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import LyapunovCertificate, grad_hypothesis_tol
from .errors import GridMismatchError
from .fields import DiffusionField, DiscreteMeasure, VectorField
from .grid import Grid2D

__all__ = [
    "TestFunctionDictionary",
    "make_dictionary",
    "bump_profile",
    "bl_distance",
    "BLResult",
    "marginal_w1",
    "angular_w1_to_uniform",
    "invariance_residual",
    "lyapunov_upper_bound",
    "anti_lyapunov_lower_bound",
    "LyapunovBound",
]


# ---------------------------------------------------------------------------
# smooth compactly supported bumps

def bump_profile(t):
    """psi(t) = exp(1 - 1/(1-t^2)) on |t| < 1, zero outside; psi(0) = 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti**2))
    return out


def bump_d1(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0 - 1e-14
    ti = t[inside]
    s = -2.0 * ti / (1.0 - ti**2) ** 2
    out[inside] = bump_profile(ti) * s
    return out


_SUP_ROWS = 8  # fine-lattice rows evaluated at a time, in descending order of their bound


@functools.cache
def _fine_profiles():
    """psi, psi' on the 2001-point fine lattice of [-1, 1]."""
    fine = np.linspace(-1.0, 1.0, 2001)
    return bump_profile(fine), bump_d1(fine)


def _pruned_max(bound: np.ndarray, row_max) -> float:
    """max over the rows r of row_max(rows), visiting rows in descending order
    of bound[r] >= every value of row r and stopping once the next bound falls
    below the best value found: exactly the max over all rows."""
    order = np.argsort(-bound, kind="stable")
    best = -np.inf
    for s in range(0, order.size, _SUP_ROWS):
        rows = order[s:s + _SUP_ROWS]
        if bound[rows[0]] < best:
            break
        best = max(best, float(row_max(rows)))
    return best


# The gradient's sup norm of a (wx, wy) bump on the 2001^2 fine lattice, one
# float per distinct width pair (dictionaries use few). A row of the lattice
# takes the same elementwise expressions as the whole outer products. Each
# row's bound is that expression with every column factor replaced by its
# largest magnitude on the lattice; IEEE rounding is monotone, so no computed
# value of the row exceeds its bound, and the pruned maximum equals the whole
# lattice's exactly.

@functools.lru_cache(maxsize=None)
def _grad_sup(wx: float, wy: float) -> float:
    """sup |grad h| of a (wx, wy) bump on the fine lattice."""
    psi, d1 = _fine_profiles()

    def grad_row(rows):
        gx = np.abs(np.outer(d1[rows], psi)) / wx
        gy = np.abs(np.outer(psi[rows], d1)) / wy
        return np.sqrt(gx**2 + gy**2).max()

    bound = np.sqrt((np.abs(d1 * np.abs(psi).max()) / wx) ** 2
                    + (np.abs(psi * np.abs(d1).max()) / wy) ** 2)
    return _pruned_max(bound, grad_row)


@dataclass(frozen=True)
class TestFunctionDictionary:
    """Finite dictionary of tensor-product smooth bumps with analytic derivatives.

    Each member is h(x,y) = psi((x-cx)/wx) psi((y-cy)/wy); supports must stay
    strictly inside the truncation box so every h vanishes on boundary-adjacent
    cells. The 1D profiles on the cell centres, one row per bump, are the
    whole representation: px and py hold psi, dpx and dpy hold psi' divided
    by the width, so d_x h_k = outer(dpx_k, py_k) and d_y h_k =
    outer(px_k, dpy_k). A bump sums against a cell array W as px_k^T W py_k,
    and no (nx, ny) bump is formed. The gradient's sup norm is evaluated on a
    2001^2 fine lattice, once per (wx, wy) per process, pruned row by row with
    exact bounds.
    """

    grid: Grid2D
    name: str
    bumps: tuple  # of (cx, cy, wx, wy)
    px: np.ndarray = field(repr=False)   # (k, nx) psi((x - cx) / wx)
    dpx: np.ndarray = field(repr=False)  # (k, nx) psi'((x - cx) / wx) / wx
    py: np.ndarray = field(repr=False)   # (k, ny) psi((y - cy) / wy)
    dpy: np.ndarray = field(repr=False)  # (k, ny) psi'((y - cy) / wy) / wy
    grad_inf: np.ndarray = field(repr=False)  # (k,)

    def __len__(self):
        return len(self.bumps)

    def integrals(self, w: np.ndarray) -> np.ndarray:
        """(k,) sums over the cells of h_k w, for an (nx, ny) cell array w."""
        return _separable_sums(self.px, w, self.py)


def _separable_sums(p, w, q):
    """p_k^T w q_k for each row k of the stacks p (k, nx) and q (k, ny)."""
    return ((p @ w) * q).sum(axis=1)


def make_dictionary(grid: Grid2D, bumps, name: str) -> TestFunctionDictionary:
    for cx, cy, wx, wy in bumps:
        if not (
            grid.x_min + grid.hx < cx - wx
            and cx + wx < grid.x_max - grid.hx
            and grid.y_min + grid.hy < cy - wy
            and cy + wy < grid.y_max - grid.hy
        ):
            raise ValueError(
                f"bump ({cx},{cy},{wx},{wy}) support reaches boundary-adjacent cells"
            )
    bumps = tuple(tuple(map(float, b)) for b in bumps)
    cx, cy, wx, wy = np.reshape(bumps, (-1, 4)).T[:, :, None]  # each (k, 1)
    ux, uy = (grid.x_centers() - cx) / wx, (grid.y_centers() - cy) / wy
    return TestFunctionDictionary(
        grid=grid, name=name, bumps=bumps,
        px=bump_profile(ux), dpx=bump_d1(ux) / wx, py=bump_profile(uy), dpy=bump_d1(uy) / wy,
        grad_inf=np.array([_grad_sup(wx, wy) for _, _, wx, wy in bumps]),
    )


GRID_MARGIN = 0.15  # fraction of the box kept free of bumps on each side


def grid_dictionary(grid: Grid2D, n: int = 3, name: str | None = None) -> TestFunctionDictionary:
    """n x n bumps tiling the interior; the generic default dictionary."""
    lx = grid.x_max - grid.x_min
    ly = grid.y_max - grid.y_min
    cx = grid.x_min + lx * (GRID_MARGIN + (1 - 2 * GRID_MARGIN) * (np.arange(n) + 0.5) / n)
    cy = grid.y_min + ly * (GRID_MARGIN + (1 - 2 * GRID_MARGIN) * (np.arange(n) + 0.5) / n)
    wx0 = 0.98 * (1 - 2 * GRID_MARGIN) * lx / n
    wy0 = 0.98 * (1 - 2 * GRID_MARGIN) * ly / n
    bumps = []
    for x in cx:
        wx = min(wx0, 0.98 * (x - grid.x_min - 1.5 * grid.hx),
                 0.98 * (grid.x_max - 1.5 * grid.hx - x))
        for y in cy:
            wy = min(wy0, 0.98 * (y - grid.y_min - 1.5 * grid.hy),
                     0.98 * (grid.y_max - 1.5 * grid.hy - y))
            bumps.append((x, y, wx, wy))
    return make_dictionary(grid, bumps, name or f"grid{n}x{n}-v1")


# ---------------------------------------------------------------------------
# bounded-Lipschitz distance and marginals

def _bl_functions(grid: Grid2D):
    xx, yy = grid.centers()
    r = np.hypot(xx, yy)
    clip = lambda a: np.clip(a, -1.0, 1.0)
    fs = [clip(xx), clip(yy), clip((xx + yy) / np.sqrt(2)), clip((xx - yy) / np.sqrt(2))]
    fs += [clip(r - c) for c in (0.0, 0.5, 1.0, 1.5, 2.0)]
    safe_r = np.maximum(r, 1.0)
    fs += [xx / safe_r, yy / safe_r]  # angular probes, 1-Lipschitz, |f|<=1
    return fs


@dataclass(frozen=True)
class BLResult:
    value: float
    radial_w1: float


def bl_distance(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    dictionary: TestFunctionDictionary | None = None,
) -> BLResult:
    """Bounded-Lipschitz distance over the fixed function dictionary.

    The value is sup_f |int f dmu - int f dnu| over 1-Lipschitz, <=1-bounded
    probes (coordinate projections, radial clips, angular probes, and the
    rescaled test dictionary when given); exact W1 on the radial marginal is
    reported alongside.
    """
    if mu.grid != nu.grid:
        raise GridMismatchError("measures live on different grids")
    grid = mu.grid
    if dictionary is not None and dictionary.grid != grid:
        raise GridMismatchError("dictionary grid mismatch")
    dmu = mu.weights - nu.weights
    values = [float(abs((f * dmu).sum())) for f in _bl_functions(grid)]
    if dictionary is not None:
        scale = np.maximum(1.0, dictionary.grad_inf)
        values += (np.abs(dictionary.integrals(dmu)) / scale).tolist()
    xx, yy = grid.centers()
    rw1 = marginal_w1(np.hypot(xx, yy).ravel(), mu.weights.ravel(), nu.weights.ravel())
    return BLResult(value=max(values), radial_w1=rw1)


def marginal_w1(coords: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> float:
    """Exact Wasserstein-1 between two weighted samples of a 1D coordinate
    (L1 distance between CDFs)."""
    order = np.argsort(coords, kind="stable")
    c = coords[order]
    d = (w1 - w2)[order]
    cdf_diff = np.cumsum(d)[:-1]
    return float(np.abs(cdf_diff * np.diff(c)).sum())


ANGULAR_BINS = 256


def angular_w1_to_uniform(mu: DiscreteMeasure) -> float:
    """W1 between the angular marginal CDF and the uniform CDF on [0, 2pi),
    with the marginal binned into ANGULAR_BINS equal sectors."""
    grid = mu.grid
    xx, yy = grid.centers()
    th = np.arctan2(yy, xx).ravel() % (2 * np.pi)
    bins = np.clip((th / (2 * np.pi) * ANGULAR_BINS).astype(int), 0, ANGULAR_BINS - 1)
    hist = np.bincount(bins, weights=mu.weights.ravel(), minlength=ANGULAR_BINS)
    cdf = np.cumsum(hist)
    uniform = np.arange(1, ANGULAR_BINS + 1) / ANGULAR_BINS
    return float(np.abs(cdf - uniform).sum() * (2 * np.pi / ANGULAR_BINS))


# ---------------------------------------------------------------------------
# invariance residuals

def invariance_residual(
    mu: DiscreteMeasure, v: VectorField, dictionary: TestFunctionDictionary
) -> np.ndarray:
    """(k,) r_k = |sum_cells V . grad(h_k) w| = |dpx_k^T (v_x w) py_k + px_k^T (v_y w) dpy_k|
    (dpx, dpy carry the chain rule's 1/wx, 1/wy); zero for invariant limit measures."""
    if mu.grid != v.grid or dictionary.grid != v.grid:
        raise GridMismatchError("measure, field, and dictionary must share a grid")
    d, w = dictionary, mu.weights
    return np.abs(_separable_sums(d.dpx, v.vx * w, d.py) + _separable_sums(d.px, v.vy * w, d.dpy))


# ---------------------------------------------------------------------------
# sublevel-set bounds (level-set method)

RHO_MESH = 64  # level nodes of the band envelope H in both level-set bounds

@dataclass(frozen=True)
class LyapunovBound:
    value: float
    hypothesis_ok: bool  # integral form if True, else the constant-form fallback
    integral: float


def _level_set_bound(cert, a, lo, hi, rho_mesh):
    """The shared part of both level-set bounds on the band {lo <= U <= hi},
    returned as (band, bound) with bound.value left for the caller.

    Integral form: int_lo^hi dt / H(t), with H interpolated through the band
    envelope of g = a^{ij} d_i U d_j U, whose points are, per level band, the
    band max of g and the U value where it is attained; this approximates
    sup_{U=t} g conservatively for slowly varying envelopes. Constant form
    (hypothesis_ok False) when the gradient hypothesis fails: the band is
    empty, |grad U| drops to the grid tolerance of grad_hypothesis_tol on
    it, or fewer than two level bands are hit. U's derivatives come from the
    certificate's cache; g depends on a and is formed per call.
    """
    band = (cert.u >= lo) & (cert.u <= hi)
    nodes = np.linspace(lo, hi, rho_mesh)
    failed = LyapunovBound(value=np.nan, hypothesis_ok=False, integral=np.nan)
    if not (band.any() and float(cert.grad_norm[band].min())
            > grad_hypothesis_tol(cert.curvature, band, cert.grid)):
        return band, failed
    gx, gy = cert.grad
    g = a.a11 * gx**2 + 2.0 * a.a12 * gx * gy + a.a22 * gy**2
    u_band, g_band = cert.u[band].ravel(), g[band].ravel()
    pu, pg = [], []
    for t_lo, t_hi in zip(nodes[:-1], nodes[1:]):
        mask = (u_band > t_lo) & (u_band <= t_hi)
        if mask.any():
            k = np.argmax(g_band[mask])
            pu.append(u_band[mask][k])
            pg.append(g_band[mask][k])
    if len(pu) < 2:
        return band, failed
    order = np.argsort(pu)
    h_nodes = np.interp(nodes, np.asarray(pu)[order], np.asarray(pg)[order])
    return band, LyapunovBound(value=np.nan, hypothesis_ok=True,
                               integral=float(np.trapezoid(1.0 / h_nodes, nodes)))


def lyapunov_upper_bound(
    cert: LyapunovCertificate,
    a: DiffusionField,
    rho: float,
    rho_mesh: int = RHO_MESH,
) -> LyapunovBound:
    """Exponential bound on the mass outside the rho-sublevel set:
    exp(-gamma int_{rho_m}^{rho} dt / H(t)) with
    H(t) >= max over the t-level set of a^{ij} d_i U d_j U.

    Falls back to the constant-form bound
    gamma^{-1} C |A|_band |grad U|_band^2 (C = 1/(rho - rho_m), band mass <= 1)
    when the gradient hypothesis fails on some level band.
    """
    if not (cert.rho_m < rho < cert.rho_M):
        raise ValueError("rho must lie in (rho_m, rho_M)")
    band, bound = _level_set_bound(cert, a, cert.rho_m, rho, rho_mesh)
    if bound.hypothesis_ok:
        return replace(bound, value=float(min(1.0, np.exp(-cert.gamma * bound.integral))))
    gnorm = cert.grad_norm
    amax = float(a.frob[band].max()) if band.any() else float(a.frob.max())
    gmax = float(gnorm[band].max()) if band.any() else float(gnorm.max())
    c = 1.0 / (rho - cert.rho_m)
    return replace(bound, value=min(1.0, c * amax * gmax**2 / max(cert.gamma, 1e-300)))


def anti_lyapunov_lower_bound(
    cert: LyapunovCertificate,
    a: DiffusionField,
    rho0: float,
    rho: float,
) -> LyapunovBound:
    """Multiplicative growth factor exp(gamma int_{rho0}^{rho} dt / H(t)) in the
    anti-Lyapunov mass estimate
    mu(Omega_rho \\ Omega*_rho_m) >= mu(Omega_rho0 \\ Omega*_rho_m) * factor.

    H is over-estimated by the same band envelope, which keeps the factor
    conservative (never larger than the continuum one); the factor is 1 when
    the gradient hypothesis fails.
    """
    if not (cert.rho_m <= rho0 <= rho < cert.rho_M):
        raise ValueError("need rho_m <= rho0 <= rho < rho_M")
    if rho == rho0 or cert.gamma == 0.0:
        return LyapunovBound(value=1.0, hypothesis_ok=True, integral=0.0)
    bound = _level_set_bound(cert, a, rho0, rho, RHO_MESH)[1]
    return replace(bound, value=float(np.exp(cert.gamma * bound.integral))
                   if bound.hypothesis_ok else 1.0)

