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
    "ResidualReport",
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


def bump_d2(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0 - 1e-14
    ti = t[inside]
    s = -2.0 * ti / (1.0 - ti**2) ** 2
    sp = -2.0 * (1.0 + 3.0 * ti**2) / (1.0 - ti**2) ** 3
    out[inside] = bump_profile(ti) * (s**2 + sp)
    return out


_SUP_ROWS = 8  # fine-lattice rows evaluated at a time, in descending order of their bound


@functools.cache
def _fine_profiles():
    """psi, psi', psi'' on the 2001-point fine lattice of [-1, 1]."""
    fine = np.linspace(-1.0, 1.0, 2001)
    return bump_profile(fine), bump_d1(fine), bump_d2(fine)


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


@functools.lru_cache(maxsize=None)  # two floats per distinct (wx, wy); dictionaries use few
def _sup_norms(wx: float, wy: float) -> tuple:
    """(sup |grad h|, sup |lap h|) of a (wx, wy) bump on the 2001^2 fine lattice.

    A row of the lattice takes the same elementwise expressions as the whole
    outer products. Each row's bound is that expression with every column
    factor replaced by its largest magnitude on the lattice; IEEE rounding is
    monotone, so no computed value of the row exceeds its bound, and the
    pruned maximum equals the whole lattice's exactly.
    """
    psi, d1, d2 = _fine_profiles()
    p_max, d1_max, d2_max = np.abs(psi).max(), np.abs(d1).max(), np.abs(d2).max()

    def grad_row(rows):
        gx = np.abs(np.outer(d1[rows], psi)) / wx
        gy = np.abs(np.outer(psi[rows], d1)) / wy
        return np.sqrt(gx**2 + gy**2).max()

    def lap_row(rows):
        return np.abs(np.outer(d2[rows], psi) / wx**2 + np.outer(psi[rows], d2) / wy**2).max()

    g_bound = np.sqrt((np.abs(d1 * p_max) / wx) ** 2 + (np.abs(psi * d1_max) / wy) ** 2)
    l_bound = np.abs(d2) * p_max / wx**2 + np.abs(psi) * d2_max / wy**2
    return _pruned_max(g_bound, grad_row), _pruned_max(l_bound, lap_row)


@dataclass(frozen=True)
class TestFunctionDictionary:
    """Finite dictionary of tensor-product smooth bumps with analytic derivatives.

    Each member is h(x,y) = psi((x-cx)/wx) psi((y-cy)/wy); supports must stay
    strictly inside the truncation box so every h vanishes on boundary-adjacent
    cells. Each bump is stored as four 1D profiles on the cell centres: psi
    and psi' along x, psi and psi' along y. The (k, nx, ny) arrays h, dxh and
    dyh are their outer products, built on first read and kept; an element of
    np.outer(px, py) is the same product of the same two numbers as in the
    dense construction, so the values are exact. Sup norms of the
    gradient/Laplacian are evaluated on a 2001^2 fine lattice, once per
    (wx, wy) per process, pruned row by row with exact bounds.
    """

    grid: Grid2D
    name: str
    bumps: tuple  # of (cx, cy, wx, wy)
    profiles: tuple = field(repr=False)  # per bump (psi_x, psi'_x, psi_y, psi'_y)
    grad_inf: np.ndarray = field(repr=False)  # (k,)
    lap_inf: np.ndarray = field(repr=False)   # (k,)

    def __len__(self):
        return len(self.bumps)

    @functools.cached_property
    def h(self) -> np.ndarray:
        """(k, nx, ny) bump values at the cell centres."""
        return np.asarray([np.outer(px, py) for px, _, py, _ in self.profiles])

    @functools.cached_property
    def dxh(self) -> np.ndarray:
        return np.asarray([np.outer(dpx, py) / wx
                           for (_, dpx, py, _), (_, _, wx, _) in zip(self.profiles, self.bumps)])

    @functools.cached_property
    def dyh(self) -> np.ndarray:
        return np.asarray([np.outer(px, dpy) / wy
                           for (px, _, _, dpy), (_, _, _, wy) in zip(self.profiles, self.bumps)])


def make_dictionary(grid: Grid2D, bumps, name: str) -> TestFunctionDictionary:
    x, y = grid.x_centers(), grid.y_centers()
    profiles, ginf, linf = [], [], []
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
        ux, uy = (x - cx) / wx, (y - cy) / wy
        profiles.append((bump_profile(ux), bump_d1(ux), bump_profile(uy), bump_d1(uy)))
        g_sup, l_sup = _sup_norms(wx, wy)
        ginf.append(g_sup)
        linf.append(l_sup)
    return TestFunctionDictionary(
        grid=grid,
        name=name,
        bumps=tuple(tuple(map(float, b)) for b in bumps),
        profiles=tuple(profiles),
        grad_inf=np.asarray(ginf),
        lap_inf=np.asarray(linf),
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
    fs = _bl_functions(grid)
    if dictionary is not None:
        if dictionary.grid != grid:
            raise GridMismatchError("dictionary grid mismatch")
        for k in range(len(dictionary)):
            scale = max(1.0, dictionary.grad_inf[k])
            fs.append(dictionary.h[k] / scale)
    dmu = mu.weights - nu.weights
    value = max(float(abs((f * dmu).sum())) for f in fs)
    xx, yy = grid.centers()
    rw1 = marginal_w1(np.hypot(xx, yy).ravel(), mu.weights.ravel(), nu.weights.ravel())
    return BLResult(value=value, radial_w1=rw1)


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

@dataclass(frozen=True)
class ResidualReport:
    per_function: np.ndarray  # |int V.grad(h_k) dmu|
    max: float


def invariance_residual(
    mu: DiscreteMeasure, v: VectorField, dictionary: TestFunctionDictionary
) -> ResidualReport:
    """r_k = |sum_cells V . grad(h_k) w|; zero for invariant limit measures."""
    if mu.grid != v.grid or dictionary.grid != v.grid:
        raise GridMismatchError("measure, field, and dictionary must share a grid")
    vg = dictionary.dxh * v.vx[None] + dictionary.dyh * v.vy[None]
    r = np.abs((vg * mu.weights[None]).sum(axis=(1, 2)))
    return ResidualReport(per_function=r, max=float(r.max()))


# ---------------------------------------------------------------------------
# sublevel-set bounds (level-set method)

RHO_MESH = 64  # level nodes of the band envelope H in both level-set bounds

@dataclass(frozen=True)
class LyapunovBound:
    value: float
    form: str  # "integral" | "constant"
    hypothesis_ok: bool
    gamma: float
    rho_m: float
    rho: float
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
    failed = LyapunovBound(value=np.nan, form="constant", hypothesis_ok=False,
                           gamma=cert.gamma, rho_m=cert.rho_m, rho=hi, integral=np.nan)
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
    return band, LyapunovBound(
        value=np.nan, form="integral", hypothesis_ok=True, gamma=cert.gamma,
        rho_m=cert.rho_m, rho=hi, integral=float(np.trapezoid(1.0 / h_nodes, nodes)),
    )


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
        return LyapunovBound(
            value=1.0, form="integral", hypothesis_ok=True, gamma=cert.gamma,
            rho_m=cert.rho_m, rho=rho, integral=0.0,
        )
    bound = _level_set_bound(cert, a, rho0, rho, RHO_MESH)[1]
    return replace(bound, value=float(np.exp(cert.gamma * bound.integral))
                   if bound.hypothesis_ok else 1.0)

