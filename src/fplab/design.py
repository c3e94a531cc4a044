"""Construction of spatially-shaped (multiplicative) null families that
stabilize a strong local attractor or destabilize a strong local repeller,
plus the uniform-destabilization check for strongly repelling equilibria.

The shaping is a scalar profile s(x) in [1/R, 1] applied isotropically,
A_k(x) = eps_k s(x) I, with a smoothstep transition in the level-set
coordinate of the isolating certificate U0: weak noise guards the band next
to the target set, strong noise covers the complementary region. Per-cell
normality is exact (Frobenius/lambda = sqrt(2)) and the ratio condition
min_Omega s / max_(D_*) s = R is recorded per family. The ratio R must be
finite and strictly greater than 1: at R = 1 the shaping is s = 1, i.e. the
isotropic family, which carries no concentration claim. Both constructors
raise RatioInfeasibleError for any other R before building a field, and also
when the shaping is too steep for the largest noise level
(eps_max * max|grad s| on Omega must stay below 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import curvature_bound, grad_central, grad_hypothesis_tol, hessian_from_grad
from .errors import (
    CertificateFailError,
    DegenerateGradientError,
    RatioInfeasibleError,
)
from .fields import DiffusionField, NullFamilySchedule, VectorField
from .grid import Grid2D, dilate

__all__ = [
    "IsolationData",
    "DesignedFamily",
    "isolation_from_certificate",
    "lemma41_constants",
    "design_stabilizing_family",
    "design_destabilizing_family",
    "quadratic_certificate",
    "verify_repelling_equilibrium",
]

MIN_RAMP_CELLS = 4


def _level_band_mask(u, rho, grid):
    """Cells within one cell of the {U = rho} level set (sign change among
    the 4-neighborhood of u - rho)."""
    d = u - rho
    band = np.zeros_like(u, dtype=bool)
    band[:-1, :] |= d[:-1, :] * d[1:, :] <= 0
    band[1:, :] |= d[:-1, :] * d[1:, :] <= 0
    band[:, :-1] |= d[:, :-1] * d[:, 1:] <= 0
    band[:, 1:] |= d[:, :-1] * d[:, 1:] <= 0
    return band


@dataclass(frozen=True)
class IsolationData:
    """Isolating-neighborhood certificate for a strong local attractor/repeller.

    The neighborhood is the sublevel set {U0 < rho_tilde}; gamma0 is the
    measured boundary margin with |V . grad U0| > gamma0 |grad U0| on the
    level band, and the flow crosses the boundary strictly inward (attractor)
    or outward (repeller). rho_star_lo < rho_tilde < rho_star_hi bracket the
    band on which grad U0 stays away from zero.
    """

    grid: Grid2D
    u0: np.ndarray
    rho_tilde: float
    gamma0: float
    kind: str  # "attractor" | "repeller"
    rho_star_lo: float
    rho_star_hi: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("attractor", "repeller"):
            raise ValueError("kind must be 'attractor' or 'repeller'")
        if not (self.rho_star_lo < self.rho_tilde < self.rho_star_hi):
            raise ValueError("need rho_star_lo < rho_tilde < rho_star_hi")
        self.u0.setflags(write=False)


def isolation_from_certificate(
    u0: np.ndarray,
    v: VectorField,
    rho_tilde: float,
    rho_star_lo: float,
    rho_star_hi: float,
) -> IsolationData:
    """Validate and package isolating-neighborhood data from grid samples.

    Measures the boundary margin gamma0 = min over the level band of
    |V . grad U0| / |grad U0|, requires a consistent crossing sign, and
    checks grad U0 != 0 on the bracketing band: near a critical point the
    cell gradient is ~ |D2 U| h, so anything below that counts as vanishing.
    """
    grid = v.grid
    u0 = np.asarray(u0, dtype=float)
    gx, gy = grad_central(u0, grid)
    gnorm = np.hypot(gx, gy)
    vdot = v.vx * gx + v.vy * gy

    band = _level_band_mask(u0, rho_tilde, grid)
    if not band.any():
        raise ValueError("rho_tilde level set does not intersect the grid")
    bracket = (u0 >= rho_star_lo) & (u0 <= rho_star_hi)
    curvature = curvature_bound(*hessian_from_grad(gx, gy, grid))
    if float(gnorm[bracket].min()) <= grad_hypothesis_tol(curvature, bracket, grid):
        raise DegenerateGradientError(
            f"grad U0 vanishes on the band [{rho_star_lo}, {rho_star_hi}]"
        )
    signs = np.sign(vdot[band])
    if np.all(signs < 0):
        kind = "attractor"
    elif np.all(signs > 0):
        kind = "repeller"
    else:
        raise ValueError(
            "flow does not cross the isolating boundary with a consistent sign; "
            "not a strong local attractor/repeller certificate"
        )
    gamma0 = float((np.abs(vdot[band]) / gnorm[band]).min())
    return IsolationData(
        grid=grid,
        u0=u0.copy(),
        rho_tilde=float(rho_tilde),
        gamma0=gamma0,
        kind=kind,
        rho_star_lo=float(rho_star_lo),
        rho_star_hi=float(rho_star_hi),
        meta={"band_cells": int(band.sum())},
    )


def lemma41_constants(iso: IsolationData, kind: str | None = None):
    """Constants of the local mass estimate exp(-C / a(alpha)).

    Attractor side: C1 = gamma0 (rho_tilde - rho_star_lo) min_level |grad U0|
    / (2 max_band |grad U0|^2) with the band {rho_star_lo <= U0 <= rho_tilde};
    repeller side mirrors it on {rho_tilde <= U0 <= rho_star_hi}. Returns
    (C, band_mask); a(alpha) is max over the band of |A_alpha|.
    """
    kind = kind or iso.kind
    grid = iso.grid
    gx, gy = grad_central(iso.u0, grid)
    gnorm = np.hypot(gx, gy)
    level = _level_band_mask(iso.u0, iso.rho_tilde, grid)
    min_level = float(gnorm[level].min())
    if min_level <= 1e-12:
        raise DegenerateGradientError("grad U0 vanishes on the rho_tilde level set")
    if kind == "attractor":
        band = (iso.u0 >= iso.rho_star_lo) & (iso.u0 <= iso.rho_tilde)
        drho = iso.rho_tilde - iso.rho_star_lo
    else:
        band = (iso.u0 >= iso.rho_tilde) & (iso.u0 <= iso.rho_star_hi)
        drho = iso.rho_star_hi - iso.rho_tilde
    max_band = float(gnorm[band].max())
    c = iso.gamma0 * drho * min_level / (2.0 * max_band**2)
    return c, band


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class DesignedFamily:
    """Shaped schedule A_k = eps_k s(x) I with ratio bookkeeping on two
    regions: D, where the noise is strong, and D_*, the guard band where it
    is weak. ratio_condition compares the shaping on the two."""

    schedule: NullFamilySchedule
    shaping: np.ndarray
    ratio: float
    region_strong: np.ndarray   # D: strong-noise region
    region_guard: np.ndarray    # D_*: weak-noise guard band
    meta: dict = field(default_factory=dict)

    @property
    def grid(self):
        return self.schedule.grid

    def ratio_condition(self) -> float:
        """min over a neighborhood of D of s / max over D_* of s."""
        return float(
            self.shaping[self.region_strong].min() / self.shaping[self.region_guard].max()
        )


def _fit_ramp(iso: IsolationData, ratio: float, ramp_lo: float, ramp_hi: float,
              low_inside: bool):
    """Widen the smoothstep band to span at least MIN_RAMP_CELLS cells,
    staying inside the bracketing levels; raises when that is impossible."""
    grid = iso.grid
    gx, gy = grad_central(iso.u0, grid)
    gnorm = np.hypot(gx, gy)
    ramp_band = (iso.u0 >= ramp_lo) & (iso.u0 <= ramp_hi)
    if not ramp_band.any():
        return ramp_lo, ramp_hi
    gmax = float(gnorm[ramp_band].max())
    needed = MIN_RAMP_CELLS * max(grid.hx, grid.hy) * gmax
    if ramp_hi - ramp_lo >= needed:
        return ramp_lo, ramp_hi
    if low_inside:
        available = iso.rho_star_hi - ramp_lo
        if needed > available:
            raise RatioInfeasibleError(ratio, needed, available)
        return ramp_lo, ramp_lo + needed
    available = ramp_hi - iso.rho_star_lo
    if needed > available:
        raise RatioInfeasibleError(ratio, needed, available)
    return ramp_hi - needed, ramp_hi


def _check_ratio(ratio: float) -> None:
    """Reject a shaping ratio that is not finite or not above 1."""
    if not (math.isfinite(ratio) and ratio > 1.0):
        raise RatioInfeasibleError(
            ratio,
            message=f"shaping ratio {ratio} must be finite and > 1 "
            "(the shaping lies in [1/ratio, 1])",
        )


def _build_designed(
    iso: IsolationData,
    eps_list,
    ratio: float,
    ramp_lo: float,
    ramp_hi: float,
    low_inside: bool,
    regions_fn,
) -> DesignedFamily:
    grid = iso.grid
    ramp_lo, ramp_hi = _fit_ramp(iso, ratio, ramp_lo, ramp_hi, low_inside)

    t = (iso.u0 - ramp_lo) / (ramp_hi - ramp_lo)
    step = _smoothstep(t)
    lo = 1.0 / ratio
    if low_inside:
        s = lo + (1.0 - lo) * step          # weak noise below the ramp
    else:
        s = 1.0 - (1.0 - lo) * step         # strong noise below the ramp

    region_strong, region_guard = regions_fn(ramp_lo, ramp_hi)
    sgx, sgy = grad_central(s, grid)
    sgrad = np.hypot(sgx, sgy)
    omega = dilate(region_strong, 2, diagonal=False)
    eps_max = max(eps_list)
    grad_cap = float(sgrad[omega].max() * eps_max) if omega.any() else 0.0
    if grad_cap >= 1.0:
        raise RatioInfeasibleError(
            ratio,
            message=f"ratio {ratio} shapes too steeply for eps_max = {eps_max:.4g}: "
            f"eps_max * max|grad s| on Omega = {grad_cap:.4g} must stay below 1",
        )

    members = tuple(
        DiffusionField(grid, e * s, np.zeros_like(s), e * s) for e in eps_list
    )
    # per-cell the shape is isotropic, so the region-wise Frobenius/lambda
    # ratio is bounded by sqrt(2) * (max s / min s) = sqrt(2) * ratio
    schedule = NullFamilySchedule(
        tuple(eps_list), members, normal_bound=np.sqrt(2.0) * ratio * 1.0001
    )
    return DesignedFamily(
        schedule=schedule,
        shaping=s,
        ratio=float(ratio),
        region_strong=region_strong,
        region_guard=region_guard,
        meta={
            "ramp": (float(ramp_lo), float(ramp_hi)),
            "grad_cap_on_omega": grad_cap,
            "max_grad_s": float(sgrad.max()),
            "anisotropy_cap": 0.25,
        },
    )


def design_stabilizing_family(
    iso: IsolationData, eps_list, ratio: float
) -> DesignedFamily:
    """Weak noise on the guard band inside the attractor's isolating
    neighborhood, strong noise outside it; smoothstep transition in the collar.

    Regions follow the stabilization construction: D is everything outside
    {U0 < ramp_hi}, D_* the guard band [rho_star_lo, rho_tilde].

    The shaping lies in [1/ratio, 1], so ratio must be finite and strictly
    greater than 1; otherwise RatioInfeasibleError is raised before any field
    is built.
    """
    if iso.kind != "attractor":
        raise ValueError("isolating data must certify an attractor")
    _check_ratio(ratio)
    ramp_lo = iso.rho_tilde
    ramp_hi = iso.rho_tilde + 0.8 * (iso.rho_star_hi - iso.rho_tilde)

    def regions_fn(lo, hi):
        return iso.u0 >= hi, (iso.u0 >= iso.rho_star_lo) & (iso.u0 <= iso.rho_tilde)

    return _build_designed(
        iso, eps_list, ratio, ramp_lo, ramp_hi, low_inside=True, regions_fn=regions_fn
    )


def design_destabilizing_family(
    iso: IsolationData, eps_list, ratio: float
) -> DesignedFamily:
    """Strong noise on and near the repeller, weak noise on the guard band
    outside its isolating neighborhood; roles of the regions are swapped
    relative to the stabilizing construction.

    The shaping lies in [1/ratio, 1], so ratio must be finite and strictly
    greater than 1; otherwise RatioInfeasibleError is raised before any field
    is built.
    """
    if iso.kind != "repeller":
        raise ValueError("isolating data must certify a repeller")
    _check_ratio(ratio)
    ramp_hi = iso.rho_tilde
    ramp_lo = iso.rho_star_lo + 0.2 * (iso.rho_tilde - iso.rho_star_lo)

    def regions_fn(lo, hi):
        return iso.u0 <= lo, (iso.u0 >= iso.rho_tilde) & (iso.u0 <= iso.rho_star_hi)

    return _build_designed(
        iso, eps_list, ratio, ramp_lo, ramp_hi, low_inside=False, regions_fn=regions_fn
    )


# ---------------------------------------------------------------------------
# strongly repelling equilibria

def quadratic_certificate(dv: np.ndarray) -> np.ndarray:
    """Positive definite B with (DV)^T B + B DV = I for a repelling linearization."""
    dv = np.asarray(dv, dtype=float)
    eig = np.linalg.eigvals(dv)
    if np.any(eig.real <= 0):
        raise CertificateFailError(
            "P3", f"DV eigenvalues {eig} must all have positive real part"
        )
    import scipy.linalg  # imported on use, so that importing fplab loads no scipy

    b = scipy.linalg.solve_continuous_lyapunov(dv.T, np.eye(dv.shape[0]))
    if np.any(np.linalg.eigvalsh(b) <= 0):
        raise CertificateFailError("P1", "Lyapunov-equation solution is not SPD")
    return b


@dataclass(frozen=True)
class RepellingVerdict:
    eps: tuple
    mass_near: tuple       # measured mass of {U < rho0} per eps
    template: float        # (rho0 / rho_bar)^C
    exponent: float        # C
    passed: bool
    per_eps_ok: tuple


def verify_repelling_equilibrium(
    x0,
    v: VectorField,
    b_matrix: np.ndarray,
    family: NullFamilySchedule,
    measures,
    rho0: float,
    rho_bar: float,
) -> RepellingVerdict:
    """Check conditions (P1)-(P3) for U(x) = (x-x0)^T B (x-x0) on the
    neighborhood {U < rho_bar} and compare per-member mass near the
    equilibrium with the power-law decay template (rho0/rho_bar)^C, where
    C = (lambda_min(D2 U) / C2) inf_alpha lambda_alpha / Lambda_alpha and
    |grad U|^2 <= C2 U.
    """
    grid = v.grid
    x0 = np.asarray(x0, dtype=float)
    b = np.asarray(b_matrix, dtype=float)
    eigs = np.linalg.eigvalsh(b)
    if np.any(eigs <= 0):
        raise CertificateFailError("P1", "B is not positive definite")

    xx, yy = grid.centers()
    dx, dy = xx - x0[0], yy - x0[1]
    u = b[0, 0] * dx**2 + 2 * b[0, 1] * dx * dy + b[1, 1] * dy**2
    gux = 2 * (b[0, 0] * dx + b[0, 1] * dy)
    guy = 2 * (b[0, 1] * dx + b[1, 1] * dy)
    w_mask = u < rho_bar
    if not w_mask.any():
        raise ValueError("rho_bar sublevel set misses the grid")

    # (P2) holds by construction of the quadratic form; (P3): V.grad(U) > 0
    # off the equilibrium cell
    vdot = v.vx * gux + v.vy * guy
    near_x0 = (np.abs(dx) <= grid.hx) & (np.abs(dy) <= grid.hy)
    p3_region = w_mask & ~near_x0
    if np.any(vdot[p3_region] <= 0):
        bad = np.argwhere(p3_region & (vdot <= 0))[0]
        raise CertificateFailError(
            "P3", f"V.grad U <= 0 at cell {tuple(bad)} inside the neighborhood"
        )

    lam_u = 2.0 * float(eigs.min())            # smallest eigenvalue of D^2 U = 2B
    c2 = 4.0 * float(eigs.max()) ** 2 / float(eigs.min())
    ratio_inf = min(
        float(a.lam[w_mask].min() / a.frob[w_mask].max()) for _, a in family
    )
    c_exp = lam_u / c2 * ratio_inf
    template = (rho0 / rho_bar) ** c_exp

    masses = tuple(float(mu.weights[u < rho0].sum()) for mu in measures)
    oks = tuple(m <= template for m in masses)
    return RepellingVerdict(
        eps=tuple(family.eps),
        mass_near=masses,
        template=float(template),
        exponent=float(c_exp),
        passed=all(oks),
        per_eps_ok=oks,
    )
