"""Construction of spatially-shaped (multiplicative) null families that
stabilize a strong local attractor or destabilize a strong local repeller,
plus the uniform-destabilization check for strongly repelling equilibria.

The shaping is a scalar profile s(x) in [1/R, 1] applied isotropically,
A_k(x) = eps_k s(x) I, with a smoothstep transition in the level-set
coordinate of the isolating certificate U0: weak noise guards the band next
to the target set, strong noise covers the complementary region. One
constructor, design_family, builds both: the kind of the isolating data
(attractor or repeller) decides on which side of the isolating level the
guard band and the ramp lie. Per-cell normality is exact
(Frobenius/lambda = sqrt(2)) and the ratio condition
min_Omega s / max_(D_*) s = R is recorded per family. The ratio R must be
finite and strictly greater than 1: at R = 1 the shaping is s = 1, i.e. the
isotropic family, which carries no concentration claim. design_family raises
RatioInfeasibleError for any other R before building a field, when the ramp
cannot be widened to MIN_RAMP_CELLS cells inside the bracketing levels, and
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
from .fields import NullFamilySchedule, VectorField, _scaled_schedule
from .grid import Grid2D, dilate

__all__ = [
    "IsolationData",
    "DesignedFamily",
    "isolation_from_certificate",
    "lemma41_constants",
    "design_family",
    "quadratic_certificate",
    "verify_repelling_equilibrium",
]

MIN_RAMP_CELLS = 4


def _level_band_mask(u, rho):
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

    band = _level_band_mask(u0, rho_tilde)
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
    )


def _guard_band(iso: IsolationData, kind: str):
    """(mask, width) of the guard band D_*: the levels between rho_tilde and
    the bracketing level on the kind's side, {rho_star_lo <= U0 <= rho_tilde}
    for an attractor and {rho_tilde <= U0 <= rho_star_hi} for a repeller."""
    if kind == "attractor":
        lo, hi = iso.rho_star_lo, iso.rho_tilde
    else:
        lo, hi = iso.rho_tilde, iso.rho_star_hi
    return (iso.u0 >= lo) & (iso.u0 <= hi), hi - lo


def lemma41_constants(iso: IsolationData, kind: str | None = None):
    """Constants of the local mass estimate exp(-C / a(alpha)).

    C = gamma0 (width of the band) min_level |grad U0| / (2 max_band |grad U0|^2),
    with the band the guard band D_* on the kind's side (iso.kind unless
    given). Returns (C, band_mask); a(alpha) is max over the band of |A_alpha|.
    """
    grid = iso.grid
    gx, gy = grad_central(iso.u0, grid)
    gnorm = np.hypot(gx, gy)
    level = _level_band_mask(iso.u0, iso.rho_tilde)
    min_level = float(gnorm[level].min())
    if min_level <= 1e-12:
        raise DegenerateGradientError("grad U0 vanishes on the rho_tilde level set")
    band, drho = _guard_band(iso, kind or iso.kind)
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

    def ratio_condition(self) -> float:
        """min over a neighborhood of D of s / max over D_* of s."""
        return float(
            self.shaping[self.region_strong].min() / self.shaping[self.region_guard].max()
        )


def design_family(iso: IsolationData, eps_list, ratio: float) -> DesignedFamily:
    """Shaped null family that stabilizes the attractor or destabilizes the
    repeller ``iso`` certifies: weak noise on the guard band D_*, strong noise
    on D, and a smoothstep ramp in U0 between them with one end on rho_tilde.

    Attractor: the ramp starts at rho_tilde, the noise is weak below it and
    D = {U0 >= ramp_hi}. Repeller: the ramp ends at rho_tilde, the noise is
    strong below it and D = {U0 <= ramp_lo}. A ramp narrower than
    MIN_RAMP_CELLS cells is widened away from rho_tilde, up to the
    bracketing level on that side.
    """
    if not (math.isfinite(ratio) and ratio > 1.0):
        raise RatioInfeasibleError(ratio, f"shaping ratio {ratio} must be finite and > 1 "
                                          "(the shaping lies in [1/ratio, 1])")
    grid, u0, rho = iso.grid, iso.u0, iso.rho_tilde
    attractor = iso.kind == "attractor"
    if attractor:
        room = iso.rho_star_hi - rho      # the ramp may widen up to rho_star_hi
        ramp_lo, ramp_hi = rho, rho + 0.8 * room
    else:
        room = rho - iso.rho_star_lo      # ... or down to rho_star_lo
        ramp_lo, ramp_hi = iso.rho_star_lo + 0.2 * room, rho
    ramp_band = (u0 >= ramp_lo) & (u0 <= ramp_hi)
    if ramp_band.any():
        gmax = float(np.hypot(*grad_central(u0, grid))[ramp_band].max())
        needed = MIN_RAMP_CELLS * max(grid.hx, grid.hy) * gmax
        if ramp_hi - ramp_lo < needed:
            if needed > room:
                raise RatioInfeasibleError(ratio, f"ratio {ratio} needs a transition band >= "
                                                  f"{needed:.4g} but only {room:.4g} is available")
            ramp_lo, ramp_hi = (rho, rho + needed) if attractor else (rho - needed, rho)

    step = _smoothstep((u0 - ramp_lo) / (ramp_hi - ramp_lo))
    lo = 1.0 / ratio
    s = lo + (1.0 - lo) * step if attractor else 1.0 - (1.0 - lo) * step
    region_strong = u0 >= ramp_hi if attractor else u0 <= ramp_lo
    sgrad = np.hypot(*grad_central(s, grid))
    omega = dilate(region_strong, 2, diagonal=False)
    eps_max = max(eps_list)
    grad_cap = float(sgrad[omega].max() * eps_max) if omega.any() else 0.0
    if grad_cap >= 1.0:
        raise RatioInfeasibleError(
            ratio, f"ratio {ratio} shapes too steeply for eps_max = {eps_max:.4g}: "
            f"eps_max * max|grad s| on Omega = {grad_cap:.4g} must stay below 1")

    return DesignedFamily(
        schedule=_scaled_schedule(grid, eps_list, (s, 0.0 * s, s), "reflecting"),
        shaping=s,
        ratio=float(ratio),
        region_strong=region_strong,
        region_guard=_guard_band(iso, iso.kind)[0],
        meta={
            "ramp": (float(ramp_lo), float(ramp_hi)),
            "grad_cap_on_omega": grad_cap,
            "max_grad_s": float(sgrad.max()),
            "anisotropy_cap": 0.25,
        },
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
    return RepellingVerdict(
        eps=tuple(family.eps),
        mass_near=masses,
        template=float(template),
        exponent=float(c_exp),
        passed=all(m <= template for m in masses),
    )
