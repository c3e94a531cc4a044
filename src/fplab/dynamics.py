"""Deterministic side: flow integration, attractor/repeller approximation, and
Lyapunov-certificate verification on the grid.

Certificates check the drift inequality V . grad(U) <= -gamma (or its
anti/weak variants) outside the rho_m sublevel set, with gradients by central
differences and a discretization slack proportional to hx + hy. The family
variant adds the second-order term a^{ij} d2_ij U of the noise operator and
demands one shared (rho_m, gamma) across all members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteFieldError, NotSettledError
from .fields import NullFamilySchedule, VectorField
from .grid import Grid2D

__all__ = [
    "LyapunovCertificate",
    "AttractorApprox",
    "integrate_flow",
    "approximate_attractor",
    "grad_central",
    "hessian_central",
    "verify_lyapunov",
    "verify_uniform_lyapunov",
    "sublevel_set",
]

CERT_KINDS = ("lyapunov", "anti-lyapunov", "weak", "entire-weak")
ATTRACTOR_DT = 0.01          # RK4 step of the attractor ensemble
SETTLE_RTOL = 0.10           # allowed late change of the ensemble diameter


# ---------------------------------------------------------------------------
# flow integration

def integrate_flow(v_fn, x0, t_end: float, dt: float, box=None):
    """Classical RK4 trajectory of dx/dt = V(x) from x0.

    ``v_fn`` maps an (..., 2) array of points to drift vectors of the same
    shape. Negative t_end integrates the time-reversed field (repeller
    detection). If ``box`` (a Grid2D or (x_min,x_max,y_min,y_max) tuple) is
    given, trajectories terminate with an escape flag on leaving it.

    Returns (times, points, escaped) with points of shape (n_steps+1, 2).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end == 0:
        raise ValueError("t_end must be nonzero")
    sign = 1.0 if t_end > 0 else -1.0
    total = abs(t_end)

    def f(p):
        vx, vy = v_fn(p[..., 0], p[..., 1])
        return sign * np.stack([vx, vy], axis=-1)

    if box is not None and isinstance(box, Grid2D):
        box = (box.x_min, box.x_max, box.y_min, box.y_max)

    n_steps = int(np.ceil(total / dt))
    p = np.asarray(x0, dtype=float).copy()
    points = [p.copy()]
    t = 0.0
    times = [0.0]
    escaped = False
    for _ in range(n_steps):
        h = min(dt, total - t)
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(p)):
            raise NonFiniteFieldError(("trajectory", t), float("nan"))
        t += h
        times.append(sign * t)
        points.append(p.copy())
        if box is not None and not (
            box[0] <= p[..., 0] <= box[1] and box[2] <= p[..., 1] <= box[3]
        ):
            escaped = True
            break
    return np.asarray(times), np.asarray(points), escaped


def _integrate_ensemble(v_fn, pts, t_total, dt, sign, checkpoints):
    """RK4 on an (n, 2) ensemble; returns snapshots at requested times."""

    def f(p):
        vx, vy = v_fn(p[:, 0], p[:, 1])
        return sign * np.stack([vx, vy], axis=-1)

    p = pts.copy()
    snaps = {}
    t = 0.0
    n_steps = int(np.ceil(t_total / dt))
    ck = sorted(checkpoints)
    for _ in range(n_steps):
        h = min(dt, t_total - t)
        if h <= 0:
            break
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        while ck and t >= ck[0] - 1e-12:
            snaps[ck.pop(0)] = p.copy()
        if not np.all(np.isfinite(p)):
            raise NonFiniteFieldError(("ensemble", t), float("nan"))
    snaps[t_total] = p.copy()
    return snaps


def _diameter(pts):
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    return float(np.hypot(*(hi - lo)))


@dataclass(frozen=True)
class AttractorApprox:
    """Cells within one cell of the numerically observed omega-limit set."""

    grid: Grid2D
    mask: np.ndarray
    kind: str  # global-attractor | local-attractor | local-repeller
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.mask.any():
            raise ValueError("attractor approximation must be non-empty")
        self.mask.setflags(write=False)

    def cells(self):
        return np.argwhere(self.mask)


def approximate_attractor(
    v_fn,
    grid: Grid2D,
    ensemble_size: int = 256,
    t_end: float = 40.0,
    kind: str = "global-attractor",
    reverse_time: bool = False,
    seed_region=None,
) -> AttractorApprox:
    """Forward-ensemble approximation of the maximal attractor (or repeller
    via time reversal).

    The ensemble is seeded on a deterministic sub-lattice of interior cell
    centers (optionally restricted by ``seed_region``), integrated with RK4
    at step ATTRACTOR_DT, and required to settle: the bounding-box diameter
    may change by at most SETTLE_RTOL (relative to the final diameter or one
    cell, whichever is larger) over the last 20% of integration time.
    Terminal points are binned to cells and dilated by one cell.
    """
    xx, yy = grid.centers()
    mask = grid.interior_mask()
    if seed_region is not None:
        mask = mask & seed_region(xx, yy)
    cand = np.stack([xx[mask], yy[mask]], axis=-1)
    if len(cand) == 0:
        raise ValueError("empty seed region")
    stride = max(1, len(cand) // ensemble_size)
    pts = cand[::stride]

    sign = -1.0 if reverse_time else 1.0
    snaps = _integrate_ensemble(v_fn, pts, t_end, ATTRACTOR_DT, sign, checkpoints=[0.8 * t_end])
    d_early = _diameter(snaps[0.8 * t_end])
    final = snaps[t_end]
    d_final = _diameter(final)
    scale = max(d_final, min(grid.hx, grid.hy))
    if abs(d_final - d_early) > SETTLE_RTOL * scale:
        raise NotSettledError(
            f"ensemble diameter moved {abs(d_final - d_early):.3g} over the last 20% "
            f"of t_end={t_end} (allowed {SETTLE_RTOL * scale:.3g}); increase t_end"
        )

    inside = grid.contains(final)
    cells = np.zeros((grid.nx, grid.ny), dtype=bool)
    i, j = grid.cell_index(*final[inside].T)
    cells[i, j] = True
    # dilate by one cell (8-neighborhood)
    dil = cells.copy()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            shifted = np.zeros_like(cells)
            src = cells[
                max(0, -di) : grid.nx - max(0, di), max(0, -dj) : grid.ny - max(0, dj)
            ]
            shifted[
                max(0, di) : grid.nx - max(0, -di), max(0, dj) : grid.ny - max(0, -dj)
            ] = src
            dil |= shifted
    diag = {
        "diameter_early": d_early,
        "diameter_final": d_final,
        "ensemble_size": int(len(pts)),
        "t_end": float(t_end),
        "reversed": bool(reverse_time),
    }
    return AttractorApprox(grid, dil, kind, diagnostics=diag)


# ---------------------------------------------------------------------------
# finite differences

def grad_central(u: np.ndarray, grid: Grid2D):
    """Central-difference gradient, one-sided at the truncation boundary."""
    gx = np.gradient(u, grid.hx, axis=0)
    gy = np.gradient(u, grid.hy, axis=1)
    return gx, gy


def hessian_central(u: np.ndarray, grid: Grid2D):
    """Finite-difference Hessian entries (uxx, uxy, uyy)."""
    gx, gy = grad_central(u, grid)
    uxx = np.gradient(gx, grid.hx, axis=0)
    uxy = np.gradient(gx, grid.hy, axis=1)
    uyy = np.gradient(gy, grid.hy, axis=1)
    return uxx, uxy, uyy


# ---------------------------------------------------------------------------
# Lyapunov certificates

@dataclass(frozen=True)
class LyapunovCertificate:
    """Grid samples of a compact function U with verified sign conditions.

    ``margins`` holds the per-cell slack of the checked inequality on the
    essential domain (positive = satisfied with room); ``slack`` is the
    discretization allowance C (hx + hy) it was checked against.
    """

    grid: Grid2D
    u: np.ndarray
    rho_m: float
    rho_M: float
    gamma: float
    kind: str
    verified_for: str  # ode | operator-family
    passed: bool
    worst_margin: float
    slack: float
    violations: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in CERT_KINDS:
            raise ValueError(f"kind must be one of {CERT_KINDS}")
        self.u.setflags(write=False)


def sublevel_set(cert_or_u, rho: float) -> np.ndarray:
    """Boolean mask of the open sublevel set {U < rho}."""
    if isinstance(cert_or_u, LyapunovCertificate):
        u = cert_or_u.u
    else:
        u = np.asarray(cert_or_u)
    return u < rho


def _essential_mask(u, rho_m, rho_M, region):
    mask = (u > rho_m) & (u < rho_M)
    if region is not None:
        mask &= region
    return mask


def _default_slack(u, grid):
    uxx, uxy, uyy = hessian_central(u, grid)
    c = 2.0 * float(np.max(np.abs(uxx) + 2 * np.abs(uxy) + np.abs(uyy)))
    return c * (grid.hx + grid.hy)


def verify_lyapunov(
    u: np.ndarray,
    v: VectorField,
    rho_m: float,
    gamma: float,
    kind: str = "lyapunov",
    rho_M: float | None = None,
    region: np.ndarray | None = None,
    slack: float | None = None,
) -> LyapunovCertificate:
    """Check the drift inequality for U against the ODE field.

    kind = "lyapunov": V.grad(U) <= -gamma on {rho_m < U < rho_M};
    "anti-lyapunov": >= +gamma there; "weak": the same with gamma = 0;
    "entire-weak": sign condition everywhere in the region, gamma = 0.
    The inequality is enforced up to an additive discretization slack
    C (hx+hy) with C = 2 max|D^2 U| (finite-difference Hessian).
    """
    grid = v.grid
    u = np.asarray(u, dtype=float)
    if np.any(u < 0) or not np.all(np.isfinite(u)):
        raise ValueError("U must be finite and non-negative")
    if rho_M is None:
        rho_M = float(u.max()) + 1.0
    gx, gy = grad_central(u, grid)
    vdotgrad = v.vx * gx + v.vy * gy
    if slack is None:
        slack = _default_slack(u, grid)

    if kind == "entire-weak":
        mask = np.ones_like(u, dtype=bool) if region is None else region.copy()
        gamma_eff = 0.0
    else:
        mask = _essential_mask(u, rho_m, rho_M, region)
        gamma_eff = 0.0 if kind == "weak" else float(gamma)
    if kind == "anti-lyapunov":
        margins = vdotgrad - gamma_eff
    else:
        # "weak" and "entire-weak" check the Lyapunov direction V.grad U <= 0;
        # the anti directions follow by passing v.negated() (time reversal)
        margins = -vdotgrad - gamma_eff

    margins = np.where(mask, margins, np.inf)
    bad = mask & (margins < -slack)
    violations = tuple(map(tuple, np.argwhere(bad)))
    worst = float(margins[mask].min()) if mask.any() else np.inf
    return LyapunovCertificate(
        grid=grid,
        u=u.copy(),
        rho_m=float(rho_m),
        rho_M=float(rho_M),
        gamma=float(gamma) if kind in ("lyapunov", "anti-lyapunov") else 0.0,
        kind=kind,
        verified_for="ode",
        passed=len(violations) == 0,
        worst_margin=worst,
        slack=float(slack),
        violations=violations,
        meta={"n_checked": int(mask.sum())},
    )


def verify_uniform_lyapunov(
    u: np.ndarray,
    v: VectorField,
    family: NullFamilySchedule,
    rho_m: float,
    gamma: float,
):
    """Check L_A U = a^{ij} d2_ij U + V.grad(U) <= -gamma on the essential
    domain {rho_m < U < max U + 1} for every family member, with one shared
    (rho_m, gamma).

    Returns (member_certs, uniform_pass, first_pass_index): the index of the
    largest eps at which the condition starts holding for all smaller eps.
    """
    if len(family) == 0:
        raise ValueError("family must be non-empty")
    grid = v.grid
    u = np.asarray(u, dtype=float)
    gx, gy = grad_central(u, grid)
    uxx, uxy, uyy = hessian_central(u, grid)
    vdotgrad = v.vx * gx + v.vy * gy
    slack = _default_slack(u, grid)
    rho_M = float(u.max()) + 1.0
    mask = _essential_mask(u, rho_m, rho_M, None)

    certs = []
    for eps, a in family:
        lau = a.a11 * uxx + 2.0 * a.a12 * uxy + a.a22 * uyy + vdotgrad
        margins = np.where(mask, -lau - gamma, np.inf)
        bad = mask & (margins < -slack)
        violations = tuple(map(tuple, np.argwhere(bad)))
        certs.append(
            LyapunovCertificate(
                grid=grid,
                u=u.copy(),
                rho_m=float(rho_m),
                rho_M=float(rho_M),
                gamma=float(gamma),
                kind="lyapunov",
                verified_for="operator-family",
                passed=len(violations) == 0,
                worst_margin=float(margins[mask].min()) if mask.any() else np.inf,
                slack=float(slack),
                violations=violations,
                meta={"eps": eps},
            )
        )
    flags = [c.passed for c in certs]
    uniform = all(flags)
    first_pass = None
    for k in range(len(flags)):
        if all(flags[k:]):
            first_pass = k
            break
    return certs, uniform, first_pass
