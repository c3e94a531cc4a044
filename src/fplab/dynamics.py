"""Deterministic side: flow integration, attractor/repeller approximation, and
Lyapunov-certificate verification on the grid.

Trajectories and the attractor ensemble share one RK4 step generator.
Certificates check the drift inequality V . grad(U) <= -gamma (or its
anti/weak variants) outside the rho_m sublevel set, with gradients by central
differences and a discretization slack proportional to hx + hy; that slack and
the level-set bounds' vanishing-gradient tolerance both read the curvature
bound |uxx| + 2|uxy| + |uyy|. The family variant adds the second-order term
a^{ij} d2_ij U of the noise operator and demands one shared (rho_m, gamma)
across all members.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteFieldError, NotSettledError
from .fields import NullFamilySchedule, VectorField
from .grid import Grid2D, dilate

__all__ = [
    "LyapunovCertificate",
    "AttractorApprox",
    "integrate_flow",
    "approximate_attractor",
    "grad_central",
    "hessian_from_grad",
    "curvature_bound",
    "grad_hypothesis_tol",
    "verify_lyapunov",
    "verify_uniform_lyapunov",
]

CERT_KINDS = ("lyapunov", "anti-lyapunov", "weak", "entire-weak")
ATTRACTOR_DT = 0.01          # RK4 step of the attractor ensemble
SETTLE_RTOL = 0.10           # allowed late change of the ensemble diameter


# ---------------------------------------------------------------------------
# flow integration

def _rk4_steps(v_fn, p, total: float, dt: float, sign: float):
    """Classical RK4 for dx/dt = sign V(x) from p, a point or an (n, 2)
    ensemble: ceil(total / dt) steps of dt, the last one shortened to end at
    total. Yields (t, p) after each step; stops early if rounding brings t to
    total before the last step.
    """

    def f(q):
        vx, vy = v_fn(q[..., 0], q[..., 1])
        return sign * np.stack([vx, vy], axis=-1)

    t = 0.0
    for _ in range(int(np.ceil(total / dt))):
        h = min(dt, total - t)
        if h <= 0:
            return
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        yield t, p


def integrate_flow(v_fn, x0, t_end: float, dt: float, box: Grid2D | None = None):
    """Classical RK4 trajectory of dx/dt = V(x) from x0.

    ``v_fn`` maps an (..., 2) array of points to drift vectors of the same
    shape. Negative t_end integrates the time-reversed field (repeller
    detection). If a grid ``box`` is given, trajectories terminate with an
    escape flag on leaving its closed box.

    Returns (times, points, escaped) with points of shape (n_steps+1, 2).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end == 0:
        raise ValueError("t_end must be nonzero")
    sign = 1.0 if t_end > 0 else -1.0

    p0 = np.asarray(x0, dtype=float)
    t_start, times, points = 0.0, [0.0], [p0]
    escaped = False
    for t, p in _rk4_steps(v_fn, p0, abs(t_end), dt, sign):
        if not np.all(np.isfinite(p)):
            raise NonFiniteFieldError(("trajectory", t_start), float("nan"))
        t_start = t
        times.append(sign * t)
        points.append(p)
        if box is not None and not box.contains(p):
            escaped = True
            break
    return np.asarray(times), np.asarray(points), escaped


def _diameter(pts):
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    return float(np.hypot(*(hi - lo)))


@dataclass(frozen=True)
class AttractorApprox:
    """Cells within one cell of the numerically observed omega-limit set."""

    grid: Grid2D
    mask: np.ndarray
    kind: str  # global-attractor | local-repeller (time-reversed search)
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
    reverse_time: bool = False,
    seed_region=None,
) -> AttractorApprox:
    """Forward-ensemble approximation of the maximal attractor, kind
    "global-attractor", or with ``reverse_time`` of a repeller, kind
    "local-repeller".

    The ensemble is seeded on a deterministic sub-lattice of interior cell
    centers (optionally restricted by ``seed_region``), integrated with RK4
    at step ATTRACTOR_DT, and required to settle: the bounding-box diameter
    may change by at most SETTLE_RTOL (relative to the final diameter or one
    cell, whichever is larger) over the last 20% of integration time.
    Terminal points are binned to cells and dilated by one cell through the
    8-neighbourhood.
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    xx, yy = grid.centers()
    mask = grid.interior_mask()
    if seed_region is not None:
        mask = mask & seed_region(xx, yy)
    cand = np.stack([xx[mask], yy[mask]], axis=-1)
    if len(cand) == 0:
        raise ValueError("empty seed region")
    stride = max(1, len(cand) // ensemble_size)
    pts = cand[::stride]

    early = None
    for t, final in _rk4_steps(v_fn, pts, t_end, ATTRACTOR_DT, -1.0 if reverse_time else 1.0):
        if early is None and t >= 0.8 * t_end - 1e-12:
            early = final
        if not np.all(np.isfinite(final)):
            raise NonFiniteFieldError(("ensemble", t), float("nan"))
    d_early = _diameter(early)
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
    diag = {
        "diameter_early": d_early,
        "diameter_final": d_final,
        "ensemble_size": int(len(pts)),
        "t_end": float(t_end),
        "reversed": bool(reverse_time),
    }
    kind = "local-repeller" if reverse_time else "global-attractor"
    return AttractorApprox(grid, dilate(cells, 1, diagonal=True), kind, diagnostics=diag)


# ---------------------------------------------------------------------------
# finite differences

def grad_central(u: np.ndarray, grid: Grid2D):
    """Central-difference gradient, one-sided at the truncation boundary."""
    gx = np.gradient(u, grid.hx, axis=0)
    gy = np.gradient(u, grid.hy, axis=1)
    return gx, gy


def hessian_from_grad(gx, gy, grid: Grid2D):
    """Finite-difference Hessian entries (uxx, uxy, uyy) from the central
    gradient (gx, gy) of U."""
    uxx = np.gradient(gx, grid.hx, axis=0)
    uxy = np.gradient(gx, grid.hy, axis=1)
    uyy = np.gradient(gy, grid.hy, axis=1)
    return uxx, uxy, uyy


def curvature_bound(uxx, uxy, uyy):
    """|uxx| + 2|uxy| + |uyy| per cell, the bound on |D2 U| behind both grid
    tolerances: the certificate slack and grad_hypothesis_tol."""
    return np.abs(uxx) + 2 * np.abs(uxy) + np.abs(uyy)


def grad_hypothesis_tol(curvature, band, grid: Grid2D) -> float:
    """Grid-aware threshold below which a band gradient counts as vanishing:
    near a critical point |grad U| ~ |D2 U| h."""
    cmax = float(curvature[band].max()) if band.any() else float(curvature.max())
    return 0.5 * cmax * (grid.hx + grid.hy)


def _default_slack(curvature, grid: Grid2D) -> float:
    return 2.0 * float(np.max(curvature)) * (grid.hx + grid.hy)


# ---------------------------------------------------------------------------
# Lyapunov certificates

@dataclass(frozen=True)
class LyapunovCertificate:
    """Grid samples of a compact function U with verified sign conditions.

    ``margins`` holds the per-cell slack of the checked inequality on the
    essential domain (positive = satisfied with room); ``slack`` is the
    discretization allowance C (hx + hy) it was checked against. The
    derivatives of U that the level-set bounds read (gradient, its norm,
    curvature_bound) are computed on first use and cached, which is sound
    because ``u`` is read-only once the certificate holds it.
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

    @functools.cached_property
    def grad(self):
        """Central-difference gradient (gx, gy) of U."""
        return grad_central(self.u, self.grid)

    @functools.cached_property
    def grad_norm(self) -> np.ndarray:
        return np.hypot(*self.grad)

    @functools.cached_property
    def curvature(self) -> np.ndarray:
        """curvature_bound of the finite-difference Hessian of U."""
        return curvature_bound(*hessian_from_grad(*self.grad, self.grid))


def _certificate(u, grid, margins, mask, slack, rho_m, rho_M, gamma, kind, verified_for,
                 meta) -> LyapunovCertificate:
    """Certificate of the per-cell ``margins`` on ``mask``, where a cell fails below
    -slack. It holds ``u`` as given: callers pass a copy that may become read-only."""
    margins = np.where(mask, margins, np.inf)
    violations = tuple(map(tuple, np.argwhere(mask & (margins < -slack))))
    return LyapunovCertificate(
        grid=grid,
        u=u,
        rho_m=float(rho_m),
        rho_M=float(rho_M),
        gamma=float(gamma),
        kind=kind,
        verified_for=verified_for,
        passed=len(violations) == 0,
        worst_margin=float(margins[mask].min()) if mask.any() else np.inf,
        slack=float(slack),
        violations=violations,
        meta=meta,
    )


def verify_lyapunov(
    u: np.ndarray,
    v: VectorField,
    rho_m: float,
    gamma: float,
    kind: str = "lyapunov",
    rho_M: float | None = None,
    slack: float | None = None,
) -> LyapunovCertificate:
    """Check the drift inequality for U against the ODE field.

    kind = "lyapunov": V.grad(U) <= -gamma on {rho_m < U < rho_M};
    "anti-lyapunov": >= +gamma there; "weak": the same with gamma = 0;
    "entire-weak": the weak sign condition on every cell.
    The inequality is enforced up to an additive discretization slack
    C (hx+hy) with C = 2 max|D^2 U| (finite-difference Hessian).
    """
    grid = v.grid
    u = np.array(u, dtype=float)
    if np.any(u < 0) or not np.all(np.isfinite(u)):
        raise ValueError("U must be finite and non-negative")
    if rho_M is None:
        rho_M = float(u.max()) + 1.0
    gx, gy = grad_central(u, grid)
    vdotgrad = v.vx * gx + v.vy * gy
    if slack is None:
        slack = _default_slack(curvature_bound(*hessian_from_grad(gx, gy, grid)), grid)

    if kind == "entire-weak":
        mask = np.ones_like(u, dtype=bool)
    else:
        mask = (u > rho_m) & (u < rho_M)
    gamma_eff = float(gamma) if kind in ("lyapunov", "anti-lyapunov") else 0.0
    if kind == "anti-lyapunov":
        margins = vdotgrad - gamma_eff
    else:
        # "weak" and "entire-weak" check the Lyapunov direction V.grad U <= 0;
        # the anti directions follow by passing v.negated() (time reversal)
        margins = -vdotgrad - gamma_eff
    return _certificate(u, grid, margins, mask, slack, rho_m, rho_M, gamma_eff, kind, "ode",
                        {"n_checked": int(mask.sum())})


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
    u = np.array(u, dtype=float)  # one copy, shared read-only by every member's certificate
    gx, gy = grad_central(u, grid)
    uxx, uxy, uyy = hessian_from_grad(gx, gy, grid)
    vdotgrad = v.vx * gx + v.vy * gy
    slack = _default_slack(curvature_bound(uxx, uxy, uyy), grid)
    rho_M = float(u.max()) + 1.0
    mask = (u > rho_m) & (u < rho_M)

    certs = []
    for eps, a in family:
        lau = a.a11 * uxx + 2.0 * a.a12 * uxy + a.a22 * uyy + vdotgrad
        certs.append(_certificate(u, grid, -lau - gamma, mask, slack, rho_m, rho_M, gamma,
                                  "lyapunov", "operator-family", {"eps": eps}))
    flags = [c.passed for c in certs]
    uniform = all(flags)
    first_pass = None
    for k in range(len(flags)):
        if all(flags[k:]):
            first_pass = k
            break
    return certs, uniform, first_pass
