"""Cell-sampled drift fields, diffusion matrices, noise schedules, and measures."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, NonFiniteFieldError, NotSPDError
from .grid import Grid1D, Grid2D

__all__ = [
    "VectorField",
    "DiffusionField",
    "NullFamilySchedule",
    "DiscreteMeasure",
    "sample_vector_field",
    "sample_diffusion_field",
    "isotropic_diffusion",
    "measure_mass_on",
]

MASS_TOL = 1e-12


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(np.asarray(arr)))
        idx = tuple(int(k) for k in bad[0])
        raise NonFiniteFieldError((name, idx), float(np.asarray(arr)[idx]))


@dataclass(frozen=True)
class VectorField:
    """Per-cell drift vector V(x); vx, vy have the grid's cell shape."""

    grid: Grid2D
    vx: np.ndarray
    vy: np.ndarray

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        if self.vx.shape != shape or self.vy.shape != shape:
            raise ValueError(f"field shape must be {shape}")
        _check_finite("vx", self.vx)
        _check_finite("vy", self.vy)
        self.vx.setflags(write=False)
        self.vy.setflags(write=False)

    def negated(self) -> "VectorField":
        return VectorField(self.grid, -self.vx, -self.vy)


def _spd_lambda_min(a11, a12, a22):
    """Smallest eigenvalue of symmetric [[a11,a12],[a12,a22]] per cell."""
    tr = a11 + a22
    disc = np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2)
    return 0.5 * (tr - disc)


@dataclass(frozen=True)
class DiffusionField:
    """Per-cell symmetric 2x2 diffusion matrix A(x) = (a^{ij}).

    Caches the smallest eigenvalue ``lam`` and Frobenius norm ``frob`` per
    cell. Symmetry is structural (only a11, a12, a22 are stored) and positive
    definiteness is enforced at construction.
    """

    grid: Grid2D
    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray
    lam: np.ndarray = field(init=False)
    frob: np.ndarray = field(init=False)

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        for name, arr in (("a11", self.a11), ("a12", self.a12), ("a22", self.a22)):
            if arr.shape != shape:
                raise ValueError(f"{name} shape must be {shape}")
            _check_finite(name, arr)
        lam = _spd_lambda_min(self.a11, self.a12, self.a22)
        if np.any(lam <= 0.0):
            idx = np.argwhere(lam <= 0.0)[0]
            where = tuple(int(k) for k in idx)
            raise NotSPDError(where, float(lam[where]))
        frob = np.sqrt(self.a11**2 + 2.0 * self.a12**2 + self.a22**2)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "frob", frob)
        for arr in (self.a11, self.a12, self.a22, self.lam, self.frob):
            arr.setflags(write=False)

    def max_norm(self) -> float:
        """max over cells of the Frobenius norm |A(x)| (the paper-style |A|)."""
        return float(self.frob.max())

    def normality_ratio(self) -> float:
        """sup over cells of the Frobenius norm / inf over cells of lambda_min."""
        return float(self.frob.max() / self.lam.min())


def sample_vector_field(fn, grid: Grid2D) -> VectorField:
    """Sample an analytic drift callback fn(x, y) -> (vx, vy) onto the grid."""
    xx, yy = grid.centers()
    with np.errstate(all="ignore"):  # VectorField names the first non-finite cell
        vx, vy = fn(xx, yy)
    vx = np.broadcast_to(np.asarray(vx, dtype=float), xx.shape).copy()
    vy = np.broadcast_to(np.asarray(vy, dtype=float), xx.shape).copy()
    return VectorField(grid, vx, vy)


def sample_diffusion_field(fn, grid: Grid2D) -> DiffusionField:
    """Sample an analytic diffusion callback fn(x, y) -> (a11, a12, a22)."""
    xx, yy = grid.centers()
    with np.errstate(all="ignore"):  # DiffusionField names the first non-finite cell
        a11, a12, a22 = fn(xx, yy)
    a11 = np.broadcast_to(np.asarray(a11, dtype=float), xx.shape).copy()
    a12 = np.broadcast_to(np.asarray(a12, dtype=float), xx.shape).copy()
    a22 = np.broadcast_to(np.asarray(a22, dtype=float), xx.shape).copy()
    return DiffusionField(grid, a11, a12, a22)


def isotropic_diffusion(grid: Grid2D, a: float) -> DiffusionField:
    """Constant A = a * I."""
    shape = (grid.nx, grid.ny)
    return DiffusionField(grid, np.full(shape, float(a)), np.zeros(shape), np.full(shape, float(a)))


@dataclass(frozen=True)
class NullFamilySchedule:
    """Ordered noise family (eps_k, A_k) with eps strictly decreasing to 0.

    The constructor raises ValueError unless max-over-cells |A_k| decreases
    strictly along the schedule; ``is_normal`` records whether the per-member
    Frobenius/lambda ratio stays below ``normal_bound`` on the verification
    region.
    """

    eps: tuple
    members: tuple
    invariance_mode: str = "reflecting"
    normal_bound: float = np.sqrt(2.0) * 1.0001
    is_normal: bool = field(init=False)

    def __post_init__(self):
        if len(self.eps) != len(self.members):
            raise ValueError("eps and members must have the same length")
        eps = tuple(float(e) for e in self.eps)
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("eps labels must be strictly decreasing")
        if self.invariance_mode not in ("reflecting", "vanishing-at-boundary"):
            raise ValueError(f"unknown invariance_mode {self.invariance_mode!r}")
        norms = [A.max_norm() for A in self.members]
        if not all(n2 < n1 for n1, n2 in zip(norms, norms[1:])):
            raise ValueError("max-cell |A_k| must decrease strictly along the schedule")
        normal = all(A.normality_ratio() <= self.normal_bound for A in self.members)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "is_normal", normal)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(zip(self.eps, self.members))

    @property
    def grid(self):
        return self.members[0].grid


def _scaled_schedule(grid: Grid2D, eps_list, base, invariance_mode: str) -> NullFamilySchedule:
    """Schedule of members A_k = eps_k * base for base = (b11, b12, b22) cell
    arrays, with normal_bound just above the largest member ratio."""
    eps_list = tuple(float(e) for e in eps_list)
    members = tuple(DiffusionField(grid, e * base[0], e * base[1], e * base[2])
                    for e in eps_list)
    ratio = max(m.normality_ratio() for m in members)
    return NullFamilySchedule(eps_list, members, invariance_mode, normal_bound=ratio * 1.0001)


def isotropic_schedule(grid: Grid2D, eps_list, shape=(1.0, 0.0, 1.0)) -> NullFamilySchedule:
    """Schedule A_k = eps_k * A_shape for a constant symmetric shape matrix."""
    base = tuple(np.full((grid.nx, grid.ny), float(s)) for s in shape)
    return _scaled_schedule(grid, eps_list, base, "reflecting")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Non-negative cell weights summing to 1, in the grid's cell shape; stands in
    for a probability measure."""

    grid: Grid1D | Grid2D
    weights: np.ndarray

    def __post_init__(self):
        expect = (self.grid.nx,) if isinstance(self.grid, Grid1D) else (self.grid.nx, self.grid.ny)
        if self.weights.shape != expect:
            raise ValueError(f"weights shape must be {expect}")
        _check_finite("weights", self.weights)
        if np.any(self.weights < 0.0):
            raise ValueError(f"negative weight: min = {self.weights.min():.3e}")
        mass = float(self.weights.sum())
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {mass!r} deviates from 1 by more than {MASS_TOL}")
        self.weights.setflags(write=False)


def measure_mass_on(mu: DiscreteMeasure, region) -> float:
    """Mass of mu on a region given as a boolean mask or cell predicate.

    A callable region receives cell-center coordinates (x[, y]) and must
    return a boolean array of the cell shape.
    """
    if callable(region):
        if isinstance(mu.grid, Grid1D):
            mask = region(mu.grid.centers())
        else:
            xx, yy = mu.grid.centers()
            mask = region(xx, yy)
    else:
        mask = region
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != mu.weights.shape:
        raise GridMismatchError(
            f"region shape {mask.shape} does not match measure shape {mu.weights.shape}"
        )
    return float(mu.weights[mask].sum())


def rebin_measure(mu: DiscreteMeasure, factor: int) -> DiscreteMeasure:
    """Coarsen a 2D measure by summing weights over factor x factor cell blocks."""
    g = mu.grid
    if not isinstance(g, Grid2D):
        raise ValueError("rebinning is defined for 2D measures")
    if g.nx % factor or g.ny % factor:
        raise ValueError(f"grid {g.nx}x{g.ny} not divisible by factor {factor}")
    coarse = Grid2D(g.x_min, g.x_max, g.y_min, g.y_max, g.nx // factor, g.ny // factor)
    w = mu.weights.reshape(coarse.nx, factor, coarse.ny, factor).sum(axis=(1, 3))
    return DiscreteMeasure(coarse, w)


def normalized_measure(grid, raw: np.ndarray) -> tuple[DiscreteMeasure, float]:
    """Clip tiny negatives to 0 and renormalize; returns (measure, clipped_mass)."""
    w = np.asarray(raw, dtype=float).copy()
    neg = w < 0.0
    clipped = float(-w[neg].sum()) if neg.any() else 0.0
    w[neg] = 0.0
    total = w.sum()
    if total <= 0.0:
        raise ValueError("cannot normalize a measure with non-positive total mass")
    w /= total
    # tighten the last ulp so the sum-to-one invariant holds exactly enough
    w /= w.sum()
    return DiscreteMeasure(grid, w), clipped
