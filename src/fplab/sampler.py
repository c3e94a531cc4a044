"""Independent Monte-Carlo oracle: Euler-Maruyama simulation of
dx = V dt + G dW with reflecting truncation, estimating the stationary
measure as a pooled long-run occupation histogram.

Per-path noise streams come from counter-based Philox generators keyed by
(seed, path index), so results are bit-identical regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteFieldError, NotSPDError, UnderresolvedError
from .fields import DiscreteMeasure, normalized_measure
from .grid import Grid2D

__all__ = ["SamplerConfig", "noise_factor", "occupation_measure"]


@dataclass(frozen=True)
class SamplerConfig:
    dt: float
    t_total: float
    n_paths: int = 64
    rng_seed: int = 0
    t_burn: float | None = None  # default 0.2 * t_total

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        burn = 0.2 * self.t_total if self.t_burn is None else self.t_burn
        if not burn < self.t_total:
            raise ValueError("t_burn must be below t_total")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must lie in [0, 2**64)")
        object.__setattr__(self, "t_burn", burn)


def noise_factor(a_cell: np.ndarray) -> np.ndarray:
    """Lower-triangular G with G G^T / 2 = A, for one symmetric 2x2 SPD A."""
    a = np.asarray(a_cell, dtype=float)
    if a.shape != (2, 2) or abs(a[0, 1] - a[1, 0]) > 0:
        raise ValueError("A must be symmetric 2x2")
    m = 2.0 * a
    if m[0, 0] <= 0:
        raise NotSPDError("noise_factor", float(a[0, 0]))
    g00 = np.sqrt(m[0, 0])
    g10 = m[1, 0] / g00
    rem = m[1, 1] - g10**2
    if rem <= 0:
        raise NotSPDError("noise_factor", float(rem) / 2.0)
    return np.array([[g00, 0.0], [g10, np.sqrt(rem)]])


def _chol_2x2_batch(a11, a12, a22):
    """Vectorized Cholesky of 2A for per-point diffusion samples."""
    m11, m12, m22 = 2.0 * a11, 2.0 * a12, 2.0 * a22
    if np.any(m11 <= 0):
        raise NotSPDError("path", float(np.min(m11)) / 2.0)
    g00 = np.sqrt(m11)
    g10 = m12 / g00
    rem = m22 - g10**2
    if np.any(rem <= 0):
        raise NotSPDError("path", float(np.min(rem)) / 2.0)
    return g00, g10, np.sqrt(rem)


def _path_rng(seed: int, p: int) -> np.random.Generator:
    """Noise stream of path p: Philox keyed by the 128-bit pair (seed, p), so
    no two (seed, path) pairs share a stream."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | p))


def _reflect(x, lo, hi):
    """Fold positions back into [lo, hi] (mirror reflection)."""
    span = hi - lo
    y = np.mod(x - lo, 2.0 * span)
    return lo + np.where(y > span, 2.0 * span - y, y)


def occupation_measure(
    v_fn,
    a_fn,
    grid: Grid2D,
    cfg: SamplerConfig,
) -> tuple[DiscreteMeasure, dict]:
    """Histogram of post-burn-in Euler-Maruyama positions over grid cells.

    ``v_fn(x, y) -> (vx, vy)`` and ``a_fn(x, y) -> (a11, a12, a22)`` are
    evaluated pathwise at current positions. Paths start on a deterministic
    lattice over the middle of the box and reflect at the truncation
    boundary, mirroring the PDE solver's no-flux choice.
    """
    n_steps = int(round(cfg.t_total / cfg.dt))
    burn_steps = int(round(cfg.t_burn / cfg.dt))
    npaths = cfg.n_paths

    k = int(np.ceil(np.sqrt(npaths)))
    gx = np.linspace(0.3, 0.7, k)
    pts = np.stack(np.meshgrid(
        grid.x_min + gx * (grid.x_max - grid.x_min),
        grid.y_min + gx * (grid.y_max - grid.y_min),
        indexing="ij",
    ), axis=-1).reshape(-1, 2)[:npaths]
    x = pts[:, 0].copy()
    y = pts[:, 1].copy()

    # per-path counter-based streams: parallel-safe determinism
    normals = np.empty((npaths, n_steps, 2))
    for p in range(npaths):
        normals[p] = _path_rng(cfg.rng_seed, p).standard_normal((n_steps, 2))

    sqdt = np.sqrt(cfg.dt)
    counts = np.zeros(grid.nx * grid.ny)
    big_jumps = 0
    slow_drift_steps = 0
    kept = 0
    cell_diag = min(grid.hx, grid.hy)

    for step in range(n_steps):
        vx, vy = v_fn(x, y)
        a11, a12, a22 = a_fn(x, y)
        a11 = np.broadcast_to(np.asarray(a11, dtype=float), x.shape)
        a12 = np.broadcast_to(np.asarray(a12, dtype=float), x.shape)
        a22 = np.broadcast_to(np.asarray(a22, dtype=float), x.shape)
        g00, g10, g11 = _chol_2x2_batch(a11, a12, a22)
        dwx = normals[:, step, 0] * sqdt
        dwy = normals[:, step, 1] * sqdt
        dx = vx * cfg.dt + g00 * dwx
        dy = vy * cfg.dt + g10 * dwx + g11 * dwy
        jump = np.hypot(dx, dy)
        big_jumps += int(np.count_nonzero(jump > 2.0 * cell_diag))
        slow_drift_steps += int(np.count_nonzero(np.hypot(vx, vy) * cfg.dt < cell_diag))
        x = x + dx
        y = y + dy
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NonFiniteFieldError(("path", step), float("nan"))
        x = _reflect(x, grid.x_min, grid.x_max)
        y = _reflect(y, grid.y_min, grid.y_max)
        if step >= burn_steps:
            i, j = grid.cell_index(np.stack([x, y], axis=-1))
            np.add.at(counts, i * grid.ny + j, 1.0)
            kept += npaths

    total_steps = n_steps * npaths
    frac_big = big_jumps / total_steps
    if frac_big > 0.05:
        raise UnderresolvedError(
            f"{frac_big:.1%} of steps jump more than 2 cells; reduce dt or coarsen the grid"
        )
    mu, _ = normalized_measure(grid, counts.reshape(grid.nx, grid.ny))
    diagnostics = {
        "n_samples": kept,
        "frac_jump_gt_2cells": frac_big,
        "frac_drift_below_cell": slow_drift_steps / total_steps,
        "n_steps": n_steps,
        "burn_steps": burn_steps,
    }
    return mu, diagnostics

