"""Independent Monte-Carlo oracle: Euler-Maruyama simulation of
dx = V dt + G dW with reflecting truncation, estimating the stationary
measure as a pooled long-run occupation histogram.

One fused step advances the paths of all k members of a noise family on one
(2, k, n_paths) position array, so the drift is called once per step for
every member. Each path's flat cell index (member, i, j) is computed once per
step: the next step gathers the member's noise factor (computed once per
cell) at it, and one ``np.bincount`` per chunk of ``_CHUNK_STEPS`` steps bins
it. A step that leaves every position inside the box returns lo + (x - lo)
without calling ``_reflect``; that is exactly ``_reflect``'s value, because
its ``mod`` is exact there. Otherwise the step checks that all positions are
finite and reflects the whole array. Per-path noise streams come from
counter-based Philox generators keyed by (seed, path index), drawn a chunk at
a time, and every member reuses them: a member's measure is bit-identical
whether it is sampled alone or with others.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NonFiniteFieldError, NotSPDError, UnderresolvedError
from .fields import DiffusionField, DiscreteMeasure, normalized_measure
from .grid import Grid2D

__all__ = ["SamplerConfig", "noise_factor", "occupation_measure"]

# steps of normals drawn per path at a time: 64 paths take 1 MB per chunk
_CHUNK_STEPS = 1024


@dataclass(frozen=True)
class SamplerConfig:
    dt: float
    t_total: float
    n_paths: int = 64
    rng_seed: int = 0
    t_burn: float | None = None  # default 0.2 * t_total

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and positive")
        if not (math.isfinite(self.t_total) and self.t_total > 0):
            raise ValueError("t_total must be finite and positive")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        burn = 0.2 * self.t_total if self.t_burn is None else self.t_burn
        if not (math.isfinite(burn) and burn >= 0):
            raise ValueError("t_burn must be finite and >= 0")
        if not burn < self.t_total:
            raise ValueError("t_burn must be below t_total")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must lie in [0, 2**64)")
        object.__setattr__(self, "t_burn", burn)
        if self.n_steps < 1:
            raise ValueError(f"t_total/dt = {self.t_total / self.dt:.3g} rounds to no step")
        if self.burn_steps >= self.n_steps:
            raise ValueError(f"t_burn/dt rounds to {self.burn_steps} of {self.n_steps} steps: "
                             "no step is kept after burn-in")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_total / self.dt))

    @property
    def burn_steps(self) -> int:
        return int(round(self.t_burn / self.dt))


def noise_factor(a_cell: np.ndarray) -> np.ndarray:
    """Lower-triangular G with G G^T / 2 = A, for one symmetric 2x2 SPD A."""
    a = np.asarray(a_cell, dtype=float)
    if a.shape != (2, 2) or abs(a[0, 1] - a[1, 0]) > 0:
        raise ValueError("A must be symmetric 2x2")
    g00, g10, g11 = _chol_2x2_batch(a[0, 0], a[1, 0], a[1, 1])
    return np.array([[g00, 0.0], [g10, g11]])


def _chol_2x2_batch(a11, a12, a22):
    """Elementwise Cholesky factor (g00, g10, g11) of 2A."""
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
    members: Sequence[DiffusionField],
    grid: Grid2D,
    cfg: SamplerConfig,
) -> tuple[tuple[DiscreteMeasure, ...], dict]:
    """Histograms of post-burn-in Euler-Maruyama positions over grid cells,
    one for each diffusion field of ``members``.

    ``v_fn(x, y) -> (vx, vy)`` is evaluated pathwise at current positions;
    member m's diffusion at a position is that of its field (on ``grid``) at
    the cell holding it. Paths start on a deterministic lattice over the
    middle of the box and reflect at the truncation boundary, mirroring the
    PDE solver's no-flux choice.

    Returns ``(measures, diagnostics)``: a tuple of k measures and a dict with
    the shared ``n_steps`` and ``burn_steps`` and the k per-member diagnostics
    under ``members``. An ``UnderresolvedError`` names the first member, in
    order, that fails.
    """
    if any(a.grid != grid for a in members):
        raise GridMismatchError("every diffusion field must live on the sampler's grid")
    n_steps, burn_steps = cfg.n_steps, cfg.burn_steps
    npaths, k = cfg.n_paths, len(members)
    # rows g00, g10, g11 of member m's noise factor in cell (i, j), at the
    # flat index m * n_cells + i * ny + j that also bins the histogram
    g = np.stack(_chol_2x2_batch(*(np.stack([getattr(a, f) for a in members])
                                   for f in ("a11", "a12", "a22")))).reshape(3, -1)

    side = int(np.ceil(np.sqrt(npaths)))
    gx = np.linspace(0.3, 0.7, side)
    x0, y0 = np.meshgrid(
        grid.x_min + gx * (grid.x_max - grid.x_min),
        grid.y_min + gx * (grid.y_max - grid.y_min),
        indexing="ij",
    )
    p = np.empty((2, k, npaths))  # x and y of every member's paths
    p[0], p[1] = x0.ravel()[:npaths], y0.ravel()[:npaths]
    lo, hi, h = (np.array(c, dtype=float)[:, None, None] for c in (
        (grid.x_min, grid.y_min), (grid.x_max, grid.y_max), (grid.hx, grid.hy)))
    span = hi - lo
    u = np.empty_like(p)
    mij = np.empty((3, k, npaths), dtype=np.intp)  # member, i, j of every path
    mij[0] = np.arange(k)[:, None]

    def cell_index(out):
        """Flat cell index of p, truncated and clipped as in Grid2D.cell_index."""
        np.divide(np.subtract(p, lo, out=u), h, out=u)
        np.copyto(mij[1:], u, casting="unsafe")
        out[...] = np.ravel_multi_index(mij, (k, grid.nx, grid.ny), mode="clip")

    rngs = [_path_rng(cfg.rng_seed, q) for q in range(npaths)]
    dt = cfg.dt
    cell_diag = min(grid.hx, grid.hy)
    big_jumps, slow_drift = np.zeros((2, k), dtype=np.int64)
    counts = np.zeros(k * grid.n_cells, dtype=np.int64)
    # per chunk: each step's drift, displacement and flat cell after the move
    vxy = np.empty((_CHUNK_STEPS, 2, k, npaths))
    dxy = np.empty_like(vxy)
    cells = np.empty((_CHUNK_STEPS, k, npaths), dtype=np.intp)
    # step s starts in cells[s - 1]: for s = 0 the last row, which holds the
    # start positions, then the last step of the previous (whole) chunk
    cell_index(cells[-1])

    for start in range(0, n_steps, _CHUNK_STEPS):
        n = min(_CHUNK_STEPS, n_steps - start)
        # (n, 2, n_paths): row s holds step start+s of every path's stream
        dw = np.stack([rng.standard_normal((n, 2)) for rng in rngs], axis=-1) * np.sqrt(dt)
        for s in range(n):
            vxy[s] = v_fn(p[0], p[1])
            gs = g.take(cells[s - 1], axis=1)
            d = np.multiply(vxy[s], dt, out=dxy[s])
            d += gs[:2] * dw[s, 0]  # vx dt + g00 dwx, vy dt + g10 dwx
            d[1] += gs[2] * dw[s, 1]
            p += d
            np.subtract(p, lo, out=u)
            if u.min() >= 0.0 and (u <= span).all():
                np.add(lo, u, out=p)  # _reflect's value: its mod is exact here
            else:
                if not np.isfinite(p).all():
                    raise NonFiniteFieldError(("path", start + s), float("nan"))
                p[...] = _reflect(p, lo, hi)
            cell_index(cells[s])
        big_jumps += np.count_nonzero(np.hypot(dxy[:n, 0], dxy[:n, 1]) > 2.0 * cell_diag,
                                      axis=(0, 2))
        slow_drift += np.count_nonzero(np.hypot(vxy[:n, 0], vxy[:n, 1]) * dt < cell_diag,
                                       axis=(0, 2))
        first = max(burn_steps - start, 0)
        if first < n:
            counts += np.bincount(cells[first:n].ravel(), minlength=counts.size)

    total_steps = n_steps * npaths
    kept = (n_steps - burn_steps) * npaths
    jumps, slow = big_jumps.tolist(), slow_drift.tolist()
    for c in jumps:
        if c / total_steps > 0.05:
            raise UnderresolvedError(
                f"{c / total_steps:.1%} of steps jump more than 2 cells; "
                "reduce dt or coarsen the grid"
            )
    measures = tuple(
        normalized_measure(grid, c.reshape(grid.nx, grid.ny).astype(float))[0]
        for c in counts.reshape(k, grid.n_cells)
    )
    diagnostics = tuple(
        {
            "n_samples": kept,
            "frac_jump_gt_2cells": jumps[m] / total_steps,
            "frac_drift_below_cell": slow[m] / total_steps,
            "n_steps": n_steps,
            "burn_steps": burn_steps,
        }
        for m in range(k)
    )
    return measures, {"n_steps": n_steps, "burn_steps": burn_steps, "members": diagnostics}
