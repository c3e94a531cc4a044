"""Uniform rectangular grids: the discrete stand-in for the state-space domain.

Cell data everywhere in the package is stored as numpy arrays of shape
``(nx, ny)`` (2D) or ``(nx,)`` (1D), flattened row-major (C order), so cell
``(i, j)`` has flat index ``i * ny + j``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid1D", "Grid2D", "dilate"]

MIN_CELLS = 8
MIN_WIDTH = 1.0 / np.sqrt(np.finfo(float).max)  # the narrowest cell h whose 1/h^2 is finite


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D cell partition of [x_min, x_max]; fast path for oracles."""

    x_min: float
    x_max: float
    nx: int

    def __post_init__(self):
        if self.nx < MIN_CELLS:
            raise ValueError(f"nx must be >= {MIN_CELLS}, got {self.nx}")
        if not 0.0 < self.x_max - self.x_min < np.inf:
            raise ValueError("x_max must exceed x_min by a finite extent")
        if not self.hx >= MIN_WIDTH:  # the face rates divide by h^2
            raise ValueError(f"cells of width {self.hx:g} are too small: 1/h^2 is not finite")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.hx

    def metadata(self) -> dict:
        return {"kind": "grid1d", "x_min": self.x_min, "x_max": self.x_max, "nx": self.nx}


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular cell partition of [x_min,x_max] x [y_min,y_max].

    Cell (i, j) has center (x_min + (i+0.5)hx, y_min + (j+0.5)hy); the total
    cell count is nx*ny and flattening is row-major in (i, j).
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < MIN_CELLS or self.ny < MIN_CELLS:
            raise ValueError(f"nx and ny must be >= {MIN_CELLS}, got {self.nx}x{self.ny}")
        if not (0.0 < self.x_max - self.x_min < np.inf and 0.0 < self.y_max - self.y_min < np.inf):
            raise ValueError("domain bounds must have positive finite extent")
        if not min(self.hx, self.hy) >= MIN_WIDTH:  # the face rates divide by h^2
            raise ValueError(f"cells of {self.hx:g} x {self.hy:g} are too small: "
                             "1/h^2 is not finite")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.hx

    def y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.hy

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of cell centers, each of shape (nx, ny)."""
        return np.meshgrid(self.x_centers(), self.y_centers(), indexing="ij")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points (shape (..., 2)) inside the closed box."""
        p = np.asarray(points)
        return (
            (p[..., 0] >= self.x_min)
            & (p[..., 0] <= self.x_max)
            & (p[..., 1] >= self.y_min)
            & (p[..., 1] <= self.y_max)
        )

    def cell_index(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) indices of the cells containing the points (x, y), clipped
        to the grid."""
        i = ((np.asarray(x) - self.x_min) / self.hx).astype(np.int64)
        j = ((np.asarray(y) - self.y_min) / self.hy).astype(np.int64)
        return (np.minimum(np.maximum(i, 0), self.nx - 1),
                np.minimum(np.maximum(j, 0), self.ny - 1))

    def interior_mask(self) -> np.ndarray:
        """True on cells not adjacent to the truncation boundary."""
        m = np.zeros((self.nx, self.ny), dtype=bool)
        m[1:-1, 1:-1] = True
        return m

    def metadata(self) -> dict:
        return {
            "kind": "grid2d",
            "x_min": self.x_min,
            "x_max": self.x_max,
            "y_min": self.y_min,
            "y_max": self.y_max,
            "nx": self.nx,
            "ny": self.ny,
        }


def dilate(mask: np.ndarray, n: int, diagonal: bool) -> np.ndarray:
    """A cell mask grown by n cells through the 4-neighbourhood, or through
    the 8-neighbourhood when ``diagonal``; nothing wraps around the edges."""
    out = mask.copy()
    for _ in range(n):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        # the row-grown mask spreads along columns too for the 8-neighbourhood
        src = grown.copy() if diagonal else out
        grown[:, 1:] |= src[:, :-1]
        grown[:, :-1] |= src[:, 1:]
        out = grown
    return out


def grid_from_metadata(meta: dict):
    kind = meta.get("kind")
    if kind == "grid1d":
        return Grid1D(meta["x_min"], meta["x_max"], int(meta["nx"]))
    if kind == "grid2d":
        return Grid2D(
            meta["x_min"], meta["x_max"], meta["y_min"], meta["y_max"],
            int(meta["nx"]), int(meta["ny"]),
        )
    raise ValueError(f"unknown grid kind {kind!r}")
