import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fplab
from fplab.analysis import bump_d1, bump_profile
from fplab.grid import Grid2D
from fplab.fields import isotropic_diffusion, sample_vector_field
from fplab.fpe import assemble
from fplab.scenarios import hopf_drift


@pytest.fixture(scope="session")
def small_grid():
    return Grid2D(-2.0, 2.0, -2.0, 2.0, 16, 16)


@pytest.fixture(scope="session")
def hopf_grid():
    return Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)


@pytest.fixture(scope="session")
def hopf_field(hopf_grid):
    return sample_vector_field(hopf_drift(1.0), hopf_grid)


@pytest.fixture(scope="session")
def radial_u(hopf_grid):
    xx, yy = hopf_grid.centers()
    return xx**2 + yy**2


def _ou_strip(n, eps):
    """The 1D OU law exp(-x^2/eps) on [-4, 4] as a y-uniform strip of the 2D
    path: (operator, x centres). On Grid2D(-4, 4, -1, 1, n, 8) with
    V = (-x, 0) and A = (eps/2) I, every y-face has z = 0, so the strip's
    stationary measure is exactly the 1D measure on n cells times 1/ny."""
    g = Grid2D(-4.0, 4.0, -1.0, 1.0, n, 8)
    v = sample_vector_field(lambda x, y: (-x, 0 * y), g)
    return assemble(v, isotropic_diffusion(g, eps / 2), g), g.x_centers()


@pytest.fixture(scope="session")
def ou_strip():
    """_ou_strip: (n, eps) -> (operator of the OU strip, its x centres)."""
    return _ou_strip


def _run_config(out_dir="run", nx=64, eps=(0.3, 0.15), scenario=None, shape="modulated",
                **analysis):
    """A run config as its JSON object: the recipe of ``scenario`` (by default the
    Hopf sweep at b = 1) on the [-2.5, 2.5]^2 box at nx^2, with the noise labels
    ``eps`` of the schedule shape ``shape``, the default dictionary named and the
    ``analysis`` keys given; each call builds new sections, free to edit."""
    return {
        "scenario": dict(scenario or {"name": "hopf", "b": 1.0}),
        "grid": {"x_min": -2.5, "x_max": 2.5, "y_min": -2.5, "y_max": 2.5, "nx": nx, "ny": nx},
        "schedule": {"eps": list(eps), "shape": shape},
        "analysis": {"dictionary": "hopf-offcycle-v1", **analysis},
        "output_dir": str(out_dir),
        "seed": 0,
    }


@pytest.fixture(scope="session")
def run_config():
    """_run_config: (out_dir, nx, eps, scenario, shape, **analysis) -> a run config."""
    return _run_config


@pytest.fixture(scope="session")
def fresh_python():
    """Run a script in a new interpreter that imports this fplab; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(fplab.__file__).parents[1])}

    def run(script, *args):
        proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout
    return run


# |loop sum| allowed on a plaquette: four log rate ratios, each of size <= ~30
# on the grids tested, summed in floating point (measured <= 1.8e-15 on the
# 200^2 double well)
LOOP_TOL = 1e-13


def _exact_discrete_measure(op, loop_tol=LOOP_TOL):
    """The stationary measure of a 5-point operator whose rates satisfy
    Kolmogorov's loop condition, in closed form, as an (nx, ny) array of unit mass.

    M[b, a] is the rate from cell a to cell b. Across each face the log rate
    ratio z = log M[hi, lo] - log M[lo, hi] is the face Peclet number, since
    B(-z) / B(z) = e^z. When z summed around every plaquette vanishes (to
    ``loop_tol``), detailed balance holds face by face, w(hi) / w(lo) = e^z,
    and log w is a cumulative sum of z along any path, here along j = 0 and
    then along each column. That w solves M w = 0 whatever the eps, with no
    subtraction that a small eps could cancel.
    """
    g, m = op.grid, op.matrix
    idx = np.arange(g.n_cells).reshape(g.nx, g.ny)

    def peclet(lo, hi):
        up, down = (np.asarray(m[r.ravel(), c.ravel()]).reshape(lo.shape)
                    for r, c in ((hi, lo), (lo, hi)))
        return np.log(up) - np.log(down)

    zx, zy = peclet(idx[:-1], idx[1:]), peclet(idx[:, :-1], idx[:, 1:])
    loop = zx[:, :-1] + zy[1:] - zx[:, 1:] - zy[:-1]
    assert np.abs(loop).max() <= loop_tol, f"loop condition off by {np.abs(loop).max():.3g}"
    logw = np.zeros((g.nx, g.ny))
    logw[1:, 0] = np.cumsum(zx[:, 0])
    logw[:, 1:] = logw[:, :1] + np.cumsum(zy, axis=1)
    w = np.exp(logw - logw.max())
    return w / w.sum()


@pytest.fixture(scope="session")
def exact_discrete_measure():
    """_exact_discrete_measure: (5-point operator[, loop_tol]) -> its closed-form measure."""
    return _exact_discrete_measure


def _dense_reference(grid, bumps):
    """h, dxh and dyh of the bumps (cx, cy, wx, wy) as (k, nx, ny) arrays,
    each bump built as a 2D array on the cell centres."""
    xx, yy = grid.centers()
    hs, dxs, dys = [], [], []
    for cx, cy, wx, wy in bumps:
        ux, uy = (xx - cx) / wx, (yy - cy) / wy
        px, py = bump_profile(ux), bump_profile(uy)
        hs.append(px * py)
        dxs.append(bump_d1(ux) * py / wx)
        dys.append(px * bump_d1(uy) / wy)
    return np.asarray(hs), np.asarray(dxs), np.asarray(dys)


@pytest.fixture(scope="session")
def dense_reference():
    """_dense_reference: (grid, bumps) -> the dense (h, dxh, dyh) of a dictionary."""
    return _dense_reference


def _bump_d2(t):
    """psi'' of bump_profile, which fplab does not compute: the Laplacian's
    reference for the stationarity bound on invariance residuals."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0 - 1e-14
    ti = t[inside]
    s = -2.0 * ti / (1.0 - ti**2) ** 2
    sp = -2.0 * (1.0 + 3.0 * ti**2) / (1.0 - ti**2) ** 3
    out[inside] = bump_profile(ti) * (s**2 + sp)
    return out


@pytest.fixture(scope="session")
def bump_d2():
    """_bump_d2: t -> psi''(t)."""
    return _bump_d2


@functools.lru_cache(maxsize=None)
def _reference_sup_norms(wx, wy):
    """sup |grad h| and sup |lap h| from the whole 2001^2 fine lattice at once."""
    fine = np.linspace(-1.0, 1.0, 2001)
    psi_f, d1_f, d2_f = bump_profile(fine), bump_d1(fine), _bump_d2(fine)
    gx = np.abs(np.outer(d1_f, psi_f)) / wx
    gy = np.abs(np.outer(psi_f, d1_f)) / wy
    lf = np.outer(d2_f, psi_f) / wx**2 + np.outer(psi_f, d2_f) / wy**2
    return float(np.sqrt(gx**2 + gy**2).max()), float(np.abs(lf).max())


@pytest.fixture(scope="session")
def reference_sup_norms():
    """_reference_sup_norms: (wx, wy) -> (sup |grad h|, sup |lap h|) of a bump."""
    return _reference_sup_norms
