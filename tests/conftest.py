import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fplab
from fplab.grid import Grid2D
from fplab.fields import sample_vector_field
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
