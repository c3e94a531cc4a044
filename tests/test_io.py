import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fplab import io as fio
from fplab.fields import DiffusionField, DiscreteMeasure, isotropic_schedule
from fplab.grid import Grid1D, Grid2D

G = Grid2D(-2.0, 2.0, -1.5, 1.5, 8, 8)


@given(hnp.arrays(np.float64, (8, 8),
                  elements=st.floats(min_value=1e-9, max_value=1e6)))
@settings(max_examples=25, deadline=None)
def test_measure_roundtrip_bit_identical(raw):
    w = raw / raw.sum()
    w = w / w.sum()
    mu = DiscreteMeasure(G, w)
    doc = json.loads(json.dumps(fio.measure_to_document(mu)))
    mu2 = fio.measure_from_document(doc)
    assert np.array_equal(mu2.weights, mu.weights)


def test_diffusion_roundtrip_bit_identical():
    rng = np.random.default_rng(5)
    a11 = 0.5 + rng.random((8, 8))
    a22 = 0.5 + rng.random((8, 8))
    a12 = 0.2 * (rng.random((8, 8)) - 0.5)
    a = DiffusionField(G, a11, a12, a22)
    doc = json.loads(json.dumps(fio.diffusion_to_document(a)))
    a2 = fio.diffusion_from_document(doc)
    for name in ("a11", "a12", "a22", "lam", "frob"):
        assert np.array_equal(getattr(a2, name), getattr(a, name))


def test_schedule_roundtrip(small_grid):
    s = isotropic_schedule(small_grid, (0.2, 0.1), shape=(1.0, 0.1, 0.5))
    doc = json.loads(json.dumps(fio.schedule_to_document(s)))
    s2 = fio.schedule_from_document(doc)
    assert s2.eps == s.eps
    assert s2.invariance_mode == s.invariance_mode
    for a, b in zip(s.members, s2.members):
        assert np.array_equal(a.a11, b.a11)
        assert np.array_equal(a.a12, b.a12)


def test_1d_measure_roundtrip(tmp_path):
    g = Grid1D(-4.0, 4.0, 32)
    w = np.exp(-g.centers() ** 2)
    mu = DiscreteMeasure(g, w / w.sum() / ((w / w.sum()).sum()))
    path = tmp_path / "m.json"
    fio.save_document(fio.measure_to_document(mu), path)
    mu2 = fio.measure_from_document(fio.load_document(path))
    assert isinstance(mu2.grid, Grid1D)
    assert np.array_equal(mu2.weights, mu.weights)


def test_save_document_writes_standard_json_and_makes_directories(tmp_path):
    path = tmp_path / "a" / "b" / "doc.json"
    fio.save_document({"x": float("inf"), "y": [np.float64("nan"), 1.5], "z": {"w": -np.inf},
                       "t": (2.0, float("-inf")), "n": 3, "s": "inf"}, path)
    doc = json.loads(path.read_text(), parse_constant=lambda token: pytest.fail(token))
    assert doc == {"x": None, "y": [None, 1.5], "z": {"w": None}, "t": [2.0, None],
                   "n": 3, "s": "inf"}
    fio.save_csv([{"eps": 0.1, "margin": float("inf")}], tmp_path / "c" / "m.csv")
    assert (tmp_path / "c" / "m.csv").read_text() == "eps,margin\n0.1,inf\n"


def test_format_tags_present():
    mu = DiscreteMeasure(G, np.full((8, 8), 1.0 / 64))
    doc = fio.measure_to_document(mu)
    assert doc["format"] == "fplab/measure@1"
    assert doc["grid"]["kind"] == "grid2d"
    assert len(doc["weights"]) == 64
