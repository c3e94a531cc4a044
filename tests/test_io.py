import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fplab import io as fio
from fplab.fields import DiscreteMeasure, isotropic_schedule
from fplab.grid import Grid2D

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


def test_schedule_document_holds_the_schedule(small_grid):
    s = isotropic_schedule(small_grid, (0.2, 0.1), shape=(1.0, 0.1, 0.5))
    doc = json.loads(json.dumps(fio.schedule_to_document(s)))
    assert doc["eps"] == list(s.eps)
    assert doc["invariance_mode"] == s.invariance_mode
    assert doc["normal_bound"] == s.normal_bound
    assert len(doc["members"]) == len(s.members)
    for a, member in zip(s.members, doc["members"]):
        for name in ("a11", "a12", "a22"):
            assert member[name] == getattr(a, name).ravel().tolist()


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
