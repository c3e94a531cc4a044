"""Self-tests of the benchmark harness: span arithmetic, the percentile rule and
the correctness gate. Run with ``python3 -m pytest -q perfbench``."""

import copy
import math
import statistics

import pytest

from gates import compare
from run import percentile, tail_percentile
from tracing import Tracer, layer_metrics, outermost, self_times, union_length
from workloads import OU_L1_MAX, SAMPLER_L1_MAX, bound_checks, fingerprint


def span(sid, name, start, end, parent=None, **attrs):
    s = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": "t"}
    if attrs:
        s["attrs"] = attrs
    return s


# ---------------------------------------------------------------------------
# span arithmetic

def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 4), (1, 2)]) == 4.0


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        span(1, "scenarios.sweep", 0.0, 10.0),
        span(2, "fpe.solve", 1.0, 4.0, parent=1),
        span(3, "fpe.factor", 1.5, 3.5, parent=2),
        span(4, "analysis.metric", 3.0, 6.0, parent=1),  # overlaps 2: counted once
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(3.0)


def test_outermost_skips_nested_spans_of_the_same_layer():
    spans = [
        span(1, "analysis.metric", 0.0, 2.0),
        span(2, "analysis.metric", 0.5, 1.0, parent=1),
        span(3, "analysis.metric", 3.0, 4.0),
    ]
    assert [s["id"] for s in outermost(spans, "analysis.metric")] == [1, 3]


def test_layer_metrics_from_a_synthetic_trace():
    spans = [
        span(1, "scenarios.sweep", 0.0, 9.0),
        span(2, "fpe.solve", 1.0, 4.0, parent=1, clipped_mass=1e-16, max_abs_z=3.0),
        span(3, "fpe.factor", 1.0, 2.0, parent=2),
        span(4, "fpe.factor", 2.0, 3.5, parent=2),
        span(5, "fpe.solve", 5.0, 6.0, parent=1, clipped_mass=2e-16, max_abs_z=5.0),
        span(6, "fpe.factor", 5.0, 5.25, parent=5),
        span(7, "fpe.factor", 5.25, 5.5, parent=5),
        span(8, "io.write", 9.0, 9.5, bytes=100),
    ]
    m = layer_metrics(spans, wall_s=10.0, workers=1)
    assert m["fpe.factor_calls_per_member"] == 2.0
    assert m["fpe.factor_s"] == pytest.approx(3.0)
    assert m["fpe.solve_self_s"] == pytest.approx(4.0 - 3.0)
    assert m["fpe.solve_s.p50"] == pytest.approx(2.0)
    assert m["fpe.solve_s.max"] == pytest.approx(3.0)
    assert m["fpe.clipped_mass_max"] == 2e-16
    assert m["fpe.max_abs_z"] == 5.0
    assert m["fpe.wall_share"] == pytest.approx(0.4)
    assert m["scenarios.sweep_self_s"] == pytest.approx(9.0 - 4.0)
    assert m["cli.pool_busy_frac"] == pytest.approx(0.9)
    assert (m["io.documents"], m["io.bytes_written"]) == (1, 100)
    assert m["sampler.occupation_s"] == 0


def test_tracer_links_nested_calls_to_their_parent():
    tracer = Tracer("t")
    inner = tracer.wrap("fpe.factor", lambda x: x + 1)
    outer = tracer.wrap("fpe.solve", lambda x: inner(x) * 2, attrs=lambda a, k, r: {"r": r})
    assert outer(1) == 4
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["fpe.factor"]["parent"] == by_name["fpe.solve"]["id"]
    assert by_name["fpe.solve"]["parent"] is None
    assert by_name["fpe.solve"]["attrs"] == {"r": 4}
    assert all(s["end"] >= s["start"] for s in tracer.spans)


# ---------------------------------------------------------------------------
# percentile rule

def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(1) is None
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_percentile_interpolates_between_order_statistics():
    xs = [float(v) for v in range(1, 12)]
    assert percentile(xs, 50) == statistics.median(xs)
    assert percentile(xs, 90) == pytest.approx(10.0)
    assert percentile(xs, 95) == pytest.approx(10.5)
    assert percentile([3.0], 99) == 3.0


# ---------------------------------------------------------------------------
# correctness gate

REFERENCE = {
    "b1.0": {
        "metrics": [{"mass_annulus": 0.4433, "exterior_bound_margin": math.inf,
                     "solve_residual": 1e-14}],
        "assertions": [{"name": "annulus_mass_final", "passed": False, "value": 0.8,
                        "threshold": 0.85}],
        "errors": [],
        "fingerprints": {"0.2": [0.25, 0.25, 0.25, 0.25]},
    }
}


def test_comparator_accepts_the_reference_and_new_keys():
    got = copy.deepcopy(REFERENCE)
    got["b1.0"]["metrics"][0]["disc_error_est"] = 0.1      # a key added later
    got["b1.0"]["metrics"][0]["solve_residual"] = 3e-13    # round-off differs
    got["b1.0"]["fingerprints"]["0.2"][0] += 1e-15
    got["b1.0"]["fingerprints"]["0.2"][1] -= 1e-15
    assert compare(REFERENCE, got) == []


def test_comparator_rejects_a_perturbed_measure():
    np = pytest.importorskip("numpy")
    w = np.random.default_rng(0).random((32, 32))
    w /= w.sum()
    ref = {"members": [{"eps": 0.1, "fingerprint": fingerprint(w)}]}

    def gate(weights):
        return compare(ref, {"members": [{"eps": 0.1, "fingerprint": fingerprint(weights)}]})

    roundoff = w * (1.0 + 1e-15)
    moved = w.copy()
    moved[0, 0] -= 1e-6          # mass moved across blocks; total unchanged
    moved[-1, -1] += 1e-6
    assert gate(w) == [] and gate(roundoff) == []
    problems = gate(moved)
    assert len(problems) == 1 and problems[0].startswith("members[0].fingerprint")


def test_comparator_rejects_changed_metrics_and_verdicts():
    cases = [
        ("metrics", lambda g: g["metrics"][0].update(mass_annulus=0.4434)),
        ("exterior_bound_margin", lambda g: g["metrics"][0].update(exterior_bound_margin=1.0)),
        ("passed", lambda g: g["assertions"][0].update(passed=True)),
        ("errors", lambda g: g["errors"].append({"eps": 0.2, "error": "x"})),
        ("solve_residual", lambda g: g["metrics"][0].update(solve_residual=1e-3)),
        ("fingerprints", lambda g: g["fingerprints"]["0.2"].__setitem__(0, 0.2501)),
        ("missing", lambda g: g.pop("fingerprints")),
    ]
    for label, mutate in cases:
        got = copy.deepcopy(REFERENCE)
        mutate(got["b1.0"])
        assert compare(REFERENCE, got), label


def test_bound_checks():
    ok = bound_checks("sampler-oracle", {"l1_to_pde": {"0.1": SAMPLER_L1_MAX / 2}})
    bad = bound_checks("sampler-oracle", {"l1_to_pde": {"0.1": SAMPLER_L1_MAX * 2}})
    assert [c[1] for c in ok] == [True] and [c[1] for c in bad] == [False]
    assert bound_checks("ou-sheared-oracle", {"oracle_l1_error": OU_L1_MAX * 1.01})[0][1] is False
    assert bound_checks("hopf-acceptance", {}) == []
