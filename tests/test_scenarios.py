import numpy as np
import pytest

from fplab import scenarios
from fplab.errors import ConfigError
from fplab.fields import isotropic_schedule, measure_mass_on
from fplab.grid import Grid2D
from fplab.scenarios import (
    build_schedule,
    delta_at,
    dictionary_for,
    double_well_potential,
    haar_on_circle,
    hopf_drift,
    make_scenario,
    run_designed_comparison,
    run_gibbs,
    run_hopf_sweep,
)


def test_make_scenario_reference_consistency():
    s = make_scenario("hopf", b=2.25)
    g = s.default_grid
    xx, yy = g.centers()
    haar = s.limit_measure(g)  # Haar on the cycle of radius^2 = b
    assert measure_mass_on(haar, np.abs(np.hypot(xx, yy) - 1.5) < 0.05) == pytest.approx(1.0)
    point = make_scenario("hopf", b=-1.0).limit_measure(g)
    assert point.weights[g.cell_index(0.0, 0.0)] == 1.0
    with pytest.raises(ConfigError):
        make_scenario("unknown")


def test_make_scenario_rejects_unknown_parameters():
    with pytest.raises(ConfigError, match="known: b") as exc:
        make_scenario("hopf", None, bb=2.0)
    assert exc.value.field == "scenario.bb"
    with pytest.raises(ConfigError, match="known: none") as exc:
        make_scenario("ou2d", None, b=1.0)
    assert exc.value.field == "scenario.b"


def test_haar_reference_is_angularly_uniform():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 128, 128)
    haar = haar_on_circle(g, 1.0)
    xx, yy = g.centers()
    r = np.hypot(xx, yy)
    assert measure_mass_on(haar, np.abs(r - 1.0) < 0.1) == pytest.approx(1.0)
    # quadrant symmetry
    q1 = haar.weights[(xx > 0) & (yy > 0)].sum()
    q2 = haar.weights[(xx < 0) & (yy > 0)].sum()
    assert q1 == pytest.approx(q2, abs=1e-3)


def test_schedule_shapes():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 32, 32)
    iso = build_schedule(g, (0.2, 0.1), "iso")
    assert np.allclose(iso.members[0].a11, 0.2)
    aniso = build_schedule(g, (0.2, 0.1), "aniso")
    assert np.allclose(aniso.members[0].a22, 0.1)
    mod = build_schedule(g, (0.2, 0.1), "modulated")
    assert mod.is_normal
    # modulation profile: heavier noise for x > 0
    assert mod.members[0].a11[24, 16] > mod.members[0].a11[8, 16]
    with pytest.raises(ConfigError):
        build_schedule(g, (0.2, 0.1), "bogus")


def test_iso_schedule_matches_isotropic_schedule():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 32, 32)
    eps = (0.2, 0.1, 0.05)
    named, plain = build_schedule(g, eps, "iso"), isotropic_schedule(g, eps)
    assert named.eps == plain.eps
    for (_, a), (_, b) in zip(named, plain):
        for name in ("a11", "a12", "a22"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("mode", ["reflecting", "vanishing-at-boundary"])
@pytest.mark.parametrize("shape", ["iso", "aniso", "modulated"])
def test_every_schedule_shape_is_normal(shape, mode):
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 32, 32)
    sched = build_schedule(g, (0.2, 0.1), shape, mode)
    assert sched.invariance_mode == mode
    assert sched.is_normal


def test_dictionary_registry():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 64, 64)
    d = dictionary_for("hopf-offcycle-v1", g)
    assert len(d) == 9
    # all bump supports avoid the unit-circle annulus 0.65 < r < 1.35
    xx, yy = g.centers()
    r = np.hypot(xx, yy)
    on_annulus = (r > 0.65) & (r < 1.35)
    assert np.abs(d.h[:, on_annulus]).max() <= 1e-12
    with pytest.raises(ConfigError):
        dictionary_for("nope", g)


def test_run_gibbs_symmetric_split():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    sched = build_schedule(g, (0.2, 0.1), "iso")
    res = run_gibbs(double_well_potential, sched, g)
    assert not res.errors
    for row in res.report.rows:
        assert row["l1_error"] < 6e-3
        assert row["left_mass"] == pytest.approx(0.5, abs=0.01)


def test_run_hopf_sweep_small():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 128, 128)
    sched = build_schedule(g, (0.2, 0.1, 0.05), "modulated")
    res = run_hopf_sweep(1.0, sched, g)
    assert not res.errors
    assert res.extra["uniform_lyapunov_pass"]
    ann = res.report.series("mass_annulus")
    assert all(b > a for a, b in zip(ann, ann[1:]))  # monotone concentration
    names = [n for n, _, _, _ in res.assertions]
    assert "annulus_mass_increasing" in names
    # thresholds tuned for eps=0.02 are not asserted here; trend checks pass
    trend = {n: p for n, p, _, _ in res.assertions}
    assert trend["annulus_mass_increasing"]
    assert trend["origin_mass_decreasing"]
    assert trend["angular_w1_decreasing"]
    assert trend["exterior_bound_all_ok"]
    # full config echo makes rows re-derivable
    for key in ("b", "grid", "eps", "dictionary", "thresholds", "rho_m", "gamma"):
        assert key in res.config
    doc = res.to_document()
    assert doc["format"] == "fplab/scenario-result@1"
    assert len(doc["metrics"]) == 3


@pytest.mark.parametrize("override", [{"annulus_finl": 0.5}, {"annulus_final": 1.5}])
def test_run_hopf_sweep_checks_thresholds_before_solving(monkeypatch, override):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_family called")

    monkeypatch.setattr(scenarios, "solve_family", no_solve)
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 32, 32)
    with pytest.raises(ConfigError) as exc:
        run_hopf_sweep(1.0, build_schedule(g, (0.2, 0.1), "iso"), g, thresholds=override)
    assert exc.value.field == f"analysis.thresholds.{next(iter(override))}"


def test_run_designed_comparison_small():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    scen = make_scenario("double-well", g)
    res = run_designed_comparison(scen, "attractor", 10.0, (0.1, 0.05), g)
    assert not res.errors
    assert res.extra["uniform_lyapunov_pass"]
    assert res.extra["ratio_condition"] == pytest.approx(10.0)
    dm = res.report.series("designed_mass")
    um = res.report.series("uniform_mass")
    assert np.all(dm > um)
    verdicts = {n: p for n, p, _, _ in res.assertions}
    assert verdicts["dominance_every_eps"]


def test_designed_comparison_rejects_unknown_target():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    scen = make_scenario("double-well", g)
    with pytest.raises(ConfigError):
        run_designed_comparison(scen, "repeller", 10.0, (0.1,), g)


def test_metrics_csv_shape():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    sched = build_schedule(g, (0.2, 0.1), "iso")
    res = run_gibbs(double_well_potential, sched, g)
    csv = res.report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("eps,")
    assert len(lines) == 3
