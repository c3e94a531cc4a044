from dataclasses import replace

import numpy as np
import pytest

from fplab import scenarios
from fplab.errors import ConfigError
from fplab.fields import isotropic_schedule, sample_vector_field
from fplab.fpe import assemble
from fplab.grid import Grid2D
from fplab.io import save_csv
from fplab.scenarios import (
    build_schedule,
    delta_at,
    dictionary_for,
    double_well_drift,
    double_well_potential,
    haar_on_circle,
    hopf_drift,
    RunConfig,
    make_scenario,
    run_designed_comparison,
    run_hopf_sweep,
)


def test_make_scenario_reference_consistency():
    s = make_scenario("hopf", b=2.25)
    g = s.default_grid
    xx, yy = g.centers()
    haar = s.limit_measure(g)  # Haar on the cycle of radius^2 = b
    assert haar.weights[np.abs(np.hypot(xx, yy) - 1.5) < 0.05].sum() == pytest.approx(1.0)
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
    assert haar.weights[np.abs(r - 1.0) < 0.1].sum() == pytest.approx(1.0)
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
    assert max(a.normality_ratio() for _, a in mod) <= mod.normal_bound
    # modulation profile: heavier noise for x > 0
    assert mod.members[0].a11[24, 16] > mod.members[0].a11[8, 16]
    with pytest.raises(ConfigError):
        build_schedule(g, (0.2, 0.1), "bogus")


@pytest.mark.parametrize("mode", ["reflecting", "vanishing-at-boundary"])
def test_schedule_shapes_match_their_formulas(mode):
    # each shape's members are eps times these products, in this order
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 32, 32)
    xx, yy = g.centers()
    taper = scenarios.boundary_taper(g) if mode != "reflecting" else np.ones((32, 32))
    s = (1.0 + 0.5 * xx / (1.0 + xx**2 + yy**2)) * taper
    formulas = {"iso": (taper, 0.0 * taper, taper), "aniso": (taper, 0.0 * taper, 0.5 * taper),
                "modulated": (s, 0.0 * s, 0.5 * s)}
    assert sorted(formulas) == sorted(scenarios.SHAPES)
    for shape, base in formulas.items():
        (_, a), = build_schedule(g, (0.2,), shape, mode)
        for name, b in zip(("a11", "a12", "a22"), base):
            assert getattr(a, name).tobytes() == (0.2 * b).tobytes()
    with pytest.raises(ConfigError, match="schedule.shape"):
        build_schedule(g, (0.2,), ["iso"])


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
    assert max(a.normality_ratio() for _, a in sched) <= sched.normal_bound


def test_dictionary_registry(dense_reference):
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 64, 64)
    d = dictionary_for("hopf-offcycle-v1", g)
    assert len(d) == 9
    # all bump supports avoid the unit-circle annulus 0.65 < r < 1.35
    xx, yy = g.centers()
    r = np.hypot(xx, yy)
    on_annulus = (r > 0.65) & (r < 1.35)
    h = dense_reference(g, d.bumps)[0]
    assert np.abs(h[:, on_annulus]).max() <= 1e-12
    with pytest.raises(ConfigError):
        dictionary_for("nope", g)


def _double_well(run_config, nx, eps):
    """The resolved double-well run at nx^2 over ``eps``, under its isotropic schedule."""
    return RunConfig.from_dict(run_config(nx=nx, eps=eps, scenario={"name": "double-well"},
                                          shape="iso"))


def test_run_gibbs_symmetric_split(run_config):
    res = _double_well(run_config, 100, (0.2, 0.1)).run()
    assert not res.errors
    for _, _, row in res.members:
        assert row["l1_error"] < 6e-3
        assert row["left_mass"] == pytest.approx(0.5, abs=0.01)


def test_run_hopf_sweep_small(run_config):
    res = run_hopf_sweep(RunConfig.from_dict(run_config(nx=128, eps=(0.2, 0.1, 0.05))))
    assert not res.errors
    assert res.extra["uniform_lyapunov_pass"]
    ann = res.series("mass_annulus")
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


def test_run_designed_comparison_small():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    scen = make_scenario("double-well", g)
    res = run_designed_comparison(scen, "attractor", 10.0, (0.1, 0.05), g)
    assert not res.errors
    assert res.extra["uniform_lyapunov_pass"]
    assert res.extra["ratio_condition"] == pytest.approx(10.0)
    dm = res.series("designed_mass")
    um = res.series("uniform_mass")
    assert np.all(dm > um)
    verdicts = {n: p for n, p, _, _ in res.assertions}
    assert verdicts["dominance_every_eps"]


def test_run_designed_comparison_hopf_repeller():
    # designed noise drains the Hopf origin ball at every eps; at 100^2 the
    # eps = 0.02 designed member overflows the stencil and is recorded as an error
    verdicts, errors = {}, {}
    for n in (128, 100):
        g = Grid2D(-2.5, 2.5, -2.5, 2.5, n, n)
        res = run_designed_comparison(make_scenario("hopf", g, b=1.0), "repeller", 10.0,
                                      (0.1, 0.05, 0.02), g)
        verdicts[n] = {name: (p, v) for name, p, v, _ in res.assertions}
        errors[n] = [(eps, "StencilOverflowError" in msg) for eps, msg in res.errors]
    passed, final_mass = verdicts[128]["designed_final_mass"]
    assert passed and final_mass <= 0.01
    assert verdicts[128]["dominance_every_eps"] == (True, 3.0)
    assert errors == {128: [], 100: [(0.02, True)]}
    assert verdicts[100]["dominance_every_eps"] == (True, 2.0)


def test_designed_comparison_rejects_unknown_target():
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    scen = make_scenario("double-well", g)
    with pytest.raises(ConfigError):
        run_designed_comparison(scen, "repeller", 10.0, (0.1,), g)


def test_metrics_csv_shape(tmp_path, run_config):
    res = _double_well(run_config, 100, (0.2, 0.1)).run()
    save_csv([{"eps": eps, **row} for eps, _, row in res.members], tmp_path / "metrics.csv")
    lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    assert lines[0].startswith("eps,")
    assert len(lines) == 3
    # a run whose every member failed keeps its eps column
    save_csv([], tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "eps\n"


# measured on 200^2 at eps 0.1, 0.05 and 0.02: discretization 5.85e-4, 8.23e-4
# and 1.26e-3, rounding 2.5e-14, 6.1e-14 and 5.7e-11, and the Gibbs L1 off the
# discretization part by 6e-15 to 1.3e-14
def test_gibbs_error_splits_into_discretization_and_rounding(exact_discrete_measure, run_config):
    # the double well's operator has a closed-form stationary measure, so the
    # Gibbs L1 splits into discretization (closed form against the Gibbs
    # density) and rounding (solve against the closed form)
    cfg = _double_well(run_config, 200, (0.1, 0.05, 0.02))
    g = cfg.domain
    sched = build_schedule(g, **cfg.resolved.schedule)
    res = cfg.run()
    assert not res.errors and len(res.members) == 3
    v = sample_vector_field(double_well_drift, g)
    phi = double_well_potential(*g.centers())
    for (eps, a), (_, measures, row), measured in zip(sched, res.members, (5.85e-4, 8.23e-4, 1.26e-3)):
        exact = exact_discrete_measure(assemble(v, a, g))
        gibbs = np.exp(-(phi - phi.min()) / eps)
        gibbs /= gibbs.sum()
        disc = np.abs(exact - gibbs).sum()
        rounding = np.abs(measures["measure"].weights - exact).sum()
        # the triangle inequality, up to the rounding of three sums of cell terms
        # (pairwise summation: well under 64 ulp of each sum)
        sums = 64 * np.finfo(float).eps * (row["l1_error"] + disc + rounding)
        assert abs(row["l1_error"] - disc) <= rounding + sums
        assert disc == pytest.approx(measured, rel=0.01)
        assert rounding <= 1e-6 * disc


def test_run_hopf_sweep_exterior_bound_fails_closed(monkeypatch, run_config):
    # b = 3 puts rho_m = 4.5 above the top level (4) the bound is checked at;
    # that member, like one whose certificate fails, has checked nothing
    def sweep(b):
        return run_hopf_sweep(RunConfig.from_dict(run_config(
            eps=(0.2, 0.1), scenario={"name": "hopf", "b": b}, shape="iso")))

    res = sweep(3.0)
    assert list(res.series("exterior_bound_ok")) == [0.0, 0.0]
    assert not {n: p for n, p, _, _ in res.assertions}["exterior_bound_all_ok"]

    verify = scenarios.verify_uniform_lyapunov

    def last_fails(*args):
        certs, _ = verify(*args)
        return certs[:-1] + [replace(certs[-1], passed=False)], False

    monkeypatch.setattr(scenarios, "verify_uniform_lyapunov", last_fails)
    res = sweep(1.0)
    assert list(res.series("exterior_bound_ok")) == [1.0, 0.0]
    assert not {n: p for n, p, _, _ in res.assertions}["exterior_bound_all_ok"]
