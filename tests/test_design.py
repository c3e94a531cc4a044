import numpy as np
import pytest

from fplab import design, scenarios
from fplab.design import (
    design_family,
    isolation_from_certificate,
    lemma41_constants,
    quadratic_certificate,
    verify_repelling_equilibrium,
)
from fplab.dynamics import verify_uniform_lyapunov
from fplab.errors import (
    CertificateFailError,
    ConfigError,
    DegenerateGradientError,
    RatioInfeasibleError,
)
from fplab.fields import isotropic_diffusion, isotropic_schedule, sample_vector_field
from fplab.fpe import assemble, solve_stationary
from fplab.grid import Grid2D
from fplab.scenarios import delta_at, hopf_drift, make_scenario


@pytest.fixture(scope="module")
def dw_grid():
    return Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)


@pytest.fixture(scope="module")
def dw_field(dw_grid):
    return sample_vector_field(lambda x, y: (x - x**3, -y), dw_grid)


@pytest.fixture(scope="module")
def dw_iso(dw_grid, dw_field):
    xx, yy = dw_grid.centers()
    u0 = (xx + 1.0) ** 2 + yy**2
    return isolation_from_certificate(u0, dw_field, 0.16, 0.09, 0.45)


def test_isolation_classifies_attractor(dw_iso):
    assert dw_iso.kind == "attractor"
    assert dw_iso.gamma0 > 0.2


def test_isolation_classifies_repeller(hopf_grid, hopf_field, radial_u):
    iso = isolation_from_certificate(radial_u, hopf_field, 0.36, 0.04, 0.64)
    assert iso.kind == "repeller"
    assert iso.gamma0 > 0.2


def test_isolation_rejects_mixed_crossing(hopf_grid, hopf_field, radial_u):
    # the level U = 1 is the limit cycle itself: V.grad U changes sign nearby
    with pytest.raises(ValueError):
        isolation_from_certificate(radial_u, hopf_field, 1.0, 0.5, 1.5)


def test_isolation_rejects_degenerate_gradient(hopf_grid, hopf_field, radial_u):
    # a band straddling the origin contains the critical point of U
    with pytest.raises(DegenerateGradientError):
        isolation_from_certificate(radial_u, hopf_field, 0.09, 0.0, 0.25)


def test_lemma41_hand_formula(hopf_grid, hopf_field, radial_u):
    # radial U0 = r^2: |grad U0| = 2r, so
    # C = gamma0 (rt - rl) 2 sqrt(rt) / (2 max_band 4 U)
    iso = isolation_from_certificate(radial_u, hopf_field, 0.36, 0.04, 0.64)
    c_att, band = lemma41_constants(iso, kind="attractor")
    rt, rl = iso.rho_tilde, iso.rho_star_lo
    expect = iso.gamma0 * (rt - rl) * 2 * np.sqrt(rt) / (2 * 4 * rt)
    assert c_att == pytest.approx(expect, rel=0.08)  # grid-level agreement
    # vanishing band: C -> 0
    iso2 = isolation_from_certificate(radial_u, hopf_field, 0.36, 0.33, 0.64)
    c2, _ = lemma41_constants(iso2, kind="attractor")
    assert c2 < c_att / 5


def test_lemma41_bound_dominates_escaping_mass(dw_grid, dw_field, dw_iso):
    # exp(-C1 / a1) >= measured mass of the collar around the left well
    c1, band = lemma41_constants(dw_iso)
    u0 = dw_iso.u0
    collar = (u0 >= dw_iso.rho_tilde) & (u0 <= dw_iso.rho_star_hi)
    for eps in (0.05, 0.02):
        a = isotropic_diffusion(dw_grid, eps)
        mu, _ = solve_stationary(assemble(dw_field, a, dw_grid))
        a1 = float(a.frob[band].max())
        bound = np.exp(-c1 / a1)
        assert bound >= float(mu.weights[collar].sum())


@pytest.mark.parametrize("kind", ["attractor", "repeller"])
def test_designed_family_invariants(kind, dw_iso, hopf_iso):
    # the double-well's left attractor and the Hopf origin repeller
    iso = {"attractor": dw_iso, "repeller": hopf_iso}[kind]
    assert iso.kind == kind
    fam = design_family(iso, (0.1, 0.05, 0.02), ratio=10.0)
    s = fam.shaping
    assert s.min() >= 1.0 / 10.0 - 1e-12
    assert s.max() <= 1.0 + 1e-12
    # per-cell isotropy: Frobenius / lambda = sqrt(2) exactly
    for _, a in fam.schedule:
        assert np.allclose(a.frob / a.lam, np.sqrt(2.0))
    assert max(a.normality_ratio() for _, a in fam.schedule) <= fam.schedule.normal_bound
    assert fam.ratio_condition() == pytest.approx(10.0)
    assert fam.meta["grad_cap_on_omega"] < 1.0
    # strong noise on D, weak noise on the guard band D_*, which is the band
    # of the local mass estimate on the same side of rho_tilde
    assert np.allclose(s[fam.region_strong], 1.0, atol=1e-9)
    assert np.allclose(s[fam.region_guard], 0.1, atol=1e-9)
    assert np.array_equal(fam.region_guard, lemma41_constants(iso)[1])
    # the ramp has one end on rho_tilde and lies inside the bracketing levels:
    # above rho_tilde for an attractor, below it for a repeller
    ramp_lo, ramp_hi = fam.meta["ramp"]
    assert iso.rho_star_lo <= ramp_lo < ramp_hi <= iso.rho_star_hi
    assert (ramp_lo if kind == "attractor" else ramp_hi) == iso.rho_tilde


@pytest.mark.parametrize("recipe_of", [("hopf", "attractor"), ("double-well", "repeller")],
                         ids=["hopf-as-attractor", "double-well-as-repeller"])
def test_design_rejects_isolating_data_of_the_other_kind(recipe_of, monkeypatch):
    # file each scenario's recipe under the other target: its certificate
    # still certifies the kind it was made for
    def no_family(*args, **kwargs):
        raise AssertionError("a noise family was built for isolating data of the wrong kind")

    name, target = recipe_of
    other = "repeller" if target == "attractor" else "attractor"
    recipes = {(name, target): scenarios._ISOLATION_RECIPES[(name, other)]}
    monkeypatch.setattr(scenarios, "_ISOLATION_RECIPES", recipes)
    monkeypatch.setattr(design, "_scaled_schedule", no_family)
    g = Grid2D(-2.5, 2.5, -2.5, 2.5, 100, 100)
    scen = make_scenario(name, g)
    with pytest.raises(ConfigError, match=f"certifies {other!r}, not {target!r}"):
        scenarios._design(scen, target, scen.vector_field(g), 10.0, (0.1, 0.05))


def test_designed_family_passes_uniform_lyapunov(dw_grid, dw_field, dw_iso):
    fam = design_family(dw_iso, (0.1, 0.05, 0.02), ratio=10.0)
    xx, yy = dw_grid.centers()
    u = xx**2 + yy**2
    rho_m = 1.5
    gamma = 2 * (rho_m - 1.0) - 4 * max(a.max_norm() for _, a in fam.schedule)
    certs, uniform, _ = verify_uniform_lyapunov(u, dw_field, fam.schedule, rho_m, gamma)
    assert uniform


def test_ratio_below_minimum_rejected(dw_iso):
    with pytest.raises(RatioInfeasibleError):
        design_family(dw_iso, (0.1, 0.05), ratio=1.0)


@pytest.fixture(scope="module")
def hopf_iso(hopf_field, radial_u):
    return isolation_from_certificate(radial_u, hopf_field, 0.36, 0.04, 0.64)


def test_destabilizing_ratio_one_rejected(hopf_iso):
    with pytest.raises(RatioInfeasibleError):
        design_family(hopf_iso, (0.1, 0.05), ratio=1.0)


@pytest.mark.parametrize("ratio", [1.0, 0.5, float("nan"), float("inf")])
@pytest.mark.parametrize("target", ["attractor", "repeller"])
def test_inadmissible_ratio_rejected_before_any_field(target, ratio, dw_iso, hopf_iso,
                                                       monkeypatch):
    def no_family(*args, **kwargs):
        raise AssertionError("a noise family was built for an inadmissible ratio")

    monkeypatch.setattr(design, "_scaled_schedule", no_family)
    iso = dw_iso if target == "attractor" else hopf_iso
    with pytest.raises(RatioInfeasibleError) as exc:
        design_family(iso, (0.1, 0.05), ratio=ratio)
    assert exc.value.requested_ratio is ratio
    # the message is about the ratio itself, not about transition-band widths
    msg = str(exc.value)
    assert "must be finite and > 1" in msg
    assert "transition band" not in msg


def test_steep_shaping_rejected_with_gradient_message(dw_iso, monkeypatch):
    # ratio 1000 at eps 5 makes eps_max * max|grad s| on Omega about 30 > 1;
    # the message names that product and its cap, not a band width
    def no_family(*args, **kwargs):
        raise AssertionError("a noise family was built for an infeasible shaping")

    monkeypatch.setattr(design, "_scaled_schedule", no_family)
    with pytest.raises(RatioInfeasibleError) as exc:
        design_family(dw_iso, (5.0,), ratio=1000.0)
    assert exc.value.requested_ratio == 1000.0
    msg = str(exc.value)
    assert "eps_max * max|grad s| on Omega = 30.19" in msg
    assert "must stay below 1" in msg
    assert "transition band" not in msg


def test_narrow_band_infeasible(dw_grid, dw_field):
    xx, yy = dw_grid.centers()
    u0 = (xx + 1.0) ** 2 + yy**2
    iso = isolation_from_certificate(u0, dw_field, 0.16, 0.13, 0.18)
    with pytest.raises(RatioInfeasibleError):
        design_family(iso, (0.1, 0.05), ratio=10.0)


def test_quadratic_certificate_hopf():
    b = quadratic_certificate(np.array([[1.0, -1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(b, 0.5 * np.eye(2), atol=1e-12)


def test_quadratic_certificate_rejects_stable():
    with pytest.raises(CertificateFailError) as exc:
        quadratic_certificate(np.array([[-0.5, -1.0], [1.0, -0.5]]))
    assert exc.value.condition == "P3"


def test_repelling_verdict_hopf(hopf_grid, hopf_field):
    b_mat = quadratic_certificate(np.array([[1.0, -1.0], [1.0, 1.0]]))
    sched = isotropic_schedule(hopf_grid, (0.1, 0.05))
    measures = [solve_stationary(assemble(hopf_field, a, hopf_grid))[0] for _, a in sched]
    verdict = verify_repelling_equilibrium(
        (0.0, 0.0), hopf_field, b_mat, sched, measures, rho0=0.04, rho_bar=0.32
    )
    # for B = I/2: lambda_U = 1, C2 = 2, lambda/Lambda = 1/sqrt(2)
    assert verdict.exponent == pytest.approx(1.0 / (2 * np.sqrt(2)), rel=1e-12)
    assert verdict.passed
    assert verdict.mass_near[1] < verdict.mass_near[0]


def test_repelling_verdict_fails_p3_for_attracting_origin(hopf_grid):
    v = sample_vector_field(hopf_drift(-0.5), hopf_grid)
    b_mat = 0.5 * np.eye(2)
    sched = isotropic_schedule(hopf_grid, (0.1, 0.05))
    with pytest.raises(CertificateFailError) as exc:
        verify_repelling_equilibrium((0.0, 0.0), v, b_mat, sched, [], 0.04, 0.2)
    assert exc.value.condition == "P3"
