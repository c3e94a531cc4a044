"""Scenario library: OU, Gibbs gradient systems, symmetric double well, and
the stochastic Hopf bifurcation sweep, with per-scenario metrics and
assertion harnesses. The table SCENARIOS holds what is known about each
scenario; _RUN_RECIPES holds what ``fplab run`` does for each run config.

Each runner returns a ScenarioResult embedding the full configuration
(grid, schedule, seeds, shaping ratio, dictionary version), per-eps metric
rows, and named assertion verdicts, so any row is re-derivable from the
result document alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    RHO_MESH,
    ConvergenceReport,
    TestFunctionDictionary,
    angular_w1_to_uniform,
    bl_distance,
    grid_dictionary,
    invariance_residual,
    lyapunov_upper_bound,
    make_dictionary,
)
from .design import (
    design_destabilizing_family,
    design_stabilizing_family,
    isolation_from_certificate,
)
from .dynamics import verify_uniform_lyapunov
from .errors import ConfigError
from .fields import (
    DiscreteMeasure,
    NullFamilySchedule,
    VectorField,
    _scaled_schedule,
    isotropic_schedule,
    normalized_measure,
    sample_vector_field,
)
from .fpe import solve_family
from .grid import Grid2D
from .io import FORMATS

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "make_scenario",
    "build_schedule",
    "hopf_drift",
    "run_hopf_sweep",
    "run_gibbs",
    "run_designed_comparison",
    "run_recipe",
    "haar_on_circle",
    "delta_at",
    "dictionary_for",
]


# ---------------------------------------------------------------------------
# drifts and reference measures

def hopf_drift(b: float):
    def fn(x, y):
        r2 = x**2 + y**2
        return b * x - y - x * r2, x + b * y - y * r2
    return fn


def double_well_potential(x, y):
    return (x**2 - 1.0) ** 2 / 4.0 + y**2 / 2.0


def double_well_drift(x, y):
    return x - x**3, -y


def ou_drift(x, y):
    return -x, -y


def haar_on_circle(grid: Grid2D, radius: float) -> DiscreteMeasure:
    """Uniform (Haar) measure on the circle of given radius: 8192 equally
    spaced angles binned to cells."""
    th = (np.arange(8192) + 0.5) * (2 * np.pi / 8192)
    w = np.zeros((grid.nx, grid.ny))
    i, j = grid.cell_index(radius * np.cos(th), radius * np.sin(th))
    np.add.at(w, (i, j), 1.0)
    mu, _ = normalized_measure(grid, w)
    return mu


def delta_at(grid: Grid2D, point) -> DiscreteMeasure:
    w = np.zeros((grid.nx, grid.ny))
    i, j = grid.cell_index(*point)
    w[int(i), int(j)] = 1.0
    return DiscreteMeasure(grid, w)


# ---------------------------------------------------------------------------
# scenario definitions

def _hopf_limit(p, grid):
    """Haar measure on the cycle r = sqrt(b) for b > 0, else the point mass at the origin."""
    if p["b"] > 0:
        return haar_on_circle(grid, float(np.sqrt(p["b"])))
    return delta_at(grid, (0.0, 0.0))


@dataclass(frozen=True)
class ScenarioSpec:
    """One row of the scenario table. Every scenario is certified with U = x^2 + y^2:
    L_A U <= -gamma on {U > rho_m} for every diffusion with |A| <= amax."""

    drift: object        # params -> drift (x, y) -> (vx, vy)
    defaults: dict       # parameter name -> default value
    box: float           # default domain [-box, box]^2 ...
    n: int               # ... with n x n cells
    limit: object        # (params, grid) -> vanishing-noise limit, None if noise-dependent
    gamma: object        # (params, rho_m, amax) -> gamma


SCENARIOS = {
    # -L_A U = 2U(U-b) - tr(A D2U) >= 2 rho_m (rho_m - b) - 4|A| on {U > rho_m}
    "hopf": ScenarioSpec(
        lambda p: hopf_drift(p["b"]), {"b": 1.0}, 2.5, 256, _hopf_limit,
        lambda p, rho_m, amax: 2.0 * rho_m * (rho_m - p["b"]) - 4.0 * amax),
    "ou2d": ScenarioSpec(
        lambda p: ou_drift, {}, 4.0, 128, lambda p, grid: delta_at(grid, (0.0, 0.0)),
        lambda p, rho_m, amax: 2.0 * rho_m - 4.0 * amax),
    "double-well": ScenarioSpec(
        lambda p: double_well_drift, {}, 2.5, 200, lambda p, grid: None,
        lambda p, rho_m, amax: 2.0 * (rho_m - 1.0) - 4.0 * amax if rho_m > 1 else 0.1),
}


@dataclass(frozen=True)
class Scenario:
    """A scenario of the table with its parameters filled in."""

    name: str
    drift_fn: object
    params: dict
    default_grid: Grid2D

    def vector_field(self, grid: Grid2D) -> VectorField:
        return sample_vector_field(self.drift_fn, grid)

    def certificate_samples(self, grid: Grid2D) -> np.ndarray:
        """U = x^2 + y^2 at the cell centres."""
        xx, yy = grid.centers()
        return xx**2 + yy**2

    def limit_measure(self, grid: Grid2D) -> DiscreteMeasure:
        return SCENARIOS[self.name].limit(self.params, grid)

    def uniform_gamma(self, rho_m: float, amax: float) -> float:
        return SCENARIOS[self.name].gamma(self.params, rho_m, amax)


def _config_float(field: str, value) -> float:
    """float(value); a value float() rejects is a config error naming ``field``."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, f"must be a number, got {value!r}") from exc


def make_scenario(name: str, grid: Grid2D | None = None, /, **params) -> Scenario:
    """Scenario ``name`` of SCENARIOS; keyword values override the table's
    parameter defaults. A key the table has no parameter for, or a
    non-numeric parameter value, is a config error naming ``scenario.<param>``."""
    spec = SCENARIOS.get(name)
    if spec is None:
        raise ConfigError("scenario.name", f"unknown scenario {name!r}")
    for k in params:
        if k not in spec.defaults:
            raise ConfigError(f"scenario.{k}", "unknown parameter; known: "
                              + (", ".join(spec.defaults) or "none"))
    p = {k: _config_float(f"scenario.{k}", params.get(k, v)) for k, v in spec.defaults.items()}
    g = grid or Grid2D(-spec.box, spec.box, -spec.box, spec.box, spec.n, spec.n)
    return Scenario(name, spec.drift(p), p, g)


def _config_scenario(section: dict, grid: Grid2D) -> Scenario:
    """The scenario a run config's scenario section names, with the section's
    other keys as its parameters."""
    params = dict(section)
    return make_scenario(params.pop("name"), grid, **params)


def boundary_taper(grid: Grid2D) -> np.ndarray:
    """Smoothstep profile dropping from 1 in the interior to a floor of 0.05 at
    the truncation boundary, over a tenth of the box half-width; stands in for
    families with A(x) -> 0 at the domain edge (invariance by degeneration
    rather than reflection)."""
    floor = 0.05
    xx, yy = grid.centers()
    dx = np.minimum(xx - grid.x_min, grid.x_max - xx)
    dy = np.minimum(yy - grid.y_min, grid.y_max - yy)
    d = np.minimum(dx, dy)
    m = 0.1 * 0.5 * min(grid.x_max - grid.x_min, grid.y_max - grid.y_min)
    t = np.clip(d / m, 0.0, 1.0)
    t = t * t * (3.0 - 2.0 * t)
    return floor + (1.0 - floor) * t


def build_schedule(
    grid: Grid2D, eps_list, shape: str = "iso", invariance_mode: str = "reflecting"
) -> NullFamilySchedule:
    """Named noise shapes for schedules A_k = eps_k * shape(x).

    "iso": identity; "aniso": diag(1, 0.5); "modulated": the anisotropic shape
    scaled by s(x,y) = 1 + x / (2 (1 + r^2)), a bounded multiplicative profile
    that makes finite-eps angular nonuniformity visible (and vanishing).
    With invariance_mode = "vanishing-at-boundary" every member is tapered to
    a small floor at the truncation boundary.
    """
    if invariance_mode == "vanishing-at-boundary":
        taper = boundary_taper(grid)
    else:
        taper = np.ones((grid.nx, grid.ny))

    if shape == "iso":
        base = (taper, 0.0 * taper, taper)
    elif shape == "aniso":
        base = (taper, 0.0 * taper, 0.5 * taper)
    elif shape == "modulated":
        xx, yy = grid.centers()
        s = (1.0 + 0.5 * xx / (1.0 + xx**2 + yy**2)) * taper
        base = (s, 0.0 * s, 0.5 * s)
    else:
        raise ConfigError("schedule.shape", f"unknown shape {shape!r}")
    return _scaled_schedule(grid, eps_list, base, invariance_mode)


_DEFAULT_DICTIONARY = "hopf-offcycle-v1"  # used wherever a run names no dictionary

# the Hopf sweep's final-eps thresholds, which _hopf_thresholds lets a run config override
_HOPF_THRESHOLDS = {
    "annulus_final": 0.85,
    "origin_final": 0.02,
    "angular_w1_final": 0.05,
    "residual_ratio_final": 0.05,
    "center_final": 0.95,
}


def _hopf_thresholds(overrides: dict | None) -> dict:
    """The Hopf sweep's thresholds with ``overrides`` applied. An unknown key,
    or a value that is not a number in (0, 1), is a config error naming
    ``analysis.thresholds.<key>``; overrides that are not a dict (a JSON
    object) are one naming ``analysis.thresholds``."""
    overrides = overrides or {}
    if not isinstance(overrides, dict):
        raise ConfigError("analysis.thresholds", f"must be a JSON object, got {overrides!r}")
    for k, v in overrides.items():
        if k not in _HOPF_THRESHOLDS:
            raise ConfigError(f"analysis.thresholds.{k}",
                              f"unknown threshold; known: {', '.join(_HOPF_THRESHOLDS)}")
        if not (isinstance(v, (int, float)) and 0.0 < v < 1.0):
            raise ConfigError(f"analysis.thresholds.{k}", "must be a number in (0, 1)")
    return {**_HOPF_THRESHOLDS, **overrides}


def dictionary_for(name: str, grid: Grid2D) -> TestFunctionDictionary:
    """Versioned test-function dictionaries. A grid that cannot hold the
    dictionary's bumps is a configuration error, like an unknown name."""
    try:
        if name == "grid3x3-v1":
            return grid_dictionary(grid, 3, name=name)
        if name == "grid4x4-v1":
            return grid_dictionary(grid, 4, name=name)
        if name == "hopf-offcycle-v1":
            # bumps kept off the unit-cycle annulus: residuals of test functions
            # supported on the limit set decay only linearly in eps, while
            # off-support residuals collapse superlinearly as mass leaves
            bumps = [(0.0, 0.0, 0.45, 0.45)]
            bumps += [(sx * 1.75, sy * 1.75, 0.6, 0.6) for sx in (-1, 1) for sy in (-1, 1)]
            bumps += [(s * 1.9, 0.0, 0.45, 0.45) for s in (-1, 1)]
            bumps += [(0.0, s * 1.9, 0.45, 0.45) for s in (-1, 1)]
            return make_dictionary(grid, bumps, name)
    except ValueError as exc:
        raise ConfigError("analysis.dictionary", f"{name!r} does not fit the grid: {exc}") from exc
    raise ConfigError("analysis.dictionary", f"unknown dictionary {name!r}")


# ---------------------------------------------------------------------------
# results

@dataclass
class ScenarioResult:
    scenario: str
    config: dict
    report: ConvergenceReport
    assertions: list = field(default_factory=list)  # (name, passed, value, threshold)
    errors: list = field(default_factory=list)      # (eps, repr(exception))
    extra: dict = field(default_factory=dict)
    measures: list = field(default_factory=list)    # (eps, DiscreteMeasure); not serialized

    def record(self, name: str, passed: bool, value, threshold):
        self.assertions.append((name, bool(passed), float(value), float(threshold)))

    @property
    def all_passed(self) -> bool:
        return all(p for _, p, _, _ in self.assertions) and not self.errors

    def to_document(self) -> dict:
        return {
            "format": FORMATS["scenario_result"],
            "scenario": self.scenario,
            "config": self.config,
            "eps": list(self.report.eps),
            "metrics": self.report.rows,
            "assertions": [
                {"name": n, "passed": p, "value": v, "threshold": t}
                for n, p, v, t in self.assertions
            ],
            "errors": [{"eps": e, "error": msg} for e, msg in self.errors],
            "extra": self.extra,
        }


def _strictly(series, direction):
    s = list(series)
    if direction == "increasing":
        return all(b > a for a, b in zip(s, s[1:]))
    return all(b < a for a, b in zip(s, s[1:]))


# ---------------------------------------------------------------------------
# runners

def run_hopf_sweep(
    b: float,
    schedule: NullFamilySchedule,
    grid: Grid2D,
    dictionary: TestFunctionDictionary | None = None,
    thresholds: dict | None = None,
    rho_mesh: int = RHO_MESH,
) -> ScenarioResult:
    """Solve the Hopf family and evaluate the vanishing-noise metrics.

    Metrics per eps: origin-ball and annulus masses, angular-marginal W1 to
    uniform, BL distance to the reference limit measure (Haar on the cycle
    for b > 0, point mass at the origin otherwise), invariance residual, and
    the exponential exterior-mass bound check with U = x^2 + y^2.
    """
    th = _hopf_thresholds(thresholds)
    scen = make_scenario("hopf", grid, b=b)
    v = scen.vector_field(grid)
    xx, yy = grid.centers()
    r = np.hypot(xx, yy)
    u_cert = scen.certificate_samples(grid)
    dictionary = dictionary or dictionary_for(_DEFAULT_DICTIONARY, grid)

    sqrt_b = float(np.sqrt(b)) if b > 0 else 0.0
    annulus = np.abs(r - sqrt_b) < 0.15
    origin_ball = r < 0.3 * max(sqrt_b, 1.0)
    center_ball = r < 0.2
    reference = scen.limit_measure(grid)

    # operator-family certificate for the exterior bound: L_A U <= -gamma
    # outside rho_m; gamma from the largest member (see Hopf drift identity
    # V.grad U = 2U(b - U))
    rho_m = max(1.5 * b, 1.0)
    amax = max(A.max_norm() for _, A in schedule)
    gamma = scen.uniform_gamma(rho_m, amax)
    certs, uniform_ok, _ = verify_uniform_lyapunov(u_cert, v, schedule, rho_m, gamma)

    results = solve_family(v, schedule, grid)
    report = ConvergenceReport()
    out = ScenarioResult(
        scenario="hopf",
        config={
            "b": b,
            "grid": grid.metadata(),
            "eps": list(schedule.eps),
            "invariance_mode": schedule.invariance_mode,
            "dictionary": dictionary.name,
            "rho_mesh": rho_mesh,
            "thresholds": th,
            "rho_m": rho_m,
            "gamma": gamma,
        },
        report=report,
    )
    out.extra["uniform_lyapunov_pass"] = bool(uniform_ok)
    for (eps, mu, rep), cert, (_, a_member) in zip(results, certs, schedule):
        if mu is None:
            out.errors.append((eps, repr(rep)))
            continue
        out.measures.append((eps, mu))
        res = invariance_residual(mu, v, dictionary)
        blr = bl_distance(mu, reference, dictionary)
        bound_ok = 1.0
        bound_margin = np.inf
        if cert.passed:
            for rho in np.linspace(rho_m + 0.25, min(4.0, cert.rho_M - 0.5), 5):
                bnd = lyapunov_upper_bound(cert, a_member, float(rho), rho_mesh)
                ext = 1.0 - float(mu.weights[u_cert < rho].sum())
                bound_margin = min(bound_margin, bnd.value - ext)
                if bnd.value < ext:
                    bound_ok = 0.0
        report.add(
            eps,
            mass_annulus=float(mu.weights[annulus].sum()),
            mass_origin_ball=float(mu.weights[origin_ball].sum()),
            mass_center=float(mu.weights[center_ball].sum()),
            angular_w1=angular_w1_to_uniform(mu),
            residual_max=res.max,
            bl_to_reference=blr.value,
            radial_w1_to_reference=blr.radial_w1,
            exterior_bound_ok=bound_ok,
            exterior_bound_margin=float(bound_margin),
            solve_residual=rep.residual,
            min_weight=rep.min_weight,
        )

    if len(report.eps) >= 2:
        if b > 0:
            ann = report.series("mass_annulus")
            org = report.series("mass_origin_ball")
            aw1 = report.series("angular_w1")
            resid = report.series("residual_max")
            out.record("annulus_mass_increasing", _strictly(ann, "increasing"), ann[-1], ann[0])
            out.record("annulus_mass_final", ann[-1] >= th["annulus_final"], ann[-1], th["annulus_final"])
            out.record("origin_mass_decreasing", _strictly(org, "decreasing"), org[-1], org[0])
            out.record("origin_mass_final", org[-1] <= th["origin_final"], org[-1], th["origin_final"])
            out.record("angular_w1_decreasing", _strictly(aw1, "decreasing"), aw1[-1], aw1[0])
            out.record("angular_w1_final", aw1[-1] <= th["angular_w1_final"], aw1[-1], th["angular_w1_final"])
            out.record(
                "residual_ratio_final",
                resid[-1] <= th["residual_ratio_final"] * resid[0],
                resid[-1] / max(resid[0], 1e-300),
                th["residual_ratio_final"],
            )
            bl = report.series("bl_to_reference")
            out.record("bl_to_haar_decreasing", _strictly(bl, "decreasing"), bl[-1], bl[0])
        else:
            ctr = report.series("mass_center")
            out.record("center_mass_increasing", _strictly(ctr, "increasing"), ctr[-1], ctr[0])
            out.record("center_mass_final", ctr[-1] >= th["center_final"], ctr[-1], th["center_final"])
        out.record(
            "exterior_bound_all_ok",
            bool(np.all(report.series("exterior_bound_ok") > 0)),
            float(report.series("exterior_bound_margin").min()),
            0.0,
        )
    return out


def run_gibbs(
    phi_fn,
    schedule: NullFamilySchedule,
    grid: Grid2D,
) -> ScenarioResult:
    """Gradient-drift oracle runs: V = -grad(Phi) with A = eps I has the exact
    stationary density exp(-Phi/eps); reports per-eps L1 errors."""
    xx, yy = grid.centers()
    phi = phi_fn(xx, yy)
    v = sample_vector_field(lambda x, y: _neg_grad(phi_fn, x, y), grid)

    results = solve_family(v, schedule, grid)
    report = ConvergenceReport()
    out = ScenarioResult(
        scenario="gibbs",
        config={"grid": grid.metadata(), "eps": list(schedule.eps),
                "invariance_mode": schedule.invariance_mode},
        report=report,
    )
    for eps, mu, rep in results:
        if mu is None:
            out.errors.append((eps, repr(rep)))
            continue
        out.measures.append((eps, mu))
        ref = np.exp(-(phi - phi.min()) / eps)
        ref /= ref.sum()
        l1 = float(np.abs(mu.weights - ref).sum())
        report.add(
            eps,
            l1_error=l1,
            solve_residual=rep.residual,
            min_weight=rep.min_weight,
            left_mass=float(mu.weights[xx < 0].sum()),
        )
    return out


def _neg_grad(phi_fn, x, y):
    h = 1e-6
    px = (phi_fn(x + h, y) - phi_fn(x - h, y)) / (2 * h)
    py = (phi_fn(x, y + h) - phi_fn(x, y - h)) / (2 * h)
    return -px, -py


@dataclass(frozen=True)
class _IsolationRecipe:
    u0: object          # certificate (x, y) -> U0 samples
    levels: tuple       # default (rho_tilde, rho_star_lo, rho_star_hi)
    region: object      # (x, y) -> mask of the cells whose mass the designed
    region_name: str    # noise raises (attractor) or drains (repeller)


_ISOLATION_RECIPES = {
    ("double-well", "attractor"): _IsolationRecipe(
        lambda x, y: (x + 1.0) ** 2 + y**2, (0.16, 0.09, 0.45), lambda x, y: x < 0.0, "left_basin"),
    ("hopf", "repeller"): _IsolationRecipe(
        lambda x, y: x**2 + y**2, (0.36, 0.04, 0.64), lambda x, y: np.hypot(x, y) < 0.3,
        "repeller_ball"),
}


def _design(scenario: Scenario, target: str, v: VectorField, ratio: float, eps_list):
    """(recipe, isolation, family) for a scenario/target pair of
    _ISOLATION_RECIPES: a stabilizing family for 'attractor', a destabilizing
    one for 'repeller'."""
    recipe = _ISOLATION_RECIPES.get((scenario.name, target))
    if recipe is None:
        raise ConfigError("scenario", f"no isolating data recipe for {scenario.name}/{target}")
    iso = isolation_from_certificate(recipe.u0(*v.grid.centers()), v, *recipe.levels)
    design = design_stabilizing_family if target == "attractor" else design_destabilizing_family
    return recipe, iso, design(iso, eps_list, ratio)


def run_designed_comparison(
    scenario: Scenario,
    target: str,
    ratio: float,
    eps_list,
    grid: Grid2D,
) -> ScenarioResult:
    """Paired designed-vs-uniform solves for noise stabilization (target =
    'attractor') or destabilization ('repeller') on a scenario admitting
    isolating data. The isotropic schedule solved alongside is the
    no-shaping control; `ratio` must be finite and > 1."""
    v = scenario.vector_field(grid)
    recipe, iso, designed = _design(scenario, target, v, ratio, eps_list)
    region = recipe.region(*grid.centers())

    # every designed member must carry the global uniform certificate
    u_glob = scenario.certificate_samples(grid)
    amax = max(A.max_norm() for _, A in designed.schedule)
    rho_m = 1.5
    gamma_glob = scenario.uniform_gamma(rho_m, amax)
    certs, uniform_ok, _ = verify_uniform_lyapunov(
        u_glob, v, designed.schedule, rho_m, gamma_glob
    )

    uniform = isotropic_schedule(grid, eps_list)
    res_designed = solve_family(v, designed.schedule, grid)
    res_uniform = solve_family(v, uniform, grid)

    report = ConvergenceReport()
    out = ScenarioResult(
        scenario=f"{scenario.name}-designed-{target}",
        config={
            "grid": grid.metadata(),
            "eps": list(eps_list),
            "ratio": ratio,
            "iso": {"rho_tilde": iso.rho_tilde, "rho_star_lo": iso.rho_star_lo,
                    "rho_star_hi": iso.rho_star_hi},
            "gamma0": iso.gamma0,
            "region": recipe.region_name,
            "rho_m": rho_m,
            "gamma": gamma_glob,
        },
        report=report,
    )
    out.extra["uniform_lyapunov_pass"] = bool(uniform_ok)
    out.extra["ratio_condition"] = designed.ratio_condition()
    out.extra["shaping_meta"] = {
        k: (list(map(float, val)) if isinstance(val, tuple) else float(val))
        for k, val in designed.meta.items()
    }

    dominance = []
    for (eps, mu_d, rep_d), (_, mu_u, rep_u) in zip(res_designed, res_uniform):
        if mu_d is None or mu_u is None:
            out.errors.append((eps, repr(rep_d if mu_d is None else rep_u)))
            continue
        md = float(mu_d.weights[region].sum())
        mu_ = float(mu_u.weights[region].sum())
        dominance.append(md > mu_ if target == "attractor" else md < mu_)
        report.add(eps, designed_mass=md, uniform_mass=mu_)
    if dominance:
        final_d = report.series("designed_mass")[-1]
        final_u = report.series("uniform_mass")[-1]
        if target == "attractor":
            out.record("designed_final_mass", final_d >= 0.9, final_d, 0.9)
            out.record("uniform_symmetric_split", abs(final_u - 0.5) <= 0.02, final_u, 0.5)
        else:
            out.record("designed_final_mass", final_d <= 0.01, final_d, 0.01)
        out.record("dominance_every_eps", all(dominance), float(sum(dominance)), float(len(dominance)))
    return out


# ---------------------------------------------------------------------------
# run recipes: what `fplab run` does for each scenario name of a run config

def _run_hopf(scenario, grid, eps, schedule, analysis):
    b = _config_scenario(scenario, grid).params["b"]
    sched = build_schedule(grid, eps, schedule.get("shape", "modulated"),
                           schedule.get("invariance_mode", "reflecting"))
    dic = dictionary_for(analysis.get("dictionary", _DEFAULT_DICTIONARY), grid)
    return run_hopf_sweep(b, sched, grid, dic, thresholds=analysis.get("thresholds"),
                          rho_mesh=analysis.get("rho_mesh", RHO_MESH))


def _run_double_well(scenario, grid, eps, schedule, analysis):
    sched = build_schedule(grid, eps, schedule.get("shape", "iso"),
                           schedule.get("invariance_mode", "reflecting"))
    return run_gibbs(double_well_potential, sched, grid)


def _run_double_well_designed(scenario, grid, eps, schedule, analysis):
    return run_designed_comparison(make_scenario("double-well", grid), "attractor",
                                   _config_float("scenario.ratio", scenario.get("ratio", 10.0)),
                                   eps, grid)


# runners look build_schedule, dictionary_for and run_hopf_sweep up by module-level
# name at each call, so wrappers rebound to those names (tracing) see every call
_RUN_RECIPES = {
    "hopf": _run_hopf,
    "double-well": _run_double_well,
    "double-well-designed": _run_double_well_designed,
}


def run_recipe(scenario: dict, grid: Grid2D, eps, schedule: dict, analysis: dict) -> ScenarioResult:
    """Run the recipe a run config's scenario section names, on its grid and eps."""
    recipe = _RUN_RECIPES.get(scenario["name"])
    if recipe is None:
        raise ConfigError("scenario.name", f"no run recipe for scenario {scenario['name']!r}")
    return recipe(scenario, grid, eps, schedule, analysis)
