"""Scenario library: OU, Gibbs gradient systems, symmetric double well, and
the stochastic Hopf bifurcation sweep, with per-scenario metrics and
assertion harnesses. The table SCENARIOS holds what is known about each
scenario; _RUN_RECIPES holds what ``fplab run`` does for each run config and
the {key: default} table of each section it reads. RunConfig.from_dict checks a
run config against it once and builds what every run of it reads: its grid, the
scenario it solves and its test-function dictionary. NaN, Infinity, a bool or a
string where a number is due, or a dictionary that does not fit the grid, is a
config error.

Each recipe names an analysis of the resolved RunConfig and its drift field, the tuple
(families, result, metrics, verdicts): {document prefix: schedule}, "measure" first; a
ScenarioResult with the run's config and extra but no member; metrics(eps, *mus), the
{metric: value} of a member that its measures, one per family, give; and verdicts(result),
which records the named assertions. _recorded, the one run loop, adds the first family's
_SOLVE_KEYS to each row; ``fplab verify`` calls the same analysis on the stored measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (
    RHO_MESH,
    TestFunctionDictionary,
    angular_w1_to_uniform,
    bl_distance,
    grid_dictionary,
    invariance_residual,
    lyapunov_upper_bound,
    make_dictionary,
)
from .design import _smoothstep, design_family, isolation_from_certificate
from .dynamics import verify_uniform_lyapunov
from .errors import ConfigError
from .fields import (
    DiscreteMeasure,
    NullFamilySchedule,
    VectorField,
    _scaled_schedule,
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
    "RunConfig",
    "make_scenario",
    "build_schedule",
    "hopf_drift",
    "run_hopf_sweep",
    "run_designed_comparison",
    "SHAPES",
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

    def uniform_certificates(self, v: VectorField, schedule: NullFamilySchedule, rho_m: float):
        """(gamma, member certificates, all passed) of U = x^2 + y^2 on ``schedule``, with
        gamma from the table's row for rho_m and the largest member |A|."""
        amax = max(A.max_norm() for _, A in schedule)
        gamma = SCENARIOS[self.name].gamma(self.params, rho_m, amax)
        certs, passed = verify_uniform_lyapunov(self.certificate_samples(v.grid), v,
                                                schedule, rho_m, gamma)
        return gamma, certs, passed


def _number(field: str, value) -> float:
    """``value`` as a float if it is a finite number, not a bool or a numeric
    string: a JSON config writes numbers as numbers, and the CLI converts flags."""
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)) \
            and abs(value) <= np.finfo(float).max:
        return float(value)
    raise ConfigError(field, f"must be a finite number, got {value!r}")


def _config_int(field: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """A config value that must be a JSON integer (not a bool), in [lo, hi)
    as far as those bounds are given."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (lo is not None and value < lo) or (hi is not None and value >= hi)):
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi})"
        raise ConfigError(field, f"must be an integer{bounds}, got {value!r}")
    return value


def _eps_labels(values) -> tuple:
    """Noise labels as floats, from a strictly decreasing JSON list of positive numbers."""
    eps = tuple(_number("schedule.eps", e) for e in values) if isinstance(values, list) else ()
    if not eps or eps[-1] <= 0.0 or any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ConfigError("schedule.eps", f"must be a decreasing JSON list of positive numbers, got {values!r}")
    return eps


def _known(prefix: str, section: dict, known) -> None:
    """Refuse a key of ``section`` not in ``known``, naming ``prefix + key``."""
    for key in section:
        if key not in known:
            raise ConfigError(prefix + key, "unknown key; known: " + (", ".join(known) or "none"))


def _checked(field: str, value, default):
    """``value`` checked by the kind ``default`` is or has: float, int (>= 2), threshold
    map, or None (eps). A name (str) is checked by RunConfig.from_dict: the dictionary
    where it is built, a schedule shape or mode by _check_schedule_names."""
    kind = default if isinstance(default, type) else type(default)
    if default is None:
        return _eps_labels(value)
    if kind is float:
        return _number(field, value)
    if kind is int:
        return _config_int(field, value, 2)
    if kind is dict:
        return _thresholds(value, default)
    return value


def _resolved(section: str, raw: dict, table: dict) -> dict:
    """Every key of ``table`` ({key: default}) with the checked value that
    ``raw``, a config section, gives it, or else its default. A kind (float,
    int) in place of a default makes the key required."""
    _known(f"{section}.", raw, table)
    for k, d in table.items():
        if isinstance(d, type) and k not in raw:
            raise ConfigError(f"{section}.{k}", f"missing {section} field")
    return {k: _checked(f"{section}.{k}", raw.get(k, d), d) for k, d in table.items()}


_GRID = {"x_min": float, "x_max": float, "y_min": float, "y_max": float, "nx": int, "ny": int}


def _config_grid(raw: dict) -> Grid2D:
    """The Grid2D of a grid section (_GRID: no defaults), of a run config or of the
    domain flags; a value it refuses is a config error."""
    bounds = _resolved("grid", raw, _GRID)
    try:
        return Grid2D(**bounds)
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from exc


def make_scenario(name: str, grid: Grid2D | None = None, /, **params) -> Scenario:
    """Scenario ``name`` of SCENARIOS; keyword values override the table's
    parameter defaults. A key the table has no parameter for, or a value that
    is not a finite number, is a config error naming ``scenario.<param>``."""
    spec = SCENARIOS.get(name)
    if spec is None:
        raise ConfigError("scenario.name", f"unknown scenario {name!r}")
    p = _resolved("scenario", params, spec.defaults)
    g = grid or Grid2D(-spec.box, spec.box, -spec.box, spec.box, spec.n, spec.n)
    return Scenario(name, spec.drift(p), p, g)


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
    return floor + (1.0 - floor) * _smoothstep(d / m)


# schedule shape name -> (profile s(x, y) or None, a22): A = eps * s * diag(1, a22)
SHAPES = {
    "iso": (None, 1.0),
    "aniso": (None, 0.5),
    "modulated": (lambda x, y: 1.0 + 0.5 * x / (1.0 + x**2 + y**2), 0.5),
}


def _check_schedule_names(shape: str = "iso", invariance_mode: str = "reflecting") -> None:
    """Refuse a schedule shape not in SHAPES or an invariance mode that is
    neither "reflecting" nor "vanishing-at-boundary"; the defaults are
    build_schedule's."""
    if invariance_mode not in ("reflecting", "vanishing-at-boundary"):
        raise ConfigError("schedule.invariance_mode", f"unknown invariance mode {invariance_mode!r}")
    if not (isinstance(shape, str) and shape in SHAPES):
        raise ConfigError("schedule.shape", f"unknown shape {shape!r}")


def build_schedule(
    grid: Grid2D, eps, shape: str = "iso", invariance_mode: str = "reflecting"
) -> NullFamilySchedule:
    """Named noise shapes for schedules A_k = eps_k * shape(x).

    "iso": identity; "aniso": diag(1, 0.5); "modulated": the anisotropic shape
    scaled by s(x,y) = 1 + x / (2 (1 + r^2)), a bounded multiplicative profile
    that makes finite-eps angular nonuniformity visible (and vanishing).
    With invariance_mode = "vanishing-at-boundary" every member is tapered to
    a small floor at the truncation boundary.
    """
    _check_schedule_names(shape, invariance_mode)
    if invariance_mode == "vanishing-at-boundary":
        taper = boundary_taper(grid)
    else:
        taper = np.ones((grid.nx, grid.ny))
    profile, a22 = SHAPES[shape]
    s = taper if profile is None else profile(*grid.centers()) * taper
    return _scaled_schedule(grid, eps, (s, 0.0 * s, a22 * s), invariance_mode)


_DEFAULT_DICTIONARY = "hopf-offcycle-v1"  # used wherever a run names no dictionary

# the Hopf sweep's final-eps thresholds, which a run config may override
_HOPF_THRESHOLDS = {
    "annulus_final": 0.85,
    "origin_final": 0.02,
    "angular_w1_final": 0.05,
    "residual_ratio_final": 0.05,
    "center_final": 0.95,
}


def _thresholds(overrides: dict, defaults: dict) -> dict:
    """``defaults`` with ``overrides``, a JSON object of numbers in (0, 1) over
    their keys, applied; else a config error naming the first bad field."""
    if not isinstance(overrides, dict):
        raise ConfigError("analysis.thresholds", f"must be a JSON object, got {overrides!r}")
    _known("analysis.thresholds.", overrides, defaults)
    for k, v in overrides.items():
        if not (isinstance(v, (int, float)) and 0.0 < v < 1.0):
            raise ConfigError(f"analysis.thresholds.{k}", "must be a number in (0, 1)")
    return {**defaults, **overrides}


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
    """A run: one record (eps, {prefix: measure of each family}, {metric: value}) per solved
    member, in schedule order; to_document keeps each eps and metric row, not the measures."""

    scenario: str
    config: dict
    members: list = field(default_factory=list)     # (eps, {prefix: DiscreteMeasure}, {metric: value})
    assertions: list = field(default_factory=list)  # (name, passed, value, threshold)
    errors: list = field(default_factory=list)      # (eps, repr(exception))
    extra: dict = field(default_factory=dict)

    def add(self, eps: float, measures: dict, **metrics):
        self.members.append((float(eps), measures, {k: float(v) for k, v in metrics.items()}))

    def series(self, key: str) -> np.ndarray:
        """Metric ``key`` of every member, in schedule order."""
        return np.asarray([row[key] for _, _, row in self.members])

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
            "eps": [e for e, _, _ in self.members],
            "metrics": [row for _, _, row in self.members],
            "assertions": [
                {"name": n, "passed": p, "value": v, "threshold": t}
                for n, p, v, t in self.assertions
            ],
            "errors": [{"eps": e, "error": msg} for e, msg in self.errors],
            "extra": self.extra,
        }


# ---------------------------------------------------------------------------
# analyses and runners

def _recorded(v: VectorField, analyze, *args) -> ScenarioResult:
    """The run of ``analyze(*args, v)`` on the drift v: each member, solved in every family,
    recorded with its metrics and first solve report, or its first error; then the verdicts."""
    families, out, metrics, verdicts = analyze(*args, v)
    for solves in zip(*(solve_family(v, schedule, v.grid) for schedule in families.values())):
        (eps, _, rep), mus = solves[0], [mu for _, mu, _ in solves]
        failed = [r for _, mu, r in solves if mu is None]
        if failed:
            out.errors.append((eps, repr(failed[0])))
        else:
            out.add(eps, dict(zip(families, mus)), **metrics(eps, *mus),
                    solve_residual=rep.residual, min_weight=rep.min_weight)
    verdicts(out)
    return out


def run_hopf_sweep(cfg: RunConfig) -> ScenarioResult:
    """The Hopf sweep of the run ``cfg``. The "hopf" recipe calls it by its module-level
    name, so a wrapper rebound to that name (tracing) sees every run, schedule included."""
    return _recorded(cfg.solved.vector_field(cfg.domain), _hopf_analysis, cfg)


def _hopf_analysis(cfg: RunConfig, v: VectorField) -> tuple:
    """The Hopf family of the run ``cfg`` and its vanishing-noise metrics.

    Metrics per eps: origin-ball and annulus masses, angular-marginal W1 to
    uniform, BL distance to the reference limit measure (Haar on the cycle
    for b > 0, point mass at the origin otherwise), invariance residual, and
    the exponential exterior-mass bound check with U = x^2 + y^2. The run's
    grid, scenario and dictionary are the ones RunConfig.from_dict built, and
    its thresholds hold every final-eps threshold of _HOPF_THRESHOLDS."""
    grid, scen, dictionary, run = cfg.domain, cfg.solved, cfg.dictionary, cfg.resolved
    b, thresholds, rho_mesh = run.params["b"], run.analysis["thresholds"], run.analysis["rho_mesh"]
    schedule = build_schedule(grid, **run.schedule)
    xx, yy = grid.centers()
    r = np.hypot(xx, yy)

    sqrt_b = float(np.sqrt(b)) if b > 0 else 0.0
    annulus = np.abs(r - sqrt_b) < 0.15
    origin_ball = r < 0.3 * max(sqrt_b, 1.0)
    center_ball = r < 0.2
    reference = scen.limit_measure(grid)

    # operator-family certificate for the exterior bound: L_A U <= -gamma
    # outside rho_m; gamma from the largest member (see Hopf drift identity
    # V.grad U = 2U(b - U))
    rho_m = max(1.5 * b, 1.0)
    gamma, certs, uniform_ok = scen.uniform_certificates(v, schedule, rho_m)
    by_eps = {eps: (cert, a) for (eps, a), cert in zip(schedule, certs)}

    out = ScenarioResult(
        scenario="hopf",
        config={
            "b": b,
            "grid": grid.metadata(),
            "eps": list(schedule.eps),
            "invariance_mode": schedule.invariance_mode,
            "dictionary": dictionary.name,
            "rho_mesh": rho_mesh,
            "thresholds": thresholds,
            "rho_m": rho_m,
            "gamma": gamma,
        },
        extra={"uniform_lyapunov_pass": bool(uniform_ok)},
    )

    def metrics(eps, mu):
        cert, a_member = by_eps[eps]
        blr = bl_distance(mu, reference, dictionary)
        # levels from rho_m + 0.25 up to 4; a member with no certificate or no such
        # level (b > 2.5 on the default box) fails closed
        lo, hi = rho_m + 0.25, min(4.0, cert.rho_M - 0.5)
        levels = np.linspace(lo, hi, 5) if cert.passed and lo <= hi else ()
        # bound on the mass outside {U < rho} minus that mass
        margins = [lyapunov_upper_bound(cert, a_member, float(rho), rho_mesh).value
                   - (1.0 - float(mu.weights[cert.u < rho].sum())) for rho in levels]
        return dict(
            mass_annulus=float(mu.weights[annulus].sum()),
            mass_origin_ball=float(mu.weights[origin_ball].sum()),
            mass_center=float(mu.weights[center_ball].sum()),
            angular_w1=angular_w1_to_uniform(mu),
            residual_max=invariance_residual(mu, v, dictionary).max(),
            bl_to_reference=blr.value,
            radial_w1_to_reference=blr.radial_w1,
            exterior_bound_ok=bool(margins) and min(margins) >= 0.0,
            exterior_bound_margin=min(margins, default=np.inf),
        )

    def verdicts(out):
        if len(out.members) >= 2:
            if b > 0:
                ann = out.series("mass_annulus")
                org = out.series("mass_origin_ball")
                aw1 = out.series("angular_w1")
                resid = out.series("residual_max")
                out.record("annulus_mass_increasing", np.all(np.diff(ann) > 0), ann[-1], ann[0])
                out.record("annulus_mass_final", ann[-1] >= thresholds["annulus_final"], ann[-1],
                           thresholds["annulus_final"])
                out.record("origin_mass_decreasing", np.all(np.diff(org) < 0), org[-1], org[0])
                out.record("origin_mass_final", org[-1] <= thresholds["origin_final"], org[-1],
                           thresholds["origin_final"])
                out.record("angular_w1_decreasing", np.all(np.diff(aw1) < 0), aw1[-1], aw1[0])
                out.record("angular_w1_final", aw1[-1] <= thresholds["angular_w1_final"], aw1[-1],
                           thresholds["angular_w1_final"])
                out.record(
                    "residual_ratio_final",
                    resid[-1] <= thresholds["residual_ratio_final"] * resid[0],
                    resid[-1] / max(resid[0], 1e-300),
                    thresholds["residual_ratio_final"],
                )
                bl = out.series("bl_to_reference")
                out.record("bl_to_haar_decreasing", np.all(np.diff(bl) < 0), bl[-1], bl[0])
            else:
                ctr = out.series("mass_center")
                out.record("center_mass_increasing", np.all(np.diff(ctr) > 0), ctr[-1], ctr[0])
                out.record("center_mass_final", ctr[-1] >= thresholds["center_final"], ctr[-1],
                           thresholds["center_final"])
            out.record(
                "exterior_bound_all_ok",
                bool(np.all(out.series("exterior_bound_ok") > 0)),
                float(out.series("exterior_bound_margin").min()),
                0.0,
            )

    return {"measure": schedule}, out, metrics, verdicts


def _gibbs_analysis(cfg: RunConfig, v: VectorField) -> tuple:
    """Gradient-drift oracle of the double well ``cfg`` solves: its drift
    -grad(Phi) with A = eps I has the exact stationary density exp(-Phi/eps),
    Phi = double_well_potential; reports per-eps L1 errors."""
    grid = cfg.domain
    schedule = build_schedule(grid, **cfg.resolved.schedule)
    xx, yy = grid.centers()
    phi = double_well_potential(xx, yy)

    def metrics(eps, mu):
        ref = np.exp(-(phi - phi.min()) / eps)
        ref /= ref.sum()
        return dict(l1_error=float(np.abs(mu.weights - ref).sum()),
                    left_mass=float(mu.weights[xx < 0].sum()))

    out = ScenarioResult("gibbs", {"grid": grid.metadata(), "eps": list(schedule.eps),
                                   "invariance_mode": schedule.invariance_mode})
    return {"measure": schedule}, out, metrics, lambda out: None


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
    _ISOLATION_RECIPES: design_family stabilizes an attractor and destabilizes
    a repeller. Isolating data that the grid does not hold, or that certifies
    the other kind than ``target``, is a config error naming ``scenario``,
    raised before any field is built."""
    recipe = _ISOLATION_RECIPES.get((scenario.name, target))
    if recipe is None:
        raise ConfigError("scenario", f"no isolating data recipe for {scenario.name}/{target}")
    try:
        iso = isolation_from_certificate(recipe.u0(*v.grid.centers()), v, *recipe.levels)
    except ValueError as exc:
        raise ConfigError("scenario", f"no isolating data for {scenario.name}/{target} "
                                      f"on this grid: {exc}") from exc
    if iso.kind != target:
        raise ConfigError("scenario", f"isolating data for {scenario.name}/{target} certifies "
                                      f"{iso.kind!r}, not {target!r}")
    return recipe, iso, design_family(iso, eps_list, ratio)


def _designed_analysis(scenario: Scenario, target: str, ratio: float, eps_list,
                       v: VectorField) -> tuple:
    """The designed family of a scenario/target pair (_design) and its isotropic "control".
    A member's designed_mass and uniform_mass are the masses of its designed and control
    measures on the recipe's region; the verdicts compare them."""
    recipe, iso, designed = _design(scenario, target, v, ratio, eps_list)
    region = recipe.region(*v.grid.centers())

    # every designed member must carry the global uniform certificate
    rho_m = 1.5
    gamma_glob, _, uniform_ok = scenario.uniform_certificates(v, designed.schedule, rho_m)
    out = ScenarioResult(
        scenario=f"{scenario.name}-designed-{target}",
        config={
            "grid": v.grid.metadata(),
            "eps": list(eps_list),
            "ratio": ratio,
            "iso": {"rho_tilde": iso.rho_tilde, "rho_star_lo": iso.rho_star_lo,
                    "rho_star_hi": iso.rho_star_hi},
            "gamma0": iso.gamma0,
            "region": recipe.region_name,
            "rho_m": rho_m,
            "gamma": gamma_glob,
        },
        extra={"uniform_lyapunov_pass": bool(uniform_ok),
               "ratio_condition": designed.ratio_condition(), "shaping_meta": designed.meta},
    )

    def verdicts(out):
        if out.members:
            md, mu_ = out.series("designed_mass"), out.series("uniform_mass")
            dominance = md > mu_ if target == "attractor" else md < mu_
            if target == "attractor":
                out.record("designed_final_mass", md[-1] >= 0.9, md[-1], 0.9)
                out.record("uniform_symmetric_split", abs(mu_[-1] - 0.5) <= 0.02, mu_[-1], 0.5)
            else:
                out.record("designed_final_mass", md[-1] <= 0.01, md[-1], 0.01)
            out.record("dominance_every_eps", dominance.all(), dominance.sum(), len(dominance))

    def metrics(eps, mu, control):
        return {"designed_mass": mu.weights[region].sum(), "uniform_mass": control.weights[region].sum()}

    families = {"measure": designed.schedule, "control": build_schedule(v.grid, eps_list, "iso")}
    return families, out, metrics, verdicts


def run_designed_comparison(scenario: Scenario, target: str, ratio: float, eps_list,
                            grid: Grid2D) -> ScenarioResult:
    """Paired designed-vs-uniform solves for noise stabilization (target =
    'attractor') or destabilization ('repeller') on a scenario admitting
    isolating data, by the one run loop. The isotropic "control" solved beside
    each designed "measure" is the no-shaping control; `ratio` must be finite and > 1."""
    return _recorded(scenario.vector_field(grid), _designed_analysis, scenario, target, ratio, eps_list)


# ---------------------------------------------------------------------------
# run recipes: what `fplab run` does for each scenario name of a run config

def _attractor(cfg: RunConfig) -> tuple:
    """The scenario, target, ratio and noise labels of a double-well-designed run."""
    return cfg.solved, "attractor", cfg.resolved.params["ratio"], cfg.resolved.schedule["eps"]


@dataclass(frozen=True)
class _RunRecipe:
    """What ``fplab run`` does for one scenario name, and the {key: default} table of
    the keys each config section may hold; RunConfig.from_dict puts a config's values in."""

    run: object             # RunConfig -> ScenarioResult
    analyze: object         # (RunConfig, drift field) -> analysis; `fplab verify` calls it too
    scenario: str           # the SCENARIOS row whose drift the run solves
    params: dict            # scenario keys besides "name": the row's parameters first
    schedule: dict          # its "eps" has no default: a run names its noise labels
    analysis: dict


_ANALYSIS = {"dictionary": _DEFAULT_DICTIONARY}  # on every run: `fplab verify` reads it
_NAMED_SCHEDULE = {"eps": None, "shape": "modulated", "invariance_mode": "reflecting"}
_SOLVE_KEYS = ("solve_residual", "min_weight")  # member metrics of a solve report, not a measure

# The recipes bind their runners late: each lambda looks its runner up by module-level
# name at each run, as from_dict and the runners look dictionary_for and build_schedule
# up, so a wrapper rebound to one of those names (tracing) sees every call. A function
# object stored in a recipe, as each analysis is, would keep running the unwrapped one.
_RUN_RECIPES = {
    "hopf": _RunRecipe(lambda cfg: run_hopf_sweep(cfg), _hopf_analysis, "hopf",
                       SCENARIOS["hopf"].defaults, _NAMED_SCHEDULE,
                       {**_ANALYSIS, "thresholds": _HOPF_THRESHOLDS, "rho_mesh": RHO_MESH}),
    "double-well": _RunRecipe(lambda cfg: _recorded(cfg.solved.vector_field(cfg.domain),
                                                    _gibbs_analysis, cfg), _gibbs_analysis,
                              "double-well", SCENARIOS["double-well"].defaults,
                              {**_NAMED_SCHEDULE, "shape": "iso"}, _ANALYSIS),
    "double-well-designed": _RunRecipe(
        lambda cfg: run_designed_comparison(*_attractor(cfg), cfg.domain),
        lambda cfg, v: _designed_analysis(*_attractor(cfg), v), "double-well",
        {**SCENARIOS["double-well"].defaults, "ratio": 10.0}, {"eps": None}, _ANALYSIS),
}


_CONFIG_KEYS = ("scenario", "grid", "schedule", "output_dir", "seed", "analysis")


@dataclass
class RunConfig:
    """A run config as read, with seed and analysis filled in (``to_dict``, which
    config.json echoes); ``resolved``, its sections resolved into the run recipe its
    scenario names; and what every run reads: ``domain``, the Grid2D of its grid
    section, ``solved``, the scenario whose drift it solves, and ``dictionary``,
    its test-function dictionary. ``seed`` is range-checked and echoed, but no
    computation reads it: no run is random."""

    scenario: dict
    grid: dict
    schedule: dict
    output_dir: str
    seed: int
    analysis: dict
    resolved: _RunRecipe = field(repr=False)
    domain: Grid2D = field(repr=False)
    solved: Scenario = field(repr=False)
    dictionary: TestFunctionDictionary = field(repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """The config ``raw``, checked whole before any work: the config error of the
        first key it does not read or value it refuses. Builds the grid, the solved
        scenario and the dictionary, so a run and ``fplab verify`` read the same ones,
        but not the schedule: its members are full-grid fields, and ``fplab hopf``
        resolves every config before it solves any."""
        for key in ("scenario", "grid", "schedule", "output_dir"):
            if key not in raw:
                raise ConfigError(key, "missing required field")
        if not (isinstance(raw["output_dir"], str) and raw["output_dir"]):
            raise ConfigError("output_dir", f"must be a non-empty path, got {raw['output_dir']!r}")
        for key in ("scenario", "grid", "schedule", "analysis"):
            if not isinstance(raw.get(key, {}), dict):
                raise ConfigError(key, f"must be a JSON object, got {raw[key]!r}")
        _known("", raw, _CONFIG_KEYS)
        scenario, analysis = raw["scenario"], raw.get("analysis", {})
        name = scenario.get("name")
        recipe = _RUN_RECIPES.get(name) if isinstance(name, str) else None
        if recipe is None:
            raise ConfigError("scenario.name", f"no run recipe for scenario {name!r}")
        resolved = replace(recipe, params=_resolved("scenario", scenario, {"name": name, **recipe.params}),
                           schedule=_resolved("schedule", raw["schedule"], recipe.schedule),
                           analysis=_resolved("analysis", analysis, recipe.analysis))
        _check_schedule_names(**{k: v for k, v in resolved.schedule.items() if k != "eps"})
        seed = _config_int("seed", raw.get("seed", 0), 0, 2**64)
        grid = _config_grid(raw["grid"])
        solved = make_scenario(recipe.scenario, grid,
                               **{k: resolved.params[k] for k in SCENARIOS[recipe.scenario].defaults})
        return cls(scenario, raw["grid"], raw["schedule"], raw["output_dir"], seed, analysis,
                   resolved, grid, solved, dictionary_for(resolved.analysis["dictionary"], grid))

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _CONFIG_KEYS}

    def run(self) -> ScenarioResult:
        return self.resolved.run(self)
