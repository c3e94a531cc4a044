"""Command-line entry point: configuration, orchestration, persistence.

Subcommands: solve, sample, verify, design-noise, hopf, run, find-attractor,
verify-lyapunov. Runs are driven by one JSON config document (flags only
select the file and override scalar fields); outputs go to a run directory
holding the config echo, per-eps measure documents, metrics.csv, and a
summary document with per-assertion pass/fail. Exit codes: 0 all assertions
pass, 1 an assertion failed or another package error stopped the command
(e.g. an infeasible noise design), 2 configuration error: a missing or
invalid config field, a bad grid or eps value (flag or config), or an
unreadable config or run directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import io as fio
from .analysis import RHO_MESH, angular_w1_to_uniform, invariance_residual
from .dynamics import approximate_attractor, verify_lyapunov
from .errors import ConfigError, FplabError
from .fpe import solve_family
from .grid import Grid2D
from .sampler import SamplerConfig, occupation_measure
from .scenarios import (
    _DEFAULT_DICTIONARY,
    _ISOLATION_RECIPES,
    SCENARIOS,
    ScenarioResult,
    _check_run_sections,
    _config_scenario,
    _design,
    build_schedule,
    dictionary_for,
    make_scenario,
    run_recipe,
)

DEFAULT_WORKERS_ENV = "FPLAB_WORKERS"
_GRID_KEYS = ("x_min", "x_max", "y_min", "y_max", "nx", "ny")


def _grid(x_min, x_max, y_min, y_max, nx, ny) -> Grid2D:
    """Grid2D of flag or config values; values it rejects are a config error."""
    try:
        return Grid2D(float(x_min), float(x_max), float(y_min), float(y_max), int(nx), int(ny))
    except (TypeError, ValueError) as exc:
        raise ConfigError("grid", str(exc)) from exc


def _flag_scenario(args):
    """The grid and the scenario named by the domain and scenario flags."""
    grid = _grid(args.x_min, args.x_max, args.y_min, args.y_max, args.grid_n, args.grid_n)
    return grid, make_scenario(args.scenario, grid, **({} if args.b is None else {"b": args.b}))


def _eps_labels(values) -> tuple:
    """Noise labels of a flag or config: a non-empty, strictly decreasing list
    of positive finite numbers, else a config error."""
    try:
        eps = tuple(float(e) for e in values)
    except (TypeError, ValueError) as exc:
        raise ConfigError("schedule.eps", f"must be a list of numbers: {exc}") from exc
    if not eps or any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ConfigError("schedule.eps", "labels must be a non-empty, strictly decreasing list")
    if not all(0.0 < e < float("inf") for e in eps):
        raise ConfigError("schedule.eps", "labels must be positive and finite")
    return eps


def _config_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """A config value that must be a JSON integer (not a bool) in [lo, hi)."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < lo
            or (hi is not None and value >= hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise ConfigError(name, f"must be an integer {bounds}, got {value!r}")
    return value


@dataclass
class RunConfig:
    scenario: dict
    grid: dict
    schedule: dict
    output_dir: str
    seed: int = 0
    analysis: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        for key in ("scenario", "grid", "schedule", "output_dir"):
            if key not in raw:
                raise ConfigError(key, "missing required field")
        for key in ("scenario", "grid", "schedule", "analysis"):
            if not isinstance(raw.get(key, {}), dict):
                raise ConfigError(key, f"must be a JSON object, got {raw[key]!r}")
        known = [f.name for f in fields(cls)]
        for key in raw:
            if key not in known:
                raise ConfigError(key, "unknown key; known: " + ", ".join(known))
        for key in raw["grid"]:
            if key not in _GRID_KEYS:
                raise ConfigError(f"grid.{key}", "unknown key; known: " + ", ".join(_GRID_KEYS))
        if "name" not in raw["scenario"]:
            raise ConfigError("scenario.name", "missing scenario name")
        _eps_labels(raw["schedule"].get("eps"))
        _check_run_sections(raw["scenario"], raw["schedule"], raw.get("analysis", {}))
        _config_int("analysis.rho_mesh", raw.get("analysis", {}).get("rho_mesh", RHO_MESH), 2)
        for k in _GRID_KEYS:
            if k not in raw["grid"]:
                raise ConfigError(f"grid.{k}", "missing grid field")
        cfg = cls(raw["scenario"], raw["grid"], raw["schedule"], raw["output_dir"],
                  _config_int("seed", raw.get("seed", 0), 0, 2**64), raw.get("analysis", {}))
        cfg.build_grid()  # fails here, before any work, on values Grid2D rejects
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    def build_grid(self) -> Grid2D:
        return _grid(*(self.grid[k] for k in _GRID_KEYS))


def _load_config(path: Path) -> RunConfig:
    """The run config at ``path``; an unreadable file is a config error."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("config", f"cannot read config: {exc}") from exc
    return RunConfig.from_dict(raw)


def _workers() -> int:
    """The pool size FPLAB_WORKERS: a positive integer, 1 when unset."""
    raw = os.environ.get(DEFAULT_WORKERS_ENV, "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError(DEFAULT_WORKERS_ENV, f"must be a positive integer, got {raw!r}")
    return int(raw)


def _write_run_dir(out_dir: Path, cfg: RunConfig, result: ScenarioResult):
    out_dir.mkdir(parents=True, exist_ok=True)
    fio.save_document(cfg.to_dict(), out_dir / "config.json")
    for eps, mu in result.measures:
        fio.save_document(fio.measure_to_document(mu), out_dir / f"measure_eps{eps!r}.json")
    (out_dir / "metrics.csv").write_text(result.report.to_csv())
    fio.save_document(result.to_document(), out_dir / "summary.json")


def _run_scenario(cfg: RunConfig) -> ScenarioResult:
    return run_recipe(cfg.scenario, cfg.build_grid(), _eps_labels(cfg.schedule["eps"]),
                      cfg.schedule, cfg.analysis)


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_run(args) -> int:
    cfg = _load_config(Path(args.config))
    if args.out:
        cfg.output_dir = args.out
    t0 = time.perf_counter()
    result = _run_scenario(cfg)
    out_dir = Path(cfg.output_dir)
    _write_run_dir(out_dir, cfg, result)
    wall = time.perf_counter() - t0
    print(f"run directory: {out_dir}  ({wall:.1f}s)")
    for name, passed, value, threshold in result.assertions:
        print(f"  {'PASS' if passed else 'FAIL'}  {name} (value={value:.6g}, ref={threshold:.6g})")
    for eps, msg in result.errors:
        print(f"  ERROR eps={eps}: {msg}")
    return 0 if result.all_passed else 1


def _cmd_hopf(args) -> int:
    workers = _workers()
    eps = list(_eps_labels(args.eps.split(",")))
    b_values = [make_scenario("hopf", b=b).params["b"] for b in args.b.split(",")]
    box = SCENARIOS["hopf"].box
    rc = 0
    jobs = []
    for b in b_values:
        raw = {
            "scenario": {"name": "hopf", "b": b},
            "grid": {"x_min": -box, "x_max": box, "y_min": -box, "y_max": box,
                     "nx": args.grid_n, "ny": args.grid_n},
            "schedule": {"eps": eps, "shape": args.shape},
            "analysis": {"dictionary": _DEFAULT_DICTIONARY},
            "output_dir": str(Path(args.out) / f"b{b!r}"),
            "seed": args.seed,
        }
        jobs.append(RunConfig.from_dict(raw))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_run_scenario, jobs))
    for result, cfg in zip(results, jobs):
        _write_run_dir(Path(cfg.output_dir), cfg, result)
        print(f"b={cfg.scenario['b']}: "
              + ", ".join(f"{n}={'PASS' if p else 'FAIL'}" for n, p, _, _ in result.assertions))
        if not result.all_passed:
            rc = 1
    return rc


def _cmd_solve(args) -> int:
    grid, scen = _flag_scenario(args)
    eps = _eps_labels(args.eps.split(","))
    sched = build_schedule(grid, eps, args.shape)
    v = scen.vector_field(grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports, timings = [], []
    for eps_k, mu, rep in solve_family(v, sched, grid):
        if mu is None:
            reports.append({"eps": eps_k, "error": repr(rep)})
            continue
        fio.save_document(fio.measure_to_document(mu), out / f"measure_eps{eps_k!r}.json")
        reports.append({
            "eps": eps_k, "residual": rep.residual, "mass_defect": rep.mass_defect,
            "min_weight": rep.min_weight, "clipped_mass": rep.clipped_mass,
            "method": rep.method,
        })
        timings.append({"eps": eps_k, "wall_time": rep.wall_time})
    fio.save_document(
        {"format": fio.FORMATS["solve_summary"], "scenario": scen.name,
         "params": scen.params, "schedule": {"eps": list(eps), "shape": args.shape},
         "reports": reports},
        out / "solve_summary.json",
    )
    # wall times vary from run to run: kept apart so reruns write identical summaries
    fio.save_document({"format": fio.FORMATS["timing"], "members": timings}, out / "timing.json")
    print(f"solved {sum(1 for r in reports if 'error' not in r)}/{len(reports)} members -> {out}")
    return 0 if all("error" not in r for r in reports) else 1


def _cmd_sample(args) -> int:
    grid, scen = _flag_scenario(args)
    eps = _eps_labels(args.eps.split(","))
    sched = build_schedule(grid, eps, args.shape)
    try:
        cfg = SamplerConfig(dt=args.dt, t_total=args.t_total, n_paths=args.n_paths,
                            rng_seed=args.seed)
    except ValueError as exc:
        raise ConfigError("sampler", str(exc)) from exc
    measures, diag = occupation_measure(scen.drift_fn, sched.members, grid, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    diags = []
    for (eps_k, _), mu, d in zip(sched, measures, diag["members"]):
        fio.save_document(fio.measure_to_document(mu), out / f"occupation_eps{eps_k!r}.json")
        diags.append({"eps": eps_k, **d})
    fio.save_document(
        {"format": fio.FORMATS["sample_summary"], "scenario": scen.name, "params": scen.params,
         "shape": args.shape,
         "sampler": {"dt": cfg.dt, "t_total": cfg.t_total, "t_burn": cfg.t_burn,
                     "n_paths": cfg.n_paths, "rng_seed": cfg.rng_seed},
         "diagnostics": diags},
        out / "sample_summary.json",
    )
    print(f"sampled {len(diags)} members -> {out}")
    return 0


def _cmd_verify(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_config(run_dir / "config.json")
    grid = cfg.build_grid()
    v = _config_scenario(cfg.scenario, grid).vector_field(grid)
    dic = dictionary_for(cfg.analysis.get("dictionary", _DEFAULT_DICTIONARY), grid)
    rows = []
    for eps in cfg.schedule["eps"]:
        path = run_dir / f"measure_eps{float(eps)!r}.json"
        if not path.exists():
            path = run_dir / f"occupation_eps{float(eps)!r}.json"
        if not path.exists():
            print(f"missing measure for eps={eps}", file=sys.stderr)
            return 2
        mu = fio.measure_from_document(fio.load_document(path))
        res = invariance_residual(mu, v, dic)
        rows.append({"eps": float(eps), "residual_max": res.max,
                     "angular_w1": angular_w1_to_uniform(mu)})
    lines = ["eps,residual_max,angular_w1"]
    lines += [f"{r['eps']!r},{r['residual_max']!r},{r['angular_w1']!r}" for r in rows]
    (run_dir / "verify.csv").write_text("\n".join(lines) + "\n")
    fio.save_document({"format": fio.FORMATS["verify"], "rows": rows}, run_dir / "verify.json")
    print(f"verified {len(rows)} measures -> {run_dir / 'verify.json'}")
    return 0


def _cmd_design_noise(args) -> int:
    grid, scen = _flag_scenario(args)
    eps = _eps_labels(args.eps.split(","))
    if args.target == "equilibrium":
        print("equilibrium destabilization holds for any normal family; "
              "use `run`/`solve` with an isotropic schedule and the "
              "verify-repelling harness in the test suite", file=sys.stderr)
        return 2
    fam = _design(scen, args.target, scen.vector_field(grid), args.ratio, eps)[2]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fio.save_document(
        {"format": fio.FORMATS["shaping"], "grid": grid.metadata(),
         "ratio": fam.ratio, "shaping": fam.shaping.ravel().tolist(),
         "meta": {k: (list(v) if isinstance(v, tuple) else v) for k, v in fam.meta.items()}},
        out / "shaping.json",
    )
    fio.save_document(fio.schedule_to_document(fam.schedule), out / "schedule.json")
    print(f"designed family (ratio={fam.ratio}, ratio_condition={fam.ratio_condition():.3g}) -> {out}")
    return 0


def _cmd_find_attractor(args) -> int:
    if not 0.0 < args.t_end < float("inf"):
        raise ConfigError("t_end", f"must be positive and finite, got {args.t_end!r}")
    if args.ensemble < 1:
        raise ConfigError("ensemble", f"must be >= 1, got {args.ensemble}")
    grid, scen = _flag_scenario(args)
    # a repeller is sought from seeds in its isolating region: seeds outside
    # it may escape in reverse time, so without one there is nothing to seek
    recipe = None
    if args.reverse:
        recipe = _ISOLATION_RECIPES.get((scen.name, "repeller"))
        if recipe is None:
            raise ConfigError("scenario", f"{scen.name} has no repeller recipe "
                                          "to seed a time-reversed search from")
    approx = approximate_attractor(
        scen.drift_fn, grid, ensemble_size=args.ensemble, t_end=args.t_end,
        reverse_time=args.reverse, seed_region=None if recipe is None else recipe.region,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fio.save_document(fio.attractor_to_document(approx), out / "attractor.json")
    print(f"{approx.kind}: {int(approx.mask.sum())} cells flagged -> {out / 'attractor.json'}")
    return 0


def _cmd_verify_lyapunov(args) -> int:
    grid, scen = _flag_scenario(args)
    cert = verify_lyapunov(scen.certificate_samples(grid), scen.vector_field(grid),
                           args.rho_m, args.gamma, kind=args.kind)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fio.save_document(fio.certificate_to_document(cert), out / "certificate.json")
    print(f"certificate {'PASS' if cert.passed else 'FAIL'} "
          f"(worst margin {cert.worst_margin:.4g}, slack {cert.slack:.4g})")
    return 0 if cert.passed else 1


def _add_domain_args(p, default_n=200):
    p.add_argument("--x-min", type=float, default=-2.5)
    p.add_argument("--x-max", type=float, default=2.5)
    p.add_argument("--y-min", type=float, default=-2.5)
    p.add_argument("--y-max", type=float, default=2.5)
    p.add_argument("--grid-n", type=int, default=default_n)


def _parser() -> argparse.ArgumentParser:
    scenarios = list(SCENARIOS)
    parser = argparse.ArgumentParser(
        prog="fplab",
        description="Stationary Fokker-Planck laboratory for vanishing-noise limit measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a config-driven scenario run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override output_dir")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("hopf", help="stochastic Hopf bifurcation sweep")
    p.add_argument("--b", default="1.0", help="bifurcation parameter(s), comma separated")
    p.add_argument("--eps", default="0.2,0.1,0.05,0.02")
    p.add_argument("--grid-n", type=int, default=256)
    p.add_argument("--shape", default="modulated", choices=["iso", "aniso", "modulated"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_hopf)

    p = sub.add_parser("solve", help="solve a schedule and write measures")
    p.add_argument("--scenario", default="hopf", choices=scenarios)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--eps", default="0.2,0.1,0.05,0.02")
    p.add_argument("--shape", default="iso", choices=["iso", "aniso", "modulated"])
    _add_domain_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("sample", help="Monte-Carlo occupation measures")
    p.add_argument("--scenario", default="hopf", choices=scenarios)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--eps", default="0.1,0.05")
    p.add_argument("--shape", default="iso", choices=["iso", "aniso", "modulated"])
    p.add_argument("--dt", type=float, default=0.005)
    p.add_argument("--t-total", type=float, default=200.0)
    p.add_argument("--n-paths", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    _add_domain_args(p, default_n=100)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("verify", help="convergence diagnostics on a run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("design-noise", help="construct a shaped null family")
    p.add_argument("--target", required=True, choices=["attractor", "repeller", "equilibrium"])
    p.add_argument("--scenario", default="double-well",
                   choices=sorted({s for s, _ in _ISOLATION_RECIPES}))
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--ratio", type=float, default=10.0)
    p.add_argument("--eps", default="0.1,0.05,0.02")
    _add_domain_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_design_noise)

    p = sub.add_parser("find-attractor", help="ensemble attractor approximation")
    p.add_argument("--scenario", default="hopf", choices=scenarios)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--ensemble", type=int, default=256)
    p.add_argument("--t-end", type=float, default=40.0)
    p.add_argument("--reverse", action="store_true", help="time-reversed (repeller)")
    _add_domain_args(p, default_n=100)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_find_attractor)

    p = sub.add_parser("verify-lyapunov", help="check U = x^2+y^2 against a scenario drift")
    p.add_argument("--scenario", default="hopf", choices=scenarios)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--rho-m", type=float, default=1.5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--kind", default="lyapunov",
                   choices=["lyapunov", "anti-lyapunov", "weak", "entire-weak"])
    _add_domain_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_verify_lyapunov)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
