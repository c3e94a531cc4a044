"""Command-line entry point: configuration, orchestration, persistence.

Subcommands: solve, sample, verify, design-noise, hopf, run, find-attractor,
verify-lyapunov. This module parses flags, calls the library and prints. Runs are
driven by one JSON config document, checked whole before any work by
scenarios.RunConfig against the run recipe of its scenario; flag values go through
the checks of the config sections they stand for. Outputs go to a run directory
holding the config echo and, from the result's member records, a measure document
per eps and family (``measure_eps<eps>.json``, and the designed recipe's isotropic
``control_eps<eps>.json``), metrics.csv and a summary document with per-assertion
pass/fail; ``io`` makes every directory and writes every file. ``fplab verify``
re-derives the summary and metrics.csv from the run's measures with its analysis and
compares every part, exactly. It copies only what needs a solve, each row's solve
keys and each failed member's error, and writes only verify.json. Exit codes: 0 all
assertions pass, 1 an assertion failed, verify found a mismatch or another package
error stopped the command (e.g. an infeasible noise design), 2 configuration error:
a missing, unknown or invalid config field or flag value (a non-finite number, a
bool or a string where a number is due), or an unreadable config or run directory.

``fplab hopf`` runs its b values on min(#b, CPUs in the affinity mask) threads, so
``taskset`` limits them; each concurrent b holds its own LU, about 70 MB at 256².

A run config's ``seed`` is range-checked and echoed into config.json (``fplab
hopf`` echoes 0), but no computation reads it: no run is random. Only ``fplab
sample --seed`` seeds anything, the sampler's path streams.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import io as fio
from .dynamics import approximate_attractor, verify_lyapunov
from .errors import ConfigError, FplabError, NonFiniteFieldError
from .fpe import solve_family
from .sampler import SamplerConfig, occupation_measure
from .scenarios import (
    _ISOLATION_RECIPES,
    _RUN_RECIPES,
    _SOLVE_KEYS,
    SCENARIOS,
    SHAPES,
    RunConfig,
    ScenarioResult,
    _config_grid,
    _config_int,
    _design,
    _eps_labels,
    _number,
    _resolved,
    build_schedule,
    make_scenario,
)

_DESIGNED = _RUN_RECIPES["double-well-designed"].params  # design-noise's --ratio


def _flag_scenario(args):
    """The grid and the scenario named by the domain and scenario flags, checked as configs are."""
    grid = _config_grid({"x_min": args.x_min, "x_max": args.x_max, "y_min": args.y_min,
                         "y_max": args.y_max, "nx": args.grid_n, "ny": args.grid_n})
    return grid, make_scenario(args.scenario, grid, **({} if args.b is None else {"b": args.b}))


def _flag_numbers(field: str, text: str) -> list:
    """The comma-separated numbers of a flag, else a config error naming ``field``."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(field, f"must be comma-separated numbers, got {text!r}") from exc


def _flag_family(args):
    """The grid, the scenario and the --eps noise labels of the flags, checked as configs are."""
    return (*_flag_scenario(args), _eps_labels(_flag_numbers("schedule.eps", args.eps)))


def _load(path: Path, field: str) -> dict:
    """The JSON object at ``path``; an unreadable file or another JSON value is a
    config error naming ``field``."""
    try:
        doc = fio.load_document(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(field, f"cannot read {field}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(field, f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _write_run_dir(out_dir: Path, cfg: RunConfig, result: ScenarioResult):
    fio.save_document(cfg.to_dict(), out_dir / "config.json")
    for eps, measures, _ in result.members:
        for prefix, mu in measures.items():
            fio.save_document(fio.measure_to_document(mu), out_dir / f"{prefix}_eps{eps!r}.json")
    fio.save_csv([{"eps": eps, **row} for eps, _, row in result.members], out_dir / "metrics.csv")
    fio.save_document(result.to_document(), out_dir / "summary.json")


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_run(args) -> int:
    cfg = RunConfig.from_dict(_load(Path(args.config), "config"))
    if args.out:
        cfg.output_dir = args.out
    t0 = time.perf_counter()
    result = cfg.run()
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
    eps = _flag_numbers("schedule.eps", args.eps)  # checked by RunConfig
    box = SCENARIOS["hopf"].box
    bs = _flag_numbers("scenario.b", args.b)
    if len(set(bs)) < len(bs):  # two jobs would write one b directory
        raise ConfigError("scenario.b", f"repeats a value: {args.b!r}")
    jobs = [RunConfig.from_dict({
        "scenario": {"name": "hopf", "b": b},
        "grid": {"x_min": -box, "x_max": box, "y_min": -box, "y_max": box,
                 "nx": args.grid_n, "ny": args.grid_n},
        "schedule": {"eps": eps, "shape": args.shape},
        "analysis": {"dictionary": _RUN_RECIPES["hopf"].analysis["dictionary"]},
        "output_dir": str(Path(args.out) / f"b{b!r}"),
    }) for b in bs]
    with ThreadPoolExecutor(max_workers=min(len(jobs), _cpus())) as pool:
        results = list(pool.map(RunConfig.run, jobs))
    for result, cfg in zip(results, jobs):
        _write_run_dir(Path(cfg.output_dir), cfg, result)
        print(f"b={cfg.scenario['b']}: "
              + ", ".join(f"{n}={'PASS' if p else 'FAIL'}" for n, p, _, _ in result.assertions))
    return 0 if all(result.all_passed for result in results) else 1


def _cmd_solve(args) -> int:
    grid, scen, eps = _flag_family(args)
    sched = build_schedule(grid, eps, args.shape)
    v = scen.vector_field(grid)
    out = Path(args.out)
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
    grid, scen, eps = _flag_family(args)
    sched = build_schedule(grid, eps, args.shape)
    try:
        cfg = SamplerConfig(dt=args.dt, t_total=args.t_total, n_paths=args.n_paths,
                            rng_seed=args.seed)
    except ValueError as exc:
        raise ConfigError("sampler", str(exc)) from exc
    measures, diag = occupation_measure(scen.drift_fn, sched.members, grid, cfg)
    out = Path(args.out)
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
    cfg = RunConfig.from_dict(_load(run_dir / "config.json", "config"))
    summary, sched = _load(run_dir / "summary.json", "summary"), cfg.resolved.schedule["eps"]
    solved, rows, errors = map(summary.get, ("eps", "metrics", "errors"))  # errors: failed members
    if not (all(isinstance(x, list) for x in (solved, rows, errors, summary.get("assertions")))
            and len(rows) == len(solved) and all(isinstance(d, dict) for d in rows + errors)
            and solved == [e for e in sched if e in solved] and all("error" in d for d in errors)
            and [d.get("eps") for d in errors] == [e for e in sched if e not in solved]):
        raise ConfigError("summary", "must split the config eps, in order, into eps with a metric "
                          "row each and errors with eps and error, and list assertions")
    try:
        table = (run_dir / "metrics.csv").read_text()
    except (OSError, ValueError) as exc:
        raise ConfigError("run", f"cannot read metrics.csv: {exc}") from exc
    families, out, metrics, verdicts = cfg.resolved.analyze(cfg, cfg.solved.vector_field(cfg.domain))
    for eps, row in zip(solved, rows):
        measures = {}
        for prefix in families:
            path = run_dir / f"{prefix}_eps{eps!r}.json"
            try:
                mu = measures[prefix] = fio.measure_from_document(_load(path, "run"))
            except (KeyError, TypeError, ValueError, AttributeError, NonFiniteFieldError) as exc:
                raise ConfigError("run", f"{path} is not a measure document: {exc!r}") from exc
            if mu.grid != cfg.domain:
                raise ConfigError("run", f"{path} holds a measure on {mu.grid}, not on the run's grid")
        out.add(eps, measures, **metrics(eps, *measures.values()),
                **{k: _number("summary", row[k]) for k in _SOLVE_KEYS if k in row})
    out.errors.extend((d["eps"], d["error"]) for d in errors)
    verdicts(out)
    # the stored and the re-derived summary by part, in order and each metric row apart, as JSON text
    stored, derived = ({path: json.dumps(fio.finite(part)) for key, value in doc.items() for path, part in
                        ([(f"metrics[{k}]", row) for k, row in enumerate(value)] if key == "metrics"
                         else [(key, value)])} for doc in (summary, out.to_document()))
    table_ok = table == fio.csv_text([{"eps": eps, **row} for eps, _, row in out.members])
    mismatch = next((path for path in {**derived, **stored} if derived.get(path) != stored.get(path)),
                    None if table_ok else "metrics.csv")
    fio.save_document({"format": fio.FORMATS["verify"], "mismatch": mismatch,
                       "unchecked": list(_SOLVE_KEYS)}, run_dir / "verify.json")
    print(f"verified {len(out.members)} members -> {run_dir / 'verify.json'}"
          + (f"; MISMATCH: {mismatch} differs" if mismatch else ""))
    return 1 if mismatch else 0


def _cmd_design_noise(args) -> int:
    grid, scen, eps = _flag_family(args)
    ratio = _resolved("scenario", {"ratio": args.ratio}, _DESIGNED)["ratio"]
    fam = _design(scen, args.target, scen.vector_field(grid), ratio, eps)[2]
    out = Path(args.out)
    fio.save_document(
        {"format": fio.FORMATS["shaping"], "grid": grid.metadata(),
         "ratio": fam.ratio, "shaping": fam.shaping.ravel().tolist(),
         "meta": fam.meta},
        out / "shaping.json",
    )
    fio.save_document(fio.schedule_to_document(fam.schedule), out / "schedule.json")
    print(f"designed family (ratio={fam.ratio}, ratio_condition={fam.ratio_condition():.3g}) -> {out}")
    return 0


def _cmd_find_attractor(args) -> int:
    if not _number("t_end", args.t_end) > 0.0:
        raise ConfigError("t_end", f"must be positive, got {args.t_end!r}")
    _config_int("ensemble", args.ensemble, 1)
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
    fio.save_document(fio.attractor_to_document(approx), out / "attractor.json")
    print(f"{approx.kind}: {approx.mask.sum()} cells flagged -> {out / 'attractor.json'}")
    return 0


def _cmd_verify_lyapunov(args) -> int:
    grid, scen = _flag_scenario(args)
    cert = verify_lyapunov(scen.certificate_samples(grid), scen.vector_field(grid),
                           _number("rho_m", args.rho_m), _number("gamma", args.gamma),
                           kind=args.kind)
    fio.save_document(fio.certificate_to_document(cert), Path(args.out) / "certificate.json")
    print(f"certificate {'PASS' if cert.passed else 'FAIL'} "
          f"(worst margin {cert.worst_margin:.4g}, slack {cert.slack:.4g})")
    return 0 if cert.passed else 1


def _add_domain_args(p, default_n=200, scenario="hopf", scenarios=tuple(SCENARIOS)):
    """The scenario, domain and output flags of the commands that build a scenario from flags."""
    p.add_argument("--scenario", default=scenario, choices=list(scenarios))
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--x-min", type=float, default=-2.5)
    p.add_argument("--x-max", type=float, default=2.5)
    p.add_argument("--y-min", type=float, default=-2.5)
    p.add_argument("--y-max", type=float, default=2.5)
    p.add_argument("--grid-n", type=int, default=default_n)
    p.add_argument("--out", required=True)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fplab",
        description="Stationary Fokker-Planck laboratory for vanishing-noise limit measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a config-driven scenario run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override output_dir")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("hopf", help="stochastic Hopf bifurcation sweep", description=(
        "Solve the Hopf family at each b on min(#b, usable CPUs) threads; taskset limits them. "
        "Each concurrent b holds its own LU, about 70 MB at the default 256² grid."))
    p.add_argument("--b", default=repr(SCENARIOS["hopf"].defaults["b"]), help="b values, comma separated")
    p.add_argument("--eps", default="0.2,0.1,0.05,0.02")
    p.add_argument("--grid-n", type=int, default=256)
    p.add_argument("--shape", default=_RUN_RECIPES["hopf"].schedule["shape"], choices=list(SHAPES))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_hopf)

    p = sub.add_parser("solve", help="solve a schedule and write measures")
    p.add_argument("--eps", default="0.2,0.1,0.05,0.02")
    p.add_argument("--shape", default="iso", choices=list(SHAPES))
    _add_domain_args(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("sample", help="Monte-Carlo occupation measures")
    p.add_argument("--eps", default="0.1,0.05")
    p.add_argument("--shape", default="iso", choices=list(SHAPES))
    p.add_argument("--dt", type=float, default=0.005)
    p.add_argument("--t-total", type=float, default=200.0)
    p.add_argument("--n-paths", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    _add_domain_args(p, default_n=100)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("verify", help="re-derive a run's summary and metrics.csv from its measures, "
                       "copying solve keys and errors; writes verify.json, 1 on a mismatch")
    p.add_argument("--run", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("design-noise", help="construct a shaped null family")
    p.add_argument("--target", required=True, choices=["attractor", "repeller"])
    p.add_argument("--ratio", type=float, default=_DESIGNED["ratio"])
    p.add_argument("--eps", default="0.1,0.05,0.02")
    _add_domain_args(p, scenario="double-well",
                     scenarios=sorted({s for s, _ in _ISOLATION_RECIPES}))
    p.set_defaults(fn=_cmd_design_noise)

    p = sub.add_parser("find-attractor", help="ensemble attractor approximation")
    p.add_argument("--ensemble", type=int, default=256)
    p.add_argument("--t-end", type=float, default=40.0)
    p.add_argument("--reverse", action="store_true", help="time-reversed (repeller)")
    _add_domain_args(p, default_n=100)
    p.set_defaults(fn=_cmd_find_attractor)

    p = sub.add_parser("verify-lyapunov", help="check U = x^2+y^2 against a scenario drift")
    p.add_argument("--rho-m", type=float, default=1.5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--kind", default="lyapunov",
                   choices=["lyapunov", "anti-lyapunov", "weak", "entire-weak"])
    _add_domain_args(p)
    p.set_defaults(fn=_cmd_verify_lyapunov)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "out", None) == "":  # Path("") would write into the current directory
            raise ConfigError("output_dir", "must be a non-empty path, got ''")
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
