import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from fplab import cli
from fplab import io as fio
from fplab.cli import RunConfig, main
from fplab.errors import ConfigError
from fplab.grid import Grid2D, grid_from_metadata
from fplab.sampler import SamplerConfig, occupation_measure
from fplab.scenarios import build_schedule, make_scenario


def _hopf_config(out_dir, nx=64, eps=(0.3, 0.15), thresholds=None):
    cfg = {
        "scenario": {"name": "hopf", "b": 1.0},
        "grid": {"x_min": -2.5, "x_max": 2.5, "y_min": -2.5, "y_max": 2.5,
                 "nx": nx, "ny": nx},
        "schedule": {"eps": list(eps), "shape": "modulated"},
        "analysis": {"dictionary": "hopf-offcycle-v1"},
        "output_dir": str(out_dir),
        "seed": 0,
    }
    if thresholds:
        cfg["analysis"]["thresholds"] = thresholds
    return cfg


def test_config_validation_errors():
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict({"scenario": {"name": "hopf"}, "grid": {}, "schedule": {"eps": [0.1, 0.2]},
                             "output_dir": "x"})
    assert exc.value.field == "schedule.eps"
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict({"grid": {}, "schedule": {"eps": [0.1]}, "output_dir": "x"})
    assert exc.value.field == "scenario"
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict({"scenario": {"name": "hopf"}, "grid": {},
                             "schedule": {"eps": [0.2, 0.1]}, "output_dir": "x",
                             "analysis": {"thresholds": {"annulus_final": 1.5}}})
    assert exc.value.field == "analysis.thresholds.annulus_final"
    # a value that is not a JSON number is rejected here, not at float() or at
    # the first comparison of the run
    for value in ("high", "0.5", None):
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(_hopf_config("x", thresholds={"annulus_final": value}))
        assert exc.value.field == "analysis.thresholds.annulus_final"
    # the largest seed and the smallest level mesh are accepted
    cfg = _hopf_config("x")
    cfg["seed"] = 2**64 - 1
    cfg["analysis"]["rho_mesh"] = 2
    assert RunConfig.from_dict(cfg).seed == 2**64 - 1


def test_cli_exit_2_on_bad_config(tmp_path, capsys):
    cfg = _hopf_config(tmp_path / "out")
    cfg["schedule"]["eps"] = [0.1, 0.2]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(p)])
    assert rc == 2
    assert "schedule.eps" in capsys.readouterr().err


def test_cli_exit_2_when_grid_cannot_hold_dictionary(tmp_path, capsys):
    # box +-2.2 at 32^2: the corner bumps of hopf-offcycle-v1 reach the
    # boundary-adjacent cells
    out = tmp_path / "out"
    cfg = _hopf_config(out, nx=32)
    cfg["grid"].update(x_min=-2.2, x_max=2.2, y_min=-2.2, y_max=2.2)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "analysis.dictionary" in err
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


# --t-total 0.001 and --dt inf round to no step; --dt nan has no step count,
# nor has --dt 5e-324, where t_total/dt overflows; --dt 1e-300 asks for 1e300
@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--dt", "0"), ("--n-paths", "0"),
                                        ("--t-total", "0.001"), ("--dt", "inf"),
                                        ("--dt", "nan"), ("--dt", "5e-324"),
                                        ("--dt", "1e-300")])
def test_cli_sample_exit_2_on_bad_sampler_value(tmp_path, capsys, monkeypatch, flag, value):
    def no_sampling(*args, **kwargs):
        raise AssertionError("occupation_measure called")

    monkeypatch.setattr(cli, "occupation_measure", no_sampling)
    out = tmp_path / "out"
    rc = main(["sample", "--scenario", "ou2d", "--eps", "0.1", "--grid-n", "16",
               "--t-total", "1", flag, value, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "sampler" in err
    assert "Traceback" not in err
    assert not out.exists()


# (argv, field named on stderr); after "run" a dict of config sections to
# update, or of top-level values and named scenario sections to replace
_BAD_VALUES = [
    (["solve", "--grid-n", "4"], "grid"),
    (["solve", "--x-min", "1", "--x-max", "0"], "grid"),
    (["sample", "--grid-n", "4"], "grid"),
    (["hopf", "--grid-n", "4"], "grid"),
    (["design-noise", "--target", "attractor", "--x-min", "1", "--x-max", "0"], "grid"),
    (["find-attractor", "--grid-n", "4"], "grid"),
    (["find-attractor", "--t-end", "0"], "t_end"),
    (["find-attractor", "--t-end", "-1"], "t_end"),
    (["find-attractor", "--t-end", "nan"], "t_end"),
    (["find-attractor", "--t-end", "inf"], "t_end"),
    (["find-attractor", "--ensemble", "0"], "ensemble"),
    (["verify-lyapunov", "--y-min", "1", "--y-max", "0"], "grid"),
    (["solve", "--eps", "abc"], "schedule.eps"),
    (["sample", "--eps", "0.1,0.2"], "schedule.eps"),
    (["hopf", "--eps", "abc"], "schedule.eps"),
    (["hopf", "--eps", "0.1,0.2"], "schedule.eps"),
    (["design-noise", "--target", "attractor", "--eps", "0.1,nan"], "schedule.eps"),
    (["run", {"grid": {"nx": 4}}], "grid"),
    (["run", {"grid": {"x_min": 1.0, "x_max": 0.0}}], "grid"),
    (["run", {"schedule": {"eps": ["a"]}}], "schedule.eps"),
    (["run", {"schedule": {"eps": "21"}}], "schedule.eps"),
    (["run", {"schedule": {"eps": [True]}}], "schedule.eps"),
    (["run", {"schedule": {"eps": ["0.2", "0.1"]}}], "schedule.eps"),
    (["run", {"scenario": {"b": float("nan")}}], "scenario.b"),
    (["run", {"scenario": {"b": float("inf")}}], "scenario.b"),
    (["run", {"scenario": {"b": "2"}}], "scenario.b"),
    (["run", {"scenario": {"b": True}}], "scenario.b"),
    (["run", {"scenario": {"name": "double-well-designed", "ratio": float("nan")}}],
     "scenario.ratio"),
    (["run", {"scenario": {"name": "double-well-designed", "ratio": "10"}}], "scenario.ratio"),
    (["hopf", "--b=nan"], "scenario.b"),
    (["solve", "--b", "nan"], "scenario.b"),
    (["run", {"analysis": {"thresholds": []}}], "analysis.thresholds"),
    (["hopf", "--b=abc"], "scenario.b"),
    (["hopf", "--b=0.5,x"], "scenario.b"),
    (["run", {"scenario": {"b": "x"}}], "scenario.b"),
    (["run", {"scenario": {"name": "double-well-designed", "ratio": "big"}}], "scenario.ratio"),
    (["run", {"seed": "x"}], "seed"),
    (["run", {"seed": -1}], "seed"),
    (["run", {"seed": True}], "seed"),
    (["run", {"seed": 2**64}], "seed"),
    (["run", {"analysis": {"rho_mesh": "x"}}], "analysis.rho_mesh"),
    (["run", {"analysis": {"rho_mesh": -3}}], "analysis.rho_mesh"),
    (["run", {"analysis": {"rho_mesh": 1}}], "analysis.rho_mesh"),
    (["run", {"analysis": {"rho_mesh": 64.0}}], "analysis.rho_mesh"),
    (["run", {"analysis": {"thresholds": {"annulus_finl": 0.5}}}], "analysis.thresholds.annulus_finl"),
    (["run", {"analysis": None}], "analysis"),
    (["run", {"analysis": {"thresholds": ["annulus_final"]}}], "analysis.thresholds"),
    (["run", {"schedule": "x"}], "schedule"),
    (["run", {"scenario": {"name": "hopf", "bb": 2.0}}], "scenario.bb"),
    (["run", {"sed": 3}], "sed"),
    (["run", {"grid": {"nz": 3}}], "grid.nz"),
    (["run", {"analysis": {"rho_msh": 4}}], "analysis.rho_msh"),
    (["run", {"schedule": {"shpe": "iso"}}], "schedule.shpe"),
    (["run", {"scenario": {"name": "double-well"},
              "analysis": {"thresholds": {"annulus_final": 0.5}}}], "analysis.thresholds"),
    (["run", {"scenario": {"name": "ou2d"}}], "scenario.name"),
    (["run", {"scenario": {"name": "double-well", "b": 1.0}}], "scenario.b"),
    (["run", {"schedule": {"invariance_mode": "bogus"}}], "schedule.invariance_mode"),
    (["run", {"output_dir": 5}], "output_dir"),
    (["run", {"output_dir": None}], "output_dir"),
    (["run", {"output_dir": ""}], "output_dir"),
    (["run", {"grid": {"nx": 16.7}}], "grid.nx"),
    (["run", {"grid": {"ny": "16"}}], "grid.ny"),
    (["solve", "--scenario", "ou2d", "--b", "5", "--grid-n", "24", "--eps", "0.2"], "scenario.b"),
    (["verify"], "config"),
    # grid values and the other number flags are checked as config sections are
    (["run", {"grid": {"x_min": True}}], "grid.x_min"),
    (["run", {"grid": {"x_min": "-2.5"}}], "grid.x_min"),
    (["run", {"grid": {"x_min": float("-inf")}}], "grid.x_min"),
    (["solve", "--x-min=-inf"], "grid.x_min"),
    (["sample", "--x-min=-1e308", "--x-max=1e308"], "grid"),
    (["design-noise", "--target", "attractor", "--ratio", "nan"], "scenario.ratio"),
    (["verify-lyapunov", "--gamma=nan"], "gamma"),
    (["verify-lyapunov", "--rho-m=nan"], "rho_m"),
]


@pytest.mark.parametrize("argv,field", _BAD_VALUES,
                         ids=[" ".join(map(str, argv)) for argv, _ in _BAD_VALUES])
def test_cli_exit_2_on_bad_value_from_outside(tmp_path, capsys, argv, field):
    out = tmp_path / "out"
    cmd, *rest = argv
    if cmd == "run":
        cfg = _hopf_config(out)
        for section, values in rest.pop().items():
            if isinstance(values, dict) and "name" not in values:
                cfg[section].update(values)
            else:  # a value, or a scenario section naming its scenario
                cfg[section] = values
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        rest = ["--config", str(p)]
    elif cmd == "verify":
        rest = ["--run", str(out)]  # a directory with no config.json
    else:
        rest += ["--out", str(out)]
    rc = main([cmd, *rest])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config field '{field}'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_run_roundtrip_and_determinism(tmp_path):
    # small but real end-to-end run; trend thresholds loosened so that the
    # coarse schedule passes and the exit code is 0
    out1 = tmp_path / "run1"
    cfg = _hopf_config(out1, thresholds={
        "annulus_final": 0.3, "origin_final": 0.1, "angular_w1_final": 0.1,
        "residual_ratio_final": 0.9,
    })
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(p)])
    assert rc == 0
    assert (out1 / "metrics.csv").exists()
    assert (out1 / "summary.json").exists()
    assert (out1 / "measure_eps0.3.json").exists()

    # config echo re-parses to an equal RunConfig
    echoed = RunConfig.from_dict(json.loads((out1 / "config.json").read_text()))
    assert echoed.to_dict() == RunConfig.from_dict(cfg).to_dict()

    # bit-identical rerun into a fresh directory
    out2 = tmp_path / "run2"
    rc = main(["run", "--config", str(p), "--out", str(out2)])
    assert rc == 0
    assert (out2 / "metrics.csv").read_bytes() == (out1 / "metrics.csv").read_bytes()
    assert (out2 / "measure_eps0.15.json").read_bytes() == (out1 / "measure_eps0.15.json").read_bytes()


# per run recipe: a grid size and every scenario, schedule and analysis key
# it reads besides name and eps, spelled out with its documented default
_SPELLED_OUT = {
    "hopf": (48, {"b": 1.0}, {"shape": "modulated", "invariance_mode": "reflecting"},
             {"dictionary": "hopf-offcycle-v1", "rho_mesh": 64, "thresholds": {
                 "annulus_final": 0.85, "origin_final": 0.02, "angular_w1_final": 0.05,
                 "residual_ratio_final": 0.05, "center_final": 0.95}}),
    "double-well": (48, {}, {"shape": "iso", "invariance_mode": "reflecting"},
                    {"dictionary": "hopf-offcycle-v1"}),
    "double-well-designed": (100, {"ratio": 10.0}, {}, {"dictionary": "hopf-offcycle-v1"}),
}


@pytest.mark.parametrize("name", sorted(_SPELLED_OUT))
def test_cli_run_spelled_out_defaults_write_the_same_files(tmp_path, name):
    n, *sections = _SPELLED_OUT[name]
    runs = {}
    for how, (scenario, schedule, analysis) in (("omitted", ({}, {}, {})), ("spelled", sections)):
        out = tmp_path / how
        cfg = {"scenario": {"name": name, **scenario},
               "grid": {"x_min": -2.5, "x_max": 2.5, "y_min": -2.5, "y_max": 2.5, "nx": n, "ny": n},
               "schedule": {"eps": [0.1, 0.05], **schedule}, "analysis": analysis,
               "output_dir": str(out)}
        p = tmp_path / f"{how}.json"
        p.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(p)])
        runs[how] = rc, {f.name: f.read_bytes() for f in sorted(out.iterdir())
                         if f.name != "config.json"}
    assert sorted(runs["spelled"][1]) == ["measure_eps0.05.json", "measure_eps0.1.json",
                                          "metrics.csv", "summary.json"]
    assert runs["spelled"] == runs["omitted"]


def test_cli_exit_1_on_impossible_threshold(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _hopf_config(out, thresholds={"annulus_final": 0.999})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(p)])
    assert rc == 1
    text = capsys.readouterr().out
    assert "FAIL" in text and "annulus_mass_final" in text


def test_cli_hopf_thread_pool_matches_one_worker(tmp_path, monkeypatch):
    # the workers share the dictionary's cached sup norms; the run directories
    # must not depend on how many there are. Both runs write to the same path,
    # which config.json echoes.
    out = tmp_path / "out"
    trees = {}
    for workers in ("2", "1"):
        monkeypatch.setenv(cli.DEFAULT_WORKERS_ENV, workers)
        assert main(["hopf", "--b=-0.5,1.0", "--grid-n", "48", "--eps", "0.3,0.15",
                     "--out", str(out)]) in (0, 1)
        trees[workers] = {p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()}
        shutil.rmtree(out)
    assert len(trees["2"]) == 2 * 5  # per b: config, 2 measures, metrics.csv, summary
    assert trees["2"] == trees["1"]


@pytest.mark.parametrize("workers", ["abc", "0", "-3"])
def test_cli_hopf_exit_2_on_bad_workers(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv(cli.DEFAULT_WORKERS_ENV, workers)
    out = tmp_path / "out"
    rc = main(["hopf", "--grid-n", "16", "--eps", "0.3", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config field '{cli.DEFAULT_WORKERS_ENV}'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_solve_default_b_is_the_scenario_default(tmp_path):
    # without --b the table's b = 1.0 is used; every document but the wall
    # times of timing.json is byte-identical
    docs = {}
    for name, flags in (("unset", []), ("set", ["--b", "1.0"])):
        out = tmp_path / name
        assert main(["solve", "--scenario", "hopf", "--eps", "0.2", "--grid-n", "24",
                     *flags, "--out", str(out)]) == 0
        docs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        timing = json.loads(docs[name].pop("timing.json"))
        assert timing["format"] == fio.FORMATS["timing"]
        assert [m["eps"] for m in timing["members"]] == [0.2]
    assert docs["unset"] == docs["set"]
    assert sorted(docs["set"]) == ["measure_eps0.2.json", "solve_summary.json"]
    assert json.loads(docs["set"]["solve_summary.json"])["params"] == {"b": 1.0}


def test_cli_solve_and_verify(tmp_path):
    out = tmp_path / "solve"
    rc = main(["solve", "--scenario", "ou2d", "--eps", "0.2,0.1", "--shape", "iso",
               "--grid-n", "48", "--x-min", "-3", "--x-max", "3",
               "--y-min", "-3", "--y-max", "3", "--out", str(out)])
    assert rc == 0
    assert (out / "measure_eps0.2.json").exists()
    summary = json.loads((out / "solve_summary.json").read_text())
    assert len(summary["reports"]) == 2
    assert all(r["residual"] < 1e-8 for r in summary["reports"])


@pytest.mark.parametrize("b", [1.0, 0.5])
def test_cli_verify_uses_the_run_dictionary(tmp_path, b):
    # a config without analysis.dictionary is verified against the dictionary
    # and drift it was run with, so verify reproduces the run's invariance
    # residuals
    out = tmp_path / "run"
    cfg = _hopf_config(out, nx=48)
    cfg["scenario"]["b"] = b
    del cfg["analysis"]["dictionary"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    main(["run", "--config", str(p)])
    assert main(["verify", "--run", str(out)]) == 0
    run_rows = json.loads((out / "summary.json").read_text())["metrics"]
    verify_rows = json.loads((out / "verify.json").read_text())["rows"]
    assert [r["residual_max"] for r in verify_rows] == [r["residual_max"] for r in run_rows]


def test_cli_verify_designed_run(tmp_path):
    # a designed run writes one measure per eps, of its designed family, and
    # verify reads them against the double-well drift the run solved
    out = tmp_path / "run"
    cfg = {
        "scenario": {"name": "double-well-designed", "ratio": 10.0},
        "grid": {"x_min": -2.5, "x_max": 2.5, "y_min": -2.5, "y_max": 2.5,
                 "nx": 100, "ny": 100},
        "schedule": {"eps": [0.1, 0.05, 0.02]},
        "output_dir": str(out),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 0
    assert main(["verify", "--run", str(out)]) == 0
    verify_rows = json.loads((out / "verify.json").read_text())["rows"]
    assert [r["eps"] for r in verify_rows] == [0.1, 0.05, 0.02]
    summary = json.loads((out / "summary.json").read_text())
    for eps, row in zip(summary["eps"], summary["metrics"]):
        mu = fio.measure_from_document(fio.load_document(out / f"measure_eps{eps!r}.json"))
        xx, _ = mu.grid.centers()
        assert float(mu.weights[xx < 0.0].sum()) == row["designed_mass"]


def test_cli_sample_runs(tmp_path):
    out = tmp_path / "mc"
    rc = main(["sample", "--scenario", "ou2d", "--eps", "0.2", "--shape", "iso",
               "--grid-n", "24", "--x-min", "-3", "--x-max", "3",
               "--y-min", "-3", "--y-max", "3", "--dt", "0.01",
               "--t-total", "20", "--n-paths", "8", "--out", str(out)])
    assert rc == 0
    assert (out / "occupation_eps0.2.json").exists()


def test_cli_sample_is_one_sampler_call_matching_one_member_calls(tmp_path, monkeypatch):
    # the benchmark stamps its set-up time at the first call into
    # occupation_measure and reads n_steps from the second element it returns
    results = []

    def counting(*args, **kwargs):
        results.append(occupation_measure(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "occupation_measure", counting)
    out = tmp_path / "mc"
    rc = main(["sample", "--scenario", "hopf", "--eps", "0.2,0.1,0.05", "--shape", "modulated",
               "--grid-n", "24", "--dt", "0.01", "--t-total", "10", "--n-paths", "6",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    assert len(results) == 1
    assert results[0][1]["n_steps"] == 1000
    grid = Grid2D(-2.5, 2.5, -2.5, 2.5, 24, 24)
    sched = build_schedule(grid, (0.2, 0.1, 0.05), "modulated")
    cfg = SamplerConfig(dt=0.01, t_total=10.0, n_paths=6, rng_seed=4)
    summary = json.loads((out / "sample_summary.json").read_text())
    assert summary["shape"] == "modulated"
    for (eps, a), diag in zip(sched, summary["diagnostics"]):
        (mu,), one = occupation_measure(make_scenario("hopf", grid, b=1.0).drift_fn, [a], grid, cfg)
        doc = fio.load_document(out / f"occupation_eps{eps!r}.json")
        assert np.array_equal(fio.measure_from_document(doc).weights, mu.weights)
        assert diag == {"eps": eps, **one["members"][0]}


def test_cli_design_noise(tmp_path):
    out = tmp_path / "design"
    rc = main(["design-noise", "--target", "attractor", "--scenario", "double-well",
               "--ratio", "10", "--eps", "0.1,0.05", "--grid-n", "100",
               "--out", str(out)])
    assert rc == 0
    shaping = json.loads((out / "shaping.json").read_text())
    assert shaping["ratio"] == 10
    assert min(shaping["shaping"]) >= 0.1 - 1e-12


def test_cli_design_noise_rejects_ratio_one(tmp_path, capsys):
    out = tmp_path / "design"
    rc = main(["design-noise", "--target", "attractor", "--scenario", "double-well",
               "--ratio", "1", "--eps", "0.1,0.05", "--grid-n", "100",
               "--out", str(out)])
    # an infeasible design raises a package error (not a config error), which
    # main maps to exit code 1
    assert rc == 1
    assert not (out / "shaping.json").exists()
    assert "shaping ratio 1.0" in capsys.readouterr().err


def test_cli_run_designed_ratio_one_fails(tmp_path, capsys):
    # R = 1 is no shaping; the run must fail instead of passing with no assertions
    out = tmp_path / "out"
    cfg = {
        "scenario": {"name": "double-well-designed", "ratio": 1},
        "grid": {"x_min": -2.5, "x_max": 2.5, "y_min": -2.5, "y_max": 2.5,
                 "nx": 100, "ny": 100},
        "schedule": {"eps": [0.1, 0.05]},
        "output_dir": str(out),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(p)])
    assert rc == 1
    assert not (out / "summary.json").exists()
    assert "shaping ratio" in capsys.readouterr().err


def test_cli_find_attractor(tmp_path):
    out = tmp_path / "attr"
    rc = main(["find-attractor", "--scenario", "hopf", "--b", "1.0",
               "--grid-n", "48", "--t-end", "40", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "attractor.json").read_text())
    assert doc["format"] == fio.FORMATS["attractor"]
    assert doc["kind"] == "global-attractor"
    assert sum(doc["mask"]) > 0


def test_cli_find_attractor_reverse_finds_hopf_repeller(tmp_path):
    # seeded over the whole interior, the points outside the unit cycle blow
    # up in reverse time; the repeller recipe's ball keeps them near the origin
    out = tmp_path / "rep"
    rc = main(["find-attractor", "--reverse", "--scenario", "hopf", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "attractor.json").read_text())
    assert doc["kind"] == "local-repeller"
    grid = grid_from_metadata(doc["grid"])
    mask = np.array(doc["mask"], dtype=bool).reshape(grid.nx, grid.ny)
    assert mask[grid.cell_index(0.0, 0.0)]
    assert mask.sum() <= 16


@pytest.mark.parametrize("scenario", ["double-well", "ou2d"])
def test_cli_find_attractor_reverse_without_repeller_recipe(tmp_path, capsys, scenario):
    out = tmp_path / "rep"
    rc = main(["find-attractor", "--reverse", "--scenario", scenario, "--grid-n", "48",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no repeller recipe" in err
    assert "non-finite" not in err and "Traceback" not in err
    assert not out.exists()


def test_cli_verify_lyapunov(tmp_path):
    out = tmp_path / "cert"
    rc = main(["verify-lyapunov", "--scenario", "hopf", "--rho-m", "1.5",
               "--gamma", "1.5", "--grid-n", "64", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["format"] == fio.FORMATS["certificate"]
    assert doc["passed"] is True
    rc2 = main(["verify-lyapunov", "--scenario", "hopf", "--rho-m", "0.2",
                "--gamma", "5.0", "--grid-n", "64", "--out", str(out)])
    assert rc2 == 1
    # no cell has U > 1e9: an empty check is no pass
    assert main(["verify-lyapunov", "--rho-m=1e9", "--grid-n", "64", "--out", str(out)]) == 1


# (argv without --out, exit code): commands that factor no matrix
_SCIPY_FREE = [
    (["sample", "--scenario", "hopf", "--eps", "0.2,0.1", "--grid-n", "24", "--dt", "0.01",
      "--t-total", "5", "--n-paths", "4"], 0),
    (["find-attractor", "--scenario", "hopf", "--grid-n", "32", "--ensemble", "32",
      "--t-end", "10"], 0),
    (["find-attractor", "--reverse", "--scenario", "hopf", "--grid-n", "32", "--ensemble", "32",
      "--t-end", "10"], 0),
    (["verify-lyapunov", "--scenario", "hopf", "--rho-m", "1.5", "--gamma", "1.5",
      "--grid-n", "32"], 0),
    (["verify-lyapunov", "--scenario", "hopf", "--rho-m", "0.2", "--gamma", "5.0",
      "--grid-n", "32"], 1),
    (["design-noise", "--target", "attractor", "--scenario", "double-well",
      "--eps", "0.1,0.05", "--grid-n", "100"], 0),
]


def test_commands_that_never_solve_load_no_scipy(tmp_path, fresh_python):
    # fpe imports scipy's sparse modules on first use and design imports
    # scipy.linalg inside its one caller, so a fresh interpreter that imports
    # the CLI and runs only these commands never loads scipy
    script = (
        "import json, sys\n"
        "import fplab.cli, fplab.fpe\n"
        "rcs = [fplab.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([rcs, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    argvs = [[*argv, "--out", str(tmp_path / str(k))] for k, (argv, _) in enumerate(_SCIPY_FREE)]
    rcs, loaded = json.loads(fresh_python(script, json.dumps(argvs)).splitlines()[-1])
    assert rcs == [rc for _, rc in _SCIPY_FREE]
    assert loaded == []
