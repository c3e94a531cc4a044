import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from fplab import cli
from fplab import io as fio
from fplab.cli import main
from fplab.errors import ConfigError
from fplab.fields import DiscreteMeasure
from fplab.grid import Grid2D, grid_from_metadata
from fplab.sampler import SamplerConfig, occupation_measure
from fplab.scenarios import RunConfig, build_schedule, make_scenario


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


def _standard_json(path):
    """The document at ``path``, read as standard JSON: NaN and Infinity are refused."""
    def refuse(token):
        raise ValueError(f"{token} is not standard JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


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


def _designed_config(out_dir, **analysis):
    # the [-2, 2]^2 box at 100^2: the corner bumps of hopf-offcycle-v1, the
    # default dictionary, reach the boundary-adjacent cells
    return {"scenario": {"name": "double-well-designed"},
            "grid": {"x_min": -2.0, "x_max": 2.0, "y_min": -2.0, "y_max": 2.0,
                     "nx": 100, "ny": 100},
            "schedule": {"eps": [0.16, 0.12]},
            "analysis": analysis, "output_dir": str(out_dir)}


def test_cli_run_refuses_a_dictionary_that_does_not_fit_under_every_recipe(tmp_path, capsys):
    # a recipe that reads no dictionary itself still refuses one that does
    # not fit: `fplab verify` reads it, and would refuse the run directory
    out = tmp_path / "out"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_designed_config(out)))
    assert main(["run", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "config field 'analysis.dictionary'" in err
    assert "Traceback" not in err
    assert not out.exists()
    # with a dictionary that fits, the same run is written and verified
    p.write_text(json.dumps(_designed_config(out, dictionary="grid3x3-v1")))
    assert main(["run", "--config", str(p)]) == 0
    assert main(["verify", "--run", str(out)]) == 0


def _uniform_run_dir(out):
    """A run directory of a 48^2 Hopf config holding one uniform measure, at eps 0.2."""
    fio.save_document(_hopf_config(out, nx=48), out / "config.json")
    fio.save_document({"eps": [0.2]}, out / "summary.json")
    mu = DiscreteMeasure(Grid2D(-2.5, 2.5, -2.5, 2.5, 48, 48), np.full((48, 48), 1.0 / 48**2))
    fio.save_document(fio.measure_to_document(mu), out / "measure_eps0.2.json")


# (command, file, its text, field named on stderr)
_MALFORMED = [
    ("run", "cfg.json", "5", "config"),
    ("run", "cfg.json", "[1, 2]", "config"),
    ("verify", "summary.json", "{}", "summary"),
    ("verify", "summary.json", '{"eps": 0.2}', "summary"),
    ("verify", "measure_eps0.2.json", "[1, 2]", "run"),
    ("verify", "measure_eps0.2.json", "{}", "run"),
    ("verify", "measure_eps0.2.json", '{"grid": [], "weights": []}', "run"),
]


@pytest.mark.parametrize("cmd,name,text,field", _MALFORMED,
                         ids=[f"{cmd}-{name}-{text}" for cmd, name, text, _ in _MALFORMED])
def test_cli_exit_2_on_malformed_document(tmp_path, capsys, cmd, name, text, field):
    out = tmp_path / "run"
    if cmd == "verify":
        _uniform_run_dir(out)
        assert main(["verify", "--run", str(out)]) == 0  # the well-formed directory
        capsys.readouterr()
        (out / name).write_text(text)
        argv = ["verify", "--run", str(out)]
    else:
        (tmp_path / name).write_text(text)
        argv = ["run", "--config", str(tmp_path / name)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err
    assert "Traceback" not in err


def test_cli_verify_refuses_a_1d_measure(tmp_path, capsys):
    # every grid is 2D: a 1D grid header, which no fplab command writes, is
    # not a measure document
    out = tmp_path / "run"
    _uniform_run_dir(out)
    fio.save_document({"format": "fplab/measure@1", "weights": [1 / 32] * 32,
                       "grid": {"kind": "grid1d", "x_min": -4.0, "x_max": 4.0, "nx": 32}},
                      out / "measure_eps0.2.json")
    assert main(["verify", "--run", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config field 'run'" in err and "unknown grid kind 'grid1d'" in err


@pytest.mark.parametrize("key,value", [("shape", "bogus"), ("invariance_mode", "sideways")])
def test_cli_verify_refuses_a_schedule_name_that_run_refuses(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    _uniform_run_dir(out)
    cfg = _hopf_config(out, nx=48)
    cfg["schedule"][key] = value
    fio.save_document(cfg, out / "config.json")
    for argv in (["verify", "--run", str(out)], ["run", "--config", str(out / "config.json")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config field 'schedule.{key}'" in err
        assert "Traceback" not in err


def test_cli_exit_2_on_isolating_data_that_does_not_fit(tmp_path, capsys):
    # hopf at b = -0.5 has an attracting origin, so its repeller recipe
    # certifies the other kind; on x in [1.5, 2.5] the double well's recipe
    # level set misses the grid
    cfg = {"scenario": {"name": "double-well-designed"},
           "grid": {"x_min": 1.5, "x_max": 2.5, "y_min": -2.5, "y_max": 2.5, "nx": 32, "ny": 32},
           "schedule": {"eps": [0.1, 0.05]}, "analysis": {"dictionary": "grid3x3-v1"},
           "output_dir": str(tmp_path / "run")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    for argv, why in (
        (["design-noise", "--scenario", "hopf", "--target", "repeller", "--b=-0.5",
          "--grid-n", "64", "--out", str(tmp_path / "design")], "certifies 'attractor'"),
        (["run", "--config", str(tmp_path / "cfg.json")], "does not intersect the grid"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config field 'scenario'" in err and why in err
        assert "Traceback" not in err
    assert not (tmp_path / "design").exists() and not (tmp_path / "run").exists()


def test_cli_solve_names_the_non_finite_drift_array(tmp_path, capsys):
    # x^2 overflows at |x| ~ 1e200: the sampled drift reports its first bad
    # cell and array, and no floating-point warning leaks out of the sampling
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["solve", "--scenario", "hopf", "--eps", "0.1", "--x-min=-1e200",
                   "--x-max=1e200", "--grid-n", "8", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'vx'" in err
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught] == []


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
    (["solve", "--scenario", "ou2d", "--eps", "0.1", "--x-min", "0", "--x-max", "5e-324",
      "--grid-n", "8"], "grid"),
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
    # two jobs of one b would write one b1.0 directory
    (["hopf", "--b=1.0,1", "--grid-n", "48", "--eps", "0.3"], "scenario.b"),
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


def test_cli_hopf_b_with_no_bound_level_fails_and_writes(tmp_path, capsys):
    # at b = 3, rho_m = 4.5 leaves the exterior bound no level to check: that
    # b fails its verdict, and every b still writes its run directory
    out = tmp_path / "out"
    rc = main(["hopf", "--b", "3.0,1.0", "--grid-n", "48", "--eps", "0.3,0.15",
               "--out", str(out)])
    assert rc == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = _standard_json(out / "b3.0" / "summary.json")
    verdicts = {a["name"]: a for a in summary["assertions"]}
    assert verdicts["exterior_bound_all_ok"]["passed"] is False
    # the margin over no level is infinite, which standard JSON writes as null
    assert verdicts["exterior_bound_all_ok"]["value"] is None
    assert [row["exterior_bound_margin"] for row in summary["metrics"]] == [None, None]
    assert (out / "b1.0" / "summary.json").exists()


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


def test_cli_solve_writes_the_members_it_solved(tmp_path, capsys):
    # at 32^2 the eps = 0.005 member overflows the stencil: its report holds the
    # error, it writes no measure, and the command exits 1
    out = tmp_path / "solve"
    rc = main(["solve", "--scenario", "hopf", "--eps", "0.2,0.005", "--grid-n", "32",
               "--out", str(out)])
    assert rc == 1
    assert "solved 1/2" in capsys.readouterr().out
    reports = json.loads((out / "solve_summary.json").read_text())["reports"]
    assert [r["eps"] for r in reports] == [0.2, 0.005]
    assert "StencilOverflowError" in reports[1]["error"]
    assert sorted(p.name for p in out.iterdir()) == [
        "measure_eps0.2.json", "solve_summary.json", "timing.json"]


def test_cli_run_and_verify_a_partial_run(tmp_path, capsys):
    # the eps = 0.003 member overflows the stencil at 48^2: the run records its
    # error and exits 1, and verify reads the one member the run solved
    out = tmp_path / "run"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_hopf_config(out, nx=48, eps=(0.2, 0.003))))
    assert main(["run", "--config", str(p)]) == 1
    assert "ERROR eps=0.003: StencilOverflowError" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["eps"] == [0.2]
    assert [e["eps"] for e in summary["errors"]] == [0.003]
    assert main(["verify", "--run", str(out)]) == 0
    assert [r["eps"] for r in json.loads((out / "verify.json").read_text())["rows"]] == [0.2]
    # a run directory without its summary is a config error
    (out / "summary.json").unlink()
    assert main(["verify", "--run", str(out)]) == 2
    assert "config field 'summary'" in capsys.readouterr().err


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
    # no cell has U > 1e9: an empty check is no pass, with no finite worst margin
    assert main(["verify-lyapunov", "--rho-m=1e9", "--grid-n", "64", "--out", str(out)]) == 1
    assert _standard_json(out / "certificate.json")["worst_margin"] is None


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
