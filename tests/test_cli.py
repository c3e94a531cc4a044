import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from fplab import analysis, cli, scenarios
from fplab import io as fio
from fplab.cli import main
from fplab.errors import ConfigError
from fplab.grid import Grid2D, grid_from_metadata
from fplab.sampler import SamplerConfig, occupation_measure
from fplab.scenarios import _SOLVE_KEYS, RunConfig, build_schedule, make_scenario


def _standard_json(path):
    """The document at ``path``, read as standard JSON: NaN and Infinity are refused."""
    def refuse(token):
        raise ValueError(f"{token} is not standard JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_config_validation_errors(run_config):
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
            RunConfig.from_dict(run_config("x", thresholds={"annulus_final": value}))
        assert exc.value.field == "analysis.thresholds.annulus_final"
    # the largest seed and the smallest level mesh are accepted
    cfg = run_config("x")
    cfg["seed"] = 2**64 - 1
    cfg["analysis"]["rho_mesh"] = 2
    assert RunConfig.from_dict(cfg).seed == 2**64 - 1


def test_cli_exit_2_on_bad_config(tmp_path, capsys, run_config):
    cfg = run_config(tmp_path / "out")
    cfg["schedule"]["eps"] = [0.1, 0.2]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(p)])
    assert rc == 2
    assert "schedule.eps" in capsys.readouterr().err


def test_cli_exit_2_when_grid_cannot_hold_dictionary(tmp_path, capsys, run_config):
    # box +-2.2 at 32^2: the corner bumps of hopf-offcycle-v1 reach the
    # boundary-adjacent cells
    out = tmp_path / "out"
    cfg = run_config(out, nx=32)
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


def _small_run_dir(run_config, out):
    """The run directory of a 48^2 Hopf config at one eps, 0.2, as ``fplab run`` writes it."""
    fio.save_document(run_config(out, nx=48, eps=(0.2,)), out.with_suffix(".json"))
    assert main(["run", "--config", str(out.with_suffix(".json"))]) == 0


def _double_well_run_dir(run_config, out):
    """The run directory of a 48^2 double-well config at eps 0.2 and 0.1, as ``fplab run``
    writes it: a run that records no assertion."""
    fio.save_document(run_config(out, nx=48, eps=(0.2, 0.1), scenario={"name": "double-well"},
                                 shape="iso"), out.with_suffix(".json"))
    assert main(["run", "--config", str(out.with_suffix(".json"))]) == 0


def _designed_run_dir(run_config, out):
    """The run directory of a 100^2 double-well-designed config at eps 0.1 and 0.05, as
    ``fplab run`` writes it: a measure and a control document per eps."""
    cfg = run_config(out, nx=100, eps=(0.1, 0.05), scenario={"name": "double-well-designed"})
    del cfg["schedule"]["shape"]  # the recipe reads none
    fio.save_document(cfg, out.with_suffix(".json"))
    assert main(["run", "--config", str(out.with_suffix(".json"))]) == 0


def nan_weight(doc):
    return {**doc, "weights": [float("nan"), *doc["weights"][1:]]}


def other_grid(doc):
    return {**doc, "grid": {**doc["grid"], "x_min": -2.4}}


def retagged(doc):
    return {**doc, "format": fio.FORMATS["diffusion_field"]}


def no_metrics(doc):
    return {k: v for k, v in doc.items() if k != "metrics"}


def metrics_not_a_list(doc):
    return {**doc, "metrics": doc["metrics"][0]}


def metrics_per_other_eps(doc):
    return {**doc, "metrics": doc["metrics"] * 2}


def assertions_not_a_list(doc):
    return {**doc, "assertions": {}}


def eps_not_of_the_config(doc):
    return {**doc, "eps": [0.25]}


def unchecked_not_a_number(doc):
    return {**doc, "metrics": [{**doc["metrics"][0], "solve_residual": None}]}


# edits of a double-well summary at eps 0.2 and 0.1, whose eps and errors no longer
# split the config eps; the run records no assertion that would differ
def repeated_eps(doc):
    return {**doc, "eps": [0.2, 0.2], "metrics": [doc["metrics"][0]] * 2}


def eps_out_of_order(doc):
    return {**doc, "eps": doc["eps"][::-1], "metrics": doc["metrics"][::-1]}


def solved_member_dropped(doc):
    return {**doc, "eps": [0.2], "metrics": doc["metrics"][:1]}


def error_for_a_solved_eps(doc):
    return {**doc, "errors": [{"eps": 0.1, "error": "StencilOverflowError()"}]}


def repeated_eps_and_invented_error(doc):
    return {**repeated_eps(doc), **error_for_a_solved_eps(doc)}


def error_without_a_message(doc):
    return {**solved_member_dropped(doc), "errors": [{"eps": 0.1}]}


def no_errors(doc):
    return {k: v for k, v in doc.items() if k != "errors"}


def errors_not_a_list(doc):
    return {**doc, "errors": {}}


_ON_DOUBLE_WELL = (repeated_eps, eps_out_of_order, solved_member_dropped, error_for_a_solved_eps,
                   repeated_eps_and_invented_error, error_without_a_message, no_errors,
                   errors_not_a_list)


# (command, file, its text, an edit of the well-formed document or None for no file,
# field named on stderr); a control document is a designed run's, and the edits of
# _ON_DOUBLE_WELL a double-well run's
_MALFORMED = [
    ("run", "cfg.json", "5", "config"),
    ("run", "cfg.json", "[1, 2]", "config"),
    ("verify", "summary.json", "{}", "summary"),
    ("verify", "summary.json", '{"eps": 0.2}', "summary"),
    ("verify", "summary.json", no_metrics, "summary"),
    ("verify", "summary.json", metrics_not_a_list, "summary"),
    ("verify", "summary.json", metrics_per_other_eps, "summary"),
    ("verify", "summary.json", assertions_not_a_list, "summary"),
    ("verify", "summary.json", unchecked_not_a_number, "summary"),
    ("verify", "summary.json", eps_not_of_the_config, "summary"),
    *(("verify", "summary.json", edit, "summary") for edit in _ON_DOUBLE_WELL),
    ("verify", "metrics.csv", None, "run"),
    ("verify", "measure_eps0.2.json", "[1, 2]", "run"),
    ("verify", "measure_eps0.2.json", "{}", "run"),
    ("verify", "measure_eps0.2.json", '{"grid": [], "weights": []}', "run"),
    ("verify", "measure_eps0.2.json", nan_weight, "run"),
    ("verify", "measure_eps0.2.json", other_grid, "run"),
    ("verify", "measure_eps0.2.json", retagged, "run"),
    ("verify", "control_eps0.05.json", None, "run"),
    ("verify", "control_eps0.05.json", "[1, 2]", "run"),
    ("verify", "control_eps0.05.json", other_grid, "run"),
]


@pytest.mark.parametrize("cmd,name,text,field", _MALFORMED,
                         ids=[f"{cmd}-{name}-{getattr(text, '__name__', text)}"
                              for cmd, name, text, _ in _MALFORMED])
def test_cli_exit_2_on_malformed_document(tmp_path, capsys, cmd, name, text, field, run_config):
    out = tmp_path / "run"
    if cmd == "verify":
        (_designed_run_dir if name.startswith("control") else _double_well_run_dir
         if text in _ON_DOUBLE_WELL else _small_run_dir)(run_config, out)
        assert main(["verify", "--run", str(out)]) == 0  # the well-formed directory
        capsys.readouterr()
        if callable(text):
            text = json.dumps(text(json.loads((out / name).read_text())))
        if text is None:
            (out / name).unlink()
        else:
            (out / name).write_text(text)
        argv = ["verify", "--run", str(out)]
    else:
        (tmp_path / name).write_text(text)
        argv = ["run", "--config", str(tmp_path / name)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err
    assert "Traceback" not in err


def test_cli_verify_refuses_a_1d_measure(tmp_path, capsys, run_config):
    # every grid is 2D: a 1D grid header, which no fplab command writes, is
    # not a measure document
    out = tmp_path / "run"
    _small_run_dir(run_config, out)
    fio.save_document({"format": "fplab/measure@1", "weights": [1 / 32] * 32,
                       "grid": {"kind": "grid1d", "x_min": -4.0, "x_max": 4.0, "nx": 32}},
                      out / "measure_eps0.2.json")
    assert main(["verify", "--run", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config field 'run'" in err and "unknown grid kind 'grid1d'" in err


@pytest.mark.parametrize("key,value", [("shape", "bogus"), ("invariance_mode", "sideways")])
def test_cli_verify_refuses_a_schedule_name_that_run_refuses(tmp_path, capsys, key, value, run_config):
    out = tmp_path / "run"
    _small_run_dir(run_config, out)
    cfg = run_config(out, nx=48)
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
    (["run", {"analysis": {"thresholds": None}}], "analysis.thresholds"),
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
def test_cli_exit_2_on_bad_value_from_outside(tmp_path, capsys, argv, field, run_config):
    out = tmp_path / "out"
    cmd, *rest = argv
    if cmd == "run":
        cfg = run_config(out)
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


def test_cli_run_roundtrip_and_determinism(tmp_path, run_config):
    # small but real end-to-end run; trend thresholds loosened so that the
    # coarse schedule passes and the exit code is 0
    out1 = tmp_path / "run1"
    cfg = run_config(out1, thresholds={
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
    # the designed run also writes the measures of its isotropic control
    controls = ["control_eps0.05.json", "control_eps0.1.json"] if name == "double-well-designed" else []
    assert sorted(runs["spelled"][1]) == [*controls, "measure_eps0.05.json", "measure_eps0.1.json",
                                          "metrics.csv", "summary.json"]
    assert runs["spelled"] == runs["omitted"]


def test_cli_exit_1_on_impossible_threshold(tmp_path, capsys, run_config):
    out = tmp_path / "out"
    cfg = run_config(out, thresholds={"annulus_final": 0.999})
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
    for workers in (2, 1):
        monkeypatch.setattr(cli, "_cpus", lambda: workers)
        assert main(["hopf", "--b=-0.5,1.0", "--grid-n", "48", "--eps", "0.3,0.15",
                     "--out", str(out)]) in (0, 1)
        trees[workers] = {p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()}
        shutil.rmtree(out)
    assert len(trees[2]) == 2 * 5  # per b: config, 2 measures, metrics.csv, summary
    assert trees[2] == trees[1]
    assert json.loads(trees[1][Path("b1.0", "config.json")])["seed"] == 0


@pytest.mark.parametrize("cpus,bs,workers", [(1, "0.5,1.0", 1), (2, "-0.5,0.5,1.0,1.5", 2),
                                             (8, "0.5,1.0", 2)])
def test_cli_hopf_pool_is_sized_by_the_usable_cpus(tmp_path, monkeypatch, cpus, bs, workers):
    # one thread per b, but no more than the CPUs the process may run on
    sizes = []

    class Recording(cli.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
    assert main(["hopf", f"--b={bs}", "--grid-n", "48", "--eps", "0.3",
                 "--out", str(tmp_path / "out")]) in (0, 1)
    assert sizes == [workers]


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


def test_cli_hopf_has_no_seed_flag(tmp_path, capsys):
    # no run is random, so there is no seed to set; argparse refuses the flag
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["hopf", "--seed", "0", "--grid-n", "48", "--eps", "0.3", "--out", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config"], ["hopf", "--grid-n", "48", "--eps", "0.3"],
    ["solve", "--eps", "0.2", "--grid-n", "48"], ["sample", "--grid-n", "16", "--eps", "0.1"],
    ["design-noise", "--target", "attractor"], ["find-attractor"], ["verify-lyapunov"],
], ids=lambda argv: argv[0])
def test_cli_empty_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, run_config, argv):
    # an empty --out would write into the current directory, as an empty
    # output_dir would; fplab run refuses it rather than fall back to the config's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(run_config(tmp_path / "cfg_out")))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    rc = main([*argv, *([str(cfg)] if argv[0] == "run" else []), "--out", ""])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config field 'output_dir'" in err and "Traceback" not in err
    assert list(cwd.iterdir()) == [] and not (tmp_path / "cfg_out").exists()


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


def test_cli_run_and_verify_a_partial_run(tmp_path, capsys, run_config):
    # the eps = 0.003 member overflows the stencil at 48^2: the run records its
    # error and exits 1, and verify reads the one member the run solved
    out = tmp_path / "run"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(run_config(out, nx=48, eps=(0.2, 0.003))))
    assert main(["run", "--config", str(p)]) == 1
    assert "ERROR eps=0.003: StencilOverflowError" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["eps"] == [0.2]
    assert [e["eps"] for e in summary["errors"]] == [0.003]
    assert _verified(out) == (0, None)  # the solved member's row, and the failed one's error
    # a run directory without its summary is a config error
    (out / "summary.json").unlink()
    assert main(["verify", "--run", str(out)]) == 2
    assert "config field 'summary'" in capsys.readouterr().err


def _verified(run_dir):
    """The exit code of ``fplab verify`` on ``run_dir`` and the mismatch it names; verify
    writes verify.json alone."""
    rc = main(["verify", "--run", str(run_dir)])
    doc = json.loads((run_dir / "verify.json").read_text())
    assert doc == {"format": fio.FORMATS["verify"], "mismatch": doc["mismatch"],
                   "unchecked": list(_SOLVE_KEYS)}
    assert not (run_dir / "verify.csv").exists()
    return rc, doc["mismatch"]


@pytest.mark.parametrize("name", sorted(_SPELLED_OUT))
def test_cli_verify_rederives_the_run_of_each_recipe(tmp_path, name, run_config):
    # verify calls the recipe's analysis on the stored measures of each family and
    # gets every part of the summary back; a member row holds exactly the metrics its
    # measures give and the solve keys, which verify.json lists as unchecked, so a
    # metric added to a recipe is re-derived
    out = tmp_path / "run"
    n = _SPELLED_OUT[name][0]
    p = tmp_path / "cfg.json"
    raw = run_config(out, nx=n, eps=(0.1, 0.05), scenario={"name": name})
    del raw["schedule"]["shape"]  # each recipe's own default
    p.write_text(json.dumps(raw))
    assert main(["run", "--config", str(p)]) in (0, 1)
    assert _verified(out) == (0, None)
    cfg = RunConfig.from_dict(fio.load_document(out / "config.json"))
    families, _, metrics, _ = cfg.resolved.analyze(cfg, cfg.solved.vector_field(cfg.domain))
    assert list(families)[0] == "measure"
    summary = fio.load_document(out / "summary.json")
    for eps, row in zip(summary["eps"], summary["metrics"]):
        mus = [fio.measure_from_document(fio.load_document(out / f"{prefix}_eps{eps!r}.json"))
               for prefix in families]
        assert list(row) == [*metrics(eps, *mus), *_SOLVE_KEYS]


def test_cli_verify_rederives_each_b_of_a_hopf_sweep(tmp_path):
    out = tmp_path / "out"
    assert main(["hopf", "--b=-0.5,1.0", "--grid-n", "48", "--eps", "0.3,0.15",
                 "--out", str(out)]) in (0, 1)
    assert [d.name for d in sorted(out.iterdir())] == ["b-0.5", "b1.0"]
    for run_dir in sorted(out.iterdir()):
        assert _verified(run_dir) == (0, None)


def _moved(path, to):
    """1e-9 of mass moved in the measure document at ``path`` from its heaviest cell k
    to the cell to(k, number of cells)."""
    doc = fio.load_document(path)
    w = doc["weights"]
    k = int(np.argmax(w))
    j = to(k, len(w))
    w[k], w[j] = w[k] - 1e-9, w[j] + 1e-9
    fio.save_document(doc, path)


def moved_weight(run_dir):
    """1e-9 of mass moved from the heaviest cell of the eps = 0.15 measure to its first cell."""
    _moved(run_dir / "measure_eps0.15.json", lambda k, n: 0)


def moved_control_weight(run_dir):
    """1e-9 of mass moved in a designed run's eps = 0.05 control measure, from its heaviest
    cell to the cell half the grid away in x, across the basin boundary x = 0."""
    _moved(run_dir / "control_eps0.05.json", lambda k, n: (k + n // 2) % n)


def _edited(run_dir, key):
    path = run_dir / "summary.json"
    doc = fio.load_document(path)
    doc["metrics"][0][key] += 1e-12
    fio.save_document(doc, path)


def edited_metric(run_dir):
    _edited(run_dir, "mass_annulus")


def edited_uniform_mass(run_dir):
    _edited(run_dir, "uniform_mass")  # a designed run's, which its control measures give


def flipped_verdict(run_dir):
    path = run_dir / "summary.json"
    doc = fio.load_document(path)
    doc["assertions"][0]["passed"] = not doc["assertions"][0]["passed"]
    fio.save_document(doc, path)


def _summary_edited(run_dir, **parts):
    path = run_dir / "summary.json"
    fio.save_document({**fio.load_document(path), **parts}, path)


def edited_scenario(run_dir):
    _summary_edited(run_dir, scenario="double-well")


def edited_format(run_dir):
    _summary_edited(run_dir, format="fplab/scenario-result@2")


def added_key(run_dir):
    _summary_edited(run_dir, note="checked by hand")


def edited_table_eps(run_dir):
    """The first eps of metrics.csv, 0.3, edited to 0.2."""
    path = run_dir / "metrics.csv"
    header, first, *rest = path.read_text().split("\n")
    assert first.startswith("0.3,")
    path.write_text("\n".join([header, "0.2" + first[3:], *rest]))


@pytest.mark.parametrize("tamper,mismatch", [(moved_weight, "metrics[1]"),
                                             (edited_metric, "metrics[0]"),
                                             (flipped_verdict, "assertions"),
                                             (moved_control_weight, "metrics[1]"),
                                             (edited_uniform_mass, "metrics[0]"),
                                             (edited_scenario, "scenario"),
                                             (edited_format, "format"),
                                             (added_key, "note"),
                                             (edited_table_eps, "metrics.csv")],
                         ids=lambda x: getattr(x, "__name__", x))
def test_cli_verify_names_the_first_mismatch(tmp_path, capsys, run_config, tamper, mismatch):
    out = tmp_path / "run"
    if tamper in (moved_control_weight, edited_uniform_mass):
        _designed_run_dir(run_config, out)
    else:
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(run_config(out, nx=48)))
        assert main(["run", "--config", str(p)]) in (0, 1)
    assert _verified(out) == (0, None)
    capsys.readouterr()
    tamper(out)
    assert _verified(out) == (1, mismatch)
    assert f"MISMATCH: {mismatch} differs" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(_SPELLED_OUT))
def test_cli_verify_computes_only_the_metrics_of_the_recipe(tmp_path, monkeypatch, run_config, name):
    # verify computes no metric of its own: an invariance residual and an angular W1
    # are computed once per measure by the Hopf analysis, and never for a double well
    out = tmp_path / "run"
    raw = run_config(out, nx=_SPELLED_OUT[name][0], eps=(0.1, 0.05), scenario={"name": name})
    del raw["schedule"]["shape"]  # each recipe's own default
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert main(["run", "--config", str(p)]) in (0, 1)
    calls = []
    for module in (analysis, cli, scenarios):
        for fn_name in ("invariance_residual", "angular_w1_to_uniform"):
            if hasattr(module, fn_name):
                def counted(*args, fn=getattr(module, fn_name), fn_name=fn_name):
                    calls.append(fn_name)
                    return fn(*args)
                monkeypatch.setattr(module, fn_name, counted)
    assert _verified(out) == (0, None)
    assert fio.load_document(out / "summary.json")["eps"] == [0.1, 0.05]
    n = 2 if name == "hopf" else 0  # one of each per stored Hopf measure
    assert sorted(calls) == ["angular_w1_to_uniform"] * n + ["invariance_residual"] * n


def test_cli_designed_control_is_the_isotropic_solve(tmp_path, run_config):
    # the control documents of a designed run are byte for byte the measures that
    # `fplab solve --shape iso` writes for the double well on the same grid and eps
    _designed_run_dir(run_config, tmp_path / "run")
    assert main(["solve", "--scenario", "double-well", "--shape", "iso", "--eps", "0.1,0.05",
                 "--grid-n", "100", "--out", str(tmp_path / "solve")]) == 0
    for eps in ("0.1", "0.05"):
        assert ((tmp_path / "run" / f"control_eps{eps}.json").read_bytes()
                == (tmp_path / "solve" / f"measure_eps{eps}.json").read_bytes())


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
def test_cli_verify_uses_the_run_dictionary(tmp_path, b, run_config):
    # a config without analysis.dictionary is verified against the dictionary
    # and drift it was run with, so verify reproduces the run's invariance
    # residuals
    out = tmp_path / "run"
    cfg = run_config(out, nx=48)
    cfg["scenario"]["b"] = b
    del cfg["analysis"]["dictionary"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    main(["run", "--config", str(p)])
    assert _verified(out) == (0, None)  # every metric row, its residual_max included


def test_cli_verify_designed_run(tmp_path):
    # a designed run writes a measure per eps of its designed family and one of its
    # isotropic control, and verify reads both against the double-well drift the run solved
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
    assert _verified(out) == (0, None)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["eps"] == [0.1, 0.05, 0.02]
    for eps, row in zip(summary["eps"], summary["metrics"]):
        for prefix, key in (("measure", "designed_mass"), ("control", "uniform_mass")):
            mu = fio.measure_from_document(fio.load_document(out / f"{prefix}_eps{eps!r}.json"))
            xx, _ = mu.grid.centers()
            assert float(mu.weights[xx < 0.0].sum()) == row[key]


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
