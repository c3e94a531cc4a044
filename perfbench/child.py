"""One workload process of the benchmark (started by perfbench/run.py).

Modes:
  setup   exit at the first call into fpe.assemble or sampler.occupation_measure,
          recording only the set-up time;
  timed   run the workload with only the set-up timestamp wrapper installed;
  traced  run it with a span around every call into fplab's layers;
  check   extract the outputs of finished runs (given as --check, repeatable)
          for the correctness gate.

The record is written as JSON to <dir>/<mode>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_fplab():
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import fplab
    import fplab.cli  # noqa: F401 - loads every module whose bindings are patched

    if Path(fplab.__file__).resolve().parent != ROOT / "src" / "fplab":
        raise SystemExit(f"fplab imported from {fplab.__file__}, not from this checkout")
    return fplab


def _install_setup_stamp(record: dict, t0: float, exit_now: Path | None):
    """Wrap the two entry points that end set-up; the first call stamps setup_s."""
    from fplab import fpe, sampler
    from tracing import patch_everywhere

    def stamped(fn):
        def wrapper(*args, **kwargs):
            if record["setup_s"] is None:
                record["setup_s"] = time.monotonic() - t0
                if exit_now is not None:
                    exit_now.write_text(json.dumps(record))
                    sys.stdout.flush()
                    os._exit(0)
            return fn(*args, **kwargs)
        return wrapper

    for fn in (fpe.assemble, sampler.occupation_measure):
        patch_everywhere(fn, stamped(fn))


def _install_tracer(tracer):
    """Span wrappers around the public functions of each measured layer."""
    from fplab import analysis, dynamics, fields, fpe, io, sampler, scenarios
    from tracing import ModuleProxy, patch_everywhere

    def nnz(args, kwargs, op):
        return {"nnz": int(op.matrix.nnz)}

    def solve_report(args, kwargs, result):
        rep = result[1]
        return {"clipped_mass": float(rep.clipped_mass),
                "max_abs_z": float(rep.meta.get("max_abs_z", 0.0))}

    def path_steps(args, kwargs, result):
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        return {"path_steps": int(cfg.n_paths) * int(result[1]["n_steps"])}

    def written(args, kwargs, result):
        return {"bytes": os.path.getsize(args[1])}

    targets = [
        (fpe, "assemble", "fpe.assemble", nnz),
        (fpe, "solve_stationary", "fpe.solve", solve_report),
        (fpe, "solve_family", "fpe.family", None),
        (scenarios, "dictionary_for", "analysis.dictionary", None),
        (analysis, "invariance_residual", "analysis.metric", None),
        (analysis, "bl_distance", "analysis.metric", None),
        (analysis, "angular_w1_to_uniform", "analysis.metric", None),
        (analysis, "lyapunov_upper_bound", "analysis.metric", None),
        (dynamics, "verify_uniform_lyapunov", "dynamics.uniform_lyapunov", None),
        (scenarios, "build_schedule", "scenarios.schedule", None),
        (scenarios, "run_hopf_sweep", "scenarios.sweep", None),
        (fields, "sample_vector_field", "fields.build", None),
        (fields, "isotropic_schedule", "fields.build", None),
        (sampler, "occupation_measure", "sampler.occupation", path_steps),
        (io, "save_document", "io.write", written),
    ]
    for mod, attr, name, attrs in targets:
        fn = getattr(mod, attr)
        patch_everywhere(fn, tracer.wrap(name, fn, attrs))
    # factorizations made from fpe only: fpe sees a proxy of scipy.sparse.linalg
    spla = fpe.spla
    fpe.spla = ModuleProxy(spla, {f: tracer.wrap("fpe.factor", getattr(spla, f))
                                  for f in ("spsolve", "splu", "factorized")})


def _run(args) -> int:
    from tracing import Tracer
    from workloads import RUNNERS

    out = Path(args.dir)
    record = {"setup_s": None, "rc": None, "error": None, "spans": []}
    tracer = Tracer(f"{args.workload}/{args.seed}/{os.getpid()}")
    _install_setup_stamp(record, args.t0, out / "setup.json" if args.mode == "setup" else None)
    if args.mode == "traced":
        _install_tracer(tracer)
    try:
        record["rc"] = RUNNERS[args.workload](out, args.seed)
    except Exception:  # noqa: BLE001 - a crashed workload is recorded as failed
        record["error"] = traceback.format_exc()
    record["spans"] = tracer.spans
    (out / f"{args.mode}.json").write_text(json.dumps(record))
    return 0


def _check(args, fplab) -> int:
    import numpy
    import scipy
    from workloads import EXTRACTORS

    def extract(d):
        try:
            return EXTRACTORS[args.workload](Path(d))
        except FileNotFoundError as exc:  # the command failed before writing it
            return {"missing": str(exc)}

    result = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "fplab": fplab.__version__},
        "runs": [extract(d) for d in args.check],
    }
    (Path(args.dir) / "check.json").write_text(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["setup", "timed", "traced", "check"])
    p.add_argument("--dir", required=True, help="where the workload and the record are written")
    p.add_argument("--check", action="append", default=[], help="check mode: a run to gate")
    p.add_argument("--t0", type=float, default=None,
                   help="time.monotonic() in the parent just before this process started")
    args = p.parse_args(argv)
    fplab = _import_fplab()
    return _check(args, fplab) if args.mode == "check" else _run(args)


if __name__ == "__main__":
    sys.exit(main())
