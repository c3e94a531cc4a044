"""fplab benchmark: end-to-end and per-layer metrics over four workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload hopf-acceptance --seed 3 --seconds 15 --trace 1
    python3 perfbench/run.py --record-reference

Every workload process is a fresh child (perfbench/child.py), run one at a
time with BLAS/OpenMP pinned to one thread. An untraced run (--trace 0) first
makes SETUP_PROBES set-up-only processes, then repeats the whole workload
while the next repetition still fits in --seconds (at least once), checks
every output, and reports the end-to-end metrics. A traced run (--trace 1)
alternates untraced and traced processes and reports the per-layer metrics
from the traced ones. The last line of stdout is one JSON object; the exit
code is 1 if a correctness check failed and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gates import compare
from tracing import LAYER_UNITS, layer_metrics
from workloads import WORKLOADS, bound_checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"wall_s": "s", "setup_s": "s", "members_per_s": "1/s", "peak_rss_mb": "MB",
         "path_steps_per_s": "1/s", "failed_frac": "frac", "oracle_l1_error": "1",
         "sampler_l1_to_pde_max": "1"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed correctness check)."""


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(n: int):
    """Highest of p90/p99/p99.9 with at least ten of ``n`` samples beyond it."""
    best = None
    for per_mille in (900, 990, 999):
        if n * (1000 - per_mille) >= 10 * 1000:
            best = per_mille / 10
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (same as numpy's default)."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def summarize(values) -> str:
    text = f"median {statistics.median(values):.6g} (n={len(values)})"
    p = tail_percentile(len(values))
    if p is not None:
        text += f", p{p:g} {percentile(values, p):.6g}"
    return text


# ---------------------------------------------------------------------------
# child processes

def _child_env(workload) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("FPLAB_WORKERS", "PYTHONPATH")}
    env.update({k: "1" for k in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    if workload.workers > 1:
        env["FPLAB_WORKERS"] = str(workload.workers)
    return env


def spawn(workload, seed: int, mode: str, where: Path, checked=()) -> dict:
    """Run one child to completion in directory ``where`` (check mode: gate
    the runs in ``checked``); returns its record plus wall_s and peak_rss_mb."""
    where.mkdir(parents=True, exist_ok=True)
    log_path = where / f"{mode}.log"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--mode", mode, "--dir", str(where)]
    for d in checked:
        cmd += ["--check", str(d)]
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=_child_env(workload),
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    if proc.returncode != 0:
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"{workload.name} {mode} child exited {proc.returncode}:\n{tail}")
    rec = json.loads((where / f"{mode}.json").read_text())
    rec["wall_s"] = wall
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return rec


# ---------------------------------------------------------------------------
# correctness

def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def check_runs(workload, seed: int, base: Path, dirs, records, reference) -> dict:
    """Gate every finished run; returns counts, values and failed checks."""
    ref = reference.get(workload.name)
    attempted = failed = 0
    problems, finished = [], []
    for d, rec in zip(dirs, records):
        attempted += workload.members
        if rec["error"] is None and rec["rc"] in (0, 1):
            finished.append(d)
        else:
            failed += workload.members
            problems.append(f"{d.name}: command failed (rc={rec['rc']}): {rec['error']}")
    checked = spawn(workload, seed, "check", base, finished)
    for d, got in zip(finished, checked["runs"]):
        if "missing" in got:
            failed += workload.members
            problems.append(f"{d.name}: command failed: {got['missing']}")
            continue
        failed += got["member_errors"]
        if ref is not None:
            problems += [f"{d.name}: {m}" for m in compare(ref, got["outputs"])]
        elif not workload.seeded:
            problems.append(f"{d.name}: no reference recorded in {REFERENCE.name}")
        for label, ok, detail in bound_checks(workload.name, got["values"]):
            if not ok:
                problems.append(f"{d.name}: {label} failed ({detail})")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "values": [got["values"] for got in checked["runs"] if "values" in got],
            "versions": checked["versions"], "outputs": checked["runs"]}


# ---------------------------------------------------------------------------
# runs

def _fits(started: float, durations, seconds: float) -> bool:
    """Whether one more repetition (as long as the last) ends within ``seconds``."""
    return not durations or time.monotonic() - started + durations[-1] <= seconds


def run_untraced(workload, seed: int, seconds: float, base: Path, reference) -> dict:
    setups = [spawn(workload, seed, "setup", base / f"setup{k}")["setup_s"]
              for k in range(SETUP_PROBES)]
    if None in setups:
        raise BenchError(f"{workload.name} ended without calling fpe.assemble "
                         "or sampler.occupation_measure")
    dirs, records = [], []
    started = time.monotonic()
    while _fits(started, [r["wall_s"] for r in records], seconds):
        d = base / f"run{len(dirs)}"
        dirs.append(d)
        records.append(spawn(workload, seed, "timed", d))
    gate = check_runs(workload, seed, base, dirs, records, reference)
    walls = [r["wall_s"] for r in records]
    setups += [r["setup_s"] for r in records if r["setup_s"] is not None]
    samples = {
        "wall_s": walls,
        "setup_s": setups,
        "members_per_s": [workload.members / w for w in walls],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    extra = {"failed_frac": [gate["failed"] / gate["attempted"]]}
    if workload.path_steps:
        extra["path_steps_per_s"] = [workload.path_steps / w for w in walls]
    for v in gate["values"]:
        if "oracle_l1_error" in v:
            extra.setdefault("oracle_l1_error", []).append(v["oracle_l1_error"])
        if "l1_to_pde" in v:
            extra.setdefault("sampler_l1_to_pde_max", []).append(max(v["l1_to_pde"].values()))
    return {"samples": samples, "extra": extra, "gate": gate,
            "metrics": {k: (statistics.median(v), UNITS[k]) for k, v in samples.items()}}


def run_traced(workload, seed: int, seconds: float, base: Path, reference) -> dict:
    # the first child of a run is slower; a set-up probe takes that cost, as
    # the probes do in untraced runs, so trace.overhead_frac is not biased
    spawn(workload, seed, "setup", base / "warmup")
    dirs, plain, traced = [], [], []
    started = time.monotonic()
    while _fits(started, [p["wall_s"] + t["wall_s"] for p, t in zip(plain, traced)], seconds):
        k = len(plain)
        dirs += [base / f"plain{k}", base / f"traced{k}"]
        plain.append(spawn(workload, seed, "timed", dirs[-2]))
        traced.append(spawn(workload, seed, "traced", dirs[-1]))
    records = [r for pair in zip(plain, traced) for r in pair]
    gate = check_runs(workload, seed, base, dirs, records, reference)
    per_run = [layer_metrics(t["spans"], t["wall_s"], workload.workers) for t in traced]
    layers = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    layers["trace.overhead_frac"] = (statistics.median(t["wall_s"] for t in traced)
                                     / statistics.median(p["wall_s"] for p in plain) - 1.0)
    (base / "spans.json").write_text(json.dumps([t["spans"] for t in traced]))
    return {"gate": gate, "samples": {}, "extra": {},
            "metrics": {k: (v, LAYER_UNITS[k]) for k, v in layers.items()}}


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.exists() else "unknown"
    return ref


def report(name: str, seed: int, res: dict) -> None:
    wl = WORKLOADS[name]
    gate = res["gate"]
    v = gate["versions"]
    print(f"# {name}: nproc={len(os.sched_getaffinity(0))} workers={wl.workers} python={v['python']} "
          f"numpy={v['numpy']} scipy={v['scipy']} fplab={v['fplab']} commit={git_commit()} "
          f"seed={seed}{'' if wl.seeded else ' (ignored: deterministic workload)'}")
    for metric, (value, unit) in res["metrics"].items():
        samples = res["samples"].get(metric)
        detail = summarize(samples) if samples else ""
        print(f"{name:20s} {metric:34s} {value:<14.6g} {unit:6s} {detail}")
    for metric, values in res["extra"].items():
        print(f"{name:20s} {metric:34s} {statistics.median(values):<14.6g} "
              f"{UNITS[metric]:6s} {summarize(values)}")
    print(f"{name:20s} correctness: {'PASS' if not gate['problems'] else 'FAIL'} "
          f"({gate['attempted']} members attempted, {gate['failed']} failed)")
    for line in gate["problems"]:
        print(f"{name:20s}   {line}")


def record_reference() -> None:
    """Write perfbench/reference.json from one run of each deterministic workload."""
    ref = {}
    for wl in WORKLOADS.values():
        if wl.seeded:
            continue
        d = OUT / "reference" / wl.name
        shutil.rmtree(d, ignore_errors=True)
        rec = spawn(wl, 0, "timed", d)
        got = check_runs(wl, 0, d.parent, [d], [rec], {wl.name: {}})
        if got["problems"] or got["failed"]:
            raise BenchError(f"{wl.name}: {got['problems']}")
        ref[wl.name] = got["outputs"][0]["outputs"]
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"reference written to {REFERENCE}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fplab benchmark")
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "fplab" / "__init__.py").is_file():
        print(f"error: fplab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src" / "fplab", quiet=1)
    try:
        if args.record_reference:
            record_reference()
            return 0
        reference = load_reference()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            base = OUT / f"{name}-seed{args.seed}-{os.getpid()}"
            shutil.rmtree(base, ignore_errors=True)
            runner = run_traced if args.trace else run_untraced
            results[name] = runner(WORKLOADS[name], args.seed, args.seconds, base, reference)
            report(name, args.seed, results[name])
            (base / "result.json").write_text(json.dumps(
                {"seed": args.seed, "commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
                 **results[name]}, indent=1))
            for d in base.iterdir():
                if d.is_dir():
                    shutil.rmtree(d)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def metrics(res):
        return {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}

    correct = all(not r["gate"]["problems"] for r in results.values())
    out = {
        "correct": correct,
        "attempted": sum(r["gate"]["attempted"] for r in results.values()),
        "failed": sum(r["gate"]["failed"] for r in results.values()),
        "metrics": (metrics(results[names[0]]) if len(names) == 1
                    else {n: metrics(r) for n, r in results.items()}),
    }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
