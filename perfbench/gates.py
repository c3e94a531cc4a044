"""Correctness gate: compare a workload's extracted outputs with the values
recorded from the seed commit in perfbench/reference.json.

Only the reference's keys are compared, so outputs may gain new keys. Floats
must agree within RTOL/ATOL, verdicts and strings exactly, and each measure
fingerprint (block masses) within FINGERPRINT_L1 in L1. ``solve_residual`` is
round-off of the linear solve, so it is bounded instead of compared.
"""

from __future__ import annotations

import math

RTOL = 1e-6
ATOL = 1e-9
FINGERPRINT_L1 = 1e-8
SOLVE_RESIDUAL_MAX = 1e-8


def _close(ref: float, got: float) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return ref == got or (math.isnan(ref) and math.isnan(got))
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def compare(ref, got, path: str = "", key: str = "") -> list[str]:
    """Mismatches between ``got`` and ``ref``, one line each; empty if equal.

    ``key`` is the name the value is stored under: "solve_residual" and
    "fingerprint" select the rules above, and every value of a "fingerprints"
    map is a fingerprint.
    """
    if key == "solve_residual":
        ok = isinstance(got, (int, float)) and got <= SOLVE_RESIDUAL_MAX
        return [] if ok else [f"{path}: {got!r} above {SOLVE_RESIDUAL_MAX}"]
    if key == "fingerprint":
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: fingerprint shape differs"]
        d = sum(abs(a - b) for a, b in zip(ref, got))
        return [] if d <= FINGERPRINT_L1 else [f"{path}: measure moved by L1 {d:.3e}"]
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for k, v in ref.items():
            sub = f"{path}.{k}" if path else k
            if k not in got:
                out.append(f"{sub}: missing")
            else:
                out += compare(v, got[k], sub, "fingerprint" if key == "fingerprints" else k)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected {len(ref)} items"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += compare(a, b, f"{path}[{i}]")
        return out
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        return [] if _close(float(ref), float(got)) else [f"{path}: {got!r} != {ref!r}"]
    return [f"{path}: unsupported reference value {ref!r}"]
