"""Self-describing JSON documents for grids, fields, measures, and certificates,
and the per-eps CSV tables; this is the one module that writes files, and it
makes the directory of each file it writes.

Every document carries a ``format`` tag, and field documents a ``grid`` header
and flat row-major value arrays. Floats are serialized with ``repr`` (via the
json module), which round-trips bit-identically; a non-finite float (an empty
minimum, an unbounded margin) is written as ``null``, so every document is
standard JSON. FORMATS holds every format tag
the package writes: the measure, diffusion, schedule, certificate and attractor
documents are built here, the run summaries and timings by ``cli`` and
``scenarios``. The field names are part of the public interface. save_csv
writes a table of one row per noise level (a run's ``metrics.csv``, the
``verify.csv`` of ``fplab verify``) with the same ``repr`` floats.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import AttractorApprox, LyapunovCertificate
from .fields import DiffusionField, DiscreteMeasure, NullFamilySchedule
from .grid import grid_from_metadata

FORMATS = {
    "measure": "fplab/measure@1",
    "diffusion_field": "fplab/diffusion-field@1",
    "schedule": "fplab/schedule@1",
    "certificate": "fplab/certificate@1",
    "attractor": "fplab/attractor@1",
    "scenario_result": "fplab/scenario-result@1",
    "solve_summary": "fplab/solve-summary@2",
    "timing": "fplab/timing@1",
    "sample_summary": "fplab/sample-summary@1",
    "verify": "fplab/verify@1",
    "shaping": "fplab/shaping@1",
}


def _flat(arr) -> list:
    return np.asarray(arr, dtype=float).ravel(order="C").tolist()


def _unflat(values, grid) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(grid.nx, grid.ny)


def measure_to_document(mu: DiscreteMeasure) -> dict:
    return {
        "format": FORMATS["measure"],
        "grid": mu.grid.metadata(),
        "weights": _flat(mu.weights),
    }


def measure_from_document(doc: dict) -> DiscreteMeasure:
    grid = grid_from_metadata(doc["grid"])
    return DiscreteMeasure(grid, _unflat(doc["weights"], grid))


def diffusion_to_document(a: DiffusionField) -> dict:
    return {
        "format": FORMATS["diffusion_field"],
        "grid": a.grid.metadata(),
        "a11": _flat(a.a11),
        "a12": _flat(a.a12),
        "a22": _flat(a.a22),
    }


def schedule_to_document(s: NullFamilySchedule) -> dict:
    return {
        "format": FORMATS["schedule"],
        "grid": s.grid.metadata(),
        "eps": list(s.eps),
        "invariance_mode": s.invariance_mode,
        "normal_bound": s.normal_bound,
        "members": [diffusion_to_document(a) for a in s.members],
    }


def certificate_to_document(cert: LyapunovCertificate) -> dict:
    """The certificate with its U samples and at most 100 violating cells."""
    return {
        "format": FORMATS["certificate"],
        "grid": cert.grid.metadata(),
        "u": _flat(cert.u),
        "rho_m": cert.rho_m,
        "rho_M": cert.rho_M,
        "gamma": cert.gamma,
        "kind": cert.kind,
        "verified_for": cert.verified_for,
        "passed": cert.passed,
        "worst_margin": cert.worst_margin,
        "slack": cert.slack,
        "violations": [list(map(int, c)) for c in cert.violations[:100]],
    }


def attractor_to_document(approx: AttractorApprox) -> dict:
    return {
        "format": FORMATS["attractor"],
        "grid": approx.grid.metadata(),
        "kind": approx.kind,
        "mask": approx.mask.ravel().astype(int).tolist(),
        "diagnostics": approx.diagnostics,
    }


def _finite(obj):
    """``obj`` with every non-finite float in it replaced by None."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _write(path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)


def save_document(doc: dict, path) -> None:
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError:  # a non-finite float: walk the document only then
        text = json.dumps(_finite(doc), allow_nan=False)
    _write(path, text + "\n")


def save_csv(rows: list, path) -> None:
    """Rows of {column: float}, one per noise level and eps first, as CSV with the
    first row's keys as header; a table with no rows keeps its eps column."""
    keys = list(rows[0]) if rows else ["eps"]
    lines = [",".join(keys)] + [",".join(repr(row[k]) for k in keys) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def load_document(path) -> dict:
    return json.loads(Path(path).read_text())
