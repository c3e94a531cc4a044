"""Self-describing JSON documents for grids, fields, measures, and certificates.

Every document carries a ``format`` tag, and field documents a ``grid`` header
and flat row-major value arrays. Floats are serialized with ``repr`` (via the
json module), which round-trips bit-identically. FORMATS holds every format tag
the package writes: the field, measure and certificate documents are built
here, the run summaries by ``cli`` and ``scenarios``. The field names are part
of the public interface.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import AttractorApprox, LyapunovCertificate
from .fields import DiffusionField, DiscreteMeasure, NullFamilySchedule, VectorField
from .grid import Grid1D, grid_from_metadata

FORMATS = {
    "measure": "fplab/measure@1",
    "vector_field": "fplab/vector-field@1",
    "diffusion_field": "fplab/diffusion-field@1",
    "schedule": "fplab/schedule@1",
    "certificate": "fplab/certificate@1",
    "attractor": "fplab/attractor@1",
    "scenario_result": "fplab/scenario-result@1",
    "solve_summary": "fplab/solve-summary@1",
    "sample_summary": "fplab/sample-summary@1",
    "verify": "fplab/verify@1",
    "shaping": "fplab/shaping@1",
}


def _flat(arr) -> list:
    return np.asarray(arr, dtype=float).ravel(order="C").tolist()


def _unflat(values, grid) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if isinstance(grid, Grid1D):
        return arr.reshape(grid.nx)
    return arr.reshape(grid.nx, grid.ny)


def measure_to_document(mu: DiscreteMeasure) -> dict:
    return {
        "format": FORMATS["measure"],
        "grid": mu.grid.metadata(),
        "weights": _flat(mu.weights),
    }


def measure_from_document(doc: dict) -> DiscreteMeasure:
    grid = grid_from_metadata(doc["grid"])
    return DiscreteMeasure(grid, _unflat(doc["weights"], grid))


def vector_field_to_document(v: VectorField) -> dict:
    return {
        "format": FORMATS["vector_field"],
        "grid": v.grid.metadata(),
        "vx": _flat(v.vx),
        "vy": _flat(v.vy),
    }


def vector_field_from_document(doc: dict) -> VectorField:
    grid = grid_from_metadata(doc["grid"])
    return VectorField(grid, _unflat(doc["vx"], grid), _unflat(doc["vy"], grid))


def diffusion_to_document(a: DiffusionField) -> dict:
    return {
        "format": FORMATS["diffusion_field"],
        "grid": a.grid.metadata(),
        "a11": _flat(a.a11),
        "a12": _flat(a.a12),
        "a22": _flat(a.a22),
    }


def diffusion_from_document(doc: dict) -> DiffusionField:
    grid = grid_from_metadata(doc["grid"])
    return DiffusionField(
        grid, _unflat(doc["a11"], grid), _unflat(doc["a12"], grid), _unflat(doc["a22"], grid)
    )


def schedule_to_document(s: NullFamilySchedule) -> dict:
    return {
        "format": FORMATS["schedule"],
        "grid": s.grid.metadata(),
        "eps": list(s.eps),
        "invariance_mode": s.invariance_mode,
        "normal_bound": s.normal_bound,
        "members": [diffusion_to_document(a) for a in s.members],
    }


def schedule_from_document(doc: dict) -> NullFamilySchedule:
    members = tuple(diffusion_from_document(d) for d in doc["members"])
    return NullFamilySchedule(
        tuple(doc["eps"]), members, doc["invariance_mode"], normal_bound=doc["normal_bound"]
    )


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


def save_document(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc) + "\n")


def load_document(path) -> dict:
    return json.loads(Path(path).read_text())
