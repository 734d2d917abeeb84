"""File formats: operators, vectors, scan CSV and frame/verification reports.

Operator files are JSON objects
    {"n": int, "m": int, "matrix": m x m array of 2^n-length real arrays}
with coefficients in ascending mask order; vectors use "entries" instead of
"matrix".  Parsers reject wrong lengths and non-finite coefficients with
positional messages.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .clifford import MAX_DIMENSION
from .errors import SchemaError
from .module import CliffordOperator, ModuleVector


def _as_int(obj, key):
    if key not in obj:
        raise SchemaError(f"missing required field {key!r}")
    val = obj[key]
    if not isinstance(val, int) or isinstance(val, bool):
        raise SchemaError(f"field {key!r} must be an integer, got {val!r}")
    return val


def _dims(obj):
    """(n, m) of an operator or vector object, each within its range."""
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object with fields 'n' and 'm'")
    n = _as_int(obj, "n")
    m = _as_int(obj, "m")
    if not 1 <= n <= MAX_DIMENSION:
        raise SchemaError(f"field 'n' must lie in 1..{MAX_DIMENSION}, got {n}")
    if m < 1:
        raise SchemaError(f"field 'm' must be at least 1, got {m}")
    return n, m


def _coeff_list(raw, n, where):
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: expected a list of reals")
    if len(raw) != (1 << n):
        raise SchemaError(
            f"{where}: expected {1 << n} coefficients (n={n}), got {len(raw)}"
        )
    try:
        vals = [float(x) for x in raw]
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: non-numeric coefficient") from exc
    except OverflowError:       # an integer beyond the range of a double
        raise SchemaError(f"{where}: non-finite coefficient") from None
    if not all(math.isfinite(x) for x in vals):
        raise SchemaError(f"{where}: non-finite coefficient")
    return vals


def operator_from_dict(obj) -> CliffordOperator:
    n, m = _dims(obj)
    matrix = obj.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != m:
        raise SchemaError(f"matrix: expected {m} rows")
    coeffs = np.zeros((m, m, 1 << n))
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != m:
            raise SchemaError(f"matrix[{i}]: expected {m} entries (operator is square)")
        for j, entry in enumerate(row):
            coeffs[i, j] = _coeff_list(entry, n, f"matrix[{i}][{j}]")
    return CliffordOperator(n, m, coeffs)


def operator_to_dict(T: CliffordOperator) -> dict:
    return {
        "n": T.n,
        "m": T.m,
        "matrix": [[list(map(float, T.coeffs[i, j])) for j in range(T.m)]
                   for i in range(T.m)],
    }


def vector_from_dict(obj) -> ModuleVector:
    n, m = _dims(obj)
    entries = obj.get("entries")
    if not isinstance(entries, list) or len(entries) != m:
        raise SchemaError(f"entries: expected {m} entries")
    coeffs = np.zeros((m, 1 << n))
    for i, entry in enumerate(entries):
        coeffs[i] = _coeff_list(entry, n, f"entries[{i}]")
    return ModuleVector(n, m, coeffs)


def vector_to_dict(v: ModuleVector) -> dict:
    return {"n": v.n, "m": v.m,
            "entries": [list(map(float, v.coeffs[i])) for i in range(v.m)]}


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def parse_operator_file(path) -> CliffordOperator:
    return operator_from_dict(_load_json(path))


def parse_vector_file(path) -> ModuleVector:
    return vector_from_dict(_load_json(path))


def load_function_spec(path) -> dict:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "name" not in obj:
        raise SchemaError(f"{path}: function spec needs a 'name' field")
    return obj


def scan_to_csv(scan, path):
    """Heatmap CSV (header x,y,sigma_min) with the detection block appended
    as '#'-prefixed JSON lines so CSV readers with comment='#' stay happy."""
    xs = scan.grid.xs()
    ys = scan.grid.ys()
    lines = ["x,y,sigma_min"]
    for iy in range(ys.size):
        for ix in range(xs.size):
            lines.append(f"{float(xs[ix])!r},{float(ys[iy])!r},{float(scan.values[iy, ix])!r}")
    detections = [
        {"x": d.x, "y": d.y, "sigma_min": d.sigma_min, "kind": d.kind}
        for d in scan.detections
    ]
    lines.append("# detections " + json.dumps({"detections": detections}, sort_keys=True))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def frame_report_dict(bounds) -> dict:
    return {
        "cLower": bounds.c_lower,
        "dUpper": bounds.d_upper,
        "thetaEigenvalues": [float(x) for x in bounds.eigenvalues],
        "errorEstimates": {
            "truncation": bounds.truncation_error,
            "discretization": bounds.discretization_error,
            "gridRule": bounds.grid_rule_error,
            "windowTails": bounds.window_tail_error,
        },
    }


def contour_dict(cfg, stride) -> dict:
    """The contour a frame family ran on: nodes per ray, the upper end in
    u = log r and the quadrature step in contour steps."""
    return {"nodes": cfg.nodes, "u_max": cfg.u_max, "stride": stride}


def grid_nodes(t) -> int:
    """The per-sign node count, as ``QuadGridConfig.nodes`` counts it (the
    steps), of a frame grid t = (+grid, -grid)."""
    return t.size // 2 - 1


def bisector_report_dict(report) -> dict:
    """Certificate fields of a BisectorReport; infinite C_phi become null, and
    ``c_phi_source`` says whether C is the self-adjoint closed form or sampled."""
    return {
        "omega": report.omega,
        "injective": report.injective,
        "spectrum_in_sector": report.spectrum_in_sector,
        "certified": report.certified,
        "c_phi_table": [[p, c if math.isfinite(c) else None]
                        for p, c in report.c_phi_table],
        "c_phi_source": report.c_phi_source,
        "detections": [{"x": d.x, "y": d.y, "kind": d.kind}
                       for d in report.detections],
    }


def write_json(obj, path):
    with open(path, "w") as fh:
        fh.write(dumps_report(obj))


def dumps_report(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
