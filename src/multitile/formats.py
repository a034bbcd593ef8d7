"""On-disk formats: domain files, sample sets, result tables.

Domain files are strict JSON; unknown keys are rejected so that typos
fail loudly instead of being ignored.  JSON output is canonical: keys
sorted, floats printed with 17 significant digits, so equal objects
serialize to identical bytes.  Sample sets are CSV with a JSON sidecar
(<path>.meta.json) carrying the shift parameters and provenance needed
to reconstruct without re-deriving them.  All writes go through a
temporary file in the target directory followed by an atomic rename.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from typing import Mapping, Optional, Sequence

import numpy as np

from .domain import MultiTileDomain, make_cell, make_domain
from .errors import SpecFormatError
from .expsystem import ShiftSet
from .lattice import make_lattice
from .reconstruction import ReconstructionResult, SpectralData

__all__ = [
    "canonical_json",
    "atomic_write_text",
    "load_domain",
    "parse_domain",
    "domain_to_obj",
    "save_domain",
    "write_samples",
    "read_samples",
    "write_result",
]

DOMAIN_KEYS = {"dimension", "lattice_basis", "cells"}
CELL_KEYS = {"box", "offsets"}


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise SpecFormatError(f"cannot serialize non-finite value {x!r}")
    # fold -0.0 into 0.0 so serialize-parse-serialize is byte stable
    return format(x + 0.0, ".17g")


def canonical_json(obj) -> str:
    """Serialize with sorted keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Mapping):
        parts = []
        for key in sorted(obj, key=str):
            if not isinstance(key, str):
                raise SpecFormatError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{json.dumps(key)}:{canonical_json(obj[key])}")
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, Sequence):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise SpecFormatError(f"cannot serialize {type(obj).__name__} to JSON")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require_keys(obj: Mapping, allowed: set, context: str) -> None:
    if not isinstance(obj, Mapping):
        raise SpecFormatError(f"{context} must be a JSON object")
    extra = set(obj) - allowed
    if extra:
        raise SpecFormatError(f"{context} has unknown keys: {sorted(extra)}")
    missing = allowed - set(obj)
    if missing:
        raise SpecFormatError(f"{context} is missing keys: {sorted(missing)}")


def parse_domain(obj) -> MultiTileDomain:
    """Build a domain from a parsed JSON object, rejecting malformed input."""
    _require_keys(obj, DOMAIN_KEYS, "domain file")
    d = obj["dimension"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise SpecFormatError(f"dimension must be a positive integer, got {d!r}")
    basis = np.asarray(obj["lattice_basis"], dtype=float)
    if basis.shape != (d, d):
        raise SpecFormatError(
            f"lattice_basis must be a {d}x{d} row-major matrix, got shape {basis.shape}"
        )
    raw_cells = obj["cells"]
    if not isinstance(raw_cells, Sequence) or isinstance(raw_cells, (str, bytes)):
        raise SpecFormatError("cells must be a list")
    if not raw_cells:
        raise SpecFormatError("cells must be nonempty")
    cells = []
    for i, entry in enumerate(raw_cells):
        _require_keys(entry, CELL_KEYS, f"cell {i}")
        box = np.asarray(entry["box"], dtype=float)
        offsets = np.asarray(entry["offsets"], dtype=float)
        if box.ndim != 2 or box.shape != (d, 2):
            raise SpecFormatError(f"cell {i}: box must be a {d}x2 array")
        if offsets.ndim != 2 or offsets.shape[1] != d:
            raise SpecFormatError(f"cell {i}: offsets must be rows of {d}-vectors")
        cells.append(make_cell(box, offsets))
    return make_domain(make_lattice(basis), cells)


def load_domain(path: str) -> MultiTileDomain:
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON: {exc}") from None
    return parse_domain(obj)


def domain_to_obj(domain: MultiTileDomain) -> dict:
    return {
        "dimension": domain.dimension,
        "lattice_basis": domain.lattice.basis.tolist(),
        "cells": [
            {"box": c.box.tolist(), "offsets": c.offsets.tolist()}
            for c in domain.cells
        ],
    }


def save_domain(domain: MultiTileDomain, path: str) -> None:
    atomic_write_text(path, canonical_json(domain_to_obj(domain)) + "\n")


def _sidecar_path(path: str) -> str:
    return path + ".meta.json"


def write_samples(
    path: str,
    domain: MultiTileDomain,
    shifts: ShiftSet,
    data: SpectralData,
    extra_meta: Optional[Mapping] = None,
) -> None:
    """Write a sample CSV plus its .meta.json sidecar."""
    d = domain.dimension
    k = domain.k
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = (
        ["cell"]
        + [f"u_{i + 1}" for i in range(d)]
        + [part for s in range(k) for part in (f"Re_F_{s}", f"Im_F_{s}")]
    )
    writer.writerow(header)
    for row in range(len(data.cell_ids)):
        vals = data.values[row]
        writer.writerow(
            [int(data.cell_ids[row])]
            + [_fmt_float(x) for x in data.points[row]]
            + [
                part
                for s in range(k)
                for part in (_fmt_float(vals[s].real), _fmt_float(vals[s].imag))
            ]
        )
    atomic_write_text(path, buf.getvalue())

    meta = {
        "format": "multitile-samples",
        "dimension": d,
        "k": k,
        "delta": shifts.delta.tolist(),
        "eta": shifts.eta_coords.tolist(),
        "index_sets": [[list(j) for j in idx] for idx in shifts.index_sets],
        "provenance": data.provenance,
        "radius": data.radius,
    }
    if extra_meta:
        for key, value in extra_meta.items():
            meta[str(key)] = value
    atomic_write_text(_sidecar_path(path), canonical_json(meta) + "\n")


def read_samples(path: str, domain: MultiTileDomain) -> tuple[SpectralData, Optional[dict]]:
    """Read a sample CSV; returns the data and the sidecar if present."""
    d = domain.dimension
    k = domain.k
    want = 1 + d + 2 * k
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise SpecFormatError(f"{path}: {exc}") from None
    if not rows:
        raise SpecFormatError(f"{path}: empty sample file")
    if len(rows[0]) != want:
        raise SpecFormatError(
            f"{path}: expected {want} columns for dimension {d}, k {k}; "
            f"got {len(rows[0])}"
        )
    cell_ids = np.empty(len(rows) - 1, dtype=int)
    points = np.empty((len(rows) - 1, d))
    values = np.empty((len(rows) - 1, k), dtype=complex)
    for i, row in enumerate(rows[1:]):
        if len(row) != want:
            raise SpecFormatError(f"{path}: row {i + 2} has {len(row)} columns")
        try:
            cell_ids[i] = int(row[0])
            points[i] = [float(x) for x in row[1 : 1 + d]]
            for s in range(k):
                re = float(row[1 + d + 2 * s])
                im = float(row[2 + d + 2 * s])
                values[i, s] = complex(re, im)
        except ValueError as exc:
            raise SpecFormatError(f"{path}: row {i + 2}: {exc}") from None
    finite = np.isfinite(points).all(axis=1) & np.isfinite(values).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite)) + 2
        raise SpecFormatError(f"{path}: row {row}: non-finite point or value")

    meta = None
    sidecar = _sidecar_path(path)
    if os.path.exists(sidecar):
        try:
            with open(sidecar) as handle:
                meta = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"{sidecar}: invalid JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise SpecFormatError(f"{sidecar}: expected a JSON object")
    provenance = "exact-pointwise"
    radius = None
    if meta is not None:
        provenance = meta.get("provenance", provenance)
        radius = meta.get("radius")
    data = SpectralData(
        cell_ids=cell_ids,
        points=points,
        values=values,
        provenance=provenance,
        radius=radius,
    )
    return data, meta


def write_result(path: str, result: ReconstructionResult, dimension: int) -> None:
    """Write reconstructed values as CSV rows (point, value, residual)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [f"y_{i + 1}" for i in range(dimension)] + ["Re_f", "Im_f", "residual"]
    )
    for i in range(len(result.values)):
        res = result.residuals[result.source_rows[i]]
        writer.writerow(
            [_fmt_float(x) for x in result.points[i]]
            + [
                _fmt_float(result.values[i].real),
                _fmt_float(result.values[i].imag),
                "" if math.isnan(res) else _fmt_float(res),
            ]
        )
    atomic_write_text(path, buf.getvalue())
