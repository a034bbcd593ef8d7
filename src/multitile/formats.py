"""On-disk formats: domain files, sample sets, result tables.

This module alone opens input files: UTF-8, with finite JSON numbers
(not strings, booleans, NaN or Infinity) wherever numbers go.  Domain
files are strict JSON; unknown keys are rejected so that typos
fail loudly instead of being ignored.  JSON output is canonical: keys
sorted, floats printed with 17 significant digits, so equal objects
serialize to identical bytes.  Sample sets are CSV with a JSON sidecar
(<path>.meta.json) carrying the shift parameters and provenance needed
to reconstruct without re-deriving them.  CSV bytes are fixed too:
CRLF line endings, floats as %.17g with -0.0 folded to 0, cell ids as
plain integers, and an empty residual field where no oracle ran.
Non-finite values are refused on write and on read.  All writes go
through a temporary file in the target directory followed by an
atomic rename.  Both CSV tables are formatted, and sample files are
parsed, CHUNK_FIELDS fields at a time (at least one row), so their
size in memory is bounded.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .domain import MultiTileDomain, _offset_images, make_cell, make_domain
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
CHUNK_FIELDS = 2**16  # CSV fields formatted or parsed at a time (at least one row)


def _finite_table(table: np.ndarray) -> np.ndarray:
    """The table with -0.0 folded into 0.0; raises on the first
    non-finite entry in row-major order."""
    bad = ~np.isfinite(table)
    if bad.any():
        x = float(table.flat[np.argmax(bad)])
        raise SpecFormatError(f"cannot serialize non-finite value {x!r}")
    # fold -0.0 into 0.0 so serialize-parse-serialize is byte stable
    return table + 0.0


def canonical_json(obj) -> str:
    """Serialize with sorted keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % _finite_table(np.float64(obj))
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


def atomic_write_text(path: str, chunks: Iterable[str]) -> None:
    """Write text via a sibling temp file and rename it into place.

    chunks is one string or an iterable of strings, written in order as
    they are produced; if producing or writing one fails, the temp file
    is removed and the target is left as it was.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            for chunk in chunks:
                handle.write(chunk)
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


def _read_json(path: str):
    """The JSON value of a UTF-8 file; SpecFormatError naming the file
    when it cannot be decoded or parsed, or nests too deep."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise SpecFormatError(f"{path}: invalid JSON: {exc}") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _number_list(raw, d: int, integer: bool, message: str) -> np.ndarray:
    """A JSON list of d finite numbers (64-bit integers when integer is
    set), as an array: int64 if all are whole, so no integer loses
    digits, else float; SpecFormatError(message) otherwise."""
    error = SpecFormatError(message)
    if not (isinstance(raw, list) and len(raw) == d and all(
        _is_int(x) or (not integer and isinstance(x, float)) for x in raw
    )):
        raise error
    whole = all(_is_int(x) or x.is_integer() and -(2.0**63) <= x < 2.0**63 for x in raw)
    try:
        vec = np.array(raw, dtype=int if whole else float)
    except OverflowError:
        big = next(x for x in raw if _is_int(x) and not -(2**63) <= x < 2**63)
        raise SpecFormatError(f"{message}: {big} is outside the 64-bit integer range") from None
    if not np.isfinite(vec).all():
        raise error
    return vec


def _number_rows(raw, rows: Optional[int], d: int, message: str) -> np.ndarray:
    """A nonempty JSON list of _number_list rows of d numbers (`rows` of
    them unless None), as an array; SpecFormatError(message) otherwise."""
    if not (isinstance(raw, list) and raw and len(raw) == (rows or len(raw))):
        raise SpecFormatError(message)
    return np.array([_number_list(row, d, False, message) for row in raw])


def parse_domain(obj) -> MultiTileDomain:
    """Build a domain from a parsed JSON object, rejecting malformed input."""
    _require_keys(obj, DOMAIN_KEYS, "domain file")
    d = obj["dimension"]
    if not _is_int(d) or d < 1:
        raise SpecFormatError(f"dimension must be a positive integer, got {d!r}")
    basis = _number_rows(obj["lattice_basis"], d, d, f"lattice_basis must be {d} rows of {d} finite numbers")
    raw_cells = obj["cells"]
    if not isinstance(raw_cells, Sequence) or isinstance(raw_cells, (str, bytes)):
        raise SpecFormatError("cells must be a list")
    if not raw_cells:
        raise SpecFormatError("cells must be nonempty")
    cells = []
    for i, entry in enumerate(raw_cells):
        _require_keys(entry, CELL_KEYS, f"cell {i}")
        box = _number_rows(entry["box"], d, 2, f"cell {i}: box must be {d} rows of 2 finite numbers")
        offsets = _number_rows(entry["offsets"], None, d, f"cell {i}: offsets must be rows of {d} finite numbers")
        cells.append(make_cell(box, offsets))
    return make_domain(make_lattice(basis), cells)


def load_domain(path: str) -> MultiTileDomain:
    return parse_domain(_read_json(path))


def _load_coeffs(path: str, d: int, k: int) -> dict:
    """The coefficient terms of a JSON file, summed per (n, s) key."""
    raw = _read_json(path)
    if not isinstance(raw, list) or not raw:
        raise SpecFormatError(f"{path}: expected a nonempty list of coefficient terms")
    coeffs = {}
    for i, term in enumerate(raw):
        if not isinstance(term, dict) or set(term) - {"n", "s", "re", "im"}:
            raise SpecFormatError(
                f"{path}: term {i} must be an object with keys n, s, re, im"
            )
        n = _number_list(term.get("n"), d, True,
                         f"{path}: term {i}: n must be a list of {d} integers")
        s = term.get("s")
        if not (_is_int(s) and 1 <= s <= k):
            raise SpecFormatError(f"{path}: term {i}: s must lie in 1..{k}")
        c = _number_list([term.get("re", 0.0), term.get("im", 0.0)], 2, False,
                         f"{path}: term {i}: re and im must be finite numbers")
        key = (tuple(n.tolist()), s)
        coeffs[key] = coeffs.get(key, 0.0) + complex(*c)
    return coeffs


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


def _csv_rows(columns: Sequence[np.ndarray], row_format: str) -> Iterator[str]:
    """One line per row of the columns (arrays set side by side), each
    formatted by row_format, which holds one conversion per field; the
    lines come CHUNK_FIELDS fields at a time (at least one row)."""
    step = max(1, CHUNK_FIELDS // row_format.count("%"))
    for start in range(0, len(columns[0]), step):
        cells = np.column_stack([np.asarray(c[start:start + step], dtype=object) for c in columns])
        yield (row_format * len(cells)) % tuple(cells.ravel())


def _csv_header(header: Sequence[str]) -> str:
    return ",".join(header) + "\r\n"


def _sample_header(d: int, k: int) -> list[str]:
    return (
        ["cell"]
        + [f"u_{i + 1}" for i in range(d)]
        + [part for s in range(k) for part in (f"Re_F_{s}", f"Im_F_{s}")]
    )


def _check_sidecar(meta: dict, d: int) -> None:
    """SpecFormatError naming the first malformed shift field of a sample
    sidecar; absent and null fields pass."""
    for key, integer in (("eta", False), ("v", True), ("q", True), ("delta", False)):
        if meta.get(key) is not None:
            kind = "integers" if integer else "finite numbers"
            _number_list(meta[key], d, integer, f"sample sidecar {key} must be a list of {d} {kind}")
    stored = meta.get("index_sets")
    if stored is not None and not (isinstance(stored, list) and all(
        isinstance(idx, list) and all(isinstance(j, list) and all(map(_is_int, j)) for j in idx)
        for idx in stored
    )):
        raise SpecFormatError(
            "sample sidecar index_sets must be a list of per-cell lists of integer index vectors"
        )


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
    header = _sample_header(d, k)
    values = np.ascontiguousarray(data.values, dtype=complex).view(float)
    table = _finite_table(np.concatenate([data.points, values], axis=1))
    row_format = "%d" + ",%.17g" * table.shape[1] + "\r\n"
    atomic_write_text(path, chain((_csv_header(header),), _csv_rows([data.cell_ids, table], row_format)))

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
    """Read a sample CSV; returns the data and the sidecar if present.

    The header must name write_samples' columns; the sidecar's shift
    fields are checked where present, and it is returned as read.

    The body is parsed in chunks of at most CHUNK_FIELDS fields (but at
    least one row), so the fields of at most one chunk are held as
    strings, whatever k is.  Errors name the same row, in the same order
    of precedence, as a parse of the whole body: the first malformed row
    of the file, else its first non-finite row.
    """
    d = domain.dimension
    k = domain.k
    expected = _sample_header(d, k)
    want = len(expected)
    chunk = max(1, CHUNK_FIELDS // want)
    ids, tables = [], []
    non_finite = None
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise SpecFormatError(f"{path}: empty sample file")
            if len(header) != want:
                raise SpecFormatError(
                    f"{path}: expected {want} columns for dimension {d}, k {k}; "
                    f"got {len(header)}"
                )
            if header != expected:
                i = next(i for i, (a, b) in enumerate(zip(header, expected)) if a != b)
                raise SpecFormatError(f"{path}: column {i + 1} is {header[i]!r}, expected {expected[i]!r}")
            first = 2  # file row of the chunk's first body row
            while True:
                cell_ids, table = _parse_rows(path, list(islice(reader, chunk)), want, first)
                ids.append(cell_ids)
                tables.append(table)
                finite = np.isfinite(table).all(axis=1)
                if non_finite is None and not finite.all():
                    non_finite = int(np.argmin(finite)) + first
                first += len(table)
                if len(table) < chunk:
                    break
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise SpecFormatError(f"{path}: {exc}") from None
    if non_finite is not None:
        raise SpecFormatError(f"{path}: row {non_finite}: non-finite point or value")
    cell_ids = np.concatenate(ids)
    points = np.concatenate([table[:, :d] for table in tables])
    values = np.concatenate([table[:, d:] for table in tables]).view(complex)

    meta = None
    sidecar = _sidecar_path(path)
    if os.path.exists(sidecar):
        meta = _read_json(sidecar)
        if not isinstance(meta, dict):
            raise SpecFormatError(f"{sidecar}: expected a JSON object")
        _check_sidecar(meta, d)
    fields = meta or {}
    data = SpectralData(
        cell_ids=cell_ids,
        points=points,
        values=values,
        provenance=fields.get("provenance", "exact-pointwise"),
        radius=fields.get("radius"),
    )
    return data, meta


def _parse_rows(path: str, body: list, want: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell ids and the (n, want - 1) float table of n sample body rows,
    the first of them row `first` of the file."""
    # numpy parses each string with Python's float() and int(); the id
    # column, which int() decides, is also parsed as float and dropped.
    # A row of the wrong length makes the array ragged or the reshape
    # fail.  On any failure the loop names the first bad row.
    try:
        table = np.array(body, dtype=float).reshape(len(body), want)[:, 1:]
        cell_ids = np.array([row[0] for row in body], dtype=int)
    except (ValueError, OverflowError):
        for i, row in enumerate(body, start=first):
            if len(row) != want:
                raise SpecFormatError(f"{path}: row {i} has {len(row)} columns") from None
            try:
                np.array(row[:1], dtype=int), np.array(row[1:], dtype=float)
            except (ValueError, OverflowError) as exc:
                raise SpecFormatError(f"{path}: row {i}: {exc}") from None
        raise
    return cell_ids, table


def write_result(path: str, result: ReconstructionResult, dimension: int) -> None:
    """Write reconstructed values as CSV rows (point, value, residual).

    One line per value, in the order of result.values: the region
    point, the value and the residual of its data row, the residual
    field empty where it is NaN (no oracle ran).  The lines are
    formatted and written CHUNK_FIELDS fields at a time (at least one
    kept row of k lines per chunk), each chunk's region points computed
    from its kept rows, so neither the whole table nor the whole text is ever
    held, and the result's points, source_rows and regions are never
    read.  A non-finite entry raises on the first one in line order and
    leaves the target as it was.
    """
    header = [f"y_{i + 1}" for i in range(dimension)] + ["Re_f", "Im_f", "residual"]
    atomic_write_text(path, chain((_csv_header(header),), _result_rows(result)))


def _result_rows(result: ReconstructionResult) -> Iterator[str]:
    """The body lines of write_result, one string per chunk of kept rows."""
    domain = result.domain
    k = domain.k
    # M u of every kept row, so each chunk's region points are exactly
    # the rows of result.points
    base = result.kept_points @ domain.lattice.basis.T
    values = np.ascontiguousarray(result.values, dtype=complex).view(float).reshape(-1, 2)
    row_format = "%.17g," * (domain.dimension + 2) + "%s\r\n"
    step = max(1, CHUNK_FIELDS // (k * row_format.count("%")))
    for start in range(0, len(result.kept_rows), step):
        rows = slice(start, start + step)
        residuals = result.residuals[result.kept_rows[rows]] + 0.0
        # a NaN residual means no oracle ran and is written as an empty field
        missing = np.isnan(residuals)
        table = _finite_table(np.column_stack([
            _offset_images(domain, result.kept_cells[rows], base[rows]),
            values[start * k:(start + step) * k],
            np.repeat(np.where(missing, 0.0, residuals), k),
        ]))
        text = np.array(["" if m else "%.17g" % r for m, r in zip(missing, residuals)], dtype=object)
        yield from _csv_rows([table[:, :-1], np.repeat(text, k)], row_format)
