"""Sampled spectral data and its reconstruction.

Data attaches to grid points of the fundamental domain: for a point u
with system matrix V and region values y_r = f(omega_r(u)), the stored
vector is

    F = vol(lattice) * V y,

the pointwise value of the per-shift exponential sums of f.  Data can
be produced exactly from region values (forward_data) or as a radius-
truncated coefficient sum for a finite exponential combination
(coefficient_data); the truncated data converges to the exact data as
the radius grows.  The inner products of all its terms come from one
batched table of the closed-form kernel of expsystem, and the sum over
labels is one matrix product per chunk of points.  Reconstruction
inverts V through the nested Vandermonde recursion, which only ever
solves 1D systems; make_shifts runs that recursion once per
well-conditioned cell, so reconstructing its rows is one matrix
product.  A dense solve of V serves only as the oracle.

Both forward_data and reconstruct_grid keep the data row-major and
scale the small (k, k) matrix rather than the (N, k) data.  A cell
whose rows form one contiguous run, as in every flatten_grid layout
and every file synthesize writes, is multiplied through views and
written in place; rows in any other order take one gather and one
scatter per cell and agree with it to rounding.

A ReconstructionResult stores what the solve produces: the k region
values of each kept row, the kept rows with their cells and points of
[0,1)^d, the residuals and the skipped rows.  Its (M*k)-long points,
source_rows and regions are pure functions of those and are computed
only when first read, never by reconstruct_grid."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from .domain import MultiTileDomain, _cell_groups, _cell_rows, _offset_images
from .errors import DimensionMismatch, SingularMatrix, SpecFormatError
from .expsystem import (
    ShiftSet,
    _chunks,
    _label,
    _label_grid,
    _piece_table,
    _unit_phases,
    cell_system,
)
from .vandermonde import _phases, _solve_columns, _warn_ill_conditioned

__all__ = [
    "SpectralData",
    "ReconstructionResult",
    "flatten_grid",
    "forward_data",
    "coefficient_data",
    "reconstruct_direct",
    "reconstruct_grid",
]


@dataclass(frozen=True)
class SpectralData:
    """Per-point data vectors, columns in the owning cell's index order."""

    cell_ids: np.ndarray      # (N,)
    points: np.ndarray        # (N, d) points of [0,1)^d
    values: np.ndarray        # (N, k) complex
    provenance: str           # "exact-pointwise" | "coefficient-truncated"
    radius: Optional[int] = None


def flatten_grid(grid) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate sample_grid output into (cell_ids, points)."""
    ids = np.concatenate([np.full(len(pts), ci, dtype=int) for ci, pts in grid])
    pts = np.concatenate([pts for _, pts in grid], axis=0)
    return ids, pts


def _check_rows(domain: MultiTileDomain, cell_ids, points) -> None:
    """SpecFormatError for a data row whose cell id no cell has (the
    smallest such id), DimensionMismatch for points that are not (N, d)."""
    unknown = (cell_ids < 0) | (cell_ids >= len(domain.cells))
    if unknown.any():
        raise SpecFormatError(f"data references unknown cell {cell_ids[unknown].min()}")
    if points.shape != (len(cell_ids), domain.dimension):
        raise DimensionMismatch(f"points must have shape (N, {domain.dimension}), got {points.shape}")


def forward_data(
    domain: MultiTileDomain, shifts: ShiftSet, cell_ids, points, region_values
) -> SpectralData:
    """Exact data from region samples: F = vol * V y per point.

    Each row's cell id is trusted: the row gets that cell's V whether or
    not its point lies in the cell's box.  Box membership is checked
    where it matters, by reconstruct_grid, which skips such rows.
    Unknown cell ids and points that are not (N, d) are rejected.
    """
    cell_ids = np.asarray(cell_ids, dtype=int)
    points = np.asarray(points, dtype=float)
    y = np.asarray(region_values, dtype=complex)
    if y.shape != (len(cell_ids), domain.k):
        raise DimensionMismatch(
            f"region values must have shape (N, {domain.k}), got {y.shape}"
        )
    _check_rows(domain, cell_ids, points)
    out = np.empty(y.shape, dtype=complex)
    vol = domain.lattice.volume
    for ci, rows in _cell_groups(cell_ids):
        _product(y[rows], vol * cell_system(domain, shifts, ci).V.T, out, rows)
    return SpectralData(
        cell_ids=cell_ids, points=points, values=out, provenance="exact-pointwise"
    )


def _product(F: np.ndarray, A: np.ndarray, out: np.ndarray, rows) -> None:
    """Write F @ A into out[rows], in place when rows is a slice."""
    if isinstance(rows, slice):
        np.matmul(F, A, out=out[rows])
    else:
        out[rows] = F @ A


def coefficient_data(
    domain: MultiTileDomain,
    shifts: ShiftSet,
    coeffs: Mapping,
    cell_ids,
    points,
    radius: int,
) -> SpectralData:
    """Radius-truncated data for f = sum of coeffs[(n', s')] * e_(n',s').

    For every shift position s the stored value at a point u is

        sum_{|n|_inf <= radius} <f, e_(n,s)> e_(n,s)(x),   x = M u,

    with the inner products evaluated in closed form by one batched
    kernel table over all terms: each block holds every term's inner
    products for a chunk of labels, at most CHUNK entries (but at least
    one label), so no table is larger than terms x (2 radius + 1)^d x
    k.  Each label's inner product adds the terms in the order of
    coeffs.  As radius grows this converges to the exact data of
    forward_data.
    """
    if radius < 0:
        raise SpecFormatError(f"radius must be nonnegative, got {radius}")
    cell_ids = np.asarray(cell_ids, dtype=int)
    points = np.asarray(points, dtype=float)
    d = domain.dimension
    k = domain.k
    js = np.array(shifts.index_sets[0])
    delta = shifts.delta

    terms = [(_label(domain, shifts, n, s), int(s) - 1, complex(c)) for (n, s), c in coeffs.items()]
    phases = _unit_phases(domain, shifts, np.zeros(d, dtype=int), np.arange(1, k + 1))

    # <f, e_(n,s)> over the label grid n, one table row per n: one
    # batched table, block [t] holding term t's inner products
    labels = _label_grid(radius, d)
    n_terms = np.array([n for n, _, _ in terms], dtype=int).reshape(-1, d)
    s_terms = np.array([s for _, s, _ in terms], dtype=int)
    jd = (js[s_terms, None, :] - js).reshape(-1, d)
    regions = [_phases(delta, shifts.q, -jd, c.offsets).T for c in domain.cells]
    inner = np.zeros((len(labels), k), dtype=complex)
    for rows, block in _piece_table(domain, n_terms[:, None, :] - labels, (delta * jd).reshape(-1, k, d), regions):
        for (_, _, c), part in zip(terms, block):
            inner[rows] += c * part
    # e_(n,s)(x) = exp(2 pi i <u, n>) * exp(2 pi i <u, delta*j_s + eta>)
    values = np.empty((len(cell_ids), k), dtype=complex)
    for rows in _chunks(len(points), len(labels)):
        u = points[rows]
        values[rows] = np.exp(2j * np.pi * (u @ labels.T)) @ inner
        values[rows] *= phases(u)
    return SpectralData(
        cell_ids=cell_ids,
        points=points,
        values=values,
        provenance="coefficient-truncated",
        radius=radius,
    )


def reconstruct_direct(V, F) -> np.ndarray:
    """Dense partial-pivoting solve of V y = F."""
    try:
        return np.linalg.solve(np.asarray(V, dtype=complex), np.asarray(F, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"dense solve failed: {exc}") from None


@dataclass(frozen=True)
class ReconstructionResult:
    """Region values at the kept data rows, as the solve produced them.

    values holds the k region values of each of the M kept rows, row by
    row (region r of kept row i at i*k + r - 1).  The kept rows are
    stored with their cell ids and [0,1)^d points.  points, source_rows
    and regions, one entry per value, are computed from them on first
    access and cached.
    """

    values: np.ndarray        # (M*k,) reconstructed values
    residuals: np.ndarray     # (N,) nested-vs-dense relative residual, NaN if no oracle
    skipped: tuple[int, ...]  # data rows whose grid point was unusable
    kept_rows: np.ndarray     # (M,) data rows that were reconstructed, ascending
    kept_cells: np.ndarray    # (M,) their cell ids
    kept_points: np.ndarray   # (M, d) their points of [0,1)^d
    domain: MultiTileDomain   # maps the kept points to the region points

    @cached_property
    def points(self) -> np.ndarray:
        """(M*k, d) points of the domain, regions 1..k of each kept row."""
        return _offset_images(self.domain, self.kept_cells, self.kept_points @ self.domain.lattice.basis.T)

    @cached_property
    def source_rows(self) -> np.ndarray:
        """(M*k,) originating data row of each value."""
        return np.repeat(self.kept_rows, self.domain.k)

    @cached_property
    def regions(self) -> np.ndarray:
        """(M*k,) 1-based region index of each value."""
        return np.tile(np.arange(1, self.domain.k + 1), len(self.kept_rows))


def reconstruct_grid(
    domain: MultiTileDomain,
    shifts: ShiftSet,
    data: SpectralData,
    oracle: bool = False,
) -> ReconstructionResult:
    """Reconstruct region values at every data point via nested solves.

    Rows are batched per cell, and every cell with usable rows is read
    through cell_system, so a singular cell raises SingularCell, with
    or without the oracle.  A cell with a solve matrix S (the nested
    recursion make_shifts ran on the unit vectors) reconstructs all its
    usable rows with one product F @ (S.T / vol) on the row-major data.
    The product reads the cell's rows through a view when they form one
    contiguous run and no row was skipped, as for any flatten_grid
    layout, and is written straight into the result when the cell's
    usable rows form one run; otherwise rows are gathered or scattered
    once.  A cell without a matrix (one of its blocks, or V, has a
    condition number above COND_LIMIT) runs the recursion on all its
    rows in one walk, and the call warns once per block above
    COND_LIMIT that make_shifts recorded for the cell.  Rows whose
    point lies outside the box of the cell they name, or outside the
    domain, are skipped.  With oracle=True every cell's rows are
    additionally solved densely and the relative difference is reported
    per data row.  Frequency vectors and block conditioning come from
    the cell systems make_shifts built.
    """
    vol = domain.lattice.volume
    k = domain.k
    n_rows = len(data.cell_ids)
    if data.values.shape != (n_rows, k):
        raise DimensionMismatch(
            f"data values must have shape ({n_rows}, {k}), got {data.values.shape}"
        )
    cell_ids = np.asarray(data.cell_ids, dtype=int)
    _check_rows(domain, cell_ids, data.points)

    usable_mask = _cell_rows(domain, data.points) == cell_ids
    usable = np.nonzero(usable_mask)[0]
    all_usable = len(usable) == n_rows

    usable_cells = cell_ids[usable]
    values = np.empty((len(usable), k), dtype=complex)
    residuals = np.full(n_rows, np.nan)
    for ci, rows in _cell_groups(usable_cells):
        ps = cell_system(domain, shifts, ci)
        F = data.values[rows if all_usable else usable[rows]]
        if ps.solve is None:
            values[rows] = _solve_columns(ps.vectors, shifts.index_sets[ci], shifts.delta, shifts.q, F.T / vol, []).T
            _warn_ill_conditioned(ps.blocks)
        else:
            _product(F, ps.solve.T / vol, values, rows)
        if oracle:
            direct = reconstruct_direct(ps.V, F.T / vol)
            residuals[usable[rows]] = np.linalg.norm(values[rows].T - direct, axis=0) / np.maximum(
                np.linalg.norm(direct, axis=0), 1e-300
            )

    return ReconstructionResult(
        values=values.ravel(),
        residuals=residuals,
        skipped=tuple(int(row) for row in np.nonzero(~usable_mask)[0]),
        kept_rows=usable,
        kept_cells=usable_cells,
        kept_points=data.points if all_usable else data.points[usable],
        domain=domain,
    )
