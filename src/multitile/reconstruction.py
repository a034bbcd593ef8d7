"""Sampled spectral data and its reconstruction.

Data attaches to grid points of the fundamental domain: for a point u
with system matrix V and region values y_r = f(omega_r(u)), the stored
vector is

    F = vol(lattice) * V y,

the pointwise value of the per-shift exponential sums of f.  Data can
be produced exactly from region values (forward_data) or as a radius-
truncated coefficient sum for a finite exponential combination
(coefficient_data); the truncated data converges to the exact data as
the radius grows.  Reconstruction inverts V either densely or through
the nested Vandermonde recursion, which only ever solves 1D systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .domain import MultiTileDomain, cell_index_at
from .errors import (
    DimensionMismatch,
    MultitileError,
    OutOfDomain,
    PointOnGap,
    SingularMatrix,
    SpecFormatError,
)
from .expsystem import ShiftSet, _piece_sum, _require_uniform, cell_system
from .freqtree import FrequencyTree, make_frequency_set
from .vandermonde import block_conditions, nested_solve, solve_vandermonde_1d

__all__ = [
    "SpectralData",
    "ReconstructionResult",
    "flatten_grid",
    "forward_data",
    "coefficient_data",
    "reconstruct_point",
    "reconstruct_direct",
    "reconstruct_grid",
    "solve_vandermonde_1d",
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


def forward_data(
    domain: MultiTileDomain, shifts: ShiftSet, cell_ids, points, region_values
) -> SpectralData:
    """Exact data from region samples: F = vol * V y per point."""
    cell_ids = np.asarray(cell_ids, dtype=int)
    points = np.asarray(points, dtype=float)
    y = np.asarray(region_values, dtype=complex)
    if y.shape != (len(cell_ids), domain.k):
        raise DimensionMismatch(
            f"region values must have shape (N, {domain.k}), got {y.shape}"
        )
    out = np.empty_like(y)
    vol = domain.lattice.volume
    for ci in np.unique(cell_ids):
        rows = np.nonzero(cell_ids == ci)[0]
        V = cell_system(domain, shifts, int(ci)).V
        out[rows] = vol * y[rows] @ V.T
    return SpectralData(
        cell_ids=cell_ids, points=points, values=out, provenance="exact-pointwise"
    )


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

    with the inner products evaluated in closed form.  As radius grows
    this converges to the exact data of forward_data.
    """
    _require_uniform(shifts, "coefficient data")
    if radius < 0:
        raise SpecFormatError(f"radius must be nonnegative, got {radius}")
    cell_ids = np.asarray(cell_ids, dtype=int)
    points = np.asarray(points, dtype=float)
    d = domain.dimension
    k = domain.k
    js = np.array(shifts.index_sets[0], dtype=float)
    delta = shifts.delta
    eta = shifts.eta_coords.astype(float)

    terms = []
    for (n_src, s_src), c in coeffs.items():
        n_src = np.asarray(n_src, dtype=float)
        if n_src.shape != (d,):
            raise DimensionMismatch(f"coefficient label {n_src} is not a {d}-vector")
        if not 1 <= int(s_src) <= k:
            raise SpecFormatError(f"shift position {s_src} outside 1..{k}")
        terms.append((n_src, int(s_src) - 1, complex(c)))

    values = np.zeros((len(cell_ids), k), dtype=complex)
    span = np.arange(-radius, radius + 1)
    for idx in np.ndindex(*([len(span)] * d)):
        n = np.array([span[i] for i in idx], dtype=float)
        for s in range(k):
            inner = 0.0 + 0.0j
            for n_src, s_src, c in terms:
                theta = (n_src - n) + delta * (js[s_src] - js[s])
                inner += c * _piece_sum(domain, theta)
            if inner == 0.0:
                continue
            phase = np.exp(2j * np.pi * (points @ (n + delta * js[s] + eta)))
            values[:, s] += inner * phase
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


def _solve_columns(vectors, order, delta, rhs) -> np.ndarray:
    """Nested solve of V y = rhs for a (k, N) matrix of data columns in
    shift index order; returns (k, N) values in frequency-vector order."""
    data = {j: rhs[i] for i, j in enumerate(order)}
    solved = nested_solve(vectors, data, tuple(np.asarray(delta, dtype=float)))
    return np.array([solved[v] for v in vectors])


def reconstruct_point(tree: FrequencyTree, delta, F) -> np.ndarray:
    """Nested solve of V y = F for one point's data vector.

    F may be a mapping keyed by shift index tuples or a sequence in the
    order of the tree's shift index set.  The result is ordered like
    the tree's frequency vectors.
    """
    from .freqtree import shift_index_set

    order = shift_index_set(tree).indices
    if isinstance(F, Mapping):
        F = [F[j] for j in order]
    F = np.asarray(F, dtype=complex)
    if F.shape != (len(order),):
        raise DimensionMismatch(
            f"data vector must have length {len(order)}, got {F.shape}"
        )
    return _solve_columns(tree.frequencies.vectors, order, delta, F[:, None])[:, 0]


@dataclass(frozen=True)
class ReconstructionResult:
    points: np.ndarray        # (N*k, d) points of the domain
    values: np.ndarray        # (N*k,) reconstructed values there
    source_rows: np.ndarray   # (N*k,) originating data row
    regions: np.ndarray       # (N*k,) 1-based region index
    residuals: np.ndarray     # (N,) nested-vs-dense relative residual, NaN if no oracle
    skipped: tuple[int, ...]  # data rows whose grid point was unusable
    blocks: dict[int, tuple[tuple[int, float], ...]]  # cell -> per-block (level, kappa)


def reconstruct_grid(
    domain: MultiTileDomain,
    shifts: ShiftSet,
    data: SpectralData,
    oracle: bool = False,
) -> ReconstructionResult:
    """Reconstruct region values at every data point via nested solves.

    Rows are batched per cell: all usable rows of a cell go through one
    nested_solve call, so the recursion and its block checks run once
    per cell, not once per row.  With oracle=True every cell's rows are
    additionally solved densely and the relative difference is reported
    per data row.
    """
    vol = domain.lattice.volume
    k = domain.k
    n_rows = len(data.cell_ids)
    if data.values.shape != (n_rows, k):
        raise DimensionMismatch(
            f"data values must have shape ({n_rows}, {k}), got {data.values.shape}"
        )
    cell_ids = np.asarray(data.cell_ids, dtype=int)
    present = [int(ci) for ci in np.unique(cell_ids)]
    for ci in present:
        if ci < 0 or ci >= len(domain.cells):
            raise SpecFormatError(f"data references unknown cell {ci}")

    # rows outside their own cell's box are usable only if they still
    # locate to that cell (shared box faces)
    boxes = np.stack([cell.box for cell in domain.cells])[cell_ids]
    inside = np.all((data.points >= boxes[:, :, 0]) & (data.points < boxes[:, :, 1]), axis=1)
    usable_mask = inside.copy()
    for row in np.nonzero(~inside)[0]:
        try:
            usable_mask[row] = cell_index_at(domain, data.points[row]) == cell_ids[row]
        except (PointOnGap, OutOfDomain):
            pass
    usable = np.nonzero(usable_mask)[0]

    usable_cells = cell_ids[usable]
    values = np.empty((len(usable), k), dtype=complex)
    residuals = np.full(n_rows, np.nan)
    blocks = {}
    for ci in present:
        fs = make_frequency_set(domain.cells[ci].offsets)
        blocks[ci] = tuple(block_conditions(fs.vectors, tuple(shifts.delta)))
        sel = usable_cells == ci
        if not sel.any():
            continue
        rhs = data.values[usable[sel]].T / vol
        cols = _solve_columns(fs.vectors, shifts.index_sets[ci], shifts.delta, rhs)
        values[sel] = cols.T
        if oracle:
            direct = reconstruct_direct(cell_system(domain, shifts, ci).V, rhs)
            residuals[usable[sel]] = np.linalg.norm(cols - direct, axis=0) / np.maximum(
                np.linalg.norm(direct, axis=0), 1e-300
            )

    offsets = np.stack([cell.offsets for cell in domain.cells])
    shifted = data.points[usable][:, None, :] + offsets[usable_cells]
    return ReconstructionResult(
        points=(shifted @ domain.lattice.basis.T).reshape(-1, domain.dimension),
        values=values.ravel(),
        source_rows=np.repeat(usable, k),
        regions=np.tile(np.arange(1, k + 1), len(usable)),
        residuals=residuals,
        skipped=tuple(int(row) for row in np.nonzero(~usable_mask)[0]),
        blocks=blocks,
    )
