"""Multi-tiling domains: unions of lattice-translated boxes.

A domain is described on the fundamental domain M·[0,1)^d by a finite
list of cells.  Each cell owns a half-open box in [0,1)^d together with
k distinct integer offset vectors; the piece of the domain above the
box is the union of the box translated by M·z over the cell's offsets
z.  When the boxes partition [0,1)^d up to measure zero, the resulting
set tiles R^d with multiplicity k under translation by the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentK,
    NotATiling,
    OutOfDomain,
    PointOnGap,
    SpecFormatError,
)
from .freqtree import _integer_array, make_frequency_set
from .lattice import Lattice, _reduce_rows

BOX_TOL = 1e-12       # geometric comparisons on box faces
COVER_TOL = 1e-10     # total-volume defect allowed for a partition


@dataclass(frozen=True)
class Cell:
    """Half-open box [a,b) in [0,1)^d with its integer offset list.

    Offsets are stored lexicographically sorted; their order defines
    the region numbering r = 1..k of the domain pieces above the box.
    """

    box: np.ndarray      # (d, 2) columns [a_i, b_i]
    offsets: np.ndarray  # (k, d) int64


def make_cell(box, offsets) -> Cell:
    box = np.array(box, dtype=float)
    if not np.isfinite(box).all():
        raise SpecFormatError("cell box must be finite")
    if box.ndim != 2 or box.shape[1] != 2:
        raise SpecFormatError(f"cell box must have shape (d, 2), got {box.shape}")
    a, b = box[:, 0], box[:, 1]
    if np.any(a < -BOX_TOL) or np.any(b > 1.0 + BOX_TOL):
        raise SpecFormatError("cell box must lie inside the unit cube")
    if np.any(b - a <= BOX_TOL):
        raise SpecFormatError("cell box has an empty or inverted side")
    box = np.clip(box, 0.0, 1.0)

    raw = np.asarray(offsets)
    if raw.ndim != 2 or raw.shape[1] != box.shape[0]:
        raise SpecFormatError(
            f"offsets must have shape (k, {box.shape[0]}), got {raw.shape}"
        )
    if raw.shape[0] == 0:
        raise SpecFormatError("cell needs at least one offset")
    # lexicographic, first coordinate primary
    ints = np.array(sorted(make_frequency_set(_integer_array(raw, "offsets")).vectors), dtype=np.int64)
    box.setflags(write=False)
    ints.setflags(write=False)
    return Cell(box=box, offsets=ints)


@dataclass(frozen=True)
class MultiTileDomain:
    lattice: Lattice
    cells: tuple[Cell, ...]
    k: int
    measure: float  # k * |det M|

    @property
    def dimension(self) -> int:
        return self.lattice.dimension


def make_domain(lattice: Lattice, cells) -> MultiTileDomain:
    """Assemble and validate a multi-tiling domain."""
    cells = tuple(cells)
    if not cells:
        raise NotATiling("domain needs at least one cell")
    d = lattice.dimension
    for c in cells:
        if c.box.shape[0] != d:
            raise DimensionMismatch("cell dimension disagrees with the lattice")
    k = validate_cells(cells)
    return MultiTileDomain(
        lattice=lattice, cells=cells, k=k, measure=k * lattice.volume
    )


def validate_cells(cells) -> int:
    """Check the partition and multiplicity invariants; return k.

    The boxes must be pairwise disjoint and fill the unit cube up to a
    volume defect of 1e-10; every cell must carry the same number of
    distinct offsets.  The common count k is the tiling multiplicity:
    for u in a cell's box, the points M(u + z) over the cell's offsets
    z enumerate exactly the lattice translates carrying u's fiber, so
    the covering count of the tiling is k almost everywhere.
    """
    ks = {len(c.offsets) for c in cells}
    if len(ks) != 1:
        raise InconsistentK(f"cells carry different offset counts: {sorted(ks)}")
    (k,) = ks

    total = 0.0
    for c in cells:
        total += float(np.prod(c.box[:, 1] - c.box[:, 0]))
    if abs(total - 1.0) > COVER_TOL:
        raise NotATiling(f"cell boxes cover volume {total:.12f}, expected 1")

    boxes = np.array([c.box for c in cells])
    for i in range(len(cells) - 1):
        lo = np.maximum(boxes[i, :, 0], boxes[i + 1:, :, 0])
        hi = np.minimum(boxes[i, :, 1], boxes[i + 1:, :, 1])
        (hits,) = np.nonzero(np.all(hi - lo > BOX_TOL, axis=1))
        if len(hits):
            raise NotATiling(f"cell boxes {i} and {i + 1 + hits[0]} overlap")
    return k


def cell_index_at(domain: MultiTileDomain, u) -> int:
    """Index of the cell whose half-open box owns u in [0,1)^d."""
    u = np.asarray(u, dtype=float)
    if u.shape != (domain.dimension,):
        raise DimensionMismatch(
            f"point has shape {u.shape}, expected ({domain.dimension},)"
        )
    ci = int(_cell_rows(domain, u[None, :])[0])
    if ci < 0:
        raise _unowned(u)
    return ci


def _cell_rows(domain: MultiTileDomain, u: np.ndarray) -> np.ndarray:
    """cell_index_at for every row of an (N, d) array at once, with -1
    for rows that no box owns.  The first cell whose box holds a row
    wins."""
    cells = np.full(len(u), -1)
    for i, c in enumerate(domain.cells):
        inside = ((u >= c.box[:, 0]) & (u < c.box[:, 1])).all(axis=1)
        cells[inside & (cells < 0)] = i
    return cells


def _unowned(u: np.ndarray) -> Exception:
    """The error for a point u that no cell box owns."""
    if np.any(u < 0.0) or np.any(u >= 1.0):
        return OutOfDomain(f"point {u} lies outside [0,1)^d")
    return PointOnGap(f"point {u} falls between cell boxes; perturb it off the face")


def omega(domain: MultiTileDomain, r: int, u) -> np.ndarray:
    """Map u in [0,1)^d to the point of region r above it, y = M(u + z_r).

    Regions are numbered r = 1..k in the owning cell's offset order.
    """
    c = domain.cells[cell_index_at(domain, u)]
    if not 1 <= r <= domain.k:
        raise OutOfDomain(f"region index {r} outside 1..{domain.k}")
    u = np.asarray(u, dtype=float)
    return domain.lattice.basis @ (u + c.offsets[r - 1])


def _cell_groups(cells: np.ndarray) -> list[tuple[int, slice | np.ndarray]]:
    """The rows of each cell id in an (N,) array of valid (nonnegative)
    cell ids, as (cell, rows) pairs.

    rows is a slice when all of the cell's rows form one contiguous run,
    as in every flatten_grid layout, so callers can read and write them
    through views; otherwise it is an index array.
    """
    if len(cells) == 0:
        return []
    edges = np.concatenate(([0], np.flatnonzero(np.diff(cells)) + 1, [len(cells)]))
    heads = cells[edges[:-1]]
    distinct = np.flatnonzero(np.bincount(heads))
    if len(distinct) == len(heads):
        return [(int(c), slice(int(a), int(b))) for c, a, b in zip(heads, edges[:-1], edges[1:])]
    return [(int(c), np.flatnonzero(cells == c)) for c in distinct]


def _offset_images(domain: MultiTileDomain, cells: np.ndarray, base: np.ndarray) -> np.ndarray:
    """omega for every region above every row u owned by the given cells,
    from base = M u: (N*k, d), regions 1..k of each row in turn.

    M(u + z) is computed as M u plus the cell's offset image M z, so
    the (N, k, d) result is written once, one axis at a time.  Callers
    that need the points of a block of rows pass a block of base, which
    gives exactly the rows of the whole result; a product M u of the
    block alone may round differently from the whole one.
    """
    basis_t = domain.lattice.basis.T
    out = np.empty((len(base), domain.k, domain.dimension))
    for ci, rows in _cell_groups(cells):
        images = domain.cells[ci].offsets @ basis_t
        for ax in range(domain.dimension):
            if isinstance(rows, slice):
                np.add(base[rows, ax, None], images[:, ax], out=out[rows, :, ax])
            else:
                out[rows, :, ax] = base[rows, ax, None] + images[:, ax]
    return out.reshape(-1, domain.dimension)


def omega_inverse(domain: MultiTileDomain, y) -> tuple[int, np.ndarray]:
    """Invert omega: find (r, u) with y = M(u + z_r).

    Raises OutOfDomain when y does not belong to the domain and
    PointOnGap when its reduction lands between cell boxes.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (domain.dimension,):
        raise DimensionMismatch(
            f"point has shape {y.shape}, lattice dimension is {domain.dimension}"
        )
    regions, u, _ = _omega_inverse_rows(domain, y[None, :])
    return int(regions[0]), u[0]


def _omega_inverse_rows(
    domain: MultiTileDomain, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """omega_inverse for every row of an (N, d) array at once.

    Returns the 1-based regions, the reduced points u and the owning
    cells.  When rows fail, raises the error omega_inverse raises for
    the first of them.
    """
    u, z = _reduce_rows(domain.lattice, y)
    cells = _cell_rows(domain, u)
    regions = np.zeros(len(y), dtype=int)
    for ci, c in enumerate(domain.cells):
        here = np.flatnonzero(cells == ci)
        if len(here) == 0:
            continue
        match = z[here, None, 0] == c.offsets[:, 0]  # (rows, k)
        for ax in range(1, domain.dimension):
            match &= z[here, None, ax] == c.offsets[:, ax]
        regions[here] = np.where(match.any(axis=1), match.argmax(axis=1) + 1, 0)
    bad = np.flatnonzero(regions == 0)
    if len(bad):
        i = bad[0]
        if cells[i] < 0:
            raise _unowned(u[i])
        raise OutOfDomain(f"point {y[i]} is not in the domain")
    return regions, u, cells


def sample_grid(domain: MultiTileDomain, n: int) -> list[tuple[int, np.ndarray]]:
    """Midpoint grid with n points per axis inside every cell box.

    Returns (cell index, points) pairs; points have shape (n^d, d) and
    sit strictly inside the boxes, so they never touch a face.
    """
    if n < 1:
        raise SpecFormatError(f"grid resolution must be positive, got {n}")
    out = []
    for i, c in enumerate(domain.cells):
        axes = [
            c.box[ax, 0] + (np.arange(n) + 0.5) * (c.box[ax, 1] - c.box[ax, 0]) / n
            for ax in range(domain.dimension)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        out.append((i, pts))
    return out
