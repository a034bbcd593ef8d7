"""Prefix trees over frequency sets and their shift index sets.

A frequency set is a finite list of points in R^d (integer lattice
offsets in the main use).  Its tree records, level by level, the
distinct coordinate prefixes, each prefix's set of child values, and a
half-open index window per prefix.  Windows are nested by construction:
prefixes are ordered by ascending child count, window i spans
[count_{i-1}, count_i), and the union of the first p windows is exactly
[0, count_p).  The shift index set is built from the windows by a
recursion on ordered suffix lists of the prefix ordering; it always has
exactly as many elements as the frequency set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateOffset, SpecFormatError

GROUP_TOL = 1e-9  # coordinate values closer than this are treated as equal


@dataclass(frozen=True)
class FrequencySet:
    """Finite set of points in R^d with tolerance-canonicalized entries."""

    dimension: int
    vectors: tuple[tuple[float, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)


def make_frequency_set(vectors) -> FrequencySet:
    """Canonicalize coordinates to tolerance and build a FrequencySet.

    Values in one coordinate that fall within GROUP_TOL of each other are
    snapped to a shared representative, so later equality tests on
    prefixes and child values are exact.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise SpecFormatError(f"frequency set must be a nonempty (k, d) array, got {arr.shape}")
    canon = arr.copy()
    for j in range(arr.shape[1]):
        col = canon[:, j]
        order = np.argsort(col, kind="stable")
        rep = np.nan
        prev = np.nan
        for idx in order:
            v = col[idx]
            if not np.isfinite(prev) or v - prev > GROUP_TOL:
                rep = v
            col[idx] = rep
            prev = v
    tuples = tuple(tuple(row) for row in canon)
    if len(set(tuples)) != len(tuples):
        raise DuplicateOffset("frequency vectors collide after tolerance grouping")
    return FrequencySet(dimension=arr.shape[1], vectors=tuples)


@dataclass(frozen=True)
class TreeLevel:
    """One level of the prefix tree.

    parents:  the distinct prefixes of length level-1, ordered by
              ascending child count with lexicographic tie-break
              (a single empty prefix at level 1)
    children: per parent, its distinct child values, ascending
    windows:  per parent, the half-open index window [lo, hi)
    nodes:    the distinct prefixes of length `level`, parent-major
    """

    level: int
    parents: tuple[tuple[float, ...], ...]
    children: tuple[tuple[float, ...], ...]
    windows: tuple[tuple[int, int], ...]
    nodes: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class FrequencyTree:
    frequencies: FrequencySet
    levels: tuple[TreeLevel, ...]

    @property
    def level_sizes(self) -> tuple[int, ...]:
        """Number of distinct prefixes at each level."""
        return tuple(len(lv.nodes) for lv in self.levels)


def _group(vectors):
    """Group vectors by their length-(l-1) prefix.

    Returns (parents, children, counts, windows) with parents ordered
    by ascending child count, ties broken lexicographically, children
    ascending, and windows [counts[i-1], counts[i]) half-open.
    """
    buckets: dict[tuple, list] = {}
    for v in vectors:
        buckets.setdefault(v[:-1], []).append(v[-1])
    items = sorted(
        ((p, tuple(sorted(ch))) for p, ch in buckets.items()),
        key=lambda it: (len(it[1]), it[0]),
    )
    parents = tuple(p for p, _ in items)
    children = tuple(ch for _, ch in items)
    counts = tuple(len(ch) for ch in children)
    windows = []
    prev = 0
    for c in counts:
        windows.append((prev, c))
        prev = c
    return parents, children, counts, tuple(windows)


def build_tree(fs: FrequencySet) -> FrequencyTree:
    """Build the full prefix tree of a frequency set."""
    levels = []
    for level in range(1, fs.dimension + 1):
        prefixes = sorted(set(v[:level] for v in fs.vectors))
        parents, children, _, windows = _group(prefixes)
        nodes = tuple(p + (z,) for p, ch in zip(parents, children) for z in ch)
        levels.append(
            TreeLevel(
                level=level,
                parents=parents,
                children=children,
                windows=windows,
                nodes=nodes,
            )
        )
    return FrequencyTree(frequencies=fs, levels=tuple(levels))


def _k_index(vectors) -> list[tuple[int, ...]]:
    """Index recursion over ordered suffix lists of the prefix ordering.

    For a single coordinate the indices are just 0..n-1.  Otherwise,
    for each parent i (in window order) the recursion runs on the
    ordered suffix starting at i, and every recursive index vector is
    paired with every value of window i, appended as the last entry.
    Parents whose window is empty (tied child counts) contribute
    nothing directly; their index mass is carried by earlier suffixes.
    """
    if len(vectors[0]) == 1:
        return [(i,) for i in range(len(vectors))]
    parents, _, _, windows = _group(vectors)
    out: list[tuple[int, ...]] = []
    for i in range(len(parents)):
        lo, hi = windows[i]
        if lo >= hi:
            continue
        for jj in _k_index(parents[i:]):
            for q in range(lo, hi):
                out.append(jj + (q,))
    return out


def shift_index_set(tree: FrequencyTree) -> tuple[tuple[int, ...], ...]:
    """The shift index set of the tree: its integer index vectors in
    order, one per frequency vector."""
    return tuple(_k_index(tree.frequencies.vectors))
