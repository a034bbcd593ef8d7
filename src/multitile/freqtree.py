"""Prefix trees over frequency sets and their shift index sets.

A frequency set is a finite list of distinct integer vectors in Z^d
(lattice offsets in the main use), held as tuples of Python ints, so
every equality test on prefixes and child values is exact.  Its tree
records, level by level, the distinct coordinate prefixes, each
prefix's set of child values, and a half-open index window per prefix.
Windows are nested by construction: prefixes are ordered by ascending
child count, window i spans [count_{i-1}, count_i), and the union of
the first p windows is exactly [0, count_p).  The shift index set is
built from the windows by a recursion on ordered suffix lists of the
prefix ordering; it always has exactly as many elements as the
frequency set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateOffset, SpecFormatError


@dataclass(frozen=True)
class FrequencySet:
    """Finite set of distinct integer vectors in Z^d, as int tuples."""

    dimension: int
    vectors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)


def _integer_array(values, what: str) -> np.ndarray:
    """values as an int64 array: integer arrays as they are, others when
    every entry is a whole number within the 64-bit range (so 2.0 is
    accepted); SpecFormatError naming `what` otherwise."""
    arr = np.asarray(values)
    if arr.dtype.kind != "i":
        arr = arr.astype(float)
        if not ((arr >= -(2.0**63)) & (arr < 2.0**63)).all():
            raise SpecFormatError(f"{what} must be finite and within the 64-bit integer range")
        if np.any(arr != np.rint(arr)):
            raise SpecFormatError(f"{what} must be integers")
    return arr.astype(np.int64)


def make_frequency_set(vectors) -> FrequencySet:
    """FrequencySet of a (k, d) array of integer vectors (a (k,) array
    for d = 1), read by _integer_array; DuplicateOffset when a vector
    repeats."""
    arr = _integer_array(vectors, "frequency vectors")
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise SpecFormatError(f"frequency set must be a nonempty (k, d) array, got {arr.shape}")
    tuples = tuple(map(tuple, arr.tolist()))
    if len(set(tuples)) != len(tuples):
        raise DuplicateOffset("frequency set lists a vector twice")
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
    parents: tuple[tuple[int, ...], ...]
    children: tuple[tuple[int, ...], ...]
    windows: tuple[tuple[int, int], ...]
    nodes: tuple[tuple[int, ...], ...]


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
