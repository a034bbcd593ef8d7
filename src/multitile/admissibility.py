"""Shift-parameter admissibility for multi-tiling domains.

A pair of positive integer vectors (v, q) is admissible when, for every
cell's frequency tree, every level l, and every prefix, the residues
v_l·z mod q_l of the prefix's child values z are pairwise distinct.
Offsets are Python ints, so the residues are exact integers in
[0, q_l), compared with ==, at any offset size; every admissible pair
is strong, and a strong pair whose q equals the common child-count
vector q* (any pair when k = 1) is perfect and yields an orthogonal
basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .domain import MultiTileDomain
from .errors import DimensionMismatch, NoPairFound, SpecFormatError
from .freqtree import _integer_array, build_tree, make_frequency_set


@dataclass(frozen=True)
class LevelWitness:
    """Residues of one prefix's children at one level of one cell."""

    cell: int
    level: int
    parent: tuple[int, ...]
    children: tuple[int, ...]
    residues: tuple[int, ...]


@dataclass(frozen=True)
class AdmissibilityCertificate:
    v: tuple[int, ...]
    q: tuple[int, ...]
    kind: str                 # "strong" | "perfect"
    delta: tuple[float, ...]  # v_l / q_l per level
    witnesses: tuple[LevelWitness, ...]


@dataclass(frozen=True)
class AdmissibilityFailure:
    v: tuple[int, ...]
    q: tuple[int, ...]
    cell: int
    level: int
    parent: tuple[int, ...]
    pair: tuple[int, int]          # colliding child values
    residues: tuple[int, int]
    message: str


CheckResult = Union[AdmissibilityCertificate, AdmissibilityFailure]


def _check_vq(domain: MultiTileDomain, vq, name: str) -> tuple[int, ...]:
    arr = _integer_array(vq, name)
    if arr.shape != (domain.dimension,):
        raise DimensionMismatch(
            f"{name} must have one entry per dimension, got shape {arr.shape}"
        )
    if np.any(arr < 1):
        raise SpecFormatError(f"{name} must be positive integers, got {arr.tolist()}")
    return tuple(arr.tolist())


def _collision(children, v_l: int, q_l: int):
    """Residues v_l·z mod q_l of one prefix's children, and the index
    pair of their first collision (None when all distinct)."""
    residues = [v_l * z % q_l for z in children]
    for i, j in itertools.combinations(range(len(residues)), 2):
        if residues[i] == residues[j]:
            return residues, (i, j)
    return residues, None


def cell_trees(domain: MultiTileDomain):
    """Frequency tree of each cell's offset list, in cell order."""
    return [build_tree(make_frequency_set(c.offsets)) for c in domain.cells]


def _certify(domain: MultiTileDomain, trees, v, q) -> CheckResult:
    """check() on already validated (v, q) and already built trees."""
    witnesses: list[LevelWitness] = []
    for ci, tree in enumerate(trees):
        for lv in tree.levels:
            vl, ql = v[lv.level - 1], q[lv.level - 1]
            for parent, children in zip(lv.parents, lv.children):
                residues, hit = _collision(children, vl, ql)
                if hit is not None:
                    i, j = hit
                    return AdmissibilityFailure(
                        v=v,
                        q=q,
                        cell=ci,
                        level=lv.level,
                        parent=parent,
                        pair=(children[i], children[j]),
                        residues=(residues[i], residues[j]),
                        message=(
                            f"collision in cell {ci}, level {lv.level}, "
                            f"prefix {parent}: children z={children[i]} and "
                            f"z={children[j]} give {residues[i]} = "
                            f"{residues[j]} (mod {ql})"
                        ),
                    )
                witnesses.append(
                    LevelWitness(
                        cell=ci,
                        level=lv.level,
                        parent=parent,
                        children=children,
                        residues=tuple(residues),
                    )
                )

    # one (level, child count) pair per level is q*; a level with two counts makes it longer than q
    counts = sorted({(lv.level, len(ch)) for t in trees for lv in t.levels for ch in lv.children})
    perfect = domain.k == 1 or q == tuple(c for _, c in counts)
    return AdmissibilityCertificate(
        v=v,
        q=q,
        kind="perfect" if perfect else "strong",
        delta=tuple(vl / ql for vl, ql in zip(v, q)),
        witnesses=tuple(witnesses),
    )


def check(domain: MultiTileDomain, v, q) -> CheckResult:
    """Classify (v, q) for the domain.

    Returns a certificate carrying the strongest class that holds, or a
    failure report naming the first colliding pair.  Collisions are a
    verdict about the inputs, not an exceptional state, so they are
    reported rather than raised.
    """
    v = _check_vq(domain, v, "v")
    q = _check_vq(domain, q, "q")
    return _certify(domain, cell_trees(domain), v, q)


def find_pair(
    domain: MultiTileDomain, v_max: int = 8, q_max: Optional[int] = None
) -> AdmissibilityCertificate:
    """Search for the admissible (v, q) with the smallest q within the
    given bounds, and the smallest v for that q.

    Levels decouple, so each coordinate is searched independently with
    a deterministic ascending scan (q outer, v inner).  A prefix with c
    children needs q_l >= c, since c distinct integer residues need c
    classes, so the scan starts at the level's largest child count; when
    the domain admits a perfect pair within the bounds, that start is
    where the scan finds it.  Raises NoPairFound when some level admits
    no pair within the bounds.
    """
    if q_max is None:
        q_max = max(2 * domain.k, 8)
    trees = cell_trees(domain)
    hits = []
    for level in range(domain.dimension):
        sets = [ch for tree in trees for ch in tree.levels[level].children]
        q_min = max(len(ch) for ch in sets)
        for ql, vl in itertools.product(range(q_min, q_max + 1), range(1, v_max + 1)):
            if all(_collision(ch, vl, ql)[1] is None for ch in sets):
                break
        else:
            raise NoPairFound(
                f"no admissible pair at level {level + 1} with "
                f"v <= {v_max}, q <= {q_max}"
            )
        hits.append((vl, ql))
    v, q = zip(*hits)
    return _certify(domain, trees, v, q)


def perfect_shift_1d(offsets) -> Optional[float]:
    """One-dimensional perfectly conditioned shift spacing.

    For k distinct integers z with greatest common divisor Q, returns
    tau = 1/Q when the values z/Q form a complete residue system modulo
    k, and None otherwise.  In the positive case the spacing
    delta = tau/k places the Vandermonde nodes on all k-th roots of
    unity, so the cell matrix satisfies kappa(V) = 1 exactly.
    """
    fs = make_frequency_set(offsets)
    if fs.dimension != 1:
        raise SpecFormatError(f"offsets must be a 1D list, got dimension {fs.dimension}")
    zs = [z for (z,) in fs.vectors]
    k = len(zs)
    if k == 1:
        return 1.0
    g = 0
    for z in zs:
        g = math.gcd(g, abs(z))
    residues = {(z // g) % k for z in zs}
    if residues == set(range(k)):
        return 1.0 / g
    return None
