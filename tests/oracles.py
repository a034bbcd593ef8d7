"""Independent reference computations used to pin expected test values.

Everything here is deliberately written against the raw definitions,
without reusing the package's data structures, so the main code paths
are cross-checked rather than self-checked.
"""

from __future__ import annotations

import numpy as np


def shift_indices_reference(ml: np.ndarray) -> list[tuple[int, ...]]:
    """Direct recursive construction of the shift index set.

    Transliterated from a known-good matrix-language routine: group the
    distinct rows by their length-(l-1) prefixes (unique rows come out
    lexicographically sorted), count children per prefix, stable-sort
    the prefixes by count, and recurse on ordered suffix blocks with a
    window of fresh last-coordinate indices per prefix.
    """
    ml = np.asarray(ml)
    n, l = ml.shape
    if l == 1:
        return [(i,) for i in range(n)]
    uniq, inverse = np.unique(ml[:, : l - 1], axis=0, return_inverse=True)
    counts = np.bincount(inverse.ravel())
    order = np.argsort(counts, kind="stable")
    uniq = uniq[order]
    counts = counts[order]
    out: list[tuple[int, ...]] = []
    for i in range(len(uniq)):
        lo = 0 if i == 0 else int(counts[i - 1])
        hi = int(counts[i])
        for jj in shift_indices_reference(uniq[i:]):
            for q in range(lo, hi):
                out.append(jj + (q,))
    return out


def tiling_count(lattice_basis, cells, x, radius=6) -> int:
    """Brute-force covering count of the domain at a point x.

    Membership is tested directly against every translated box piece
    M·(box + z + w) over integer translates w in a cube of the given
    radius, independent of the package's reduction logic.
    """
    M = np.asarray(lattice_basis, dtype=float)
    d = M.shape[0]
    x = np.asarray(x, dtype=float)
    y = np.linalg.solve(M, x)  # basis coordinates of x
    count = 0
    for w in np.ndindex(*([2 * radius + 1] * d)):
        shift = np.array(w) - radius
        for box, offsets in cells:
            box = np.asarray(box, dtype=float)
            for z in np.asarray(offsets):
                lo = box[:, 0] + z + shift
                hi = box[:, 1] + z + shift
                if np.all(y >= lo) and np.all(y < hi):
                    count += 1
    return count


def gram_quadrature(lattice_basis, cells, l1, l2, n=800) -> complex:
    """Midpoint-rule approximation of the inner product of two
    exponentials over the domain, for pinning closed-form values."""
    M = np.asarray(lattice_basis, dtype=float)
    d = M.shape[0]
    det = abs(np.linalg.det(M))
    diff = np.asarray(l1, dtype=float) - np.asarray(l2, dtype=float)
    total = 0.0 + 0.0j
    for box, offsets in cells:
        box = np.asarray(box, dtype=float)
        axes = [
            box[ax, 0] + (np.arange(n) + 0.5) * (box[ax, 1] - box[ax, 0]) / n
            for ax in range(d)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        weight = det * float(np.prod((box[:, 1] - box[:, 0]) / n))
        for z in np.asarray(offsets):
            y = (M @ (pts + z).T).T
            total += weight * np.sum(np.exp(2j * np.pi * (y @ diff)))
    return total


def _phi(theta: float, a: float, b: float) -> complex:
    """Integral of exp(2 pi i theta t) over [a, b]."""
    if abs(theta) < 1e-12:
        return complex(b - a)
    tp = 2j * np.pi * theta
    return (np.exp(tp * b) - np.exp(tp * a)) / tp


def piece_sum_reference(lattice_basis, cells, theta, weights=None) -> complex:
    """Scalar closed form of the sum over (cell, region) pieces of
    int exp(2 pi i <l1-l2, y>) dy, with theta = M^T (l1 - l2).

    One box integral per cell as a product of one-axis integrals, times
    the lattice phase exp(2 pi i <z_r, theta>) of each region.  weights,
    when given, is a per-cell array of k complex factors applied to the
    region terms.
    """
    det = abs(np.linalg.det(np.asarray(lattice_basis, dtype=float)))
    theta = np.asarray(theta, dtype=float)
    total = 0.0 + 0.0j
    for ci, (box, offsets) in enumerate(cells):
        box = np.asarray(box, dtype=float)
        box_factor = 1.0 + 0.0j
        for ax in range(len(theta)):
            box_factor *= _phi(float(theta[ax]), float(box[ax, 0]), float(box[ax, 1]))
        phases = np.exp(2j * np.pi * (np.asarray(offsets, dtype=float) @ theta))
        if weights is None:
            total += det * box_factor * np.sum(phases)
        else:
            total += det * box_factor * np.sum(phases * weights[ci])
    return complex(total)
