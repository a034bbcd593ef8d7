"""Vandermonde solvers: specialized 1D elimination and the nested
dimension-by-dimension recursion driven by a frequency set's windows.

The linear system treated here couples data indexed by the shift index
set with unknowns indexed by the frequency vectors through

    data[j] = sum_z exp(-2 pi i <delta * j, z>) * value[z],

which factorizes along coordinates.  The recursion never materializes
that matrix: each level is handled by square 1D Vandermonde solves on
the child values of one prefix, plus explicit evaluation of the
already-solved prefixes' contributions.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionMismatch, DuplicateNodes, IllConditionedWarning, SingularMatrix
from .freqtree import _group, _k_index

NODE_TOL = 1e-12
COND_LIMIT = 1e8


def _vander_matrix(nodes: np.ndarray) -> np.ndarray:
    # rows are powers 0..k-1, columns are nodes
    return np.vander(nodes, increasing=True).T


def _leja_order(x: np.ndarray) -> np.ndarray:
    """Leja ordering of the nodes: start at the largest modulus, then
    repeatedly take the node farthest, by product of distances, from
    those already taken.  The elimination below is only accurate on
    unit-circle nodes in this order (Reichel, BIT 30, 1990)."""
    k = x.size
    order = np.empty(k, dtype=int)
    order[0] = int(np.argmax(np.abs(x)))
    taken = np.zeros(k, dtype=bool)
    taken[order[0]] = True
    log_dist = np.zeros(k)
    for i in range(1, k):
        with np.errstate(divide="ignore"):
            log_dist += np.log(np.abs(x - x[order[i - 1]]))
        order[i] = int(np.argmax(np.where(taken, -np.inf, log_dist)))
        taken[order[i]] = True
    return order


def solve_vandermonde_1d(nodes, rhs) -> np.ndarray:
    """Solve sum_t nodes[t]^s c[t] = rhs[s] for s = 0..k-1.

    rhs is one vector (k,) or a matrix (k, N) of N right-hand sides
    sharing the nodes; the result has the same shape.  Uses the
    Bjorck-Pereyra progressive product-form elimination (O(k^2) per
    column, no matrix formed for the solve itself) on the nodes in Leja
    order.  The node checks run once per call: when the system's
    condition number exceeds 1e8 an IllConditionedWarning is emitted
    and a dense partial-pivoting solve is used instead.
    """
    return _solve_1d(np.asarray(nodes, dtype=complex), np.array(rhs, dtype=complex))


def _solve_1d(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """solve_vandermonde_1d on complex arrays; b may be overwritten."""
    if x.ndim != 1 or b.ndim not in (1, 2) or b.shape[0] != x.size:
        raise DimensionMismatch(
            f"nodes must be a vector and rhs have as many rows, got {x.shape} and {b.shape}"
        )
    k = x.size
    close = np.argwhere(np.triu(np.abs(x[:, None] - x[None, :]) < NODE_TOL, 1))
    if len(close):
        i, j = (int(t) for t in close[0])
        raise DuplicateNodes(f"nodes {i} and {j} coincide: {x[i]}")
    if k == 1:
        return b

    sig = np.linalg.svd(_vander_matrix(x), compute_uv=False)
    if sig[-1] == 0.0 or sig[0] / sig[-1] > COND_LIMIT:
        kappa = np.inf if sig[-1] == 0.0 else sig[0] / sig[-1]
        warnings.warn(
            f"Vandermonde condition number {kappa:.3e} exceeds {COND_LIMIT:.0e}; "
            "falling back to a dense solve",
            IllConditionedWarning,
            stacklevel=3,
        )
        try:
            return np.linalg.solve(_vander_matrix(x), b)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(f"dense Vandermonde fallback failed: {exc}") from None

    order = _leja_order(x)
    x = x[order]
    d = b[:, None] if b.ndim == 1 else b
    # `out` doubles as scratch for the sweeps, so no temporaries are made
    out = np.empty_like(d)
    n = k - 1
    for kk in range(n):
        buf = out[: n - kk]
        np.multiply(x[kk], d[kk:n], out=buf)
        d[kk + 1 :] -= buf
    for kk in range(n - 1, -1, -1):
        d[kk + 1 :] /= (x[kk + 1 :] - x[: n - kk])[:, None]
        buf = out[: n - kk]
        buf[...] = d[kk + 1 :]
        d[kk:n] -= buf
    out[order] = d
    return out.reshape(b.shape)


def _nodes(values, dl: float) -> np.ndarray:
    return np.exp(-2j * np.pi * dl * np.asarray(values, dtype=float))


def nested_solve(vectors, data, delta) -> dict:
    """Solve the factorized system for one frequency set.

    vectors: ordered distinct coordinate tuples (length d)
    data:    mapping from shift index tuples (the set produced by the
             window recursion on `vectors`) to complex values; every
             value is a scalar, or every value is an (N,) vector
             holding N independent systems (rows) that share vectors
             and delta
    delta:   per-coordinate spacing

    Returns a mapping from frequency vector to its solved value, a
    scalar or an (N,) vector like the data.  Rows are batched: the
    recursion, its index windows, the cross-term phases and every 1D
    block's node checks run once per call, whatever N is.

    The recursion follows the window structure: parents are processed
    in ascending child-count order; for each parent the recursion
    solves the suffix system for every index in the parent's window,
    after subtracting the explicitly evaluated contribution of the
    already finished parents; the parent's own values then come from
    one square 1D Vandermonde solve over its accumulated window indices.
    """
    delta = tuple(delta)
    level = len(delta)
    if len(vectors[0]) != level:
        raise DimensionMismatch(
            f"vectors have {len(vectors[0])} coordinates, delta has {level}"
        )
    if level == 1:
        nodes = _nodes([v[0] for v in vectors], delta[0])
        rhs = np.array([data[(j,)] for j in range(len(vectors))], dtype=complex)
        coeff = _solve_1d(nodes, rhs)
        return {v: coeff[t] for t, v in enumerate(vectors)}

    parents, children, counts, windows = _group(vectors)
    dl = delta[-1]
    solved: dict = {}
    # per parent position: accumulated suffix values by last-level index
    gather: list[dict] = [dict() for _ in parents]
    for p, parent in enumerate(parents):
        lo, hi = windows[p]
        if lo < hi:
            suffix = parents[p:]
            sub_keys = _k_index(suffix)
            for j_last in range(lo, hi):
                # the finished parents' last-level sums at this index
                evaluated = [
                    sum(
                        np.exp(-2j * np.pi * dl * j_last * z) * solved[parents[qq] + (z,)]
                        for z in children[qq]
                    )
                    for qq in range(p)
                ]
                sub_data = {}
                for jj in sub_keys:
                    val = data[jj + (j_last,)]
                    for qq in range(p):
                        phase = np.exp(
                            -2j
                            * np.pi
                            * sum(dt * jt * mt for dt, jt, mt in zip(delta, jj, parents[qq]))
                        )
                        # not -=: val may be the caller's data array
                        val = val - phase * evaluated[qq]
                    sub_data[jj] = val
                sub_solution = nested_solve(suffix, sub_data, delta[:-1])
                for qq in range(p, len(parents)):
                    gather[qq][j_last] = sub_solution[parents[qq]]
        # the parent's window union so far is exactly 0..counts[p]-1
        nodes = _nodes(children[p], dl)
        rhs = np.array([gather[p][j] for j in range(counts[p])], dtype=complex)
        coeff = _solve_1d(nodes, rhs)
        for z, c in zip(children[p], coeff):
            solved[parent + (z,)] = c
    return solved


def _solve_columns(vectors, order, delta, rhs) -> np.ndarray:
    """Nested solve of V y = rhs for a (k, N) matrix of data columns in
    shift index order; returns (k, N) values in frequency-vector order.
    On the k unit vectors this is the cell's whole solve matrix."""
    data = {j: rhs[i] for i, j in enumerate(order)}
    solved = nested_solve(vectors, data, tuple(np.asarray(delta, dtype=float)))
    return np.array([solved[v] for v in vectors])


def nested_blocks(vectors, delta) -> list[tuple[int, np.ndarray]]:
    """Enumerate every square 1D block the nested recursion solves.

    Returns (level, nodes) pairs, where level is the coordinate the
    block acts on (1-based) and nodes are its Vandermonde nodes.  The
    enumeration mirrors nested_solve exactly, including the blocks of
    re-grouped suffix systems, but is purely structural (no data).
    """
    delta = tuple(delta)
    level = len(delta)
    if level == 1:
        return [(1, _nodes([v[0] for v in vectors], delta[0]))]
    parents, children, _, windows = _group(vectors)
    out: list[tuple[int, np.ndarray]] = []
    for p in range(len(parents)):
        lo, hi = windows[p]
        if lo < hi:
            out.extend(nested_blocks(parents[p:], delta[:-1]))
        out.append((level, _nodes(children[p], delta[-1])))
    return out


def _block_sigmas(vectors, delta) -> list[tuple[int, np.float64, np.float64]]:
    """(level, sigma_min, sigma_max) of every block the recursion solves;
    block_conditions and block_norms are reductions of this one walk."""
    out = []
    for lv, nodes in nested_blocks(vectors, delta):
        sig = np.linalg.svd(_vander_matrix(nodes), compute_uv=False)
        out.append((lv, sig[-1], sig[0]))
    return out


def _conditions(blocks) -> list[tuple[int, float]]:
    # numpy division: an exact zero sigma_min gives inf, not an error
    return [(lv, float(hi / lo)) for lv, lo, hi in blocks]


def _level_norms(blocks, level: int) -> list[tuple[float, float]]:
    lo = [np.inf] * level
    hi = [0.0] * level
    for lv, s_lo, s_hi in blocks:
        lo[lv - 1] = min(lo[lv - 1], float(s_lo))
        hi[lv - 1] = max(hi[lv - 1], float(s_hi))
    return list(zip(lo, hi))


def block_conditions(vectors, delta) -> list[tuple[int, float]]:
    """(level, condition number) for every block the recursion solves."""
    return _conditions(_block_sigmas(vectors, delta))


def block_norms(vectors, delta) -> list[tuple[float, float]]:
    """Per level: (smallest sigma_min, largest sigma_max) over all of
    the recursion's blocks acting on that coordinate."""
    return _level_norms(_block_sigmas(vectors, delta), len(tuple(delta)))
