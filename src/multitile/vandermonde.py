"""Vandermonde solvers: specialized 1D elimination and the nested
dimension-by-dimension recursion driven by a frequency set's windows.

The linear system treated here couples data indexed by the shift index
set with unknowns indexed by the frequency vectors through

    data[j] = sum_z exp(-2 pi i <delta * j, z>) * value[z],

which factorizes along coordinates.  The recursion never materializes
that matrix: each level is handled by square 1D Vandermonde solves on
the child values of one prefix, plus explicit evaluation of the
already-solved prefixes' contributions.

Every call walks the recursion once, on a (k, N) array of data columns
whose rows follow the shift index set.  Each parent's window is one
contiguous slab of those rows, so its suffix system is solved once per
window, for all of the window's indices together.  Every 1D block is
solved by one algorithm, the Bjorck-Pereyra elimination on its nodes
in Leja order, whatever its conditioning, and takes one SVD, recorded
as the block's (level, sigma_min, sigma_max); walked on zero columns,
the recursion only records the blocks.  Callers that solve data warn
once per recorded block above COND_LIMIT.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionMismatch, DuplicateNodes, IllConditionedWarning, SingularMatrix, SpecFormatError
from .freqtree import _group, _k_index

NODE_TOL = 1e-12
COND_LIMIT = 1e8
SINGULAR_TOL = 1e-12  # smallest singular value of a solvable block or cell
# exp(-2 pi i x) formed from a float x is off by about 4e-16 |x|, so a
# raw spacing may give phase arguments up to 1e-10 / 4e-16 before that
# error reaches 1e-10, the orthogonality tolerance of expsystem
PHASE_LIMIT = 2.5e5


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


def _solve_1d(x: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve sum_t x[t]^s c[t] = b[s] for s = 0..k-1, for every column
    of a (k, N) b, which may be overwritten; returns the solution and
    the singular values of the block's Vandermonde matrix, largest
    first.

    Uses the Bjorck-Pereyra progressive product-form elimination
    (Math. Comp. 24, 1970; O(k^2) per column, no matrix formed for the
    solve itself) on the nodes in Leja order, at every condition
    number: above COND_LIMIT its forward error stays within a small
    factor of a dense partial-pivoting solve's on the same matrix.
    With zero columns it takes the singular values and nothing else:
    no node check, no solve.
    """
    sig = np.linalg.svd(_vander_matrix(x), compute_uv=False)
    if b.shape[1] == 0:
        return b, sig
    close = np.argwhere(np.triu(np.abs(x[:, None] - x[None, :]) < NODE_TOL, 1))
    if len(close):
        i, j = (int(t) for t in close[0])
        raise DuplicateNodes(f"nodes {i} and {j} coincide: {x[i]}")

    order = _leja_order(x)
    x = x[order]
    # b is eliminated in place; `out` doubles as scratch for the sweeps,
    # so no temporaries are made
    out = np.empty_like(b)
    n = x.size - 1
    for kk in range(n):
        buf = out[: n - kk]
        np.multiply(x[kk], b[kk:n], out=buf)
        b[kk + 1 :] -= buf
    for kk in range(n - 1, -1, -1):
        b[kk + 1 :] /= (x[kk + 1 :] - x[: n - kk])[:, None]
        buf = out[: n - kk]
        buf[...] = b[kk + 1 :]
        b[kk:n] -= buf
    out[order] = b
    return out, sig


def _phases(delta, q, j, z, what: str = "phases") -> np.ndarray:
    """exp(-2 pi i <delta*j_a, z_b>) for the rows of an (A, L) integer j
    and a (B, L) z, as an (A, B) array; every such phase is formed here.
    Under a certificate's moduli q, z is reduced mod q first, which moves
    each argument by an integer (delta_l q_l = v_l) and keeps it small;
    for a raw delta (q None) an argument above PHASE_LIMIT raises
    SpecFormatError, naming `what`."""
    z = np.asarray(z)
    if q is not None:
        z = z % np.asarray(q)
    arg = (np.asarray(j, dtype=float) * delta) @ z.T
    if q is None and np.abs(arg).max(initial=0.0) > PHASE_LIMIT:
        raise SpecFormatError(
            f"{what}: the raw spacing delta = {list(map(float, delta))} gives phase arguments "
            f"up to {np.abs(arg).max():.3e}, above {PHASE_LIMIT:.1e}; give it as v/q"
        )
    return np.exp(-2j * np.pi * arg)


def _nested(vectors, index, data: np.ndarray, delta, q, blocks: list) -> np.ndarray:
    """One walk of the recursion on (k, N) data columns whose rows
    follow index, the shift index set of vectors (_k_index order); data
    may be overwritten; delta and q go to _phases.  Returns the (k, N)
    values in vectors order and appends the (level, sigma_min,
    sigma_max) of every 1D block, in solve order, to blocks.

    Parents are processed in ascending child-count order.  _k_index
    lays out parent p's window as one run of rows, suffix index major
    and window index minor, so the suffix system is one slab: after
    subtracting the finished parents' contributions, one product of
    their phases at the slab's indices with their values, it is solved
    once for all W window indices as W*N columns.  The parent's own
    values then come from one square 1D solve over its accumulated
    window indices.
    """
    level = len(delta)
    if level == 1:
        values, sig = _solve_1d(_phases(delta, q, [(1,)], vectors)[0], data)
        blocks.append((1, sig[-1], sig[0]))
        return values

    parents, children, counts, windows = _group(vectors)
    head, last = (None, None) if q is None else (q[:-1], q[-1:])
    cols = data.shape[1]
    position = {v: i for i, v in enumerate(vectors)}
    values = np.empty((len(vectors), cols), dtype=complex)
    # per parent: its suffix values by last-level index
    gather = [np.empty((c, cols), dtype=complex) for c in counts]
    finished = []  # the vectors of the finished parents, in solve order
    solved = []  # their values, rows in the same order
    start = 0
    for p, (lo, hi) in enumerate(windows):
        width = hi - lo
        if width:
            m = len(parents) - p
            stop = start + m * width
            rows = index[start:stop]
            slab = data[start:stop]
            start = stop
            if p:
                slab = slab - _phases(delta, q, rows, finished) @ np.concatenate(solved)
            sub = _nested(
                parents[p:], [j[:-1] for j in rows[::width]], slab.reshape(m, width * cols),
                delta[:-1], head, blocks,
            )
            sub = sub.reshape(m, width, cols)
            for qq in range(p, len(parents)):
                gather[qq][lo:hi] = sub[qq - p]
        own, sig = _solve_1d(_phases(delta[-1:], last, [(1,)], [(z,) for z in children[p]])[0], gather[p])
        blocks.append((level, sig[-1], sig[0]))
        finished.extend(parents[p] + (z,) for z in children[p])
        solved.append(own)
        for z, row in zip(children[p], own):
            values[position[parents[p] + (z,)]] = row
    return values


def _solve_columns(vectors, order, delta, q, rhs, blocks: list) -> np.ndarray:
    """Nested solve of V y = rhs for a (k, N) matrix of data columns
    whose rows follow order, any ordering of the shift index set of
    vectors, at spacing delta with moduli q (None if raw); returns (k,
    N) values in frequency-vector order and appends the walk's blocks
    to blocks.  On the k unit vectors this is the cell's solve matrix."""
    index = _k_index(vectors)
    row = {j: i for i, j in enumerate(order)}
    return _nested(vectors, index, rhs[[row[j] for j in index]], tuple(np.asarray(delta, dtype=float)), q, blocks)


def _warn_ill_conditioned(blocks) -> None:
    """One IllConditionedWarning per block whose condition number
    exceeds COND_LIMIT."""
    for _, lo, hi in blocks:
        kappa = hi / lo if lo else np.inf
        if kappa > COND_LIMIT:
            warnings.warn(
                f"Vandermonde condition number {kappa:.3e} exceeds {COND_LIMIT:.0e}; "
                "the solved values may be inaccurate",
                IllConditionedWarning,
                stacklevel=3,
            )


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
    scalar or an (N,) vector like the data.  The data become one (k, N)
    array of columns here, and one walk of the recursion solves them
    all; an IllConditionedWarning is emitted for every block of the
    walk whose condition number exceeds COND_LIMIT, and SingularMatrix
    is raised, naming the first, when a block's sigma_min is below
    SINGULAR_TOL.
    """
    delta = tuple(delta)
    if len(vectors[0]) != len(delta):
        raise DimensionMismatch(
            f"vectors have {len(vectors[0])} coordinates, delta has {len(delta)}"
        )
    index = _k_index(vectors)
    columns = np.array([data[j] for j in index], dtype=complex)
    scalar = columns.ndim == 1
    blocks: list = []
    values = _nested(vectors, index, columns[:, None] if scalar else columns, delta, None, blocks)
    for level, lo, _ in blocks:
        if lo < SINGULAR_TOL:
            raise SingularMatrix(f"level {level} Vandermonde block is singular (sigma_min={lo:.3e})")
    _warn_ill_conditioned(blocks)
    return {v: row[0] if scalar else row for v, row in zip(vectors, values)}


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
    """(level, condition number) for every block the recursion solves,
    from one walk on zero data columns."""
    blocks: list = []
    _nested(vectors, _k_index(vectors), np.empty((len(vectors), 0), dtype=complex), tuple(delta), None, blocks)
    return _conditions(blocks)
