"""Independent reference computations used to pin expected test values.

Everything here is deliberately written against the raw definitions,
without reusing the package's data structures, so the main code paths
are cross-checked rather than self-checked.  The exceptions are
cell_system_reference, the package's former per-call construction of a
cell system and its former per-row nested solve, kept as the reference
for the systems make_shifts stores;
nested_blocks_reference, the package's former structural enumeration
of the nested recursion's blocks, kept as the reference for the blocks
that one walk of the recursion records;
check_reference and find_pair_reference, the package's former
admissibility test and search (with the weak class, the perfect-first
attempt and one tree build per pass), kept as the reference for the
single residue test; and the per-row CSV readers and writers at the
end: they are the package's former row-at-a-time implementations, kept
as the byte-for-byte reference for the array-based ones.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from fractions import Fraction

import numpy as np

from multitile import (
    AdmissibilityCertificate,
    AdmissibilityFailure,
    DuplicateNodes,
    IllConditionedWarning,
    LevelWitness,
    NoPairFound,
    SingularCell,
    SpecFormatError,
    SpectralData,
    atomic_write_text,
    build_tree,
    canonical_json,
    make_frequency_set,
    nested_solve,
)
from multitile.admissibility import _check_vq


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


def cell_system_reference(domain, shifts, cell: int):
    """(V, sigma, V^{-1}, solve) of one cell built from scratch, with
    V[s, r] = exp(-2 pi i <delta * j_s, z_r>); SingularCell when the
    smallest singular value is below 1e-12.

    solve is the nested solve matrix replayed one data row at a time,
    the package's former per-row path: column i holds nested_solve of
    the i-th unit vector.  It is None when the cell's condition number
    exceeds 1e8 or the replay itself warns of an ill-conditioned block
    (or finds coincident nodes), the cells the package routes around
    the matrix."""
    offs = domain.cells[cell].offsets.astype(float)
    index = shifts.index_sets[cell]
    js = np.array(index, dtype=float)
    phase = (js * shifts.delta) @ offs.T
    V = np.exp(-2j * np.pi * phase)
    sigma = np.linalg.svd(V, compute_uv=False)
    if sigma[-1] < 1e-12:
        raise SingularCell(
            f"cell {cell} system is singular (sigma_min={sigma[-1]:.3e}); "
            "the spacing is not admissible for this cell"
        )
    solve = None
    if sigma[0] / sigma[-1] <= 1e8:
        vectors = make_frequency_set(domain.cells[cell].offsets).vectors
        solve = np.empty(V.shape, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IllConditionedWarning)
            try:
                for i, j in enumerate(index):
                    row = {jj: float(jj == j) for jj in index}
                    solved = nested_solve(vectors, row, tuple(shifts.delta))
                    solve[:, i] = [solved[v] for v in vectors]
            except (IllConditionedWarning, DuplicateNodes):
                solve = None
    return V, sigma, np.linalg.inv(V), solve


def nested_blocks_reference(vectors, delta) -> list[tuple[int, np.ndarray]]:
    """(level, nodes) of every square 1D block the nested recursion
    solves, in solve order: level is the coordinate the block acts on
    (1-based) and nodes are its Vandermonde nodes.

    Parents (the distinct length-(l-1) prefixes) are ordered by
    ascending child count, ties lexicographic; parent p's window is
    [count_{p-1}, count_p).  A parent with a nonempty window first
    solves the suffix system of parents p.. (its blocks, recursively),
    then its own block on its children at the last level.  Nodes are
    exp(-2 pi i x) of the product x = delta_l * z, rounded once."""
    delta = tuple(delta)
    level = len(delta)
    if level == 1:
        return [(1, np.exp(-2j * np.pi * (delta[0] * np.array([v[0] for v in vectors], dtype=float))))]
    buckets: dict = {}
    for v in vectors:
        buckets.setdefault(tuple(v[:-1]), []).append(v[-1])
    items = sorted(((p, sorted(ch)) for p, ch in buckets.items()), key=lambda it: (len(it[1]), it[0]))
    parents = [p for p, _ in items]
    out = []
    prev = 0
    for p, (_, children) in enumerate(items):
        if len(children) > prev:
            out.extend(nested_blocks_reference(parents[p:], delta[:-1]))
        prev = len(children)
        out.append((level, np.exp(-2j * np.pi * (delta[-1] * np.array(children, dtype=float)))))
    return out


def block_sigmas_reference(vectors, delta) -> list[tuple[int, np.float64, np.float64]]:
    """(level, sigma_min, sigma_max) of every block of
    nested_blocks_reference, from the SVD of its Vandermonde matrix
    (rows are powers 0..n-1, columns nodes)."""
    out = []
    for level, nodes in nested_blocks_reference(vectors, delta):
        sig = np.linalg.svd(np.vander(nodes, increasing=True).T, compute_uv=False)
        out.append((level, sig[-1], sig[0]))
    return out


_RESIDUE_TOL = 1e-9


def exponential_exact(u, z, cert, n, j, eta) -> complex:
    """exp(2 pi i <u + z, n + delta*j + eta>) for a float point u (taken
    exactly), integer vectors z, n, j and eta, and delta = v/q of an
    admissibility certificate: the argument is reduced mod 1 in exact
    rational arithmetic before the one float exponential."""
    arg = sum(
        (Fraction(float(a)) + int(b)) * (int(nl) + Fraction(int(v), int(q)) * int(jl) + int(el))
        for a, b, nl, v, q, jl, el in zip(u, z, n, cert.v, cert.q, j, eta)
    )
    return complex(np.exp(2j * np.pi * float(arg % 1)))


def system_exact(cert, index_set, offsets) -> np.ndarray:
    """V[s, r] = exp(-2 pi i <delta*j_s, z_r>) of one cell, each phase
    reduced mod 1 exactly by exponential_exact."""
    zero = [0] * len(offsets[0])
    return np.array([
        [exponential_exact(zero, z, cert, zero, [-x for x in j], zero) for z in offsets]
        for j in index_set
    ])


def _residue(value: float, q: int) -> float:
    r = math.fmod(value, q)
    if r < 0.0:
        r += q
    return r + 0.0  # folds -0.0, which messages would print as "-0"


def _circular_distinct(residues, q: int):
    """Index pair of the first circular collision, or None."""
    for i in range(len(residues)):
        for j in range(i + 1, len(residues)):
            d0 = abs(residues[i] - residues[j])
            if min(d0, q - d0) <= _RESIDUE_TOL:
                return i, j
    return None


def _cell_trees(domain):
    return [build_tree(make_frequency_set(c.offsets)) for c in domain.cells]


def _common_child_counts(domain):
    counts = [None] * domain.dimension
    for tree in _cell_trees(domain):
        for lv in tree.levels:
            for ch in lv.children:
                c = counts[lv.level - 1]
                if c is None:
                    counts[lv.level - 1] = len(ch)
                elif c != len(ch):
                    return None
    return tuple(int(c) for c in counts)


def check_reference(domain, v, q):
    """Former admissibility.check: weak/strong/perfect classification
    with an integrality test on every scaled child value."""
    v = _check_vq(domain, v, "v")
    q = _check_vq(domain, q, "q")

    witnesses = []
    integral = True
    for ci, tree in enumerate(_cell_trees(domain)):
        for lv in tree.levels:
            ql = q[lv.level - 1]
            vl = v[lv.level - 1]
            for parent, children in zip(lv.parents, lv.children):
                scaled = [vl * z for z in children]
                residues = [_residue(s, ql) for s in scaled]
                hit = _circular_distinct(residues, ql)
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
                            f"prefix {parent}: children z={children[i]:g} and "
                            f"z={children[j]:g} give {residues[i]:g} = "
                            f"{residues[j]:g} (mod {ql})"
                        ),
                    )
                if any(abs(s - round(s)) > _RESIDUE_TOL for s in scaled):
                    integral = False
                witnesses.append(
                    LevelWitness(
                        cell=ci,
                        level=lv.level,
                        parent=parent,
                        children=children,
                        residues=tuple(residues),
                    )
                )

    kind = "strong" if integral else "weak"
    if kind == "strong":
        if domain.k == 1:
            kind = "perfect"
        else:
            qstar = _common_child_counts(domain)
            if qstar is not None and q == qstar:
                kind = "perfect"
    delta = tuple(vl / ql for vl, ql in zip(v, q))
    return AdmissibilityCertificate(
        v=v, q=q, kind=kind, delta=delta, witnesses=tuple(witnesses)
    )


def _level_children(domain):
    per_level = [[] for _ in range(domain.dimension)]
    for tree in _cell_trees(domain):
        for lv in tree.levels:
            per_level[lv.level - 1].extend(lv.children)
    return per_level


def _level_ok(children_sets, vl: int, ql: int):
    """(distinct everywhere, residues all integral) for one level."""
    integral = True
    for children in children_sets:
        scaled = [vl * z for z in children]
        residues = [_residue(s, ql) for s in scaled]
        if _circular_distinct(residues, ql) is not None:
            return False, False
        if any(abs(s - round(s)) > _RESIDUE_TOL for s in scaled):
            integral = False
    return True, integral


def find_pair_reference(domain, v_max: int = 8, q_max=None):
    """Former admissibility.find_pair: a perfect-first attempt at the
    common child counts, then an ascending (q outer, v inner) scan per
    level preferring strong over weak pairs."""
    if q_max is None:
        q_max = max(2 * domain.k, 8)
    per_level = _level_children(domain)

    qstar = _common_child_counts(domain)
    if qstar is not None and all(ql <= q_max for ql in qstar):
        v = []
        for level, children_sets in enumerate(per_level):
            found = None
            for vl in range(1, v_max + 1):
                ok, integral = _level_ok(children_sets, vl, qstar[level])
                if ok and integral:
                    found = vl
                    break
            if found is None:
                break
            v.append(found)
        else:
            result = check_reference(domain, v, qstar)
            if isinstance(result, AdmissibilityCertificate):
                return result

    v_out = []
    q_out = []
    for level, children_sets in enumerate(per_level):
        strong_hit = None
        weak_hit = None
        for ql in range(1, q_max + 1):
            for vl in range(1, v_max + 1):
                ok, integral = _level_ok(children_sets, vl, ql)
                if not ok:
                    continue
                if integral:
                    strong_hit = (vl, ql)
                    break
                if weak_hit is None:
                    weak_hit = (vl, ql)
            if strong_hit is not None:
                break
        hit = strong_hit or weak_hit
        if hit is None:
            raise NoPairFound(
                f"no admissible pair at level {level + 1} with "
                f"v <= {v_max}, q <= {q_max}"
            )
        v_out.append(hit[0])
        q_out.append(hit[1])

    result = check_reference(domain, v_out, q_out)
    if not isinstance(result, AdmissibilityCertificate):
        raise NoPairFound(f"search result failed verification: {result.message}")
    return result


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise SpecFormatError(f"cannot serialize non-finite value {x!r}")
    return format(x + 0.0, ".17g")


def write_samples_reference(path, domain, shifts, data, extra_meta=None) -> None:
    """Per-row sample CSV writer: one csv.writer row and one float
    format call per value, plus the .meta.json sidecar."""
    d = domain.dimension
    k = domain.k
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = (
        ["cell"]
        + [f"u_{i + 1}" for i in range(d)]
        + [part for s in range(k) for part in (f"Re_F_{s}", f"Im_F_{s}")]
    )
    writer.writerow(header)
    for row in range(len(data.cell_ids)):
        vals = data.values[row]
        writer.writerow(
            [int(data.cell_ids[row])]
            + [_fmt_float(x) for x in data.points[row]]
            + [
                part
                for s in range(k)
                for part in (_fmt_float(vals[s].real), _fmt_float(vals[s].imag))
            ]
        )
    atomic_write_text(path, buf.getvalue())

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
    atomic_write_text(path + ".meta.json", canonical_json(meta) + "\n")


def read_samples_reference(path, domain):
    """Per-row sample CSV reader: the header's names checked one by one,
    then int() and float() on each field in column order, stopping at
    the first bad row."""
    d = domain.dimension
    k = domain.k
    want = 1 + d + 2 * k
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise SpecFormatError(f"{path}: {exc}") from None
    if not rows:
        raise SpecFormatError(f"{path}: empty sample file")
    if len(rows[0]) != want:
        raise SpecFormatError(
            f"{path}: expected {want} columns for dimension {d}, k {k}; "
            f"got {len(rows[0])}"
        )
    header = ["cell"] + [f"u_{i + 1}" for i in range(d)] + [f"{part}_F_{s}" for s in range(k) for part in ("Re", "Im")]
    for i, (got, expected) in enumerate(zip(rows[0], header)):
        if got != expected:
            raise SpecFormatError(f"{path}: column {i + 1} is {got!r}, expected {expected!r}")
    cell_ids = np.empty(len(rows) - 1, dtype=int)
    points = np.empty((len(rows) - 1, d))
    values = np.empty((len(rows) - 1, k), dtype=complex)
    for i, row in enumerate(rows[1:]):
        if len(row) != want:
            raise SpecFormatError(f"{path}: row {i + 2} has {len(row)} columns")
        try:
            cell_ids[i] = int(row[0])
            points[i] = [float(x) for x in row[1 : 1 + d]]
            for s in range(k):
                re = float(row[1 + d + 2 * s])
                im = float(row[2 + d + 2 * s])
                values[i, s] = complex(re, im)
        except ValueError as exc:
            raise SpecFormatError(f"{path}: row {i + 2}: {exc}") from None
    finite = np.isfinite(points).all(axis=1) & np.isfinite(values).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite)) + 2
        raise SpecFormatError(f"{path}: row {row}: non-finite point or value")

    meta = None
    sidecar = path + ".meta.json"
    if os.path.exists(sidecar):
        try:
            with open(sidecar) as handle:
                meta = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"{sidecar}: invalid JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise SpecFormatError(f"{sidecar}: expected a JSON object")
    provenance = "exact-pointwise"
    radius = None
    if meta is not None:
        provenance = meta.get("provenance", provenance)
        radius = meta.get("radius")
    data = SpectralData(
        cell_ids=cell_ids,
        points=points,
        values=values,
        provenance=provenance,
        radius=radius,
    )
    return data, meta


def write_result_reference(path, result, dimension: int) -> None:
    """Per-row result CSV writer (point, value, residual), with an
    empty residual field where the residual is NaN."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [f"y_{i + 1}" for i in range(dimension)] + ["Re_f", "Im_f", "residual"]
    )
    for i in range(len(result.values)):
        res = result.residuals[result.source_rows[i]]
        writer.writerow(
            [_fmt_float(x) for x in result.points[i]]
            + [
                _fmt_float(result.values[i].real),
                _fmt_float(result.values[i].imag),
                "" if math.isnan(res) else _fmt_float(res),
            ]
        )
    atomic_write_text(path, buf.getvalue())
