"""Exponential systems on a multi-tiling domain.

For an admissible spacing delta the shifted exponentials with
frequencies M^{-T}(n + delta*j_s + eta), over integer n and the shift
index set {j_s}, form a Riesz basis of L^2 over the domain.  This
module builds the per-cell system matrices

    V[s, r] = exp(-2 pi i <delta * j_s, z_r>),

the explicit biorthogonal dual family, the frame bounds, and the exact
Gram integrals used to verify all of it in closed form.

Every exponential on the domain is evaluated on (cell, u) rows, u in
[0,1)^d, by one rule: at the region point M(u + z_r) of cell c,

    e_(n,s) = exp(2 pi i <u, n + delta*j_s + eta>) * conj V_c[s, r],

since <z_r, n + eta> is an integer and V (vandermonde._phases) is exact
at any offset size; a dual value is the same times dual_c[r, s].

The closed-form integrals are batched: one kernel evaluates a whole
table of them, over boxes of integer labels (all within a radius of
each of a batch of integer centers) times real remainders, in chunks
of bounded size.  Every piece is a box translated by a lattice point,
so its integral is a product of one-axis integrals; the kernel
evaluates each one-axis integral once per label coordinate of the box
side and remainder, for all cells in one array step, and builds the
table by gathering and multiplying across axes, so its exponentials
grow with the box side, not with the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .admissibility import AdmissibilityCertificate, cell_trees
from .domain import MultiTileDomain, _omega_inverse_rows
from .errors import (
    DimensionMismatch,
    NonUniformShifts,
    SingularCell,
    SpecFormatError,
)
from .freqtree import _integer_array, shift_index_set
from .vandermonde import COND_LIMIT, PHASE_LIMIT, SINGULAR_TOL, _conditions, _level_norms, _phases, _solve_columns

ORTHO_TOL = 1e-10
CHUNK = 2**11  # table entries per chunk of the closed-form integrals


@dataclass(frozen=True)
class PointSystem:
    """One cell's system, built once by make_shifts; arrays are read-only.

    solve is the nested recursion run once on the k unit vectors, so
    solve @ F reconstructs the values for data F.  It is None when the
    cell is singular (dual is None too, and cell_system refuses the
    cell) or when the cell or one of its blocks has a condition number
    above COND_LIMIT; reconstruct_grid then runs the recursion on the
    data instead.
    """

    cell: int
    V: np.ndarray               # [s, r] = exp(-2 pi i <delta*j_s, z_r>)
    sigma: np.ndarray           # singular values of V, largest first
    dual: Optional[np.ndarray]  # [r, s] = k V[s, r] V^-1[r, s]; None if singular
    vectors: tuple[tuple[int, ...], ...]  # frequency vectors, recursion order
    # (level, sigma_min, sigma_max) of every 1D block of the nested recursion
    blocks: tuple[tuple[int, np.float64, np.float64], ...]
    # [r, s]: values in vectors order from data in index-set order; or None
    solve: Optional[np.ndarray]

    @property
    def kappa(self) -> float:
        return float(self.sigma[0] / self.sigma[-1])


@dataclass(frozen=True)
class ShiftSet:
    """Realized shift family a_s = M^{-T}(delta*j_s) + eta per cell.

    eta_coords are the integer dual-lattice coordinates of eta; eta
    drops out of every system matrix because exp(2 pi i <lattice, eta>)
    = 1, but it is kept so frequencies and data files stay faithful to it.

    systems holds every cell's PointSystem, so a ShiftSet belongs to the
    domain it was built from; every consumer reads each cell's matrix,
    dual factors and block singular values from it, never rebuilds them.
    """

    delta: np.ndarray                                 # (d,)
    q: Optional[tuple[int, ...]]                      # certificate moduli; None for a raw delta
    eta_coords: np.ndarray                            # (d,) int
    index_sets: tuple[tuple[tuple[int, ...], ...], ...]  # per cell
    shifts: tuple[np.ndarray, ...]                    # per cell (k, d)
    uniform: bool
    systems: tuple[PointSystem, ...]                  # per cell


def make_shifts(domain: MultiTileDomain, delta, eta=None) -> ShiftSet:
    """Build the shift family and every cell's system for a spacing delta
    or a certificate, whose moduli q are kept for vandermonde._phases;
    cell_system, not this, refuses a singular cell.  SpecFormatError
    names eta and delta once |eta|_1 + max_s |delta*j_s|_1 passes PHASE_LIMIT."""
    q = None
    if isinstance(delta, AdmissibilityCertificate):
        delta, q = delta.delta, delta.q
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (domain.dimension,):
        raise DimensionMismatch(
            f"delta must have shape ({domain.dimension},), got {delta.shape}"
        )
    if not np.isfinite(delta).all():
        raise SpecFormatError(f"delta must be finite, got {delta}")
    if eta is None:
        eta_coords = np.zeros(domain.dimension, dtype=int)
    else:
        eta_coords = _integer_array(eta, "eta dual-lattice coordinates")
        if eta_coords.shape != (domain.dimension,):
            raise DimensionMismatch(
                f"eta must have shape ({domain.dimension},), got {eta_coords.shape}"
            )
    eta_vec = domain.lattice.dual_basis @ eta_coords

    trees = cell_trees(domain)
    index_sets = [shift_index_set(tree) for tree in trees]
    # bounds label n = 0's phases on [0,1)^d, as _unit_phases does; past it float shifts lose fractions
    top = max(np.abs(np.array(js) * delta).sum(axis=1).max() for js in index_sets)
    reach = np.abs(eta_coords.astype(float)).sum() + top
    if reach > PHASE_LIMIT:
        raise SpecFormatError(f"the shift family with eta = {eta_coords.tolist()} gives phase arguments up to "
                              f"{reach:.3e} on [0,1)^d, above {PHASE_LIMIT:.1e}; delta = {delta.tolist()} gives {top:.3e}")
    uniform = all(set(s) == set(index_sets[0]) for s in index_sets[1:])
    if uniform:
        index_sets = [index_sets[0]] * len(index_sets)

    shift_vecs = []
    systems = []
    for ci, (c, tree, js) in enumerate(zip(domain.cells, trees, index_sets)):
        arr = np.array(js, dtype=float) * delta
        shift_vecs.append((domain.lattice.dual_basis @ arr.T).T + eta_vec)
        V = _phases(delta, q, js, c.offsets, f"cell {ci}")
        sigma = np.linalg.svd(V, compute_uv=False)
        dual = None if sigma[-1] < SINGULAR_TOL else domain.k * V.T * np.linalg.inv(V)
        vectors = tree.frequencies.vectors
        # one walk of the recursion gives the blocks and the solve matrix:
        # on the k unit vectors when a matrix may be kept, else on no
        # columns; a block above COND_LIMIT drops the matrix
        blocks: list = []
        walk = dual is not None and sigma[0] / sigma[-1] <= COND_LIMIT
        eye = np.eye(domain.k, domain.k if walk else 0, dtype=complex)
        solve = _solve_columns(vectors, js, delta, q, eye, blocks)
        blocks = tuple(blocks)
        if not (walk and all(kappa <= COND_LIMIT for _, kappa in _conditions(blocks))):
            solve = None
        for a in (V, sigma, dual, solve):
            if a is not None:
                a.setflags(write=False)
        systems.append(PointSystem(ci, V, sigma, dual, vectors, blocks, solve))

    for a in (delta, eta_coords):
        a.setflags(write=False)
    return ShiftSet(
        delta=delta,
        q=q,
        eta_coords=eta_coords,
        index_sets=tuple(index_sets),
        shifts=tuple(shift_vecs),
        uniform=uniform,
        systems=tuple(systems),
    )


def cell_system(domain: MultiTileDomain, shifts: ShiftSet, cell: int) -> PointSystem:
    """The system of one cell, as built by make_shifts for this domain;
    SingularCell when the spacing is not admissible for the cell."""
    ps = shifts.systems[cell]
    if ps.dual is None:
        raise SingularCell(
            f"cell {cell} system is singular (sigma_min={ps.sigma[-1]:.3e}); "
            "the spacing is not admissible for this cell"
        )
    return ps


def _require_uniform(shifts: ShiftSet, what: str) -> None:
    if not shifts.uniform:
        raise NonUniformShifts(
            f"{what} needs one shared shift index set, but cells disagree"
        )


def is_orthogonal(domain: MultiTileDomain, shifts: ShiftSet) -> tuple[bool, float]:
    """Whether every cell satisfies V*V = kI within 1e-10 (max deviation)."""
    _require_uniform(shifts, "orthogonality check")
    k = domain.k
    dev = 0.0
    for ci in range(len(domain.cells)):
        ps = cell_system(domain, shifts, ci)
        dev = max(dev, float(np.max(np.abs(ps.V.conj().T @ ps.V - k * np.eye(k)))))
    return dev <= ORTHO_TOL, dev


@dataclass(frozen=True)
class CellBounds:
    cell: int
    sigma_min: float
    sigma_max: float
    kappa: float
    factored_lower: float  # product over levels of the worst block sigma_min^2
    factored_upper: float  # product over levels of the best block sigma_max^2


@dataclass(frozen=True)
class RieszBounds:
    alpha: float         # min over cells of sigma_min(V)^2
    beta: float          # max over cells of sigma_max(V)^2
    frame_lower: float   # A = alpha * vol(lattice)
    frame_upper: float   # B = beta * vol(lattice)
    cells: tuple[CellBounds, ...]


def riesz_bounds(domain: MultiTileDomain, shifts: ShiftSet) -> RieszBounds:
    """Exact frame bounds plus the per-cell factorized comparisons.

    alpha and beta are the extreme squared singular values of the cell
    matrices; the frame inequality for the full exponential family is
    A |f|^2 <= sum |<f, e>|^2 <= B |f|^2 with A, B scaled by the
    lattice cell volume.  The factorized columns multiply the per-level
    extreme singular values of every 1D block the nested reconstruction
    would solve.  Both are certified (lower <= sigma_min^2, upper >=
    sigma_max^2) only when every parent at a level has the same child
    count, as in all shipped fixtures; otherwise neither holds in
    general (the upper one fails on the unit square with offsets
    [[1,0],[1,2],[1,4],[4,7],[4,5],[4,1],[0,2],[0,1]] at v = (1,1),
    q = (5,8)), so treat both as diagnostics.
    """
    _require_uniform(shifts, "Riesz bound computation")
    cells = []
    for ci in range(len(domain.cells)):
        ps = cell_system(domain, shifts, ci)
        norms = _level_norms(ps.blocks, domain.dimension)
        lower = float(np.prod([lo**2 for lo, _ in norms]))
        upper = float(np.prod([hi**2 for _, hi in norms]))
        cells.append(
            CellBounds(
                cell=ci,
                sigma_min=float(ps.sigma[-1]),
                sigma_max=float(ps.sigma[0]),
                kappa=ps.kappa,
                factored_lower=lower,
                factored_upper=upper,
            )
        )
    alpha = min(cb.sigma_min**2 for cb in cells)
    beta = max(cb.sigma_max**2 for cb in cells)
    vol = domain.lattice.volume
    return RieszBounds(
        alpha=alpha,
        beta=beta,
        frame_lower=alpha * vol,
        frame_upper=beta * vol,
        cells=tuple(cells),
    )


def _label(domain: MultiTileDomain, shifts: ShiftSet, n, s) -> np.ndarray:
    """n of basis label (n, s), read by freqtree._integer_array, once n
    and the 1-based position s (or an array of them) are checked."""
    _require_uniform(shifts, "frequency labeling")
    n = _integer_array(n, f"label {np.asarray(n).tolist()}")
    if n.shape != (domain.dimension,):
        raise DimensionMismatch(f"label must have shape ({domain.dimension},)")
    if not all(1 <= p <= domain.k for p in np.ravel(s).tolist()):
        raise SpecFormatError(f"shift position {s} outside 1..{domain.k}")
    return n


def frequency_vector(domain: MultiTileDomain, shifts: ShiftSet, n, s: int) -> np.ndarray:
    """Actual frequency M^{-T}(n + delta*j_s + eta) of basis label (n, s),
    n integer dual-lattice coordinates, s a 1-based shift position."""
    n = _label(domain, shifts, n, s)
    return domain.lattice.dual_basis @ (n + shifts.delta * np.array(shifts.index_sets[0][s - 1]) + shifts.eta_coords)


def _unit_phases(domain: MultiTileDomain, shifts: ShiftSet, n, s):
    """The first factor of the module docstring's rule, u -> exp(2 pi i
    <u, w>), w = n + delta*j_s + eta, on the rows of an (N, d) array u
    of [0,1)^d: (N,) for one position s, (N, S) for S of them.  Before
    any u, SpecFormatError names the label and eta once sum_l |w_l|,
    which bounds <u, w>, passes PHASE_LIMIT."""
    n = _label(domain, shifts, n, s)
    w = n + shifts.delta * np.array(shifts.index_sets[0])[np.asarray(s) - 1] + shifts.eta_coords
    reach = np.abs(w).sum(axis=-1).max()
    if reach > PHASE_LIMIT:
        raise SpecFormatError(f"label n = {n.tolist()}, s = {np.asarray(s).tolist()} with eta = "
                              f"{shifts.eta_coords.tolist()} gives phase arguments up to {reach:.3e} "
                              f"on [0,1)^d, above {PHASE_LIMIT:.1e}")
    return lambda u: np.exp(2j * np.pi * (u @ w.T))


def _dual_factors(domain: MultiTileDomain, shifts: ShiftSet, s: int) -> np.ndarray:
    """(cells, k) factors [c, r] = conj V_c[s, r] * dual_c[r, s] that
    take _unit_phases to the dual generator of shift position s."""
    return np.stack([ps.V[s - 1].conj() * cell_system(domain, shifts, ci).dual[:, s - 1]
                     for ci, ps in enumerate(shifts.systems)])


def _chunks(total: int, width: int):
    """Slices over `total` rows of a table `width` entries wide, each
    holding at most CHUNK entries (but at least one row)."""
    step = max(1, CHUNK // max(width, 1))
    for lo in range(0, total, step):
        yield slice(lo, min(lo + step, total))


def _label_grid(radius: int, d: int) -> np.ndarray:
    """All integer d-vectors n with |n|_inf <= radius, as rows."""
    side = 2 * radius + 1
    return np.indices((side,) * d).reshape(d, -1).T - radius


def _piece_table(domain: MultiTileDomain, centers, radius: int, f, weights):
    """Table of piece sums over label boxes, entry [b, g, p] for theta =
    centers[b] - grid[g] + f[b, p], grid = _label_grid(radius, d), for
    a (B, d) integer array centers and a (B, P, d) array f of real
    remainders; yielded as (rows, block) pairs, rows slicing the g axis
    and blocks (B, g, P) of at most CHUNK entries (but at least a row).

    The piece sum of theta = M^T (l1 - l2) is the sum over (cell,
    region) pieces of the exponential integral int exp(2 pi i <l1-l2,
    y>) dy.  Offsets and labels are integers, so the lattice phase
    exp(2 pi i <z_r, theta>) of every piece depends on f alone:
    weights[c, b, p] is cell c's sum over regions of those phases at
    f[b, p], times any weights (the dual modulations), formed by the
    caller (by vandermonde._phases where f is a spacing times index
    differences).  Each piece is a box, so its integral is a product of
    one-axis integrals (exp(tb) - exp(ta)) / t, t = 2 pi i theta_ax.
    On axis ax, theta_ax is centers[b, ax] + radius - i + f[b, p, ax],
    i = 0..2 radius: those are evaluated for all cells in one (cells,
    B, 2 radius + 1, P) array, built in place next to one more such
    array; every block gathers them by grid coordinate, multiplies them
    across axes into cells x CHUNK entries and adds the cells in order.
    """
    f = np.asarray(f, dtype=float)
    batch, width, d = f.shape
    lattice = domain.lattice.volume * np.asarray(weights)[:, :, None, :]
    a, b = np.array([c.box for c in domain.cells]).T[..., None, None, None]  # [ax]: cell box ends
    index = _label_grid(radius, d).T + radius
    span = np.asarray(centers, dtype=int) + radius  # minus i along each axis
    factors = []
    for ax in range(d):
        theta = (span[:, ax, None] - np.arange(2 * radius + 1))[:, :, None] + f[:, None, :, ax]
        tiny = np.abs(theta) < 1e-12
        t = 2j * np.pi * np.where(tiny, 1.0, theta)
        factor, lower = np.exp(t * b[ax]), t * a[ax]
        factor -= np.exp(lower, out=lower)
        del lower  # so no spare array outlives the build
        factor /= t
        np.copyto(factor, b[ax] - a[ax], where=tiny)
        factors.append(factor)
    for rows in _chunks(index.shape[1], batch * width):
        part = lattice
        for ax in range(d):
            part = part * factors[ax][:, :, index[ax, rows]]
        yield rows, sum(part, 0.0)  # cell by cell: np.sum would pair them


def gram(domain: MultiTileDomain, l1, l2) -> complex:
    """Exact inner product of two exponentials over the domain.

    <e_{l1}, e_{l2}> = int_Omega exp(2 pi i (l1 - l2) . y) dy, computed
    in closed form piece by piece (each piece is an axis box translated
    by a lattice point, so the integral is a product of one-axis
    integrals times a lattice phase).
    """
    l1 = np.asarray(l1, dtype=float)
    l2 = np.asarray(l2, dtype=float)
    if l1.shape != (domain.dimension,) or l2.shape != (domain.dimension,):
        raise DimensionMismatch("frequencies must be d-vectors")
    theta = domain.lattice.basis.T @ (l1 - l2)
    reach = max(np.abs(c.offsets * theta).sum(axis=1).max() for c in domain.cells)
    if reach > PHASE_LIMIT:  # theta is real, so <z_r, theta> cannot be reduced mod q
        raise SpecFormatError(f"gram: lattice phases of theta = {theta.tolist()} reach {reach:.3e} > PHASE_LIMIT")
    weights = [np.exp(2j * np.pi * (c.offsets @ theta[:, None])).sum(axis=0)[None] for c in domain.cells]
    _, block = next(_piece_table(domain, np.zeros((1, domain.dimension), dtype=int), 0, theta[None, None], weights))
    return complex(block[0, 0, 0])


def dual_eval(domain: MultiTileDomain, shifts: ShiftSet, n, s: int, points) -> np.ndarray:
    """Evaluate the dual generator of basis label (n, s) at an (N, d)
    array of points of the domain; returns the (N,) values.

    All points are located in one pass and evaluated on their (cell, u)
    rows by the module docstring's rule; if any point is not in the
    domain, the error is the one omega_inverse raises for the first.
    """
    phases = _unit_phases(domain, shifts, n, s)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != domain.dimension:
        raise DimensionMismatch(
            f"points have shape {pts.shape}, expected (N, {domain.dimension})"
        )
    regions, u, cells = _omega_inverse_rows(domain, pts)
    return phases(u) * _dual_factors(domain, shifts, s)[cells, regions - 1]


def verify_biorthogonality(
    domain: MultiTileDomain, shifts: ShiftSet, radius: int = 4
) -> float:
    """Largest deviation of <e_l, g_l'> / |Omega| from the identity
    indicator over all basis labels with dual-coordinate radius up to
    `radius` in each axis.

    The inner products are evaluated in closed form; the radius only
    bounds the label set tested, every tested pair is exact.
    """
    _require_uniform(shifts, "biorthogonality check")
    if radius < 0:
        raise SpecFormatError(f"radius must be nonnegative, got {radius}")
    duals = [cell_system(domain, shifts, ci).dual for ci in range(len(domain.cells))]
    k = domain.k
    js = np.array(shifts.index_sets[0])
    # rows p = (s1, s2): remainder delta*(j_s1 - j_s2); its lattice phases
    # (those of _phases at -jd, for the + sign) times conj(W[r, s2])
    jd = (js[:, None, :] - js[None, :, :]).reshape(k * k, -1)
    weights = [
        (_phases(shifts.delta, shifts.q, -jd, c.offsets).T * np.tile(w.conj(), (1, k))).sum(axis=0)[None]
        for c, w in zip(domain.cells, duals)
    ]
    # rows run over -n for labels n of the radius-2r box; n = 0 is the middle row
    zero = (4 * radius + 1) ** domain.dimension // 2
    worst = 0.0
    for rows, vals in _piece_table(domain, np.zeros((1, domain.dimension), dtype=int), 2 * radius,
                                   shifts.delta * jd[None], weights):
        vals /= domain.measure
        if rows.start <= zero < rows.stop:
            vals[0, zero - rows.start, ::k + 1] -= 1.0
        worst = max(worst, float(np.max(np.abs(vals))))
    return worst
