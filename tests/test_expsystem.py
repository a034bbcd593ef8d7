import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, reject, strategies as st

from multitile import (
    DimensionMismatch,
    MultiTileDomain,
    NoPairFound,
    NonUniformShifts,
    OutOfDomain,
    PointOnGap,
    SingularCell,
    SpecFormatError,
    block_conditions,
    cell_index_at,
    cell_system,
    check,
    coefficient_data,
    dual_eval,
    find_pair,
    flatten_grid,
    frequency_vector,
    gram,
    is_orthogonal,
    make_cell,
    make_frequency_set,
    make_lattice,
    make_shifts,
    omega,
    omega_inverse,
    riesz_bounds,
    sample_grid,
    verify_biorthogonality,
)
from multitile import expsystem
from multitile.expsystem import _piece_table
from multitile.vandermonde import COND_LIMIT, PHASE_LIMIT

from builders import ALL, PERFECT, domain_of, mixed_2tile_2d, nested_values, tilings, uniform_count_tilings
from oracles import block_sigmas_reference, cell_system_reference, gram_quadrature, piece_sum_reference

SQ2 = np.sqrt(2.0)


def _shifts(name, v, q, eta=None):
    dom = ALL[name]()
    cert = check(dom, v, q)
    assert not hasattr(cert, "message"), getattr(cert, "message", "")
    return dom, make_shifts(dom, cert, eta)


def test_interval_V_matrix():
    dom, sh = _shifts("interval_2tile", [1], [2])
    V = cell_system(dom, sh, 0).V
    assert np.allclose(V, [[1, 1], [1, -1]], atol=1e-14)


def test_split_V_matrix():
    dom, sh = _shifts("split_2tile", [1], [4])
    V = cell_system(dom, sh, 0).V
    assert np.allclose(V, [[1, 1], [1, -1]], atol=1e-14)


def test_k1_V_matrix():
    dom = domain_of([[1.0]], [([[0, 1]], [[0]])])
    sh = make_shifts(dom, find_pair(dom))
    assert np.allclose(cell_system(dom, sh, 0).V, [[1.0]])


def test_assemble_caches_by_cell():
    dom, sh = _shifts("twocell_2tile_1d", [1], [3])
    def at(u):
        return cell_system(dom, sh, cell_index_at(dom, np.array([u])))

    a, b = at(0.1), at(0.2)
    assert a.cell == b.cell == 0
    assert np.allclose(a.V, b.V)
    assert at(0.7).cell == 1


def test_unimodular_entries():
    for name in sorted(ALL):
        dom = ALL[name]()
        sh = make_shifts(dom, find_pair(dom))
        for ci in range(len(dom.cells)):
            V = cell_system(dom, sh, ci).V
            assert np.max(np.abs(np.abs(V) - 1.0)) <= 1e-12, name


def test_resolution_identity():
    """Sum over shifts of the dual modulation factors gives k back."""
    for name in sorted(ALL):
        dom = ALL[name]()
        sh = make_shifts(dom, find_pair(dom))
        k = dom.k
        for ci in range(len(dom.cells)):
            ps = cell_system(dom, sh, ci)
            V_inv = np.linalg.inv(ps.V)
            for r in range(k):
                total = sum(
                    k * ps.V[s, r] * V_inv[r, s] for s in range(k)
                )
                assert abs(total - k) <= 1e-12, name


def test_singular_cell():
    dom = ALL["split_2tile"]()
    sh = make_shifts(dom, np.array([0.5]))  # nodes 1 and e^{-2pi i} coincide
    with pytest.raises(SingularCell):
        cell_system(dom, sh, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_shifts_rejects_non_finite_delta(bad):
    with pytest.raises(SpecFormatError, match="delta must be finite"):
        make_shifts(ALL["split_2tile"](), np.array([bad]))


def test_is_orthogonal():
    dom, sh = _shifts("split_2tile", [1], [4])
    ok, dev = is_orthogonal(dom, sh)
    assert ok and dev <= 1e-12
    dom, sh = _shifts("split_2tile", [1], [3])
    ok, dev = is_orthogonal(dom, sh)
    assert not ok and dev > 0.5


def test_orthogonal_iff_perfect_on_fixtures():
    for name in sorted(ALL):
        dom = ALL[name]()
        cert = find_pair(dom)
        sh = make_shifts(dom, cert)
        ok, _ = is_orthogonal(dom, sh)
        assert ok == (cert.kind == "perfect"), name
        if ok:
            for ci in range(len(dom.cells)):
                assert cell_system(dom, sh, ci).kappa <= 1 + 1e-10


def test_riesz_bounds_hadamard():
    dom, sh = _shifts("interval_2tile", [1], [2])
    rb = riesz_bounds(dom, sh)
    assert rb.alpha == pytest.approx(2.0, abs=1e-10)
    assert rb.beta == pytest.approx(2.0, abs=1e-10)
    assert rb.frame_lower == pytest.approx(2.0 * dom.lattice.volume, abs=1e-10)


def test_riesz_bounds_quarter_shift():
    dom, sh = _shifts("interval_2tile", [1], [4])
    rb = riesz_bounds(dom, sh)
    assert rb.alpha == pytest.approx(2.0 - SQ2, abs=1e-10)
    assert rb.beta == pytest.approx(2.0 + SQ2, abs=1e-10)


def test_riesz_bounds_k1():
    dom = domain_of([[1.0]], [([[0, 1]], [[0]])])
    rb = riesz_bounds(dom, make_shifts(dom, find_pair(dom)))
    assert rb.alpha == pytest.approx(1.0) and rb.beta == pytest.approx(1.0)


def test_factored_bounds_sandwich_fixtures():
    for name in sorted(ALL):
        dom = ALL[name]()
        sh = make_shifts(dom, find_pair(dom))
        rb = riesz_bounds(dom, sh)
        for cb in rb.cells:
            assert cb.factored_lower <= cb.sigma_min**2 * (1 + 1e-9), name
            assert cb.sigma_max**2 <= cb.factored_upper * (1 + 1e-9), name


@given(uniform_count_tilings(), st.data())
def test_factored_bounds_sandwich_uniform_child_counts(dom, data):
    """With one child count per tree level, both factorized products
    bound the exact ones, at any nonsingular spacing (up to the SVD's
    absolute rounding near sigma_min)."""
    delta = np.array(data.draw(st.tuples(*[st.floats(0.01, 0.99)] * dom.dimension)))
    sh = make_shifts(dom, delta)
    assert sh.uniform
    assume(all(ps.dual is not None for ps in sh.systems))
    for cb in riesz_bounds(dom, sh).cells:
        assert cb.factored_lower <= cb.sigma_min**2 * (1 + 1e-9) + 1e-12 * cb.sigma_max**2
        assert cb.sigma_max**2 <= cb.factored_upper * (1 + 1e-9)


def test_factored_upper_below_sigma_max_with_unequal_child_counts():
    """First coordinates 0, 1, 4 carry 2, 3 and 3 children: there the
    factorized upper product (20) falls below sigma_max^2, so it is a
    diagnostic, not a bound."""
    offsets = [[1, 0], [1, 2], [1, 4], [4, 7], [4, 5], [4, 1], [0, 2], [0, 1]]
    dom = domain_of([[1.0, 0.0], [0.0, 1.0]], [([[0, 1], [0, 1]], offsets)])
    rb = riesz_bounds(dom, make_shifts(dom, check(dom, [1, 1], [5, 8])))
    assert rb.beta == pytest.approx(22.59860979668091, rel=1e-12)
    assert rb.cells[0].factored_upper == pytest.approx(20.0, rel=1e-12)


def test_dual_worked_value():
    # quarter shift on the doubled interval, label (0, s=2) at y=1.25:
    # hand inverse of [[1,1],[1,-i]] gives the factor (1+i)
    dom, sh = _shifts("interval_2tile", [1], [4])
    (got,) = dual_eval(dom, sh, np.array([0]), 2, np.array([[1.25]]))
    want = np.exp(2j * np.pi * 0.3125) * (1 + 1j)
    assert abs(got - want) <= 1e-12


def test_dual_is_exponential_when_orthogonal():
    rng = np.random.default_rng(13)
    dom, sh = _shifts("interval_2tile", [1], [2])
    l = frequency_vector(dom, sh, np.array([2]), 1)
    ys = rng.uniform(0, 2, size=50)
    got = dual_eval(dom, sh, np.array([2]), 1, ys[:, None])
    assert np.max(np.abs(got - np.exp(2j * np.pi * l * ys))) <= 1e-10


def test_dual_eval_point_shapes():
    """Points are an (N, d) array in every dimension; a scalar, a flat
    vector or a row of the wrong width is refused, so no shape means a
    batch in one dimension and a single point in another."""
    for name, v, q in (("interval_2tile", [1], [4]), ("strip_3tile_2d", [1, 1], [3, 2])):
        dom, sh = _shifts(name, v, q)
        d = dom.dimension
        points = np.array([[0.25] * d, [0.75] * d])
        batch = dual_eval(dom, sh, np.zeros(d, dtype=int), 2, points)
        assert batch.shape == (2,)
        assert dual_eval(dom, sh, np.zeros(d, dtype=int), 2, points[1:]) == batch[1:]
        for bad in (np.array(0.25), np.full(d, 0.25), np.zeros((1, d + 1)), np.zeros((1, 1, d))):
            with pytest.raises(DimensionMismatch, match=r"expected \(N, "):
                dual_eval(dom, sh, np.zeros(d, dtype=int), 2, bad)
    with pytest.raises(OutOfDomain):
        dual_eval(dom, sh, np.zeros(2, dtype=int), 2, np.array([[9.5, 9.5]]))


def test_k1_dual_is_exponential():
    dom = domain_of([[1.0]], [([[0, 1]], [[0]])])
    sh = make_shifts(dom, find_pair(dom))
    y = np.array([[0.37]])
    l = frequency_vector(dom, sh, np.array([1]), 1)
    assert dual_eval(dom, sh, np.array([1]), 1, y)[0] == pytest.approx(
        np.exp(2j * np.pi * l[0] * 0.37)
    )


def test_non_integer_label_refused():
    """A label n must be an integer vector: 0.5 is no label of the
    basis, and frequency_vector and dual_eval refuse it, naming it."""
    dom, sh = _shifts("split_2tile", [1], [3])
    with pytest.raises(SpecFormatError, match=r"label \[0\.5\] must be integers"):
        frequency_vector(dom, sh, [0.5], 1)
    with pytest.raises(SpecFormatError, match=r"label \[0\.5\] must be integers"):
        dual_eval(dom, sh, [0.5], 1, [[0.25]])
    assert frequency_vector(dom, sh, [2.0], 1) == frequency_vector(dom, sh, [2], 1)


def test_gram_lattice_phase_limit():
    """gram takes real frequencies, so its lattice phases <z_r, theta>
    cannot be reduced mod q: past PHASE_LIMIT they are refused.  On the
    offsets {0, 10^18} the exact value at theta = 1/2 is 4i/pi, since
    10^18 is even, and a float phase gives 0.408+0.148i."""
    big = domain_of([[1.0]], [([[0, 1]], [[0], [10**18]])])
    with pytest.raises(SpecFormatError, match=r"gram: .* theta = \[0\.5\] reach 5\.000e\+17"):
        gram(big, np.array([0.5]), np.array([0.0]))
    near = domain_of([[1.0]], [([[0, 1]], [[0], [int(2 * PHASE_LIMIT)]])])
    assert abs(gram(near, np.array([0.5]), np.array([0.0])) - 4j / np.pi) <= 1e-9
    with pytest.raises(SpecFormatError, match="gram"):
        gram(near, np.array([0.5 + 1e-9]), np.array([0.0]))


def test_gram_diagonal_is_measure():
    for name in ("interval_2tile", "box_pair_2d", "shear_2tile"):
        dom = ALL[name]()
        l = np.full(dom.dimension, 0.3)
        assert gram(dom, l, l) == pytest.approx(dom.measure)


def test_gram_worked_values():
    dom = ALL["interval_2tile"]()  # covers [0,2)
    assert abs(gram(dom, np.array([0.5]), np.array([0.0]))) <= 1e-12
    single = domain_of([[1.0]], [([[0, 1]], [[0]])])  # plain unit interval
    got = gram(single, np.array([0.5]), np.array([0.0]))
    assert got == pytest.approx(2j / np.pi, abs=1e-12)


def test_gram_matches_quadrature():
    rng = np.random.default_rng(19)
    for name in ("twocell_2tile_1d", "shear_2tile"):
        dom = ALL[name]()
        cells = [(c.box, c.offsets) for c in dom.cells]
        for _ in range(3):
            l1 = rng.uniform(-1.5, 1.5, size=dom.dimension)
            l2 = rng.uniform(-1.5, 1.5, size=dom.dimension)
            got = gram(dom, l1, l2)
            ref = gram_quadrature(dom.lattice.basis, cells, l1, l2, n=600)
            assert abs(got - ref) <= 5e-5 * max(1.0, abs(ref)), name


def test_biorthogonality_examples():
    dom = domain_of([[1.0]], [([[0, 1]], [[0]])])
    assert verify_biorthogonality(dom, make_shifts(dom, find_pair(dom)), radius=3) <= 1e-12
    dom, sh = _shifts("interval_2tile", [1], [2])
    assert verify_biorthogonality(dom, sh, radius=4) <= 1e-12
    dom, sh = _shifts("split_2tile", [1], [4])
    assert verify_biorthogonality(dom, sh, radius=4) <= 1e-10


def test_biorthogonality_nonorthogonal_and_eta():
    dom, sh = _shifts("split_2tile", [1], [3])
    assert verify_biorthogonality(dom, sh, radius=3) <= 1e-10
    dom, sh = _shifts("split_2tile", [1], [3], eta=np.array([2]))
    assert verify_biorthogonality(dom, sh, radius=3) <= 1e-10
    dom, sh = _shifts("shear_2tile", [1, 1], [2, 1])
    assert verify_biorthogonality(dom, sh, radius=2) <= 1e-10


def test_make_shifts_bounds_eta():
    """make_shifts keeps an eta while |eta|_1 + max_s |delta*j_s|_1 is
    within PHASE_LIMIT and refuses it, naming it, once that passes."""
    dom = ALL["strip_3tile_2d"]()
    cert = check(dom, [1, 1], [3, 1])
    sh = make_shifts(dom, cert)
    top = max(np.abs(np.array(j) * sh.delta).sum() for j in sh.index_sets[0])
    below = math.floor(PHASE_LIMIT - top)
    assert make_shifts(dom, cert, [0, -below]).eta_coords.tolist() == [0, -below]
    for eta in ([below + 1, 0], [0, -below - 1], [below // 2 + 1, below // 2 + 1]):
        with pytest.raises(SpecFormatError, match=rf"with eta = \[{eta[0]}, {eta[1]}\] gives phase arguments"):
            make_shifts(dom, cert, eta)


def test_eta_does_not_change_V():
    dom = ALL["strip_3tile_2d"]()
    cert = find_pair(dom)
    a = make_shifts(dom, cert)
    b = make_shifts(dom, cert, np.array([3, -1]))
    for ci in range(len(dom.cells)):
        assert np.allclose(
            cell_system(dom, a, ci).V, cell_system(dom, b, ci).V, atol=1e-12
        )
    la = frequency_vector(dom, a, np.array([0, 0]), 1)
    lb = frequency_vector(dom, b, np.array([0, 0]), 1)
    eta_vec = dom.lattice.dual_basis @ np.array([3, -1])
    assert np.allclose(lb - la, eta_vec)


def test_frequency_vector_box_pair():
    dom, sh = _shifts("box_pair_2d", [1, 1], [2, 1])
    l = frequency_vector(dom, sh, np.array([1, 0]), 2)
    # dual basis diag(1/2, 1); second shift index is (1, 0)
    assert np.allclose(l, [0.75, 0.0])


def test_nonuniform_cells_flagged():
    dom = mixed_2tile_2d()
    sh = make_shifts(dom, check(dom, [1, 1], [2, 2]))
    assert not sh.uniform
    with pytest.raises(NonUniformShifts):
        is_orthogonal(dom, sh)
    with pytest.raises(NonUniformShifts):
        verify_biorthogonality(dom, sh, radius=2)
    with pytest.raises(NonUniformShifts):
        riesz_bounds(dom, sh)


# integer label differences, and real remainders including exact
# zeros, |theta| < 1e-12, values just above that threshold and integers
LABEL = st.integers(-6, 6)
REMAINDER = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, 4e-13, -7e-13, 3e-11, -2e-10, 1.0, -2.0, 0.5]),
)


def _table(dom, n, f, weights=None):
    """The piece table, entry [g, p] for theta = n[g] + f[p]: every
    label n[g] is a center of radius 0, weighted by the lattice phases
    of the remainders f, times the weights when given, summed over each
    cell's regions."""
    regions = [np.exp(2j * np.pi * (c.offsets @ f.T)) for c in dom.cells]
    if weights is not None:
        regions = [r * w for r, w in zip(regions, weights)]
    sums = [np.tile(r.sum(axis=0), (len(n), 1)) for r in regions]
    f = np.broadcast_to(f, (len(n), *f.shape))
    return np.concatenate([block[:, 0] for _, block in _piece_table(dom, n, 0, f, sums)])


def _close(got, ref, bound):
    """Agreement to 1e-12 relative to `bound`, the largest modulus the
    sum can take (references near 0 come from cancellation)."""
    return abs(got - ref) <= 1e-12 * max(abs(ref), bound)


@given(st.data())
def test_piece_table_matches_reference(data):
    dom = data.draw(tilings())
    d, k = dom.dimension, dom.k
    n = np.array(data.draw(st.lists(st.tuples(*[LABEL] * d), min_size=1, max_size=4)))
    f = np.array(data.draw(st.lists(st.tuples(*[REMAINDER] * d), min_size=1, max_size=4)))
    cells = [(c.box, c.offsets) for c in dom.cells]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    weights = rng.normal(size=(len(cells), k, len(f))) + 1j * rng.normal(size=(len(cells), k, len(f)))
    plain = _table(dom, n, f)
    weighted = _table(dom, n, f, weights)
    assert plain.shape == weighted.shape == (len(n), len(f))
    for g in range(len(n)):
        for p in range(len(f)):
            theta = n[g] + f[p]
            ref = piece_sum_reference(dom.lattice.basis, cells, theta)
            assert _close(plain[g, p], ref, dom.measure)
            ref = piece_sum_reference(dom.lattice.basis, cells, theta, weights[:, :, p])
            assert _close(weighted[g, p], ref, dom.measure * np.abs(weights).max())


@given(st.data())
def test_piece_table_boxes_match_reference(data):
    """Every entry [b, g, p] of a table over label boxes is the piece
    sum at theta = centers[b] - grid[g] + f[b, p], both at the default
    CHUNK and at CHUNK = 5, where a table takes many blocks."""
    dom = data.draw(tilings())
    d, k = dom.dimension, dom.k
    radius = data.draw(st.integers(0, 2))
    centers = np.array(data.draw(st.lists(st.tuples(*[LABEL] * d), min_size=1, max_size=3)))
    width = data.draw(st.integers(1, 3))
    size = len(centers) * width
    f = np.array(data.draw(st.lists(st.tuples(*[REMAINDER] * d), min_size=size, max_size=size)))
    f = f.reshape(len(centers), width, d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    shape = (len(dom.cells), k, len(centers), width)
    w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    weights = [(np.exp(2j * np.pi * (c.offsets @ f.reshape(-1, d).T)).reshape(wc.shape) * wc).sum(axis=0)
               for c, wc in zip(dom.cells, w)]
    grid = expsystem._label_grid(radius, d)
    cells = [(c.box, c.offsets) for c in dom.cells]
    ref = np.array([piece_sum_reference(dom.lattice.basis, cells, centers[b] - grid[g] + f[b, p], w[:, :, b, p])
                    for b, g, p in np.ndindex(len(centers), len(grid), width)])
    for chunk in (expsystem.CHUNK, 5):
        with patch.object(expsystem, "CHUNK", chunk):
            table = np.concatenate([block for _, block in _piece_table(dom, centers, radius, f, weights)], axis=1)
        assert table.shape == (len(centers), len(grid), width)
        for got, want in zip(table.ravel(), ref):
            assert _close(got, want, dom.measure * np.abs(w).max())


@given(st.data())
def test_gram_matches_reference(data):
    dom = data.draw(tilings())
    d = dom.dimension
    l1 = np.array(data.draw(st.tuples(*[st.floats(-4.0, 4.0)] * d)))
    l2 = data.draw(st.one_of(
        st.just(l1),  # theta = 0
        st.just(l1 + dom.lattice.dual_basis @ np.arange(1, d + 1)),  # theta near integers
        st.tuples(*[st.floats(-4.0, 4.0)] * d).map(np.array),
    ))
    cells = [(c.box, c.offsets) for c in dom.cells]
    ref = piece_sum_reference(dom.lattice.basis, cells, dom.lattice.basis.T @ (l1 - l2))
    assert _close(gram(dom, l1, l2), ref, dom.measure)


@given(st.data())
def test_cached_systems_match_reference(data):
    """Every cell system make_shifts stores equals the from-scratch
    construction, singular cells included, and is read-only; the solve
    matrix matches the per-row replay to rounding that grows with kappa."""
    dom = data.draw(tilings())
    spacing = st.one_of(st.floats(0.05, 0.95), st.sampled_from([0.25, 1 / 3, 0.5, 1.0]))
    sh = make_shifts(dom, np.array(data.draw(st.tuples(*[spacing] * dom.dimension))))
    delta = tuple(sh.delta)
    for ci, c in enumerate(dom.cells):
        ps = sh.systems[ci]
        fs = make_frequency_set(c.offsets)
        assert ps.cell == ci and ps.vectors == fs.vectors
        assert list(ps.blocks) == block_sigmas_reference(fs.vectors, delta)
        try:
            V, sigma, V_inv, solve = cell_system_reference(dom, sh, ci)
        except SingularCell as exc:
            assert ps.dual is None and ps.solve is None
            with pytest.raises(SingularCell) as got:
                cell_system(dom, sh, ci)
            assert str(got.value) == str(exc)
            continue
        assert cell_system(dom, sh, ci) is ps
        assert np.array_equal(ps.V, V) and np.array_equal(ps.sigma, sigma)
        assert np.array_equal(ps.dual, dom.k * V.T * V_inv)
        assert (ps.solve is None) == (solve is None)
        if solve is not None:
            scale = 1e-13 * ps.kappa * np.abs(solve).max()
            assert np.abs(ps.solve - solve).max() <= scale
        for arr in (ps.V, ps.dual, ps.solve):
            if arr is not None:
                with pytest.raises(ValueError):
                    arr[0, 0] = 0.0


@given(st.data())
def test_walked_blocks_match_reference(data):
    """The blocks make_shifts records from its one walk per cell, and
    those block_conditions walks, are bit for bit the SVDs of the
    blocks the reference enumeration lists: at certified, arbitrary and
    near-coincident spacings, singular cells included."""
    dom = data.draw(tilings())
    spacing = st.one_of(
        st.floats(0.05, 0.95),
        st.floats(-9.0, -2.0).map(lambda e: 10.0**e),
        st.sampled_from([0.25, 1 / 3, 0.5, 1.0]),
    )
    delta = (
        find_pair(dom).delta
        if data.draw(st.booleans())
        else np.array(data.draw(st.tuples(*[spacing] * dom.dimension)))
    )
    sh = make_shifts(dom, delta)
    for ps in sh.systems:
        want = block_sigmas_reference(ps.vectors, tuple(sh.delta))
        assert list(ps.blocks) == want
        with np.errstate(divide="ignore"):
            kappas = [(lv, float(hi / lo)) for lv, lo, hi in want]
        assert block_conditions(ps.vectors, sh.delta) == kappas


@given(st.data())
def test_solve_matrix_on_random_tilings(data):
    """make_shifts compiles the nested solve of exactly the nonsingular
    cells whose own and block condition numbers are within COND_LIMIT,
    into the recursion run on the unit vectors, which inverts V: to
    1e-12 on certified shifts, to rounding that grows with kappa on
    arbitrary (down to near-coincident) spacings.  It never warns."""
    dom = data.draw(tilings())
    certified = data.draw(st.booleans())
    spacing = st.one_of(st.floats(0.05, 0.95), st.floats(-9.0, -2.0).map(lambda e: 10.0**e))
    delta = (
        find_pair(dom).delta
        if certified
        else np.array(data.draw(st.tuples(*[spacing] * dom.dimension)))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sh = make_shifts(dom, delta)
    eye = np.eye(dom.k, dtype=complex)
    for ci, ps in enumerate(sh.systems):
        routed = (
            ps.dual is not None
            and ps.kappa <= COND_LIMIT
            and all(kappa <= COND_LIMIT for _, kappa in block_conditions(ps.vectors, sh.delta))
        )
        assert (ps.solve is not None) == routed
        if not routed:
            continue
        assert np.array_equal(ps.solve, nested_values(ps.vectors, sh.index_sets[ci], sh.delta, eye))
        tol = 1e-12 if certified else 1e-13 * max(10.0, ps.kappa)
        assert np.abs(ps.solve @ ps.V - eye).max() <= tol
        with pytest.raises(ValueError):
            ps.solve[0, 0] = 0.0


def test_cell_condition_alone_withholds_solve():
    """A cell whose own kappa exceeds COND_LIMIT keeps no solve matrix
    even when every block of the recursion is within it."""
    dom = domain_of([[1.0, 0.0], [0.0, 1.0]], [([[0, 1], [0, 1]], [[0, 0], [1, 0], [0, 1]])])
    sh = make_shifts(dom, np.array([1e-8, 1e-8]))
    ps = sh.systems[0]
    assert max(kappa for _, kappa in block_conditions(ps.vectors, sh.delta)) <= COND_LIMIT
    assert ps.kappa > COND_LIMIT and ps.solve is None


def test_chunked_tables_match_whole(monkeypatch):
    """Tables split into many small chunks match the unsplit ones (to
    rounding: vectorized loops may round differently by array length)."""
    dom, sh = _shifts("strip_3tile_2d", [1, 1], [3, 1])
    ids, pts = flatten_grid(sample_grid(dom, 3))
    coeffs = {((1, 0), 2): 1.0 - 0.5j, ((-1, 2), 3): 0.25}
    whole = (
        _table(dom, np.arange(-5, 5).reshape(5, 2), np.linspace(-1, 1, 6).reshape(3, 2)),
        verify_biorthogonality(dom, sh, radius=1),
        coefficient_data(dom, sh, coeffs, ids, pts, 2).values,
    )
    monkeypatch.setattr(expsystem, "CHUNK", 5)
    split = (
        _table(dom, np.arange(-5, 5).reshape(5, 2), np.linspace(-1, 1, 6).reshape(3, 2)),
        verify_biorthogonality(dom, sh, radius=1),
        coefficient_data(dom, sh, coeffs, ids, pts, 2).values,
    )
    for a, b in zip(whole, split):
        assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(a)))


def _gap_domain():
    # hand-built domain whose only box leaves [0.5, 1) uncovered
    cell = make_cell([[0.0, 0.5]], [[0], [1]])
    dom = MultiTileDomain(lattice=make_lattice([[1.0]]), cells=(cell,), k=2, measure=1.0)
    return dom, make_shifts(dom, np.array([0.5]))


@pytest.mark.parametrize("bad", [[0.7, 2.25], [2.25, 0.7]])
def test_dual_eval_batch_raises_first_failure(bad):
    """A batch fails exactly as omega_inverse fails on its first bad point."""
    dom, sh = _gap_domain()
    points = np.array([0.25, 1.25] + bad)[:, None]
    with pytest.raises((OutOfDomain, PointOnGap)) as first:
        omega_inverse(dom, points[2])
    with pytest.raises((OutOfDomain, PointOnGap)) as batch:
        dual_eval(dom, sh, np.array([0]), 1, points)
    assert type(batch.value) is type(first.value)
    assert str(batch.value) == str(first.value)
    assert dual_eval(dom, sh, np.array([0]), 1, points[:2]).shape == (2,)


def test_dual_eval_batch_matches_per_point_formula():
    """Batched duals equal k V[s,r] V^-1[r,s] e_l(y) with (r, cell)
    located one point at a time."""
    rng = np.random.default_rng(23)
    for name in ("twocell_2tile_1d", "shear_2tile", "strip_3tile_2d"):
        dom = ALL[name]()
        sh = make_shifts(dom, find_pair(dom))
        ids, us = flatten_grid(sample_grid(dom, 5))
        regions = rng.integers(1, dom.k + 1, size=len(ids))
        ys = np.array([omega(dom, r, u) for r, u in zip(regions, us)])
        n = rng.integers(-2, 3, size=dom.dimension)
        for s in range(1, dom.k + 1):
            got = dual_eval(dom, sh, n, s, ys)
            l = frequency_vector(dom, sh, n, s)
            for y, g in zip(ys, got):
                r, u = omega_inverse(dom, y)
                ps = cell_system(dom, sh, cell_index_at(dom, u))
                want = dom.k * ps.V[s - 1, r - 1] * np.linalg.inv(ps.V)[r - 1, s - 1]
                assert abs(g - want * np.exp(2j * np.pi * float(l @ y))) <= 1e-12, name


@given(st.data())
def test_large_offsets_match_exact_residues(data):
    """Single-cell domains in d = 1, 2 with up to four offsets as large
    as 2^62, at the certificate find_pair takes: every entry of V is
    exp(-2 pi i r / Q) for the residue r = sum_l v_l j_l z_l Q/q_l mod
    Q, Q = lcm(q), computed with Python ints; sigma_min is that
    matrix's, and the dual family is biorthogonal."""
    d = data.draw(st.integers(1, 2))
    big = st.integers(-(2**62), 2**62)
    offsets = data.draw(st.lists(st.tuples(*[big] * d), min_size=1, max_size=4, unique=True))
    dom = domain_of(np.eye(d), [([[0, 1]] * d, offsets)])
    try:
        cert = find_pair(dom)
    except NoPairFound:
        reject()
    sh = make_shifts(dom, cert)
    Q = math.lcm(*cert.q)
    scale = [v * (Q // q) for v, q in zip(cert.v, cert.q)]
    residues = np.array([
        [sum(a * j_l * z_l for a, j_l, z_l in zip(scale, j, z)) % Q for z in dom.cells[0].offsets.tolist()]
        for j in sh.index_sets[0]
    ])
    exact = np.exp(-2j * np.pi * (residues / Q))
    assert np.abs(sh.systems[0].V - exact).max() <= 1e-14
    sigma_min = np.linalg.svd(exact, compute_uv=False)[-1]
    assert abs(riesz_bounds(dom, sh).cells[0].sigma_min - sigma_min) <= 1e-12
    assert verify_biorthogonality(dom, sh, radius=1) <= 1e-10


def test_raw_spacing_phase_limit():
    """A raw spacing is refused, naming the cell, once some <delta*j, z>
    exceeds PHASE_LIMIT; the same offsets under a certificate are exact."""
    dom = domain_of([[1.0]], [([[0, 1]], [[0], [10**18]])])
    with pytest.raises(SpecFormatError, match=r"cell 0: the raw spacing .* 3\.333e\+17"):
        make_shifts(dom, np.array([1 / 3]))
    near = domain_of([[1.0]], [([[0, 1]], [[0], [int(PHASE_LIMIT)]])])
    make_shifts(near, np.array([1.0]))
    with pytest.raises(SpecFormatError, match="cell 0"):
        make_shifts(near, np.array([1.0 + 1e-9]))
    assert riesz_bounds(dom, make_shifts(dom, find_pair(dom))).cells[0].sigma_min == pytest.approx(1.0, abs=1e-12)
