import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from multitile import (
    DimensionMismatch,
    IllConditionedWarning,
    SingularCell,
    SingularMatrix,
    SpecFormatError,
    SpectralData,
    build_tree,
    cell_system,
    check,
    coefficient_data,
    find_pair,
    flatten_grid,
    forward_data,
    frequency_vector,
    make_domain,
    make_frequency_set,
    make_lattice,
    make_shifts,
    nested_solve,
    omega,
    reconstruct_direct,
    reconstruct_grid,
    sample_grid,
    shift_index_set,
    verify_biorthogonality,
)
from multitile.domain import _offset_images
from multitile.vandermonde import COND_LIMIT

from builders import ALL, domain_of, nested_values, tilings
from test_freqtree import M4


def _setup(name, v=None, q=None, n=4):
    dom = ALL[name]()
    cert = find_pair(dom) if v is None else check(dom, v, q)
    sh = make_shifts(dom, cert)
    ids, pts = flatten_grid(sample_grid(dom, n))
    return dom, sh, ids, pts


def test_forward_worked_value():
    dom, sh, ids, pts = _setup("interval_2tile", [1], [2], n=1)
    dat = forward_data(dom, sh, ids, pts, np.array([[1.0, -1.0]]))
    assert np.allclose(dat.values, [[0.0, 2.0]])
    assert dat.provenance == "exact-pointwise"


def test_forward_k1_scales_by_volume():
    dom = domain_of([[4.0]], [([[0, 1]], [[0]])])
    sh = make_shifts(dom, find_pair(dom))
    ids, pts = flatten_grid(sample_grid(dom, 3))
    y = np.array([[1.0], [2.0], [3.0]], dtype=complex)
    dat = forward_data(dom, sh, ids, pts, y)
    assert np.allclose(dat.values, 4.0 * y)
    res = reconstruct_grid(dom, sh, dat)
    assert np.allclose(res.values, y.ravel())


def test_round_trip_random_values():
    rng = np.random.default_rng(21)
    for name in sorted(ALL):
        dom, sh, ids, pts = _setup(name)
        y = rng.normal(size=(len(ids), dom.k)) + 1j * rng.normal(size=(len(ids), dom.k))
        dat = forward_data(dom, sh, ids, pts, y)
        res = reconstruct_grid(dom, sh, dat, oracle=True)
        for i in range(len(res.values)):
            row, r = res.source_rows[i], res.regions[i]
            assert abs(res.values[i] - y[row, r - 1]) <= 1e-9, name
        assert np.nanmax(res.residuals) <= 1e-9
        assert res.skipped == ()


def test_zero_data_gives_zero():
    dom, sh, ids, pts = _setup("strip_3tile_2d")
    dat = forward_data(dom, sh, ids, pts, np.zeros((len(ids), dom.k), dtype=complex))
    res = reconstruct_grid(dom, sh, dat)
    assert np.max(np.abs(res.values)) == 0.0


def test_linearity():
    rng = np.random.default_rng(33)
    dom = ALL["plane_4tile_2d"]()
    sh = make_shifts(dom, find_pair(dom))
    fs = make_frequency_set(dom.cells[0].offsets)
    order = shift_index_set(build_tree(fs))
    mu = 0.7 - 1.3j
    F1 = rng.normal(size=dom.k) + 1j * rng.normal(size=dom.k)
    F2 = rng.normal(size=dom.k) + 1j * rng.normal(size=dom.k)
    a = nested_values(fs.vectors, order, sh.delta, F1 + mu * F2)
    b = nested_values(fs.vectors, order, sh.delta, F1) + mu * nested_values(fs.vectors, order, sh.delta, F2)
    assert np.max(np.abs(a - b)) <= 1e-10


def test_nested_solve_mapping_and_order():
    """nested_solve reads its mapping by key, whatever the insertion
    order, and returns values keyed by frequency vector; a delta whose
    length is not the vectors' dimension is refused."""
    dom = _mixed_two_cell()
    sh = make_shifts(dom, find_pair(dom))
    fs = make_frequency_set(dom.cells[0].offsets)
    order = shift_index_set(build_tree(fs))
    F = np.random.default_rng(3).normal(size=dom.k) + 1j
    forward = nested_solve(fs.vectors, {j: F[i] for i, j in enumerate(order)}, sh.delta)
    backward = nested_solve(fs.vectors, {j: F[i] for i, j in reversed(list(enumerate(order)))}, sh.delta)
    assert list(forward) == list(backward) == list(fs.vectors)
    assert all(forward[v] == backward[v] for v in fs.vectors)
    y = np.array([forward[v] for v in fs.vectors])
    assert np.allclose(cell_system(dom, sh, 0).V @ y, F, rtol=0, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        nested_solve(fs.vectors, {j: F[i] for i, j in enumerate(order)}, sh.delta[:1])


def test_worked_ten_vector_recovery():
    """The 4D ten-vector set recovers random coefficients through the
    nested solver and agrees with the dense inverse."""
    rng = np.random.default_rng(41)
    dom = domain_of(np.eye(4).tolist(), [([[0, 1]] * 4, M4.astype(int).tolist())])
    cert = find_pair(dom, q_max=2 * dom.k)
    sh = make_shifts(dom, cert)
    ps = cell_system(dom, sh, 0)
    c = rng.normal(size=10) + 1j * rng.normal(size=10)
    F = ps.V @ c
    got = nested_values(ps.vectors, sh.index_sets[0], sh.delta, F)
    assert np.linalg.norm(got - c) <= 1e-9 * np.linalg.norm(c)
    dense = reconstruct_direct(ps.V, F)
    assert np.linalg.norm(got - dense) <= 1e-10 * max(1.0, np.linalg.norm(dense))


def test_reconstruct_direct_singular():
    with pytest.raises(SingularMatrix):
        reconstruct_direct(np.ones((2, 2)), np.array([1.0, 2.0]))


def test_eta_invariance():
    rng = np.random.default_rng(9)
    dom = ALL["split_2tile"]()
    cert = check(dom, [1], [3])
    plain = make_shifts(dom, cert)
    shifted = make_shifts(dom, cert, np.array([5]))
    ids, pts = flatten_grid(sample_grid(dom, 5))
    y = rng.normal(size=(len(ids), 2)) + 1j * rng.normal(size=(len(ids), 2))
    a = reconstruct_grid(dom, plain, forward_data(dom, plain, ids, pts, y))
    b = reconstruct_grid(dom, shifted, forward_data(dom, shifted, ids, pts, y))
    assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_coefficient_data_orthogonal_single_term():
    dom, sh, ids, pts = _setup("interval_2tile", [1], [2])
    n0, s0 = (1,), 2
    l0 = frequency_vector(dom, sh, np.array(n0), s0)
    vals = np.empty((len(ids), dom.k), dtype=complex)
    for i in range(len(ids)):
        for r in range(1, dom.k + 1):
            vals[i, r - 1] = np.exp(2j * np.pi * l0 @ omega(dom, r, pts[i]))
    fwd = forward_data(dom, sh, ids, pts, vals)
    for R in (1, 3):
        cof = coefficient_data(dom, sh, {(n0, s0): 1.0}, ids, pts, R)
        assert np.max(np.abs(cof.values - fwd.values)) <= 1e-9, R
        assert cof.provenance == "coefficient-truncated"
        assert cof.radius == R


def test_coefficient_data_zero():
    dom, sh, ids, pts = _setup("split_2tile", [1], [3])
    dat = coefficient_data(dom, sh, {((0,), 1): 0.0}, ids, pts, 2)
    assert np.max(np.abs(dat.values)) == 0.0


def test_coefficient_truncation_converges():
    dom, sh, ids, pts = _setup("split_2tile", [1], [3], n=6)
    n0, s0 = (1,), 2
    l0 = frequency_vector(dom, sh, np.array(n0), s0)
    errs = []
    for R in (2, 4, 8, 16):
        dat = coefficient_data(dom, sh, {(n0, s0): 1.0}, ids, pts, R)
        res = reconstruct_grid(dom, sh, dat)
        err = max(
            abs(res.values[i] - np.exp(2j * np.pi * l0 @ res.points[i]))
            for i in range(len(res.values))
        )
        errs.append(err)
    assert all(errs[i + 1] <= errs[i] * 1.1 for i in range(len(errs) - 1))
    assert errs[-1] < errs[0]


@given(st.data())
def test_batched_terms_match_single_term_sums(data):
    """Coefficient data of many terms, built from one batched kernel
    table, equals the sum of one-term calls: on random tilings in d =
    1..3, with more terms than shift positions (so positions repeat)
    and one label component near +-10^6."""
    dom = data.draw(tilings())
    d, k = dom.dimension, dom.k
    sh = make_shifts(dom, find_pair(dom))
    assume(sh.uniform)
    label = st.tuples(*[st.integers(-3, 3)] * d)
    terms = data.draw(st.lists(
        st.tuples(label, st.integers(1, k), st.complex_numbers(max_magnitude=2.0)),
        min_size=k + 1, max_size=k + 6, unique_by=lambda t: t[:2],
    ))
    far = data.draw(st.sampled_from([-1, 1])) * 10**6 + data.draw(st.integers(-3, 3))
    (n0, s0, c0), *rest = terms
    coeffs = {((far,) + n0[1:], s0): c0, **{(n, s): c for n, s, c in rest}}
    ids, pts = flatten_grid(sample_grid(dom, 2))
    radius = data.draw(st.integers(0, 2))
    many = coefficient_data(dom, sh, coeffs, ids, pts, radius).values
    singles = [coefficient_data(dom, sh, {key: c}, ids, pts, radius).values for key, c in coeffs.items()]
    scale = sum(np.abs(v).max() for v in singles)
    assert np.abs(many - sum(singles)).max() <= 1e-14 * max(scale, 1e-300)


def test_skipped_rows():
    """forward_data trusts a row's cell id, so a wrong-cell row gets the
    claimed cell's V; reconstruct_grid checks the box and skips it."""
    dom, sh, ids, pts = _setup("twocell_2tile_1d", [1], [3])
    ids = ids.copy()
    ids[0] = 1 - ids[0]  # claim the wrong cell for one row
    y = np.ones((len(ids), 2), dtype=complex)
    dat = forward_data(dom, sh, ids, pts, y)
    V = cell_system(dom, sh, ids[0]).V
    assert np.array_equal(dat.values[0], dom.lattice.volume * y[0] @ V.T)
    res = reconstruct_grid(dom, sh, dat)
    assert res.skipped == (0,)
    assert np.isnan(res.residuals[0])
    assert len(res.values) == (len(ids) - 1) * dom.k


def _mixed_two_cell():
    # two cells with different shift index sets; cell 0's tree has
    # parents with unequal child counts, so cross terms are exercised
    return domain_of(
        [[1.0, 0.0], [0.0, 1.0]],
        [
            ([[0.0, 0.5], [0.0, 1.0]], [[0, 0], [1, 0], [1, 1]]),
            ([[0.5, 1.0], [0.0, 1.0]], [[0, 0], [0, 1], [0, 2]]),
        ],
    )


def test_grid_matches_per_row_points():
    rng = np.random.default_rng(55)
    for basis in (np.eye(2), np.array([[1.5, -2.0], [0.0, 0.5]])):  # identity and sheared
        dom = make_domain(make_lattice(basis), _mixed_two_cell().cells)
        sh = make_shifts(dom, find_pair(dom))
        assert not sh.uniform
        ids, pts = flatten_grid(sample_grid(dom, 5))
        ids, pts = ids.copy(), pts.copy()
        ids[0] = 1 - ids[0]        # claims the wrong cell
        pts[-1] = [1.5, 0.5]       # outside the domain
        y = rng.normal(size=(len(ids), dom.k)) + 1j * rng.normal(size=(len(ids), dom.k))
        dat = forward_data(dom, sh, ids, pts, y)
        res = reconstruct_grid(dom, sh, dat)
        assert res.skipped == (0, len(ids) - 1)
        kept = [row for row in range(len(ids)) if row not in res.skipped]
        trees = [build_tree(make_frequency_set(c.offsets)) for c in dom.cells]
        vol = dom.lattice.volume
        want = np.concatenate([
            nested_values(
                trees[ids[row]].frequencies.vectors,
                shift_index_set(trees[ids[row]]),
                sh.delta,
                dat.values[row] / vol,
            )
            for row in kept
        ])
        assert np.allclose(res.values, want, rtol=0, atol=1e-14)
        assert np.allclose(res.values, y[kept].ravel(), rtol=0, atol=1e-12)
        want_pts = [
            dom.lattice.basis @ (pts[row] + off) for row in kept for off in dom.cells[ids[row]].offsets
        ]
        assert np.allclose(res.points, want_pts, rtol=0, atol=1e-14)
        assert list(res.source_rows) == [row for row in kept for _ in range(dom.k)]
        assert list(res.regions) == list(range(1, dom.k + 1)) * len(kept)


def test_ill_conditioned_block_warns_once_per_call():
    """make_shifts keeps no solve matrix for an ill-conditioned cell and
    does not warn; each reconstruct_grid call warns once."""
    dom = ALL["interval_2tile"]()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sh = make_shifts(dom, np.array([1e-9]))
    assert caught == [] and sh.systems[0].solve is None
    ids, pts = flatten_grid(sample_grid(dom, 50))
    y = np.ones((len(ids), dom.k), dtype=complex)
    dat = forward_data(dom, sh, ids, pts, y)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = reconstruct_grid(dom, sh, dat)
    assert [w.category for w in caught] == [IllConditionedWarning]
    assert np.all(np.isfinite(res.values))


def test_ill_conditioned_suffix_block_warns_once_per_block():
    """A 2D cell whose first parent's window has width 2 and whose
    suffix block (the first coordinate's nodes, 2 pi 1e-9 apart) is
    ill-conditioned: each reconstruct_grid call solves that block once
    for both window indices and warns once for it."""
    dom = domain_of([[1.0, 0.0], [0.0, 1.0]], [([[0, 1], [0, 1]], [[0, 0], [0, 1], [1, 0], [1, 1]])])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sh = make_shifts(dom, np.array([1e-9, 0.5]))
    ps = sh.systems[0]
    assert caught == [] and ps.solve is None
    ill = [lv for lv, lo, hi in ps.blocks if hi / lo > COND_LIMIT]
    assert [lv for lv, _, _ in ps.blocks] == [1, 2, 2] and ill == [1]
    ill_kappa = ps.blocks[0][2] / ps.blocks[0][1]
    ids, pts = flatten_grid(sample_grid(dom, 4))
    rng = np.random.default_rng(8)
    y = rng.normal(size=(len(ids), dom.k)) + 1j * rng.normal(size=(len(ids), dom.k))
    dat = forward_data(dom, sh, ids, pts, y)
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = reconstruct_grid(dom, sh, dat, oracle=True)
        assert [w.category for w in caught] == [IllConditionedWarning]
        assert str(caught[0].message) == (
            f"Vandermonde condition number {ill_kappa:.3e} exceeds 1e+08; "
            "the solved values may be inaccurate"
        )
        assert np.all(np.isfinite(res.values))


def test_singular_cell_refused_with_and_without_oracle():
    """interval_2tile at delta = 2e-13: sigma_min(V) = 6.3e-13 is below
    SINGULAR_TOL, while the nodes, 1.26e-12 apart, pass the
    duplicate-node check.  reconstruct_grid refuses the cell with
    SingularCell whether or not the oracle runs."""
    dom = ALL["interval_2tile"]()
    sh = make_shifts(dom, np.array([2e-13]))
    ps = sh.systems[0]
    assert ps.dual is None and ps.solve is None
    ids, pts = flatten_grid(sample_grid(dom, 4))
    rng = np.random.default_rng(9)
    y = rng.normal(size=(len(ids), dom.k)) + 1j * rng.normal(size=(len(ids), dom.k))
    dat = SpectralData(ids, pts, dom.lattice.volume * y @ ps.V.T, "exact-pointwise")
    for oracle in (False, True):
        with pytest.raises(SingularCell, match="cell 0 system is singular"):
            reconstruct_grid(dom, sh, dat, oracle=oracle)


def test_solve_matrix_error_within_10x_nested_up_to_cond_limit():
    """On 1D cells with kappa from 1e5 to COND_LIMIT, applying the
    compiled solve matrix loses at most 10x the accuracy of running the
    nested recursion on the same 200 data columns."""
    rng = np.random.default_rng(12)
    kappas = []
    for k in (2, 3, 5, 8, 12, 16):
        for offsets in (range(k), sorted(rng.choice(40, size=k, replace=False))):
            dom = domain_of([[1.0]], [([[0, 1]], [[int(z)] for z in offsets])])
            for delta in np.geomspace(1e-6, 0.1, 30):
                sh = make_shifts(dom, np.array([delta]))
                ps = sh.systems[0]
                if not 1e5 <= ps.kappa <= COND_LIMIT:
                    continue
                y = rng.normal(size=(k, 200)) + 1j * rng.normal(size=(k, 200))
                F = ps.V @ y
                nested = nested_values(ps.vectors, sh.index_sets[0], sh.delta, F)
                err_nested = np.linalg.norm(nested - y) / np.linalg.norm(y)
                err_product = np.linalg.norm(ps.solve @ F - y) / np.linalg.norm(y)
                assert err_product <= 10 * err_nested, (k, delta, ps.kappa)
                kappas.append(ps.kappa)
    assert min(kappas) < 1e6 and max(kappas) > 5e7


def test_oracle_residuals_match_per_row_dense():
    rng = np.random.default_rng(56)
    dom = _mixed_two_cell()
    sh = make_shifts(dom, find_pair(dom))
    ids, pts = flatten_grid(sample_grid(dom, 4))
    y = rng.normal(size=(len(ids), dom.k)) + 1j * rng.normal(size=(len(ids), dom.k))
    dat = forward_data(dom, sh, ids, pts, y)
    res = reconstruct_grid(dom, sh, dat, oracle=True)
    got = res.values.reshape(len(ids), dom.k)
    vol = dom.lattice.volume
    for row, ci in enumerate(ids):
        direct = reconstruct_direct(cell_system(dom, sh, ci).V, dat.values[row] / vol)
        want = np.linalg.norm(got[row] - direct) / np.linalg.norm(direct)
        assert res.residuals[row] == pytest.approx(want, rel=1e-6, abs=1e-15)
    assert np.max(res.residuals) <= 1e-12


def test_cube_d1_k64_round_trip():
    rng = np.random.default_rng(64)
    dom = domain_of([[1.0]], [([[0, 1]], [[i] for i in range(64)])])
    cert = find_pair(dom)
    assert cert.kind == "perfect"
    sh = make_shifts(dom, cert)
    ids, pts = flatten_grid(sample_grid(dom, 32))
    y = rng.normal(size=(len(ids), dom.k)) + 1j * rng.normal(size=(len(ids), dom.k))
    res = reconstruct_grid(dom, sh, forward_data(dom, sh, ids, pts, y), oracle=True)
    got = res.values.reshape(len(ids), dom.k)
    err = np.linalg.norm(got - y, axis=1) / np.linalg.norm(y, axis=1)
    assert np.max(err) <= 1e-10
    assert np.max(res.residuals) <= 1e-10


def test_block_diagnostics_present():
    dom, sh, _, _ = _setup("plane_4tile_2d")
    blocks = sh.systems[0].blocks
    assert {lv for lv, _, _ in blocks} == {1, 2}
    for _, lo, hi in blocks:
        assert hi / lo >= 1.0


def test_hot_path_imports_no_numpy_ma():
    """forward_data, reconstruct_grid, verify_biorthogonality and
    coefficient_data, on rows out of cell order, leave numpy.ma
    unimported (np.unique imports it, which costs every command line
    process 10-17 ms)."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import multitile as mt\n"
        "from builders import ALL\n"
        "dom = ALL['twocell_2tile_1d']()\n"
        "sh = mt.make_shifts(dom, mt.find_pair(dom))\n"
        "ids, pts = mt.flatten_grid(mt.sample_grid(dom, 3))\n"
        "perm = np.random.default_rng(0).permutation(len(ids))\n"
        "ids, pts = ids[perm], pts[perm]\n"
        "data = mt.forward_data(dom, sh, ids, pts, np.ones((len(ids), dom.k), complex))\n"
        "mt.reconstruct_grid(dom, sh, data, oracle=True)\n"
        "mt.verify_biorthogonality(dom, sh, radius=2)\n"
        "mt.coefficient_data(dom, sh, {((1,), 2): 1.0, ((0,), 2): 0.5}, ids, pts, 2)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_forward_data_rejects_bad_rows():
    dom, sh, ids, pts = _setup("twocell_2tile_1d", n=2)
    y = np.ones((len(ids), dom.k), dtype=complex)
    for bad in (-1, len(dom.cells)):
        with pytest.raises(SpecFormatError, match=f"data references unknown cell {bad}"):
            forward_data(dom, sh, np.full(len(ids), bad), pts, y)
    for bad_pts in (pts[:-1], pts[:, 0], np.hstack([pts, pts])):
        with pytest.raises(DimensionMismatch):
            forward_data(dom, sh, ids, bad_pts, y)


@given(st.data())
def test_round_trip_on_random_tilings(data):
    """Certified random tilings: forward data solves back exactly, the
    nested solve agrees with the dense oracle, and uniform shift sets
    give a biorthogonal dual.  Offsets span at most 6, so find_pair's
    default q_max of 8 always certifies them."""
    dom = data.draw(tilings())
    sh = make_shifts(dom, find_pair(dom))
    ids, pts = flatten_grid(sample_grid(dom, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    y = rng.normal(size=(len(ids), dom.k)) + 1j * rng.normal(size=(len(ids), dom.k))
    res = reconstruct_grid(dom, sh, forward_data(dom, sh, ids, pts, y), oracle=True)
    assert res.skipped == ()
    assert np.abs(res.values - y[res.source_rows, res.regions - 1]).max() <= 1e-12
    assert np.max(res.residuals) <= 1e-12
    if sh.uniform:
        assert verify_biorthogonality(dom, sh, radius=1) <= 1e-10


@given(st.data())
def test_index_fields_match_eager_formulas(data):
    """points, source_rows and regions, computed on first access, equal
    the formulas reconstruct_grid once applied to the kept rows exactly,
    and a second access returns the same array.  Some rows are moved to
    random points, so they leave their cell's box or [0,1)^d, and rows
    may come out of cell order."""
    dom = data.draw(tilings())
    d, k = dom.dimension, dom.k
    ids, pts = flatten_grid(sample_grid(dom, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    moved = rng.random(len(ids)) < 0.3
    pts[moved] = rng.uniform(-0.5, 1.5, size=(moved.sum(), d))
    if data.draw(st.booleans()):
        perm = rng.permutation(len(ids))
        ids, pts = ids[perm], pts[perm]
    y = rng.normal(size=(len(ids), k)) + 1j * rng.normal(size=(len(ids), k))
    sh = make_shifts(dom, find_pair(dom))
    res = reconstruct_grid(dom, sh, forward_data(dom, sh, ids, pts, y), oracle=data.draw(st.booleans()))
    kept = np.setdiff1d(np.arange(len(ids)), res.skipped)
    assert np.array_equal(res.kept_rows, kept)
    eager = (
        _offset_images(dom, ids[kept], pts[kept] @ dom.lattice.basis.T),
        np.repeat(kept, k),
        np.tile(np.arange(1, k + 1), len(kept)),
    )
    for name, want in zip(("points", "source_rows", "regions"), eager):
        got = getattr(res, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert getattr(res, name) is got, name
    assert np.abs(res.values - y[res.source_rows, res.regions - 1]).max(initial=0.0) <= 1e-12


def _by_source_row(res, rows, k):
    """A result's per-row blocks keyed by original row: rows maps the
    data row indices the result saw to the original ones."""
    src = rows[res.source_rows.reshape(-1, k)[:, 0]]
    order = np.argsort(src)
    return (
        src[order],
        res.values.reshape(-1, k)[order],
        res.points.reshape(len(src), -1)[order],
        res.regions.reshape(-1, k)[order],
    )


def _ill_conditioned(dom):
    """Shifts at the largest spacing from 1e-2 down to 1e-9 at which some
    cell keeps no solve matrix and none is singular; None if there is
    no such spacing (always so for k = 1)."""
    for spacing in np.geomspace(1e-2, 1e-9, 15):
        sh = make_shifts(dom, np.full(dom.dimension, spacing))
        if any(ps.dual is None for ps in sh.systems):
            return None
        if any(ps.solve is None for ps in sh.systems):
            return sh
    return None


@given(st.data())
def test_row_order_does_not_matter(data):
    """Rows in any order reconstruct like rows grouped by cell.  Grouped
    rows take the view path and shuffled rows the gather path, on
    sheared or scaled lattices, with one wrong-cell row, one row outside
    the domain, and shift sets whose cells keep no solve matrix."""
    dom = data.draw(tilings())
    d, k = dom.dimension, dom.k
    assume(len(dom.cells) > 1 and not np.array_equal(dom.lattice.basis, np.eye(d)))
    ids, pts = flatten_grid(sample_grid(dom, 2))
    wrong = int(np.flatnonzero(ids == 1)[0])
    ids = np.append(ids, ids[-1])
    ids[wrong] = 0  # claims the cell before it, so rows stay grouped
    pts = np.vstack([pts, np.full(d, 1.5)])  # outside the domain
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    perm = rng.permutation(len(ids))
    y = rng.normal(size=(len(ids), k)) + 1j * rng.normal(size=(len(ids), k))
    certified = make_shifts(dom, find_pair(dom))
    for sh in (certified, _ill_conditioned(dom)):
        if sh is None:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            fwd = forward_data(dom, sh, ids, pts, y)
            fwd_p = forward_data(dom, sh, ids[perm], pts[perm], y[perm])
            assert np.abs(fwd_p.values - fwd.values[perm]).max() <= 1e-13 * np.abs(fwd.values).max()
            for oracle in (False, True):
                res = reconstruct_grid(dom, sh, fwd, oracle=oracle)
                res_p = reconstruct_grid(dom, sh, fwd_p, oracle=oracle)
                assert res.skipped == (wrong, len(ids) - 1)
                assert sorted(perm[list(res_p.skipped)]) == list(res.skipped)
                np.testing.assert_allclose(res_p.residuals, res.residuals[perm], rtol=1e-13, atol=1e-13)
                a = _by_source_row(res, np.arange(len(ids)), k)
                b = _by_source_row(res_p, perm, k)
                assert np.array_equal(a[0], b[0]) and np.array_equal(a[3], b[3])
                scale = max(1.0, np.abs(a[1]).max())
                assert np.abs(a[1] - b[1]).max() <= 1e-13 * scale
                assert np.abs(a[2] - b[2]).max() <= 1e-13 * max(1.0, np.abs(a[2]).max())
                if sh is certified:
                    for r in (res, res_p):
                        rows = np.arange(len(ids)) if r is res else perm
                        want = y[rows][r.source_rows, r.regions - 1]
                        assert np.abs(r.values - want).max() <= 1e-12
