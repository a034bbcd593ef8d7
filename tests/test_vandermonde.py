import numpy as np
import pytest

from multitile import (
    DimensionMismatch,
    DuplicateNodes,
    IllConditionedWarning,
    SingularMatrix,
    block_conditions,
    build_tree,
    make_frequency_set,
    make_shifts,
    nested_solve,
    riesz_bounds,
    shift_index_set,
)
from multitile import vandermonde
from multitile.vandermonde import _level_norms

from builders import domain_of, random_offsets
from oracles import nested_blocks_reference
from test_freqtree import M4


def _vander(nodes):
    return np.vander(np.asarray(nodes, dtype=complex), increasing=True).T


def _solve(z, dl, rhs):
    """nested_solve in 1D: the Vandermonde system sum_t node_t^s c_t =
    rhs[s] on the nodes exp(-2 pi i dl z_t)."""
    vectors = tuple((float(t),) for t in z)
    solved = nested_solve(vectors, {(s,): r for s, r in enumerate(rhs)}, (dl,))
    return np.array([solved[v] for v in vectors])


def _nodes(z, dl):
    return np.exp(-2j * np.pi * dl * np.asarray(z, dtype=float))


def test_two_by_two():
    c = _solve([0.0, 0.5], 1.0, np.array([0.0, 2.0]))  # nodes 1 and -1
    assert np.allclose(c, [1.0, -1.0])


def test_single_node():
    c = _solve([0.0], 1.0, np.array([5.0]))
    assert np.allclose(c, [5.0])


def test_roots_of_unity_recovery():
    rng = np.random.default_rng(2)
    for k in range(2, 11):
        nodes = _nodes(np.arange(k), 1 / k)
        c = rng.normal(size=k) + 1j * rng.normal(size=k)
        rhs = _vander(nodes) @ c
        got = _solve(np.arange(k), 1 / k, rhs)
        assert np.linalg.norm(got - c) <= 1e-12 * max(1.0, np.linalg.norm(c))


def test_roots_of_unity_match_dense_large_k():
    # natural node order loses all accuracy by k=64; Leja order must not
    rng = np.random.default_rng(3)
    for k in (16, 32, 48, 64):
        rhs = rng.normal(size=k) + 1j * rng.normal(size=k)
        got = _solve(np.arange(k), 1 / k, rhs)
        want = np.linalg.solve(_vander(_nodes(np.arange(k), 1 / k)), rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), k


def test_matrix_rhs_solves_each_column():
    rng = np.random.default_rng(5)
    z = -np.array([0.0, 0.3, 0.45, 0.8])
    rhs = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    got = _solve(z, 1.0, rhs)
    assert got.shape == (4, 6)
    for col in range(6):
        assert np.allclose(got[:, col], _solve(z, 1.0, rhs[:, col]), rtol=0, atol=1e-14)
    with pytest.raises(DimensionMismatch):
        nested_solve(((0.0,), (1.0,)), {(0,): 1.0, (1,): 2.0}, (0.5, 0.5))


def test_random_unimodular_nodes_match_dense():
    rng = np.random.default_rng(4)
    for _ in range(100):
        k = int(rng.integers(2, 11))
        phases = np.sort(rng.uniform(0, 1, size=k))
        if np.min(np.diff(np.concatenate([phases, [phases[0] + 1]]))) < 0.02:
            continue  # keep nodes well separated
        rhs = rng.normal(size=k) + 1j * rng.normal(size=k)
        got = _solve(-phases, 1.0, rhs)
        want = np.linalg.solve(_vander(_nodes(-phases, 1.0)), rhs)
        assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(want))


def test_duplicate_nodes_rejected():
    # nodes 2 pi 1e-13 apart, closer than NODE_TOL
    with pytest.raises(DuplicateNodes):
        _solve([0.0, 1e-13], 1.0, np.array([1.0, 2.0]))


def test_singular_block_refused():
    # delta 2e-13: the nodes are 1.26e-12 apart, past NODE_TOL, but
    # sigma_min = 6.3e-13 is below SINGULAR_TOL
    with pytest.raises(SingularMatrix, match=r"level 1 .*sigma_min=6\.28\de-13"):
        nested_solve(((0.0,), (1.0,)), {(0,): 1.0, (1,): 2.0}, (2e-13,))


def test_ill_conditioned_warns_but_solves():
    with pytest.warns(IllConditionedWarning):
        got = _solve([0.0, -1e-10, -0.5], 1.0, np.array([1.0, 2.0, 3.0]))
    assert np.all(np.isfinite(got))


def test_ill_conditioned_blocks_within_10x_dense_lu():
    """Above COND_LIMIT the one 1D solver, Bjorck-Pereyra on Leja-ordered
    nodes, stays within 10x of np.linalg.solve's forward error on the
    same Vandermonde matrix, for seeded blocks with kappa up to 1e12."""
    rng = np.random.default_rng(13)
    kappas = []
    for k in (3, 4, 6, 8, 12):
        for _ in range(2):
            x_int = np.sort(rng.choice(40, size=k, replace=False))
            for dl in np.geomspace(1e-6, 0.1, 40):
                x = vandermonde._phases((dl,), None, [(1,)], x_int[:, None])[0]
                vander = vandermonde._vander_matrix(x)
                sig = np.linalg.svd(vander, compute_uv=False)
                if not vandermonde.COND_LIMIT < sig[0] / sig[-1] <= 1e12:
                    continue
                y = rng.normal(size=(k, 50)) + 1j * rng.normal(size=(k, 50))
                b = vander @ y
                got, _ = vandermonde._solve_1d(x, b.copy())
                err = np.linalg.norm(got - y) / np.linalg.norm(y)
                err_lu = np.linalg.norm(np.linalg.solve(vander, b) - y) / np.linalg.norm(y)
                assert err <= 10 * err_lu, (k, dl, sig[0] / sig[-1])
                kappas.append(sig[0] / sig[-1])
    assert len(kappas) >= 50 and min(kappas) < 1e9 and max(kappas) > 1e11


def test_nested_matches_dense_random():
    rng = np.random.default_rng(8)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 9))
        vecs = [tuple(map(float, v)) for v in random_offsets(rng, d, k)]
        # random rational shift with residues distinct at every level
        delta, tries = None, 0
        while delta is None and tries < 200:
            tries += 1
            q = rng.integers(2 * k, 6 * k + 1)
            cand = tuple(float(rng.integers(1, q)) / q for _ in range(d))
            if all(_separated(nodes) for _, nodes in nested_blocks_reference(tuple(vecs), cand)):
                delta = cand
        if delta is None:
            continue
        js = _k_order(vecs)
        V = np.array(
            [[np.exp(-2j * np.pi * np.dot(np.array(j) * delta, z)) for z in vecs]
             for j in js]
        )
        c = rng.normal(size=k) + 1j * rng.normal(size=k)
        F = V @ c
        data = {j: F[i] for i, j in enumerate(js)}
        solved = nested_solve(tuple(vecs), data, delta)
        got = np.array([solved[v] for v in vecs])
        assert np.linalg.norm(got - c) <= 1e-9 * max(1.0, np.linalg.norm(c))


def _separated(nodes, gap=1e-3):
    nodes = np.asarray(nodes)
    if len(nodes) < 2:
        return True
    diff = np.abs(nodes[:, None] - nodes[None, :])
    return diff[~np.eye(len(nodes), dtype=bool)].min() > gap


def _k_order(vecs):
    from multitile import build_tree, shift_index_set

    return shift_index_set(build_tree(make_frequency_set(np.array(vecs))))


def _assemble(vecs, delta):
    js = _k_order(vecs)
    return np.array(
        [[np.exp(-2j * np.pi * np.dot(np.array(j) * np.array(delta), z))
          for z in vecs] for j in js]
    )


def _system(vecs, delta):
    """make_shifts on the one-cell unit-box domain with offsets vecs."""
    d = len(delta)
    dom = domain_of(np.eye(d).tolist(), [([[0, 1]] * d, [list(map(int, v)) for v in vecs])])
    return dom, make_shifts(dom, np.array(delta))


def _products(vecs, delta):
    """riesz_bounds' factored lower and upper products of one cell."""
    dom, sh = _system(vecs, delta)
    bounds = riesz_bounds(dom, sh).cells[0]
    return bounds.factored_lower, bounds.factored_upper


def test_block_upper_bound_random_sets():
    """The product of per-level largest block norms dominates sigma_max."""
    rng = np.random.default_rng(31)
    for _ in range(60):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(2, 7))
        vecs = tuple(tuple(map(float, v)) for v in random_offsets(rng, d, k, span=3))
        q = int(rng.integers(2, 13))
        delta = tuple(float(rng.integers(1, q)) / q for _ in range(d))
        sig = np.linalg.svd(_assemble(vecs, delta), compute_uv=False)
        if sig[-1] < 1e-10:
            continue
        _, hi = _products(vecs, delta)
        assert sig[0] ** 2 <= hi * (1 + 1e-9)


def test_block_sandwich_uniform_trees():
    """Both product bounds hold when parents share child counts."""
    cases = [
        (((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), (1.0 / 3.0, 1.0)),
        (((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)), (0.5, 0.5)),
        (((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)), (1.0 / 3.0, 1.0 / 5.0)),
        (((0.0,), (2.0,), (5.0,)), (1.0 / 7.0,)),
    ]
    for vecs, delta in cases:
        sig = np.linalg.svd(_assemble(vecs, delta), compute_uv=False)
        lo, hi = _products(vecs, delta)
        assert lo <= sig[-1] ** 2 * (1 + 1e-9), (vecs, delta)
        assert sig[0] ** 2 <= hi * (1 + 1e-9), (vecs, delta)


def test_block_lower_bound_fails_off_uniform_trees():
    # known limitation: with unequal child counts the recursion's
    # correction step can push sigma_min below the naive block product
    vecs = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
    delta = (1.0 / 3.0, 1.0 / 2.0)
    sig = np.linalg.svd(_assemble(vecs, delta), compute_uv=False)
    lo, hi = _products(vecs, delta)
    assert sig[0] ** 2 <= hi * (1 + 1e-9)  # upper side still holds
    assert lo > sig[-1] ** 2  # lower side genuinely does not


def test_block_conditions_bound_kappa_uniform():
    vecs = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    delta = (1.0 / 3.0, 1.0 / 5.0)
    kappa = np.linalg.cond(_assemble(vecs, delta))
    _, sh = _system(vecs, delta)
    per_level = {}
    for lv, (lo_l, hi_l) in enumerate(_level_norms(sh.systems[0].blocks, 2), start=1):
        per_level[lv] = hi_l / lo_l
    bound = np.prod(list(per_level.values()))
    assert kappa <= bound * (1 + 1e-9)
    # per-block conditions stay below the level aggregate
    for lv, kb in block_conditions(vecs, delta):
        assert kb <= per_level[lv] * (1 + 1e-12)


def test_one_level_blocks_are_exact():
    vecs = ((0.0,), (2.0,))
    delta = (0.25,)
    _, sh = _system(vecs, delta)
    blocks = _level_norms(sh.systems[0].blocks, 1)
    assert len(blocks) == 1
    V = np.array([[1, 1], [1, np.exp(-2j * np.pi * 0.5)]])
    sig = np.linalg.svd(V, compute_uv=False)
    assert blocks[0][0] == pytest.approx(sig[-1])
    assert blocks[0][1] == pytest.approx(sig[0])


def _walk_cases():
    """(vectors, delta) pairs whose recursion has windows of width >= 2
    below the top level and parents with unequal child counts."""
    cube = tuple(tuple(map(float, v)) for v in np.ndindex(3, 3, 3))
    uneven = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0), (2.0, 2.0))
    ten = tuple(tuple(map(float, v)) for v in M4)
    return [(cube, (1 / 3, 1 / 3, 1 / 3)), (uneven, (0.2, 0.3)), (ten, (0.15, 0.25, 0.35, 0.45))]


def _data(vecs, rng, cols=None):
    order = shift_index_set(build_tree(make_frequency_set(np.array(vecs))))
    size = len(order) if cols is None else (len(order), cols)
    F = rng.normal(size=size) + 1j * rng.normal(size=size)
    return order, F


def test_one_1d_solve_per_block(monkeypatch):
    """A walk calls _solve_1d once per block it records: one suffix
    solve per parent window, whatever the window's width."""
    calls = []
    solve_1d = vandermonde._solve_1d
    monkeypatch.setattr(vandermonde, "_solve_1d", lambda x, b: calls.append(x.size) or solve_1d(x, b))
    rng = np.random.default_rng(6)
    for vecs, delta in _walk_cases():
        blocks = nested_blocks_reference(vecs, delta)
        order, F = _data(vecs, rng, cols=3)
        calls.clear()
        nested_solve(vecs, {j: F[i] for i, j in enumerate(order)}, delta)
        assert calls == [len(nodes) for _, nodes in blocks]
        calls.clear()
        block_conditions(vecs, delta)
        assert len(calls) == len(blocks)
    dom, sh = _system(_walk_cases()[0][0], (1 / 3, 1 / 3, 1 / 3))
    calls.clear()
    make_shifts(dom, sh.delta)
    assert len(calls) == len(sh.systems[0].blocks) == len(nested_blocks_reference(sh.systems[0].vectors, sh.delta))


def test_scalar_data_is_the_one_column_form():
    """Scalar data solves bit for bit as the (1,) column of each value."""
    rng = np.random.default_rng(7)
    for vecs, delta in _walk_cases():
        order, F = _data(vecs, rng)
        scalar = nested_solve(vecs, {j: F[i] for i, j in enumerate(order)}, delta)
        column = nested_solve(vecs, {j: F[i : i + 1] for i, j in enumerate(order)}, delta)
        assert all(np.ndim(scalar[v]) == 0 and column[v].shape == (1,) for v in vecs)
        got = np.array([scalar[v] for v in vecs])
        want = np.array([column[v][0] for v in vecs])
        assert got.tobytes() == want.tobytes()
