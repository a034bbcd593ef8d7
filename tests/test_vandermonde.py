import numpy as np
import pytest

from multitile import (
    DimensionMismatch,
    DuplicateNodes,
    IllConditionedWarning,
    block_conditions,
    block_norms,
    make_frequency_set,
    nested_solve,
    solve_vandermonde_1d,
)

from builders import random_offsets


def _vander(nodes):
    return np.vander(np.asarray(nodes, dtype=complex), increasing=True).T


def test_two_by_two():
    c = solve_vandermonde_1d(np.array([1.0, -1.0]), np.array([0.0, 2.0]))
    assert np.allclose(c, [1.0, -1.0])


def test_single_node():
    c = solve_vandermonde_1d(np.array([1.0 + 0j]), np.array([5.0]))
    assert np.allclose(c, [5.0])


def test_roots_of_unity_recovery():
    rng = np.random.default_rng(2)
    for k in range(2, 11):
        nodes = np.exp(-2j * np.pi * np.arange(k) / k)
        c = rng.normal(size=k) + 1j * rng.normal(size=k)
        rhs = _vander(nodes) @ c
        got = solve_vandermonde_1d(nodes, rhs)
        assert np.linalg.norm(got - c) <= 1e-12 * max(1.0, np.linalg.norm(c))


def test_roots_of_unity_match_dense_large_k():
    # natural node order loses all accuracy by k=64; Leja order must not
    rng = np.random.default_rng(3)
    for k in (16, 32, 48, 64):
        nodes = np.exp(-2j * np.pi * np.arange(k) / k)
        rhs = rng.normal(size=k) + 1j * rng.normal(size=k)
        got = solve_vandermonde_1d(nodes, rhs)
        want = np.linalg.solve(_vander(nodes), rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), k


def test_matrix_rhs_solves_each_column():
    rng = np.random.default_rng(5)
    nodes = np.exp(2j * np.pi * np.array([0.0, 0.3, 0.45, 0.8]))
    rhs = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    got = solve_vandermonde_1d(nodes, rhs)
    assert got.shape == (4, 6)
    for col in range(6):
        assert np.allclose(got[:, col], solve_vandermonde_1d(nodes, rhs[:, col]), rtol=0, atol=1e-14)
    with pytest.raises(DimensionMismatch):
        solve_vandermonde_1d(nodes, rhs[:3])


def test_random_unimodular_nodes_match_dense():
    rng = np.random.default_rng(4)
    for _ in range(100):
        k = int(rng.integers(2, 11))
        phases = np.sort(rng.uniform(0, 1, size=k))
        if np.min(np.diff(np.concatenate([phases, [phases[0] + 1]]))) < 0.02:
            continue  # keep nodes well separated
        nodes = np.exp(2j * np.pi * phases)
        rhs = rng.normal(size=k) + 1j * rng.normal(size=k)
        got = solve_vandermonde_1d(nodes, rhs)
        want = np.linalg.solve(_vander(nodes), rhs)
        assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(want))


def test_duplicate_nodes_rejected():
    with pytest.raises(DuplicateNodes):
        solve_vandermonde_1d(np.array([1.0, 1.0 + 5e-13]), np.array([1.0, 2.0]))


def test_ill_conditioned_warns_but_solves():
    nodes = np.exp(2j * np.pi * np.array([0.0, 1e-10, 0.5]))
    rhs = np.array([1.0, 2.0, 3.0], dtype=complex)
    with pytest.warns(IllConditionedWarning):
        got = solve_vandermonde_1d(nodes, rhs)
    assert np.all(np.isfinite(got))


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
            if all(_separated(nodes) for _, nodes in _blocks_of(vecs, cand)):
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


def _blocks_of(vecs, delta):
    from multitile.vandermonde import nested_blocks

    return nested_blocks(tuple(vecs), delta)


def _k_order(vecs):
    from multitile import build_tree, shift_index_set

    return shift_index_set(build_tree(make_frequency_set(np.array(vecs)))).indices


def _assemble(vecs, delta):
    js = _k_order(vecs)
    return np.array(
        [[np.exp(-2j * np.pi * np.dot(np.array(j) * np.array(delta), z))
          for z in vecs] for j in js]
    )


def _products(vecs, delta):
    lo = hi = 1.0
    for lo_l, hi_l in block_norms(vecs, delta):
        lo *= lo_l ** 2
        hi *= hi_l ** 2
    return lo, hi


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
    per_level = {}
    for lv, (lo_l, hi_l) in enumerate(block_norms(vecs, delta), start=1):
        per_level[lv] = hi_l / lo_l
    bound = np.prod(list(per_level.values()))
    assert kappa <= bound * (1 + 1e-9)
    # per-block conditions stay below the level aggregate
    for lv, kb in block_conditions(vecs, delta):
        assert kb <= per_level[lv] * (1 + 1e-12)


def test_one_level_blocks_are_exact():
    vecs = ((0.0,), (2.0,))
    delta = (0.25,)
    blocks = block_norms(vecs, delta)
    assert len(blocks) == 1
    V = np.array([[1, 1], [1, np.exp(-2j * np.pi * 0.5)]])
    sig = np.linalg.svd(V, compute_uv=False)
    assert blocks[0][0] == pytest.approx(sig[-1])
    assert blocks[0][1] == pytest.approx(sig[0])
