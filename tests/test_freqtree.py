import numpy as np
import pytest
from hypothesis import given

from multitile import (
    DuplicateOffset,
    SpecFormatError,
    build_tree,
    make_frequency_set,
    shift_index_set,
)

from builders import random_offsets, tilings
from oracles import shift_indices_reference

# the ten 4-vectors of the worked k=10 construction
M4 = np.array(
    [
        (1, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1, 1), (4, 1, 1, 1),
        (2, 2, 1, 1), (3, 2, 1, 1), (4, 2, 1, 1),
        (2, 2, 1, 2), (3, 2, 2, 1), (4, 3, 1, 1),
    ],
    dtype=float,
)


def test_worked_example_level_sizes():
    tree = build_tree(make_frequency_set(M4))
    assert tree.level_sizes == (4, 8, 9, 10)


def test_worked_example_level2_child_counts():
    tree = build_tree(make_frequency_set(M4))
    lv = tree.levels[1]
    counts = [len(ch) for ch in lv.children]
    # parents come out ordered by ascending child count, and each
    # window's upper edge equals that parent's count
    assert sorted(counts) == counts == [1, 2, 2, 3]
    assert [hi for _, hi in lv.windows] == counts


def test_worked_example_matches_reference_port():
    got = set(shift_index_set(build_tree(make_frequency_set(M4))))
    want = set(shift_indices_reference(M4))
    assert got == want
    assert len(got) == 10


def test_windows_are_nested():
    """Union of the first p windows is an initial segment of indices."""
    tree = build_tree(make_frequency_set(M4))
    for lv in tree.levels:
        taken = []
        for lo, hi in lv.windows:
            taken.extend(range(lo, hi))
            assert taken == list(range(len(taken)))


def test_counting_law_random_sets():
    rng = np.random.default_rng(23)
    for _ in range(40):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 13))
        vecs = random_offsets(rng, d, k)
        fs = make_frequency_set(vecs)
        tree = build_tree(fs)
        K = shift_index_set(tree)
        assert len(K) == len(set(K)) == k
        # level sizes count the distinct prefixes directly
        for l, size in enumerate(tree.level_sizes, start=1):
            prefixes = {tuple(v[:l]) for v in fs.vectors}
            assert size == len(prefixes)


def test_reference_port_parity_random_sets():
    rng = np.random.default_rng(29)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 11))
        vecs = random_offsets(rng, d, k)
        got = set(shift_index_set(build_tree(make_frequency_set(vecs))))
        want = set(shift_indices_reference(vecs))
        assert got == want


@given(tilings())
def test_reference_port_parity_random_tilings(dom):
    for c in dom.cells:
        got = set(shift_index_set(build_tree(make_frequency_set(c.offsets))))
        assert got == set(shift_indices_reference(c.offsets))


def test_two_column_pair():
    vecs = np.array([[0.0, 0.0], [1.0, 0.0]])
    K = shift_index_set(build_tree(make_frequency_set(vecs)))
    assert set(K) == {(0, 0), (1, 0)}


def test_grouping_tolerance():
    # there is none: a coordinate off a whole number is refused, equal
    # whole-number floats are one vector, and floats become int tuples
    with pytest.raises(SpecFormatError, match="must be integers"):
        make_frequency_set(np.array([[0.0], [1.0 + 2e-10]]))
    with pytest.raises(DuplicateOffset):
        make_frequency_set(np.array([[1.0], [1.0]]))
    fs = make_frequency_set(np.array([[2.0, -3.0], [0.0, 2.0**62]]))
    assert fs.vectors == ((2, -3), (0, 2**62))
    assert all(type(x) is int for v in fs.vectors for x in v)


def test_single_vector():
    tree = build_tree(make_frequency_set(np.array([[3.0, -2.0]])))
    assert shift_index_set(tree) == ((0, 0),)
