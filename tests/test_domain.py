import numpy as np
import pytest
from hypothesis import given, strategies as st

from multitile import (
    Cell,
    DuplicateOffset,
    InconsistentK,
    MultiTileDomain,
    NotATiling,
    OutOfDomain,
    PointOnGap,
    SpecFormatError,
    cell_index_at,
    make_cell,
    make_domain,
    make_lattice,
    omega,
    omega_inverse,
    sample_grid,
)
from multitile.domain import _offset_images, validate_cells

from builders import ALL, domain_of, random_offsets, tilings
from oracles import tiling_count


def test_make_cell_sorts_offsets():
    c = make_cell([[0, 1]], [[3], [0], [1]])
    assert c.offsets.tolist() == [[0], [1], [3]]


def test_make_cell_rejects_duplicates():
    with pytest.raises(DuplicateOffset):
        make_cell([[0, 1], [0, 1]], [[0, 0], [0, 0]])


def test_make_cell_rejects_noninteger_offsets():
    with pytest.raises(Exception):
        make_cell([[0, 1]], [[0.5]])


def test_make_cell_rejects_bad_boxes():
    with pytest.raises(Exception):
        make_cell([[0.0, 1.5]], [[0]])  # pokes out of the unit cube
    with pytest.raises(Exception):
        make_cell([[0.3, 0.3]], [[0]])  # empty side


@pytest.mark.parametrize(
    "box,offsets,message",
    [
        ([[0.0, np.nan]], [[0]], "box must be finite"),
        ([[0.0, np.inf]], [[0]], "box must be finite"),
        ([[0, 1]], [[0], [np.nan]], "64-bit integer range"),
        ([[0, 1]], [[0], [1e30]], "64-bit integer range"),
        ([[0, 1]], [[0], [2.0**63]], "64-bit integer range"),
    ],
)
def test_make_cell_rejects_non_finite_and_huge(box, offsets, message):
    with pytest.raises(SpecFormatError, match=message):
        make_cell(box, offsets)


def test_make_cell_keeps_int64_extremes():
    c = make_cell([[0, 1]], [[-(2.0**63)], [2.0**63 - 1024]])
    assert c.offsets.tolist() == [[-(2**63)], [2**63 - 1024]]


def test_validate_inconsistent_k():
    lat = make_lattice([[1.0]])
    cells = [make_cell([[0.0, 0.5]], [[0], [1]]), make_cell([[0.5, 1.0]], [[0]])]
    with pytest.raises(InconsistentK):
        make_domain(lat, cells)


def test_validate_not_a_tiling():
    lat = make_lattice([[1.0]])
    with pytest.raises(NotATiling):
        make_domain(lat, [make_cell([[0.0, 0.5]], [[0], [1]])])
    # overlapping boxes
    cells = [
        make_cell([[0.0, 0.6]], [[0], [1]]),
        make_cell([[0.4, 0.8]], [[0], [1]]),
    ]
    with pytest.raises(NotATiling):
        make_domain(lat, cells)


def test_validate_names_first_overlapping_pair():
    """Of several overlapping pairs of boxes the first (i, j) in
    lexicographic order is named, as a loop over all pairs finds it."""
    lat = make_lattice([[1.0]])
    # (0, 3) and (1, 2) overlap; a scan by j first would name (1, 2)
    boxes = [[0.0, 0.3], [0.5, 0.7], [0.6, 0.8], [0.2, 0.4], [0.9, 1.0]]
    with pytest.raises(NotATiling, match=r"^cell boxes 0 and 3 overlap$"):
        make_domain(lat, [make_cell([b], [[0]]) for b in boxes])
    lat = make_lattice(np.eye(2).tolist())
    rng = np.random.default_rng(4)
    for _ in range(20):
        # six boxes of total area 1, in the lower or upper half of the square
        widths = 2 * rng.dirichlet(np.full(6, 20.0))
        boxes = [
            [[x, x + w], [y, y + 0.5]]
            for x, w, y in zip(rng.uniform(0, 1 - widths), widths, rng.integers(0, 2, 6) / 2)
        ]
        overlap = [
            (i, j) for i in range(6) for j in range(i + 1, 6)
            if all(min(a[1], b[1]) - max(a[0], b[0]) > 1e-9 for a, b in zip(boxes[i], boxes[j]))
        ]
        assert overlap
        with pytest.raises(NotATiling, match=r"^cell boxes %d and %d overlap$" % overlap[0]):
            make_domain(lat, [make_cell(b, [[0, 0]]) for b in boxes])


@pytest.mark.parametrize("name", sorted(ALL))
def test_fixtures_cover_k_times(name):
    """Brute-force covering count at random points equals k."""
    dom = ALL[name]()
    rng = np.random.default_rng(11)
    M = dom.lattice.basis
    cells = [(c.box, c.offsets) for c in dom.cells]
    for _ in range(25):
        u = rng.uniform(0.02, 0.98, size=dom.dimension)
        x = M @ u
        assert tiling_count(M, cells, x) == dom.k
    assert validate_cells(dom.cells) == dom.k


@given(tilings(), st.data())
def test_random_tilings_cover_k_times(dom, data):
    """Brute-force covering count at a drawn point of a random tiling
    equals k.  Offsets lie in [-3, 3] and boxes in the unit cube, so
    translates within radius 4 reach every piece over [0, 1)^d."""
    u = np.array(data.draw(st.tuples(*[st.floats(0.01, 0.99)] * dom.dimension)))
    cells = [(c.box, c.offsets) for c in dom.cells]
    assert tiling_count(dom.lattice.basis, cells, dom.lattice.basis @ u, radius=4) == dom.k


def test_measure():
    dom = ALL["box_pair_2d"]()
    assert dom.measure == pytest.approx(2 * abs(np.linalg.det(dom.lattice.basis)))


def test_cell_index_at_half_open():
    dom = ALL["twocell_2tile_1d"]()
    assert cell_index_at(dom, np.array([0.0])) == 0
    assert cell_index_at(dom, np.array([0.5])) == 1  # boundary owned by the right cell
    assert cell_index_at(dom, np.array([0.499999])) == 0
    with pytest.raises(OutOfDomain):
        cell_index_at(dom, np.array([1.2]))


def test_point_on_gap():
    # hand-built domain with a gap, skipping make_domain validation
    lat = make_lattice([[1.0]])
    cell = make_cell([[0.0, 0.5]], [[0], [1]])
    dom = MultiTileDomain(lattice=lat, cells=(cell,), k=2, measure=1.0)
    with pytest.raises(PointOnGap):
        cell_index_at(dom, np.array([0.7]))


def test_omega_roundtrip():
    rng = np.random.default_rng(5)
    for name, build in sorted(ALL.items()):
        dom = build()
        for _ in range(20):
            u = rng.uniform(0.01, 0.99, size=dom.dimension)
            try:
                ci = cell_index_at(dom, u)
            except PointOnGap:
                continue
            for r in range(1, dom.k + 1):
                y = omega(dom, r, u)
                r2, u2 = omega_inverse(dom, y)
                assert r2 == r, name
                assert np.allclose(u2, u, atol=1e-9), name


def test_omega_inverse_rejects_outside():
    dom = ALL["split_2tile"]()
    with pytest.raises(OutOfDomain):
        omega_inverse(dom, np.array([1.5]))  # between the two pieces


def test_offsets_at():
    """The lattice points M·z_r above u, in region order, are omega's
    displacement of u."""
    dom = ALL["shear_2tile"]()
    u = np.array([0.25, 0.25])
    M = dom.lattice.basis
    assert np.allclose(omega(dom, 1, u) - M @ u, M @ [0, 0])
    assert np.allclose(omega(dom, 2, u) - M @ u, M @ [1, 1])


@given(tilings(), st.data())
def test_region_points_match_omega(dom, data):
    """The region points _offset_images builds from M u, on grouped and
    on shuffled rows, equal omega row by row, regions 1..k in order, on
    sheared and scaled lattices."""
    d, k = dom.dimension, dom.k
    ids = np.concatenate([np.full(4, ci) for ci in range(len(dom.cells))])
    pts = np.concatenate([
        c.box[:, 0] + np.array(data.draw(st.lists(
            st.lists(st.floats(0, 0.999), min_size=d, max_size=d), min_size=4, max_size=4
        ))) * (c.box[:, 1] - c.box[:, 0])
        for c in dom.cells
    ])
    offsets = np.concatenate([c.offsets for c in dom.cells])
    tol = 1e-14 * max(1.0, np.linalg.norm(dom.lattice.basis, 2) * (1 + np.abs(offsets).max()))
    perm = np.random.default_rng(data.draw(st.integers(0, 2**16))).permutation(len(ids))
    for rows in (np.arange(len(ids)), perm):
        got = _offset_images(dom, ids[rows], pts[rows] @ dom.lattice.basis.T)
        want = [omega(dom, r, u) for u in pts[rows] for r in range(1, k + 1)]
        assert got.shape == (len(rows) * k, d)
        assert np.abs(got - want).max() <= tol


def test_sample_grid_midpoints():
    dom = ALL["twocell_2tile_1d"]()
    grid = sample_grid(dom, 4)
    assert len(grid) == 2
    for ci, pts in grid:
        box = dom.cells[ci].box
        assert len(pts) == 4
        assert np.all(pts > box[:, 0]) and np.all(pts < box[:, 1])
        # midpoints of an even split never sit on cell boundaries
        assert cell_index_at(dom, pts[0]) == ci


def test_random_one_cell_domains_tile(seed=17):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        k = int(rng.integers(1, 5))
        offs = random_offsets(rng, d, k)
        dom = domain_of(np.eye(d).tolist(), [(([[0, 1]] * d), offs.tolist())])
        x = dom.lattice.basis @ rng.uniform(0.1, 0.9, size=d)
        assert tiling_count(dom.lattice.basis, [(dom.cells[0].box, dom.cells[0].offsets)], x, radius=8) == k
