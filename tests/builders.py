"""Shared fixture domains for the test suite.

Each builder returns a fresh MultiTileDomain.  PERFECT lists the ones
that admit a perfect direction/modulus pair under find_pair's default
search bounds; the others only reach a strong pair.  The Hypothesis
strategies tilings and large_offset_tilings draw random valid domains
for property tests.
run_cli runs the command line in process.
"""

import subprocess

import numpy as np
from click.testing import CliRunner
from hypothesis import strategies as st

from multitile import make_cell, make_domain, make_lattice, nested_solve
from multitile.cli import main


def run_cli(*args):
    """Run `multitile *args` in process through click's CliRunner; the
    CompletedProcess holds the exit code, stdout and stderr.  An
    exception that escapes the command is raised, not turned into
    exit code 1."""
    out = CliRunner().invoke(main, list(args))
    if out.exception is not None and not isinstance(out.exception, SystemExit):
        raise out.exception
    return subprocess.CompletedProcess(list(args), out.exit_code, out.stdout, out.stderr)


def domain_of(basis, cells):
    return make_domain(make_lattice(basis), [make_cell(b, o) for b, o in cells])


def interval_2tile():
    # covers [0,2): the unit box plus its translate by 1
    return domain_of([[1.0]], [([[0, 1]], [[0], [1]])])


def split_2tile():
    # covers [0,1) and [2,3): gcd of offsets is 2
    return domain_of([[1.0]], [([[0, 1]], [[0], [2]])])


def twocell_2tile_1d():
    return domain_of(
        [[1.0]],
        [([[0.0, 0.5]], [[0], [1]]), ([[0.5, 1.0]], [[0], [2]])],
    )


def box_pair_2d():
    return domain_of(
        [[2.0, 0.0], [0.0, 1.0]],
        [([[0, 1], [0, 1]], [[0, 0], [1, 0]])],
    )


def strip_3tile_2d():
    return domain_of(
        [[1.0, 0.0], [0.0, 1.0]],
        [([[0, 1], [0, 1]], [[0, 0], [1, 0], [2, 0]])],
    )


def plane_4tile_2d():
    return domain_of(
        [[1.0, 0.0], [0.0, 1.0]],
        [([[0, 1], [0, 1]], [[0, 0], [1, 0], [0, 1], [1, 1]])],
    )


def shear_2tile():
    return domain_of(
        [[1.0, 1.0], [0.0, 1.0]],
        [([[0, 1], [0, 1]], [[0, 0], [1, 1]])],
    )


def twocell_2tile_2d():
    # two cells, each 2-tiling along the first axis, with one shared
    # shift index set
    return domain_of(
        [[1.0, 0.0], [0.0, 1.0]],
        [
            ([[0.0, 1.0], [0.0, 0.5]], [[0, 0], [1, 0]]),
            ([[0.0, 1.0], [0.5, 1.0]], [[0, 0], [2, 0]]),
        ],
    )


def mixed_2tile_2d():
    # two cells whose shift index sets differ, so shifts are per cell only
    return domain_of(
        [[1.0, 0.0], [0.0, 1.0]],
        [
            ([[0.0, 1.0], [0.0, 0.5]], [[0, 0], [1, 0]]),
            ([[0.0, 1.0], [0.5, 1.0]], [[0, 0], [0, 1]]),
        ],
    )


ALL = {
    "interval_2tile": interval_2tile,
    "split_2tile": split_2tile,
    "twocell_2tile_1d": twocell_2tile_1d,
    "box_pair_2d": box_pair_2d,
    "strip_3tile_2d": strip_3tile_2d,
    "plane_4tile_2d": plane_4tile_2d,
    "shear_2tile": shear_2tile,
}

PERFECT = ("interval_2tile", "box_pair_2d", "strip_3tile_2d",
           "plane_4tile_2d", "shear_2tile")


def nested_values(vectors, order, delta, F):
    """nested_solve of data F whose rows (scalars or (N,) vectors)
    follow the shift index order `order`, as an array in vectors
    order."""
    solved = nested_solve(vectors, {j: F[i] for i, j in enumerate(order)}, delta)
    return np.array([solved[v] for v in vectors])


def random_offsets(rng, d, k, span=5):
    """k distinct integer offset vectors in [-span, span]^d."""
    while (2 * span + 1) ** d < 2 * k:  # keep the rejection loop fast
        span += 1
    seen = set()
    while len(seen) < k:
        seen.add(tuple(int(x) for x in rng.integers(-span, span + 1, size=d)))
    return np.array(sorted(seen))


def _basis_and_boxes(draw):
    """A sheared, scaled lattice basis in d = 1..3 and a guillotine
    partition of the unit cube into up to four boxes."""
    d = draw(st.integers(1, 3))
    shear = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            shear[i, j] = draw(st.integers(-2, 2))
    scale = [draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])) for _ in range(d)]
    boxes = [np.array([[0.0, 1.0]] * d)]
    for _ in range(draw(st.integers(0, 3))):
        box = boxes.pop(draw(st.integers(0, len(boxes) - 1)))
        ax = draw(st.integers(0, d - 1))
        cut = box[ax, 0] + draw(st.floats(0.2, 0.8)) * (box[ax, 1] - box[ax, 0])
        lo, hi = box.copy(), box.copy()
        lo[ax, 1] = hi[ax, 0] = cut
        boxes += [lo, hi]
    return shear * scale, boxes


@st.composite
def tilings(draw):
    """Random valid multi-tiling: a sheared, scaled lattice basis, a
    guillotine partition of the unit cube and k distinct offsets per
    cell."""
    basis, boxes = _basis_and_boxes(draw)
    d = len(basis)
    k = draw(st.integers(1, 4))
    offset = st.tuples(*[st.integers(-3, 3)] * d)
    cells = [
        (box, draw(st.lists(offset, min_size=k, max_size=k, unique=True)))
        for box in boxes
    ]
    return domain_of(basis.tolist(), cells)


@st.composite
def large_offset_tilings(draw):
    """A tiling as tilings() draws it, whose cells carry one set of up
    to four offsets, each cell's translated by its own lattice point,
    with entries up to 2^62: every cell has the same offset tree, so a
    certificate for one cell serves all, but its own residues mod q."""
    basis, boxes = _basis_and_boxes(draw)
    big = st.integers(-(2**61), 2**61)
    offsets = np.array(draw(st.lists(st.tuples(*[big] * len(basis)), min_size=1, max_size=4, unique=True)),
                       dtype=object)
    cells = [(box, (offsets + draw(st.tuples(*[big] * len(basis)))).tolist()) for box in boxes]
    return domain_of(basis.tolist(), cells)
