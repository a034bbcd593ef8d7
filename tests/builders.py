"""Shared fixture domains for the test suite.

Each builder returns a fresh MultiTileDomain.  PERFECT lists the ones
that admit a perfect direction/modulus pair under find_pair's default
search bounds; the others only reach a strong pair.
"""

import numpy as np

from multitile import make_cell, make_domain, make_lattice


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


def random_offsets(rng, d, k, span=5):
    """k distinct integer offset vectors in [-span, span]^d."""
    while (2 * span + 1) ** d < 2 * k:  # keep the rejection loop fast
        span += 1
    seen = set()
    while len(seen) < k:
        seen.add(tuple(int(x) for x in rng.integers(-span, span + 1, size=d)))
    return np.array(sorted(seen))
