"""Seeded benchmark inputs: domain JSON files and region values.

Every generated domain is written as domain JSON into the run
directory, so the library (through load_domain) and the command line
tool read the very same file.  Shipped fixtures are read from the
repository's domains/ directory unchanged.

Two generators:

- cube domains: one cell, the unit box, offsets {0..side-1}^d.  Their
  certificate is perfect, so every block of the nested solve has the
  q-th roots of unity as nodes (a scaled DFT).  The structure is fixed
  by the name; the seed only drives the region values.
- two-cell random-offset domains in d=2 with k=8: the unit square split
  at x=1/2, each half with its own eight random integer offsets.  A
  draw is repeated until find_pair certifies it (and, where the caller
  needs one shared shift index set, until both cells agree on it); the
  number of draws is recorded.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

import multitile as mt

CUBES = {
    "cube_d2_k16": (2, 4),
    "cube_d3_k27": (3, 3),
    "cube_d2_k64": (2, 8),
    "cube_d1_k64": (1, 64),
}

RANDOM_SPAN = 8          # random offsets are drawn from {0..RANDOM_SPAN-1}^2
MAX_DRAWS = 10_000


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Independent stream per (seed, purpose) so inputs do not shift
    when another input's generator changes."""
    return np.random.default_rng([seed, *tags])


def cube_obj(name: str) -> dict:
    d, side = CUBES[name]
    offsets = [list(p) for p in itertools.product(range(side), repeat=d)]
    return {
        "cells": [{"box": [[0, 1]] * d, "offsets": offsets}],
        "dimension": d,
        "lattice_basis": np.eye(d, dtype=int).tolist(),
    }


def _two_cell_obj(cells: list[list[list[int]]]) -> dict:
    return {
        "cells": [
            {"box": [[0, 0.5], [0, 1]], "offsets": cells[0]},
            {"box": [[0.5, 1], [0, 1]], "offsets": cells[1]},
        ],
        "dimension": 2,
        "lattice_basis": [[1, 0], [0, 1]],
    }


def _draw_structured(rng: np.random.Generator) -> dict:
    """Per cell: three distinct first coordinates carrying 3, 3 and 2
    distinct second coordinates.  Child counts differ between parents,
    so no certificate can be perfect and no block is a DFT block, while
    the block structure (and so the solve cost) is the same for every
    seed."""
    cells = []
    for _ in range(2):
        xs = rng.choice(RANDOM_SPAN, size=3, replace=False)
        offs = []
        for x, count in zip(xs, (3, 3, 2)):
            offs += [[int(x), int(y)] for y in rng.choice(RANDOM_SPAN, size=count, replace=False)]
        cells.append(offs)
    return _two_cell_obj(cells)


def _draw_uniform(rng: np.random.Generator) -> dict:
    """Per cell: eight distinct offsets drawn uniformly from the square."""
    cells = []
    for _ in range(2):
        flat = rng.choice(RANDOM_SPAN * RANDOM_SPAN, size=8, replace=False)
        cells.append([[int(f // RANDOM_SPAN), int(f % RANDOM_SPAN)] for f in flat])
    return _two_cell_obj(cells)


def certified_random_obj(rng: np.random.Generator, kind: str) -> tuple[dict, int]:
    """Draw a two-cell d=2, k=8 domain until find_pair certifies it.

    kind "structured" uses the fixed-structure draw; kind "uniform"
    draws offsets uniformly and also requires one shared shift index
    set, which the basis-certification calls need.
    Returns the domain object and the number of draws it took.
    """
    draw = _draw_structured if kind == "structured" else _draw_uniform
    for draws in range(1, MAX_DRAWS + 1):
        obj = draw(rng)
        dom = mt.parse_domain(obj)
        try:
            cert = mt.find_pair(dom)
        except mt.NoPairFound:
            continue
        if kind == "uniform" and not mt.make_shifts(dom, cert).uniform:
            continue
        return obj, draws
    raise RuntimeError(f"no certified {kind} domain in {MAX_DRAWS} draws")


def write_domain(run_dir: Path, name: str, obj: dict) -> Path:
    path = run_dir / f"{name}.json"
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return path


def region_values(rng: np.random.Generator, rows: int, k: int) -> np.ndarray:
    """Complex standard-normal region values, shape (rows, k)."""
    return rng.normal(size=(rows, k)) + 1j * rng.normal(size=(rows, k))


def coefficient_terms(rng: np.random.Generator, d: int, k: int, terms: int, reach: int) -> dict:
    """`terms` distinct labels (n, s) with |n|_inf <= reach, complex
    standard-normal coefficients."""
    coeffs: dict = {}
    while len(coeffs) < terms:
        n = tuple(int(x) for x in rng.integers(-reach, reach + 1, size=d))
        s = int(rng.integers(1, k + 1))
        if (n, s) not in coeffs:
            coeffs[(n, s)] = complex(rng.normal(), rng.normal())
    return coeffs
