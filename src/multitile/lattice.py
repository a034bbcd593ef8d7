"""Full-rank lattices M·Z^d, their duals, and coordinate reduction.

A lattice is described by a nonsingular basis matrix M whose columns
generate it.  The dual lattice is generated by M^{-T}; the fundamental
domain used everywhere else in the package is M·[0,1)^d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularBasis

# snap tolerance for fractional parts that land on the upper face
SNAP_TOL = 1e-12


@dataclass(frozen=True)
class Lattice:
    """Lattice M·Z^d with cached dual basis and cell volume."""

    basis: np.ndarray        # (d, d), columns generate the lattice
    dual_basis: np.ndarray   # M^{-T}, columns generate the dual lattice
    volume: float            # |det M|

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


def make_lattice(basis) -> Lattice:
    """Validate a basis matrix and build a :class:`Lattice`.

    Raises SingularBasis when |det M| falls below 1e-12 relative to the
    scale of M, and DimensionMismatch for non-square input.
    """
    M = np.array(basis, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"lattice basis must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise SingularBasis("lattice basis contains non-finite entries")
    d = M.shape[0]
    det = float(np.linalg.det(M))
    scale = max(1.0, float(np.linalg.norm(M)) ** d)
    if abs(det) < 1e-12 * scale:
        raise SingularBasis(f"lattice basis is singular (det={det:.3e})")
    dual = np.linalg.inv(M).T
    M.setflags(write=False)
    dual.setflags(write=False)
    return Lattice(basis=M, dual_basis=dual, volume=abs(det))


def reduce_point(lattice: Lattice, x) -> tuple[np.ndarray, np.ndarray]:
    """Split x = M(u + z) with u in [0,1)^d and integer z.

    Fractional parts within 1e-12 of 1 wrap to 0 with the integer part
    absorbing the carry, so points on the upper face of the fundamental
    domain reduce cleanly.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (lattice.dimension,):
        raise DimensionMismatch(
            f"point has shape {x.shape}, lattice dimension is {lattice.dimension}"
        )
    u, z = _reduce_rows(lattice, x[None, :])
    return u[0], z[0]


def _reduce_rows(lattice: Lattice, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """reduce_point for every row of an (N, d) array at once."""
    y = np.linalg.solve(lattice.basis, x.T).T
    z = np.floor(y)
    u = y - z
    carry = u >= 1.0 - SNAP_TOL
    u[carry] = 0.0
    z[carry] += 1.0
    return u, z.astype(int)
