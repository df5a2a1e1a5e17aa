"""Triangular-grid solvers for the quadratic functional equation.

These O(n^3) recursions are the hot loops of the package.  They run on
numpy/BLAS: each grid column is one mat-vec (left-point) or one unit
upper-triangular solve (right-point), in a fixed summation order, so the
output is deterministic bit for bit.

Grid conventions, with increments ``D[k] = g(t[k+1]) - g(t[k])`` and
``gram[p, q] = <D[p], D[q]>``:

* left-point scheme (solved column by column)::

      K[a][b] = K[a][b-1] - sum_{p=a..b-2} K[a][p] K[p+1][b-1] gram[p, b-1]

  The inner window starts at knot ``p+1`` (just past the first jump of the
  pair), which makes the solved grid contract exactly against the
  iterated-sums signature of the piecewise-constant path.

* right-point scheme (solved column by column, rows bottom-up)::

      K[i][b] = (K[i][b-1] - sum_{k=i+1..b-1} K[i][k] K[k][b] gram[k-1, b-1])
                / (1 + gram[b-1, b-1])

  Column b is the unit upper-triangular system (I + U) x = r with
  x[i] = K[i][b], r[i] = K[i][b-1] / (1 + gram[b-1, b-1]) and
  U[i][k] = K[i][k] gram[k-1, b-1] / (1 + gram[b-1, b-1]) for k > i.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only backend; named in the benchmark's environment record

# Right-point columns taller than this are solved by row blocks.  128 was
# fastest of 64-256 at n = 480 and 960 (256 was about 20 % slower there).
_SOLVE_BLOCK = 128


def explicit_grid(gram: np.ndarray) -> np.ndarray:
    """Left-point grid via one BLAS mat-vec per column."""
    n = gram.shape[0]
    size = n + 1
    grid = np.eye(size)
    for b in range(1, size):
        weights = grid[1:b, b - 1] * gram[0 : b - 1, b - 1]
        grid[0:b, b] = grid[0:b, b - 1] - grid[0:b, 0 : b - 1] @ weights
    return grid


def implicit_grid(gram: np.ndarray) -> np.ndarray:
    """Right-point grid via unit upper-triangular solves, one per column.

    A column of at most ``_SOLVE_BLOCK`` rows is one solve.  A taller column
    is solved by row blocks from the bottom up: each block first subtracts
    one mat-vec of the grid against the scaled entries already solved below
    it, then solves its diagonal block, so the scaled copy of the system
    never exceeds one block.
    """
    from scipy.linalg.blas import dtrsv  # imported here: most commands never need it

    n = gram.shape[0]
    size = n + 1
    grid = np.eye(size)
    block = min(n, _SOLVE_BLOCK)
    system_buffer = np.empty(block * block)  # reused: a fresh array per column costs page faults
    scale = np.zeros(n)  # scale[0] stays 0: K[0][b] has no k = 0 term
    for b in range(1, size):
        denom = 1.0 + gram[b - 1, b - 1]
        np.divide(gram[0 : b - 1, b - 1], denom, out=scale[1:b])
        # dtrsv reads only the strict upper triangle (diag=1); system.T is the
        # Fortran-ordered view of it, solved transposed to avoid a copy.
        if b <= block:  # kept out of the block loop: its bookkeeping costs ~5 % at n ~ 80
            system = system_buffer[: b * b].reshape(b, b)
            np.multiply(grid[0:b, 0:b], scale[:b], out=system)
            grid[0:b, b] = dtrsv(system.T, grid[0:b, b - 1] / denom, lower=1, trans=1, diag=1)
            continue
        rhs = grid[0:b, b - 1] / denom
        for hi in range(b, 0, -block):
            lo = max(hi - block, 0)
            if hi < b:
                rhs[lo:hi] -= grid[lo:hi, hi:b] @ (scale[hi:b] * grid[hi:b, b])
            system = system_buffer[: (hi - lo) ** 2].reshape(hi - lo, hi - lo)
            np.multiply(grid[lo:hi, lo:hi], scale[lo:hi], out=system)
            grid[lo:hi, b] = dtrsv(system.T, rhs[lo:hi], lower=1, trans=1, diag=1)
    return grid

