"""Triangular-grid solvers for the quadratic functional equation.

These O(n^3) recursions are the hot loops of the package.  They run on
numpy/BLAS: each grid column (left-point) or row (right-point) is one
BLAS product, in a fixed summation order, so the output is deterministic
bit for bit.

Grid conventions, with increments ``D[k] = g(t[k+1]) - g(t[k])`` and
``gram[p, q] = <D[p], D[q]>``:

* left-point scheme (solved column by column)::

      K[a][b] = K[a][b-1] - sum_{p=a..b-2} K[a][p] K[p+1][b-1] gram[p, b-1]

  The inner window starts at knot ``p+1`` (just past the first jump of the
  pair), which makes the solved grid contract exactly against the
  iterated-sums signature of the piecewise-constant path.

* right-point scheme, defined cell by cell as::

      K[i][b] = (K[i][b-1] - sum_{k=i+1..b-1} K[i][k] K[k][b] gram[k-1, b-1])
                / (1 + gram[b-1, b-1])

  and solved row by row, bottom-up::

      K[i][b] = (K[i+1][b] - sum_{r=i+1..b-1} K[i+1][r+1] gram[i, r] K[r][b])
                / (1 + gram[i, i])

  The two forms give the same grid.  Fix a row i: its cell equations are a
  lower-triangular system T x = e in the unknowns x[b] = K[i][b], b > i,
  with T[b][k] = K[k][b] gram[k-1, b-1] for k < b, -1 added on the
  subdiagonal and 1 + gram[b-1, b-1] on the diagonal.  T does not depend
  on i, so row i is column i+1 of the inverse of T, and row r of the grid
  is column r+1 of that inverse.  The block inverse of a lower-triangular
  matrix writes its leading column as one product of the trailing part of
  the inverse (the rows r > i, already solved) with the leading column of
  T, which is the row form above.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only backend; named in the benchmark's environment record


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
    """Right-point grid via one BLAS vector-matrix product per row."""
    n = gram.shape[0]
    size = n + 1
    # The diagonal stays 0 until the end, so each product sees only r < b;
    # the row's first entry gets the K[i+1][i+1] = 1 it leaves out.
    grid = np.zeros((size, size))
    for i in range(n - 1, -1, -1):
        weights = grid[i + 1, i + 2 :] * gram[i, i + 1 :]
        row = grid[i + 1, i + 1 :] - weights @ grid[i + 1 : n, i + 1 :]
        row[0] += 1.0
        grid[i, i + 1 :] = row / (1.0 + gram[i, i])
    np.fill_diagonal(grid, 1.0)
    return grid
