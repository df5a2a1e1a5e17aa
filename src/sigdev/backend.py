"""Triangular-grid solvers for the quadratic functional equation.

These O(n^3) recursions are the hot loops of the package, so they come in
two flavours: ``numba.njit``-compiled loops (the default) and a
numpy/BLAS path that fills each grid column with one mat-vec (left-point)
or one unit upper-triangular solve (right-point).  Set
``SIGDEV_DISABLE_NUMBA=1`` to force the numpy path; it is also used
automatically when numba is not importable.

Both backends fix their per-cell summation order, so each one is
deterministic on its own.  They agree to machine precision but are not
bitwise identical to each other (BLAS uses pairwise summation).

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

import os

import numpy as np
from scipy.linalg.blas import dtrsv

NUMBA_DISABLED = os.environ.get("SIGDEV_DISABLE_NUMBA", "").strip().lower() in {
    "1",
    "true",
    "yes",
    "on",
}

if NUMBA_DISABLED:
    _HAVE_NUMBA = False
else:
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:  # pragma: no cover
        _HAVE_NUMBA = False


def explicit_grid_numpy(gram: np.ndarray) -> np.ndarray:
    """Left-point grid via one BLAS mat-vec per column."""
    n = gram.shape[0]
    size = n + 1
    grid = np.eye(size)
    for b in range(1, size):
        weights = grid[1:b, b - 1] * gram[0 : b - 1, b - 1]
        grid[0:b, b] = grid[0:b, b - 1] - grid[0:b, 0 : b - 1] @ weights
    return grid


def implicit_grid_numpy(gram: np.ndarray) -> np.ndarray:
    """Right-point grid via one BLAS triangular solve per column."""
    n = gram.shape[0]
    size = n + 1
    grid = np.eye(size)
    system_buffer = np.empty(n * n)  # reused: a fresh b x b array per column costs page faults
    scale = np.zeros(n)  # scale[0] stays 0: K[0][b] has no k = 0 term
    for b in range(1, size):
        denom = 1.0 + gram[b - 1, b - 1]
        np.divide(gram[0 : b - 1, b - 1], denom, out=scale[1:b])
        system = system_buffer[: b * b].reshape(b, b)
        np.multiply(grid[0:b, 0:b], scale[:b], out=system)
        # dtrsv reads only the strict upper triangle (diag=1); system.T is the
        # Fortran-ordered view of it, solved transposed to avoid a copy.
        grid[0:b, b] = dtrsv(system.T, grid[0:b, b - 1] / denom, lower=1, trans=1, diag=1)
    return grid


if _HAVE_NUMBA:

    @njit(cache=True)
    def _explicit_loops(gram):  # pragma: no cover - exercised via wrapper
        n = gram.shape[0]
        size = n + 1
        grid = np.eye(size)
        for b in range(1, size):
            for a in range(b - 1, -1, -1):
                acc = 0.0
                for p in range(a, b - 1):
                    acc += grid[a, p] * grid[p + 1, b - 1] * gram[p, b - 1]
                grid[a, b] = grid[a, b - 1] - acc
        return grid

    @njit(cache=True)
    def _implicit_loops(gram):  # pragma: no cover - exercised via wrapper
        n = gram.shape[0]
        size = n + 1
        grid = np.eye(size)
        for b in range(1, size):
            denom = 1.0 + gram[b - 1, b - 1]
            for i in range(b - 1, -1, -1):
                acc = 0.0
                for k in range(i + 1, b):
                    acc += grid[i, k] * grid[k, b] * gram[k - 1, b - 1]
                grid[i, b] = (grid[i, b - 1] - acc) / denom
        return grid

    def explicit_grid_numba(gram: np.ndarray) -> np.ndarray:
        return _explicit_loops(np.ascontiguousarray(gram, dtype=np.float64))

    def implicit_grid_numba(gram: np.ndarray) -> np.ndarray:
        return _implicit_loops(np.ascontiguousarray(gram, dtype=np.float64))

else:
    explicit_grid_numba = None
    implicit_grid_numba = None


if _HAVE_NUMBA:
    BACKEND = "numba"
    explicit_grid = explicit_grid_numba
    implicit_grid = implicit_grid_numba
else:
    BACKEND = "numpy"
    explicit_grid = explicit_grid_numpy
    implicit_grid = implicit_grid_numpy
