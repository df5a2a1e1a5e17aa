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

Many grids are solved together as one stack, one stacked ``np.matmul`` per
column or row for every pair of the batch.  A zero increment makes its
column (left-point) or row (right-point) an exact copy of the one before,
so a pair padded with zero increments up to the batch's largest n has the
same value: the padding goes at the end for left-point, where the pair
fills the leading block of its slot, and at the start for right-point,
where it fills the trailing block.  Those copies are never computed: the
pairs are sorted by n, largest first, so the pairs still being solved are
a prefix of the stack, and each step runs on that prefix only.  Every
pair's block is then made by the same BLAS calls, with the same shapes, as
its grid solved alone, so it is equal bit for bit.  ``explicit_grid`` and
``implicit_grid`` are the one-pair case.

A batch's grid stack holds at most ``_BATCH_CELLS`` = 2^16 float64 cells
(512 KiB), unless it holds a single pair; its Gram stack is no larger.
Both are carved from one workspace of twice that size, which every batch
that fits reuses.

A grid or Gram that is not finite (an increment too large to square)
raises ``NumericError``; numpy's overflow warnings are silenced, since
that check reports the failure.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import NumericError

BACKEND = "numpy"  # the only backend; named in the benchmark's environment record

_BATCH_CELLS = 2**16

_Item = TypeVar("_Item")


def _batched(items: Iterable[tuple[int, _Item]], cells: int = _BATCH_CELLS) -> Iterator[list[_Item]]:
    """Group ``(size, item)`` pairs, in order, into batches whose grid stack
    (count x largest size x largest size) holds at most ``cells`` cells.
    A grid larger than that gets a batch of its own."""
    batch: list[_Item] = []
    largest = 0
    for size, item in items:
        grown = max(largest, size)
        if batch and (len(batch) + 1) * grown * grown > cells:
            yield batch
            batch, grown = [], size
        batch.append(item)
        largest = grown
    if batch:
        yield batch


def _block(stack: np.ndarray, k: int, size: int, implicit: bool) -> np.ndarray:
    """Pair k's size x size block of a Gram or grid stack: leading for the
    left-point scheme, trailing for the right-point one."""
    start = stack.shape[-1] - size if implicit else 0
    return stack[k, start : start + size, start : start + size]


def _stacks(count: int, n: int, workspace: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed (count, n, n) Gram and (count, n+1, n+1) grid stacks, carved
    from ``workspace`` when they fit in it.  Batches that fit all reuse that
    memory, where fresh stacks of varying sizes would grow the heap."""
    cells = count * n * n
    total = cells + count * (n + 1) ** 2
    if total > workspace.size:
        workspace = np.empty(total)
    flat = workspace[:total]
    flat[:] = 0.0
    return flat[:cells].reshape(count, n, n), flat[cells:].reshape(count, n + 1, n + 1)


def _explicit_stack(grams: np.ndarray, sizes: Sequence[int], grids: np.ndarray) -> None:
    n = grams.shape[1]
    grids[:, range(n + 1), range(n + 1)] = 1.0
    active = len(sizes)
    for b in range(1, n + 1):
        while sizes[active - 1] < b:
            active -= 1
        grid = grids[:active]
        weights = grid[:, 1:b, b - 1 : b] * grams[:active, 0 : b - 1, b - 1 : b]
        grid[:, 0:b, b : b + 1] = grid[:, 0:b, b - 1 : b] - grid[:, 0:b, 0 : b - 1] @ weights


def _implicit_stack(grams: np.ndarray, sizes: Sequence[int], grids: np.ndarray) -> None:
    n = grams.shape[1]
    divisors = 1.0 + np.diagonal(grams, axis1=1, axis2=2)  # 1 + gram[i, i], every row at once
    # The diagonal stays 0 until the end, so each product sees only r < b;
    # the row's first entry gets the K[i+1][i+1] = 1 it leaves out.
    active = len(sizes)
    for i in range(n - 1, -1, -1):
        while sizes[active - 1] < n - i:
            active -= 1
        grid = grids[:active]
        weights = grid[:, i + 1 : i + 2, i + 2 :] * grams[:active, i : i + 1, i + 1 :]
        row = grid[:, i + 1 : i + 2, i + 1 :] - weights @ grid[:, i + 1 : n, i + 1 :]
        row[:, :, 0] += 1.0
        grid[:, i : i + 1, i + 1 :] = row / divisors[:active, i, None, None]
    grids[:, range(n + 1), range(n + 1)] = 1.0


def _grids(grams: np.ndarray, sizes: Sequence[int], implicit: bool, grids: np.ndarray) -> np.ndarray:
    """Solve the grids of a (count, n, n) stack of Grams into ``grids``, a
    zeroed (count, n+1, n+1) stack, and return it.  ``sizes`` holds each
    pair's n, largest first; pair k's Gram is ``_block(grams, k, sizes[k],
    implicit)`` and the rest of its slot is zero.  Its grid is the block of
    size sizes[k] + 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        (_implicit_stack if implicit else _explicit_stack)(grams, sizes, grids)
    if not (np.isfinite(grams).all() and np.isfinite(grids).all()):
        raise NumericError("the grid overflowed: an increment is too large")
    return grids


def explicit_grid(gram: np.ndarray) -> np.ndarray:
    """Left-point grid via one BLAS mat-vec per column."""
    size = gram.shape[0] + 1
    return _grids(gram[None], (size - 1,), False, np.zeros((1, size, size)))[0]


def implicit_grid(gram: np.ndarray) -> np.ndarray:
    """Right-point grid via one BLAS vector-matrix product per row."""
    size = gram.shape[0] + 1
    return _grids(gram[None], (size - 1,), True, np.zeros((1, size, size)))[0]
