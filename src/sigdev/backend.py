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
column or row for every grid of the batch.  A zero increment makes its
column (left-point) or row (right-point) an exact copy of the one before,
so a grid padded with zero increments up to the batch's largest n has the
same value: the padding goes at the end for left-point, where the grid
fills the leading block of its slot, and at the start for right-point,
where it fills the trailing block.  Those copies are never computed: the
grids are sorted by n, largest first, so the grids still being solved are
a prefix of the stack, and each step runs on that prefix only.  Every
grid's block is then made by the same BLAS calls, with the same shapes, as
the grid solved alone, so it is equal bit for bit.  ``explicit_grid`` and
``implicit_grid`` are the one-grid case.

A batch's grid stack holds at most ``_BATCH_CELLS`` = 2^16 float64 cells
(512 KiB), unless it holds a single grid; its Gram stack is no larger.
Both are carved from one workspace of twice that size, which every batch
that fits reuses.

A Gram of path pairs splits each pair's grid (``_pair_values``).  The
increments of gamma * <-sigma are gamma's m jumps, then the s jumps of
<-sigma, n = m + s.  A cell K[a][b] depends only on the jumps a..b-1, so
the block of rows and columns 0..m is gamma's own grid and the block
m..n is <-sigma's own grid.  Each path's own grid is solved once per Gram
and side, in the batches above, and kept as a ``_Side``.  Per pair only
the rectangle of rows 0..m-1 and columns m+1..n is solved:

* left-point, column by column: column b of the rectangle is column b-1
  minus one mat-vec of shape m x (b-1), K[0..m-1][0..b-2] @ w with
  w[p] = K[p+1][b-1] gram[p, b-1].  The first m entries of w are the
  pair's (the cross Gram <D_gamma[p], D_sigma[q]> times the rectangle's
  column b-1, or sigma's K[0] for the row K[m]); the rest are sigma's own
  weights.  Pairs are batched by m, each in the leading block of its slot,
  sorted by s, largest first, so a step runs on the active prefix.
* right-point, row by row, bottom-up: row i of the rectangle is
  (row i+1 - w @ K[i+1..n-1][m+1..n]) / (1 + gram[i, i]), one
  vector-matrix product of shape (n-i-1) x s, with w[r] = K[i+1][r+1]
  gram[i, r]: gamma's own weights for r < m, the pair's for r >= m.  The
  matrix's rows r >= m are sigma's own grid, whose diagonal r = b stays 0
  during the solve, as the whole grid's does, so the sum runs over r < b
  only.  Pairs are batched by s, each in the trailing block of its slot
  (its bottom row on the slot's last), sorted by m, largest first.

In both schemes a pair's BLAS shapes depend only on its batch key, its own
sizes and the step, never on the rest of the batch, so every Gram entry
equals the pair solved alone (``k_sd`` runs ``_pair_values`` on its one
pair) bit for bit; zero padding inside a product would not keep that.  A
pair costs about s (left-point) or m (right-point) stacked steps and
m s (m + s/2) or m s (s + m/2) multiply-adds, where the whole grid takes
n steps and n^3/3 (44 % fewer at m = s).

Each stack of a rectangle batch holds at most ``_BATCH_CELLS`` cells
unless the batch holds a single pair, and a Gram's batches, own grids and
rectangles alike, share one workspace.  The kept sides hold about
(n+1)^2 cells per path that a rectangle reads; a path paired only with
paths of no jump, as in ``converge``, keeps only its corner K[0][n].
When one side's paths need more than ``_OWN_CELLS`` = 2^20 (8 MiB), they
are taken in chunks, and the column paths are solved again for each chunk
of row paths only when they do not fit at once.

A grid or Gram that is not finite (an increment too large to square)
raises ``NumericError``; numpy's overflow warnings are silenced, since
that check reports the failure.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import NumericError

BACKEND = "numpy"  # the only backend; named in the benchmark's environment record

_BATCH_CELLS = 2**16
_OWN_CELLS = 2**20

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


def _carve(workspace: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Zeroed arrays of the given shapes, carved in turn from ``workspace``
    when they all fit in it.  Batches that fit all reuse that memory, where
    fresh stacks of varying sizes would grow the heap."""
    ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
    if ends[-1] > workspace.size:
        workspace = np.empty(ends[-1])
    flat = workspace[: ends[-1]]
    flat[:] = 0.0
    return [flat[end - math.prod(shape) : end].reshape(shape) for shape, end in zip(shapes, ends)]


def _stacks(count: int, n: int, workspace: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed (count, n, n) Gram and (count, n+1, n+1) grid stacks, carved
    from ``workspace`` when they fit in it."""
    grams, grids = _carve(workspace, (count, n, n), (count, n + 1, n + 1))
    return grams, grids


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


def _inner(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """<left[p], right[q]> for every pair of rows, written into ``out`` when
    given.  Callers silence overflow: an entry that overflows is left to
    the finiteness checks of the solvers, which report it."""
    return np.matmul(left, right.T, out=out)


def _own_grids(grams: Sequence[np.ndarray], implicit: bool, workspace: np.ndarray) -> list[np.ndarray]:
    """The grid of each Gram, solved in batches of ``_batched``, largest
    first, a batch of one without copies; each equals its grid solved alone
    bit for bit."""
    order = sorted(range(len(grams)), key=lambda k: -len(grams[k]))
    grids: list[np.ndarray] = [np.empty(0)] * len(grams)
    for batch in _batched((len(grams[k]) + 1, k) for k in order):
        if len(batch) == 1:
            grids[batch[0]] = (implicit_grid if implicit else explicit_grid)(grams[batch[0]])
            continue
        sizes = [len(grams[k]) for k in batch]
        stack, solved = _stacks(len(batch), sizes[0], workspace)
        for slot, k in enumerate(batch):
            _block(stack, slot, sizes[slot], implicit)[...] = grams[k]
        _grids(stack, sizes, implicit, solved)
        for slot, k in enumerate(batch):
            grids[k] = _block(solved, slot, sizes[slot] + 1, implicit).copy()
    return grids


class _Side(NamedTuple):
    """What the rectangles of a path's pairs take from its own grid K, for
    a path of n jumps D on one side of gamma * <-sigma (see the module
    docstring).  ``block`` is, for left-point gamma, the rows K[0..n-1];
    for left-point <-sigma, its own weights K[q+1][c] <D[q], D[c]>; for
    right-point gamma, its own weights K[i+1][r+1] <D[i], D[r]>; for
    right-point <-sigma, K[r][b] for b >= 1 with the diagonal r = b zeroed.
    ``edge`` is K[0] for left-point <-sigma and 1 + <D[i], D[i]> for
    right-point gamma.  ``corner`` is K[0][n], the value of a pair whose
    other side has no jump.  A side that no rectangle reads (no pair with
    jumps on both sides holds its path) keeps only the corner."""

    deltas: np.ndarray
    block: np.ndarray
    edge: np.ndarray
    corner: float


def _side(deltas: np.ndarray, gram: np.ndarray, grid: np.ndarray, implicit: bool, column: bool, crossed: bool) -> _Side:
    n = len(deltas)
    corner = float(grid[0, n])
    if not crossed:
        return _Side(deltas, np.empty(0), np.empty(0), corner)
    if implicit and column:
        block = grid[:n, 1:].copy()
        np.fill_diagonal(block[1:], 0.0)
        return _Side(deltas, block, np.empty(0), corner)
    if implicit:
        return _Side(deltas, grid[1:, 1:] * gram, 1.0 + np.diagonal(gram), corner)
    if column:
        return _Side(deltas, grid[1:, :n] * gram, grid[0].copy(), corner)
    return _Side(deltas, grid[:n], np.empty(0), corner)


def _sides(
    paths: Sequence[np.ndarray], implicit: bool, column: bool, crossed: Sequence[bool], workspace: np.ndarray
) -> list[_Side]:
    """Each path's own grid, solved together, reduced to its ``_Side``;
    ``crossed`` tells for each path whether a rectangle reads its side."""
    grams = [_inner(deltas, deltas) for deltas in paths]
    grids = _own_grids(grams, implicit, workspace)
    return [_side(*own, implicit, column, read) for *own, read in zip(paths, grams, grids, crossed)]


def _explicit_cross(grids: np.ndarray, weights: np.ndarray, sizes: Sequence[int]) -> None:
    m = grids.shape[1] - 1
    active = len(sizes)
    for c in range(sizes[0]):
        while sizes[active - 1] <= c:
            active -= 1
        grid, weight = grids[:active], weights[:active]
        b = m + c + 1
        weight[:, :m, c] *= grid[:, 1:, b - 1]
        grid[:, :m, b : b + 1] = grid[:, :m, b - 1 : b] - grid[:, :m, : b - 1] @ weight[:, : b - 1, c : c + 1]


def _implicit_cross(grids: np.ndarray, weights: np.ndarray, divisors: np.ndarray, sizes: Sequence[int]) -> None:
    top = weights.shape[1]
    active = len(sizes)
    for t in range(sizes[0]):
        while sizes[active - 1] <= t:
            active -= 1
        grid, weight = grids[:active], weights[:active]
        i = top - 1 - t
        weight[:, i, top:] *= grid[:, i + 1, :]
        row = grid[:, i + 1 : i + 2, :] - weight[:, i : i + 1, i + 1 :] @ grid[:, i + 1 :, :]
        grid[:, i : i + 1, :] = row / divisors[:active, i, None, None]


def _cross(stacks: Sequence[np.ndarray], sizes: Sequence[int], implicit: bool) -> None:
    """Solve a batch's rectangles in place: ``stacks`` is (grids, weights)
    for left-point and (grids, weights, divisors) for right-point, and
    ``sizes`` holds each pair's s (left-point) or m (right-point), largest
    first."""
    if implicit:
        _implicit_cross(*stacks, sizes)
    else:
        _explicit_cross(*stacks, sizes)
    if not all(np.isfinite(stack).all() for stack in stacks):
        raise NumericError("the grid overflowed: an increment is too large")


def _explicit_rectangles(rows: Sequence[_Side], columns: Sequence[_Side], workspace: np.ndarray) -> list[np.ndarray]:
    m = len(rows[0].deltas)
    sizes = [len(column.deltas) for column in columns]
    count, widest = len(sizes), sizes[0]
    grids, weights = _carve(workspace, (count, m + 1, m + widest + 1), (count, m + widest, widest))
    for k, (row, column) in enumerate(zip(rows, columns)):
        s = sizes[k]
        grids[k, :m, : m + 1] = row.block
        grids[k, m, m : m + s + 1] = column.edge
        _inner(row.deltas, column.deltas, out=weights[k, :m, :s])
        weights[k, m : m + s, :s] = column.block
    _cross((grids, weights), sizes, False)
    return [grids[k, :m, m + 1 : m + s + 1] for k, s in enumerate(sizes)]


def _implicit_rectangles(rows: Sequence[_Side], columns: Sequence[_Side], workspace: np.ndarray) -> list[np.ndarray]:
    s = len(columns[0].deltas)
    sizes = [len(row.deltas) for row in rows]
    top = sizes[0]
    count = len(sizes)
    grids, weights, divisors = _carve(workspace, (count, top + s, s), (count, top, top + s), (count, top))
    for k, (row, column) in enumerate(zip(rows, columns)):
        start = top - sizes[k]
        grids[k, top:] = column.block
        weights[k, start:, start:top] = row.block
        _inner(row.deltas, column.deltas, out=weights[k, start:, top:])
        divisors[k, start:] = row.edge
    _cross((grids, weights, divisors), sizes, True)
    return [grids[k, top - m : top] for k, m in enumerate(sizes)]


def _rectangles(
    rows: Mapping[int, _Side],
    columns: Mapping[int, _Side],
    pairs: Sequence[tuple[int, int]],
    implicit: bool,
    workspace: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """Solve the rectangle K[0..m-1][m+1..n] of every pair (i, j) whose
    sides rows[i] and columns[j] both have jumps, batch by batch; yield
    (k, rectangle) for pairs[k], the (m, s) rectangle a view that the next
    batch overwrites."""
    m_of = [len(rows[i].deltas) for i, _ in pairs]
    s_of = [len(columns[j].deltas) for _, j in pairs]
    key, other = (s_of, m_of) if implicit else (m_of, s_of)
    order = sorted((k for k in range(len(pairs)) if m_of[k] and s_of[k]), key=lambda k: (key[k], -other[k]))
    solve = _implicit_rectangles if implicit else _explicit_rectangles
    for _, group in itertools.groupby(order, key=key.__getitem__):
        group = list(group)
        # cells of each stack in a pair's slot, at most; the group's first pair has the largest
        m, s = m_of[group[0]], s_of[group[0]]
        slots = (m + s + 1) * (max(m, s) + 1)
        per_batch = max(1, _BATCH_CELLS // slots)
        for start in range(0, len(group), per_batch):
            batch = group[start : start + per_batch]
            solved = solve([rows[pairs[k][0]] for k in batch], [columns[pairs[k][1]] for k in batch], workspace)
            yield from zip(batch, solved)


@np.errstate(over="ignore", invalid="ignore")
def _pair_values(
    rows: Sequence[np.ndarray], columns: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]], implicit: bool
) -> np.ndarray:
    """K[0][n] of gamma * <-sigma for each pair (i, j) of ``pairs``, gamma
    with the jumps rows[i] and <-sigma with the jumps columns[j]."""
    values = np.empty(len(pairs))
    workspace = np.empty(2 * _BATCH_CELLS)  # shared by every batch, own grids and rectangles
    crossed = [(i, j) for i, j in pairs if len(rows[i]) and len(columns[j])]
    crossed_rows, crossed_columns = {i for i, _ in crossed}, {j for _, j in crossed}

    def column_sides(chunk):
        paths, read = [columns[j] for j in chunk], [j in crossed_columns for j in chunk]
        return dict(zip(chunk, _sides(paths, implicit, True, read, workspace)))

    column_chunks = list(_batched(((len(deltas) + 1, j) for j, deltas in enumerate(columns)), _OWN_CELLS))
    held = [column_sides(chunk) for chunk in column_chunks] if len(column_chunks) == 1 else None
    for row_chunk in _batched(((len(deltas) + 1, i) for i, deltas in enumerate(rows)), _OWN_CELLS):
        paths, read = [rows[i] for i in row_chunk], [i in crossed_rows for i in row_chunk]
        row_sides = dict(zip(row_chunk, _sides(paths, implicit, False, read, workspace)))
        for sides in held or map(column_sides, column_chunks):
            chunk = [k for k, (i, j) in enumerate(pairs) if i in row_sides and j in sides]
            for k in chunk:  # a pair with no jump on one side; the rectangles overwrite the rest
                i, j = pairs[k]
                values[k] = sides[j].corner if len(rows[i]) == 0 else row_sides[i].corner
            for k, rectangle in _rectangles(row_sides, sides, [pairs[k] for k in chunk], implicit, workspace):
                values[chunk[k]] = rectangle[0, -1]
    return values

