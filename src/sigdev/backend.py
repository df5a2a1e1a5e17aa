"""Triangular-grid solvers for the quadratic functional equation.

These O(n^3) recursions are the hot loops of the package.  They run on
numpy/BLAS: each grid column (left-point) or row (right-point) is a fixed
sequence of BLAS products, in a fixed summation order, so the output is
deterministic bit for bit.

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

Each scheme has one loop, ``_explicit_stack`` or ``_implicit_stack``,
which solves a stack of own grids or a stack of the rectangles of path
pairs (below); the shapes of its stacks tell which.  Each step reads its
weights from one row of the Gram stack, formed once, in place: left-point
column c+1 reads w[p] = K[p+1][c] gram[c, p], p < c, from row c, below the
diagonal; right-point row i reads w[r] = K[i+1][r+1] gram[i, r], r > i,
from row i, above it.  A solved Gram holds its grid's weights there.

A grid of at most ``_BLOCK`` = B = 256 rows is one block: each column or
row is one BLAS product over the whole block, of shape b x (b-1)
(left-point) or (n-i-1) x (n-i) (right-point), half of it the zero
triangle of K (K[a][p] = 0 for p < a, and the diagonal while it is 0).  A
larger grid is solved block by block, each product skipping that triangle:

* left-point, column b: one mat-vec per row block [r0, r1) of B rows, r0 a
  multiple of B, ``K[r0:r1, r0:b-1] @ w[r0:]``, since the columns p < r0
  are 0 in those rows.  The last block of the slot's rows takes their
  rest; a rest of one row joins the block before it (``_row_blocks``).
  The columns are taken in panels of ``_PANEL`` = W = 64, and inside a
  panel the row blocks bottom-up, each for every column of the panel, so a
  block's strip of K stays in cache across the panel.  The block forms
  w[p] for its own rows p, from K[p+1][b-1], which it or the block below
  has solved; the blocks below have formed the rest.
* right-point, row i: one vector-matrix product per column block [c0, c1)
  of B columns counted from the row's first cell,
  ``w[:depth] @ K[i+1:i+1+depth, c0:c1]``, since the rows r >= c1 - 1 are
  0 in those columns.  The last block takes the rest of the row; a rest of
  one column joins the block before it, whose product would otherwise be a
  dot product (``_row_blocks``).  depth counts the rows below c1 - 1, then
  zero rows, to a count congruent to the whole row's mod ``_ROW_GROUP`` =
  16 with 16 zero rows or more (``_depth``).  A block forms the weights of
  the rows r < c1 - 1 that the blocks before it have not, never those of
  the zero rows.  The rows are taken in panels of W, bottom-up, and inside
  a panel the column blocks left to right, each for every row of the panel.

Each block product adds the same nonzero terms, in the same groups of
OpenBLAS's gemv kernels, as the product over the whole block: left-point
row blocks start at a multiple of B, so every dot product keeps its
alignment and its tail; right-point blocks are counted from the row's
first cell and keep the row count's residue, so no nonzero term moves to
a kernel's tail.  With BLAS on one thread both schemes are therefore equal
bit for bit to the one-product-per-column (row) solve, own grids and
rectangles alike.  On more threads OpenBLAS may split a product over the
whole block of n past about 700 across them, which moves that solve's
last bits, not the block products'.

B >= 181 keeps a grid of more than one block alone in its batch: two grids
of n + 1 >= 182 rows take more than the 2^16 cells of a batch (below).  A
right-point grid fills the trailing block of its slot, so in a stack its
block edges would fall elsewhere than in the grid solved alone.

Many grids are solved together as one stack, one stacked ``np.matmul`` per
column or row and block for every grid of the batch: a (count, n, n) Gram
stack and a (count, n+1, n+1) grid stack.  A zero increment makes its
column (left-point) or row (right-point) an exact copy of the one before,
so a grid padded with zero increments up to the batch's largest n has the
same value: the padding goes at the end for left-point, where the grid
fills the leading block of its slot, and at the start for right-point,
where it fills the trailing block.  Those copies are never computed: the
grids are sorted by n, largest first, so the grids still being solved are
a prefix of the stack, and each step runs on that prefix only.  Every
grid's block is then made by the same BLAS calls, with the same shapes, as
the grid solved alone, so it is equal bit for bit.  A batch of one grid is
solved in place on its Gram; ``explicit_grid`` and ``implicit_grid`` solve
a copy of theirs.

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
the rectangle of rows 0..m-1 and columns m+1..n is solved, by the same
loop as the own grids, from a stack that holds the parts of the pair's
grid and weights that it reads:

* left-point: a (count, s, n) weight stack, held column by column
  (``_explicit_rectangles``), and a (count, m+1, n+1) grid stack.  The
  loop solves the columns from n + 1 - s = m + 1 and the rows 0..m-1
  above the grid stack's last row, which holds <-sigma's K[0].  The grid
  stack's rows 0..m-1 start with gamma's rows K[0..m-1][0..m].  The weight
  stack's row c is gram[m+c, p]: the cross Gram <D_sigma[c], D_gamma[p]>
  for p < m, which the loop turns into weights, then row c of <-sigma's
  solved Gram, its weights already.  Pairs are batched by m, each in the
  leading block of its slot, sorted by s, largest first.
* right-point: a (count, m, n) weight stack and a (count, n, s) grid stack.
  The loop solves the rows 0..m-1 of the weight stack and the columns from
  n + 1 - s = m + 1, the grid stack's s columns.  The weight stack's rows
  are gamma's solved Gram, whose diagonal gives the divisors, then the
  cross Gram, which the loop turns into weights.  The grid stack's rows
  m..n-1 are <-sigma's own grid, whose diagonal r = b stays 0 during the
  solve, as the whole grid's does, so each product runs over r < b only.
  Pairs are batched by s, each in the trailing block of its slot (its
  bottom row on the slot's last), sorted by m, largest first.

In both schemes a pair's BLAS shapes depend only on its batch key, its own
sizes and the step, never on the rest of the batch, so every Gram entry
equals the pair solved alone (``k_sd`` runs ``_pair_values`` on its one
pair) bit for bit; zero padding inside a product would not keep that.  A
pair costs about s (left-point) or m (right-point) stacked steps and
m s (m + s/2) or m s (s + m/2) multiply-adds, where the whole grid takes
n steps and n^3/3 (44 % fewer at m = s); a rectangle past one block skips
gamma's zero triangle as an own grid does.

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
that check reports the failure.  ``sdkernel.grid_gram`` refuses, before
any Gram or grid is formed, a pair whose grid of gamma * <-sigma would
have more than ``_GRID_CELLS`` = 2^28 cells (n + 1 > 16384).
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
_GRID_CELLS = 2**28
_BLOCK = 256
_PANEL = 64
_ROW_GROUP = 16

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


def _active(sizes: Sequence[int], n: int) -> list[int]:
    """For each step t = 0..n, how many grids of the stack have at least t
    jumps: the prefix that a column b = t (left-point) or a row i = n - t
    (right-point) still solves."""
    return np.searchsorted(-np.asarray(sizes), -np.arange(n + 1), side="right").tolist()


def _explicit_stack(grams: np.ndarray, sizes: Sequence[int], grids: np.ndarray) -> None:
    width, n = grams.shape[1:]  # one weight row per column solved
    first = n + 1 - width  # the first column solved: 1 for own grids, m + 1 for rectangles
    height = grids.shape[1] - 1  # the rows solved: every row of an own grid, 0..m-1 of a rectangle
    diagonal = np.arange(height + 1)  # an array indexes faster than a range
    grids[:, diagonal, diagonal] = 1.0
    active = _active(sizes, width)
    top = (_row_blocks(height) - 1) * _BLOCK  # the last row block
    for c0 in range(first, n + 1, _PANEL):
        c1 = min(c0 + _PANEL, n + 1)
        # column b solves rows 0..min(b, height)-1; row block r0 skips the columns p < r0, where K[a][p] = 0
        for r0 in range(min((min(c1 - 1, height) - 1) // _BLOCK * _BLOCK, top), -1, -_BLOCK):
            for b in range(max(c0, r0 + 1), c1):
                # per-step bounds by conditional expressions, which cost less than min()
                r1 = b if b < height else height
                if r0 != top and r1 > r0 + _BLOCK:
                    r1 = r0 + _BLOCK
                count, c = active[b - first + 1], b - first  # c: the weight row
                # this block's weights; the blocks below formed the rest, a rectangle's p >= m come formed
                formed = r1 if r1 < b else b - 1
                grams[:count, c, r0:formed] *= grids[:count, r0 + 1 : formed + 1, b - 1]
                product = grids[:count, r0:r1, r0 : b - 1] @ grams[:count, c : c + 1, r0 : b - 1].mT
                grids[:count, r0:r1, b : b + 1] = grids[:count, r0:r1, b - 1 : b] - product


def _row_blocks(width: int) -> int:
    """Blocks of ``_BLOCK`` rows of a left-point grid slot, or columns of a
    right-point row, of ``width`` cells, the last one taking a remainder of
    one, whose product would be a dot product, not a gemv."""
    return (width - 2) // _BLOCK + 1 if width > 1 else 1


def _depth(rows: int, needed: int) -> int:
    """Rows of a right-point block product, where the product over the
    whole row has ``rows`` rows: the ``needed`` rows that can be nonzero in
    the block's columns, then zero rows, to a count congruent to ``rows``
    mod ``_ROW_GROUP`` with at least ``_ROW_GROUP`` zero rows.  BLAS then
    takes every nonzero row in the same group of its gemv kernel as the
    product over the whole row does."""
    return rows - _ROW_GROUP * max(0, (rows - needed) // _ROW_GROUP - 1)


def _implicit_stack(grams: np.ndarray, sizes: Sequence[int], grids: np.ndarray) -> None:
    rows, n = grams.shape[1:]
    offset = n + 1 - grids.shape[2]  # the first column held: 0 for own grids, m + 1 for rectangles
    divisors = 1.0 + np.diagonal(grams, axis1=1, axis2=2)  # 1 + gram[i, i], every row at once
    active = _active(sizes, rows)
    # The diagonal stays 0 until the end, so each product sees only r < b;
    # an own grid's row gets in its first cell the K[i+1][i+1] = 1 it leaves out.
    for i1 in range(rows, 0, -_PANEL):
        i0 = max(i1 - _PANEL, 0)
        for block in range(_row_blocks(n + 1 - max(i0 + 1, offset))):
            for i in range(i1 - 1, i0 - 1, -1):
                first = i + 1 if i >= offset else offset  # the row's first cell
                last = _row_blocks(n + 1 - first) - 1
                if block > last:  # K[i][first..n] ends before this block
                    continue
                c0 = first + block * _BLOCK
                if block == last:
                    c1, depth = n + 1, n - i - 1
                else:
                    c1 = c0 + _BLOCK
                    depth = _depth(n - i - 1, c1 - i - 2)
                count, cells = active[rows - i], slice(c0 - offset, c1 - offset)
                # the weights of the rows r < c1 - 1 that the blocks before left; a rectangle's r < m come formed
                lo = c0 - 1 if c0 > i + 1 else c0
                grams[:count, i, lo : c1 - 1] *= grids[:count, i + 1, lo + 1 - offset : c1 - offset]
                product = grams[:count, i : i + 1, i + 1 : i + 1 + depth] @ grids[:count, i + 1 : i + 1 + depth, cells]
                row = grids[:count, i + 1 : i + 2, cells] - product
                if c0 == i + 1:
                    row[:, :, 0] += 1.0
                grids[:count, i : i + 1, cells] = row / divisors[:count, i, None, None]
    if not offset:  # an own grid's diagonal, 0 during the solve; a rectangle holds none of its own
        diagonal = np.arange(n + 1)
        grids[:, diagonal, diagonal] = 1.0


def _grids(grams: np.ndarray, sizes: Sequence[int], implicit: bool, grids: np.ndarray) -> np.ndarray:
    """Solve a batch of own grids or of rectangles, whose stack shapes tell
    which (module docstring), in place into ``grids`` and return it.
    ``sizes`` holds each grid's n, or each pair's s (left-point) or m
    (right-point), largest first."""
    with np.errstate(over="ignore", invalid="ignore"):
        (_implicit_stack if implicit else _explicit_stack)(grams, sizes, grids)
    if not (np.isfinite(grams).all() and np.isfinite(grids).all()):
        raise NumericError("the grid overflowed: an increment is too large")
    return grids


def explicit_grid(gram: np.ndarray) -> np.ndarray:
    """Left-point grid via one BLAS mat-vec per column and block of
    ``_BLOCK`` rows, in panels of ``_PANEL`` columns (module docstring)."""
    return _own_grids([gram.copy()], False, np.empty(0))[0]


def implicit_grid(gram: np.ndarray) -> np.ndarray:
    """Right-point grid via one BLAS vector-matrix product per row and
    block of ``_BLOCK`` columns, in panels of ``_PANEL`` rows (module
    docstring)."""
    return _own_grids([gram.copy()], True, np.empty(0))[0]


def _inner(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """<left[p], right[q]> for every pair of rows, written into ``out`` when
    given.  Callers silence overflow: an entry that overflows is left to
    the finiteness checks of the solvers, which report it."""
    return np.matmul(left, right.T, out=out)


def _own_grids(grams: Sequence[np.ndarray], implicit: bool, workspace: np.ndarray) -> list[np.ndarray]:
    """The grid of each Gram, solved in batches of ``_batched``, largest
    first; each equals its grid solved alone bit for bit.  Each Gram is
    left holding its weights: a batch of one is solved in place, with no
    stack or block copy."""
    order = sorted(range(len(grams)), key=lambda k: -len(grams[k]))
    grids: list[np.ndarray] = [np.empty(0)] * len(grams)
    for batch in _batched((len(grams[k]) + 1, k) for k in order):
        sizes = [len(grams[k]) for k in batch]
        if len(batch) == 1:
            size = sizes[0] + 1
            grids[batch[0]] = _grids(grams[batch[0]][None], sizes, implicit, np.zeros((1, size, size)))[0]
            continue
        stack, solved = _stacks(len(batch), sizes[0], workspace)
        for slot, k in enumerate(batch):
            _block(stack, slot, sizes[slot], implicit)[...] = grams[k]
        _grids(stack, sizes, implicit, solved)
        for slot, k in enumerate(batch):
            grams[k][...] = _block(stack, slot, sizes[slot], implicit)
            grids[k] = _block(solved, slot, sizes[slot] + 1, implicit).copy()
    return grids


class _Side(NamedTuple):
    """What the rectangles of a path's pairs take from its own grid K, for
    a path of n jumps D on one side of gamma * <-sigma (see the module
    docstring).  ``block`` is, for left-point gamma, the rows K[0..n-1];
    for left-point <-sigma and right-point gamma, its solved Gram, which
    holds its own weights, K[q+1][c] <D[c], D[q]> in row c below the
    diagonal (left-point) or K[c+1][q+1] <D[c], D[q]> in row c above it
    (right-point), and <D[c], D[c]> on it; for right-point <-sigma, K[r][b]
    for b >= 1 with the diagonal r = b zeroed.  ``edge`` is K[0] for
    left-point <-sigma.  ``corner`` is K[0][n], the value of a pair whose
    other side has no jump.  A side that no rectangle reads (no pair with
    jumps on both sides holds its path) keeps only the corner."""

    deltas: np.ndarray
    block: np.ndarray
    edge: np.ndarray
    corner: float


def _side(deltas: np.ndarray, weights: np.ndarray, grid: np.ndarray, implicit: bool, column: bool, crossed: bool) -> _Side:
    n = len(deltas)
    corner = float(grid[0, n])
    if not crossed:
        return _Side(deltas, np.empty(0), np.empty(0), corner)
    if implicit and column:
        block = grid[:n, 1:].copy()
        np.fill_diagonal(block[1:], 0.0)
        return _Side(deltas, block, np.empty(0), corner)
    if implicit:
        return _Side(deltas, weights, np.empty(0), corner)
    if column:
        return _Side(deltas, weights, grid[0].copy(), corner)
    return _Side(deltas, grid[:n], np.empty(0), corner)


def _sides(
    paths: Sequence[np.ndarray], implicit: bool, column: bool, crossed: Sequence[bool], workspace: np.ndarray
) -> list[_Side]:
    """Each path's own grid, solved together, reduced to its ``_Side``;
    ``crossed`` tells for each path whether a rectangle reads its side."""
    weights = [_inner(deltas, deltas) for deltas in paths]  # each Gram, until its grid is solved
    grids = _own_grids(weights, implicit, workspace)
    return [_side(*own, implicit, column, read) for *own, read in zip(paths, weights, grids, crossed)]


def _explicit_rectangles(rows: Sequence[_Side], columns: Sequence[_Side], workspace: np.ndarray) -> list[np.ndarray]:
    m = len(rows[0].deltas)
    sizes = [len(column.deltas) for column in columns]
    count, widest = len(sizes), sizes[0]
    # The weights are held column by column and solved as weights.mT: numpy makes a one-row
    # rectangle's product a dot product, which OpenBLAS adds in another order for a strided
    # vector than for a contiguous one, and strided keeps seeded output byte for byte the same.
    grids, weights = _carve(workspace, (count, m + 1, m + widest + 1), (count, m + widest, widest))
    for k, (row, column) in enumerate(zip(rows, columns)):
        s = sizes[k]
        grids[k, :m, : m + 1] = row.block
        grids[k, m, m : m + s + 1] = column.edge
        _inner(row.deltas, column.deltas, out=weights[k, :m, :s])
        weights[k, m : m + s, :s] = column.block.T
    _grids(weights.mT, sizes, False, grids)
    return [grids[k, :m, m + 1 : m + s + 1] for k, s in enumerate(sizes)]


def _implicit_rectangles(rows: Sequence[_Side], columns: Sequence[_Side], workspace: np.ndarray) -> list[np.ndarray]:
    s = len(columns[0].deltas)
    sizes = [len(row.deltas) for row in rows]
    top = sizes[0]
    count = len(sizes)
    grids, weights = _carve(workspace, (count, top + s, s), (count, top, top + s))
    for k, (row, column) in enumerate(zip(rows, columns)):
        start = top - sizes[k]
        grids[k, top:] = column.block
        weights[k, start:, start:top] = row.block
        _inner(row.deltas, column.deltas, out=weights[k, start:, top:])
    _grids(weights, sizes, True, grids)
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

