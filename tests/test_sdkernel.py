import itertools
import math
import warnings
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdev import (
    DomainError,
    IncrementSequence,
    Partition,
    NumericError,
    Path,
    ResourceLimitError,
    catalan,
    concat_reverse,
    dyadic_refine,
    exact_straight_line,
    grid_gram,
    iterated_sums_signature,
    k_sd,
    nc2_enumerate,
    one_variation,
    piecewise_constant_increments,
    refine_to_variation,
    semicircle_charfn,
    semicircular_moment_fast,
    series_oracle,
    series_tail_bound,
    solve_explicit,
    solve_implicit,
)
from sigdev import backend, paths, sdkernel
from sigdev.sdkernel import SolutionGrid
from helpers import batch_kind, make_piecewise_linear, run_pinned

J1_AT_TWO = 0.5767248077568734  # J1(2), power series; scipy cross-check below


def line(v):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return Path([0.0, 1.0], np.vstack([np.zeros_like(v), v]))


def unit_line_increments(order):
    part = dyadic_refine(Partition([0.0, 1.0]), order)
    return piecewise_constant_increments(line([1.0]), part)


def double_sum_explicit(deltas: np.ndarray) -> float:
    """Independent oracle: memoized double-sum expansion of the left-point
    scheme (window [a, b) over increment indices)."""
    gram = deltas @ deltas.T

    @lru_cache(maxsize=None)
    def kernel(a: int, b: int) -> float:
        total = 1.0
        for q in range(a, b):
            for p in range(a, q):
                total -= kernel(a, p) * kernel(p + 1, q) * gram[p, q]
        return total

    return kernel(0, len(deltas))


def moment_iss_contraction(deltas: np.ndarray) -> float:
    """Independent oracle: moments contracted against the iterated sums."""
    n, dim = deltas.shape
    iss = iterated_sums_signature(IncrementSequence(deltas), n)
    total = 0.0
    for m in range(0, n + 1, 2):
        sign = (-1) ** (m // 2)
        for idx, word in enumerate(itertools.product(range(1, dim + 1), repeat=m)):
            phi = semicircular_moment_fast(word)
            if phi:
                total += sign * phi * iss.tensors[m][idx]
    return total


class TestExplicitScheme:
    def test_zero_increments_give_ones(self):
        grid = solve_explicit(IncrementSequence(np.zeros((4, 2))))
        assert np.all(grid.values[np.triu_indices(5)] == 1.0)

    def test_two_step_hand_expansion(self):
        grid = solve_explicit(IncrementSequence(np.array([[0.1], [0.1]])))
        assert grid.value(0, 1) == 1.0
        assert grid.value(0, 2) == pytest.approx(0.99, abs=1e-15)

    def test_three_equal_steps_polynomial(self):
        h = 0.1
        deltas = np.full((3, 1), h)
        final = solve_explicit(IncrementSequence(deltas)).final
        assert final == pytest.approx(1.0 - 3 * h * h, abs=1e-15)
        assert final == pytest.approx(double_sum_explicit(deltas), abs=1e-14)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(5)
        for n, dim in [(1, 1), (4, 2), (6, 3), (9, 2)]:
            deltas = rng.normal(size=(n, dim)) * 0.3
            got = solve_explicit(IncrementSequence(deltas)).final
            assert got == pytest.approx(double_sum_explicit(deltas), abs=1e-12)

    def test_iss_moment_identity(self):
        # scheme value == free-semicircular moments against iterated sums
        values = [-0.3, 0.0, 0.4]
        for seq in itertools.product(values, repeat=4):  # exhaustive, d = 1
            deltas = np.asarray(seq).reshape(-1, 1)
            lhs = solve_explicit(IncrementSequence(deltas)).final
            assert lhs == pytest.approx(moment_iss_contraction(deltas), abs=1e-10)
        rng = np.random.default_rng(8)
        for _ in range(30):  # sampled, d = 2, length up to 6
            n = int(rng.integers(1, 7))
            deltas = rng.choice(values, size=(n, 2))
            lhs = solve_explicit(IncrementSequence(deltas)).final
            assert lhs == pytest.approx(moment_iss_contraction(deltas), abs=1e-10)


class TestImplicitScheme:
    def test_zero_increments_give_ones(self):
        grid = solve_implicit(IncrementSequence(np.zeros((3, 1))))
        assert np.all(grid.values[np.triu_indices(4)] == 1.0)

    def test_single_step_closed_form(self):
        grid = solve_implicit(IncrementSequence(np.array([[0.1]])))
        assert grid.final == pytest.approx(1.0 / 1.01, abs=1e-15)

    def test_agreement_with_explicit_at_first_order(self):
        diffs = []
        for order in range(0, 7):
            incs = unit_line_increments(order)
            diffs.append(abs(solve_explicit(incs).final - solve_implicit(incs).final))
        assert diffs[2] <= 0.5
        for a, b in zip(diffs[:-1], diffs[1:]):
            assert a / b >= 1.7

    def test_row_sweep_matches_cell_recurrence(self):
        rng = np.random.default_rng(4)
        deltas = rng.normal(size=(40, 2)) * 0.1
        deltas[[0, 17, 39]] = 0.0
        gram = deltas @ deltas.T
        got = backend.implicit_grid(gram)
        assert np.abs(got - _cell_recurrence(gram)).max() <= 1e-13
        assert np.array_equal(got, backend.implicit_grid(gram))

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_row_sweep_matches_cell_recurrence_at_large_increments(self, scale):
        # entries fall far below 1 here, so the error is taken relative to the grid's size
        rng = np.random.default_rng(5)
        deltas = rng.normal(size=(30, 3)) * scale
        gram = deltas @ deltas.T
        expected = _cell_recurrence(gram)
        got = backend.implicit_grid(gram)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("row", [0, 7, 15])
    def test_row_sweep_with_a_zero_increment(self, row):
        rng = np.random.default_rng(6)
        deltas = rng.normal(size=(16, 2)) * 0.2
        deltas[row] = 0.0
        gram = deltas @ deltas.T
        assert np.abs(backend.implicit_grid(gram) - _cell_recurrence(gram)).max() <= 1e-13

    def test_row_sweep_on_empty_and_single_step_grids(self):
        assert np.array_equal(backend.implicit_grid(np.zeros((0, 0))), np.ones((1, 1)))
        gram = np.array([[0.3]])
        assert np.array_equal(backend.implicit_grid(gram), _cell_recurrence(gram))


def _cell_recurrence(gram):
    """Right-point grid solved one cell at a time, column by column, rows bottom-up."""
    size = len(gram) + 1
    expected = np.eye(size)
    for b in range(1, size):
        for i in range(b - 1, -1, -1):
            acc = sum(expected[i, k] * expected[k, b] * gram[k - 1, b - 1] for k in range(i + 1, b))
            expected[i, b] = (expected[i, b - 1] - acc) / (1.0 + gram[b - 1, b - 1])
    return expected


def _column_loop(gram):
    """Left-point grid one pair at a time, one mat-vec per column."""
    size = len(gram) + 1
    grid = np.eye(size)
    for b in range(1, size):
        weights = grid[1:b, b - 1] * gram[0 : b - 1, b - 1]
        grid[0:b, b] = grid[0:b, b - 1] - grid[0:b, 0 : b - 1] @ weights
    return grid


def _row_loop(gram):
    """Right-point grid one pair at a time, one vector-matrix product per row."""
    n = len(gram)
    grid = np.zeros((n + 1, n + 1))
    for i in range(n - 1, -1, -1):
        weights = grid[i + 1, i + 2 :] * gram[i, i + 1 :]
        row = grid[i + 1, i + 1 :] - weights @ grid[i + 1 : n, i + 1 :]
        row[0] += 1.0
        grid[i, i + 1 :] = row / (1.0 + gram[i, i])
    np.fill_diagonal(grid, 1.0)
    return grid


def _explicit_cross(grids, weights, sizes):
    """Left-point rectangles, one product per column over the whole
    m x (b-1) block: the unblocked reference for ``backend._explicit_stack``."""
    m = grids.shape[1] - 1
    active = len(sizes)
    for c in range(sizes[0]):
        while sizes[active - 1] <= c:
            active -= 1
        grid, weight = grids[:active], weights[:active]
        b = m + c + 1
        weight[:, :m, c] *= grid[:, 1:, b - 1]
        grid[:, :m, b : b + 1] = grid[:, :m, b - 1 : b] - grid[:, :m, : b - 1] @ weight[:, : b - 1, c : c + 1]


def _implicit_cross(grids, weights, divisors, sizes):
    """Right-point rectangles, one product per row over the whole
    (n-i-1) x s block: the unblocked reference for ``backend._implicit_stack``."""
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


def _cross_rectangle(gamma, sigma, implicit):
    """The rectangle K[0..m-1][m+1..n] of the pair with jumps gamma, then
    sigma, by ``_explicit_cross``/``_implicit_cross`` on the own grids of
    ``_column_loop``/``_row_loop``."""
    m, s = len(gamma), len(sigma)
    own, other, cross = gamma @ gamma.T, sigma @ sigma.T, gamma @ sigma.T
    if implicit:
        grids, weights = np.zeros((1, m + s, s)), np.zeros((1, m, m + s))
        grids[0, m:] = _row_loop(other)[:s, 1:]
        np.fill_diagonal(grids[0, m + 1 :], 0.0)
        weights[0, :, :m] = _row_loop(own)[1:, 1:] * own
        weights[0, :, m:] = cross
        _implicit_cross(grids, weights, 1.0 + np.diagonal(own)[None], [m])
        return grids[0, :m]
    grids, weights = np.zeros((1, m + 1, m + s + 1)), np.zeros((1, m + s, s))
    grids[0, :m, : m + 1] = _column_loop(own)[:m]
    grids[0, m, m:] = _column_loop(other)[0]
    weights[0, :m] = cross
    weights[0, m:] = _column_loop(other)[1:, :s] * other
    _explicit_cross(grids, weights, [s])
    return grids[0, :m, m + 1 :]


def _rectangle(gamma, sigma, implicit):
    """The same rectangle, solved as ``backend._pair_values`` solves it."""
    workspace = np.empty(0)
    sides = dict(enumerate(backend._sides([gamma, sigma], implicit, workspace)))
    ((_, rectangle),) = backend._rectangles(sides, [(0, 1)], implicit, workspace)
    return rectangle


class TestBatchedGrids:
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 240])
    def test_one_pair_equals_the_per_grid_loops(self, n):
        deltas = np.random.default_rng(n).normal(size=(n, 2)) * 0.05
        gram = deltas @ deltas.T
        before = gram.copy()
        assert np.array_equal(backend.explicit_grid(gram), _column_loop(gram))
        assert np.array_equal(backend.implicit_grid(gram), _row_loop(gram))
        # the solvers form their weights in a copy, so solve_explicit/solve_implicit leave theirs too
        assert np.array_equal(gram, before)

    def test_stack_blocks_equal_the_per_grid_loops(self):
        rng = np.random.default_rng(7)
        sizes = [40, 33, 33, 9, 2, 1, 0]
        grams = [d @ d.T for d in (rng.normal(size=(n, 3)) * 0.1 for n in sizes)]
        workspace = np.full(2 * 41**2 * len(sizes), np.nan)  # a dirty workspace is zeroed
        count, n = len(sizes), sizes[0]
        for implicit, loop in ((False, _column_loop), (True, _row_loop)):
            stack, grids = backend._carve(workspace, (count, n, n), (count, n + 1, n + 1))
            for k, gram in enumerate(grams):
                backend._block(stack, k, sizes[k], implicit)[...] = gram
            backend._grids(stack, sizes, implicit, grids)
            for k, gram in enumerate(grams):
                assert np.array_equal(backend._block(grids, k, sizes[k] + 1, implicit), loop(gram))

    def test_stacks_past_the_workspace_are_fresh(self):
        workspace = np.zeros(10)
        grams, grids = backend._carve(workspace, (2, 1, 1), (2, 2, 2))
        assert grams.shape == (2, 1, 1) and grids.shape == (2, 2, 2)
        assert np.shares_memory(grids, workspace)
        grams, grids = backend._carve(workspace, (1, 3, 3), (1, 4, 4))
        assert not np.shares_memory(grids, workspace) and not grids.any()

    @staticmethod
    def batch_sizes(sizes, cells=2**16):
        return [[size for size, _ in batch] for batch in backend._batched(((s * s, (s, k)) for k, s in enumerate(sizes)), cells)]

    def test_batches_keep_order_and_the_cell_budget(self):
        sizes = [81, 80, 79, 81, 12, 200, 3, 256, 257, 1, 1, 90] + [81] * 20
        batches = self.batch_sizes(sizes)
        assert [s for batch in batches for s in batch] == sizes
        for batch in batches:
            assert len(batch) == 1 or len(batch) * max(batch) ** 2 <= 2**16
        # each batch is closed only by a pair that would overflow it
        for batch, after in zip(batches, batches[1:]):
            assert (len(batch) + 1) * max(batch + after[:1]) ** 2 > 2**16
        assert backend._BATCH_CELLS == 2**16

    def test_a_grid_past_the_budget_is_batched_alone(self):
        assert self.batch_sizes([3, 257, 2, 2]) == [[3], [257], [2, 2]]
        assert self.batch_sizes([256, 1]) == [[256], [1]]
        assert self.batch_sizes([128] * 5) == [[128] * 4, [128]]
        assert self.batch_sizes([1] * 5, cells=2) == [[1, 1], [1, 1], [1]]
        assert self.batch_sizes([]) == []

    @pytest.mark.parametrize(
        "solver, size, n",
        # 1e200 overflows the Gram, whose one-step grids stay finite; 1e100
        # overflows only the left-point grid
        [
            (solve_explicit, 1e100, 6),
            (solve_explicit, 1e200, 6),
            (solve_implicit, 1e200, 6),
            (solve_explicit, 1e200, 1),
            (solve_implicit, 1e200, 1),
        ],
    )
    def test_overflow_is_a_numeric_error(self, solver, size, n):
        deltas = np.zeros((n, 1))
        deltas[::2], deltas[1::2] = size, -size
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError):
                solver(IncrementSequence(deltas))

    def test_user_grid_that_is_not_finite_is_a_domain_error(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                SolutionGrid(np.array([[1.0, bad], [0.0, 1.0]]))


class TestPanelledGrids:
    """Grids of more than one block of rows, solved in panels that skip the
    zero triangle, equal the one-product-per-column (row) loops bit for bit."""

    B, W = backend._BLOCK, backend._PANEL

    def test_equal_the_per_grid_loops_on_one_blas_thread(self):
        # Pinned: on more threads OpenBLAS splits a whole-block product of n
        # past about 700 across them, which moves the loops' last bits.  n =
        # 2B + 5 has rows of B + 1 columns, whose last column joins the block before.
        sizes = [self.B - 1, self.B, self.B + 1, self.B + self.W + 1, 2 * self.B + 5, 2 * self.B + self.W + 3, 960]
        run_pinned(
            "import numpy as np\n"
            "from test_sdkernel import _column_loop, _row_loop\n"
            "from sigdev import backend\n"
            f"for n in {sizes}:\n"
            "    deltas = np.random.default_rng(n).normal(size=(n, 2)) * (1.5 / n) ** 0.5\n"
            "    gram = deltas @ deltas.T\n"
            "    assert np.array_equal(backend.explicit_grid(gram), _column_loop(gram)), n\n"
            "    assert np.array_equal(backend.implicit_grid(gram), _row_loop(gram)), n\n"
        )

    def test_rectangles_equal_the_unblocked_loops_on_one_blas_thread(self):
        # m or s past one block, in both orders; a rectangle of m = B + 1
        # rows has a last row block of one row, which joins the block before,
        # and one of m = 1 row is a dot product
        B, W = self.B, self.W
        sizes = [(a, 37) for a in (B - 1, B, B + 1, B + W + 1, 2 * B + 5)] + [(B + 1, 2 * B + 5), (1, B + 1)]
        run_pinned(
            "import numpy as np\n"
            "from test_sdkernel import _cross_rectangle, _rectangle\n"
            f"for m, s in {sizes + [(s, m) for m, s in sizes]}:\n"
            "    deltas = np.random.default_rng(m + 7 * s).normal(size=(m + s, 2)) * (1.5 / (m + s)) ** 0.5\n"
            "    for implicit in (False, True):\n"
            "        expected = _cross_rectangle(deltas[:m], deltas[m:], implicit)\n"
            "        assert np.array_equal(_rectangle(deltas[:m], deltas[m:], implicit), expected), (m, s, implicit)\n"
        )

    def test_a_last_block_of_one_column_joins_the_block_before(self):
        assert [backend._row_blocks(w) for w in (1, 2, self.B, self.B + 1, self.B + 2)] == [1, 1, 1, 1, 2]

    @pytest.mark.parametrize("solver, size", [(solve_explicit, 1e100), (solve_explicit, 1e200), (solve_implicit, 1e200)])
    def test_overflow_past_one_block_is_a_numeric_error(self, solver, size):
        deltas = np.zeros((self.B + 1, 1))
        deltas[::2], deltas[1::2] = size, -size
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError):
                solver(IncrementSequence(deltas))

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_gram_entries_past_one_block_equal_k_sd(self, scheme):
        # 20 segments at dyadic order 4: own grids of 320 jumps, each solved alone
        gamma, sigma = make_piecewise_linear(50, 20, 2, 0.5), make_piecewise_linear(51, 20, 2, 0.5)
        values = grid_gram((gamma,), (gamma, sigma), scheme, dyadic_order=4)
        assert values[0, 0] == k_sd(gamma, gamma, scheme, dyadic_order=4)
        assert values[0, 1] == k_sd(gamma, sigma, scheme, dyadic_order=4)

    def test_a_grid_past_one_block_is_batched_alone(self):
        # two grids of B + 1 >= 182 rows pass the batch budget, so block edges never depend on a stack
        assert self.B >= 181 and 2 * 182**2 > backend._BATCH_CELLS
        sizes = [300, 257, 182, 181, 181, 90, 257, 3, 256, 2, 200, 200]
        for batch in backend._batched((s * s, s) for s in sizes):
            assert len(batch) == 1 or max(batch) <= self.B


class TestGridBudget:
    def test_budget_is_on_the_cells_of_the_pair_grid(self, monkeypatch):
        segment = line([1.0])  # 2 jumps at dyadic order 1, own grids of 9 cells
        monkeypatch.setattr(backend, "_GRID_CELLS", 25)  # the pair's n = 2 + 2, (n+1)^2 = 25
        assert grid_gram((segment,), (segment,), "explicit", dyadic_order=1)[0, 0] == k_sd(
            segment, segment, "explicit", dyadic_order=1
        )

        def pair_values(*args):
            raise AssertionError("solved past the budget")

        monkeypatch.setattr(backend, "_GRID_CELLS", 24)
        monkeypatch.setattr(backend, "_pair_values", pair_values)  # refused before any Gram is formed
        for scheme in ("explicit", "implicit"):
            with pytest.raises(ResourceLimitError, match="n = 4 .* 24 cell budget"):
                grid_gram((segment,), (segment,), scheme, dyadic_order=1)


class TestGridInvariants:
    def test_diagonal_is_exactly_one(self):
        rng = np.random.default_rng(1)
        incs = IncrementSequence(rng.normal(size=(12, 2)) * 0.2)
        for grid in (solve_explicit(incs), solve_implicit(incs)):
            assert np.all(grid.values.diagonal() == 1.0)

    def test_zero_increment_insertion_is_exact_noop(self):
        rng = np.random.default_rng(2)
        deltas = rng.normal(size=(7, 2)) * 0.2
        for position in (0, 3, 7):
            padded = np.insert(deltas, position, 0.0, axis=0)
            for solver in (solve_explicit, solve_implicit):
                assert (
                    solver(IncrementSequence(deltas)).final
                    == solver(IncrementSequence(padded)).final
                )

    def test_bounded_for_small_variation(self):
        for seed in range(6):
            p = make_piecewise_linear(seed, 8, 2, 1.0)
            part = dyadic_refine(Partition(p.times), 3)
            incs = piecewise_constant_increments(p, part)
            mesh = max(
                one_variation(p, (a, b)) for a, b in zip(part.knots[:-1], part.knots[1:])
            )
            for solver in (solve_explicit, solve_implicit):
                value = solver(incs).final
                assert -1.0 - 10.0 * mesh <= value <= 1.0 + 10.0 * mesh

    def test_convergence_bound_on_line(self):
        ref = exact_straight_line(1.0, 0.0, 1.0)
        for order in range(0, 8):
            value = solve_explicit(unit_line_increments(order)).final
            bound = 16.0 * math.exp(4.0) * 2.0 ** (-order)
            assert abs(value - ref) <= bound

    def test_convergence_bound_against_series(self):
        p = make_piecewise_linear(12, 6, 2, 0.5)
        ref = series_oracle(p, tol=1e-10).value
        var = one_variation(p)
        for order in (1, 3):
            part = dyadic_refine(Partition(p.times), order)
            value = solve_explicit(piecewise_constant_increments(p, part)).final
            max_piece = max(
                one_variation(p, (a, b)) for a, b in zip(part.knots[:-1], part.knots[1:])
            )
            assert abs(value - ref) <= 16.0 * var * math.exp(4.0 * var) * max_piece

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            SolutionGrid(np.array([[1.0, 0.5], [0.0, 0.9]]))
        with pytest.raises(DomainError):
            SolutionGrid(np.array([[1.0, 0.5]]))
        assert SolutionGrid(np.array([[1.0, 0.5], [0.0, 1.0]])).final == 0.5
        grid = solve_explicit(IncrementSequence(np.ones((2, 1)) * 0.1))
        with pytest.raises(DomainError):
            grid.value(2, 1)


class TestExactStraightLine:
    def test_limit_at_zero(self):
        assert exact_straight_line(0.0, 0.0, 1.0) == 1.0
        assert exact_straight_line(1.0, 0.3, 0.3) == 1.0

    def test_value_at_one(self):
        got = exact_straight_line(1.0, 0.0, 1.0)
        assert got == pytest.approx(J1_AT_TWO, abs=1e-12)
        assert got == pytest.approx(scipy.special.j1(2.0), abs=1e-12)

    def test_catalan_series_identity(self):
        for x in np.linspace(0.0, 2.0, 9):
            series = sum(
                (-1) ** k * catalan(k) * x ** (2 * k) / math.factorial(2 * k)
                for k in range(21)
            )
            assert semicircle_charfn(x) == pytest.approx(series, abs=1e-12)

    @pytest.mark.parametrize("x", [10.0, 20.0, 30.0, -20.0])
    def test_large_argument_matches_bessel(self, x):
        # the alternating power series cancels catastrophically out here
        assert semicircle_charfn(x) == pytest.approx(scipy.special.j1(2.0 * x) / x, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            exact_straight_line(-1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            exact_straight_line(1.0, 1.0, 0.0)


class TestSeriesOracle:
    def test_constant_path_is_exactly_one(self):
        c = Path([0.0, 2.0], [[1.0, 1.0], [1.0, 1.0]])
        res = series_oracle(c, tol=1e-12)
        assert res.value == 1.0
        assert res.level == 0

    def test_matches_bessel_on_line(self):
        res = series_oracle(line([1.0]), tol=1e-10)
        assert abs(res.value - exact_straight_line(1.0, 0.0, 1.0)) <= 1e-9
        assert abs(res.value - J1_AT_TWO) <= res.tail_bound + 1e-15

    def test_tree_like_path_gives_one(self):
        p = make_piecewise_linear(7, 5, 2, 0.4)
        y = concat_reverse(p, p)
        assert series_oracle(y, tol=1e-8).value == pytest.approx(1.0, abs=1e-8)

    def test_direction_invariance_on_lines(self):
        # kernel of a straight line depends only on its speed
        a = series_oracle(line([0.6, 0.8]), tol=1e-10).value
        b = series_oracle(line([1.0]), tol=1e-10).value
        assert a == pytest.approx(b, abs=1e-10)

    def test_tail_not_achievable(self):
        big = line([4.0])
        with pytest.raises(ResourceLimitError) as err:
            series_oracle(big, tol=1e-10)
        assert "achievable" in str(err.value)

    def test_tol_must_be_positive(self):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="tol must be positive"):
                series_oracle(line([1.0]), tol=tol)
            with pytest.raises(DomainError, match="tol must be positive"):
                sdkernel.series_gram([line([1.0])], [line([0.5])], tol=tol)

    def test_tail_bound_decreases(self):
        assert series_tail_bound(1.0, 8) > series_tail_bound(1.0, 12) > 0.0
        assert series_tail_bound(0.0, 0) == 0.0


class TestKsd:
    def test_same_path_series(self):
        p = make_piecewise_linear(21, 6, 2, 0.8)
        assert k_sd(p, p, "series", tol=1e-6) == pytest.approx(1.0, abs=1e-6)

    def test_constant_pair_any_scheme(self):
        c1 = Path([0.0, 1.0], [[0.2], [0.2]])
        c2 = Path([0.0, 1.0, 2.0], [[-1.0], [-1.0], [-1.0]])
        for scheme in ("explicit", "implicit", "series"):
            assert k_sd(c1, c2, scheme) == pytest.approx(1.0, abs=1e-12)

    def test_cross_scheme_agreement_on_lines(self):
        gamma = line([0.4, 0.2])
        sigma = line([0.1, 0.5])
        ref = k_sd(gamma, sigma, "series", tol=1e-8)
        assert k_sd(gamma, sigma, "explicit", dyadic_order=7) == pytest.approx(ref, abs=2e-3)
        assert k_sd(gamma, sigma, "implicit", dyadic_order=7) == pytest.approx(ref, abs=2e-3)

    def test_mesh_refinement_argument(self):
        p = make_piecewise_linear(33, 5, 2, 0.6)
        got = k_sd(p, p, "explicit", mesh=0.01)
        assert got == pytest.approx(1.0, abs=0.05)

    def test_unknown_scheme(self):
        with pytest.raises(DomainError):
            k_sd(line([1.0]), line([1.0]), "magic")

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            k_sd(line([1.0]), line([1.0, 0.0]))


def concatenation_route(gamma, sigma, scheme, mesh=None, dyadic_order=0):
    """The grid value through the path gamma * <-sigma: its knots refined,
    then interpolated, as the grid kernels computed it before each path's
    increments were divided in place."""
    y = concat_reverse(gamma, sigma)
    if mesh is not None:
        partition = refine_to_variation(y, mesh)
    else:
        partition = dyadic_refine(Partition(y.times), dyadic_order)
    solver = solve_explicit if scheme == "explicit" else solve_implicit
    return solver(piecewise_constant_increments(y, partition)).final


class TestRefinedOnce:
    """Grid kernels join per-path refined increments."""

    PATHS = tuple(make_piecewise_linear(seed, 6, 2, v) for seed, v in ((40, 0.4), (41, 0.9), (42, 0.65)))

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_values_match_the_concatenation_route(self, scheme):
        for gamma in self.PATHS:
            for sigma in self.PATHS:
                for mesh in (0.02, 0.1):
                    got = k_sd(gamma, sigma, scheme, mesh=mesh)
                    assert abs(got - concatenation_route(gamma, sigma, scheme, mesh=mesh)) <= 1e-13
                for order in (0, 2, 4):
                    got = k_sd(gamma, sigma, scheme, dyadic_order=order)
                    assert abs(got - concatenation_route(gamma, sigma, scheme, dyadic_order=order)) <= 1e-13
            values = grid_gram(self.PATHS, self.PATHS[::-1], scheme, 0.05)
            for i, a in enumerate(self.PATHS):
                for j, b in enumerate(self.PATHS[::-1]):
                    assert abs(values[i, j] - concatenation_route(a, b, scheme, mesh=0.05)) <= 1e-13

    @pytest.mark.parametrize("two_samples", [False, True])
    def test_gram_refines_each_path_once_and_builds_no_path(self, monkeypatch, two_samples):
        refined, built = [], []

        def counted_refine(path, *args):
            refined.append(path)
            return paths._refined_deltas(path, *args)

        monkeypatch.setattr(sdkernel, "_refined_deltas", counted_refine)
        for cls in (paths.Path, paths.Partition, paths.IncrementSequence):
            def counted_init(self, _init=cls.__post_init__):
                built.append(type(self).__name__)
                _init(self)

            monkeypatch.setattr(cls, "__post_init__", counted_init)
        rows = self.PATHS
        columns = self.PATHS[:2] if two_samples else rows
        grid_gram(rows, columns, "implicit", 0.05)
        assert built == []
        assert refined == list(rows) + (list(columns) if two_samples else [])
        k_sd(rows[0], columns[0], "implicit", mesh=0.05)  # the one-pair route builds none either
        assert built == []
        IncrementSequence(np.zeros((1, 2)))  # the probe is live
        assert built == ["IncrementSequence"]



def segments_path(seed, segments, dim=2):
    """A path of the given segment count whose segments stay one jump each
    at mesh 1.0; no segments gives a one-point path."""
    if segments == 0:
        return Path([0.0], np.full((1, dim), 0.1 * seed))
    return make_piecewise_linear(seed, segments, dim, 0.3)


class TestSplitGrids:
    """A pair's grid as gamma's own triangle, <-sigma's own triangle and the
    rectangle between them (``backend._pair_values``, which ``k_sd`` runs)."""

    @pytest.mark.parametrize("m", [0, 1, 2, 17, 40, 300])
    @pytest.mark.parametrize("s", [0, 1, 2, 17, 40, 300])
    def test_own_grids_and_rectangle_match_the_full_grid(self, m, s):
        deltas = np.random.default_rng(100 * m + s).normal(size=(m + s, 2)) * 0.1
        gamma, sigma = deltas[:m], deltas[m:]
        for implicit, loop in ((False, _column_loop), (True, _row_loop)):
            row, column = backend._sides([gamma, sigma], implicit, np.empty(0))
            got = np.zeros((m + s + 1,) * 2)
            got[: m + 1, : m + 1] = row.grid
            got[m:, m:] = column.grid
            for _, rectangle in backend._rectangles({0: row, 1: column}, [(0, 1)], implicit, np.empty(0)):
                got[:m, m + 1 :] = rectangle
            expected = loop(deltas @ deltas.T)
            # past one block, at roundoff of the grid's largest cell (about 1e4 at m = s = 300 left-point)
            tol = 1e-13 * (np.abs(expected).max() if max(m, s) >= 300 else 1.0)
            assert np.abs(got - expected).max() <= tol

    @pytest.fixture()
    def rectangles(self, monkeypatch):
        """Sizes of each rectangle batch, in order."""
        sizes = []

        def recorded(grams, batch_sizes, implicit, grids, _grids=backend._grids):
            if batch_kind(grams) == "cross":
                sizes.append(list(batch_sizes))
            return _grids(grams, batch_sizes, implicit, grids)

        monkeypatch.setattr(backend, "_grids", recorded)
        return sizes

    @staticmethod
    def assert_equals_k_sd(rows, columns, scheme, values):
        # a one-sample Gram mirrors its upper triangle
        for i in range(len(rows)):
            for j in range(len(columns)):
                gamma, sigma = (rows[j], columns[i]) if columns is rows and i > j else (rows[i], columns[j])
                assert values[i, j] == k_sd(gamma, sigma, scheme, mesh=1.0)

    def test_left_point_batches_mix_several_s(self, rectangles):
        rows = tuple(segments_path(seed, 5) for seed in (1, 2))
        columns = tuple(segments_path(seed, s) for seed, s in ((3, 3), (4, 12), (5, 7), (6, 12), (7, 1)))
        values = grid_gram(rows, columns, "explicit", 1.0)
        # one batch for m = 5, its pairs' s largest first
        assert rectangles == [[12, 12, 12, 12, 7, 7, 3, 3, 1, 1]]
        self.assert_equals_k_sd(rows, columns, "explicit", values)

    def test_right_point_batches_mix_several_m(self, rectangles):
        rows = tuple(segments_path(seed, m) for seed, m in ((1, 3), (2, 12), (3, 7), (4, 12), (5, 1)))
        columns = tuple(segments_path(seed, 5) for seed in (6, 7))
        values = grid_gram(rows, columns, "implicit", 1.0)
        # one batch for s = 5, its pairs' m largest first
        assert rectangles == [[12, 12, 12, 12, 7, 7, 3, 3, 1, 1]]
        self.assert_equals_k_sd(rows, columns, "implicit", values)

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_later_batches_of_a_key_take_more_pairs_within_the_budget(self, rectangles, scheme):
        # one key, 5 jumps, against 16 paths of 60 jumps, then 30 of 10: a slot of
        # (5 + 60 + 1) * 61 = 4026 cells fills 16 to a batch, one of 16 * 11 = 176 takes all 30
        key = (segments_path(1, 5),)
        others = tuple(segments_path(seed, 60 if seed < 18 else 10) for seed in range(2, 48))
        rows, columns = (others, key) if scheme == "implicit" else (key, others)
        values = grid_gram(rows, columns, scheme, 1.0)
        assert rectangles == [[60] * 16, [10] * 30]
        for batch in rectangles:
            assert len(batch) * (5 + batch[0] + 1) * (max(5, batch[0]) + 1) <= backend._BATCH_CELLS
        assert 17 * 4026 > backend._BATCH_CELLS
        for k, other in enumerate(others[15:17]):  # the last pair of the first batch, the first of the second
            gamma, sigma = (other, key[0]) if scheme == "implicit" else (key[0], other)
            assert values.flat[15 + k] == k_sd(gamma, sigma, scheme, mesh=1.0)

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_one_point_paths_on_either_side(self, rectangles, scheme):
        point, other = segments_path(1, 0), segments_path(2, 0)
        paths = (point, segments_path(3, 4), other, segments_path(4, 9))
        for columns in (paths[::-1], paths):
            rectangles.clear()
            values = grid_gram(paths, columns, scheme, 1.0)
            # only the pairs of the two paths with jumps solve a rectangle
            assert sum(map(len, rectangles)) == (4 if columns is not paths else 3)
            points = [j for j, path in enumerate(columns) if path is point or path is other]
            assert values[np.ix_([0, 2], points)].tolist() == [[1.0, 1.0], [1.0, 1.0]]
            self.assert_equals_k_sd(paths, columns, scheme, values)

    @pytest.fixture()
    def own(self, monkeypatch):
        """(side, path) of every own grid solved, the side "row" or "column"
        by which of ``_pair_values``' arrays the path's jumps came from, and
        the slots of each ``_grids`` batch of own grids."""
        solved, slots, side_of = [], [], {}

        def labelled_pairs(rows, columns, pairs, implicit, _pair_values=backend._pair_values):
            side_of.update({id(deltas): "row" for deltas in rows} | {id(deltas): "column" for deltas in columns})
            return _pair_values(rows, columns, pairs, implicit)

        def counted_sides(paths, implicit, workspace, _sides=backend._sides):
            solved.extend((side_of[id(deltas)], id(deltas)) for deltas in paths)
            return _sides(paths, implicit, workspace)

        def counted_grids(grams, sizes, implicit, grids, _grids=backend._grids):
            if batch_kind(grams) == "own":
                slots.append(len(sizes))
            return _grids(grams, sizes, implicit, grids)

        monkeypatch.setattr(backend, "_pair_values", labelled_pairs)
        monkeypatch.setattr(backend, "_sides", counted_sides)
        monkeypatch.setattr(backend, "_grids", counted_grids)
        return solved, slots

    ROWS = tuple(segments_path(seed, n) for seed, n in ((10, 6), (11, 0), (12, 9), (13, 3)))
    COLUMNS = tuple(segments_path(seed, n) for seed, n in ((14, 8), (15, 2), (16, 5)))

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("two_samples", [False, True])
    def test_each_own_grid_is_solved_once_per_gram_and_side(self, own, scheme, two_samples):
        solved, slots = own
        columns = self.COLUMNS if two_samples else self.ROWS
        grid_gram(self.ROWS, columns, scheme, 1.0)
        assert Counter(side for side, _ in solved) == {"column": len(columns), "row": len(self.ROWS)}
        assert len(set(solved)) == len(solved)
        # both sides' own grids are one batch of the existing grid solver
        assert slots == [len(columns) + len(self.ROWS)]

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("two_samples", [False, True])
    def test_a_small_own_grid_budget_gives_the_same_values(self, own, monkeypatch, scheme, two_samples):
        solved, _ = own
        columns = self.COLUMNS if two_samples else self.ROWS
        expected = grid_gram(self.ROWS, columns, scheme, 1.0)
        solved.clear()
        # every path is a chunk of its own: the side with fewer chunks (rows on a tie) is held, each
        # held path solved once, and each pair solves its streamed path
        monkeypatch.setattr(backend, "_OWN_CELLS", 1)
        assert grid_gram(self.ROWS, columns, scheme, 1.0).tobytes() == expected.tobytes()
        if two_samples:
            assert Counter(side for side, _ in solved) == {"row": 12, "column": 3}
        else:
            assert Counter(side for side, _ in solved) == {"row": 4, "column": 10}
        # a budget whose chunks hold the column side whole, at 2 (n+1)^2 cells a side: the rows
        # (n + 1 = 7, 1, 10, 4) fit one chunk of 4 * 10^2 cells, or take two of 3 * 9^2 cells
        # against COLUMNS (n + 1 = 9, 3, 6); either way every own grid is solved once
        solved.clear()
        largest = max(len(paths._refined_deltas(p, 1.0)) + 1 for p in columns)
        monkeypatch.setattr(backend, "_OWN_CELLS", 2 * len(columns) * largest**2)
        assert grid_gram(self.ROWS, columns, scheme, 1.0).tobytes() == expected.tobytes()
        assert Counter(side for side, _ in solved) == {"row": len(self.ROWS), "column": len(columns)}


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_explicit_equals_iss_contraction_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 6))
    deltas = rng.normal(size=(n, 2)) * 0.4
    lhs = solve_explicit(IncrementSequence(deltas)).final
    assert lhs == pytest.approx(moment_iss_contraction(deltas), abs=1e-10)


def pairing_count_table(dim, length):
    """phi(I) over words of one even length: each non-crossing pairing adds
    1 to the words whose paired letters agree."""
    table = np.zeros(dim**length)
    letters = np.arange(dim)
    for partition in nc2_enumerate(length):
        index = np.zeros(1, dtype=np.int64)
        for i, j in partition.sorted_pairs():
            index = (index[:, None] + letters * (dim ** (length - i) + dim ** (length - j))).ravel()
        table[index] += 1.0
    return table


@pytest.mark.parametrize("dim, level", [(1, 12), (2, 12), (3, 8)])
def test_moment_tables_equal_pairing_counts(dim, level):
    tables = sdkernel._moment_tables(dim, level)
    assert sorted(tables) == list(range(0, level + 1, 2))
    for m in range(2, level + 1, 2):
        assert tables[m].tobytes() == pairing_count_table(dim, m).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_series_oracle_is_the_series_kernel_against_a_point(dim):
    path = make_piecewise_linear(60 + dim, 7, dim, 1.0)
    point = Path([0.0], np.full((1, dim), 0.3))
    oracle = series_oracle(path, tol=1e-8)
    pair = sdkernel.series_kernel(path, point, tol=1e-8)
    assert oracle.level == pair.level
    assert abs(oracle.value - pair.value) <= 1e-14
    assert abs(oracle.tail_bound - pair.tail_bound) <= 1e-14
