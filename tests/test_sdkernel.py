import itertools
import math
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
    Path,
    ResourceLimitError,
    catalan,
    concat_reverse,
    dyadic_refine,
    exact_straight_line,
    iterated_sums_signature,
    k_sd,
    one_variation,
    piecewise_constant_increments,
    semicircle_charfn,
    semicircular_moment_fast,
    series_oracle,
    series_tail_bound,
    solve_explicit,
    solve_implicit,
)
from sigdev import backend
from sigdev.sdkernel import SolutionGrid
from helpers import make_piecewise_linear

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

    def test_triangular_solves_match_cell_recurrence(self, monkeypatch):
        rng = np.random.default_rng(4)
        deltas = rng.normal(size=(40, 2)) * 0.1
        deltas[[0, 17, 39]] = 0.0
        gram = deltas @ deltas.T
        size = len(deltas) + 1
        expected = np.eye(size)
        for b in range(1, size):
            for i in range(b - 1, -1, -1):
                acc = sum(expected[i, k] * expected[k, b] * gram[k - 1, b - 1] for k in range(i + 1, b))
                expected[i, b] = (expected[i, b - 1] - acc) / (1.0 + gram[b - 1, b - 1])
        # one block per column, then row blocks of 16 (edges at rows 24 and 8) and of 1
        for block in (backend._SOLVE_BLOCK, 16, 1):
            monkeypatch.setattr(backend, "_SOLVE_BLOCK", block)
            got = backend.implicit_grid(gram)
            assert np.abs(got - expected).max() <= 1e-13, block
            assert np.array_equal(got, backend.implicit_grid(gram))


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

    def test_partition_length_checked(self):
        with pytest.raises(DomainError):
            solve_explicit(IncrementSequence(np.ones((3, 1))), Partition([0.0, 1.0]))

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            SolutionGrid(Partition([0.0, 1.0]), np.array([[1.0, 0.5], [0.0, 0.9]]))
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


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_explicit_equals_iss_contraction_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 6))
    deltas = rng.normal(size=(n, 2)) * 0.4
    lhs = solve_explicit(IncrementSequence(deltas)).final
    assert lhs == pytest.approx(moment_iss_contraction(deltas), abs=1e-10)
