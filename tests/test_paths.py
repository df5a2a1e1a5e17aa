import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdev import (
    DomainError,
    IncrementSequence,
    Partition,
    Path,
    concat_reverse,
    dyadic_refine,
    gen_fbm,
    one_variation,
    piecewise_constant_increments,
    read_path_csv,
    read_paths_jsonl,
    refine_to_variation,
    scaled,
    write_path_csv,
    write_paths_jsonl,
)
from helpers import make_piecewise_linear


def line(v, t0=0.0, t1=1.0):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return Path([t0, t1], np.vstack([np.zeros_like(v), v]))


class TestPathValidation:
    def test_times_must_increase(self):
        with pytest.raises(DomainError):
            Path([0.0, 0.0], [[0.0], [1.0]])

    def test_lengths_must_match(self):
        with pytest.raises(DomainError):
            Path([0.0, 1.0, 2.0], [[0.0], [1.0]])

    def test_finite_coordinates(self):
        with pytest.raises(DomainError):
            Path([0.0, 1.0], [[0.0], [np.nan]])

    def test_single_point_path_is_legal(self):
        p = Path([2.0], [[1.0, -1.0]])
        assert p.dim == 2
        assert one_variation(p) == 0.0

    def test_points_are_frozen(self):
        p = line([1.0, 2.0])
        with pytest.raises(ValueError):
            p.points[0, 0] = 5.0


class TestOneVariation:
    def test_straight_line_length(self):
        assert one_variation(line([3.0, 4.0]), (0.0, 1.0)) == 5.0

    def test_empty_interval(self):
        assert one_variation(line([3.0, 4.0]), (0.5, 0.5)) == 0.0

    def test_two_segments(self):
        p = Path([0.0, 0.5, 1.0], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert one_variation(p) == pytest.approx(2.0, abs=1e-15)

    def test_interval_outside_span(self):
        with pytest.raises(DomainError):
            one_variation(line([1.0]), (0.0, 1.5))
        with pytest.raises(DomainError):
            one_variation(line([1.0]), (0.7, 0.3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.01, 0.99))
    def test_additive_over_adjacent_intervals(self, seed, split):
        p = make_piecewise_linear(seed, 7, 2, 1.0)
        total = one_variation(p, (0.0, 1.0))
        parts = one_variation(p, (0.0, split)) + one_variation(p, (split, 1.0))
        assert abs(total - parts) <= 1e-12


class TestConcatReverse:
    def test_reversal_cancels(self):
        v = np.array([1.0, 2.0])
        y = concat_reverse(line(v), line(v))
        assert len(y.times) == 3
        assert np.allclose(y.points, [[0.0, 0.0], v, [0.0, 0.0]], atol=0)
        assert np.linalg.norm(y.displacement) == 0.0

    def test_endpoint_bookkeeping(self):
        gamma = Path([0.0, 0.5, 1.0], [[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
        sigma = Path([0.0, 1.0], [[5.0, 5.0], [6.0, 7.0]])
        y = concat_reverse(gamma, sigma)
        assert len(y.times) == 5
        expected = gamma.points[-1] - gamma.points[0] + sigma.points[0] - sigma.points[-1]
        assert np.allclose(y.displacement, expected, atol=1e-14)

    def test_single_point_sigma_at_endpoint(self):
        gamma = Path([0.0, 0.5, 1.0], [[0.0], [0.4], [1.0]])
        sigma = Path([3.0], [[1.0]])  # coincides with gamma's endpoint
        y = concat_reverse(gamma, sigma)
        assert np.array_equal(y.points, gamma.points)
        assert np.array_equal(y.times, gamma.times)

    def test_single_point_sigma_elsewhere(self):
        gamma = Path([0.0, 1.0], [[0.0], [1.0]])
        sigma = Path([3.0], [[9.0]])
        y = concat_reverse(gamma, sigma)
        assert len(y.times) == 3
        # translated to gamma's endpoint: a degenerate constant tail
        assert y.points[-1, 0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            concat_reverse(line([1.0]), line([1.0, 0.0]))

    def test_times_strictly_increase(self):
        gamma = make_piecewise_linear(5, 4, 2, 1.0)
        sigma = make_piecewise_linear(6, 3, 2, 1.0)
        y = concat_reverse(gamma, sigma)
        assert np.all(np.diff(y.times) > 0)


class TestIncrements:
    def test_single_interval(self):
        incs = piecewise_constant_increments(line([2.0, 1.0]), Partition([0.0, 1.0]))
        assert np.allclose(incs.deltas, [[2.0, 1.0]], atol=0)

    def test_linear_split(self):
        incs = piecewise_constant_increments(line([2.0, 1.0]), Partition([0.0, 0.5, 1.0]))
        assert np.allclose(incs.deltas, [[1.0, 0.5], [1.0, 0.5]], atol=1e-15)

    def test_own_knots_recover_differences(self):
        p = gen_fbm(0.75, 16, 1, seed=3)
        incs = piecewise_constant_increments(p, Partition(p.times))
        assert np.array_equal(incs.deltas, np.diff(p.points, axis=0))

    def test_partition_must_cover_span(self):
        with pytest.raises(DomainError):
            piecewise_constant_increments(line([1.0]), Partition([0.0, 0.5]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 3))
    def test_sum_equals_displacement(self, seed, order):
        p = make_piecewise_linear(seed, 5, 3, 1.3)
        incs = piecewise_constant_increments(p, dyadic_refine(Partition(p.times), order))
        assert np.abs(incs.total - p.displacement).max() <= 1e-12


class TestDyadicRefine:
    def test_single_split(self):
        assert np.array_equal(dyadic_refine(Partition([0.0, 1.0]), 1).knots, [0.0, 0.5, 1.0])

    def test_identity(self):
        assert np.array_equal(dyadic_refine(Partition([0.0, 1.0]), 0).knots, [0.0, 1.0])

    def test_order_two(self):
        refined = dyadic_refine(Partition([0.0, 0.5, 1.0]), 2)
        assert len(refined.knots) == 9
        assert np.allclose(np.diff(refined.knots), 0.125, atol=0)

    def test_negative_order(self):
        with pytest.raises(DomainError):
            dyadic_refine(Partition([0.0, 1.0]), -1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3))
    def test_composition_is_exact(self, a, b):
        part = Partition([0.0, 0.3, 0.45, 1.0])
        lhs = dyadic_refine(part, a + b).knots
        rhs = dyadic_refine(dyadic_refine(part, a), b).knots
        assert np.array_equal(lhs, rhs)


class TestRefineToVariation:
    def test_subintervals_below_target(self):
        p = make_piecewise_linear(9, 6, 2, 2.0)
        part = refine_to_variation(p, 0.05)
        for a, b in zip(part.knots[:-1], part.knots[1:]):
            assert one_variation(p, (a, b)) <= 0.05 + 1e-12

    def test_positive_mesh_required(self):
        with pytest.raises(DomainError):
            refine_to_variation(line([1.0]), 0.0)


class TestGenFbm:
    def test_deterministic(self):
        a = gen_fbm(0.75, 12, 2, seed=11)
        b = gen_fbm(0.75, 12, 2, seed=11)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, gen_fbm(0.75, 12, 2, seed=12).points)

    def test_grid_and_start(self):
        p = gen_fbm(0.5, 9, 3, seed=0)
        assert np.allclose(p.times, np.linspace(0, 1, 9), atol=0)
        assert np.all(p.points[0] == 0.0)

    def test_brownian_increment_covariance(self):
        # H = 1/2 makes increments independent with variance = spacing
        draws = np.array(
            [np.diff(gen_fbm(0.5, 3, 1, seed=s).points[:, 0]) for s in range(10_000)]
        )
        var = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 0.5) / 0.5 <= 0.05)
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) <= 0.05

    def test_two_point_variance(self):
        draws = np.array([gen_fbm(0.75, 2, 1, seed=s).points[1, 0] for s in range(4000)])
        assert abs(draws.var(ddof=1) - 1.0) <= 0.08

    def test_hurst_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                gen_fbm(bad, 8, 1, seed=0)
        with pytest.raises(DomainError):
            gen_fbm(0.5, 1, 1, seed=0)


class TestFileFormats:
    def test_csv_roundtrip(self, tmp_path):
        p = gen_fbm(0.6, 7, 3, seed=2)
        target = tmp_path / "p.csv"
        write_path_csv(p, target)
        text = target.read_text()
        assert text.splitlines()[0] == "t,x1,x2,x3"
        q = read_path_csv(target)
        assert np.array_equal(p.times, q.times)
        assert np.array_equal(p.points, q.points)

    def test_csv_bad_header(self):
        with pytest.raises(DomainError):
            read_path_csv(io.StringIO("a,b\n1,2\n"))

    def test_csv_ragged_row(self):
        with pytest.raises(DomainError):
            read_path_csv(io.StringIO("t,x1\n0.0,1.0\n1.0\n"))

    def test_jsonl_roundtrip(self, tmp_path):
        paths = [gen_fbm(0.7, 5, 2, seed=s) for s in (1, 2)]
        target = tmp_path / "s.jsonl"
        write_paths_jsonl(["a", "b"], paths, target)
        ids, back = read_paths_jsonl(target)
        assert ids == ["a", "b"]
        for p, q in zip(paths, back):
            assert np.array_equal(p.points, q.points)

    def test_jsonl_bad_line(self):
        with pytest.raises(DomainError):
            read_paths_jsonl(io.StringIO('{"id": "a"}\n'))


def test_scaled_scales_points():
    p = make_piecewise_linear(3, 4, 2, 1.0)
    q = scaled(p, 0.25)
    assert np.allclose(q.points, 0.25 * p.points, atol=0)
    assert one_variation(q) == pytest.approx(0.25, abs=1e-12)


def test_increment_sequence_validation():
    with pytest.raises(DomainError):
        IncrementSequence(np.array([[np.inf]]))
