import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdev import (
    DomainError,
    IncrementSequence,
    Partition,
    Path,
    ResourceLimitError,
    concat_reverse,
    dyadic_refine,
    gen_fbm,
    one_variation,
    piecewise_constant_increments,
    read_path_csv,
    read_paths_jsonl,
    refine_to_variation,
    scaled,
    truncated_signature,
    write_path_csv,
    write_paths_jsonl,
)
from sigdev.paths import _finite_deltas, _refined_deltas
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

    def test_time_steps_that_overflow_are_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="time steps must be finite"):
                Path([-1e308, 1e308], [[0.0], [1.0]])
            with pytest.raises(DomainError, match="knot steps must be finite"):
                Partition([-1e308, 1e308])
            with pytest.raises(DomainError, match="knots must be strictly increasing"):
                Partition([1e308, -1e308])
            # the widest steps that do not overflow are accepted
            assert Path([-8e307, 8e307], [[0.0], [1.0]]).end_time == 8e307
            assert len(Partition([-8e307, 8e307])) == 2

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

    def test_a_length_too_large_to_square_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert one_variation(Path([0.0, 1.0], [[1e200, 0.0], [0.0, 1e200]])) == np.inf

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
        assert len(y.times) == 4
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
        # translated to gamma's endpoint, sigma adds nothing
        assert np.array_equal(y.points, gamma.points)
        assert np.array_equal(y.times, gamma.times)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            concat_reverse(line([1.0]), line([1.0, 0.0]))

    def test_times_strictly_increase(self):
        gamma = make_piecewise_linear(5, 4, 2, 1.0)
        sigma = make_piecewise_linear(6, 3, 2, 1.0)
        y = concat_reverse(gamma, sigma)
        assert np.all(np.diff(y.times) > 0)

    def test_no_zero_length_segment(self):
        for seed in range(8):
            gamma = make_piecewise_linear(seed, 4, 2, 1.0)
            sigma = make_piecewise_linear(seed + 100, 3, 2, 1.0)
            y = concat_reverse(gamma, sigma)
            assert len(y.times) == len(gamma.times) + len(sigma.times) - 1
            assert np.all(np.linalg.norm(np.diff(y.points, axis=0), axis=1) > 0)


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

    def test_overflowing_difference_is_refused_without_a_warning(self):
        path = Path([0.0, 1.0], [[-1e308], [1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                piecewise_constant_increments(path, Partition([0.0, 1.0]))

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
        for mesh in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                refine_to_variation(line([1.0]), mesh)

    def test_mesh_too_fine_for_any_partition(self):
        with pytest.raises(ResourceLimitError):
            refine_to_variation(line([1.0]), 1e-300)

    def test_knots_equal_segment_by_segment_loop(self):
        def loop_knots(path, max_variation):
            knots = [path.times[0]]
            for k in range(len(path.times) - 1):
                a, b = path.times[k], path.times[k + 1]
                seg = float(np.linalg.norm(path.points[k + 1] - path.points[k]))
                splits = max(1, int(np.ceil(seg / max_variation)))
                knots.extend(a + (b - a) * (j + 1) / splits for j in range(splits))
            return np.asarray(knots)

        rng = np.random.default_rng(8)
        paths = [Path([0.5], [[1.0, 2.0]])]
        for n_points, dim in ((2, 1), (5, 2), (17, 3), (40, 2), (9, 5)):
            times = np.cumsum(rng.uniform(0.01, 1.0, size=n_points)) - 0.7
            points = rng.normal(size=(n_points, dim)) * rng.uniform(0.05, 2.0)
            paths.append(Path(times, points))
        # a zero-length segment, and one whose variation is exactly 3 meshes
        paths.append(Path([0.0, 0.25, 1.0, 2.0], [[0.0, 0.0], [0.0, 0.0], [0.3, 0.4], [0.0, 0.0]]))
        for path in paths:
            for mesh in (0.5 / 3, 0.02, 0.1, 1.0, 10.0):
                got = refine_to_variation(path, mesh).knots
                expected = loop_knots(path, mesh)
                assert got.shape == expected.shape and np.all(got == expected)
        assert len(refine_to_variation(paths[-1], 0.5 / 3).knots) == 1 + 1 + 3 + 3
        # a mesh equal to a segment's norm, or one ulp below it, turns a
        # last-bit difference in that norm into a different split count
        path = Path(np.arange(61.0), rng.normal(size=(61, 3)))
        for norm in np.linalg.norm(np.diff(path.points, axis=0), axis=1):
            for mesh in (norm, np.nextafter(norm, 0.0)):
                assert np.all(refine_to_variation(path, mesh).knots == loop_knots(path, mesh))


class TestRefinedDeltas:
    """_refined_deltas: each segment's increment divided into equal jumps."""

    @staticmethod
    def paths():
        rng = np.random.default_rng(31)
        out = [make_piecewise_linear(seed, 7, 2, 1.3) for seed in (1, 2)]
        out.append(Path(np.cumsum(rng.uniform(0.1, 1.0, 12)), rng.normal(size=(12, 3))))
        # a zero-length segment, and one whose variation is exactly 3 meshes
        out.append(Path([0.0, 0.25, 1.0, 2.0], [[0.0, 0.0], [0.0, 0.0], [0.3, 0.4], [0.0, 0.0]]))
        return out

    @pytest.mark.parametrize("mesh", [0.5 / 3, 0.02, 0.1, 10.0])
    def test_counts_equal_refine_to_variation_per_segment(self, mesh):
        for path in self.paths():
            knots = refine_to_variation(path, mesh).knots
            # knots in (t[k], t[k+1]]: segment k's parts
            splits = np.diff(np.searchsorted(knots, path.times, side="right"))
            deltas = np.diff(path.points, axis=0)
            expected = np.repeat(deltas / splits[:, None], splits, axis=0)
            assert np.array_equal(_refined_deltas(path, mesh), expected)

    @pytest.mark.parametrize("mesh", [0.02, 0.1])
    def test_equals_interpolated_increments_to_rounding(self, mesh):
        # interpolation at the knots rounds at the scale of the points
        for path in self.paths():
            tol = 1e-14 * np.abs(path.points).max(initial=1.0)
            old = piecewise_constant_increments(path, refine_to_variation(path, mesh)).deltas
            assert np.abs(_refined_deltas(path, mesh) - old).max() <= tol
            for order in range(5):
                old = piecewise_constant_increments(path, dyadic_refine(Partition(path.times), order)).deltas
                assert np.abs(_refined_deltas(path, dyadic_order=order) - old).max() <= tol

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0.01, 0.07, 0.3]), st.integers(0, 6))
    def test_sum_equals_displacement(self, seed, mesh, order):
        p = make_piecewise_linear(seed, 6, 2, 1.5)
        for deltas in (_refined_deltas(p, mesh), _refined_deltas(p, dyadic_order=order)):
            assert np.abs(deltas.sum(axis=0) - p.displacement).max() <= 1e-13

    def test_next_order_is_this_order_halved_and_repeated(self):
        for path in self.paths():
            deltas = _refined_deltas(path, dyadic_order=0)
            assert np.array_equal(deltas, np.diff(path.points, axis=0))
            for order in range(1, 8):
                halved = np.repeat(deltas / 2.0, 2, axis=0)
                deltas = _refined_deltas(path, dyadic_order=order)
                assert np.array_equal(deltas, halved)

    def test_a_path_past_the_grid_budget_is_refused_before_its_jumps_are_formed(self):
        # (n+1)^2 cells for the path's own grid of n jumps
        for kwargs, n in (({"mesh": 0.25}, 4), ({"dyadic_order": 2}, 4)):
            assert len(_refined_deltas(line([1.0]), max_cells=25, **kwargs)) == n
            with pytest.raises(ResourceLimitError, match="n = 4 .* 24 cell budget"):
                _refined_deltas(line([1.0]), max_cells=24, **kwargs)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                _refined_deltas(line([1.0, 1.0]), 1e-12, max_cells=2**28)
            with pytest.raises(ResourceLimitError):
                _refined_deltas(line([1.0, 1.0]), dyadic_order=40, max_cells=2**28)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_one_point_and_zero_length_segments(self):
        point = Path([0.5], [[1.0, 2.0]])
        for deltas in (_refined_deltas(point, 0.1), _refined_deltas(point, dyadic_order=3)):
            assert deltas.shape == (0, 2)
        still = Path([0.0, 1.0, 2.0], [[1.0], [1.0], [3.0]])
        assert _refined_deltas(still, 0.5).tolist() == [[0.0], [0.5], [0.5], [0.5], [0.5]]
        assert _refined_deltas(still, dyadic_order=1).tolist() == [[0.0], [0.0], [1.0], [1.0]]

    def test_bad_mesh_or_order(self):
        for mesh in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                _refined_deltas(line([1.0]), mesh)
        for order in (-1, 0.5):
            with pytest.raises(DomainError):
                _refined_deltas(line([1.0]), dyadic_order=order)

    def test_too_many_parts_is_a_resource_error(self):
        # the 2^62 knot check of refine_to_variation, applied to one path
        with pytest.raises(ResourceLimitError):
            _refined_deltas(line([1.0]), 1e-300)
        with pytest.raises(ResourceLimitError):
            _refined_deltas(line([1.0]), dyadic_order=62)
        with pytest.raises(ResourceLimitError):
            _refined_deltas(line([1.0]), dyadic_order=10**9)
        assert _refined_deltas(Path([0.0], [[1.0]]), dyadic_order=10**9).shape == (0, 1)

    def test_overflowing_difference_is_a_domain_error(self):
        path = Path([0.0, 1.0], [[1e308], [-1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for kwargs in ({"mesh": 0.1}, {"dyadic_order": 2}):
                with pytest.raises(DomainError):
                    _refined_deltas(path, **kwargs)
            # every other read of a path's jumps refuses it the same way
            for read in (
                lambda p: _finite_deltas(p, (0.0, 0.75)),
                one_variation,
                lambda p: refine_to_variation(p, 0.1),
                truncated_signature,
                lambda p: truncated_signature(p, (0.0, 0.75)),
            ):
                with pytest.raises(DomainError, match="path increments must be finite"):
                    read(path)


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
        # ragged or non-numeric coordinates
        for bad in (
            '{"t": [0, 1], "x": [[1, 2], [3]]}',
            '{"t": [0, 1], "x": [["1"], ["q"]]}',
            '{"t": [0, [1]], "x": [[1], [2]]}',
            '{"t": [0, 1], "x": {"a": 1}}',
        ):
            with pytest.raises(DomainError, match="path coordinates must be numbers"):
                read_paths_jsonl(io.StringIO(bad + "\n"))


def test_scaled_scales_points():
    p = make_piecewise_linear(3, 4, 2, 1.0)
    q = scaled(p, 0.25)
    assert np.allclose(q.points, 0.25 * p.points, atol=0)
    assert one_variation(q) == pytest.approx(0.25, abs=1e-12)


def test_scaled_to_non_finite_points_is_refused_without_a_warning():
    p = make_piecewise_linear(3, 4, 2, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="finite"):
            scaled(p, np.inf)


def test_whole_span_read_equals_the_clipped_read():
    # ``_finite_deltas`` clips only for an explicit interval; clipping
    # interpolates at the end points, which np.interp returns exactly
    rng = np.random.default_rng(5)
    for k in range(600):
        n, dim = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        times = np.cumsum(rng.exponential(size=n + 1)) if k % 2 else np.linspace(0.0, 1.0, n + 1)
        path = Path(times + rng.normal(), rng.normal(size=(n + 1, dim)) * 10.0 ** rng.integers(-5, 5))
        whole = _finite_deltas(path)
        assert np.array_equal(whole, np.diff(path.points, axis=0))
        assert np.array_equal(whole, _finite_deltas(path, (path.start_time, path.end_time)))


def test_increment_sequence_validation():
    with pytest.raises(DomainError):
        IncrementSequence(np.array([[np.inf]]))
