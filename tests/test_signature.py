import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdev import (
    DomainError,
    IncrementSequence,
    NumericError,
    Partition,
    Path,
    ResourceLimitError,
    TruncatedSignature,
    chen_product,
    concat_reverse,
    coordinate_coefficient,
    iterated_sums_signature,
    level_for_remainder,
    one_variation,
    piecewise_constant_increments,
    signature_kernel_truncated,
    truncated_signature,
)
from sigdev import signature
from sigdev.signature import _reverse_words, _sign_paths
from helpers import make_piecewise_linear


def line(v):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return Path([0.0, 1.0], np.vstack([np.zeros_like(v), v]))


class TestTruncatedSignature:
    def test_line_is_tensor_exponential(self):
        v = np.array([1.0, 2.0])
        sig = truncated_signature(line(v), level=3)
        assert sig.tensors[0][0] == 1.0
        assert np.allclose(sig.tensors[1], v, atol=0)
        assert np.allclose(sig.tensors[2], np.kron(v, v) / 2.0, atol=1e-15)
        assert np.allclose(sig.tensors[3], np.kron(np.kron(v, v), v) / 6.0, atol=1e-15)

    def test_constant_path(self):
        p = Path([0.0, 1.0, 2.0], [[0.5], [0.5], [0.5]])
        sig = truncated_signature(p, level=4)
        for m in range(1, 5):
            assert np.all(sig.tensors[m] == 0.0)

    def test_two_segment_chen_d1(self):
        a, b = 0.7, -0.3
        p = Path([0.0, 0.5, 1.0], [[0.0], [a], [a + b]])
        sig = truncated_signature(p, level=2)
        assert coordinate_coefficient(sig, (1,)) == pytest.approx(a + b, abs=1e-15)
        assert coordinate_coefficient(sig, (1, 1)) == pytest.approx((a + b) ** 2 / 2, abs=1e-15)

    def test_chen_consistency_over_subintervals(self):
        p = make_piecewise_linear(17, 8, 2, 1.2)
        whole = truncated_signature(p, (0.0, 1.0), 4)
        left = truncated_signature(p, (0.0, 0.41), 4)
        right = truncated_signature(p, (0.41, 1.0), 4)
        combined = chen_product(left, right)
        for m in range(5):
            assert np.abs(whole.tensors[m] - combined.tensors[m]).max(initial=0.0) <= 1e-10

    def test_collinear_midpoint_invariance(self):
        p = Path([0.0, 1.0], [[0.0, 0.0], [0.6, -0.8]])
        q = Path([0.0, 0.25, 1.0], [[0.0, 0.0], [0.15, -0.2], [0.6, -0.8]])
        sp = truncated_signature(p, level=5)
        sq = truncated_signature(q, level=5)
        for m in range(6):
            assert np.abs(sp.tensors[m] - sq.tensors[m]).max(initial=0.0) <= 1e-12

    def test_factorial_decay_bound(self):
        p = make_piecewise_linear(23, 10, 2, 2.0)
        sig = truncated_signature(p, level=6)
        var = one_variation(p)
        bound = 1.0
        for m in range(1, 7):
            bound *= var / m
            assert np.abs(sig.tensors[m]).max(initial=0.0) <= bound + 1e-9

    def test_storage_guard(self):
        p = make_piecewise_linear(1, 3, 10, 1.0)
        with pytest.raises(ResourceLimitError):
            truncated_signature(p, level=8)

    def test_level_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            truncated_signature(line([1.0]), level=-1)


def segment_exponential(inc, level):
    levels = [np.ones(1)]
    for m in range(1, level + 1):
        levels.append(np.multiply.outer(levels[-1], inc).ravel() / m)
    return TruncatedSignature(len(inc), level, tuple(levels))


def slow_signature(points, level):
    """Left-to-right Chen product of the segment exponentials."""
    dim = points.shape[1]
    sig = segment_exponential(np.zeros(dim), level)
    for inc in np.diff(points, axis=0):
        sig = chen_product(sig, segment_exponential(inc, level))
    return sig


def reverse(path):
    return Path(path.times, path.points[::-1])


def max_gap(a, b):
    return max(np.abs(x - y).max(initial=0.0) for x, y in zip(a.tensors, b.tensors))


class TestSignatureIdentities:
    def test_matches_chen_product_of_segment_exponentials(self):
        for seed, dim, level in ((1, 2, 6), (2, 3, 4), (3, 1, 9)):
            p = make_piecewise_linear(seed, 7, dim, 1.4)
            assert max_gap(truncated_signature(p, level=level), slow_signature(p.points, level)) <= 1e-14

    def test_matches_chen_product_on_clipped_interval(self):
        p = make_piecewise_linear(4, 6, 2, 1.1)
        s, t = 0.13, 0.87
        inner = p.points[(p.times > s) & (p.times < t)]
        clipped = np.vstack([p.evaluate(s)[None, :], inner, p.evaluate(t)[None, :]])
        got = truncated_signature(p, (s, t), 6)
        assert max_gap(got, slow_signature(clipped, 6)) <= 1e-14

    def test_reversal_map(self):
        for seed, dim in ((5, 2), (6, 3)):
            p = make_piecewise_linear(seed, 6, dim, 1.3)
            expected = truncated_signature(reverse(p), level=5).tensors
            got = truncated_signature(p, level=5).tensors
            for m in range(6):
                assert np.abs(_reverse_words(got[m][None, :], dim, m)[0] - expected[m]).max() <= 1e-14

    def test_concatenation_is_chen_product(self):
        gamma = make_piecewise_linear(7, 5, 2, 0.9)
        sigma = make_piecewise_linear(8, 6, 2, 0.7)
        whole = truncated_signature(concat_reverse(gamma, sigma), level=8)
        parts = chen_product(truncated_signature(gamma, level=8), truncated_signature(reverse(sigma), level=8))
        assert max_gap(whole, parts) <= 1e-13


class TestIteratedSums:
    def test_single_increment(self):
        iss = iterated_sums_signature(IncrementSequence(np.array([[1.0, 2.0]])), 2)
        assert np.allclose(iss.tensors[1], [1.0, 2.0], atol=0)
        assert np.all(iss.tensors[2] == 0.0)

    def test_pair_d1(self):
        a, b = 0.4, -0.9
        iss = iterated_sums_signature(IncrementSequence(np.array([[a], [b]])), 2)
        assert iss.tensors[1][0] == pytest.approx(a + b, abs=1e-15)
        assert iss.tensors[2][0] == pytest.approx(a * b, abs=1e-15)

    def test_empty_sequence(self):
        iss = iterated_sums_signature(IncrementSequence(np.zeros((0, 2))), 3)
        assert iss.tensors[0][0] == 1.0
        for m in range(1, 4):
            assert np.all(iss.tensors[m] == 0.0)

    def test_level_one_matches_continuous_displacement(self):
        p = make_piecewise_linear(31, 6, 1, 1.0)
        sig = truncated_signature(p, level=1)
        iss = iterated_sums_signature(
            piecewise_constant_increments(p, Partition(p.times)), 1
        )
        assert sig.tensors[1][0] == pytest.approx(iss.tensors[1][0], abs=1e-14)

    def test_signature_difference_bound(self):
        # level-m gap between a path and its piecewise-constant approximation
        for seed in (2, 9, 40):
            p = make_piecewise_linear(seed, 16, 2, 1.5)
            coarse = Partition(p.times[::4])
            incs = piecewise_constant_increments(p, coarse)
            sig = truncated_signature(p, level=4)
            iss = iterated_sums_signature(incs, 4)
            var = one_variation(p)
            max_piece = max(
                one_variation(p, (a, b))
                for a, b in zip(coarse.knots[:-1], coarse.knots[1:])
            )
            for m in (2, 3, 4):
                gap = np.linalg.norm(sig.tensors[m] - iss.tensors[m])
                bound = var ** (m - 1) / math.factorial(m - 2) * max_piece
                assert gap <= bound + 1e-12


class TestCoordinateCoefficient:
    def test_empty_word(self):
        sig = truncated_signature(line([3.0]), level=2)
        assert coordinate_coefficient(sig, ()) == 1.0

    def test_level_one_is_displacement(self):
        sig = truncated_signature(line([3.0, -1.0]), level=1)
        assert coordinate_coefficient(sig, (2,)) == pytest.approx(-1.0, abs=1e-15)

    def test_mixed_word(self):
        sig = truncated_signature(line([1.0, 2.0]), level=2)
        assert coordinate_coefficient(sig, (1, 2)) == pytest.approx(1.0, abs=1e-15)

    def test_word_too_long(self):
        sig = truncated_signature(line([1.0]), level=1)
        with pytest.raises(DomainError):
            coordinate_coefficient(sig, (1, 1))

    def test_letter_out_of_range(self):
        sig = truncated_signature(line([1.0]), level=1)
        with pytest.raises(DomainError):
            coordinate_coefficient(sig, (2,))


def per_path_features(paths, level):
    return [np.concatenate(truncated_signature(p, level=level).tensors) for p in paths]


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedSigning:
    """_sign_paths against one truncated_signature call per path, bit for bit."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """Sizes of the batches _sign_paths signs, in order."""
        sizes = []

        def recorded(incs, level, _sign=signature._sign_batch):
            sizes.append(len(incs))
            return _sign(incs, level)

        monkeypatch.setattr(signature, "_sign_batch", recorded)
        return sizes

    def assert_matches_per_path(self, paths, level):
        batched = _sign_paths(paths, [level] * len(paths))
        for got, expected in zip(batched, per_path_features(paths, level), strict=True):
            assert same_bits(got, expected)

    def test_ragged_sample(self):
        paths = [make_piecewise_linear(200 + k, segments, 2, 0.8) for k, segments in enumerate((1, 3, 4, 7, 4))]
        self.assert_matches_per_path(paths, 6)

    def test_interior_zero_increments(self, batches):
        # zero increments are dropped, so all three have 3 and share a batch
        stalled = Path([0.0, 0.2, 0.5, 0.7, 1.0], [[0.0, 0.0], [0.3, 0.1], [0.3, 0.1], [0.1, 0.4], [0.6, 0.2]])
        twice = Path(np.linspace(0.0, 1.0, 6), [[0.0, 0.0], [0.0, 0.0], [-0.2, 0.3], [-0.2, 0.3], [0.1, 0.1], [0.4, -0.2]])
        self.assert_matches_per_path([stalled, make_piecewise_linear(210, 3, 2, 0.9), twice], 7)
        assert batches[0] == 3

    def test_constant_coordinate(self):
        # increments (a, 0) with a < 0 make -0.0 products in the Horner update
        flat = Path([0.0, 0.4, 1.0], [[0.5, 2.0], [-0.1, 2.0], [-0.7, 2.0]])
        constant = Path([0.0, 1.0], [[1.0, -1.0], [1.0, -1.0]])
        self.assert_matches_per_path([flat, make_piecewise_linear(220, 2, 2, 0.7), constant], 6)

    def test_levels_differ_per_path(self):
        paths = [make_piecewise_linear(230 + k, 5, 2, 0.6) for k in range(4)]
        levels = [4, 9, 4, 0]
        for got, path, level in zip(_sign_paths(paths, levels), paths, levels, strict=True):
            assert same_bits(got, per_path_features([path], level)[0])

    def test_chunks_stay_within_tensor_cap(self, monkeypatch, batches):
        paths = [make_piecewise_linear(240 + k, 4, 2, 0.9) for k in range(5)]
        expected = per_path_features(paths, 6)
        batches.clear()
        monkeypatch.setattr(signature, "MAX_TENSOR_ENTRIES", 2 * 2**6)
        batched = _sign_paths(paths, [6] * 5)
        assert batches == [2, 2, 1]
        for got, want in zip(batched, expected, strict=True):
            assert same_bits(got, want)
        # in one dimension the scratch is the stack of L accumulators of one
        # coefficient each, not d^L = 1 entry
        lines = [make_piecewise_linear(245 + k, 4, 1, 0.9) for k in range(5)]
        expected = per_path_features(lines, 6)
        batches.clear()
        monkeypatch.setattr(signature, "MAX_TENSOR_ENTRIES", 2 * 6)
        batched = _sign_paths(lines, [6] * 5)
        assert batches == [2, 2, 1]
        for got, want in zip(batched, expected, strict=True):
            assert same_bits(got, want)

    def test_tensor_cap_still_refuses_a_level(self):
        with pytest.raises(ResourceLimitError):
            _sign_paths([make_piecewise_linear(250, 3, 10, 1.0)], [8])


def per_level_horner(incs, level):
    """Reference for ``_sign_batch``: the Horner chain of each level run to
    its end before the next, top level first, one segment at a time."""
    paths, count, dim = incs.shape
    features = np.zeros((paths, sum(dim**m for m in range(level + 1))))
    features[:, 0] = 1.0
    levels = np.split(features, np.cumsum([dim**m for m in range(level)]), axis=-1)
    for inc in incs.transpose(1, 0, 2):
        for m in range(level, 0, -1):
            acc = np.divide(inc, m)
            for k in range(1, m):
                total = levels[k] + acc
                acc = (total[:, :, None] * inc[:, None, :]).reshape(paths, -1)
                acc /= m - k
            levels[m] += acc
    return features


@pytest.mark.parametrize(
    "dim,level", [(d, L) for d in (1, 2, 3, 5) for L in (0, 1, 2, 7, 12) if d**L <= 10**5]
)
def test_lockstep_signing_matches_per_level_horner(dim, level):
    """The chains of all levels advance in lockstep and must round exactly as
    the per-level loop does, -0.0 products included."""
    rng = np.random.default_rng(1000 * dim + level)
    for paths in (1, 3, 8):
        for count in (0, 1, 15):
            incs = rng.normal(size=(paths, count, dim))
            incs[rng.random(incs.shape) < 0.2] = 0.0
            incs[rng.random(incs.shape) < 0.1] = -0.0
            got = signature._sign_batch(incs, level)
            assert same_bits(got, per_level_horner(incs, level)), (paths, count)


class TestSignatureKernel:
    def test_constant_pair_is_one(self):
        c = Path([0.0, 1.0], [[2.0], [2.0]])
        for level in (0, 3, 7):
            assert signature_kernel_truncated(c, c, level=level).value == 1.0

    def test_level_zero_is_one(self):
        res = signature_kernel_truncated(line([5.0]), line([-2.0]), level=0)
        assert res.value == 1.0

    def test_unit_inner_product_series(self):
        # <v, w> = 1 termwise gives sum over m of 1/(m!)^2
        expected = sum(1.0 / math.factorial(m) ** 2 for m in range(13))
        got = signature_kernel_truncated(line([0.8, 0.6]), line([0.5, 1.0]), level=12)
        assert got.value == pytest.approx(expected, abs=1e-12)
        assert got.value == pytest.approx(2.2795853, abs=1e-6)

    def test_remainder_bound_certifies_truncation(self):
        a = make_piecewise_linear(3, 5, 2, 0.9)
        b = make_piecewise_linear(4, 5, 2, 0.8)
        low = signature_kernel_truncated(a, b, level=4)
        high = signature_kernel_truncated(a, b, level=12)
        assert abs(high.value - low.value) <= low.remainder_bound
        assert high.remainder_bound < low.remainder_bound

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            signature_kernel_truncated(line([1.0]), line([1.0, 0.0]))

    def test_overflow_is_a_numeric_error_without_warnings(self):
        # a level-8 coefficient of 1e50^8 / 8! overflows while signing; one of
        # 1e25^8 / 8! = 2.5e195 is finite, but its pairing overflows
        for size in (1e50, 1e25):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NumericError, match="overflows"):
                    signature_kernel_truncated(line([size]), line([size]), level=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError, match="signature overflows"):
                truncated_signature(line([1e50, 1.0]), level=8)


class TestLevelForRemainder:
    def test_monotone_in_tolerance(self):
        loose = level_for_remainder(1.0, 2, 1e-4)
        tight = level_for_remainder(1.0, 2, 1e-12)
        assert tight >= loose

    def test_infeasible_raises(self):
        with pytest.raises(ResourceLimitError):
            level_for_remainder(50.0, 10, 1e-12)

    def test_tol_must_be_positive(self):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="tol must be positive"):
                level_for_remainder(1.0, 2, tol)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_chen_identity_property(seed):
    p = make_piecewise_linear(seed, 6, 2, 1.0)
    whole = truncated_signature(p, (0.0, 1.0), 3)
    combined = chen_product(
        truncated_signature(p, (0.0, 0.5), 3), truncated_signature(p, (0.5, 1.0), 3)
    )
    for m in range(4):
        assert np.abs(whole.tensors[m] - combined.tensors[m]).max(initial=0.0) <= 1e-10
