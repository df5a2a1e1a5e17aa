import numpy as np
import pytest

from sigdev import (
    DomainError,
    GramMatrix,
    KernelSpec,
    Path,
    PathSample,
    ResourceLimitError,
    concat_reverse,
    gen_fbm,
    gram,
    k_sd,
    mmd2,
    scaled,
    series_gram,
    series_oracle,
    signature_gram,
    signature_kernel_truncated,
    write_paths_jsonl,
)
from sigdev.cli import main
from helpers import make_piecewise_linear


def fbm_sample(seeds, dim=2, scale=0.06, n=6):
    return PathSample(tuple(scaled(gen_fbm(0.75, n, dim, s), scale) for s in seeds))


def line(v):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return Path([0.0, 1.0], np.vstack([np.zeros_like(v), v]))


class TestPathSample:
    def test_nonempty(self):
        with pytest.raises(DomainError):
            PathSample(())

    def test_consistent_dimension(self):
        with pytest.raises(DomainError):
            PathSample((line([1.0]), line([1.0, 0.0])))


class TestGram:
    def test_single_identical_path(self):
        sample = PathSample((make_piecewise_linear(2, 5, 2, 0.5),))
        matrix = gram(sample, None, "sd_series", KernelSpec(tol=1e-8))
        assert matrix.values.shape == (1, 1)
        assert matrix.values[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_constant_paths_give_ones(self):
        consts = PathSample(
            (Path([0.0, 1.0], [[0.1], [0.1]]), Path([0.0, 2.0], [[4.0], [4.0]]))
        )
        for kernel in ("sd_series", "sd_explicit", "sd_implicit", "sig_truncated"):
            matrix = gram(consts, None, kernel)
            assert np.allclose(matrix.values, 1.0, atol=1e-12)

    def test_symmetric_and_psd_on_fbm(self):
        sample = fbm_sample((1, 2, 3))
        matrix = gram(sample, None, "sd_series", KernelSpec(tol=1e-8)).values
        assert np.array_equal(matrix, matrix.T)
        assert np.linalg.eigvalsh(matrix).min() >= -1e-6

    def test_cross_sample_shape(self):
        a = fbm_sample((1, 2))
        b = fbm_sample((3, 4, 5))
        matrix = gram(a, b, "sd_series", KernelSpec(tol=1e-6))
        assert matrix.values.shape == (2, 3)

    def test_kernel_tag(self):
        sample = fbm_sample((1,))
        cases = [
            ("sd_explicit", KernelSpec(), "sd_explicit(mesh=0.05)"),
            ("sd_implicit", KernelSpec(mesh=0.02), "sd_implicit(mesh=0.02)"),
            ("sd_series", KernelSpec(tol=1e-6), "sd_series(tol=1e-06)"),
            ("sig_truncated", KernelSpec(), "sig_truncated(level=8)"),
        ]
        for kernel, spec, tag in cases:
            assert gram(sample, None, kernel, spec).kernel_tag == tag

    def test_matches_direct_kernel_calls(self):
        a = fbm_sample((4, 5))
        spec = KernelSpec(tol=1e-7)
        matrix = gram(a, None, "sd_series", spec).values
        direct = k_sd(a.paths[0], a.paths[1], "series", tol=1e-7)
        assert matrix[0, 1] == direct
        sig_matrix = gram(a, None, "sig_truncated", KernelSpec(level=6)).values
        assert sig_matrix[0, 1] == signature_kernel_truncated(
            a.paths[0], a.paths[1], level=6
        ).value

    def test_unknown_kernel(self):
        with pytest.raises(DomainError):
            gram(fbm_sample((1,)), None, "rbf")

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            gram(fbm_sample((1,), dim=1), fbm_sample((2,), dim=2))


def pairwise_series(paths_a, paths_b, tol):
    return np.array([[series_oracle(concat_reverse(a, b), tol=tol).value for b in paths_b] for a in paths_a])


def pairwise_signature(paths_a, paths_b, level):
    return np.array(
        [[signature_kernel_truncated(a, b, level=level).value for b in paths_b] for a in paths_a]
    )


def paths_of_variation(variations, seed=0, segments=5, dim=2):
    return tuple(make_piecewise_linear(seed + k, segments, dim, v) for k, v in enumerate(variations))


class TestBatchedGrams:
    """series_gram and signature_gram against the per-pair routes."""

    def test_symmetric_sample(self):
        paths = paths_of_variation((0.3, 0.5, 0.7))
        got = series_gram(paths, paths, 1e-8)
        assert np.abs(got - pairwise_series(paths, paths, 1e-8)).max() <= 1e-12
        got = signature_gram(paths, paths, 7)
        assert np.abs(got - pairwise_signature(paths, paths, 7)).max() <= 1e-12

    def test_asymmetric_samples_of_different_sizes(self):
        a = paths_of_variation((0.4, 0.6), seed=10, segments=4)
        b = paths_of_variation((0.2, 0.5, 0.8), seed=20, segments=7)
        got = series_gram(a, b, 1e-7)
        assert got.shape == (2, 3)
        assert np.abs(got - pairwise_series(a, b, 1e-7)).max() <= 1e-12
        got = signature_gram(a, b, 6)
        assert got.shape == (2, 3)
        assert np.abs(got - pairwise_signature(a, b, 6)).max() <= 1e-12

    def test_pairs_at_different_levels(self):
        paths = paths_of_variation((0.05, 0.35, 0.75), seed=30)
        levels = {series_oracle(concat_reverse(a, b), tol=1e-8).level for a in paths for b in paths}
        assert len(levels) >= 3
        got = series_gram(paths, paths, 1e-8)
        assert np.abs(got - pairwise_series(paths, paths, 1e-8)).max() <= 1e-12

    def test_zero_increment_segment(self):
        stalled = Path([0.0, 0.3, 0.6, 1.0], [[0.0, 0.0], [0.2, -0.1], [0.2, -0.1], [0.5, 0.3]])
        paths = (stalled, make_piecewise_linear(40, 4, 2, 0.6))
        got = series_gram(paths, paths, 1e-9)
        assert np.abs(got - pairwise_series(paths, paths, 1e-9)).max() <= 1e-12
        got = signature_gram(paths, paths, 8)
        assert np.abs(got - pairwise_signature(paths, paths, 8)).max() <= 1e-12

    def test_one_pair_beyond_level_16_raises(self):
        # only |a_1|_1 + |b_1|_1 = 2.3 needs more than level 16 at tol 1e-6
        a = paths_of_variation((0.3, 1.2), seed=50)
        b = paths_of_variation((0.3, 1.1), seed=60)
        with pytest.raises(ResourceLimitError):
            series_oracle(concat_reverse(a[1], b[1]), tol=1e-6)
        series_oracle(concat_reverse(a[1], b[0]), tol=1e-6)
        with pytest.raises(ResourceLimitError):
            series_gram(a, b, 1e-6)
        with pytest.raises(ResourceLimitError):
            gram(PathSample(a), PathSample(b), "sd_series", KernelSpec(tol=1e-6))

    def test_cli_gram_exits_3_beyond_level_16(self, tmp_path, capsys):
        sample = tmp_path / "sample.jsonl"
        write_paths_jsonl(["small", "large"], paths_of_variation((0.3, 1.2), seed=70), sample)
        assert main(["gram", str(sample), "--kernel", "sd_series", "--tol", "1e-6"]) == 3
        assert "level 16" in capsys.readouterr().err

    def test_single_sample_gram_is_exactly_symmetric(self):
        sample = PathSample(paths_of_variation((0.2, 0.45, 0.6, 0.75), seed=80))
        for kernel, spec in (("sd_series", KernelSpec(tol=1e-8)), ("sig_truncated", KernelSpec(level=7))):
            values = gram(sample, None, kernel, spec).values
            assert np.array_equal(values, values.T)

    def test_entries_equal_single_pair_routes_bit_for_bit(self):
        a = paths_of_variation((0.05, 0.35, 0.75), seed=90)
        b = paths_of_variation((0.2, 0.6), seed=95, segments=6)
        for left, right in ((a, a), (a, b), (b, a)):
            series = series_gram(left, right, 1e-8)
            signature = signature_gram(left, right, 6)
            for i, g in enumerate(left):
                for j, s in enumerate(right):
                    assert series[i, j] == k_sd(g, s, "series", tol=1e-8)
                    assert signature[i, j] == signature_kernel_truncated(g, s, level=6).value

    def test_feature_budget_raises_before_signing(self):
        # six d=3 paths at level 14 hold 6 * 7.2e6 coefficients, over 4e7,
        # though each single signature passes its own 1e7-entry check
        paths = paths_of_variation((0.85,) * 6, seed=100, dim=3)
        with pytest.raises(ResourceLimitError, match="budget"):
            signature_gram(paths, paths, 14)
        with pytest.raises(ResourceLimitError, match="budget"):
            series_gram(paths, paths, 1e-6)
        signature_gram(paths[:2], paths[:2], 4)

    def test_cli_gram_exits_3_over_feature_budget(self, tmp_path, capsys):
        sample = tmp_path / "sample.jsonl"
        paths = paths_of_variation((0.85,) * 6, seed=110, dim=3)
        write_paths_jsonl([f"p{k}" for k in range(6)], paths, sample)
        assert main(["gram", str(sample), "--kernel", "sig_truncated", "--level", "14"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_dimension_mismatch(self):
        a = paths_of_variation((0.3,), dim=1)
        b = paths_of_variation((0.3,), dim=2)
        with pytest.raises(DomainError):
            series_gram(a, b, 1e-6)
        with pytest.raises(DomainError):
            signature_gram(a, b, 4)


class TestMmd2:
    def test_zero_on_same_sample_object(self):
        sample = fbm_sample((1, 2, 3))
        assert abs(mmd2(sample, sample, "sd_series", KernelSpec(tol=1e-6))) <= 1e-10

    def test_zero_on_equal_sample_copies(self):
        a = fbm_sample((1, 2))
        b = fbm_sample((1, 2))
        assert abs(mmd2(a, b, "sd_series", KernelSpec(tol=1e-6))) <= 1e-10

    def test_disjoint_singletons_unroll(self):
        ga = make_piecewise_linear(11, 4, 2, 0.4)
        gb = make_piecewise_linear(12, 4, 2, 0.4)
        spec = KernelSpec(tol=1e-8)
        got = mmd2(PathSample((ga,)), PathSample((gb,)), "sd_series", spec)
        expected = (
            k_sd(ga, ga, tol=1e-8) + k_sd(gb, gb, tol=1e-8) - 2 * k_sd(ga, gb, tol=1e-8)
        )
        assert got == pytest.approx(expected, abs=1e-14)

    def test_nonnegative_v_statistic(self):
        a = fbm_sample((1, 2, 3))
        b = fbm_sample((7, 8))
        assert mmd2(a, b, "sd_series", KernelSpec(tol=1e-6)) >= -1e-6

    def test_symmetry(self):
        a = fbm_sample((1, 2))
        b = fbm_sample((5, 6))
        spec = KernelSpec(tol=1e-6)
        assert mmd2(a, b, "sd_series", spec) == pytest.approx(
            mmd2(b, a, "sd_series", spec), abs=1e-12
        )

    def test_permutation_invariance(self):
        paths = tuple(scaled(gen_fbm(0.75, 5, 2, s), 0.05) for s in (1, 2, 3))
        b = fbm_sample((9,))
        spec = KernelSpec(tol=1e-6)
        forward = mmd2(PathSample(paths), b, "sd_series", spec)
        shuffled = mmd2(PathSample(paths[::-1]), b, "sd_series", spec)
        assert forward == shuffled

    def test_unbiased_estimator_formula(self):
        a = fbm_sample((1, 2))
        b = fbm_sample((3, 4))
        spec = KernelSpec(tol=1e-7)
        k_aa = gram(a, None, "sd_series", spec).values
        k_bb = gram(b, None, "sd_series", spec).values
        k_ab = gram(a, b, "sd_series", spec).values
        expected = (
            (k_aa.sum() - np.trace(k_aa)) / 2.0
            + (k_bb.sum() - np.trace(k_bb)) / 2.0
            - 2.0 * k_ab.mean()
        )
        got = mmd2(a, b, "sd_series", spec, unbiased=True)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_unbiased_needs_two_paths(self):
        with pytest.raises(DomainError):
            mmd2(fbm_sample((1,)), fbm_sample((2, 3)), unbiased=True)

    def test_grid_scheme_diagonal_near_one(self):
        p = make_piecewise_linear(6, 5, 2, 0.5)
        sample = PathSample((p,))
        matrix = gram(sample, None, "sd_explicit", KernelSpec(mesh=0.02)).values
        assert matrix[0, 0] == pytest.approx(1.0, abs=0.05)


def test_gram_matrix_validation():
    with pytest.raises(DomainError):
        GramMatrix(np.array([[np.inf]]), "tag")
