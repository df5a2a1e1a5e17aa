import json
import warnings

import numpy as np
import pytest

from sigdev import (
    DomainError,
    GramMatrix,
    KernelSpec,
    NumericError,
    Path,
    PathSample,
    ResourceLimitError,
    concat_reverse,
    gen_fbm,
    gram,
    grid_gram,
    k_sd,
    mmd2,
    scaled,
    series_gram,
    series_oracle,
    signature_gram,
    signature_kernel_truncated,
    truncated_signature,
    write_path_csv,
    write_paths_jsonl,
)
from sigdev import backend, sdkernel, signature
from sigdev.cli import main
from sigdev.mmd import KERNELS
from sigdev.signature import MAX_FEATURE_ENTRIES, _check_feature_budget
from helpers import batch_kind, make_piecewise_linear


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

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_no_mesh_refines_by_the_dyadic_order(self, scheme):
        a, b = fbm_sample((4, 5), scale=0.3), fbm_sample((6, 7, 8), scale=0.3)
        for lam in (0, 1, 3):
            matrix = gram(a, b, "sd_" + scheme, KernelSpec(mesh=None, dyadic=lam))
            assert matrix.kernel_tag == f"sd_{scheme}(lambda={lam})"
            for i, gamma in enumerate(a.paths):
                for j, sigma in enumerate(b.paths):
                    assert matrix.values[i, j] == k_sd(gamma, sigma, scheme, dyadic_order=lam)

    def test_no_level_is_the_level_kernel_picks(self, tmp_path, capsys):
        gamma, sigma = (scaled(gen_fbm(0.75, 16, 2, s), 0.25) for s in (7, 3))
        files = [tmp_path / "g.csv", tmp_path / "s.csv"]
        for path, file in zip((gamma, sigma), files):
            write_path_csv(path, file)
        assert main(["kernel", *map(str, files), "--scheme", "sig_truncated", "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        matrix = gram(PathSample((gamma,)), PathSample((sigma,)), "sig_truncated", KernelSpec(level=None, tol=1e-10))
        assert matrix.values[0, 0] == printed["value"]
        assert matrix.kernel_tag == f"sig_truncated(level={printed['detail']['level']})"

    def test_every_tag_formats_with_none_fields(self):
        spec = KernelSpec(mesh=None, dyadic=3, level=None)
        tags = ["sd_explicit(lambda=3)", "sd_implicit(lambda=3)", "sd_series(tol=1e-06)", "sig_truncated(tol=1e-06)"]
        assert [spec.tag(kernel) for kernel in KERNELS] == tags

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

    @staticmethod
    def sign_one_by_one(paths, levels):
        return [
            np.concatenate(truncated_signature(p, level=int(level)).tensors) for p, level in zip(paths, levels)
        ]

    def test_batched_signing_gives_the_same_bits(self, monkeypatch):
        # one-sample series rows at levels 10, 12 and 14; a ragged two-sample pair
        rows = paths_of_variation((0.35, 0.55, 0.75), seed=130, segments=6)
        assert sorted(sdkernel._series_gram(rows, rows, 1e-6)[1].max(axis=1)) == [10, 12, 14]
        a = paths_of_variation((0.3, 0.6, 0.4), seed=140, segments=5)
        b = paths_of_variation((0.5, 0.2), seed=150, segments=3)
        cases = [(rows, rows), (a, b), (b, a)]
        batched = [(series_gram(x, y, 1e-6), signature_gram(x, y, 8)) for x, y in cases]
        monkeypatch.setattr(sdkernel, "_sign_paths", self.sign_one_by_one)
        monkeypatch.setattr(signature, "_sign_paths", self.sign_one_by_one)
        for (x, y), (series, sig) in zip(cases, batched):
            assert series.tobytes() == series_gram(x, y, 1e-6).tobytes()
            assert sig.tobytes() == signature_gram(x, y, 8).tobytes()

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

    def test_cli_mmd_exits_3_when_samples_together_pass_budget(self, tmp_path, capsys):
        # three d=3 paths at level 14 fit the budget; six do not
        paths = paths_of_variation((0.85,) * 6, seed=120, dim=3)
        _check_feature_budget(3, [14] * 3)
        assert 6 * sum(3**m for m in range(15)) > MAX_FEATURE_ENTRIES
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_paths_jsonl(["p0", "p1", "p2"], paths[:3], a)
        write_paths_jsonl(["q0", "q1", "q2"], paths[3:], b)
        assert main(["mmd", str(a), str(b), "--kernel", "sig_truncated", "--level", "14"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_dimension_mismatch(self):
        a = paths_of_variation((0.3,), dim=1)
        b = paths_of_variation((0.3,), dim=2)
        with pytest.raises(DomainError):
            series_gram(a, b, 1e-6)
        with pytest.raises(DomainError):
            signature_gram(a, b, 4)


class TestGridGrams:
    """grid_gram, through gram, against k_sd pair by pair, bit for bit."""

    @pytest.fixture()
    def batches(self, monkeypatch):
        """("own", sizes) of each batch of own grids, and ("cross", sizes,
        largest stack) of each batch of rectangles, in order."""
        sizes = []

        def recorded(grams, batch_sizes, implicit, grids, _grids=backend._grids):
            if batch_kind(grams) == "own":
                sizes.append(("own", list(batch_sizes)))
            else:
                sizes.append(("cross", list(batch_sizes), max(grams.size, grids.size)))
            return _grids(grams, batch_sizes, implicit, grids)

        monkeypatch.setattr(backend, "_grids", recorded)
        return sizes

    @staticmethod
    def split(solved):
        """The own-grid batches and the rectangle batches of one Gram."""
        return [b[1] for b in solved if b[0] == "own"], [b[1:] for b in solved if b[0] == "cross"]

    @staticmethod
    def assert_equals_k_sd(sample_a, sample_b, mesh, batches=()):
        """Check both grid Grams against k_sd; return the batches each solved."""
        solved = {}
        a = sample_a.paths
        b = a if sample_b is None else sample_b.paths
        for scheme in ("explicit", "implicit"):
            start = len(batches)
            values = gram(sample_a, sample_b, "sd_" + scheme, KernelSpec(mesh=mesh)).values
            solved[scheme] = batches[start:]
            # a one-sample Gram mirrors its upper triangle: the grid kernels
            # are symmetric only up to rounding (right-point: to first order)
            for i in range(len(a)):
                for j in range(len(b)):
                    g, s = (a[j], b[i]) if sample_b is None and i > j else (a[i], b[j])
                    assert values[i, j] == k_sd(g, s, scheme, mesh=mesh)
        return solved

    def test_one_and_two_sample_grams(self):
        a = PathSample(paths_of_variation((0.2, 0.5, 0.8), seed=160))
        b = PathSample(paths_of_variation((0.3, 0.6), seed=170, segments=7))
        self.assert_equals_k_sd(a, None, 0.1)
        for left, right in ((a, b), (b, a)):
            self.assert_equals_k_sd(left, right, 0.1)

    def test_pairs_of_different_n_in_one_batch(self, batches):
        a = PathSample(paths_of_variation((0.05, 0.4, 0.9), seed=180, segments=3))
        b = PathSample(paths_of_variation((0.1, 0.7), seed=190, segments=8))
        for solved in self.assert_equals_k_sd(a, b, 0.1, batches).values():
            own, cross = self.split(solved)
            # both sides' own grids, of different n, are one batch, largest first
            assert [len(sizes) for sizes in own] == [2 + 3]
            for sizes in own:
                assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)
            # the rectangles: every pair once, each batch largest first, some mixing sizes
            assert sum(len(sizes) for sizes, _ in cross) == 6
            assert all(sizes == sorted(sizes, reverse=True) for sizes, _ in cross)
            assert any(len(set(sizes)) > 1 for sizes, _ in cross)

    def test_one_point_paths(self, batches):
        point = Path([0.0], [[0.3, -0.1]])
        other = Path([2.0], [[1.0, 1.0]])
        sample = PathSample((point, make_piecewise_linear(200, 4, 2, 0.5), other))
        for solved in self.assert_equals_k_sd(sample, None, 0.1, batches).values():
            own, cross = self.split(solved)
            # each one-point path has an empty own grid on each side, all in one
            # batch, and only the pair of the other path with itself has a rectangle
            assert [sizes.count(0) for sizes in own] == [2 * 2]
            assert [sizes for sizes, _ in cross] == [[max(own[0])]]
        values = gram(PathSample((point, other)), None, "sd_implicit", KernelSpec(mesh=0.1)).values
        assert values.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_sample_over_several_batches(self, batches):
        sample = PathSample(paths_of_variation((0.5, 0.6, 0.7, 0.8, 0.9), seed=210))
        for solved in self.assert_equals_k_sd(sample, None, 0.008, batches).values():
            own, cross = self.split(solved)
            assert sum(map(len, own)) == 2 * 5
            for sizes in own:
                assert len(sizes) == 1 or len(sizes) * (sizes[0] + 1) ** 2 <= 2**16
            assert len(cross) >= 3
            assert sum(len(sizes) for sizes, _ in cross) == 15
            for sizes, largest in cross:
                assert len(sizes) == 1 or largest <= 2**16

    def test_pair_past_the_budget(self, batches):
        a = PathSample(paths_of_variation((0.8,), seed=220))
        b = PathSample(paths_of_variation((0.1,), seed=230))
        for solved in self.assert_equals_k_sd(a, PathSample(a.paths + b.paths), 0.005, batches).values():
            _, cross = self.split(solved)
            # two slots of the large pair would pass the budget, so it is batched alone
            (big, big_stack), (small, _) = sorted(cross, key=lambda batch: -batch[1])
            assert 2 * big_stack > 2**16 and len(big) == 1
            assert len(small) == 1

    def test_overflowing_grid_raises_numeric_error(self):
        # increments of 1e100 square to a finite Gram, but the left-point grid overflows
        points = np.zeros((5, 1))
        points[1::2] = 1e100
        sample = PathSample((Path(np.arange(5.0), points),))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError):
                gram(sample, None, "sd_explicit", KernelSpec(mesh=1e300))
            with pytest.raises(NumericError):
                mmd2(sample, sample, "sd_explicit", KernelSpec(mesh=1e300))

    def test_unknown_scheme(self):
        paths = paths_of_variation((0.3,))
        with pytest.raises(DomainError):
            grid_gram(paths, paths, "series", 0.1)


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

    @staticmethod
    def three_gram_mmd2(a, b, kernel, spec, unbiased):
        """The estimator from separate aa, bb and ab Grams."""
        k_aa = gram(a, None, kernel, spec).values
        k_bb = gram(b, None, kernel, spec).values
        k_ab = gram(a, b, kernel, spec).values
        n, m = len(a), len(b)
        if unbiased:
            within_a = (k_aa.sum() - np.trace(k_aa)) / (n * (n - 1))
            within_b = (k_bb.sum() - np.trace(k_bb)) / (m * (m - 1))
        else:
            within_a = k_aa.sum() / (n * n)
            within_b = k_bb.sum() / (m * m)
        return float(within_a + within_b - 2.0 * (k_ab.sum() / (n * m)))

    @pytest.mark.parametrize("unbiased", [False, True])
    @pytest.mark.parametrize(
        "kernel,spec",
        [
            ("sd_explicit", KernelSpec(mesh=0.05)),
            ("sd_implicit", KernelSpec(mesh=0.05)),
            ("sd_series", KernelSpec(tol=1e-8)),
            ("sig_truncated", KernelSpec(level=6)),
        ],
    )
    def test_pooled_gram_equals_three_grams(self, kernel, spec, unbiased):
        a = PathSample(paths_of_variation((0.2, 0.5, 0.4), seed=200))
        b = PathSample(paths_of_variation((0.3, 0.6, 0.1, 0.45), seed=210, segments=4))
        got = mmd2(a, b, kernel, spec, unbiased=unbiased)
        assert got == self.three_gram_mmd2(a, b, kernel, spec, unbiased)

    @pytest.mark.parametrize("side", [41, 96])
    def test_pooled_gram_equals_three_grams_on_large_blocks(self, side):
        # numpy sums a strided view of more than 8192 entries in another
        # order than a contiguous array, so at 96 paths a side summing the
        # blocks of the pooled Gram in place would change the last bits
        a = PathSample(paths_of_variation([0.3 + 0.005 * k for k in range(side)], seed=300, segments=3))
        b = PathSample(paths_of_variation([0.35 + 0.005 * k for k in range(side)], seed=400, segments=3))
        spec = KernelSpec(level=4)
        for unbiased in (False, True):
            got = mmd2(a, b, "sig_truncated", spec, unbiased=unbiased)
            assert got == self.three_gram_mmd2(a, b, "sig_truncated", spec, unbiased)

    def test_signs_each_path_once(self, monkeypatch):
        signed = []

        def counted(incs, level, _sign=signature._sign_batch):
            signed.extend(incs)
            return _sign(incs, level)

        monkeypatch.setattr(signature, "_sign_batch", counted)
        a, b = fbm_sample(range(1, 9)), fbm_sample(range(11, 19))
        mmd2(a, b, "sd_series", KernelSpec(tol=1e-6))
        assert len(signed) == 16
        for path in a.paths + b.paths:
            assert sum(np.array_equal(incs, np.diff(path.points, axis=0)) for incs in signed) == 1

    def test_grid_scheme_diagonal_near_one(self):
        p = make_piecewise_linear(6, 5, 2, 0.5)
        sample = PathSample((p,))
        matrix = gram(sample, None, "sd_explicit", KernelSpec(mesh=0.02)).values
        assert matrix[0, 0] == pytest.approx(1.0, abs=0.05)


def test_gram_matrix_validation():
    with pytest.raises(DomainError):
        GramMatrix(np.array([[np.inf]]), "tag")
