import itertools
import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

from sigdev import (
    COMPLEX_GINIBRE,
    GUE,
    DomainError,
    EnsembleConfig,
    IncrementSequence,
    NumericError,
    Partition,
    Path,
    gl_development,
    rk_montecarlo,
    sample_matrices,
    sigkernel_montecarlo,
    unitary_development,
)
from sigdev import randomdev
from sigdev.randomdev import _THREADED_MIN_N, _expm, _powers, _sample_threads, _word_degree, _word_products, _words
from sigdev.sdkernel import exact_straight_line

from helpers import make_piecewise_linear


def line(v):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return Path([0.0, 1.0], np.vstack([np.zeros_like(v), v]))


def gue_cfg(**kw):
    base = dict(kind=GUE, dim_n=16, samples_m=4, seed=9, path_dim=1)
    base.update(kw)
    return EnsembleConfig(**base)


class TestEnsembleConfig:
    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            EnsembleConfig("haar", 4, 4, 0, 1)

    def test_positive_sizes(self):
        with pytest.raises(DomainError):
            EnsembleConfig(GUE, 0, 4, 0, 1)
        with pytest.raises(DomainError):
            EnsembleConfig(GUE, 4, 0, 0, 1)

    def test_memory_budget(self):
        with pytest.raises(DomainError):
            EnsembleConfig(GUE, 100_000, 100_000, 0, 5)


class TestSampleMatrices:
    def test_gue_is_exactly_hermitian(self):
        mats = sample_matrices(gue_cfg(path_dim=3), 0)
        assert len(mats) == 3
        for a in mats:
            assert np.array_equal(a, a.conj().T)

    def test_determinism_and_stream_independence(self):
        cfg = gue_cfg(samples_m=8)
        twice = [sample_matrices(cfg, 3)[0] for _ in range(2)]
        assert np.array_equal(twice[0], twice[1])
        # stream 3 is the same whether or not earlier samples were drawn
        fresh = sample_matrices(gue_cfg(samples_m=8), 3)[0]
        assert np.array_equal(twice[0], fresh)
        assert not np.array_equal(sample_matrices(cfg, 0)[0], sample_matrices(cfg, 1)[0])

    def test_second_moment_normalisation(self):
        cfg = gue_cfg(dim_n=40, samples_m=8)
        entries = np.concatenate(
            [np.abs(sample_matrices(cfg, s)[0]).ravel() ** 2 for s in range(8)]
        )
        assert entries.size >= 10_000
        assert 0.94 <= entries.mean() <= 1.06

    def test_ginibre_second_moment(self):
        cfg = EnsembleConfig(COMPLEX_GINIBRE, 40, 8, 1, 1)
        entries = np.concatenate(
            [np.abs(sample_matrices(cfg, s)[0]).ravel() ** 2 for s in range(8)]
        )
        assert 0.94 <= entries.mean() <= 1.06

    def test_sample_index_range(self):
        with pytest.raises(DomainError):
            sample_matrices(gue_cfg(), 99)


def _alpha(x):
    """max(|X^2|_1^(1/2), |X^3|_1^(1/3)), the quantity _expm scales and bounds by."""
    x2 = x @ x
    return max(np.linalg.norm(x2, 1) ** 0.5, np.linalg.norm(x2 @ x, 1) ** (1.0 / 3.0))


# Pairs straddle each alpha at which the Taylor degree steps (3 -> 6 -> ... -> 18);
# 1.01, 2.5 and 40 take 1, 2 and 6 squarings.
EXPM_ALPHAS = (
    1e-8, 2.2e-4, 2.3e-4, 0.0177, 0.0178, 0.113, 0.114, 0.327, 0.328,
    0.656, 0.658, 1.0, 1.01, 2.5, 40.0,
)


def _word_powers(generators, c):
    """X, X^2, X^3 of X = sum_j c_j B_j, built from the words of degree 3."""
    return _powers(_words(generators, 1.0, 3), np.asarray(c, dtype=float))


class TestTaylorExponential:
    @pytest.mark.parametrize("n", [1, 2, 24, 200])
    @pytest.mark.parametrize("kind", [GUE, COMPLEX_GINIBRE])
    def test_matches_scipy_expm(self, n, kind):
        mats = sample_matrices(EnsembleConfig(kind, n, 1, 17, 2), 0)
        if kind == GUE:
            mats = [1j * a for a in mats]
        direction = np.array([0.6, -0.8])
        unit = direction / _alpha(direction[0] * mats[0] + direction[1] * mats[1])
        for alpha in EXPM_ALPHAS:
            c = unit * alpha
            expected = scipy.linalg.expm(c[0] * mats[0] + c[1] * mats[1])
            got = _expm(_word_powers(mats, c))
            rel = np.linalg.norm(got - expected, 1) / np.linalg.norm(expected, 1)
            assert rel <= 1e-13, (n, kind, alpha, rel)

    def test_zero_matrix_gives_identity_exactly(self):
        for n in (1, 2, 24):
            zero = np.zeros((n, n), dtype=np.complex128)
            assert np.array_equal(_expm(np.zeros((3, n, n), dtype=np.complex128)), np.eye(n))
            assert np.array_equal(_expm(_word_powers([zero, zero], [0.0, 0.0])), np.eye(n))

    def test_one_dimensional_gue_matches_eigendecomposition(self):
        cfg = gue_cfg(dim_n=200)
        mats = sample_matrices(cfg, 0)
        deltas = np.array([[0.3], [-0.1], [0.5]])
        z = unitary_development(IncrementSequence(deltas), mats, cfg.dim_n)
        eigvals, eigvecs = np.linalg.eigh(mats[0])
        phase = np.exp(1j * eigvals * deltas.sum() / np.sqrt(cfg.dim_n))
        assert np.abs(z - (eigvecs * phase) @ eigvecs.conj().T).max() <= 1e-13


class TestWords:
    @pytest.mark.parametrize(
        "dim, segments, degree",
        # the last two are ties (8 = 8 products, 10 = 10) that go to the lower degree
        [(1, 15, 3), (2, 15, 3), (3, 15, 2), (2, 1, 1), (5, 14, 1), (2, 4, 1), (2, 6, 2)],
    )
    def test_word_degree(self, dim, segments, degree):
        assert _word_degree(dim, segments) == degree

    def test_product_counts(self):
        # d = 2 up to degree 3: 2 + 3 + 4 words made by 4 + 6 products
        assert [_word_products(2, p) for p in (1, 2, 3)] == [0, 4, 10]
        for dim in range(1, 7):
            for degree in (1, 2, 3):
                # one product per distinct letter of each multiset of 2 or more letters
                count = sum(
                    len(set(a))
                    for k in range(2, degree + 1)
                    for a in itertools.combinations_with_replacement(range(dim), k)
                )
                assert _word_products(dim, degree) == count, (dim, degree)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_words_are_symmetrised_products(self, dim):
        rng = np.random.default_rng(dim)
        gens = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(dim)]
        words = _words(gens, 1.0, 3)
        assert sum(len(stack) for _, stack in words) == math.comb(dim + 3, 3) - 1
        for degree, (letters, stack) in enumerate(words, start=1):
            assert [tuple(a) for a in letters] == list(
                itertools.combinations_with_replacement(range(dim), degree)
            )
            for a, word in zip(letters, stack):
                expected = sum(
                    np.linalg.multi_dot([np.eye(3)] + [gens[j] for j in order])
                    for order in set(itertools.permutations(a))
                )
                assert np.abs(word - expected).max() <= 1e-13, a


def _generator(incs, mats, n_dim, k, unit):
    """sum_j (unit D_k^j / sqrt(N)) A_j, formed for one factor: the reference
    against which the word-built powers are checked."""
    x = None
    for j in range(incs.dim):
        coeff = incs.deltas[k, j]
        if coeff != 0.0:
            term = mats[j] * (unit * coeff / np.sqrt(n_dim))
            if x is None:
                x = term
            else:
                x += term
    return x


def _reference_development(incs, mats, n_dim, unit):
    """The per-factor loop: each factor's powers by X @ X and X^2 @ X."""
    z = None
    for k in range(len(incs)):
        if not np.any(incs.deltas[k]):
            continue
        x = _generator(incs, mats, n_dim, k, unit)
        x2 = x @ x
        factor = _expm(np.stack([x, x2, x2 @ x]))
        z = factor if z is None else z @ factor
    return np.eye(n_dim, dtype=np.complex128) if z is None else z


def _segments_for(dim, degree):
    """A count of nonzero increments at which the development uses words of
    ``degree``: the smallest from 4 on (room for every kind of row), else
    the largest below 4."""
    counts = [s for s in range(1, 200) if _word_degree(dim, s) == degree]
    return min((s for s in counts if s >= 4), default=max(counts, default=0))


def _equivalence_cases():
    for dim in (1, 2, 3, 5):
        for degree in (1, 2, 3):
            segments = _segments_for(dim, degree)
            for n in (1, 2, 24, 200):
                if segments and (n < 200 or segments <= 10):
                    yield dim, degree, n


def _increments(mats, unit, segments, seed):
    """``segments`` nonzero rows, in order: one at alpha = 40, one where only
    the last coordinate moves, one at alpha = 2.5, then small random rows;
    rows of zeros before, among and after them."""
    dim, n = len(mats), mats[0].shape[0]
    rng = np.random.default_rng(seed)

    def at_alpha(target):
        c = rng.uniform(0.5, 1.0, dim) * rng.choice([-1.0, 1.0], dim)
        return c * (target / _alpha(unit * sum(cj * a for cj, a in zip(c, mats)) / np.sqrt(n)))

    only_last = np.zeros(dim)
    only_last[-1] = 0.7
    rows = [at_alpha(40.0), only_last, at_alpha(2.5)]
    rows = (rows + [rng.uniform(-0.3, 0.3, dim) for _ in range(segments - 3)])[:segments]
    zero = np.zeros(dim)
    return IncrementSequence(np.array([zero] + rows[:2] + [zero] + rows[2:] + [zero]))


class TestWordDevelopments:
    @pytest.mark.parametrize("dim, degree, n", list(_equivalence_cases()))
    @pytest.mark.parametrize("kind", [GUE, COMPLEX_GINIBRE])
    def test_matches_per_factor_powers(self, kind, dim, degree, n):
        unit, develop = (1j, unitary_development) if kind == GUE else (1.0, gl_development)
        mats = sample_matrices(EnsembleConfig(kind, n, 1, 31, dim), 0)
        incs = _increments(mats, unit, _segments_for(dim, degree), seed=dim * 10 + degree)
        assert _word_degree(dim, int(np.any(incs.deltas, axis=1).sum())) == degree
        expected = _reference_development(incs, mats, n, unit)
        got = develop(incs, mats, n)
        rel = np.linalg.norm(got - expected, 1) / np.linalg.norm(expected, 1)
        assert rel <= 1e-13, rel
        if kind == GUE:
            assert np.abs(got.conj().T @ got - np.eye(n)).max() <= 1e-10

    @pytest.mark.parametrize("size", [1e50, 1e200])
    @pytest.mark.parametrize(
        "develop, kind", [(unitary_development, GUE), (gl_development, COMPLEX_GINIBRE)]
    )
    def test_overflow_raises(self, develop, kind, size):
        mats = sample_matrices(EnsembleConfig(kind, 4, 1, 0, 1), 0)
        with pytest.raises(NumericError):
            develop(IncrementSequence(np.array([[0.5], [size]])), mats, 4)


class TestUnitaryDevelopment:
    def test_zero_increments_identity(self):
        cfg = gue_cfg(path_dim=2)
        mats = sample_matrices(cfg, 0)
        z = unitary_development(IncrementSequence(np.zeros((3, 2))), mats, cfg.dim_n)
        assert np.array_equal(z, np.eye(cfg.dim_n, dtype=np.complex128))

    def test_scalar_case(self):
        a, x = 1.7, -0.4
        z = unitary_development(
            IncrementSequence(np.array([[x]])), [np.array([[a + 0j]])], 1
        )
        assert z[0, 0] == pytest.approx(np.exp(1j * a * x), abs=1e-14)
        assert abs(abs(z[0, 0]) - 1.0) <= 1e-14

    def test_commuting_increments_merge(self):
        cfg = gue_cfg(dim_n=24)
        mats = sample_matrices(cfg, 1)
        split = unitary_development(
            IncrementSequence(np.array([[0.3], [0.5]])), mats, cfg.dim_n
        )
        merged = unitary_development(
            IncrementSequence(np.array([[0.8]])), mats, cfg.dim_n
        )
        assert np.abs(split - merged).max() <= 1e-10

    def test_unitarity_defect(self):
        cfg = gue_cfg(dim_n=48, path_dim=2, samples_m=3)
        incs = IncrementSequence(np.array([[2.0, -1.0], [0.5, 3.0], [-4.0, 0.2]]))
        for s in range(cfg.samples_m):
            z = unitary_development(incs, sample_matrices(cfg, s), cfg.dim_n)
            assert np.abs(z.conj().T @ z - np.eye(cfg.dim_n)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
        with pytest.raises(DomainError):
            unitary_development(IncrementSequence(np.array([[1.0]])), [bad], 2)

    def test_dimension_check(self):
        cfg = gue_cfg()
        with pytest.raises(DomainError):
            unitary_development(
                IncrementSequence(np.ones((1, 2))), sample_matrices(cfg, 0), cfg.dim_n
            )


class TestGlDevelopment:
    def test_zero_increments_identity(self):
        cfg = EnsembleConfig(COMPLEX_GINIBRE, 8, 1, 0, 1)
        z = gl_development(IncrementSequence(np.zeros((2, 1))), sample_matrices(cfg, 0), 8)
        assert np.array_equal(z, np.eye(8, dtype=np.complex128))

    def test_scalar_case(self):
        a, x = 0.3 + 0.2j, 1.5
        z = gl_development(IncrementSequence(np.array([[x]])), [np.array([[a]])], 1)
        assert z[0, 0] == pytest.approx(np.exp(a * x), abs=1e-12)

    def test_size_check(self):
        mats = sample_matrices(EnsembleConfig(COMPLEX_GINIBRE, 8, 1, 0, 1), 0)
        with pytest.raises(DomainError):
            gl_development(IncrementSequence(np.array([[1.0]])), mats, 6)

    def test_determinant_identity(self):
        cfg = EnsembleConfig(COMPLEX_GINIBRE, 12, 1, 5, 2)
        mats = sample_matrices(cfg, 0)
        deltas = np.array([[0.4, -0.1], [0.2, 0.3], [-0.5, 0.6]])
        z = gl_development(IncrementSequence(deltas), mats, cfg.dim_n)
        total = deltas.sum(axis=0)
        trace_sum = sum(np.trace(mats[j]) * total[j] for j in range(2)) / np.sqrt(cfg.dim_n)
        expected = np.exp(trace_sum)
        assert abs(np.linalg.det(z) - expected) / abs(expected) <= 1e-8


class TestRkMonteCarlo:
    def test_constant_path(self):
        cfg = gue_cfg(samples_m=5)
        est = rk_montecarlo(Path([0.0, 1.0], [[0.7], [0.7]]), cfg)
        assert est.estimate == 1.0
        assert est.stderr == 0.0
        assert est.imag_diag == 0.0

    def test_deterministic(self):
        cfg = gue_cfg(dim_n=24, samples_m=6)
        p = line([1.0])
        assert rk_montecarlo(p, cfg) == rk_montecarlo(p, cfg)

    def test_reparameterization_invariance(self):
        cfg = gue_cfg(dim_n=12, samples_m=4)
        p1 = Path([0.0, 1.0, 2.0], [[0.0], [0.4], [1.0]])
        p2 = Path([0.0, 0.1, 7.0], [[0.0], [0.4], [1.0]])
        assert rk_montecarlo(p1, cfg) == rk_montecarlo(p2, cfg)

    def test_traces_bounded_by_one(self):
        cfg = gue_cfg(dim_n=20, samples_m=4, path_dim=1)
        incs = IncrementSequence(np.array([[0.9], [0.5]]))
        for s in range(cfg.samples_m):
            z = unitary_development(incs, sample_matrices(cfg, s), cfg.dim_n)
            assert abs(np.trace(z)) / cfg.dim_n <= 1.0 + 1e-12

    def test_approaches_bessel_value(self):
        cfg = gue_cfg(dim_n=64, samples_m=64, seed=123)
        est = rk_montecarlo(line([1.0]), cfg)
        assert abs(est.estimate - exact_straight_line(1.0, 0.0, 1.0)) <= 0.06
        assert est.imag_diag <= 0.2

    def test_requires_gue(self):
        cfg = EnsembleConfig(COMPLEX_GINIBRE, 8, 2, 0, 1)
        with pytest.raises(DomainError):
            rk_montecarlo(line([1.0]), cfg)

    def test_path_dim_must_match(self):
        with pytest.raises(DomainError):
            rk_montecarlo(line([1.0, 0.0]), gue_cfg())


class TestSigkernelMonteCarlo:
    def test_constant_pair(self):
        cfg = EnsembleConfig(COMPLEX_GINIBRE, 8, 3, 0, 1)
        c = Path([0.0, 1.0], [[0.2], [0.2]])
        est = sigkernel_montecarlo(c, c, None, cfg)
        assert est.estimate == 1.0
        assert est.stderr == 0.0

    def test_swap_symmetry(self):
        cfg = EnsembleConfig(COMPLEX_GINIBRE, 16, 6, 3, 2)
        a = line([0.8, 0.6])
        b = line([0.5, 1.0])
        ab = sigkernel_montecarlo(a, b, None, cfg)
        ba = sigkernel_montecarlo(b, a, None, cfg)
        assert ab.estimate == pytest.approx(ba.estimate, abs=1e-12)

    def test_shared_partition(self):
        cfg = EnsembleConfig(COMPLEX_GINIBRE, 8, 2, 1, 1)
        a, b = line([1.0]), line([0.5])
        part = Partition(np.linspace(0.0, 1.0, 5))
        est = sigkernel_montecarlo(a, b, part, cfg)
        # refinement of a linear segment cannot change the development
        assert est.estimate == pytest.approx(
            sigkernel_montecarlo(a, b, None, cfg).estimate, abs=1e-10
        )

    def test_requires_ginibre(self):
        with pytest.raises(DomainError):
            sigkernel_montecarlo(line([1.0]), line([1.0]), None, gue_cfg())

    def test_dim_checks(self):
        cfg = EnsembleConfig(COMPLEX_GINIBRE, 8, 2, 0, 1)
        with pytest.raises(DomainError):
            sigkernel_montecarlo(line([1.0]), line([1.0, 0.0]), None, cfg)


@pytest.mark.parametrize("estimate", ["rk", "sigkernel"])
def test_overflowing_segment_is_refused_without_a_warning(estimate):
    # each point is finite, their difference is not
    wild = Path([0.0, 1.0], [[-1e308], [1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            if estimate == "rk":
                rk_montecarlo(wild, gue_cfg())
            else:
                sigkernel_montecarlo(wild, line([1.0]), None, EnsembleConfig(COMPLEX_GINIBRE, 8, 2, 0, 1))


class TestSampleThreads:
    """The estimators' samples on several threads (``_each_sample``), forced
    at small N by patching the thread rule; the calling thread takes
    samples 0, 2, 4, ... and the other thread 1, 3, ..."""

    @pytest.fixture()
    def drawn_on(self, monkeypatch):
        """Force two threads; record the thread that draws each sample."""
        threads = {}

        def recorded(cfg, sample_index, workspace=None, _draw=randomdev.sample_matrices):
            threads[sample_index] = threading.get_ident()
            return _draw(cfg, sample_index, workspace)

        monkeypatch.setattr(randomdev, "_sample_threads", lambda samples, n_dim: 2)
        monkeypatch.setattr(randomdev, "sample_matrices", recorded)
        return threads

    @pytest.mark.parametrize("samples", [1, 5])
    def test_equal_to_one_thread(self, drawn_on, monkeypatch, samples):
        gamma, sigma = make_piecewise_linear(1, 9, 2, 1.5), make_piecewise_linear(2, 4, 2, 1.0)
        gue = EnsembleConfig(GUE, 12, samples, 3, 2)
        ginibre = EnsembleConfig(COMPLEX_GINIBRE, 12, samples, 4, 2)
        threaded = rk_montecarlo(gamma, gue), sigkernel_montecarlo(gamma, sigma, None, ginibre)
        assert len(set(drawn_on.values())) == min(samples, 2)
        monkeypatch.setattr(randomdev, "_sample_threads", lambda samples, n_dim: 1)
        assert (rk_montecarlo(gamma, gue), sigkernel_montecarlo(gamma, sigma, None, ginibre)) == threaded

    def test_more_threads_than_cores_switching_often(self, monkeypatch):
        # a workspace shared between threads would mix their samples
        gamma, sigma = make_piecewise_linear(3, 9, 2, 1.5), make_piecewise_linear(4, 6, 2, 1.0)
        gue = EnsembleConfig(GUE, 12, 16, 5, 2)
        ginibre = EnsembleConfig(COMPLEX_GINIBRE, 12, 16, 6, 2)
        serial = rk_montecarlo(gamma, gue), sigkernel_montecarlo(gamma, sigma, None, ginibre)
        monkeypatch.setattr(randomdev, "_sample_threads", lambda samples, n_dim: 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = rk_montecarlo(gamma, gue), sigkernel_montecarlo(gamma, sigma, None, ginibre)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_worker_error_reaches_the_caller(self, drawn_on, monkeypatch):
        errors = {s: NumericError(f"sample {s}") for s in (1, 2)}
        draw = randomdev.sample_matrices

        def failing(cfg, sample_index, workspace=None):
            if sample_index in errors:
                raise errors[sample_index]
            return draw(cfg, sample_index, workspace)

        monkeypatch.setattr(randomdev, "sample_matrices", failing)
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as raised:
                rk_montecarlo(line([1.0]), gue_cfg(samples_m=5))
        # sample 1 is the other thread's, and the lowest that failed
        assert raised.value is errors[1]
        assert threading.active_count() == before

    def test_overflow_on_two_threads(self, drawn_on):
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                rk_montecarlo(line([1e50]), gue_cfg(samples_m=4))
        assert threading.active_count() == before


class TestSampleThreadRule:
    """min(M, usable CPUs // BLAS threads per call) from N = _THREADED_MIN_N
    on, with OpenBLAS's rule for the BLAS threads."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)

    def test_one_blas_thread_gives_the_usable_cpus(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert _sample_threads(64, _THREADED_MIN_N) == 4
        assert _sample_threads(3, 200) == 3  # no more threads than samples
        assert _sample_threads(64, _THREADED_MIN_N - 1) == 1  # small N stays serial

    def test_unpinned_blas_stays_serial(self):
        assert _sample_threads(64, 200) == 1

    def test_omp_num_threads_is_the_fallback(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert _sample_threads(64, 200) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        assert _sample_threads(64, 200) == 1

    @pytest.mark.parametrize("value", ["", "two", "1.5", "0", "-1"])
    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_malformed_values_give_one(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        assert _sample_threads(64, 200) == 1
