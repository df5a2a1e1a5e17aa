"""Random matrix ensembles, path developments, Monte-Carlo estimators.

A path development integrates dZ = Z M(dg) through a matrix Lie group; on
a piecewise-constant control the solution is an ordered product of matrix
exponentials, one per jump.  Averaging normalised traces of unitary (GUE)
developments estimates the Schwinger-Dyson kernel; averaging Hilbert-
Schmidt pairings of general-linear (Ginibre) developments with shared
matrices estimates the signature kernel.

Every factor is exp(X) with X = sum_j c_j B_j, a combination of the same
d generators B_j = unit A_j / sqrt(N) of the sample.  A development
therefore first builds the symmetrised words S_a of its generators, one
per multiset a of at most p letters, so that (sum_j c_j B_j)^k =
sum_{|a| = k} c^a S_a (``_words``).  Each factor's X, X^2 and X^3 are then
O(N^2) contractions of the words with the monomials c^a, and products only
past degree p (``_powers``); p in {1, 2, 3} is the degree that makes the
development do the fewest products (``_word_degree``).  Each factor is
one matrix exponential of those powers, a truncated Taylor series with
scaling and squaring (``_expm``) whose truncation error is below 2**-53
for any matrix, normal or not.  A development that overflows raises
``NumericError``.

Sampling uses one counter-keyed stream per (seed, sample, matrix), so the
sample set is reproducible and independent of evaluation order.

The Monte-Carlo estimators develop their samples on min(M, usable CPUs //
BLAS threads per call) threads once N reaches ``_THREADED_MIN_N``
(``_sample_threads``): the usable CPUs are the process's affinity set, and
the BLAS threads per call follow OpenBLAS's rule (``OPENBLAS_NUM_THREADS``,
else ``OMP_NUM_THREADS``, else every usable CPU).  A run whose BLAS is not
pinned thus stays serial, since sample threads on top of its multithreaded
products oversubscribe the cores (N = 200, M = 8 on 2 cores: 0.50-0.62 s
serial, 0.63-0.77 s on two threads).  Below N = 64 the interpreter lock,
held for the Python of every factor, costs more than a second core gains
(N = 50, M = 64: 0.186 s serial, 0.195 s on two threads).  The calling
thread takes its share of the samples, and each sample is computed as on
one thread and stored by its index, so the estimates are the same bit for
bit on any number of threads.  Each thread works in its own
``_Workspace``, which the calling thread allocates before any thread
starts; a sample's matrices are drawn straight into it, and a worker
thread allocates nothing of N x N, since its own malloc arena would keep
what it freed and raise the peak memory.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericError
from .paths import IncrementSequence, Partition, Path, _finite_deltas, _nonzero, piecewise_constant_increments
from .rng import TAG_GINIBRE, TAG_GUE, keyed_generator

GUE = "gue"
COMPLEX_GINIBRE = "complex_ginibre"
ENSEMBLES = (GUE, COMPLEX_GINIBRE)

# total complex entries N*N*d*M a configuration may demand
MEMORY_BUDGET_ENTRIES = 2**33

_HERMITIAN_TOL = 1e-9

# Samples are developed on threads from this N on (see the module docstring).
_THREADED_MIN_N = 64


@dataclass(frozen=True)
class EnsembleConfig:
    """Sampling plan: ensemble kind, matrix size N, sample count M, seed."""

    kind: str
    dim_n: int
    samples_m: int
    seed: int
    path_dim: int

    def __post_init__(self):
        if self.kind not in ENSEMBLES:
            raise DomainError(f"unknown ensemble {self.kind!r}; choose from {ENSEMBLES}")
        if self.dim_n < 1 or self.samples_m < 1 or self.path_dim < 1:
            raise DomainError("dim_n, samples_m and path_dim must be positive")
        demand = self.dim_n * self.dim_n * self.path_dim * self.samples_m
        if demand > MEMORY_BUDGET_ENTRIES:
            raise DomainError(
                f"N^2*d*M = {demand} exceeds the memory budget of "
                f"{MEMORY_BUDGET_ENTRIES} entries"
            )


class _Workspace(NamedTuple):
    """The buffers in which one thread develops samples of size N, carved
    from one complex block (``_workspace``).  ``words`` (count, N, N) holds
    the words; ``powers`` (3, N, N) a factor's X, X^2 and X^3; ``taylor``
    (2, N, N) the Taylor sums and squarings, and scratch while a sample is
    drawn and its words are built; ``products`` (k, N, N) the running
    product in its first two slots, and the developments held for later
    in the rest.  ``matrices`` are where a sample is drawn: the degree-1
    word slots when one development per sample reads them, else slots of
    their own, since each development scales its degree-1 words in place."""

    matrices: np.ndarray
    words: np.ndarray
    powers: np.ndarray
    taylor: np.ndarray
    products: np.ndarray


def _workspace(n_dim: int, dim: int, degree: int, developments: int = 1) -> _Workspace:
    """A workspace for ``developments`` developments per sample in ``dim``
    coordinates with words up to ``degree``."""
    own = dim if developments > 1 else 0
    counts = (own, math.comb(dim + degree, degree) - 1, 3, 2, developments + 1)
    block = np.empty((sum(counts), n_dim, n_dim), dtype=np.complex128)
    matrices, words, powers, taylor, products = (
        block[end - count : end] for count, end in zip(counts, itertools.accumulate(counts))
    )
    return _Workspace(matrices if own else words[:dim], words, powers, taylor, products)


def sample_matrices(
    cfg: EnsembleConfig, sample_index: int, workspace: _Workspace | None = None
) -> list[np.ndarray]:
    """The d matrices of one Monte-Carlo sample, deterministic per
    (seed, sample_index, matrix index).

    GUE: Hermitian, real standard-normal diagonal, off-diagonal entries with
    independent real and imaginary parts of variance 1/2 (unit second
    absolute moment).  complex_ginibre: all entries independent complex with
    the same normalisation.

    With a ``workspace`` (the estimators' own), the matrices are drawn into
    its ``matrices`` slots, with its Taylor buffers as scratch.
    """
    if not 0 <= sample_index < cfg.samples_m:
        raise DomainError("sample_index out of range")
    tag = TAG_GUE if cfg.kind == GUE else TAG_GINIBRE
    n = cfg.dim_n
    if workspace is None:
        out = np.empty((cfg.path_dim, n, n), dtype=np.complex128)
        scratch = np.empty((2, n, n), dtype=np.complex128)
    else:
        out, scratch = workspace.matrices, workspace.taylor
    # raw = normal + 1j normal, then (raw + raw^H) / 2 or raw / sqrt(2), one ufunc at a time into the buffers
    real, imag = scratch[0].reshape(-1).view(np.float64).reshape(2, n, n)
    raw = scratch[1]
    for i, mat in enumerate(out):
        rng = keyed_generator(cfg.seed, tag, sample_index, i)
        rng.standard_normal(out=real)
        rng.standard_normal(out=imag)
        np.add(real, np.multiply(1j, imag, out=raw), out=raw)
        if cfg.kind == GUE:
            np.add(raw, np.conjugate(raw.T, out=scratch[0]), out=mat)  # the normals are spent
            np.divide(mat, 2.0, out=mat)
        else:
            np.divide(raw, np.sqrt(2.0), out=mat)
    return list(out)


# Taylor degrees of _expm are multiples of 3: degree 3q costs the same q - 1
# block products as degrees 3q - 2 and 3q - 1, and truncates less.
_TAYLOR_COEFFS = np.array([1.0 / math.factorial(k) for k in range(32)])
_UNIT_ROUNDOFF = 2.0**-53


def _taylor_degree(alpha: float) -> int:
    """Smallest multiple m of 3 with alpha**(m+1) e**alpha / (m+1)! <= 2**-53:
    for alpha <= 1 a bound on the norm of the Taylor remainder past degree m
    (Al-Mohy & Higham 2009, Thm 4.2, with alpha = max(|X^2|^(1/2), |X^3|^(1/3)))."""
    m = 3
    while alpha ** (m + 1) * math.exp(alpha) * _TAYLOR_COEFFS[m + 1] > _UNIT_ROUNDOFF:
        m += 3
    return m


def _combine(weights: np.ndarray, stack: np.ndarray, out: np.ndarray) -> None:
    """out = sum_k weights[k] stack[k] for real weights and a complex128
    (count, N, N) stack: one real product on the interleaved float64 views,
    which skips the zero imaginary parts a complex product would multiply."""
    flat = stack.reshape(len(stack), -1).view(np.float64)
    np.matmul(weights, flat, out=out.reshape(-1).view(np.float64))


def _taylor_block(powers: np.ndarray, j: int, out: np.ndarray) -> np.ndarray:
    """out = c_3j I + c_3j+1 X + c_3j+2 X^2, plus c_3j+3 X^3 when ``powers``
    holds X^3 too: one contraction of the powers."""
    _combine(_TAYLOR_COEFFS[3 * j + 1 : 3 * j + 1 + len(powers)], powers, out)
    out.flat[:: out.shape[0] + 1] += _TAYLOR_COEFFS[3 * j]
    return out


def _expm(powers: np.ndarray, taylor: np.ndarray | None = None) -> np.ndarray:
    """exp(X) of a complex square matrix from the (3, N, N) stack of its
    powers X, X^2 and X^3, which may be overwritten, in one of the two
    slots of the (2, N, N) complex buffer ``taylor`` (allocated when None).

    Scales the powers by 2**-s, 4**-s and 8**-s so that alpha =
    max(|X^2|_1^(1/2), |X^3|_1^(1/3)) <= 1, sums the Taylor series to the
    degree 3q that ``_taylor_degree`` picks by Paterson-Stockmeyer in X^3
    over the blocks c_3j I + c_3j+1 X + c_3j+2 X^2 (the last one also takes
    c_3q X^3), and squares s times.  The zero matrix gives the identity
    exactly.  An infinite alpha admits no scaling and raises
    ``NumericError``.
    """
    n = powers.shape[1]
    if taylor is None:
        taylor = np.empty((2, n, n), dtype=np.complex128)
    magnitudes = np.abs(powers[1:], out=taylor.reshape(-1).view(np.float64)[: 2 * n * n].reshape(2, n, n))
    norm2, norm3 = magnitudes.sum(axis=1).max(axis=1)  # 1-norms: largest column sums
    alpha = max(norm2**0.5, norm3 ** (1.0 / 3.0))
    if math.isinf(alpha):
        raise NumericError("a development factor overflowed: an increment is too large")
    squarings = max(0, math.ceil(math.log2(alpha))) if alpha > 1.0 else 0
    if squarings:  # powers of two: the scaling is exact
        powers *= np.array([2.0, 4.0, 8.0])[:, None, None] ** -squarings
        alpha *= 2.0**-squarings
    q = _taylor_degree(alpha) // 3
    result, buffer = taylor
    _taylor_block(powers, q - 1, result)
    for j in range(q - 2, -1, -1):
        np.matmul(result, powers[2], out=buffer)
        buffer += _taylor_block(powers[:2], j, result)  # result is free once multiplied
        result, buffer = buffer, result
    for _ in range(squarings):
        np.matmul(result, result, out=buffer)
        result, buffer = buffer, result
    return result


def _word_products(dim: int, degree: int) -> int:
    """Products that build the words of degrees 2..degree: S_a takes one per
    distinct letter j of a, which is d * C(d+k-2, k-1) at degree k."""
    return sum(dim * math.comb(dim + k - 2, k - 1) for k in range(2, degree + 1))


def _word_degree(dim: int, segments: int) -> int:
    """Word degree p in {1, 2, 3} with which a development of ``segments``
    nonzero increments in ``dim`` coordinates does the fewest products: the
    products that build its words, plus 3 - p per factor for the powers
    X^(p+1), ..., X^3.  A tie goes to the lower degree.

    The words are the only storage a development adds to its factors, and
    they are freed when it returns: at worst C(d+3, 3) - 1 matrices of
    N x N, one per multiset of 1 to 3 of the d letters.
    """
    return min((1, 2, 3), key=lambda p: _word_products(dim, p) + (3 - p) * segments)


def _words(
    mats: Sequence[np.ndarray],
    scale: complex,
    degree: int,
    stack: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The words S_a of the generators B_j = scale A_j for every multiset a
    of 1 to ``degree`` of the d letters: one (letters, stack) pair per
    degree k, the (count, k) multisets in lexicographic order and the
    (count, N, N) stack of their words.  The words are written into
    ``stack`` (whose first d slots may hold the A_j, scaled in place) with
    the N x N ``scratch``; each is allocated when None.

    S_a is the sum over the distinct orderings of a of the products of its
    B_j, so (sum_j c_j B_j)^k = sum_{|a| = k} c^a S_a.  It is built as S_a =
    sum over the distinct letters j of a of B_j S_{a-j}.
    """
    d = len(mats)
    keys = [
        a for k in range(1, degree + 1) for a in itertools.combinations_with_replacement(range(d), k)
    ]
    position = {a: i for i, a in enumerate(keys)}
    if stack is None:
        stack = np.empty((len(keys),) + mats[0].shape, dtype=np.complex128)
    if scratch is None:
        scratch = np.empty(mats[0].shape, dtype=np.complex128)
    for j, a in enumerate(mats):
        np.multiply(a, scale, out=stack[j])
    for i, a in enumerate(keys[d:], start=d):
        terms = [(j, position[a[: a.index(j)] + a[a.index(j) + 1 :]]) for j in sorted(set(a))]
        np.matmul(stack[terms[0][0]], stack[terms[0][1]], out=stack[i])
        for j, rest in terms[1:]:
            stack[i] += np.matmul(stack[j], stack[rest], out=scratch)
    bounds = np.cumsum([0] + [math.comb(d + k - 1, k) for k in range(1, degree + 1)])
    return [(np.array(keys[lo:hi]), stack[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _powers(
    words: Sequence[tuple[np.ndarray, np.ndarray]], c: np.ndarray, powers: np.ndarray | None = None
) -> np.ndarray:
    """The (3, N, N) stack X, X^2, X^3 of X = sum_j c_j B_j, written into
    ``powers`` (allocated when None): contractions of the words with the
    monomials c^a up to the word degree, and products X^(k-1) X past it."""
    if powers is None:
        n = words[0][1].shape[1]
        powers = np.empty((3, n, n), dtype=np.complex128)
    for k, (letters, stack) in enumerate(words):
        _combine(np.prod(c[letters], axis=1), stack, powers[k])
    for k in range(len(words), 3):
        np.matmul(powers[k - 1], powers[0], out=powers[k])
    return powers


def _word_degree_of(incs: IncrementSequence) -> int:
    return _word_degree(incs.dim, len(_nonzero(incs.deltas)))


@np.errstate(over="ignore", invalid="ignore")
def _development(
    incs: IncrementSequence, mats: Sequence[np.ndarray], n_dim: int, unit: complex, space: _Workspace | None
) -> np.ndarray:
    """Ordered product over nonzero increments of exp(sum_j unit D_k^j A_j / sqrt(N)),
    computed in ``space`` and returned in its first two product slots, or,
    with ``space`` None, in a workspace of its own and returned alone.

    Raises ``NumericError`` when the product is not finite.  That is checked
    once, on the product, since a factor that overflows makes it so; only a
    factor whose alpha is infinite raises in ``_expm``, which cannot scale it.
    numpy's overflow warnings are silenced, since these checks report it.
    """
    if space is None:
        return _development(incs, mats, n_dim, unit, _workspace(n_dim, incs.dim, _word_degree_of(incs))).copy()
    rows = _nonzero(incs.deltas)
    z, spare = space.products[:2]
    if not len(rows):
        z[...] = 0.0
        np.fill_diagonal(z, 1.0)
        return z
    words = _words(mats, unit / math.sqrt(n_dim), _word_degree(incs.dim, len(rows)), space.words, space.taylor[0])
    np.copyto(z, _expm(_powers(words, rows[0], space.powers), space.taylor))
    for c in rows[1:]:
        np.matmul(z, _expm(_powers(words, c, space.powers), space.taylor), out=spare)
        z, spare = spare, z
    finite = np.isfinite(z, out=space.taylor.reshape(-1).view(np.bool_)[: z.size].reshape(z.shape))
    if not finite.all():
        raise NumericError(f"the development overflowed at N = {n_dim}: an increment is too large")
    return z


def unitary_development(
    incs: IncrementSequence, mats: Sequence[np.ndarray], n_dim: int, workspace: _Workspace | None = None
) -> np.ndarray:
    """Ordered product over increments of exp(i/sqrt(N) sum_j A_j D_k^j).

    The A_j must be Hermitian.  Each factor is the Taylor exponential
    ``_expm`` of the skew-Hermitian generator, so the result is unitary up
    to the truncation error 2**-53 plus roundoff per factor.

    With a ``workspace`` (the estimators' own), the A_j are the GUE
    matrices ``sample_matrices`` drew into it, Hermitian as drawn and not
    checked again, and the result is a view into the workspace that its
    next development overwrites.
    """
    if len(mats) != incs.dim:
        raise DomainError("need one matrix per path dimension")
    if workspace is None:
        for a in mats:
            if a.shape != (n_dim, n_dim):
                raise DomainError("matrix size does not match n_dim")
            scale = 1.0 + float(np.abs(a).max(initial=0.0))
            if float(np.abs(a - a.conj().T).max(initial=0.0)) > _HERMITIAN_TOL * scale:
                raise DomainError("unitary development requires Hermitian matrices")
    return _development(incs, mats, n_dim, 1j, workspace)


def gl_development(
    incs: IncrementSequence, mats: Sequence[np.ndarray], n_dim: int, workspace: _Workspace | None = None
) -> np.ndarray:
    """Ordered product over increments of exp(1/sqrt(N) sum_j A_j D_k^j),
    with general complex matrices (Taylor exponentials ``_expm``).  With a
    ``workspace``, the result is a view into it, as for
    ``unitary_development``."""
    if len(mats) != incs.dim:
        raise DomainError("need one matrix per path dimension")
    if any(a.shape != (n_dim, n_dim) for a in mats):
        raise DomainError("matrix size does not match n_dim")
    return _development(incs, mats, n_dim, 1.0, workspace)


class RkEstimate(NamedTuple):
    estimate: float
    stderr: float
    imag_diag: float


class SigKernelEstimate(NamedTuple):
    estimate: float
    stderr: float


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / np.sqrt(len(values)))


def _blas_threads(cpus: int) -> int:
    """Threads one BLAS call uses, by OpenBLAS's rule: OPENBLAS_NUM_THREADS,
    else OMP_NUM_THREADS, else every usable CPU; 0 when the variable that
    decides is not a positive integer."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name)
        if value is not None:
            try:
                return max(0, int(value))
            except ValueError:
                return 0
    return cpus


def _sample_threads(samples: int, n_dim: int) -> int:
    """Threads to develop ``samples`` samples of size ``n_dim`` on: from
    N = ``_THREADED_MIN_N`` on, min(M, usable CPUs // BLAS threads per
    call), else 1; 1 also when the BLAS threads are not known."""
    if n_dim < _THREADED_MIN_N:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blas = _blas_threads(cpus)
    return max(1, min(samples, cpus // blas)) if blas else 1


def _each_sample(count: int, develop: Callable[[int, _Workspace], None], spaces: Sequence[_Workspace]) -> None:
    """develop(s, space) for every sample s < count, on one thread per
    workspace: thread w, the calling thread being 0, takes the samples w,
    w + W, w + 2W, ... with spaces[w].  Every thread has stopped when it
    returns.  A sample that raises stops its thread, and the threads skip
    the samples past the lowest one that raised, whose exception is raised
    then: the one the samples in order would raise."""
    if len(spaces) == 1:
        for s in range(count):
            develop(s, spaces[0])
        return
    stride = len(spaces)
    failed: dict[int, Exception] = {}
    lowest = [count]
    lock = threading.Lock()

    def share(w: int) -> None:
        for s in range(w, count, stride):
            if s > lowest[0]:
                return
            try:
                develop(s, spaces[w])
            except Exception as exc:  # raised in the calling thread, below
                with lock:
                    failed[s] = exc
                    lowest[0] = min(lowest[0], s)
                return

    threads = []
    try:
        for w in range(1, stride):
            thread = threading.Thread(target=share, args=(w,))
            thread.start()
            threads.append(thread)
        share(0)
    except BaseException:
        lowest[0] = -1  # interrupted: the other threads stop after their current sample
        raise
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]


def _workspaces(cfg: EnsembleConfig, incs: Sequence[IncrementSequence]) -> list[_Workspace]:
    """One workspace per sample thread for the developments of ``incs``
    per sample, all allocated by the calling thread."""
    degree = max(map(_word_degree_of, incs))
    threads = _sample_threads(cfg.samples_m, cfg.dim_n)
    return [_workspace(cfg.dim_n, cfg.path_dim, degree, len(incs)) for _ in range(threads)]


def rk_montecarlo(path: Path, cfg: EnsembleConfig) -> RkEstimate:
    """Monte-Carlo estimate of the Schwinger-Dyson kernel of one path:
    mean over samples of (1/N) tr of the unitary development.

    Returns the real part, its sample standard error, and the largest
    absolute imaginary part seen (the limit is real; this is a diagnostic).
    Depends on the path only through its increments.
    """
    if cfg.kind != GUE:
        raise DomainError("rk_montecarlo requires the GUE ensemble")
    if cfg.path_dim != path.dim:
        raise DomainError("cfg.path_dim does not match the path")
    incs = IncrementSequence(_finite_deltas(path))
    traces = np.empty(cfg.samples_m, dtype=np.complex128)

    def develop(s: int, space: _Workspace) -> None:
        mats = sample_matrices(cfg, s, space)
        traces[s] = np.trace(unitary_development(incs, mats, cfg.dim_n, space)) / cfg.dim_n

    _each_sample(cfg.samples_m, develop, _workspaces(cfg, [incs]))
    estimate, stderr = _mean_stderr(traces.real)
    return RkEstimate(estimate, stderr, float(np.abs(traces.imag).max(initial=0.0)))


def sigkernel_montecarlo(
    gamma: Path,
    sigma: Path,
    partition: Partition | None,
    cfg: EnsembleConfig,
) -> SigKernelEstimate:
    """Monte-Carlo estimate of the signature kernel of two paths:
    mean over samples of (1/N) tr(Z_gamma^* Z_sigma) for general-linear
    developments driven by the same Ginibre matrices.  With ``partition``
    None, each path is developed over its own segments.
    """
    if cfg.kind != COMPLEX_GINIBRE:
        raise DomainError("sigkernel_montecarlo requires the complex Ginibre ensemble")
    if gamma.dim != sigma.dim:
        raise DomainError("paths must share dimension")
    if cfg.path_dim != gamma.dim:
        raise DomainError("cfg.path_dim does not match the paths")
    if partition is not None:
        incs_a = piecewise_constant_increments(gamma, partition)
        incs_b = piecewise_constant_increments(sigma, partition)
    else:
        incs_a = IncrementSequence(_finite_deltas(gamma))
        incs_b = IncrementSequence(_finite_deltas(sigma))
    pairings = np.empty(cfg.samples_m, dtype=np.complex128)

    def develop(s: int, space: _Workspace) -> None:
        mats = sample_matrices(cfg, s, space)
        z_a = space.products[2]  # held while sigma's development runs in the first two
        np.copyto(z_a, gl_development(incs_a, mats, cfg.dim_n, space))
        z_b = gl_development(incs_b, mats, cfg.dim_n, space)
        pairings[s] = np.vdot(z_a, z_b) / cfg.dim_n

    _each_sample(cfg.samples_m, develop, _workspaces(cfg, [incs_a, incs_b]))
    estimate, stderr = _mean_stderr(pairings.real)
    return SigKernelEstimate(estimate, stderr)
