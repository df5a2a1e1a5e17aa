"""Random matrix ensembles, path developments, Monte-Carlo estimators.

A path development integrates dZ = Z M(dg) through a matrix Lie group; on
a piecewise-constant control the solution is an ordered product of matrix
exponentials, one per jump.  Averaging normalised traces of unitary (GUE)
developments estimates the Schwinger-Dyson kernel; averaging Hilbert-
Schmidt pairings of general-linear (Ginibre) developments with shared
matrices estimates the signature kernel.

Both developments take each factor from one matrix exponential, a
truncated Taylor series with scaling and squaring (``_expm``) whose
truncation error is below 2**-53 for any matrix, normal or not.

Sampling uses one counter-keyed stream per (seed, sample, matrix), so the
sample set is reproducible and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .paths import IncrementSequence, Partition, Path, piecewise_constant_increments
from .rng import TAG_GINIBRE, TAG_GUE, keyed_generator

GUE = "gue"
COMPLEX_GINIBRE = "complex_ginibre"
ENSEMBLES = (GUE, COMPLEX_GINIBRE)

# total complex entries N*N*d*M a configuration may demand
MEMORY_BUDGET_ENTRIES = 2**33

_HERMITIAN_TOL = 1e-9


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


def sample_matrices(cfg: EnsembleConfig, sample_index: int) -> list[np.ndarray]:
    """The d matrices of one Monte-Carlo sample, deterministic per
    (seed, sample_index, matrix index).

    GUE: Hermitian, real standard-normal diagonal, off-diagonal entries with
    independent real and imaginary parts of variance 1/2 (unit second
    absolute moment).  complex_ginibre: all entries independent complex with
    the same normalisation.
    """
    if not 0 <= sample_index < cfg.samples_m:
        raise DomainError("sample_index out of range")
    tag = TAG_GUE if cfg.kind == GUE else TAG_GINIBRE
    n = cfg.dim_n
    mats = []
    for i in range(cfg.path_dim):
        rng = keyed_generator(cfg.seed, tag, sample_index, i)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if cfg.kind == GUE:
            mats.append((raw + raw.conj().T) / 2.0)
        else:
            mats.append(raw / np.sqrt(2.0))
    return mats


# Taylor degrees of _expm are multiples of 3: degree 3q costs the same q - 1
# block products as degrees 3q - 2 and 3q - 1, and truncates less.
_TAYLOR_COEFFS = [1.0 / math.factorial(k) for k in range(32)]
_UNIT_ROUNDOFF = 2.0**-53


def _taylor_degree(alpha: float) -> int:
    """Smallest multiple m of 3 with alpha**(m+1) e**alpha / (m+1)! <= 2**-53:
    for alpha <= 1 a bound on the norm of the Taylor remainder past degree m
    (Al-Mohy & Higham 2009, Thm 4.2, with alpha = max(|X^2|^(1/2), |X^3|^(1/3)))."""
    m = 3
    while alpha ** (m + 1) * math.exp(alpha) * _TAYLOR_COEFFS[m + 1] > _UNIT_ROUNDOFF:
        m += 3
    return m


def _add_taylor_block(out: np.ndarray, x: np.ndarray, x2: np.ndarray, k: int) -> None:
    """out += c_k I + c_{k+1} X + c_{k+2} X^2 with c_j = 1/j!."""
    out += _TAYLOR_COEFFS[k + 1] * x
    out += _TAYLOR_COEFFS[k + 2] * x2
    out.flat[:: x.shape[0] + 1] += _TAYLOR_COEFFS[k]


def _expm(x: np.ndarray) -> np.ndarray:
    """exp(X) of a complex square matrix; X may be overwritten.

    Scales X by 2**-s so that alpha = max(|X^2|_1^(1/2), |X^3|_1^(1/3)) <= 1,
    sums the Taylor series to the degree ``_taylor_degree`` picks by
    Paterson-Stockmeyer in X^3 over blocks c_3j I + c_3j+1 X + c_3j+2 X^2,
    and squares s times.  The zero matrix gives the identity exactly.
    """
    x2 = x @ x
    x3 = x2 @ x
    alpha = max(np.linalg.norm(x2, 1) ** 0.5, np.linalg.norm(x3, 1) ** (1.0 / 3.0))
    squarings = max(0, math.ceil(math.log2(alpha))) if alpha > 1.0 else 0
    if squarings:  # powers of two: the scaling is exact
        x *= 2.0**-squarings
        x2 *= 4.0**-squarings
        x3 *= 8.0**-squarings
        alpha *= 2.0**-squarings
    top = _taylor_degree(alpha) - 3
    result = x3 * _TAYLOR_COEFFS[top + 3]
    _add_taylor_block(result, x, x2, top)
    buffer = np.empty_like(result)
    for k in range(top - 3, -1, -3):
        np.matmul(result, x3, out=buffer)
        result, buffer = buffer, result
        _add_taylor_block(result, x, x2, k)
    for _ in range(squarings):
        np.matmul(result, result, out=buffer)
        result, buffer = buffer, result
    return result


def _generator(
    incs: IncrementSequence, mats: Sequence[np.ndarray], n_dim: int, k: int, unit: complex
) -> np.ndarray:
    """sum_j (unit D_k^j / sqrt(N)) A_j, built without a full-matrix divide."""
    x = None
    for j in range(incs.dim):
        coeff = incs.deltas[k, j]
        if coeff != 0.0:
            term = mats[j] * (unit * coeff / math.sqrt(n_dim))
            if x is None:
                x = term
            else:
                x += term
    return x


def _develop(
    incs: IncrementSequence, mats: Sequence[np.ndarray], n_dim: int, unit: complex
) -> np.ndarray:
    """Ordered product over nonzero increments of exp(sum_j unit D_k^j A_j / sqrt(N))."""
    z = None
    for k in range(len(incs)):
        if not np.any(incs.deltas[k]):
            continue
        factor = _expm(_generator(incs, mats, n_dim, k, unit))
        z = factor if z is None else z @ factor
    return np.eye(n_dim, dtype=np.complex128) if z is None else z


def unitary_development(
    incs: IncrementSequence, mats: Sequence[np.ndarray], n_dim: int
) -> np.ndarray:
    """Ordered product over increments of exp(i/sqrt(N) sum_j A_j D_k^j).

    The A_j must be Hermitian.  Each factor is the Taylor exponential
    ``_expm`` of the skew-Hermitian generator, so the result is unitary up
    to the truncation error 2**-53 plus roundoff per factor.
    """
    if len(mats) != incs.dim:
        raise DomainError("need one matrix per path dimension")
    for a in mats:
        if a.shape != (n_dim, n_dim):
            raise DomainError("matrix size does not match n_dim")
        scale = 1.0 + float(np.abs(a).max(initial=0.0))
        if float(np.abs(a - a.conj().T).max(initial=0.0)) > _HERMITIAN_TOL * scale:
            raise DomainError("unitary development requires Hermitian matrices")
    return _develop(incs, mats, n_dim, 1j)


def gl_development(
    incs: IncrementSequence, mats: Sequence[np.ndarray], n_dim: int
) -> np.ndarray:
    """Ordered product over increments of exp(1/sqrt(N) sum_j A_j D_k^j),
    with general complex matrices (Taylor exponentials ``_expm``)."""
    if len(mats) != incs.dim:
        raise DomainError("need one matrix per path dimension")
    return _develop(incs, mats, n_dim, 1.0)


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


def rk_montecarlo(
    path: Path, partition: Partition | None, cfg: EnsembleConfig
) -> RkEstimate:
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
    if partition is None:
        partition = Partition(path.times)
    incs = piecewise_constant_increments(path, partition)
    traces = np.empty(cfg.samples_m, dtype=np.complex128)
    for s in range(cfg.samples_m):
        mats = sample_matrices(cfg, s)
        z = unitary_development(incs, mats, cfg.dim_n)
        traces[s] = np.trace(z) / cfg.dim_n
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
    developments driven by the same Ginibre matrices.
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
        incs_a = piecewise_constant_increments(gamma, Partition(gamma.times))
        incs_b = piecewise_constant_increments(sigma, Partition(sigma.times))
    pairings = np.empty(cfg.samples_m, dtype=np.complex128)
    for s in range(cfg.samples_m):
        mats = sample_matrices(cfg, s)
        z_a = gl_development(incs_a, mats, cfg.dim_n)
        z_b = gl_development(incs_b, mats, cfg.dim_n)
        pairings[s] = np.vdot(z_a, z_b) / cfg.dim_n
    estimate, stderr = _mean_stderr(pairings.real)
    return SigKernelEstimate(estimate, stderr)
