"""The Schwinger-Dyson kernel: grid schemes, closed forms, series oracle.

The kernel K(s, t) solves the quadratic functional equation

    K(s, t) = 1 - int_s^t int_s^r K(s, u) K(u, r) <dg_u, dg_r>,  K(s, s) = 1,

driven by a bounded-variation path g.  Replacing g by its piecewise
constant approximation on a partition turns the equation into a triangular
system over the grid; left-point integration gives an explicit scheme and
right-point integration an implicit one.  Both converge at first order in
the largest per-interval 1-variation.

The left-point grid is normalised so that its value equals the moments of
free semicircular variables contracted against the iterated-sums signature
of the approximation, exactly; that identity (checked in the tests) also
yields the convergence rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import backend
from .errors import DomainError, ResourceLimitError
from .freeprob import nc2_enumerate
from .paths import (
    IncrementSequence,
    Partition,
    Path,
    concat_reverse,
    dyadic_refine,
    one_variation,
    piecewise_constant_increments,
    refine_to_variation,
)
from .signature import (
    _check_feature_budget,
    _check_same_dim,
    _fill_gram,
    _reverse_words,
    truncated_signature,
)

MAX_SERIES_LEVEL = 16

_EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class SolutionGrid:
    """Kernel values K(t_i, t_j) for i <= j over a partition.

    ``values`` is (n+1, n+1) with zeros below the diagonal; the diagonal is
    exactly 1 (boundary condition of the functional equation).
    """

    knots: Partition
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        size = len(self.knots)
        if values.shape != (size, size):
            raise DomainError("grid shape must match the partition")
        if not np.all(np.isfinite(values)):
            raise DomainError("grid values must be finite")
        if not np.all(values.diagonal() == 1.0):
            raise DomainError("grid diagonal must equal 1 exactly")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def value(self, i: int, j: int) -> float:
        if not 0 <= i <= j < len(self.knots):
            raise DomainError("grid indices must satisfy 0 <= i <= j <= n")
        return float(self.values[i, j])

    @property
    def final(self) -> float:
        """K at the full interval (first knot, last knot)."""
        return float(self.values[0, -1])


def _index_partition(n: int) -> Partition:
    return Partition(np.arange(n + 1, dtype=np.float64))


def _gram(incs: IncrementSequence) -> np.ndarray:
    deltas = incs.deltas
    if len(deltas) == 0:
        return np.zeros((0, 0))
    return deltas @ deltas.T


def solve_explicit(incs: IncrementSequence, knots: Partition | None = None) -> SolutionGrid:
    """Left-point grid scheme.

    Column by column,

        K[a][b] = K[a][b-1]
                  - sum_{p=a}^{b-2} K[a][p] K[p+1][b-1] <D[p], D[b-1]>,

    the one-step form of the double-sum expansion whose inner window opens
    just past the first jump of each pair.  Values depend only on the
    increments, never on the knot times.
    """
    if knots is None:
        knots = _index_partition(len(incs))
    elif len(knots) != len(incs) + 1:
        raise DomainError("partition must have one more knot than increments")
    return SolutionGrid(knots, backend.explicit_grid(_gram(incs)))


def solve_implicit(incs: IncrementSequence, knots: Partition | None = None) -> SolutionGrid:
    """Right-point grid scheme.

    Each cell solves its own linearised equation,

        K[i][b] = (K[i][b-1]
                   - sum_{k=i+1}^{b-1} K[i][k] K[k][b] <D[k-1], D[b-1]>)
                  / (1 + <D[b-1], D[b-1]>),

    obtained by moving the diagonal term of the right-point double sum to
    the left-hand side.
    """
    if knots is None:
        knots = _index_partition(len(incs))
    elif len(knots) != len(incs) + 1:
        raise DomainError("partition must have one more knot than increments")
    return SolutionGrid(knots, backend.implicit_grid(_gram(incs)))


def semicircle_charfn(x: float) -> float:
    """Characteristic function of the radius-2 semicircle law, J1(2x)/x.

    Evaluated with the Bessel function from scipy, accurate at every x
    (the alternating power series sum_k (-1)^k x^(2k) / (k! (k+1)!) loses
    all its digits to cancellation past x of about 10); the limit value at
    x = 0 is 1.  Even in x.
    """
    from scipy import special  # imported here: most commands never need it

    if x == 0.0:
        return 1.0
    return float(special.j1(2.0 * x) / x)


def exact_straight_line(speed: float, s: float, t: float) -> float:
    """Closed-form kernel for a straight line of the given speed over [s, t]."""
    if speed < 0:
        raise DomainError("speed must be nonnegative")
    if s > t:
        raise DomainError("need s <= t")
    return semicircle_charfn((t - s) * speed)


class SeriesKernel(NamedTuple):
    value: float
    tail_bound: float
    level: int


def series_tail_bound(variation: float, level: int) -> float:
    """Bound on the series tail past the given (even) level:
    sum over even m > level of C_{m/2} variation^m / m!."""
    if variation <= 0.0:
        return 0.0
    v2 = variation * variation
    # term_k = C_k v^(2k) / (2k)!, built by its ratio recurrence
    term = 1.0
    for k in range(level // 2 + 1):
        term *= 2.0 * v2 / ((k + 2) * (2 * k + 2))
    total = 0.0
    k = level // 2 + 1
    while True:
        total += term
        ratio = 2.0 * v2 / ((k + 2) * (2 * k + 2))
        term *= ratio
        k += 1
        if ratio < 0.5 and term <= 1e-18 * max(total, 1e-300):
            total += term / (1.0 - ratio)  # geometric bound on the rest
            return total
        if k > 5000:
            return math.inf


def _pairing_subscripts(partition, length: int) -> str:
    labels = [""] * length
    for letter, (i, j) in zip(_EINSUM_LETTERS, partition.sorted_pairs()):
        labels[i - 1] = letter
        labels[j - 1] = letter
    return "".join(labels) + "->"


def _moment_contraction(tensor: np.ndarray, dim: int, length: int) -> float:
    """sum_I phi(I) S^I over words of one even length.

    Reorganised as a sum over non-crossing pairings: each pairing
    contributes the generalized diagonal of the level tensor where paired
    slots share an index, which einsum extracts without materialising the
    d^m moment table.
    """
    cube = tensor.reshape((dim,) * length)
    total = 0.0
    for partition in nc2_enumerate(length):
        total += float(np.einsum(_pairing_subscripts(partition, length), cube))
    return total


def _series_level(variation: float, tol: float) -> int:
    """Smallest even level <= MAX_SERIES_LEVEL whose certified tail bound at
    the given 1-variation falls below tol; a resource error otherwise."""
    for candidate in range(0, MAX_SERIES_LEVEL + 1, 2):
        if series_tail_bound(variation, candidate) < tol:
            return candidate
    raise ResourceLimitError(
        f"series tail cannot reach tol={tol:g} within level {MAX_SERIES_LEVEL}; "
        f"achievable bound is {series_tail_bound(variation, MAX_SERIES_LEVEL):.3e}"
    )


def series_oracle(
    path: Path,
    s: float | None = None,
    t: float | None = None,
    tol: float = 1e-8,
) -> SeriesKernel:
    """Kernel via its moment expansion sum_I i^|I| phi(I) S^I(path).

    Odd levels vanish; even level m carries sign (-1)^(m/2).  The truncation
    level is the smallest even L <= 16 whose certified tail bound
    sum_{m>L} C_{m/2} |path|_1^m / m! falls below ``tol``; if none does, a
    resource error reports the best achievable bound.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if s is None:
        s = path.start_time
    if t is None:
        t = path.end_time
    variation = one_variation(path, (s, t))
    level = _series_level(variation, tol)
    sig = truncated_signature(path, (s, t), level)
    value = 1.0
    for m in range(2, level + 1, 2):
        sign = -1.0 if (m // 2) % 2 else 1.0
        value += sign * _moment_contraction(sig.tensors[m], path.dim, m)
    return SeriesKernel(value, series_tail_bound(variation, level), level)


def _moment_table(dim: int, length: int) -> np.ndarray:
    """phi(I) for every word I of one even length over {1..dim}, flat in
    lexicographic order: each non-crossing pairing adds 1 to the words
    whose paired letters agree."""
    table = np.zeros(dim**length)
    letters = np.arange(dim)
    for partition in nc2_enumerate(length):
        index = np.zeros(1, dtype=np.int64)
        for i, j in partition.sorted_pairs():
            weight = dim ** (length - i) + dim ** (length - j)
            index = (index[:, None] + letters * weight).ravel()
        table[index] += 1.0
    return table


def _series_column(sig: Sequence[np.ndarray], dim: int, level: int, tables) -> dict[int, np.ndarray]:
    """Right-hand factors of the series for a path sigma with signature
    levels ``sig``.  Entry m (even, 2 <= m <= level) concatenates, for
    p = 0..m and q = m - p, the vectors Phi_m[p, q] S^q(<-sigma), where
    S^K(<-sigma) = (-1)^q S^rev(K)(sigma); its dot product with levels
    0..m of S(gamma), concatenated, is level m of the series for
    gamma * <-sigma."""
    backwards = [_reverse_words(t[None, :], dim, q)[0] for q, t in enumerate(sig[: level + 1])]
    return {
        m: np.concatenate(
            [tables[m].reshape(dim**p, dim ** (m - p)) @ backwards[m - p] for p in range(m + 1)]
        )
        for m in range(2, level + 1, 2)
    }


def _series_pair(features: np.ndarray, column: dict[int, np.ndarray], level: int) -> float:
    """K_SD(gamma, sigma) at one level from the concatenated signature
    levels of gamma and the factors ``_series_column`` built for sigma."""
    value = 1.0
    for m in range(2, level + 1, 2):
        part = column[m]
        term = float(np.dot(features[: part.shape[0]], part))
        value += -term if (m // 2) % 2 else term
    return value


def _series_gram(paths_a: Sequence[Path], paths_b: Sequence[Path], tol: float):
    """Series values of every pair, with the level of each pair and the
    1-variation of each path."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    dim = _check_same_dim(paths_a, paths_b)
    same = paths_b is paths_a
    var_a = [one_variation(p) for p in paths_a]
    var_b = var_a if same else [one_variation(p) for p in paths_b]
    levels = np.array([[_series_level(u + v, tol) for v in var_b] for u in var_a])
    row_levels = [int(level) for level in levels.max(axis=1)]
    _check_feature_budget(dim, row_levels)
    tables = {m: _moment_table(dim, m) for m in range(2, int(levels.max()) + 1, 2)}
    features = [
        np.concatenate(truncated_signature(p, level=level).tensors)
        for p, level in zip(paths_a, row_levels)
    ]

    def column(j):
        level = int(levels[:, j].max())
        if same:
            sig = np.split(features[j], np.cumsum([dim**m for m in range(level)]))
        else:
            sig = truncated_signature(paths_b[j], level=level).tensors
        factors = _series_column(sig, dim, level, tables)
        return lambda i: _series_pair(features[i], factors, int(levels[i, j]))

    return _fill_gram(len(paths_a), len(paths_b), same, column), levels, var_a, var_b


def series_gram(paths_a: Sequence[Path], paths_b: Sequence[Path], tol: float = 1e-6) -> np.ndarray:
    """Schwinger-Dyson kernel K_SD(a_i, b_j) of every pair by the series.

    Pair (i, j) is truncated at the level ``series_oracle`` picks for
    gamma * <-sigma, whose 1-variation is |a_i|_1 + |b_j|_1, and a pair
    that needs more than MAX_SERIES_LEVEL raises the same resource error.
    Each path is signed once, up to the deepest level of its pairs: the
    signatures of ``paths_a`` are kept, each path of ``paths_b`` is signed
    when its column is filled.  By Chen's identity
    S(gamma * <-sigma) = S(gamma) (x) S(<-sigma), so level m of the series
    is a bilinear form,

        sum_{p+q=m} S^p(gamma) Phi_m[p, q] S^q(<-sigma),

    with Phi_m the level-m moment table reshaped to d^p x d^q.  The factors
    Phi_m[p, q] S^q(<-sigma) are formed once per path of ``paths_b``, and
    each entry is then one dot product per level.  ``series_kernel`` runs
    the same code on one pair, so the two agree bit for bit.
    """
    return _series_gram(paths_a, paths_b, tol)[0]


def series_kernel(gamma: Path, sigma: Path, tol: float = 1e-6) -> SeriesKernel:
    """K_SD(gamma, sigma) by the series of gamma * <-sigma, evaluated as one
    entry of ``series_gram``, with its level and certified tail bound."""
    values, levels, var_a, var_b = _series_gram((gamma,), (sigma,), tol)
    level = int(levels[0, 0])
    return SeriesKernel(float(values[0, 0]), series_tail_bound(var_a[0] + var_b[0], level), level)


def k_sd(
    gamma: Path,
    sigma: Path,
    scheme: str = "series",
    partition: Partition | None = None,
    *,
    dyadic_order: int = 0,
    mesh: float | None = None,
    tol: float = 1e-6,
) -> float:
    """Schwinger-Dyson kernel of two paths: the kernel of gamma followed by
    reversed sigma, evaluated at the full interval.

    Grid schemes discretize the concatenation on ``partition`` if given,
    else on its own knots refined per ``mesh`` (target per-interval
    1-variation) or ``dyadic_order``.  The series scheme uses ``tol``.
    """
    if gamma.dim != sigma.dim:
        raise DomainError("paths must share dimension")
    if scheme == "series":
        return series_kernel(gamma, sigma, tol).value
    if scheme not in ("explicit", "implicit"):
        raise DomainError(f"unknown scheme {scheme!r}; choose from explicit, implicit, series")
    y = concat_reverse(gamma, sigma)
    if partition is None:
        if mesh is not None:
            partition = refine_to_variation(y, mesh)
        else:
            partition = dyadic_refine(Partition(y.times), dyadic_order)
    incs = piecewise_constant_increments(y, partition)
    if scheme == "explicit":
        return solve_explicit(incs, partition).final
    return solve_implicit(incs, partition).final
