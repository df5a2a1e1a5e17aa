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
from .paths import IncrementSequence, Path, _check_grid_cells, _refined_deltas, one_variation
from .signature import (
    _check_feature_budget,
    _check_same_dim,
    _fill_gram,
    _level_views,
    _reverse_words,
    _sign_paths,
    truncated_signature,
)

MAX_SERIES_LEVEL = 16


@dataclass(frozen=True)
class SolutionGrid:
    """Kernel values K(t_i, t_j) for i <= j over the n+1 knots of a grid.

    ``values`` is (n+1, n+1) with zeros below the diagonal; the diagonal is
    exactly 1 (boundary condition of the functional equation).
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] < 1:
            raise DomainError("grid values must be a nonempty square array")
        if not np.all(np.isfinite(values)):
            raise DomainError("grid values must be finite")
        if not np.all(values.diagonal() == 1.0):
            raise DomainError("grid diagonal must equal 1 exactly")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def value(self, i: int, j: int) -> float:
        if not 0 <= i <= j < self.values.shape[0]:
            raise DomainError("grid indices must satisfy 0 <= i <= j <= n")
        return float(self.values[i, j])

    @property
    def final(self) -> float:
        """K at the full interval (first knot, last knot)."""
        return float(self.values[0, -1])


def _reversed(deltas: np.ndarray) -> np.ndarray:
    """Refined increments of the reversed path, from the path's own: flipped
    and negated.  gamma * <-sigma has gamma's increments, then these of
    sigma's."""
    return -deltas[::-1]


def solve_explicit(incs: IncrementSequence) -> SolutionGrid:
    """Left-point grid scheme.

    Column by column,

        K[a][b] = K[a][b-1]
                  - sum_{p=a}^{b-2} K[a][p] K[p+1][b-1] <D[p], D[b-1]>,

    the one-step form of the double-sum expansion whose inner window opens
    just past the first jump of each pair.  Values depend only on the
    increments, never on the knot times, so the solvers take none.  The
    whole grid is solved at once, as the reference for ``grid_gram``,
    which solves a pair by its two own grids and the rectangle between
    them (:mod:`sigdev.backend`), equal to this grid up to rounding.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = backend._inner(incs.deltas, incs.deltas)
    return SolutionGrid(backend.explicit_grid(gram))


def solve_implicit(incs: IncrementSequence) -> SolutionGrid:
    """Right-point grid scheme.

    Each cell solves its own linearised equation,

        K[i][b] = (K[i][b-1]
                   - sum_{k=i+1}^{b-1} K[i][k] K[k][b] <D[k-1], D[b-1]>)
                  / (1 + <D[b-1], D[b-1]>),

    obtained by moving the diagonal term of the right-point double sum to
    the left-hand side.  The grid is solved row by row, bottom-up, in the
    equivalent row form of :mod:`sigdev.backend`.  As for
    :func:`solve_explicit`, the whole grid is solved at once.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = backend._inner(incs.deltas, incs.deltas)
    return SolutionGrid(backend.implicit_grid(gram))


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


def series_oracle(path: Path, tol: float = 1e-8) -> SeriesKernel:
    """Kernel via its moment expansion sum_I i^|I| phi(I) S^I(path).

    Odd levels vanish; even level m carries sign (-1)^(m/2) and is the dot
    product of the level-m signature with the moment table phi over words
    of length m (``_moment_tables``, which ``series_gram`` also uses).  The
    truncation level is the smallest even L <= 16 whose certified tail
    bound sum_{m>L} C_{m/2} |path|_1^m / m! falls below ``tol``; if none
    does, a resource error reports the best achievable bound.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    variation = one_variation(path)
    level = _series_level(variation, tol)
    sig = truncated_signature(path, level=level)
    tables = _moment_tables(path.dim, level)
    value = 1.0
    for m in range(2, level + 1, 2):
        term = float(np.dot(tables[m], sig.tensors[m].ravel()))
        value += -term if (m // 2) % 2 else term
    return SeriesKernel(value, series_tail_bound(variation, level), level)


def _moment_tables(dim: int, level: int) -> dict[int, np.ndarray]:
    """phi(I) for every word I over {1..dim} of each even length m <= level,
    flat in lexicographic order.  Built by the Schwinger-Dyson recursion
    phi(a u b v) = sum delta_ab phi(u) phi(v), over the even lengths j of u:
    the first letter pairs with the letter after u.  The entries count
    non-crossing pairings, so they are exact."""
    letters = np.arange(dim)
    tables = {0: np.ones(1)}
    for m in range(2, level + 1, 2):
        table = np.zeros(dim**m)
        for j in range(0, m - 1, 2):
            words = table.reshape(dim, dim**j, dim, dim ** (m - 2 - j))
            words[letters, :, letters, :] += np.multiply.outer(tables[j], tables[m - 2 - j])
        tables[m] = table
    return tables


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
    if not tol > 0:
        raise DomainError("tol must be positive")
    dim = _check_same_dim(paths_a, paths_b)
    same = paths_b is paths_a
    var_a = [one_variation(p) for p in paths_a]
    var_b = var_a if same else [one_variation(p) for p in paths_b]
    if same:
        # float addition commutes, so level (j, i) is level (i, j)
        levels = np.zeros((len(var_a), len(var_a)), dtype=int)
        for i, j in zip(*np.triu_indices(len(var_a))):
            levels[i, j] = levels[j, i] = _series_level(var_a[i] + var_a[j], tol)
    else:
        levels = np.array([[_series_level(u + v, tol) for v in var_b] for u in var_a])
    row_levels = [int(level) for level in levels.max(axis=1)]
    _check_feature_budget(dim, row_levels)
    tables = _moment_tables(dim, int(levels.max()))
    features = _sign_paths(paths_a, row_levels)

    def column(j):
        level = int(levels[:, j].max())
        if same:
            sig = _level_views(features[j], dim, level)
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
    Each path is signed once, up to the deepest level of its pairs:
    ``paths_a`` in one batched pass, whose signatures are kept, each path of
    ``paths_b`` when its column is filled.  By Chen's identity
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
    *,
    dyadic_order: int = 0,
    mesh: float | None = None,
    tol: float = 1e-6,
) -> float:
    """Schwinger-Dyson kernel of two paths: the kernel of gamma followed by
    reversed sigma, evaluated at the full interval.

    The series scheme is ``series_kernel`` at ``tol``.  A grid scheme is
    the one entry of ``grid_gram((gamma,), (sigma,), scheme, mesh,
    dyadic_order)``, so every Gram entry equals this value bit for bit.
    """
    if gamma.dim != sigma.dim:
        raise DomainError("paths must share dimension")
    if scheme == "series":
        return series_kernel(gamma, sigma, tol).value
    if scheme not in ("explicit", "implicit"):
        raise DomainError(f"unknown scheme {scheme!r}; choose from explicit, implicit, series")
    return float(grid_gram((gamma,), (sigma,), scheme, mesh, dyadic_order)[0, 0])


def grid_gram(
    paths_a: Sequence[Path], paths_b: Sequence[Path], scheme: str, mesh: float | None = None, dyadic_order: int = 0
) -> np.ndarray:
    """Schwinger-Dyson kernel of every pair (a_i, b_j) by a grid scheme,
    ``explicit`` or ``implicit``, each path refined once per ``mesh`` when
    given, else per ``dyadic_order`` (``paths._refined_deltas``).

    No path of the concatenation is formed.  The grid of gamma * <-sigma,
    with m jumps from gamma and s from <-sigma, holds gamma's own grid in
    its rows and columns 0..m and <-sigma's own grid in m..m+s, since a
    cell depends only on the jumps between its two knots.  So own grids
    are solved per path, and per pair only the rectangle of rows 0..m-1
    and columns m+1..m+s between them: left-point column by column,
    batched by m; right-point row by row, batched by s
    (:mod:`sigdev.backend`).  A pair with no jump on one side is the other
    side's own-grid corner.  With one sample, or ``paths_b is paths_a``,
    only i <= j is solved, then mirrored.  Every entry equals the pair
    solved alone (``k_sd``) bit for bit, and the whole grid (``solve_*``)
    up to rounding.  Own grids are solved in chunks of a fixed budget:
    once on the side with fewer chunks, on the other once per such chunk
    that shares a pair.  Raises
    ``ResourceLimitError`` when the grid of a pair would have more than
    2^28 cells, before any Gram or grid is formed, and ``NumericError``
    when a Gram or grid overflows.
    """
    if scheme not in ("explicit", "implicit"):
        raise DomainError(f"unknown grid scheme {scheme!r}; choose from explicit, implicit")
    _check_same_dim(paths_a, paths_b)
    implicit = scheme == "implicit"
    same = paths_b is paths_a
    cells = backend._GRID_CELLS
    rows = [_refined_deltas(p, mesh, dyadic_order, cells) for p in paths_a]
    columns = [_reversed(d) for d in (rows if same else [_refined_deltas(p, mesh, dyadic_order, cells) for p in paths_b])]
    _check_grid_cells(max(map(len, rows), default=0) + max(map(len, columns), default=0), cells)
    pairs = [(i, j) for j in range(len(paths_b)) for i in range(j + 1 if same else len(paths_a))]
    values = np.empty((len(paths_a), len(paths_b)))
    for (i, j), value in zip(pairs, backend._pair_values(rows, columns, pairs, implicit)):
        values[i, j] = value
        if same:
            values[j, i] = value
    return values
