"""Truncated tensor-algebra signatures and the truncated signature kernel.

Level-m tensors are stored dense as flat arrays of d^m coefficients indexed
by words over {1..d} in lexicographic order (level 0 is the scalar 1).  The
practical bound d^level <= 10^7 is enforced; the intended scale is d <= 5,
level <= 10 with the occasional deeper run in low dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericError, ResourceLimitError
from .paths import IncrementSequence, Path, _finite_deltas, _nonzero, one_variation

MAX_TENSOR_ENTRIES = 10_000_000
# coefficients of the signatures one Gram matrix keeps in memory at once
MAX_FEATURE_ENTRIES = 4 * MAX_TENSOR_ENTRIES
# highest truncation level ``level_for_remainder`` tries
MAX_REMAINDER_LEVEL = 24


def _check_storage(dim: int, level: int) -> None:
    if level < 0:
        raise DomainError("level must be nonnegative")
    if dim >= 2 and level * math.log(dim) > math.log(MAX_TENSOR_ENTRIES):
        raise ResourceLimitError(
            f"dense level-{level} tensor in dimension {dim} exceeds the "
            f"{MAX_TENSOR_ENTRIES} coefficient budget"
        )


@dataclass(frozen=True)
class TruncatedSignature:
    """Signature levels 0..L of a path in R^d.

    ``tensors[m]`` is the flat level-m array; ``tensors[0]`` is always the
    scalar 1.
    """

    dim: int
    level: int
    tensors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.tensors) != self.level + 1:
            raise DomainError("need one tensor per level 0..L")
        if self.tensors[0].shape != (1,) or self.tensors[0][0] != 1.0:
            raise DomainError("level-0 coefficient must equal 1")
        for m, t in enumerate(self.tensors):
            if t.shape != (self.dim**m,):
                raise DomainError(f"level {m} tensor has wrong size")
        frozen = []
        for t in self.tensors:
            arr = np.asarray(t, dtype=np.float64)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "tensors", tuple(frozen))


def _identity_levels(dim: int, level: int) -> list[np.ndarray]:
    return [np.ones(1)] + [np.zeros(dim**m) for m in range(1, level + 1)]


def _multiply_segment_exp(levels: list[np.ndarray], inc: np.ndarray, buffers, divisors: np.ndarray) -> None:
    """levels <- levels (x) exp(inc), in place, for a batch of P paths:
    ``levels[m]`` is (P, d^m) for m = 0..L and ``inc`` is (P, d), one
    increment per path.

    Level m of the product is sum_k S^k (x) inc^(m-k) / (m-k)!, evaluated
    Horner-style as (((inc/m + S^1) (x) inc/(m-1) + S^2) (x) ...) (x) inc
    (Kidger & Lyons, Signatory): one chain of steps per level m.  The L
    chains do not depend on each other, so they advance in lockstep, one
    step per word length k.  Before step k the running accumulators of
    chains m = k+1..L form one (P, L-k, d^k) stack; the step adds S^k to
    all of them, multiplies by each letter of ``inc`` into the strided
    view of that letter, and divides chain m by m - k.  Chain k finished at
    step k-1; it is added into level k right after step k has read level
    k, so every read still sees the old signature.  Each coefficient thus
    goes through the same IEEE operations in the same order as when the
    chains run one level at a time, and the result is the same bit for
    bit.  Every step is elementwise, so each path's coefficients do not
    depend on the others in its batch.

    ``buffers`` is a pair of scratch arrays of P * _scratch_entries(d, L)
    entries each: the stack of accumulators and the sums S^k + stack.
    ``divisors`` is the column (1, 2, .., L) as floats.
    """
    level = len(levels) - 1
    if level == 0:
        return
    paths, dim = inc.shape
    acc_buf, sum_buf = buffers
    acc = np.divide(inc[:, None, :], divisors, out=acc_buf[: paths * level * dim].reshape(paths, level, dim))
    for k in range(1, level):
        chains, size = level - k, dim**k
        total = sum_buf[: paths * chains * size].reshape(paths, chains, size)
        np.add(levels[k][:, None, :], acc[:, 1:], out=total)
        levels[k] += acc[:, 0]
        acc = acc_buf[: paths * chains * size * dim].reshape(paths, chains, size, dim)
        for letter in range(dim):
            np.multiply(total, inc[:, None, None, letter], out=acc[..., letter])
        acc = acc.reshape(paths, chains, size * dim)
        acc /= divisors[:chains]
    levels[level] += acc[:, 0]


def _scratch_entries(dim: int, level: int) -> int:
    """Entries per path of each scratch buffer of ``_multiply_segment_exp``:
    the largest stack of accumulators, max_k (L-k) d^(k+1) over k < L.
    That is d^L for d >= 2, and L for d = 1."""
    return max(((level - k) * dim ** (k + 1) for k in range(level)), default=0)


def _level_views(features: np.ndarray, dim: int, level: int) -> list[np.ndarray]:
    """Levels 0..level of signature coefficients concatenated along the last
    axis, as views."""
    return np.split(features, np.cumsum([dim**m for m in range(level)]), axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def _sign_batch(incs: np.ndarray, level: int) -> np.ndarray:
    """Signatures of P paths with n nonzero increments each, ``incs`` of
    shape (P, n, d): row p holds levels 0..level of path p, concatenated.

    Segments are multiplied in left to right, each by one lockstep pass of
    the Horner chains of all levels (``_multiply_segment_exp``).  That pass
    rounds each coefficient exactly as a chain-per-level loop does, so the
    signatures equal that loop's bit for bit whatever the batch size.  A
    coefficient that overflows raises ``NumericError``, without warnings."""
    paths, count, dim = incs.shape
    features = np.zeros((paths, sum(dim**m for m in range(level + 1))))
    features[:, 0] = 1.0
    levels = _level_views(features, dim, level)
    scratch = paths * _scratch_entries(dim, level)
    buffers = (np.empty(scratch), np.empty(scratch))
    divisors = np.arange(1.0, level + 1)[:, None]
    for k in range(count):
        _multiply_segment_exp(levels, incs[:, k], buffers, divisors)
    if not np.isfinite(features).all():
        raise NumericError(f"a level-{level} signature overflows: an increment is too large")
    return features


def _sign_paths(paths: Sequence[Path], levels: Sequence[int]) -> list[np.ndarray]:
    """Signature of each whole path, paths[i] up to levels[i], with its
    levels concatenated.

    Paths that share a level and a count of nonzero increments are signed
    together, one batched Horner update per segment index, in chunks that
    keep each scratch buffer within MAX_TENSOR_ENTRIES.  Each path's
    coefficients equal those ``truncated_signature`` returns, bit for bit.
    """
    dim = paths[0].dim
    incs = [_nonzero(_finite_deltas(p)) for p in paths]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, level in enumerate(levels):
        groups.setdefault((level, len(incs[i])), []).append(i)
    signed: list = [None] * len(paths)
    for (level, _), members in groups.items():
        _check_storage(dim, level)
        chunk = max(1, MAX_TENSOR_ENTRIES // max(1, _scratch_entries(dim, level)))
        for start in range(0, len(members), chunk):
            part = members[start : start + chunk]
            batch = _sign_batch(np.stack([incs[i] for i in part]), level)
            for row, i in enumerate(part):
                signed[i] = batch[row]
    return signed


def chen_product(a: TruncatedSignature, b: TruncatedSignature) -> TruncatedSignature:
    """Truncated tensor-algebra product of two signatures (Chen's identity)."""
    if a.dim != b.dim:
        raise DomainError("signatures must share dimension")
    level = min(a.level, b.level)
    levels = []
    for m in range(level + 1):
        acc = np.zeros(a.dim**m)
        for p in range(m + 1):
            acc += np.multiply.outer(a.tensors[p], b.tensors[m - p]).ravel()
        levels.append(acc)
    return TruncatedSignature(a.dim, level, tuple(levels))


def truncated_signature(
    path: Path, interval: tuple[float, float] | None = None, level: int = 4
) -> TruncatedSignature:
    """Signature of the path over [s, t], truncated at the given level.

    Each linear segment contributes the tensor exponential of its increment,
    multiplied in place into the running signature (left to right along the
    path).  The summation order is fixed, so results do not depend on any
    scheduling.
    """
    _check_storage(path.dim, level)
    features = _sign_batch(_nonzero(_finite_deltas(path, interval))[None], level)[0]
    return TruncatedSignature(path.dim, level, tuple(_level_views(features, path.dim, level)))


def _reverse_words(rows: np.ndarray, dim: int, m: int) -> np.ndarray:
    """Each row holds coefficients of the words of length m; return them
    with every word read backwards and the sign (-1)^m.  On a path's
    level-m signature this gives that of the reversed path:
    S^K(<-x) = (-1)^m S^rev(K)(x)."""
    cube = rows.reshape((rows.shape[0],) + (dim,) * m)
    flipped = cube.transpose((0,) + tuple(range(m, 0, -1))).reshape(rows.shape[0], -1)
    return -flipped if m % 2 else flipped


def _check_same_dim(paths_a: Sequence[Path], paths_b: Sequence[Path]) -> int:
    if not paths_a or not paths_b:
        raise DomainError("need at least one path on each side")
    dims = {p.dim for p in paths_a} | {p.dim for p in paths_b}
    if len(dims) != 1:
        raise DomainError("paths must share dimension")
    return dims.pop()


def _check_feature_budget(dim: int, levels: Sequence[int]) -> None:
    """A Gram route keeps the signatures of one whole sample in memory, path
    i up to levels[i]; refuse, before signing anything, when their
    coefficients together exceed MAX_FEATURE_ENTRIES."""
    # sum_{m <= level} d^m in closed form, in Python integers, so a huge level is refused at once
    total = sum(int(level) + 1 if dim == 1 else (dim ** (int(level) + 1) - 1) // (dim - 1) for level in levels)
    if total > MAX_FEATURE_ENTRIES:
        raise ResourceLimitError(
            f"signatures of {len(levels)} paths take {total} coefficients, over the "
            f"{MAX_FEATURE_ENTRIES} coefficient budget of a Gram matrix"
        )


@np.errstate(over="ignore", invalid="ignore")
def _fill_gram(rows: int, cols: int, same: bool, column) -> np.ndarray:
    """values[i, j] = column(j)(i), one column at a time, so a column's
    per-path work is done once.  With one sample (``same``) only i <= j is
    evaluated and mirrored, so the matrix is exactly symmetric.  A value
    that overflows raises ``NumericError``, without numpy's warnings."""
    values = np.empty((rows, cols))
    for j in range(cols):
        entry = column(j)
        for i in range(j + 1 if same else rows):
            values[i, j] = entry(i)
            if same:
                values[j, i] = values[i, j]
    if not np.isfinite(values).all():
        raise NumericError("a kernel value overflows")
    return values


def _signature_pair(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    """sum_m <a^m, b^m> over the signature levels, level 0 first."""
    value = 0.0
    for x, y in zip(a, b):
        value += float(np.dot(x, y))
    return value


def signature_gram(paths_a: Sequence[Path], paths_b: Sequence[Path], level: int) -> np.ndarray:
    """Truncated signature kernel of every pair, sum_{m<=L} <S^m(a_i), S^m(b_j)>.

    Each path is signed once: ``paths_a`` in one batched pass, whose
    signatures are kept, and each path of ``paths_b`` when its column is
    filled (passing the same sequence twice signs it once).
    ``signature_kernel_truncated`` is this Gram on one pair.
    """
    dim = _check_same_dim(paths_a, paths_b)
    _check_storage(dim, level)
    _check_feature_budget(dim, [level] * len(paths_a))
    sig_a = [_level_views(f, dim, level) for f in _sign_paths(paths_a, [level] * len(paths_a))]
    same = paths_b is paths_a

    def column(j):
        sig_b = sig_a[j] if same else truncated_signature(paths_b[j], level=level).tensors
        return lambda i: _signature_pair(sig_a[i], sig_b)

    return _fill_gram(len(paths_a), len(paths_b), same, column)


def iterated_sums_signature(incs: IncrementSequence, level: int) -> TruncatedSignature:
    """Discrete-time signature: level m sums the tensor products of every
    strictly increasing m-tuple of increments."""
    _check_storage(incs.dim, level)
    levels = _identity_levels(incs.dim, level)
    for k in range(len(incs)):
        delta = incs.deltas[k]
        for m in range(level, 0, -1):
            levels[m] = levels[m] + np.kron(levels[m - 1], delta)
    return TruncatedSignature(incs.dim, level, tuple(levels))


def _flat_index(word: Sequence[int], dim: int) -> int:
    idx = 0
    for letter in word:
        if not 1 <= letter <= dim:
            raise DomainError(f"letter {letter} outside alphabet 1..{dim}")
        idx = idx * dim + (letter - 1)
    return idx


def coordinate_coefficient(sig: TruncatedSignature, word: Sequence[int]) -> float:
    """Coefficient of one coordinate iterated integral; the empty word gives 1."""
    word = tuple(word)
    if len(word) > sig.level:
        raise DomainError(f"word of length {len(word)} exceeds level {sig.level}")
    return float(sig.tensors[len(word)][_flat_index(word, sig.dim)])


class SigKernelValue(NamedTuple):
    value: float
    remainder_bound: float
    level: int


def _kernel_tail(var_product: float, level: int) -> float:
    """sum_{m > L} v^m / (m!)^2 for v = |gamma|_1 |sigma|_1."""
    if var_product <= 0.0:
        return 0.0
    term = 1.0
    for m in range(1, level + 2):
        term *= var_product / (m * m)
    total = 0.0
    m = level + 1
    while term > 1e-300:
        total += term
        m += 1
        term *= var_product / (m * m)
        if m > level + 1000:
            break
    return total


def signature_kernel_truncated(gamma: Path, sigma: Path, level: int = 8) -> SigKernelValue:
    """Truncated signature kernel sum_{m<=L} <S^m(gamma), S^m(sigma)>_HS of
    the whole paths, the one entry of ``signature_gram``.  The reported
    remainder bound sum_{m>L} (|gamma|_1 |sigma|_1)^m / (m!)^2 certifies
    the discarded tail.
    """
    value = float(signature_gram((gamma,), (sigma,), level)[0, 0])
    return SigKernelValue(value, _kernel_tail(one_variation(gamma) * one_variation(sigma), level), level)


def level_for_remainder(var_product: float, dim: int, tol: float) -> int:
    """Smallest truncation level whose kernel remainder bound is below tol."""
    if not tol > 0:
        raise DomainError("tol must be positive")
    best = math.inf
    for level in range(MAX_REMAINDER_LEVEL + 1):
        try:
            _check_storage(dim, level)
        except ResourceLimitError:
            break
        best = _kernel_tail(var_product, level)
        if best < tol:
            return level
    raise ResourceLimitError(
        f"no feasible truncation level reaches tolerance {tol:g}; "
        f"best achievable bound is {best:.3e}"
    )
