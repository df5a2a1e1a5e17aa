"""Independent reference values for every output the benchmark checks.

Nothing here imports ``sigdev``.  The references take a different route
from the package:

* one truncated signature per path (in-place Chen/Horner update with outer
  products), where the package signs every pair;
* the Schwinger-Dyson kernel as a bilinear form in the signatures of the
  two paths (Chen's identity plus reversal), contracted against a dense
  table of semicircular moments built by the Schwinger-Dyson recursion,
  where the package enumerates non-crossing pairings per call;
* the signature kernel as one matrix product per level.

Every reference carries a certified truncation bound, so a check can
compare ``|output - reference|`` with the sum of both certified bounds.
"""

from __future__ import annotations

import math

import numpy as np

# Deepest level the references use: the series tail at |y|_1 = 1.3 is
# below 1e-10 here, far under every tolerance checked against it.
REF_LEVEL = 16


def signature(points: np.ndarray, level: int) -> list[np.ndarray]:
    """Levels 0..level of the signature of the piecewise-linear path
    through ``points`` (shape (n+1, d)); level m is a flat d**m array."""
    points = np.asarray(points, dtype=np.float64)
    dim = points.shape[1]
    sig = [np.ones(1)] + [np.zeros(dim**m) for m in range(1, level + 1)]
    for inc in np.diff(points, axis=0):
        powers = [np.ones(1)]
        for k in range(1, level + 1):
            powers.append(np.multiply.outer(powers[-1], inc).ravel() / k)
        # top level first, so the lower levels read below are still the old ones
        for m in range(level, 0, -1):
            acc = sig[m] + powers[m]
            for k in range(1, m):
                acc += np.multiply.outer(sig[m - k], powers[k]).ravel()
            sig[m] = acc
    return sig


def reversed_signature(sig: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Signature of the time-reversed path: S^K(<-x) = (-1)^|K| S^rev(K)(x)."""
    out = [sig[0].copy()]
    for m in range(1, len(sig)):
        cube = sig[m].reshape((dim,) * m)
        out.append((-1.0) ** m * np.ascontiguousarray(cube.transpose(tuple(range(m - 1, -1, -1)))).ravel())
    return out


def moment_tables(dim: int, level: int) -> list[np.ndarray]:
    """phi_m[I] for every word I of length m <= level over ``dim`` letters:
    mixed moments of free semicircular variables.

    Built from the Schwinger-Dyson recursion on the last letter,
    phi(K a L a) = sum over the partner position of phi(K) phi(L), which in
    tensor form is phi_m = sum_k phi_k (x) wrap(phi_{m-2-k}).
    """
    eye = np.eye(dim)
    phi = [np.ones(1)]
    for m in range(1, level + 1):
        table = np.zeros(dim**m)
        if m % 2 == 0:
            for k in range(0, m - 1, 2):
                inner = phi[m - 2 - k]
                wrapped = np.einsum("ac,l->alc", eye, inner).ravel()
                table += np.multiply.outer(phi[k], wrapped).ravel()
        phi.append(table)
    return phi


def series_tail(variation: float, level: int) -> float:
    """Certified bound on the K_SD series past ``level``:
    sum over even m > level of C_{m/2} variation^m / m!."""
    if variation <= 0.0:
        return 0.0
    total = 0.0
    m = level + 2 - level % 2
    while True:
        k = m // 2
        log_term = (
            math.lgamma(2 * k + 1) - math.lgamma(k + 1) - math.lgamma(k + 2)
            + m * math.log(variation) - math.lgamma(m + 1)
        )
        term = math.exp(log_term)
        total += term
        if term <= 1e-20 * total or m > level + 400:
            return total
        m += 2


def sig_kernel_tail(var_product: float, level: int) -> float:
    """Certified bound on the signature kernel past ``level``:
    sum over m > level of var_product^m / (m!)^2."""
    if var_product <= 0.0:
        return 0.0
    total = 0.0
    m = level + 1
    while True:
        term = math.exp(m * math.log(var_product) - 2.0 * math.lgamma(m + 1))
        total += term
        if term <= 1e-20 * total or m > level + 400:
            return total
        m += 1


def one_variation(points: np.ndarray) -> float:
    return float(np.linalg.norm(np.diff(np.asarray(points), axis=0), axis=1).sum())


class SignatureTable:
    """Signatures of a list of paths at one level, stacked per level."""

    def __init__(self, paths: list[np.ndarray], level: int = REF_LEVEL):
        self.dim = paths[0].shape[1]
        self.level = level
        sigs = [signature(p, level) for p in paths]
        revs = [reversed_signature(s, self.dim) for s in sigs]
        self.forward = [np.stack([s[m] for s in sigs]) for m in range(level + 1)]
        self.reverse = [np.stack([r[m] for r in revs]) for m in range(level + 1)]
        self.variation = np.array([one_variation(p) for p in paths])


def sd_gram(a: SignatureTable, b: SignatureTable, phi: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """K_SD(a_i, b_j) = sum_{m even} (-1)^(m/2) <phi_m, S_m(a_i * <-b_j)>,
    with S(a * <-b) = S(a) (x) S(<-b).  Returns (values, certified tails)."""
    dim, level = a.dim, min(a.level, b.level)
    values = np.ones((a.forward[0].shape[0], b.forward[0].shape[0]))
    for m in range(2, level + 1, 2):
        sign = -1.0 if (m // 2) % 2 else 1.0
        for p in range(m + 1):
            form = phi[m].reshape(dim**p, dim ** (m - p))
            values += sign * (a.forward[p] @ form @ b.reverse[m - p].T)
    tails = np.vectorize(lambda v: series_tail(v, level))(a.variation[:, None] + b.variation[None, :])
    return values, tails


def sd_value(path: np.ndarray, phi: list[np.ndarray], level: int = REF_LEVEL) -> tuple[float, float]:
    """K_SD of a single path (its own kernel at the full interval)."""
    sig = signature(path, level)
    value = 1.0
    for m in range(2, level + 1, 2):
        value += (-1.0 if (m // 2) % 2 else 1.0) * float(phi[m] @ sig[m])
    return value, series_tail(one_variation(path), level)


def sig_gram(a: SignatureTable, b: SignatureTable) -> tuple[np.ndarray, np.ndarray]:
    """Signature kernel sum_m <S_m(a_i), S_m(b_j)>, with certified tails."""
    level = min(a.level, b.level)
    values = sum(a.forward[m] @ b.forward[m].T for m in range(level + 1))
    products = a.variation[:, None] * b.variation[None, :]
    tails = np.vectorize(lambda v: sig_kernel_tail(v, level))(products)
    return values, tails
