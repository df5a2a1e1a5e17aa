"""Gram matrices and maximum mean discrepancy between sets of paths.

``KERNELS`` maps each kernel name to the ``KernelSpec`` field that tunes
it and to its route: (paths_a, paths_b, spec) -> ``Evaluation``, the kernel
of every pair with a lazy provenance (level, certified tail) per entry.
``gram`` runs a route on two samples, ``kernel`` and ``converge`` on one pair.

The default estimator is the V-statistic (same-index terms included): with
a positive semidefinite kernel it is nonnegative by construction, which
matches the identity between the path characteristic-function distance and
the MMD of its kernel.  The U-statistic is available behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .paths import Path, one_variation
# k_sd is not called here; the benchmark's tracer wraps it under this name
from .sdkernel import _series_gram, grid_gram, k_sd, series_tail_bound  # noqa: F401
from .signature import _check_same_dim, _kernel_tail, level_for_remainder, signature_gram


@dataclass(frozen=True)
class KernelSpec:
    """Discretization knobs: the grid kernels' target per-interval
    1-variation ``mesh``, or with None 2**``dyadic`` equal jumps per
    segment; the series ``tol``; the signature kernel's truncation
    ``level``, or with None the lowest level whose remainder bound for the
    largest 1-variation product of a pair falls below ``tol``."""

    mesh: float | None = 0.05
    tol: float = 1e-6
    level: int | None = 8
    dyadic: int = 0

    def setting(self, kernel: str) -> tuple[str, float]:
        """The knob the kernel runs by: its ``KERNELS`` field, else
        ``lambda`` (``dyadic``) for a grid and ``tol`` for a signature."""
        field = KERNELS[kernel].field
        if getattr(self, field) is not None:
            return field, getattr(self, field)
        return ("lambda", self.dyadic) if field == "mesh" else ("tol", self.tol)

    def tag(self, kernel: str) -> str:
        return "{}({}={:g})".format(kernel, *self.setting(kernel))


class Evaluation(NamedTuple):
    values: np.ndarray
    spec: KernelSpec  # as it ran: a level of None resolved
    provenance: Callable[[int, int], tuple[int | None, float | None]]


def _grid_route(scheme: str, paths_a, paths_b, spec) -> Evaluation:
    return Evaluation(grid_gram(paths_a, paths_b, scheme, spec.mesh, spec.dyadic), spec, lambda i, j: (None, None))


def _series_route(paths_a, paths_b, spec) -> Evaluation:
    values, levels, var_a, var_b = _series_gram(paths_a, paths_b, spec.tol)
    levels = levels.tolist()
    return Evaluation(values, spec, lambda i, j: (levels[i][j], series_tail_bound(var_a[i] + var_b[j], levels[i][j])))


def _signature_route(paths_a, paths_b, spec) -> Evaluation:
    dim = _check_same_dim(paths_a, paths_b)
    level = spec.level
    if level is None:
        var_product = max(map(one_variation, paths_a)) * max(map(one_variation, paths_b))
        level = level_for_remainder(var_product, dim, spec.tol)

    def provenance(i, j):
        return level, _kernel_tail(one_variation(paths_a[i]) * one_variation(paths_b[j]), level)

    return Evaluation(signature_gram(paths_a, paths_b, level), replace(spec, level=level), provenance)


class Kernel(NamedTuple):
    field: str  # the KernelSpec field that tunes the kernel
    route: Callable[..., Evaluation]


KERNELS = {
    "sd_explicit": Kernel("mesh", partial(_grid_route, "explicit")),
    "sd_implicit": Kernel("mesh", partial(_grid_route, "implicit")),
    "sd_series": Kernel("tol", _series_route),
    "sig_truncated": Kernel("level", _signature_route),
}


def resolve_kernel(name: str) -> str:
    """The kernel a full name (a key of ``KERNELS``) or a short
    Schwinger-Dyson name (``explicit``, ``implicit``, ``series``) denotes."""
    full = name if name in KERNELS else "sd_" + name
    if full not in KERNELS:
        raise DomainError(
            f"unknown kernel {name!r}; choose from {', '.join(KERNELS)}, or an sd_ name without its prefix"
        )
    return full


@dataclass(frozen=True)
class PathSample:
    """Nonempty list of equal-dimension paths carrying uniform weights."""

    paths: tuple[Path, ...]

    def __post_init__(self):
        paths = tuple(self.paths)
        if not paths:
            raise DomainError("a path sample must be nonempty")
        if len({p.dim for p in paths}) != 1:
            raise DomainError("all paths in a sample must share dimension")
        object.__setattr__(self, "paths", paths)

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def dim(self) -> int:
        return self.paths[0].dim


@dataclass(frozen=True)
class GramMatrix:
    values: np.ndarray
    kernel_tag: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or not np.all(np.isfinite(values)):
            raise DomainError("gram values must be a finite 2-d array")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def gram(
    sample_a: PathSample,
    sample_b: PathSample | None = None,
    kernel: str = "sd_series",
    spec: KernelSpec = KernelSpec(),
) -> GramMatrix:
    """Kernel matrix between two path samples, by the kernel's route.

    The series and signature kernels sign each path once and contract the
    signatures pair by pair (``series_gram``, ``signature_gram``); the grid
    kernels solve each path's own grid once and each pair's rectangle
    between two own grids, many pairs together (``grid_gram``).  Every
    entry equals its single-pair kernel value bit for bit.  With a single
    sample (or ``sample_b is sample_a``) only the upper triangle is
    evaluated and then mirrored, so the matrix is exactly symmetric.
    """
    if kernel not in KERNELS:
        raise DomainError(f"unknown kernel {kernel!r}; choose from {', '.join(KERNELS)}")
    sample_b = sample_a if sample_b is None else sample_b
    if sample_a.dim != sample_b.dim:
        raise DomainError("samples must share path dimension")
    values, ran, _ = KERNELS[kernel].route(sample_a.paths, sample_b.paths, spec)
    return GramMatrix(values, ran.tag(kernel))


def mmd2(
    sample_a: PathSample,
    sample_b: PathSample,
    kernel: str = "sd_series",
    spec: KernelSpec = KernelSpec(),
    *,
    unbiased: bool = False,
) -> float:
    """Squared MMD between the empirical measures of two samples.

    V-statistic by default; ``unbiased=True`` switches the within-sample
    terms to U-statistics (needs at least two paths per sample).  One Gram
    of the pooled sample ``a + b`` holds every pair, so each path is signed
    once and the signature routes' coefficient budget covers both samples
    together.  Each estimator sum runs over a contiguous copy of its block,
    which sums in the same order as a standalone Gram of that block.
    """
    n, m = len(sample_a), len(sample_b)
    if unbiased and (n < 2 or m < 2):
        raise DomainError("the unbiased estimator needs two paths per sample")
    pooled = gram(PathSample(sample_a.paths + sample_b.paths), None, kernel, spec).values
    k_aa, k_bb, k_ab = (
        np.ascontiguousarray(block) for block in (pooled[:n, :n], pooled[n:, n:], pooled[:n, n:])
    )
    if unbiased:
        within_a = (k_aa.sum() - np.trace(k_aa)) / (n * (n - 1))
        within_b = (k_bb.sum() - np.trace(k_bb)) / (m * (m - 1))
    else:
        within_a = k_aa.sum() / (n * n)
        within_b = k_bb.sum() / (m * m)
    cross = k_ab.sum() / (n * m)
    return float(within_a + within_b - 2.0 * cross)
