"""Gram matrices and maximum mean discrepancy between sets of paths.

The default estimator is the V-statistic (same-index terms included): with
a positive semidefinite kernel it is nonnegative by construction, which
matches the identity between the path characteristic-function distance and
the MMD of its kernel.  The U-statistic is available behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .paths import Path
from .sdkernel import k_sd, series_gram
from .signature import _fill_gram, signature_gram

# Every kernel name, with the KernelSpec field that tunes it.  The grid
# kernels are the ones tuned by ``mesh``.
KERNELS = {
    "sd_explicit": "mesh",
    "sd_implicit": "mesh",
    "sd_series": "tol",
    "sig_truncated": "level",
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
class KernelSpec:
    """Discretization knobs: target per-interval 1-variation for the grid
    schemes, series tolerance, truncation level for the signature kernel."""

    mesh: float = 0.05
    tol: float = 1e-6
    level: int = 8

    def tag(self, kernel: str) -> str:
        field = KERNELS[kernel]
        return f"{kernel}({field}={getattr(self, field):g})"


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
    """Kernel matrix between two path samples.

    The series and signature kernels sign each path once and contract the
    signatures pair by pair (``series_gram``, ``signature_gram``); the grid
    kernels solve one grid per pair.  With a single sample (or
    ``sample_b is sample_a``) only the upper triangle is evaluated and then
    mirrored, so the matrix is exactly symmetric.
    """
    if kernel not in KERNELS:
        raise DomainError(f"unknown kernel {kernel!r}; choose from {', '.join(KERNELS)}")
    sample_b = sample_a if sample_b is None else sample_b
    if sample_a.dim != sample_b.dim:
        raise DomainError("samples must share path dimension")
    paths_a, paths_b = sample_a.paths, sample_b.paths
    if kernel == "sd_series":
        values = series_gram(paths_a, paths_b, spec.tol)
    elif kernel == "sig_truncated":
        values = signature_gram(paths_a, paths_b, spec.level)
    else:
        scheme = kernel.removeprefix("sd_")

        def column(j):
            return lambda i: k_sd(paths_a[i], paths_b[j], scheme, mesh=spec.mesh)

        values = _fill_gram(len(paths_a), len(paths_b), paths_b is paths_a, column)
    return GramMatrix(values, spec.tag(kernel))


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
    terms to U-statistics (needs at least two paths per sample).
    """
    k_aa = gram(sample_a, None, kernel, spec).values
    k_bb = gram(sample_b, None, kernel, spec).values
    if sample_b is sample_a:
        k_ab = k_aa
    else:
        k_ab = gram(sample_a, sample_b, kernel, spec).values
    n, m = len(sample_a), len(sample_b)
    if unbiased:
        if n < 2 or m < 2:
            raise DomainError("the unbiased estimator needs two paths per sample")
        within_a = (k_aa.sum() - np.trace(k_aa)) / (n * (n - 1))
        within_b = (k_bb.sum() - np.trace(k_bb)) / (m * (m - 1))
    else:
        within_a = k_aa.sum() / (n * n)
        within_b = k_bb.sum() / (m * m)
    cross = k_ab.sum() / (n * m)
    return float(within_a + within_b - 2.0 * cross)
