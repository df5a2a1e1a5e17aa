"""Piecewise-linear paths, partitions and increment sequences.

A :class:`Path` is a finite sequence of sample points in R^d with strictly
increasing time stamps, interpreted by linear interpolation.  Piecewise
constant approximations never get their own type; they are fully described
by an :class:`IncrementSequence` (the jumps) plus a start point, which is
all the grid schemes consume.

All types are immutable after construction and every operation here is a
pure function, so values can be shared freely across threads.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ResourceLimitError
from .rng import TAG_FBM, keyed_generator

_COVER_RTOL = 1e-9


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Path:
    """Piecewise-linear path: one point per strictly increasing time stamp.

    ``times`` has shape (n+1,), ``points`` has shape (n+1, d) with d >= 1.
    A single-point path is legal and behaves as a constant path.
    """

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=np.float64))
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2 or points.shape[1] < 1:
            raise DomainError("points must be a (n+1, d) array with d >= 1")
        if times.ndim != 1 or len(times) != len(points) or len(times) < 1:
            raise DomainError("times and points must have equal length >= 1")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(points)):
            raise DomainError("path coordinates must be finite")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise DomainError("times must be strictly increasing")
        object.__setattr__(self, "times", _as_readonly(times))
        object.__setattr__(self, "points", _as_readonly(points))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def start_time(self) -> float:
        return float(self.times[0])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    @property
    def displacement(self) -> np.ndarray:
        return self.points[-1] - self.points[0]

    def evaluate(self, t) -> np.ndarray:
        """Linear interpolation at time(s) t inside the span."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < self.times[0]) or np.any(t > self.times[-1]):
            raise DomainError("evaluation time outside path span")
        cols = [np.interp(t, self.times, self.points[:, j]) for j in range(self.dim)]
        return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class Partition:
    """Strictly increasing knot sequence, endpoints included."""

    knots: np.ndarray

    def __post_init__(self):
        knots = np.atleast_1d(np.asarray(self.knots, dtype=np.float64))
        if knots.ndim != 1 or len(knots) < 1:
            raise DomainError("a partition needs at least one knot")
        if not np.all(np.isfinite(knots)):
            raise DomainError("knots must be finite")
        if len(knots) > 1 and not np.all(np.diff(knots) > 0):
            raise DomainError("knots must be strictly increasing")
        object.__setattr__(self, "knots", _as_readonly(knots))

    def __len__(self) -> int:
        return len(self.knots)


@dataclass(frozen=True)
class IncrementSequence:
    """Jumps of a piecewise-constant approximation, shape (n, d)."""

    deltas: np.ndarray

    def __post_init__(self):
        deltas = np.asarray(self.deltas, dtype=np.float64)
        if deltas.ndim == 1:
            deltas = deltas[:, None]
        if deltas.ndim != 2 or deltas.shape[1] < 1:
            raise DomainError("deltas must be a (n, d) array with d >= 1")
        if not np.all(np.isfinite(deltas)):
            raise DomainError("increments must be finite")
        object.__setattr__(self, "deltas", _as_readonly(deltas))

    def __len__(self) -> int:
        return self.deltas.shape[0]

    @property
    def dim(self) -> int:
        return self.deltas.shape[1]

    @property
    def total(self) -> np.ndarray:
        """Sum of the jumps; equals the source path's displacement."""
        return self.deltas.sum(axis=0)


def _clip_points(path: Path, s: float, t: float) -> np.ndarray:
    """Sample points of path restricted to [s, t] (endpoints interpolated)."""
    inner = (path.times > s) & (path.times < t)
    return np.vstack(
        [path.evaluate(s).reshape(1, -1), path.points[inner], path.evaluate(t).reshape(1, -1)]
    )


def one_variation(path: Path, interval: tuple[float, float] | None = None) -> float:
    """1-variation of the path over [s, t] (whole span by default).

    For a piecewise-linear path this is the sum of Euclidean lengths of the
    (clipped) segments inside the interval, which equals the supremum over
    all partitions.
    """
    if interval is None:
        s, t = path.start_time, path.end_time
    else:
        s, t = float(interval[0]), float(interval[1])
    if s > t:
        raise DomainError("interval must satisfy s <= t")
    if s < path.start_time or t > path.end_time:
        raise DomainError("interval outside path span")
    if s == t:
        return 0.0
    pts = _clip_points(path, s, t)
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def concat_reverse(gamma: Path, sigma: Path) -> Path:
    """Concatenate gamma with the reversal of sigma.

    The reversed path is translated so it starts at gamma's endpoint and its
    time stamps are rescaled to follow gamma contiguously.  That junction
    point is stored once, so the result has no zero-length segment there.
    Any time reparameterization of the result gives the same signature and
    kernels, so the exact stamps carry no meaning.
    """
    if gamma.dim != sigma.dim:
        raise DomainError("paths must share dimension")
    rev_points = sigma.points[::-1]
    translated = (rev_points[1:] - rev_points[0]) + gamma.points[-1]
    rev_offsets = sigma.times[-1] - sigma.times[-2::-1]  # ascending, > 0
    times = np.concatenate([gamma.times, gamma.times[-1] + rev_offsets])
    return Path(times, np.vstack([gamma.points, translated]))


def piecewise_constant_increments(path: Path, partition: Partition) -> IncrementSequence:
    """Jumps of the piecewise-constant approximation of path on the partition.

    The path is evaluated by linear interpolation at the knots; increment k
    is the difference between consecutive knot values.
    """
    scale = max(1.0, abs(path.start_time), abs(path.end_time))
    if (
        abs(partition.knots[0] - path.start_time) > _COVER_RTOL * scale
        or abs(partition.knots[-1] - path.end_time) > _COVER_RTOL * scale
    ):
        raise DomainError("partition must cover the path's time span")
    knots = np.clip(partition.knots, path.start_time, path.end_time)
    values = path.evaluate(knots)
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = np.diff(values, axis=0)  # IncrementSequence refuses one that overflowed
    return IncrementSequence(deltas)


def dyadic_refine(partition: Partition, order: int) -> Partition:
    """Split every knot interval into 2**order equal parts (order 0: identity).

    Refinement is applied as `order` successive midpoint insertions, so
    dyadic_refine(p, a + b) is bitwise identical to
    dyadic_refine(dyadic_refine(p, a), b).
    """
    if order < 0 or int(order) != order:
        raise DomainError("dyadic order must be a nonnegative integer")
    knots = partition.knots
    for _ in range(int(order)):
        if len(knots) < 2:
            break
        mids = (knots[:-1] + knots[1:]) / 2.0
        merged = np.empty(2 * len(knots) - 1)
        merged[0::2] = knots
        merged[1::2] = mids
        knots = merged
    return Partition(knots)


def _variation_splits(deltas: np.ndarray, max_variation: float) -> np.ndarray:
    """Parts of each segment, increment D[k], that carry 1-variation at most
    ``max_variation``: ``ceil(|D[k]| / max_variation)``, at least one."""
    if not max_variation > 0:
        raise DomainError("max_variation must be positive")
    # a stack of (1, d) @ (d, 1) products takes the same dot product per
    # segment as np.linalg.norm, so every norm keeps its last bit; a norm
    # that overflows asks for infinitely many knots, which the check reports
    with np.errstate(over="ignore"):
        norms = np.sqrt((deltas[:, None, :] @ deltas[:, :, None])[:, 0, 0])
        splits = np.maximum(1.0, np.ceil(norms / max_variation))
    if splits.sum() >= 2.0**62:  # knot indices would wrap in int64
        raise ResourceLimitError(f"refining to max_variation {max_variation!r} needs too many knots")
    return splits.astype(np.int64)


def refine_to_variation(path: Path, max_variation: float) -> Partition:
    """Partition of the path's knots refined until every subinterval carries
    1-variation at most ``max_variation``.

    Segment k is split into ``ceil(|D[k]| / max_variation)`` equal parts
    (at least one), with knots ``a + (b - a) * j / splits``.
    """
    splits = _variation_splits(np.diff(path.points, axis=0), max_variation)
    segment = np.repeat(np.arange(len(splits)), splits)
    steps = np.arange(1, len(segment) + 1) - np.repeat(np.cumsum(splits) - splits, splits)
    a, b = path.times[:-1][segment], path.times[1:][segment]
    knots = np.concatenate((path.times[:1], a + (b - a) * steps / splits[segment]))
    return Partition(knots)


def _finite_deltas(path: Path) -> np.ndarray:
    """The path's segment increments, (n - 1, d); a segment between finite
    points whose difference overflows is refused without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = np.diff(path.points, axis=0)
    if not np.isfinite(deltas).all():
        raise DomainError("path increments must be finite")
    return deltas


def _refined_deltas(
    path: Path, mesh: float | None = None, dyadic_order: int = 0, max_cells: int | None = None
) -> np.ndarray:
    """Increments of the path's piecewise-constant approximation, refined
    per ``mesh`` (target per-interval 1-variation) when given, else per
    ``dyadic_order``: segment k, increment D[k], becomes s_k equal jumps
    D[k] / s_k.  s_k is ``refine_to_variation``'s split count,
    max(1, ceil(|D[k]| / mesh)), or 2**dyadic_order for every segment.

    This is the refinement of ``refine_to_variation`` or ``dyadic_refine``
    fed to ``piecewise_constant_increments``, up to rounding: it divides
    each increment instead of interpolating at the knots, so no knot is
    formed.  Division by a power of two is exact, so order λ + 1's jumps
    are order λ's halved and each repeated twice, bit for bit.  Shape
    (sum s_k, d); a one-point path has none.

    With ``max_cells``, a path whose own grid of n jumps would have more
    than ``max_cells`` cells, (n+1)^2, is refused before its jumps are
    formed.
    """
    deltas = _finite_deltas(path)
    if mesh is not None:
        splits = _variation_splits(deltas, mesh)
        _check_grid_cells(int(splits.sum()), max_cells)
        return np.repeat(deltas / splits[:, None], splits, axis=0)
    if dyadic_order < 0 or int(dyadic_order) != dyadic_order:
        raise DomainError("dyadic order must be a nonnegative integer")
    if len(deltas) == 0:
        return deltas
    if len(deltas) >= 2.0 ** (62 - dyadic_order):  # as refine_to_variation's knot check
        raise ResourceLimitError(f"dyadic order {dyadic_order!r} needs too many knots")
    splits = 2 ** int(dyadic_order)
    _check_grid_cells(len(deltas) * splits, max_cells)
    return np.repeat(deltas / float(splits), splits, axis=0)


def _check_grid_cells(jumps: int, max_cells: int | None) -> None:
    """Refuse a grid of n = ``jumps`` jumps whose (n+1)^2 cells are more
    than ``max_cells``, when given."""
    if max_cells is not None and (jumps + 1) ** 2 > max_cells:
        raise ResourceLimitError(
            f"a grid of n = {jumps} jumps has (n+1)^2 = {(jumps + 1) ** 2} cells, over the "
            f"{max_cells} cell budget of a grid kernel"
        )


def scaled(path: Path, factor: float) -> Path:
    """Path with all points multiplied by a scalar factor."""
    return Path(path.times, path.points * float(factor))


def gen_fbm(hurst: float, n_points: int, dim: int, seed: int) -> Path:
    """Fractional Brownian motion sampled on a uniform grid of [0, 1].

    Coordinates are independent, generated by factorizing the exact fBm
    covariance R(s, t) = (s^2H + t^2H - |s-t|^2H) / 2 with a dense Cholesky
    decomposition (O(n^3); exactness over speed at this scale).  The output
    is deterministic for a fixed seed.
    """
    if not 0.0 < hurst < 1.0:
        raise DomainError("hurst must lie in (0, 1)")
    if n_points < 2:
        raise DomainError("n_points must be at least 2")
    if dim < 1:
        raise DomainError("dim must be at least 1")
    times = np.linspace(0.0, 1.0, n_points)
    grid = times[1:]
    s, t = np.meshgrid(grid, grid, indexing="ij")
    cov = 0.5 * (s ** (2 * hurst) + t ** (2 * hurst) - np.abs(s - t) ** (2 * hurst))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"fBm covariance factorization failed: {exc}") from exc
    gauss = keyed_generator(seed, TAG_FBM).standard_normal((n_points - 1, dim))
    points = np.vstack([np.zeros((1, dim)), chol @ gauss])
    return Path(times, points)


# ---------------------------------------------------------------------------
# file formats

@contextmanager
def _opened(file, mode: str):
    """The handle ``file``, or the file it names opened in ``mode`` ("r" or
    "w", UTF-8, newlines written untranslated) and closed on exit."""
    if not (isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")):
        yield file
        return
    with open(file, mode, encoding="utf-8", newline="" if mode == "w" else None) as handle:
        yield handle


def write_path_csv(path: Path, file) -> None:
    """CSV with header ``t,x1,...,xd``, one row per sample, '.' decimals."""
    with _opened(file, "w") as handle:
        header = "t," + ",".join(f"x{j + 1}" for j in range(path.dim))
        handle.write(header + "\n")
        for k in range(len(path.times)):
            row = [repr(float(path.times[k]))]
            row.extend(repr(float(v)) for v in path.points[k])
            handle.write(",".join(row) + "\n")


def read_path_csv(file) -> Path:
    """Parse a path from the CSV format written by :func:`write_path_csv`."""
    with _opened(file, "r") as handle:
        lines = [ln.strip() for ln in handle if ln.strip()]
    if not lines:
        raise DomainError("empty path file")
    header = [c.strip() for c in lines[0].split(",")]
    if header[0] != "t" or len(header) < 2:
        raise DomainError("path CSV must start with header t,x1,...,xd")
    times, points = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise DomainError(f"row has {len(cells)} cells, expected {len(header)}")
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise DomainError(f"bad number in path CSV: {exc}") from exc
        times.append(vals[0])
        points.append(vals[1:])
    return Path(np.asarray(times), np.asarray(points))


def write_paths_jsonl(ids, paths, file) -> None:
    """JSON Lines: one ``{"id", "t", "x"}`` object per path."""
    with _opened(file, "w") as handle:
        for pid, p in zip(ids, paths):
            obj = {"id": str(pid), "t": p.times.tolist(), "x": p.points.tolist()}
            handle.write(json.dumps(obj) + "\n")


def read_paths_jsonl(file) -> tuple[list[str], list[Path]]:
    """Parse (ids, paths) from a JSON Lines multi-path file."""
    with _opened(file, "r") as handle:
        lines = [ln.strip() for ln in handle if ln.strip()]
    ids, paths = [], []
    for ln in lines:
        try:
            obj = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad JSON line: {exc}") from exc
        if not isinstance(obj, dict) or "t" not in obj or "x" not in obj:
            raise DomainError("each line needs fields 'id', 't', 'x'")
        ids.append(str(obj.get("id", len(ids))))
        paths.append(Path(np.asarray(obj["t"]), np.asarray(obj["x"])))
    if not paths:
        raise DomainError("empty multi-path file")
    return ids, paths
