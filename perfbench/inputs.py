"""Seeded input generation and the program's documented file formats.

Inputs are made here, not by ``sigdev``, so that they stay the same when
the package changes.  Every path is a sample of fractional Brownian motion
on a uniform grid of [0, 1], rescaled to a fixed 1-variation: the series
level, the grid size and so the work of every kernel call then depend only
on the workload, not on how rough one seed's draw happened to be.
"""

from __future__ import annotations

import json

import numpy as np

POINTS = 16
DIM = 2
# 1-variation of every generated path.  Two such paths concatenate to
# |y|_1 = 1.3, inside the band where the series needs level 12 at the
# default tolerance 1e-6 (level 10 below 1.15, level 14 above 1.45).
VARIATION = 0.65


def fbm(hurst: float, seed: int, stream: int, points: int = POINTS, dim: int = DIM) -> np.ndarray:
    """(points, dim) array: fBm by exact-covariance Cholesky, with the
    1-variation rescaled to VARIATION."""
    times = np.linspace(0.0, 1.0, points)
    grid = times[1:]
    s, t = np.meshgrid(grid, grid, indexing="ij")
    cov = 0.5 * (s ** (2 * hurst) + t ** (2 * hurst) - np.abs(s - t) ** (2 * hurst))
    gauss = np.random.default_rng([seed, stream]).standard_normal((points - 1, dim))
    path = np.vstack([np.zeros((1, dim)), np.linalg.cholesky(cov) @ gauss])
    length = np.linalg.norm(np.diff(path, axis=0), axis=1).sum()
    return path * (VARIATION / length)


def times(points: int = POINTS) -> np.ndarray:
    return np.linspace(0.0, 1.0, points)


def write_jsonl(filename: str, paths: list[np.ndarray]) -> None:
    """Multi-path sample: one {"id", "t", "x"} object per line."""
    with open(filename, "w", encoding="utf-8", newline="") as fh:
        for k, x in enumerate(paths):
            obj = {"id": f"p{k}", "t": times(len(x)).tolist(), "x": x.tolist()}
            fh.write(json.dumps(obj) + "\n")


def write_csv(filename: str, x: np.ndarray) -> None:
    """Single path: header t,x1,...,xd and one row per sample."""
    with open(filename, "w", encoding="utf-8", newline="") as fh:
        fh.write("t," + ",".join(f"x{j + 1}" for j in range(x.shape[1])) + "\n")
        for t, row in zip(times(len(x)), x):
            fh.write(",".join(repr(float(v)) for v in (t, *row)) + "\n")
