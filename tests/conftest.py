import numpy as np


def make_piecewise_linear(seed: int, n_segments: int, dim: int, variation: float):
    """Random piecewise-linear path on [0, 1] with exact total 1-variation."""
    from sigdev import Path

    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(n_segments, dim))
    lengths = np.linalg.norm(steps, axis=1)
    steps = steps * (variation / lengths.sum())
    points = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return Path(np.linspace(0.0, 1.0, n_segments + 1), points)
