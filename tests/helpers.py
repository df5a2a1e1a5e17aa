import os
import pathlib
import subprocess
import sys
import warnings

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


def run_pinned(probe: str) -> None:
    """Run the Python source ``probe`` in a fresh interpreter with BLAS on
    one thread, where products of the same shape add in the same order, and
    the tests directory on its path; fail with its stderr unless it exits 0."""
    path = [str(pathlib.Path(__file__).parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = os.environ | {"OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def batch_kind(grams: np.ndarray) -> str:
    """"own" for a ``backend._grids`` batch of own grids, whose Grams are
    square, "cross" for a batch of rectangles."""
    return "own" if grams.shape[1] == grams.shape[2] else "cross"


def assert_refused(argv, capsys, code: int) -> str:
    """Run the command line ``argv`` with numpy's ``RuntimeWarning`` an
    error; assert that it exits ``code`` with nothing on stdout and one
    ``error:`` line on stderr, and return that line."""
    from sigdev.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err.rstrip("\n")
