"""Per-layer spans recorded from outside the package.

A :class:`Tracer` wraps the public functions of every layer module and
patches each wrapper into every ``sigdev`` module that holds a reference
to the original, so calls through imported names (``sigdev.mmd.k_sd``,
``sigdev.cli.read_paths_jsonl``) and through module attributes
(``backend.explicit_grid`` inside ``sdkernel``) are both seen.

Each wrapped call is a span.  Its self time is its duration minus the
durations of the spans it encloses, so the self times of all spans plus
the time outside any span add up to the wall time.  Alongside times the
tracer records counts of computed work (grid cells, flops by a stated
model, signature segments and tensor bytes) read from the arguments and
results at the same boundary.

The tracer changes no argument and no result: outputs are byte-identical
with and without it, which the benchmark checks on every traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "sigdev"

# The package modules that do measurable work.  errors, rng and selftest
# carry none.
LAYERS = ("cli", "mmd", "paths", "signature", "freeprob", "sdkernel", "backend", "randomdev")

# Functions whose counts feed a per-layer metric.  A name missing from the
# package, or one whose arguments no longer have the expected shape, is
# reported as absent and its metrics read 0.
EXPECTED = {
    "signature": ("truncated_signature",),
    "freeprob": ("nc2_enumerate",),
    "sdkernel": ("series_oracle", "solve_explicit", "solve_implicit", "k_sd"),
    "backend": ("explicit_grid", "implicit_grid"),
    "randomdev": ("sample_matrices", "unitary_development", "gl_development"),
    "mmd": ("gram", "mmd2"),
    "cli": ("main",),
}

# Parts that split a layer; every other function belongs to the part named
# after its layer.
_PARTS = {
    ("sdkernel", "series_oracle"): "sdkernel.series",
    ("sdkernel", "series_tail_bound"): "sdkernel.series",
    ("randomdev", "sample_matrices"): "randomdev.sample",
}
_LAYER_DEFAULT_PART = {"sdkernel": "sdkernel.grid", "randomdev": "randomdev.develop"}

PARTS = (
    "cli", "mmd", "paths", "signature", "freeprob", "sdkernel.series", "sdkernel.grid",
    "backend.explicit", "backend.implicit", "randomdev.sample", "randomdev.develop",
)

BYTES_PER_ENTRY = 8


def part_of(layer: str, name: str, args: tuple, kwargs: dict) -> str:
    """The part a call is accounted to."""
    if layer == "backend":
        return "backend.implicit" if "implicit" in name else "backend.explicit"
    if (layer, name) == ("sdkernel", "k_sd"):
        scheme = args[2] if len(args) > 2 else kwargs.get("scheme", "series")
        return "sdkernel.series" if scheme == "series" else "sdkernel.grid"
    return _PARTS.get((layer, name), _LAYER_DEFAULT_PART.get(layer, layer))


# ---------------------------------------------------------------------------
# computed work

# Grid flops count the recursion itself, not one implementation of it:
# every inner term K * K * gram is two multiplies and an add.

def explicit_grid_flops(n: int) -> int:
    """Left-point grid on n increments: cell (a, b) sums b-1-a inner terms
    and subtracts the sum from K[a][b-1]."""
    return sum(3 * (b * (b - 1) // 2) + b for b in range(1, n + 1))


def implicit_grid_flops(n: int) -> int:
    """Right-point grid on n increments: cell (i, b) sums b-1-i inner terms,
    subtracts the sum and divides by 1 + gram[b-1, b-1]."""
    return sum(3 * (b * (b - 1) // 2) + 2 * b for b in range(1, n + 1))


def grid_cells(n: int) -> int:
    """Cells above the diagonal of an (n+1) x (n+1) grid."""
    return n * (n + 1) // 2


def signature_entries(segments: int, dim: int, level: int) -> int:
    """Tensor entries a segment-by-segment Chen product forms: per segment
    the exponential (sum_m d^m) and the truncated product, whose level m
    sums m+1 tensor products of d^m entries."""
    return segments * sum((m + 2) * dim**m for m in range(level + 1))


# Flop model for the matrix developments, in real flops for complex N x N
# operands: a product is 8 N^3; a Hermitian eigendecomposition with vectors
# is modelled as 36 N^3 (four times the usual 9 N^3 real count); a
# matrix exponential as six products.
MATMUL = 8
EIGH = 36
EXPM = 6 * MATMUL


def unitary_factor_flops(n: int) -> int:
    """eigh, rebuild V diag(e^{i lambda}) V^*, accumulate Z @ factor."""
    return (EIGH + 2 * MATMUL) * n**3


def gl_factor_flops(n: int) -> int:
    """expm, accumulate Z @ factor."""
    return (EXPM + MATMUL) * n**3


def _nonzero_rows(incs) -> int:
    deltas = incs.deltas
    return int(sum(1 for row in deltas if any(row)))


def _segments(path, interval) -> int:
    """Segments of nonzero increment that overlap [s, t]: the ones a
    signature over that interval multiplies in."""
    times, points = path.times, path.points
    s, t = (times[0], times[-1]) if interval is None else interval
    return sum(
        1 for k in range(len(times) - 1)
        if times[k] < t and times[k + 1] > s and any(points[k + 1] != points[k])
    )


def _facts(counts: dict, layer: str, name: str, args: tuple, kwargs: dict, result) -> None:
    """Add the computed work of one finished call to ``counts``."""
    if (layer, name) == ("signature", "truncated_signature"):
        path = args[0]
        interval = args[1] if len(args) > 1 else kwargs.get("interval")
        level = args[2] if len(args) > 2 else kwargs.get("level", 4)
        segments = _segments(path, interval)
        counts["signature.segments"] += segments
        counts["signature.tensor_bytes"] += BYTES_PER_ENTRY * signature_entries(segments, path.dim, level)
    elif (layer, name) == ("freeprob", "nc2_enumerate"):
        counts["freeprob.partitions"] += len(result)
    elif (layer, name) == ("sdkernel", "series_oracle"):
        counts["sdkernel.series.levels"] += getattr(result, "level", 0)
    elif layer == "backend":
        n = args[0].shape[0]
        counts["backend.cells"] += grid_cells(n)
        implicit = "implicit" in name
        counts["backend.flops"] += implicit_grid_flops(n) if implicit else explicit_grid_flops(n)
    elif (layer, name) in (("randomdev", "unitary_development"), ("randomdev", "gl_development")):
        incs, n = args[0], args[2]
        factors = _nonzero_rows(incs)
        per_factor = unitary_factor_flops(n) if name == "unitary_development" else gl_factor_flops(n)
        counts["randomdev.factors"] += factors
        counts["randomdev.flops"] += factors * per_factor
    elif (layer, name) == ("randomdev", "sigkernel_montecarlo"):
        cfg = args[3]
        counts["randomdev.flops"] += cfg.samples_m * MATMUL * cfg.dim_n**3


# ---------------------------------------------------------------------------
# spans

class Tracer:
    """Span stack plus per-part totals for the calls made while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.top_s = 0.0

    def wrap(self, layer: str, name: str, fn):
        """Wrapper that records one span per call of ``fn``."""
        tracer = self
        qualified = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            part = part_of(layer, name, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [part, 0.0]
            tracer._stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - start
                tracer._stack.pop()
                if parent is None:
                    tracer.top_s += duration
                else:
                    parent[1] += duration
                tracer.self_s[part] += duration - frame[1]
                tracer.calls[qualified] += 1
                if parent is not None and parent[0] == "mmd" and name in ("k_sd", "signature_kernel_truncated"):
                    tracer.counts["mmd.kernel_evals"] += 1
            try:
                _facts(tracer.counts, layer, name, args, kwargs, result)
            except (AttributeError, IndexError, TypeError):  # the signature changed
                if qualified not in tracer.absent:
                    tracer.absent.append(qualified)
            return result

        return traced

    def install(self, package: str = PACKAGE) -> None:
        """Wrap every public function of each layer and patch the wrappers
        into every loaded module of the package."""
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(layer, name, obj)
            for name in EXPECTED.get(layer, ()):
                if not inspect.isfunction(getattr(module, name, None)):
                    self.absent.append(f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()


def layer_metrics(tracer: Tracer, wall_s: float, useful_signatures: int) -> dict[str, float]:
    """Per-layer metrics of one traced round that took ``wall_s``.

    ``useful_signatures`` is the number of distinct paths whose signature
    the round's signature-route kernels need, one per path.
    """
    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s
    sig_calls = calls["signature.truncated_signature"]
    series_calls = calls["sdkernel.series_oracle"]
    backend_s = self_s["backend.explicit"] + self_s["backend.implicit"]
    develop_s = self_s["randomdev.develop"]
    out = {
        "cli.self_s": self_s["cli"],
        "mmd.kernel_evals": counts["mmd.kernel_evals"],
        "mmd.self_s": self_s["mmd"],
        "paths.calls": _calls_in(calls, "paths"),
        "paths.self_s": self_s["paths"],
        "signature.calls": sig_calls,
        "signature.self_s": self_s["signature"],
        "signature.segments": counts["signature.segments"],
        "signature.tensor_mb": counts["signature.tensor_bytes"] / 2**20,
        "signature.useful_ratio": useful_signatures / sig_calls if sig_calls else 0.0,
        "freeprob.calls": _calls_in(calls, "freeprob"),
        "freeprob.self_s": self_s["freeprob"],
        "freeprob.partitions": counts["freeprob.partitions"],
        "sdkernel.series.calls": series_calls,
        "sdkernel.series.self_s": self_s["sdkernel.series"],
        "sdkernel.series.level_mean": counts["sdkernel.series.levels"] / series_calls if series_calls else 0.0,
        "sdkernel.grid.calls": calls["sdkernel.solve_explicit"] + calls["sdkernel.solve_implicit"],
        "sdkernel.grid.self_s": self_s["sdkernel.grid"],
        "backend.explicit.calls": _calls_in(calls, "backend", "explicit"),
        "backend.explicit.self_s": self_s["backend.explicit"],
        "backend.implicit.calls": _calls_in(calls, "backend", "implicit"),
        "backend.implicit.self_s": self_s["backend.implicit"],
        "backend.cells": counts["backend.cells"],
        "backend.gflops": counts["backend.flops"] / backend_s / 1e9 if backend_s else 0.0,
        "randomdev.sample.self_s": self_s["randomdev.sample"],
        "randomdev.develop.self_s": develop_s,
        "randomdev.factors": counts["randomdev.factors"],
        "randomdev.gflops": counts["randomdev.flops"] / develop_s / 1e9 if develop_s else 0.0,
    }
    out["trace.unattributed_s"] = wall_s - sum(self_s[p] for p in PARTS)
    return out


def _calls_in(calls: dict, layer: str, infix: str = "") -> int:
    return sum(v for k, v in calls.items() if k.startswith(layer + ".") and infix in k)
