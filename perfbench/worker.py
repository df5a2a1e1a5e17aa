"""One workload process: set-up, timed rounds, checks.

``run.py`` starts this file in a fresh interpreter for every measurement,
so imports and lazy initialisation are paid inside the measured set-up.
BLAS is pinned to one thread and every ``SIGDEV_*`` variable is removed
before numpy or the package is imported.

The last line of stdout is one JSON object with the run's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_environment(environ) -> list[str]:
    """Pin BLAS threads and drop the CLI's environment fallbacks; returns
    the names of the variables removed."""
    scrubbed = sorted(k for k in environ if k.startswith("SIGDEV_"))
    for key in scrubbed:
        del environ[key]
    environ.update(PINS)
    return scrubbed


class Calibration:
    """A fixed mix of interpreter, small-array, BLAS, LAPACK and
    memory-streaming work, timed next to every op.

    The host this benchmark runs on is shared: neighbours' load changes the
    speed of the same code by up to a factor of two within minutes, so raw
    wall times of one commit spread by 20 to 40 % between runs.  An op's
    time divided by the calibration times just before and after it follows
    the sigdev code alone; multiplied by REF_S it reads as seconds on the
    unloaded machine.  The kernel is part of the benchmark and never changes
    with the package.
    """

    # one call on an unloaded 2-core Intel Xeon (the machine the benchmark
    # was written on)
    REF_S = 0.04

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.random(16)
        self.square = rng.random((96, 96))
        herm = rng.random((64, 64)) + 1j * rng.random((64, 64))
        self.herm = herm + herm.conj().T
        self.big = rng.random((1000, 1000))  # 8 MB, beyond the caches
        self.eigh = np.linalg.eigh

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(160_000):
            acc += i * i % 7
        small = self.small
        for _ in range(9_000):
            small[:8] * 1.5 + small[8:]
        for _ in range(240):
            self.square @ self.square
        for _ in range(10):
            self.eigh(self.herm)
        for _ in range(18):
            self.big.sum(axis=0)
        return time.perf_counter() - start

    def scale(self, seconds: float, calibration_s: float) -> float:
        """Seconds at the reference speed."""
        return seconds * self.REF_S / calibration_s


def calibrated_round(runner: "Runner", calibration: Calibration) -> tuple[list[float], list[float]]:
    """Run every op once; returns each op's wall time and the same time at
    the reference speed, from the calibrations on either side of the op."""
    marks = [calibration()]
    raw = []
    for i in range(len(runner.ops)):
        raw.append(runner.run_op(i))
        marks.append(calibration())
    scaled = [calibration.scale(t, (a + b) / 2) for t, a, b in zip(raw, marks, marks[1:])]
    return raw, scaled


class Runner:
    """Executes a workload's ops and keeps, per op, the first output and
    how many attempts failed."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)
        self.attempts = [0] * len(ops)
        self.failures = [0] * len(ops)
        self.notes: list[str] = []

    def run_op(self, index: int) -> float:
        """Run one op and return its wall time; outputs are collected
        outside the timed span."""
        op = self.ops[index]
        self.attempts[index] += 1
        start = time.perf_counter()
        try:
            status = op.execute()
        except Exception:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - start
            self._failed(index, f"{op.label} raised:\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            data = op.output(status)
        except Exception as exc:
            self._failed(index, f"{op.label}: {exc}")
            return elapsed
        if self.first[index] is None:
            self.first[index] = data
        elif data != self.first[index]:
            self._failed(index, f"{op.label}: output differs from the first attempt")
        return elapsed

    def _failed(self, index: int, note: str) -> None:
        self.failures[index] += 1
        self.notes.append(note)

    def verify(self) -> float:
        """Check every op's output against its reference; all attempts of an
        op whose output fails count as failed.  Returns the largest error."""
        max_err = 0.0
        for i, op in enumerate(self.ops):
            if self.first[i] is None:
                continue
            check = op.check(self.first[i])
            max_err = max(max_err, check.max_err)
            if not check.ok:
                self.failures[i] = self.attempts[i]
                self.notes.extend(f"{op.label}: {n}" for n in check.notes)
        return max_err

    @property
    def attempted(self) -> int:
        return sum(self.attempts)

    @property
    def failed(self) -> int:
        return sum(self.failures)


def environment(scrubbed: list[str]) -> dict:
    import platform

    import numpy
    import scipy

    try:
        from sigdev import backend

        backend_name = getattr(backend, "BACKEND", "unknown")
    except ImportError:
        backend_name = "absent"
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": {k: os.environ.get(k) for k in PINS},
        "sigdev_vars_removed": scrubbed,
        "sigdev_backend": backend_name,
    }


def round_time(rounds: list[list[float]]) -> float:
    """Time of the op list: the sum over ops of each op's median over the
    rounds."""
    return sum(statistics.median(per_op) for per_op in zip(*rounds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args(argv)

    pinned_early = "numpy" not in sys.modules
    scrubbed = pin_environment(os.environ)
    sys.path[:0] = [args.src, HERE]
    import resource

    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    runner = Runner(ops)
    runner.run_op(0)  # warm-up op, part of set-up
    setup_raw = time.monotonic() - args.t0
    calibration = Calibration()
    setup_s = calibration.scale(setup_raw, statistics.median(calibration() for _ in range(3)))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    # warm-up attempts are not counted; their output still anchors the
    # byte-for-byte comparison
    runner.attempts[0] = runner.failures[0] = 0
    plain_raw, plain, traced, layer_rounds, absent = [], [], [], [], []
    useful = sum(op.signed_paths for op in ops)
    start = time.perf_counter()
    while True:
        raw, scaled = calibrated_round(runner, calibration)
        plain_raw.append(raw)
        plain.append(scaled)
        if args.trace:
            spans = tracer.Tracer()
            spans.install()
            try:
                raw, scaled = calibrated_round(runner, calibration)
            finally:
                spans.uninstall()
            traced.append(scaled)
            absent = spans.absent
            layer_rounds.append((sum(raw), tracer.layer_metrics(spans, sum(raw), useful)))
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    max_err = runner.verify()
    for note in runner.notes:
        print(note, file=sys.stderr)
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "rounds": len(plain),
        "wall_s": round_time(plain),
        "wall_raw_s": round_time(plain_raw),
        "op_raw_s": {op.label: statistics.median(t) for op, t in zip(ops, zip(*plain_raw))},
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "peak_rss_mb": peak_rss_mb,
        "max_err": max_err,
        "env": dict(environment(scrubbed), pinned_before_numpy=pinned_early, seed=args.seed),
    }
    if args.trace:
        # one whole traced round (the median one), so that its self times and
        # unattributed time add up to its wall time
        layer_rounds.sort(key=lambda r: r[0])
        layers = layer_rounds[(len(layer_rounds) - 1) // 2][1]
        layers["trace.overhead"] = round_time(traced) / round_time(plain) - 1.0
        layers["verify.max_err"] = max_err
        layers["verify.fail_frac"] = runner.failed / runner.attempted
        result["layers"] = layers
        result["absent"] = absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
