"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import itertools
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import reference
import tracer
import worker
import workloads
from tracer import Tracer


def run_round(runner):
    return [runner.run_op(i) for i in range(len(runner.ops))]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# self-time accounting

def test_nested_spans_subtract_children():
    clock = FakeClock()
    spans = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    leaf_w = spans.wrap("paths", "leaf", leaf)

    def outer():
        clock.now += 1.0
        leaf_w()
        leaf_w()
        clock.now += 3.0

    spans.wrap("mmd", "gram", outer)()
    assert spans.self_s["mmd"] == pytest.approx(4.0)
    assert spans.self_s["paths"] == pytest.approx(4.0)
    assert spans.top_s == pytest.approx(8.0)
    assert spans.calls == {"paths.leaf": 2, "mmd.gram": 1}


def test_recursive_spans_count_each_level_once():
    clock = FakeClock()
    spans = Tracer(clock=clock)

    def countdown(n):
        clock.now += 1.0
        return 0 if n == 0 else 1 + wrapped(n - 1)

    wrapped = spans.wrap("freeprob", "countdown", countdown)
    assert wrapped(4) == 4
    assert spans.calls["freeprob.countdown"] == 5
    assert spans.self_s["freeprob"] == pytest.approx(5.0)
    assert spans.top_s == pytest.approx(5.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    spans = Tracer(clock=clock)

    def boom():
        clock.now += 1.5
        raise ValueError("x")

    inner = spans.wrap("paths", "boom", boom)

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            inner()

    spans.wrap("cli", "main", outer)()
    assert spans.self_s["paths"] == pytest.approx(1.5)
    assert spans.self_s["cli"] == pytest.approx(1.0)
    assert spans._stack == []


def test_unattributed_time_closes_the_account():
    clock = FakeClock()
    spans = Tracer(clock=clock)
    spans.wrap("mmd", "gram", lambda: setattr(clock, "now", clock.now + 3.0))()
    metrics = tracer.layer_metrics(spans, 3.5, 0)
    self_total = sum(v for k, v in metrics.items() if k.endswith("self_s"))
    assert self_total + metrics["trace.unattributed_s"] == pytest.approx(3.5)


def test_k_sd_is_accounted_by_scheme():
    assert tracer.part_of("sdkernel", "k_sd", (None, None), {}) == "sdkernel.series"
    assert tracer.part_of("sdkernel", "k_sd", (None, None, "implicit"), {}) == "sdkernel.grid"
    assert tracer.part_of("sdkernel", "k_sd", (None, None), {"scheme": "explicit"}) == "sdkernel.grid"
    assert tracer.part_of("backend", "implicit_grid", (), {}) == "backend.implicit"
    assert tracer.part_of("randomdev", "sample_matrices", (), {}) == "randomdev.sample"


def test_unexpected_arguments_leave_the_call_intact():
    spans = Tracer()
    wrapped = spans.wrap("signature", "truncated_signature", lambda *args: "result")
    assert wrapped() == "result"
    assert spans.absent == ["signature.truncated_signature"]


def test_install_patches_imported_names_and_uninstall_restores():
    import sigdev
    from sigdev import backend, mmd, sdkernel

    original_k_sd = mmd.k_sd
    original_grid = backend.explicit_grid
    spans = Tracer()
    spans.install()
    try:
        assert mmd.k_sd is not original_k_sd
        assert sdkernel.k_sd is mmd.k_sd
        assert sigdev.k_sd is mmd.k_sd
        assert backend.explicit_grid is not original_grid
        assert spans.absent == []
    finally:
        spans.uninstall()
    assert mmd.k_sd is original_k_sd
    assert backend.explicit_grid is original_grid


# ---------------------------------------------------------------------------
# computed work

def _loop_flops(n, implicit):
    """Operation count of the plain recursions in sigdev.backend's docstring."""
    flops = 0
    for b in range(1, n + 1):
        for a in range(b - 1, -1, -1):
            first = a + 1 if implicit else a
            last = b - 1 if implicit else b - 2
            flops += 3 * max(0, last - first + 1)   # K * K * gram, accumulated
            flops += 2 if implicit else 1            # subtract (and divide)
    return flops


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
def test_grid_flop_formulas_match_loop_counts(n):
    assert tracer.explicit_grid_flops(n) == _loop_flops(n, implicit=False)
    assert tracer.implicit_grid_flops(n) == _loop_flops(n, implicit=True)
    assert tracer.grid_cells(n) == sum(1 for a in range(n + 1) for b in range(a + 1, n + 1))


@pytest.mark.parametrize("dim,level", [(1, 3), (2, 4), (3, 2)])
def test_signature_entries_formula(dim, level):
    per_segment = sum(dim**m for m in range(level + 1))  # the exponential
    for m in range(level + 1):
        per_segment += sum(dim**p * dim ** (m - p) for p in range(m + 1))  # S_p (x) E_(m-p)
    assert tracer.signature_entries(5, dim, level) == 5 * per_segment


def test_signature_counts_skip_zero_segments():
    import sigdev

    # the middle segment repeats a point, as concat_reverse does when the
    # reversed path does not start where the first one ends
    path = sigdev.Path([0.0, 1.0, 2.0, 3.0], [[0.0, 0.0], [0.1, 0.0], [0.1, 0.0], [0.1, 0.2]])
    spans = Tracer()
    spans.install()
    try:
        sigdev.truncated_signature(path, None, 3)
        sigdev.truncated_signature(path, (0.5, 1.5), 3)
    finally:
        spans.uninstall()
    assert spans.counts["signature.segments"] == 2 + 1
    assert spans.counts["signature.tensor_bytes"] == 8 * tracer.signature_entries(3, 2, 3)


def test_development_flop_model():
    assert tracer.unitary_factor_flops(10) == (36 + 16) * 1000
    assert tracer.gl_factor_flops(10) == (48 + 8) * 1000


def test_traced_counts_on_a_real_grid():
    import sigdev

    incs = sigdev.IncrementSequence(np.full((6, 2), 0.05))
    spans = Tracer()
    spans.install()
    try:
        sigdev.solve_explicit(incs)
        sigdev.solve_implicit(incs)
    finally:
        spans.uninstall()
    assert spans.counts["backend.cells"] == 2 * 21
    assert spans.counts["backend.flops"] == tracer.explicit_grid_flops(6) + tracer.implicit_grid_flops(6)
    metrics = tracer.layer_metrics(spans, 1.0, 0)
    assert metrics["sdkernel.grid.calls"] == 2
    assert metrics["backend.explicit.calls"] == metrics["backend.implicit.calls"] == 1


# ---------------------------------------------------------------------------
# failure counting

def _op(label, execute, check_ok=True):
    def check(data):
        result = workloads.Check()
        if not check_ok:
            result.fail("wrong")
        return result

    return workloads.Op(label, execute, lambda value: repr(value).encode(), check)


def test_raised_ops_and_failed_checks_count_as_failed():
    def raises():
        raise RuntimeError("op broke")

    counter = itertools.count()
    runner = worker.Runner([
        _op("ok", lambda: 1),
        _op("raises", raises),
        _op("wrong", lambda: 2, check_ok=False),
        _op("drifts", lambda: next(counter)),
    ])
    for _ in range(3):
        run_round(runner)
    runner.verify()
    assert runner.attempted == 12
    # raises: 3, wrong: 3, drifts: its 2nd and 3rd outputs differ from the 1st
    assert runner.failed == 8
    assert runner.failures == [0, 3, 3, 2]


def test_check_records_largest_error_and_tolerance():
    check = workloads.Check()
    check.value("a", 1.0, 1.0 + 1e-9, 1e-8)
    check.value("b", 2.0, 2.1, 0.5)
    assert check.ok and check.max_err == pytest.approx(0.1)
    check.value("c", 0.0, 1.0, 0.5)
    assert not check.ok and check.max_err == pytest.approx(1.0)
    check.value("nan", float("nan"), 1.0, 0.5)
    assert check.max_err == float("inf")


# ---------------------------------------------------------------------------
# transparency: the tracer changes no output byte

def _small_ops(tmp_path):
    paths = [inputs.fbm(0.75, 3, k, points=6) for k in range(3)]
    sample = str(tmp_path / "s.jsonl")
    single = str(tmp_path / "p.csv")
    inputs.write_jsonl(sample, paths)
    inputs.write_csv(single, paths[0])

    def cli(name, argv):
        return workloads._cli_op(name, argv, str(tmp_path / f"{name}.out"), None)

    def ginibre():
        import sigdev

        g, s = sigdev.read_path_csv(single), sigdev.read_path_csv(single)
        cfg = sigdev.EnsembleConfig(sigdev.COMPLEX_GINIBRE, 4, 3, 1, 2)
        return sigdev.sigkernel_montecarlo(g, s, None, cfg)

    return [
        cli("gram_sig", ["gram", sample, "--kernel", "sig_truncated", "--level", "4"]),
        cli("gram_sd", ["gram", sample, "--kernel", "sd_series"]),
        cli("mmd", ["mmd", sample, sample, "--kernel", "sd_implicit", "--mesh", "0.1"]),
        cli("converge", ["converge", single, "--lambda", "0..2", "--matrix-dim", "4", "--mc-samples", "2"]),
        workloads.Op("ginibre", ginibre, lambda est: repr(tuple(est)).encode(), None),
    ]


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    plain = worker.Runner(_small_ops(tmp_path))
    run_round(plain)
    traced = worker.Runner(_small_ops(tmp_path))
    spans = Tracer()
    spans.install()
    try:
        run_round(traced)
    finally:
        spans.uninstall()
    assert plain.failed == traced.failed == 0
    assert all(plain.first)
    assert plain.first == traced.first
    assert spans.calls["cli.main"] == 4
    assert spans.counts["randomdev.factors"] > 0


# ---------------------------------------------------------------------------
# references

def test_moment_table_matches_pairing_count():
    from sigdev import semicircular_moment

    phi = reference.moment_tables(2, 6)
    for m in range(7):
        for k, word in enumerate(itertools.product((1, 2), repeat=m)):
            assert phi[m][k] == semicircular_moment(word)


def test_reference_grams_match_the_package():
    from sigdev import Path, concat_reverse, series_oracle, signature_kernel_truncated

    raw = [inputs.fbm(0.75, 5, k) for k in range(3)]
    table = reference.SignatureTable(raw, level=12)
    sd, sd_tails = reference.sd_gram(table, table, reference.moment_tables(2, 12))
    sig, _ = reference.sig_gram(table, table)
    paths = [Path(inputs.times(), x) for x in raw]
    for i, j in itertools.product(range(3), repeat=2):
        series = series_oracle(concat_reverse(paths[i], paths[j]), tol=1e-6)
        assert abs(sd[i, j] - series.value) <= 1e-6 + sd_tails[i, j]
        assert sig[i, j] == pytest.approx(signature_kernel_truncated(paths[i], paths[j], level=12).value, abs=1e-13)


def test_inputs_are_seeded_and_normalised():
    a, b, c = inputs.fbm(0.75, 7, 0), inputs.fbm(0.75, 7, 0), inputs.fbm(0.75, 8, 0)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert reference.one_variation(a) == pytest.approx(inputs.VARIATION)


# ---------------------------------------------------------------------------
# process boundary

def test_pin_environment_scrubs_cli_fallbacks():
    env = {"SIGDEV_SEED": "3", "SIGDEV_KERNEL": "sd_explicit", "HOME": "/x"}
    assert worker.pin_environment(env) == ["SIGDEV_KERNEL", "SIGDEV_SEED"]
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
    assert not any(k.startswith("SIGDEV_") for k in env)


def test_run_fails_without_the_package(tmp_path):
    bench = os.path.dirname(os.path.abspath(tracer.__file__))
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mmd-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

