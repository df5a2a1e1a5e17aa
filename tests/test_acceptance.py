"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; without ``-s`` pytest shows them for failing criteria only.
"""

import csv
import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from sigdev import (
    GUE,
    DyckWord,
    EnsembleConfig,
    IncrementSequence,
    KernelSpec,
    Partition,
    Path,
    PathSample,
    catalan,
    dyadic_refine,
    dyck_from_partition,
    gen_fbm,
    generation_labels,
    gram,
    insert_generation,
    iterated_sums_signature,
    k_sd,
    mmd2,
    nc2_enumerate,
    partition_from_dyck,
    piecewise_constant_increments,
    sample_matrices,
    scaled,
    schwinger_dyson_check,
    semicircular_moment_fast,
    sigkernel_montecarlo,
    series_oracle,
    solve_explicit,
    solve_implicit,
    unitary_development,
    write_paths_jsonl,
)
from sigdev.cli import main
from sigdev.sdkernel import exact_straight_line
from sigdev.randomdev import COMPLEX_GINIBRE, rk_montecarlo
from helpers import make_piecewise_linear

J1_AT_TWO = exact_straight_line(1.0, 0.0, 1.0)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num}] {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def unit_line():
    return Path([0.0, 1.0], [[0.0], [1.0]])


def test_criterion_1_exact_solution_convergence():
    t0 = time.monotonic()
    base = Partition([0.0, 1.0])
    errors = {"explicit": [], "implicit": []}
    ok = True
    detail = ""
    for lam in range(8):
        incs = piecewise_constant_increments(unit_line(), dyadic_refine(base, lam))
        for name, solver in (("explicit", solve_explicit), ("implicit", solve_implicit)):
            err = abs(solver(incs).final - J1_AT_TWO)
            errors[name].append(err)
            bound = 16.0 * math.exp(4.0) * 2.0 ** (-lam)
            if err > bound:
                ok, detail = False, f"{name} error {err:.3e} above bound {bound:.3e} at lambda={lam}"
    for name, errs in errors.items():
        if not all(a > b for a, b in zip(errs[:-1], errs[1:])):
            ok, detail = False, f"{name} errors not monotone: {errs}"
        rate = (errs[0] / errs[-1]) ** (1.0 / 7.0)
        if rate < 1.7:
            ok, detail = False, f"{name} shrink rate {rate:.3f} < 1.7"
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        ok, detail = False, f"runtime {elapsed:.1f}s >= 10s"
    _report(
        1,
        "exact-solution convergence (both schemes, lambda 0..7)",
        ok,
        detail or f"rates: explicit {(errors['explicit'][0]/errors['explicit'][-1])**(1/7):.2f}, "
        f"implicit {(errors['implicit'][0]/errors['implicit'][-1])**(1/7):.2f}, {elapsed:.1f}s",
    )


def test_criterion_2_scheme_series_agreement():
    t0 = time.monotonic()
    ok = True
    detail = ""
    worst_series, worst_cross = 0.0, 0.0
    for seed in range(20):
        path = make_piecewise_linear(1000 + seed, 8, 2, 0.9)
        reference = series_oracle(path, tol=1e-8).value
        part = dyadic_refine(Partition(path.times), 7)
        incs = piecewise_constant_increments(path, part)
        explicit = solve_explicit(incs).final
        implicit = solve_implicit(incs).final
        worst_series = max(worst_series, abs(explicit - reference))
        worst_cross = max(worst_cross, abs(explicit - implicit))
        if abs(explicit - reference) > 1e-2:
            ok, detail = False, f"seed {seed}: |explicit - series| = {abs(explicit - reference):.3e}"
        if abs(explicit - implicit) > 1e-2:
            ok, detail = False, f"seed {seed}: |explicit - implicit| = {abs(explicit - implicit):.3e}"
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        ok, detail = False, f"runtime {elapsed:.1f}s >= 60s"
    _report(
        2,
        "explicit(lambda=7) vs series oracle and implicit on 20 random paths",
        ok,
        detail or f"max|e-s|={worst_series:.2e}, max|e-i|={worst_cross:.2e}, {elapsed:.1f}s",
    )


def _moment_iss_contraction(deltas: np.ndarray) -> float:
    n, dim = deltas.shape
    iss = iterated_sums_signature(IncrementSequence(deltas), n)
    total = 0.0
    for m in range(0, n + 1, 2):
        sign = (-1) ** (m // 2)
        for idx, word in enumerate(itertools.product(range(1, dim + 1), repeat=m)):
            phi = semicircular_moment_fast(word)
            if phi:
                total += sign * phi * iss.tensors[m][idx]
    return total


def test_criterion_3_iss_identity():
    values = (-0.3, 0.0, 0.4)
    ok = True
    detail = ""
    checked = 0

    def check(deltas):
        nonlocal ok, detail, checked
        checked += 1
        lhs = solve_explicit(IncrementSequence(deltas)).final
        rhs = _moment_iss_contraction(deltas)
        if abs(lhs - rhs) > 1e-10:
            ok = False
            detail = f"|scheme - contraction| = {abs(lhs - rhs):.2e} on {deltas.tolist()}"

    for n in range(0, 6):  # d = 1: exhaustive over the value set
        for seq in itertools.product(values, repeat=n):
            check(np.asarray(seq, dtype=float).reshape(n, 1))
    for n in range(0, 4):  # d = 2: exhaustive up to length 3
        for seq in itertools.product(itertools.product(values, repeat=2), repeat=n):
            check(np.asarray(seq, dtype=float).reshape(n, 2))
    rng = np.random.default_rng(42)  # d = 2: fixed sample at lengths 4 and 5
    for n in (4, 5):
        for _ in range(150):
            check(rng.choice(values, size=(n, 2)))
    _report(3, "explicit scheme equals moment/ISS contraction to 1e-10", ok,
            detail or f"{checked} increment sequences")


def test_criterion_4_free_probability_suite():
    ok = True
    detail = ""
    for k in range(9):
        if len(nc2_enumerate(2 * k)) != catalan(k):
            ok, detail = False, f"count mismatch at k={k}"
    for n in range(0, 13, 2):
        for part in nc2_enumerate(n):
            if partition_from_dyck(dyck_from_partition(part)) != part:
                ok, detail = False, f"round-trip failed at n={n}"
    info = generation_labels(DyckWord("()()(()(()))"))
    expected = {(5, 12): 1, (3, 4): 2, (8, 11): 2, (1, 2): 3, (6, 7): 3, (9, 10): 3}
    if info.labels != expected or info.word_generation != 3:
        ok, detail = False, "reference generation labels wrong"
    by_gen: dict[int, set] = {}
    for n in range(0, 11, 2):
        for part in nc2_enumerate(n):
            word = dyck_from_partition(part)
            by_gen.setdefault(generation_labels(word).word_generation, set()).add(word)
    for gen, words in by_gen.items():
        for d1, d2 in itertools.combinations(sorted(words, key=str), 2):
            if not insert_generation(d1).isdisjoint(insert_generation(d2)):
                ok, detail = False, f"G({d1}) and G({d2}) intersect"
    for gen in range(0, 4):
        parents = by_gen.get(gen, set()) if gen else {DyckWord("")}
        for child in by_gen.get(gen + 1, set()):
            producers = [p for p in parents if child in insert_generation(p)]
            if len(producers) != 1:
                ok, detail = False, f"{child.parens} produced by {len(producers)} words"
    for d in (1, 2, 3):
        if not schwinger_dyson_check(8, d):
            ok, detail = False, f"Schwinger-Dyson identities fail for d={d}"
    _report(4, "non-crossing/Dyck/generation/moment suite", ok, detail)


def test_criterion_5_unitary_montecarlo():
    t0 = time.monotonic()
    cfg = EnsembleConfig(GUE, dim_n=200, samples_m=200, seed=2024, path_dim=1)
    incs = piecewise_constant_increments(unit_line(), Partition([0.0, 1.0]))
    traces = np.empty(cfg.samples_m, dtype=np.complex128)
    worst_defect = 0.0
    eye = np.eye(cfg.dim_n)
    for s in range(cfg.samples_m):
        z = unitary_development(incs, sample_matrices(cfg, s), cfg.dim_n)
        worst_defect = max(worst_defect, float(np.abs(z.conj().T @ z - eye).max()))
        traces[s] = np.trace(z) / cfg.dim_n
    estimate = float(np.mean(traces.real))
    stderr = float(np.std(traces.real, ddof=1) / np.sqrt(cfg.samples_m))
    packaged = rk_montecarlo(unit_line(), None, cfg)
    elapsed = time.monotonic() - t0
    error = abs(estimate - J1_AT_TWO)
    tolerance = max(3.0 * stderr, 0.02)
    ok = error <= tolerance and worst_defect <= 1e-10 and elapsed < 120.0
    ok = ok and packaged.estimate == estimate
    _report(
        5,
        "unitary Monte-Carlo at N=200, M=200",
        ok,
        f"|est-J1(2)|={error:.2e} (tol {tolerance:.2e}), defect={worst_defect:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_gl_montecarlo():
    t0 = time.monotonic()
    v = np.array([0.8, 0.6])
    w = np.array([0.5, 1.0])  # <v, w> = 1
    gamma = Path([0.0, 1.0], np.vstack([np.zeros(2), v]))
    sigma = Path([0.0, 1.0], np.vstack([np.zeros(2), w]))
    cfg = EnsembleConfig(COMPLEX_GINIBRE, dim_n=200, samples_m=200, seed=99, path_dim=2)
    est = sigkernel_montecarlo(gamma, sigma, None, cfg)
    elapsed = time.monotonic() - t0
    error = abs(est.estimate - 2.2796)
    tolerance = max(3.0 * est.stderr, 0.05)
    ok = error <= tolerance and elapsed < 120.0
    _report(
        6,
        "general-linear Monte-Carlo at N=200, M=200",
        ok,
        f"|est-2.2796|={error:.2e} (tol {tolerance:.2e}), stderr={est.stderr:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_kernel_mmd_properties():
    ok = True
    detail = ""
    for seed in range(10):
        p = make_piecewise_linear(seed, 6, 2, 0.8)
        value = k_sd(p, p, "series", tol=1e-6)
        if abs(value - 1.0) > 1e-6:
            ok, detail = False, f"k_sd(p,p) = {value} at seed {seed}"
    sample = PathSample(tuple(scaled(gen_fbm(0.75, 6, 2, s), 0.05) for s in range(3)))
    residual = abs(mmd2(sample, sample, "sd_series", KernelSpec(tol=1e-6)))
    if residual > 1e-10:
        ok, detail = False, f"mmd2(mu,mu) = {residual:.2e}"
    fbm5 = PathSample(tuple(scaled(gen_fbm(0.75, 6, 2, 100 + s), 0.05) for s in range(5)))
    eigs = np.linalg.eigvalsh(gram(fbm5, None, "sd_series", KernelSpec(tol=1e-8)).values)
    if eigs.min() < -1e-6:
        ok, detail = False, f"gram eigenvalue {eigs.min():.2e}"
    _report(7, "kernel normalisation, MMD zero, Gram PSD", ok,
            detail or f"min eigenvalue {eigs.min():.2e}")


def _converge_rows(tmp_path, name, extra):
    out = tmp_path / name
    argv = [
        "converge",
        "--fbm-hurst", "0.75",
        "--fbm-points", "15",
        "--scheme", "implicit",
        "--lambda", "0..6",
        "--matrix-dim", "10,50,200",
        "--mc-samples", "50",
        "--out", str(out),
    ] + extra
    assert main(argv) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    scheme = [r for r in rows if r["kind"] == "scheme"]
    mc = {r["param"]: r for r in rows if r["kind"] == "montecarlo"}
    return scheme, mc


def test_criterion_8_figure_shape(tmp_path):
    ok = True
    detail = ""
    for dim, extra in (
        (1, ["--fbm-dim", "1", "--seed", "5"]),
        (5, ["--fbm-dim", "5", "--fbm-scale", "0.15", "--tol", "1e-6", "--seed", "5"]),
    ):
        scheme, mc = _converge_rows(tmp_path, f"converge_d{dim}.csv", extra)
        errors = [float(r["error"]) for r in scheme]
        if not all(a > b for a, b in zip(errors[:-1], errors[1:])):
            ok, detail = False, f"d={dim}: scheme errors not improving: {errors}"
        dev10 = float(mc["10"]["error"])
        dev200 = float(mc["200"]["error"])
        noise = 3.0 * (float(mc["10"]["stderr"]) + float(mc["200"]["stderr"]))
        if dev200 > dev10 + noise:
            ok, detail = False, f"d={dim}: MC deviation grew: {dev10:.3e} -> {dev200:.3e}"
    _report(8, "convergence-figure shape via cmd_converge (d=1 and d=5)", ok, detail)


def test_criterion_9_byte_determinism(tmp_path):
    line_csv = tmp_path / "line.csv"
    line_csv.write_text("t,x1\n0.0,0.0\n1.0,1.0\n")
    sample = tmp_path / "sample.jsonl"
    paths = [scaled(gen_fbm(0.75, 5, 2, s), 0.05) for s in (1, 2)]
    write_paths_jsonl(["a", "b"], paths, sample)
    commands = {
        "genfbm": ["genfbm", "--points", "8", "--dim", "2", "--seed", "3"],
        "kernel": ["kernel", str(line_csv), str(line_csv)],
        "converge": [
            "converge", str(line_csv), "--lambda", "0..2", "--matrix-dim", "8",
            "--mc-samples", "4", "--seed", "7",
        ],
        "gram": ["gram", str(sample)],
        "mmd": ["mmd", str(sample), str(sample)],
    }
    ok = True
    detail = ""
    for name, argv in commands.items():
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "sigdev"] + argv,
                capture_output=True,
                check=False,
            )
            if proc.returncode != 0:
                ok, detail = False, f"{name} exited {proc.returncode}: {proc.stderr[:200]}"
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            ok, detail = False, f"{name} output differs between runs"
    # converge with no Monte-Carlo rows must be deterministic as well
    first = second = None
    for run in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "sigdev", "converge", str(line_csv),
             "--lambda", "0..2", "--matrix-dim", "", "--seed", "1"],
            capture_output=True,
            check=False,
        )
        if proc.returncode != 0:
            ok, detail = False, f"grid-only converge exited {proc.returncode}"
        first, second = second, proc.stdout
    if first != second:
        ok, detail = False, "grid-only converge output differs between runs"
    _report(9, "seeded commands produce byte-identical output", ok, detail)
