"""Cross-module invariant suite behind the ``selftest`` CLI command.

Each check is small enough to run in well under a second; together they
exercise the oracle relationships that tie the modules to each other
(scheme vs series, moments vs enumeration, bijections, determinism).
"""

from __future__ import annotations

import itertools

import numpy as np

from .freeprob import (
    DyckWord,
    catalan,
    dyck_from_partition,
    generation_labels,
    nc2_enumerate,
    partition_from_dyck,
    schwinger_dyson_check,
    semicircular_moment,
    semicircular_moment_fast,
)
from .mmd import KernelSpec, PathSample, gram, mmd2
from .paths import (
    IncrementSequence,
    Partition,
    Path,
    concat_reverse,
    dyadic_refine,
    gen_fbm,
    one_variation,
    piecewise_constant_increments,
    refine_to_variation,
    scaled,
)
from .randomdev import GUE, EnsembleConfig, rk_montecarlo, sample_matrices, unitary_development
from .sdkernel import (
    exact_straight_line,
    grid_gram,
    k_sd,
    semicircle_charfn,
    series_gram,
    series_oracle,
    solve_explicit,
    solve_implicit,
)
from .signature import (
    chen_product,
    coordinate_coefficient,
    iterated_sums_signature,
    signature_gram,
    signature_kernel_truncated,
    truncated_signature,
)


def _rand_path(seed: int, n: int = 9, dim: int = 2, scale: float = 0.08) -> Path:
    rng = np.random.default_rng(seed)
    pts = np.vstack([np.zeros((1, dim)), np.cumsum(rng.normal(size=(n - 1, dim)) * scale, axis=0)])
    return Path(np.linspace(0.0, 1.0, n), pts)


def check_variation_additive():
    p = _rand_path(1)
    total = one_variation(p, (0.0, 1.0))
    split = one_variation(p, (0.0, 0.37)) + one_variation(p, (0.37, 1.0))
    assert abs(total - split) <= 1e-12, f"additivity off by {abs(total - split):.2e}"


def check_concat_reverse_cancels():
    p = _rand_path(2)
    y = concat_reverse(p, p)
    assert np.linalg.norm(y.displacement) <= 1e-12, "reversal should cancel displacement"


def check_dyadic_composition():
    part = Partition(np.array([0.0, 0.3, 1.0]))
    lhs = dyadic_refine(part, 3).knots
    rhs = dyadic_refine(dyadic_refine(part, 1), 2).knots
    assert np.array_equal(lhs, rhs), "dyadic refinement does not compose"


def check_increments_sum_to_displacement():
    p = _rand_path(3)
    incs = piecewise_constant_increments(p, dyadic_refine(Partition(p.times), 2))
    assert np.abs(incs.total - p.displacement).max() <= 1e-12


def check_chen_identity():
    p = _rand_path(4, dim=2)
    whole = truncated_signature(p, (0.0, 1.0), 4)
    left = truncated_signature(p, (0.0, 0.5), 4)
    right = truncated_signature(p, (0.5, 1.0), 4)
    combined = chen_product(left, right)
    for m in range(5):
        assert np.abs(whole.tensors[m] - combined.tensors[m]).max(initial=0.0) <= 1e-10


def check_signature_factorial_decay():
    p = _rand_path(5, dim=2, scale=0.3)
    sig = truncated_signature(p, level=6)
    var = one_variation(p)
    bound = 1.0
    for m in range(1, 7):
        bound *= var / m
        assert np.abs(sig.tensors[m]).max(initial=0.0) <= bound + 1e-9


def check_level_one_matches_displacement():
    p = _rand_path(6, dim=1)
    sig = truncated_signature(p, level=1)
    incs = piecewise_constant_increments(p, Partition(p.times))
    iss = iterated_sums_signature(incs, 1)
    disp = float(p.displacement[0])
    assert abs(coordinate_coefficient(sig, (1,)) - disp) <= 1e-12
    assert abs(coordinate_coefficient(iss, (1,)) - disp) <= 1e-12


def check_catalan_counts():
    for k in range(0, 7):
        assert len(nc2_enumerate(2 * k)) == catalan(k)


def check_dyck_roundtrip():
    for n in range(0, 11, 2):
        for part in nc2_enumerate(n):
            word = dyck_from_partition(part)
            assert partition_from_dyck(word) == part


def check_generation_example():
    info = generation_labels(DyckWord("()()(()(()))"))
    assert info.word_generation == 3
    assert info.labels[(5, 12)] == 1
    assert info.labels[(3, 4)] == 2 and info.labels[(8, 11)] == 2


def check_moment_implementations_agree():
    for length in range(0, 9):
        for word in itertools.product((1, 2), repeat=length):
            assert semicircular_moment(word) == semicircular_moment_fast(word)


def check_schwinger_dyson_identities():
    assert schwinger_dyson_check(6, 2)


def check_grid_diagonals():
    incs = IncrementSequence(np.array([[0.2], [-0.1], [0.3]]))
    for grid in (solve_explicit(incs), solve_implicit(incs)):
        assert np.all(grid.values.diagonal() == 1.0)


def check_zero_increment_insertion():
    incs = np.array([[0.2, 0.0], [-0.1, 0.2], [0.05, -0.3]])
    padded = np.insert(incs, 1, 0.0, axis=0)
    for solver in (solve_explicit, solve_implicit):
        a = solver(IncrementSequence(incs)).final
        b = solver(IncrementSequence(padded)).final
        assert a == b, f"zero increment changed {solver.__name__}"


def check_schemes_match_bessel():
    incs = IncrementSequence(np.full((64, 1), 1.0 / 64))
    ref = exact_straight_line(1.0, 0.0, 1.0)
    assert abs(solve_explicit(incs).final - ref) <= 0.01
    assert abs(solve_implicit(incs).final - ref) <= 0.01


def check_series_against_bessel():
    line = Path([0.0, 1.0], [[0.0], [1.0]])
    got = series_oracle(line, tol=1e-10)
    assert abs(got.value - semicircle_charfn(1.0)) <= 1e-9


def check_series_tree_like():
    p = _rand_path(7, dim=2, scale=0.05)
    y = concat_reverse(p, p)
    assert abs(series_oracle(y, tol=1e-8).value - 1.0) <= 1e-7


def check_unitarity():
    cfg = EnsembleConfig(GUE, dim_n=24, samples_m=2, seed=5, path_dim=2)
    incs = IncrementSequence(np.array([[0.4, -0.2], [0.1, 0.6]]))
    for s in range(cfg.samples_m):
        z = unitary_development(incs, sample_matrices(cfg, s), cfg.dim_n)
        defect = np.abs(z.conj().T @ z - np.eye(cfg.dim_n)).max()
        assert defect <= 1e-10, f"unitarity defect {defect:.2e}"


def check_montecarlo_determinism():
    p = Path([0.0, 1.0], [[0.0], [1.0]])
    cfg = EnsembleConfig(GUE, dim_n=16, samples_m=8, seed=42, path_dim=1)
    a = rk_montecarlo(p, cfg)
    b = rk_montecarlo(p, cfg)
    assert a == b, "seeded estimate must be bit-identical"


def check_mmd_zero_on_self():
    sample = PathSample(tuple(scaled(gen_fbm(0.75, 6, 2, seed), 0.05) for seed in (1, 2, 3)))
    assert abs(mmd2(sample, sample, "sd_series", KernelSpec(tol=1e-6))) <= 1e-10


def check_gram_diagonal_near_one():
    sample = PathSample(tuple(scaled(gen_fbm(0.75, 6, 2, seed), 0.05) for seed in (4, 5)))
    g = gram(sample, None, "sd_series", KernelSpec(tol=1e-8))
    assert np.abs(g.values.diagonal() - 1.0).max() <= 1e-6


def check_gram_matches_pairwise():
    paths = tuple(_rand_path(seed, n=6, scale=0.05) for seed in (8, 9, 10))
    series = series_gram(paths, paths, 1e-8)
    signature = signature_gram(paths, paths, 6)
    for i, a in enumerate(paths):
        for j, b in enumerate(paths):
            direct = series_oracle(concat_reverse(a, b), tol=1e-8).value
            assert abs(series[i, j] - direct) <= 1e-12, f"series Gram off by {abs(series[i, j] - direct):.2e}"
            direct = signature_kernel_truncated(a, b, level=6).value
            assert abs(signature[i, j] - direct) <= 1e-12, f"signature Gram off by {abs(signature[i, j] - direct):.2e}"
    # the grid kernels share their discretisation with k_sd, so each entry is
    # also checked against the concatenated path gamma * <-sigma, refined and
    # interpolated on its own knots
    for scheme, solver in (("explicit", solve_explicit), ("implicit", solve_implicit)):
        grid = grid_gram(paths, paths[::-1], scheme, 0.02)
        for i, a in enumerate(paths):
            for j, b in enumerate(paths[::-1]):
                direct = k_sd(a, b, scheme, mesh=0.02)
                assert grid[i, j] == direct, f"{scheme} Gram off by {abs(grid[i, j] - direct):.2e}"
                y = concat_reverse(a, b)
                joined = solver(piecewise_constant_increments(y, refine_to_variation(y, 0.02))).final
                assert abs(grid[i, j] - joined) <= 1e-13, f"{scheme} Gram off the concatenation by {abs(grid[i, j] - joined):.2e}"


ALL_CHECKS = [
    ("paths.one_variation additive over adjacent intervals", check_variation_additive),
    ("paths.concat_reverse cancels displacement", check_concat_reverse_cancels),
    ("paths.dyadic_refine composes", check_dyadic_composition),
    ("paths increments sum to displacement", check_increments_sum_to_displacement),
    ("signature Chen identity", check_chen_identity),
    ("signature factorial decay", check_signature_factorial_decay),
    ("signature level 1 equals displacement", check_level_one_matches_displacement),
    ("freeprob non-crossing counts are Catalan", check_catalan_counts),
    ("freeprob Dyck bijection round-trips", check_dyck_roundtrip),
    ("freeprob generation labels on reference word", check_generation_example),
    ("freeprob moment implementations agree", check_moment_implementations_agree),
    ("freeprob Schwinger-Dyson identities", check_schwinger_dyson_identities),
    ("sdkernel grid diagonals are one", check_grid_diagonals),
    ("sdkernel zero-increment insertion is neutral", check_zero_increment_insertion),
    ("sdkernel schemes near Bessel value", check_schemes_match_bessel),
    ("sdkernel series matches Bessel value", check_series_against_bessel),
    ("sdkernel series is 1 on tree-like paths", check_series_tree_like),
    ("randomdev developments are unitary", check_unitarity),
    ("randomdev Monte-Carlo is deterministic", check_montecarlo_determinism),
    ("mmd distance of a sample to itself is 0", check_mmd_zero_on_self),
    ("mmd Gram diagonal is 1 under the series kernel", check_gram_diagonal_near_one),
    ("mmd batched Grams match the per-pair kernels", check_gram_matches_pairwise),
]


def run_all(report=print) -> int:
    """Run every check, report one line each, return the failure count."""
    failures = 0
    for name, check in ALL_CHECKS:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            report(f"FAIL  {name}: {exc}")
        else:
            report(f"ok    {name}")
    return failures
