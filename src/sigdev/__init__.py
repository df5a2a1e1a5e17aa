"""Kernels on path space from random matrix developments.

The package computes the large-N limit kernel of random unitary path
developments by three mutually cross-checking routes (grid schemes for its
quadratic functional equation, a free-probability series, random-matrix
Monte-Carlo), the classical signature kernel limit for general-linear
developments, and MMD distances between sets of paths.
"""

from .errors import DomainError, NumericError, ResourceLimitError, SigdevError
from .freeprob import (
    DyckWord,
    GenerationLabels,
    PairPartition,
    catalan,
    dyck_from_partition,
    generation_labels,
    insert_generation,
    nc2_enumerate,
    partition_from_dyck,
    schwinger_dyson_check,
    semicircular_moment,
    semicircular_moment_fast,
)
from .mmd import GramMatrix, KernelSpec, PathSample, gram, mmd2
from .paths import (
    IncrementSequence,
    Partition,
    Path,
    concat_reverse,
    dyadic_refine,
    gen_fbm,
    one_variation,
    piecewise_constant_increments,
    read_path_csv,
    read_paths_jsonl,
    refine_to_variation,
    scaled,
    write_path_csv,
    write_paths_jsonl,
)
from .randomdev import (
    COMPLEX_GINIBRE,
    GUE,
    EnsembleConfig,
    gl_development,
    rk_montecarlo,
    sample_matrices,
    sigkernel_montecarlo,
    unitary_development,
)
from .sdkernel import (
    SolutionGrid,
    exact_straight_line,
    grid_gram,
    k_sd,
    semicircle_charfn,
    series_gram,
    series_kernel,
    series_oracle,
    series_tail_bound,
    solve_explicit,
    solve_implicit,
)
from .signature import (
    TruncatedSignature,
    chen_product,
    coordinate_coefficient,
    iterated_sums_signature,
    level_for_remainder,
    signature_gram,
    signature_kernel_truncated,
    truncated_signature,
)

__version__ = "0.1.0"
