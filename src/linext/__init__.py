"""Linear binary entropy extractors over GF(2) and their quality bounds.

The library builds extractor matrices (Reed-Muller or user supplied),
computes weight distributions of the codes they generate, evaluates every
total-variation / entropy bound that follows from those distributions, and
lets an exact Walsh-Hadamard oracle or Monte-Carlo simulation check the bounds
against the real output distribution.
"""

from .bounds import (
    BoundRow,
    bias_bound,
    clamp01,
    entropy_lower_bound,
    hmin_bound,
    linear_grid,
    pointwise_bound,
    sweep,
    tvd_weight_bound,
    tvd_worst_bound,
    write_csv,
)
from .codes import (
    LinearCode,
    WeightDistribution,
    dual_generator,
    enumerate_weights,
    macwilliams_transform,
    min_distance,
    parse_weights,
    rm_generator,
    serialize_weights,
    weight_distribution,
)
from .errors import InfeasibleError
from .gf2 import (
    BitMatrix,
    BitVector,
    SystematicForm,
    matvec,
    parse_matrix,
    rank,
    serialize_matrix,
    systematize,
)
from .pipeline import (
    BiasedSourceSpec,
    BitStream,
    ExactStats,
    empirical_stats,
    exact_output_pmf,
    generate,
    linear_extract,
    marginal_biases,
    multinomial_noise_floor,
    output_weight_profile,
    stats_from_profile,
    von_neumann,
)

__version__ = "0.1.0"
