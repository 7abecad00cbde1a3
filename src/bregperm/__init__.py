"""Exact combinatorics of permutations with one-sided position restrictions.

The package counts, enumerates, samples and analyses the families S_b of
permutations satisfying pi(i) >= b_i for a non-decreasing restriction
vector b, with exact integer and rational arithmetic throughout.  The
one-subdiagonal staircase family (pi(i) >= i - 1) gets the full treatment:
a bijection with integer compositions, exact cycle-count moments of every
order from one closed form that counts marked parts, and a quantified
normal approximation for the k-cycle count.
"""

from .core import (
    CapExceeded,
    Composition,
    CycleType,
    Permutation,
    RestrictionMatrix,
    RestrictionVector,
    cycle_type,
    matrix_from_vector,
)
from .permanent import permanent_enumerate, permanent_ryser
from .bregular import (
    count_b_regular,
    count_k_cycles,
    count_with_fixed_points,
    enumerate_b_regular,
    fixed_point_mean,
    fixed_point_variance,
    reduce_vector_on_fixed_point,
    sample_b_regular,
)
from .bijection import (
    RecordProfile,
    composition_from_index,
    composition_to_index,
    composition_to_perm,
    enumerate_compositions,
    perm_to_composition,
    record_positions,
    total_k_parts,
)
from .cycindex import (
    extract_factorial_moment,
    mean_formula_is_exact,
    mean_k_cycles,
    second_falling_formula_is_exact,
    second_falling_moment,
    variance_k_cycles,
)
from .stein import (
    CltReport,
    DependenceReport,
    IndependenceProbeReport,
    IndicatorLaw,
    SteinBoundReport,
    clt_empirical_test,
    dependence_threshold,
    independence_probe,
    indicator_law,
    indicator_probability,
    joint_indicator_probability,
    kolmogorov_from_wasserstein,
    sample_k_part_counts,
    shifted_moment_sums,
    standard_normal_cdf,
    stein_bound_report,
    wasserstein_bound,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CltReport",
    "Composition",
    "CycleType",
    "DependenceReport",
    "IndependenceProbeReport",
    "IndicatorLaw",
    "Permutation",
    "RecordProfile",
    "RestrictionMatrix",
    "RestrictionVector",
    "SteinBoundReport",
    "clt_empirical_test",
    "composition_from_index",
    "composition_to_index",
    "composition_to_perm",
    "count_b_regular",
    "count_k_cycles",
    "count_with_fixed_points",
    "cycle_type",
    "dependence_threshold",
    "enumerate_b_regular",
    "enumerate_compositions",
    "extract_factorial_moment",
    "fixed_point_mean",
    "fixed_point_variance",
    "independence_probe",
    "indicator_law",
    "indicator_probability",
    "joint_indicator_probability",
    "kolmogorov_from_wasserstein",
    "matrix_from_vector",
    "mean_formula_is_exact",
    "mean_k_cycles",
    "perm_to_composition",
    "permanent_enumerate",
    "permanent_ryser",
    "record_positions",
    "reduce_vector_on_fixed_point",
    "sample_b_regular",
    "sample_k_part_counts",
    "second_falling_formula_is_exact",
    "second_falling_moment",
    "shifted_moment_sums",
    "standard_normal_cdf",
    "stein_bound_report",
    "total_k_parts",
    "variance_k_cycles",
    "wasserstein_bound",
    "__version__",
]
