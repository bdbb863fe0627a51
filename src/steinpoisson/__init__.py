"""Exchangeable-pair Poisson approximation toolkit.

Exact combinatorial reference laws, the Poisson Stein operator and its
pseudo-inverse, exchangeable-pair samplers with analytic step conditionals,
the catalogue of closed-form error bounds, multivariate and
configuration-level approximation, and a certification harness (CLI:
``stein-poisson``) that checks every bound against exact total variation.
"""

from .stein_core import (
    EnumeratedPairMeasure,
    Pmf,
    SteinParams,
    poisson_expectation,
    poisson_pmf,
    pseudo_inverse_bounds,
    stein_apply,
    stein_identity_oracle,
    stein_inverse,
    tv_distance,
)
from .exact_laws import (
    ColoringSpec,
    MatchingSpec,
    OccupancySpec,
    coloring_pmf,
    derangement_numbers,
    matching_pmf,
    occupancy_pmf,
    poisson_binomial_pmf,
)
from .pair_models import (
    PairModel,
    birthday_pairs_model,
    birthday_triples_model,
    coupon_model,
    enumerate_pair_measure,
    matching_model,
    mc_tv_estimate,
    poisson_binomial_model,
    sample_statistics,
    substream,
    substreams,
    verify_exchangeability,
    verify_step_probs,
)
from .bounds import (
    BoundReport,
    DependencyGraph,
    bound_birthday_pairs,
    bound_birthday_triples,
    bound_coupling_coupon,
    bound_coupling_matching,
    bound_coupling_pair_count,
    bound_coupling_poisson_binomial,
    bound_coupon_collector,
    bound_coupon_negative_association,
    bound_dependency_graph,
    bound_dependency_graph_general,
    bound_generalized_matching,
    bound_matching,
    bound_monochromatic,
    bound_negative_association,
    bound_poisson_binomial,
    bound_process_matching,
    coloring_dependency_graph,
)
from .multivariate import (
    ConfigLaw,
    JointPmf,
    bound_fixed_point_succession,
    joint_fixed_point_succession_pmf,
    joint_marginal,
    joint_tv,
    matching_config_law,
    process_tv,
    product_poisson_config_law,
    product_poisson_joint,
)

__version__ = "0.1.0"
