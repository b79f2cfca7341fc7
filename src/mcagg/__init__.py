"""Markov chain aggregation by deterministic annealing, with
heterogeneity-based selection of the number of superstates."""
from .anneal import (AnnealConfig, AnnealResult, CriticalReport, anneal,
                     critical_temperature, extract_hard_partition,
                     fixed_point, hessian_quadratic_form)
from .core import (AggregatedModel, Partition, StochasticMatrix,
                   make_partition, simplex_basis, stationary_distribution,
                   validate_stochastic)
from .generators import gen_ncd, gen_replicated_rows, perturb
from .io import (ingest_bigrams, parse_matrix, parse_partitions, read_report,
                 write_matrix, write_partitions, write_report)
from .klgeom import (SoftAssociation, aggregate_transitions, build_model,
                     distance_matrix, distortion, free_energy, gibbs_weights,
                     kl_divergence, posterior_and_centroids)
from .pipeline import PipelineResult, aggregate_fixed_k, run_pipeline
from .selection import (SelectionReport, covariance_matrix, hard_membership,
                        heterogeneity, heterogeneity_profile, marginal_return,
                        select_k)

__version__ = "0.1.0"

__all__ = [
    "AggregatedModel", "AnnealConfig", "AnnealResult", "CriticalReport",
    "Partition", "PipelineResult", "SelectionReport",
    "SoftAssociation", "StochasticMatrix",
    "aggregate_fixed_k", "aggregate_transitions", "anneal", "build_model",
    "covariance_matrix", "critical_temperature", "distance_matrix",
    "distortion", "extract_hard_partition", "fixed_point", "free_energy",
    "gen_ncd", "gen_replicated_rows", "gibbs_weights", "hard_membership",
    "hessian_quadratic_form", "heterogeneity", "heterogeneity_profile",
    "ingest_bigrams", "kl_divergence", "make_partition", "marginal_return",
    "parse_matrix", "parse_partitions", "perturb", "posterior_and_centroids",
    "read_report", "run_pipeline", "select_k", "simplex_basis",
    "stationary_distribution", "validate_stochastic", "write_matrix",
    "write_partitions", "write_report",
]
