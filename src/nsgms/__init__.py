"""Graphical model selection from block-wise i.i.d. Gaussian data.

Sparse neighborhood regression by exhaustive penalized subset search,
plus the synthetic model generators, seeded samplers, DFT decorrelation
front-end, quadratic-form concentration tools, and Monte Carlo harness
used to validate the recovery guarantees empirically.
"""

__version__ = "0.1.0"

from .concentration import QuadraticForm, empirical_tail, mgf_empirical, mgf_term, tail_bound
from .decorrelate import (
    DecorrelationReport,
    StationarySeries,
    decorrelation_report,
    to_block_samples,
)
from .graph import Cig, random_cig
from .model import (
    BlockModel,
    ModelReport,
    build_block_model,
    min_edge_strength,
    partial_correlation,
    verify_assumptions,
)
from .regression import (
    EstimatorConfig,
    NeighborhoodEstimate,
    default_lambda,
    estimate_graph,
    estimate_neighborhood,
    project_complement,
    residual_statistic,
    rho_condition_holds,
    sample_size_bound,
)
from .sampling import GramBlocks, SampleBlocks, cholesky_factor, sample_grams, sample_process

__all__ = [
    "BlockModel",
    "Cig",
    "DecorrelationReport",
    "EstimatorConfig",
    "GramBlocks",
    "ModelReport",
    "NeighborhoodEstimate",
    "QuadraticForm",
    "SampleBlocks",
    "StationarySeries",
    "build_block_model",
    "cholesky_factor",
    "decorrelation_report",
    "default_lambda",
    "empirical_tail",
    "estimate_graph",
    "estimate_neighborhood",
    "mgf_empirical",
    "mgf_term",
    "min_edge_strength",
    "partial_correlation",
    "project_complement",
    "random_cig",
    "residual_statistic",
    "rho_condition_holds",
    "sample_grams",
    "sample_process",
    "sample_size_bound",
    "tail_bound",
    "to_block_samples",
    "verify_assumptions",
]
