"""Decentralized stochastic optimization lab.

GT-SARAH (recursive variance reduction fused by gradient tracking) with
DSGD and DSGT baselines, over simulated synchronous peer networks with
doubly stochastic mixing.
"""

from .algorithms import (ComplexityEstimate, NetworkState, RunConfig, max_stepsize,
                         predicted_complexity, recommend_parameters)
from .data import parse_csv, parse_libsvm, prepare, synthesize
from .engine import DivergenceError, RunTrace, outer_iteration_bound, run, stationary_gap
from .graph import (MixingMatrix, Topology, build_topology, lazy_metropolis_weights,
                    spectral_quantities, validate_mixing)
from .objective import LogisticDataset, LogisticProblem, QuadraticProblem

__version__ = "0.1.0"

__all__ = [
    "ComplexityEstimate", "DivergenceError", "LogisticDataset", "LogisticProblem",
    "MixingMatrix", "NetworkState", "QuadraticProblem", "RunConfig", "RunTrace", "Topology",
    "build_topology", "lazy_metropolis_weights", "max_stepsize", "outer_iteration_bound",
    "parse_csv", "parse_libsvm", "predicted_complexity", "prepare", "recommend_parameters",
    "run", "spectral_quantities", "synthesize", "validate_mixing",
]
