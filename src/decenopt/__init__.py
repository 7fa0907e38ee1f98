"""Decentralized stochastic optimization lab.

GT-SARAH (recursive variance reduction fused by gradient tracking) with
DSGD and DSGT baselines, over simulated synchronous peer networks with
doubly stochastic mixing.
"""

from .algorithms import NetworkState, RunConfig
from .data import parse_csv, parse_libsvm, prepare, synthesize
from .engine import DivergenceError, RunTrace, run, stationary_gap
from .graph import (MixingMatrix, Topology, build_topology, lazy_metropolis_weights,
                    spectral_quantities, validate_mixing)
from .objective import LogisticDataset, LogisticProblem, QuadraticProblem
from .theory import (ComplexityEstimate, max_stepsize, outer_iteration_bound,
                     predicted_complexity, recommend_parameters)

__version__ = "0.1.0"

__all__ = [
    "ComplexityEstimate", "DivergenceError", "LogisticDataset", "LogisticProblem",
    "MixingMatrix", "NetworkState", "QuadraticProblem", "RunConfig", "RunTrace", "Topology",
    "build_topology", "lazy_metropolis_weights", "max_stepsize", "outer_iteration_bound",
    "parse_csv", "parse_libsvm", "predicted_complexity", "prepare", "recommend_parameters",
    "run", "spectral_quantities", "synthesize", "validate_mixing",
]
