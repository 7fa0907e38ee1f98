"""Experiment driver: synchronous round loop, metrics, cost accounting, traces.

A run produces a RunTrace of per-iteration records. Metric evaluations use
full gradients and are never charged to the gradient or communication
counters; they also never touch the sampling streams, so recording cadence
cannot change a trajectory.

Trace indexing is the run state's own: gt-sarah records carry the outer
cycle s and inner index t (t = 0..q within a cycle, plus one terminal record
at t = q+1 of the last cycle); dsgd/dsgt records carry s = 0 and t = step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import repeat

import numpy as np

from .algorithms import (RunConfig, baseline_state, dsgd_step, dsgt_init, dsgt_step,
                         gt_sarah_cycle_handoff, gt_sarah_inner_step,
                         gt_sarah_outer_init, initial_state)
from .data import _open_text
from .graph import spectral_quantities, validate_mixing
from .streams import IndexStreams, node_streams
from .theory import max_stepsize

_ALG_STREAM_ID = {"gt-sarah": 0, "dsgd": 1, "dsgt": 2}

DIVERGENCE_NORM = 1e12      # state norm beyond which a run is declared diverged


class DivergenceError(RuntimeError):
    """Raised when the stacked state leaves the finite trust region."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def consensus_error(X: np.ndarray) -> float:
    """(1/n) sum_i ||x_i - xbar||, the dispersion of node states."""
    X = np.asarray(X, dtype=float)
    xbar = X.mean(axis=0)
    return float(np.linalg.norm(X - xbar, axis=1).mean())


def stationary_gap(problem, X: np.ndarray) -> float:
    """||grad F(xbar)|| + consensus error; zero iff consensus at a stationary point."""
    X = np.asarray(X, dtype=float)
    xbar = X.mean(axis=0)
    return float(np.linalg.norm(problem.full_gradient(xbar))) + consensus_error(X)


def def33_term(problem, X: np.ndarray) -> float:
    """Per-iterate squared stationarity: (1/n) sum_i ||grad F(x_i)||^2 + L^2 ||x_i - xbar||^2.

    Rows equal byte for byte share one full gradient, and the distinct rows
    go to ``full_gradient`` as one stacked call, so a consensus state (every
    run's start) costs one full pass, not n. The sum runs in node order.
    """
    X = np.asarray(X, dtype=float)
    xbar = X.mean(axis=0)
    keys = [x.tobytes() for x in X]
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    G = problem.full_gradient(X[list(first.values())])
    grad_sq = {key: float(g @ g) for key, g in zip(first, G)}
    total, L2 = 0.0, problem.L ** 2
    for key, x in zip(keys, X):
        d = x - xbar
        total += grad_sq[key] + L2 * float(d @ d)
    return total / X.shape[0]


@dataclass(frozen=True)
class TraceRecord:
    s: int
    t: int
    epochs: float
    grads_total: int
    comm_rounds: int
    stationary_gap: float
    consensus_error: float
    objective: float
    def33_mean: float


# the CSV schema: the run's algorithm and seed, then a record's fields in order
_COLUMNS = tuple(f.name for f in fields(TraceRecord))
CSV_HEADER = ",".join(("algorithm", "seed") + _COLUMNS)


@dataclass
class RunTrace:
    """Recorded metrics of one run plus the final stacked state."""

    algorithm: str
    seed: int
    records: list = field(default_factory=list)
    final_x: np.ndarray | None = None

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def to_csv(self, target) -> None:
        """Write the documented CSV schema; floats in round-trip repr form."""
        head = f"{self.algorithm},{self.seed},"
        with _open_text(target, "w") as f:
            f.write(CSV_HEADER + "\n")
            for r in self.records:     # the str of a float is its repr
                f.write(head + ",".join([str(getattr(r, c)) for c in _COLUMNS]) + "\n")


class _Recorder:
    """Accumulates the running def33 mean and emits trace records."""

    def __init__(self, problem, trace, record_every, def33_every):
        self.problem = problem
        self.trace = trace
        self.record_every = record_every
        self.def33_every = def33_every
        self.def33_sum, self.def33_count = 0.0, 0

    def observe(self, state) -> int:
        """The state's def33 sample and record, each if due; the next round one is due."""
        j = state.rounds
        if j % self.def33_every == 0:
            self.def33_sum += def33_term(self.problem, state.x)
            self.def33_count += 1
        if j % self.record_every == 0:
            self.record(state)
        return min((j // e + 1) * e for e in (self.record_every, self.def33_every))

    def record(self, state):
        """Append the trace record of the state at its round (s, t)."""
        X, grads, problem = state.x, state.grads, self.problem
        self.trace.records.append(TraceRecord(
            s=state.s, t=state.t, epochs=grads / (problem.n * problem.m),
            grads_total=grads, comm_rounds=state.rounds,
            stationary_gap=stationary_gap(problem, X), consensus_error=consensus_error(X),
            objective=problem.full_value(X.mean(axis=0)),
            def33_mean=self.def33_sum / max(1, self.def33_count)))


def _check_finite(state, limit, trace):
    x = state.x.ravel(order="K")    # sqrt(x . x) is the float np.linalg.norm(state.x) gives
    if not math.sqrt(x.dot(x)) <= limit:     # also true for a NaN or inf norm
        raise DivergenceError(f"state norm left the finite trust region (> {limit:g}) "
                              f"at (s={state.s}, t={state.t})", trace)


def resolve(config: RunConfig, problem, lam: float) -> RunConfig:
    """Fill in the derived fields of ``config``; ValueError if it cannot run on ``problem``."""
    cfg = replace(config)
    if cfg.B > problem.m:
        raise ValueError(f"minibatch size {cfg.B} exceeds m={problem.m}")
    if cfg.x0 is not None and np.shape(cfg.x0) != (problem.p,):
        raise ValueError(f"x0 shape {np.shape(cfg.x0)} does not match (p,) = {(problem.p,)}")
    budget = "S" if cfg.algorithm == "gt-sarah" else "steps"
    if getattr(cfg, budget) is None and cfg.epochs is None:
        raise ValueError(f"{cfg.algorithm} needs {budget} or epochs")
    if getattr(cfg, budget) is not None and cfg.epochs is not None:
        raise ValueError(f"give {budget} or epochs, not both")
    if cfg.algorithm == "gt-sarah":
        q = cfg.q if cfg.q is not None else problem.m
        S = cfg.S
        if S is None:
            S = max(1, round(cfg.epochs * problem.m / (problem.m + 2 * q * cfg.B)))
        cfg = replace(cfg, q=q, S=S)
        every = max(1, math.ceil((q + 1) / 4))
    else:
        steps = cfg.steps
        if steps is None:
            steps = max(1, round(cfg.epochs * problem.m / cfg.B))
        q_eq = max(1, math.ceil(problem.m / cfg.B))
        cfg = replace(cfg, steps=steps, q=cfg.q if cfg.q is not None else q_eq)
        every = max(1, math.ceil((steps + 1) / 40))
    if cfg.alpha == "auto":
        cfg = replace(cfg, alpha=max_stepsize(problem.n, cfg.B, cfg.q, lam, problem.L,
                                              variant="complexity"))
    if cfg.record_every is None:
        cfg = replace(cfg, record_every=every)
    if cfg.def33_every is None:
        cfg = replace(cfg, def33_every=cfg.record_every)
    return cfg


def _cycle_start(state, problem, W, alpha, B, rngs):
    # round t = 0 of a GT-SARAH cycle
    gt_sarah_outer_init(state, problem, W, alpha)


def _gt_sarah_rounds(state, S, q):
    # the step of every round: a cycle start, then q inner steps; the handoff
    # into the next cycle runs before its cycle-start round is observed
    for cycle in range(S):
        if cycle:
            gt_sarah_cycle_handoff(state, q)
        yield _cycle_start
        yield from repeat(gt_sarah_inner_step, q)


def run(problem, weights, config: RunConfig) -> RunTrace:
    """Execute one experiment run and return its trace.

    ``weights`` is a MixingMatrix or a plain (n, n) array; a plain array
    must be nonnegative and doubly stochastic, else ValueError (primitivity
    is not required). All nodes start from the same point (config.x0,
    default the origin). Raises DivergenceError (with the partial trace
    attached) if the state norm exceeds DIVERGENCE_NORM or turns non-finite.
    """
    W = np.asarray(getattr(weights, "entries", weights), dtype=float)
    if W.shape != (problem.n, problem.n):
        raise ValueError(f"weights shape {W.shape} does not match n={problem.n}")
    lam = getattr(weights, "lam", None)
    if lam is None:
        report = validate_mixing(W)
        if not (report.nonnegative and report.rows_stochastic and report.cols_stochastic):
            raise ValueError("weights must be nonnegative and doubly stochastic (max row/column "
                             f"sum deviation {report.max_row_deviation:.2e}/"
                             f"{report.max_col_deviation:.2e})")
        lam, _ = spectral_quantities(W)
    cfg = resolve(config, problem, lam)

    x0 = np.zeros(problem.p) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)
    trace = RunTrace(algorithm=cfg.algorithm, seed=cfg.seed)
    rec = _Recorder(problem, trace, cfg.record_every, cfg.def33_every)

    if cfg.algorithm == "gt-sarah":
        state = initial_state(x0, problem.n)
        rounds = _gt_sarah_rounds(state, cfg.S, cfg.q)
        draws = cfg.S * cfg.q                      # one per inner step
    else:
        state = baseline_state(x0, problem.n)
        rounds = repeat(dsgd_step if cfg.algorithm == "dsgd" else dsgt_step, cfg.steps)
        draws = cfg.steps + (cfg.algorithm == "dsgt")   # one per step, plus dsgt_init
    rngs = IndexStreams(node_streams(cfg.seed, problem.n,
                                     namespace=(_ALG_STREAM_ID[cfg.algorithm], cfg.replicate)),
                        problem.m, cfg.B, draws, gather=problem.gather)
    if cfg.algorithm == "dsgt":
        dsgt_init(state, problem, cfg.B, rngs)
    alpha, B, due = cfg.alpha, cfg.B, 0
    for step in rounds:
        if state.rounds == due:
            due = rec.observe(state)
        step(state, problem, W, alpha, B, rngs)
        _check_finite(state, DIVERGENCE_NORM, trace)
    rec.record(state)
    trace.final_x = state.x
    return trace
