"""Decentralized update rules and the run configuration.

Every method runs the same synchronous round on per-node rows stacked into
(n, p) arrays; the methods differ only in the local estimate d that a node
feeds into it:

    y <- W y + d - v,  v <- d     (gradient tracking; skipped by DSGD)
    x <- W x - alpha y            (or x <- W x - alpha d without tracking)

GT-SARAH's d is the local batch gradient at a cycle start and the
SARAH-type recursive estimator at the q inner steps; DSGT's d is a plain
minibatch gradient and DSGD descends along that minibatch gradient
untracked. Every update mutates the passed state in place and advances
its cost counters; one round (the tracker and state exchanges together)
counts as one communication round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theory
from .streams import IndexStreams

ALGORITHMS = ("gt-sarah", "dsgd", "dsgt")


@dataclass
class NetworkState:
    """Live variables of a run, stacked per node.

    x is the current state matrix (n, p); y the gradient trackers; v the
    previous local estimate (GT-SARAH: the estimator v^{t-1}, carried as
    v^{-1,s} at a cycle start; DSGT: the last minibatch gradient). y and v
    stay None for DSGD, which does not track. (s, t) index rounds as the
    trace does: outer cycle and inner index for GT-SARAH, s = 0 and t = step
    for the baselines. x_prev holds the state before the last round. grads and
    rounds count the run's component gradients and communication rounds.
    """

    x: np.ndarray
    y: np.ndarray | None = None
    v: np.ndarray | None = None
    s: int = 1
    t: int = 0
    x_prev: np.ndarray | None = None
    grads: int = 0
    rounds: int = 0


def initial_state(x0: np.ndarray, n: int) -> NetworkState:
    """GT-SARAH start: all nodes at x0, trackers and estimators at zero."""
    x0 = np.asarray(x0, dtype=float)
    return NetworkState(x=np.tile(x0, (n, 1)), y=np.zeros((n, x0.size)),
                        v=np.zeros((n, x0.size)))


def baseline_state(x0: np.ndarray, n: int) -> NetworkState:
    """DSGD/DSGT start: all nodes at x0, no tracker until dsgt_init seeds one."""
    x0 = np.asarray(x0, dtype=float)
    return NetworkState(x=np.tile(x0, (n, 1)), s=0)


def _round(state: NetworkState, W: np.ndarray, alpha: float, d: np.ndarray,
           grads: int) -> NetworkState:
    """The shared round: track d if the state tracks, then mix and descend.

    Charges ``grads`` component gradients (the cost of producing d) and
    one communication round.
    """
    # in place only on the fresh products of W: state may share y with v
    if state.y is not None:
        y = W @ state.y
        y += d
        y -= state.v
        state.y, state.v, d = y, d, y
    state.x_prev, state.x = state.x, W @ state.x
    state.x -= alpha * d
    state.t += 1
    state.grads += grads
    state.rounds += 1
    return state


def sample_indices(rngs: IndexStreams, m: int, B: int) -> np.ndarray:
    """(n, B) component indices, B i.i.d. uniform draws per node with replacement.

    Each node draws from its own stream, so the result does not depend on
    the order in which nodes are processed. ``rngs`` must draw ahead for
    this (m, B), else ValueError.
    """
    if (rngs.m, rngs.B) != (m, B):
        raise ValueError(f"index streams draw (m={rngs.m}, B={rngs.B}), "
                         f"asked for (m={m}, B={B})")
    return rngs.take()


def _sample(problem, B, rngs):
    # the indices, and the rows an IndexStreams gathered ahead for them with
    # this problem's gather (else None: the oracle gathers them itself)
    idx = sample_indices(rngs, problem.m, B)
    return idx, (rngs.rows if rngs.owner is problem else None)


def sarah_estimator(problem, X, X_prev, V_prev, indices, rows=None) -> np.ndarray:
    """Recursive estimator: minibatch(grad(X) - grad(X_prev)) + V_prev, row-wise."""
    g_new, g_old = problem.minibatch_gradients(np.array((X, X_prev)), indices, rows)
    return (g_new - g_old) + V_prev


def gt_sarah_outer_init(state: NetworkState, problem, W: np.ndarray, alpha: float) -> NetworkState:
    """Cycle start: one round on the local batch gradients.

    Costs n*m component gradients and one communication round. Requires the
    state at (t=0, s) carrying y^{0,s} and v^{-1,s} (zeros at s=1).
    """
    if state.t != 0:
        raise ValueError(f"outer init requires t=0, state is at t={state.t}")
    return _round(state, W, alpha, problem.batch_gradients(state.x), problem.n * problem.m)


def gt_sarah_inner_step(state: NetworkState, problem, W: np.ndarray, alpha: float,
                        B: int, rngs) -> NetworkState:
    """One inner iteration: one round on the recursive estimator.

    Costs 2*n*B component gradients (each sampled index is evaluated at the
    current and the previous state) and one communication round.
    """
    if state.t < 1 or state.x_prev is None:
        raise ValueError("inner step requires a completed outer init")
    v = sarah_estimator(problem, state.x, state.x_prev, state.v, *_sample(problem, B, rngs))
    return _round(state, W, alpha, v, 2 * problem.n * B)


def gt_sarah_cycle_handoff(state: NetworkState, q: int) -> NetworkState:
    """Roll indices to the next cycle; no gradient or communication cost.

    x, y carry over unchanged and the final inner estimator becomes the
    next cycle's v^{-1}.
    """
    if state.t != q + 1:
        raise ValueError(f"handoff requires t={q + 1}, state is at t={state.t}")
    state.s += 1
    state.t = 0
    state.x_prev = None
    return state


# ---------------------------------------------------------------------------
# baselines

def _minibatch(problem, X, B, rngs):
    return problem.minibatch_gradients(X, *_sample(problem, B, rngs)), problem.n * B


def dsgd_step(state: NetworkState, problem, W: np.ndarray, alpha: float,
              B: int, rngs) -> NetworkState:
    """Mix then descend along a local minibatch gradient: x <- W x - alpha g."""
    if state.y is not None:
        raise ValueError("dsgd_step requires an untracked state from baseline_state")
    return _round(state, W, alpha, *_minibatch(problem, state.x, B, rngs))


def dsgt_init(state: NetworkState, problem, B: int, rngs) -> NetworkState:
    """Seed the tracker with one minibatch gradient: y = v = g at the start point."""
    g, cost = _minibatch(problem, state.x, B, rngs)
    state.y = g
    state.v = g
    state.grads += cost
    return state


def dsgt_step(state: NetworkState, problem, W: np.ndarray, alpha: float,
              B: int, rngs) -> NetworkState:
    """Stochastic gradient tracking: one tracked round on a minibatch gradient.

    The node average of y equals the node average of the latest gradients
    by telescoping, which is what lets every node follow the global
    gradient.
    """
    if state.y is None or state.v is None:
        raise ValueError("dsgt_step requires dsgt_init first")
    return _round(state, W, alpha, *_minibatch(problem, state.x, B, rngs))


@dataclass
class RunConfig:
    """Parameters of one experiment run.

    alpha may be the string "auto", which resolves to
    theory.max_stepsize(..., variant="complexity"). Give S (outer cycles,
    gt-sarah) or steps (dsgd/dsgt) or epochs, not both, where one epoch is
    m component gradients per node; the budget key the method does not
    use (steps for gt-sarah, S for the others) is a ValueError, as are a
    count beyond the float range and a negative seed or replicate. q
    defaults to m for gt-sarah.
    """

    algorithm: str
    alpha: float | str = "auto"
    B: int = 1
    q: int | None = None
    S: int | None = None
    steps: int | None = None
    epochs: float | None = None
    seed: int = 0
    record_every: int | None = None
    def33_every: int | None = None
    x0: np.ndarray | None = None
    replicate: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        for name in ("B", "q", "S", "steps", "record_every", "def33_every"):
            value = getattr(self, name)
            if value is None:
                continue
            if not value >= 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
            theory._check_float_range(**{name: value})
        for name in ("seed", "replicate"):      # numpy seeds only nonnegative ints
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")
        for name in ("alpha", "epochs"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        other = "steps" if self.algorithm == "gt-sarah" else "S"
        if getattr(self, other) is not None:
            raise ValueError(f"{other} does not apply to {self.algorithm}")
        if self.epochs is not None and self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if isinstance(self.alpha, str):
            if self.alpha != "auto":
                raise ValueError(f"alpha must be nonnegative or 'auto', got {self.alpha!r}")
        elif self.alpha < 0:
            # an explicit 0 freezes descent (consensus-only diagnostics);
            # 'auto' always resolves to a positive bound
            raise ValueError(f"alpha must be nonnegative or 'auto', got {self.alpha}")
