"""The paper's formulas: GT-SARAH's step-size, minibatch and complexity bounds.

Counts (n, m, B, q) are ints, checked against the float range before use as floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got {lam}")


def _check_float_range(**counts: int) -> None:
    if math.prod(counts.values()) > sys.float_info.max:     # exact: the product stays an int
        got = ", ".join(f"{name}={value}" for name, value in counts.items())
        raise ValueError(f"{' * '.join(counts)} exceeds the float range, got {got}")


def max_stepsize(n: int, B: int, q: int, lam: float, L: float,
                 variant: str = "complexity") -> float:
    """Largest admissible step size for GT-SARAH.

    min{ (1-lam^2)^2 / (4 sqrt(42)),
         (n B / 6 q)^{1/2},
         (4 n B / (7 n B + 24 q))^e * (1-lam^2) / 6 } / (2 L)

    with e = 1/4 for ``variant="asymptotic"`` and e = 1/3 for
    ``variant="complexity"`` (the tighter bound that underwrites the
    iteration-count and complexity guarantees).
    """
    _check_lambda(lam)
    if not L > 0:
        raise ValueError("smoothness modulus must be positive")
    if not math.isfinite(L):
        raise ValueError(f"smoothness modulus must be finite, got {L}")
    if min(n, B, q) < 1:
        raise ValueError("n, B, q must be positive")
    _check_float_range(n=n, B=B)
    _check_float_range(q=q)
    if variant == "asymptotic":
        e = 0.25
    elif variant == "complexity":
        e = 1.0 / 3.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    one = 1.0 - lam * lam
    t1 = one ** 2 / (4.0 * math.sqrt(42.0))
    t2 = math.sqrt(n * B / (6.0 * q))
    t3 = (4.0 * n * B / (7.0 * n * B + 24.0 * q)) ** e * one / 6.0
    alpha = min(t1, t2, t3) / (2.0 * L)
    if not math.isfinite(alpha):
        raise ValueError(f"step size bound is not finite for L={L}")
    return alpha


def recommend_parameters(n: int, m: int, lam: float, goal: str = "gradient") -> tuple:
    """Minibatch size and inner-loop length (B, q) for the given objective.

    goal="gradient" takes the largest B with the best gradient complexity,
    floor(sqrt(m/n) (1-lam)^3); goal="communication" the smallest B with the
    best communication complexity, ceil(sqrt(m/n) (1-lam)^1.5). B lies in [1, m], q = ceil(m/B).
    """
    _check_lambda(lam)
    if min(n, m) < 1:
        raise ValueError(f"n and m must be at least 1, got n={n}, m={m}")
    _check_float_range(n=n, m=m)
    if goal == "gradient":
        B = min(math.floor(max(math.sqrt(m / n) * (1.0 - lam) ** 3, 1.0)), m)
    elif goal == "communication":
        B = min(math.ceil(max(math.sqrt(m / n) * (1.0 - lam) ** 1.5, 1.0)), m)
    else:
        raise ValueError(f"unknown goal {goal!r}")
    return B, math.ceil(m / B)


@dataclass(frozen=True)
class ComplexityEstimate:
    """Predicted totals to reach squared stationarity epsilon^2.

    H counts component gradient computations across all nodes, K counts
    communication rounds; both are the bracketed max-expressions evaluated
    verbatim (the universal constants hidden by the theory are taken as 1).
    """

    H: float
    K: float
    regime: str


def predicted_complexity(n: int, m: int, B: int, lam: float,
                         Delta: float = 1.0, epsilon: float = 0.1) -> ComplexityEstimate:
    """Gradient/communication complexity of GT-SARAH at minibatch size B.

    H is non-decreasing and K non-increasing in B. ``Delta`` is the
    initial-condition constant L (F(x0) - F*) + mean ||grad f_i(x0)||^2;
    it is problem data the caller must supply (default 1 is a unit
    placeholder, not an estimate).
    """
    _check_lambda(lam)
    if not (epsilon > 0 and Delta > 0) or min(n, m, B) < 1:
        raise ValueError("n, m, B, Delta, epsilon must be positive")
    _check_float_range(n=n, m=m)
    _check_float_range(n=n, B=B)
    if not (math.isfinite(Delta) and math.isfinite(epsilon)):
        raise ValueError(f"Delta and epsilon must be finite, got Delta={Delta}, epsilon={epsilon}")
    gap = 1.0 - lam
    N = n * m
    scale = Delta / epsilon ** 2 if epsilon ** 2 else math.inf    # 0 below epsilon ~ 1e-162
    H = max(n * B / gap ** 2,
            math.sqrt(N),
            m ** (1 / 3) * n ** (2 / 3) * B ** (1 / 3) / gap) * scale
    K = max(1.0 / gap ** 2,
            math.sqrt(m) / (math.sqrt(n) * B),
            m ** (1 / 3) / (n ** (1 / 3) * B ** (2 / 3) * gap)) * scale
    if not (math.isfinite(H) and math.isfinite(K)):
        raise ValueError(f"predicted totals are not finite for Delta={Delta}, epsilon={epsilon}")
    if n <= math.sqrt(N) * gap ** 3:
        regime = "big-data"
    elif n >= math.sqrt(N) * gap ** 1.5:
        regime = "large-network"
    else:
        regime = "intermediate"
    return ComplexityEstimate(H=H, K=K, regime=regime)


def outer_iteration_bound(f0: float, f_star: float, grad_sq_mean: float,
                          alpha: float, q: int, L: float, epsilon: float) -> int:
    """Outer cycles sufficient to push the running def33 mean below epsilon^2.

    Evaluates (4 L (f0 - f*) + mean ||grad f_i(x0)||^2) / ((q+1) alpha L eps^2)
    and rounds up. Requires the optimal value f*, so it is only available
    on problems where f* is known.
    """
    if not (alpha > 0 and L > 0 and epsilon > 0) or q < 1:
        raise ValueError("alpha, L, epsilon must be positive and q >= 1")
    _check_float_range(q=q)
    bound = (4.0 * L * (f0 - f_star) + grad_sq_mean) / ((q + 1) * alpha * L * epsilon ** 2)
    return max(1, math.ceil(bound))
