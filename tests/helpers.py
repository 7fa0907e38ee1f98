"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles (finite
differences, brute-force enumeration, plain reference loops) and must stay
independent of the library code paths it is used to check. It also holds
the LIBSVM writer, the full-pass node streams that tests feed the library,
and the per-round index draw that the library's streams must reproduce.
"""

from types import SimpleNamespace

import numpy as np


def fd_gradient(fun, x, h=1e-5):
    """Central finite differences of a scalar function, coordinate by coordinate."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for d in range(x.size):
        e = np.zeros_like(x)
        e[d] = h
        g[d] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def libsvm_text(dataset):
    """A dataset's rows as LIBSVM text, zeros omitted."""
    return "".join(" ".join([repr(y)] + [f"{k}:{v!r}" for k, v in enumerate(x, 1) if v]) + "\n"
                   for x, y in zip(dataset.features.tolist(), dataset.labels.tolist()))


def full_pass(n):
    """n node streams whose every draw is 0..m-1: with B = m, a minibatch is the batch."""
    return [SimpleNamespace(integers=lambda low, high, size: np.arange(high))] * n


def per_round_indices(rngs, m, B):
    """(n, B) indices from one rng.integers(0, m, size=B) call per node generator."""
    return np.stack([rng.integers(0, m, size=B) for rng in rngs])


def mean_component_gradients(problem, i, x):
    """Mean of node i's component gradients by direct summation."""
    acc = np.zeros(problem.p)
    for j in range(problem.m):
        acc = acc + problem.component_gradient(i, j, x)
    return acc / problem.m


def reference_sarah(problem, x0, alpha, B, q, S, rng):
    """Plain centralized SARAH loop (single node), one iterate per step.

    Each cycle starts from the exact local batch gradient and runs q
    recursive minibatch updates; indices are drawn from ``rng`` exactly one
    (0, m, size=B) call per inner step.
    """
    x = np.asarray(x0, dtype=float).copy()
    iterates = []
    for _ in range(S):
        v = np.stack([problem.component_gradient(0, j, x)
                      for j in range(problem.m)]).mean(axis=0)
        x_prev = x.copy()
        x = x - alpha * v
        iterates.append(x.copy())
        for _ in range(q):
            idx = rng.integers(0, problem.m, size=B)
            g_new = np.stack([problem.component_gradient(0, int(j), x)
                              for j in idx]).mean(axis=0)
            g_old = np.stack([problem.component_gradient(0, int(j), x_prev)
                              for j in idx]).mean(axis=0)
            v = (g_new - g_old) + v
            x_prev = x.copy()
            x = x - alpha * v
            iterates.append(x.copy())
    return iterates


def reference_sgd(problem, x0, alpha, B, steps, rng):
    """Centralized minibatch SGD loop used for the n=1 baseline reductions."""
    x = np.asarray(x0, dtype=float).copy()
    iterates = []
    for _ in range(steps):
        idx = rng.integers(0, problem.m, size=B)
        g = np.stack([problem.component_gradient(0, int(j), x)
                      for j in idx]).mean(axis=0)
        x = x - alpha * g
        iterates.append(x.copy())
    return iterates
