"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles (finite
differences, brute-force enumeration, plain reference loops) and must stay
independent of the library code paths it is used to check. It also holds
the LIBSVM writer, the full-pass node streams that tests feed the library,
the per-round index draw that the library's streams must reproduce, and
the network layer's per-edge loops that its array code must reproduce
byte for byte.
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


def dissimilarity_at(problem, x):
    """(1/n) sum_i ||grad f_i(x) - grad F(x)||^2 at one point.

    Zero exactly when every node's local gradient agrees at x.
    """
    g = problem.batch_gradients(np.tile(np.asarray(x, dtype=float), (problem.n, 1)))
    gbar = g.mean(axis=0)
    return float(np.mean(np.sum((g - gbar) ** 2, axis=1)))


def node_minimizer(problem, i):
    """Minimizer of node i's local cost for a QuadraticProblem."""
    a = problem.curvatures[i].mean(axis=0)
    return (problem.curvatures[i] * problem.centers[i]).mean(axis=0) / a


# ---------------------------------------------------------------------------
# network layer, one edge or node pair at a time

def _canonical(i, j):
    return (i, j) if i < j else (j, i)


def reference_edges(kind, n, rows=None, cols=None):
    """Edge set of a built-in topology kind by explicit per-node loops."""
    e = set()
    if kind == "complete":
        for i in range(n):
            for j in range(i + 1, n):
                e.add((i, j))
    elif kind == "ring":
        for i in range(n):
            if (i + 1) % n != i:
                e.add(_canonical(i, (i + 1) % n))
    elif kind == "path":
        for i in range(n - 1):
            e.add((i, i + 1))
    elif kind == "grid":
        for r in range(rows):
            for c in range(cols):
                u = r * cols + c
                if c + 1 < cols:
                    e.add((u, u + 1))
                if r + 1 < rows:
                    e.add((u, u + cols))
    elif kind == "exponential":
        j = 0
        while n > 1 and 2 ** j <= n - 1:
            for i in range(n):
                t = (i + 2 ** j) % n
                if t != i:
                    e.add(_canonical(i, t))
            j += 1
    return e


def reference_connected(n, edges):
    """Depth-first search from node 0 over adjacency lists."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def reference_metropolis(n, edges):
    """Lazy Metropolis matrix and its lambda, filled one edge and one diagonal at a time."""
    deg = np.zeros(n, dtype=int)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    m = np.zeros((n, n))
    for i, j in edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        m[i, j] = w
        m[j, i] = w
    for i in range(n):
        m[i, i] = 1.0 - (m[i].sum() - m[i, i])
    entries = (np.eye(n) + m) / 2.0
    dev = entries - np.full((n, n), 1.0 / n)
    lam = float(np.linalg.svd(dev, compute_uv=False)[0]) if dev.any() else 0.0
    return entries, lam


def reference_primitive(w):
    """Positive diagonal and a connected support graph, pair by pair."""
    n = w.shape[0]
    support = {_canonical(i, j) for i in range(n) for j in range(n)
               if i != j and (w[i, j] != 0 or w[j, i] != 0)}
    return bool((np.diag(w) > 0).all()) and reference_connected(n, support)
