"""Finite-sum objectives with component, batch and full gradient oracles.

A problem holds n * m component functions f_{i,j} (m per node), all over
R^p. Node i's local cost is the mean of its m components and the global
cost is the mean over nodes. Two families are provided: a non-convex
logistic regression model and diagonal quadratics with closed-form optima
for exact testing.

Both families share one protocol. Attributes n, m, p give the shape
(nodes, components per node, dimension); L is a valid mean-squared
smoothness modulus. ``component_value(i, j, x)`` and
``component_gradient(i, j, x)`` are the tests' independent references.
The engine calls ``batch_gradients(X)`` (row i: node i's local gradient at
X[i], its only oracle), ``minibatch_gradients(X, indices)`` (row i: mean of
node i's component gradients at X[i] over the B draws indices[i], which may
repeat; X may also stack k points as (k, n, p), giving (k, n, p) from one
gather; ``rows``, if given, is ``gather(indices)`` made ahead, or views of
it), ``gather(indices)`` (the tuple of sampled rows that oracle reads),
``full_gradient(x)`` (x may also stack r points as (r, p), each row equal
to its own call) and ``full_value(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:    # what np.einsum calls when optimize=False, without its Python-level dispatch
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:     # numpy 1.x: the public function, the same bytes at its speed
    _einsum = np.einsum


def softplus(z):
    """log(1 + e^z), overflow-safe: max(z, 0) + log1p(e^{-|z|})."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(z):
    """1 / (1 + e^{-z}) without overflow for any finite z, and branch-free:
    with e = e^{-|z|}, 1 / (1 + e) for z >= 0 and e / (1 + e) below.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    out = np.maximum(e, z >= 0)
    e += 1.0
    out /= e
    return out


def _coefficients(dots, neg_labels, out=None):
    """-xi * sigmoid(-margin) from dots = theta . x, overwritten: dots * (-xi)
    is -(dots * xi) bit for bit, so negated labels save both negations."""
    dots *= neg_labels
    return np.multiply(neg_labels, sigmoid(dots), out=out)


# ---------------------------------------------------------------------------
# non-convex logistic regression

@dataclass(frozen=True)
class LogisticDataset:
    """Unit-norm features with +/-1 labels and a non-convex regularizer weight.

    features: (n, m, p) with each feature vector normalized to unit length;
    labels: (n, m) in {-1, +1}; reg: weight R of the ridge-like bounded term
    R * sum_d x_d^2 / (1 + x_d^2).
    """

    features: np.ndarray
    labels: np.ndarray
    reg: float = 1e-3

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if f.ndim != 3:
            raise ValueError(f"features must have shape (n, m, p), got {f.shape}")
        if y.shape != f.shape[:2]:
            raise ValueError(f"labels shape {y.shape} does not match features {f.shape[:2]}")
        # one node block at a time: no temporary as large as the features
        if any(not np.abs(np.linalg.norm(block, axis=1) - 1.0).max() <= 1e-9 for block in f):
            raise ValueError("feature vectors must be unit-norm")
        if not np.isin(y, (-1.0, 1.0)).all():
            raise ValueError("labels must be exactly -1 or +1")
        if not np.isfinite(self.reg):
            raise ValueError(f"reg must be finite, got {self.reg}")
        if self.reg < 0:
            raise ValueError("regularization weight must be nonnegative")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    @property
    def p(self) -> int:
        return self.features.shape[2]


class LogisticProblem:
    """Non-convex binary logistic regression.

    Component loss at (i, j): log(1 + exp(-(x . theta_{i,j}) xi_{i,j})) plus
    the bounded regularizer r(x) = R sum_d x_d^2 / (1 + x_d^2). With
    unit-norm features the loss curvature is at most 1/4 and the
    regularizer curvature at most 2R, giving L = 1/4 + 2R.
    """

    def __init__(self, dataset: LogisticDataset):
        self.dataset = dataset
        self.n = dataset.n
        self.m = dataset.m
        self.p = dataset.p
        self.L = 0.25 + 2.0 * dataset.reg
        self._rows = np.arange(self.n)[:, None]
        self._neg_labels = -dataset.labels
        self._two_reg = 2.0 * dataset.reg

    def _reg_value(self, x):
        x2 = x * x
        return self.dataset.reg * float(np.sum(x2 / (1.0 + x2)))

    def _reg_gradient(self, x):
        den = x * x
        den += 1.0
        den *= den
        out = self._two_reg * x
        out /= den
        return out

    def _mean_plus_reg(self, loss, count, x):
        """loss / count + the regularizer gradient at x, in place on loss."""
        if count != 1:      # x / 1 is x: B = 1 rounds skip the division
            loss /= count
        loss += self._reg_gradient(x)
        return loss

    def component_value(self, i, j, x):
        d = self.dataset
        x = np.asarray(x, dtype=float)
        margin = float(d.features[i, j] @ x) * d.labels[i, j]
        return float(softplus(-margin)) + self._reg_value(x)

    def component_gradient(self, i, j, x):
        d = self.dataset
        x = np.asarray(x, dtype=float)
        theta = d.features[i, j]
        xi = d.labels[i, j]
        # theta . x summed as batch_gradients' einsum sums it, not as a dot: so
        # a node with m = 1 has its component gradient as its batch gradient
        margin = float(_einsum("p,p->", theta, x)) * xi
        return -xi * float(sigmoid(-margin)) * theta + self._reg_gradient(x)

    def full_value(self, x):
        d = self.dataset
        x = np.asarray(x, dtype=float)
        margins = (d.features @ x) * d.labels
        return float(np.mean(softplus(-margins))) + self._reg_value(x)

    def full_gradient(self, x):
        # node-major, about n*m margins at a time (all nodes at one point, one node
        # at n points): the gemvs of features @ x, one einsum summing in (i, m) order
        d = self.dataset
        x = np.asarray(x, dtype=float)
        coeff = np.empty((self.n,) + x.shape[:-1] + (self.m,))
        step = max(1, self.n * self.p // (x.size or 1))   # no points: one empty pass
        axes = tuple(range(1, x.ndim))
        for a in range(0, self.n, step):
            theta = np.expand_dims(d.features[a:a + step], axes)
            _coefficients(np.matmul(theta, x[..., None])[..., 0],
                          np.expand_dims(self._neg_labels[a:a + step], axes),
                          out=coeff[a:a + step])
        loss = _einsum("i...m,imp->...p", coeff, d.features)
        return self._mean_plus_reg(loss, self.n * self.m, x)

    def batch_gradients(self, X):
        d = self.dataset
        X = np.asarray(X, dtype=float)
        coeff = _coefficients(_einsum("imp,ip->im", d.features, X), self._neg_labels)
        return self._mean_plus_reg(_einsum("im,imp->ip", coeff, d.features), self.m, X)

    def gather(self, indices):
        """The sampled rows (features, negated labels) of indices (..., n, B)."""
        return self.dataset.features[self._rows, indices], self._neg_labels[self._rows, indices]

    def minibatch_gradients(self, X, indices, rows=None):
        theta, neg_labels = self.gather(indices) if rows is None else rows   # (n, B, p), (n, B)
        X = np.asarray(X, dtype=float)
        coeff = _coefficients(_einsum("ibp,...ip->...ib", theta, X), neg_labels)
        loss = _einsum("...ib,ibp->...ip", coeff, theta)
        return self._mean_plus_reg(loss, indices.shape[1], X)


# ---------------------------------------------------------------------------
# diagonal quadratics (exact optima for oracle tests)

class QuadraticProblem:
    """Per-component diagonal quadratics f_{i,j}(x) = 0.5 sum_d a_d (x_d - c_d)^2.

    curvatures and centers have shape (n, m, p) with curvatures > 0. The
    global minimizer and optimal value are available in closed form, and
    L is the largest curvature entry (the max eigenvalue over all
    component Hessians).
    """

    def __init__(self, curvatures: np.ndarray, centers: np.ndarray):
        a = np.asarray(curvatures, dtype=float)
        c = np.asarray(centers, dtype=float)
        if a.shape != c.shape or a.ndim != 3:
            raise ValueError("curvatures and centers must share shape (n, m, p)")
        if not (a > 0).all():
            raise ValueError("curvatures must be strictly positive")
        self.curvatures = a
        self.centers = c
        self.n, self.m, self.p = a.shape
        self.L = float(a.max())
        self._rows = np.arange(self.n)[:, None]
        # global cost is 0.5 x' Abar x - x' b + const with diagonal Abar
        self._abar = a.mean(axis=(0, 1))
        self._b = (a * c).mean(axis=(0, 1))
        self._const = 0.5 * float((a * c * c).mean(axis=(0, 1)).sum())

    def component_value(self, i, j, x):
        d = np.asarray(x, dtype=float) - self.centers[i, j]
        return 0.5 * float(np.sum(self.curvatures[i, j] * d * d))

    def component_gradient(self, i, j, x):
        return self.curvatures[i, j] * (np.asarray(x, dtype=float) - self.centers[i, j])

    def full_gradient(self, x):
        return self._abar * np.asarray(x, dtype=float) - self._b

    def full_value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ (self._abar * x)) - float(x @ self._b) + self._const

    def batch_gradients(self, X):
        X = np.asarray(X, dtype=float)
        return _einsum("imp,imp->ip", self.curvatures,
                       X[:, None, :] - self.centers) / self.m

    def gather(self, indices):
        """The sampled rows (curvatures, centers) of indices (..., n, B)."""
        return self.curvatures[self._rows, indices], self.centers[self._rows, indices]

    def minibatch_gradients(self, X, indices, rows=None):
        a, c = self.gather(indices) if rows is None else rows
        X = np.asarray(X, dtype=float)
        # the sum and division .mean(axis=-2) makes, without its Python-level wrapper
        return np.add.reduce(a * (X[..., None, :] - c), axis=-2) / indices.shape[-1]

    def minimizer(self) -> np.ndarray:
        return self._b / self._abar

    def optimal_value(self) -> float:
        return self.full_value(self.minimizer())
