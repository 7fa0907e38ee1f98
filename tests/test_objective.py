import math

import numpy as np
import pytest

from decenopt import objective
from decenopt.data import synthesize
from decenopt.objective import (LogisticDataset, LogisticProblem, QuadraticProblem, sigmoid,
                                softplus)
from helpers import dissimilarity_at, fd_gradient, mean_component_gradients


def single_sample_problem(theta, xi, reg):
    theta = np.asarray(theta, dtype=float)
    return LogisticProblem(LogisticDataset(
        features=theta.reshape(1, 1, -1), labels=np.array([[float(xi)]]), reg=reg))


def local_gradient(prob, i, x):
    """Node i's local gradient at x: row i of batch_gradients at the tiled point."""
    return prob.batch_gradients(np.tile(x, (prob.n, 1)))[i]


def random_logistic(n, m, p, seed, reg=1e-3):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(n, m, p))
    theta /= np.linalg.norm(theta, axis=2, keepdims=True)
    labels = rng.choice([-1.0, 1.0], size=(n, m))
    return LogisticProblem(LogisticDataset(features=theta, labels=labels, reg=reg))


# ---------------------------------------------------------------------------
# logistic values

def test_value_at_origin_is_log2():
    prob = random_logistic(2, 3, 4, seed=0)
    x = np.zeros(4)
    for i in range(2):
        for j in range(3):
            assert prob.component_value(i, j, x) == pytest.approx(math.log(2), abs=1e-15)


def test_value_large_margin_tends_to_regularizer():
    # loss -> 0 as the classification margin grows; only r(x) remains
    prob = single_sample_problem([1.0], +1, reg=0.001)
    x = np.array([50.0])
    r = 0.001 * x[0] ** 2 / (1 + x[0] ** 2)
    assert prob.component_value(0, 0, x) == pytest.approx(r, abs=1e-18)


def test_value_hand_example():
    # p=1, theta=1, xi=+1, x=1: log(1+e^{-1}) + R/2 with R=0.001, by naive evaluation
    prob = single_sample_problem([1.0], +1, reg=0.001)
    expected = math.log(1.0 + math.exp(-1.0)) + 0.001 * 0.5
    assert prob.component_value(0, 0, np.array([1.0])) == pytest.approx(expected, rel=1e-12)


def test_value_finite_for_huge_margins():
    prob = single_sample_problem([1.0], +1, reg=0.001)
    for x in (np.array([700.0]), np.array([-700.0])):
        v = prob.component_value(0, 0, x)
        assert np.isfinite(v)
    assert np.isfinite(softplus(np.array([750.0, -750.0]))).all()


# ---------------------------------------------------------------------------
# logistic gradients

def test_gradient_at_origin():
    prob = random_logistic(2, 4, 3, seed=1, reg=0.5)
    x = np.zeros(3)
    for i in range(2):
        for j in range(4):
            theta = prob.dataset.features[i, j]
            xi = prob.dataset.labels[i, j]
            assert np.allclose(prob.component_gradient(i, j, x), -xi * theta / 2, atol=1e-15)


def test_gradient_hand_example():
    # sigma(-1) = 1/(1+e)
    prob = single_sample_problem([1.0], +1, reg=0.0)
    g = prob.component_gradient(0, 0, np.array([1.0]))
    assert g[0] == pytest.approx(-1.0 / (1.0 + math.e), rel=1e-12)


def test_gradient_matches_finite_differences():
    prob = random_logistic(3, 5, 6, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(100):
        i = int(rng.integers(prob.n))
        j = int(rng.integers(prob.m))
        x = rng.normal(size=prob.p)
        g = prob.component_gradient(i, j, x)
        g_fd = fd_gradient(lambda z: prob.component_value(i, j, z), x)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * (1.0 + np.linalg.norm(g_fd))


def test_component_index_out_of_range():
    prob = random_logistic(2, 3, 4, seed=4)
    with pytest.raises(IndexError):
        prob.component_gradient(5, 0, np.zeros(4))


# ---------------------------------------------------------------------------
# batch and full gradients

def test_batch_gradient_m1_equals_component():
    prob = random_logistic(2, 1, 3, seed=5)
    x = np.array([0.3, -0.2, 1.1])
    assert np.array_equal(local_gradient(prob, 0, x), prob.component_gradient(0, 0, x))


def test_batch_gradient_identical_components():
    theta = np.tile(np.array([3.0, 4.0]) / 5.0, (1, 4, 1))
    prob = LogisticProblem(LogisticDataset(features=theta, labels=np.ones((1, 4)), reg=0.0))
    x = np.array([0.1, -0.7])
    assert np.allclose(local_gradient(prob, 0, x), prob.component_gradient(0, 2, x), atol=1e-16)


def test_batch_gradient_three_component_sum():
    prob = random_logistic(1, 3, 4, seed=6)
    x = np.random.default_rng(7).normal(size=4)
    g = (prob.component_gradient(0, 0, x) + prob.component_gradient(0, 1, x)
         + prob.component_gradient(0, 2, x)) / 3
    assert np.allclose(local_gradient(prob, 0, x), g, atol=1e-16)


def test_batch_gradient_matches_direct_mean():
    for prob in (random_logistic(2, 7, 3, seed=8),
                 synthesize("heterogeneous", 2, 7, 3, seed=8)):
        x = np.random.default_rng(9).normal(size=3)
        for i in range(prob.n):
            assert np.allclose(local_gradient(prob, i, x),
                               mean_component_gradients(prob, i, x), rtol=1e-12)


def test_full_gradient_single_node():
    prob = random_logistic(1, 5, 3, seed=10)
    x = np.random.default_rng(11).normal(size=3)
    assert np.allclose(prob.full_gradient(x), local_gradient(prob, 0, x), atol=1e-16)


def test_full_gradient_identical_nodes():
    prob = synthesize("homogeneous", 4, 5, 3, seed=12)
    x = np.random.default_rng(13).normal(size=3)
    assert np.allclose(prob.full_gradient(x), local_gradient(prob, 2, x), rtol=1e-13)


def test_full_gradient_two_node_quadratic_midpoint():
    # equal curvatures: global minimum at the average of the two node minimizers
    c = np.zeros((2, 1, 2))
    c[0, 0] = [1.0, -2.0]
    c[1, 0] = [3.0, 6.0]
    prob = QuadraticProblem(np.ones((2, 1, 2)), c)
    mid = (c[0, 0] + c[1, 0]) / 2
    assert np.allclose(prob.full_gradient(mid), 0.0, atol=1e-15)
    assert np.allclose(prob.minimizer(), mid, atol=1e-15)


def test_stacked_oracles_match_rowwise():
    prob = random_logistic(3, 6, 4, seed=14)
    rng = np.random.default_rng(15)
    X = rng.normal(size=(3, 4))
    stacked = prob.batch_gradients(X)
    for i in range(3):
        assert np.allclose(stacked[i], local_gradient(prob, i, X[i]), rtol=1e-13)
    idx = rng.integers(0, 6, size=(3, 2))
    mb = prob.minibatch_gradients(X, idx)
    for i in range(3):
        gs = [prob.component_gradient(i, int(j), X[i]) for j in idx[i]]
        assert np.allclose(mb[i], np.mean(gs, axis=0), rtol=1e-13)


def masked_sigmoid(z):
    """The masked two-branch form that ``sigmoid`` must match bit for bit."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_masked_form_bitwise():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        745.2, -745.2, 710.0, -710.0, 1e-320, -1e-320])
    assert sigmoid(special).tobytes() == masked_sigmoid(special).tobytes()
    rng = np.random.default_rng(16)
    for scale in (1e-3, 1.0, 30.0, 800.0):
        z = rng.normal(size=10 ** 5) * scale
        assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
        z = z.reshape(100, 1000)
        assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


def bool_mask_sigmoid(z):
    """``sigmoid`` as it was before the sign mask: np.maximum(e, z >= 0)."""
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    out = np.maximum(e, z >= 0)
    e += 1.0
    out /= e
    return out


def test_sigmoid_matches_bool_mask_form_bitwise():
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 1e-310,
                        -1e-310, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308])
    assert sigmoid(special).tobytes() == bool_mask_sigmoid(special).tobytes()
    rng = np.random.default_rng(17)
    z = rng.choice((-1.0, 1.0), size=10 ** 5) * 10.0 ** rng.uniform(-8, 4, size=10 ** 5)
    assert sigmoid(z).tobytes() == bool_mask_sigmoid(z).tobytes()
    assert sigmoid(z.reshape(100, 1000)).tobytes() == bool_mask_sigmoid(z).tobytes()


def random_quadratic(n, m, p, seed):
    rng = np.random.default_rng(seed)
    return QuadraticProblem(rng.uniform(0.5, 2.0, size=(n, m, p)), rng.normal(size=(n, m, p)))


@pytest.mark.parametrize("make", [random_logistic, random_quadratic], ids=["logistic", "quadratic"])
@pytest.mark.parametrize("n, m, p, B", [(3, 4, 2, 1), (10, 1000, 10, 1), (20, 200, 128, 64)])
def test_minibatch_gradients_stacked_points_bitwise(make, n, m, p, B):
    prob = make(n, m, p, seed=17)
    rng = np.random.default_rng(18)
    for _ in range(3):
        X, Y = rng.normal(size=(n, p)) * 3.0, rng.normal(size=(n, p))
        idx = rng.integers(0, m, size=(n, B))
        both = prob.minibatch_gradients(np.array((X, Y)), idx)
        assert both.shape == (2, n, p)
        assert both[0].tobytes() == prob.minibatch_gradients(X, idx).tobytes()
        assert both[1].tobytes() == prob.minibatch_gradients(Y, idx).tobytes()


@pytest.mark.parametrize("make", [random_logistic, random_quadratic], ids=["logistic", "quadratic"])
@pytest.mark.parametrize("n, m, p, B", [(3, 4, 2, 1), (10, 1000, 10, 1), (5, 30, 7, 7),
                                        (20, 200, 128, 64)])
def test_minibatch_gradients_pre_gathered_rows_bitwise(make, n, m, p, B):
    # rows gathered ahead for k rounds at once, handed over as views of one round
    prob = make(n, m, p, seed=19)
    rng = np.random.default_rng(20)
    k = 4
    idx = rng.integers(0, m, size=(k, n, B))
    round_major = prob.gather(idx)                              # (k, n, B, ...)
    node_major = prob.gather(np.concatenate(list(idx), axis=1))  # (n, k * B, ...)
    for j in range(k):
        X, Y = rng.normal(size=(2, n, p)) * 3.0
        views = (tuple(a[j] for a in round_major),
                 tuple(a[:, j * B:(j + 1) * B] for a in node_major))
        for points in (X, X[None], np.array((X, Y))):
            want = prob.minibatch_gradients(points, idx[j]).tobytes()
            for rows in views:
                assert prob.minibatch_gradients(points, idx[j], rows).tobytes() == want


@pytest.mark.parametrize("make", [random_logistic, random_quadratic], ids=["logistic", "quadratic"])
@pytest.mark.parametrize("n, m, p, B", [(10, 1000, 10, 1), (20, 2000, 128, 64),
                                        (16, 1000, 100, 4), (4, 9, 1, 3)])
def test_oracles_same_bytes_through_np_einsum(monkeypatch, make, n, m, p, B):
    # the fallback where numpy has no numpy._core (numpy 1.x): np.einsum calls
    # the same C entry point, so every oracle keeps every byte
    prob = make(n, m, p, seed=n + p)
    rng = np.random.default_rng(B)
    X = rng.normal(size=(2, n, p)) * 3.0
    idx = rng.integers(0, m, size=(n, B))
    points = rng.normal(size=(3, p))

    def oracles():
        return [prob.minibatch_gradients(X[0], idx), prob.minibatch_gradients(X, idx),
                prob.batch_gradients(X[0]), prob.full_gradient(points[0]),
                prob.full_gradient(points)]

    c_entry = [g.tobytes() for g in oracles()]
    monkeypatch.setattr(objective, "_einsum", np.einsum)
    assert [g.tobytes() for g in oracles()] == c_entry


def sparse_problem(family, n, m, p, density, seed):
    """A problem whose features (centers for quadratics) keep a `density` share of entries."""
    rng = np.random.default_rng(seed)
    keep = rng.random((n, m, p)) < density
    keep[..., 0] = True                     # no all-zero feature vector
    if family == "quadratic":
        return QuadraticProblem(rng.uniform(0.5, 2.0, size=(n, m, p)),
                                np.where(keep, rng.normal(size=(n, m, p)), 0.0))
    theta = np.where(keep, rng.normal(size=(n, m, p)), 0.0)
    theta /= np.linalg.norm(theta, axis=2, keepdims=True)
    labels = rng.choice([-1.0, 1.0], size=(n, m))
    return LogisticProblem(LogisticDataset(features=theta, labels=labels))


def full_gradient_reference(prob, x):
    """The single-point formulas full_gradient had before it took stacked points."""
    if isinstance(prob, QuadraticProblem):
        a, c = prob.curvatures, prob.centers
        return a.mean(axis=(0, 1)) * x - (a * c).mean(axis=(0, 1))
    F, y = prob.dataset.features, prob.dataset.labels
    margins = (F @ x) * y
    coeff = -y * masked_sigmoid(-margins)
    return np.einsum("im,imp->p", coeff, F) / (prob.n * prob.m) + prob._reg_gradient(x)


@pytest.mark.parametrize("family", ["logistic", "quadratic"])
@pytest.mark.parametrize("n, m, p, density", [(3, 4, 2, 1.0), (5, 7, 128, 1.0),
                                              (16, 1000, 100, 0.2)])
def test_full_gradient_stacked_points_bitwise(family, n, m, p, density):
    prob = sparse_problem(family, n, m, p, density, seed=n + p)
    rng = np.random.default_rng(p)
    x = rng.normal(size=p)
    plus_zero, minus_zero = x.copy(), x.copy()
    plus_zero[0], minus_zero[0] = 0.0, -0.0
    # a unit feature vector scaled past 710 gives margins beyond exp's range
    far = prob.dataset.features[0, 0] if family == "logistic" else rng.normal(size=p)
    X = np.array([x, x, plus_zero, minus_zero, 1000.0 * far, -800.0 * far, 3.0 * x])
    if family == "logistic":
        margins = prob.dataset.features @ X[4]
        assert np.abs(margins).max() > 710
    stacked = prob.full_gradient(X)
    assert stacked.shape == X.shape
    for row, point in zip(stacked, X):
        assert row.tobytes() == prob.full_gradient(point).tobytes()
        assert row.tobytes() == full_gradient_reference(prob, point).tobytes()


def test_full_gradient_of_no_points_is_empty():
    for family in ("logistic", "quadratic"):
        G = sparse_problem(family, 3, 4, 2, 1.0, seed=1).full_gradient(np.empty((0, 2)))
        assert G.shape == (0, 2) and G.dtype == np.float64, family


def logistic_oracle_reference(prob, X, indices=None):
    """The formulas the logistic oracles had before the negated labels: margins
    (theta . x) * xi, coefficients -xi * sigmoid(-margins) and the ridge term
    written out, for minibatch_gradients or (indices None) batch_gradients."""
    F, y = prob.dataset.features, prob.dataset.labels
    if indices is None:
        theta, xi, count = F, y, prob.m
    else:
        rows = np.arange(prob.n)[:, None]
        theta, xi, count = F[rows, indices], y[rows, indices], indices.shape[1]
    margins = np.einsum("ibp,...ip->...ib", theta, X) * xi
    coeff = -xi * masked_sigmoid(-margins)
    loss = np.einsum("...ib,ibp->...ip", coeff, theta) / count
    return loss + 2.0 * prob.dataset.reg * X / (1.0 + X * X) ** 2


@pytest.mark.parametrize("n, B, p", [(10, 1, 10), (20, 64, 128), (3, 5, 2)])
def test_logistic_oracles_match_reference_bitwise(n, B, p):
    # finite inputs only: with a NaN margin the two forms may differ in the
    # NaN's sign bit, and a NaN state trips the divergence guard before any record
    prob = random_logistic(n, 2 * B + 3, p, seed=n + B + p)
    rng = np.random.default_rng(p)
    for scale in (1.0, 3.0, 1e3):
        X, Y = rng.normal(size=(2, n, p)) * scale
        X[0], X[1] = 0.0, -0.0
        idx = rng.integers(0, prob.m, size=(n, B))
        # a row along a sampled feature vector, scaled past exp's range
        Y[-1] = 800.0 * prob.dataset.features[n - 1, idx[-1, 0]]
        assert np.abs(prob.dataset.features[n - 1, idx[-1]] @ Y[-1]).max() > 710
        for points in (X, Y, X[None], np.array((X, Y))):
            got = prob.minibatch_gradients(points, idx)
            assert got.tobytes() == logistic_oracle_reference(prob, points, idx).tobytes()
        got = prob.batch_gradients(Y)
        assert got.tobytes() == logistic_oracle_reference(prob, Y).tobytes()
        for i in range(n):
            assert local_gradient(prob, i, Y[i]).tobytes() == got[i].tobytes()


@pytest.mark.parametrize("n, m, p, B", [(10, 30, 10, 1), (20, 200, 128, 64), (3, 9, 7, 3)])
def test_quadratic_minibatch_matches_mean_bitwise(n, m, p, B):
    prob = random_quadratic(n, m, p, seed=n + B)
    rng = np.random.default_rng(p)
    idx = rng.integers(0, m, size=(n, B))
    a, c = prob.gather(idx)
    X = rng.normal(size=(2, n, p)) * 3.0
    for points in (X[0], X):        # averaged as ndarray.mean(axis=-2) averages
        want = (a * (points[..., None, :] - c)).mean(axis=-2)
        assert prob.minibatch_gradients(points, idx).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# smoothness

def test_smoothness_constants():
    assert random_logistic(1, 2, 2, seed=16, reg=0.0).L == 0.25
    assert random_logistic(1, 2, 2, seed=16, reg=0.001).L == pytest.approx(0.252)
    quad = QuadraticProblem(np.full((2, 3, 2), 0.5), np.zeros((2, 3, 2)))
    assert quad.L == 0.5


def test_mean_squared_smoothness_sampled():
    # (1/m) sum_j ||g_j(x) - g_j(y)||^2 <= L^2 ||x-y||^2 on random pairs
    prob = random_logistic(2, 6, 4, seed=17)
    rng = np.random.default_rng(18)
    for _ in range(1000):
        i = int(rng.integers(prob.n))
        x = rng.normal(size=prob.p) * rng.uniform(0.1, 3.0)
        y = rng.normal(size=prob.p) * rng.uniform(0.1, 3.0)
        ms = np.mean([np.sum((prob.component_gradient(i, j, x)
                              - prob.component_gradient(i, j, y)) ** 2)
                      for j in range(prob.m)])
        assert ms <= prob.L ** 2 * np.sum((x - y) ** 2) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# dissimilarity

def test_dissimilarity_zero_for_identical_nodes():
    prob = synthesize("homogeneous", 5, 4, 3, seed=19)
    rng = np.random.default_rng(20)
    for _ in range(10):
        assert dissimilarity_at(prob, rng.normal(size=3)) == pytest.approx(0.0, abs=1e-26)


def test_dissimilarity_single_node_zero():
    prob = random_logistic(1, 4, 3, seed=21)
    assert dissimilarity_at(prob, np.random.default_rng(22).normal(size=3)) == 0.0


def test_dissimilarity_two_node_formula():
    c = np.zeros((2, 1, 2))
    c[0, 0] = [1.0, 0.0]
    c[1, 0] = [-1.0, 2.0]
    prob = QuadraticProblem(np.ones((2, 1, 2)), c)
    x = np.array([0.4, -0.3])
    a = local_gradient(prob, 0, x)
    b = local_gradient(prob, 1, x)
    assert dissimilarity_at(prob, x) == pytest.approx(np.sum(((a - b) / 2) ** 2), rel=1e-12)


# ---------------------------------------------------------------------------
# local-vs-global gradient deviation bound

def test_mean_local_gradient_deviation_bound():
    # ||mean_i grad f_i(x_i) - grad F(xbar)||^2 <= (L^2/n) ||X - J X||^2
    for prob in (random_logistic(4, 5, 3, seed=23),
                 synthesize("heterogeneous", 4, 5, 3, seed=23)):
        rng = np.random.default_rng(24)
        for _ in range(50):
            X = rng.normal(size=(prob.n, prob.p))
            xbar = X.mean(axis=0)
            lhs = np.sum((prob.batch_gradients(X).mean(axis=0)
                          - prob.full_gradient(xbar)) ** 2)
            rhs = prob.L ** 2 / prob.n * np.sum((X - xbar) ** 2)
            assert lhs <= rhs * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# dataset validation

def test_dataset_rejects_bad_labels():
    theta = np.ones((1, 1, 1))
    with pytest.raises(ValueError):
        LogisticDataset(features=theta, labels=np.array([[2.0]]))
    with pytest.raises(ValueError, match=r"^labels shape \(2,\) does not match features \(1, 1\)$"):
        LogisticDataset(features=theta, labels=np.array([1.0, -1.0]))


def test_dataset_rejects_non_unit_features():
    with pytest.raises(ValueError):
        LogisticDataset(features=np.full((1, 1, 2), 1.0), labels=np.array([[1.0]]))
    with pytest.raises(ValueError, match=r"^features must have shape \(n, m, p\), got \(1, 2\)$"):
        LogisticDataset(features=np.full((1, 2), 0.5 ** 0.5), labels=np.array([[1.0]]))
    # the check covers every node block, the last one too
    theta = synthesize("heterogeneous", 3, 4, 5, seed=0, family="logistic").dataset.features.copy()
    LogisticDataset(features=theta, labels=np.ones((3, 4)))
    theta[-1, -1] *= 1.001
    with pytest.raises(ValueError, match="feature vectors must be unit-norm"):
        LogisticDataset(features=theta, labels=np.ones((3, 4)))


def test_dataset_rejects_negative_reg():
    with pytest.raises(ValueError):
        LogisticDataset(features=np.ones((1, 1, 1)), labels=np.array([[1.0]]), reg=-0.1)


@pytest.mark.parametrize("reg", [math.nan, math.inf, -math.inf])
def test_dataset_rejects_non_finite_reg(reg):
    with pytest.raises(ValueError, match=f"^reg must be finite, got {reg}$"):
        LogisticDataset(features=np.ones((1, 1, 1)), labels=np.array([[1.0]]), reg=reg)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dataset_rejects_non_finite_features(bad):
    # a NaN row's distance from unit norm is NaN, which no bound admits
    theta = np.full((2, 1, 2), math.sqrt(0.5))
    theta[1, 0, 1] = bad
    with pytest.raises(ValueError, match="^feature vectors must be unit-norm$"):
        LogisticDataset(features=theta, labels=np.ones((2, 1)))


def test_quadratic_full_value_is_mean_of_component_values():
    prob = synthesize("heterogeneous", 3, 4, 5, seed=31)
    rng = np.random.default_rng(32)
    for x in (np.zeros(5), rng.normal(size=5), prob.minimizer()):
        mean = np.mean([prob.component_value(i, j, x) for i in range(3) for j in range(4)])
        assert prob.full_value(x) == pytest.approx(mean, rel=1e-12, abs=1e-15)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        QuadraticProblem(np.full((1, 1, 1), np.nan), np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        QuadraticProblem(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        QuadraticProblem(np.ones((1, 1, 2)), np.zeros((1, 1, 3)))
