import math

import numpy as np
import pytest

from decenopt.algorithms import (RunConfig, baseline_state, dsgd_step, dsgt_init, dsgt_step,
                                 gt_sarah_cycle_handoff, gt_sarah_inner_step,
                                 gt_sarah_outer_init, initial_state, sample_indices,
                                 sarah_estimator)
from decenopt.data import synthesize
from decenopt.graph import build_topology, lazy_metropolis_weights
from decenopt.streams import INDEX_BLOCK, ROW_BLOCK_BYTES, IndexStreams, node_streams
from decenopt.theory import max_stepsize, predicted_complexity, recommend_parameters
from helpers import full_pass, per_round_indices, reference_sarah, reference_sgd


def ring_mix(n):
    return lazy_metropolis_weights(build_topology("ring", n))


# ---------------------------------------------------------------------------
# outer init

def test_outer_init_first_cycle_tracker_equals_batch_gradients():
    prob = synthesize("heterogeneous", 4, 5, 3, seed=0)
    W = ring_mix(4).entries
    st = initial_state(np.zeros(3), 4)
    v0 = prob.batch_gradients(st.x)
    gt_sarah_outer_init(st, prob, W, alpha=0.1)
    assert np.allclose(st.y, v0, atol=1e-16)
    assert np.allclose(st.y.mean(axis=0), st.v.mean(axis=0), atol=1e-16)
    assert st.t == 1 and st.s == 1
    assert st.grads == 4 * 5
    assert st.rounds == 1


def test_outer_init_single_node_is_batch_descent():
    prob = synthesize("heterogeneous", 1, 6, 2, seed=1)
    x0 = np.array([0.4, -1.0])
    st = initial_state(x0, 1)
    g = prob.batch_gradients(np.tile(x0, (1, 1)))[0]
    gt_sarah_outer_init(st, prob, np.array([[1.0]]), alpha=0.25)
    assert np.allclose(st.y[0], g, atol=1e-16)
    assert np.allclose(st.x[0], x0 - 0.25 * g, atol=1e-16)


def test_outer_init_zero_step_is_pure_mix():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=2)
    W = ring_mix(3).entries
    st = initial_state(np.zeros(2), 3)
    st.x = np.random.default_rng(3).normal(size=(3, 2))
    x_before = st.x.copy()
    gt_sarah_outer_init(st, prob, W, alpha=0.0)
    assert np.array_equal(st.x, W @ x_before)


def test_outer_init_requires_cycle_start():
    prob = synthesize("heterogeneous", 2, 3, 2, seed=4)
    W = ring_mix(2).entries
    st = initial_state(np.zeros(2), 2)
    gt_sarah_outer_init(st, prob, W, alpha=0.1)
    with pytest.raises(ValueError):
        gt_sarah_outer_init(st, prob, W, alpha=0.1)


# ---------------------------------------------------------------------------
# inner step

def drive_cycle(prob, W, st, alpha, B, q, rngs, check=None):
    gt_sarah_outer_init(st, prob, W, alpha)
    if check:
        check(st)
    for _ in range(q):
        gt_sarah_inner_step(st, prob, W, alpha, B, rngs)
        if check:
            check(st)
    return st


def test_inner_step_frozen_state_keeps_estimator():
    # x^t = x^{t-1} (W = I, alpha = 0): v^t = v^{t-1} bitwise
    prob = synthesize("heterogeneous", 3, 5, 2, seed=5)
    st = initial_state(np.zeros(2), 3)
    rngs = IndexStreams(node_streams(9, 3), prob.m, 2)
    gt_sarah_outer_init(st, prob, np.eye(3), alpha=0.0)
    v_before = st.v.copy()
    for _ in range(4):
        gt_sarah_inner_step(st, prob, np.eye(3), alpha=0.0, B=2, rngs=rngs)
        assert np.array_equal(st.v, v_before)


def test_sarah_increment_conditionally_unbiased():
    # B=1: averaging v over all m draws recovers the exact batch difference
    prob = synthesize("heterogeneous", 2, 6, 3, seed=6)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(2, 3))
    X_prev = rng.normal(size=(2, 3))
    V_prev = rng.normal(size=(2, 3))
    mean_v = np.mean([sarah_estimator(prob, X, X_prev, V_prev, np.full((2, 1), j))
                      for j in range(prob.m)], axis=0)
    expected = (prob.batch_gradients(X) - prob.batch_gradients(X_prev)) + V_prev
    assert np.abs(mean_v - expected).max() <= 1e-12


def test_inner_step_counters_and_validation():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=8)
    W = ring_mix(3).entries
    st = initial_state(np.zeros(2), 3)
    rngs = IndexStreams(node_streams(1, 3), prob.m, 2)
    with pytest.raises(ValueError):
        gt_sarah_inner_step(st, prob, W, 0.1, 1, rngs)  # before outer init
    gt_sarah_outer_init(st, prob, W, 0.1)
    gt_sarah_inner_step(st, prob, W, 0.1, 2, rngs)
    assert st.grads == 3 * 4 + 2 * 3 * 2
    assert st.rounds == 2
    with pytest.raises(ValueError):
        gt_sarah_inner_step(st, prob, W, 0.1, 5, rngs)  # the streams draw B = 2


def test_tracking_conservation_through_cycles():
    prob = synthesize("heterogeneous", 4, 6, 3, seed=9)
    W = ring_mix(4).entries
    rngs = IndexStreams(node_streams(13, 4), prob.m, 2)
    st = initial_state(np.zeros(3), 4)

    def check(s):
        ybar = s.y.mean(axis=0)
        vbar = s.v.mean(axis=0)
        assert np.linalg.norm(ybar - vbar) <= 1e-10 * (1.0 + np.linalg.norm(vbar))

    for s in range(3):
        drive_cycle(prob, W, st, alpha=0.05, B=2, q=5, rngs=rngs, check=check)
        if s < 2:
            gt_sarah_cycle_handoff(st, 5)


# ---------------------------------------------------------------------------
# handoff

def test_handoff_carries_fields():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=10)
    W = ring_mix(3).entries
    rngs = IndexStreams(node_streams(2, 3), prob.m, 1)
    st = drive_cycle(prob, W, initial_state(np.zeros(2), 3), 0.1, 1, 3, rngs)
    x, y, v = st.x.copy(), st.y.copy(), st.v.copy()
    gt_sarah_cycle_handoff(st, 3)
    assert np.array_equal(st.x, x) and np.array_equal(st.y, y) and np.array_equal(st.v, v)
    assert (st.s, st.t) == (2, 0)
    assert st.x_prev is None


def test_handoff_requires_completed_inner_loop():
    prob = synthesize("heterogeneous", 2, 3, 2, seed=11)
    st = initial_state(np.zeros(2), 2)
    gt_sarah_outer_init(st, prob, ring_mix(2).entries, 0.1)
    with pytest.raises(ValueError):
        gt_sarah_cycle_handoff(st, 3)


def test_two_cycle_replay_is_deterministic():
    prob = synthesize("heterogeneous", 3, 5, 2, seed=12)
    W = ring_mix(3).entries

    def trajectory():
        rngs = IndexStreams(node_streams(21, 3), prob.m, 1)
        st = initial_state(np.zeros(2), 3)
        out = []
        for s in range(2):
            drive_cycle(prob, W, st, 0.08, 1, 4, rngs, check=lambda s_: out.append(s_.x.copy()))
            if s == 0:
                gt_sarah_cycle_handoff(st, 4)
        return out

    a, b = trajectory(), trajectory()
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert len(a) == 2 * 5


# ---------------------------------------------------------------------------
# centralized reductions

def test_gt_sarah_single_node_matches_reference_sarah():
    prob = synthesize("homogeneous", 1, 12, 3, seed=13, family="logistic")
    alpha, B, q, S = 0.4, 2, 9, 20
    rngs = IndexStreams(node_streams(31, 1), prob.m, B)
    st = initial_state(np.zeros(3), 1)
    impl = []
    for s in range(1, S + 1):
        drive_cycle(prob, np.array([[1.0]]), st, alpha, B, q, rngs,
                    check=lambda s_: impl.append(s_.x[0].copy()))
        if s < S:
            gt_sarah_cycle_handoff(st, q)
    ref = reference_sarah(prob, np.zeros(3), alpha, B, q, S, node_streams(31, 1)[0])
    assert len(impl) == len(ref) == S * (q + 1)
    for a, b in zip(impl, ref):
        assert np.linalg.norm(a - b) <= 1e-12 * (1.0 + np.linalg.norm(b))


def test_dsgd_single_node_matches_reference_sgd():
    prob = synthesize("homogeneous", 1, 8, 3, seed=14, family="logistic")
    rngs = IndexStreams(node_streams(41, 1), prob.m, 2)
    st = baseline_state(np.zeros(3), 1)
    impl = []
    for _ in range(200):
        dsgd_step(st, prob, np.array([[1.0]]), 0.3, 2, rngs)
        impl.append(st.x[0].copy())
    ref = reference_sgd(prob, np.zeros(3), 0.3, 2, 200, node_streams(41, 1)[0])
    for a, b in zip(impl, ref):
        assert np.linalg.norm(a - b) <= 1e-12 * (1.0 + np.linalg.norm(b))


def test_dsgt_single_node_matches_reference_sgd():
    # with W = [1] the tracker telescopes to the latest gradient: plain SGD
    prob = synthesize("homogeneous", 1, 8, 3, seed=15, family="logistic")
    rngs = IndexStreams(node_streams(51, 1), prob.m, 2)
    st = baseline_state(np.zeros(3), 1)
    dsgt_init(st, prob, 2, rngs)
    impl = []
    for _ in range(200):
        dsgt_step(st, prob, np.array([[1.0]]), 0.3, 2, rngs)
        impl.append(st.x[0].copy())
    ref_rng = node_streams(51, 1)[0]
    ref_rng.integers(0, prob.m, size=2)  # init minibatch consumed by dsgt_init
    ref = reference_sgd(prob, np.zeros(3), 0.3, 2, 200, ref_rng)
    for a, b in zip(impl, ref):
        assert np.linalg.norm(a - b) <= 1e-11 * (1.0 + np.linalg.norm(b))


# ---------------------------------------------------------------------------
# baselines

def test_dsgd_full_pass_uses_batch_gradients():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=16)
    W = ring_mix(3).entries
    st = baseline_state(np.zeros(2), 3)
    st.x = np.random.default_rng(17).normal(size=(3, 2))
    expected = W @ st.x - 0.2 * prob.batch_gradients(st.x)
    dsgd_step(st, prob, W, 0.2, prob.m, IndexStreams(full_pass(3), prob.m, prob.m))
    assert np.array_equal(st.x, expected)
    assert st.grads == 3 * 4


@pytest.mark.parametrize("make", [lambda: initial_state(np.zeros(2), 3),
                                  lambda: dsgt_init(baseline_state(np.zeros(2), 3),
                                                    synthesize("heterogeneous", 3, 4, 2, seed=16),
                                                    4, IndexStreams(full_pass(3), 4, 4))])
def test_dsgd_rejects_tracked_state(make):
    # dsgd never tracks: a state carrying a tracker must not be descended along y
    prob = synthesize("heterogeneous", 3, 4, 2, seed=16)
    with pytest.raises(ValueError, match="untracked"):
        dsgd_step(make(), prob, ring_mix(3).entries, 0.2, prob.m,
                  IndexStreams(full_pass(3), prob.m, prob.m))


def test_dsgd_zero_step_contracts_consensus():
    prob = synthesize("heterogeneous", 5, 3, 2, seed=18)
    mix = ring_mix(5)
    st = baseline_state(np.zeros(2), 5)
    st.x = np.random.default_rng(19).normal(size=(5, 2))
    rngs = IndexStreams(node_streams(3, 5), prob.m, 1)
    for _ in range(10):
        before = np.linalg.norm(st.x - st.x.mean(axis=0))
        dsgd_step(st, prob, mix.entries, 0.0, 1, rngs)
        after = np.linalg.norm(st.x - st.x.mean(axis=0))
        assert after <= mix.lam * before + 1e-12


def test_dsgt_tracker_average_telescopes():
    prob = synthesize("heterogeneous", 4, 5, 3, seed=20)
    W = ring_mix(4).entries
    rngs = IndexStreams(node_streams(7, 4), prob.m, 2)
    st = baseline_state(np.zeros(3), 4)
    dsgt_init(st, prob, 2, rngs)
    for _ in range(50):
        dsgt_step(st, prob, W, 0.05, 2, rngs)
        ybar = st.y.mean(axis=0)
        gbar = st.v.mean(axis=0)
        assert np.linalg.norm(ybar - gbar) <= 1e-10 * (1.0 + np.linalg.norm(gbar))


def test_dsgt_requires_init():
    prob = synthesize("heterogeneous", 2, 3, 2, seed=21)
    st = baseline_state(np.zeros(2), 2)
    with pytest.raises(ValueError):
        dsgt_step(st, prob, ring_mix(2).entries, 0.1, 1,
                  IndexStreams(node_streams(1, 2), prob.m, 1))


def test_dsgt_full_batch_deterministic_tracking_converges():
    prob = synthesize("heterogeneous", 4, 3, 2, seed=22)
    mix = ring_mix(4)
    st = baseline_state(np.zeros(2), 4)
    rngs = IndexStreams(full_pass(4), prob.m, prob.m)
    dsgt_init(st, prob, prob.m, rngs)
    for _ in range(400):
        dsgt_step(st, prob, mix.entries, 0.2, prob.m, rngs)
    xbar = st.x.mean(axis=0)
    assert np.linalg.norm(prob.full_gradient(xbar)) <= 1e-9
    assert np.linalg.norm(st.x - xbar) <= 1e-9
    assert np.allclose(xbar, prob.minimizer(), atol=1e-8)


def test_sample_indices_shape_and_order_independence():
    idx = sample_indices(IndexStreams(node_streams(5, 3), 10, 4), 10, 4)
    assert idx.shape == (3, 4)
    assert ((0 <= idx) & (idx < 10)).all()
    # node 2's draws do not depend on whether nodes 0..1 drew first
    solo = per_round_indices(node_streams(5, 3)[2:], 10, 4)[0]
    assert np.array_equal(idx[2], solo)


@pytest.mark.parametrize("m,B", [(1, 1), (7, 1), (1000, 3), (2 ** 32 + 5, 2)])
def test_index_streams_match_per_round_draws(m, B):
    # drawing ahead in blocks must return exactly the per-round draws,
    # across block refills, so the run engine's trajectories do not change
    ahead = IndexStreams(node_streams(8, 3), m, B)
    rngs = node_streams(8, 3)
    for _ in range(2 * (INDEX_BLOCK // B) + 3):
        assert np.array_equal(sample_indices(ahead, m, B), per_round_indices(rngs, m, B))
    with pytest.raises(ValueError, match="asked for"):
        sample_indices(ahead, m, B + 1)


@pytest.mark.parametrize("B", [1, 7, 64])
def test_sized_index_streams_match_unsized(B):
    # a block capped at rounds * B draws the same stream, before, at and past
    # the expected number of takes, with rounds * B below, at and above INDEX_BLOCK
    per_block = INDEX_BLOCK // B
    for rounds in (3, per_block - 1, per_block, per_block + 5):
        sized = IndexStreams(node_streams(9, 3), 1000, B, rounds=rounds)
        unsized = IndexStreams(node_streams(9, 3), 1000, B)
        takes = 2 * rounds + 3
        got = np.concatenate([sized.take() for _ in range(takes)], axis=1)
        want = np.concatenate([unsized.take() for _ in range(takes)], axis=1)
        assert np.array_equal(got, want), rounds


@pytest.mark.parametrize("family", ["logistic", "quadratic"])
@pytest.mark.parametrize("n, p, B", [(4, 3, 1), (4, 3, 7), (20, 128, 64)])
def test_index_streams_gather_rows_ahead(family, n, p, B):
    # each take's rows are the problem's own gather of its indices, across row
    # sub-blocks and index block refills, and a sub-block holds at most
    # ROW_BLOCK_BYTES; at wide-minibatch's shape (n=20, p=128, B=64: 1.3 MB
    # a round) not even one round fits, so nothing is gathered ahead
    prob = synthesize("heterogeneous", n, 64, p, seed=B, family=family)
    per_round = n * B * (p + 1 if family == "logistic" else 2 * p) * 8
    per_block = ROW_BLOCK_BYTES // per_round
    ahead = IndexStreams(node_streams(3, n), 64, B, gather=prob.gather)
    plain = IndexStreams(node_streams(3, n), 64, B)
    for _ in range(INDEX_BLOCK // B + 2 * per_block + 3):
        idx = ahead.take()
        assert np.array_equal(idx, plain.take())
        assert plain.rows is None
        if per_block < 2:
            assert ahead.rows is None
            continue
        for got, want in zip(ahead.rows, prob.gather(idx), strict=True):
            assert got.tobytes() == want.tobytes()
        # each row is a view of its sub-block, the (rounds, n, B, ...) gather
        held = [row.base for row in ahead.rows]
        assert all(len(block) <= per_block for block in held)
        assert sum(block.nbytes for block in held) <= ROW_BLOCK_BYTES


@pytest.mark.parametrize("B", [1, 4])
def test_rows_drawn_ahead_serve_only_their_problem(B):
    # streams that gathered another problem's rows leave the oracle to gather
    prob = synthesize("heterogeneous", 3, 8, 2, seed=1, family="logistic")
    other = synthesize("heterogeneous", 3, 8, 2, seed=2, family="logistic")
    W = ring_mix(3).entries
    for rngs in (IndexStreams(node_streams(4, 3), 8, B, gather=other.gather),
                 IndexStreams(node_streams(4, 3), 8, B, gather=prob.gather)):
        st, ref = initial_state(np.ones(2), 3), initial_state(np.ones(2), 3)
        plain = IndexStreams(node_streams(4, 3), 8, B)
        for state, streams in ((st, rngs), (ref, plain)):
            gt_sarah_outer_init(state, prob, W, 0.1)
            for _ in range(5):
                gt_sarah_inner_step(state, prob, W, 0.1, B, streams)
        assert st.x.tobytes() == ref.x.tobytes()


# ---------------------------------------------------------------------------
# step-size and complexity calculators

def test_max_stepsize_hand_example():
    # lam=0, n=B=q=1, L=1, complexity variant: the first min-term is active
    t1 = 1.0 / (4.0 * math.sqrt(42.0))
    t2 = math.sqrt(1.0 / 6.0)
    t3 = (4.0 / 31.0) ** (1.0 / 3.0) / 6.0
    expected = min(t1, t2, t3) / 2.0
    got = max_stepsize(1, 1, 1, 0.0, 1.0, "complexity")
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(0.019288, abs=1e-6)


def test_max_stepsize_vanishes_as_lambda_to_one():
    assert max_stepsize(4, 2, 10, 1.0 - 1e-9, 1.0) <= 1e-8


def test_max_stepsize_halves_when_L_doubles():
    a1 = max_stepsize(4, 2, 10, 0.5, 1.0)
    a2 = max_stepsize(4, 2, 10, 0.5, 2.0)
    assert a2 == a1 / 2.0


def test_max_stepsize_complexity_never_exceeds_asymptotic():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        B = int(rng.integers(1, 20))
        q = int(rng.integers(1, 100))
        lam = float(rng.uniform(0.0, 0.999))
        L = float(rng.uniform(0.1, 10.0))
        assert (max_stepsize(n, B, q, lam, L, "complexity")
                <= max_stepsize(n, B, q, lam, L, "asymptotic") + 1e-18)


def test_max_stepsize_validation():
    with pytest.raises(ValueError):
        max_stepsize(1, 1, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        max_stepsize(1, 1, 1, 0.5, -1.0)
    with pytest.raises(ValueError):
        max_stepsize(1, 1, 1, 0.5, 1.0, variant="bogus")
    for n, B, q in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError, match="^n, B, q must be positive$"):
            max_stepsize(n, B, q, 0.5, 1.0)
    with pytest.raises(ValueError, match="^smoothness modulus must be finite, got inf$"):
        max_stepsize(1, 1, 1, 0.5, math.inf)
    with pytest.raises(ValueError, match="^step size bound is not finite for L=1e-320$"):
        max_stepsize(1, 1, 1, 0.5, 1e-320)


def test_recommend_parameters_examples():
    assert recommend_parameters(100, 100, 0.0, "gradient") == (1, 100)
    # nearly disconnected network: R = C = 1 for both goals
    assert recommend_parameters(50, 10000, 0.999999, "gradient")[0] == 1
    assert recommend_parameters(50, 10000, 0.999999, "communication")[0] == 1
    B, q = recommend_parameters(1, 10000, 0.0, "communication")
    assert (B, q) == (100, 100)
    with pytest.raises(ValueError, match="^unknown goal 'latency'$"):
        recommend_parameters(4, 10, 0.5, "latency")


def test_recommend_parameters_bounds():
    rng = np.random.default_rng(24)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        m = int(rng.integers(1, 5000))
        lam = float(rng.uniform(0.0, 0.999))
        for goal in ("gradient", "communication"):
            B, q = recommend_parameters(n, m, lam, goal)
            assert 1 <= B <= m
            assert q >= 1


def test_predicted_complexity_centralized_shape():
    # n=1, B=1, lam=0: H = sqrt(N) * Delta / eps^2 for N >= 1
    for m in (1, 4, 100, 10**6):
        est = predicted_complexity(1, m, 1, 0.0, Delta=1.0, epsilon=1.0)
        assert est.H == pytest.approx(math.sqrt(m), rel=1e-12)


def test_predicted_complexity_big_data_value():
    # lam=0 and n <= sqrt(N): network-independent sqrt(N) behaviour
    n, m = 10, 1000
    est = predicted_complexity(n, m, 1, 0.0, Delta=2.0, epsilon=0.5)
    assert est.regime == "big-data"
    assert est.H == pytest.approx(math.sqrt(n * m) * 2.0 / 0.25, rel=1e-12)


def test_predicted_complexity_monotone_in_B():
    rng = np.random.default_rng(25)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(2, 2000))
        lam = float(rng.uniform(0.0, 0.99))
        prev = None
        for B in (1, 2, 4, 8):
            if B > m:
                break
            est = predicted_complexity(n, m, B, lam)
            if prev is not None:
                assert est.H >= prev.H - 1e-9 * prev.H
                assert est.K <= prev.K + 1e-9 * prev.K
            prev = est


def test_predicted_complexity_epsilon_scaling_exact():
    # power-of-two epsilon: halving it exactly quadruples both totals
    a = predicted_complexity(6, 50, 2, 0.25, Delta=3.0, epsilon=0.25)
    b = predicted_complexity(6, 50, 2, 0.25, Delta=3.0, epsilon=0.125)
    assert b.H == 4.0 * a.H
    assert b.K == 4.0 * a.K


def test_predicted_complexity_regimes():
    assert predicted_complexity(10, 10**5, 1, 0.0).regime == "big-data"
    assert predicted_complexity(100, 100, 1, 0.99).regime == "large-network"
    # N = 10^6, gap = 0.5: thresholds 125 (big-data) and ~353 (large-network)
    assert predicted_complexity(200, 5000, 1, 0.5).regime == "intermediate"


def test_predicted_complexity_validation():
    with pytest.raises(ValueError):
        predicted_complexity(2, 10, 1, 1.0)
    with pytest.raises(ValueError):
        predicted_complexity(2, 10, 1, 0.5, epsilon=0.0)
    with pytest.raises(ValueError, match="^Delta and epsilon must be finite, got Delta=1.0, "
                                         "epsilon=inf$"):
        predicted_complexity(2, 10, 1, 0.5, epsilon=math.inf)
    # epsilon ** 2 underflows to 0
    with pytest.raises(ValueError, match="^predicted totals are not finite for Delta=1.0, "
                                         "epsilon=1e-200$"):
        predicted_complexity(2, 10, 1, 0.5, epsilon=1e-200)


def test_batch_bounds_match_definitions():
    n, m, lam = 4, 900, 0.2
    assert recommend_parameters(n, m, lam, "gradient")[0] == math.floor(max(math.sqrt(m / n) * 0.8 ** 3, 1))
    assert recommend_parameters(n, m, lam, "communication")[0] == math.ceil(max(math.sqrt(m / n) * 0.8 ** 1.5, 1))


# ---------------------------------------------------------------------------
# RunConfig validation

def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(algorithm="nope")
    with pytest.raises(ValueError):
        RunConfig(algorithm="dsgd", alpha=-0.1)  # negative rejected; explicit 0 allowed
    with pytest.raises(ValueError):
        RunConfig(algorithm="dsgd", alpha="fast")
    with pytest.raises(ValueError):
        RunConfig(algorithm="gt-sarah", B=0)
    with pytest.raises(ValueError):
        RunConfig(algorithm="gt-sarah", q=0)
    cfg = RunConfig(algorithm="gt-sarah")
    assert cfg.alpha == "auto"


@pytest.mark.parametrize("key, value", [("alpha", math.nan), ("alpha", math.inf),
                                        ("epochs", math.nan), ("epochs", math.inf)])
def test_runconfig_rejects_non_finite_numbers(key, value):
    # a NaN step passes every sign test; an infinite budget has no step count
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
        RunConfig(algorithm="dsgd", **{key: value})


def test_runconfig_rejects_nonpositive_def33_cadence():
    # def33_every has no INI key; the other budgets and cadences are
    # checked through the CLI in test_cli.py
    with pytest.raises(ValueError, match=r"^def33_every must be at least 1, got 0$"):
        RunConfig(algorithm="dsgd", steps=5, def33_every=0)


@pytest.mark.parametrize("key", ["seed", "replicate"])
def test_runconfig_rejects_negative_seed_or_replicate(key):
    # numpy used to reject them in a worker thread, after the jobs had started;
    # replicate has no INI key, a negative seed is checked through the CLI too
    with pytest.raises(ValueError, match=f"^{key} must be at least 0, got -1$"):
        RunConfig(algorithm="dsgd", steps=5, **{key: -1})
    assert getattr(RunConfig(algorithm="dsgd", steps=5, **{key: 0}), key) == 0


@pytest.mark.parametrize("algorithm, budget", [
    ("dsgd", dict(S=5, epochs=1)), ("dsgt", dict(S=5, steps=3)),
    ("gt-sarah", dict(steps=7, epochs=3)), ("gt-sarah", dict(S=2, steps=7)),
])
def test_runconfig_rejects_budget_key_of_other_method(algorithm, budget):
    # resolve would fill in the method's own budget and silently keep this one
    key = "steps" if algorithm == "gt-sarah" else "S"
    with pytest.raises(ValueError, match=f"^{key} does not apply to {algorithm}$"):
        RunConfig(algorithm=algorithm, **budget)


# ---------------------------------------------------------------------------
# calculators on degenerate inputs

@pytest.mark.parametrize("n, m", [(0, 10), (4, 0), (-1, 10)])
def test_recommend_parameters_rejects_n_or_m_below_one(n, m):
    for goal in ("gradient", "communication"):
        with pytest.raises(ValueError, match=f"^n and m must be at least 1, got n={n}, m={m}$"):
            recommend_parameters(n, m, 0.5, goal)


def test_calculators_reject_nan():
    with pytest.raises(ValueError, match="^n, m, B, Delta, epsilon must be positive$"):
        predicted_complexity(4, 10, 1, 0.5, epsilon=math.nan)
    with pytest.raises(ValueError, match="^n, m, B, Delta, epsilon must be positive$"):
        predicted_complexity(4, 10, 1, 0.5, Delta=math.nan)
    with pytest.raises(ValueError, match="^smoothness modulus must be positive$"):
        max_stepsize(4, 1, 10, 0.5, math.nan)
