import gzip
import hashlib
import io
import math
import re

import numpy as np
import pytest

from decenopt import engine, streams
from decenopt.algorithms import NetworkState, RunConfig
from decenopt.data import synthesize
from decenopt.engine import (CSV_HEADER, DivergenceError, _check_finite, def33_term, run,
                             stationary_gap)
from decenopt.graph import build_topology, lazy_metropolis_weights
from decenopt.objective import LogisticProblem
from decenopt.theory import max_stepsize, outer_iteration_bound


def ring_mix(n):
    return lazy_metropolis_weights(build_topology("ring", n))


def csv_text(trace):
    buf = io.StringIO()
    trace.to_csv(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# cost accounting

def test_gt_sarah_accounting_small():
    prob = synthesize("heterogeneous", 2, 2, 2, seed=0)
    tr = run(prob, ring_mix(2), RunConfig(algorithm="gt-sarah", alpha=0.05, B=1, q=1, S=1, seed=1))
    assert tr.final.grads_total == 2 * (2 + 2 * 1 * 1) == 8
    assert tr.final.comm_rounds == 2
    assert tr.final.epochs == pytest.approx(8 / 4)


@pytest.mark.parametrize("n,m,q,B,S", [(3, 5, 4, 2, 2), (2, 7, 3, 1, 3), (4, 4, 6, 4, 1)])
def test_gt_sarah_accounting_parametrized(n, m, q, B, S):
    prob = synthesize("heterogeneous", n, m, 2, seed=n + m)
    tr = run(prob, ring_mix(n), RunConfig(algorithm="gt-sarah", alpha=0.02, B=B, q=q, S=S, seed=2))
    assert tr.final.grads_total == S * n * (m + 2 * q * B)
    assert tr.final.comm_rounds == S * (q + 1)
    assert tr.final.epochs == tr.final.grads_total / (n * m)


def test_baseline_accounting():
    prob = synthesize("heterogeneous", 3, 6, 2, seed=3)
    K, B = 25, 2
    tr = run(prob, ring_mix(3), RunConfig(algorithm="dsgd", alpha=0.05, B=B, steps=K, seed=4))
    assert tr.final.grads_total == K * 3 * B
    assert tr.final.comm_rounds == K
    tr = run(prob, ring_mix(3), RunConfig(algorithm="dsgt", alpha=0.05, B=B, steps=K, seed=4))
    assert tr.final.grads_total == K * 3 * B + 3 * B
    assert tr.final.comm_rounds == K


def test_epoch_budget_resolution():
    prob = synthesize("heterogeneous", 4, 30, 2, seed=5)
    tr = run(prob, ring_mix(4), RunConfig(algorithm="gt-sarah", alpha=0.02, B=1, q=30, epochs=9, seed=6))
    # one cycle costs (m + 2qB)/m = 3 epochs; 9 epochs -> 3 cycles
    assert tr.final.grads_total == 3 * 4 * (30 + 60)
    tr = run(prob, ring_mix(4), RunConfig(algorithm="dsgd", alpha=0.02, B=3, epochs=2, seed=6))
    assert tr.final.grads_total == 20 * 4 * 3


# ---------------------------------------------------------------------------
# metrics

def test_stationary_gap_zero_at_consensus_optimum():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=7)
    X = np.tile(prob.minimizer(), (3, 1))
    assert stationary_gap(prob, X) <= 1e-12


def test_stationary_gap_single_node():
    prob = synthesize("heterogeneous", 1, 4, 3, seed=8)
    x = np.random.default_rng(9).normal(size=3)
    assert stationary_gap(prob, x[None, :]) == pytest.approx(
        np.linalg.norm(prob.full_gradient(x)), rel=1e-12)


def test_stationary_gap_two_node_formula():
    prob = synthesize("heterogeneous", 2, 4, 3, seed=10)
    rng = np.random.default_rng(11)
    xbar = rng.normal(size=3)
    d = rng.normal(size=3)
    X = np.stack([xbar + d, xbar - d])
    expected = np.linalg.norm(prob.full_gradient(xbar)) + np.linalg.norm(d)
    assert stationary_gap(prob, X) == pytest.approx(expected, rel=1e-12)


def test_def33_zero_at_consensus_stationary_point():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=12)
    X = np.tile(prob.minimizer(), (3, 1))
    assert def33_term(prob, X) <= 1e-24


def test_def33_single_iterate_single_node():
    prob = synthesize("heterogeneous", 1, 5, 3, seed=13)
    x = np.random.default_rng(14).normal(size=3)
    g = prob.full_gradient(x)
    assert def33_term(prob, x[None, :]) == pytest.approx(g @ g, rel=1e-12)


def test_def33_two_iterate_mean_hand_computed():
    prob = synthesize("heterogeneous", 2, 3, 2, seed=15)
    rng = np.random.default_rng(16)
    X1, X2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))

    def by_hand(X):
        xbar = X.mean(axis=0)
        total = 0.0
        for i in range(2):
            g = prob.full_gradient(X[i])
            total += g @ g + prob.L ** 2 * np.sum((X[i] - xbar) ** 2)
        return total / 2

    two_iterate_mean = (def33_term(prob, X1) + def33_term(prob, X2)) / 2
    assert two_iterate_mean == pytest.approx((by_hand(X1) + by_hand(X2)) / 2, rel=1e-12)
    assert def33_term(prob, X1) == pytest.approx(by_hand(X1), rel=1e-12)


def test_metrics_permutation_invariant():
    prob = synthesize("heterogeneous", 4, 3, 2, seed=17)
    rng = np.random.default_rng(18)
    X = rng.normal(size=(4, 2))
    perm = rng.permutation(4)
    # relabeling nodes permutes the data and the states together
    from decenopt.objective import QuadraticProblem
    pprob = QuadraticProblem(prob.curvatures[perm], prob.centers[perm])
    assert stationary_gap(pprob, X[perm]) == pytest.approx(stationary_gap(prob, X), rel=1e-12)
    assert def33_term(pprob, X[perm]) == pytest.approx(def33_term(prob, X), rel=1e-12)


def def33_per_row(problem, X):
    """Reference: one full gradient per row, summed in row order."""
    xbar = X.mean(axis=0)
    total = 0.0
    for i in range(X.shape[0]):
        g = problem.full_gradient(X[i])
        d = X[i] - xbar
        total += float(g @ g) + problem.L ** 2 * float(d @ d)
    return total / X.shape[0]


class CountingProblem(LogisticProblem):
    """Counts full_gradient calls and keeps every point they evaluated, in order."""

    def __init__(self, dataset):
        super().__init__(dataset)
        self.calls, self.points = 0, []

    def full_gradient(self, x):
        self.calls += 1
        self.points.extend(np.atleast_2d(x))
        return super().full_gradient(x)


def def33_states(p):
    rng = np.random.default_rng(p)
    x = rng.normal(size=p)
    pool = rng.normal(size=(3, p))
    signed_zero = np.tile(x, (5, 1))
    signed_zero[1, 0], signed_zero[3, 0] = 0.0, -0.0
    return {"identical": np.tile(x, (5, 1)),
            "repeated": pool[[0, 1, 0, 2, 1]],
            "signed-zero": signed_zero,
            "distinct": rng.normal(size=(5, p))}


@pytest.mark.parametrize("p", [3, 10, 100, 128])
def test_def33_term_bit_identical_to_per_row_loop(p):
    prob = synthesize("heterogeneous", 5, 7, p, seed=p, family="logistic")
    for name, X in def33_states(p).items():
        assert def33_term(prob, X).hex() == def33_per_row(prob, X).hex(), name


def test_def33_term_one_full_gradient_per_distinct_row():
    data = synthesize("heterogeneous", 5, 7, 10, seed=19, family="logistic").dataset
    prob = CountingProblem(data)
    states = def33_states(10)
    for name, rows in [("identical", [0]), ("repeated", [0, 1, 3]), ("signed-zero", [0, 1, 3]),
                       ("distinct", [0, 1, 2, 3, 4])]:
        prob.calls, prob.points = 0, []
        def33_term(prob, states[name])
        assert prob.calls == 1, name
        assert [x.tobytes() for x in prob.points] == [states[name][i].tobytes() for i in rows], name


@pytest.mark.parametrize("algorithm", ["gt-sarah", "dsgt", "dsgd"])
def test_run_with_recording_off_makes_three_full_gradients(algorithm):
    # the j=0 def33 term at the common start, the j=0 record and the terminal record
    prob = CountingProblem(synthesize("heterogeneous", 6, 5, 4, seed=20, family="logistic").dataset)
    budget = dict(S=2) if algorithm == "gt-sarah" else dict(steps=9)
    cfg = RunConfig(algorithm=algorithm, alpha=0.1, B=2, seed=13, x0=np.full(4, 0.3),
                    record_every=10**9, def33_every=10**9, **budget)
    run(prob, ring_mix(6), cfg)
    assert prob.calls == 3


# ---------------------------------------------------------------------------
# outer iteration bound

def test_outer_iteration_bound_hand_arithmetic():
    # (4 L (f0-f*) + G) / ((q+1) alpha L eps^2), rounded up
    raw = (4 * 2.0 * 0.5 + 0.3) / ((5 + 1) * 0.01 * 2.0 * 0.1 ** 2)
    assert outer_iteration_bound(1.5, 1.0, 0.3, 0.01, 5, 2.0, 0.1) == math.ceil(raw)


def test_outer_iteration_bound_epsilon_scaling():
    def raw(eps):
        return (4 * 1.0 * 0.5 + 0.3) / ((5 + 1) * 0.01 * 1.0 * eps ** 2)
    assert raw(0.2) * 4.0 == raw(0.1)
    b1 = outer_iteration_bound(1.5, 1.0, 0.3, 0.01, 5, 1.0, 0.1)
    b2 = outer_iteration_bound(1.5, 1.0, 0.3, 0.01, 5, 1.0, 0.2)
    assert b1 == math.ceil(raw(0.1)) and b2 == math.ceil(raw(0.2))


def test_outer_iteration_bound_q_scaling():
    def raw(q):
        return (4 * 1.0 * 0.5 + 0.3) / ((q + 1) * 0.01 * 1.0 * 0.01)
    assert raw(3) == 2.0 * raw(7)  # q+1 doubled halves the raw bound
    assert outer_iteration_bound(1.5, 1.0, 0.3, 0.01, 3, 1.0, 0.1) == math.ceil(raw(3))


def test_outer_iteration_bound_validation():
    with pytest.raises(ValueError):
        outer_iteration_bound(1.0, 0.0, 0.1, -0.1, 5, 1.0, 0.1)
    with pytest.raises(ValueError):
        outer_iteration_bound(1.0, 0.0, 0.1, 0.1, 0, 1.0, 0.1)


# ---------------------------------------------------------------------------
# run behaviour

def test_run_determinism_byte_identical():
    prob = synthesize("heterogeneous", 3, 5, 2, seed=19)
    cfg = RunConfig(algorithm="gt-sarah", alpha="auto", B=1, q=5, S=3, seed=99)
    out = []
    for _ in range(2):
        buf = io.StringIO()
        run(prob, ring_mix(3), cfg).to_csv(buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]


def test_run_seed_changes_trajectory():
    prob = synthesize("heterogeneous", 3, 5, 2, seed=20)
    t1 = run(prob, ring_mix(3), RunConfig(algorithm="dsgd", alpha=0.1, steps=20, seed=1))
    t2 = run(prob, ring_mix(3), RunConfig(algorithm="dsgd", alpha=0.1, steps=20, seed=2))
    assert not np.array_equal(t1.final_x, t2.final_x)


def test_metric_recording_does_not_change_trajectory():
    prob = synthesize("heterogeneous", 3, 6, 2, seed=21)
    base = dict(algorithm="gt-sarah", alpha=0.05, B=2, q=4, S=3, seed=5)
    dense = run(prob, ring_mix(3), RunConfig(record_every=1, def33_every=1, **base))
    sparse = run(prob, ring_mix(3), RunConfig(record_every=10 ** 9, def33_every=10 ** 9, **base))
    assert np.array_equal(dense.final_x, sparse.final_x)
    assert len(dense.records) > len(sparse.records)


def test_frozen_dynamics_constant_records():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=22)
    cfg = RunConfig(algorithm="gt-sarah", alpha=0.0, B=1, q=3, S=2, seed=7,
                    record_every=1, x0=np.array([0.3, -0.8]))
    tr = run(prob, np.eye(3), cfg)
    gaps = {r.stationary_gap for r in tr.records}
    objs = {r.objective for r in tr.records}
    assert len(gaps) == 1 and len(objs) == 1


def test_divergence_guard_trips():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=23)
    cfg = RunConfig(algorithm="gt-sarah", alpha=1e6 / prob.L, B=1, q=300, S=1, seed=8)
    with pytest.raises(DivergenceError) as exc:
        run(prob, ring_mix(3), cfg)
    assert exc.value.trace is not None
    assert exc.value.trace.final.comm_rounds <= 1000


def test_divergence_guard_on_baseline():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=24)
    with pytest.raises(DivergenceError) as exc:
        run(prob, ring_mix(3), RunConfig(algorithm="dsgd", alpha=1e6, steps=1000, seed=9))
    assert re.search(r"at \(s=0, t=\d+\)$", str(exc.value))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_divergence_guard_on_non_finite_state(bad):
    prob = synthesize("heterogeneous", 3, 4, 2, seed=24)
    cfg = RunConfig(algorithm="gt-sarah", alpha=0.1, B=1, q=3, S=1, seed=9,
                    x0=np.array([bad, 0.0]))
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceError) as exc:
            run(prob, ring_mix(3), cfg)
    assert str(exc.value).endswith("at (s=1, t=1)")


@pytest.mark.parametrize("alpha, where, records, last", [
    (1.142, "(s=40, t=1)", 157, (40, 0)),
    (2.22, "(s=9, t=1)", 33, (9, 0)),
    (1.70, "(s=12, t=4)", 48, (12, 3)),
])
def test_gt_sarah_divergence_after_first_cycle(alpha, where, records, last):
    # trips at a later cycle's outer init (t=1, after its handoff) and after a
    # cycle's last inner step (t=q+1, before the next handoff); with a record
    # every round, the partial trace ends at the round before the trip
    prob = synthesize("heterogeneous", 3, 4, 2, seed=23)
    cfg = RunConfig(algorithm="gt-sarah", alpha=alpha, B=1, q=3, S=60, seed=8, record_every=1)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceError) as exc:
            run(prob, ring_mix(3), cfg)
    assert str(exc.value) == f"state norm left the finite trust region (> 1e+12) at {where}"
    partial = exc.value.trace.records
    assert len(partial) == records
    assert (partial[-1].s, partial[-1].t) == last


def test_check_finite_trips_where_linalg_norm_does():
    limit = 1e12
    rng = np.random.default_rng(26)
    base = rng.normal(size=(10, 10))
    states = [np.full((1, 1), np.nextafter(limit, lim)) for lim in (0.0, np.inf)]
    states.append(np.full((1, 1), limit))
    # random states scaled to within a few ulps of the limit, C and F order
    for k in range(-4, 5):
        x = base * (limit / np.linalg.norm(base)) * (1.0 + k * np.finfo(float).eps)
        states += [x, np.asfortranarray(x)]
    for bad in (np.inf, -np.inf, np.nan):
        x = base.copy()
        x[3, 4] = bad
        states.append(x)
    trips = []
    for x in states:
        try:
            _check_finite(NetworkState(x=x), limit, None)
            trips.append(False)
        except DivergenceError:
            trips.append(True)
        assert trips[-1] == (not np.linalg.norm(x) <= limit)
    assert trips[:3] == [False, True, False]
    assert any(trips[3:-3]) and not all(trips[3:-3]) and all(trips[-3:])


def test_run_rejects_raw_weights_not_doubly_stochastic():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=25)
    cfg = RunConfig(algorithm="dsgd", alpha=0.1, steps=5)
    row_only = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    with pytest.raises(ValueError, match="doubly stochastic") as exc:
        run(prob, row_only, cfg)
    assert "\n" not in str(exc.value)
    assert run(prob, np.eye(3), cfg).final_x.shape == (3, 2)


def test_run_rejects_mismatched_weights():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=25)
    with pytest.raises(ValueError):
        run(prob, ring_mix(4), RunConfig(algorithm="dsgd", alpha=0.1, steps=5))


# SHA-256 of the CSV bytes and final_x of each p = 1 run below with a
# C-ordered W, recorded before engine.run made W C-contiguous.
C_ORDER_P1 = {
    (4, "gt-sarah"): "07d215f4452475ee4be385eb41dd19978b85b349b3fe74f49b8ef9e9237bface",
    (4, "dsgt"): "913e54594f8ce6a436dc2e0b56525be95717e83484ffa0dfd40b9a23d8e06ea6",
    (4, "dsgd"): "9c0fb3367faee67a82e375101240ccb395ccf4a102dbe4b8d08a1d5eee734202",
    (10, "gt-sarah"): "b87fc5c4a91debe1c9d03ef81a6dfcf1183a069bf4cd0eb1ff140e4474ebf6eb",
    (10, "dsgt"): "d080b4dc02f7a5af022d3579b75017a0e852939e7fe5e3aeba1427c01ee586e5",
    (10, "dsgd"): "917804a9e779a6ec03e7405ce0dd79e025cf62af295f414c996cc043c0aab50d",
}


@pytest.mark.parametrize("n, algorithm", sorted(C_ORDER_P1))
def test_run_depends_on_weight_values_not_layout(n, algorithm):
    # at p = 1 a product with an F-ordered or strided W used to round
    # differently from the C-ordered one
    prob = synthesize("heterogeneous", n, 6, 1, seed=11, family="logistic")
    W = np.ascontiguousarray(ring_mix(n).entries)
    wide = np.zeros((2 * n, 2 * n))
    wide[::2, ::2] = W
    budget = dict(S=2) if algorithm == "gt-sarah" else dict(steps=48)
    cfg = RunConfig(algorithm=algorithm, alpha=0.3, B=2, seed=3, record_every=1, **budget)
    for layout in (W, np.asfortranarray(W), wide[::2, ::2]):
        trace = run(prob, layout, cfg)
        h = hashlib.sha256(csv_text(trace).encode())
        h.update(trace.final_x.tobytes())
        assert h.hexdigest() == C_ORDER_P1[(n, algorithm)]


def test_run_requires_budget():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=26)
    with pytest.raises(ValueError):
        run(prob, ring_mix(3), RunConfig(algorithm="gt-sarah", alpha=0.1))
    with pytest.raises(ValueError):
        run(prob, ring_mix(3), RunConfig(algorithm="dsgd", alpha=0.1))


def test_run_rejects_oversized_minibatch():
    prob = synthesize("heterogeneous", 3, 4, 2, seed=27)
    with pytest.raises(ValueError):
        run(prob, ring_mix(3), RunConfig(algorithm="dsgd", alpha=0.1, B=5, steps=5))


@pytest.mark.parametrize("x0", [np.zeros(3), np.zeros((1, 2)), np.zeros((2, 1)), 0.0],
                         ids=["short", "row", "column", "scalar"])
def test_resolve_rejects_misshaped_x0(x0):
    # one line naming both shapes, before any round; resolve is the CLI's check too
    prob = synthesize("heterogeneous", 3, 4, 2, seed=27)
    cfg = RunConfig(algorithm="gt-sarah", alpha=0.1, q=3, S=1, x0=x0)
    shape = re.escape(f"x0 shape {np.shape(x0)} does not match (p,) = (2,)")
    with pytest.raises(ValueError, match=f"^{shape}$"):
        engine.resolve(cfg, prob, 0.5)
    with pytest.raises(ValueError, match=f"^{shape}$"):
        run(prob, ring_mix(3), cfg)


def test_auto_alpha_resolves_to_complexity_bound():
    prob = synthesize("heterogeneous", 4, 6, 2, seed=28)
    mix = ring_mix(4)
    cfg = RunConfig(algorithm="gt-sarah", alpha="auto", B=2, q=6, S=1, seed=10)
    tr = run(prob, mix, cfg)
    # reproduce the run with the explicit bound: identical trajectory
    explicit = max_stepsize(4, 2, 6, mix.lam, prob.L, "complexity")
    tr2 = run(prob, mix, RunConfig(algorithm="gt-sarah", alpha=explicit, B=2, q=6, S=1, seed=10))
    assert np.array_equal(tr.final_x, tr2.final_x)


def test_trace_csv_schema():
    prob = synthesize("heterogeneous", 2, 3, 2, seed=29)
    tr = run(prob, ring_mix(2), RunConfig(algorithm="dsgt", alpha=0.05, steps=4, seed=11))
    buf = io.StringIO()
    tr.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == ("algorithm,seed,s,t,epochs,grads_total,comm_rounds,"
                        "stationary_gap,consensus_error,objective,def33_mean")
    first = lines[1].split(",")
    assert first[0] == "dsgt" and first[1] == "11"
    # terminal row carries the full budget
    last = lines[-1].split(",")
    assert int(last[6]) == 4
    # float cells round-trip exactly
    rec = tr.records[0]
    assert float(lines[1].split(",")[7]) == rec.stationary_gap


def test_trace_to_csv_accepts_path_like_target(tmp_path):
    prob = synthesize("heterogeneous", 2, 3, 2, seed=29)
    tr = run(prob, ring_mix(2), RunConfig(algorithm="dsgd", alpha=0.05, steps=4, seed=11))
    tr.to_csv(tmp_path / "path.csv")
    tr.to_csv(str(tmp_path / "str.csv"))
    tr.to_csv(tmp_path / "gz.csv.gz")
    assert (tmp_path / "path.csv").read_bytes() == (tmp_path / "str.csv").read_bytes()
    with gzip.open(tmp_path / "gz.csv.gz", "rt") as f:
        assert f.read() == (tmp_path / "path.csv").read_text()


def test_def33_running_mean_monotone_info():
    # running mean over a converging run decreases from its start
    prob = synthesize("heterogeneous", 3, 6, 2, seed=30)
    cfg = RunConfig(algorithm="gt-sarah", alpha=0.2, B=2, q=6, S=20, seed=12,
                    record_every=7, def33_every=1)
    tr = run(prob, ring_mix(3), cfg)
    assert tr.final.def33_mean < tr.records[1].def33_mean


@pytest.mark.parametrize("family", ["logistic", "quadratic"])
@pytest.mark.parametrize("algorithm", ["gt-sarah", "dsgt", "dsgd"])
@pytest.mark.parametrize("B", [1, 7, 64])
def test_rows_drawn_ahead_match_per_round_gather(monkeypatch, family, algorithm, B):
    # blocks shrunk so every run crosses row sub-block boundaries and index
    # block refills: 37 rounds per index block, 5 per row sub-block
    prob = synthesize("heterogeneous", 4, 64, 3, seed=B, family=family)
    per_round = sum(a.nbytes for a in prob.gather(np.zeros((4, B), dtype=np.int64)))
    monkeypatch.setattr(streams, "INDEX_BLOCK", 37 * B)
    monkeypatch.setattr(streams, "ROW_BLOCK_BYTES", 5 * per_round + per_round // 2)
    budget = dict(S=2, q=40) if algorithm == "gt-sarah" else dict(steps=100)
    cfg = RunConfig(algorithm=algorithm, alpha=0.05, B=B, seed=B, record_every=3, **budget)
    shapes, gather = [], type(prob).gather
    monkeypatch.setattr(type(prob), "gather",
                        lambda self, idx: shapes.append(idx.shape) or gather(self, idx))
    ahead = run(prob, ring_mix(4), cfg)
    assert (5, 4, B) in shapes      # one gather served 5 rounds
    assert (4, B) not in shapes[1:]     # past the streams' size probe, the oracle
                                        # gathered no round's rows itself
    # the reference: no room for two rounds, so the streams gather nothing ahead
    # and the oracle gathers every round's rows
    monkeypatch.setattr(streams, "ROW_BLOCK_BYTES", 0)
    shapes.clear()
    per_round_gather = run(prob, ring_mix(4), cfg)
    assert set(shapes) == {(4, B)}
    assert csv_text(ahead) == csv_text(per_round_gather)
    assert ahead.final_x.tobytes() == per_round_gather.final_x.tobytes()
