"""Acceptance suite: one test per shipping criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The comparative-ordering criterion (09) runs dozens of full
experiments and takes a few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from decenopt.algorithms import (RunConfig, gt_sarah_cycle_handoff, gt_sarah_inner_step,
                                 gt_sarah_outer_init, initial_state, sarah_estimator)
from decenopt.cli import EXIT_OK, main
from decenopt.data import synthesize
from decenopt.engine import run
from decenopt.graph import build_topology, lazy_metropolis_weights
from decenopt.streams import IndexStreams, node_streams
from decenopt.theory import max_stepsize, outer_iteration_bound
from helpers import reference_sarah


def _report(criterion, ok, detail=""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_01_spectral_anchors():
    t0 = time.perf_counter()
    exp = lazy_metropolis_weights(build_topology("exponential", 10))
    t_exp = time.perf_counter() - t0
    t0 = time.perf_counter()
    grid = lazy_metropolis_weights(build_topology("grid", 100, rows=10, cols=10))
    t_grid = time.perf_counter() - t0
    ok = (0.68 <= exp.lam <= 0.74) and (0.985 <= grid.lam <= 0.995) \
        and t_exp < 1.0 and t_grid < 1.0
    _report("01 spectral anchors", ok,
            f"exp10 lambda={exp.lam:.4f}, grid lambda={grid.lam:.4f}, "
            f"times {t_exp:.3f}s/{t_grid:.3f}s")


def test_02_cost_accounting_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    detail = ""
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        q = int(rng.integers(1, 7))
        B = int(rng.integers(1, m + 1))
        S = int(rng.integers(1, 4))
        prob = synthesize("heterogeneous", n, m, 2, seed=int(rng.integers(10 ** 6)))
        mix = lazy_metropolis_weights(build_topology("ring", n) if n > 1
                                      else build_topology("complete", 1))
        tr = run(prob, mix, RunConfig(algorithm="gt-sarah", alpha=0.01, B=B, q=q, S=S,
                                      seed=int(rng.integers(10 ** 6))))
        if tr.final.grads_total != S * n * (m + 2 * q * B) or tr.final.comm_rounds != S * (q + 1):
            ok = False
            detail = f"mismatch at (n={n}, m={m}, q={q}, B={B}, S={S})"
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report("02 cost accounting", ok, detail or f"20 tuples exact, {elapsed:.2f}s")


def test_03_tracking_conservation():
    prob = synthesize("heterogeneous", 8, 40, 4, seed=33)
    W = lazy_metropolis_weights(build_topology("ring", 8)).entries
    q, B, alpha = 20, 2, 0.05
    rngs = IndexStreams(node_streams(44, 8), prob.m, B)
    st = initial_state(np.zeros(4), 8)
    worst = 0.0
    for s in range(3):
        gt_sarah_outer_init(st, prob, W, alpha)
        vbar = st.v.mean(axis=0)
        worst = max(worst, np.linalg.norm(st.y.mean(axis=0) - vbar) / (1 + np.linalg.norm(vbar)))
        for _ in range(q):
            gt_sarah_inner_step(st, prob, W, alpha, B, rngs)
            vbar = st.v.mean(axis=0)
            worst = max(worst,
                        np.linalg.norm(st.y.mean(axis=0) - vbar) / (1 + np.linalg.norm(vbar)))
        if s < 2:
            gt_sarah_cycle_handoff(st, q)
    _report("03 tracking conservation", worst <= 1e-10, f"max residual {worst:.3e}")


def test_04_centralized_reduction():
    prob = synthesize("homogeneous", 1, 20, 4, seed=11, family="logistic")
    alpha, B, q, S = 0.3, 2, 49, 20           # S (q+1) = 1000 iterates
    rngs = IndexStreams(node_streams(123, 1), prob.m, B)
    st = initial_state(np.zeros(4), 1)
    impl = []
    for s in range(1, S + 1):
        gt_sarah_outer_init(st, prob, np.array([[1.0]]), alpha)
        impl.append(st.x[0].copy())
        for _ in range(q):
            gt_sarah_inner_step(st, prob, np.array([[1.0]]), alpha, B, rngs)
            impl.append(st.x[0].copy())
        if s < S:
            gt_sarah_cycle_handoff(st, q)
    ref = reference_sarah(prob, np.zeros(4), alpha, B, q, S, node_streams(123, 1)[0])
    worst = max(np.linalg.norm(a - b) / (1 + np.linalg.norm(b)) for a, b in zip(impl, ref))
    ok = len(impl) == 1000 and worst <= 1e-12
    _report("04 centralized reduction", ok, f"1000 iterates, max rel dev {worst:.3e}")


def test_05_sarah_conditional_unbiasedness():
    prob = synthesize("heterogeneous", 1, 12, 3, seed=55)
    rng = np.random.default_rng(56)
    x_now = rng.normal(size=(1, 3))
    x_prev = rng.normal(size=(1, 3))
    v_prev = rng.normal(size=(1, 3))
    mean_v = np.mean([sarah_estimator(prob, x_now, x_prev, v_prev, np.array([[j]]))
                      for j in range(12)], axis=0)
    expected = (prob.batch_gradients(x_now)[0] - prob.batch_gradients(x_prev)[0]
                + v_prev[0])
    dev = np.abs(mean_v[0] - expected).max()
    _report("05 SARAH conditional unbiasedness", dev <= 1e-12, f"max dev {dev:.3e}")


def test_06_contraction_property():
    topologies = [
        build_topology("complete", 3),
        build_topology("ring", 4),
        build_topology("ring", 9),
        build_topology("path", 2),
        build_topology("path", 7),
        build_topology("grid", 12, rows=3, cols=4),
        build_topology("exponential", 10),
        build_topology("grid", 100, rows=10, cols=10),
    ]
    rng = np.random.default_rng(66)
    worst = -np.inf
    for topo in topologies:
        mix = lazy_metropolis_weights(topo)
        for _ in range(1000):
            X = rng.normal(size=(topo.n, 3))
            xbar = X.mean(axis=0)
            slack = np.linalg.norm(mix.entries @ X - xbar) - mix.lam * np.linalg.norm(X - xbar)
            worst = max(worst, slack)
    _report("06 contraction property", worst <= 1e-9,
            f"{len(topologies)} topologies x 1000 vectors, max slack {worst:.3e}")


def test_07_gradient_correctness():
    prob = synthesize("heterogeneous", 3, 6, 5, seed=77, family="logistic")
    rng = np.random.default_rng(78)
    worst = 0.0
    for _ in range(100):
        i = int(rng.integers(prob.n))
        j = int(rng.integers(prob.m))
        x = rng.normal(size=prob.p)
        g = prob.component_gradient(i, j, x)
        e = np.zeros(prob.p)
        g_fd = np.zeros(prob.p)
        for d in range(prob.p):
            e[:] = 0.0
            e[d] = 1e-5
            g_fd[d] = (prob.component_value(i, j, x + e)
                       - prob.component_value(i, j, x - e)) / 2e-5
        worst = max(worst, np.linalg.norm(g - g_fd) / (1 + np.linalg.norm(g_fd)))
    _report("07 gradient correctness", worst <= 1e-6, f"100 checks, max rel err {worst:.3e}")


def test_08_outer_iteration_bound_realized():
    t0 = time.perf_counter()
    prob = synthesize("heterogeneous", 4, 8, 3, seed=21)
    mix = lazy_metropolis_weights(build_topology("ring", 4))
    q, B, eps = prob.m, 1, 0.1
    alpha = max_stepsize(4, B, q, mix.lam, prob.L, "complexity")
    x0 = np.zeros(prob.p)
    f0 = prob.full_value(x0)
    grad_sq_mean = float(np.mean([np.sum(g ** 2)
                                  for g in prob.batch_gradients(np.tile(x0, (prob.n, 1)))]))
    S = outer_iteration_bound(f0, prob.optimal_value(), grad_sq_mean, alpha, q, prob.L, eps)
    tr = run(prob, mix, RunConfig(algorithm="gt-sarah", alpha=alpha, B=B, q=q, S=S,
                                  seed=5, def33_every=1, record_every=10 ** 9))
    elapsed = time.perf_counter() - t0
    ok = tr.final.def33_mean <= eps ** 2 and elapsed < 60.0
    _report("08 outer-iteration bound realized", ok,
            f"S={S}, def33 mean {tr.final.def33_mean:.3e} <= {eps ** 2}, {elapsed:.1f}s")


ALPHA_GRID = (0.01, 0.03, 0.1, 0.3, 1.0)


def _best_final_gap(prob, mix, algorithm, seed):
    best = np.inf
    for alpha in ALPHA_GRID:
        kwargs = dict(algorithm=algorithm, alpha=alpha, B=1, epochs=30.0, seed=seed,
                      record_every=10 ** 9, def33_every=10 ** 9)
        if algorithm == "gt-sarah":
            kwargs["q"] = prob.m
        try:
            tr = run(prob, mix, RunConfig(**kwargs))
        except Exception:
            continue
        best = min(best, tr.final.stationary_gap)
    return best


def test_09_qualitative_ordering():
    t0 = time.perf_counter()
    prob = synthesize("heterogeneous", 10, 1000, 10, seed=77, family="logistic")
    mix = lazy_metropolis_weights(build_topology("exponential", 10))
    wins = 0
    lines = []
    for seed in (101, 202, 303, 404, 505):
        gts = _best_final_gap(prob, mix, "gt-sarah", seed)
        dsgt = _best_final_gap(prob, mix, "dsgt", seed)
        dsgd = _best_final_gap(prob, mix, "dsgd", seed)
        won = gts <= dsgt and gts <= dsgd
        wins += won
        lines.append(f"seed {seed}: gt-sarah {gts:.2e} vs dsgt {dsgt:.2e} vs dsgd {dsgd:.2e}")
    elapsed = time.perf_counter() - t0
    ok = wins >= 4 and elapsed < 300.0
    _report("09 qualitative ordering", ok,
            f"{wins}/5 seeds, {elapsed:.0f}s | " + " | ".join(lines))


def test_10_determinism_byte_identical(tmp_path):
    config = """\
[experiment]
seed = 7
replicates = 2

[topology]
kind = ring
n = 4

[data]
source = synthetic
family = quadratic
kind = heterogeneous
m = 8
p = 3

[gt-sarah]
alpha = 0.05
B = 1
q = 8
S = 3

[dsgt]
alpha = 0.1
B = 2
epochs = 3
"""
    cfg = tmp_path / "exp.ini"
    cfg.write_text(config)
    outs = []
    for label, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / label
        code = main(["run", "--config", str(cfg), "--out", str(out),
                     "--workers", workers])
        assert code == EXIT_OK
        outs.append(out)
    ok = True
    for name in ("gt-sarah_r0.csv", "gt-sarah_r1.csv", "dsgt_r0.csv", "dsgt_r1.csv"):
        blobs = [(o / name).read_bytes() for o in outs]
        ok = ok and blobs[0] == blobs[1] == blobs[2]
    _report("10 determinism", ok, "repeat + 4-way parallel runs byte-identical")
