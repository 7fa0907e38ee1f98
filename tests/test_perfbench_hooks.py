"""The benchmark's hooks still find, in this package, what they wrap.

perfbench's tracer skips a traced function that is missing, and that
function's metrics then read 0; its byte counters read ``problem.dataset``
and the indices that ``minibatch_gradients`` gets. These checks make a
renamed or removed target fail here instead.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import decenopt
import decenopt.cli
from decenopt.algorithms import RunConfig
from decenopt.data import synthesize
from decenopt.graph import build_topology, lazy_metropolis_weights

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_perfbench_selftest_and_tracer_targets():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr

    tracing = load_tracer()
    n, m, p, B, q, S = 4, 20, 3, 2, 3, 2
    prob = synthesize("heterogeneous", n, m, p, seed=1, family="logistic")
    mix = lazy_metropolis_weights(build_topology("ring", n))
    tracer = tracing.Tracer()
    tracer.install(decenopt)
    try:
        assert tracer.skipped == []
        decenopt.engine.run(prob, mix, RunConfig(algorithm="gt-sarah", alpha=0.1, B=B, q=q, S=S))
    finally:
        tracer.uninstall()
    spans = tracer.take()
    stats = tracing.aggregate(spans)
    assert stats["algorithms.sample_indices.calls"] == S * q
    assert stats["objective.minibatch_gradients.bytes_gathered"] == S * q * n * B * (p + 1) * 8
    assert stats["objective.batch_gradients.bytes_read"] == S * n * m * (p + 1) * 8
    assert stats["engine.run.self_s"] > 0
    # the handoffs run between rounds but still inside engine.run, so the step
    # layer's self time counts them
    runs = {sp.id for sp in spans if sp.name == "engine.run"}
    for name, calls in (("algorithms.gt_sarah_cycle_handoff", S - 1),
                        ("algorithms.gt_sarah_outer_init", S)):
        found = [sp for sp in spans if sp.name == name]
        assert len(found) == calls and all(sp.parent in runs for sp in found)
