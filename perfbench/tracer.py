"""In-memory span tracer that wraps decenopt's public functions from outside.

Nothing in ``src/`` knows about it: ``install`` replaces module and class
attributes with timing wrappers, ``uninstall`` puts the originals back.
Each thread keeps its own stack of open spans, so jobs running on the CLI's
worker threads nest under their own ``engine.run`` and never under a span
of another thread. Spans stay in memory until ``take`` hands them to the
caller, which aggregates them once the repeat has ended.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    child_s: float
    nbytes: int

    @property
    def s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


# Step functions the engine calls by the names it imported from algorithms;
# their self time (step minus sampling and oracle children) is the mixing,
# tracker/state update and counter work of one round.
STEP_FUNCTIONS = ("gt_sarah_outer_init", "gt_sarah_inner_step", "gt_sarah_cycle_handoff",
                  "dsgd_step", "dsgt_init", "dsgt_step")


def _minibatch_bytes(args, kwargs, result):
    problem, _, indices = args[:3]
    feats = problem.dataset.features
    return int(indices.size) * (problem.p + 1) * feats.itemsize


def _batch_bytes(args, kwargs, result):
    d = args[0].dataset
    return int(d.features.nbytes + d.labels.nbytes)


def _csv_bytes(args, kwargs, result):
    target = args[1] if len(args) > 1 else kwargs["target"]
    if isinstance(target, (str, bytes, os.PathLike)):
        return os.path.getsize(target)
    return target.tell()


def _file_bytes(args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    if isinstance(source, (str, bytes, os.PathLike)):
        return os.path.getsize(source)
    return 0


def targets():
    """(owner, attribute, span name, byte counter) for every traced boundary.

    The owner is a dotted path below the ``decenopt`` package, so a target
    that a refactor removed can be skipped instead of failing the run.
    """
    out = [
        ("algorithms", "sample_indices", "algorithms.sample_indices", None),
        ("engine", "run", "engine.run", None),
        ("engine", "def33_term", "engine.def33_term", None),
        ("engine", "consensus_error", "engine.consensus_error", None),
        ("engine", "node_streams", "streams.node_streams", None),
        ("engine.RunTrace", "to_csv", "engine.RunTrace.to_csv", _csv_bytes),
        ("objective.LogisticProblem", "minibatch_gradients", "objective.minibatch_gradients",
         _minibatch_bytes),
        ("objective.LogisticProblem", "batch_gradients", "objective.batch_gradients",
         _batch_bytes),
        ("objective.LogisticProblem", "full_gradient", "objective.full_gradient", None),
        ("objective.LogisticProblem", "full_value", "objective.full_value", None),
        ("data", "synthesize", "data.synthesize", None),
        ("data", "parse_libsvm", "data.parse_libsvm", _file_bytes),
        ("data", "prepare", "data.prepare", None),
        ("graph", "lazy_metropolis_weights", "graph.lazy_metropolis_weights", None),
        ("cli", "parse_experiment", "cli.parse_experiment", None),
        ("cli", "main", "cli.main", None),
    ]
    out += [("engine", fn, f"algorithms.{fn}", None) for fn in STEP_FUNCTIONS]
    return out


def _resolve(decenopt, path: str):
    owner = decenopt
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self._spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []
        self.skipped: list[str] = []     # targets missing at the last install

    def wrap(self, fn, name, count_bytes=None):
        spans, ids, local = self._spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # frame: [span id, child seconds]
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            nbytes = count_bytes(args, kwargs, result) if count_bytes else 0
            spans.append(Span(frame[0], parent, name, threading.get_ident(),
                              start, end, frame[1], nbytes))
            return result

        return traced

    def install(self, decenopt) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.skipped = []
        for path, attr, name, count_bytes in targets():
            owner = _resolve(decenopt, path)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:        # gone after a refactor: its metrics read 0
                self.skipped.append(f"decenopt.{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, count_bytes))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start an empty list."""
        spans = list(self._spans)
        self._spans.clear()
        return spans


RECORDER_CHILDREN = ("objective.full_gradient", "objective.full_value", "engine.consensus_error")


def aggregate(spans: list[Span]) -> dict:
    """Per-layer figures of one repeat, named ``<module>.<function>.<stat>``."""
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    names = {sp.id: sp.name for sp in spans}

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, stat="s"):
        return sum((getattr(sp, stat) for sp in by_name.get(name, ())), 0.0)

    def nbytes(name):
        return sum(sp.nbytes for sp in by_name.get(name, ()))

    runs = by_name.get("engine.run", [])
    job_wall = (max(sp.end for sp in runs) - min(sp.start for sp in runs)) if runs else 0.0
    steps = [f"algorithms.{fn}" for fn in STEP_FUNCTIONS]
    return {
        "algorithms.sample_indices.calls": calls("algorithms.sample_indices"),
        "algorithms.sample_indices.self_s": total("algorithms.sample_indices", "self_s"),
        "objective.minibatch_gradients.calls": calls("objective.minibatch_gradients"),
        "objective.minibatch_gradients.self_s": total("objective.minibatch_gradients", "self_s"),
        "objective.minibatch_gradients.bytes_gathered": nbytes("objective.minibatch_gradients"),
        "objective.batch_gradients.calls": calls("objective.batch_gradients"),
        "objective.batch_gradients.self_s": total("objective.batch_gradients", "self_s"),
        "objective.batch_gradients.bytes_read": nbytes("objective.batch_gradients"),
        "algorithms.step.self_s": sum(total(name, "self_s") for name in steps),
        "engine.def33_term.calls": calls("engine.def33_term"),
        "engine.def33_term.s": total("engine.def33_term"),
        "engine.recorder.s": sum(sp.s for name in RECORDER_CHILDREN
                                 for sp in by_name.get(name, ())
                                 if names.get(sp.parent) == "engine.run"),
        "engine.run.self_s": total("engine.run", "self_s"),
        "engine.RunTrace.to_csv.s": total("engine.RunTrace.to_csv"),
        "engine.RunTrace.to_csv.bytes": nbytes("engine.RunTrace.to_csv"),
        "cli.parse_experiment.s": total("cli.parse_experiment"),
        "cli.jobs.overlap": total("engine.run") / job_wall if job_wall > 0 else 0.0,
        "data.parse_libsvm.s": total("data.parse_libsvm"),
        "data.parse_libsvm.bytes": nbytes("data.parse_libsvm"),
        "data.prepare.s": total("data.prepare"),
        "data.synthesize.s": total("data.synthesize"),
        "graph.lazy_metropolis_weights.s": total("graph.lazy_metropolis_weights"),
        "streams.node_streams.s": total("streams.node_streams"),
    }


def span_table(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(name, calls, seconds, self seconds) per span name, largest self time first."""
    rows: dict[str, list] = {}
    for sp in spans:
        row = rows.setdefault(sp.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += sp.s
        row[2] += sp.self_s
    return sorted(((name, *row) for name, row in rows.items()), key=lambda r: -r[3])


# The round's layers as ROADMAP names them, each summed from the metrics above.
LAYERS = {
    "sampling": ("algorithms.sample_indices.self_s",),
    "local oracle": ("objective.minibatch_gradients.self_s", "objective.batch_gradients.self_s"),
    "step (mixing, tracker, state, counters)": ("algorithms.step.self_s",),
    "recorder": ("engine.def33_term.s", "engine.recorder.s"),
    "round loop and divergence guard": ("engine.run.self_s",),
    "CSV write": ("engine.RunTrace.to_csv.s",),
    "set-up": ("cli.parse_experiment.s", "data.parse_libsvm.s", "data.prepare.s",
               "data.synthesize.s", "graph.lazy_metropolis_weights.s"),
}


def layer_times(stats: dict) -> list[tuple[str, float]]:
    """(layer, seconds) largest first. Thread-pool jobs overlap, so on the CLI
    workload the seconds can add up to more than the wall time."""
    rows = [(layer, sum(stats[m] for m in names)) for layer, names in LAYERS.items()]
    return sorted(rows, key=lambda r: -r[1])
