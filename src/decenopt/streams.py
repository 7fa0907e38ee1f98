"""Deterministic derivation of independent random streams from one master seed."""

from __future__ import annotations

import itertools

import numpy as np


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator identified by a master seed and an integer key path.

    The same (seed, key) always yields the same stream, and streams with
    different keys are statistically independent, so callers can hand out
    generators without coordinating.
    """
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)


def node_streams(seed: int, n: int, namespace: tuple[int, ...] = ()) -> list[np.random.Generator]:
    """One independent generator per node.

    Stream i depends only on (seed, namespace, i), never on the order in
    which the streams are consumed; per-node sampling is therefore
    reproducible under any execution schedule or degree of parallelism.
    """
    return [substream(seed, *namespace, i) for i in range(n)]


INDEX_BLOCK = 8192  # indices each node draws ahead per refill (rounded down to whole rounds)
ROW_BLOCK_BYTES = 256 * 1024  # sampled rows gathered ahead at a time


class IndexStreams:
    """Uniform component indices for every node, drawn ahead in blocks.

    ``take()`` returns the (n, B) indices that one
    ``rng.integers(0, m, size=B)`` call per node would return. numpy draws a
    block of k * B bounded integers exactly as k successive draws of B, so
    drawing ahead never changes a trajectory; it replaces n generator calls
    and a stack per round with one view. ``rounds``, the number of takes a
    run expects, caps the block at rounds * B, so a short run draws no more
    than it uses; takes past it refill as usual.

    Given a problem's ``gather``, the streams also gather the sampled rows
    ahead, one sub-block of the current index block at a time: as many
    rounds as fit in ROW_BLOCK_BYTES. After each take, ``rows`` holds views
    of that take's rows, the tuple ``gather`` returns for its indices. It
    is None without a gather, and when fewer than two rounds fit: the
    oracle then gathers each round's rows itself, as it would anyway.
    ``owner`` is the problem the gather is bound to, the only one whose
    oracle the step functions hand ``rows``.
    """

    def __init__(self, rngs, m: int, B: int, rounds: int | None = None, gather=None):
        self.m = m
        self.B = B
        self.owner = getattr(gather, "__self__", None)
        self.rows = None
        self._takes = _takes(rngs, m, B, max(1, min(INDEX_BLOCK // B, rounds or INDEX_BLOCK)),
                             gather)

    def take(self) -> np.ndarray:
        idx, self.rows = next(self._takes)
        return idx


def _takes(rngs, m, B, rounds, gather):
    # (indices, rows) per take, block after block. A plain function, not a
    # method: a generator holding its IndexStreams would keep both alive in a
    # reference cycle, with the problem the gather belongs to, until a full GC.
    n = len(rngs)
    per_gather = rounds
    if gather is not None:
        one = sum(a.nbytes for a in gather(np.zeros((n, B), dtype=np.int64)))
        per_gather = ROW_BLOCK_BYTES // one
        if per_gather < 2:      # no gather saved; the rows would outlive their round
            gather, per_gather = None, rounds
    while True:
        # round-major, so a round's indices and rows are each one contiguous block
        block = np.empty((rounds, n, B), dtype=np.int64)
        for i, rng in enumerate(rngs):
            block[:, i] = rng.integers(0, m, size=(rounds, B))
        for a in range(0, rounds, per_gather):
            sub = block[a:a + per_gather]
            yield from zip(sub, itertools.repeat(None) if gather is None else zip(*gather(sub)))
