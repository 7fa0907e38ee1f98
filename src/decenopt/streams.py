"""Deterministic derivation of independent random streams from one master seed."""

from __future__ import annotations

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


class IndexStreams:
    """Uniform component indices for every node, drawn ahead in blocks.

    ``take()`` returns the (n, B) indices that one
    ``rng.integers(0, m, size=B)`` call per node would return. numpy draws a
    block of k * B bounded integers exactly as k successive draws of B, so
    drawing ahead never changes a trajectory; it replaces n generator calls
    and a stack per round with one slice. ``rounds``, the number of takes a
    run expects, caps the block at rounds * B, so a short run draws no more
    than it uses; takes past it refill as usual.
    """

    def __init__(self, rngs, m: int, B: int, rounds: int | None = None):
        self.rngs = rngs
        self.m = m
        self.B = B
        self._size = max(1, min(INDEX_BLOCK // B, rounds or INDEX_BLOCK)) * B
        self._block = np.empty((len(rngs), 0), dtype=np.int64)
        self._pos = 0

    def take(self) -> np.ndarray:
        if self._pos == self._block.shape[1]:
            self._block = np.stack([rng.integers(0, self.m, size=self._size)
                                    for rng in self.rngs])
            self._pos = 0
        out = self._block[:, self._pos:self._pos + self.B]
        self._pos += self.B
        return out
