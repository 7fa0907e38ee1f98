"""Network topologies and doubly stochastic mixing matrices.

Topologies are undirected connected graphs with an implicit self-loop at
every node. Mixing matrices are built with the lazy Metropolis rule, which
always yields a symmetric doubly stochastic matrix with positive diagonal
on a connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _open_text

TOPOLOGY_KINDS = ("complete", "ring", "path", "grid", "exponential", "custom")


@dataclass(frozen=True)
class Topology:
    """Undirected graph over nodes 0..n-1.

    ``edges`` holds unordered pairs (i, j) with i < j and i != j; self-loops
    are implicit at every node. Construction validates connectivity and
    index ranges.
    """

    kind: str
    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) references a node outside 0..{self.n - 1}")
            if i >= j:
                raise ValueError(f"edge ({i}, {j}) is not in canonical (i < j) form")
        if not _connected(self.n, self.edges):
            raise ValueError(f"{self.kind} topology on {self.n} nodes is not connected")

    def degrees(self) -> np.ndarray:
        """Node degrees, self-loops excluded."""
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


@dataclass(frozen=True)
class MixingMatrix:
    """Dense mixing matrix with its second largest singular value.

    ``lam`` is ||W - (1/n) 1 1^T||, the contraction factor of the consensus
    step; ``spectral_gap`` is 1 - lam. Connected topologies give lam in
    [0, 1).
    """

    entries: np.ndarray
    lam: float

    @property
    def spectral_gap(self) -> float:
        return 1.0 - self.lam


def _canonical_edge(i: int, j: int):
    return (i, j) if i < j else (j, i)


def _connected(n: int, edges) -> bool:
    if n == 1:
        return True
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


def build_topology(kind: str, n: int, rows: int | None = None, cols: int | None = None,
                   edges=None) -> Topology:
    """Construct one of the supported network topologies.

    Parameters
    ----------
    kind : str
        One of ``complete``, ``ring``, ``path``, ``grid``, ``exponential``,
        ``custom``.
    n : int
        Node count. For ``grid``, rows * cols must equal n.
    rows, cols : int, optional
        Grid shape (required for ``grid``).
    edges : iterable of (i, j), optional
        Edge list for ``custom``; self-loop pairs are dropped, duplicates
        merged.

    Returns
    -------
    Topology
        Connected topology; raises ValueError otherwise.
    """
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    e = set()
    if kind == "complete":
        e = {(i, j) for i in range(n) for j in range(i + 1, n)}
    elif kind == "ring":
        e = {_canonical_edge(i, (i + 1) % n) for i in range(n) if i != (i + 1) % n}
    elif kind == "path":
        e = {(i, i + 1) for i in range(n - 1)}
    elif kind == "grid":
        if rows is None or cols is None:
            raise ValueError("grid topology requires rows and cols")
        if rows * cols != n:
            raise ValueError(f"grid dimensions {rows}x{cols} do not match n={n}")
        for r in range(rows):
            for c in range(cols):
                u = r * cols + c
                if c + 1 < cols:
                    e.add((u, u + 1))
                if r + 1 < rows:
                    e.add((u, u + cols))
    elif kind == "exponential":
        # node i connects to (i +/- 2^j) mod n for j = 0..floor(log2(n-1))
        j = 0
        while n > 1 and 2 ** j <= n - 1:
            for i in range(n):
                t = (i + 2 ** j) % n
                if t != i:
                    e.add(_canonical_edge(i, t))
            j += 1
    elif kind == "custom":
        if edges is None:
            raise ValueError("custom topology requires an edge list")
        for i, j in edges:
            if i != j:
                e.add(_canonical_edge(int(i), int(j)))
    else:
        raise ValueError(f"unknown topology kind {kind!r}; expected one of {TOPOLOGY_KINDS}")
    return Topology(kind=kind, n=n, edges=frozenset(e))


def lazy_metropolis_weights(topo: Topology) -> MixingMatrix:
    """Doubly stochastic mixing matrix W = (I + M) / 2 from Metropolis weights.

    The Metropolis weight of edge (i, r) is 1 / (1 + max(deg_i, deg_r)) with
    degrees excluding self-loops; diagonals absorb the remaining mass. The
    lazy transform halves everything and adds I/2, guaranteeing a strictly
    positive diagonal.
    """
    n = topo.n
    deg = topo.degrees()
    m = np.zeros((n, n))
    for i, j in topo.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        m[i, j] = w
        m[j, i] = w
    for i in range(n):
        m[i, i] = 1.0 - (m[i].sum() - m[i, i])
    entries = (np.eye(n) + m) / 2.0
    lam, _ = spectral_quantities(entries)
    return MixingMatrix(entries=entries, lam=lam)


def spectral_quantities(entries: np.ndarray) -> tuple:
    """Second largest singular value of a doubly stochastic matrix and its gap.

    Computed as the spectral norm of W - J where J = (1/n) 1 1^T, which
    equals the second largest singular value of W itself.
    """
    w = np.asarray(entries, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
    n = w.shape[0]
    dev = w - np.full((n, n), 1.0 / n)
    if not dev.any():
        return 0.0, 1.0
    lam = float(np.linalg.svd(dev, compute_uv=False)[0])
    return lam, 1.0 - lam


@dataclass(frozen=True)
class MixingReport:
    """Pass/fail summary of the mixing-matrix requirements."""

    nonnegative: bool
    rows_stochastic: bool
    cols_stochastic: bool
    positive_diagonal: bool
    primitive: bool
    max_row_deviation: float
    max_col_deviation: float

    def lines(self) -> list:
        return [
            f"nonnegative        {'pass' if self.nonnegative else 'FAIL'}",
            f"row sums           {'pass' if self.rows_stochastic else 'FAIL'} (max dev {self.max_row_deviation:.2e})",
            f"column sums        {'pass' if self.cols_stochastic else 'FAIL'} (max dev {self.max_col_deviation:.2e})",
            f"positive diagonal  {'pass' if self.positive_diagonal else 'FAIL'}",
            f"primitive          {'pass' if self.primitive else 'FAIL'}",
        ]


def validate_mixing(entries: np.ndarray, tol: float = 1e-12) -> MixingReport:
    """Check the doubly stochastic mixing requirements on a square matrix.

    Primitivity is checked as connectivity of the support graph combined
    with a strictly positive diagonal (together sufficient for a
    nonnegative matrix).
    """
    w = np.asarray(entries, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
    n = w.shape[0]
    row_dev = float(np.abs(w.sum(axis=1) - 1.0).max())
    col_dev = float(np.abs(w.sum(axis=0) - 1.0).max())
    positive_diag = bool((np.diag(w) > 0).all())
    support = {_canonical_edge(i, j) for i in range(n) for j in range(n)
               if i != j and (w[i, j] != 0 or w[j, i] != 0)}
    primitive = positive_diag and _connected(n, support)
    return MixingReport(
        nonnegative=bool((w >= 0).all()),
        rows_stochastic=row_dev <= tol,
        cols_stochastic=col_dev <= tol,
        positive_diagonal=positive_diag,
        primitive=primitive,
        max_row_deviation=row_dev,
        max_col_deviation=col_dev,
    )


# ---------------------------------------------------------------------------
# serialization

def write_edge_list(topo: Topology, target) -> None:
    """Write a topology as text: first line n, then one 'i j' line per edge."""
    with _open_text(target, "w") as f:
        f.write(f"{topo.n}\n")
        for i, j in sorted(topo.edges):
            f.write(f"{i} {j}\n")


def read_edge_list(source) -> Topology:
    """Parse the edge-list text format back into a custom Topology."""
    with _open_text(source) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the node count, got {lines[0]!r}") from None
    edges = []
    for k, ln in enumerate(lines[1:], start=2):
        try:
            i, j = map(int, ln.split())
        except ValueError:      # not two tokens, or not integers
            raise ValueError(f"line {k}: expected 'i j', got {ln!r}") from None
        edges.append((i, j))
    return build_topology("custom", n, edges=edges)


def write_weights_csv(entries: np.ndarray, target) -> None:
    """Write a mixing matrix as n rows of comma-separated reals."""
    w = np.asarray(entries, dtype=float)
    with _open_text(target, "w") as f:
        for row in w:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
