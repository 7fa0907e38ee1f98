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
MIXING_TOL = 1e-12          # largest row/column sum deviation of a doubly stochastic matrix


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
        if not _connected(_adjacency(self.n, self.edges)):
            raise ValueError(f"{self.kind} topology on {self.n} nodes is not connected")


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


def _adjacency(n: int, edges) -> np.ndarray:
    """(n, n) boolean adjacency of an undirected edge set, diagonal False."""
    a = np.zeros((n, n), dtype=bool)
    if edges:
        i, j = np.array(list(edges)).T
        a[i, j] = a[j, i] = True
    return a


def _connected(adjacency: np.ndarray) -> bool:
    """Whether a frontier grown from node 0 over the adjacency rows reaches every node."""
    seen = np.zeros(len(adjacency), dtype=bool)
    frontier = seen.copy()
    frontier[0] = True
    while frontier.any():
        seen |= frontier
        frontier = adjacency[frontier].any(axis=0) & ~seen
    return bool(seen.all())


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
    if kind == "complete":
        e = {(i, j) for i in range(n) for j in range(i + 1, n)}
    elif kind in ("ring", "exponential"):
        # circulant: node i links to (i +/- d) mod n for every offset d; the
        # exponential graph's offsets are 2^j for j = 0..floor(log2(n-1))
        offsets = [1] if kind == "ring" else [2 ** j for j in range(int(n - 1).bit_length())]
        e = {_canonical_edge(i, (i + d) % n)
             for d in offsets for i in range(n) if (i + d) % n != i}
    elif kind == "path":
        e = {(i, i + 1) for i in range(n - 1)}
    elif kind == "grid":
        if rows is None or cols is None:
            raise ValueError("grid topology requires rows and cols")
        if rows * cols != n:
            raise ValueError(f"grid dimensions {rows}x{cols} do not match n={n}")
        e = ({(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)}
             | {(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)})
    elif kind == "custom":
        if edges is None:
            raise ValueError("custom topology requires an edge list")
        e = {_canonical_edge(int(i), int(j)) for i, j in edges if i != j}
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
    adjacency = _adjacency(topo.n, topo.edges)
    deg = adjacency.sum(axis=1)
    m = np.where(adjacency, 1 / (1 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(m, 1 - m.sum(axis=1))
    entries = (np.eye(topo.n) + m) / 2.0
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


def validate_mixing(entries: np.ndarray) -> MixingReport:
    """Check the doubly stochastic mixing requirements on a square matrix.

    Primitivity is checked as connectivity of the support graph combined
    with a strictly positive diagonal (together sufficient for a
    nonnegative matrix).
    """
    w = np.asarray(entries, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
    row_dev = float(np.abs(w.sum(axis=1) - 1.0).max())
    col_dev = float(np.abs(w.sum(axis=0) - 1.0).max())
    positive_diag = bool((np.diag(w) > 0).all())
    support = (w != 0) | (w.T != 0)
    np.fill_diagonal(support, False)
    primitive = positive_diag and _connected(support)
    return MixingReport(
        nonnegative=bool((w >= 0).all()),
        rows_stochastic=row_dev <= MIXING_TOL,
        cols_stochastic=col_dev <= MIXING_TOL,
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
