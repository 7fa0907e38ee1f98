import gzip
import io
from pathlib import Path

import numpy as np
import pytest

from decenopt.graph import (MixingMatrix, Topology, build_topology, lazy_metropolis_weights,
                            read_edge_list, spectral_quantities, validate_mixing,
                            write_edge_list, write_weights_csv)
from helpers import reference_connected, reference_edges, reference_metropolis, reference_primitive

SUITE = [
    build_topology("complete", 3),
    build_topology("complete", 4),
    build_topology("ring", 4),
    build_topology("ring", 9),
    build_topology("path", 2),
    build_topology("path", 7),
    build_topology("grid", 12, rows=3, cols=4),
    build_topology("exponential", 10),
]


def test_complete3_edges():
    t = build_topology("complete", 3)
    assert t.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_ring4_edges():
    t = build_topology("ring", 4)
    assert t.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def test_exponential10_neighbor_offsets():
    # offsets 2^j for j=0..3, folded mod 10 and deduplicated: {1,2,4,6,8,9}
    expected = set()
    for j in range(4):
        expected |= {2 ** j % 10, (-2 ** j) % 10}
    expected.discard(0)
    t = build_topology("exponential", 10)
    for i in range(10):
        neighbors = [j for e in t.edges if i in e for j in e if j != i]
        assert len(neighbors) == 6 and {(nb - i) % 10 for nb in neighbors} == expected


def test_build_errors():
    with pytest.raises(ValueError):
        build_topology("ring", 0)
    with pytest.raises(ValueError):
        build_topology("grid", 10, rows=3, cols=4)
    with pytest.raises(ValueError):
        build_topology("grid", 12)
    with pytest.raises(ValueError):
        build_topology("custom", 4, edges=[(0, 1), (2, 3)])  # disconnected
    with pytest.raises(ValueError):
        build_topology("custom", 3, edges=[(0, 5)])
    with pytest.raises(ValueError):
        build_topology("nonsense", 3)
    with pytest.raises(ValueError, match="^custom topology requires an edge list$"):
        build_topology("custom", 3)
    with pytest.raises(ValueError, match="^node count must be positive, got 0$"):
        Topology("ring", 0)


def test_custom_drops_self_loops():
    t = build_topology("custom", 3, edges=[(0, 0), (0, 1), (1, 0), (1, 2)])
    assert t.edges == frozenset({(0, 1), (1, 2)})


def test_lazy_metropolis_path2():
    w = lazy_metropolis_weights(build_topology("path", 2))
    assert np.array_equal(w.entries, np.array([[0.75, 0.25], [0.25, 0.75]]))


def test_lazy_metropolis_complete3():
    w = lazy_metropolis_weights(build_topology("complete", 3)).entries
    off = np.array([w[0, 1], w[0, 2], w[1, 2]])
    assert np.allclose(off, 1 / 6, atol=1e-15)
    assert np.allclose(np.diag(w), 2 / 3, atol=1e-15)


def test_lazy_metropolis_path3():
    # degrees (1, 2, 1): edge weights 1/3 -> lazy 1/6; end diagonals 5/6, middle 2/3
    w = lazy_metropolis_weights(build_topology("path", 3)).entries
    assert w[0, 1] == pytest.approx(1 / 6, abs=1e-15)
    assert w[1, 2] == pytest.approx(1 / 6, abs=1e-15)
    assert w[0, 0] == pytest.approx(5 / 6, abs=1e-15)
    assert w[2, 2] == pytest.approx(5 / 6, abs=1e-15)
    assert w[1, 1] == pytest.approx(2 / 3, abs=1e-15)
    assert w[0, 2] == 0.0


def test_single_node():
    w = lazy_metropolis_weights(build_topology("complete", 1))
    assert np.array_equal(w.entries, np.array([[1.0]]))
    assert w.lam == 0.0


@pytest.mark.parametrize("topo", SUITE, ids=lambda t: f"{t.kind}{t.n}")
def test_mixing_invariants(topo):
    mix = lazy_metropolis_weights(topo)
    w = mix.entries
    n = topo.n
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
    assert (np.diag(w) > 0).all()
    assert (w >= 0).all()
    assert np.array_equal(w, w.T)
    # zero wherever the topology has no edge
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in topo.edges:
                assert w[i, j] == 0.0
    assert np.abs(w @ np.ones(n) - 1.0).max() <= 1e-12
    assert np.abs(np.ones(n) @ w - 1.0).max() <= 1e-12
    assert 0.0 <= mix.lam < 1.0
    rep = validate_mixing(w)
    assert rep.nonnegative and rep.rows_stochastic and rep.cols_stochastic
    assert rep.positive_diagonal and rep.primitive


def test_spectral_exact_averaging_matrix():
    for n in (2, 5, 9):
        lam, gap = spectral_quantities(np.full((n, n), 1.0 / n))
        assert lam == 0.0 and gap == 1.0


def test_spectral_path2_half():
    # eigenvalues of [[.75,.25],[.25,.75]] are {1, 0.5}
    lam, gap = spectral_quantities(lazy_metropolis_weights(build_topology("path", 2)).entries)
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert gap == pytest.approx(0.5, abs=1e-12)


def test_spectral_permutation_invariance():
    rng = np.random.default_rng(42)
    w = lazy_metropolis_weights(build_topology("exponential", 10)).entries
    lam, _ = spectral_quantities(w)
    for _ in range(5):
        perm = rng.permutation(10)
        pw = w[np.ix_(perm, perm)]
        lam_p, _ = spectral_quantities(pw)
        assert lam_p == pytest.approx(lam, abs=1e-12)


def test_spectral_nonsquare_rejected():
    with pytest.raises(ValueError):
        spectral_quantities(np.ones((2, 3)))
    with pytest.raises(ValueError):
        validate_mixing(np.ones((2, 3)))


def test_validate_identity_fails_primitivity():
    rep = validate_mixing(np.eye(2))
    assert not rep.primitive
    assert rep.positive_diagonal and rep.rows_stochastic and rep.cols_stochastic


def test_validate_antidiagonal_fails_positive_diagonal():
    rep = validate_mixing(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not rep.positive_diagonal


def test_validate_ring4_passes():
    rep = validate_mixing(lazy_metropolis_weights(build_topology("ring", 4)).entries)
    assert rep.nonnegative and rep.rows_stochastic and rep.cols_stochastic
    assert rep.positive_diagonal and rep.primitive


@pytest.mark.parametrize("topo", SUITE, ids=lambda t: f"{t.kind}{t.n}")
def test_contraction_property(topo):
    # ||W x - J x|| <= lambda ||x - J x|| for the Kronecker-lifted mix
    mix = lazy_metropolis_weights(topo)
    rng = np.random.default_rng(7)
    p = 3
    for _ in range(100):
        X = rng.normal(size=(topo.n, p))
        Xbar = X.mean(axis=0)
        lhs = np.linalg.norm(mix.entries @ X - Xbar)
        rhs = mix.lam * np.linalg.norm(X - Xbar)
        assert lhs <= rhs + 1e-9


def test_edge_list_roundtrip():
    t = build_topology("grid", 6, rows=2, cols=3)
    buf = io.StringIO()
    write_edge_list(t, buf)
    back = read_edge_list(io.StringIO(buf.getvalue()))
    assert back.n == t.n
    assert back.edges == t.edges


def path_targets(tmp_path, name):
    """The same target as a str, a pathlib.Path and a gzip path."""
    return [str(tmp_path / name), tmp_path / f"p-{name}", tmp_path / f"{name}.gz"]


def read_text(path):
    path = Path(path)
    with gzip.open(path, "rt") if path.suffix == ".gz" else open(path) as f:
        return f.read()


def test_edge_list_file_roundtrip(tmp_path):
    t = build_topology("ring", 5)
    for path in path_targets(tmp_path, "ring.edges"):
        write_edge_list(t, path)
        text = read_text(path).splitlines()
        assert text[0] == "5"
        assert read_edge_list(path).edges == t.edges


def test_edge_list_parse_errors():
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO(""))
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("abc\n"))
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("3\n0 1 2\n"))


@pytest.mark.parametrize("line", ["1 x", "1 2.0"])
def test_edge_list_non_integer_node_names_its_line(line):
    with pytest.raises(ValueError, match=f"^line 3: expected 'i j', got '{line}'$"):
        read_edge_list(io.StringIO(f"3\n0 1\n{line}\n"))


def test_weights_csv_roundtrip(tmp_path):
    w = lazy_metropolis_weights(build_topology("ring", 4)).entries
    for path in path_targets(tmp_path, "w.csv"):
        write_weights_csv(w, path)
        rows = [[float(v) for v in line.split(",")] for line in read_text(path).splitlines()]
        assert np.array_equal(np.array(rows), w)


def test_topology_validates_on_construction():
    with pytest.raises(ValueError):
        Topology(kind="custom", n=4, edges=frozenset({(0, 1)}))  # disconnected
    with pytest.raises(ValueError):
        Topology(kind="custom", n=2, edges=frozenset({(1, 0)}))  # non-canonical


def test_mixing_matrix_spectral_gap():
    mix = lazy_metropolis_weights(build_topology("path", 2))
    assert isinstance(mix, MixingMatrix)
    assert mix.spectral_gap == pytest.approx(0.5, abs=1e-12)


def assert_weights_match_reference(topo):
    mix = lazy_metropolis_weights(topo)
    entries, lam = reference_metropolis(topo.n, topo.edges)
    assert mix.entries.tobytes() == entries.tobytes() and mix.lam == lam, (topo.kind, topo.n)


def test_network_layer_matches_the_per_edge_reference_loops():
    # array code against one-edge-at-a-time loops, byte for byte
    shapes = [(kind, n, None, None) for kind in ("complete", "ring", "path", "exponential")
              for n in range(1, 65)]
    shapes += [("grid", r * c, r, c) for r in range(1, 9) for c in range(1, 9)]
    for kind, n, rows, cols in shapes:
        topo = build_topology(kind, n, rows=rows, cols=cols)
        assert topo.edges == reference_edges(kind, n, rows, cols), (kind, n, rows, cols)
        assert_weights_match_reference(topo)
    rng = np.random.default_rng(20)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(1, 12))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2)).tolist()
        edges = {(min(i, j), max(i, j)) for i, j in pairs if i != j}
        connected = reference_connected(n, edges)
        outcomes.add(connected)
        if not connected:
            with pytest.raises(ValueError, match=f"^custom topology on {n} nodes is not connected$"):
                build_topology("custom", n, edges=pairs)
            continue
        topo = build_topology("custom", n, edges=pairs)
        assert topo.edges == edges
        assert_weights_match_reference(topo)
    assert outcomes == {True, False}
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(1, 7))
        w = rng.choice([0.0, 0.0, 0.5, -0.25, np.nan], size=(n, n))
        if rng.random() < 0.8:
            np.fill_diagonal(w, 0.5)
        primitive = reference_primitive(w)
        outcomes.add(primitive)
        assert validate_mixing(w).primitive == primitive, w
    assert outcomes == {True, False}
