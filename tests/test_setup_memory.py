"""Set-up builds one copy of the features, with the same bytes as before.

The hashes pin ``features.tobytes() + labels.tobytes()`` (curvatures and
centers for quadratics) as the straightforward out-of-place code produced
them, so an in-place rewrite of synthesize, parse_libsvm or prepare that
moves one bit fails here. The memory bounds use tracemalloc, to which
numpy reports every array buffer: each is the traced peak of one call over
the bytes of the features it returns, free of allocator and host noise.
The def33_term bound is over its stacked full gradient's (n, r, m)
coefficient array instead.
"""

import hashlib
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from decenopt import data
from decenopt.data import RawDataset, pair_rule, parse_libsvm, prepare, synthesize
from decenopt.engine import def33_term
from helpers import libsvm_text

# two classes, one zero row (line 5), one duplicate index (line 2: 3:2.0 wins)
FIXED_LIBSVM = ("# two classes, one zero row, one duplicate index\n"
                "1 1:0.5 3:-1.25 3:2.0\n"
                "-1 2:1.5 4:0.25\n"
                "\n"
                "1\n"
                "-1 1:-0.75 2:0.5 5:3.0\n"
                "1 4:1.0 1:2.0\n"
                "-1 3:0.125 5:-0.5\n"
                "1 2:-2.0 3:1.0\n")


def sha256(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("family, kind, digest", [
    ("logistic", "homogeneous", "4bb23509eeb351af52949e65a2ea0917fa7a4bdda2122e3ce56a80ddef110c47"),
    ("logistic", "heterogeneous", "c81cd2589d8cfc5010bba373b68ed3b946b69dd724c318c2faea6552c125194b"),
    ("quadratic", "homogeneous", "8ead4f0019070674538aa905c9437b39ab1aeb1addc1be4c40cfe4ed4973661e"),
    ("quadratic", "heterogeneous", "77e1139da290a1514bdaf2618c93b3afa1f5a098f83972d1b5869678ead82fcf"),
])
def test_synthesize_bytes_pinned(family, kind, digest):
    problem = synthesize(kind, 4, 50, 40, seed=11, family=family)
    if family == "logistic":
        arrays = problem.dataset.features, problem.dataset.labels
    else:
        arrays = problem.curvatures, problem.centers
    assert sha256(*arrays) == digest


def test_parse_and_prepare_bytes_pinned(tmp_path):
    path = tmp_path / "fixed.libsvm"
    path.write_text(FIXED_LIBSVM)
    raw = parse_libsvm(path)
    assert raw.features.shape == (7, 5)
    assert sha256(raw.features, raw.labels) == \
        "9c31f3c039caeb4ec66b688526ad07a72e5a54ce2e7f7d356461a2b26d77639e"
    with pytest.warns(UserWarning, match="dropping 1 zero feature vectors"):
        dataset, part = prepare(raw, 2, seed=5)
    assert (dataset.features.shape, part.dropped_zero) == ((2, 3, 5), 1)
    assert sha256(dataset.features, dataset.labels) == \
        "f59518089b87b5f8a82328aa13dde0900392c16e8de2a3592d33905254ad70c3"


def prepared(raw, n, **kwargs):
    """prepare's outputs and warnings as bytes and values, or its error message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            dataset, part = prepare(raw, n, **kwargs)
        except ValueError as exc:
            return str(exc)
    return (dataset.features.shape, dataset.features.tobytes(), dataset.labels.tobytes(),
            part.node_indices.shape, part.node_indices.tobytes(), part.dropped_surplus,
            part.dropped_zero, [(w.category, str(w.message)) for w in caught])


@pytest.mark.parametrize("text, p, n, kwargs", [
    (FIXED_LIBSVM, None, 2, {}),
    (FIXED_LIBSVM, 9, 3, {}),                                   # p wider than the largest index
    (FIXED_LIBSVM, None, 2, {"max_samples": 5}),
    ("1 1:2 2:3 2:0\n-1 2:4 2:0\n1 1:-1\n-1 2:1 1:0.5\n", None, 2, {}),  # last value 0 wins
    ("1 3:1e-200\n-1 1:1\n1 2:1e-200 1:1e-170\n-1 2:2\n1 1:3\n", None, 2, {}),  # squares underflow
    ("1\n-1 1:1\n1\n-1 2:1\n1 1:1 2:1\n", None, 2, {}),       # label-only lines
    ("1 1:1\n2 2:1\n3 1:2\n1 2:2\n3 1:3\n2 1:1 2:1\n", None, 2,
     {"label_rule": pair_rule(1, 2)}),                          # 3 is dropped
    ("1 1:1\n-1 2:1\n", None, 3, {}),                           # too few samples
], ids=["fixed", "wide-p", "max-samples", "last-zero", "underflow", "label-only", "pair",
        "too-few"])
def test_prepare_on_compressed_rows_equals_dense(text, p, n, kwargs, monkeypatch):
    raw = parse_libsvm(io.StringIO(text), p)
    dense = RawDataset(features=raw.features, labels=raw.labels)
    assert raw.features is not raw.features             # built on access, never kept
    for seed, scan in ((0, data.ZERO_SCAN_BYTES), (1, 16), (2, 100)):   # 1 or a few rows a block
        monkeypatch.setattr(data, "ZERO_SCAN_BYTES", scan)
        assert prepared(raw, n, seed=seed, **kwargs) == prepared(dense, n, seed=seed, **kwargs)
    rng = np.random.default_rng(0)
    for index in (rng.integers(0, raw.N, size=7), np.arange(raw.N)[::-1], np.arange(0),
                  slice(1, 4), slice(None), slice(raw.N, None)):
        assert raw.rows(index).tobytes() == dense.rows(index).tobytes()


def traced_peak(build):
    """(result of build(), peak bytes traced while it ran).

    build runs once untraced first, so lazy imports and first-call caches
    are not counted.
    """
    build()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, bound", [("heterogeneous", 1.6), ("homogeneous", 1.3)])
def test_synthesize_peak_memory(kind, bound):
    problem, peak = traced_peak(lambda: synthesize(kind, 8, 500, 64, seed=0, family="logistic"))
    ratio = peak / problem.dataset.features.nbytes
    assert ratio <= bound


def raw_set(N=4000, p=50, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((N, p)) < density, rng.normal(size=(N, p)), 0.0)
    return RawDataset(features=X, labels=rng.choice([-1.0, 1.0], size=N))


def test_prepare_peak_memory():
    raw = raw_set()
    (dataset, _), peak = traced_peak(lambda: prepare(raw, 8, seed=0))
    ratio = peak / dataset.features.nbytes
    assert ratio <= 1.3


def parse_afresh(path):
    """parse_libsvm(path) as a cache miss: it parses and writes the sidecar."""
    path.with_name(path.name + ".decenopt.npz").unlink(missing_ok=True)
    return parse_libsvm(path)


def test_parse_libsvm_peak_memory(tmp_path):
    path = tmp_path / "raw.libsvm"
    path.write_text(libsvm_text(raw_set()))     # a path: a StringIO would hold the text too
    raw, peak = traced_peak(lambda: parse_afresh(path))
    assert raw.features.shape == (4000, 50)
    ratio = peak / raw.features.nbytes
    assert ratio <= 2.5


def test_parse_and_prepare_peak_memory(tmp_path):
    # the compressed rows, the dealt features and one node block's temporaries:
    # no file-order dense matrix beside the node-ordered one
    path = tmp_path / "raw.libsvm"
    path.write_text(libsvm_text(raw_set(N=8000, p=100, density=0.2)))
    (dataset, _), peak = traced_peak(lambda: prepare(parse_afresh(path), 16, seed=0))
    assert dataset.features.shape == (16, 500, 100)
    ratio = peak / dataset.features.nbytes
    assert ratio <= 1.8


def test_def33_term_peak_memory():
    # one node-major full_gradient call on all 16 distinct rows: its (n, r, m)
    # coefficient array plus temporaries for one node's (r, m) block
    problem = synthesize("heterogeneous", 16, 1000, 100, seed=0, family="logistic")
    X = np.random.default_rng(1).normal(size=(16, 100))
    _, peak = traced_peak(lambda: def33_term(problem, X))
    ratio = peak / (problem.n * X.shape[0] * problem.m * 8)
    assert ratio <= 1.5


def test_parse_cache_hit_peak_memory_within_the_miss(tmp_path):
    # a hit loads the stored arrays in place of the parse buffers and np.loadtxt's
    path = tmp_path / "raw.libsvm"
    path.write_text(libsvm_text(raw_set(N=8000, p=100, density=0.2)))
    missed, miss_peak = traced_peak(lambda: parse_afresh(path))
    hit, hit_peak = traced_peak(lambda: parse_libsvm(path))
    assert hit.features.tobytes() == missed.features.tobytes()
    assert hit_peak <= miss_peak
