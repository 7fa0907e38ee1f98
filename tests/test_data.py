import gzip
import hashlib
import io
import os
import threading
import warnings

import numpy as np
import pytest
import scipy.optimize

from decenopt import data
from decenopt.data import (RawDataset, pair_rule, parse_csv, parse_libsvm, prepare, sign_rule,
                           synthesize)
from decenopt.objective import LogisticProblem, QuadraticProblem
from helpers import dissimilarity_at, libsvm_text, node_minimizer


# ---------------------------------------------------------------------------
# libsvm parsing

def test_parse_libsvm_basic():
    ds = parse_libsvm(io.StringIO("1 1:0.5 3:2.0\n"), p=3)
    assert np.array_equal(ds.features, [[0.5, 0.0, 2.0]])
    assert ds.labels[0] == 1.0


def test_parse_libsvm_sparse_line():
    ds = parse_libsvm(io.StringIO("-1 2:1\n"), p=4)
    assert np.array_equal(ds.features, [[0.0, 1.0, 0.0, 0.0]])
    assert ds.labels[0] == -1.0


def test_parse_libsvm_empty_feature_list():
    ds = parse_libsvm(io.StringIO("1\n-1 1:3\n"))
    assert np.array_equal(ds.features, [[0.0], [3.0]])
    assert list(ds.labels) == [1.0, -1.0]


def test_parse_libsvm_infers_dimension():
    ds = parse_libsvm(io.StringIO("1 5:1\n-1 2:4\n"))
    assert ds.features.shape == (2, 5)


def test_parse_libsvm_errors_name_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_libsvm(io.StringIO("1 1:1\n1 0:5\n"))
    with pytest.raises(ValueError, match="line 1"):
        parse_libsvm(io.StringIO("abc 1:1\n"))
    with pytest.raises(ValueError, match="line 3"):
        parse_libsvm(io.StringIO("1 1:1\n-1 2:2\n1 a:b\n"))
    with pytest.raises(ValueError):
        parse_libsvm(io.StringIO("1 7:1\n"), p=3)  # index beyond declared dimension
    with pytest.raises(ValueError, match="^line 2: feature index 9{20} is too large$"):
        parse_libsvm(io.StringIO("1 1:1\n1 " + "9" * 20 + ":1\n"))


def test_parse_libsvm_duplicate_index_last_value_wins():
    ds = parse_libsvm(io.StringIO("1 2:1.5 1:4 2:-3 2:7.25\n-1 2:9 1:1\n"))
    assert np.array_equal(ds.features, [[4.0, 7.25], [1.0, 9.0]])


def test_parse_libsvm_skips_comments_and_blanks_but_counts_their_lines():
    text = "# header comment\n\n1 1:1\n   \n# another\n-1 2:2\n"
    ds = parse_libsvm(io.StringIO(text))
    assert np.array_equal(ds.features, [[1.0, 0.0], [0.0, 2.0]])
    assert list(ds.labels) == [1.0, -1.0]
    with pytest.raises(ValueError, match="^line 7: malformed feature 'x'$"):
        parse_libsvm(io.StringIO(text + "1 x\n"))
    with pytest.raises(ValueError, match="^line 5: label 'y' is not numeric$"):
        parse_libsvm(io.StringIO("# c\n\n1 1:1\n\ny 1:2\n"))


def test_libsvm_roundtrip():
    rng = np.random.default_rng(0)
    X = np.where(rng.random((20, 6)) < 0.4, rng.normal(size=(20, 6)), 0.0)
    X[3] = 0.0  # all-zero row survives the round trip
    y = rng.choice([-1.0, 1.0], size=20)
    ds = RawDataset(features=X, labels=y)
    back = parse_libsvm(io.StringIO(libsvm_text(ds)), p=6)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_parse_libsvm_gzip(tmp_path):
    path = tmp_path / "toy.libsvm.gz"
    with gzip.open(path, "wt") as f:
        f.write("1 1:2.5\n-1 2:1.5\n")
    ds = parse_libsvm(str(path))
    assert np.array_equal(ds.features, [[2.5, 0.0], [0.0, 1.5]])


# Block parsing: canonical blocks go through np.loadtxt, all others through the
# per-line reference loop, which must decide every outcome the same way.
NUMBERS = ["1", "-1", "0", "-0", "+2", ".5", "5.", "+.5e+3", "1e400", "-1e400", "4.9e-324",
           "2.5E-330", "007", "12345678901234567890.5e-3", "1.7976931348623157e308"]
VALID_ODD_LINES = [
    "# a comment", "", "   ", "\t", "1 2:3\r", "1 2:3\r4:5", "nan 1:2", "1 2:inf", "-inf 2:nan",
    "1_0 1:2", "1 1_0:2", "1 2:1_5", "1 +3:4", "1 " + "3".zfill(16) + ":1", "  -1 2:3", "1",
    "1 3:4 3:-5", "1 2:\u0663", "1\u00a02:3\u20034:5", "1\x0b2:3", "1 2:3 \x0c",
]
BAD_LINES = {
    "1 0:5": "line {n}: feature index 0 (indices are 1-based)",
    "1 00:5": "line {n}: feature index 0 (indices are 1-based)",
    "1 -3:5": "line {n}: feature index -3 (indices are 1-based)",
    "1 " + "9" * 20 + ":1": "line {n}: feature index " + "9" * 20 + " is too large",
    "1 x": "line {n}: malformed feature 'x'",
    "1 5 2:3": "line {n}: malformed feature '5'",
    "1:2 3:4": "line {n}: label '1:2' is not numeric",
    "1 :5": "line {n}: malformed feature ':5'",
    "1 3:": "line {n}: malformed feature '3:'",
    "1 1.5:2": "line {n}: malformed feature '1.5:2'",
    "1 1e2:3": "line {n}: malformed feature '1e2:3'",
    "1 2:3:4": "line {n}: malformed feature '2:3:4'",
    "1 2::4": "line {n}: malformed feature '2::4'",
    "1e 1:2": "line {n}: label '1e' is not numeric",
    "- 1:2": "line {n}: label '-' is not numeric",
    "1 2:.": "line {n}: malformed feature '2:.'",
    # each compensated by a token too many, so the count of numbers holds
    "1:2 3": "line {n}: label '1:2' is not numeric",
    "\t1:2 3": "line {n}: label '1:2' is not numeric",
    "1 3: 7": "line {n}: malformed feature '3:'",
    "1 :5 7": "line {n}: malformed feature ':5'",
    "\n1 2:3 7": "line {n}: malformed feature '7'",
    # a 16-digit index is not an exact float
    "1 9007199254740993:1": "feature index 9007199254740993 exceeds declared dimension 64",
}


def canonical_line(rng, features=None):
    count = int(rng.integers(0, 6)) if features is None else features
    gaps = [" ", "\t", "  ", " \t "]
    tokens = [str(rng.choice(NUMBERS)) if rng.random() < 0.3 else repr(float(rng.normal()))]
    for idx in rng.integers(1, 40, size=count):
        value = str(rng.choice(NUMBERS)) if rng.random() < 0.2 else repr(float(rng.normal()))
        tokens.append(f"{idx}:{value}")
    return "".join(tok + str(rng.choice(gaps)) for tok in tokens[:-1]) + tokens[-1] + \
        str(rng.choice(["", " ", "\t"]))


def libsvm_lines(rng, rows, odd=0.05):
    return [str(rng.choice(VALID_ODD_LINES)) if rng.random() < odd else canonical_line(rng)
            for _ in range(rows)]


def parsed(source, p=None):
    try:
        ds = parse_libsvm(source, p)
    except ValueError as exc:
        return str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes()


def reference(text, monkeypatch, p=None):
    """The per-line helper over the whole text, then parse_libsvm's dense fill."""
    with monkeypatch.context() as m:
        m.setattr(data, "_parse_canonical", lambda block: None)
        m.setattr(data, "LINE_BLOCK_CHARS", len(text) + 1)
        return parsed(io.StringIO(text), p)


@pytest.fixture
def small_blocks(monkeypatch):
    """LINE_BLOCK_CHARS at 60, noting for each block whether it took the fast path."""
    monkeypatch.setattr(data, "LINE_BLOCK_CHARS", 60)
    taken = []
    fast = data._parse_canonical

    def noted(block):
        rows = fast(block)
        taken.append(rows is not None)
        return rows

    monkeypatch.setattr(data, "_parse_canonical", noted)
    return taken


@pytest.mark.parametrize("seed", range(4))
def test_parse_libsvm_blocks_match_per_line_reference(seed, small_blocks, monkeypatch, tmp_path):
    rng = np.random.default_rng(seed)
    lines = libsvm_lines(rng, 300)
    lines.insert(int(rng.integers(0, 300)), canonical_line(rng, features=30))  # > a block
    text = "\n".join(lines) + str(rng.choice(["", "\n"]))    # maybe no newline at the end
    want = reference(text, monkeypatch)
    assert not isinstance(want, str)
    assert parsed(io.StringIO(text)) == want
    assert True in small_blocks and False in small_blocks
    # \r\n line ends, read through a StringIO (no translation) and from disk
    crlf = text.replace("\n", "\r\n")
    assert parsed(io.StringIO(crlf)) == reference(crlf, monkeypatch)
    path = tmp_path / "crlf.libsvm"
    path.write_bytes(crlf.encode())
    with open(path) as f:
        assert parsed(path) == reference(f.read(), monkeypatch)


@pytest.mark.parametrize("bad", sorted(BAD_LINES))
def test_parse_libsvm_blocks_raise_per_line_message(bad, small_blocks, monkeypatch):
    rng = np.random.default_rng(len(bad))
    lines = libsvm_lines(rng, 80)
    at = int(rng.integers(40, 80))
    lines.insert(at, bad)
    text = "\n".join(lines) + "\n"
    want = BAD_LINES[bad].format(n=at + 1 + bad.count("\n"))
    assert reference(text, monkeypatch, p=64) == want
    assert parsed(io.StringIO(text), p=64) == want


@pytest.mark.parametrize("kind", ["path", "gz", "file"])
def test_parse_libsvm_error_in_late_block_names_its_line(kind, small_blocks, tmp_path):
    early = ["# comments and blank lines fill the first blocks", "", "1 1:2", "   ", "# c"] * 20
    text = "\n".join(early + ["-1 2:3 4:5"] * 50 + ["1 2:3 7:x"] + ["1 1:1"] * 5) + "\n"
    path = tmp_path / ("data.libsvm.gz" if kind == "gz" else "data.libsvm")
    with gzip.open(path, "wt") if kind == "gz" else open(path, "w") as f:
        f.write(text)
    with pytest.raises(ValueError, match="^line 151: malformed feature '7:x'$"):
        if kind == "file":
            with open(path) as f:
                parse_libsvm(f)
        else:
            parse_libsvm(path)
    assert True in small_blocks and False in small_blocks


# ---------------------------------------------------------------------------
# the parse cache beside a LIBSVM file

CACHE_TEXT = "1 1:0.5 3:-1.25 3:2.0\n-1 2:1.5 4:0.25\n\n1\n-1 1:-0.75 2:0.5 5:3.0\n"


def compressed(raw):
    """A RawDataset's compressed arrays with their dtypes, and its dimension."""
    starts, cols, vals, p = raw._compressed
    return [(a.dtype, a.tobytes()) for a in (raw.labels, starts, cols, vals)] + [p]


def sidecar(path):
    return path.with_name(path.name + ".decenopt.npz")


@pytest.fixture
def parses(monkeypatch):
    """One entry per block parsed so far: every block is offered to _parse_canonical."""
    calls = []
    real = data._parse_canonical
    monkeypatch.setattr(data, "_parse_canonical", lambda block: calls.append(1) or real(block))
    return calls


def test_parse_cache_hit_equals_miss(tmp_path, parses):
    path = tmp_path / "data.libsvm"
    path.write_text(CACHE_TEXT)
    dense = {p: parse_libsvm(io.StringIO(CACHE_TEXT), p).features.tobytes() for p in (None, 7)}
    parses.clear()
    miss = parse_libsvm(path)
    assert parses and sorted(os.listdir(tmp_path)) == ["data.libsvm", sidecar(path).name]
    parses.clear()
    for source, p in ((path, None), (str(path), 7), (os.fsencode(path), None)):
        hit = parse_libsvm(source, p)
        assert compressed(hit)[:-1] == compressed(miss)[:-1]
        assert hit.p == (p or 5) and type(hit.p) is int
        assert hit.features.tobytes() == dense[p]
    assert compressed(parse_libsvm(path)) == compressed(miss) and miss.p == 5
    assert not parses


def test_parse_cache_skips_a_gz_file(tmp_path, parses):
    # a compressed file's parse can be many times its size: no sidecar
    path = tmp_path / "data.libsvm.gz"
    with gzip.open(path, "wt") as f:
        f.write(CACHE_TEXT)
    want = compressed(parse_libsvm(io.StringIO(CACHE_TEXT)))
    for _ in range(2):
        parses.clear()
        assert compressed(parse_libsvm(path)) == want
        assert parses
    assert os.listdir(tmp_path) == ["data.libsvm.gz"]


def test_parse_cache_hit_checks_declared_dimension(tmp_path, parses):
    path = tmp_path / "data.libsvm"
    path.write_text(CACHE_TEXT)
    message = "^feature index 5 exceeds declared dimension 4$"
    with pytest.raises(ValueError, match=message):
        parse_libsvm(path, p=4)                 # a miss, which still writes the parse
    assert sidecar(path).is_file()
    parses.clear()
    with pytest.raises(ValueError, match=message):
        parse_libsvm(path, p=4)
    assert not parses


def test_parse_cache_sees_an_edit_behind_the_same_size_and_mtime(tmp_path, parses):
    path = tmp_path / "data.libsvm"
    path.write_text(CACHE_TEXT)
    parse_libsvm(path)
    stamp = os.stat(path)
    edited = CACHE_TEXT.replace("1.5", "2.5")
    path.write_text(edited)
    os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (stamp.st_size, stamp.st_mtime_ns)
    parses.clear()
    assert compressed(parse_libsvm(path)) == compressed(parse_libsvm(io.StringIO(edited)))
    assert parses
    parses.clear()
    assert compressed(parse_libsvm(path)) == compressed(parse_libsvm(io.StringIO(edited)))
    assert len(parses) == 1                     # the text alone: the path hit the new sidecar


@pytest.mark.parametrize("spoil", ["truncate", "version"])
def test_parse_cache_ignores_and_rewrites_a_bad_sidecar(spoil, tmp_path, parses, monkeypatch):
    path = tmp_path / "data.libsvm"
    path.write_text(CACHE_TEXT)
    if spoil == "version":
        with monkeypatch.context() as m:
            m.setattr(data, "PARSE_CACHE_VERSION", data.PARSE_CACHE_VERSION + 1)
            parse_libsvm(path)
    else:
        parse_libsvm(path)
        whole = sidecar(path).read_bytes()
        sidecar(path).write_bytes(whole[:len(whole) // 2])
    spoiled = sidecar(path).read_bytes()
    parses.clear()
    assert compressed(parse_libsvm(path)) == compressed(parse_libsvm(io.StringIO(CACHE_TEXT)))
    assert len(parses) == 2                     # the path was parsed, like the text
    assert sidecar(path).read_bytes() != spoiled
    parses.clear()
    parse_libsvm(path)
    assert not parses
    assert sorted(os.listdir(tmp_path)) == ["data.libsvm", sidecar(path).name]


def test_parse_cache_unwritable_place_parses_silently(tmp_path, capsys, parses):
    path = tmp_path / "data.libsvm"
    path.write_text(CACHE_TEXT)
    sidecar(path).mkdir()                       # root ignores permission bits, not this
    want = compressed(parse_libsvm(io.StringIO(CACHE_TEXT)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            parses.clear()
            assert compressed(parse_libsvm(path)) == want
            assert parses
    assert sorted(os.listdir(tmp_path)) == ["data.libsvm", sidecar(path).name]
    assert os.listdir(sidecar(path)) == []
    assert capsys.readouterr() == ("", "")


def test_parse_cache_stamps_the_bytes_the_parser_read(tmp_path, monkeypatch, parses):
    # an edit after the parser's read leaves a sidecar true to what it read
    path = tmp_path / "data.libsvm"
    path.write_text(CACHE_TEXT)
    edited = CACHE_TEXT + "1 1:1\n"
    real = data._parse

    def racing(source):
        parsed = real(source)
        path.write_text(edited)
        return parsed

    with monkeypatch.context() as m:
        m.setattr(data, "_parse", racing)
        assert compressed(parse_libsvm(path)) == compressed(parse_libsvm(io.StringIO(CACHE_TEXT)))
    with np.load(sidecar(path)) as cached:
        assert cached["digest"] == hashlib.sha256(CACHE_TEXT.encode()).hexdigest()
    path.write_text(CACHE_TEXT)
    parses.clear()
    assert compressed(parse_libsvm(path)) == compressed(parse_libsvm(io.StringIO(CACHE_TEXT)))
    assert len(parses) == 1                     # the text alone: the file the parser read hits
    path.write_text(edited)
    parses.clear()
    assert compressed(parse_libsvm(path)) == compressed(parse_libsvm(io.StringIO(edited)))
    assert len(parses) == 2                     # the edited file is parsed, like its text


def test_parse_cache_threads_write_through_their_own_temporary_files(tmp_path, monkeypatch):
    path = tmp_path / "data.libsvm"
    path.write_text(CACHE_TEXT)
    want = compressed(parse_libsvm(io.StringIO(CACHE_TEXT)))
    both_parsed = threading.Barrier(2, timeout=10)
    real_parse, real_replace, temporaries = data._parse, os.replace, []

    def parse(source):
        parsed = real_parse(source)
        both_parsed.wait()                      # the two writes overlap
        return parsed

    def replace(src, dst):
        temporaries.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(data, "_parse", parse)
    monkeypatch.setattr(os, "replace", replace)
    results = [None, None]

    def call(k):
        results[k] = compressed(parse_libsvm(path))

    threads = [threading.Thread(target=call, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [want, want]
    assert len(set(temporaries)) == 2
    assert sorted(os.listdir(tmp_path)) == ["data.libsvm", sidecar(path).name]


def test_parse_cache_not_written_for_a_file_object(tmp_path):
    path = tmp_path / "data.libsvm"
    path.write_text(CACHE_TEXT)
    with open(path) as f:
        assert parse_libsvm(f).p == 5
    assert os.listdir(tmp_path) == ["data.libsvm"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_parse_cache_reads_a_pipe_once(tmp_path):
    path = tmp_path / "data.fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(CACHE_TEXT,))
    writer.start()
    raw = parse_libsvm(path)
    writer.join()
    assert compressed(raw) == compressed(parse_libsvm(io.StringIO(CACHE_TEXT)))
    assert os.listdir(tmp_path) == ["data.fifo"]


def test_parse_cache_malformed_file_raises_every_time_and_writes_nothing(tmp_path):
    path = tmp_path / "data.libsvm"
    path.write_text(CACHE_TEXT + "1 2:3 7:x\n")
    for _ in range(2):
        with pytest.raises(ValueError, match="^line 6: malformed feature '7:x'$"):
            parse_libsvm(path)
    assert os.listdir(tmp_path) == ["data.libsvm"]


# ---------------------------------------------------------------------------
# csv parsing

def test_parse_csv_basic():
    ds = parse_csv(io.StringIO("a,b,label\n0.5,1.0,1\n-0.5,0.0,-1\n"))
    assert np.array_equal(ds.features, [[0.5, 1.0], [-0.5, 0.0]])
    assert list(ds.labels) == [1.0, -1.0]


def test_parse_csv_errors():
    with pytest.raises(ValueError, match="line 3"):
        parse_csv(io.StringIO("a,b\n1,1\n1,2,3\n"))
    with pytest.raises(ValueError, match="line 2"):
        parse_csv(io.StringIO("a,b\nx,1\n"))
    with pytest.raises(ValueError):
        parse_csv(io.StringIO("a,b\n"))


def test_parse_csv_errors_count_blank_lines():
    with pytest.raises(ValueError, match="^line 4: expected 2 columns, got 1$"):
        parse_csv(io.StringIO("a,b\n1,2\n\n3\n"))
    with pytest.raises(ValueError, match="^line 5: non-numeric value$"):
        parse_csv(io.StringIO("\n\na,b\n1,2\nx,1\n"))
    ds = parse_csv(io.StringIO("\na,b\n\n1,2\n\n3,4\n"))
    assert np.array_equal(ds.features, [[1.0], [3.0]]) and list(ds.labels) == [2.0, 4.0]


def test_parse_csv_gzip(tmp_path):
    path = tmp_path / "toy.csv.gz"
    with gzip.open(path, "wt") as f:
        f.write("f1,f2,y\n1.5,0.0,1\n")
    ds = parse_csv(str(path))
    assert np.array_equal(ds.features, [[1.5, 0.0]])


@pytest.mark.parametrize("parse, text, features",
                         [(parse_libsvm, "1 1:2.5\n-1 2:1.5\n", [[2.5, 0.0], [0.0, 1.5]]),
                          (parse_csv, "f1,f2,y\n2.5,0.0,1\n", [[2.5, 0.0]])],
                         ids=["libsvm", "csv"])
def test_parsers_read_path_like_sources(tmp_path, parse, text, features):
    path = tmp_path / "toy.txt"
    path.write_text(text)
    for source in (path, str(path), os.fsencode(path)):
        assert np.array_equal(parse(source).features, features)


# ---------------------------------------------------------------------------
# label rules

def test_label_rules():
    assert sign_rule(3.0) == 1 and sign_rule(-2.0) == -1 and sign_rule(0.0) == -1
    rule = pair_rule(0, 3)
    assert rule(0) == 1 and rule(3) == -1 and rule(5) is None


# ---------------------------------------------------------------------------
# prepare

def toy_raw(N=10, p=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N, p))
    y = rng.choice([-1.0, 1.0], size=N)
    return RawDataset(features=X, labels=y)


def test_prepare_shapes_and_surplus():
    ds, part = prepare(toy_raw(10), n=3, seed=1)
    assert ds.n == 3 and ds.m == 3
    assert part.node_indices.shape == (3, 3)
    assert part.dropped_surplus == 1
    assert np.unique(part.node_indices).size == 9


def test_prepare_unit_norms():
    ds, _ = prepare(toy_raw(12), n=2, seed=2)
    norms = np.linalg.norm(ds.features, axis=2)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_prepare_deterministic_and_seed_sensitive():
    raw = toy_raw(24)
    _, p1 = prepare(raw, n=4, seed=7)
    _, p2 = prepare(raw, n=4, seed=7)
    _, p3 = prepare(raw, n=4, seed=8)
    assert np.array_equal(p1.node_indices, p2.node_indices)
    assert not np.array_equal(p1.node_indices, p3.node_indices)


def test_prepare_drops_zero_vectors_with_warning():
    raw = toy_raw(9)
    X = raw.features.copy()
    X[4] = 0.0
    raw = RawDataset(features=X, labels=raw.labels)
    with pytest.warns(UserWarning, match="zero feature"):
        ds, part = prepare(raw, n=2, seed=3)
    assert part.dropped_zero == 1
    assert 4 not in part.node_indices
    assert ds.m == 4


def test_prepare_label_rule_drop_and_errors():
    raw = RawDataset(features=np.ones((6, 2)), labels=np.array([0, 3, 0, 3, 7, 7.0]))
    ds, part = prepare(raw, n=2, seed=4, label_rule=pair_rule(0, 3))
    assert ds.m == 2
    assert set(np.unique(ds.labels)) == {-1.0, 1.0}
    with pytest.raises(ValueError, match="usable samples"):
        prepare(raw, n=5, seed=4, label_rule=pair_rule(0, 3))


def test_prepare_single_class_warns():
    raw = RawDataset(features=np.random.default_rng(5).normal(size=(6, 2)),
                     labels=np.ones(6))
    with pytest.warns(UserWarning, match="single class"):
        prepare(raw, n=2, seed=5)


def test_prepare_rejects_bad_rule():
    raw = toy_raw(6)
    with pytest.raises(ValueError, match="label rule"):
        prepare(raw, n=2, seed=6, label_rule=lambda label: 2)


def test_prepare_calls_rule_once_per_distinct_label_in_file_order():
    labels = np.array([5.0, 7.0, 3.0, 7.0, 5.0, 3.0])
    raw = RawDataset(features=np.ones((6, 2)), labels=labels)
    calls = []
    rule = {5.0: 1, 7.0: -1, 3.0: None}
    ds, part = prepare(raw, n=2, seed=6, label_rule=lambda y: calls.append(y) or rule[y])
    assert calls == [5.0, 7.0, 3.0]
    assert sorted(part.node_indices.ravel()) == [0, 1, 3, 4]
    # the first sample in file order with an invalid value names it, not the smallest label
    bad = {5.0: 1, 7.0: "seven", 3.0: "three"}
    with pytest.raises(ValueError, match="^label rule must map to \\+1, -1 or None, got 'seven'$"):
        prepare(raw, n=2, seed=6, label_rule=lambda y: bad[y])


def test_prepare_rejects_a_nan_label_before_the_rule_sees_it():
    raw = toy_raw(8)
    raw.labels[[3, 6]] = np.nan
    calls = []
    with pytest.raises(ValueError, match="^sample 3 \\(0-based, in file order\\) has a NaN label$"):
        prepare(raw, n=2, seed=6, label_rule=lambda y: calls.append(y) or 1)
    assert calls == []
    # the sign rule would have read it as class -1
    raw = parse_libsvm(io.StringIO("nan 1:1\n1 1:2\n-1 2:1\n1 2:2\n"))
    with pytest.raises(ValueError, match="^sample 0 \\(0-based, in file order\\) has a NaN label$"):
        prepare(raw, n=2, seed=0)


def test_prepare_rejects_bad_arguments():
    with pytest.raises(ValueError, match="^node count must be positive$"):
        prepare(toy_raw(8), n=0, seed=1)
    # LogisticDataset's own error, passed on as it is
    with pytest.raises(ValueError, match="^regularization weight must be nonnegative$"):
        prepare(toy_raw(8), n=2, seed=1, reg=-1.0)


def test_prepare_max_samples_cap():
    ds, part = prepare(toy_raw(30), n=3, seed=9, max_samples=12)
    assert ds.m == 4
    assert part.node_indices.size == 12


@pytest.mark.parametrize("cap", [0, -1])
def test_prepare_max_samples_below_one_is_an_error(cap):
    # -1 would otherwise slice off the last shuffled sample and carry on
    with pytest.raises(ValueError, match=f"^max_samples must be at least 1, got {cap}$"):
        prepare(toy_raw(30), n=3, seed=9, max_samples=cap)


def test_prepare_names_the_sample_that_cannot_be_unit_normalized():
    # squares of 1e-160 are subnormal, not zero: the row is kept, and its norm
    # is too coarse to scale it to unit length; those of 1e-155 are not
    ok, _ = prepare(parse_libsvm(io.StringIO("1 1:1e-155\n-1 1:1\n1 2:1\n-1 2:2\n")), 2, seed=0)
    assert np.abs(np.linalg.norm(ok.features, axis=2) - 1.0).max() <= 1e-9
    message = "^sample {} \\(0-based, in file order\\) cannot be unit-normalized$"
    with pytest.raises(ValueError, match=message.format(0)):
        prepare(parse_libsvm(io.StringIO("1 1:1e-160\n-1 1:1\n1 2:1\n-1 2:2\n")), 2, seed=0)
    # counted in file order, past a dropped zero row
    raw = parse_libsvm(io.StringIO("1 1:0\n1 1:1e-155\n-1 1:1\n1 2:1e-160\n-1 2:2\n"))
    with pytest.warns(UserWarning, match="zero feature"), \
            pytest.raises(ValueError, match=message.format(3)):
        prepare(raw, 2, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prepare_names_a_sample_with_a_non_finite_feature(bad):
    raw = toy_raw(12)
    raw.features[5, 2] = bad
    with pytest.raises(ValueError, match="^sample 5 \\(0-based, in file order\\) cannot be "
                                         "unit-normalized$"):
        prepare(raw, n=3, seed=9)


# ---------------------------------------------------------------------------
# synthesize

def test_synthesize_homogeneous_quadratic_no_dissimilarity():
    prob = synthesize("homogeneous", 4, 5, 3, seed=10)
    rng = np.random.default_rng(11)
    for _ in range(5):
        assert dissimilarity_at(prob, rng.normal(size=3)) <= 1e-28


def test_synthesize_heterogeneous_quadratic_has_dissimilarity():
    prob = synthesize("heterogeneous", 4, 5, 3, seed=12)
    assert dissimilarity_at(prob, np.zeros(3)) > 1e-4


def test_equal_weight_quadratic_optimum_at_mean_of_node_minimizers():
    rng = np.random.default_rng(13)
    centers = rng.normal(size=(5, 3, 2))
    prob = QuadraticProblem(np.ones((5, 3, 2)), centers)
    node_mins = np.stack([node_minimizer(prob, i) for i in range(5)])
    assert np.allclose(prob.minimizer(), node_mins.mean(axis=0), atol=1e-13)
    assert np.allclose(prob.minimizer(), centers.mean(axis=(0, 1)), atol=1e-13)


def test_synthesized_optimum_matches_numerical_minimizer():
    prob = synthesize("heterogeneous", 3, 4, 3, seed=14)
    res = scipy.optimize.minimize(prob.full_value, np.zeros(3), jac=prob.full_gradient,
                                  method="L-BFGS-B", tol=1e-14)
    assert abs(prob.optimal_value() - res.fun) <= 1e-8
    assert prob.optimal_value() <= res.fun + 1e-12


def test_synthesize_logistic_shapes_and_labels():
    prob = synthesize("heterogeneous", 3, 10, 4, seed=15, family="logistic")
    assert isinstance(prob, LogisticProblem)
    d = prob.dataset
    assert d.features.shape == (3, 10, 4)
    assert np.abs(np.linalg.norm(d.features, axis=2) - 1.0).max() <= 1e-12
    assert set(np.unique(d.labels)) <= {-1.0, 1.0}
    assert dissimilarity_at(prob, np.zeros(4)) > 0


def test_synthesize_logistic_homogeneous():
    prob = synthesize("homogeneous", 4, 6, 3, seed=16, family="logistic")
    x = np.random.default_rng(17).normal(size=3)
    assert dissimilarity_at(prob, x) <= 1e-28


def test_synthesize_determinism():
    a = synthesize("heterogeneous", 3, 4, 2, seed=18)
    b = synthesize("heterogeneous", 3, 4, 2, seed=18)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.curvatures, b.curvatures)


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize("lumpy", 2, 2, 2, seed=0)
    with pytest.raises(ValueError):
        synthesize("homogeneous", 0, 2, 2, seed=0)
    with pytest.raises(ValueError):
        synthesize("homogeneous", 2, 2, 2, seed=0, family="cubic")


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
@pytest.mark.parametrize("key, value", [("heterogeneity", np.nan), ("heterogeneity", np.inf),
                                        ("reg", np.nan), ("reg", -np.inf)])
def test_synthesize_rejects_non_finite_numbers(family, key, value):
    # checked whether or not the family or kind reads the value
    for kind in ("homogeneous", "heterogeneous"):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
            synthesize(kind, 2, 3, 2, seed=0, family=family, **{key: value})
