"""Dataset ingestion and synthetic problem generators.

LIBSVM ("label idx:val ...", 1-based indices) and CSV (header row, last
column label) readers make a RawDataset of compressed and dense rows;
``prepare`` binarizes labels, unit-normalizes features and deals samples
evenly across nodes. ``synthesize`` builds self-contained problems with
known structure for oracle testing and experiments that need exact optima.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import threading
import warnings
import zipfile
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .objective import LogisticDataset, LogisticProblem, QuadraticProblem
from .streams import substream


class RawDataset:
    """Feature rows (N, p) with raw (pre-binarization) labels (N,).

    The rows are dense, ``RawDataset(features=X, labels=y)``, or compressed
    as ``parse_libsvm`` reads them: ``RawDataset(labels=y, compressed=(starts,
    cols, vals, p))``, where row k's 0-based columns and values are
    ``cols[starts[k]:starts[k + 1]]`` and ``vals[...]`` in file order, so
    the last value for a repeated column wins. ``features`` and ``rows``
    give the same dense bytes in either form; for compressed rows they are
    built on each access, never kept.
    """

    def __init__(self, features=None, labels=None, *, compressed=None):
        self.labels = labels
        self._dense = features
        self._compressed = compressed

    @property
    def N(self) -> int:
        return len(self.labels)

    @property
    def p(self) -> int:
        return self._dense.shape[1] if self._dense is not None else self._compressed[3]

    @property
    def features(self) -> np.ndarray:
        return self._dense if self._dense is not None else self.rows(slice(None))

    def rows(self, index) -> np.ndarray:
        """Dense rows (k, p) by a 1-D index array or a slice."""
        if self._dense is not None:
            return self._dense[index]
        starts, cols, vals, p = self._compressed
        first = starts[:-1][index]
        counts = starts[1:][index] - first
        # each selected nonzero's place in cols and vals, row by row in file order
        at = np.repeat(first - (np.cumsum(counts) - counts), counts)
        at += np.arange(at.size)
        out = np.zeros((first.size, p))
        # assignment runs in order, so a line's last value for a repeated index wins
        out[np.repeat(np.arange(first.size), counts), cols[at]] = vals[at]
        return out


@contextmanager
def _open_text(target, mode="r"):
    """The text file behind a path-or-file argument, for reading or writing.

    An open file object is used as it is and left open. A str, bytes or
    os.PathLike path is opened, as gzip text if it ends in ``.gz``, and
    closed on exit.
    """
    if hasattr(target, "read") or hasattr(target, "write"):
        yield target
        return
    path = os.fsdecode(target)
    with gzip.open(path, mode + "t") if path.endswith(".gz") else open(path, mode) as f:
        yield f


# LIBSVM text parsed at a time, plus a line carried over. 64 K was about as
# fast but left about 0.6 MB more of the C heap in use after parsing.
LINE_BLOCK_CHARS = 32 * 1024

# byte classes of the canonical form: 0 is any other byte
_DIGIT, _NUMBER, _SPACE, _COLON, _NEWLINE = 1, 2, 3, 4, 5
_CLASSES = bytearray(256)
for _cls, _chars in ((_DIGIT, b"0123456789"), (_NUMBER, b".eE+-"), (_SPACE, b" \t"),
                     (_COLON, b":"), (_NEWLINE, b"\n")):
    for _char in _chars:
        _CLASSES[_char] = _cls
_CLASSES = bytes(_CLASSES)
_TO_SPACES = bytes.maketrans(b"\t:\n", b"   ")


def parse_libsvm(source, p: int | None = None) -> RawDataset:
    """Parse sparse LIBSVM text into compressed rows.

    Dimension is the largest index seen unless ``p`` is declared. Raises
    ValueError naming the offending line for malformed input; index 0 is
    rejected (the format is 1-based). A plain file's parse is kept in
    ``<source>.decenopt.npz``, stamped with the SHA-256 of the bytes parsed
    and PARSE_CACHE_VERSION: matching stamps load it, others are parsed
    over. It is skipped silently where it cannot be written, and for
    ``.gz`` files; deleting it is always safe. There is deliberately no
    switch: a hit returns exactly what a parse would.
    """
    labels, starts, cols, vals, max_idx = _parse_cached(source)
    dim = p if p is not None else max_idx
    if max_idx > dim:
        raise ValueError(f"feature index {max_idx} exceeds declared dimension {dim}")
    return RawDataset(labels=labels, compressed=(starts, cols, vals, dim))


# Bump whenever _parse's output changes, so the sidecars of older code are parsed over.
PARSE_CACHE_VERSION = 1
_PARSED = ("labels", "starts", "cols", "vals", "max_idx")


def _parse_cached(source):
    """_parse(source), through its sidecar when source is a plain regular file's path."""
    path = None if hasattr(source, "read") else os.fsdecode(source)
    if path is None or path.endswith(".gz") or not os.path.isfile(path):
        return _parse(source)                   # read once; a .gz parse is many times its file
    sidecar = path + ".decenopt.npz"
    with suppress(OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile), \
            np.load(sidecar) as cached:         # missing, stale or unreadable: parse
        if cached["version"] == PARSE_CACHE_VERSION and cached["digest"] == _digest(path):
            return tuple(cached[key] for key in _PARSED[:-1]) + (int(cached["max_idx"]),)
    with open(path, "rb") as f:
        hashed = _Hashed(f)                     # the sidecar stands for the bytes parsed
        with io.TextIOWrapper(io.BufferedReader(hashed)) as text:
            parsed = _parse(text)
    temporary = f"{sidecar}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(temporary, "wb") as f:
            np.savez(f, version=PARSE_CACHE_VERSION, digest=hashed.sha256.hexdigest(),
                     **dict(zip(_PARSED, parsed)))
        os.replace(temporary, sidecar)
    except OSError:                             # an unwritable place: no sidecar
        with suppress(OSError):
            os.remove(temporary)
    return parsed


class _Hashed(io.RawIOBase):
    """A binary file read through SHA-256: the digest is of exactly the bytes read."""

    def __init__(self, f):
        self.f, self.sha256 = f, hashlib.sha256()

    def readable(self):
        return True

    def readinto(self, buffer):
        n = self.f.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n


def _digest(path):
    """Hex SHA-256 of a file's bytes, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(256 * 1024):
            digest.update(chunk)
    return digest.hexdigest()


def _parse(source):
    """Labels, row starts, 0-based columns, values and the largest index of LIBSVM text."""
    # 16 B per nonzero (index, value), kept compressed for prepare
    labels, counts, cols, vals = array("d"), array("q"), array("q"), array("d")
    lineno = 1
    with _open_text(source) as f:
        for block in _line_blocks(f):
            rows = _parse_canonical(block)
            if rows is None:
                _parse_lines(block, lineno, labels, counts, cols, vals)
            else:
                for buffer, part in zip((labels, counts, cols, vals), rows):
                    buffer.frombytes(part.tobytes())
            lineno += block.count("\n")
    cols = np.frombuffer(cols, dtype=np.int64)
    max_idx = int(cols.max(initial=0))
    cols -= 1                                   # 0-based, in place on the parse buffer
    starts = np.zeros(len(labels) + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(counts, dtype=np.int64), out=starts[1:])
    return np.frombuffer(labels), starts, cols, np.frombuffer(vals), max_idx


def _line_blocks(f):
    """f's text in blocks of whole lines, each ending in a newline.

    A block is one read of LINE_BLOCK_CHARS up to its last newline, after
    the partial line the read before it left over.
    """
    head = []
    while chunk := f.read(LINE_BLOCK_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join(head) + chunk[:cut]
            head = [chunk[cut:]]
        else:
            head.append(chunk)
    tail = "".join(head)
    if tail:
        yield tail + "\n"


def _parse_lines(text, lineno, labels, counts, cols, vals):
    """Append the rows of LIBSVM text whose first line is line ``lineno``.

    The reference parser: it takes any block, and every error message
    comes from here. Lines end at '\\n' only, as a text file's lines do
    after newline translation.
    """
    for lineno, line in enumerate(text.split("\n"), start=lineno):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            labels.append(float(parts[0]))
        except ValueError:
            raise ValueError(f"line {lineno}: label {parts[0]!r} is not numeric") from None
        for tok in parts[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed feature {tok!r}") from None
            if idx < 1:
                raise ValueError(f"line {lineno}: feature index {idx} (indices are 1-based)")
            try:
                cols.append(idx)
            except OverflowError:
                raise ValueError(f"line {lineno}: feature index {idx} is too large") from None
            vals.append(val)
        counts.append(len(parts) - 1)


def _parse_canonical(block):
    """A block's labels, counts, indices and values, read by numpy's C text reader.

    Canonical: ASCII digits, '.eE+-', spaces, tabs, colons and newlines
    only; each line starts with its label, which has no colon; each later
    token is 1-15 digits, a colon and a nonempty value. One np.loadtxt call
    then reads every number, with float()'s parser, and a 15-digit index is
    an exact float. Returns None for any other block.
    """
    if not block.isascii():
        return None
    raw = block.encode("ascii")
    classes = (b"\n" + raw).translate(_CLASSES)    # as if a line ended just before the block
    if b"\0" in classes:
        return None
    c = np.frombuffer(classes, np.uint8)
    at = np.flatnonzero(c >= _SPACE)               # delimiters, the block's last is a newline
    kind = c[at]
    newline = np.flatnonzero(kind == _NEWLINE)
    k = np.flatnonzero(kind == _COLON)             # a delimiter precedes and follows each colon
    colon, digits = at[k], at[k] - at[k - 1] - 1
    if ((c[at[newline[:-1]] + 1] >= _SPACE).any()  # a line blank or not starting with its label
            or (kind[k - 1] != _SPACE).any()       # a colon in a label, or a second one in a token
            or (at[k + 1] - colon < 2).any() or (digits < 1).any() or (digits > 15).any()):
        return None
    for j in range(1, int(digits.max(initial=0)) + 1):
        if (c[colon[digits >= j] - j] != _DIGIT).any():
            return None
    try:
        nums = np.loadtxt([raw.translate(_TO_SPACES).decode("ascii")], comments=None, ndmin=1)
    except ValueError:
        return None
    lines = newline.size - 1
    if nums.size != lines + 2 * k.size:            # a later token with no colon
        return None
    before = np.searchsorted(k, newline)           # colons before each line
    first = np.arange(lines) + 2 * before[:-1]     # each label's place in nums
    pairs = np.delete(nums, first)
    idx = pairs[0::2].astype(np.int64)
    if (idx < 1).any():
        return None
    return nums[first], np.diff(before).astype(np.int64), idx, pairs[1::2]


def parse_csv(source) -> RawDataset:
    """Parse CSV with a header row; the last column is the label."""
    feats, labels = array("d"), array("d")
    with _open_text(source) as f:
        # blank lines are skipped but counted, as in parse_libsvm
        lines = ((k, ln) for k, ln in enumerate((ln.strip() for ln in f), start=1) if ln)
        width = len(next(lines, (0, ""))[1].split(","))
        for lineno, ln in lines:
            cells = ln.split(",")
            if len(cells) != width:
                raise ValueError(f"line {lineno}: expected {width} columns, got {len(cells)}")
            try:
                vals = [float(c) for c in cells]
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric value") from None
            feats.extend(vals[:-1])
            labels.append(vals[-1])
    if not labels:
        raise ValueError("csv input needs a header row and at least one sample")
    return RawDataset(features=np.frombuffer(feats).reshape(len(labels), width - 1),
                      labels=np.frombuffer(labels))


# ---------------------------------------------------------------------------
# label rules

def sign_rule(label: float) -> int:
    """Positive labels to +1, everything else to -1."""
    return 1 if label > 0 else -1


def pair_rule(positive, negative):
    """Keep only two raw classes, mapping them to +1 / -1; drop the rest."""
    def rule(label: float):
        if label == positive:
            return 1
        if label == negative:
            return -1
        return None
    return rule


# dense rows scanned for zero vectors at a time
ZERO_SCAN_BYTES = 256 * 1024


@dataclass(frozen=True)
class Partition:
    """Assignment of original sample indices to nodes after prepare()."""

    node_indices: np.ndarray        # (n, m) original row indices
    dropped_surplus: int
    dropped_zero: int


def prepare(raw: RawDataset, n: int, seed: int, label_rule=sign_rule,
            reg: float = 1e-3, max_samples: int | None = None):
    """Binarize, normalize and split a raw dataset across n nodes.

    Samples whose label maps to None are dropped, zero feature vectors are
    dropped with a warning (they cannot be unit-normalized), the remainder
    is shuffled with the given seed, optionally capped at ``max_samples``,
    and truncated to m = floor(kept / n) samples per node. ``label_rule`` is
    called once per distinct label (labels that compare equal share a call).
    A dealt vector whose squares are subnormal, not zero, or that holds a
    NaN or infinity cannot be unit-normalized either: a ValueError names
    its sample, as it does the first sample with a NaN label, before any
    rule call.

    Returns (LogisticDataset, Partition); a fixed (raw, n, seed, rule)
    yields a byte-identical partition.
    """
    if n < 1:
        raise ValueError("node count must be positive")
    if max_samples is not None and max_samples < 1:
        raise ValueError(f"max_samples must be at least 1, got {max_samples}")
    nan = np.isnan(raw.labels)
    if nan.any():
        raise ValueError(f"sample {int(nan.argmax())} (0-based, in file order) has a NaN label")
    # one rule call per distinct label, on its first sample and in file order,
    # so an invalid value is reported for the first sample that has one
    _, first, inverse = np.unique(raw.labels, return_index=True, return_inverse=True)
    codes = np.zeros(first.size, dtype=int)
    for j in np.argsort(first):
        r = label_rule(raw.labels[first[j]])
        if r is None:
            continue
        if r not in (1, -1):
            raise ValueError(f"label rule must map to +1, -1 or None, got {r!r}")
        codes[j] = r
    mapped = codes[inverse]
    keep = mapped != 0
    # a sum of squares is 0 exactly when the norm is; dense rows a block at a time
    step = max(1, ZERO_SCAN_BYTES // (8 * max(1, raw.p)))
    zero = np.empty(raw.N, dtype=bool)
    for a in range(0, raw.N, step):
        block = raw.rows(slice(a, a + step))
        zero[a:a + step] = np.einsum("kd,kd->k", block, block) == 0
    zero &= keep
    if zero.any():
        warnings.warn(f"dropping {int(zero.sum())} zero feature vectors "
                      "(cannot be unit-normalized)", stacklevel=2)
        keep &= ~zero
    kept_idx = np.nonzero(keep)[0]
    rng = substream(seed)
    order = kept_idx[rng.permutation(kept_idx.size)]
    if max_samples is not None:
        order = order[:max_samples]
    m = order.size // n
    if m < 1:
        raise ValueError(f"{order.size} usable samples cannot cover {n} nodes")
    surplus = order.size - n * m
    assign = order[:n * m].reshape(n, m)
    feats = np.empty((n, m, raw.p))
    for block, rows in zip(feats, assign):
        block[...] = raw.rows(rows)
    with np.errstate(invalid="ignore"):     # an infinite row turns NaN; named below
        _normalize_rows(feats)
    labels = mapped[assign].astype(float)
    if (labels == 1).all() or (labels == -1).all():
        warnings.warn("label rule left a single class; the classification task is degenerate",
                      stacklevel=2)
    try:
        dataset = LogisticDataset(features=feats, labels=labels, reg=reg)
    except ValueError:
        # a row whose squares are subnormal, not zero, keeps a norm off 1; a
        # non-finite row has a NaN norm, which the comparison also rejects
        off = ~(np.abs(np.linalg.norm(feats, axis=2) - 1.0) <= 1e-9)
        if off.any():
            raise ValueError(f"sample {assign[off].min()} (0-based, in file order) cannot "
                             "be unit-normalized") from None
        raise
    return dataset, Partition(node_indices=assign, dropped_surplus=int(surplus),
                              dropped_zero=int(zero.sum()))


def _normalize_rows(feats):
    """Scale each feature vector of an (n, m, p) array to unit length, in place.

    One node block at a time, so no temporary is larger than (m, p); a
    row's norm is the same float over a block as over the whole array.
    """
    for block in feats:
        block /= np.linalg.norm(block, axis=1, keepdims=True)
    return feats


# ---------------------------------------------------------------------------
# synthetic problems

def synthesize(kind: str, n: int, m: int, p: int, seed: int,
               family: str = "quadratic", heterogeneity: float = 1.0,
               reg: float = 1e-3):
    """Build a synthetic finite-sum problem.

    kind="homogeneous" replicates one node's components at every node, so
    local gradients agree everywhere; kind="heterogeneous" gives each node
    a shifted component distribution (scaled by ``heterogeneity``) to
    stress the local/global gradient dissimilarity. family="quadratic"
    problems expose minimizer()/optimal_value() in closed form;
    family="logistic" builds unit-norm classification data.
    """
    if kind not in ("homogeneous", "heterogeneous"):
        raise ValueError(f"unknown kind {kind!r}")
    if min(n, m, p) < 1:
        raise ValueError("n, m, p must be positive")
    for name, value in (("heterogeneity", heterogeneity), ("reg", reg)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    rng = substream(seed)
    h = 0.0 if kind == "homogeneous" else float(heterogeneity)

    if family == "quadratic":
        if kind == "homogeneous":
            a = rng.uniform(0.5, 1.5, size=(1, m, p))
            c = rng.normal(0.0, 0.3, size=(1, m, p))
            return QuadraticProblem(np.repeat(a, n, axis=0), np.repeat(c, n, axis=0))
        a = rng.uniform(0.5, 1.5, size=(n, m, p))
        node_shift = h * rng.normal(0.0, 0.3, size=(n, 1, p))
        c = rng.normal(0.0, 0.1, size=(n, m, p))
        c += node_shift
        return QuadraticProblem(a, c)

    if family == "logistic":
        if kind == "homogeneous":
            theta = rng.normal(size=(1, m, p))
            w = rng.normal(size=p)
            raw_labels = np.sign(np.einsum("imp,p->im", theta, w))
            theta = np.repeat(_normalize_rows(theta), n, axis=0)
            labels = np.repeat(raw_labels, n, axis=0)
        else:
            node_mean = h * rng.normal(size=(n, 1, p))
            theta = rng.normal(size=(n, m, p))
            theta += node_mean
            w = rng.normal(size=(n, p)) + h * rng.normal(size=(n, p))
            labels = np.sign(np.einsum("imp,ip->im", theta, w))
            _normalize_rows(theta)
        labels = np.where(labels == 0, 1.0, labels)
        return LogisticProblem(LogisticDataset(features=theta, labels=labels, reg=reg))

    raise ValueError(f"unknown family {family!r}")
