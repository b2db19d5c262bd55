"""Dataset ingestion and synthetic long-tail generation.

File format: one JSON object per line. The first line is a header
{"dim": d, "class_names": [...], "labeled_counts": [...]} and every
following line is a record {"id", "label", "q", "c", "q_aug", "c_aug"}.
Labels are class names on disk; the sentinel "unlabeled" marks records
without one. Vector entries must be JSON numbers. The augmented vectors
are required for unlabeled records (consistency training needs them) and
optional for labeled ones, whose are checked but not kept.

In memory each kind of record is one ``Split`` of (n, dim) columns. A
record's model input is the concatenation question-then-context, so the
classifier sees rows of width 2 * dim, built only by ``labeled_matrix``
and ``unlabeled_matrices``:

    original view  = [q, c]
    question view  = [q_aug, c]
    context view   = [q, c_aug]

The synthetic generator places the class means at separation * e_k on the
first C coordinate axes (hence dim >= num_classes), draws q and c as mean
plus isotropic Gaussian noise, and emits augmented copies as the same
vector plus smaller jitter. Ground-truth labels of unlabeled records go
to a tab-separated sidecar file so pseudo-label accuracy can be scored
without leaking labels into training.
"""

from __future__ import annotations

import io
import json
import logging
import marshal
import math
import os
import signal
import struct
import threading
from array import array
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataFormatError, ParameterError

logger = logging.getLogger("qamatch.data")

UNLABELED_SENTINEL = "unlabeled"
HEADER_KEYS = ("dim", "class_names", "labeled_counts")
RECORD_KEYS = ("id", "label", "q", "c", "q_aug", "c_aug")
# the types json.loads gives JSON numbers; float() would also take str and bool
_JSON_NUMBERS = frozenset((int, float))
# A file is parsed or written in byte ranges of at least this size, one per
# usable core: a fork and reap of a 60 MB process costs about 2 ms, against
# about 22 ms to parse 512 KiB and about 35 ms to encode it, so a file
# under 1 MiB stays serial.
_RANGE_MIN_BYTES = 1 << 19
# the most of a range child's output held in memory at once
_COPY_CHUNK_BYTES = 1 << 20

# Nudge added before flooring long-tail counts so ratios that are exact in
# real arithmetic (say gamma ** (-1/2) with gamma = 4) do not floor one
# short after a last-ulp rounding down.
_FLOOR_GUARD = 1e-9


def _is_int(value) -> bool:
    # JSON bools are not integers, as for record labels
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class DatasetHeader:
    dim: int
    class_names: list
    labeled_counts: list

    def __post_init__(self):
        if not _is_int(self.dim):
            raise DataFormatError(f"dim must be an integer, got {self.dim!r}")
        names, counts = self.class_names, self.labeled_counts
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise DataFormatError(f"class_names must be a list of strings, got {names!r}")
        if not isinstance(counts, (list, tuple)) or not all(_is_int(c) for c in counts):
            raise DataFormatError(f"labeled_counts must be a list of integers, got {counts!r}")
        self.dim = int(self.dim)
        self.class_names = list(names)
        self.labeled_counts = [int(c) for c in counts]
        if self.dim < 1:
            raise DataFormatError(f"dim must be >= 1, got {self.dim}")
        if len(self.class_names) < 2:
            raise DataFormatError("need at least two class names")
        if len(set(self.class_names)) != len(self.class_names):
            raise DataFormatError("class names must be unique")
        if len(self.labeled_counts) != len(self.class_names):
            raise DataFormatError("labeled_counts length must equal class count")
        if any(c < 0 for c in self.labeled_counts):
            raise DataFormatError("labeled_counts must be non-negative")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass
class Split:
    """One kind of record as columns: row i of each (n, dim) matrix is
    record ids[i]. ``labels`` (class indices) is None for unlabeled
    records; ``q_aug`` and ``c_aug`` are None for labeled ones."""

    ids: list
    labels: np.ndarray | None
    q: np.ndarray
    c: np.ndarray
    q_aug: np.ndarray | None = None
    c_aug: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.ids)


def _append_vector(column, raw, dim, what, rid, lineno):
    """Check one record vector and append its entries to ``column``."""
    if not isinstance(raw, list) or len(raw) != dim:
        raise DataFormatError(
            f"line {lineno}: record {rid!r}: {what} must be a list of {dim} numbers"
        )
    try:
        if not _JSON_NUMBERS.issuperset(map(type, raw)):
            raise TypeError
        column.extend(raw)  # OverflowError for an integer past the float range
    except (TypeError, OverflowError):
        raise DataFormatError(
            f"line {lineno}: record {rid!r}: {what} has a non-numeric entry"
        ) from None
    if not all(map(math.isfinite, raw)):
        raise DataFormatError(f"line {lineno}: record {rid!r}: {what} is not finite")


class _ByteBudget(io.RawIOBase):
    """A raw binary file that ends after ``budget`` more bytes."""

    def __init__(self, raw, budget):
        self._raw, self._left = raw, budget

    def readable(self):
        return True

    def readinto(self, buf):
        n = self._raw.readinto(memoryview(buf)[: self._left])
        self._left -= n
        return n

    def close(self):
        self._raw.close()
        super().close()


def read_lines(path, start=0, stop=None):
    """Yield (lineno, line) for each line of a UTF-8 text file, without its
    line feed. Lines end only at a line feed (as JSON Lines records do) once
    universal newlines have turned CRLF and CR into one, and only one line
    is held at a time. Undecodable bytes are a DataFormatError naming the
    path (a UnicodeDecodeError does not carry it), raised when the reader
    reaches them.

    ``start`` and ``stop`` limit the reader to the bytes [start, stop), to
    the end of the file when ``stop`` is None, and number lines from the
    first line of that range. Where ``start`` and ``stop`` follow a line
    feed, the range reads as the same lines as in the whole file."""
    raw = open(path, "rb", buffering=0)
    if start:
        raw.seek(start)
    if stop is not None:
        raw = _ByteBudget(raw, stop - start)
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: not UTF-8 text ({e.reason})") from None


@contextmanager
def atomic_open(path, mode, **kwargs):
    """Open ``<path>.partial`` for writing and move it onto ``path`` once the
    block completes, so ``path`` is never left half written. If the block
    or the move fails, the partial file is removed. A plain ``open`` keeps
    the usual mode and umask."""
    partial = f"{path}.partial"
    fh = open(partial, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(partial)
        raise


def parse_json_line(path, lineno: int, line: str, what: str = "JSON"):
    """One JSON value; malformed JSON, an integer past Python's digit limit
    for int conversion (a plain ValueError), or arrays or objects nested
    past the recursion limit (a RecursionError), is a DataFormatError."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as e:
        raise DataFormatError(
            f"{path}: line {lineno}: malformed {what} ({getattr(e, 'msg', e)})"
        ) from None


@dataclass
class _Part:
    """One kind of record as the record parser finds it, in line order: ids,
    class indices (None for unlabeled records) and one array('d') per
    vector column."""

    ids: list
    labels: list | None
    cols: dict

    def as_split(self, dim: int) -> Split:
        """View the columns as (n, dim) matrices, without a copy."""
        labels = None if self.labels is None else np.array(self.labels, dtype=np.int64)
        cols = {k: np.frombuffer(col, dtype=np.float64).reshape(-1, dim) for k, col in self.cols.items()}
        return Split(self.ids, labels, **cols)


def _parse_records(path, header: DatasetHeader, lines):
    """The record loop of ``load_dataset`` over (lineno, line) pairs: returns
    the labeled and the unlabeled ``_Part``. Ids are checked for duplicates
    only among ``lines``, and labeled counts not at all."""
    name_to_index = {n: i for i, n in enumerate(header.class_names)}
    # labeled records' q_aug/c_aug go to a throwaway column
    labeled = _Part([], [], {"q": array("d"), "c": array("d")})
    unlabeled = _Part([], None, {key: array("d") for key in ("q", "c", "q_aug", "c_aug")})
    seen_ids = set()
    for lineno, line in lines:
        if not line.strip():
            continue
        obj = parse_json_line(path, lineno, line)
        if not isinstance(obj, dict) or "id" not in obj or "label" not in obj:
            raise DataFormatError(f"{path}: line {lineno}: record needs id and label")
        unknown = set(obj) - set(RECORD_KEYS)
        if unknown:
            raise DataFormatError(
                f"{path}: line {lineno}: unknown record keys {sorted(unknown)}"
            )
        rid = str(obj["id"])
        if not rid:
            raise DataFormatError(f"{path}: line {lineno}: empty record id")
        if rid in seen_ids:
            raise DataFormatError(f"{path}: line {lineno}: duplicate record id {rid!r}")
        seen_ids.add(rid)

        raw_label = obj["label"]
        if raw_label == UNLABELED_SENTINEL:
            label = None
        elif isinstance(raw_label, bool):
            raise DataFormatError(f"{path}: line {lineno}: record {rid!r}: bad label")
        elif isinstance(raw_label, int):
            if not 0 <= raw_label < header.num_classes:
                raise DataFormatError(
                    f"{path}: line {lineno}: record {rid!r}: label index "
                    f"{raw_label} outside [0, {header.num_classes})"
                )
            label = raw_label
        elif isinstance(raw_label, str):
            if raw_label not in name_to_index:
                raise DataFormatError(
                    f"{path}: line {lineno}: record {rid!r}: unknown label name "
                    f"{raw_label!r}"
                )
            label = name_to_index[raw_label]
        else:
            raise DataFormatError(f"{path}: line {lineno}: record {rid!r}: bad label")

        for key in ("q", "c"):
            if key not in obj:
                raise DataFormatError(
                    f"{path}: line {lineno}: record {rid!r}: missing vector {key!r}"
                )
        part = unlabeled if label is None else labeled
        _append_vector(part.cols["q"], obj["q"], header.dim, "q", rid, lineno)
        _append_vector(part.cols["c"], obj["c"], header.dim, "c", rid, lineno)
        part.ids.append(rid)
        if label is None:
            for key in ("q_aug", "c_aug"):
                if key not in obj:
                    raise DataFormatError(
                        f"{path}: line {lineno}: record {rid!r}: unlabeled records "
                        f"require {key!r}"
                    )
        else:
            labeled.labels.append(label)
        for key in ("q_aug", "c_aug"):
            if key in obj:
                column = part.cols[key] if key in part.cols else array("d")
                _append_vector(column, obj[key], header.dim, key, rid, lineno)
    return labeled, unlabeled


def _range_count(nbytes: int) -> int:
    """How many ranges ``nbytes`` of file are parsed or written in at once:
    one per usable core, each of at least _RANGE_MIN_BYTES. Only a process
    with no other thread may fork, so with one alive this is 1, as it is
    where the platform has no fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), nbytes // _RANGE_MIN_BYTES))


def _cut_points(path, ranges: int) -> list:
    """Offsets 0 < ... < size that split the file into up to ``ranges``
    ranges of about equal size, each cut just past a line feed. A line feed
    byte never occurs inside a UTF-8 character, and CRLF stays whole."""
    size = os.path.getsize(path)
    cuts = {0, size}
    with open(path, "rb") as fh:
        for i in range(1, ranges):
            fh.seek(size * i // ranges)
            fh.readline()
            cuts.add(fh.tell())
    return sorted(cuts)


def _fork(job):
    """Fork a child that runs ``job(out)``, with ``out`` the binary write end
    of a pipe, and exits; returns (pid, the pipe's read end). The child
    exits with status 0 only once ``job`` has returned and ``out`` is
    closed."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as out:
            job(out)
        status = 0
    finally:
        # never return into the parent's code: run none of its exit hooks,
        # cleanups or error handling, and flush none of its buffers
        os._exit(status)


def _in_children(jobs, work):
    """Run each of ``jobs`` in a forked child (see ``_fork``) while this
    process runs ``work(readers)``, with the children's pipes in job order.
    Returns what ``work`` returns, or None when a fork failed, ``work``
    raised or a child exited with another status than 0; the caller then
    does the whole job serially. A child is SIGKILLed unless ``work``
    returned, and every child is reaped before this returns or raises."""
    children = []
    done = False
    result = None
    try:
        for job in jobs:
            children.append(_fork(job))
        result = work([fh for _, fh in children])
        done = True
    except Exception:
        # whatever failed, the serial path runs next and is the only source
        # of errors, so each keeps its message
        logger.debug("a job in forked ranges failed; doing it serially", exc_info=True)
    finally:
        for pid, fh in children:
            fh.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
            if done and status:
                logger.debug("a range child ended with wait status %#x; doing it serially", status)
                done = False
    return result if done else None


def _send(out, parts) -> None:
    """A length-prefixed marshal of the ids and labels, then the raw bytes of
    each part's columns in order."""
    meta = marshal.dumps([(part.ids, part.labels) for part in parts])
    out.write(struct.pack("<Q", len(meta)))
    out.write(meta)
    for part in parts:
        for col in part.cols.values():
            out.write(col)


def _read_exact(fh, n: int) -> bytes:
    blob = fh.read(n)
    if len(blob) != n:
        raise EOFError("a range child ended without its result")
    return blob


def _gather(dim: int, readers, own) -> list:
    """Join the children's results (in range order) and the parent's own last
    range into one Split per kind of record. Each column goes straight from
    its pipe into its slice of the final (n, dim) matrix, one column at a
    time."""
    sources = []
    for fh in readers:
        (size,) = struct.unpack("<Q", _read_exact(fh, 8))
        sources.append((fh, marshal.loads(_read_exact(fh, size))))
    sources.append((None, [(part.ids, part.labels) for part in own]))
    splits = []
    for kind, own_part in enumerate(own):
        ids = [rid for _, meta in sources for rid in meta[kind][0]]
        labels = None
        if own_part.labels is not None:
            labels = np.array([k for _, meta in sources for k in meta[kind][1]], dtype=np.int64)
        cols = {}
        for key in list(own_part.cols):
            matrix = cols[key] = np.empty((len(ids), dim))
            row = 0
            for fh, meta in sources:
                rows = matrix[row : row + len(meta[kind][0])]
                if fh is None:
                    # the parent's own column is last; drop it once copied
                    rows[...] = np.frombuffer(own_part.cols.pop(key)).reshape(rows.shape)
                elif fh.readinto(rows) != rows.nbytes:
                    raise EOFError("a range child ended without its result")
                row += len(rows)
        splits.append(Split(ids, labels, **cols))
    return splits


def _parse_in_ranges(path, header, ranges: int):
    """Parse the records of ``path`` in up to ``ranges`` byte ranges at once:
    a forked child per range but the last, which this process streams
    itself. Returns the labeled and unlabeled Splits as ``_parse_records``
    over the whole file would give them, or None when a range failed, a
    child ended without its result or an id occurs in two ranges; the
    serial parse then runs and reports the error. No child outlives the
    call."""
    cuts = _cut_points(path, ranges)
    if len(cuts) < 3:
        return None

    def parse(start, stop):
        def job(out):
            lines = read_lines(path, start, stop)
            if start == 0:  # skip the header line
                next(lines, None)
            _send(out, _parse_records(path, header, lines))

        return job

    def own_range(readers):
        own = _parse_records(path, header, read_lines(path, cuts[-2]))
        return _gather(header.dim, readers, own)

    splits = _in_children([parse(start, stop) for start, stop in zip(cuts, cuts[1:-1])], own_range)
    if splits is not None:
        ids = splits[0].ids + splits[1].ids
        if len(set(ids)) != len(ids):
            return None
    return splits


def load_dataset(path):
    """Parse a dataset file into (header, labeled Split, unlabeled Split).

    Every violation is reported with the line number, and with the record
    id once one is known. Labeled per-class counts are checked against the
    header at the end.

    A file of at least two _RANGE_MIN_BYTES ranges is parsed in byte ranges
    on the usable cores (see ``_range_count``); the result, and any error,
    is the same as from the serial parse.
    """
    lines = read_lines(path)
    first = next(lines, None)
    if first is None:
        raise DataFormatError(f"{path}: empty file, expected a header line")

    head = parse_json_line(path, 1, first[1], "header JSON")
    if not isinstance(head, dict) or sorted(head) != sorted(HEADER_KEYS):
        raise DataFormatError(
            f"{path}: line 1: header must have exactly the keys {list(HEADER_KEYS)}"
        )
    header = DatasetHeader(**head)

    ranges = _range_count(os.path.getsize(path))
    splits = _parse_in_ranges(path, header, ranges) if ranges > 1 else None
    if splits is None:
        splits = [part.as_split(header.dim) for part in _parse_records(path, header, lines)]
    labeled, unlabeled = splits

    actual = np.bincount(labeled.labels, minlength=header.num_classes).tolist()
    if actual != header.labeled_counts:
        raise DataFormatError(
            f"{path}: header labeled_counts {header.labeled_counts} do not match "
            f"the records ({actual})"
        )
    return header, labeled, unlabeled


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _record_lines(header: DatasetHeader, split: Split, start: int, stop: int):
    """The file line of each record ``start`` <= i < ``stop`` of ``split``."""
    for i in range(start, stop):
        obj = {
            "id": split.ids[i],
            "label": UNLABELED_SENTINEL
            if split.labels is None
            else header.class_names[split.labels[i]],
            "q": split.q[i].tolist(),
            "c": split.c[i].tolist(),
        }
        if split.q_aug is not None:
            obj["q_aug"] = split.q_aug[i].tolist()
            obj["c_aug"] = split.c_aug[i].tolist()
        yield _json_line(obj)


def _record_ranges(header: DatasetHeader, splits) -> list:
    """Cut the records of ``splits``, taken in order, into contiguous ranges
    of about equal output size, as many as ``_range_count`` gives for the
    whole. Each range is a list of (split, start, stop) pieces. A record's
    size is taken to be that of its split's first record."""
    try:
        sizes = [len(next(_record_lines(header, split, 0, 1))) if len(split) else 0 for split in splits]
    except Exception:
        # a record that cannot be written: the serial write reports the first
        return []
    total = sum(size * len(split) for size, split in zip(sizes, splits))
    ranges = _range_count(total)
    pieces = [[] for _ in range(ranges)]
    before = 0  # the size of the records ahead of this split
    for split, size in zip(splits, sizes):
        if not len(split):
            continue
        # range k holds the records that start in [k, k + 1) * total / ranges
        edges = [
            min(len(split), max(0, -((before * ranges - k * total) // (size * ranges))))
            for k in range(ranges + 1)
        ]
        for k in range(ranges):
            if edges[k] < edges[k + 1]:
                pieces[k].append((split, edges[k], edges[k + 1]))
        before += size * len(split)
    return [piece for piece in pieces if piece]


def _write_records(fh, header: DatasetHeader, pieces) -> None:
    for split, start, stop in pieces:
        fh.writelines(_record_lines(header, split, start, stop))


def _copy_blob(src, dst) -> None:
    """Copy one length-prefixed blob from ``src`` to ``dst`` in bounded
    chunks."""
    (left,) = struct.unpack("<Q", _read_exact(src, 8))
    while left:
        chunk = src.read(min(left, _COPY_CHUNK_BYTES))
        if not chunk:
            raise EOFError("a range child ended without its result")
        dst.write(chunk)
        left -= len(chunk)


def _write_in_ranges(fh, header: DatasetHeader, ranges) -> bool:
    """Write the header and the records of ``ranges`` to the empty text file
    ``fh``: a forked child encodes each range but the first and sends it
    back as one length-prefixed UTF-8 blob, while this process writes the
    header and the first range itself; the blobs then follow in range
    order. False when anything failed, with ``fh`` holding a part of the
    file."""

    def encode(pieces):
        def job(out):
            blob = "".join(
                line for piece in pieces for line in _record_lines(header, *piece)
            ).encode("utf-8")
            out.write(struct.pack("<Q", len(blob)))
            out.write(blob)

        return job

    def first_range(readers):
        fh.write(_json_line(asdict(header)))
        _write_records(fh, header, ranges[0])
        fh.flush()
        for src in readers:
            _copy_blob(src, fh.buffer)
        return True

    return _in_children([encode(pieces) for pieces in ranges[1:]], first_range) is not None


def write_dataset(path, header: DatasetHeader, *splits) -> None:
    """Emit header + every split's records in order; floats round-trip
    exactly through JSON.

    Records of at least two _RANGE_MIN_BYTES of output are encoded in
    contiguous ranges on the usable cores (see ``_range_count``); the file,
    and any error, is the same as from the serial write.
    """
    ranges = _record_ranges(header, splits)
    with atomic_open(path, "w", encoding="utf-8") as fh:
        if len(ranges) < 2 or not _write_in_ranges(fh, header, ranges):
            fh.seek(0)
            fh.truncate()  # drop what a failed ranged write left
            fh.write(_json_line(asdict(header)))
            _write_records(fh, header, [(split, 0, len(split)) for split in splits])


def load_truth(path) -> dict:
    """Sidecar parser: one "id<TAB>class_name" line per unlabeled record."""
    truth = {}
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise DataFormatError(f"{path}: line {lineno}: expected 'id<TAB>label'")
        if parts[0] in truth:
            raise DataFormatError(f"{path}: line {lineno}: duplicate id {parts[0]!r}")
        truth[parts[0]] = parts[1]
    return truth


def longtail_counts(n_max: int, gamma: float, num_classes: int) -> list:
    """Geometric decay n_k = floor(n_max * gamma^(-k/(C-1))), k = 0..C-1."""
    n_max = int(n_max)
    num_classes = int(num_classes)
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    if not gamma >= 1:
        raise ParameterError(f"gamma must be >= 1, got {gamma}")
    if num_classes < 2:
        raise ParameterError(f"need at least two classes, got {num_classes}")
    counts = [
        math.floor(n_max * gamma ** (-k / (num_classes - 1)) + _FLOOR_GUARD)
        for k in range(num_classes)
    ]
    if counts[-1] < 1:
        raise ParameterError(
            f"smallest class count is 0 for n_max={n_max}, gamma={gamma}; "
            f"increase n_max to at least {math.ceil(gamma)}"
        )
    return counts


@dataclass
class SynthConfig:
    """Resolved generation plan: explicit per-class counts for every split.

    Long-tail profiles come from ``longtail_counts``; ``qamatch generate``
    builds validation and test with the labeled gamma so evaluation sees
    the deployment class mix.
    """

    num_classes: int
    dim: int
    separation: float
    noise_sigma: float
    aug_sigma: float
    seed: int
    labeled_counts: list
    unlabeled_counts: list
    valid_counts: list
    test_counts: list
    class_names: list = field(default_factory=list)

    def __post_init__(self):
        self.num_classes = int(self.num_classes)
        self.dim = int(self.dim)
        if self.num_classes < 2:
            raise ParameterError("need at least two classes")
        if self.dim < self.num_classes:
            raise ParameterError(
                f"dim {self.dim} < num_classes {self.num_classes}: orthogonal "
                f"class means need one axis per class"
            )
        if not 0 < self.separation < math.inf:
            raise ParameterError("separation must be positive and finite")
        if not 0 < self.noise_sigma < math.inf:
            raise ParameterError("noise_sigma must be positive and finite")
        if not 0 <= self.aug_sigma < math.inf:
            raise ParameterError("aug_sigma must be non-negative and finite")
        if not self.class_names:
            self.class_names = [f"class{k}" for k in range(self.num_classes)]
        if len(self.class_names) != self.num_classes:
            raise ParameterError("class_names length must equal num_classes")
        if len(set(self.class_names)) != self.num_classes:
            raise ParameterError("class_names must be unique")
        if UNLABELED_SENTINEL in self.class_names:
            raise ParameterError(f"class name {UNLABELED_SENTINEL!r} marks unlabeled records")
        for name in self.class_names:
            # the truth sidecar is one "id<TAB>name" line per record
            if any(ch in name for ch in "\t\n\r"):
                raise ParameterError(f"class name {name!r} contains a tab or line break")
        for name, counts, low in (
            ("labeled_counts", self.labeled_counts, 1),
            ("unlabeled_counts", self.unlabeled_counts, 0),
            ("valid_counts", self.valid_counts, 1),
            ("test_counts", self.test_counts, 1),
        ):
            counts = [int(c) for c in counts]
            setattr(self, name, counts)
            if len(counts) != self.num_classes:
                raise ParameterError(f"{name} must list one count per class")
            if any(c < low for c in counts):
                raise ParameterError(f"{name} entries must be >= {low}")


def _draw_split(cfg, rng, counts, prefix, augmented) -> Split:
    """Draw one split, every record labeled with its class. Classes are laid
    out in index order; per record the draws are q, c, then optionally
    q_aug, c_aug, which is the order one standard_normal call fills them.
    A vector entry past the float range (a scale near it times a draw) is a
    ParameterError."""
    labels = np.repeat(np.arange(cfg.num_classes), counts)
    z = rng.standard_normal((len(labels), 4 if augmented else 2, cfg.dim))
    means = cfg.separation * np.eye(cfg.num_classes, cfg.dim)[labels]
    with np.errstate(over="ignore", invalid="ignore"):
        q = means + cfg.noise_sigma * z[:, 0]
        c = means + cfg.noise_sigma * z[:, 1]
        split = Split([f"{prefix}-{i:05d}" for i in range(len(labels))], labels, q, c)
        if augmented:
            split.q_aug = q + cfg.aug_sigma * z[:, 2]
            split.c_aug = c + cfg.aug_sigma * z[:, 3]
    for key in ("q", "c", "q_aug", "c_aug"):
        column = getattr(split, key)
        if column is not None and not np.isfinite(column).all():
            raise ParameterError(
                f"a drawn {key} vector is not finite; lower separation, noise_sigma or aug_sigma"
            )
    return split


def synth_generate(cfg: SynthConfig, out_dir) -> dict:
    """Write train/valid/test files plus the unlabeled-truth sidecar.

    Splits are drawn in a fixed order (labeled train, unlabeled train,
    validation, test) from one generator seeded with cfg.seed, so the
    whole dataset is a pure function of the config. Every split is drawn
    and checked before any file is written. Returns the emitted paths keyed
    by role.
    """
    rng = np.random.default_rng(cfg.seed)
    labeled = _draw_split(cfg, rng, cfg.labeled_counts, "lab", augmented=False)
    unlabeled = _draw_split(cfg, rng, cfg.unlabeled_counts, "unl", augmented=True)
    valid = _draw_split(cfg, rng, cfg.valid_counts, "val", augmented=False)
    test = _draw_split(cfg, rng, cfg.test_counts, "tst", augmented=False)

    paths = {
        "train": os.path.join(out_dir, "train.jsonl"),
        "valid": os.path.join(out_dir, "valid.jsonl"),
        "test": os.path.join(out_dir, "test.jsonl"),
        "truth": os.path.join(out_dir, "unlabeled-truth.tsv"),
    }
    # the truth sidecar keeps the labels the train file strips
    with atomic_open(paths["truth"], "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{rid}\t{cfg.class_names[k]}\n" for rid, k in zip(unlabeled.ids, unlabeled.labels)
        )
    unlabeled.labels = None
    write_dataset(
        paths["train"],
        DatasetHeader(cfg.dim, cfg.class_names, cfg.labeled_counts),
        labeled,
        unlabeled,
    )
    write_dataset(
        paths["valid"], DatasetHeader(cfg.dim, cfg.class_names, cfg.valid_counts), valid
    )
    write_dataset(
        paths["test"], DatasetHeader(cfg.dim, cfg.class_names, cfg.test_counts), test
    )
    return paths


def labeled_matrix(split: Split):
    """(X, y) with X rows = [q, c]."""
    if not split:
        raise ParameterError("need at least one labeled record")
    return np.hstack([split.q, split.c]), split.labels


def unlabeled_matrices(split: Split):
    """(ids, original, question view, context view) of an unlabeled split."""
    return (
        split.ids,
        np.hstack([split.q, split.c]),
        np.hstack([split.q_aug, split.c]),
        np.hstack([split.q, split.c_aug]),
    )
