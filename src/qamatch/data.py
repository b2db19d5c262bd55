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
for the labeled records and by ``UnlabeledViews.take``, one batch at a
time, for the unlabeled ones:

    original view  = [q, c]
    question view  = [q_aug, c]
    context view   = [q, c_aug]

The unlabeled columns are held once, as the loader returns them; no
(n, 2 * dim) copy of a view is made.

The synthetic generator places the class means at separation * e_k on the
first C coordinate axes (hence dim >= num_classes), draws q and c as mean
plus isotropic Gaussian noise, and emits augmented copies as the same
vector plus smaller jitter, all in place in one draw per split.
Ground-truth labels of unlabeled records go to a tab-separated sidecar
file so pseudo-label accuracy can be scored without leaking labels into
training.

Beside each dataset file it writes, ``write_dataset`` puts a binary column
file, ``<file>.cols``, derived from the same records as a ``.pyc`` is from
its source: the magic ``QAMCOLS1\\n``, one JSON line, then the columns as
raw little-endian float64 (labeled q and c, then unlabeled q, c, q_aug and
c_aug). The JSON line holds the header fields, the ids of both kinds of
record, the labeled records' class indices, the sha256 of the dataset
file's bytes and the sha256 of the rest of the column file. ``load_dataset``
reads the columns from it only while both digests match and its contents
pass every check the JSON Lines parse makes; otherwise it parses the
dataset file, which stays the only source of errors.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import marshal
import math
import os
import shutil
import signal
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
# the largest dim whose model input rows, [q, c] in float64, numpy can address
_MAX_DIM = np.iinfo(np.intp).max // 16
# the binary column file beside a dataset file (see the module docstring)
_COLS_SUFFIX = ".cols"
_COLS_MAGIC = b"QAMCOLS1\n"
_COLS_KEYS = HEADER_KEYS + ("labeled_ids", "labels", "unlabeled_ids", "source_sha256", "payload_sha256")

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
        if not 1 <= self.dim <= _MAX_DIM:
            raise DataFormatError(f"dim must be in [1, {_MAX_DIM}], got {self.dim}")
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


def _append_vector(column, raw, dim, what, rid, path, lineno):
    """Check one record vector and append its entries to ``column``."""
    if not isinstance(raw, list) or len(raw) != dim:
        problem = f"must be a list of {dim} numbers"
    elif not _JSON_NUMBERS.issuperset(map(type, raw)):
        problem = "has a non-numeric entry"
    else:
        try:
            column.extend(raw)
            if all(map(math.isfinite, raw)):
                return
            problem = "is not finite"
        except OverflowError:  # an integer past the float range
            problem = "has a non-numeric entry"
    # the message is built only here: this runs once per vector of the file
    raise DataFormatError(f"{path}: line {lineno}: record {rid!r}: {what} {problem}")


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


def sha256_file(path) -> str:
    """The hex sha256 of a file's bytes, read 64 KiB at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


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
        _append_vector(part.cols["q"], obj["q"], header.dim, "q", rid, path, lineno)
        _append_vector(part.cols["c"], obj["c"], header.dim, "c", rid, path, lineno)
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
                _append_vector(column, obj[key], header.dim, key, rid, path, lineno)
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


def _gather(dim: int, readers, own) -> list:
    """Join the children's results (in range order) and the parent's own last
    range into one Split per kind of record. Each column goes straight from
    its pipe into its slice of the final (n, dim) matrix, one column at a
    time; ``_in_children`` drops a child's short output on its exit status."""
    sources = [(fh, marshal.loads(marshal.load(fh))) for fh in readers]
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
                else:
                    fh.readinto(rows)
                row += len(rows)
        splits.append(Split(ids, labels, **cols))
    return splits


def _parse_in_ranges(path, header, ranges: int):
    """Parse the records of ``path`` in up to ``ranges`` byte ranges at once:
    a forked child per range but the last, which this process streams
    itself. Returns the labeled and unlabeled Splits as ``_parse_records``
    over the whole file would give them, or None when a range failed, a
    child exited with another status than 0 or an id occurs in two ranges;
    the serial parse then runs and reports the error. No child outlives the
    call."""
    cuts = _cut_points(path, ranges)
    if len(cuts) < 3:
        return None

    def parse(start, stop):
        def job(out):
            lines = read_lines(path, start, stop)
            if start == 0:  # skip the header line
                next(lines, None)
            parts = _parse_records(path, header, lines)
            # marshalled twice, so that marshal.load reads the ids and labels
            # in one call rather than in one call per id
            marshal.dump(marshal.dumps([(part.ids, part.labels) for part in parts]), out)
            for part in parts:
                out.writelines(part.cols.values())

        return job

    def own_range(readers):
        own = _parse_records(path, header, read_lines(path, cuts[-2]))
        splits = _gather(header.dim, readers, own)
        if len(set(splits[0].ids).union(splits[1].ids)) != len(splits[0]) + len(splits[1]):
            raise ValueError("an id occurs in two ranges")
        return splits

    return _in_children([parse(start, stop) for start, stop in zip(cuts, cuts[1:-1])], own_range)


def _load_columns(path, source=None):
    """(header, labeled Split, unlabeled Split) from the column file beside
    the dataset file ``path``, or None unless it exists, was written from
    the bytes ``path`` holds now (whose sha256 is ``source`` where the
    caller has it), is whole, and holds what the JSON Lines parse accepts:
    a valid header, non-empty unique ids, labels in range, the header's
    labeled counts and finite values. Each column is read into its own
    array."""
    try:
        with open(f"{path}{_COLS_SUFFIX}", "rb") as fh:
            if fh.read(len(_COLS_MAGIC)) != _COLS_MAGIC:
                return None
            meta = json.loads(fh.readline())
            if not isinstance(meta, dict) or sorted(meta) != sorted(_COLS_KEYS):
                return None
            # first the check a stale column file fails
            if meta["source_sha256"] != (sha256_file(path) if source is None else source):
                return None
            header = DatasetHeader(*(meta[key] for key in HEADER_KEYS))
            labeled_ids, labels, unlabeled_ids = meta["labeled_ids"], meta["labels"], meta["unlabeled_ids"]
            if not all(isinstance(value, list) for value in (labeled_ids, labels, unlabeled_ids)):
                return None
            ids = labeled_ids + unlabeled_ids
            if not (all(type(rid) is str and rid for rid in ids) and len(set(ids)) == len(ids)
                    and len(labels) == len(labeled_ids)
                    and all(type(k) is int and 0 <= k < header.num_classes for k in labels)):
                return None
            labels = np.array(labels, dtype=np.int64)
            if np.bincount(labels, minlength=header.num_classes).tolist() != header.labeled_counts:
                return None
            rows = [len(labeled_ids)] * 2 + [len(unlabeled_ids)] * 4
            if os.fstat(fh.fileno()).st_size - fh.tell() != 8 * header.dim * sum(rows):
                return None
            # the digest covers the JSON line as written less itself, then
            # the columns; a short read leaves it unmatched
            digest = hashlib.sha256(_json_line({k: v for k, v in meta.items() if k != "payload_sha256"}).encode())
            columns = []
            for n in rows:
                column = np.zeros((n, header.dim), dtype="<f8")
                fh.readinto(column)
                digest.update(column)
                columns.append(column.astype(np.float64, copy=False))
    except (OSError, ValueError, RecursionError, DataFormatError):
        # unreadable, not JSON (a UnicodeDecodeError is a ValueError) or a bad header
        return None
    if digest.hexdigest() != meta["payload_sha256"] or not all(np.isfinite(col).all() for col in columns):
        return None
    return header, Split(labeled_ids, labels, *columns[:2]), Split(unlabeled_ids, None, *columns[2:])


def load_dataset(path, source_sha256=None):
    """Parse a dataset file into (header, labeled Split, unlabeled Split).

    Every violation is reported with the line number, and with the record
    id once one is known. Labeled per-class counts are checked against the
    header at the end.

    The columns come from the binary column file ``write_dataset`` put
    beside ``path`` while that file matches ``path`` and passes the checks
    of ``_load_columns``; the loader never writes one. Otherwise a file of
    at least two _RANGE_MIN_BYTES ranges is parsed in byte ranges on the
    usable cores (see ``_range_count``), and a smaller one serially. The
    result, and any error, is the same either way. A caller that has
    hashed ``path`` passes its hex sha256 as ``source_sha256``, so that
    the column file's source check does not hash it again.
    """
    columns = _load_columns(path, source_sha256)
    if columns is not None:
        return columns
    lines = read_lines(path)
    first = next(lines, None)
    if first is None:
        raise DataFormatError(f"{path}: empty file, expected a header line")

    head = parse_json_line(path, 1, first[1], "header JSON")
    if not isinstance(head, dict) or sorted(head) != sorted(HEADER_KEYS):
        raise DataFormatError(
            f"{path}: line 1: header must have exactly the keys {list(HEADER_KEYS)}"
        )
    try:
        header = DatasetHeader(**head)
    except DataFormatError as e:
        raise DataFormatError(f"{path}: line 1: {e}") from None

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
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


def _record_lines(header: DatasetHeader, splits, start: int, stop: int):
    """The file line of each record ``start`` <= i < ``stop`` of ``splits``
    taken in order. A non-finite vector entry is a DataFormatError."""
    for split in splits:
        for i in range(max(start, 0), min(stop, len(split))):
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
            try:
                line = _json_line(obj)
            except ValueError:  # JSON has no NaN or Infinity
                raise DataFormatError(f"record {split.ids[i]!r}: a vector entry is not finite") from None
            yield line
        start -= len(split)
        stop -= len(split)


def _record_cuts(header: DatasetHeader, splits) -> list:
    """Indices 0 < ... < n that cut the n records of ``splits``, taken in
    order, into up to ``_range_count`` ranges of about equal output size,
    each cut before the first record that starts at or past its share. A
    record's size is taken to be that of its split's first record."""
    spans = []  # per non-empty split: (records, output ahead of it, record size)
    total = 0
    try:
        for split in filter(len, splits):
            size = len(next(_record_lines(header, [split], 0, 1)))
            spans.append((len(split), total, size))
            total += size * len(split)
    except Exception:
        # a record that cannot be written: the serial write reports the first
        return []
    ranges = _range_count(total)
    cuts = {0, sum(span[0] for span in spans)}
    for k in range(1, ranges):
        # the records that start before k / ranges of the output
        cuts.add(sum(min(m, max(0, -((ahead * ranges - k * total) // (size * ranges))))
                     for m, ahead, size in spans))
    return sorted(cuts)


def _write_in_ranges(fh, header: DatasetHeader, splits, cuts) -> bool:
    """Write the header and the records of ``splits``, cut at ``cuts``, to
    the empty text file ``fh``: a forked child writes each range but the
    first to its pipe as UTF-8 text, while this process writes the header
    and the first range itself; the children's text then follows in range
    order. False when anything failed, with ``fh`` holding a part of the
    file."""

    def encode(start, stop):
        def job(out):
            out.write("".join(_record_lines(header, splits, start, stop)).encode("utf-8"))

        return job

    def first_range(readers):
        fh.write(_json_line(asdict(header)))
        fh.writelines(_record_lines(header, splits, cuts[0], cuts[1]))
        fh.flush()
        for src in readers:
            shutil.copyfileobj(src, fh.buffer)
        return True

    return _in_children([encode(a, b) for a, b in zip(cuts[1:], cuts[2:])], first_range) is not None


def _loaded_columns(header: DatasetHeader, splits):
    """The column file's JSON fields, less the digests, and its column
    blocks in file order, as ``load_dataset`` gives them back from the
    dataset file just written from ``splits``; None unless that is plain:
    the header loads, no class bears the unlabeled sentinel, every id is a
    str and every column written is an (n, dim) ndarray of floats or
    integers, whose entries JSON carries as the numbers they are. (The
    loader would give a tuple id back as the str of a list, and refuse a
    bool entry, which ``astype`` would take as 0 or 1.)"""
    fields = json.loads(_json_line(asdict(header)))  # the header line as the loader reads it
    try:
        name_to_index = {n: i for i, n in enumerate(DatasetHeader(**fields).class_names)}
    except DataFormatError:
        return None
    if UNLABELED_SENTINEL in name_to_index:
        return None
    fields.update(labeled_ids=[], labels=[], unlabeled_ids=[])
    # the blocks of each column, in the order the column file holds the columns
    blocks = {("labeled", "q"): [], ("labeled", "c"): [],
              **{("unlabeled", key): [] for key in ("q", "c", "q_aug", "c_aug")}}
    for split in splits:
        n = len(split)
        kind = "unlabeled" if split.labels is None else "labeled"
        written = [split.q, split.c]
        if kind == "unlabeled" or split.q_aug is not None:
            written += [split.q_aug, split.c_aug]
        if not (all(isinstance(rid, str) for rid in split.ids) and all(
                type(col) is np.ndarray and col.dtype.kind in "fiu" and col.shape == (n, fields["dim"])
                for col in written)):
            return None
        fields[f"{kind}_ids"] += map(str, split.ids)
        if kind == "labeled":
            fields["labels"] += (name_to_index[header.class_names[split.labels[i]]] for i in range(n))
        # a labeled split's q_aug and c_aug are checked on loading, not kept
        for key, column in zip(("q", "c") if kind == "labeled" else ("q", "c", "q_aug", "c_aug"), written):
            blocks[kind, key].append(column)
    return fields, [block for column in blocks.values() for block in column]


def _write_columns(path, header: DatasetHeader, splits, source: str) -> None:
    """Write the column file of the dataset file ``path``, whose bytes have
    the sha256 ``source``, where ``_loaded_columns`` gives its contents."""
    contents = _loaded_columns(header, splits)
    if contents is None:
        return
    fields, blocks = contents
    fields["source_sha256"] = source

    def payload():
        for block in blocks:
            yield np.ascontiguousarray(block, dtype="<f8")

    digest = hashlib.sha256(_json_line(fields).encode())
    for block in payload():
        digest.update(block)
    with atomic_open(f"{path}{_COLS_SUFFIX}", "wb") as fh:
        fh.write(_COLS_MAGIC)
        fh.write(_json_line({**fields, "payload_sha256": digest.hexdigest()}).encode())
        fh.writelines(payload())


def write_dataset(path, header: DatasetHeader, *splits) -> str:
    """Emit header + every split's records in order; floats round-trip
    exactly through JSON, and a non-finite one is a DataFormatError.
    Returns the sha256 of the file.

    Records of at least two _RANGE_MIN_BYTES of output are encoded in
    contiguous ranges on the usable cores (see ``_range_count``); the file,
    and any error, is the same as from the serial write.

    The binary column file ``<path>.cols`` (see the module docstring) is
    then written beside it, where ``_loaded_columns`` shows what the
    loader would read: for splits as ``load_dataset`` or the generator
    gives them. A column file left from an earlier write names the old
    bytes' digest, so the loader ignores it.
    """
    cuts = _record_cuts(header, splits)
    with atomic_open(path, "w", encoding="utf-8") as fh:
        if len(cuts) < 3 or not _write_in_ranges(fh, header, splits, cuts):
            fh.seek(0)
            fh.truncate()  # drop what a failed ranged write left
            fh.write(_json_line(asdict(header)))
            fh.writelines(_record_lines(header, splits, 0, sum(map(len, splits))))
    source = sha256_file(path)
    _write_columns(path, header, splits, source)
    return source


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
    # past these bounds no split could be drawn (see SynthConfig), and
    # n_max would not convert to a float
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    if n_max > np.iinfo(np.intp).max:
        raise ParameterError(f"n_max must be at most {np.iinfo(np.intp).max}")
    if not 1 <= gamma < math.inf:
        raise ParameterError(f"gamma must be >= 1 and finite, got {gamma}")
    if num_classes < 2:
        raise ParameterError(f"need at least two classes, got {num_classes}")
    if num_classes > _MAX_DIM:
        raise ParameterError(f"need at most {_MAX_DIM} classes, one axis of dim each")
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


def check_class_axes(num_classes: int, dim: int) -> tuple:
    """``(num_classes, dim)`` as ints, where a split of one record per
    class can be drawn: at least two classes, one axis of ``dim`` per
    class for the orthogonal class means, and a draw numpy can address
    (see ``SynthConfig``). ``qamatch generate`` checks this before it
    fills long-tail counts, one per class."""
    num_classes, dim = int(num_classes), int(dim)
    if num_classes < 2:
        raise ParameterError("need at least two classes")
    if dim < num_classes:
        raise ParameterError(
            f"dim {dim} < num_classes {num_classes}: orthogonal "
            f"class means need one axis per class"
        )
    if num_classes * 4 * dim * 8 > np.iinfo(np.intp).max:
        raise ParameterError(
            f"{num_classes} classes with dim {dim} need a draw of at least "
            f"{num_classes} x 4 x {dim} floats, more than numpy can address"
        )
    return num_classes, dim


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
        self.num_classes, self.dim = check_class_axes(self.num_classes, self.dim)
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
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
            # _draw_split draws a split of n records as one float64 array of
            # shape (n, 4, dim) at most, whose size in bytes numpy keeps in an intp
            if sum(counts) * 4 * self.dim * 8 > np.iinfo(np.intp).max:
                raise ParameterError(
                    f"{name} with dim {self.dim} needs a draw of {sum(counts)} x 4 x "
                    f"{self.dim} floats, more than numpy can address"
                )


def _draw_split(cfg, rng, counts, prefix, augmented) -> Split:
    """Draw one split, every record labeled with its class. Classes are laid
    out in index order; per record the draws are q, c, then optionally
    q_aug, c_aug, which is the order one standard_normal call fills them.
    The columns are derived in place in that draw and returned as views of
    it: q = mean + noise_sigma * z_q and q_aug = q + aug_sigma * z_qaug (and
    so for c), with every value the same bit for bit, as IEEE + and * are
    commutative. A vector entry past the float range (a scale near it times
    a draw) is a ParameterError."""
    labels = np.repeat(np.arange(cfg.num_classes), counts)
    z = rng.standard_normal((len(labels), 4 if augmented else 2, cfg.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        z[:, :2] *= cfg.noise_sigma
        # the class mean is separation on the label's axis and 0.0 on every
        # other one; adding those zeros turns a -0.0 into 0.0, as the mean does
        z[:, :2] += 0.0
        z[np.arange(len(labels)), :2, labels] += cfg.separation
        if augmented:
            z[:, 2:] *= cfg.aug_sigma
            z[:, 2:] += z[:, :2]
    columns = [z[:, k] for k in range(z.shape[1])]
    for key, column in zip(("q", "c", "q_aug", "c_aug"), columns):
        if not np.isfinite(column).all():
            raise ParameterError(
                f"a drawn {key} vector is not finite; lower separation, noise_sigma or aug_sigma"
            )
    return Split([f"{prefix}-{i:05d}" for i in range(len(labels))], labels, *columns)


def synth_generate(cfg: SynthConfig, out_dir) -> dict:
    """Write train/valid/test files plus the unlabeled-truth sidecar.

    Splits are drawn in a fixed order (labeled train, unlabeled train,
    validation, test) from one generator seeded with cfg.seed, so the
    whole dataset is a pure function of the config. Every split is drawn
    and checked before any file is written. Returns the sha256 of each file
    written, keyed by its name in ``out_dir``: train.jsonl, valid.jsonl,
    test.jsonl and unlabeled-truth.tsv. Each dataset file also gets its
    column file (see ``write_dataset``), which is not listed.
    """
    rng = np.random.default_rng(cfg.seed)
    labeled = _draw_split(cfg, rng, cfg.labeled_counts, "lab", augmented=False)
    unlabeled = _draw_split(cfg, rng, cfg.unlabeled_counts, "unl", augmented=True)
    valid = _draw_split(cfg, rng, cfg.valid_counts, "val", augmented=False)
    test = _draw_split(cfg, rng, cfg.test_counts, "tst", augmented=False)

    truth = os.path.join(out_dir, "unlabeled-truth.tsv")
    # the truth sidecar keeps the labels the train file strips
    with atomic_open(truth, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{rid}\t{cfg.class_names[k]}\n" for rid, k in zip(unlabeled.ids, unlabeled.labels)
        )
    digests = {"unlabeled-truth.tsv": sha256_file(truth)}
    unlabeled.labels = None
    for name, counts, splits in (
        ("train.jsonl", cfg.labeled_counts, (labeled, unlabeled)),
        ("valid.jsonl", cfg.valid_counts, (valid,)),
        ("test.jsonl", cfg.test_counts, (test,)),
    ):
        header = DatasetHeader(cfg.dim, cfg.class_names, counts)
        digests[name] = write_dataset(os.path.join(out_dir, name), header, *splits)
    return digests


def labeled_matrix(split: Split):
    """(X, y) with X rows = [q, c]."""
    if not split:
        raise ParameterError("need at least one labeled record")
    return np.hstack([split.q, split.c]), split.labels


class UnlabeledViews:
    """The three model-input views of an unlabeled split, built one batch at
    a time from the split's four (n, dim) columns. ``take`` gathers rows
    from C-contiguous columns: those ``load_dataset`` returns are held as
    they are, without a copy, and any other is copied once."""

    def __init__(self, split: Split):
        self.q, self.c, self.q_aug, self.c_aug = (
            np.ascontiguousarray(col) for col in (split.q, split.c, split.q_aug, split.c_aug)
        )

    def __len__(self) -> int:
        return len(self.q)

    def take(self, idx):
        """(original, question view, context view) of the rows ``idx``, each
        a new C-contiguous (len(idx), 2 * dim) matrix."""
        q, c = self.q.take(idx, axis=0), self.c.take(idx, axis=0)
        return (
            np.concatenate((q, c), axis=1),
            np.concatenate((self.q_aug.take(idx, axis=0), c), axis=1),
            np.concatenate((q, self.c_aug.take(idx, axis=0)), axis=1),
        )


def unlabeled_matrices(split: Split) -> UnlabeledViews:
    """The views of an unlabeled split, built per batch by ``take``."""
    return UnlabeledViews(split)
