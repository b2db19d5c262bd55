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
file's bytes and the sha256 of the rest of the column file, taken over
the JSON line as written less its last member, that digest itself.
``load_dataset`` reads the columns from it only while both digests match
and its contents pass every check the JSON Lines parse makes; otherwise
it parses the dataset file, which stays the only source of errors. The
dataset file's digest is the caller's where it passes one; otherwise a
file of 2 MiB or more is hashed on a helper thread while the column file
is read and checked, and a smaller one first.

``write_dataset`` takes only what ``load_dataset`` returns, and refuses
anything else before it opens a file. It writes a dataset file in one pass
and hashes its bytes as it writes them. Its lines are the bytes
``json.dumps`` gives; ``orjson`` encodes each column a block of records at
a time, and the few numbers it spells otherwise are respelled. The reader
keeps ``json``, on which its messages, line numbers, NaN and huge-integer
handling depend, and reads text files a block of about 64 KiB of whole
lines at a time (``read_blocks``), so it holds one block of lines, not the
file.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import logging
import marshal
import math
import os
import selectors
import signal
import threading
from array import array
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np
import orjson

from .errors import DataFormatError, ParameterError

logger = logging.getLogger("qamatch.data")

UNLABELED_SENTINEL = "unlabeled"
HEADER_KEYS = ("dim", "class_names", "labeled_counts")
RECORD_KEYS = ("id", "label", "q", "c", "q_aug", "c_aug")
# the types json.loads gives JSON numbers; float() would also take str and bool
_JSON_NUMBERS = frozenset((int, float))
# A file is parsed in byte ranges of at least this size, one per usable
# core and each in a forked child: a fork and reap of a 60 MB process costs
# about 2 ms, against about 22 ms to parse 512 KiB, so a file under 1 MiB
# stays serial.
_RANGE_MIN_BYTES = 1 << 19
# A text reader reads this many bytes of lines at a time, a multiple of the
# _DECODE_BYTES at a time io.TextIOWrapper decodes, so that undecodable
# bytes stop it where they stop a line-at-a-time reader.
_BLOCK_BYTES = 1 << 16
_DECODE_BYTES = 1 << 13
# the largest dim whose model input rows, [q, c] in float64, numpy can address
_MAX_DIM = np.iinfo(np.intp).max // 16
# the binary column file beside a dataset file (see the module docstring)
_COLS_SUFFIX = ".cols"
_COLS_MAGIC = b"QAMCOLS1\n"
_COLS_KEYS = HEADER_KEYS + ("labeled_ids", "labels", "unlabeled_ids", "source_sha256", "payload_sha256")
# _load_columns hashes a dataset file of at least this size on a helper
# thread while it reads the column file, where the caller has no digest:
# below about 1.5 MB the thread's start and its hand-offs of the GIL cost
# more than the overlap saves (and 0.3 ms more on a 180 KB test file).
_HASH_THREAD_MIN_BYTES = 1 << 21
# write_dataset encodes records of about this many vector entries (about
# 350 KB of lines) at a time, a column block at a time. On the benchmark's
# corpus and full data, a quarter as many took 5 to 10% more CPU, half as
# many 1 to 4% more (and 0.1 MiB less of the full workload's peak), and
# 4x as many no less
_WRITE_BLOCK_ENTRIES = 1 << 14

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


def _split_at_line_feeds(text):
    """``text.split("\\n")``, found one line feed at a time."""
    lines, i = [], 0
    while (j := text.find("\n", i)) >= 0:
        lines.append(text[i:j])
        i = j + 1
    lines.append(text[i:])
    return lines


def read_blocks(path, start=0, stop=None):
    """Yield (lineno, lines) for each block of about _BLOCK_BYTES of whole
    lines of a UTF-8 text file: ``lines`` is a list of the block's lines
    without their line ends, and ``lineno`` the number of its first line.
    Lines end only at a line feed (as JSON Lines records do) once universal
    newlines have turned CRLF and CR into one. Only one block of lines is
    held at a time; a line longer than a block comes whole, in a longer
    block.

    Undecodable bytes are a DataFormatError naming the path (a
    UnicodeDecodeError does not carry it), raised where
    ``io.TextIOWrapper``, which decodes _DECODE_BYTES at a time from
    ``start``, raises it: once the lines that end before the piece that
    holds them have been yielded (a CR that ends that piece may begin a
    CRLF, so it ends no line yet).

    ``start`` and ``stop`` limit the reader to the bytes [start, stop), to
    the end of the file when ``stop`` is None, and number lines from the
    first line of that range. Where ``start`` and ``stop`` follow a line
    feed, the range reads as the same lines as in the whole file."""
    lineno = 1
    decoder = codecs.getincrementaldecoder("utf-8")()
    pending = []  # the text of the line the last block ended in
    cr = ""  # a CR that ended the last block, which may begin a CRLF
    with open(path, "rb") as fh:
        fh.seek(start)
        while True:
            chunk = fh.read(_BLOCK_BYTES if stop is None else min(_BLOCK_BYTES, stop - start))
            start += len(chunk)
            error = None
            try:
                text = decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as e:
                # the decoder is as it was: decode again, up to the piece
                # that fails
                error = DataFormatError(f"{path}: not UTF-8 text ({e.reason})")
                pieces = []
                with suppress(UnicodeDecodeError):
                    for i in range(0, len(chunk), _DECODE_BYTES):
                        pieces.append(decoder.decode(chunk[i : i + _DECODE_BYTES]))
                text = "".join(pieces)
            done = not (chunk or error)  # at the end of the file, what is left is the last line
            text = cr + text
            cr = "\r" if text.endswith("\r") and not done else ""
            if cr:
                text = text[:-1]
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            # str.split tests every character, and str.find skips to the next
            # line feed: the split is faster on lines under about 512
            # characters, the find on longer ones
            lines = text.split("\n") if text.count("\n", 0, 2048) > 4 else _split_at_line_feeds(text)
            pending.append(lines[0])
            if len(lines) > 1 or done:
                lines[0] = "".join(pending)
                pending = [] if done else [lines.pop()]
                if done and not lines[-1]:  # what follows the last line feed is no line
                    lines.pop()
                if lines:
                    yield lineno, lines
                    lineno += len(lines)
            if error is not None:
                raise error
            if done:
                return


def read_lines(path, start=0, stop=None):
    """An iterator of (lineno, line) for each line that ``read_blocks``
    gives, with the same arguments, line ends and errors."""
    return chain.from_iterable(enumerate(lines, lineno) for lineno, lines in read_blocks(path, start, stop))


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
    """The hex sha256 of a file's bytes, read 64 KiB at a time.
    ``load_dataset`` runs it on a helper thread for a large dataset file
    whose digest the caller does not pass (see ``_load_columns``)."""
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
    """How many ranges ``nbytes`` of file are parsed in at once: one per
    usable core, each of at least _RANGE_MIN_BYTES. Only a process with no
    other thread may fork, so with one alive this is 1, as it is where the
    platform has no fork."""
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


def _fork_parse(path, header, start: int, stop: int):
    """Fork a child that parses the records in the bytes [start, stop) of
    ``path`` (see ``_parse_records``), sends them down a pipe and exits;
    returns (pid, the pipe's binary read end). The child sends the ids and
    labels of both kinds of record first, marshalled twice so that
    ``marshal.load`` reads them in one call rather than in one call per id,
    then the raw columns; it exits with status 0 only once all of it is
    sent."""
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
            lines = read_lines(path, start, stop)
            if start == 0:  # skip the header line
                next(lines, None)
            parts = _parse_records(path, header, lines)
            marshal.dump(marshal.dumps([(part.ids, part.labels) for part in parts]), out)
            for part in parts:
                out.writelines(part.cols.values())
        status = 0
    finally:
        # never return into the parent's code: run none of its exit hooks,
        # cleanups or error handling, and flush none of its buffers
        os._exit(status)


def _gather(dim: int, readers) -> list:
    """Join the output of ``_fork_parse`` children, ``readers`` being their
    pipes in range order, into one Split per kind of record. Each child's
    ids and labels are read as soon as its pipe is readable, so a range
    that failed, whose child sends nothing, raises EOFError as soon as the
    child exits. Then each column goes straight from its pipes into its
    slices of the final (n, dim) matrix, one column at a time; a short
    column shows only in its child's exit status. An id that occurs in
    two ranges is a ValueError."""
    metas = [None] * len(readers)
    with selectors.DefaultSelector() as selector:
        for i, fh in enumerate(readers):
            selector.register(fh, selectors.EVENT_READ, i)
        while selector.get_map():
            for key, _ in selector.select():
                selector.unregister(key.fileobj)
                metas[key.data] = marshal.loads(marshal.load(key.fileobj))
    ids = [[rid for meta in metas for rid in meta[kind][0]] for kind in range(2)]
    if len(set(ids[0]).union(ids[1])) != len(ids[0]) + len(ids[1]):
        raise ValueError("an id occurs in two ranges")
    splits = []
    for kind, labeled in enumerate((True, False)):
        labels = np.array([k for meta in metas for k in meta[kind][1]], dtype=np.int64) if labeled else None
        cols = {}
        for key in RECORD_KEYS[2 : 4 if labeled else 6]:
            matrix = cols[key] = np.empty((len(ids[kind]), dim))
            row = 0
            for fh, meta in zip(readers, metas):
                rows = matrix[row : row + len(meta[kind][0])]
                fh.readinto(rows)
                row += len(rows)
        splits.append(Split(ids[kind], labels, **cols))
    return splits


def _parse_in_ranges(path, header, ranges: int):
    """Parse the records of ``path`` in up to ``ranges`` byte ranges at once,
    each in a child of its own (``_fork_parse``). Returns the labeled and
    unlabeled Splits as ``_parse_records`` over the whole file would give
    them, or None when a fork or a range failed, a child exited with
    another status than 0 or an id occurs in two ranges; the serial parse
    then runs and reports the error. A child is SIGKILLed unless its
    output was all read, and every child is reaped before this returns or
    raises."""
    cuts = _cut_points(path, ranges)
    if len(cuts) < 3:
        return None
    children = []
    splits = None
    try:
        for start, stop in zip(cuts, cuts[1:]):
            children.append(_fork_parse(path, header, start, stop))
        splits = _gather(header.dim, [fh for _, fh in children])
    except Exception:
        # whatever failed, the serial parse runs next and is the only source
        # of errors, so each keeps its message
        logger.debug("a range failed; parsing serially", exc_info=True)
    finally:
        for pid, fh in children:
            fh.close()
            if splits is None:
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
            if splits is not None and status:
                logger.debug("a range child ended with wait status %#x; parsing serially", status)
                splits = None
    return splits


def _sha256_in_thread(path):
    """Start ``sha256_file(path)`` on a helper thread. Returns a function
    that joins the thread and gives the hex digest, or None where reading
    the file raised OSError."""
    digest = []

    def run():
        with suppress(OSError):
            digest.append(sha256_file(path))

    thread = threading.Thread(target=run, name="qamatch-sha256")
    thread.start()

    def join():
        thread.join()
        return digest[0] if digest else None

    return join


def _seal(digest: str) -> bytes:
    """The end of the column file's JSON line: its last member, the payload
    digest ``digest``, and the closing brace. The digest covers the line
    with this end cut and ``}\\n`` in its place, then the columns."""
    return b',"payload_sha256":"' + digest.encode() + b'"}\n'


def _check_records(header: DatasetHeader, ids, labels) -> None:
    """Raise the DataFormatError of the first fault, unless ``ids``, those
    of every record, are non-empty, unique str and ``labels``, the labeled
    records' class indices as an int64 ndarray, name classes of ``header``
    as often as its labeled counts say. ``write_dataset`` checks the splits
    it is given with this, and ``_load_columns`` a column file's fields."""
    if not all(type(rid) is str and rid for rid in ids) or len(set(ids)) != len(ids):
        seen = set()
        for rid in ids:
            if type(rid) is not str or not rid:
                raise DataFormatError(f"record id {rid!r} is not a non-empty str")
            if rid in seen:
                raise DataFormatError(f"duplicate record id {rid!r}")
            seen.add(rid)
    if len(labels) and not 0 <= labels.min() <= labels.max() < header.num_classes:
        raise DataFormatError(f"a label index is outside [0, {header.num_classes})")
    actual = np.bincount(labels, minlength=header.num_classes).tolist()
    if actual != header.labeled_counts:
        raise DataFormatError(f"header labeled_counts {header.labeled_counts} do not match the records ({actual})")


def _load_columns(path, source=None):
    """(header, labeled Split, unlabeled Split) from the column file beside
    the dataset file ``path``, or None unless it exists, was written from
    the bytes ``path`` holds now (whose sha256 is ``source`` where the
    caller has it), is whole, and holds what the JSON Lines parse accepts:
    a valid header, non-empty unique ids, labels in range, the header's
    labeled counts and finite values. Each column is read into its own
    array. Where ``source`` is not given, a dataset file of at least
    _HASH_THREAD_MIN_BYTES is hashed on a helper thread while this one
    reads and checks the column file, and the thread is joined before this
    returns; a smaller one is hashed first."""
    join = None
    try:
        with open(f"{path}{_COLS_SUFFIX}", "rb") as fh:
            if fh.read(len(_COLS_MAGIC)) != _COLS_MAGIC:
                return None
            if source is None:
                if os.path.getsize(path) >= _HASH_THREAD_MIN_BYTES:
                    join = _sha256_in_thread(path)
                else:
                    source = sha256_file(path)
            line = fh.readline()
            meta = json.loads(line)
            if (not isinstance(meta, dict) or sorted(meta) != sorted(_COLS_KEYS)
                    or not isinstance(meta["payload_sha256"], str)):
                return None
            # first the check a stale column file fails, where the digest is
            # at hand; the thread's digest is checked once it is joined
            if join is None and meta["source_sha256"] != source:
                return None
            header = DatasetHeader(*(meta[key] for key in HEADER_KEYS))
            labeled_ids, labels, unlabeled_ids = meta["labeled_ids"], meta["labels"], meta["unlabeled_ids"]
            if not (all(isinstance(value, list) for value in (labeled_ids, labels, unlabeled_ids))
                    and len(labels) == len(labeled_ids) and all(type(k) is int for k in labels)):
                return None
            labels = np.array(labels, dtype=np.int64)
            _check_records(header, labeled_ids + unlabeled_ids, labels)
            rows = [len(labeled_ids)] * 2 + [len(unlabeled_ids)] * 4
            if os.fstat(fh.fileno()).st_size - fh.tell() != 8 * header.dim * sum(rows):
                return None
            # a line that ends otherwise than with _seal, or a short read,
            # leaves the digest unmatched
            digest = hashlib.sha256(memoryview(line)[: len(line) - len(_seal(meta["payload_sha256"]))])
            digest.update(b"}\n")
            columns = []
            for n in rows:
                column = np.zeros((n, header.dim), dtype="<f8")
                fh.readinto(column)
                digest.update(column)
                columns.append(column.astype(np.float64, copy=False))
    except (OSError, ValueError, OverflowError, RecursionError, DataFormatError):
        # unreadable, not JSON (a UnicodeDecodeError is a ValueError), a
        # label past the int64 range, or a bad header or record
        return None
    finally:
        if join is not None:
            source = join()
    if (meta["source_sha256"] != source or digest.hexdigest() != meta["payload_sha256"]
            or not all(np.isfinite(col).all() for col in columns)):
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
    usable cores (see ``_range_count``), each in a forked child, and a
    smaller one serially. A range that fails is seen as soon as its child
    exits; the serial parse then runs and reports the error, so the
    result, and any error, is the same either way. A caller that has
    hashed ``path`` passes its hex sha256 as ``source_sha256``, so that
    the column file's source check does not hash it again. Otherwise a
    file of at least _HASH_THREAD_MIN_BYTES is hashed on a helper thread
    while the column file is read and checked, and the thread is joined
    before the column file is used or refused: it never outlives the
    call, and never keeps the file from the ranged parse. The JSON Lines
    parse holds one ``read_blocks`` block of lines at a time.
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


def _check_splits(header: DatasetHeader, splits) -> DatasetHeader:
    """``header`` checked anew, where ``header`` and ``splits`` are what
    ``load_dataset`` returns (see ``write_dataset``); otherwise the
    DataFormatError of the first fault found."""
    header = DatasetHeader(header.dim, header.class_names, header.labeled_counts)
    if UNLABELED_SENTINEL in header.class_names:
        raise DataFormatError(f"class name {UNLABELED_SENTINEL!r} marks unlabeled records")
    labels = [np.zeros(0, dtype=np.int64)]
    for split in splits:
        n = len(split)
        if split.labels is not None:
            if not (type(split.labels) is np.ndarray and split.labels.dtype.kind in "iu"
                    and split.labels.shape == (n,)):
                raise DataFormatError("labels must be an integer ndarray of one class index per record")
            if split.q_aug is not None or split.c_aug is not None:
                raise DataFormatError("labeled records have no q_aug or c_aug")
            # an unsigned index past the int64 range wraps to a negative one
            labels.append(split.labels.astype(np.int64, copy=False))
        for key in RECORD_KEYS[2 : 4 if split.labels is not None else 6]:
            column = getattr(split, key)
            if not (type(column) is np.ndarray and column.dtype == np.float64 and column.shape == (n, header.dim)):
                raise DataFormatError(f"{key} must be a native float64 ndarray of shape ({n}, {header.dim})")
    _check_records(header, [rid for split in splits for rid in split.ids], np.concatenate(labels))
    return header


def _number_texts(values: np.ndarray) -> list:
    """The entries of each row of the C-contiguous float64 matrix
    ``values``, all finite, as ``json.dumps`` spells them, comma-separated:
    one bytes per row. ``orjson`` encodes the matrix in one call; then each
    entry it spells otherwise, nonzero of magnitude under 1e-4 or of 1e16
    and over (``orjson`` prints 0.00005 and 1e16 where ``json`` prints
    5e-05 and 1e+16), is respelled with ``float.__repr__``."""
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    size = np.abs(values)
    odd = ((size < 1e-4) & (size != 0)) | (size >= 1e16)
    rows, entries = np.nonzero(odd)
    for row, group in groupby(zip(rows.tolist(), entries.tolist(), values[odd].tolist()), itemgetter(0)):
        numbers = texts[row].split(b",")
        for _, entry, value in group:
            numbers[entry] = float.__repr__(value).encode()
        texts[row] = b",".join(numbers)
    return texts


def _record_blocks(header: DatasetHeader, split: Split):
    """The file lines of the records of ``split``, a split ``_check_splits``
    passed, in order, as bytes, about _WRITE_BLOCK_ENTRIES vector entries
    at a time. Within a block each column is copied contiguous and encoded
    at once by ``_number_texts``, and the lines are joined from the ids
    (``json``'s own string encoder), a label text per class and the row
    texts. A non-finite vector entry is a DataFormatError naming the first
    record, in file order, that holds one."""
    keys = RECORD_KEYS[2 : 4 if split.labels is not None else 6]
    columns = [getattr(split, key) for key in keys]
    # a line is {"id":ID,"label":LABEL,"q":[ROW],"c":[ROW]}, with "q_aug"
    # and "c_aug" rows for unlabeled records
    names = [UNLABELED_SENTINEL] if split.labels is None else header.class_names
    heads = [f',"label":{json.dumps(name)},"{keys[0]}":['.encode() for name in names]
    seps = [f'],"{key}":['.encode() for key in keys[1:]]
    step = max(1, _WRITE_BLOCK_ENTRIES // (header.dim * len(columns)))
    for start in range(0, len(split), step):
        blocks = [np.ascontiguousarray(col[start : start + step]) for col in columns]
        finite = np.logical_and.reduce([np.isfinite(block).all(axis=1) for block in blocks])
        if not finite.all():
            raise DataFormatError(f"record {split.ids[start + int(finite.argmin())]!r}: a vector entry is not finite")
        # json's escapes leave no line feed in an id's text
        ids = "\n".join(map(encode_basestring_ascii, split.ids[start : start + step])).encode()
        label_heads = (repeat(heads[0]) if split.labels is None
                       else list(map(heads.__getitem__, split.labels[start : start + step].tolist())))
        pieces = [repeat(b'{"id":'), ids.split(b"\n"), label_heads, _number_texts(blocks[0])]
        for sep, block in zip(seps, blocks[1:]):
            pieces += [repeat(sep), _number_texts(block)]
        pieces.append(repeat(b"]}\n"))
        yield b"".join(chain.from_iterable(zip(*pieces)))


def _write_columns(path, header: DatasetHeader, splits, source: str) -> None:
    """Write the column file of the dataset file ``path``, whose bytes have
    the sha256 ``source``, from the splits it was written from, in one
    pass: the JSON line goes first with a placeholder seal of the seal's
    length, then each column is copied, hashed and written in row blocks
    of about _WRITE_BLOCK_ENTRIES entries, and last the seal is written
    over its placeholder."""
    labeled = [split for split in splits if split.labels is not None]
    unlabeled = [split for split in splits if split.labels is None]
    fields = {**asdict(header), "labeled_ids": [rid for split in labeled for rid in split.ids],
              "labels": [k for split in labeled for k in split.labels.tolist()],
              "unlabeled_ids": [rid for split in unlabeled for rid in split.ids], "source_sha256": source}
    line = _json_line(fields).encode()
    digest = hashlib.sha256(line)
    step = max(1, _WRITE_BLOCK_ENTRIES // header.dim)
    with atomic_open(f"{path}{_COLS_SUFFIX}", "wb") as fh:
        fh.write(_COLS_MAGIC)
        fh.write(memoryview(line)[:-2])  # less its "}\n"
        del line, fields  # not held while the columns are written
        seal = fh.tell()
        fh.write(_seal("0" * digest.digest_size * 2))
        for group, keys in ((labeled, RECORD_KEYS[2:4]), (unlabeled, RECORD_KEYS[2:6])):
            for key in keys:
                for split in group:
                    column = getattr(split, key)
                    for start in range(0, len(column), step):
                        block = np.ascontiguousarray(column[start : start + step], dtype="<f8")
                        digest.update(block)
                        fh.write(block)
        fh.seek(seal)
        fh.write(_seal(digest.hexdigest()))


def write_dataset(path, header: DatasetHeader, *splits) -> str:
    """Emit header + every split's records in order, in one pass, and the
    binary column file ``<path>.cols`` (see the module docstring) beside
    it. Returns the sha256 of the dataset file, taken over the bytes as
    they are written. Each line is the one ``json.dumps`` gives, and floats
    round-trip exactly through JSON.

    ``header`` and ``splits`` must be what ``load_dataset`` returns: a
    header that checks anew and names no class ``unlabeled``; labeled
    splits with an integer ndarray of class indices as ``labels`` and no
    ``q_aug`` or ``c_aug``; unlabeled splits with all four columns; every
    column a native float64 (n, dim) ndarray, of any strides; non-empty,
    unique str ids; and label counts equal to ``header.labeled_counts``.
    Anything else is a DataFormatError raised before a file is opened. A
    non-finite vector entry is a DataFormatError naming the first such
    record, and leaves no file. A column file left from an earlier write
    names the old bytes' digest, so the loader ignores it.
    """
    header = _check_splits(header, splits)
    digest = hashlib.sha256()
    with atomic_open(path, "wb") as fh:
        for block in chain([_json_line(asdict(header)).encode()], *(_record_blocks(header, s) for s in splits)):
            fh.write(block)
            digest.update(block)
    _write_columns(path, header, splits, digest.hexdigest())
    return digest.hexdigest()


def load_truth(path) -> dict:
    """Sidecar parser: one "id<TAB>class_name" line per unlabeled record,
    blank lines skipped, read a ``read_blocks`` block of lines at a time.
    The values are one str object per distinct label."""
    truth, labels = {}, {}
    for first, lines in read_blocks(path):
        for lineno, line in enumerate(lines, first):
            if not line:
                continue
            rid, tab, label = line.partition("\t")
            if not rid or not tab or "\t" in label:
                raise DataFormatError(f"{path}: line {lineno}: expected 'id<TAB>label'")
            if rid in truth:
                raise DataFormatError(f"{path}: line {lineno}: duplicate id {rid!r}")
            truth[rid] = labels.setdefault(label, label)
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
    lines = "".join([f"{rid}\t{cfg.class_names[k]}\n" for rid, k in zip(unlabeled.ids, unlabeled.labels.tolist())])
    lines = lines.encode()
    with atomic_open(truth, "wb") as fh:
        fh.write(lines)
    digests = {"unlabeled-truth.tsv": hashlib.sha256(lines).hexdigest()}
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
