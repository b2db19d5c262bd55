"""Dataset format, loader validation, long-tail counts, and generator tests."""

import io
import itertools
import json
import math
import os
import signal
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qamatch import data
from qamatch.cli import main
from qamatch.data import (
    DatasetHeader,
    Split,
    SynthConfig,
    labeled_matrix,
    load_dataset,
    load_truth,
    longtail_counts,
    synth_generate,
    unlabeled_matrices,
    write_dataset,
)
from qamatch.errors import DataFormatError, ParameterError


def small_config(**overrides):
    base = dict(
        num_classes=3,
        dim=4,
        separation=2.0,
        noise_sigma=0.5,
        aug_sigma=0.2,
        seed=7,
        labeled_counts=[6, 3, 2],
        unlabeled_counts=[8, 4, 2],
        valid_counts=[3, 2, 1],
        test_counts=[4, 2, 2],
    )
    base.update(overrides)
    return SynthConfig(**base)


# ---------------------------------------------------------------------------
# long-tail counts


def test_longtail_counts_reference_profiles():
    assert longtail_counts(40, 5, 4) == [40, 23, 13, 8]
    assert longtail_counts(200, 5, 4) == [200, 116, 68, 40]
    assert longtail_counts(43, 10, 3) == [43, 13, 4]
    assert longtail_counts(1413, 10, 3) == [1413, 446, 141]


def test_longtail_counts_gamma_one_is_flat():
    assert longtail_counts(50, 1, 4) == [50, 50, 50, 50]


def test_longtail_counts_monotone_nonincreasing():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_max = int(rng.integers(10, 3000))
        gamma = float(rng.uniform(1, 20))
        C = int(rng.integers(2, 8))
        try:
            counts = longtail_counts(n_max, gamma, C)
        except ParameterError:
            continue
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] == n_max


def test_longtail_counts_head_to_tail_ratio_on_reference_sizes():
    for n_max in (40, 200):
        counts = longtail_counts(n_max, 5, 4)
        ratio = counts[0] / counts[-1]
        assert 5 / 2 <= ratio <= 5 or ratio == pytest.approx(5.0)


def test_longtail_counts_validation():
    with pytest.raises(ParameterError):
        longtail_counts(0, 5, 4)
    with pytest.raises(ParameterError):
        longtail_counts(40, 0.5, 4)
    with pytest.raises(ParameterError):
        longtail_counts(40, 5, 1)
    with pytest.raises(ParameterError):
        # smallest class floors to zero
        longtail_counts(3, 100, 4)


# ---------------------------------------------------------------------------
# header and record validation


def test_header_validation():
    with pytest.raises(DataFormatError):
        DatasetHeader(0, ["a", "b"], [1, 1])
    with pytest.raises(DataFormatError):
        DatasetHeader(3, ["only"], [1])
    with pytest.raises(DataFormatError):
        DatasetHeader(3, ["a", "a"], [1, 1])
    with pytest.raises(DataFormatError):
        DatasetHeader(3, ["a", "b"], [1])
    with pytest.raises(DataFormatError):
        DatasetHeader(3, ["a", "b"], [1, -1])
    assert DatasetHeader(3, ["a", "b"], [3, 1]).num_classes == 2


def test_round_trip_is_bitwise(tmp_path):
    cfg = small_config()
    paths = synth_generate(cfg, tmp_path)
    header, labeled, unlabeled = load_dataset(paths["train"])

    out = tmp_path / "rewritten.jsonl"
    write_dataset(out, header, labeled, unlabeled)
    assert out.read_bytes() == (tmp_path / "train.jsonl").read_bytes()
    header2, labeled2, unlabeled2 = load_dataset(out)

    assert header2 == header
    for a, b in ((labeled, labeled2), (unlabeled, unlabeled2)):
        assert a.ids == b.ids
        for key in ("labels", "q", "c", "q_aug", "c_aug"):
            np.testing.assert_array_equal(getattr(a, key), getattr(b, key))
    assert labeled2.labels is not None and labeled2.q_aug is None
    assert unlabeled2.labels is None and unlabeled2.q_aug is not None


def test_loader_accepts_integer_and_name_labels(tmp_path):
    path = tmp_path / "ds.jsonl"
    lines = [
        {"dim": 1, "class_names": ["yes", "no"], "labeled_counts": [1, 1]},
        {"id": "a", "label": "yes", "q": [0.5], "c": [1.0]},
        {"id": "b", "label": 1, "q": [0.0], "c": [0.25]},
    ]
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    _, labeled, unlabeled = load_dataset(path)
    assert labeled.labels.tolist() == [0, 1]
    assert len(unlabeled) == 0


def write_mutated(tmp_path, name, mutate):
    """Start from a tiny valid dataset, apply ``mutate`` to its lines."""
    base = [
        json.dumps({"dim": 2, "class_names": ["yes", "no"], "labeled_counts": [1, 1]}),
        json.dumps({"id": "a", "label": "yes", "q": [0.0, 0.0], "c": [0.0, 0.0]}),
        json.dumps({"id": "b", "label": "no", "q": [1.0, 0.0], "c": [0.0, 1.0]}),
        json.dumps(
            {
                "id": "u",
                "label": "unlabeled",
                "q": [0.5, 0.5],
                "c": [0.5, 0.5],
                "q_aug": [0.5, 0.6],
                "c_aug": [0.4, 0.5],
            }
        ),
    ]
    path = tmp_path / name
    path.write_text("\n".join(mutate(list(base))) + "\n")
    return path


def test_loader_accepts_the_unmutated_file(tmp_path):
    header, labeled, unlabeled = load_dataset(write_mutated(tmp_path, "ok.jsonl", lambda ls: ls))
    assert header.num_classes == 2 and len(labeled) == 2 and len(unlabeled) == 1


# (name, mutation of write_mutated's lines, fragment of the error).
# HEADER_ERRORS names the rows that fail on the header line.
MUTATIONS = [
    ("empty", lambda ls: [""], "header"),
    ("badjson", lambda ls: ls[:1] + ["{not json"] + ls[2:], "line 2"),
    # json.loads raises RecursionError on nesting past the recursion limit
    (
        "deeply_nested_q",
        lambda ls: ls[:1] + [ls[1].replace('"q": [0.0, 0.0]', '"q": ' + "[" * 1500 + "]" * 1500)] + ls[2:],
        "line 2: malformed JSON",
    ),
    (
        "extra_header_key",
        lambda ls: [json.dumps({**json.loads(ls[0]), "extra": 1})] + ls[1:],
        "header",
    ),
    (
        "missing_counts",
        lambda ls: [json.dumps({k: v for k, v in json.loads(ls[0]).items() if k != "labeled_counts"})]
        + ls[1:],
        "header",
    ),
    (
        "short_vector",
        lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "q": [0.0]})] + ls[2:],
        "'a'",
    ),
    (
        "bad_label",
        lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "label": "maybe"})] + ls[2:],
        "maybe",
    ),
    (
        "label_index_out_of_range",
        lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "label": 2})] + ls[2:],
        "label index",
    ),
    (
        "duplicate_id",
        lambda ls: ls + [json.dumps({**json.loads(ls[1]), "id": "b"})],
        "duplicate",
    ),
    (
        "unlabeled_missing_aug",
        lambda ls: ls[:3]
        + [json.dumps({k: v for k, v in json.loads(ls[3]).items() if k != "q_aug"})],
        "q_aug",
    ),
    (
        "unknown_record_key",
        lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "bogus": 1})] + ls[2:],
        "unknown",
    ),
    (
        "nonfinite_vector",
        lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "q": [math.inf, 0.0]})] + ls[2:],
        "finite",
    ),
    (
        "string_vector_entry",
        lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "q": ["1e3", 0.0]})] + ls[2:],
        "non-numeric",
    ),
    (
        "bool_vector_entry",
        lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "c": [0.0, True]})] + ls[2:],
        "non-numeric",
    ),
    (
        "count_mismatch",
        lambda ls: ls[:2] + ls[3:],  # drop one labeled record
        "labeled_counts",
    ),
    ("non_object_record", lambda ls: ls[:1] + ["[1, 2]"] + ls[2:], "record needs id and label"),
    (
        "empty_id",
        lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "id": ""})] + ls[2:],
        "empty record id",
    ),
    (
        "true_label",
        lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "label": True})] + ls[2:],
        "bad label",
    ),
    (
        "null_label",
        lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "label": None})] + ls[2:],
        "bad label",
    ),
    (
        "float_label",
        lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "label": 0.0})] + ls[2:],
        "bad label",
    ),
    (
        "missing_q",
        lambda ls: ls[:1] + [json.dumps({k: v for k, v in json.loads(ls[1]).items() if k != "q"})] + ls[2:],
        "missing vector 'q'",
    ),
    (
        "header_counts_not_a_list",
        lambda ls: [ls[0].replace("[1, 1]", "2")] + ls[1:],
        "labeled_counts must be a list of integers",
    ),
]
HEADER_ERRORS = {"empty", "extra_header_key", "missing_counts", "header_counts_not_a_list"}


@pytest.mark.parametrize("name,mutate,fragment", MUTATIONS)
def test_loader_rejects_mutated_files(tmp_path, name, mutate, fragment):
    path = write_mutated(tmp_path, f"{name}.jsonl", mutate)
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert fragment in str(err.value)


def test_loader_splits_records_only_at_line_feeds(tmp_path):
    # U+2028 and U+0085 are line breaks to str.splitlines but valid raw
    # characters inside a JSON string
    lines = [
        {"dim": 1, "class_names": ["yes", "no"], "labeled_counts": [1, 1]},
        {"id": "a\u2028b", "label": "yes", "q": [0.5], "c": [1.0]},
        {"id": "c\x85d", "label": "no", "q": [0.0], "c": [0.25]},
    ]
    text = "\n".join(json.dumps(line, ensure_ascii=False) for line in lines) + "\n"
    path = tmp_path / "ds.jsonl"
    path.write_text(text, encoding="utf-8")
    _, labeled, _ = load_dataset(path)
    assert labeled.ids == ["a\u2028b", "c\x85d"]

    path.write_text(text + "{not json\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 4: malformed"):
        load_dataset(path)


def assert_peak_memory_below_the_file_size(tmp_path):
    # one line is held at a time, so the peak follows the parsed columns
    cfg = small_config(dim=8, unlabeled_counts=[1000, 1000, 1000])
    path = synth_generate(cfg, tmp_path)["train"]
    tracemalloc.start()
    try:
        load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(path)


def test_loader_peak_memory_stays_below_the_file_size(tmp_path):
    assert_peak_memory_below_the_file_size(tmp_path)


# ---------------------------------------------------------------------------
# parsing in byte ranges

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
    reason="ranges are parsed and written by forked children",
)


def spy_on(monkeypatch, name):
    """Wrap ``data.<name>``; returns the list each of its results goes to."""
    runs = []
    real = getattr(data, name)

    def spy(*args):
        runs.append(real(*args))
        return runs[-1]

    monkeypatch.setattr(data, name, spy)
    return runs


def ranges_everywhere(monkeypatch, cores=2):
    """Cut every file into ranges, as on ``cores`` usable cores."""
    monkeypatch.setattr(data, "_RANGE_MIN_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def parse_in_ranges_everywhere(monkeypatch, cores=2):
    """Make load_dataset parse every file in byte ranges, as on ``cores``
    usable cores. Returns the list each _parse_in_ranges result goes to."""
    ranges_everywhere(monkeypatch, cores)
    return spy_on(monkeypatch, "_parse_in_ranges")


def count_forks(monkeypatch):
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_splits(expected, actual):
    assert len(expected) == len(actual) == 2
    for a, b in zip(expected, actual):
        assert a.ids == b.ids
        for key in ("labels", "q", "c", "q_aug", "c_aug"):
            x, y = getattr(a, key), getattr(b, key)
            assert (x is None) == (y is None), key
            if x is not None:
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), key


def write_interleaved(tmp_path, newline, blank_lines, odd_ids):
    """A generated train file with labeled and unlabeled records alternating,
    written with ``newline``, a blank line after every record if asked, and
    ids holding a raw U+2028 and U+0085 if asked."""
    cfg = small_config(dim=3, unlabeled_counts=[40, 20, 10])
    with open(synth_generate(cfg, tmp_path)["train"], encoding="utf-8") as fh:
        header, *records = fh.read().splitlines()
    labeled, unlabeled = records[:11], records[11:]
    records = [r for pair in itertools.zip_longest(labeled, unlabeled) for r in pair if r]
    if odd_ids:
        records = [
            json.dumps({**rec, "id": rec["id"] + "\u2028\x85"}, ensure_ascii=False)
            for rec in map(json.loads, records)
        ]
    lines = [header] + [r + newline if blank_lines else r for r in records]
    path = tmp_path / "interleaved.jsonl"
    path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))
    return path


@needs_fork
@pytest.mark.parametrize("ranges", [2, 3, 4])
@pytest.mark.parametrize(
    "newline,blank_lines,odd_ids",
    [("\n", False, False), ("\r\n", False, False), ("\n", True, False),
     ("\r\n", True, False), ("\n", False, True)],
    ids=["lf", "crlf", "blank-lines", "crlf-blank-lines", "u2028-ids"],
)
def test_parse_in_ranges_matches_the_serial_parse(tmp_path, ranges, newline, blank_lines, odd_ids):
    path = write_interleaved(tmp_path, newline, blank_lines, odd_ids)
    assert os.path.getsize(path) < 2 * data._RANGE_MIN_BYTES  # load_dataset parses it serially
    header, *serial = load_dataset(path)
    assert len(serial[0]) == 11 and len(serial[1]) == 70
    cuts = data._cut_points(path, ranges)
    assert len(cuts) == ranges + 1
    if blank_lines:  # every cut is next to a blank line
        raw = path.read_bytes()
        nl = newline.encode()
        assert all(raw[c - 2 * len(nl) : c] == 2 * nl or raw[c : c + len(nl)] == nl for c in cuts[1:-1])
    assert_same_splits(serial, data._parse_in_ranges(path, header, ranges))
    assert_no_child_left()


# valid unlabeled records put after write_mutated's header, so that the
# mutated lines lie in the last of two byte ranges
PADDING = [
    json.dumps({"id": f"p{i:03d}", "label": "unlabeled", "q": [0.25, 0.5], "c": [0.5, 0.25],
                "q_aug": [0.25, 0.75], "c_aug": [0.75, 0.25]})
    for i in range(40)
]


def padded(lines):
    return lines[:1] + PADDING + lines[1:]


@needs_fork
@pytest.mark.parametrize("name,mutate", [row[:2] for row in MUTATIONS])
def test_loader_in_ranges_reports_what_the_serial_parse_does(tmp_path, monkeypatch, name, mutate):
    path = write_mutated(tmp_path, f"{name}.jsonl", lambda ls: padded(mutate(ls)))
    with pytest.raises(DataFormatError) as serial:
        load_dataset(path)
    runs = parse_in_ranges_everywhere(monkeypatch)
    with pytest.raises(DataFormatError) as ranged:
        load_dataset(path)
    assert str(ranged.value) == str(serial.value)
    assert_no_child_left()
    if name in HEADER_ERRORS:
        assert runs == []
    else:
        assert len(runs) == 1
        padding_end = len("\n".join(path.read_text().split("\n")[: 1 + len(PADDING)])) + 1
        assert data._cut_points(path, 2)[1] <= padding_end


@needs_fork
def test_loader_in_ranges_reports_a_duplicate_across_ranges(tmp_path, monkeypatch):
    path = write_mutated(tmp_path, "dup.jsonl", lambda ls: padded(ls) + [PADDING[0]])
    with pytest.raises(DataFormatError) as serial:
        load_dataset(path)
    runs = parse_in_ranges_everywhere(monkeypatch)
    with pytest.raises(DataFormatError) as ranged:
        load_dataset(path)
    assert str(ranged.value) == str(serial.value)
    assert "line 45: duplicate record id 'p000'" in str(ranged.value)
    assert runs == [None]
    # the copies sit in different ranges
    lines = path.read_bytes().split(b"\n")
    assert len(lines[0]) + 1 < data._cut_points(path, 2)[1] < len(b"\n".join(lines[:44])) + 1
    assert_no_child_left()


@needs_fork
def test_loader_in_ranges_forks_below_the_core_count_and_leaves_no_child(tmp_path, monkeypatch):
    path = write_mutated(tmp_path, "ok.jsonl", padded)
    expected = load_dataset(path)
    threads = threading.active_count()
    runs = parse_in_ranges_everywhere(monkeypatch, cores=3)
    forks = count_forks(monkeypatch)
    header, *splits = load_dataset(path)
    assert runs[0] is not None and len(forks) == 2
    assert header == expected[0]
    assert_same_splits(expected[1:], splits)
    assert threading.active_count() == threads
    assert_no_child_left()

    bad = write_mutated(tmp_path, "bad.jsonl", lambda ls: padded(ls) + ["{not json"])
    with pytest.raises(DataFormatError, match="line 45: malformed"):
        load_dataset(bad)
    assert runs[1] is None
    assert_no_child_left()


def kill_after(lines, n):
    for i, item in enumerate(lines):
        if i == n:
            os.kill(os.getpid(), signal.SIGKILL)
        yield item


@needs_fork
def test_loader_in_ranges_survives_a_child_killed_mid_parse(tmp_path, monkeypatch):
    path = write_mutated(tmp_path, "ok.jsonl", padded)
    expected = load_dataset(path)
    runs = parse_in_ranges_everywhere(monkeypatch)
    parent = os.getpid()
    real = data._parse_records

    def parse(path, header, lines):
        return real(path, header, lines if os.getpid() == parent else kill_after(lines, 5))

    monkeypatch.setattr(data, "_parse_records", parse)
    header, *splits = load_dataset(path)
    assert runs == [None]
    assert header == expected[0]
    assert_same_splits(expected[1:], splits)
    assert_no_child_left()


@needs_fork
def test_loader_in_ranges_kills_its_children_when_a_range_fails(tmp_path, monkeypatch):
    path = write_mutated(tmp_path, "bad.jsonl", lambda ls: padded(ls) + ["{not json"])
    runs = parse_in_ranges_everywhere(monkeypatch)
    parent = os.getpid()
    real = data._parse_records

    def parse(path, header, lines):
        if os.getpid() != parent:
            time.sleep(60)
        return real(path, header, lines)

    monkeypatch.setattr(data, "_parse_records", parse)
    start = time.monotonic()
    with pytest.raises(DataFormatError, match="line 45: malformed"):
        load_dataset(path)
    assert time.monotonic() - start < 30
    assert runs == [None]
    assert_no_child_left()


@needs_fork
def test_loader_parses_serially_while_another_thread_runs(tmp_path, monkeypatch):
    path = write_mutated(tmp_path, "ok.jsonl", padded)
    runs = parse_in_ranges_everywhere(monkeypatch)
    forks = count_forks(monkeypatch)
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        load_dataset(path)
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert runs == [] and forks == []


@needs_fork
def test_loader_peak_memory_stays_below_the_file_size_in_ranges(tmp_path, monkeypatch):
    runs = parse_in_ranges_everywhere(monkeypatch)
    assert_peak_memory_below_the_file_size(tmp_path)
    assert len(runs) == 1 and runs[0] is not None


# ---------------------------------------------------------------------------
# writing in record ranges


def drawn_splits(unlabeled_counts=(40, 20, 10)):
    """A generated train file's header, labeled and unlabeled splits, and
    its bytes as the serial write gives them."""
    cfg = small_config(dim=3, unlabeled_counts=list(unlabeled_counts))
    rng = np.random.default_rng(cfg.seed)
    labeled = data._draw_split(cfg, rng, cfg.labeled_counts, "lab", augmented=False)
    unlabeled = data._draw_split(cfg, rng, cfg.unlabeled_counts, "unl", augmented=True)
    unlabeled.labels = None
    header = DatasetHeader(cfg.dim, cfg.class_names, cfg.labeled_counts)
    return header, labeled, unlabeled


def serial_bytes(tmp_path, header, *splits):
    path = tmp_path / "serial.jsonl"
    write_dataset(path, header, *splits)
    return path.read_bytes()


def constant_split(prefix, n, labeled):
    """``n`` records whose lines all have the same length."""
    ids = [f"{prefix}{i:03d}" for i in range(n)]
    q, c = np.full((n, 2), 0.5), np.full((n, 2), 0.25)
    if labeled:
        return Split(ids, np.arange(n, dtype=np.int64) % 2, q, c)
    return Split(ids, None, q, c, q_aug=q + 0.25, c_aug=c + 0.25)


def assert_written_in_ranges(tmp_path, monkeypatch, header, splits, cores):
    """Write ``splits`` in ranges as on ``cores`` cores; the file must be
    the serial write's, from ``cores`` - 1 forked children, none left."""
    expected = serial_bytes(tmp_path, header, *splits)
    ranges_everywhere(monkeypatch, cores)
    runs = spy_on(monkeypatch, "_write_in_ranges")
    forks = count_forks(monkeypatch)
    path = tmp_path / "ranged.jsonl"
    write_dataset(path, header, *splits)
    assert runs == [True] and len(forks) == cores - 1
    assert path.read_bytes() == expected
    assert not os.path.exists(f"{path}.partial")
    assert_no_child_left()
    return path


@needs_fork
@pytest.mark.parametrize("cores", [2, 3, 4])
def test_write_in_ranges_matches_the_serial_write(tmp_path, monkeypatch, cores):
    header, *splits = drawn_splits()
    ranges_everywhere(monkeypatch, cores)
    ranges = data._record_ranges(header, splits)
    assert len(ranges) == cores
    # every record once, in order
    covered = [rid for piece in ranges for s, a, b in piece for rid in s.ids[a:b]]
    assert covered == splits[0].ids + splits[1].ids
    monkeypatch.undo()
    path = assert_written_in_ranges(tmp_path, monkeypatch, header, splits, cores)
    assert_same_splits(splits, load_dataset(path)[1:])


@needs_fork
def test_write_in_ranges_cuts_on_the_labeled_unlabeled_boundary(tmp_path, monkeypatch):
    header = DatasetHeader(2, ["yes", "no"], [0, 0])
    sizes = [len(next(data._record_lines(header, constant_split("x", 1, kind), 0, 1)))
             for kind in (True, False)]
    g = math.gcd(*sizes)
    # both splits hold the same number of bytes, so the one cut of two
    # ranges falls between them
    labeled = constant_split("l", sizes[1] // g, labeled=True)
    unlabeled = constant_split("u", sizes[0] // g, labeled=False)
    header.labeled_counts = np.bincount(labeled.labels, minlength=2).tolist()
    ranges_everywhere(monkeypatch, 2)
    assert data._record_ranges(header, [labeled, unlabeled]) == [
        [(labeled, 0, len(labeled))], [(unlabeled, 0, len(unlabeled))]
    ]
    monkeypatch.undo()
    path = assert_written_in_ranges(tmp_path, monkeypatch, header, [labeled, unlabeled], 2)
    assert_same_splits([labeled, unlabeled], load_dataset(path)[1:])


@needs_fork
def test_write_in_ranges_with_no_unlabeled_records(tmp_path, monkeypatch):
    header, labeled, _ = drawn_splits()
    empty = Split([], None, np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)))
    path = assert_written_in_ranges(tmp_path, monkeypatch, header, [labeled, empty], 3)
    assert_same_splits([labeled, empty], load_dataset(path)[1:])


def in_children(monkeypatch, wrap):
    """Run ``data._record_lines``'s lines through ``wrap`` in forked children
    only."""
    parent = os.getpid()
    real = data._record_lines

    def lines(*args):
        return real(*args) if os.getpid() == parent else wrap(real(*args))

    monkeypatch.setattr(data, "_record_lines", lines)


def raise_after(lines, n):
    for i, item in enumerate(lines):
        if i == n:
            raise RuntimeError("a range child fails")
        yield item


@needs_fork
@pytest.mark.parametrize("how", [kill_after, raise_after], ids=["sigkill", "raise"])
def test_write_in_ranges_falls_back_to_the_serial_write_when_a_child_fails(tmp_path, monkeypatch, how):
    # a child that raises must not run the parent's cleanup, which would
    # remove <path>.partial under the parent and fail its final rename
    header, *splits = drawn_splits()
    expected = serial_bytes(tmp_path, header, *splits)
    ranges_everywhere(monkeypatch, 3)
    runs = spy_on(monkeypatch, "_write_in_ranges")
    forks = count_forks(monkeypatch)
    in_children(monkeypatch, lambda lines: how(lines, 5))
    path = tmp_path / "ranged.jsonl"
    write_dataset(path, header, *splits)
    assert runs == [False] and len(forks) == 2
    assert path.read_bytes() == expected
    assert not os.path.exists(f"{path}.partial")
    assert_no_child_left()


def break_last_label(labeled, unlabeled):
    labeled.labels[-1] = 3  # past class_names, in the last range
    return unlabeled, labeled


def break_two_records(labeled, unlabeled):
    # the last labeled record is written first, the first unlabeled one is
    # measured first
    labeled.q = labeled.q[:-1]
    unlabeled.q_aug = unlabeled.q_aug[:0]
    return labeled, unlabeled


@needs_fork
@pytest.mark.parametrize("corrupt,ranged_runs", [(break_last_label, [False]), (break_two_records, [])],
                         ids=["in-a-child", "in-the-size-estimate"])
def test_write_in_ranges_raises_what_the_serial_write_does(tmp_path, monkeypatch, corrupt, ranged_runs):
    header, *splits = drawn_splits()
    splits = corrupt(*splits)
    with pytest.raises(IndexError) as first_bad:  # the records in file order
        for split in splits:
            list(data._record_lines(header, split, 0, len(split)))
    with pytest.raises(IndexError) as serial:
        write_dataset(tmp_path / "serial.jsonl", header, *splits)
    ranges_everywhere(monkeypatch, 2)
    runs = spy_on(monkeypatch, "_write_in_ranges")
    path = tmp_path / "ranged.jsonl"
    with pytest.raises(IndexError) as ranged:
        write_dataset(path, header, *splits)
    assert str(ranged.value) == str(serial.value) == str(first_bad.value)
    assert runs == ranged_runs
    assert not os.path.exists(path) and not os.path.exists(f"{path}.partial")
    assert_no_child_left()


@needs_fork
def test_write_stays_serial_while_another_thread_runs(tmp_path, monkeypatch):
    header, *splits = drawn_splits()
    expected = serial_bytes(tmp_path, header, *splits)
    ranges_everywhere(monkeypatch, 2)
    runs = spy_on(monkeypatch, "_write_in_ranges")
    forks = count_forks(monkeypatch)
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        write_dataset(tmp_path / "ranged.jsonl", header, *splits)
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert runs == [] and forks == []
    assert (tmp_path / "ranged.jsonl").read_bytes() == expected


def read_all(readers):
    return [fh.read() for fh in readers]


@needs_fork
def test_forked_work_is_dropped_on_a_fork_error_or_a_bad_exit_status(monkeypatch):
    def send(out):
        out.write(b"ok")

    def send_then_fail(out):
        send(out)
        out.flush()
        os._exit(3)

    assert data._in_children([send, send], read_all) == [b"ok", b"ok"]
    # the whole result arrived, but its child did not exit with status 0
    assert data._in_children([send, send_then_fail], read_all) is None
    assert_no_child_left()

    real = os.fork
    forks = []

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise OSError("fork failed")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    assert data._in_children([send, send], read_all) is None
    assert len(forks) == 2
    assert_no_child_left()


def test_copy_blob_rejects_a_short_blob():
    out = io.BytesIO()
    data._copy_blob(io.BytesIO(struct.pack("<Q", 3) + b"abcd"), out)
    assert out.getvalue() == b"abc"
    with pytest.raises(EOFError):
        data._copy_blob(io.BytesIO(struct.pack("<Q", 5) + b"abcd"), io.BytesIO())
    with pytest.raises(EOFError):
        data._copy_blob(io.BytesIO(b"\0\0"), io.BytesIO())


# float64 values whose shortest repr takes every form: signed zeros,
# subnormals, the extremes, exponents in both directions, 17 digits
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e-05, -1.5e-05, 0.0001,
    1e16, 1e22, 123456789012345680.0, 0.1 + 0.2, 1 / 3, -2 / 3, 1.0000000000000002,
]
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@needs_fork
def test_write_and_load_round_trip_any_finite_floats_bit_for_bit(tmp_path):
    forks = []

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.data())
    def round_trip(draw):
        dim = draw.draw(st.integers(1, 3))
        rows = {kind: draw.draw(st.integers(1 if kind == "labeled" else 0, 4))
                for kind in ("labeled", "unlabeled")}

        def matrix(n):
            return draw.draw(hnp.arrays(np.float64, (n, dim), elements=finite_floats))

        n = rows["labeled"]
        labels = np.array(draw.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
        labeled = Split([f"l{i}" for i in range(n)], labels, matrix(n), matrix(n))
        n = rows["unlabeled"]
        unlabeled = Split([f"u{i}" for i in range(n)], None, matrix(n), matrix(n), matrix(n), matrix(n))
        header = DatasetHeader(dim, ["yes", "no"], np.bincount(labels, minlength=2).tolist())
        path = tmp_path / "ds.jsonl"
        for cores in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                if cores > 1:
                    ranges_everywhere(mp, cores)
                forked = count_forks(mp)
                write_dataset(path, header, labeled, unlabeled)
                loaded = load_dataset(path)
            forks.extend(forked)
            assert loaded[0] == header
            assert_same_splits([labeled, unlabeled], loaded[1:])
        assert_no_child_left()

    round_trip()
    assert forks  # some examples were written and parsed in ranges


# ---------------------------------------------------------------------------
# synthetic generation


def test_generate_is_deterministic(tmp_path):
    cfg = small_config()
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    synth_generate(cfg, a)
    synth_generate(small_config(), b)
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "unlabeled-truth.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_counts_match_config(tmp_path):
    cfg = small_config()
    paths = synth_generate(cfg, tmp_path)
    header, labeled, unlabeled = load_dataset(paths["train"])
    assert header.labeled_counts == cfg.labeled_counts
    per_class = [0] * 3
    for label in labeled.labels:
        per_class[label] += 1
    assert per_class == cfg.labeled_counts
    assert len(unlabeled) == sum(cfg.unlabeled_counts)
    vh, valid, vunl = load_dataset(paths["valid"])
    assert vh.labeled_counts == cfg.valid_counts and len(vunl) == 0


def test_generated_truth_covers_every_unlabeled_id(tmp_path):
    cfg = small_config()
    paths = synth_generate(cfg, tmp_path)
    _, _, unlabeled = load_dataset(paths["train"])
    truth = load_truth(paths["truth"])
    assert set(truth) == set(unlabeled.ids)
    assert set(truth.values()) <= set(cfg.class_names)


def test_aug_sigma_zero_copies_vectors(tmp_path):
    cfg = small_config(aug_sigma=0.0)
    paths = synth_generate(cfg, tmp_path)
    _, _, unlabeled = load_dataset(paths["train"])
    np.testing.assert_array_equal(unlabeled.q_aug, unlabeled.q)
    np.testing.assert_array_equal(unlabeled.c_aug, unlabeled.c)


def oracle_generate(cfg):
    """The per-record generator: one standard_normal(dim) call per vector in
    the order q, c, q_aug, c_aug, and one json.dumps per record. Returns
    the text of the four files synth_generate writes."""
    rng = np.random.default_rng(cfg.seed)

    def draw(counts, prefix, augmented):
        records = []
        for k, n in enumerate(counts):
            mean = np.zeros(cfg.dim)
            mean[k] = cfg.separation
            for _ in range(n):
                q = mean + cfg.noise_sigma * rng.standard_normal(cfg.dim)
                c = mean + cfg.noise_sigma * rng.standard_normal(cfg.dim)
                rec = {"id": f"{prefix}-{len(records):05d}", "label": cfg.class_names[k],
                       "q": [float(v) for v in q], "c": [float(v) for v in c]}
                if augmented:
                    rec["q_aug"] = [float(v) for v in q + cfg.aug_sigma * rng.standard_normal(cfg.dim)]
                    rec["c_aug"] = [float(v) for v in c + cfg.aug_sigma * rng.standard_normal(cfg.dim)]
                records.append(rec)
        return records

    labeled = draw(cfg.labeled_counts, "lab", False)
    unlabeled = draw(cfg.unlabeled_counts, "unl", True)
    valid = draw(cfg.valid_counts, "val", False)
    test = draw(cfg.test_counts, "tst", False)
    truth = "".join(f"{r['id']}\t{r['label']}\n" for r in unlabeled)
    for r in unlabeled:
        r["label"] = "unlabeled"

    def text(counts, records):
        header = {"dim": cfg.dim, "class_names": cfg.class_names, "labeled_counts": counts}
        return "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in [header, *records])

    return {
        "train.jsonl": text(cfg.labeled_counts, labeled + unlabeled),
        "valid.jsonl": text(cfg.valid_counts, valid),
        "test.jsonl": text(cfg.test_counts, test),
        "unlabeled-truth.tsv": truth,
    }


def test_generate_matches_the_per_record_oracle(tmp_path):
    # aug_sigma > 0 and an unlabeled class without records
    cfg = small_config(aug_sigma=0.2, unlabeled_counts=[8, 0, 2])
    synth_generate(cfg, tmp_path)
    for name, text in oracle_generate(cfg).items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name


def test_class_clusters_are_separated(tmp_path):
    # with a wide margin the class centroids recover the configured means
    cfg = small_config(separation=6.0, noise_sigma=0.3)
    paths = synth_generate(cfg, tmp_path)
    _, labeled, _ = load_dataset(paths["train"])
    for k in range(3):
        rows = labeled.q[labeled.labels == k]
        centroid = rows.mean(axis=0)
        expected = np.zeros(4)
        expected[k] = 6.0
        assert np.linalg.norm(centroid - expected) < 1.0


def test_synth_config_validation():
    with pytest.raises(ParameterError):
        small_config(dim=2)  # fewer axes than classes
    with pytest.raises(ParameterError):
        small_config(separation=0.0)
    with pytest.raises(ParameterError):
        small_config(noise_sigma=0.0)
    with pytest.raises(ParameterError):
        small_config(aug_sigma=-0.1)
    with pytest.raises(ParameterError):
        small_config(labeled_counts=[6, 3])
    with pytest.raises(ParameterError):
        small_config(labeled_counts=[6, 3, 0])
    with pytest.raises(ParameterError):
        small_config(class_names=["a", "a", "b"])
    with pytest.raises(ParameterError):
        small_config(class_names=["yes", "unlabeled", "no"])  # the loader's sentinel
    for sep in "\t\n\r":  # the truth sidecar is one "id<TAB>name" line per record
        with pytest.raises(ParameterError):
            small_config(class_names=["a", f"b{sep}c", "d"])
    cfg = small_config(unlabeled_counts=[0, 0, 0])  # unlabeled may be empty
    assert cfg.unlabeled_counts == [0, 0, 0]


def test_generate_defaults_build_reference_task(tmp_path):
    # valid and test reuse the labeled gamma
    assert main(["generate", "--out", str(tmp_path)]) == 0
    cfg = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert cfg["labeled_counts"] == [43, 13, 4]
    assert cfg["unlabeled_counts"] == [1413, 446, 141]
    assert cfg["valid_counts"] == [60, 18, 6]
    assert cfg["test_counts"] == [200, 63, 20]
    assert sum(cfg["labeled_counts"]) == 60
    assert sum(cfg["unlabeled_counts"]) == 2000
    header, _, _ = load_dataset(tmp_path / "valid.jsonl")
    assert header.labeled_counts == [60, 18, 6]


# ---------------------------------------------------------------------------
# matrix helpers and views


def test_views_concatenate_in_question_context_order():
    split = Split(
        ["x"],
        None,
        q=np.array([[1.0, 2.0]]),
        c=np.array([[3.0, 4.0]]),
        q_aug=np.array([[1.5, 2.5]]),
        c_aug=np.array([[3.5, 4.5]]),
    )
    ids, orig, qview, cview = unlabeled_matrices(split)
    assert ids == ["x"]
    np.testing.assert_array_equal(orig, [[1, 2, 3, 4]])
    np.testing.assert_array_equal(qview, [[1.5, 2.5, 3, 4]])
    np.testing.assert_array_equal(cview, [[1, 2, 3.5, 4.5]])
    X, y = labeled_matrix(Split(["y"], np.array([1]), split.q, split.c))
    np.testing.assert_array_equal(X, [[1, 2, 3, 4]])
    assert y.tolist() == [1]


def test_matrix_helpers(tmp_path):
    cfg = small_config()
    paths = synth_generate(cfg, tmp_path)
    header, labeled, unlabeled = load_dataset(paths["train"])
    X, y = labeled_matrix(labeled)
    assert X.shape == (11, 8) and y.shape == (11,)
    ids, orig, qv, cv = unlabeled_matrices(unlabeled)
    assert len(ids) == 14 and orig.shape == qv.shape == cv.shape == (14, 8)
    with pytest.raises(ParameterError):
        labeled_matrix(Split([], np.zeros(0, np.int64), np.zeros((0, 4)), np.zeros((0, 4))))


def test_load_truth_validation(tmp_path):
    good = tmp_path / "t.tsv"
    good.write_text("a\tyes\nb\tno\n")
    assert load_truth(good) == {"a": "yes", "b": "no"}
    bad = tmp_path / "bad.tsv"
    bad.write_text("a yes\n")
    with pytest.raises(DataFormatError):
        load_truth(bad)
    dup = tmp_path / "dup.tsv"
    dup.write_text("a\tyes\na\tno\n")
    with pytest.raises(DataFormatError):
        load_truth(dup)
