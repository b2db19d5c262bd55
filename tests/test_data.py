"""Dataset format, loader validation, long-tail counts, and generator tests."""

import hashlib
import itertools
import json
import math
import os
import signal
import struct
import threading
import time
import tracemalloc

import data_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qamatch import data
from qamatch.cli import main
from qamatch.data import (
    UNLABELED_SENTINEL,
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


def test_longtail_counts_refuses_more_classes_than_any_dim_allows():
    with pytest.raises(ParameterError, match="classes"):
        longtail_counts(10, 2.0, 10**20)


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
    synth_generate(cfg, tmp_path)
    header, labeled, unlabeled = load_dataset(tmp_path / "train.jsonl")

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
    assert str(path) in str(err.value)


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


def assert_peak_memory_below_the_file_size(tmp_path, column_file=True):
    # the column file is read one column at a time into its array, and the
    # JSON Lines parse holds one block of lines at a time, so the peak
    # follows the loaded columns; without ``column_file`` the JSON Lines
    # parse runs
    cfg = small_config(dim=8, unlabeled_counts=[1000, 1000, 1000])
    synth_generate(cfg, tmp_path)
    path = tmp_path / "train.jsonl"
    if not column_file:
        os.remove(f"{path}.cols")
    tracemalloc.start()
    try:
        load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(path)


def test_loader_peak_memory_stays_below_the_file_size(tmp_path):
    assert_peak_memory_below_the_file_size(tmp_path)


def test_loader_peak_memory_stays_below_the_file_size_without_a_column_file(tmp_path):
    assert_peak_memory_below_the_file_size(tmp_path, column_file=False)


# ---------------------------------------------------------------------------
# the binary column file


def load_from_json_lines(path):
    """load_dataset(path) with the column file moved away, or its error:
    the JSON Lines are parsed, in ranges where that is patched in."""
    cols = f"{path}.cols"
    os.rename(cols, f"{cols}.away")
    try:
        return load_dataset(path)
    except DataFormatError as e:
        return str(e)
    finally:
        os.rename(f"{cols}.away", cols)


def assert_same_load(expected, path):
    """load_dataset(path) gives ``expected``, a result or an error message,
    with writable C-contiguous columns."""
    try:
        actual = load_dataset(path)
    except DataFormatError as e:
        assert str(e) == expected
        return
    assert not isinstance(expected, str), expected
    assert actual[0] == expected[0]
    assert_same_splits(expected[1:], actual[1:])
    for split in actual[1:]:
        for key in ("q", "c", "q_aug", "c_aug"):
            column = getattr(split, key)
            if column is not None:
                assert column.flags.c_contiguous and column.flags.writeable, key


def test_column_file_gives_the_load_without_parsing_json(tmp_path, monkeypatch):
    synth_generate(small_config(), tmp_path)
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl"):
        path = tmp_path / name
        expected = load_from_json_lines(path)
        with monkeypatch.context() as mp:
            mp.setattr(data, "read_lines", None)  # the JSON Lines parse cannot run
            assert_same_load(expected, path)


def test_stale_column_file_is_ignored(tmp_path):
    assert main(["generate", "--out", str(tmp_path), "--seed", "3"]) == 0
    path = tmp_path / "train.jsonl"
    header, first, *rest = path.read_text().splitlines(keepends=True)
    record = json.loads(first)
    record["q"][0] = 12.5
    path.write_text(header + json.dumps(record) + "\n" + "".join(rest))
    _, labeled, _ = load_dataset(path)
    assert labeled.q[0, 0] == 12.5
    assert_same_load(load_from_json_lines(path), path)


def split_column_file(blob):
    """(JSON fields, payload) of a column file, or None where its JSON line
    does not parse."""
    start = len(data._COLS_MAGIC)
    end = blob.find(b"\n", start) + 1
    try:
        fields = json.loads(blob[start:end])
    except ValueError:
        return None
    return (fields, blob[end:]) if isinstance(fields, dict) else None


def join_column_file(fields, payload, reseal):
    """A column file of ``fields`` and ``payload``; with ``reseal`` its
    payload digest is recomputed, so that only a content check can refuse
    it."""
    if reseal:
        rest = {k: v for k, v in fields.items() if k != "payload_sha256"}
        digest = hashlib.sha256(data._json_line(rest).encode() + payload).hexdigest()
        fields = {**rest, "payload_sha256": digest}
    return data._COLS_MAGIC + data._json_line(fields).encode() + payload


def edit_field(key, edit):
    def apply(fields, payload):
        if isinstance(fields.get(key), list) and fields[key]:
            fields[key] = edit(list(fields[key]))
        elif key in fields and not isinstance(fields[key], list):
            fields[key] = edit(fields[key])
        return fields, payload
    return apply


def nan_first_value(fields, payload):
    return fields, struct.pack("<d", math.nan) + payload[8:]


# edits that change what the file holds: a stale digest refuses them
STALE_EDITS = {
    "source_sha256": edit_field("source_sha256", lambda v: hashlib.sha256(b"other").hexdigest()),
    "payload_sha256": edit_field("payload_sha256", lambda v: "0" * 64),
    "labeled_counts": edit_field("labeled_counts", lambda v: [v[0] + 1, *v[1:]]),
    "dim": edit_field("dim", lambda v: v + 1),
    "labeled_ids": edit_field("labeled_ids", lambda v: ["other", *v[1:]]),
    "unlabeled_ids": edit_field("unlabeled_ids", lambda v: v[::-1]),
    "labels": edit_field("labels", lambda v: [(v[0] + 1) % 3, *v[1:]]),
}
# edits that break a check of the JSON Lines parse: refused even resealed
INVALID_EDITS = {
    "counts_mismatch": edit_field("labeled_counts", lambda v: [v[0] + 1, *v[1:]]),
    "dim_mismatch": edit_field("dim", lambda v: v + 1),
    "dim_zero": edit_field("dim", lambda v: 0),
    "dim_string": edit_field("dim", str),
    "class_names_repeated": edit_field("class_names", lambda v: [v[0], *v[:-1]]),
    "duplicate_id": edit_field("labeled_ids", lambda v: [v[-1], *v[1:]]),
    "empty_id": edit_field("labeled_ids", lambda v: ["", *v[1:]]),
    "int_id": edit_field("labeled_ids", lambda v: [7, *v[1:]]),
    "label_out_of_range": edit_field("labels", lambda v: [3, *v[1:]]),
    "huge_label": edit_field("labels", lambda v: [10**18, *v[1:]]),
    "bool_label": edit_field("labels", lambda v: [True, *v[1:]]),
    "ids_not_a_list": edit_field("unlabeled_ids", lambda v: {"a": 1}),
    "missing_key": lambda fields, payload: ({k: v for k, v in fields.items() if k != "labels"}, payload),
    "extra_key": lambda fields, payload: ({**fields, "extra": 1}, payload),
    "nan_value": nan_first_value,
}
COLUMN_FILE_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 1 << 16)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("field"), st.sampled_from(sorted(STALE_EDITS)), st.just(False)),
    st.tuples(st.just("field"), st.sampled_from(sorted(INVALID_EDITS)), st.booleans()),
    st.tuples(st.just("respace"), st.booleans()),
)


def respace_json_line(blob, seal):
    """The column file with its JSON line's fields written with json.dumps'
    default spacing, then the payload digest, written so too if ``seal``,
    resealed over the canonical line, as a reader that re-encodes the
    fields to hash them would check it."""
    fields, payload = split_column_file(join_column_file(*split_column_file(blob), reseal=True))
    digest = fields.pop("payload_sha256")
    last = (", " + json.dumps({"payload_sha256": digest})[1:] if seal
            else "," + data._json_line({"payload_sha256": digest})[1:-1])
    line = json.dumps(fields)[:-1] + last + "\n"
    return data._COLS_MAGIC + line.encode() + payload


def edit_column_file(blob, edits):
    for kind, *args in edits:
        if kind == "respace":
            blob = respace_json_line(blob, *args) if split_column_file(blob) is not None else blob
        elif kind == "flip":
            blob = bytearray(blob)
            blob[args[0] % len(blob)] ^= args[1]
            blob = bytes(blob)
        elif kind == "cut":
            blob = blob[: args[0] % (len(blob) + 1)]
        elif kind == "append":
            blob += args[0]
        elif (parts := split_column_file(blob)) is not None:
            name, reseal = args
            blob = join_column_file(*{**STALE_EDITS, **INVALID_EDITS}[name](*parts), reseal)
    return blob


def test_mutated_column_file_loads_and_trains_as_the_json_lines_do(tmp_path, capsys):
    cfg = small_config(dim=3, labeled_counts=[4, 3, 2], unlabeled_counts=[5, 3, 2])
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    synth_generate(cfg, data_dir)
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("iterations = 6\neval_interval = 3\nlabeled_batch = 4\n"
                         "unlabeled_batch = 6\nhidden_dims = 5\n")
    names = ("train.jsonl", "valid.jsonl", "test.jsonl")
    blobs = {name: (data_dir / f"{name}.cols").read_bytes() for name in names}

    def run_cli():
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--out", str(out), "--config", str(train_cfg),
                     "--force"]) == 0
        assert main(["eval", "--model", str(out / "model.qam"), "--data", str(data_dir / "test.jsonl")]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return (out / "model.qam").read_bytes(), (out / "report.jsonl").read_bytes(), captured.out

    expected = {name: load_from_json_lines(data_dir / name) for name in names}
    for name in names:
        os.rename(data_dir / f"{name}.cols", data_dir / f"{name}.away")
    expected_run = run_cli()
    for name in names:
        os.rename(data_dir / f"{name}.away", data_dir / f"{name}.cols")
    outcomes = set()

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(st.lists(COLUMN_FILE_EDITS, min_size=1, max_size=3))
    def load_edited(edits):
        for name in names:
            path = data_dir / name
            blob = edit_column_file(blobs[name], edits)
            (data_dir / f"{name}.cols").write_bytes(blob)
            used = data._load_columns(path) is not None
            assert used == (blob == blobs[name]), name
            outcomes.add(used)
            assert_same_load(expected[name], path)
        assert run_cli() == expected_run

    load_edited()
    assert outcomes == {False, True}


def test_column_file_json_line_is_sealed_as_json_writes_it(tmp_path):
    synth_generate(small_config(), tmp_path)
    cols = tmp_path / "train.jsonl.cols"
    fields, _ = split_column_file(cols.read_bytes())
    digest = fields.pop("payload_sha256")
    line = data._json_line(fields).encode()
    sealed = line[:-2] + data._seal(digest)
    assert sealed == data._json_line({**fields, "payload_sha256": digest}).encode()
    assert cols.read_bytes().startswith(data._COLS_MAGIC + sealed)


RESPACED = {"respaced_fields": False, "respaced_json_line": True}


@pytest.mark.parametrize("name", sorted(STALE_EDITS) + sorted(INVALID_EDITS) + sorted(RESPACED))
def test_each_column_file_edit_is_refused(tmp_path, name):
    synth_generate(small_config(), tmp_path)
    path = tmp_path / "train.jsonl"
    expected = load_from_json_lines(path)
    cols = tmp_path / "train.jsonl.cols"
    blob = cols.read_bytes()
    if name in RESPACED:
        # the same fields and columns: only the digest of the line as read,
        # or its last member, refuses it
        edits = [[("respace", RESPACED[name])]]
        assert split_column_file(edit_column_file(blob, edits[0])) == split_column_file(blob)
    else:
        edits = [[("field", name, reseal)] for reseal in ([False, True] if name in INVALID_EDITS else [False])]
    for edit in edits:
        edited = edit_column_file(blob, edit)
        assert edited != blob
        cols.write_bytes(edited)
        assert data._load_columns(path) is None
        assert_same_load(expected, path)


def loader_form_splits(tmp_path, edit):
    header, labeled, unlabeled = load_dataset(write_mutated(tmp_path, "base.jsonl", lambda ls: ls))
    return edit(header, labeled, unlabeled)


def tuple_ids(header, labeled, unlabeled):
    return header, Split([("a", 1), ("b", 2)], labeled.labels, labeled.q, labeled.c), unlabeled


def float32_columns(header, labeled, unlabeled):
    # 0.1 in float32 is another number than in float64
    return header, Split(labeled.ids, labeled.labels, (labeled.q + 0.1).astype(np.float32), labeled.c), unlabeled


def int_column(header, labeled, unlabeled):
    return header, Split(labeled.ids, labeled.labels, (labeled.q * 1000).astype(np.int64), labeled.c), unlabeled


def bool_column(header, labeled, unlabeled):
    return header, Split(labeled.ids, labeled.labels, labeled.q > 0, labeled.c), unlabeled


def sentinel_class(header, labeled, unlabeled):
    return DatasetHeader(header.dim, ["yes", UNLABELED_SENTINEL], header.labeled_counts), labeled, unlabeled


def wide_labeled_aug(header, labeled, unlabeled):
    wide = np.zeros((len(labeled), header.dim + 1))
    return header, Split(labeled.ids, labeled.labels, labeled.q, labeled.c, wide, wide), unlabeled


def negative_count(header, labeled, unlabeled):
    header.labeled_counts[0] = -1  # past DatasetHeader's checks, which ran on construction
    return header, labeled, unlabeled


@pytest.mark.parametrize("edit,column_file", [
    (lambda *splits: splits, True),
    (negative_count, False),  # the header does not load
    (tuple_ids, False),  # the loader gives "['a', 1]" back
    (float32_columns, True),  # JSON carries each float32 value as the float64 it is
    (int_column, True),
    (bool_column, False),  # the loader refuses a JSON true
    (sentinel_class, False),  # the loader reads a "no" record as unlabeled
    (wide_labeled_aug, False),  # the loader refuses the labeled q_aug
], ids=["loader-form", "negative-count", "tuple-ids", "float32-column", "int64-column", "bool-column",
        "sentinel-class", "wide-labeled-q_aug"])
def test_write_dataset_writes_a_column_file_only_where_the_loader_gives_it_back(tmp_path, edit, column_file):
    header, *splits = loader_form_splits(tmp_path, lambda *splits: splits)
    path = tmp_path / "ds.jsonl"
    write_dataset(path, header, *splits)  # leaves a column file for other bytes
    header, *splits = loader_form_splits(tmp_path, edit)
    write_dataset(path, header, *splits)
    assert (data._load_columns(path) is not None) == column_file
    assert_same_load(load_from_json_lines(path), path)


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


def big_train_file(tmp_path):
    """A generated train file whose column file's source check hashes it on
    a helper thread, and which is parsed in ranges without one."""
    synth_generate(small_config(dim=8, unlabeled_counts=[1500, 1500, 1500]), tmp_path)
    path = tmp_path / "train.jsonl"
    assert os.path.getsize(path) >= max(data._HASH_THREAD_MIN_BYTES, 2 * data._RANGE_MIN_BYTES)
    return path


def slow_helper_hash(monkeypatch, fail=False):
    """Make ``data.sha256_file`` wait 0.2 s off the main thread, so that a
    helper thread left unjoined is still alive when the loader returns, and
    then raise OSError if ``fail``. Returns the names of the threads it ran
    on."""
    names = []
    real = data.sha256_file

    def sha256_file(path):
        if threading.current_thread() is not threading.main_thread():
            names.append(threading.current_thread().name)
            time.sleep(0.2)
            if fail:
                raise PermissionError(13, "Permission denied", str(path))
        return real(path)

    monkeypatch.setattr(data, "sha256_file", sha256_file)
    return names


def counted_ranges(monkeypatch):
    """Spy on ``data._range_count``; returns the list of the thread counts
    it saw."""
    seen = []
    real = data._range_count
    monkeypatch.setattr(data, "_range_count", lambda nbytes: seen.append(threading.active_count()) or real(nbytes))
    return seen


def damage_payload(path):
    cols = f"{path}.cols"
    blob = bytearray(open(cols, "rb").read())
    blob[-1] ^= 1
    open(cols, "wb").write(blob)


def cut_column_file(path, size):
    with open(f"{path}.cols", "r+b") as fh:
        fh.truncate(size)


COLUMN_FILE_STATES = {
    "current": lambda path: None,
    "stale": lambda path: open(path, "a").write("\n"),
    "damaged": damage_payload,
    "cut-json-line": lambda path: cut_column_file(path, len(data._COLS_MAGIC) + 10),
    "cut-columns": lambda path: cut_column_file(path, os.path.getsize(f"{path}.cols") - 8),
    "missing": lambda path: os.remove(f"{path}.cols"),
    "unreadable": lambda path: None,  # the hashing thread's read raises OSError
}


@pytest.mark.parametrize("state", sorted(COLUMN_FILE_STATES))
def test_loader_joins_its_hashing_thread_whatever_the_column_file(tmp_path, monkeypatch, state):
    path = big_train_file(tmp_path)
    COLUMN_FILE_STATES[state](path)
    expected = load_from_json_lines(path) if os.path.exists(f"{path}.cols") else load_dataset(path)
    threads = threading.active_count()
    names = slow_helper_hash(monkeypatch, fail=state == "unreadable")
    counts = counted_ranges(monkeypatch)
    used = spy_on(monkeypatch, "_load_columns")
    header, *splits = load_dataset(path)
    assert threading.active_count() == threads
    assert names == ([] if state == "missing" else ["qamatch-sha256"])
    assert (used[0] is not None) == (state == "current")
    assert counts == ([] if state == "current" else [threads])
    assert header == expected[0]
    assert_same_splits(expected[1:], splits)


def test_loader_hashes_small_files_and_given_digests_on_its_own_thread(tmp_path, monkeypatch):
    synth_generate(small_config(), tmp_path)
    names = slow_helper_hash(monkeypatch)
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl"):
        assert data._load_columns(tmp_path / name) is not None
    (tmp_path / "big").mkdir()
    big = big_train_file(tmp_path / "big")
    assert data._load_columns(big, data.sha256_file(big)) is not None
    assert names == []


@needs_fork
def test_loader_parses_beside_a_stale_column_file_in_ranges(tmp_path, monkeypatch):
    path = big_train_file(tmp_path)
    COLUMN_FILE_STATES["stale"](path)
    expected = load_from_json_lines(path)
    names = slow_helper_hash(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    runs = spy_on(monkeypatch, "_parse_in_ranges")
    forks = count_forks(monkeypatch)
    header, *splits = load_dataset(path)
    assert names == ["qamatch-sha256"]
    assert runs[0] is not None and len(forks) == 2
    assert header == expected[0]
    assert_same_splits(expected[1:], splits)
    assert_no_child_left()


ODD_ID_SUFFIX = "\u2028\x85"


def write_interleaved(tmp_path, newline, blank_lines, odd_ids):
    """A generated train file with labeled and unlabeled records alternating,
    written with ``newline``, a blank line after every record if asked, and
    ids ending in ODD_ID_SUFFIX, a raw U+2028 and U+0085, if asked. It has
    no column file."""
    cfg = small_config(dim=3, unlabeled_counts=[40, 20, 10])
    synth_generate(cfg, tmp_path)
    with open(tmp_path / "train.jsonl", encoding="utf-8") as fh:
        header, *records = fh.read().splitlines()
    labeled, unlabeled = records[:11], records[11:]
    records = [r for pair in itertools.zip_longest(labeled, unlabeled) for r in pair if r]
    if odd_ids:
        records = [
            json.dumps({**rec, "id": rec["id"] + ODD_ID_SUFFIX}, ensure_ascii=False)
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


@pytest.mark.parametrize(
    "newline,blank_lines,odd_ids",
    [("\n", False, False), ("\r\n", False, False), ("\n", True, False),
     ("\r\n", True, False), ("\n", False, True), ("\r", False, False), ("\r", True, False)],
    ids=["lf", "crlf", "blank-lines", "crlf-blank-lines", "u2028-ids", "cr", "cr-blank-lines"],
)
def test_serial_parse_gives_the_generated_records_whatever_the_line_ends(
        tmp_path, newline, blank_lines, odd_ids):
    # needs no fork: this is the parse of every small file and of every
    # platform without fork
    path = write_interleaved(tmp_path, newline, blank_lines, odd_ids)
    assert os.path.getsize(path) < 2 * data._RANGE_MIN_BYTES  # load_dataset parses it serially
    # the generated records, as the column file of the generated train file holds them
    expected = data._load_columns(tmp_path / "train.jsonl")
    assert expected is not None
    if odd_ids:
        for split in expected[1:]:
            split.ids = [rid + ODD_ID_SUFFIX for rid in split.ids]
    header, *splits = load_dataset(path)
    assert len(splits[0]) == 11 and len(splits[1]) == 70
    assert header == expected[0]
    assert_same_splits(expected[1:], splits)


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
def test_loader_parses_serially_where_no_cut_falls_between_lines(tmp_path, monkeypatch):
    # the one record is most of the file, so the one cut moves to its end
    path = tmp_path / "one.jsonl"
    labeled = Split(["a"], np.array([0]), np.full((1, 64), 0.1), np.full((1, 64), 0.2))
    write_dataset(path, DatasetHeader(64, ["yes", "no"], [1, 0]), labeled)
    os.remove(f"{path}.cols")
    expected = load_dataset(path)
    assert data._cut_points(path, 2) == [0, os.path.getsize(path)]
    runs = parse_in_ranges_everywhere(monkeypatch)
    forks = count_forks(monkeypatch)
    header, *splits = load_dataset(path)
    assert runs == [None] and forks == []
    assert header == expected[0]
    assert_same_splits(expected[1:], splits)


@needs_fork
def test_loader_peak_memory_stays_below_the_file_size_in_ranges(tmp_path, monkeypatch):
    runs = parse_in_ranges_everywhere(monkeypatch)
    assert_peak_memory_below_the_file_size(tmp_path, column_file=False)
    assert len(runs) == 1 and runs[0] is not None


# what a hostile edit puts in: JSON tokens, line breaks that JSON Lines does
# not split at, a byte that is not UTF-8, and integers past the float range,
# past the int conversion digit limit and past numpy's dimension limit
HOSTILE_BYTES = [
    b"", *(bytes([c]) for c in b'{}[]:,"-.019eE \n'), b"\r", "\x85".encode(), "\u2028".encode(),
    b"\xff", b"null", b"true", b'"unlabeled"', b"1" + b"0" * 20, b"1" + b"0" * 400, b"1" + b"0" * 5000,
]


@needs_fork
def test_loader_gives_a_data_error_or_the_same_result_on_hostile_files(tmp_path):
    synth_generate(small_config(dim=3, unlabeled_counts=[3, 2, 1]), tmp_path)
    base = (tmp_path / "train.jsonl").read_bytes()
    # each edit deletes up to 8 bytes at a position and inserts a piece there
    edits = st.lists(st.tuples(st.integers(0, len(base)), st.integers(0, 8), st.sampled_from(HOSTILE_BYTES)),
                     min_size=1, max_size=4)
    outcomes, forks = set(), []

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(edits)
    def load_edited(edits):
        blob = base
        for pos, cut, piece in edits:
            blob = blob[:pos] + piece + blob[pos + cut:]
        path = tmp_path / "hostile.jsonl"
        path.write_bytes(blob)
        results = []
        for cores in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                if cores > 1:
                    ranges_everywhere(mp, cores)
                forked = count_forks(mp)
                try:
                    results.append(load_dataset(path))
                except DataFormatError as e:  # any other exception fails the test
                    results.append(str(e))
            forks.extend(forked)
            assert_no_child_left()
        serial, ranged = results
        outcomes.add(type(serial))
        if isinstance(serial, str):
            assert ranged == serial
        else:
            assert ranged[0] == serial[0]
            assert_same_splits(serial[1:], ranged[1:])

    load_edited()
    assert outcomes == {str, tuple} and forks  # both outcomes occurred, some of them in ranges


# ---------------------------------------------------------------------------
# writing


def drawn_splits(unlabeled_counts=(40, 20, 10)):
    """A generated train file's header, labeled and unlabeled splits."""
    cfg = small_config(dim=3, unlabeled_counts=list(unlabeled_counts))
    rng = np.random.default_rng(cfg.seed)
    labeled = data._draw_split(cfg, rng, cfg.labeled_counts, "lab", augmented=False)
    unlabeled = data._draw_split(cfg, rng, cfg.unlabeled_counts, "unl", augmented=True)
    unlabeled.labels = None
    header = DatasetHeader(cfg.dim, cfg.class_names, cfg.labeled_counts)
    return header, labeled, unlabeled


@pytest.mark.parametrize("value", [math.nan, -math.inf])
@pytest.mark.parametrize("split,row", [(0, 0), (1, -1)], ids=["first-record", "last-record"])
def test_write_rejects_a_non_finite_entry_and_leaves_no_file(tmp_path, value, split, row):
    header, *splits = drawn_splits()
    splits[split].q[row, 1] = value
    rid = splits[split].ids[row]
    path = tmp_path / "ds.jsonl"
    with pytest.raises(DataFormatError, match=f"record '{rid}': a vector entry is not finite"):
        write_dataset(path, header, *splits)
    assert not os.path.exists(path) and not os.path.exists(f"{path}.partial")


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

    def send_part_then_die(out):
        out.write(b"o")
        out.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    assert data._in_children([send, send], read_all) == [b"ok", b"ok"]
    # the whole result arrived, but its child did not exit with status 0
    assert data._in_children([send, send_then_fail], read_all) is None
    # a part arrived, and its child was killed: the exit status is the only
    # sign that the output is short
    assert data._in_children([send, send_part_then_die], read_all) is None
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
                loaded = load_from_json_lines(path)
            forks.extend(forked)
            assert loaded[0] == header
            assert_same_splits([labeled, unlabeled], loaded[1:])
            assert data._load_columns(path) is not None
            assert_same_load(loaded, path)  # from the column file
        assert_no_child_left()

    round_trip()
    assert forks  # some examples were parsed in ranges


# where orjson and json spell a float64 alike, and where not: both sides of
# 1e-4 and 1e16, subnormals, signed zeros and the extremes
NOTATION_FLOATS = [
    9.999999999999999e-05, -9.999999999999999e-05, 0.0001, -0.0001, 9999999999999998.0,
    -9999999999999998.0, 1e16, -1e16, 5e-324, -5e-324, 2.225073858507201e-308, 0.0, -0.0,
    1.7976931348623157e308, -1.7976931348623157e308, 1e-05, 0.5, 1 / 3,
]
# characters json escapes or writes as \uXXXX where orjson writes them raw
ODD_CHARACTERS = ['"', "\\", "\x00", "\x1f", "\t", "\n", "\x7f", "\x85", "\u2028", "\u00e9", "\u20ac", "\U0001f600"]
odd_texts = st.text(st.one_of(st.sampled_from(ODD_CHARACTERS), st.characters(max_codepoint=0x7f)), max_size=5)


def column_as(kind, values):
    """``values``, an (n, dim) float64 matrix, as a column of another
    layout or type, holding the same numbers where the type can."""
    n, dim = values.shape
    if kind == "rows-of-a-draw":  # as the generator gives it: rows of unit stride, not contiguous
        draw = np.zeros((n, 3, dim))
        draw[:, 1] = values
        return draw[:, 1]
    if kind == "strided":
        return np.repeat(values, 2, axis=1)[:, ::2]
    if kind == "int64":
        return np.clip(np.nan_to_num(values), -2.0**62, 2.0**62).astype(np.int64)
    if kind == "float32":
        top = np.finfo(np.float32).max
        return np.clip(values, -top, top).astype(np.float32)
    return {"c": np.ascontiguousarray, "fortran": np.asfortranarray,
            "big-endian": lambda v: v.astype(">f8")}[kind](values)


COLUMN_KINDS = ["c", "rows-of-a-draw", "fortran", "strided", "int64", "float32", "big-endian"]


def assert_written_as_json_writes(path, header, *splits):
    """``write_dataset`` writes the oracle's bytes and returns their sha256,
    or raises its DataFormatError and leaves no file."""
    try:
        expected = data_oracle.json_lines(header, *splits)
    except DataFormatError as e:
        expected = str(e)
    for leftover in (path, f"{path}.cols"):
        if os.path.exists(leftover):
            os.remove(leftover)
    if isinstance(expected, str):
        with pytest.raises(DataFormatError) as error:
            write_dataset(path, header, *splits)
        assert str(error.value) == expected
        assert not os.path.exists(path) and not os.path.exists(f"{path}.partial")
    else:
        assert write_dataset(path, header, *splits) == hashlib.sha256(expected).hexdigest()
        assert path.read_bytes() == expected
    return expected


@pytest.mark.parametrize("block", [8, data._WRITE_BLOCK_ENTRIES], ids=["1-2-records", "all-records"])
@pytest.mark.parametrize("kind", COLUMN_KINDS)
def test_write_spells_every_record_as_json_dumps_does(tmp_path, monkeypatch, kind, block):
    # each record is plain but for one part: a vector entry, its id or its
    # label; written in blocks of one or two records, and in one block
    monkeypatch.setattr(data, "_WRITE_BLOCK_ENTRIES", block)
    odd_ids = [f"id{ch}" for ch in ODD_CHARACTERS] + [7, ("a", 1)]
    m = len(NOTATION_FLOATS)
    n = m + len(odd_ids)
    odd_entries = np.full((n, 2), 0.5)
    odd_entries[:m, 0] = NOTATION_FLOATS
    plain = np.full((n + 1, 2), 0.25)
    labels = np.zeros(n + 1, dtype=np.int64)
    labels[-1] = 1
    header = DatasetHeader(2, ["plain", "odd" + "".join(ODD_CHARACTERS)], [n, 1])
    ids = [f"v{i}" for i in range(m)] + odd_ids
    labeled = Split(ids + ["named"], labels, column_as(kind, np.vstack([odd_entries, plain[:1]])),
                    column_as(kind, plain))
    unlabeled = Split(ids, None, *(column_as(kind, v) for v in (plain[:n], plain[:n], plain[:n], -odd_entries)))
    assert isinstance(assert_written_as_json_writes(tmp_path / "ds.jsonl", header, labeled, unlabeled), bytes)


def break_last_label(labeled, unlabeled):
    labeled.labels[-1] = 3  # past class_names, in the last record written
    return unlabeled, labeled


def break_two_records(labeled, unlabeled):
    labeled.q = labeled.q[:-1]  # the last labeled record, written first, has no q
    unlabeled.q_aug = unlabeled.q_aug[:0]  # no unlabeled record has a q_aug
    return labeled, unlabeled


@pytest.mark.parametrize("corrupt", [break_last_label, break_two_records], ids=["label", "short-columns"])
def test_write_raises_what_json_dumps_does_on_a_record_it_cannot_write(tmp_path, corrupt):
    header, *splits = drawn_splits()
    splits = corrupt(*splits)
    with pytest.raises(IndexError) as first_bad:  # the records in file order
        data_oracle.json_lines(header, *splits)
    path = tmp_path / "ds.jsonl"
    with pytest.raises(IndexError) as written:
        write_dataset(path, header, *splits)
    assert str(written.value) == str(first_bad.value)
    assert not os.path.exists(path) and not os.path.exists(f"{path}.partial")


def test_write_matches_json_dumps_on_any_records(tmp_path):
    outcomes = set()
    plain_texts = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e), max_size=4)
    texts = st.one_of(plain_texts, odd_texts)
    plain_floats = st.one_of(st.floats(1e-4, 1e16), st.floats(-1e16, -1e-4), st.just(0.0))
    odd_floats = st.one_of(st.sampled_from(NOTATION_FLOATS), st.floats(allow_nan=False, allow_infinity=False))

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def write(draw):
        dim = draw.draw(st.integers(1, 3))
        names = draw.draw(st.lists(texts, min_size=2, max_size=3, unique=True)
                          .filter(lambda names: UNLABELED_SENTINEL not in names))
        ids = st.one_of(plain_texts, odd_texts, st.integers(), st.tuples(st.integers(0, 9), texts))

        def column(n):
            # plain entries, and a few others
            values = draw.draw(hnp.arrays(np.float64, (n, dim), elements=plain_floats))
            odd = st.tuples(st.integers(0, 9), st.integers(0, 9), odd_floats)
            for row, entry, value in draw.draw(st.lists(odd, max_size=2)) if n else ():
                values[row % n, entry % dim] = value
            return column_as(draw.draw(st.sampled_from(COLUMN_KINDS)), values)

        n = draw.draw(st.integers(0, 4))
        labels = np.array(draw.draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n)), dtype=np.int64)
        labeled = Split(draw.draw(st.lists(ids, min_size=n, max_size=n)), labels, column(n), column(n))
        n = draw.draw(st.integers(0, 4))
        unlabeled = Split(draw.draw(st.lists(ids, min_size=n, max_size=n)), None, *(column(n) for _ in range(4)))
        header = DatasetHeader(dim, names, np.bincount(labels, minlength=len(names)).tolist())
        splits = [split for split in (labeled, unlabeled) if len(split)]
        poison = draw.draw(st.none() | st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]),
                                                 st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)))
        if poison and splits:
            value, k, row, entry = poison
            split = splits[k % len(splits)]
            target = [split.q, split.c, split.q_aug, split.c_aug][k % (2 if split.labels is not None else 4)]
            if target.dtype.kind == "f":
                target[row % len(split), entry % dim] = value
        outcomes.add(type(assert_written_as_json_writes(tmp_path / "ds.jsonl", header, labeled, unlabeled)))

    write()
    assert outcomes == {bytes, str}  # files were written, and errors raised


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
    synth_generate(cfg, tmp_path)
    header, labeled, unlabeled = load_dataset(tmp_path / "train.jsonl")
    assert header.labeled_counts == cfg.labeled_counts
    per_class = [0] * 3
    for label in labeled.labels:
        per_class[label] += 1
    assert per_class == cfg.labeled_counts
    assert len(unlabeled) == sum(cfg.unlabeled_counts)
    vh, valid, vunl = load_dataset(tmp_path / "valid.jsonl")
    assert vh.labeled_counts == cfg.valid_counts and len(vunl) == 0


def test_generated_truth_covers_every_unlabeled_id(tmp_path):
    cfg = small_config()
    synth_generate(cfg, tmp_path)
    _, _, unlabeled = load_dataset(tmp_path / "train.jsonl")
    truth = load_truth(tmp_path / "unlabeled-truth.tsv")
    assert set(truth) == set(unlabeled.ids)
    assert set(truth.values()) <= set(cfg.class_names)


def test_aug_sigma_zero_copies_vectors(tmp_path):
    cfg = small_config(aug_sigma=0.0)
    synth_generate(cfg, tmp_path)
    _, _, unlabeled = load_dataset(tmp_path / "train.jsonl")
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


# the last scales make noise_sigma * z underflow to subnormals and to -0.0,
# which adding the class mean's 0.0 turns into 0.0; 1e308 overflows
DRAW_SCALES = [(0.8, 0.35), (3.7, 1e-3), (5e-324, 2.5e-310), (1e308, 0.35)]


@pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
@pytest.mark.parametrize("noise_sigma,aug_sigma", DRAW_SCALES, ids=[f"{a:g}-{b:g}" for a, b in DRAW_SCALES])
def test_draw_split_matches_the_out_of_place_draw(augmented, noise_sigma, aug_sigma):
    cfg = small_config(dim=5, separation=2.8, noise_sigma=noise_sigma, aug_sigma=aug_sigma)
    counts = [40, 0, 25]  # a class without records
    draws = []
    for draw in (data._draw_split, data_oracle.draw_split):
        try:
            draws.append(draw(cfg, np.random.default_rng(3), counts, "x", augmented))
        except ParameterError as e:
            draws.append(str(e))
    got, want = draws
    if isinstance(want, str):
        assert got == want
        return
    assert got.ids == want.ids and got.labels.tolist() == want.labels.tolist()
    for key in ("q", "c", "q_aug", "c_aug"):
        if augmented or key in ("q", "c"):
            column = getattr(got, key)
            assert column.shape == (65, 5) and column.tobytes() == getattr(want, key).tobytes(), key
        else:
            assert getattr(got, key) is None and getattr(want, key) is None
    if noise_sigma == 5e-324:
        z = np.random.default_rng(3).standard_normal((65, 4 if augmented else 2, 5))
        assert np.signbit(noise_sigma * z[:, :2] + 0.0).sum() < np.signbit(noise_sigma * z[:, :2]).sum()


@pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
def test_draw_split_peak_memory_stays_under_one_and_a_half_draws(augmented):
    # the columns are views of the one draw, derived in place: no mean
    # matrix and no new column
    cfg = small_config(dim=256)
    tracemalloc.start()
    try:
        data._draw_split(cfg, np.random.default_rng(0), [500, 500, 500], "x", augmented)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1500 * (4 if augmented else 2) * 256 * 8)


def test_class_clusters_are_separated(tmp_path):
    # with a wide margin the class centroids recover the configured means
    cfg = small_config(separation=6.0, noise_sigma=0.3)
    synth_generate(cfg, tmp_path)
    _, labeled, _ = load_dataset(tmp_path / "train.jsonl")
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
    orig, qview, cview = unlabeled_matrices(split).take(np.array([0]))
    np.testing.assert_array_equal(orig, [[1, 2, 3, 4]])
    np.testing.assert_array_equal(qview, [[1.5, 2.5, 3, 4]])
    np.testing.assert_array_equal(cview, [[1, 2, 3.5, 4.5]])
    X, y = labeled_matrix(Split(["y"], np.array([1]), split.q, split.c))
    np.testing.assert_array_equal(X, [[1, 2, 3, 4]])
    assert y.tolist() == [1]


def test_unlabeled_views_match_the_hstacked_views():
    cfg = small_config(dim=5)
    rng = np.random.default_rng(2)
    unlabeled = data._draw_split(cfg, rng, [7, 3, 4], "u", augmented=True)
    empty = Split([], None, *[np.zeros((0, 5))] * 4)
    for split, index_sets in [
        (unlabeled, [rng.permutation(14), rng.integers(0, 14, size=40), [3, 3, 3], []]),
        (empty, [[]]),  # no unlabeled data
    ]:
        views = unlabeled_matrices(split)
        assert len(views) == len(split)
        whole = data_oracle.hstacked_views(split)
        for idx in index_sets:
            idx = np.asarray(idx, dtype=np.int64)
            for got, want in zip(views.take(idx), whole, strict=True):
                assert got.flags.c_contiguous and got.shape == (len(idx), 10)
                assert got.tobytes() == want[idx].tobytes()


def test_matrix_helpers(tmp_path):
    cfg = small_config()
    synth_generate(cfg, tmp_path)
    header, labeled, unlabeled = load_dataset(tmp_path / "train.jsonl")
    X, y = labeled_matrix(labeled)
    assert X.shape == (11, 8) and y.shape == (11,)
    views = unlabeled_matrices(unlabeled)
    assert len(views) == 14
    assert all(view.shape == (14, 8) for view in views.take(np.arange(14)))
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


def test_load_truth_keeps_one_str_per_class_name(tmp_path):
    path = tmp_path / "t.tsv"
    names = ["yes", "no", "maybe"]
    path.write_text("".join(f"id{i}\t{names[i % 3]}\n" for i in range(20000)))  # several blocks
    truth = load_truth(path)
    assert truth == data_oracle.load_truth(path)
    assert {name: len({id(v) for v in truth.values() if v == name}) for name in names} == dict.fromkeys(names, 1)


def block_lines(n, start=0):
    return [f"unl-{i:05d}\t{('yes', 'no', 'maybe')[i % 3]}" for i in range(start, start + n)]


def boundary_duplicate(tmp_path, copied):
    """A sidecar whose first default block ends with line k, and whose line
    k + 1 repeats the id of line ``copied`` (1 or k), on the other side of
    that block boundary."""
    path = tmp_path / "probe.tsv"
    lines = block_lines(5000)
    path.write_text("".join(line + "\n" for line in lines))
    k = len(next(data.read_blocks(path))[1])
    assert k < len(lines)
    lines[k] = lines[0 if copied == 1 else k - 1]
    return "".join(line + "\n" for line in lines).encode()


# (name, sidecar bytes); tmp_path is for the sidecars built from a probe
SIDECARS = [
    ("lf", lambda _: "".join(line + "\n" for line in block_lines(50)).encode()),
    ("crlf", lambda _: "".join(line + "\r\n" for line in block_lines(50)).encode()),
    ("cr", lambda _: "".join(line + "\r" for line in block_lines(50)).encode()),
    ("blank-lines", lambda _: ("\n" + "\n\r\n\r".join(block_lines(50)) + "\n\n").encode()),
    ("no-final-newline", lambda _: "\n".join(block_lines(50)).encode()),
    ("empty", lambda _: b""),
    ("missing-tab", lambda _: ("\n".join(block_lines(20)) + "\nunl-x yes\n" + "\n".join(block_lines(5, 20))).encode()),
    ("two-tabs", lambda _: ("\n".join(block_lines(20)) + "\nunl-x\tyes\tno\n").encode()),
    ("tab-only", lambda _: b"a\tyes\n\t\n"),
    ("empty-id", lambda _: ("\n".join(block_lines(20)) + "\n\tyes\n").encode()),
    ("empty-label", lambda _: b"a\t\nb\tno\n"),
    ("duplicate-id", lambda _: ("\n".join(block_lines(20) + block_lines(1, 7)) + "\n").encode()),
    ("duplicate-id-across-a-block-boundary", lambda tmp_path: boundary_duplicate(tmp_path, copied="k")),
    ("duplicate-of-line-1-after-a-block-boundary", lambda tmp_path: boundary_duplicate(tmp_path, copied=1)),
    ("line-longer-than-a-block", lambda _: ("a\tyes\n" + "b" * 70000 + "\tno\r\nc\tmaybe").encode()),
    ("unicode-ids", lambda _: "a\u2028b\tyes\nc\x85d\tno\né\tmaybe\n".encode()),
    ("not-utf8", lambda _: "\n".join(block_lines(20)).encode() + b"\nunl-\xff\tyes\n"),
    ("cut-utf8", lambda _: "a\tyes\né\tno".encode()[:-4]),
]


def oracle_outcome(fn, *args):
    try:
        return fn(*args)
    except DataFormatError as e:
        return str(e)


@pytest.mark.parametrize("block_bytes", [1, 7, data._BLOCK_BYTES])
@pytest.mark.parametrize("name,sidecar", SIDECARS, ids=[name for name, _ in SIDECARS])
def test_block_readers_match_the_line_at_a_time_readers(tmp_path, monkeypatch, name, sidecar, block_bytes):
    path = tmp_path / "truth.tsv"
    path.write_bytes(sidecar(tmp_path))
    expected_lines = oracle_outcome(lambda: list(data_oracle.read_lines(path)))
    expected_truth = oracle_outcome(data_oracle.load_truth, path)
    monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
    assert oracle_outcome(lambda: list(data.read_lines(path))) == expected_lines
    assert oracle_outcome(load_truth, path) == expected_truth


def lines_then_error(lines):
    """The items ``lines`` yields, and the text of the DataFormatError it
    then raises, or None."""
    got = []
    try:
        got.extend(lines)
    except DataFormatError as e:
        return got, str(e)
    return got, None


def lines_to(size, first=b""):
    """``first`` and then valid sidecar lines, ``size`` bytes in all, which
    end with a line feed."""
    out = first
    while len(out) < size - 20:
        out += f"unl-{len(out):05d}\tyes\n".encode()
    return out + b"z" * (size - len(out) - 4) + b"\tno\n"


# undecodable bytes around the 8 KiB pieces a text file is decoded in
UNDECODABLE = {
    "bad-line-in-the-same-8-KiB": b"a\tyes\nb no\nc\t\xffno\n",
    "bad-line-in-an-earlier-8-KiB": lines_to(8192, b"a\tyes\nb no\n") + b"c\t\xffno\n",
    "bad-line-a-block-earlier": lines_to(65536 + 8192, b"b no\n") + b"\xff\n",
    "bad-line-in-the-same-8-KiB-past-a-block": lines_to(65536 + 100) + b"b no\n\xff\n",
    "lf-ends-the-8-KiB": lines_to(8187) + b"x\tno\ny\t\xff\n",
    "cr-ends-the-8-KiB": lines_to(8187) + b"x\tno\ry\t\xff\n",
    "crlf-across-the-8-KiB": lines_to(8187) + b"x\tno\r\ny\t\xff\n",
    "lead-byte-ends-the-8-KiB": lines_to(8189) + b"x\t\xc3A\n",
    "continuation-ends-the-8-KiB": lines_to(8190) + b"\xe2\x82x\n",
    "character-across-the-8-KiB": lines_to(8191) + "é\tyes\n".encode() + b"b\t\x80\n",
    "cut-at-the-end": lines_to(8192) + b"x\t\xe2\x82",
    "cut-at-the-end-of-the-8-KiB": lines_to(8190) + b"x\xe2",
}


@pytest.mark.parametrize("block_bytes", [8192, data._BLOCK_BYTES])
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_block_reader_raises_undecodable_bytes_where_the_line_reader_does(tmp_path, monkeypatch, name, block_bytes):
    # the lines it yields first, and so which error a parse meets first
    path = tmp_path / "truth.tsv"
    path.write_bytes(UNDECODABLE[name])
    expected = lines_then_error(data_oracle.read_lines(path))
    assert expected[1] is not None
    monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
    assert lines_then_error(data.read_lines(path)) == expected
    assert oracle_outcome(load_truth, path) == oracle_outcome(data_oracle.load_truth, path)


TEXT_BYTES = [b"a", b"\t", b"\n", b"\r", b"\r\n", "é".encode(), "€".encode(), b"x" * 2000,
              b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]


def test_block_reader_yields_and_raises_what_the_line_reader_does(tmp_path):
    path = tmp_path / "text.bin"

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(TEXT_BYTES), max_size=40), st.sampled_from([8192, 16384, data._BLOCK_BYTES]))
    def read(parts, block_bytes):
        path.write_bytes(b"".join(parts))
        expected = lines_then_error(data_oracle.read_lines(path))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_BLOCK_BYTES", block_bytes)
            assert lines_then_error(data.read_lines(path)) == expected

    read()
