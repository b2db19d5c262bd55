"""Dataset format, loader validation, long-tail counts, and generator tests."""

import json

import numpy as np
import pytest

from qamatch.cli import main
from qamatch.data import (
    DatasetHeader,
    Example,
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
    write_dataset(out, header, labeled + unlabeled)
    header2, labeled2, unlabeled2 = load_dataset(out)

    assert header2 == header
    for a, b in zip(labeled + unlabeled, labeled2 + unlabeled2):
        assert a.example_id == b.example_id and a.label == b.label
        np.testing.assert_array_equal(a.question, b.question)
        np.testing.assert_array_equal(a.context, b.context)
        if a.question_aug is not None:
            np.testing.assert_array_equal(a.question_aug, b.question_aug)
            np.testing.assert_array_equal(a.context_aug, b.context_aug)


def test_loader_accepts_integer_and_name_labels(tmp_path):
    path = tmp_path / "ds.jsonl"
    lines = [
        {"dim": 1, "class_names": ["yes", "no"], "labeled_counts": [1, 1]},
        {"id": "a", "label": "yes", "q": [0.5], "c": [1.0]},
        {"id": "b", "label": 1, "q": [0.0], "c": [0.25]},
    ]
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    _, labeled, unlabeled = load_dataset(path)
    assert [r.label for r in labeled] == [0, 1]
    assert unlabeled == []


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


@pytest.mark.parametrize(
    "name,mutate,fragment",
    [
        ("empty", lambda ls: [""], "header"),
        ("badjson", lambda ls: ls[:1] + ["{not json"] + ls[2:], "line 2"),
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
            lambda ls: ls[:1] + [json.dumps({**json.loads(ls[1]), "q": ["inf", 0.0]})] + ls[2:],
            "finite",
        ),
        (
            "count_mismatch",
            lambda ls: ls[:2] + ls[3:],  # drop one labeled record
            "labeled_counts",
        ),
    ],
)
def test_loader_rejects_mutated_files(tmp_path, name, mutate, fragment):
    path = write_mutated(tmp_path, f"{name}.jsonl", mutate)
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert fragment in str(err.value)


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
    for r in labeled:
        per_class[r.label] += 1
    assert per_class == cfg.labeled_counts
    assert len(unlabeled) == sum(cfg.unlabeled_counts)
    vh, valid, vunl = load_dataset(paths["valid"])
    assert vh.labeled_counts == cfg.valid_counts and vunl == []


def test_generated_truth_covers_every_unlabeled_id(tmp_path):
    cfg = small_config()
    paths = synth_generate(cfg, tmp_path)
    _, _, unlabeled = load_dataset(paths["train"])
    truth = load_truth(paths["truth"])
    assert set(truth) == {r.example_id for r in unlabeled}
    assert set(truth.values()) <= set(cfg.class_names)


def test_aug_sigma_zero_copies_vectors(tmp_path):
    cfg = small_config(aug_sigma=0.0)
    paths = synth_generate(cfg, tmp_path)
    _, _, unlabeled = load_dataset(paths["train"])
    for r in unlabeled:
        np.testing.assert_array_equal(r.question_aug, r.question)
        np.testing.assert_array_equal(r.context_aug, r.context)


def test_class_clusters_are_separated(tmp_path):
    # with a wide margin the class centroids recover the configured means
    cfg = small_config(separation=6.0, noise_sigma=0.3)
    paths = synth_generate(cfg, tmp_path)
    _, labeled, _ = load_dataset(paths["train"])
    for k in range(3):
        rows = np.stack([r.question for r in labeled if r.label == k])
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
    rec = Example(
        "x",
        None,
        question=np.array([1.0, 2.0]),
        context=np.array([3.0, 4.0]),
        question_aug=np.array([1.5, 2.5]),
        context_aug=np.array([3.5, 4.5]),
    )
    np.testing.assert_array_equal(rec.original_view(), [1, 2, 3, 4])
    np.testing.assert_array_equal(rec.question_view(), [1.5, 2.5, 3, 4])
    np.testing.assert_array_equal(rec.context_view(), [1, 2, 3.5, 4.5])


def test_matrix_helpers(tmp_path):
    cfg = small_config()
    paths = synth_generate(cfg, tmp_path)
    header, labeled, unlabeled = load_dataset(paths["train"])
    X, y = labeled_matrix(labeled)
    assert X.shape == (11, 8) and y.shape == (11,)
    ids, orig, qv, cv = unlabeled_matrices(unlabeled)
    assert len(ids) == 14 and orig.shape == qv.shape == cv.shape == (14, 8)
    with pytest.raises(ParameterError):
        labeled_matrix([])


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
