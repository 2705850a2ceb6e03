"""The columnar metadata path against an independent per-exam oracle.

The oracle below reads the annotation CSV with the csv module, binarizes
each score by the README's table, and forms every confidence as a
``fractions.Fraction``; it calls nothing in ``confcl.metadata``.  The
column path (``io.read_metadata_columns``, ``metadata.summarize_votes``,
``losses.batch_inputs``) and the ``kernel`` command must agree with it
on the labeled and unlabeled exams, each exam's class and the class table.
"""

import csv
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from confcl import bench, losses, metadata
from confcl import io as cio
from confcl.cli import main

KERNEL_VARIANTS = ("proposed", "hc", "majority", "biopsy")


def _random_rows(rng):
    """Rows of about 80 exams in shuffled order, with every case the rule
    separates: exams with no vote (PI-RADS 3 only), lone ISUP and lone
    PI-RADS votes (beside abstentions), exact ties and random majorities."""
    rows = []
    benign = {"pirads": (1, 2), "isup": (0, 1)}
    malignant = {"pirads": (4, 5), "isup": (2, 3, 4, 5)}
    for i in range(80):
        exam, kind = f"e{i}", i % 5
        if kind == 0:
            votes = []
        elif kind in (1, 2):
            votes = [("isup" if kind == 1 else "pirads", int(rng.integers(0, 2)))]
        elif kind == 3:
            k = int(rng.integers(1, 4))
            votes = [(str(rng.choice(["pirads", "isup"])), v) for v in [0] * k + [1] * k]
        else:
            votes = [(str(rng.choice(["pirads", "isup"])), int(rng.integers(0, 2))) for _ in range(rng.integers(2, 8))]
        exam_rows = [(exam, s, int(rng.choice((malignant if v else benign)[s]))) for s, v in votes]
        exam_rows += [(exam, "pirads", 3)] * int(rng.integers(0 if votes else 1, 3))
        rows += exam_rows
    order = rng.permutation(len(rows))
    return [rows[k] for k in order]


def _oracle(path, epsilon, trusted, overrides):
    """exam id -> (label, confidence) or None, in first-appearance order."""
    votes = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for exam, source, value in list(csv.reader(handle))[1:]:
            value = int(value)
            vote = None if (source, value) == ("pirads", 3) else int(value >= (2 if source == "isup" else 4))
            votes.setdefault(exam, [])
            if vote is not None:
                votes[exam].append((vote, source))
    out = {}
    for exam, cast in votes.items():
        n, ones = len(cast), sum(v for v, _ in cast)
        if 2 * ones == n:
            out[exam] = None
        elif n == 1:
            lone = overrides.get(exam, 1.0 if cast[0][1] == trusted else epsilon)
            out[exam] = (ones, lone)
        else:
            out[exam] = (int(2 * ones > n), float(Fraction(2 * max(ones, n - ones) - n, n)))
    return out


def _oracle_kernel(summaries, variant):
    """Labeled and unlabeled exam ids, each labeled exam's class and the
    class table, one pair at a time."""
    keep = [e for e, s in summaries.items() if s is not None and (variant != "hc" or s[1] == 1.0)]
    pairs = sorted({summaries[e] for e in keep})
    table = np.zeros((len(pairs), len(pairs)))
    for a, (la, ca) in enumerate(pairs):
        for b, (lb, cb) in enumerate(pairs):
            if la != lb:
                continue
            if variant == "hc":
                table[a, b] = 0.8 if ca == cb == 1.0 else 0.0
            elif variant == "majority":
                table[a, b] = 0.8
            else:
                table[a, b] = min(ca, cb)
    classes = [pairs.index(summaries[e]) for e in keep]
    return keep, [e for e in summaries if e not in keep], classes, table


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("biopsy_source", [None, "isup", "pirads"])
@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
def test_column_path_matches_the_fraction_oracle(tmp_path, capsys, seed, biopsy_source, variant):
    rng = np.random.default_rng(seed)
    path = tmp_path / "meta.csv"
    cio.write_csv_table(str(path), cio.METADATA_HEADER, _random_rows(rng))
    epsilon = 0.25
    # e0 has no vote, e1 a lone ISUP vote, e2 a lone PI-RADS vote and e4 several.
    overrides = {"e0": 0.5, "e1": 0.3, "e2": 0.7, "e4": 0.9}
    spec = bench.variant_spec(variant)
    trusted = spec.trusted if biopsy_source is None else metadata.Source(biopsy_source)
    want = _oracle(str(path), epsilon, None if trusted is None else trusted.value, overrides)
    assert want["e0"] is None and len(want) == 80

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 for the exams with no vote
        votes = cio.read_metadata_columns(str(path))
        label, conf = metadata.summarize_votes(votes, epsilon, trusted, overrides)
        partition, kernel = losses.batch_inputs(label, conf, spec.kernel)
    assert votes.exam_ids == list(want)
    got = {e: None if y < 0 else (y, c) for e, y, c in zip(votes.exam_ids, label.tolist(), conf.tolist())}
    assert got == want
    labeled, unlabeled, classes, table = _oracle_kernel(want, variant)
    assert [votes.exam_ids[i] for i in partition.labeled] == labeled
    assert [votes.exam_ids[i] for i in partition.unlabeled] == unlabeled
    assert kernel.classes.tolist() == classes
    assert np.array_equal(kernel.weights.view(np.uint64), table.view(np.uint64))

    argv = ["kernel", "--metadata", str(path), "--variant", variant, "--epsilon", str(epsilon)]
    argv += [f"--epsilon-override={e}={v}" for e, v in overrides.items()]
    argv += [] if biopsy_source is None else ["--biopsy-source", biopsy_source]
    assert main(argv + ["--out", str(tmp_path / "k.csv")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["labeled"], report["unlabeled"]) == (labeled, unlabeled)
    dense = table[np.ix_(classes, classes)]
    np.fill_diagonal(dense, 1.0)
    expected = "".join(",".join(map(cio.fmt_float, row)) + "\n" for row in dense)
    assert (tmp_path / "k.csv").read_text() == expected


def test_column_reader_keeps_first_appearance_order_and_voteless_exams(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("exam_id,source,value\nb,pirads,5\na,pirads,3\nb,isup,0\nc,isup,4\na,pirads,3\n")
    votes = cio.read_metadata_columns(str(path))
    assert votes.exam_ids == ["b", "a", "c"]
    assert votes.exam.tolist() == [0, 0, 2]
    assert votes.votes.tolist() == [1, 0, 1]
    assert [metadata.SOURCES[k] for k in votes.sources.tolist()] == [
        metadata.Source.PIRADS,
        metadata.Source.ISUP,
        metadata.Source.ISUP,
    ]
    label, conf = metadata.summarize_votes(votes)
    assert label.tolist() == [-1, -1, 1] and conf.tolist() == [0.0, 0.0, metadata.DEFAULT_EPSILON]


def test_summarize_votes_checks_each_override():
    votes = metadata.vote_columns([metadata.AnnotationVector("a", (1,), (metadata.Source.PIRADS,))])
    with pytest.raises(metadata.AnnotationError, match=r"^no exam 'b' to override$"):
        metadata.summarize_votes(votes, overrides={"b": 0.5})
    with pytest.raises(metadata.AnnotationError, match=r"^epsilon 1.5 outside \(0, 1\]$"):
        metadata.summarize_votes(votes, overrides={"a": 1.5})
    assert metadata.summarize_votes(votes, overrides={"a": 0.5})[1].tolist() == [0.5]


def test_vote_columns_round_trip_through_the_object_reader(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("exam_id,source,value\nb,pirads,5\na,pirads,3\nb,isup,0\nc,isup,4\n")
    vectors = cio.read_metadata_csv(str(path))
    columns = metadata.vote_columns(vectors)
    read = cio.read_metadata_columns(str(path))
    assert columns.exam_ids == read.exam_ids
    for got, want in zip(columns[1:], read[1:]):
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize(
    "body, line",
    [(",pirads,4\n", 2), ("a,pirads,4\n,isup,2\n", 3), ('"x\ny",pirads,4\n,pirads,3\n', 4)],
    ids=["first-row", "second-row", "after-a-multiline-field"],
)
def test_an_empty_exam_id_names_the_file_and_the_line(tmp_path, body, line):
    path = tmp_path / "meta.csv"
    path.write_text("exam_id,source,value\n" + body)
    for reader in (cio.read_metadata_columns, cio.read_metadata_csv):
        with pytest.raises(cio.FileFormatError) as info:
            reader(str(path))
        assert (info.value.file, info.value.line, info.value.reason) == (str(path), line, "empty exam id")


def test_an_empty_exam_id_is_no_raw_annotation_so_no_writer_row():
    # write_metadata_rows takes RawAnnotation rows, so it cannot write one.
    with pytest.raises(metadata.AnnotationError, match="^empty exam id$"):
        metadata.RawAnnotation("", metadata.Source.PIRADS, 4)


def test_kernel_command_exits_1_on_an_empty_exam_id(tmp_path, capsys):
    path = tmp_path / "meta.csv"
    path.write_text("exam_id,source,value\na,pirads,5\n,pirads,4\n")
    code = main(["kernel", "--metadata", str(path), "--out", str(tmp_path / "k.csv")])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert (err["file"], err["line"], err["error"]) == (str(path), 3, "FileFormatError")
    assert not (tmp_path / "k.csv").exists()
