"""Command line tests; every command runs in process through main()."""

import argparse
import dataclasses
import json
import os
import struct
from fractions import Fraction

import numpy as np
import pytest

from confcl import bench, cli, io as cio, losses, metadata
from confcl.bench import batch_loss_inputs, variant_spec
from confcl.cli import _random_summaries, build_parser, main
from confcl.detection import DynamicThresholdParams
from confcl.losses import BatchPartition, ViewPairBatch, loss_decoupled
from confcl.metadata import MetadataSummary, Source, summarize_batch


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_metadata(path, rows):
    lines = ["exam_id,source,value"] + [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def metadata_csv(tmp_path):
    # a: votes (1, 1, 0); b: (1); c: (0, 0); d: abstains only.
    return _write_metadata(
        tmp_path / "meta.csv",
        [
            ("a", "pirads", 5),
            ("a", "pirads", 4),
            ("a", "pirads", 2),
            ("b", "isup", 2),
            ("c", "pirads", 1),
            ("c", "pirads", 2),
            ("d", "pirads", 3),
        ],
    )


# ---------------------------------------------------------------------------
# kernel


def test_kernel_command_writes_expected_matrix(capsys, tmp_path, metadata_csv):
    out = tmp_path / "kernel.csv"
    code, stdout, _ = _run(capsys, ["kernel", "--metadata", metadata_csv, "--out", str(out)])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["variant"] == "proposed"
    assert payload["epsilon"] == 0.1
    assert payload["labeled"] == ["a", "b", "c"]
    assert payload["unlabeled"] == ["d"]
    assert payload["shape"] == [3, 3]
    got = cio.read_matrix_csv(str(out))
    # (a, b) share label 1 and min(1/3, 0.1) = 0.1; c disagrees with both.
    expected = np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(got, expected)


def test_kernel_biopsy_trusts_isup_exams(capsys, tmp_path, metadata_csv):
    out = tmp_path / "kernel.csv"
    code, stdout, _ = _run(
        capsys,
        ["kernel", "--metadata", metadata_csv, "--variant", "biopsy", "--out", str(out)],
    )
    assert code == 0
    got = cio.read_matrix_csv(str(out))
    # b's lone isup vote is fully trusted, so min(conf_a, 1.0) = conf_a.
    conf_a = float(Fraction(1, 3))
    assert got[0, 1] == conf_a
    assert got[1, 0] == conf_a


def test_kernel_biopsy_trusts_only_a_lone_isup_vote(capsys, tmp_path):
    # a's ISUP 3 sits beside two disagreeing PI-RADS reads, so a keeps its
    # agreement confidence 1/3; b's lone ISUP vote is trusted at 1.  c's
    # two agreeing votes give it confidence 1, so row c reads a and b.
    meta = _write_metadata(
        tmp_path / "meta.csv",
        [
            ("a", "pirads", 5),
            ("a", "pirads", 1),
            ("a", "isup", 3),
            ("b", "isup", 2),
            ("c", "pirads", 5),
            ("c", "pirads", 4),
        ],
    )
    out = tmp_path / "kernel.csv"
    code, _, _ = _run(capsys, ["kernel", "--metadata", meta, "--variant", "biopsy", "--out", str(out)])
    assert code == 0
    got = cio.read_matrix_csv(str(out))
    assert (got[2, 0], got[2, 1]) == (float(Fraction(1, 3)), 1.0)


def test_kernel_epsilon_override_flag(capsys, tmp_path, metadata_csv):
    out = tmp_path / "kernel.csv"
    code, _, _ = _run(
        capsys,
        [
            "kernel",
            "--metadata",
            metadata_csv,
            "--epsilon-override",
            "b=0.2",
            "--out",
            str(out),
        ],
    )
    assert code == 0
    got = cio.read_matrix_csv(str(out))
    assert got[0, 1] == 0.2


@pytest.mark.parametrize(
    "flags, conf_a, conf_b",
    [
        ([], 0.5, 0.2),
        # An explicit override beats --biopsy-source's full trust.
        (["--biopsy-source", "pirads"], 0.5, 1.0),
    ],
)
def test_kernel_override_applies_to_its_exam_only(capsys, tmp_path, flags, conf_a, conf_b):
    # a and b are single-vote exams; c's two agreeing votes give it
    # confidence 1, so row c reads a's and b's confidences directly.
    meta = _write_metadata(
        tmp_path / "meta.csv",
        [("a", "pirads", 5), ("b", "pirads", 4), ("c", "pirads", 5), ("c", "pirads", 4)],
    )
    out = tmp_path / "kernel.csv"
    argv = ["kernel", "--metadata", meta, "--epsilon", "0.2", "--epsilon-override", "a=0.5"]
    code, _, _ = _run(capsys, argv + flags + ["--out", str(out)])
    assert code == 0
    got = cio.read_matrix_csv(str(out))
    assert (got[2, 0], got[2, 1], got[0, 1]) == (conf_a, conf_b, min(conf_a, conf_b))


@pytest.mark.parametrize("overrides, weight", [([], 1.0), (["--epsilon-override", "a=0.5"], 1.0)])
def test_kernel_biopsy_keeps_trusting_isup_under_an_override(capsys, tmp_path, overrides, weight):
    # a's two PI-RADS 5 reads agree (confidence 1), so an override of a
    # changes nothing; b's lone ISUP read stays fully trusted, not epsilon.
    meta = _write_metadata(tmp_path / "meta.csv", [("a", "pirads", 5), ("a", "pirads", 5), ("b", "isup", 2)])
    out = tmp_path / "kernel.csv"
    argv = ["kernel", "--metadata", meta, "--variant", "biopsy", *overrides, "--out", str(out)]
    assert _run(capsys, argv)[0] == 0
    assert cio.read_matrix_csv(str(out))[0, 1] == weight


def test_kernel_biopsy_source_beats_the_variants_source(capsys, tmp_path):
    # Under --biopsy-source pirads, biopsy trusts b's lone PI-RADS read and
    # leaves a's lone ISUP vote at epsilon; c (confidence 1) reads both.
    meta = _write_metadata(
        tmp_path / "meta.csv", [("a", "isup", 2), ("b", "pirads", 5), ("c", "pirads", 5), ("c", "pirads", 4)]
    )
    out = tmp_path / "kernel.csv"
    argv = ["kernel", "--metadata", meta, "--variant", "biopsy", "--biopsy-source", "pirads", "--out", str(out)]
    assert _run(capsys, argv)[0] == 0
    got = cio.read_matrix_csv(str(out))
    assert (got[2, 0], got[2, 1]) == (0.1, 1.0)


# A synthetic vote as an annotation CSV score: (vote 0, vote 1) per source.
_SCORES = {Source.ISUP: (0, 3), Source.PIRADS: (1, 5)}


@pytest.mark.parametrize("variant", ["proposed", "hc", "majority", "biopsy"])
def test_kernel_on_a_study_datasets_annotations_equals_its_study_cell(capsys, tmp_path, variant):
    # Seed 3's 64 exams include lone votes, which the synthetic sources tag
    # ISUP; biopsy must trust them in the CLI as it does in the study.
    cfg = bench.SynthConfig(n_exams=64)
    data = bench.generate_dataset(cfg, 3)
    assert any(a.n == 1 for a in data.annotations)
    rows = [
        (a.exam_id, s.value, _SCORES[s][v]) for a in data.annotations for v, s in zip(a.votes, a.sources)
    ]
    meta = _write_metadata(tmp_path / "meta.csv", rows)
    out = tmp_path / "kernel.csv"
    assert _run(capsys, ["kernel", "--metadata", meta, "--variant", variant, "--out", str(out)])[0] == 0
    expected = _cell_kernel(bench.study_cell(cfg, data, variant))
    assert np.array_equal(cio.read_matrix_csv(str(out)), expected)
    if variant == "biopsy":
        assert not np.array_equal(expected, _cell_kernel(bench.study_cell(cfg, data, "proposed")))


def _cell_kernel(cell):
    """A study cell's labeled kernel, dense: its table gathered over the
    labeled exams' classes, 1 on the diagonal."""
    classes = cell.exam_class[cell.exam_class >= 0]
    w = cell.table[classes[:, None], classes]
    np.fill_diagonal(w, 1.0)
    return w


def test_gradcheck_biopsy_trusts_exactly_the_lone_vote_exams():
    n, epsilon = 64, 0.1
    biopsy = _random_summaries(n, np.random.default_rng(5), epsilon, variant_spec("biopsy").trusted)
    proposed = _random_summaries(n, np.random.default_rng(5), epsilon, variant_spec("proposed").trusted)
    # The same draws _random_summaries makes: a vote count, then the votes.
    rng, lone = np.random.default_rng(5), []
    for _ in range(n):
        n_votes = int(rng.integers(0, 8))
        rng.integers(0, 2, n_votes)
        lone.append(n_votes == 1)
    assert any(lone) and not all(lone)
    for b, p, is_lone in zip(biopsy, proposed, lone, strict=True):
        if is_lone:
            assert (b.label, b.confidence, p.confidence) == (p.label, 1.0, epsilon)
        else:
            assert b == p


@pytest.mark.parametrize("command", ["kernel", "loss"])
def test_epsilon_override_of_an_absent_exam_names_it_and_the_file(capsys, tmp_path, command):
    _, _, p1, p2 = _write_views(tmp_path)
    meta = _write_metadata(tmp_path / "meta.csv", [("a", "pirads", 5), ("b", "pirads", 1)])
    out = tmp_path / "out"
    inputs = ["--x1", p1, "--x2", p2] if command == "loss" else []
    argv = [command, *inputs, "--metadata", meta, "--epsilon-override", "A=0.5", "--out", str(out)]
    code, stdout, stderr = _run(capsys, argv)
    assert (code, stdout) == (1, "")
    err = json.loads(stderr)
    assert err["file"] == meta
    assert err["message"] == f"{meta}: no exam 'A', which --epsilon-override names"
    assert not out.exists()


def test_loss_epsilon_override_needs_metadata(capsys, tmp_path):
    _, _, p1, p2 = _write_views(tmp_path)
    code, stdout, stderr = _run(capsys, ["loss", "--x1", p1, "--x2", p2, "--epsilon-override", "a=0.5"])
    assert (code, stdout) == (1, "")
    assert json.loads(stderr)["message"] == "--epsilon-override needs --metadata"


def test_loss_biopsy_source_needs_metadata(capsys, tmp_path):
    _, _, p1, p2 = _write_views(tmp_path)
    code, stdout, stderr = _run(capsys, ["loss", "--x1", p1, "--x2", p2, "--biopsy-source", "isup"])
    assert (code, stdout) == (1, "")
    assert json.loads(stderr)["message"] == "--biopsy-source needs --metadata"


@pytest.mark.parametrize(
    "command, flag",
    [("kernel", "--out"), ("loss", "--out"), ("eval-detect", "--out"), ("eval-detect", "--csv")],
)
def test_output_in_a_missing_directory_fails_before_reading(capsys, tmp_path, command, flag):
    # Every input is missing too, so a read before the check would fail on
    # the input instead.
    missing = str(tmp_path / "missing.in")
    inputs = {
        "kernel": ["--metadata", missing],
        "loss": ["--x1", missing, "--x2", missing, "--metadata", missing],
        "eval-detect": ["--prob", missing, "--ref", missing],
    }[command]
    target = tmp_path / "missing" / "r.out"
    code, stdout, stderr = _run(capsys, [command, *inputs, flag, str(target)])
    assert (code, stdout) == (1, "")
    err = json.loads(stderr)
    assert err["error"] == "FileNotFoundError"
    assert f"no directory for {flag}" in err["message"] and str(target) in err["message"]
    assert missing not in err["message"]


@pytest.mark.parametrize(
    "command, flag",
    [("kernel", "--out"), ("loss", "--out"), ("eval-detect", "--out"), ("eval-detect", "--csv")],
)
def test_output_that_is_a_directory_fails_before_reading(capsys, tmp_path, command, flag):
    missing = str(tmp_path / "missing.in")
    inputs = {
        "kernel": ["--metadata", missing],
        "loss": ["--x1", missing, "--x2", missing, "--metadata", missing],
        "eval-detect": ["--prob", missing, "--ref", missing],
    }[command]
    target = tmp_path / "outdir"
    target.mkdir()
    code, stdout, stderr = _run(capsys, [command, *inputs, flag, str(target)])
    assert (code, stdout) == (1, "")
    err = json.loads(stderr)
    assert err["error"] == "IsADirectoryError"
    assert f"{flag} is a directory" in err["message"] and str(target) in err["message"]
    assert ".tmp-confcl" not in err["message"] and os.listdir(target) == []


@pytest.mark.parametrize("command", ["kernel", "loss"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--epsilon", "7"], "--epsilon 7.0 outside (0, 1]"),
        (["--epsilon", "0"], "--epsilon 0.0 outside (0, 1]"),
        (["--epsilon=nan"], "--epsilon nan outside (0, 1]"),
        (["--epsilon-override", "b=7"], "--epsilon-override b 7.0 outside (0, 1]"),
        (["--epsilon-override", "d=nan"], "--epsilon-override d nan outside (0, 1]"),
        (["--epsilon-override", "zz=-1"], "--epsilon-override zz -1.0 outside (0, 1]"),
        (["--epsilon-override", "b"], "bad --epsilon-override 'b'; expected EXAM_ID=VALUE"),
        (["--epsilon-override", "a=abc"], "bad --epsilon-override 'a=abc'; VALUE 'abc' is not a number"),
        (
            ["--epsilon-override", "b=0.2", "--epsilon-override", "b=0.3"],
            "--epsilon-override gives exam 'b' twice",
        ),
    ],
)
def test_epsilon_options_are_checked_before_reading(capsys, tmp_path, command, flags, message):
    # Each value is checked whether or not an exam would use it (zz names
    # no exam); every input path is missing, so a read would fail first.
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "out"
    inputs = ["--x1", missing, "--x2", missing] if command == "loss" else []
    code, stdout, stderr = _run(
        capsys, [command, *inputs, "--metadata", missing, *flags, "--out", str(out)]
    )
    assert code == 1
    assert stdout == ""
    assert json.loads(stderr)["message"] == message
    assert not out.exists()


def test_kernel_rerun_is_byte_identical(capsys, tmp_path, metadata_csv):
    out = tmp_path / "kernel.csv"
    assert _run(capsys, ["kernel", "--metadata", metadata_csv, "--out", str(out)])[0] == 0
    first = out.read_bytes()
    assert _run(capsys, ["kernel", "--metadata", metadata_csv, "--out", str(out)])[0] == 0
    assert out.read_bytes() == first


KERNEL_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "kernel")


@pytest.mark.parametrize("variant", ["proposed", "hc", "majority", "biopsy"])
def test_kernel_csv_matches_golden_bytes(capsys, tmp_path, variant):
    # Twelve exams with one to seven PI-RADS and ISUP votes: confidences
    # 1/5, 1/3, 3/7, 3/5 and 1, single votes at epsilon, and a tie and an
    # abstention left unlabeled.
    meta = os.path.join(KERNEL_GOLDEN, "annotations.csv")
    out = tmp_path / "kernel.csv"
    argv = ["kernel", "--metadata", meta, "--variant", variant, "--out", str(out)]
    assert _run(capsys, argv)[0] == 0
    with open(os.path.join(KERNEL_GOLDEN, f"{variant}.csv"), "rb") as handle:
        assert out.read_bytes() == handle.read()


def test_kernel_all_unlabeled_writes_empty_matrix(capsys, tmp_path):
    # PI-RADS 3 is equivocal, so neither exam keeps a vote.
    meta = _write_metadata(tmp_path / "meta.csv", [("a", "pirads", 3), ("b", "pirads", 3)])
    out = tmp_path / "kernel.csv"
    code, stdout, _ = _run(capsys, ["kernel", "--metadata", meta, "--out", str(out)])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["shape"] == [0, 0]
    assert payload["labeled"] == []
    assert payload["unlabeled"] == ["a", "b"]
    assert out.read_bytes() == b""


def test_kernel_malformed_metadata_exits_1(capsys, tmp_path):
    bad = _write_metadata(
        tmp_path / "bad.csv", [("a", "pirads", 5), ("b", "mri", 2)]
    )
    code, _, stderr = _run(capsys, ["kernel", "--metadata", bad, "--out", str(tmp_path / "k.csv")])
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "FileFormatError"
    assert err["file"] == bad
    assert err["line"] == 3


@pytest.mark.parametrize(
    "body, message",
    [
        (b"exam_id,source,value\n" + b"x" * 200_000 + b",pirads,4\n", "field larger than field limit"),
        (b"exam_id,source,value\na\xff,pirads,4\n", "not UTF-8 at byte 22"),
    ],
)
def test_kernel_unreadable_metadata_exits_1_with_an_error_json(capsys, tmp_path, body, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body)
    code, _, stderr = _run(capsys, ["kernel", "--metadata", str(bad), "--out", str(tmp_path / "k.csv")])
    assert code == 1
    err = json.loads(stderr)
    assert (err["error"], err["file"], err["line"]) == ("FileFormatError", str(bad), 2)
    assert message in err["message"]


# ---------------------------------------------------------------------------
# loss


def _write_views(tmp_path):
    rng = np.random.default_rng(3)
    x1 = rng.normal(size=(3, 2))
    x2 = rng.normal(size=(3, 2))
    p1, p2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
    cio.write_matrix_csv(str(p1), x1)
    cio.write_matrix_csv(str(p2), x2)
    return x1, x2, str(p1), str(p2)


def test_loss_command_matches_library(capsys, tmp_path):
    x1, x2, p1, p2 = _write_views(tmp_path)
    meta = _write_metadata(
        tmp_path / "meta.csv",
        [("a", "pirads", 5), ("a", "pirads", 4), ("b", "pirads", 1)],
    )
    code, stdout, _ = _run(
        capsys, ["loss", "--x1", p1, "--x2", p2, "--metadata", meta]
    )
    assert code == 0
    payload = json.loads(stdout)
    summaries = summarize_batch(cio.read_metadata_csv(meta))
    summaries.append(MetadataSummary.unlabeled("row-2"))
    partition, kernel = batch_loss_inputs(summaries, variant_spec("proposed"))
    expected = loss_decoupled(ViewPairBatch(x1, x2), partition, kernel)
    assert payload["variant"] == "proposed"
    assert payload["n"] == 3
    assert payload["total"] == expected.total
    assert payload["align_labeled"] == expected.align_labeled
    assert payload["present"] == sorted(expected.present)


def test_loss_command_without_metadata_is_fully_unlabeled(capsys, tmp_path):
    x1, x2, p1, p2 = _write_views(tmp_path)
    code, stdout, _ = _run(capsys, ["loss", "--x1", p1, "--x2", p2])
    assert code == 0
    payload = json.loads(stdout)
    expected = loss_decoupled(ViewPairBatch(x1, x2), BatchPartition((), (0, 1, 2)), None)
    assert payload["present"] == ["align_unlabeled", "unif_unlabeled"]
    assert payload["total"] == expected.total


def test_loss_command_reads_packed_views(capsys, tmp_path):
    x1, x2, p1, p2 = _write_views(tmp_path)
    packed = tmp_path / "views.emb"
    cio.write_embeddings(str(packed), x1, x2)
    code_a, out_a, _ = _run(capsys, ["loss", "--embeddings", str(packed)])
    code_b, out_b, _ = _run(capsys, ["loss", "--x1", p1, "--x2", p2])
    assert code_a == code_b == 0
    assert out_a == out_b


def test_loss_normalize_flag(capsys, tmp_path):
    x1, x2, p1, p2 = _write_views(tmp_path)
    code, stdout, _ = _run(capsys, ["loss", "--x1", p1, "--x2", p2, "--normalize"])
    assert code == 0
    payload = json.loads(stdout)
    n1 = x1 / np.sqrt((x1 * x1).sum(axis=1, keepdims=True) + 1e-24)
    n2 = x2 / np.sqrt((x2 * x2).sum(axis=1, keepdims=True) + 1e-24)
    expected = loss_decoupled(ViewPairBatch(n1, n2), BatchPartition((), (0, 1, 2)), None)
    assert payload["total"] == expected.total


def test_loss_out_file_matches_stdout(capsys, tmp_path):
    _, _, p1, p2 = _write_views(tmp_path)
    out = tmp_path / "loss.json"
    code, stdout, _ = _run(capsys, ["loss", "--x1", p1, "--x2", p2, "--out", str(out)])
    assert code == 0
    assert stdout == ""
    code, stdout, _ = _run(capsys, ["loss", "--x1", p1, "--x2", p2])
    assert json.loads(out.read_text()) == json.loads(stdout)


def test_loss_rejects_more_exams_than_rows(capsys, tmp_path):
    _, _, p1, p2 = _write_views(tmp_path)
    meta = _write_metadata(
        tmp_path / "meta.csv",
        [("a", "pirads", 5), ("b", "pirads", 5), ("c", "pirads", 5), ("d", "pirads", 5)],
    )
    code, _, stderr = _run(capsys, ["loss", "--x1", p1, "--x2", p2, "--metadata", meta])
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "FileFormatError"
    assert "4 exams" in err["message"]


def test_loss_non_finite_view_csv_exits_1_naming_file_and_line(capsys, tmp_path):
    _, _, p1, p2 = _write_views(tmp_path)
    lines = open(p1).read().splitlines()
    lines[1] = "nan," + lines[1].split(",")[1]
    with open(p1, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    out = tmp_path / "loss.json"
    code, stdout, stderr = _run(capsys, ["loss", "--x1", p1, "--x2", p2, "--out", str(out)])
    assert code == 1
    assert stdout == ""
    assert not out.exists()
    err = json.loads(stderr)
    assert err["error"] == "FileFormatError"
    assert (err["file"], err["line"]) == (p1, 2)
    assert "non-finite cell" in err["message"]


@pytest.mark.parametrize("cell", ["1_0", "\uff11.\uff15"])
def test_loss_view_csv_with_python_only_numerals_exits_1_naming_file_and_line(capsys, tmp_path, cell):
    # float() reads 1_0 as 10.0 and full-width 1.5 as 1.5; no CSV writer emits either.
    _, _, p1, p2 = _write_views(tmp_path)
    lines = open(p1).read().splitlines()
    lines[1] = cell + ",2"
    with open(p1, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    code, stdout, stderr = _run(capsys, ["loss", "--x1", p1, "--x2", p2])
    assert code == 1
    assert stdout == ""
    err = json.loads(stderr)
    assert (err["error"], err["file"], err["line"]) == ("FileFormatError", p1, 2)
    assert "non-numeric cell" in err["message"]


def test_loss_non_utf8_view_csv_exits_1_naming_file_and_line(capsys, tmp_path):
    _, _, p1, p2 = _write_views(tmp_path)
    with open(p2, "ab") as handle:
        handle.write(b"\xff\n")
    code, stdout, stderr = _run(capsys, ["loss", "--x1", p1, "--x2", p2])
    assert code == 1
    assert stdout == ""
    err = json.loads(stderr)
    assert (err["error"], err["file"], err["line"]) == ("FileFormatError", p2, 4)
    assert "not UTF-8" in err["message"]


def test_loss_non_finite_result_exits_1_and_writes_nothing(capsys, tmp_path):
    # Finite views whose distances overflow: the total is inf, which strict
    # JSON refuses, so neither stdout nor the --out path gets a report.
    packed = tmp_path / "views.emb"
    cio.write_embeddings(str(packed), np.array([[1e200], [-1e200]]), np.array([[-1e200], [1e200]]))
    out = tmp_path / "loss.json"
    for extra in ([], ["--out", str(out)]):
        code, stdout, stderr = _run(capsys, ["loss", "--embeddings", str(packed), *extra])
        assert code == 1
        assert stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "ValueError" and "JSON" in err["message"]
    assert not out.exists()
    assert os.listdir(tmp_path) == ["views.emb"]


def _huge_views():
    """A 4 x 2 batch of finite values around 1e160: every squared row norm
    and every distance between different rows overflows float64."""
    x1 = np.array([[1e160, 2e160], [-3e160, 1e160], [2e160, -2e160], [-1e160, -3e160]])
    return x1, x1 * 1.01


def test_loss_normalize_refuses_a_row_whose_squared_norm_overflows(capsys, tmp_path):
    # normalize_rows would divide such a row by an infinite norm: all zeros,
    # and the loss of an all-zero batch.
    x1, x2 = _huge_views()
    packed = str(tmp_path / "views.emb")
    cio.write_embeddings(packed, x1, x2)
    p1, p2 = str(tmp_path / "x1.csv"), str(tmp_path / "x2.csv")
    cio.write_matrix_csv(p1, np.ones((4, 2)))
    cio.write_matrix_csv(p2, x2)
    for views, named in (
        (["--embeddings", packed], f"row 0 of view 1 in --embeddings {packed}"),
        (["--x1", p1, "--x2", p2], f"row 0 of view 2 in --x2 {p2}"),
    ):
        code, stdout, stderr = _run(capsys, ["loss", *views, "--normalize"])
        assert (code, stdout) == (1, "")
        message = json.loads(stderr)["message"]
        assert message.startswith("--normalize: ") and named in message, message


def test_loss_names_the_non_finite_terms_and_the_input_files(capsys, tmp_path):
    x1, x2 = _huge_views()
    packed = str(tmp_path / "views.emb")
    cio.write_embeddings(packed, x1, x2)
    p1, p2 = str(tmp_path / "x1.csv"), str(tmp_path / "x2.csv")
    cio.write_matrix_csv(p1, x1)
    cio.write_matrix_csv(p2, x2)
    for views, named in (
        (["--embeddings", packed], [f"--embeddings {packed}"]),
        (["--x1", p1, "--x2", p2], [f"--x1 {p1}", f"--x2 {p2}"]),
    ):
        code, stdout, stderr = _run(capsys, ["loss", *views])
        assert (code, stdout) == (1, "")
        message = json.loads(stderr)["message"]
        for part in named + ["align_unlabeled = inf", "total = inf"]:
            assert part in message, message
        assert "unif_unlabeled" not in message  # skipped: every distinct pair is at inf


def _no_dense_kernel(*args, **kwargs):
    raise AssertionError("a dense kernel was built")


def test_loss_command_builds_its_kernel_from_the_class_table(capsys, tmp_path, monkeypatch):
    # The dense |A| x |A| kernel is never built; the total is the library's
    # over kernel_matrix's dense kernel all the same.
    rng = np.random.default_rng(8)
    x1, x2 = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
    packed = str(tmp_path / "views.emb")
    cio.write_embeddings(packed, x1, x2)
    rows = [(e, "pirads", v) for e, v in zip("abcdefg", (5, 4, 1, 2, 5, 1, 3))] + [("a", "pirads", 4)]
    meta = _write_metadata(tmp_path / "meta.csv", rows)
    summaries = summarize_batch(cio.read_metadata_csv(meta))
    summaries += [MetadataSummary.unlabeled(f"row-{i}") for i in range(len(summaries), 9)]
    partition = losses.partition_batch(summaries)
    dense = metadata.kernel_matrix([summaries[i] for i in partition.labeled])
    assert dense.weights.shape == (6, 6)
    expected = loss_decoupled(ViewPairBatch(x1, x2), partition, dense)
    monkeypatch.setattr(metadata, "kernel_matrix", _no_dense_kernel)
    code, stdout, _ = _run(capsys, ["loss", "--embeddings", packed, "--metadata", meta])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["total"] == expected.total and payload["n_labeled"] == len(partition.labeled) == 6


def test_no_command_and_no_study_cell_builds_a_dense_kernel(capsys, tmp_path, monkeypatch, metadata_csv):
    # Every labeled kernel from metadata to the loss core is a class table;
    # kernel_matrix is only the dense view that tests compare against.  It
    # is patched wherever a module could have bound the name.
    for module in (metadata, losses, bench):
        monkeypatch.setattr(module, "kernel_matrix", _no_dense_kernel, raising=False)
    cfg = bench.SynthConfig(n_exams=40, epochs=1, batch_size=8)
    report = bench.run_study(cfg, seeds=[0])
    assert [r.error for r in report.records] == [None] * len(bench.STUDY_VARIANTS)
    rng = np.random.default_rng(6)
    packed = str(tmp_path / "views.emb")
    cio.write_embeddings(packed, rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
    for variant in bench.STUDY_VARIANTS:
        loss = ["loss", "--embeddings", packed, "--metadata", metadata_csv, "--variant", variant]
        assert _run(capsys, loss)[0] == 0
        assert _run(capsys, ["gradcheck", "--n", "5", "--d", "2", "--variant", variant])[0] == 0
    for variant in ("proposed", "hc", "majority", "biopsy"):
        kernel = ["kernel", "--metadata", metadata_csv, "--variant", variant, "--out", str(tmp_path / "k.csv")]
        assert _run(capsys, kernel)[0] == 0


def test_loss_requires_both_view_files(capsys, tmp_path):
    _, _, p1, _ = _write_views(tmp_path)
    code, _, stderr = _run(capsys, ["loss", "--x1", p1])
    assert code == 1
    assert "both --x1 and --x2" in json.loads(stderr)["message"]


@pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
def test_loss_names_both_view_files_on_a_shape_mismatch(capsys, tmp_path, shape):
    _, _, p1, _ = _write_views(tmp_path)
    p2 = str(tmp_path / "other.csv")
    cio.write_matrix_csv(p2, np.zeros(shape))
    code, stdout, stderr = _run(capsys, ["loss", "--x1", p1, "--x2", p2])
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "ValueError",
        "message": f"--x1 {p1} with --x2 {p2}: "
        f"views must share an (N, D) shape, got (3, 2) and {shape}",
    }


@pytest.mark.parametrize("csv_flags", [["--x1"], ["--x2"], ["--x1", "--x2"]])
def test_loss_refuses_embeddings_with_view_csvs(capsys, tmp_path, csv_flags):
    # Four EMB1 rows against three CSV rows: neither source may win silently.
    _, _, p1, _ = _write_views(tmp_path)
    packed = tmp_path / "views.emb"
    cio.write_embeddings(str(packed), np.zeros((4, 2)), np.ones((4, 2)))
    inputs = [arg for flag in csv_flags for arg in (flag, p1)]
    code, stdout, stderr = _run(capsys, ["loss", "--embeddings", str(packed), *inputs])
    assert (code, stdout) == (1, "")
    assert json.loads(stderr)["message"] == "give --embeddings or --x1 and --x2, not both"


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_at_default_tolerance(capsys):
    code, stdout, _ = _run(capsys, ["gradcheck", "--n", "5", "--d", "3", "--seed", "1"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["ok"] is True
    assert payload["max_rel_error"] <= 1e-4


@pytest.mark.parametrize(
    "variant", ["proposed", "hc", "majority", "biopsy", "glu", "unsupervised"]
)
def test_gradcheck_all_variants(capsys, variant):
    code, stdout, _ = _run(
        capsys, ["gradcheck", "--n", "4", "--d", "2", "--variant", variant]
    )
    assert code == 0
    assert json.loads(stdout)["ok"] is True


def test_gradcheck_fails_on_impossible_tolerance(capsys):
    code, stdout, _ = _run(capsys, ["gradcheck", "--tol", "1e-300"])
    assert code == 1
    assert json.loads(stdout)["ok"] is False


@pytest.mark.parametrize(
    "flag, fragment",
    [("--h=0", "h must be"), ("--h=nan", "h must be"), ("--h=inf", "h must be"), ("--tol=nan", "--tol")],
)
def test_gradcheck_rejects_a_bad_step_or_tolerance(capsys, flag, fragment):
    code, stdout, stderr = _run(capsys, ["gradcheck", "--n", "3", "--d", "2", flag])
    assert code == 1
    assert stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ValueError"
    assert fragment in err["message"]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--n", "-1", "--n must be >= 1, got -1"),
        ("--d", "0", "--d must be >= 1, got 0"),
        ("--h", "-1", "--h must be finite and > 0, got -1.0"),
    ],
)
def test_gradcheck_checks_sizes_and_step_before_drawing(capsys, monkeypatch, flag, value, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("drew a batch")

    monkeypatch.setattr(losses, "ViewPairBatch", forbidden)
    code, stdout, stderr = _run(capsys, ["gradcheck", "--n", "3", "--d", "2", flag, value])
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "ValueError", "message": message}


def test_gradcheck_checks_epsilon_before_drawing_any_exam(capsys):
    # Seed 5's two random exams are tied or empty, so no summary uses epsilon.
    code, stdout, stderr = _run(
        capsys, ["gradcheck", "--n", "2", "--d", "2", "--seed", "5", "--epsilon", "7"]
    )
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "AnnotationError", "message": "--epsilon 7.0 outside (0, 1]"}


# ---------------------------------------------------------------------------
# eval-detect


def _detection_fixture(tmp_path):
    """One exam: a 2-voxel reference blob at 0.9 plus a 1-voxel decoy at 0.7."""
    volume = np.zeros((4, 4, 2))
    volume[0, 0, 0] = 0.9
    volume[1, 0, 0] = 0.9
    volume[3, 3, 1] = 0.7
    mask = np.zeros((4, 4, 2), dtype=np.uint8)
    mask[0, 0, 0] = 1
    mask[1, 0, 0] = 1
    vol_path = tmp_path / "exam0.vol"
    mask_path = tmp_path / "exam0.msk"
    cio.write_volume(str(vol_path), volume)
    cio.write_mask(str(mask_path), mask)
    return str(vol_path), str(mask_path)


def test_eval_detect_fixed_threshold(capsys, tmp_path):
    vol, mask = _detection_fixture(tmp_path)
    code, stdout, _ = _run(capsys, ["eval-detect", "--prob", vol, "--ref", mask])
    assert code == 0
    payload = json.loads(stdout)
    settings = payload["settings"]
    assert settings["threshold"] == 0.5
    assert settings["tau"] == 0.1
    assert settings["connectivity"] == 26
    assert settings["match_comparison"] == "strict_greater"
    assert settings["fn_injected_as_zero_score_positives"] is True
    assert settings["map_pooling"] == "dataset"
    exam = payload["per_exam"][0]
    assert exam["exam_id"] == "exam-0000"
    assert exam["n_candidates"] == 2
    assert exam["true_positives"][0]["overlap"] == 1.0
    # Probabilities pass through the float32 volume format.
    assert exam["true_positives"][0]["probability"] == float(np.float32(0.9))
    assert [fp["probability"] for fp in exam["false_positives"]] == [float(np.float32(0.7))]
    assert exam["false_negatives"] == []
    assert payload["metrics"]["lesion_auc"] == 1.0
    assert payload["metrics"]["map"] == 1.0
    # A single exam cannot support a per-exam ROC curve.
    assert payload["metrics"]["exam_auc"] is None
    assert "exam_auc" in payload["notes"]


def test_eval_detect_explicit_threshold(capsys, tmp_path):
    vol, mask = _detection_fixture(tmp_path)
    code, stdout, _ = _run(
        capsys, ["eval-detect", "--prob", vol, "--ref", mask, "--threshold", "0.85"]
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["settings"]["threshold"] == 0.85
    assert payload["per_exam"][0]["n_candidates"] == 1
    assert payload["metrics"]["map"] == 1.0


def test_eval_detect_dynamic_mode(capsys, tmp_path):
    vol, mask = _detection_fixture(tmp_path)
    code, stdout, _ = _run(
        capsys,
        [
            "eval-detect",
            "--prob",
            vol,
            "--ref",
            mask,
            "--dynamic",
            "--t-start",
            "0.8",
            "--t-min",
            "0.1",
            "--step",
            "0.1",
            "--max-candidates",
            "2",
            "--min-voxels",
            "1",
        ],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["settings"]["threshold"] == "dynamic"
    exam = payload["per_exam"][0]
    # The search descends until the 0.7 decoy clears the strict cut.
    assert exam["threshold"] == 0.8 - 2 * 0.1
    assert exam["n_candidates"] == 2


def test_eval_detect_rejects_both_modes(capsys, tmp_path):
    vol, mask = _detection_fixture(tmp_path)
    code, _, stderr = _run(
        capsys,
        ["eval-detect", "--prob", vol, "--ref", mask, "--threshold", "0.5", "--dynamic"],
    )
    assert code == 1
    assert "not both" in json.loads(stderr)["message"]


def test_eval_detect_rejects_an_unbounded_step_before_reading(capsys, tmp_path):
    missing = str(tmp_path / "missing.vol")  # the step fails first, not the read
    code, _, stderr = _run(
        capsys,
        ["eval-detect", "--prob", missing, "--ref", missing, "--dynamic", "--step", "1e-20"],
    )
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "ValueError"
    assert "would visit more than 1000 thresholds" in err["message"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tau", "1.5"], "tau 1.5 outside [0, 1)"),
        (["--tau", "1"], "tau 1.0 outside [0, 1)"),
        (["--tau=nan"], "tau nan outside [0, 1)"),
        (["--threshold", "1.5"], "threshold 1.5 outside [0, 1]"),
        (["--threshold=nan"], "threshold nan outside [0, 1]"),
        (["--threshold=-0.1"], "threshold -0.1 outside [0, 1]"),
    ],
)
def test_eval_detect_rejects_a_bad_tau_or_threshold_before_reading(capsys, tmp_path, flags, message):
    missing = str(tmp_path / "missing.vol")  # the setting fails first, not the read
    code, _, stderr = _run(capsys, ["eval-detect", "--prob", missing, "--ref", missing, *flags])
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "ValueError"
    assert err["message"] == message


def test_eval_detect_mismatched_file_counts(capsys, tmp_path):
    vol, mask = _detection_fixture(tmp_path)
    code, _, stderr = _run(
        capsys, ["eval-detect", "--prob", vol, "--prob", vol, "--ref", mask]
    )
    assert code == 1
    assert "2 --prob files but 1 --ref files" in json.loads(stderr)["message"]


def test_eval_detect_names_the_pair_with_mismatched_dims(capsys, tmp_path):
    vol, mask = _detection_fixture(tmp_path)
    other = tmp_path / "exam1.msk"
    cio.write_mask(str(other), np.zeros((4, 4, 3), dtype=np.uint8))
    args = ["eval-detect", "--prob", vol, "--ref", mask, "--prob", vol, "--ref", str(other)]
    code, stdout, stderr = _run(capsys, args)
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "ValueError",
        "message": f"--prob {vol} with --ref {other}: "
        "exam-0001: volume dims (4, 4, 2) != reference dims (4, 4, 3)",
    }


def test_eval_detect_search_defaults_are_the_params_defaults():
    args = build_parser().parse_args(["eval-detect", "--prob", "p", "--ref", "r"])
    got = (args.t_start, args.t_min, args.step, args.max_candidates, args.min_voxels)
    assert got == dataclasses.astuple(DynamicThresholdParams())
    assert [type(v) for v in got] == [float, float, float, int, int]


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--step", "-1", "--t-start", "7"], "--t-start"),
        (["--min-voxels", "3"], "--min-voxels"),
        (["--threshold", "0.4", "--t-min=nan"], "--t-min"),
    ],
)
def test_eval_detect_refuses_a_search_flag_without_dynamic(capsys, tmp_path, flags, named):
    missing = str(tmp_path / "missing.vol")  # refused before any file is read
    code, stdout, stderr = _run(capsys, ["eval-detect", "--prob", missing, "--ref", missing, *flags])
    assert (code, stdout) == (1, "")
    err = json.loads(stderr)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(named + " ") and "--dynamic" in err["message"]


def test_eval_detect_takes_a_search_flag_at_its_default_without_dynamic(capsys, tmp_path):
    vol, mask = _detection_fixture(tmp_path)
    argv = ["eval-detect", "--prob", vol, "--ref", mask, "--step", "0.05", "--min-voxels", "10"]
    code, stdout, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(stdout)["settings"]["threshold"] == 0.5


def test_eval_detect_malformed_volume(capsys, tmp_path):
    _, mask = _detection_fixture(tmp_path)
    bad = tmp_path / "bad.vol"
    bad.write_bytes(b"JPEG")
    code, _, stderr = _run(capsys, ["eval-detect", "--prob", str(bad), "--ref", mask])
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "FileFormatError"
    assert err["file"] == str(bad)


def test_eval_detect_impossible_volume_header(capsys, tmp_path):
    _, mask = _detection_fixture(tmp_path)
    bad = tmp_path / "huge.vol"
    bad.write_bytes(cio.VOL_MAGIC + struct.pack("<iii", 2**31 - 1, 2**31 - 1, 2**31 - 1))
    code, _, stderr = _run(capsys, ["eval-detect", "--prob", str(bad), "--ref", mask])
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "FileFormatError"
    assert err["file"] == str(bad)


def test_eval_detect_csv_output(capsys, tmp_path):
    vol, mask = _detection_fixture(tmp_path)
    csv_path = tmp_path / "metrics.csv"
    code, _, _ = _run(
        capsys, ["eval-detect", "--prob", vol, "--ref", mask, "--csv", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "metric,value,n"
    assert lines[1] == "exam_auc,,1"  # undefined on one exam
    assert lines[2] == "lesion_auc,1,2"
    assert lines[3] == "map,1,1"


def test_eval_detect_multi_exam_auc(capsys, tmp_path):
    vol, mask = _detection_fixture(tmp_path)
    quiet = np.full((4, 4, 2), 0.2)
    empty = np.zeros((4, 4, 2), dtype=np.uint8)
    vol1 = tmp_path / "exam1.vol"
    mask1 = tmp_path / "exam1.msk"
    cio.write_volume(str(vol1), quiet)
    cio.write_mask(str(mask1), empty)
    code, stdout, _ = _run(
        capsys,
        ["eval-detect", "--prob", vol, "--ref", mask, "--prob", str(vol1), "--ref", str(mask1)],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["metrics"]["exam_auc"] == 1.0
    assert payload["notes"] == {}


# ---------------------------------------------------------------------------
# simulate


def _tiny_config(tmp_path, **overrides):
    cfg = {
        "n_exams": 24,
        "input_dim": 4,
        "hidden_dim": 6,
        "embed_dim": 3,
        "epochs": 2,
        "batch_size": 8,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_simulate_tiny_study(capsys, tmp_path):
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "report.json"
    cells = tmp_path / "cells.csv"
    summary = tmp_path / "summary.csv"
    code, stdout, _ = _run(
        capsys,
        [
            "simulate",
            "--config",
            cfg,
            "--variants",
            "proposed,unsupervised",
            "--seeds",
            "0",
            "--workers",
            "1",
            "--out",
            str(out),
            "--cells-csv",
            str(cells),
            "--summary-csv",
            str(summary),
        ],
    )
    assert code == 0
    assert stdout == ""
    report = json.loads(out.read_text())
    assert report["config"]["n_exams"] == 24
    assert report["variants"] == ["proposed", "unsupervised"]
    assert [r["error"] for r in report["records"]] == [None, None]

    cell_lines = cells.read_text().splitlines()
    assert cell_lines[0] == "variant,seed,probe_acc,probe_auc,align,unif,final_loss"
    assert len(cell_lines) == 3
    assert cell_lines[1].startswith("proposed,0,")

    summary_lines = summary.read_text().splitlines()
    assert summary_lines[0].startswith("variant,probe_acc_mean,probe_acc_std,")
    assert summary_lines[0].endswith(",n")
    assert len(summary_lines) == 3
    assert summary_lines[1].startswith("proposed,")
    assert summary_lines[2].startswith("unsupervised,")
    # One seed per variant: n is 1 and the mean echoes the single cell.
    assert summary_lines[1].endswith(",1")
    mean_acc = summary_lines[1].split(",")[1]
    assert float(mean_acc) == report["aggregates"]["proposed"]["probe_acc"]["mean"]


def test_simulate_rerun_is_byte_identical(capsys, tmp_path):
    cfg = _tiny_config(tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["simulate", "--config", cfg, "--variants", "proposed", "--seeds", "0,1", "--workers", "1"]
    assert _run(capsys, args + ["--out", str(out_a)])[0] == 0
    assert _run(capsys, args + ["--out", str(out_b)])[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_exits_1_when_a_cell_fails(capsys, tmp_path):
    # A learning rate this large diverges in the first epoch.
    cfg = _tiny_config(
        tmp_path, learning_rate=1e280, normalize_embeddings=False, frac_unlabeled=1.0
    )
    out = tmp_path / "report.json"
    cells = tmp_path / "cells.csv"
    code, stdout, _ = _run(
        capsys,
        ["simulate", "--config", cfg, "--variants", "unsupervised", "--seeds", "0",
         "--workers", "1", "--out", str(out), "--cells-csv", str(cells)],
    )
    assert code == 1
    assert stdout == ""
    [record] = json.loads(out.read_text())["records"]
    assert record["error"].startswith("TrainingDivergedError")
    assert cells.read_text().splitlines()[1] == "unsupervised,0,,,,,"


def test_simulate_seed_override(capsys, tmp_path):
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "report.json"
    code, _, _ = _run(
        capsys,
        ["simulate", "--config", cfg, "--seed", "5", "--variants", "proposed",
         "--seeds", "0", "--workers", "1", "--out", str(out)],
    )
    assert code == 0
    assert json.loads(out.read_text())["config"]["seed"] == 5


def test_simulate_rejects_unknown_config_field(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"learning_rte": 0.1}', encoding="utf-8")
    code, _, stderr = _run(capsys, ["simulate", "--config", str(path)])
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "FileFormatError"
    assert err["file"] == str(path)
    assert "learning_rte" in err["message"]


def test_simulate_rejects_a_variant_config_field(capsys, tmp_path):
    # The study runs every requested variant; a config variant would be ignored.
    path = tmp_path / "config.json"
    path.write_text('{"n_exams": 40, "epochs": 1, "variant": "hc"}', encoding="utf-8")
    out = tmp_path / "report.json"
    code, stdout, stderr = _run(capsys, ["simulate", "--config", str(path), "--out", str(out)])
    assert (code, stdout) == (1, "")
    err = json.loads(stderr)
    assert err["file"] == str(path)
    assert err["message"] == f"{path}: unknown config fields: ['variant']"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--cells-csv", "--summary-csv"])
def test_simulate_output_in_a_missing_directory_fails_before_the_study(
    capsys, tmp_path, monkeypatch, flag
):
    def no_study(*args, **kwargs):
        raise AssertionError("run_study called")

    monkeypatch.setattr(bench, "run_study", no_study)
    target = tmp_path / "missing" / "r.out"
    code, stdout, stderr = _run(
        capsys, ["simulate", "--config", _tiny_config(tmp_path), "--seeds", "0", flag, str(target)]
    )
    assert (code, stdout) == (1, "")
    err = json.loads(stderr)
    assert err["error"] == "FileNotFoundError"
    assert flag in err["message"] and str(target) in err["message"]


@pytest.mark.parametrize("flag", ["--out", "--cells-csv", "--summary-csv"])
def test_simulate_output_that_is_a_directory_fails_before_the_study(capsys, tmp_path, monkeypatch, flag):
    def no_study(*args, **kwargs):
        raise AssertionError("run_study called")

    monkeypatch.setattr(bench, "run_study", no_study)
    target = tmp_path / "outdir"
    target.mkdir()
    code, stdout, stderr = _run(
        capsys, ["simulate", "--config", _tiny_config(tmp_path), "--seeds", "0", flag, str(target)]
    )
    assert (code, stdout) == (1, "")
    err = json.loads(stderr)
    assert err["error"] == "IsADirectoryError"
    assert flag in err["message"] and str(target) in err["message"]


@pytest.mark.parametrize(
    "first, second",
    [("--out", "--cells-csv"), ("--out", "--summary-csv"), ("--cells-csv", "--summary-csv")],
)
def test_simulate_outputs_naming_one_file_fail_before_the_study(
    capsys, tmp_path, monkeypatch, first, second
):
    def no_study(*args, **kwargs):
        raise AssertionError("run_study called")

    monkeypatch.setattr(bench, "run_study", no_study)
    target = tmp_path / "r.json"
    argv = ["simulate", "--config", _tiny_config(tmp_path), "--seeds", "0"]
    code, stdout, stderr = _run(capsys, [*argv, first, str(target), second, str(target)])
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "ValueError", "message": f"{first} and {second} both name {target}"}
    assert not target.exists()


def test_eval_detect_outputs_naming_one_file_fail_before_reading(capsys, tmp_path, monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("input read")

    monkeypatch.setattr(cio, "read_volume", no_read)
    monkeypatch.setattr(cio, "read_mask", no_read)
    (tmp_path / "sub").mkdir()
    target = tmp_path / "r.json"
    # Another spelling of the same file, through a symlink and a parent step.
    os.symlink(target, tmp_path / "link.json")
    other = str(tmp_path / "sub" / ".." / "link.json")
    missing = str(tmp_path / "missing.in")
    argv = ["eval-detect", "--prob", missing, "--ref", missing, "--out", str(target), "--csv", other]
    code, stdout, stderr = _run(capsys, argv)
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "ValueError", "message": f"--out and --csv both name {other}"}
    assert sorted(os.listdir(tmp_path)) == ["link.json", "sub"]


def _another_name(tmp_path, path, spelling):
    """path itself, or another name for its file: a symlink reached through a
    parent step, or a hard link."""
    if spelling == "same":
        return path
    if spelling == "symlink":
        os.symlink(path, tmp_path / "link")
        (tmp_path / "sub").mkdir()
        return str(tmp_path / "sub" / ".." / "link")
    os.link(path, tmp_path / "hard")
    return str(tmp_path / "hard")


_SPELLINGS = ["same", "symlink", "hard link"]


def _refused_over_input(capsys, argv, input_flag, input_path, output_flag, output_path):
    """Run argv, whose output_flag names input_path's file: exit 1 with an error
    naming both flags, and the input's bytes untouched."""
    before = open(input_path, "rb").read()
    code, stdout, stderr = _run(capsys, argv)
    assert (code, stdout) == (1, "")
    message = f"{input_flag} and {output_flag} both name {output_path}"
    assert json.loads(stderr) == {"error": "ValueError", "message": message}
    assert open(input_path, "rb").read() == before


@pytest.mark.parametrize("spelling", _SPELLINGS)
def test_kernel_refuses_an_output_on_its_metadata(capsys, tmp_path, metadata_csv, spelling):
    out = _another_name(tmp_path, metadata_csv, spelling)
    argv = ["kernel", "--metadata", metadata_csv, "--out", out]
    _refused_over_input(capsys, argv, "--metadata", metadata_csv, "--out", out)


@pytest.mark.parametrize("spelling", _SPELLINGS)
@pytest.mark.parametrize("flag", ["--embeddings", "--x1", "--x2", "--metadata"])
def test_loss_refuses_an_output_on_an_input(capsys, tmp_path, flag, spelling):
    x1, x2, p1, p2 = _write_views(tmp_path)
    emb = str(tmp_path / "views.emb")
    cio.write_embeddings(emb, x1, x2)
    meta = _write_metadata(tmp_path / "meta.csv", [("a", "pirads", 5)])
    views = ["--embeddings", emb] if flag == "--embeddings" else ["--x1", p1, "--x2", p2]
    inputs = dict(zip(views[::2], views[1::2]), **{"--metadata": meta})
    out = _another_name(tmp_path, inputs[flag], spelling)
    argv = ["loss", *views, "--metadata", meta, "--out", out]
    _refused_over_input(capsys, argv, flag, inputs[flag], "--out", out)


@pytest.mark.parametrize("spelling", _SPELLINGS)
@pytest.mark.parametrize("input_flag, output_flag", [("--prob", "--out"), ("--ref", "--csv")])
def test_eval_detect_refuses_an_output_on_an_input(capsys, tmp_path, input_flag, output_flag, spelling):
    first = _detection_fixture(tmp_path)
    (tmp_path / "second").mkdir()
    second = _detection_fixture(tmp_path / "second")
    target = second[0] if input_flag == "--prob" else second[1]
    out = _another_name(tmp_path, target, spelling)
    argv = ["eval-detect", "--prob", first[0], "--ref", first[1], "--prob", second[0], "--ref", second[1]]
    _refused_over_input(capsys, [*argv, output_flag, out], input_flag, target, output_flag, out)


@pytest.mark.parametrize("spelling", _SPELLINGS)
@pytest.mark.parametrize("flag", ["--out", "--cells-csv", "--summary-csv"])
def test_simulate_refuses_an_output_on_its_config(capsys, tmp_path, monkeypatch, flag, spelling):
    def no_study(*args, **kwargs):
        raise AssertionError("run_study called")

    monkeypatch.setattr(bench, "run_study", no_study)
    config = _tiny_config(tmp_path)
    out = _another_name(tmp_path, config, spelling)
    argv = ["simulate", "--config", config, "--seeds", "0", flag, out]
    _refused_over_input(capsys, argv, "--config", config, flag, out)


@pytest.mark.parametrize(
    "body",
    [
        '{"epochs": 2.5}',
        '{"n_exams": 40.0}',
        '{"seed": -1}',
        '{"epsilon": 0}',
        '{"epsilon": NaN}',
        "[1,2]",
        '{"annotator": 5}',
        '{"annotator": [1]}',
        '{"annotator": null}',
    ],
)
def test_simulate_rejects_a_bad_config_value(capsys, tmp_path, body):
    path = tmp_path / "config.json"
    path.write_text(body, encoding="utf-8")
    code, _, stderr = _run(capsys, ["simulate", "--config", str(path)])
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "FileFormatError"
    assert err["file"] == str(path)


def test_simulate_rejects_a_bool_float_field_before_any_cell(capsys, tmp_path):
    # True once passed the epsilon range check and was written into the report.
    path = tmp_path / "config.json"
    path.write_text('{"n_exams": 40, "epochs": 1, "epsilon": true}', encoding="utf-8")
    out = tmp_path / "report.json"
    code, stdout, stderr = _run(capsys, ["simulate", "--config", str(path), "--out", str(out)])
    assert code == 1
    assert stdout == ""
    err = json.loads(stderr)
    assert err["file"] == str(path)
    assert "epsilon must be a number" in err["message"]
    assert not out.exists()


def test_simulate_rejects_invalid_json(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{", encoding="utf-8")
    code, _, stderr = _run(capsys, ["simulate", "--config", str(path)])
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "FileFormatError"
    assert err["line"] == 1


def test_simulate_rejects_a_non_utf8_config(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{\n"n_exams": 64,\n"epochs": "\xff"}\n')
    code, _, stderr = _run(capsys, ["simulate", "--config", str(path)])
    assert code == 1
    err = json.loads(stderr)
    assert (err["error"], err["file"], err["line"]) == ("FileFormatError", str(path), 3)
    assert "not UTF-8" in err["message"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--variants", ""], "--variants '' has an empty entry"),
        (["--seeds", ""], "--seeds '' has an empty entry"),
        (["--variants", "proposed,"], "--variants 'proposed,' has an empty entry"),
        (["--seeds", "0,,1"], "--seeds '0,,1' has an empty entry"),
        (
            ["--seeds", "1e3"],
            "--seeds '1e3' has a bad entry '1e3': invalid literal for int() with base 10: '1e3'",
        ),
        (
            ["--seeds", "0,x"],
            "--seeds '0,x' has a bad entry 'x': invalid literal for int() with base 10: 'x'",
        ),
    ],
)
def test_simulate_rejects_an_empty_list(capsys, tmp_path, flags, message):
    # An explicit empty list is an error, not a request for the 6 x 10
    # default; an entry that does not parse is named with its flag.
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "report.json"
    code, stdout, stderr = _run(
        capsys, ["simulate", "--config", cfg, *flags, "--workers", "1", "--out", str(out)]
    )
    assert code == 1
    assert stdout == ""
    assert json.loads(stderr)["message"] == message
    assert not out.exists()


def test_simulate_unknown_variant(capsys, tmp_path):
    cfg = _tiny_config(tmp_path)
    code, _, stderr = _run(
        capsys,
        ["simulate", "--config", cfg, "--variants", "proposed,mystery", "--seeds", "0"],
    )
    assert code == 1
    assert "unknown variant" in json.loads(stderr)["message"]


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kernel"])
    assert exc.value.code == 2


def test_bad_choice_exits_2(capsys, tmp_path):
    vol, mask = _detection_fixture(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval-detect", "--prob", vol, "--ref", mask, "--connectivity", "7"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# one parser per process


def _outcome(capsys, argv, out):
    """(exit code, stdout, stderr, bytes of out or None) of one main call,
    removing out; a usage error's SystemExit code stands in for the return
    code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, captured.out, captured.err, written


def test_repeated_main_calls_match_each_command_run_alone(capsys, tmp_path, metadata_csv):
    rng = np.random.default_rng(0)
    x1 = rng.normal(0.0, 1.0, (4, 3))
    emb = str(tmp_path / "views.emb")
    cio.write_embeddings(emb, x1, x1 + rng.normal(0.0, 0.1, x1.shape))
    vol, mask = _detection_fixture(tmp_path)
    kernel_out, loss_out, detect_out = tmp_path / "kernel.csv", tmp_path / "loss.json", tmp_path / "detect.json"
    kernel = ["kernel", "--metadata", metadata_csv, "--out", str(kernel_out)]
    loss = ["loss", "--embeddings", emb, "--metadata", metadata_csv, "--out", str(loss_out)]
    override = ["--epsilon-override", "b=0.2"]  # b is a lone vote, so it moves the a-b weight
    calls = [
        (kernel + override, kernel_out),
        (loss, loss_out),
        (["kernel", "--metadata", metadata_csv], kernel_out),  # a usage error: no --out
        (["eval-detect", "--prob", vol, "--ref", mask, "--dynamic", "--out", str(detect_out)], detect_out),
        (kernel, kernel_out),
        (loss + override, loss_out),
        (["eval-detect", "--prob", vol, "--ref", mask, "--threshold", "0.8", "--out", str(detect_out)], detect_out),
        (kernel + override, kernel_out),
    ]
    alone = []
    for argv, out in calls:
        cli._parser.cache_clear()
        alone.append(_outcome(capsys, argv, out))
    cli._parser.cache_clear()
    assert [_outcome(capsys, argv, out) for argv, out in calls] == alone
    assert [o[0] for o in alone] == [0, 0, ("SystemExit", 2), 0, 0, 0, 0, 0]
    assert alone[0] == alone[7] and alone[0][3] != alone[4][3] and alone[1][3] != alone[5][3]


def test_main_builds_its_parser_once(monkeypatch):
    made = []
    real_add_argument = argparse._ActionsContainer.add_argument

    def counting_add_argument(self, *args, **kwargs):
        made.append(args)
        return real_add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting_add_argument)
    cli._parser.cache_clear()
    assert main(["gradcheck", "--n", "3", "--d", "2"]) == 0
    first = len(made)
    assert main(["gradcheck", "--n", "3", "--d", "2", "--seed", "1"]) == 0
    assert first > 0
    assert len(made) == first


def test_help_wraps_to_the_columns_at_each_call(monkeypatch, capsys):
    description = "Confidence-weighted conditional contrastive losses and their evaluation tools."
    helps = {}
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps[columns] = capsys.readouterr().out
        assert helps[columns] == build_parser().format_help()
    assert description not in helps["40"].splitlines()
    assert description in helps["120"].splitlines()


def test_no_parser_default_is_a_mutable_container():
    shared = []
    parsers = [build_parser()]
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif isinstance(action.default, (list, dict, set)):
                shared.append((parser.prog, action.dest))
        shared += [(parser.prog, dest) for dest, v in parser._defaults.items() if isinstance(v, (list, dict, set))]
    assert len(parsers) == 6
    assert shared == []
