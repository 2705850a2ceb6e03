"""Command line tests; every command runs in process through main()."""

import json
import os
import struct
from fractions import Fraction

import numpy as np
import pytest

from confcl import io as cio
from confcl.bench import batch_loss_inputs, variant_spec
from confcl.cli import main
from confcl.losses import BatchPartition, ViewPairBatch, loss_decoupled
from confcl.metadata import MetadataSummary, summarize_batch


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


def test_loss_requires_both_view_files(capsys, tmp_path):
    _, _, p1, _ = _write_views(tmp_path)
    code, _, stderr = _run(capsys, ["loss", "--x1", p1])
    assert code == 1
    assert "both --x1 and --x2" in json.loads(stderr)["message"]


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


def test_eval_detect_mismatched_file_counts(capsys, tmp_path):
    vol, mask = _detection_fixture(tmp_path)
    code, _, stderr = _run(
        capsys, ["eval-detect", "--prob", vol, "--prob", vol, "--ref", mask]
    )
    assert code == 1
    assert "2 --prob files but 1 --ref files" in json.loads(stderr)["message"]


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


def test_simulate_rejects_invalid_json(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{", encoding="utf-8")
    code, _, stderr = _run(capsys, ["simulate", "--config", str(path)])
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "FileFormatError"
    assert err["line"] == 1


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
