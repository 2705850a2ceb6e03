"""Golden bytes of every report layout the CLI writes.

A hand-built ``StudyReport`` (two variants; one failed cell whose fields
are all ``None``; one variant left with a single clean cell, so its std
is 0) goes through the report JSON writer, the per-cell CSV writer and
the per-variant summary CSV writer, and a one-exam ``eval-detect --csv``
run leaves ``exam_auc`` undefined.  Each output must equal its file in
``golden/layout/`` byte for byte, so the pins cover an empty cell for
the failed cell and for the undefined metric, and a std of 0 for the
single clean cell.  Every input float is hand-picked and no result
depends on BLAS, so the pins hold on any platform.

Rewrite the goldens only for an intended layout change, with
``PYTHONPATH=src python tests/test_report_layout_golden.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from confcl import io as cio
from confcl.bench import CellRecord, StudyReport, SynthConfig
from confcl.cli import _write_cells_csv, _write_summary_csv, main
from confcl.losses import LossBreakdown

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "layout")


def _report() -> StudyReport:
    decoupled = LossBreakdown(
        align_labeled=0.25,
        unif_labeled=-1.5,
        align_unlabeled=0.125,
        unif_unlabeled=-1.375,
        present=frozenset({"align_labeled", "unif_labeled", "align_unlabeled", "unif_unlabeled"}),
        n_labeled=10,
        n_unlabeled=6,
        total=-2.5,
    )
    skipping = LossBreakdown(
        align_labeled=0.5,
        unif_labeled=-2.75,
        align_unlabeled=0.25,
        present=frozenset({"align_labeled", "unif_labeled", "align_unlabeled"}),
        skipped=frozenset({"unif_unlabeled"}),
        n_labeled=15,
        n_unlabeled=1,
        total=-2.0,
    )
    unlabeled = LossBreakdown(
        align_unlabeled=0.0625,
        unif_unlabeled=-1.8125,
        present=frozenset({"align_unlabeled", "unif_unlabeled"}),
        n_unlabeled=16,
        total=-1.75,
    )
    records = (
        CellRecord("proposed", 0, 0.75, 0.8125, 0.1, -3.25, -2.5, decoupled, (-1.0, -2.5)),
        CellRecord("proposed", 1, 0.875, 0.9375, 0.2, -3.0, -2.0, skipping, (-0.5, -2.0)),
        CellRecord("unsupervised", 0, 0.625, 0.7, 0.3, -2.75, -1.75, unlabeled, (-1.75,)),
        CellRecord("unsupervised", 1, error="RuntimeError: boom"),
    )
    config = SynthConfig(n_exams=64, epochs=2, learning_rate=0.05, seed=3)
    return StudyReport(config, ("proposed", "unsupervised"), (0, 1), records)


def _detect_csv(path: str, directory: str) -> None:
    """One exam, three references: two detected (0.875, 0.75), one missed,
    plus a 0.625 decoy; one exam leaves exam_auc undefined."""
    volume = np.zeros((8, 4, 2))
    mask = np.zeros((8, 4, 2), dtype=np.uint8)
    volume[0:2, 0, 0] = 0.75
    mask[0:2, 0, 0] = 1
    volume[0, 3, 1] = 0.875
    mask[0, 3, 1] = 1
    mask[7, 3, 1] = 1
    volume[4, 0, 0] = 0.625
    vol = os.path.join(directory, "exam.vol")
    msk = os.path.join(directory, "exam.msk")
    cio.write_volume(vol, volume)
    cio.write_mask(msk, mask)
    argv = ["eval-detect", "--prob", vol, "--ref", msk, "--csv", path]
    assert main([*argv, "--out", os.path.join(directory, "eval.json")]) == 0


WRITERS = {
    "report.json": lambda path, tmp: cio.write_json_atomic(path, _report().as_dict()),
    "cells.csv": lambda path, tmp: _write_cells_csv(path, _report()),
    "summary.csv": lambda path, tmp: _write_summary_csv(path, _report()),
    "eval_detect_metrics.csv": _detect_csv,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_layout_matches_golden(tmp_path, name):
    path = str(tmp_path / name)
    WRITERS[name](path, str(tmp_path))
    with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
        golden = handle.read()
    with open(path, "rb") as handle:
        assert handle.read() == golden


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in WRITERS.items():
            write(os.path.join(GOLDEN_DIR, name), tmp)
