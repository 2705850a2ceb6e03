"""Golden ``confcl eval-detect`` output for a fixed set of seeded exams.

Five exams are generated here with numpy only (no scipy filters, so the
pin does not move with the scipy version): four sparse exams of a few
Gaussian blobs over a faint background, some with a reference lesion,
some decoys and some missed lesions, plus one dense exam whose box-smoothed
noise is one percolating candidate at the fixed threshold and nearly two
hundred small ones at the dynamic search's first step, against hundreds
of small reference components.  The command runs once with the fixed
threshold and once with the dynamic search; each parsed JSON payload must
equal the one in ``golden/eval_detect.json`` exactly (floats included).

The golden file was produced by the voxel-set matcher that the label-array
matcher replaced.  Rewrite it only for an intended change of detection
semantics, with ``PYTHONPATH=src python tests/test_detection_golden.py``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from confcl import io as cio
from confcl.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "eval_detect.json")
SEED = 20240
SPARSE_SHAPE = (20, 18, 8)
DENSE_SHAPE = (32, 32, 12)
MODES = {
    "fixed": ["--threshold", "0.5"],
    "dynamic": ["--dynamic", "--t-start", "0.7", "--step", "0.1", "--min-voxels", "4"],
}


def _sparse_exam(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Faint quantized background plus 1-3 blobs; each blob is a detected
    lesion (reference shifted by up to one voxel), a decoy without a
    reference, or a lesion the probabilities miss."""
    prob = np.round(rng.uniform(0.0, 0.12, SPARSE_SHAPE), 2)
    mask = np.zeros(SPARSE_SHAPE, dtype=bool)
    grid = np.indices(SPARSE_SHAPE, dtype=np.float64)
    for _ in range(int(rng.integers(1, 4))):
        center = [rng.uniform(2.0, s - 2.0) for s in SPARSE_SHAPE]
        radius = float(rng.uniform(1.2, 3.5))
        d2 = sum((grid[i] - center[i]) ** 2 for i in range(3)) / radius**2
        kind = rng.choice(["lesion", "lesion", "decoy", "missed"])
        if kind != "missed":
            prob = np.maximum(prob, np.round(rng.uniform(0.55, 0.95), 2) * np.exp(-d2))
        if kind != "decoy":
            shift = tuple(int(s) for s in rng.integers(-1, 2, 3))
            mask |= np.roll(d2 <= 1.0, shift, axis=(0, 1, 2))
    return prob, mask


def _dense_exam(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Box-smoothed noise around 0.5 against ~3% scattered reference voxels."""
    noise = rng.random(DENSE_SHAPE)
    smooth = sum(np.roll(noise, s, axis=a) for a in range(3) for s in (-1, 0, 1)) / 9.0
    prob = np.clip(0.5 + 1.2 * (smooth - smooth.mean()), 0.0, 1.0)
    mask = rng.random(DENSE_SHAPE) < 0.03
    return prob, mask


def _exam_files(directory: str) -> list[str]:
    rng = np.random.default_rng(SEED)
    argv = []
    for i, make in enumerate([_sparse_exam] * 4 + [_dense_exam]):
        prob, mask = make(rng)
        vol = os.path.join(directory, f"exam-{i}.vol")
        msk = os.path.join(directory, f"exam-{i}.msk")
        cio.write_volume(vol, prob)
        cio.write_mask(msk, mask)
        argv += ["--prob", vol, "--ref", msk]
    return argv


def _payloads(directory: str) -> dict[str, dict]:
    files = _exam_files(directory)
    out = os.path.join(directory, "eval.json")
    payloads = {}
    for mode, flags in MODES.items():
        assert main(["eval-detect", *files, *flags, "--out", out]) == 0
        with open(out, encoding="utf-8") as handle:
            payloads[mode] = json.load(handle)
    return payloads


def test_eval_detect_matches_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    got = _payloads(str(tmp_path))
    for mode in MODES:
        assert got[mode] == golden[mode], mode


def test_golden_covers_every_outcome():
    """The pinned exams exercise TPs, FPs, FNs and a dense reference."""
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    for payload in golden.values():
        exams = payload["per_exam"]
        assert sum(len(e["true_positives"]) for e in exams) >= 2
        assert sum(len(e["false_positives"]) for e in exams) >= 2
        assert sum(len(e["false_negatives"]) for e in exams[:4]) >= 1
        assert len(exams[4]["false_negatives"]) >= 200


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payloads = _payloads(tmp)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(payloads, handle, indent=1, sort_keys=True)
        handle.write("\n")
