"""Seeded inputs, operations and output checks for the benchmark workloads.

A workload is built from a seed and an existing working directory; building
it is the set-up (input generation and file writing).  ``op(k)`` then gives the k-th
operation of a fixed, endlessly repeating sequence, so the same seed always
gives the same operations in the same order.  Every operation returns its
output and is checked by the workload; a failed check raises ``CheckFailed``.

The program under test only ever sees the generated configs and files.
Sizes and the reasons for them are in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy import ndimage
from scipy.special import expit

from confcl import bench, cli, io as cio, losses, metadata

# 26-connectivity, the eval-detect default; used for the independent
# reference-component count.
_FULL = np.ones((3, 3, 3), dtype=bool)

TAU = 0.1


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``confcl.cli.main`` in-process with stdout and stderr captured."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _expect_exit_zero(result: tuple[int, str, str]) -> None:
    code, _, err = result
    _require(code == 0, f"exit code {code}: {err.strip()[:300]}")


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# ---------------------------------------------------------------------------
# study: the default variant x seed study, one cell per operation
# ---------------------------------------------------------------------------


class Study:
    """``bench.run_study`` on the default config, one cell per call.

    Cells run variant-major within a dataset seed, so every six operations
    cover all six variants on one seed.  Each call is a one-cell study
    through the public API, which times each cell on its own.  A round is
    one cell: cells are long enough to take a speed calibration around
    each, which tracks the host's bursts of load more closely.
    """

    name = "study"
    N_SEEDS = 64

    def __init__(self, workdir: str, seed: int):
        rng = np.random.default_rng(seed)
        self.config = bench.default_config()
        self.variants = tuple(bench.STUDY_VARIANTS)
        self.seeds = [int(s) for s in rng.choice(2**31, self.N_SEEDS, replace=False)]
        self.round_len = 1
        self.records: list = []

    def op(self, k: int) -> Op:
        variant = self.variants[k % len(self.variants)]
        data_seed = self.seeds[(k // len(self.variants)) % len(self.seeds)]

        def run():
            return bench.run_study(self.config, [variant], [data_seed], workers=1)

        return Op(f"cell:{variant}", run, self._check)

    def _check(self, report) -> None:
        (rec,) = report.records
        _require(rec.error is None, f"cell {rec.variant}/{rec.seed} failed: {rec.error}")
        for f in bench.SUMMARY_FIELDS:
            val = getattr(rec, f)
            _require(val is not None and math.isfinite(val), f"{f} = {val!r}")
        if rec.variant == "proposed":
            _require(rec.probe_auc > 0.5, f"proposed probe AUC {rec.probe_auc} <= 0.5")
        self.records.append(rec)

    def final_check(self) -> None:
        """Aggregates over every cell of the run are finite; proposed beats chance."""
        if not self.records:
            return
        report = bench.StudyReport(
            self.config,
            tuple(v for v in self.variants if any(r.variant == v for r in self.records)),
            tuple(sorted({r.seed for r in self.records})),
            tuple(self.records),
        )
        for variant, stats in report.aggregates().items():
            for f, s in stats.items():
                _require(
                    s["mean"] is not None and math.isfinite(s["mean"]) and math.isfinite(s["std"]),
                    f"aggregate {variant}.{f} = {s}",
                )
            if variant == "proposed":
                auc = stats["probe_auc"]["mean"]
                _require(auc > 0.5, f"proposed mean probe AUC {auc} <= 0.5")


# ---------------------------------------------------------------------------
# detect: eval-detect over a pool of sparse and dense exams
# ---------------------------------------------------------------------------

SPARSE_SHAPE = (96, 96, 32)
DENSE_SHAPE = (48, 48, 24)


def sparse_exam(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Low smooth background with 0-3 planted, non-touching blob lesions.

    Each reference lesion is the ball r <= radius; its probability bump is
    peak * exp(-(r/radius)^2), so bright lesions overlap their reference
    well above tau and faint ones fall below it.
    """
    field = ndimage.gaussian_filter(rng.standard_normal(SPARSE_SHAPE), 2.0)
    prob = np.clip(0.08 + 0.07 * field / field.std(), 0.0, 1.0)
    mask = np.zeros(SPARSE_SHAPE, dtype=bool)
    grid = np.indices(SPARSE_SHAPE, dtype=np.float64)
    placed: list[tuple[np.ndarray, float]] = []
    n_lesions = int(rng.integers(0, 4))
    while len(placed) < n_lesions:
        radius = float(rng.uniform(2.5, 5.0))
        lo = radius + 2.0
        center = np.array([rng.uniform(lo, s - 1 - lo) for s in SPARSE_SHAPE])
        if any(np.linalg.norm(center - c) < radius + r + 3.0 for c, r in placed):
            continue
        placed.append((center, radius))
        d2 = sum((grid[i] - center[i]) ** 2 for i in range(3)) / radius**2
        prob = np.maximum(prob, float(rng.uniform(0.55, 0.95)) * np.exp(-d2))
        mask |= d2 <= 1.0
    return prob, mask


def dense_exam(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed-noise probabilities against ~1% scattered reference voxels.

    At t = 0.5 about half the voxels form a few large candidates, while the
    reference splits into hundreds of tiny components, so candidate x
    reference matching dominates the exam.  The gentle gain puts t = 0.6
    below percolation, so the dynamic search stops at its first step with
    dozens of blobs instead of descending into one giant component.
    """
    field = ndimage.gaussian_filter(rng.standard_normal(DENSE_SHAPE), 1.5)
    prob = expit(0.6 * field / field.std())
    mask = rng.random(DENSE_SHAPE) < 0.01
    return prob, mask


def n_components(mask: np.ndarray) -> int:
    return int(ndimage.label(mask, structure=_FULL)[1])


def write_pool(directory: str, rng: np.random.Generator, kinds: str) -> list[dict]:
    """Write one VOL1/MSK1 pair per kind letter ('s' sparse, 'd' dense)."""
    os.makedirs(directory, exist_ok=True)
    pool = []
    for i, kind in enumerate(kinds):
        prob, mask = (sparse_exam if kind == "s" else dense_exam)(rng)
        vol_path = os.path.join(directory, f"exam-{i:02d}.vol")
        msk_path = os.path.join(directory, f"exam-{i:02d}.msk")
        cio.write_volume(vol_path, prob)
        cio.write_mask(msk_path, mask)
        pool.append(
            {"kind": kind, "prob": vol_path, "ref": msk_path, "n_ref": n_components(mask)}
        )
    return pool


def check_detect_payload(payload: dict, exams: list[dict]) -> None:
    per_exam = payload["per_exam"]
    _require(len(per_exam) == len(exams), f"{len(per_exam)} exams reported, {len(exams)} given")
    for row, exam in zip(per_exam, exams):
        tps, fns = row["true_positives"], row["false_negatives"]
        _require(
            len(tps) + len(fns) == exam["n_ref"],
            f"{row['exam_id']}: TP {len(tps)} + FN {len(fns)} != {exam['n_ref']} references",
        )
        refs = [tp["reference_id"] for tp in tps] + list(fns)
        _require(len(set(refs)) == len(refs), f"{row['exam_id']}: a reference is counted twice")
        for tp in tps:
            _require(tp["overlap"] > TAU, f"{row['exam_id']}: TP overlap {tp['overlap']} <= tau")
    for name, value in payload["metrics"].items():
        if value is None:
            _require(name in payload["notes"], f"metric {name} undefined without a note")
        else:
            _require(0.0 <= value <= 1.0, f"metric {name} = {value} outside [0, 1]")


class Detect:
    """In-process ``eval-detect``, one exam per call, alternating modes.

    The pool has an odd size, so over two passes every exam is scored once
    with ``--threshold 0.5`` and once with ``--dynamic``.  Dense exams sit
    at positions of both parities, so every pass (a round) holds the same
    number of dense calls in each mode.
    """

    name = "detect"
    KINDS = "".join("d" if i in (1, 4, 9, 12, 17, 20, 25, 28) else "s" for i in range(31))
    CANARY_KINDS = "sssd"
    CANARY_SEED = 82023
    CANARY_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "canary.json")

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.pool = write_pool(os.path.join(workdir, "pool"), rng, self.KINDS)
        self.out = os.path.join(workdir, "eval.json")
        self.round_len = len(self.pool)

    def argv(self, exams: list[dict], dynamic: bool) -> list[str]:
        argv = ["eval-detect"]
        for exam in exams:
            argv += ["--prob", exam["prob"], "--ref", exam["ref"]]
        argv += ["--dynamic"] if dynamic else ["--threshold", "0.5"]
        return argv + ["--tau", str(TAU), "--out", self.out]

    def op(self, k: int) -> Op:
        exam = self.pool[k % len(self.pool)]
        dynamic = k % 2 == 1
        argv = self.argv([exam], dynamic)

        def check(result):
            _expect_exit_zero(result)
            with open(self.out, encoding="utf-8") as handle:
                check_detect_payload(json.load(handle), [exam])

        kind = "sparse" if exam["kind"] == "s" else "dense"
        label = f"{kind}:{'dynamic' if dynamic else 'fixed'}"
        return Op(label, lambda: _call_cli(argv), check)

    def canary_hashes(self) -> dict[str, str]:
        """SHA-256 of the eval-detect JSON for a fixed exam set, per mode."""
        exams = write_pool(
            os.path.join(self.workdir, "canary"),
            np.random.default_rng(self.CANARY_SEED),
            self.CANARY_KINDS,
        )
        hashes = {}
        for mode in ("fixed", "dynamic"):
            result = _call_cli(self.argv(exams, mode == "dynamic"))
            _expect_exit_zero(result)
            with open(self.out, encoding="utf-8") as handle:
                check_detect_payload(json.load(handle), exams)
            hashes[mode] = _sha256(self.out)
        return hashes

    def final_check(self) -> None:
        """The canary output is byte-identical to the pinned one."""
        with open(self.CANARY_FILE, encoding="utf-8") as handle:
            pinned = json.load(handle)
        for mode, digest in self.canary_hashes().items():
            _require(digest == pinned[mode], f"canary {mode} sha256 {digest} != {pinned[mode]}")


# ---------------------------------------------------------------------------
# cli-files: kernel and loss commands over generated files
# ---------------------------------------------------------------------------


def annotation_rows(rng: np.random.Generator, n_exams: int) -> list[metadata.RawAnnotation]:
    """1-5 reads per exam, mostly PI-RADS with some ISUP; 25% of reads flipped.

    PI-RADS 3 reads abstain, so some exams end unlabeled (no votes or a tie).
    """
    rows = []
    for i in range(n_exams):
        exam_id = f"exam-{i:05d}"
        label = int(rng.integers(0, 2))
        for _ in range(int(rng.integers(1, 6))):
            vote = label if rng.random() >= 0.25 else 1 - label
            if rng.random() < 0.2:
                source = metadata.Source.ISUP
                value = rng.integers(2, 6) if vote else rng.integers(0, 2)
            elif rng.random() < 0.1:
                source, value = metadata.Source.PIRADS, 3
            else:
                source = metadata.Source.PIRADS
                value = rng.integers(4, 6) if vote else rng.integers(1, 3)
            rows.append(metadata.RawAnnotation(exam_id, source, int(value)))
    return rows


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def view_pair(rng: np.random.Generator, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm views where view 2 is a jittered copy of view 1."""
    x1 = unit_rows(rng, n, d)
    x2 = x1 + 0.3 * rng.standard_normal((n, d))
    return x1, x2 / np.linalg.norm(x2, axis=1, keepdims=True)


class CliFiles:
    """``kernel`` and ``loss`` commands in a fixed cycle over generated files."""

    name = "cli-files"
    KERNEL_EXAMS = 1536
    DIM = 8
    CSV_N = 256
    EMB_N = (512, 1024)
    # One kernel command per cycle; the loss commands around it make up
    # the bulk of the operations.
    CYCLE = ("loss-csv", "loss-emb-512", "loss-csv", "loss-emb-1024", "kernel")

    def __init__(self, workdir: str, seed: int):
        rng = np.random.default_rng(seed)
        path = lambda name: os.path.join(workdir, name)
        rows = annotation_rows(rng, self.KERNEL_EXAMS)
        self.annotations = path("annotations.csv")
        cio.write_metadata_rows(self.annotations, rows)
        self.losses: dict[str, dict] = {}
        for n in (self.CSV_N, *self.EMB_N):
            ids = {f"exam-{i:05d}" for i in range(n)}
            meta = path(f"meta-{n}.csv")
            cio.write_metadata_rows(meta, [r for r in rows if r.exam_id in ids])
            x1, x2 = view_pair(rng, n, self.DIM)
            if n == self.CSV_N:
                key = "loss-csv"
                cio.write_matrix_csv(path("x1.csv"), x1)
                cio.write_matrix_csv(path("x2.csv"), x2)
                inputs = ["--x1", path("x1.csv"), "--x2", path("x2.csv")]
            else:
                key = f"loss-emb-{n}"
                cio.write_embeddings(path(f"emb-{n}.emb"), x1, x2)
                inputs = ["--embeddings", path(f"emb-{n}.emb")]
            self.losses[key] = {
                "argv": ["loss", *inputs, "--metadata", meta, "--out", path(f"{key}.json")],
                "views": (x1, x2),
                "meta": meta,
                "out": path(f"{key}.json"),
                "expected": None,
            }
        self.kernel_out = path("kernel.csv")
        self.kernel_sha: str | None = None
        self.round_len = len(self.CYCLE)

    def op(self, k: int) -> Op:
        label = self.CYCLE[k % len(self.CYCLE)]
        if label == "kernel":
            argv = ["kernel", "--metadata", self.annotations, "--out", self.kernel_out]
            return Op(label, lambda: _call_cli(argv), self._check_kernel)
        spec = self.losses[label]
        return Op(label, lambda: _call_cli(spec["argv"]), lambda res: self._check_loss(res, spec))

    def _check_loss(self, result, spec: dict) -> None:
        _expect_exit_zero(result)
        with open(spec["out"], encoding="utf-8") as handle:
            total = json.load(handle)["total"]
        if spec["expected"] is None:
            spec["expected"] = self._expected_loss(spec)
        expected = spec["expected"]
        _require(
            abs(total - expected) <= 1e-12 * max(1.0, abs(expected)),
            f"loss total {total!r} != in-process {expected!r}",
        )

    @staticmethod
    def _expected_loss(spec: dict) -> float:
        x1, x2 = spec["views"]
        vectors = cio.read_metadata_csv(spec["meta"])
        summaries = metadata.summarize_batch(vectors)
        # The loss command pads rows that have no metadata the same way.
        summaries += [
            metadata.MetadataSummary.unlabeled(f"row-{i}") for i in range(len(summaries), len(x1))
        ]
        vspec = bench.variant_spec("proposed")
        partition, kernel = bench.batch_loss_inputs(summaries, vspec)
        batch = losses.ViewPairBatch(x1, x2)
        return losses.loss_decoupled(batch, partition, kernel, vspec.global_uniformity).total

    def _check_kernel(self, result) -> None:
        _expect_exit_zero(result)
        shape = json.loads(result[1])["shape"]
        digest = _sha256(self.kernel_out)
        if self.kernel_sha is not None:
            # Same input, same bytes: the full check below ran on the first output.
            _require(digest == self.kernel_sha, "kernel CSV changed between identical commands")
            return
        k = np.loadtxt(self.kernel_out, delimiter=",", ndmin=2)
        _require(list(k.shape) == shape, f"kernel CSV shape {k.shape} != reported {shape}")
        _require(np.array_equal(k, k.T), "kernel CSV is not symmetric")
        _require(bool(np.all(np.diag(k) == 1.0)), "kernel CSV diagonal is not 1")
        summaries = metadata.summarize_batch(cio.read_metadata_csv(self.annotations))
        expected = metadata.kernel_matrix([s for s in summaries if s.is_labeled]).weights
        _require(np.array_equal(k, expected), "kernel CSV differs from metadata.kernel_matrix")
        self.kernel_sha = digest

    def final_check(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Study, Detect, CliFiles)}
