"""Acceptance checks: one test per numbered release criterion.

Each test prints a ``[PASS] criterion N`` line (run pytest with ``-s`` to
see them stream); a failing criterion prints ``[FAIL]`` and then fails the
test normally.  Criteria 8 and 9 and the study golden share one full
study run.
"""

import csv
import hashlib
import itertools
import json
import math
import os
import platform
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from confcl import io as cio
from confcl.bench import SUMMARY_FIELDS, default_config, run_study
from confcl.cli import _write_cells_csv, _write_summary_csv
from confcl.detection import (
    BinaryMask,
    Component,
    DetectionOutcome,
    FalsePositive,
    LesionCandidate,
    TruePositive,
    average_precision,
    connected_components,
    match_lesions,
    roc_auc,
)
from confcl.losses import (
    EPS_DIST,
    UNIF_LABELED,
    BatchPartition,
    ViewPairBatch,
    _decoupled_coefficients,
    central_difference,
    finite_diff_gradient,
    loss_conditional,
    loss_decoupled,
    loss_gradient,
    max_relative_error,
    pairwise_distances,
)
from confcl.metadata import (
    AnnotationVector,
    KernelVariant,
    MetadataSummary,
    Source,
    confidence,
    kernel_matrix,
    summarize,
)


@contextmanager
def _criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


# ---------------------------------------------------------------------------
# 1. Confidence exactness


def test_criterion_1_confidence_exactness():
    with _criterion(1, "vote confidence exact for every vector with n <= 7"):
        start = time.perf_counter()
        smallest_n7 = 1.0
        for n in range(1, 8):
            for votes in itertools.product((0, 1), repeat=n):
                ones = sum(votes)
                zeros = n - ones
                summary = summarize(
                    AnnotationVector("e", votes, (Source.PIRADS,) * n)
                )
                if ones == zeros:
                    assert not summary.is_labeled
                    continue
                got = confidence(votes)
                want = 0.1 if n == 1 else float(Fraction(2 * max(ones, zeros) - n, n))
                assert got == want
                assert summary.confidence == want
                if n == 7:
                    smallest_n7 = min(smallest_n7, got)
        assert smallest_n7 == float(Fraction(1, 7))
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Kernel properties


def _random_labeled_summaries(rng, n):
    out = []
    for i in range(n):
        conf = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 1.0))
        out.append(MetadataSummary.labeled(f"e{i}", int(rng.integers(0, 2)), conf))
    return out


def test_criterion_2_kernel_properties():
    with _criterion(2, "kernels symmetric, unit-diagonal, in [0, 1]; min rule exact"):
        start = time.perf_counter()
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            summaries = _random_labeled_summaries(rng, n)
            labels = np.array([s.label for s in summaries])
            confs = np.array([s.confidence for s in summaries])
            for variant in KernelVariant:
                w = kernel_matrix(summaries, variant).weights
                assert np.array_equal(w, w.T)
                assert np.array_equal(np.diag(w), np.ones(n))
                assert (w >= 0.0).all() and (w <= 1.0).all()
            got = kernel_matrix(summaries, KernelVariant.PROPOSED).weights
            expected = np.minimum(confs[:, None], confs[None, :]) * (
                labels[:, None] == labels[None, :]
            )
            np.fill_diagonal(expected, 1.0)
            assert np.array_equal(got, expected)
        assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 3. Gradient correctness


def _random_batch(rng, n=None, d=None):
    n = n if n is not None else int(rng.integers(2, 9))
    d = d if d is not None else int(rng.integers(1, 6))
    return ViewPairBatch(rng.normal(0.0, 1.0, (n, d)), rng.normal(0.0, 1.0, (n, d)))


def _conditional_kernel(rng, n):
    # Pinning the first two labels apart keeps at least one pair weight
    # below 1, so the uniformity term never degenerates.
    labels = [0, 1] + [int(v) for v in rng.integers(0, 2, n - 2)]
    summaries = [
        MetadataSummary.labeled(
            f"e{i}",
            labels[i],
            1.0 if rng.random() < 0.3 else float(rng.uniform(0.1, 1.0)),
        )
        for i in range(n)
    ]
    return kernel_matrix(summaries, KernelVariant.PROPOSED)


def _mixed_partition(rng, n):
    """Random split with both groups nonempty (needs n >= 2)."""
    n_labeled = int(rng.integers(1, n))
    order = rng.permutation(n)
    labeled = tuple(int(i) for i in order[:n_labeled])
    unlabeled = tuple(int(i) for i in order[n_labeled:])
    summaries = tuple(_random_labeled_summaries(rng, n_labeled))
    partition = BatchPartition(labeled, unlabeled)
    return partition, kernel_matrix(list(summaries), KernelVariant.PROPOSED)


def test_criterion_3_gradient_correctness():
    with _criterion(3, "analytic gradients within 1e-4 of central differences"):
        start = time.perf_counter()
        rng = np.random.default_rng(30)
        for _ in range(20):
            batch = _random_batch(rng)
            err = max_relative_error(
                loss_gradient("nce", batch),
                finite_diff_gradient("nce", batch, h=1e-5),
            )
            assert err <= 1e-4
        for _ in range(20):
            batch = _random_batch(rng)
            kernel = _conditional_kernel(rng, batch.n)
            err = max_relative_error(
                loss_gradient("conditional", batch, kernel=kernel),
                finite_diff_gradient("conditional", batch, kernel=kernel, h=1e-5),
            )
            assert err <= 1e-4
        for global_uniformity in (False, True):
            for _ in range(20):
                batch = _random_batch(rng)
                partition, kernel = _mixed_partition(rng, batch.n)
                err = max_relative_error(
                    loss_gradient("decoupled", batch, partition, kernel, global_uniformity),
                    finite_diff_gradient(
                        "decoupled", batch, partition, kernel, global_uniformity, h=1e-5
                    ),
                )
                assert err <= 1e-4
        assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 4. Loss reductions and invariances


def _distances_loop(x1, x2):
    n = len(x1)
    d = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            delta = x1[i] - x2[j]
            d[i, j] = math.sqrt(float(delta @ delta) + EPS_DIST**2)
    return d


def test_criterion_4_loss_reductions():
    with _criterion(4, "group-empty reductions and invariances hold to 1e-10"):
        rng = np.random.default_rng(40)
        for _ in range(50):
            batch = _random_batch(rng)
            n = batch.n

            # No labeled rows: alignment over the diagonal plus i != j
            # uniformity with the 1/n^2 normalization.
            d = _distances_loop(batch.x1, batch.x2)
            off_sum = sum(
                math.exp(-d[i, j]) for i in range(n) for j in range(n) if i != j
            )
            oracle = float(np.mean(np.diag(d))) + math.log(off_sum / n**2)
            all_unlabeled = BatchPartition((), tuple(range(n)))
            assert abs(loss_decoupled(batch, all_unlabeled, None).total - oracle) <= 1e-10

            # No unlabeled rows: the decoupled loss is the conditional loss.
            kernel = _conditional_kernel(rng, n)
            # Unused draw, kept so the rest of the criterion's random stream is unchanged.
            _random_labeled_summaries(rng, n)
            all_labeled = BatchPartition(tuple(range(n)), ())
            got = loss_decoupled(batch, all_labeled, kernel).total
            assert abs(got - loss_conditional(batch, kernel).total) <= 1e-10

            # Translating both views together changes nothing.
            partition, block_kernel = _mixed_partition(rng, n)
            base = loss_decoupled(batch, partition, block_kernel).total
            shift = rng.normal(0.0, 3.0, batch.x1.shape[1])
            shifted = ViewPairBatch(batch.x1 + shift, batch.x2 + shift)
            assert abs(loss_decoupled(shifted, partition, block_kernel).total - base) <= 1e-10

            # Relabeling rows (and remapping the partition) changes nothing.
            perm = rng.permutation(n)
            position = np.empty(n, dtype=np.intp)
            position[perm] = np.arange(n)
            permuted = ViewPairBatch(batch.x1[perm], batch.x2[perm])
            remapped = BatchPartition(
                tuple(int(position[i]) for i in partition.labeled),
                tuple(int(position[i]) for i in partition.unlabeled),
            )
            assert abs(loss_decoupled(permuted, remapped, block_kernel).total - base) <= 1e-10


# ---------------------------------------------------------------------------
# 5. Decoupled repulsion drops saturated pairs


def test_criterion_5_decoupling():
    with _criterion(5, "fully-agreeing labeled pairs exert exactly zero repulsion"):
        rng = np.random.default_rng(50)

        # Analytic route: in a mixed kernel the labeled-uniformity
        # coefficient is exactly zero wherever the pair weight saturates
        # and nonzero everywhere else.
        summaries = (
            MetadataSummary.labeled("a", 1, 1.0),
            MetadataSummary.labeled("b", 1, 1.0),
            MetadataSummary.labeled("c", 0, 0.4),
        )
        kernel = kernel_matrix(list(summaries), KernelVariant.PROPOSED)
        partition = BatchPartition((0, 1, 2), ())
        batch = _random_batch(rng, n=3, d=4)
        coeffs = _decoupled_coefficients(
            pairwise_distances(batch), partition, kernel, False
        )[UNIF_LABELED]
        saturated = kernel.weights == 1.0
        assert saturated[0, 1] and saturated[1, 0]
        assert (coeffs[saturated] == 0.0).all()
        assert (coeffs[~saturated] != 0.0).all()

        # Finite differences: with the only labeled pair saturated the
        # term is identically zero, so every partial derivative of it is
        # exactly zero as well.
        pair = (
            MetadataSummary.labeled("a", 1, 1.0),
            MetadataSummary.labeled("b", 1, 1.0),
        )
        pair_kernel = kernel_matrix(list(pair), KernelVariant.PROPOSED)
        pair_partition = BatchPartition((0, 1), (2, 3))
        batch = _random_batch(rng, n=4, d=3)

        def term_value(x1, x2):
            return loss_decoupled(ViewPairBatch(x1, x2), pair_partition, pair_kernel).unif_labeled

        assert term_value(batch.x1, batch.x2) == 0.0
        fd = central_difference(term_value, batch.x1, batch.x2, h=1e-5)
        assert (fd.g1[:2] == 0.0).all()
        assert (fd.g2[:2] == 0.0).all()


# ---------------------------------------------------------------------------
# 6. Metric oracle equivalence


def _offsets(connectivity):
    out = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if (dx, dy, dz) == (0, 0, 0):
                    continue
                manhattan = abs(dx) + abs(dy) + abs(dz)
                if connectivity == 6 and manhattan != 1:
                    continue
                if connectivity == 18 and manhattan > 2:
                    continue
                out.append((dx, dy, dz))
    return out


def _flood_fill(data, connectivity):
    offsets = _offsets(connectivity)
    filled = {
        (x, y, z)
        for x in range(data.shape[0])
        for y in range(data.shape[1])
        for z in range(data.shape[2])
        if data[x, y, z]
    }
    seen = set()
    components = []
    for start in sorted(filled):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        component = set()
        while queue:
            vox = queue.pop()
            component.add(vox)
            for dx, dy, dz in offsets:
                nxt = (vox[0] + dx, vox[1] + dy, vox[2] + dz)
                if nxt in filled and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        components.append(frozenset(component))
    return components


def _auc_oracle(scores, labels):
    positives = [Fraction(s) for s, y in zip(scores, labels) if y == 1]
    negatives = [Fraction(s) for s, y in zip(scores, labels) if y == 0]
    halves = 0
    for p in positives:
        for q in negatives:
            if p > q:
                halves += 2
            elif p == q:
                halves += 1
    return float(Fraction(halves, 2 * len(positives) * len(negatives)))


def _outcome(tp_probs, fp_probs, n_fn, first_id=0):
    tps = tuple(
        TruePositive(first_id + k, k, 0.5, p) for k, p in enumerate(tp_probs)
    )
    fps = tuple(
        FalsePositive(first_id + len(tp_probs) + k, p) for k, p in enumerate(fp_probs)
    )
    fns = tuple(range(len(tp_probs), len(tp_probs) + n_fn))
    return DetectionOutcome(tps, fps, fns, len(tp_probs) + n_fn)


def _ap_oracle(outcomes):
    pool = []
    n_ref = 0
    for outcome in outcomes:
        pool.extend((tp.probability, True) for tp in outcome.true_positives)
        pool.extend((fp.probability, False) for fp in outcome.false_positives)
        n_ref += outcome.n_reference
    pool.sort(key=lambda item: -item[0])
    ap = Fraction(0)
    tp_seen = 0
    for rank, (_, is_tp) in enumerate(pool, start=1):
        if is_tp:
            tp_seen += 1
            ap += Fraction(tp_seen, rank)
    return float(ap / n_ref)


def test_criterion_6_metric_oracles():
    with _criterion(6, "components, roc_auc, and AP match independent oracles"):
        rng = np.random.default_rng(60)

        for _ in range(100):
            dims = (int(rng.integers(1, 11)), int(rng.integers(1, 11)), int(rng.integers(1, 5)))
            mask = (rng.random(dims) < rng.uniform(0.2, 0.8)).astype(np.uint8)
            connectivity = int(rng.choice([6, 18, 26]))
            got = {c.voxels for c in connected_components(BinaryMask(mask), connectivity)}
            assert got == set(_flood_fill(mask, connectivity))

        for _ in range(50):
            n = int(rng.integers(2, 31))
            labels = np.zeros(n, dtype=int)
            labels[: int(rng.integers(1, n))] = 1
            rng.shuffle(labels)
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)  # tie-heavy
            assert roc_auc(scores, labels) == _auc_oracle(scores, labels)

        # 18 random pools with globally unique probabilities plus the two
        # recall-limited half-credit cases.
        fixtures = []
        for _ in range(18):
            probs = list(rng.choice(np.linspace(0.01, 0.99, 200), 12, replace=False))
            exams = []
            for _ in range(int(rng.integers(1, 4))):
                n_tp = int(rng.integers(0, 3))
                n_fp = int(rng.integers(0, 3))
                exams.append(
                    _outcome(
                        [float(probs.pop()) for _ in range(n_tp)],
                        [float(probs.pop()) for _ in range(n_fp)],
                        int(rng.integers(0, 3)),
                    )
                )
            if sum(o.n_reference for o in exams) == 0:
                exams[0] = _outcome([float(probs.pop())], [], 0)
            fixtures.append(exams)
        fixtures.append([_outcome([0.6], [0.9], 0)])  # FP outranks the TP
        fixtures.append([_outcome([0.9], [], 1)])  # missed lesion caps recall
        for exams in fixtures:
            assert abs(average_precision(exams) - _ap_oracle(exams)) <= 1e-12
        assert average_precision(fixtures[-2]) == 0.5
        assert average_precision(fixtures[-1]) == 0.5


# ---------------------------------------------------------------------------
# 7. Overlap boundary semantics


def test_criterion_7_overlap_boundary():
    with _criterion(7, "overlap exactly at the cutoff rejects; one voxel more accepts"):
        dims = (4, 3, 1)
        reference = Component(
            0, frozenset((x, y, 0) for x in range(3) for y in range(3)), dims
        )

        # 1 of 9 reference voxels covered plus 1 stray: overlap 1/10.
        candidate = LesionCandidate(
            Component(0, frozenset({(2, 2, 0), (3, 2, 0)}), dims), 0.9
        )
        outcome = match_lesions([candidate], [reference], tau=0.1)
        assert outcome.true_positives == ()
        assert [fp.candidate_id for fp in outcome.false_positives] == [0]
        assert outcome.false_negatives == (0,)

        # Moving the stray voxel inside lifts the overlap to 2/9.
        candidate = LesionCandidate(
            Component(0, frozenset({(2, 2, 0), (1, 2, 0)}), dims), 0.9
        )
        outcome = match_lesions([candidate], [reference], tau=0.1)
        assert outcome.false_positives == ()
        assert outcome.false_negatives == ()
        assert outcome.true_positives[0].overlap == 2 / 9


# ---------------------------------------------------------------------------
# 8 and 9. Study regression and ablation structure (one shared run)


@pytest.fixture(scope="module")
def committed_study():
    config = default_config()
    start = time.perf_counter()
    serial = run_study(config, workers=1)
    elapsed = time.perf_counter() - start
    parallel = run_study(config, workers=2)
    return serial, parallel, elapsed


def test_criterion_8_study_regression(committed_study):
    with _criterion(8, "default study reproduces bitwise; proposed >= unsupervised"):
        serial, parallel, elapsed = committed_study
        assert elapsed < 600.0
        assert all(record.error is None for record in serial.records)
        assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
            parallel.as_dict(), sort_keys=True
        )
        aggregates = serial.aggregates()
        assert (
            aggregates["proposed"]["probe_auc"]["mean"]
            >= aggregates["unsupervised"]["probe_auc"]["mean"]
        )


def test_criterion_9_ablation_structure(committed_study, tmp_path):
    with _criterion(9, "study aggregates one mean/std row per variant"):
        serial, _, _ = committed_study
        assert serial.variants == (
            "proposed",
            "hc",
            "majority",
            "biopsy",
            "glu",
            "unsupervised",
        )
        aggregates = serial.aggregates()
        assert set(aggregates) == set(serial.variants)
        for variant in serial.variants:
            for field in ("probe_acc", "probe_auc", "align", "unif", "final_loss"):
                stats = aggregates[variant][field]
                assert isinstance(stats["mean"], float)
                assert isinstance(stats["std"], float)
                assert stats["n"] == 10

        path = tmp_path / "summary.csv"
        _write_summary_csv(str(path), serial)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "variant"
        assert "probe_auc_mean" in header and "probe_auc_std" in header
        assert [line.split(",")[0] for line in lines[1:]] == list(serial.variants)


# ---------------------------------------------------------------------------
# The default study's golden outputs (same shared run)
#
# golden/study/ holds the SHA-256 of the default report JSON, the full
# cells and summary CSVs, and the numeric provenance they came from.
# Where this machine's provenance matches, all three outputs must be
# byte-identical; everywhere, every per-cell summary field must agree to
# STUDY_REL.  Regenerate only for an intended change of the study's
# numbers, with ``PYTHONPATH=src python tests/test_acceptance.py``, which
# runs the default study on 2 workers through the CLI's writers.

STUDY_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "study")
STUDY_REL = 1e-9


def _numeric_provenance() -> dict:
    """What the study's last bits depend on: numpy, its BLAS and SIMD dispatch."""
    try:
        info = np.show_config(mode="dicts")
        blas, simd = info["Build Dependencies"]["blas"], info["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # numpy < 1.26 can only print its configuration
        return {"numpy": np.__version__}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "simd": simd,
        "machine": platform.machine(),
    }


STUDY_OUTPUTS = ("report.json", "cells.csv", "summary.csv")


def _study_outputs(report, directory) -> dict[str, bytes]:
    paths = {name: os.path.join(directory, name) for name in STUDY_OUTPUTS}
    cio.write_json_atomic(paths["report.json"], report.as_dict())
    _write_cells_csv(paths["cells.csv"], report)
    _write_summary_csv(paths["summary.csv"], report)
    out = {}
    for name, path in paths.items():
        with open(path, "rb") as handle:
            out[name] = handle.read()
    return out


def _cells(data: bytes) -> dict[tuple[str, str], dict[str, str]]:
    rows = csv.DictReader(data.decode("utf-8").splitlines())
    return {(row["variant"], row["seed"]): row for row in rows}


def test_default_study_matches_golden(committed_study, tmp_path):
    serial, _, _ = committed_study
    got = _study_outputs(serial, str(tmp_path))
    with open(os.path.join(STUDY_GOLDEN, "provenance.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    with open(os.path.join(STUDY_GOLDEN, "cells.csv"), "rb") as handle:
        golden_cells = handle.read()

    want = _cells(golden_cells)
    have = _cells(got["cells.csv"])
    assert have.keys() == want.keys()
    for key, row in want.items():
        for field in SUMMARY_FIELDS:
            pair = float(have[key][field]), float(row[field])
            assert math.isclose(*pair, rel_tol=STUDY_REL), (key, field, pair)

    if golden["provenance"] == _numeric_provenance():
        with open(os.path.join(STUDY_GOLDEN, "summary.csv"), "rb") as handle:
            assert got["summary.csv"] == handle.read()
        assert got["cells.csv"] == golden_cells
        assert hashlib.sha256(got["report.json"]).hexdigest() == golden["report_sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outs = _study_outputs(run_study(default_config(), workers=2), tmp)
    os.makedirs(STUDY_GOLDEN, exist_ok=True)
    for name in ("cells.csv", "summary.csv"):
        with open(os.path.join(STUDY_GOLDEN, name), "wb") as handle:
            handle.write(outs[name])
    digest = hashlib.sha256(outs["report.json"]).hexdigest()
    golden = {"report_sha256": digest, "provenance": _numeric_provenance()}
    with open(os.path.join(STUDY_GOLDEN, "provenance.json"), "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
