"""Lesion detection evaluation on 3D probability volumes.

A probability volume is thresholded by a descending search (a fixed t is
the search that starts and stops at t) and each mask is labeled once into
label arrays: its foreground voxel indices and the component of each
voxel.  Labeling runs on each run of occupied z slices, cropped to its
(y, x) box, so a sparse mask costs its boxes, not its grid.  Components
become candidates scored by their peak probability, and candidates match
reference lesions greedily by descending probability under a strict IoU
criterion, with every intersection read from a sparse candidate x
reference contingency table.  Exam and lesion level ROC AUC plus a
dataset-pooled average precision follow the matched outcomes; missed
references enter the lesion pool as zero-score positives.  Only the public
adapters that return ``Component`` objects build voxel sets.
``ProbVolume`` and ``BinaryMask`` come from ``confcl.io``, which checks
each once, when built or read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .io import BinaryMask, ProbVolume
from .metadata import check_field_types

__all__ = [
    "ProbVolume",
    "BinaryMask",
    "Component",
    "LesionCandidate",
    "TruePositive",
    "FalsePositive",
    "DetectionOutcome",
    "ExamResult",
    "DynamicThresholdParams",
    "check_threshold",
    "check_tau",
    "threshold_volume",
    "dynamic_threshold",
    "connected_components",
    "lesion_candidates",
    "match_lesions",
    "evaluate_exam",
    "roc_auc",
    "exam_auc",
    "lesion_auc",
    "average_precision",
]

CONNECTIVITIES = (6, 18, 26)
# Most thresholds one dynamic search may visit: each visit thresholds and
# counts the whole volume, and labels it when enough voxels are foreground,
# so a tiny step would run for hours (or never reach t_min in floating
# point).  The default search visits at most 11.
MAX_THRESHOLDS = 1000


@dataclass(frozen=True)
class Component:
    """One connected set of foreground voxels; ids follow the documented
    component order (see connected_components), not labeling internals."""

    id: int
    voxels: frozenset[tuple[int, int, int]]
    dims: tuple[int, int, int]

    @property
    def size(self) -> int:
        return len(self.voxels)


@dataclass(frozen=True)
class LesionCandidate:
    """A component scored by the highest probability inside it."""

    component: Component
    probability: float

    @property
    def id(self) -> int:
        return self.component.id


@dataclass(frozen=True)
class TruePositive:
    candidate_id: int
    reference_id: int
    overlap: float
    probability: float


@dataclass(frozen=True)
class FalsePositive:
    candidate_id: int
    probability: float


@dataclass(frozen=True)
class DetectionOutcome:
    """Matched candidates and references for one exam."""

    true_positives: tuple[TruePositive, ...]
    false_positives: tuple[FalsePositive, ...]
    false_negatives: tuple[int, ...]
    n_reference: int


@dataclass(frozen=True)
class ExamResult:
    """Everything the dataset-level metrics need from one exam."""

    exam_id: str
    outcome: DetectionOutcome
    score: float
    has_reference: bool
    threshold: float


@dataclass(frozen=True)
class DynamicThresholdParams:
    """Descending threshold search settings."""

    t_start: float = 0.6
    t_min: float = 0.1
    step: float = 0.05
    max_candidates: int = 5
    min_voxels: int = 10

    def __post_init__(self) -> None:
        check_field_types(self)
        if not (0.0 <= self.t_min <= self.t_start <= 1.0):
            raise ValueError("need 0 <= t_min <= t_start <= 1")
        if not (0.0 < self.step < math.inf):
            raise ValueError(f"step {self.step} must be positive and finite")
        if (self.t_start - self.t_min) / self.step > MAX_THRESHOLDS - 1:
            raise ValueError(
                f"step {self.step} would visit more than {MAX_THRESHOLDS} thresholds"
            )
        if self.max_candidates < 1 or self.min_voxels < 1:
            raise ValueError("max_candidates and min_voxels must be >= 1")


# ---------------------------------------------------------------------------
# Thresholding, labeling and matching
# ---------------------------------------------------------------------------


def check_threshold(t: float) -> float:
    """t, if it is a threshold in [0, 1]; else ValueError."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"threshold {t} outside [0, 1]")
    return t


def check_tau(tau: float) -> float:
    """tau, if it is an IoU bound in [0, 1); else ValueError."""
    if not (0.0 <= tau < 1.0):
        raise ValueError(f"tau {tau} outside [0, 1)")
    return tau


class _Labels(NamedTuple):
    """Foreground voxels as flat indices counted x fastest (the VOL1/MSK1
    file order, so index order is (z, y, x) order), the component of each
    voxel numbered in the documented order, and the component count."""

    index: np.ndarray
    label: np.ndarray
    n: int


def _slabs(zyx: np.ndarray) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """(z0, y0, x0, box) per run of consecutive occupied z slices of a
    (Z, Y, X) mask, in z order: the run cropped to its (y, x) bounding box.
    A mask that fills every slice and its whole plane is one uncropped box."""
    nz, ny, nx = zyx.shape
    z0 = 0
    for occupied, run in itertools.groupby(zyx.reshape(nz, ny * nx).any(axis=1).tolist()):
        z1 = z0 + len(list(run))
        if occupied:
            plane = zyx[z0:z1].any(axis=0)
            ys = plane.any(axis=1).nonzero()[0]
            xs = plane[ys[0] : ys[-1] + 1].any(axis=0).nonzero()[0]
            y0, x0 = int(ys[0]), int(xs[0])
            yield z0, y0, x0, zyx[z0:z1, y0 : ys[-1] + 1, x0 : xs[-1] + 1]
        z0 = z1


def _label(mask_data: np.ndarray, connectivity: int) -> _Labels:
    """Label each occupied slab, then order the components on their
    foreground voxels.

    No 6, 18 or 26 neighborhood reaches across an empty z slice, so
    labeling each run of occupied slices, cropped to its (y, x) box, finds
    the components of the whole grid at a cost that follows the boxes, not
    the grid.  Labeling the (Z, Y, X) view gives C-ordered labels that ravel
    x fastest; every neighborhood structure is symmetric under transposing.
    Each box's foreground in (z, y, x) order, boxes in z order, is the
    mask's foreground in flat index order.
    """
    if connectivity not in CONNECTIVITIES:
        raise ValueError(f"connectivity must be one of {CONNECTIVITIES}, got {connectivity}")
    from scipy import ndimage  # here, not at import: the CLI starts without scipy

    structure = ndimage.generate_binary_structure(3, CONNECTIVITIES.index(connectivity) + 1)
    zyx = mask_data.T
    _, ny, nx = zyx.shape
    indexes, raws, n = [np.empty(0, np.intp)], [np.empty(0, np.intp)], 0
    for z0, y0, x0, box in _slabs(zyx):
        labeled, k = ndimage.label(box, structure)
        index = np.flatnonzero(box)  # labels are non-zero exactly on the mask
        raws.append(labeled.ravel()[index] + (n - 1))
        if box.shape != zyx.shape:  # box coordinates to grid indices
            _, by, bx = box.shape
            index = ((index // (by * bx) + z0) * ny + index // bx % by + y0) * nx + index % bx + x0
        indexes.append(index)
        n += k
    index, raw = (np.concatenate(parts) for parts in (indexes, raws))
    first, min_y, min_x = (np.full(n, zyx.size) for _ in range(3))
    np.minimum.at(first, raw, index)  # smallest voxel in (z, y, x) order
    np.minimum.at(min_y, raw, index // nx % ny)
    np.minimum.at(min_x, raw, index % nx)
    rank = np.argsort(np.lexsort((first, min_x, min_y, first // (nx * ny))))
    return _Labels(index, rank[raw], n)


def _peaks(volume: ProbVolume, labels: _Labels) -> list[float]:
    peaks = np.full(labels.n, -np.inf)
    np.maximum.at(peaks, labels.label, volume.data.ravel(order="F")[labels.index])
    return peaks.tolist()


def _components(labels: _Labels, dims: tuple[int, int, int]) -> tuple[Component, ...]:
    order = np.argsort(labels.label, kind="stable")
    coords = np.stack(np.unravel_index(labels.index[order], dims, order="F"), axis=1).tolist()
    ends = np.cumsum(np.bincount(labels.label, minlength=labels.n)).tolist()
    return tuple(
        Component(i, frozenset(map(tuple, coords[start:end])), dims)
        for i, (start, end) in enumerate(zip([0] + ends, ends))
    )


def threshold_volume(volume: ProbVolume, t: float) -> BinaryMask:
    """Mark voxels strictly greater than t; a voxel equal to t stays background."""
    return BinaryMask(volume.data > check_threshold(t))


def connected_components(mask: BinaryMask, connectivity: int = 26) -> tuple[Component, ...]:
    """Maximal connected foreground sets under 6, 18, or 26 connectivity.

    Returned in a deterministic order: ascending (min z, min y, min x)
    per component, ties broken by the lexicographically smallest voxel
    in (z, y, x) order.
    """
    return _components(_label(mask.data, connectivity), mask.data.shape)


def dynamic_threshold(
    volume: ProbVolume,
    params: DynamicThresholdParams = DynamicThresholdParams(),
    connectivity: int = 26,
) -> tuple[BinaryMask, float]:
    """Lower the threshold until enough sizeable components appear.

    Starting at t_start, step down while the count of components with at
    least min_voxels voxels stays below max_candidates and t is above
    t_min; the mask at the final t is returned together with that t.  An
    all-background volume therefore ends at exactly t_min.  A mask with
    fewer than max_candidates * min_voxels foreground voxels cannot hold
    enough such components, so the search passes it without labeling;
    only the masks that can stop the search, and the one at t_min, are
    labeled.
    """
    return _dynamic_search(volume, params, connectivity)[:2]


def _dynamic_search(
    volume: ProbVolume, params: DynamicThresholdParams, connectivity: int
) -> tuple[BinaryMask, float, _Labels]:
    """dynamic_threshold plus the labeling of its final mask."""
    needed = params.max_candidates * params.min_voxels  # fewer voxels cannot stop the search
    for k in itertools.count():
        t = max(params.t_start - k * params.step, params.t_min)
        mask = threshold_volume(volume, t)
        if t > params.t_min and np.count_nonzero(mask.data) < needed:
            continue
        labels = _label(mask.data, connectivity)
        if t <= params.t_min or (np.bincount(labels.label) >= params.min_voxels).sum() >= params.max_candidates:
            return mask, t, labels


def lesion_candidates(
    volume: ProbVolume, mask: BinaryMask, connectivity: int = 26
) -> tuple[LesionCandidate, ...]:
    """Score each mask component by its peak probability in the volume."""
    if volume.data.shape != mask.data.shape:
        raise ValueError(f"volume dims {volume.data.shape} != mask dims {mask.data.shape}")
    labels = _label(mask.data, connectivity)
    return tuple(map(LesionCandidate, _components(labels, mask.data.shape), _peaks(volume, labels)))


def _match(cand: _Labels, probs, cand_ids, ref: _Labels, ref_ids, tau: float) -> DetectionOutcome:
    """Greedy matching on a sparse candidate x reference contingency table.

    Candidates (scored by ``probs``, named by ``cand_ids``) may overlap;
    reference voxels must be distinct and sorted."""
    p, q = check_tau(tau).as_integer_ratio()
    at = np.searchsorted(ref.index, cand.index)
    hit = at < ref.index.size
    hit[hit] = ref.index[at[hit]] == cand.index[hit]
    pairs, inter = np.unique(cand.label[hit] * ref.n + ref.label[at[hit]], return_counts=True)
    bounds = np.searchsorted(pairs, np.arange(cand.n + 1) * ref.n).tolist()
    pair_ref, inter = (pairs % max(ref.n, 1)).tolist(), inter.tolist()
    cand_size = np.bincount(cand.label, minlength=cand.n).tolist()
    ref_size = np.bincount(ref.label, minlength=ref.n).tolist()
    is_open = [True] * ref.n
    tps, fps = [], []
    for c in sorted(range(cand.n), key=lambda c: (-probs[c], cand_ids[c])):
        best = (-1, 0, 1)  # (reference, intersection, union) with the first highest IoU
        for r, i in zip(pair_ref[bounds[c] : bounds[c + 1]], inter[bounds[c] : bounds[c + 1]]):
            u = cand_size[c] + ref_size[r] - i
            if is_open[r] and i * best[2] > best[1] * u:
                best = (r, i, u)
        r, i, u = best
        if i * q > p * u:  # IoU > tau, exactly
            is_open[r] = False
            tps.append(TruePositive(cand_ids[c], ref_ids[r], i / u, probs[c]))
        else:
            fps.append(FalsePositive(cand_ids[c], probs[c]))
    fns = tuple(ref_ids[r] for r in range(ref.n) if is_open[r])
    return DetectionOutcome(tuple(tps), tuple(fps), fns, ref.n)


def _component_labels(components: list[Component], dims: tuple[int, int, int]) -> _Labels:
    voxels = np.array([v for c in components for v in c.voxels], dtype=np.intp).reshape(-1, 3)
    index = np.ravel_multi_index(voxels.T, dims, order="F")
    label = np.repeat(np.arange(len(components)), [c.size for c in components])
    order = np.argsort(index, kind="stable")
    return _Labels(index[order], label[order], len(components))


def match_lesions(
    candidates: tuple[LesionCandidate, ...] | list[LesionCandidate],
    references: tuple[Component, ...] | list[Component],
    tau: float = 0.1,
) -> DetectionOutcome:
    """Greedy one-to-one matching by descending candidate probability.

    Each candidate takes the unmatched reference with the highest IoU,
    and counts as a true positive only when that IoU is strictly above
    tau; the comparison runs in exact rational arithmetic so a ratio that
    lands exactly on tau is rejected.  Leftover references are false
    negatives.  References are the components of one mask, so two that
    share a voxel are rejected.
    """
    dims = {c.component.dims for c in candidates} | {r.dims for r in references}
    if len(dims) > 1:
        raise ValueError(f"candidates and references disagree on dims: {sorted(dims)}")
    shape = dims.pop() if dims else (1, 1, 1)
    ref = _component_labels(list(references), shape)
    if (np.diff(ref.index) == 0).any():
        raise ValueError("references overlap: two of them share a voxel")
    cand = _component_labels([c.component for c in candidates], shape)
    probs = [c.probability for c in candidates]
    return _match(cand, probs, [c.id for c in candidates], ref, [r.id for r in references], tau)


def evaluate_exam(
    exam_id: str,
    volume: ProbVolume,
    reference: BinaryMask,
    tau: float = 0.1,
    connectivity: int = 26,
    *,
    threshold: float | DynamicThresholdParams,
) -> ExamResult:
    """Threshold, label candidates, and match against the reference mask.

    ``threshold`` is a fixed t in [0, 1] or the settings of a dynamic
    search; a fixed t is the search that starts and stops at t.
    """
    if volume.data.shape != reference.data.shape:
        raise ValueError(
            f"{exam_id}: volume dims {volume.data.shape} != reference dims {reference.data.shape}"
        )
    if not isinstance(threshold, DynamicThresholdParams):
        t = float(check_threshold(threshold))  # float(): the params refuse numpy scalars
        threshold = DynamicThresholdParams(t, t)
    _, t, cand = _dynamic_search(volume, threshold, connectivity)
    ref = _label(reference.data, connectivity)
    peaks = _peaks(volume, cand)
    outcome = _match(cand, peaks, range(cand.n), ref, range(ref.n), tau)
    return ExamResult(exam_id, outcome, max(peaks, default=0.0), ref.n > 0, t)


# ---------------------------------------------------------------------------
# Ranking metrics
# ---------------------------------------------------------------------------


def roc_auc(scores: list[float] | np.ndarray, labels: list[int] | np.ndarray) -> float:
    """Probability a random positive outscores a random negative, ties half.

    Computed by exact pair counting over sorted tie groups in integer
    arithmetic (2 per win, 1 per tie), with a single float division at
    the end, so the result matches exhaustive pair enumeration exactly.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1D sequences")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    _, group = np.unique(s, return_inverse=True)
    pos = np.bincount(group[y == 1], minlength=s.size)
    neg = np.bincount(group[y == 0], minlength=s.size)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: need at least one positive and one negative")
    # Each positive beats the negatives in lower groups and ties its own.
    wins2 = int((pos * (2 * (np.cumsum(neg) - neg) + neg)).sum())
    return wins2 / (2 * n_pos * n_neg)


def exam_auc(results: list[ExamResult]) -> float:
    """Case-level AUC of exam scores against reference presence."""
    return roc_auc([r.score for r in results], [int(r.has_reference) for r in results])


def lesion_auc(outcomes: list[DetectionOutcome]) -> float:
    """Lesion-level AUC over the pooled candidate/reference population.

    True positives score (probability, 1), false positives (probability,
    0), and every missed reference enters as a zero-score positive.
    """
    scores: list[float] = []
    labels: list[int] = []
    for out in outcomes:
        tps, fps, n_fn = out.true_positives, out.false_positives, len(out.false_negatives)
        scores += [tp.probability for tp in tps] + [fp.probability for fp in fps] + [0.0] * n_fn
        labels += [1] * len(tps) + [0] * len(fps) + [1] * n_fn
    return roc_auc(scores, labels)


def average_precision(outcomes: list[DetectionOutcome]) -> float:
    """Dataset-pooled average precision with step interpolation.

    Candidates from every exam rank together by descending probability
    (ties keep exam-then-candidate order).  Recall uses the total
    reference lesion count as its denominator, so false negatives cap
    the reachable recall even though they never appear in the ranking.
    """
    n_ref = sum(out.n_reference for out in outcomes)
    if n_ref == 0:
        raise ValueError("average precision undefined without reference lesions")
    pool = [
        (x.probability, exam_idx, x.candidate_id, isinstance(x, TruePositive))
        for exam_idx, out in enumerate(outcomes)
        for x in out.true_positives + out.false_positives
    ]
    pool.sort(key=lambda item: (-item[0], item[1], item[2]))
    ap, tp_seen = 0.0, 0
    for rank, (_, _, _, is_tp) in enumerate(pool, start=1):
        if is_tp:
            tp_seen += 1
            # Recall steps by 1/n_ref; precision is evaluated at this rank.
            ap += (1.0 / n_ref) * (tp_seen / rank)
    return ap
