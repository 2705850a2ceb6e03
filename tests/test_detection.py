"""Component extraction, lesion matching, and ranking metrics.

Oracles: a queue flood fill with explicit neighbor offsets, a voxel-set
greedy matcher built on it, exhaustive positive/negative pair counting for
AUC, and a literal precision-recall step sum for average precision.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from confcl import detection
from confcl import io as cio
from confcl.detection import (
    BinaryMask,
    Component,
    DetectionOutcome,
    DynamicThresholdParams,
    ExamResult,
    FalsePositive,
    LesionCandidate,
    ProbVolume,
    TruePositive,
    average_precision,
    connected_components,
    dynamic_threshold,
    evaluate_exam,
    exam_auc,
    lesion_auc,
    lesion_candidates,
    match_lesions,
    roc_auc,
    threshold_volume,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _offsets(connectivity):
    out = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if (dx, dy, dz) == (0, 0, 0):
                    continue
                order = abs(dx) + abs(dy) + abs(dz)
                if connectivity == 6 and order > 1:
                    continue
                if connectivity == 18 and order > 2:
                    continue
                out.append((dx, dy, dz))
    return out


def _flood_fill(data, connectivity):
    """Queue-based fill; returns voxel sets sorted by (min z, min y, min x)."""
    offsets = _offsets(connectivity)
    shape = data.shape
    seen = set()
    comps = []
    for seed in map(tuple, np.argwhere(data)):
        if seed in seen:
            continue
        queue = [seed]
        seen.add(seed)
        voxels = set()
        while queue:
            x, y, z = queue.pop()
            voxels.add((x, y, z))
            for dx, dy, dz in offsets:
                nxt = (x + dx, y + dy, z + dz)
                if nxt in seen:
                    continue
                if not all(0 <= c < s for c, s in zip(nxt, shape)):
                    continue
                if data[nxt]:
                    seen.add(nxt)
                    queue.append(nxt)
        comps.append(frozenset(voxels))
    comps.sort(
        key=lambda v: (
            min(z for _, _, z in v),
            min(y for _, y, _ in v),
            min(x for x, _, _ in v),
            min((z, y, x) for x, y, z in v),
        )
    )
    return comps


def _oracle_exam(prob, ref, tau, connectivity, threshold=None, dynamic=None):
    """One exam straight from the definitions: flood-filled voxel sets,
    peak scores, and greedy matching on exact set IoU."""
    if dynamic is None:
        t = threshold
        comps = _flood_fill(prob > t, connectivity)
    else:
        k, t = 0, dynamic.t_start
        while True:
            comps = _flood_fill(prob > t, connectivity)
            sizeable = sum(len(c) >= dynamic.min_voxels for c in comps)
            if sizeable >= dynamic.max_candidates or t <= dynamic.t_min:
                break
            k += 1
            t = max(dynamic.t_start - k * dynamic.step, dynamic.t_min)
    cands = [(max(float(prob[v]) for v in c), cid, c) for cid, c in enumerate(comps)]
    refs = _flood_fill(ref, connectivity)
    open_refs = list(enumerate(refs))
    tps, fps = [], []
    for p, cid, voxels in sorted(cands, key=lambda c: (-c[0], c[1])):
        best, best_iou = None, Fraction(0)
        for rid, rvox in open_refs:
            iou = Fraction(len(voxels & rvox), len(voxels | rvox))
            if best is None or iou > best_iou:
                best, best_iou = (rid, rvox), iou
        if best is not None and best_iou > Fraction(tau):
            open_refs.remove(best)
            tps.append(TruePositive(cid, best[0], float(best_iou), p))
        else:
            fps.append(FalsePositive(cid, p))
    outcome = DetectionOutcome(tuple(tps), tuple(fps), tuple(r for r, _ in open_refs), len(refs))
    score = max((c[0] for c in cands), default=0.0)
    return outcome, score, t


def _auc_pairs(scores, labels):
    """Exhaustive Mann-Whitney enumeration in exact arithmetic."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = Fraction(0)
    for p in pos:
        for q in neg:
            if p > q:
                total += 1
            elif p == q:
                total += Fraction(1, 2)
    return float(total / (len(pos) * len(neg)))


def _ap_step_sum(flags, n_ref):
    """AP from the literal PR curve: sum (r_k - r_{k-1}) * p_k over ranks."""
    ap = Fraction(0)
    tp = 0
    prev_recall = Fraction(0)
    for rank, is_tp in enumerate(flags, start=1):
        if is_tp:
            tp += 1
        recall = Fraction(tp, n_ref)
        ap += (recall - prev_recall) * Fraction(tp, rank)
        prev_recall = recall
    return float(ap)


def _component(voxels, dims, cid=0):
    return Component(cid, frozenset(voxels), dims)


def _outcome(tp_probs=(), fp_probs=(), n_fn=0):
    tps = tuple(
        TruePositive(candidate_id=i, reference_id=i, overlap=1.0, probability=p)
        for i, p in enumerate(tp_probs)
    )
    fps = tuple(
        FalsePositive(candidate_id=100 + i, probability=p)
        for i, p in enumerate(fp_probs)
    )
    fns = tuple(range(200, 200 + n_fn))
    return DetectionOutcome(tps, fps, fns, len(tps) + n_fn)


# ---------------------------------------------------------------------------
# Thresholding
# ---------------------------------------------------------------------------


def test_threshold_is_strictly_greater():
    v = ProbVolume(np.array([0.3, 0.5, 0.7]).reshape(3, 1, 1))
    assert threshold_volume(v, 0.5).data.ravel().tolist() == [False, False, True]
    assert not threshold_volume(v, 1.0).data.any()
    assert threshold_volume(v, 0.0).data.all()


def test_threshold_rejects_out_of_range():
    v = ProbVolume(np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        threshold_volume(v, 1.5)


def test_prob_volume_validation():
    with pytest.raises(ValueError):
        ProbVolume(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ProbVolume(np.full((1, 1, 1), 1.5))
    for bad in (np.nan, np.inf, -np.inf, -1e-300):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbVolume(np.array([0.5, bad]).reshape(2, 1, 1))
    with pytest.raises(ValueError):
        BinaryMask(np.full((1, 1, 1), 2))
    with pytest.raises(ValueError, match="3D"):
        BinaryMask(np.zeros((2, 2), dtype=bool))


def test_grid_types_are_the_io_types():
    assert ProbVolume is cio.ProbVolume
    assert BinaryMask is cio.BinaryMask


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------


def test_single_voxel_component():
    data = np.zeros((3, 3, 3), dtype=bool)
    data[1, 1, 1] = True
    comps = connected_components(BinaryMask(data))
    assert len(comps) == 1
    assert comps[0].voxels == {(1, 1, 1)}
    assert comps[0].size == 1


def test_corner_touch_connects_only_at_26():
    data = np.zeros((2, 2, 2), dtype=bool)
    data[0, 0, 0] = True
    data[1, 1, 1] = True
    assert len(connected_components(BinaryMask(data), 6)) == 2
    assert len(connected_components(BinaryMask(data), 18)) == 2
    assert len(connected_components(BinaryMask(data), 26)) == 1


def test_edge_touch_connects_at_18_and_26():
    data = np.zeros((2, 2, 1), dtype=bool)
    data[0, 0, 0] = True
    data[1, 1, 0] = True
    assert len(connected_components(BinaryMask(data), 6)) == 2
    assert len(connected_components(BinaryMask(data), 18)) == 1
    assert len(connected_components(BinaryMask(data), 26)) == 1


def test_component_ordering_by_min_z_then_y_then_x():
    data = np.zeros((4, 4, 4), dtype=bool)
    data[3, 3, 0] = True  # smallest z, largest x: must come first
    data[0, 0, 2] = True
    comps = connected_components(BinaryMask(data))
    assert comps[0].voxels == {(3, 3, 0)}
    assert comps[1].voxels == {(0, 0, 2)}
    assert [c.id for c in comps] == [0, 1]


def test_components_match_flood_fill_on_random_masks():
    rng = np.random.default_rng(31)
    for _ in range(30):
        dims = tuple(int(rng.integers(1, 9)) for _ in range(3))
        data = rng.uniform(0, 1, dims) < 0.4
        for connectivity in (6, 18, 26):
            got = connected_components(BinaryMask(data), connectivity)
            want = _flood_fill(data, connectivity)
            assert [c.voxels for c in got] == want


def test_components_partition_the_foreground():
    rng = np.random.default_rng(32)
    data = rng.uniform(0, 1, (6, 5, 4)) < 0.5
    comps = connected_components(BinaryMask(data), 6)
    union = set()
    for c in comps:
        assert not (union & c.voxels)
        union |= c.voxels
    assert union == {tuple(v) for v in np.argwhere(data)}


def test_component_count_non_increasing_in_connectivity():
    rng = np.random.default_rng(33)
    for _ in range(10):
        data = rng.uniform(0, 1, (5, 5, 3)) < 0.45
        counts = [
            len(connected_components(BinaryMask(data), c)) for c in (6, 18, 26)
        ]
        assert counts[0] >= counts[1] >= counts[2]


def test_connectivity_must_be_a_known_neighborhood():
    with pytest.raises(ValueError):
        connected_components(BinaryMask(np.zeros((1, 1, 1), dtype=bool)), 4)


# ---------------------------------------------------------------------------
# Dynamic threshold
# ---------------------------------------------------------------------------


def _counting(monkeypatch):
    """Record each threshold the search visits and each labeling, in order."""
    events = []
    threshold_volume, label = detection.threshold_volume, detection._label

    def counted_threshold(volume, t):
        events.append(t)
        return threshold_volume(volume, t)

    def counted_label(mask_data, connectivity):
        events.append("label")
        return label(mask_data, connectivity)

    monkeypatch.setattr(detection, "threshold_volume", counted_threshold)
    monkeypatch.setattr(detection, "_label", counted_label)
    return events


def test_dynamic_threshold_all_background_ends_at_t_min(monkeypatch):
    events = _counting(monkeypatch)
    v = ProbVolume(np.zeros((3, 3, 3)))
    mask, t = dynamic_threshold(v, DynamicThresholdParams())
    assert t == DynamicThresholdParams().t_min
    assert not mask.data.any()
    # 11 thresholds from 0.6 down to 0.1; only the mask at t_min is labeled.
    assert len(events) == 12 and events.count("label") == 1
    assert events[-2:] == [t, "label"]


def test_dynamic_threshold_stops_at_start_when_enough_candidates():
    data = np.zeros((4, 4, 4))
    data[:3, :3, :2] = 0.9  # 18 voxels, well above every threshold
    v = ProbVolume(data)
    params = DynamicThresholdParams(t_start=0.6, max_candidates=1, min_voxels=10)
    mask, t = dynamic_threshold(v, params)
    assert t == 0.6
    assert int(mask.data.sum()) == 18


def test_dynamic_threshold_two_blob_replay():
    # Blobs at 0.6 and 0.4 on a 5x5x1 grid with t_start=0.7, step=0.1,
    # max_candidates=2.  Replaying the loop: k=0,1 catch nothing, k=2
    # (t=0.5) admits the bright blob, and k=3 admits the dim one because
    # 0.7 - 3*0.1 rounds to just below 0.4 and thresholding is strict.
    data = np.zeros((5, 5, 1))
    data[0:2, 0:2, 0] = 0.6
    data[3:5, 3:5, 0] = 0.4
    v = ProbVolume(data)
    params = DynamicThresholdParams(
        t_start=0.7, t_min=0.1, step=0.1, max_candidates=2, min_voxels=4
    )
    mask, t = dynamic_threshold(v, params)
    assert t == 0.7 - 3 * 0.1
    assert 0.4 > t
    comps = connected_components(mask)
    assert len(comps) == 2
    assert int(mask.data.sum()) == 8


def test_dynamic_threshold_params_validation():
    with pytest.raises(ValueError):
        DynamicThresholdParams(t_start=0.2, t_min=0.5)
    with pytest.raises(ValueError):
        DynamicThresholdParams(step=0.0)
    with pytest.raises(ValueError):
        DynamicThresholdParams(max_candidates=0)
    for step in (float("nan"), float("inf"), -0.05):
        with pytest.raises(ValueError, match="positive and finite"):
            DynamicThresholdParams(step=step)
    # At most 1000 thresholds: 1 + ceil((t_start - t_min) / step).
    assert DynamicThresholdParams(t_start=1.0, t_min=0.0, step=1 / 999).step == 1 / 999
    for step in (1 / 1000, 1e-6, 1e-20, 5e-324):
        with pytest.raises(ValueError, match="more than 1000 thresholds"):
            DynamicThresholdParams(t_start=1.0, t_min=0.0, step=step)
    assert DynamicThresholdParams(t_start=0.3, t_min=0.3, step=1e-20).step == 1e-20
    # Bools and fractional counts would pass the range checks.
    for field, value, message in [
        ("max_candidates", 2.0, "max_candidates must be an integer, got 2.0"),
        ("max_candidates", True, "max_candidates must be an integer, got True"),
        ("min_voxels", 2.5, "min_voxels must be an integer, got 2.5"),
        ("min_voxels", np.int64(3), "min_voxels must be an integer, got "),
        ("t_start", True, "t_start must be a number, got True"),
        ("t_min", False, "t_min must be a number, got False"),
        ("step", True, "step must be a number, got True"),
        ("step", "0.1", "step must be a number, got '0.1'"),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            DynamicThresholdParams(**{field: value})


def test_dynamic_search_labels_only_thresholds_that_can_stop_it(monkeypatch):
    # K * V = 8.  t = 0.7 and 0.6 keep 3 voxels and are passed unlabeled;
    # t = 0.5 and 0.4 keep one 9-voxel blob, are labeled and do not stop;
    # t = 0.3 adds a second 4-voxel blob and stops the search.
    data = np.zeros((8, 6, 3))
    data[0:3, 0:3, 0] = 0.55
    data[0:3, 0, 0] = 0.75
    data[5:7, 3:5, 2] = 0.35
    params = DynamicThresholdParams(t_start=0.7, t_min=0.1, step=0.1, max_candidates=2, min_voxels=4)
    needed = params.max_candidates * params.min_voxels
    ref = np.zeros(data.shape, dtype=bool)
    ref[0:3, 0:3, 0] = True
    _, _, oracle_t = _oracle_exam(data, ref, 0.1, 26, dynamic=params)
    events = _counting(monkeypatch)
    mask, t = dynamic_threshold(ProbVolume(data), params)
    assert t == oracle_t == 0.7 - 4 * 0.1
    assert np.array_equal(mask.data, data > oracle_t)
    visited = [e for e in events if e != "label"]
    assert visited == [0.7 - k * 0.1 for k in range(5)]
    assert [int(np.count_nonzero(data > v)) for v in visited] == [3, 3, 9, 9, 13]
    labeled = sum(np.count_nonzero(data > v) >= needed for v in visited[:-1]) + 1
    assert events.count("label") == labeled == 3
    assert events[-2:] == [t, "label"]


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_label_is_the_same_for_every_memory_layout(connectivity):
    rng = np.random.default_rng(14)
    mask = rng.random((7, 5, 4)) < 0.15
    wide = rng.random((14, 15, 8)) < 0.5  # the voxels the slice skips stay random
    wide[::2, ::3, ::2] = mask
    layouts = [np.ascontiguousarray(mask), np.asfortranarray(mask), wide[::2, ::3, ::2]]
    assert not layouts[2].flags.c_contiguous and not layouts[2].flags.f_contiguous
    want = detection._label(layouts[0], connectivity)
    assert want.n > 1
    for layout in layouts[1:]:
        got = detection._label(layout, connectivity)
        assert got.n == want.n
        assert np.array_equal(got.index, want.index)
        assert np.array_equal(got.label, want.label)


def _assert_whole_grid_labels(data, connectivity):
    """_label's components against the flood fill's, and its arrays against
    one ndimage.label over the whole grid: the same foreground in flat
    order, the same count, and the same partition."""
    from scipy import ndimage

    labels = detection._label(data, connectivity)
    want = _flood_fill(data, connectivity)
    assert [c.voxels for c in connected_components(BinaryMask(data), connectivity)] == want
    structure = ndimage.generate_binary_structure(3, (6, 18, 26).index(connectivity) + 1)
    whole, n = ndimage.label(data.T, structure)
    assert labels.n == n == len(want)
    assert labels.index.dtype == labels.label.dtype == np.intp
    assert np.array_equal(labels.index, np.flatnonzero(data.T))
    pairs = np.unique(np.stack([labels.label, whole.ravel()[labels.index]]), axis=1)
    assert pairs.shape[1] == n  # one whole-grid label per component, and back
    return labels


def _slab_case(name):
    """An (X, Y, Z) mask for one slab edge case."""
    data = np.zeros((6, 5, 9), dtype=bool)
    if name == "one voxel":
        data[2, 3, 4] = True
    elif name == "full":
        data[:] = True
    elif name == "touches first and last slice":
        data[1:3, 1:3, 0:2] = True
        data[3, 4, 8] = True
    elif name == "one empty slice between runs":
        data[1:4, 1:3, 2:4] = True
        data[1:4, 1:3, 5] = True  # z = 4 is empty: no neighborhood bridges it
    elif name == "two empty slices between runs":
        data[0, 0, 1] = True
        data[5, 4, 4:6] = True
    elif name == "touches the box edges":
        data[0, 1:5, 3] = True  # the box's x minimum, y from 1 to its maximum
        data[:, 1, 3] = True  # the box's y minimum, x minimum to maximum: joins the first
        data[4, 3, 3:5] = True  # x = 4 < 5: inside, off the edges
        data[5, 4, 4] = True  # the box's corner, diagonal to (4, 3, 3) and (4, 3, 4)
    elif name == "diagonal across slices":
        data[1, 1, 3] = True
        data[2, 2, 4] = True  # a corner neighbor: joined only at 26
        data[4, 1, 6] = True
        data[4, 2, 7] = True  # an edge neighbor: joined at 18 and 26
    return data


# Each case's component count at 6, 18 and 26 connectivity.
SLAB_CASES = {
    "empty": (0, 0, 0),
    "one voxel": (1, 1, 1),
    "full": (1, 1, 1),
    "touches first and last slice": (2, 2, 2),
    "one empty slice between runs": (2, 2, 2),
    "two empty slices between runs": (2, 2, 2),
    "touches the box edges": (3, 2, 2),
    "diagonal across slices": (4, 3, 2),
}


@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("name", SLAB_CASES)
def test_slab_labels_match_the_whole_grid(name, connectivity):
    labels = _assert_whole_grid_labels(_slab_case(name), connectivity)
    assert labels.n == SLAB_CASES[name][(6, 18, 26).index(connectivity)]


def test_slab_labels_match_the_whole_grid_with_random_empty_slices():
    rng = np.random.default_rng(41)
    cropped = several = 0
    for _ in range(40):
        dims = tuple(int(rng.integers(1, 9)) for _ in range(2)) + (int(rng.integers(2, 13)),)
        data = rng.uniform(0, 1, dims) < rng.uniform(0.1, 0.5)
        data[:, :, rng.uniform(0, 1, dims[2]) < 0.4] = False
        boxes = [box.shape for *_, box in detection._slabs(data.T)]
        cropped += bool(boxes) and boxes != [data.T.shape]
        several += len(boxes) > 1
        for connectivity in (6, 18, 26):
            _assert_whole_grid_labels(data, connectivity)
    assert cropped >= 30 and several >= 10  # the crop path, and more than one slab


def _recorded_label_shapes(monkeypatch):
    from scipy import ndimage

    shapes, label = [], ndimage.label

    def recorded(box, structure):
        shapes.append(box.shape)
        return label(box, structure)

    monkeypatch.setattr(ndimage, "label", recorded)
    return shapes


def test_label_runs_once_per_slab_on_its_box(monkeypatch):
    shapes = _recorded_label_shapes(monkeypatch)
    data = np.zeros((20, 16, 10), dtype=bool)
    data[2:5, 3:9, 1:3] = True  # z 1-2, y 3-8, x 2-4
    data[11:18, 10:12, 6:10] = True  # z 6-9, y 10-11, x 11-17
    labels = detection._label(data, 26)
    assert labels.n == 2
    assert shapes == [(2, 6, 3), (4, 2, 7)]


def test_label_runs_once_on_the_whole_grid_when_every_slice_is_full(monkeypatch):
    shapes = _recorded_label_shapes(monkeypatch)
    data = np.zeros((7, 6, 5), dtype=bool)
    data[0, 0, :] = True  # every slice occupied, and the box's (0, 0) corner
    data[6, 5, 2] = True  # its (X - 1, Y - 1) corner
    labels = detection._label(data, 6)
    assert labels.n == 2
    assert shapes == [(5, 6, 7)]


# ---------------------------------------------------------------------------
# Candidates and matching
# ---------------------------------------------------------------------------


def test_candidate_probability_is_component_peak():
    data = np.zeros((4, 1, 1))
    data[0, 0, 0] = 0.3
    data[1, 0, 0] = 0.8
    data[3, 0, 0] = 0.5
    v = ProbVolume(data)
    cands = lesion_candidates(v, threshold_volume(v, 0.2))
    assert [c.probability for c in cands] == [0.8, 0.5]


def test_candidates_reject_dim_mismatch():
    v = ProbVolume(np.zeros((2, 2, 2)))
    m = BinaryMask(np.zeros((2, 2, 1), dtype=bool))
    with pytest.raises(ValueError):
        lesion_candidates(v, m)
    with pytest.raises(ValueError, match=r"\(2, 2, 2\) != reference dims \(2, 2, 1\)"):
        evaluate_exam("e", v, m, threshold=0.5)


def test_match_identical_candidate_is_tp_with_full_overlap():
    dims = (3, 3, 1)
    ref = _component({(0, 0, 0), (1, 0, 0)}, dims, cid=0)
    cand = LesionCandidate(_component({(0, 0, 0), (1, 0, 0)}, dims, cid=0), 0.9)
    out = match_lesions([cand], [ref])
    assert len(out.true_positives) == 1
    assert out.true_positives[0].overlap == 1.0
    assert out.false_positives == () and out.false_negatives == ()


def test_match_disjoint_candidate_gives_fp_and_fn():
    dims = (3, 3, 1)
    ref = _component({(0, 0, 0)}, dims, cid=0)
    cand = LesionCandidate(_component({(2, 2, 0)}, dims, cid=0), 0.9)
    out = match_lesions([cand], [ref])
    assert out.true_positives == ()
    assert len(out.false_positives) == 1
    assert out.false_negatives == (0,)


def _iou_boundary_fixture():
    """Reference of 9 voxels; candidate covers 1 of them plus 1 outside.

    IoU = 1 / 10 exactly, sitting on the default tau.
    """
    dims = (5, 3, 1)
    ref_voxels = {(x, y, 0) for x in range(3) for y in range(3)}
    cand_voxels = {(2, 2, 0), (3, 2, 0)}
    ref = _component(ref_voxels, dims, cid=0)
    cand = LesionCandidate(_component(cand_voxels, dims, cid=0), 0.7)
    return ref, cand


def test_match_iou_exactly_on_tau_is_rejected():
    ref, cand = _iou_boundary_fixture()
    out = match_lesions([cand], [ref], tau=0.1)
    assert out.true_positives == ()
    assert len(out.false_positives) == 1
    assert out.false_negatives == (0,)


def test_match_one_voxel_flip_crosses_the_boundary():
    ref, cand = _iou_boundary_fixture()
    # Move the outside voxel onto the reference: IoU becomes 2/9 > 0.1.
    flipped = LesionCandidate(
        _component({(2, 2, 0), (1, 2, 0)}, (5, 3, 1), cid=0), 0.7
    )
    out = match_lesions([flipped], [ref], tau=0.1)
    assert len(out.true_positives) == 1
    assert out.true_positives[0].overlap == pytest.approx(2 / 9)
    assert out.false_negatives == ()


def test_match_is_greedy_by_probability_and_one_to_one():
    dims = (4, 1, 1)
    ref = _component({(0, 0, 0), (1, 0, 0)}, dims, cid=0)
    weak = LesionCandidate(_component({(0, 0, 0)}, dims, cid=0), 0.4)
    strong = LesionCandidate(_component({(1, 0, 0)}, dims, cid=1), 0.9)
    out = match_lesions([weak, strong], [ref])
    assert len(out.true_positives) == 1
    assert out.true_positives[0].candidate_id == 1
    assert [fp.candidate_id for fp in out.false_positives] == [0]


def test_match_probability_ties_break_by_candidate_id():
    dims = (4, 1, 1)
    ref = _component({(0, 0, 0), (1, 0, 0)}, dims, cid=7)
    a = LesionCandidate(_component({(0, 0, 0)}, dims, cid=0), 0.5)
    b = LesionCandidate(_component({(1, 0, 0)}, dims, cid=1), 0.5)
    out = match_lesions([b, a], [ref])
    assert out.true_positives[0].candidate_id == 0


def test_match_counts_are_conserved():
    rng = np.random.default_rng(34)
    dims = (8, 8, 3)
    for _ in range(20):
        data = rng.uniform(0, 1, dims) < 0.25
        refs = connected_components(BinaryMask(data), 6)
        cand_data = rng.uniform(0, 1, dims) < 0.25
        cands = [
            LesionCandidate(c, float(rng.uniform(0, 1)))
            for c in connected_components(BinaryMask(cand_data), 6)
        ]
        out = match_lesions(cands, refs)
        assert len(out.true_positives) + len(out.false_negatives) == len(refs)
        assert len(out.true_positives) + len(out.false_positives) == len(cands)


def test_match_rejects_mixed_dims_and_bad_tau():
    a = _component({(0, 0, 0)}, (2, 2, 2), cid=0)
    b = _component({(0, 0, 0)}, (3, 3, 3), cid=0)
    with pytest.raises(ValueError, match="dims"):
        match_lesions([LesionCandidate(a, 0.5)], [b])
    with pytest.raises(ValueError, match="tau"):
        match_lesions([], [], tau=1.0)


def test_match_rejects_overlapping_references():
    dims = (3, 1, 1)
    a = _component({(0, 0, 0), (1, 0, 0)}, dims, cid=0)
    b = _component({(1, 0, 0), (2, 0, 0)}, dims, cid=1)
    cand = LesionCandidate(_component({(0, 0, 0)}, dims, cid=0), 0.9)
    with pytest.raises(ValueError, match="share a voxel"):
        match_lesions([cand], [a, b])
    # Overlapping candidates are fine: each is scored on its own voxels.
    out = match_lesions([LesionCandidate(a, 0.9), LesionCandidate(b, 0.8)], [a])
    assert [(tp.candidate_id, tp.overlap) for tp in out.true_positives] == [(0, 1.0)]
    assert [fp.candidate_id for fp in out.false_positives] == [1]


# ---------------------------------------------------------------------------
# ROC AUC
# ---------------------------------------------------------------------------


def test_roc_auc_perfect_and_inverted():
    assert roc_auc([0.9, 0.1], [1, 0]) == 1.0
    assert roc_auc([0.1, 0.9], [1, 0]) == 0.0


def test_roc_auc_tie_fixture():
    assert roc_auc([0.5, 0.5, 0.2], [1, 0, 0]) == 0.75


def test_roc_auc_matches_exhaustive_pair_counting():
    rng = np.random.default_rng(35)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        scores = rng.choice([0.0, 0.1, 0.25, 0.5, 0.75, 0.9], n).tolist()
        labels = rng.integers(0, 2, n).tolist()
        if len(set(labels)) < 2:
            continue
        assert roc_auc(scores, labels) == _auc_pairs(scores, labels)


def test_roc_auc_complement_for_tie_free_scores():
    rng = np.random.default_rng(36)
    scores = rng.permutation(20) / 20.0
    labels = np.array([0, 1] * 10)
    assert roc_auc(scores, labels) + roc_auc(scores, 1 - labels) == 1.0


def test_roc_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(37)
    scores = rng.uniform(0, 1, 30)
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    base = roc_auc(scores, labels)
    assert roc_auc(3.0 * scores + 2.0, labels) == base
    assert roc_auc(np.exp(scores), labels) == base


def test_roc_auc_input_validation():
    with pytest.raises(ValueError, match="AUC undefined"):
        roc_auc([0.1, 0.9], [1, 1])
    with pytest.raises(ValueError):
        roc_auc([0.1], [1, 0])
    with pytest.raises(ValueError):
        roc_auc([0.5, np.nan], [1, 0])
    with pytest.raises(ValueError):
        roc_auc([0.5, 0.6], [1, 2])


def test_exam_auc_delegates_to_scores_and_flags():
    def result(score, has_ref):
        return ExamResult(
            exam_id=f"e{score}",
            outcome=_outcome(),
            score=score,
            has_reference=has_ref,
            threshold=0.5,
        )

    results = [result(0.9, True), result(0.8, True), result(0.3, False), result(0.1, False)]
    assert exam_auc(results) == 1.0
    results.append(result(0.85, False))
    scores = [r.score for r in results]
    labels = [1 if r.has_reference else 0 for r in results]
    assert exam_auc(results) == _auc_pairs(scores, labels)


# ---------------------------------------------------------------------------
# Lesion-level AUC
# ---------------------------------------------------------------------------


def test_lesion_auc_detected_everything():
    outcomes = [_outcome(tp_probs=(1.0, 1.0)), _outcome(fp_probs=(0.1,))]
    assert lesion_auc(outcomes) == 1.0


def test_lesion_auc_missed_lesion_scores_zero():
    # The FN enters as a positive at score 0, below the FP at 0.5.
    outcomes = [_outcome(n_fn=1), _outcome(fp_probs=(0.5,))]
    assert lesion_auc(outcomes) == 0.0


def test_lesion_auc_matches_pair_counting_on_mixed_outcomes():
    outcomes = [
        _outcome(tp_probs=(0.9, 0.4), fp_probs=(0.4,)),
        _outcome(fp_probs=(0.7,), n_fn=1),
        _outcome(tp_probs=(0.6,)),
    ]
    scores = [0.9, 0.4, 0.4, 0.7, 0.0, 0.6]
    labels = [1, 1, 0, 0, 1, 1]
    assert lesion_auc(outcomes) == _auc_pairs(scores, labels)


# ---------------------------------------------------------------------------
# Average precision
# ---------------------------------------------------------------------------


def test_ap_single_clean_detection():
    assert average_precision([_outcome(tp_probs=(0.8,))]) == 1.0


def test_ap_fp_ranked_above_tp_is_half():
    out = _outcome(tp_probs=(0.4,), fp_probs=(0.9,))
    assert average_precision([out]) == 0.5


def test_ap_missed_lesion_caps_recall_at_half():
    out = _outcome(tp_probs=(0.9,), n_fn=1)
    assert average_precision([out]) == 0.5


def test_ap_requires_reference_lesions():
    with pytest.raises(ValueError):
        average_precision([_outcome(fp_probs=(0.5,))])


def test_ap_matches_step_sum_oracle_on_random_pools():
    rng = np.random.default_rng(38)
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    for _ in range(50):
        outcomes = []
        for _ in range(int(rng.integers(1, 4))):
            outcomes.append(
                _outcome(
                    tp_probs=tuple(rng.choice(grid, int(rng.integers(0, 4)))),
                    fp_probs=tuple(rng.choice(grid, int(rng.integers(0, 4)))),
                    n_fn=int(rng.integers(0, 3)),
                )
            )
        n_ref = sum(o.n_reference for o in outcomes)
        if n_ref == 0:
            continue
        pool = []
        for exam_idx, o in enumerate(outcomes):
            pool += [(tp.probability, exam_idx, tp.candidate_id, True) for tp in o.true_positives]
            pool += [(fp.probability, exam_idx, fp.candidate_id, False) for fp in o.false_positives]
        pool.sort(key=lambda item: (-item[0], item[1], item[2]))
        flags = [is_tp for _, _, _, is_tp in pool]
        assert average_precision(outcomes) == pytest.approx(
            _ap_step_sum(flags, n_ref), rel=0, abs=1e-12
        )


def test_ap_is_one_only_for_clean_detection():
    clean = [_outcome(tp_probs=(0.9, 0.8)), _outcome(tp_probs=(0.7,))]
    assert average_precision(clean) == 1.0
    with_fp_below = [_outcome(tp_probs=(0.9,), fp_probs=(0.1,))]
    assert average_precision(with_fp_below) == 1.0
    with_fp_above = [_outcome(tp_probs=(0.5,), fp_probs=(0.6,))]
    assert average_precision(with_fp_above) < 1.0
    with_fn = [_outcome(tp_probs=(0.9,), n_fn=1)]
    assert average_precision(with_fn) < 1.0


# ---------------------------------------------------------------------------
# End to end per exam
# ---------------------------------------------------------------------------


def test_evaluate_exam_fixed_threshold():
    data = np.zeros((6, 3, 1))
    data[0:2, 0:2, 0] = 0.9
    data[4:6, 0:2, 0] = 0.3
    v = ProbVolume(data)
    ref = np.zeros((6, 3, 1), dtype=bool)
    ref[0:2, 0:2, 0] = True
    res = evaluate_exam("e1", v, BinaryMask(ref), threshold=0.5)
    assert res.score == 0.9
    assert res.has_reference
    assert len(res.outcome.true_positives) == 1
    assert res.outcome.true_positives[0].overlap == 1.0
    assert res.threshold == 0.5


def test_evaluate_exam_needs_a_threshold_by_keyword():
    v = ProbVolume(np.zeros((2, 2, 2)))
    m = BinaryMask(np.zeros((2, 2, 2), dtype=bool))
    with pytest.raises(TypeError, match="threshold"):
        evaluate_exam("e", v, m)
    with pytest.raises(TypeError):
        evaluate_exam("e", v, m, 0.1, 26, 0.5)
    with pytest.raises(TypeError, match="dynamic"):
        evaluate_exam("e", v, m, threshold=0.5, dynamic=DynamicThresholdParams())
    with pytest.raises(ValueError, match="outside"):
        evaluate_exam("e", v, m, threshold=1.5)


def test_evaluate_exam_at_a_fixed_threshold_labels_twice(monkeypatch):
    # One labeling for the candidates and one for the reference; a numpy
    # scalar threshold is the same threshold.
    data = np.zeros((6, 3, 1))
    data[0:2, 0:2, 0] = 0.9
    data[4:6, 0:2, 0] = 0.3
    ref = np.zeros((6, 3, 1), dtype=bool)
    ref[0:2, 0:2, 0] = True
    want = evaluate_exam("e", ProbVolume(data), BinaryMask(ref), threshold=0.25)
    for threshold in (0.25, np.float32(0.25), np.float64(0.25)):
        events = _counting(monkeypatch)
        got = evaluate_exam("e", ProbVolume(data), BinaryMask(ref), threshold=threshold)
        assert events == [0.25, "label", "label"]
        assert got == want and type(got.threshold) is float
    assert [c.candidate_id for c in want.outcome.false_positives] == [1]


def test_evaluate_exam_negative_case_has_no_reference():
    v = ProbVolume(np.zeros((2, 2, 2)))
    m = BinaryMask(np.zeros((2, 2, 2), dtype=bool))
    res = evaluate_exam("neg", v, m, threshold=0.5)
    assert not res.has_reference
    assert res.score == 0.0
    assert res.outcome.n_reference == 0


def test_evaluate_exam_matches_set_oracle_on_random_volumes():
    # Tie-heavy probabilities, references that partly follow the
    # candidates, both memory layouts, every connectivity, tau on both
    # sides of common IoUs.
    rng = np.random.default_rng(39)
    levels = np.array([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0])
    n_tp = 0
    for _ in range(200):
        dims = tuple(int(rng.integers(1, 8)) for _ in range(3))
        prob = rng.choice(levels, dims)
        ref = (prob >= 0.5) ^ (rng.random(dims) < 0.2)
        if rng.random() < 0.5:  # the x-fastest layout the file readers return
            prob, ref = np.asfortranarray(prob), np.asfortranarray(ref)
        connectivity = int(rng.choice([6, 18, 26]))
        tau = float(rng.choice([0.0, 0.1, 0.25, 0.5]))
        if rng.random() < 0.5:
            threshold = float(rng.choice([0.0, 0.4, 0.5]))
            mode = dict(threshold=threshold)
        else:
            threshold = DynamicThresholdParams(
                t_start=0.8,
                t_min=0.2,
                step=0.2,
                max_candidates=int(rng.integers(1, 5)),
                min_voxels=int(rng.integers(1, 4)),
            )
            mode = dict(dynamic=threshold)
        got = evaluate_exam(
            "e", ProbVolume(prob), BinaryMask(ref), tau, connectivity, threshold=threshold
        )
        outcome, score, t = _oracle_exam(prob, ref, tau, connectivity, **mode)
        assert got.outcome == outcome
        assert got.score == score
        assert got.threshold == t
        assert got.has_reference == (outcome.n_reference > 0)
        n_tp += len(outcome.true_positives)
    assert n_tp > 100


def test_evaluate_exam_builds_no_component(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("voxel sets built")

    monkeypatch.setattr(detection, "Component", forbidden)
    monkeypatch.setattr(detection, "frozenset", forbidden, raising=False)
    data = np.zeros((6, 3, 2))
    data[0:2, 0:2, 0] = 0.9
    data[4:6, 0:2, 1] = 0.7
    v = ProbVolume(data)
    ref = np.zeros((6, 3, 2), dtype=bool)
    ref[0:2, 0:2, 0] = True
    m = BinaryMask(ref)
    params = DynamicThresholdParams(max_candidates=2, min_voxels=1)
    assert dynamic_threshold(v, params)[1] == 0.6
    for threshold in (0.5, params):
        res = evaluate_exam("e", v, m, threshold=threshold)
        assert [tp.candidate_id for tp in res.outcome.true_positives] == [0]
        assert [fp.candidate_id for fp in res.outcome.false_positives] == [1]
