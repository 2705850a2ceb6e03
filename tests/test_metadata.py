"""Vote binarization, confidence, and pair-kernel behavior.

The confidence oracle below recomputes 2 * (majority/n - 1/2) by direct
counting in exact rational arithmetic; the kernel tests compare the
vectorized matrix builder against a brute-force double loop over
pair_weight below, a single-pair reference written branch by branch.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from confcl.metadata import (
    COARSE_WEIGHT,
    DEFAULT_EPSILON,
    AnnotationError,
    AnnotationVector,
    KernelVariant,
    MetadataSummary,
    RawAnnotation,
    Source,
    binarize,
    confidence,
    kernel_classes,
    kernel_matrix,
    summarize,
    summarize_batch,
)


def _confidence_by_counting(votes, epsilon):
    """Direct-count oracle: exact majority ratio, tie -> 0, n=1 -> epsilon."""
    n = len(votes)
    if n == 1:
        return epsilon
    count = max(votes.count(0), votes.count(1))
    return float(2 * (Fraction(count, n) - Fraction(1, 2)))


def pair_weight(s_i, s_j, same_exam, variant=KernelVariant.PROPOSED):
    """Single-pair oracle for kernel_matrix: 1 for the same exam, else both
    summaries must be labeled, and different labels weigh 0."""
    if same_exam:
        return 1.0
    if not (s_i.is_labeled and s_j.is_labeled):
        bad = s_i if not s_i.is_labeled else s_j
        raise AnnotationError(f"exam {bad.exam_id!r} is unlabeled; cross-exam weights need labels")
    if s_i.label != s_j.label:
        return 0.0
    if variant is KernelVariant.PROPOSED:
        return min(s_i.confidence, s_j.confidence)
    if variant is KernelVariant.HIGH_CONFIDENCE:
        # Confidence is an exact integer ratio, so equality with 1 is sharp.
        return COARSE_WEIGHT if s_i.confidence == 1.0 and s_j.confidence == 1.0 else 0.0
    if variant is KernelVariant.MAJORITY_VOTING:
        return COARSE_WEIGHT
    raise ValueError(f"unknown kernel variant {variant!r}")


def _all_vote_vectors(max_n):
    for n in range(1, max_n + 1):
        yield from itertools.product((0, 1), repeat=n)


# ---------------------------------------------------------------------------
# Binarization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,expected", [(1, 0), (2, 0), (3, None), (4, 1), (5, 1)]
)
def test_binarize_pirads(value, expected):
    assert binarize(Source.PIRADS, value) == expected


@pytest.mark.parametrize(
    "value,expected", [(0, 0), (1, 0), (2, 1), (3, 1), (4, 1), (5, 1)]
)
def test_binarize_isup(value, expected):
    assert binarize(Source.ISUP, value) == expected


@pytest.mark.parametrize("source,value", [(Source.PIRADS, 0), (Source.PIRADS, 6), (Source.ISUP, -1), (Source.ISUP, 6)])
def test_binarize_rejects_out_of_range(source, value):
    with pytest.raises(AnnotationError):
        binarize(source, value)


def test_raw_annotation_validates_and_names_the_exam():
    RawAnnotation("ok", Source.PIRADS, 4)
    with pytest.raises(AnnotationError, match="exam 'bad-exam'"):
        RawAnnotation("bad-exam", Source.ISUP, 9)


@pytest.mark.parametrize(
    "source,value,message",
    [
        # A str is not a Source, so it is rejected, not checked against a range.
        ("pirads", 0, "exam 'a': unknown source 'pirads'"),
        ("pirads", 4, "exam 'a': unknown source 'pirads'"),
        (None, 1, "exam 'a': unknown source None"),
        (Source.PIRADS, 0, "exam 'a': pirads value 0 outside [1, 5]"),
        (Source.ISUP, -1, "exam 'a': isup value -1 outside [0, 5]"),
        # The writer would put these out as text its own reader rejects.
        (Source.PIRADS, 4.5, "exam 'a': pirads value 4.5 is not an integer"),
        (Source.ISUP, 2.0, "exam 'a': isup value 2.0 is not an integer"),
        (Source.PIRADS, True, "exam 'a': pirads value True is not an integer"),
        (Source.ISUP, np.True_, f"exam 'a': isup value {np.True_!r} is not an integer"),
        (Source.PIRADS, "4", "exam 'a': pirads value '4' is not an integer"),
    ],
)
def test_raw_annotation_rejects_what_binarize_rejects(source, value, message):
    with pytest.raises(AnnotationError) as info:
        RawAnnotation("a", source, value)
    assert str(info.value) == message


def test_annotation_vector_rejects_misaligned_sources():
    with pytest.raises(AnnotationError):
        AnnotationVector("e", (1, 0), (Source.PIRADS,))
    with pytest.raises(AnnotationError):
        AnnotationVector("e", (1, 2), (Source.PIRADS, Source.PIRADS))


# ---------------------------------------------------------------------------
# Confidence
# ---------------------------------------------------------------------------


def test_confidence_exhaustive_matches_counting_oracle():
    # Every binary vote vector with 1 <= n <= 7, zero error.
    for votes in _all_vote_vectors(7):
        got = confidence(list(votes))
        want = _confidence_by_counting(list(votes), DEFAULT_EPSILON)
        assert got == want, votes


def test_confidence_single_vote_is_epsilon():
    assert confidence([1]) == DEFAULT_EPSILON
    assert confidence([0]) == DEFAULT_EPSILON
    assert confidence([1], epsilon=1.0) == 1.0


def test_confidence_minimum_odd_seven_votes_is_exactly_one_seventh():
    got = confidence([1, 1, 1, 1, 0, 0, 0])
    assert got == float(Fraction(1, 7))
    assert got == 0.14285714285714285


def test_confidence_unanimous_is_one():
    for n in range(2, 8):
        assert confidence([1] * n) == 1.0
        assert confidence([0] * n) == 1.0


def test_confidence_strictly_increasing_in_majority_count():
    for n in range(2, 8):
        values = [
            confidence([1] * k + [0] * (n - k))
            for k in range((n + 2) // 2, n + 1)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_confidence_permutation_invariant():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        votes = [int(v) for v in rng.integers(0, 2, n)]
        shuffled = list(votes)
        rng.shuffle(shuffled)
        assert confidence(votes) == confidence(shuffled)


def test_confidence_rejects_empty_and_bad_epsilon():
    with pytest.raises(AnnotationError):
        confidence([])
    with pytest.raises(AnnotationError):
        confidence([1], epsilon=0.0)
    with pytest.raises(AnnotationError):
        confidence([1], epsilon=1.5)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def _vector(exam_id, votes):
    return AnnotationVector(
        exam_id, tuple(votes), tuple(Source.PIRADS for _ in votes)
    )


def test_summarize_majority_label_and_confidence():
    s = summarize(_vector("e1", [1, 1, 0]))
    assert s.is_labeled
    assert s.label == 1
    assert s.confidence == float(Fraction(1, 3))


def test_summarize_tie_and_empty_are_unlabeled():
    assert not summarize(_vector("e1", [1, 0])).is_labeled
    assert not summarize(_vector("e2", [1, 1, 0, 0])).is_labeled
    assert not summarize(_vector("e3", [])).is_labeled


def test_summarize_single_vote_uses_epsilon():
    s = summarize(_vector("e1", [0]))
    assert (s.label, s.confidence) == (0, DEFAULT_EPSILON)
    s = summarize(_vector("e1", [0]), 1.0)
    assert (s.label, s.confidence) == (0, 1.0)


@pytest.mark.parametrize(
    "votes, sources, epsilon, trusted",
    [
        ((), (), 7.0, None),
        ((1, 0), (Source.PIRADS, Source.PIRADS), -1.0, None),
        ((1,), (Source.ISUP,), 7.0, Source.ISUP),
    ],
    ids=["empty", "tie", "trusted-lone-vote"],
)
def test_summarize_checks_epsilon_where_no_vote_uses_it(votes, sources, epsilon, trusted):
    with pytest.raises(AnnotationError, match=rf"^epsilon {epsilon} outside \(0, 1\]$"):
        summarize(AnnotationVector("e", votes, sources), epsilon, trusted)


def test_summarize_batch_maps_each_vector():
    out = summarize_batch([_vector("a", [1]), _vector("b", [1, 0])])
    assert [s.exam_id for s in out] == ["a", "b"]
    assert [s.is_labeled for s in out] == [True, False]


def test_labeled_summary_rejects_out_of_range_confidence():
    with pytest.raises(AnnotationError):
        MetadataSummary.labeled("e", 1, 0.0)
    with pytest.raises(AnnotationError):
        MetadataSummary.labeled("e", 1, 1.2)


# ---------------------------------------------------------------------------
# Pair weights
# ---------------------------------------------------------------------------


def test_pair_weight_same_exam_is_one_for_every_variant():
    s = MetadataSummary.labeled("e", 1, 0.5)
    u = MetadataSummary.unlabeled("u")
    for variant in KernelVariant:
        assert pair_weight(s, s, same_exam=True, variant=variant) == 1.0
        assert pair_weight(u, u, same_exam=True, variant=variant) == 1.0


def test_pair_weight_proposed_takes_min_confidence():
    # Unanimous [1,1,1] against [1,1,0]: min(1, 1/3) = 1/3.
    s_i = summarize(_vector("i", [1, 1, 1]))
    s_j = summarize(_vector("j", [1, 1, 0]))
    w = pair_weight(s_i, s_j, same_exam=False)
    assert w == float(Fraction(1, 3))


def test_pair_weight_different_labels_is_zero():
    s_i = MetadataSummary.labeled("i", 0, 1.0)
    s_j = MetadataSummary.labeled("j", 1, 1.0)
    for variant in KernelVariant:
        assert pair_weight(s_i, s_j, same_exam=False, variant=variant) == 0.0


def test_pair_weight_majority_voting_is_flat():
    s_i = MetadataSummary.labeled("i", 1, 0.2)
    s_j = MetadataSummary.labeled("j", 1, 0.9)
    w = pair_weight(s_i, s_j, same_exam=False, variant=KernelVariant.MAJORITY_VOTING)
    assert w == COARSE_WEIGHT


def test_pair_weight_high_confidence_needs_both_unanimous():
    sure = MetadataSummary.labeled("a", 1, 1.0)
    shaky = MetadataSummary.labeled("b", 1, float(Fraction(5, 7)))
    hc = KernelVariant.HIGH_CONFIDENCE
    assert pair_weight(sure, sure, same_exam=False, variant=hc) == COARSE_WEIGHT
    assert pair_weight(sure, shaky, same_exam=False, variant=hc) == 0.0
    assert pair_weight(shaky, shaky, same_exam=False, variant=hc) == 0.0


def test_pair_weight_symmetric_off_diagonal():
    rng = np.random.default_rng(11)
    for _ in range(100):
        s_i = summarize(_vector("i", [int(v) for v in rng.integers(0, 2, int(rng.integers(1, 8)))]))
        s_j = summarize(_vector("j", [int(v) for v in rng.integers(0, 2, int(rng.integers(1, 8)))]))
        if not (s_i.is_labeled and s_j.is_labeled):
            continue
        for variant in KernelVariant:
            assert pair_weight(s_i, s_j, False, variant) == pair_weight(s_j, s_i, False, variant)


def test_pair_weight_rejects_unlabeled_across_exams():
    s = MetadataSummary.labeled("s", 1, 1.0)
    u = MetadataSummary.unlabeled("u")
    with pytest.raises(AnnotationError, match="'u'"):
        pair_weight(s, u, same_exam=False)


# ---------------------------------------------------------------------------
# Kernel matrices
# ---------------------------------------------------------------------------


def _random_labeled_summaries(rng, n):
    out = []
    while len(out) < n:
        votes = [int(v) for v in rng.integers(0, 2, int(rng.integers(1, 8)))]
        s = summarize(_vector(f"e{len(out)}", votes))
        if s.is_labeled:
            out.append(s)
    return out


def test_kernel_matrix_single_exam():
    s = MetadataSummary.labeled("e", 1, 0.3)
    k = kernel_matrix([s])
    assert k.weights.shape == (1, 1)
    assert k.weights[0, 0] == 1.0


def test_kernel_matrix_min_rule_and_label_mismatch():
    a = MetadataSummary.labeled("a", 1, 1.0)
    b = MetadataSummary.labeled("b", 1, float(Fraction(1, 7)))
    c = MetadataSummary.labeled("c", 0, 1.0)
    k = kernel_matrix([a, b, c]).weights
    assert k[0, 1] == float(Fraction(1, 7))
    assert k[0, 2] == 0.0
    assert k[1, 2] == 0.0
    assert np.all(np.diag(k) == 1.0)


def test_kernel_matrix_matches_pair_weight_loop():
    # The matrix builder is vectorized; pair_weight is the reference.
    rng = np.random.default_rng(23)
    for variant in KernelVariant:
        for _ in range(40):
            summaries = _random_labeled_summaries(rng, int(rng.integers(1, 10)))
            got = kernel_matrix(summaries, variant).weights
            n = len(summaries)
            want = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    want[i, j] = pair_weight(
                        summaries[i], summaries[j], same_exam=(i == j), variant=variant
                    )
            assert np.array_equal(got, want), variant


def test_kernel_matrix_properties_hold_on_random_batches():
    rng = np.random.default_rng(29)
    for variant in KernelVariant:
        for _ in range(20):
            summaries = _random_labeled_summaries(rng, int(rng.integers(2, 12)))
            k = kernel_matrix(summaries, variant).weights
            assert np.array_equal(k, k.T)
            assert np.all(np.diag(k) == 1.0)
            assert k.min() >= 0.0 and k.max() <= 1.0


def test_kernel_matrix_empty_batch():
    k = kernel_matrix([])
    assert k.weights.shape == (0, 0)
    assert k.n == 0


def test_kernel_matrix_rejects_unlabeled():
    with pytest.raises(AnnotationError, match="'u'"):
        kernel_matrix([MetadataSummary.labeled("a", 1, 1.0), MetadataSummary.unlabeled("u")])


def _full_kernel(summaries, variant):
    """The N x N formula kernel_matrix used before the class table: every
    pair's rule at once, then a unit diagonal."""
    labels = np.array([s.label for s in summaries])
    conf = np.array([s.confidence for s in summaries], dtype=np.float64)
    equal = labels[:, None] == labels[None, :]
    if variant is KernelVariant.PROPOSED:
        w = np.where(equal, np.minimum(conf[:, None], conf[None, :]), 0.0)
    elif variant is KernelVariant.HIGH_CONFIDENCE:
        sure = conf == 1.0
        w = np.where(equal & sure[:, None] & sure[None, :], COARSE_WEIGHT, 0.0)
    else:
        w = np.where(equal, COARSE_WEIGHT, 0.0)
    np.fill_diagonal(w, 1.0)
    return w


@pytest.mark.parametrize("variant", list(KernelVariant))
def test_kernel_classes_gather_is_the_full_kernel_bit_for_bit(variant):
    rng = np.random.default_rng(31)
    # Confidences one ulp apart are classes of their own, for either label.
    confs = [0.1, float(np.nextafter(0.1, 1.0))] * 2
    close = [MetadataSummary.labeled(f"c{i}", i // 2, c) for i, c in enumerate(confs)]
    batches = [[], close, *(_random_labeled_summaries(rng, int(rng.integers(1, 60))) for _ in range(30))]
    for summaries in batches:
        classes, table = kernel_classes(summaries, variant)
        pairs = {(s.label, s.confidence) for s in summaries}
        assert classes.shape == (len(summaries),) and table.shape == (len(pairs), len(pairs))
        # Each class holds exactly the exams of one (label, confidence) pair.
        for k in range(len(pairs)):
            assert len({(summaries[i].label, summaries[i].confidence) for i in np.flatnonzero(classes == k)}) == 1
        want = _full_kernel(summaries, variant)
        got = kernel_matrix(summaries, variant).weights
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_kernel_classes_rejects_unlabeled_and_unknown_variants():
    with pytest.raises(AnnotationError, match="'u'"):
        kernel_classes([MetadataSummary.unlabeled("u")])
    with pytest.raises(ValueError, match="unknown kernel variant"):
        kernel_classes([MetadataSummary.labeled("a", 1, 1.0)], "proposed")
