"""Loss values, reductions, and analytic gradients.

Oracles here are deliberately dumb: double loops over pairs with
math.sqrt/exp/log, no vectorization, one term at a time.  The analytic
gradients are checked against central finite differences.
"""

import math

import numpy as np
import pytest

from confcl.losses import (
    ALIGN_LABELED,
    ALIGN_UNLABELED,
    EPS_DIST,
    UNIF_LABELED,
    UNIF_UNLABELED,
    BatchPartition,
    DegenerateUniformityError,
    ViewPairBatch,
    central_difference,
    evaluate_loss,
    finite_diff_gradient,
    loss_conditional,
    loss_decoupled,
    loss_gradient,
    loss_nce,
    max_relative_error,
    pairwise_distances,
    partition_batch,
)
from confcl.losses import _decoupled_coefficients, _gradient_from_coefficients
from confcl.metadata import KernelMatrix, KernelVariant, MetadataSummary


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _distances_loop(x1, x2):
    n, dim = x1.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(dim):
                acc += (x1[i, k] - x2[j, k]) ** 2
            out[i, j] = math.sqrt(acc + EPS_DIST**2)
    return out


def _nce_oracle(x1, x2):
    d = _distances_loop(x1, x2)
    n = len(d)
    align = sum(d[i, i] for i in range(n)) / n
    unif = math.log(sum(math.exp(-d[i, j]) for i in range(n) for j in range(n)) / n**2)
    return align, unif


def _conditional_oracle(x1, x2, w):
    d = _distances_loop(x1, x2)
    n = len(d)
    align = sum(w[i, j] * d[i, j] for i in range(n) for j in range(n)) / n
    s = sum((1.0 - w[i, j]) * math.exp(-d[i, j]) for i in range(n) for j in range(n))
    unif = math.log(s / n**2)
    return align, unif


def _decoupled_oracle(x1, x2, labeled, unlabeled, w, glu):
    """Term-by-term evaluation straight off the formula; None marks a skip."""
    d = _distances_loop(x1, x2)
    terms = {}
    if labeled:
        na = len(labeled)
        align = 0.0
        s = 0.0
        for a, i in enumerate(labeled):
            for b, j in enumerate(labeled):
                align += w[a, b] * d[i, j]
                weight = (0.0 if a == b else 1.0) if glu else (1.0 - w[a, b])
                s += weight * math.exp(-d[i, j])
        terms[ALIGN_LABELED] = align / na
        terms[UNIF_LABELED] = math.log(s / na**2) if s != 0.0 else None
    if unlabeled:
        nu = len(unlabeled)
        terms[ALIGN_UNLABELED] = sum(d[i, i] for i in unlabeled) / nu
        if nu >= 2:
            s = sum(
                math.exp(-d[i, j]) for i in unlabeled for j in unlabeled if i != j
            )
            terms[UNIF_UNLABELED] = math.log(s / nu**2) if s != 0.0 else None
        else:
            terms[UNIF_UNLABELED] = None
    return terms


def _random_batch(rng, n=None, dim=None):
    n = n or int(rng.integers(1, 9))
    dim = dim or int(rng.integers(1, 6))
    return ViewPairBatch(rng.normal(0, 1, (n, dim)), rng.normal(0, 1, (n, dim)))


def _random_kernel(rng, n):
    """Symmetric unit-diagonal weights in [0, 1] with occasional exact 0/1."""
    w = rng.uniform(0, 1, (n, n))
    w = (w + w.T) / 2
    w[rng.uniform(0, 1, (n, n)) < 0.2] = 0.0
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 1.0)
    return KernelMatrix(w)


def _random_partition_kernel(rng, n):
    labeled = tuple(int(i) for i in np.flatnonzero(rng.uniform(0, 1, n) < 0.6))
    unlabeled = tuple(i for i in range(n) if i not in labeled)
    kernel = _random_kernel(rng, len(labeled)) if labeled else None
    return BatchPartition(labeled, unlabeled), kernel


# ---------------------------------------------------------------------------
# Batch and distance basics
# ---------------------------------------------------------------------------


def test_view_pair_batch_validation():
    with pytest.raises(ValueError):
        ViewPairBatch(np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ViewPairBatch(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        ViewPairBatch(np.array([[np.inf]]), np.array([[0.0]]))


def test_distances_zero_row_hits_the_smoothing_floor():
    batch = ViewPairBatch(np.zeros((1, 2)), np.zeros((1, 2)))
    d = pairwise_distances(batch)
    assert d[0, 0] == EPS_DIST


def test_distances_three_four_five():
    batch = ViewPairBatch(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert abs(pairwise_distances(batch)[0, 0] - 5.0) < 1e-12


def test_distances_match_double_loop():
    rng = np.random.default_rng(1)
    for _ in range(20):
        batch = _random_batch(rng)
        got = pairwise_distances(batch)
        want = _distances_loop(batch.x1, batch.x2)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert got.min() >= EPS_DIST


# ---------------------------------------------------------------------------
# Unconditional loss
# ---------------------------------------------------------------------------


def test_nce_degenerate_single_zero_row_is_near_zero():
    batch = ViewPairBatch(np.zeros((1, 3)), np.zeros((1, 3)))
    assert abs(loss_nce(batch).total) < 1e-6


def test_nce_two_point_hand_value():
    # x views chosen so d = [[~0, 1], [1, ~0]].
    x = np.array([[0.0], [1.0]])
    breakdown = loss_nce(ViewPairBatch(x, x))
    assert breakdown.align_unlabeled == pytest.approx(0.0, abs=1e-7)
    want_unif = math.log((2.0 + 2.0 * math.exp(-1.0)) / 4.0)
    assert breakdown.unif_unlabeled == pytest.approx(want_unif, rel=1e-7)
    assert breakdown.total == pytest.approx(want_unif, rel=1e-6)


def test_nce_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        batch = _random_batch(rng)
        breakdown = loss_nce(batch)
        align, unif = _nce_oracle(batch.x1, batch.x2)
        assert abs(breakdown.align_unlabeled - align) < 1e-10
        assert abs(breakdown.unif_unlabeled - unif) < 1e-10
        assert breakdown.total == breakdown.align_unlabeled + breakdown.unif_unlabeled


def test_breakdown_total_is_sum_of_present_terms():
    order = (ALIGN_LABELED, UNIF_LABELED, ALIGN_UNLABELED, UNIF_UNLABELED)
    rng = np.random.default_rng(3)
    for _ in range(20):
        batch = _random_batch(rng, n=int(rng.integers(2, 9)))
        partition, kernel = _random_partition_kernel(rng, batch.n)
        b = loss_decoupled(batch, partition, kernel)
        assert b.total == sum(b.term(name) for name in order if name in b.present)
        assert not (b.present & b.skipped)


# ---------------------------------------------------------------------------
# Conditional loss
# ---------------------------------------------------------------------------


def test_conditional_identity_kernel_reduces_to_self_pairs():
    rng = np.random.default_rng(4)
    batch = _random_batch(rng, n=5, dim=3)
    breakdown = loss_conditional(batch, KernelMatrix(np.eye(5)))
    d = pairwise_distances(batch)
    assert breakdown.align_labeled == pytest.approx(float(np.trace(d)) / 5, rel=1e-12)
    off = ~np.eye(5, dtype=bool)
    want_unif = math.log(float(np.exp(-d[off]).sum()) / 25)
    assert breakdown.unif_labeled == pytest.approx(want_unif, rel=1e-12)


def test_conditional_two_point_hand_value():
    x = np.array([[0.0], [1.0]])
    w = KernelMatrix(np.array([[1.0, 1 / 3], [1 / 3, 1.0]]))
    breakdown = loss_conditional(ViewPairBatch(x, x), w)
    # align = (1/2)(0 + d12/3 + d21/3 + 0) = 1/3, unif = log(e^-1 / 3).
    assert breakdown.align_labeled == pytest.approx(1 / 3, rel=1e-7)
    assert breakdown.unif_labeled == pytest.approx(math.log(math.exp(-1.0) / 3.0), rel=1e-7)


def test_conditional_matches_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        batch = _random_batch(rng, n=int(rng.integers(2, 9)))
        kernel = _random_kernel(rng, batch.n)
        breakdown = loss_conditional(batch, kernel)
        align, unif = _conditional_oracle(batch.x1, batch.x2, kernel.weights)
        assert abs(breakdown.align_labeled - align) < 1e-10
        assert abs(breakdown.unif_labeled - unif) < 1e-10


def test_conditional_all_ones_kernel_is_degenerate():
    batch = ViewPairBatch(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(DegenerateUniformityError):
        loss_conditional(batch, KernelMatrix(np.ones((2, 2))))


def test_conditional_rejects_malformed_kernels():
    batch = ViewPairBatch(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        loss_conditional(batch, KernelMatrix(np.eye(3)))
    with pytest.raises(ValueError, match="diagonal"):
        loss_conditional(batch, KernelMatrix(np.array([[1.0, 0.0], [0.0, 0.5]])))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        loss_conditional(batch, KernelMatrix(np.array([[1.0, 1.5], [1.5, 1.0]])))


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def test_partition_routes_unlabeled_rows():
    summaries = [
        MetadataSummary.labeled("a", 1, 1.0),
        MetadataSummary.labeled("b", 0, 0.1),
        MetadataSummary.unlabeled("c"),
    ]
    p = partition_batch(summaries)
    assert p.labeled == (0, 1)
    assert p.unlabeled == (2,)
    assert [s.exam_id for s in p.labeled_summaries] == ["a", "b"]


def test_partition_high_confidence_demotes_uncertain_exams():
    summaries = [
        MetadataSummary.labeled("a", 1, 1.0),
        MetadataSummary.labeled("b", 0, 0.1),
    ]
    p = partition_batch(summaries, KernelVariant.HIGH_CONFIDENCE)
    assert p.labeled == (0,)
    assert p.unlabeled == (1,)


def test_partition_all_unlabeled():
    p = partition_batch([MetadataSummary.unlabeled("a"), MetadataSummary.unlabeled("b")])
    assert p.labeled == ()
    assert p.unlabeled == (0, 1)


def test_partition_must_cover_the_batch():
    batch = ViewPairBatch(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        loss_decoupled(batch, BatchPartition((0,), (1,)))
    with pytest.raises(ValueError):
        BatchPartition((0, 1), (1, 2))


# ---------------------------------------------------------------------------
# Decoupled loss
# ---------------------------------------------------------------------------


def test_decoupled_matches_term_oracle():
    rng = np.random.default_rng(6)
    for glu in (False, True):
        for _ in range(30):
            batch = _random_batch(rng, n=int(rng.integers(2, 9)))
            partition, kernel = _random_partition_kernel(rng, batch.n)
            got = loss_decoupled(batch, partition, kernel, glu)
            w = kernel.weights if kernel is not None else None
            want = _decoupled_oracle(
                batch.x1, batch.x2, partition.labeled, partition.unlabeled, w, glu
            )
            for name, value in want.items():
                if value is None:
                    assert name in got.skipped
                else:
                    assert name in got.present
                    assert abs(got.term(name) - value) < 1e-10, name


def test_decoupled_empty_labeled_group_keeps_unlabeled_terms_only():
    rng = np.random.default_rng(7)
    batch = _random_batch(rng, n=4, dim=3)
    partition = BatchPartition((), (0, 1, 2, 3))
    b = loss_decoupled(batch, partition, None)
    assert b.present == {ALIGN_UNLABELED, UNIF_UNLABELED}
    assert b.n_labeled == 0 and b.n_unlabeled == 4


def test_decoupled_single_unlabeled_row_skips_its_uniformity():
    rng = np.random.default_rng(8)
    batch = _random_batch(rng, n=3, dim=2)
    partition = BatchPartition((0, 1), (2,))
    b = loss_decoupled(batch, partition, KernelMatrix(np.eye(2)))
    assert UNIF_UNLABELED in b.skipped
    assert ALIGN_UNLABELED in b.present


def test_decoupled_saturated_kernel_skips_labeled_uniformity():
    # Every labeled pair weight 1: nothing repels, flagged not raised.
    rng = np.random.default_rng(9)
    batch = _random_batch(rng, n=4, dim=2)
    partition = BatchPartition((0, 1), (2, 3))
    b = loss_decoupled(batch, partition, KernelMatrix(np.ones((2, 2))))
    assert UNIF_LABELED in b.skipped
    assert {ALIGN_LABELED, ALIGN_UNLABELED, UNIF_UNLABELED} <= b.present


def test_decoupled_kernel_partition_mismatch_errors():
    batch = ViewPairBatch(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError, match="no kernel"):
        loss_decoupled(batch, BatchPartition((0, 1), ()), None)
    with pytest.raises(ValueError, match="empty"):
        loss_decoupled(batch, BatchPartition((), (0, 1)), KernelMatrix(np.eye(2)))


def test_decoupled_global_uniformity_flattens_repulsion_weights():
    rng = np.random.default_rng(10)
    batch = _random_batch(rng, n=4, dim=3)
    partition = BatchPartition((0, 1, 2), (3,))
    w = np.array([[1.0, 0.9, 0.2], [0.9, 1.0, 0.4], [0.2, 0.4, 1.0]])
    plain = loss_decoupled(batch, partition, KernelMatrix(w), global_uniformity=False)
    glu = loss_decoupled(batch, partition, KernelMatrix(w), global_uniformity=True)
    assert plain.align_labeled == glu.align_labeled
    assert plain.align_unlabeled == glu.align_unlabeled
    assert plain.unif_labeled != glu.unif_labeled
    # With the flag, each off-diagonal pair repels at weight exactly 1.
    d = pairwise_distances(batch)[np.ix_((0, 1, 2), (0, 1, 2))]
    e = np.exp(-d)
    want = math.log(float(e.sum() - np.trace(e)) / 9)
    assert glu.unif_labeled == pytest.approx(want, rel=1e-12)


def test_decoupled_single_zero_row_total_near_zero():
    batch = ViewPairBatch(np.zeros((1, 3)), np.zeros((1, 3)))
    all_u = loss_decoupled(batch, BatchPartition((), (0,)), None)
    assert abs(all_u.total) < 1e-6
    all_a = loss_decoupled(batch, BatchPartition((0,), ()), KernelMatrix(np.eye(1)))
    assert abs(all_a.total) < 1e-6
    assert UNIF_LABELED in all_a.skipped


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def test_zero_alignment_weight_ignores_an_overflowed_distance():
    # Row 2 sits so far out that its distances to rows 0 and 1 overflow
    # to inf; those pairs carry zero alignment weight and must add 0.
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1e200, 0.0]])
    batch = ViewPairBatch(x, x.copy())
    with np.errstate(over="ignore"):
        d = pairwise_distances(batch)
        assert np.isinf(d[2, 0]) and np.isinf(d[0, 2])
        nce = loss_nce(batch)
        unlabeled = loss_decoupled(batch, BatchPartition((), (0, 1, 2)))
    assert nce.term(ALIGN_UNLABELED) == np.trace(d) / 3
    assert unlabeled.term(ALIGN_UNLABELED) == np.trace(d) / 3
    assert np.isfinite(nce.total) and np.isfinite(unlabeled.total)


def test_reduction_all_unlabeled_equals_global_loss_with_self_pairs_removed():
    rng = np.random.default_rng(11)
    for _ in range(20):
        batch = _random_batch(rng, n=int(rng.integers(2, 9)))
        got = loss_decoupled(batch, BatchPartition((), tuple(range(batch.n))), None)
        d = _distances_loop(batch.x1, batch.x2)
        n = batch.n
        align = sum(d[i, i] for i in range(n)) / n
        unif = math.log(
            sum(math.exp(-d[i, j]) for i in range(n) for j in range(n) if i != j) / n**2
        )
        assert abs(got.align_unlabeled - align) < 1e-10
        assert abs(got.unif_unlabeled - unif) < 1e-10


def test_reduction_all_labeled_equals_conditional_exactly():
    rng = np.random.default_rng(12)
    for _ in range(20):
        batch = _random_batch(rng, n=int(rng.integers(2, 9)))
        kernel = _random_kernel(rng, batch.n)
        decoupled = loss_decoupled(
            batch, BatchPartition(tuple(range(batch.n)), ()), kernel
        )
        conditional = loss_conditional(batch, kernel)
        assert decoupled.align_labeled == conditional.align_labeled
        assert decoupled.unif_labeled == conditional.unif_labeled
        assert decoupled.total == conditional.total


# ---------------------------------------------------------------------------
# Invariances
# ---------------------------------------------------------------------------


def _all_losses(batch, partition, kernel):
    out = [loss_nce(batch).total]
    if kernel is not None and kernel.n == batch.n:
        out.append(loss_conditional(batch, kernel).total)
    out.append(loss_decoupled(batch, partition, kernel).total)
    return out


def test_translation_invariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        batch = _random_batch(rng, n=int(rng.integers(2, 9)))
        partition, kernel = _random_partition_kernel(rng, batch.n)
        shift = rng.normal(0, 10, batch.dim)
        shifted = ViewPairBatch(batch.x1 + shift, batch.x2 + shift)
        before = _all_losses(batch, partition, kernel)
        after = _all_losses(shifted, partition, kernel)
        assert np.allclose(before, after, rtol=0, atol=1e-10)


def test_permutation_equivariance():
    rng = np.random.default_rng(14)
    for _ in range(20):
        batch = _random_batch(rng, n=int(rng.integers(2, 9)))
        partition, kernel = _random_partition_kernel(rng, batch.n)
        perm = rng.permutation(batch.n)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(batch.n)
        permuted = ViewPairBatch(batch.x1[perm], batch.x2[perm])
        p_labeled = tuple(int(inv[i]) for i in partition.labeled)
        p_unlabeled = tuple(int(inv[i]) for i in partition.unlabeled)
        p_partition = BatchPartition(p_labeled, p_unlabeled)
        before = loss_decoupled(batch, partition, kernel)
        after = loss_decoupled(permuted, p_partition, kernel)
        assert abs(before.total - after.total) < 1e-10
        g = loss_gradient("decoupled", batch, partition, kernel)
        pg = loss_gradient("decoupled", permuted, p_partition, kernel)
        assert np.allclose(g.g1[perm], pg.g1, rtol=0, atol=1e-10)
        assert np.allclose(g.g2[perm], pg.g2, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_gradient_matches_finite_differences_nce():
    rng = np.random.default_rng(15)
    for _ in range(5):
        batch = _random_batch(rng)
        analytic = loss_gradient("nce", batch)
        numeric = finite_diff_gradient("nce", batch)
        assert max_relative_error(analytic, numeric) <= 1e-4


def test_gradient_matches_finite_differences_conditional():
    rng = np.random.default_rng(16)
    for _ in range(5):
        batch = _random_batch(rng, n=int(rng.integers(2, 9)))
        kernel = _random_kernel(rng, batch.n)
        analytic = loss_gradient("conditional", batch, kernel=kernel)
        numeric = finite_diff_gradient("conditional", batch, kernel=kernel)
        assert max_relative_error(analytic, numeric) <= 1e-4


@pytest.mark.parametrize("glu", [False, True])
def test_gradient_matches_finite_differences_decoupled(glu):
    rng = np.random.default_rng(17 + glu)
    for _ in range(5):
        batch = _random_batch(rng, n=int(rng.integers(2, 9)))
        partition, kernel = _random_partition_kernel(rng, batch.n)
        analytic = loss_gradient("decoupled", batch, partition, kernel, glu)
        numeric = finite_diff_gradient("decoupled", batch, partition, kernel, glu)
        assert max_relative_error(analytic, numeric) <= 1e-4


def test_gradient_single_aligned_pair_is_bounded_and_finite():
    batch = ViewPairBatch(np.zeros((1, 3)), np.zeros((1, 3)))
    g = loss_gradient("nce", batch)
    assert np.isfinite(g.g1).all() and np.isfinite(g.g2).all()
    assert np.abs(g.g1).max() <= 1.0 and np.abs(g.g2).max() <= 1.0


def test_central_difference_recovers_quadratic_derivative():
    x1 = np.array([[1.0, -2.0]])
    x2 = np.array([[0.5, 3.0]])

    def f(a, b):
        return float((a**2).sum() + 3.0 * b.sum())

    g = central_difference(f, x1, x2, h=1e-5)
    assert np.allclose(g.g1, 2.0 * x1, rtol=0, atol=1e-8)
    assert np.allclose(g.g2, np.full_like(x2, 3.0), rtol=0, atol=1e-8)


def test_max_relative_error_floor_ignores_noise_on_true_zeros():
    from confcl.losses import GradientBatch

    a = GradientBatch(np.array([[0.0]]), np.array([[1.0]]))
    b = GradientBatch(np.array([[5e-8]]), np.array([[1.0]]))
    assert max_relative_error(a, b) == 0.0
    c = GradientBatch(np.array([[0.0]]), np.array([[2.0]]))
    assert max_relative_error(a, c) == 0.5


def test_evaluate_loss_dispatch_and_errors():
    batch = ViewPairBatch(np.zeros((2, 2)), np.ones((2, 2)))
    assert evaluate_loss("nce", batch).total == loss_nce(batch).total
    with pytest.raises(ValueError, match="kernel"):
        evaluate_loss("conditional", batch)
    with pytest.raises(ValueError, match="partition"):
        evaluate_loss("decoupled", batch)
    with pytest.raises(ValueError, match="unknown loss kind"):
        evaluate_loss("nt-xent", batch)


# ---------------------------------------------------------------------------
# Decoupling of saturated pairs
# ---------------------------------------------------------------------------


def test_saturated_pairs_have_zero_uniformity_coefficient():
    # Labels (0, 0, 1) with the first two at confidence 1: their mutual
    # weight is 1, so the repulsion term must ignore them entirely.
    rng = np.random.default_rng(19)
    batch = _random_batch(rng, n=4, dim=3)
    partition = BatchPartition((0, 1, 2), (3,))
    w = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    d = pairwise_distances(batch)
    per_term = _decoupled_coefficients(d, partition, KernelMatrix(w), False)
    c = per_term[UNIF_LABELED]
    for i, j in ((0, 1), (1, 0), (0, 0), (1, 1), (2, 2)):
        assert c[i, j] == 0.0
    assert c[0, 2] != 0.0 and c[2, 1] != 0.0


def test_saturated_pair_term_value_is_flat_under_perturbation():
    # Both labeled rows fully agree: the labeled uniformity term is
    # identically zero however either embedding moves.
    rng = np.random.default_rng(20)
    batch = _random_batch(rng, n=4, dim=3)
    partition = BatchPartition((0, 1), (2, 3))
    kernel = KernelMatrix(np.ones((2, 2)))

    def term(a, b):
        return loss_decoupled(
            ViewPairBatch(a, b), partition, kernel
        ).unif_labeled

    g = central_difference(term, batch.x1, batch.x2, h=1e-5)
    assert np.all(g.g1 == 0.0) and np.all(g.g2 == 0.0)


def test_labeled_uniformity_term_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    batch = _random_batch(rng, n=4, dim=3)
    partition = BatchPartition((0, 1, 2), (3,))
    w = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.1], [0.3, 0.1, 1.0]])
    kernel = KernelMatrix(w)
    d = pairwise_distances(batch)
    c = _decoupled_coefficients(d, partition, kernel, False)[UNIF_LABELED]
    analytic = _gradient_from_coefficients(batch, d, c)

    def term(a, b):
        return loss_decoupled(ViewPairBatch(a, b), partition, kernel).unif_labeled

    numeric = central_difference(term, batch.x1, batch.x2, h=1e-5)
    assert max_relative_error(analytic, numeric) <= 1e-4


# ---------------------------------------------------------------------------
# One optimization step
# ---------------------------------------------------------------------------


def test_gradient_step_attracts_views_and_repels_different_labels():
    rng = np.random.default_rng(22)
    x1 = rng.normal(0, 1, (2, 3))
    x2 = rng.normal(0, 1, (2, 3))
    kernel = KernelMatrix(np.eye(2))  # two exams with different labels
    batch = ViewPairBatch(x1, x2)
    g = loss_gradient("conditional", batch, kernel=kernel)
    lr = 1e-3
    stepped = ViewPairBatch(x1 - lr * g.g1, x2 - lr * g.g2)
    d0 = pairwise_distances(batch)
    d1 = pairwise_distances(stepped)
    assert d1[0, 0] + d1[1, 1] < d0[0, 0] + d0[1, 1]
    assert d1[0, 1] + d1[1, 0] > d0[0, 1] + d0[1, 0]
