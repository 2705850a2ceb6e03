"""Alignment/uniformity contrastive losses over paired embedding views.

Every loss variant is a list of row groups.  A group of m batch rows with
alignment weights a and repulsion weights r contributes two terms,

    align = (1/m)   sum_{i,j} a_ij d_ij
    unif  = log((1/m^2) sum_{i,j} r_ij exp(-d_ij)),

all read off one smoothed Euclidean distance matrix
d_ij = sqrt(|x1_i - x2_j|^2 + eps^2), which keeps every loss
differentiable when two rows coincide.  The variants differ only in
their groups:

- ``nce``: one group over all rows with a = I and r = 1 (the diagonal
  included).
- ``conditional``: one group over all rows with a = w and r = 1 - w for
  the kernel w.  The unit kernel diagonal keeps same-exam pairs out of
  the repulsion.  Here and for ``nce`` a zero repulsion sum raises
  DegenerateUniformityError.
- ``decoupled``: the labeled rows A get a = w and r = 1 - w (r = 1 - I
  with global uniformity), the unlabeled rows U get a = I and r = 1 - I,
  and no cross A-U pair appears.  A zero repulsion sum (every weight 1,
  or |U| = 1) is skipped and recorded instead of fed to log.

One evaluator turns the distance matrix and the groups into the
LossBreakdown and, when a gradient is wanted, into the per-pair
coefficients C_ij = d(total)/d(d_ij); ``loss_gradient`` returns both from
a single distance build.  The analytic gradients are checked against
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .metadata import KernelMatrix, KernelVariant, MetadataSummary

__all__ = [
    "EPS_DIST",
    "ALIGN_LABELED",
    "UNIF_LABELED",
    "ALIGN_UNLABELED",
    "UNIF_UNLABELED",
    "LOSS_KINDS",
    "DegenerateUniformityError",
    "ViewPairBatch",
    "BatchPartition",
    "LossBreakdown",
    "GradientBatch",
    "pairwise_distances",
    "loss_nce",
    "loss_conditional",
    "partition_batch",
    "loss_decoupled",
    "evaluate_loss",
    "loss_gradient",
    "finite_diff_gradient",
    "central_difference",
    "max_relative_error",
]

# Smoothing floor inside the pairwise norm; keeps gradients finite at d = 0.
EPS_DIST = 1e-8

# Rows of the distance matrix filled per step; bounds its (rows, N, D) temporary.
_DISTANCE_BLOCK = 32

ALIGN_LABELED = "align_labeled"
UNIF_LABELED = "unif_labeled"
ALIGN_UNLABELED = "align_unlabeled"
UNIF_UNLABELED = "unif_unlabeled"

LOSS_KINDS = ("nce", "conditional", "decoupled")


class DegenerateUniformityError(ValueError):
    """Raised when a required uniformity sum is identically zero."""


@dataclass(frozen=True)
class ViewPairBatch:
    """Two aligned (N, D) embedding views; row i of each view is exam i."""

    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self) -> None:
        x1 = np.asarray(self.x1, dtype=np.float64)
        x2 = np.asarray(self.x2, dtype=np.float64)
        if x1.ndim != 2 or x1.shape != x2.shape:
            raise ValueError(f"views must share an (N, D) shape, got {x1.shape} and {x2.shape}")
        if x1.shape[0] < 1 or x1.shape[1] < 1:
            raise ValueError(f"batch needs N >= 1 and D >= 1, got shape {x1.shape}")
        if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
            raise ValueError("embeddings must be finite")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    @property
    def n(self) -> int:
        return self.x1.shape[0]

    @property
    def dim(self) -> int:
        return self.x1.shape[1]


@dataclass(frozen=True)
class BatchPartition:
    """Disjoint labeled/unlabeled row indices covering a batch.

    ``labeled_summaries`` is aligned with ``labeled`` and carries the
    metadata needed to build the kernel over the labeled block.
    """

    labeled: tuple[int, ...]
    unlabeled: tuple[int, ...]
    labeled_summaries: tuple[MetadataSummary, ...] = ()

    def __post_init__(self) -> None:
        if self.labeled_summaries and len(self.labeled_summaries) != len(self.labeled):
            raise ValueError("one summary per labeled index required")
        overlap = set(self.labeled) & set(self.unlabeled)
        if overlap:
            raise ValueError(f"indices in both groups: {sorted(overlap)}")

    @property
    def n(self) -> int:
        return len(self.labeled) + len(self.unlabeled)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values of one loss evaluation.

    Terms the variant does not have stay 0 and are absent from
    ``present``; terms the variant wants but whose weighted sum is empty
    or identically zero are skipped (0 contribution) and listed in
    ``skipped`` instead of feeding a log(0).  ``total`` is the sum of the
    present terms.
    """

    align_labeled: float = 0.0
    unif_labeled: float = 0.0
    align_unlabeled: float = 0.0
    unif_unlabeled: float = 0.0
    present: frozenset[str] = frozenset()
    skipped: frozenset[str] = frozenset()
    n_labeled: int = 0
    n_unlabeled: int = 0
    total: float = 0.0

    def term(self, name: str) -> float:
        return float(getattr(self, name))

    def as_dict(self) -> dict:
        return dict(vars(self), present=sorted(self.present), skipped=sorted(self.skipped))


@dataclass(frozen=True)
class GradientBatch:
    """Gradients of a loss total with respect to both views.

    ``breakdown`` is the loss the gradient was taken of, when the producer
    evaluated it (``loss_gradient`` always does).
    """

    g1: np.ndarray
    g2: np.ndarray
    breakdown: LossBreakdown | None = None


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def pairwise_distances(batch: ViewPairBatch) -> np.ndarray:
    """Smoothed L2 distance matrix d[i, j] = |x1_i - x2_j| of shape (N, N).

    Filled _DISTANCE_BLOCK rows at a time, so the largest temporary is a
    (_DISTANCE_BLOCK, N, D) difference block rather than (N, N, D).
    """
    d = np.empty((batch.n, batch.n))
    for start in range(0, batch.n, _DISTANCE_BLOCK):
        rows = slice(start, start + _DISTANCE_BLOCK)
        diff = batch.x1[rows, None, :] - batch.x2[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=d[rows])
    d += EPS_DIST**2
    return np.sqrt(d, out=d)


# ---------------------------------------------------------------------------
# The group core
# ---------------------------------------------------------------------------


class _Group(NamedTuple):
    """Batch rows with their alignment and repulsion weights.

    The alignment sum is normalized by m = len(rows) and the repulsion sum
    by m^2.  ``skip_zero`` says whether a zero repulsion sum is skipped
    and recorded or raises DegenerateUniformityError.
    """

    rows: np.ndarray
    align: np.ndarray
    repel: np.ndarray
    terms: tuple[str, str]
    skip_zero: bool


def _kernel_weights(kernel: KernelMatrix | None, n: int, what: str) -> np.ndarray:
    if kernel is None:
        raise ValueError(f"{what}: no kernel given for {n} labeled rows")
    if kernel.n != n:
        raise ValueError(f"{what}: kernel shape {kernel.weights.shape} does not match n = {n}")
    return kernel.weights


def _groups(
    kind: str,
    n: int,
    partition: BatchPartition | None,
    kernel: KernelMatrix | None,
    global_uniformity: bool,
) -> list[_Group]:
    """The row groups of one loss variant over a batch of n rows."""
    if kind == "nce":
        names = (ALIGN_UNLABELED, UNIF_UNLABELED)
        return [_Group(np.arange(n), np.eye(n), np.ones((n, n)), names, False)]
    if kind == "conditional":
        w = _kernel_weights(kernel, n, "conditional loss")
        return [_Group(np.arange(n), w, 1.0 - w, (ALIGN_LABELED, UNIF_LABELED), False)]
    if kind != "decoupled":
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    if partition is None:
        raise ValueError("decoupled loss needs a partition")
    if partition.n != n or set(partition.labeled) | set(partition.unlabeled) != set(range(n)):
        raise ValueError("partition must cover every batch row exactly once")
    groups = []
    if partition.labeled:
        w = _kernel_weights(kernel, len(partition.labeled), "decoupled loss")
        # Global uniformity repels every distinct labeled pair at weight 1.
        repel = 1.0 - (np.eye(len(w)) if global_uniformity else w)
        rows = np.asarray(partition.labeled, dtype=np.intp)
        groups.append(_Group(rows, w, repel, (ALIGN_LABELED, UNIF_LABELED), True))
    elif kernel is not None and kernel.n != 0:
        raise ValueError("kernel given but the labeled group is empty")
    if partition.unlabeled:
        eye = np.eye(len(partition.unlabeled))
        rows = np.asarray(partition.unlabeled, dtype=np.intp)
        groups.append(_Group(rows, eye, 1.0 - eye, (ALIGN_UNLABELED, UNIF_UNLABELED), True))
    return groups


def _evaluate(
    d: np.ndarray, groups: list[_Group], coefficients: bool = False
) -> tuple[LossBreakdown, list[tuple[np.ndarray, str, np.ndarray]]]:
    """Breakdown of the groups' terms over d.

    With ``coefficients`` also returns one (rows, term, block) per present
    term, where block[a, b] = d(term)/d(d[rows[a], rows[b]]); value-only
    callers get an empty list and build no coefficient matrices.
    """
    terms: dict[str, float] = {}
    skipped: set[str] = set()
    sizes = {ALIGN_LABELED: 0, ALIGN_UNLABELED: 0}
    blocks = []
    for g in groups:
        align_name, unif_name = g.terms
        m = len(g.rows)
        sizes[align_name] = m
        d_g = d[np.ix_(g.rows, g.rows)]
        # A zero weight adds exactly 0, even where d overflowed to inf.
        aligned = np.multiply(g.align, d_g, out=np.zeros_like(d_g), where=g.align != 0)
        terms[align_name] = float(aligned.sum() / m)
        repel = g.repel * np.exp(-d_g)
        s = float(repel.sum())
        if s != 0.0:
            terms[unif_name] = float(np.log(s / m**2))
        elif g.skip_zero:
            skipped.add(unif_name)
        else:
            raise DegenerateUniformityError(
                f"degenerate uniformity: the {unif_name} repulsion sum is zero, nothing repels"
            )
        if coefficients:
            blocks.append((g.rows, align_name, g.align / m))
            if s != 0.0:
                blocks.append((g.rows, unif_name, -repel / s))
    # Term names double as LossBreakdown field names.
    breakdown = LossBreakdown(
        **terms,
        present=frozenset(terms),
        skipped=frozenset(skipped),
        n_labeled=sizes[ALIGN_LABELED],
        n_unlabeled=sizes[ALIGN_UNLABELED],
        total=float(sum(terms.values())),
    )
    return breakdown, blocks


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def evaluate_loss(
    kind: str,
    batch: ViewPairBatch,
    partition: BatchPartition | None = None,
    kernel: KernelMatrix | None = None,
    global_uniformity: bool = False,
) -> LossBreakdown:
    """Loss breakdown of the named variant; see LOSS_KINDS."""
    return _distance_loss(kind, pairwise_distances(batch), partition, kernel, global_uniformity)


def _distance_loss(
    kind: str,
    d: np.ndarray,
    partition: BatchPartition | None,
    kernel: KernelMatrix | None,
    global_uniformity: bool,
) -> LossBreakdown:
    """evaluate_loss over a distance matrix the caller already built."""
    return _evaluate(d, _groups(kind, len(d), partition, kernel, global_uniformity))[0]


def loss_nce(batch: ViewPairBatch) -> LossBreakdown:
    """Unconditional alignment plus log-mean-exp uniformity over all pairs.

    total = (1/N) sum_i d_ii + log((1/N^2) sum_{i,j} exp(-d_ij)); the
    uniformity sum runs over every (i, j) including i = j.
    """
    return evaluate_loss("nce", batch)


def loss_conditional(batch: ViewPairBatch, kernel: KernelMatrix) -> LossBreakdown:
    """Kernel-weighted alignment with complementary uniformity.

    total = (1/N) sum_{i,j} w_ij d_ij
          + log((1/N^2) sum_{i,j} (1 - w_ij) exp(-d_ij)).

    The alignment normalization is 1/N even though the sum has N^2 terms.
    If every weight is 1 the uniformity sum is identically zero and the
    loss is undefined (DegenerateUniformityError).
    """
    return evaluate_loss("conditional", batch, kernel=kernel)


def partition_batch(
    summaries: list[MetadataSummary],
    variant: KernelVariant = KernelVariant.PROPOSED,
) -> BatchPartition:
    """Split batch rows into labeled and unlabeled groups by summary state.

    Unlabeled summaries always go to the unlabeled group.  The
    high-confidence variant additionally routes labeled exams with
    confidence below 1 to the unlabeled group, so its kernel only ever
    sees unanimous exams.
    """
    labeled: list[int] = []
    unlabeled: list[int] = []
    kept: list[MetadataSummary] = []
    for idx, s in enumerate(summaries):
        keep = s.is_labeled
        if keep and variant is KernelVariant.HIGH_CONFIDENCE and s.confidence != 1.0:
            keep = False
        if keep:
            labeled.append(idx)
            kept.append(s)
        else:
            unlabeled.append(idx)
    return BatchPartition(tuple(labeled), tuple(unlabeled), tuple(kept))


def loss_decoupled(
    batch: ViewPairBatch,
    partition: BatchPartition,
    kernel: KernelMatrix | None = None,
    global_uniformity: bool = False,
) -> LossBreakdown:
    """Conditional terms on the labeled block, unconditional on the rest.

    Over A (labeled rows, kernel w):

        (1/|A|)   sum_{i,j in A} w_ij d_ij
      + log((1/|A|^2) sum_{i,j in A} (1 - w_ij) exp(-d_ij))

    over U (unlabeled rows):

        (1/|U|)   sum_{i in U} d_ii
      + log((1/|U|^2) sum_{i != j in U} exp(-d_ij))

    with no cross A-U pair anywhere.  With ``global_uniformity`` the
    labeled uniformity weight (1 - w_ij) is replaced by 1 for i != j and
    0 for i = j.  Empty groups drop their terms; a uniformity sum that is
    identically zero (every weight 1, or |U| = 1) is skipped and flagged
    rather than fed to log.
    """
    return evaluate_loss("decoupled", batch, partition, kernel, global_uniformity)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------
#
# Every term is a function of the distance matrix alone, so the gradient
# factors through per-pair coefficients C_ij = d(total)/d(d_ij) and
# d(d_ij)/d(x1_i) = (x1_i - x2_j) / d_ij.


def _decoupled_coefficients(
    d: np.ndarray,
    partition: BatchPartition,
    kernel: KernelMatrix | None,
    global_uniformity: bool,
) -> dict[str, np.ndarray]:
    """Per-term full-size coefficient matrices; zero outside each block."""
    groups = _groups("decoupled", len(d), partition, kernel, global_uniformity)
    out: dict[str, np.ndarray] = {}
    for rows, term, block in _evaluate(d, groups, coefficients=True)[1]:
        c = np.zeros(d.shape)
        c[np.ix_(rows, rows)] = block
        out[term] = c
    return out


def _gradient_from_coefficients(
    batch: ViewPairBatch,
    d: np.ndarray,
    c: np.ndarray,
    breakdown: LossBreakdown | None = None,
) -> GradientBatch:
    m = c / d
    g1 = m.sum(axis=1, keepdims=True) * batch.x1 - m @ batch.x2
    g2 = m.sum(axis=0)[:, None] * batch.x2 - m.T @ batch.x1
    return GradientBatch(g1, g2, breakdown)


def loss_gradient(
    kind: str,
    batch: ViewPairBatch,
    partition: BatchPartition | None = None,
    kernel: KernelMatrix | None = None,
    global_uniformity: bool = False,
) -> GradientBatch:
    """Analytic gradient of the loss total with respect to both views.

    The breakdown evaluated on the way is returned as ``breakdown``, equal
    to what ``evaluate_loss`` gives for the same arguments, so one call
    (and one distance matrix) serves a whole training step.
    """
    d = pairwise_distances(batch)
    groups = _groups(kind, batch.n, partition, kernel, global_uniformity)
    breakdown, blocks = _evaluate(d, groups, coefficients=True)
    c = np.zeros((batch.n, batch.n))
    for rows, _, block in blocks:
        c[np.ix_(rows, rows)] += block
    return _gradient_from_coefficients(batch, d, c, breakdown)


def central_difference(
    f: Callable[[np.ndarray, np.ndarray], float],
    x1: np.ndarray,
    x2: np.ndarray,
    h: float = 1e-5,
) -> GradientBatch:
    """Coordinate-wise central finite differences (f(x+h) - f(x-h)) / 2h."""
    grads = []
    for which in (0, 1):
        x = (x1, x2)[which]
        g = np.zeros_like(x, dtype=np.float64)
        for idx in np.ndindex(x.shape):
            xp = x.copy()
            xm = x.copy()
            xp[idx] += h
            xm[idx] -= h
            args_p = (xp, x2) if which == 0 else (x1, xp)
            args_m = (xm, x2) if which == 0 else (x1, xm)
            g[idx] = (f(*args_p) - f(*args_m)) / (2.0 * h)
        grads.append(g)
    return GradientBatch(grads[0], grads[1])


def finite_diff_gradient(
    kind: str,
    batch: ViewPairBatch,
    partition: BatchPartition | None = None,
    kernel: KernelMatrix | None = None,
    global_uniformity: bool = False,
    h: float = 1e-5,
) -> GradientBatch:
    """Finite-difference gradient of the named loss; oracle for the analytic path."""

    def f(a: np.ndarray, b: np.ndarray) -> float:
        return evaluate_loss(
            kind, ViewPairBatch(a, b), partition, kernel, global_uniformity
        ).total

    return central_difference(f, batch.x1, batch.x2, h)


def max_relative_error(
    got: GradientBatch, want: GradientBatch, floor: float = 1e-7
) -> float:
    """Largest per-coordinate relative error between two gradient batches.

    Coordinates where both magnitudes are at or below ``floor`` count as
    exact agreement; that keeps finite-difference noise on true zeros
    from dominating the ratio.
    """
    worst = 0.0
    for a, b in ((got.g1, want.g1), (got.g2, want.g2)):
        scale = np.maximum(np.abs(a), np.abs(b))
        mask = scale > floor
        if mask.any():
            rel = np.abs(a - b)[mask] / scale[mask]
            worst = max(worst, float(rel.max()))
    return worst
