"""Alignment/uniformity contrastive losses over paired embedding views.

Every loss variant is a list of row groups.  A group of m batch rows with
alignment weights a and repulsion weights r contributes two terms,

    align = (1/m)   sum_{i,j} a_ij d_ij
    unif  = log((1/m^2) sum_{i,j} r_ij exp(-d_ij)),

all read off the smoothed Euclidean distances
d_ij = sqrt(|x1_i - x2_j|^2 + eps^2), which keep every loss
differentiable when two rows coincide.  A group's weights are a class
table: rows i != j weigh w_ij = table[c_i, c_j] and a row with itself (two
views of one exam) weighs 1.  The variants differ only in their groups:

- ``nce``: one group over all rows with a = I and r = 1 (the diagonal
  included): one class, table [[0]], and a unit repulsion diagonal.
- ``conditional``: one group over all rows with a = w and r = 1 - w for
  the kernel w.  The unit kernel diagonal keeps same-exam pairs out of
  the repulsion.  Here and for ``nce`` a zero repulsion sum raises
  DegenerateUniformityError.
- ``decoupled``: the labeled rows A get a = w and r = 1 - w (r = 1 - I
  with global uniformity), the unlabeled rows U get a = I and r = 1 - I
  (one class, table [[0]]), and no cross A-U pair appears.  A zero
  repulsion sum (every weight 1, or |U| = 1) is skipped and recorded
  instead of fed to log.

One evaluator walks each group in blocks of b = max(1, _BLOCK_CELLS // m)
rows: a block's distances against the group's columns, its weights from
the class table, and its alignment and repulsion partial sums; the terms
are formed after the last block.  Memory is O(b m), not O(m^2), so a
value-only loss holds no N x N array; a group of up to 512 rows is one
block.  When a gradient is wanted, each group is one block over the
distance matrix the gradient needs anyway, and the evaluator also
returns the per-pair coefficients C_ij = d(total)/d(d_ij);
``loss_gradient`` returns both from a single distance build.  A
LossBreakdown is built from the term values only where one is read.  The
analytic gradients are checked against central finite differences.

The public functions validate their arguments (partition cover, kernel
shape, no argument the kind ignores) before building groups; the private
``_decoupled_groups``, ``_evaluate`` and ``_gradient`` trust theirs, so a
study cell validates its dataset's partition and kernel once, and both
its training steps and its final evaluation feed their slices straight
in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .metadata import KernelMatrix, KernelVariant, MetadataSummary, class_table, summary_columns

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
    "loss_conditional",
    "partition_batch",
    "batch_inputs",
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

# Pair cells per row block of the loss core; bounds its (rows, m) temporaries.
_BLOCK_CELLS = 2**18

ALIGN_LABELED = "align_labeled"
UNIF_LABELED = "unif_labeled"
ALIGN_UNLABELED = "align_unlabeled"
UNIF_UNLABELED = "unif_unlabeled"

LOSS_KINDS = ("nce", "conditional", "decoupled")
# The arguments each kind has no use for.
_IGNORED = {
    "nce": ("partition", "kernel", "global_uniformity"),
    "conditional": ("partition", "global_uniformity"),
}


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


@dataclass(frozen=True)
class BatchPartition:
    """Disjoint labeled/unlabeled row indices covering a batch."""

    labeled: tuple[int, ...]
    unlabeled: tuple[int, ...]

    def __post_init__(self) -> None:
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


def pairwise_distances(
    batch: ViewPairBatch,
    rows: np.ndarray | slice = slice(None),
    cols: np.ndarray | slice = slice(None),
) -> np.ndarray:
    """Smoothed L2 distances d[i, j] = |x1[rows[i]] - x2[cols[j]]|, every
    row against every row (N, N) by default.

    Filled _DISTANCE_BLOCK rows at a time, so the largest temporary is a
    (_DISTANCE_BLOCK, len(cols), D) difference block.  Each entry is the
    same float whatever the row and column sets.
    """
    x1, x2 = batch.x1[rows], batch.x2[cols]
    d = np.empty((len(x1), len(x2)))
    for start in range(0, len(x1), _DISTANCE_BLOCK):
        block = slice(start, start + _DISTANCE_BLOCK)
        diff = x1[block, None, :] - x2[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=d[block])
    d += EPS_DIST**2
    return np.sqrt(d, out=d)


# ---------------------------------------------------------------------------
# The group core
# ---------------------------------------------------------------------------


class _Group(NamedTuple):
    """Batch rows with their pair weights.

    Rows i != j weigh w_ij = table[classes[i], classes[j]], or 0 without a
    table (the one-class table [[0]], not gathered), and a row with itself
    weighs 1.  The alignment weighs pair (i, j) by w_ij and is
    normalized by m = len(rows).  The repulsion weighs it by 1 - w_ij (so
    0 for a row with itself), or, given ``uniform`` = r, by 1 for distinct
    rows and r for a row with itself; it is normalized by m^2.
    ``skip_zero`` says whether a zero repulsion sum is skipped and recorded
    or raises DegenerateUniformityError.
    """

    rows: np.ndarray
    classes: np.ndarray | None
    table: np.ndarray | None
    terms: tuple[str, str]
    skip_zero: bool
    uniform: float | None = None


def _kernel_weights(kernel: KernelMatrix | None, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The (classes, table) of a kernel over n exams."""
    if kernel is None:
        raise ValueError(f"{what}: no kernel given for {n} labeled rows")
    if kernel.n != n:
        raise ValueError(f"{what}: kernel shape {(kernel.n, kernel.n)} does not match n = {n}")
    return kernel.classes, kernel.weights


def _groups(
    kind: str,
    n: int,
    partition: BatchPartition | None,
    kernel: KernelMatrix | None,
    global_uniformity: bool,
) -> list[_Group]:
    """The row groups of one loss variant over a batch of n rows.  An
    argument the kind ignores must not be given: not None, and not True."""
    given = dict(partition=partition is not None, kernel=kernel is not None, global_uniformity=global_uniformity)
    for name in _IGNORED.get(kind, ()):
        if given[name]:
            raise ValueError(f"{kind} loss takes no {name}")
    if kind == "nce":
        names = (ALIGN_UNLABELED, UNIF_UNLABELED)
        return [_Group(np.arange(n), None, None, names, False, uniform=1.0)]
    if kind == "conditional":
        classes, table = _kernel_weights(kernel, n, "conditional loss")
        return [_Group(np.arange(n), classes, table, (ALIGN_LABELED, UNIF_LABELED), False)]
    if kind != "decoupled":
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    if partition is None:
        raise ValueError("decoupled loss needs a partition")
    if partition.n != n or set(partition.labeled) | set(partition.unlabeled) != set(range(n)):
        raise ValueError("partition must cover every batch row exactly once")
    labeled = np.asarray(partition.labeled, dtype=np.intp)
    weights = _kernel_weights(kernel, len(labeled), "decoupled loss") if len(labeled) else None
    if weights is None and kernel is not None and kernel.n != 0:
        raise ValueError("kernel given but the labeled group is empty")
    unlabeled = np.asarray(partition.unlabeled, np.intp)
    return _decoupled_groups(labeled, unlabeled, weights, global_uniformity)


def _decoupled_groups(
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    weights: tuple[np.ndarray, np.ndarray] | None,
    global_uniformity: bool,
) -> list[_Group]:
    """Decoupled groups from trusted disjoint, covering rows and the labeled
    rows' (classes, table)."""
    groups = []
    if len(labeled):
        # Global uniformity repels every distinct labeled pair at weight 1.
        uniform = 0.0 if global_uniformity else None
        groups.append(_Group(labeled, *weights, (ALIGN_LABELED, UNIF_LABELED), True, uniform))
    if len(unlabeled):
        groups.append(_Group(unlabeled, None, None, (ALIGN_UNLABELED, UNIF_UNLABELED), True))
    return groups


def _same_exam(block: np.ndarray, lo: int) -> np.ndarray:
    """The cells of a C-contiguous (b, m) block of group rows lo..lo+b-1 that
    pair a row with itself: (k, lo + k) for every k < b."""
    return block.ravel()[lo :: block.shape[1] + 1]


def _evaluate(
    batch: ViewPairBatch | None,
    groups: list[_Group],
    d: np.ndarray | None = None,
    coefficients: bool = False,
) -> tuple[dict[str, float], list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]]:
    """Values of the groups' present terms, in group order.

    A group of m rows is walked in blocks of b = max(1, _BLOCK_CELLS // m)
    rows.  A block's distances against the group's columns are gathered
    from d when given, else built by pairwise_distances from batch; its
    weights are gathered from the group's class table.  Its alignment and
    repulsion partial sums are added up, and the terms are formed after the
    last block, so the temporaries scale with (b, m), not (m, m).

    With ``coefficients`` each group is one block (b = m) over d, and one
    (rows, align, repel) block per group is also returned, where
    align[a, b] and repel[a, b] are the derivatives of its alignment and
    uniformity terms by d[rows[a], rows[b]] (repel is None when that term
    is skipped); value-only callers get an empty list and build no
    coefficient matrices.
    """
    terms: dict[str, float] = {}
    blocks = []
    for g in groups:
        align_name, unif_name = g.terms
        m = len(g.rows)
        b = m if coefficients else max(1, _BLOCK_CELLS // m)
        aligned = s = 0.0
        for lo in range(0, m, b):
            rows = g.rows[lo : lo + b]
            d_b = pairwise_distances(batch, rows, g.rows) if d is None else d[rows[:, None], g.rows]
            if g.table is None:
                w = np.zeros((len(rows), m))
            else:
                w = g.table.take(g.classes[lo : lo + b], axis=0).take(g.classes, axis=1)
            _same_exam(w, lo)[:] = 1.0
            # A zero weight adds exactly 0, even where d overflowed to inf.
            aligned += np.multiply(w, d_b, out=np.zeros(d_b.shape), where=w != 0).sum()
            if g.uniform is None:
                repel = 1.0 - w
            else:
                repel = np.ones(w.shape)
                _same_exam(repel, lo)[:] = g.uniform
            repel *= np.exp(np.negative(d_b, out=d_b), out=d_b)
            s += float(repel.sum())
            if not coefficients:
                del d_b, w, repel  # freed before the next block is built
        terms[align_name] = float(aligned / m)
        if s != 0.0:
            terms[unif_name] = float(np.log(s / m**2))
        elif not g.skip_zero:
            raise DegenerateUniformityError(
                f"degenerate uniformity: the {unif_name} repulsion sum is zero, nothing repels"
            )
        if coefficients:
            blocks.append((g.rows, w / m, -repel / s if s != 0.0 else None))
    return terms, blocks


def _total(terms: dict[str, float]) -> float:
    return float(sum(terms.values()))


def _breakdown(groups: list[_Group], terms: dict[str, float]) -> LossBreakdown:
    """The LossBreakdown of the term values that _evaluate gave for groups."""
    sizes = {g.terms[0]: len(g.rows) for g in groups}
    # Term names double as LossBreakdown field names.
    return LossBreakdown(
        **terms,
        present=frozenset(terms),
        skipped=frozenset(g.terms[1] for g in groups if g.terms[1] not in terms),
        n_labeled=sizes.get(ALIGN_LABELED, 0),
        n_unlabeled=sizes.get(ALIGN_UNLABELED, 0),
        total=_total(terms),
    )


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
    groups = _groups(kind, batch.n, partition, kernel, global_uniformity)
    return _breakdown(groups, _evaluate(batch, groups)[0])


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
    """batch_inputs' partition of the summaries' rows."""
    return batch_inputs(*summary_columns(summaries), variant)[0]


def batch_inputs(
    label: np.ndarray, confidence: np.ndarray, variant: KernelVariant | None
) -> tuple[BatchPartition, KernelMatrix | None]:
    """The rows' partition by their (label, confidence) columns, label -1
    being unlabeled, and the labeled rows' class_table kernel (n = 0 when
    none is).  The high-confidence variant also routes confidence below 1
    to the unlabeled group, so its kernel only sees unanimous exams; with
    no variant (metadata ignored) every row is unlabeled and no kernel."""
    keep = (label >= 0) & (variant is not None)
    if variant is KernelVariant.HIGH_CONFIDENCE:
        keep &= confidence == 1.0
    rows = np.flatnonzero(keep)
    partition = BatchPartition(tuple(rows.tolist()), tuple(np.flatnonzero(~keep).tolist()))
    if variant is None:
        return partition, None
    classes, table = class_table(label[rows], confidence[rows], variant)
    return partition, KernelMatrix(table, classes)


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
    for g, (rows, *term_blocks) in zip(groups, _evaluate(None, groups, d, coefficients=True)[1]):
        for term, block in zip(g.terms, term_blocks):
            if block is not None:
                c = out[term] = np.zeros(d.shape)
                c[rows[:, None], rows] = block
    return out


def _gradient_from_coefficients(batch: ViewPairBatch, d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The (2, N, D) stack of d(total)/d(x1) and d(total)/d(x2) for coefficients c."""
    m = c / d
    g = np.empty((2, *batch.x1.shape))
    np.subtract(m.sum(axis=1, keepdims=True) * batch.x1, m @ batch.x2, out=g[0])
    np.subtract(m.sum(axis=0)[:, None] * batch.x2, m.T @ batch.x1, out=g[1])
    return g


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
    groups = _groups(kind, batch.n, partition, kernel, global_uniformity)
    terms, g = _gradient(batch, groups)
    return GradientBatch(g[0], g[1], _breakdown(groups, terms))


def _gradient(batch: ViewPairBatch, groups: list[_Group]) -> tuple[dict[str, float], np.ndarray]:
    """Term values and gradient stack of loss_gradient, over groups the
    caller has already validated."""
    d = pairwise_distances(batch)
    terms, blocks = _evaluate(batch, groups, d, coefficients=True)
    c = np.zeros((batch.n, batch.n))
    for rows, align, repel in blocks:  # disjoint groups: one write per block
        c[rows[:, None], rows] = align if repel is None else align + repel
    return terms, _gradient_from_coefficients(batch, d, c)


def central_difference(
    f: Callable[[np.ndarray, np.ndarray], float],
    x1: np.ndarray,
    x2: np.ndarray,
    h: float = 1e-5,
) -> GradientBatch:
    """Coordinate-wise central finite differences (f(x+h) - f(x-h)) / 2h."""
    if not 0.0 < h < np.inf:
        raise ValueError(f"finite-difference step h must be finite and > 0, got {h!r}")
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
