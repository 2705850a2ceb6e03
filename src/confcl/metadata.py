"""Binary annotation handling and the confidence-weighted pair kernel.

Exams carry zero or more binary suspicion votes derived from radiology
scores (PI-RADS) or pathology grades (ISUP).  Each exam is summarized by a
majority label plus a confidence in (0, 1]; exams without a usable majority
stay unlabeled.  Pairs of labeled exams are weighted by a kernel that is 1
on the diagonal (two views of the same exam), min(c_i, c_j) for equal
labels, and 0 for different labels, with ablation variants that coarsen
the confidence weighting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DEFAULT_EPSILON",
    "AnnotationError",
    "Source",
    "RawAnnotation",
    "AnnotationVector",
    "MetadataSummary",
    "KernelVariant",
    "KernelMatrix",
    "binarize",
    "check_epsilon",
    "check_field_types",
    "confidence",
    "summarize",
    "summarize_batch",
    "kernel_classes",
    "kernel_matrix",
]

# Confidence assigned to single-vote exams: one report is weak evidence.
DEFAULT_EPSILON = 0.1

# Weight shared by the coarse ablation kernels for equal-label pairs.
COARSE_WEIGHT = 0.8

PIRADS_RANGE = (1, 5)
ISUP_RANGE = (0, 5)


class AnnotationError(ValueError):
    """Raised for out-of-range scores or malformed vote vectors."""


class Source(enum.Enum):
    """Origin of a raw score; determines the binarization rule."""

    PIRADS = "pirads"
    ISUP = "isup"


class KernelVariant(enum.Enum):
    PROPOSED = "proposed"
    HIGH_CONFIDENCE = "hc"
    MAJORITY_VOTING = "majority"


@dataclass(frozen=True)
class RawAnnotation:
    """One score attached to one exam, checked by binarize at construction."""

    exam_id: str
    source: Source
    value: int

    def __post_init__(self) -> None:
        try:
            binarize(self.source, self.value)
        except AnnotationError as exc:
            raise AnnotationError(f"exam {self.exam_id!r}: {exc}") from None


@dataclass(frozen=True)
class AnnotationVector:
    """Binary votes for one exam, abstentions already removed.

    ``sources`` records where each vote came from; it always has the same
    length as ``votes``.  An empty vector is legal and means the exam has
    no usable annotation.
    """

    exam_id: str
    votes: tuple[int, ...] = ()
    sources: tuple[Source, ...] = ()

    def __post_init__(self) -> None:
        if len(self.votes) != len(self.sources):
            raise AnnotationError(
                f"exam {self.exam_id!r}: {len(self.votes)} votes but "
                f"{len(self.sources)} source tags"
            )
        if any(v not in (0, 1) for v in self.votes):
            raise AnnotationError(f"exam {self.exam_id!r}: votes must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.votes)


@dataclass(frozen=True)
class MetadataSummary:
    """Majority label and confidence for one exam, or the unlabeled state.

    ``label is None`` marks the unlabeled state, reached when the vote
    vector is empty or the vote is tied.  A labeled summary always has
    confidence in (0, 1].
    """

    exam_id: str
    label: int | None = None
    confidence: float | None = None

    @property
    def is_labeled(self) -> bool:
        return self.label is not None

    @classmethod
    def labeled(cls, exam_id: str, label: int, conf: float) -> "MetadataSummary":
        if not (0.0 < conf <= 1.0):
            raise AnnotationError(
                f"exam {exam_id!r}: labeled confidence {conf} outside (0, 1]"
            )
        return cls(exam_id, label, conf)

    @classmethod
    def unlabeled(cls, exam_id: str) -> "MetadataSummary":
        return cls(exam_id, None, None)


@dataclass(frozen=True)
class KernelMatrix:
    """Pairwise weights over a batch of labeled exams, as a class table.

    Exam i is in class ``classes[i]``; exams i != j weigh
    ``weights[classes[i], classes[j]]`` and an exam with itself (two views
    of one exam) weighs 1, so no N x N array need exist.  ``KernelMatrix(w)``
    takes a dense N x N kernel, whose diagonal must be identically 1, as
    the table of N one-exam classes: ``classes = arange(N)``.  Every weight
    lies in [0, 1].  All of this is checked once, at construction.
    """

    weights: np.ndarray
    classes: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"kernel must be square, got shape {w.shape}")
        if self.classes is None and not np.all(np.diag(w) == 1.0):
            raise ValueError("kernel diagonal must be identically 1")
        if not ((w >= 0.0) & (w <= 1.0)).all():
            raise ValueError("kernel weights must lie in [0, 1]")
        c = np.arange(len(w)) if self.classes is None else np.asarray(self.classes)
        if c.ndim != 1 or not np.issubdtype(c.dtype, np.integer) or not ((c >= 0) & (c < len(w))).all():
            raise ValueError(f"kernel classes must be a 1-D integer array of table rows 0..{len(w) - 1}")
        object.__setattr__(self, "classes", c.astype(np.intp))
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return len(self.classes)


# ---------------------------------------------------------------------------
# Binarization and confidence
# ---------------------------------------------------------------------------


def binarize(source: Source, value: int) -> int | None:
    """Map a raw score to a binary suspicion vote.

    PI-RADS 1-2 vote 0, PI-RADS 4-5 vote 1, and PI-RADS 3 abstains
    (returns None): an equivocal read contributes no vote.  ISUP grades
    at most 1 vote 0 and grades 2 and above vote 1; there is no ISUP
    abstention.  A source that is not a Source, a value that is not an
    int or a numpy integer (a bool is neither here) and an out-of-range
    value raise AnnotationError; this is the one place those rules live.
    """
    if source is Source.PIRADS:
        lo, hi = PIRADS_RANGE
    elif source is Source.ISUP:
        lo, hi = ISUP_RANGE
    else:
        raise AnnotationError(f"unknown source {source!r}")
    if type(value) is not int and not isinstance(value, np.integer):
        raise AnnotationError(f"{source.value} value {value!r} is not an integer")
    if not (lo <= value <= hi):
        raise AnnotationError(f"{source.value} value {value} outside [{lo}, {hi}]")
    if source is Source.ISUP:
        return 0 if value <= 1 else 1
    return None if value == 3 else 0 if value <= 2 else 1


def check_epsilon(epsilon: float, name: str = "epsilon") -> float:
    """epsilon, if it is a single-vote confidence in (0, 1]; else AnnotationError."""
    if not (0.0 < epsilon <= 1.0):
        raise AnnotationError(f"{name} {epsilon} outside (0, 1]")
    return epsilon


def check_field_types(settings) -> None:
    """ValueError for the first int, float or bool field of a settings dataclass
    whose value is not that type; a float takes an int, but never a bool."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.type == "int" and type(value) is not int:
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float" and (type(value) is bool or not isinstance(value, (int, float))):
            raise ValueError(f"{f.name} must be a number, got {value!r}")
        if f.type == "bool" and type(value) is not bool:
            raise ValueError(f"{f.name} must be a bool, got {value!r}")


def _confidence(ones: int, n: int, epsilon: float) -> float:
    """Confidence of n >= 1 votes, ones of them 1: epsilon for a single vote,
    else (2 * majority - n) / n, which int true division rounds once."""
    if n == 1:
        return epsilon
    return (2 * max(ones, n - ones) - n) / n


def confidence(votes: tuple[int, ...] | list[int], epsilon: float = DEFAULT_EPSILON) -> float:
    """Majority-vote confidence of a nonempty binary vote vector.

    A single vote earns the floor confidence ``epsilon``.  With n > 1
    votes the confidence is 2 * (majority_count / n - 1/2): 0 for a tie,
    1 for unanimity, and strictly increasing in the majority count.  The
    ratio is formed in exact integer arithmetic and rounded to float once.
    """
    check_epsilon(epsilon)
    n = len(votes)
    if n == 0:
        raise AnnotationError("confidence of an empty vote vector is undefined")
    return _confidence(sum(1 for v in votes if v == 1), n, epsilon)


def summarize(
    vector: AnnotationVector, epsilon: float = DEFAULT_EPSILON, trusted: Source | None = None
) -> MetadataSummary:
    """Collapse an exam's votes to a labeled or unlabeled summary; empty
    vectors and exact ties are unlabeled.  A lone vote from the trusted
    source gets confidence 1, and any other lone vote epsilon."""
    check_epsilon(epsilon)
    n, ones = vector.n, sum(vector.votes)
    if 2 * ones == n:
        return MetadataSummary.unlabeled(vector.exam_id)
    if n == 1 and trusted is not None and vector.sources[0] is trusted:
        epsilon = 1.0
    return MetadataSummary.labeled(vector.exam_id, int(2 * ones > n), _confidence(ones, n, epsilon))


def summarize_batch(vectors: list[AnnotationVector], epsilon: float = DEFAULT_EPSILON) -> list[MetadataSummary]:
    """summarize of each vector with no trusted source, so not for the biopsy variant."""
    return [summarize(v, epsilon) for v in vectors]


# ---------------------------------------------------------------------------
# Pair kernel
# ---------------------------------------------------------------------------


def kernel_classes(
    summaries: list[MetadataSummary],
    variant: KernelVariant = KernelVariant.PROPOSED,
) -> tuple[np.ndarray, np.ndarray]:
    """Each labeled exam's class among the K distinct (label, confidence)
    pairs, each taken from its first exam, and the K x K off-diagonal
    weights between classes: 0 for different labels, and for equal labels

    - PROPOSED: min(c_i, c_j),
    - HIGH_CONFIDENCE: 0.8 when both confidences are exactly 1, else 0,
    - MAJORITY_VOTING: 0.8 flat,

    so the table is symmetric with entries in [0, 1].
    """
    for s in summaries:
        if not s.is_labeled:
            raise AnnotationError(
                f"exam {s.exam_id!r} is unlabeled; kernels are built over labeled exams"
            )
    labels = np.array([s.label for s in summaries])
    conf = np.array([s.confidence for s in summaries], dtype=np.float64)
    pairs = np.stack([labels, conf], axis=1)
    _, first, classes = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
    labels, conf = labels[first], conf[first]
    equal = labels[:, None] == labels[None, :]
    if variant is KernelVariant.PROPOSED:
        w = np.where(equal, np.minimum(conf[:, None], conf[None, :]), 0.0)
    elif variant is KernelVariant.HIGH_CONFIDENCE:
        sure = conf == 1.0
        w = np.where(equal & sure[:, None] & sure[None, :], COARSE_WEIGHT, 0.0)
    elif variant is KernelVariant.MAJORITY_VOTING:
        w = np.where(equal, COARSE_WEIGHT, 0.0)
    else:
        raise ValueError(f"unknown kernel variant {variant!r}")
    return classes.reshape(-1), w


def kernel_matrix(
    summaries: list[MetadataSummary],
    variant: KernelVariant = KernelVariant.PROPOSED,
) -> KernelMatrix:
    """kernel_classes' weights over every pair of exams, 1 on the diagonal (two views of one exam)."""
    classes, table = kernel_classes(summaries, variant)
    w = table[classes[:, None], classes]
    np.fill_diagonal(w, 1.0)
    return KernelMatrix(w)
