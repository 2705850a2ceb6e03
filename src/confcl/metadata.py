"""Binary annotation handling and the confidence-weighted pair kernel.

Exams carry zero or more binary suspicion votes derived from radiology
scores (PI-RADS) or pathology grades (ISUP).  Each exam is summarized by a
majority label plus a confidence in (0, 1]; exams without a usable majority
stay unlabeled.  Pairs of labeled exams are weighted by a kernel that is 1
on the diagonal (two views of the same exam), min(c_i, c_j) for equal
labels, and 0 for different labels, with ablation variants that coarsen
the confidence weighting.  Both rules live once, over columns
(``summarize_votes`` and ``class_table``); the per-exam objects and their
functions are views over them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import NamedTuple

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
    "VoteColumns",
    "binarize",
    "check_epsilon",
    "check_field_types",
    "confidence",
    "vote_columns",
    "summarize_votes",
    "summarize",
    "summarize_batch",
    "class_table",
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


SOURCES = tuple(Source)


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
        if not self.exam_id:
            raise AnnotationError("empty exam id")
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


class VoteColumns(NamedTuple):
    """Exam ids, and for vote k its exam's index, its value (0 or 1) and
    its source's index in SOURCES.  An exam may have no vote."""

    exam_ids: list[str]
    exam: np.ndarray
    votes: np.ndarray
    sources: np.ndarray


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


def confidence(votes: tuple[int, ...] | list[int], epsilon: float = DEFAULT_EPSILON) -> float:
    """summarize_votes' confidence of a nonempty binary vote vector."""
    if len(votes) == 0:
        raise AnnotationError("confidence of an empty vote vector is undefined")
    vector = AnnotationVector("", tuple(votes), (Source.PIRADS,) * len(votes))
    return float(summarize_votes(vote_columns([vector]), epsilon)[1][0])


def vote_columns(vectors: list[AnnotationVector] | tuple[AnnotationVector, ...]) -> VoteColumns:
    """The vectors' exams, in order, and votes as VoteColumns."""
    return VoteColumns(
        [v.exam_id for v in vectors],
        np.repeat(np.arange(len(vectors)), [v.n for v in vectors]),
        np.array([x for v in vectors for x in v.votes], dtype=np.int64),
        np.array([SOURCES.index(x) for v in vectors for x in v.sources], dtype=np.int8),
    )


def summarize_votes(
    votes: VoteColumns,
    epsilon: float = DEFAULT_EPSILON,
    trusted: Source | None = None,
    overrides: dict[str, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every exam's label and confidence: label -1 (unlabeled) for no vote
    or a tie, else the majority vote.  With n > 1 votes, ``ones`` of them 1,
    the confidence is 2 * (majority / n - 1/2) = (2 max(ones, n - ones) - n)
    / n in int64, divided once: 0 for a tie, 1 for unanimity.  A lone vote
    gets epsilon, or 1 from the trusted source; ``overrides`` maps an exam
    id to the epsilon it gets instead of either.  No vote gives 0.
    """
    check_epsilon(epsilon)
    size = len(votes.exam_ids)
    n = np.bincount(votes.exam, minlength=size)
    ones = np.bincount(votes.exam[votes.votes == 1], minlength=size)
    conf = np.divide(2 * np.maximum(ones, n - ones) - n, n, out=np.zeros(size), where=n > 1)
    lone = np.full(size, float(epsilon))
    if trusted is not None:
        lone[np.bincount(votes.exam[votes.sources == SOURCES.index(trusted)], minlength=size) > 0] = 1.0
    for exam_id, value in (overrides or {}).items():
        if exam_id not in votes.exam_ids:
            raise AnnotationError(f"no exam {exam_id!r} to override")
        lone[votes.exam_ids.index(exam_id)] = check_epsilon(value)
    return np.where(2 * ones == n, -1, (2 * ones > n).astype(np.int64)), np.where(n == 1, lone, conf)


def summary_columns(summaries: list[MetadataSummary]) -> tuple[np.ndarray, np.ndarray]:
    """MetadataSummary objects as summarize_votes' (label, confidence) columns."""
    label = np.array([s.label if s.is_labeled else -1 for s in summaries], dtype=np.int64)
    return label, np.array([s.confidence or 0.0 for s in summaries], dtype=np.float64)


def _summaries(vectors: list[AnnotationVector], epsilon: float, trusted: Source | None) -> list[MetadataSummary]:
    label, conf = summarize_votes(vote_columns(vectors), epsilon, trusted)
    return [
        MetadataSummary.unlabeled(v.exam_id) if y < 0 else MetadataSummary.labeled(v.exam_id, y, c)
        for v, y, c in zip(vectors, label.tolist(), conf.tolist())
    ]


def summarize(
    vector: AnnotationVector, epsilon: float = DEFAULT_EPSILON, trusted: Source | None = None
) -> MetadataSummary:
    """summarize_votes of one exam as a MetadataSummary."""
    return _summaries([vector], epsilon, trusted)[0]


def summarize_batch(vectors: list[AnnotationVector], epsilon: float = DEFAULT_EPSILON) -> list[MetadataSummary]:
    """summarize of each vector with no trusted source, so not for the biopsy variant."""
    return _summaries(vectors, epsilon, None)


# ---------------------------------------------------------------------------
# Pair kernel
# ---------------------------------------------------------------------------


def class_table(
    label: np.ndarray, confidence: np.ndarray, variant: KernelVariant = KernelVariant.PROPOSED
) -> tuple[np.ndarray, np.ndarray]:
    """Each labeled exam's class among the K distinct (label, confidence)
    pairs, each taken from its first exam, and the K x K off-diagonal
    weights between classes: 0 for different labels, and for equal labels
    min(c_i, c_j) of the classes' weights c, which are

    - PROPOSED: the confidences,
    - HIGH_CONFIDENCE: 0.8 where the confidence is exactly 1, else 0,
    - MAJORITY_VOTING: 0.8 flat,

    so the table is symmetric with entries in [0, 1].
    """
    # One complex key per (label, confidence) pair: numpy orders complex
    # numbers by real part, then imaginary, as np.unique(axis=0) orders rows.
    _, first, classes = np.unique(label + 1j * confidence, return_index=True, return_inverse=True)
    labels, conf = label[first], confidence[first]
    if variant is KernelVariant.HIGH_CONFIDENCE:
        conf = np.where(conf == 1.0, COARSE_WEIGHT, 0.0)
    elif variant is KernelVariant.MAJORITY_VOTING:
        conf = np.full(len(conf), COARSE_WEIGHT)
    elif variant is not KernelVariant.PROPOSED:
        raise ValueError(f"unknown kernel variant {variant!r}")
    w = np.where(labels[:, None] == labels[None, :], np.minimum(conf[:, None], conf[None, :]), 0.0)
    return classes.reshape(-1), w


def kernel_classes(
    summaries: list[MetadataSummary],
    variant: KernelVariant = KernelVariant.PROPOSED,
) -> tuple[np.ndarray, np.ndarray]:
    """class_table of labeled summaries."""
    label, conf = summary_columns(summaries)
    if (label < 0).any():
        unlabeled = summaries[int(np.argmin(label))].exam_id
        raise AnnotationError(f"exam {unlabeled!r} is unlabeled; kernels are built over labeled exams")
    return class_table(label, conf, variant)


def kernel_matrix(
    summaries: list[MetadataSummary],
    variant: KernelVariant = KernelVariant.PROPOSED,
) -> KernelMatrix:
    """kernel_classes' weights over every pair of exams, 1 on the diagonal (two views of one exam)."""
    classes, table = kernel_classes(summaries, variant)
    w = table[classes[:, None], classes]
    np.fill_diagonal(w, 1.0)
    return KernelMatrix(w)
