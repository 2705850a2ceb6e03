"""Synthetic multi-annotator benchmark for the loss variants.

Two Gaussian classes provide features, simulated annotators provide noisy
binary votes (with abstention and whole-exam label dropout), a one-hidden
layer encoder trains on augmented view pairs under a chosen loss variant,
and a logistic probe on the frozen embeddings measures how much class
structure the representation kept.  A study sweeps variant x seed cells,
each bitwise reproducible from its own derived RNG, and aggregates
per-variant means and standard deviations.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import NamedTuple, get_type_hints

import numpy as np

from .detection import roc_auc
from .losses import (
    BatchPartition,
    LossBreakdown,
    ViewPairBatch,
    _breakdown,
    _decoupled_groups,
    _evaluate,
    _gradient,
    _total,
    batch_inputs,
    pairwise_distances,
)
from .metadata import (
    DEFAULT_EPSILON,
    AnnotationVector,
    KernelMatrix,
    KernelVariant,
    Source,
    check_epsilon,
    check_field_types,
    summarize_votes,
    summary_columns,
    vote_columns,
)

__all__ = [
    "DEFAULT_STUDY_SEEDS",
    "STUDY_VARIANTS",
    "variant_spec",
    "batch_loss_inputs",
    "TrainingDivergedError",
    "AnnotatorParams",
    "SynthConfig",
    "SynthDataset",
    "VariantSpec",
    "StudyCell",
    "Encoder",
    "normalize_rows",
    "CellRecord",
    "StudyReport",
    "default_config",
    "config_from_dict",
    "generate_dataset",
    "study_cell",
    "simulate_annotators",
    "vote_sources",
    "augment",
    "train",
    "linear_probe",
    "run_study",
]

DEFAULT_STUDY_SEEDS = tuple(range(10))

# Keeps row normalization differentiable for an all-zero embedding row.
EPS_NORM = 1e-12


class TrainingDivergedError(RuntimeError):
    """Non-finite embeddings (``breakdown`` is None), loss or gradient;
    carries where it happened."""

    def __init__(self, epoch: int, batch_index: int, breakdown: LossBreakdown | None):
        what = "embeddings" if breakdown is None else "loss/gradient"
        detail = "" if breakdown is None else f": {breakdown.as_dict()}"
        super().__init__(f"non-finite {what} at epoch {epoch}, batch {batch_index}{detail}")
        self.epoch = epoch
        self.batch_index = batch_index
        self.breakdown = breakdown


@dataclass(frozen=True)
class AnnotatorParams:
    n_min: int = 1
    n_max: int = 7
    p_flip: float = 0.3
    p_abstain: float = 0.1

    def __post_init__(self) -> None:
        check_field_types(self)
        if not (1 <= self.n_min <= self.n_max <= 7):
            raise ValueError("need 1 <= n_min <= n_max <= 7")
        for name in ("p_flip", "p_abstain"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} {p} outside [0, 1]")


@dataclass(frozen=True)
class SynthConfig:
    n_exams: int = 512
    input_dim: int = 16
    hidden_dim: int = 32
    embed_dim: int = 8
    class_separation: float = 2.0
    noise_sigma: float = 1.0
    aug_sigma: float = 0.5
    annotator: AnnotatorParams = field(default_factory=AnnotatorParams)
    frac_unlabeled: float = 0.3
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-2
    momentum: float = 0.0
    seed: int = 0
    normalize_embeddings: bool = True
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        check_field_types(self)
        if not isinstance(self.annotator, AnnotatorParams):
            raise ValueError(f"annotator must be an AnnotatorParams, got {self.annotator!r}")
        for name in ("input_dim", "hidden_dim", "embed_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("n_exams", "epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("class_separation", "noise_sigma", "aug_sigma", "learning_rate"):
            value = getattr(self, name)
            if not (0.0 <= value < np.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not (0.0 <= self.frac_unlabeled <= 1.0):
            raise ValueError(f"frac_unlabeled {self.frac_unlabeled} outside [0, 1]")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum {self.momentum} outside [0, 1)")
        check_epsilon(self.epsilon)

    def as_dict(self) -> dict:
        return asdict(self)


def default_config() -> SynthConfig:
    return SynthConfig()


def _settings_from_dict(cls, raw, name: str):
    """cls from the JSON object raw, called name in errors, with no unknown key;
    a field declared as a settings dataclass is read from its own object alike."""
    if not isinstance(raw, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {name} fields: {sorted(unknown)}")
    types = get_type_hints(cls)
    nested = {k: _settings_from_dict(types[k], v, k) for k, v in raw.items() if is_dataclass(types[k])}
    return cls(**{**raw, **nested})


def config_from_dict(raw: dict) -> SynthConfig:
    """The SynthConfig a JSON object states; unknown keys and non-objects are ValueErrors."""
    return _settings_from_dict(SynthConfig, raw, "config")


class SynthDataset(NamedTuple):
    """N exams in exam order: (N, input_dim) features, (N,) true labels and
    each exam's annotations."""

    features: np.ndarray
    labels: np.ndarray
    annotations: tuple[AnnotationVector, ...]


@dataclass(frozen=True)
class VariantSpec:
    """How one ablation variant uses metadata and shapes the loss."""

    name: str
    kernel: KernelVariant | None  # None: ignore metadata, everything unlabeled
    global_uniformity: bool = False
    trusted: Source | None = None  # a lone vote from this source gets confidence 1


STUDY_VARIANTS: dict[str, VariantSpec] = {
    "proposed": VariantSpec("proposed", KernelVariant.PROPOSED),
    "hc": VariantSpec("hc", KernelVariant.HIGH_CONFIDENCE),
    "majority": VariantSpec("majority", KernelVariant.MAJORITY_VOTING),
    # Trust a lone biopsy (ISUP) vote fully; multi-vote confidences never
    # use the single-vote floor, whatever their sources.
    "biopsy": VariantSpec("biopsy", KernelVariant.PROPOSED, trusted=Source.ISUP),
    "glu": VariantSpec("glu", KernelVariant.PROPOSED, global_uniformity=True),
    "unsupervised": VariantSpec("unsupervised", None),
}


# ---------------------------------------------------------------------------
# Data generation
# ---------------------------------------------------------------------------


def simulate_annotators(
    exam_id: str,
    true_label: int,
    params: AnnotatorParams,
    rng: np.random.Generator,
    frac_unlabeled: float = 0.0,
) -> AnnotationVector:
    """Draw a noisy vote vector for one exam.

    Annotator count is uniform on [n_min, n_max]; each annotator abstains
    with p_abstain, otherwise votes the true label flipped with p_flip.
    Afterwards the whole vector empties with probability frac_unlabeled,
    modeling exams that never received usable metadata.
    """
    n = int(rng.integers(params.n_min, params.n_max + 1))
    votes: list[int] = []
    for _ in range(n):
        if rng.random() < params.p_abstain:
            continue
        flip = rng.random() < params.p_flip
        votes.append(1 - true_label if flip else true_label)
    if rng.random() < frac_unlabeled:
        votes = []
    return AnnotationVector(exam_id, tuple(votes), vote_sources(len(votes)))


def vote_sources(n: int) -> tuple[Source, ...]:
    """Synthetic sources, which draw no random numbers: an exam's only vote
    is its biopsy (ISUP), and two or more votes are PI-RADS reads."""
    return (Source.ISUP,) if n == 1 else (Source.PIRADS,) * n


def generate_dataset(config: SynthConfig, seed: int) -> SynthDataset:
    """Balanced two-class Gaussian exams ``exam-{i:05d}`` of label i % 2, annotated.

    Class means sit at +/- class_separation/2 along the first feature
    axis.  Deterministic for a fixed (config, seed).
    """
    rng = np.random.default_rng(seed)
    features = np.empty((config.n_exams, config.input_dim))
    annotations = []
    for i in range(config.n_exams):
        label = i % 2
        mean = np.zeros(config.input_dim)
        mean[0] = (0.5 if label == 1 else -0.5) * config.class_separation
        features[i] = mean + rng.normal(0.0, config.noise_sigma, config.input_dim)
        annotations.append(
            simulate_annotators(f"exam-{i:05d}", label, config.annotator, rng, config.frac_unlabeled)
        )
    return SynthDataset(features, np.arange(config.n_exams) % 2, tuple(annotations))


def augment(features: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian jitter; sigma 0 returns the input exactly."""
    feats = np.asarray(features, dtype=np.float64)
    if sigma == 0.0:
        return feats.copy()
    return feats + rng.normal(0.0, sigma, feats.shape)


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


def normalize_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (along the last axis) scaled to unit L2 norm, and the norms
    sqrt(|z_i|^2 + EPS_NORM^2)."""
    norms = np.sqrt((z * z).sum(axis=-1) + EPS_NORM**2)
    return z / norms[..., None], norms


@dataclass
class Encoder:
    """Affine -> tanh -> affine, with optional output row normalization.

    ``forward`` and ``backward`` take one (B, ·) view or a (V, B, ·) stack of
    views; each view's products and row sums are the 2-D call's, bit for bit.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    normalize: bool

    @classmethod
    def init(
        cls,
        input_dim: int,
        hidden_dim: int,
        embed_dim: int,
        normalize: bool,
        rng: np.random.Generator,
    ) -> "Encoder":
        return cls(
            w1=rng.normal(0.0, 1.0 / np.sqrt(input_dim), (input_dim, hidden_dim)),
            b1=np.zeros(hidden_dim),
            w2=rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), (hidden_dim, embed_dim)),
            b2=np.zeros(embed_dim),
            normalize=normalize,
        )

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        h = np.tanh(x @ self.w1 + self.b1)
        z = h @ self.w2 + self.b2
        emb, norms = normalize_rows(z) if self.normalize else (z, None)
        return emb, {"x": x, "h": h, "z": z, "norms": norms}

    def encode(self, x: np.ndarray) -> np.ndarray:
        return self.forward(np.asarray(x, dtype=np.float64))[0]

    def backward(self, cache: dict, grad_emb: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients given d(loss)/d(embedding).

        For a stack each view's gradient is reduced over its own rows, and
        the views' gradients are then added in view order.
        """
        x, h, z, norms = cache["x"], cache["h"], cache["z"], cache["norms"]
        if self.normalize:
            # emb = z / n with n = sqrt(|z|^2 + eps^2):
            # d(emb)/dz = I/n - z z^T / n^3.
            dot = (grad_emb * z).sum(axis=-1)
            gz = grad_emb / norms[..., None] - z * (dot / norms**3)[..., None]
        else:
            gz = grad_emb
        ga = (gz @ self.w2.T) * (1.0 - h * h)
        grads = {
            "w1": np.swapaxes(x, -1, -2) @ ga,
            "b1": ga.sum(axis=-2),
            "w2": np.swapaxes(h, -1, -2) @ gz,
            "b2": gz.sum(axis=-2),
        }
        if gz.ndim == 3:
            return {key: val.sum(axis=0) for key, val in grads.items()}
        return grads

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def variant_spec(name: str) -> VariantSpec:
    try:
        return STUDY_VARIANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown variant {name!r}; expected one of {sorted(STUDY_VARIANTS)}"
        ) from None


def batch_loss_inputs(summaries, spec: VariantSpec) -> tuple[BatchPartition, KernelMatrix | None]:
    """losses.batch_inputs of a batch's MetadataSummary list for the variant."""
    return batch_inputs(*summary_columns(summaries), spec.kernel)


class StudyCell(NamedTuple):
    """A dataset and one variant's labeled kernel, built once: ``exam_class[i]``
    is exam i's class in the K x K ``table``, or -1 if unlabeled."""

    dataset: SynthDataset
    spec: VariantSpec
    exam_class: np.ndarray
    table: np.ndarray | None

    def groups(self, idx: np.ndarray) -> list:
        """The decoupled loss groups of the exams idx, as a batch in that order."""
        classes = self.exam_class[idx]
        labeled = classes >= 0
        return _decoupled_groups(
            labeled.nonzero()[0],
            (~labeled).nonzero()[0],
            (classes[labeled], self.table),
            self.spec.global_uniformity,
        )


def study_cell(config: SynthConfig, dataset: SynthDataset, variant: str) -> StudyCell:
    """The cell of variant, summarized with config.epsilon and its trusted source."""
    spec = variant_spec(variant)
    summaries = summarize_votes(vote_columns(dataset.annotations), config.epsilon, spec.trusted)
    partition, kernel = batch_inputs(*summaries, spec.kernel)
    exam_class = np.full(len(dataset.labels), -1)
    if kernel is None:
        return StudyCell(dataset, spec, exam_class, None)
    exam_class[list(partition.labeled)] = kernel.classes
    return StudyCell(dataset, spec, exam_class, kernel.weights)


def _paired_rows(order: np.ndarray, batch_size: int) -> np.ndarray:
    """order cut into batches, each batch's rows twice in a row: view 1, view 2."""
    cut = len(order) - len(order) % batch_size
    tail = order[cut:]
    whole = np.repeat(order[:cut].reshape(-1, 1, batch_size), 2, axis=1)
    return np.concatenate((whole.ravel(), tail, tail))


def train(
    config: SynthConfig, cell: StudyCell, rng: np.random.Generator
) -> tuple[Encoder, list[float]]:
    """SGD on the cell's decoupled loss over augmented view pairs.

    An epoch draws all its augmentation noise in one call, batch by batch
    and view 1 before view 2, which are the values one draw per view would
    give; a step runs the encoder once on its (2, B, ·) stack of views.
    Returns the trained encoder and per-epoch mean batch losses.  Raises
    TrainingDivergedError on the first non-finite embedding, loss or gradient.
    """
    encoder = Encoder.init(
        config.input_dim,
        config.hidden_dim,
        config.embed_dim,
        config.normalize_embeddings,
        rng,
    )
    n = len(cell.exam_class)
    velocity = {k: np.zeros_like(v) for k, v in encoder.params().items()}
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        rows = _paired_rows(order, config.batch_size)
        views = augment(cell.dataset.features[rows], config.aug_sigma, rng)
        batch_losses: list[float] = []
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            x = views[2 * start : 2 * (start + len(idx))].reshape(2, len(idx), -1)
            emb, cache = encoder.forward(x)
            try:
                batch = ViewPairBatch(emb[0], emb[1])
            except ValueError as exc:  # the views' shapes match, so only non-finite values fail
                raise TrainingDivergedError(epoch, batch_index, None) from exc
            groups = cell.groups(idx)
            terms, grad = _gradient(batch, groups)
            total = _total(terms)
            if not (np.isfinite(total) and np.isfinite(grad).all()):
                raise TrainingDivergedError(epoch, batch_index, _breakdown(groups, terms))
            pgrads = encoder.backward(cache, grad)
            params = encoder.params()
            for key in params:
                velocity[key] = config.momentum * velocity[key] - config.learning_rate * pgrads[key]
                params[key] += velocity[key]
            batch_losses.append(total)
        epoch_losses.append(float(np.mean(batch_losses)) if batch_losses else 0.0)
    return encoder, epoch_losses


def linear_probe(
    embeddings: np.ndarray, labels: np.ndarray | list[int], seed: int
) -> tuple[float, float]:
    """Logistic regression on a 70/30 split of frozen embeddings.

    Trained by plain full-batch gradient descent; returns held-out
    accuracy and ROC AUC.  A split that strands one class on either side
    is redrawn once, then rejected.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("embeddings (N, D) and labels (N,) must align")
    if len(x) < 20:
        raise ValueError("probe needs at least 20 samples")
    if len(np.unique(y)) != 2:
        raise ValueError("probe needs both classes present")
    rng = np.random.default_rng(seed)
    n_train = int(round(0.7 * len(x)))
    for attempt in range(2):
        perm = rng.permutation(len(x))
        tr, te = perm[:n_train], perm[n_train:]
        if len(np.unique(y[tr])) == 2 and len(np.unique(y[te])) == 2:
            break
    else:
        raise ValueError("probe split left a single class after one redraw")
    w = np.zeros(x.shape[1])
    b = 0.0
    x_tr, y_tr = x[tr], y[tr]
    for _ in range(500):
        logits = x_tr @ w + b
        p = 0.5 + 0.5 * np.tanh(0.5 * logits)  # the logistic, without exp overflow
        err = p - y_tr
        w -= 0.5 * (x_tr.T @ err) / len(tr)
        b -= 0.5 * float(err.mean())
    test_logits = x[te] @ w + b
    acc = float(((test_logits > 0.0).astype(int) == y[te]).mean())
    auc = roc_auc(test_logits, y[te])
    return acc, auc


# ---------------------------------------------------------------------------
# Study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellRecord:
    variant: str
    seed: int
    probe_acc: float | None = None
    probe_auc: float | None = None
    align: float | None = None
    unif: float | None = None
    final_loss: float | None = None
    breakdown: LossBreakdown | None = None
    epoch_losses: tuple[float, ...] = ()
    error: str | None = None

    def as_dict(self) -> dict:
        return dict(
            vars(self),
            breakdown=self.breakdown.as_dict() if self.breakdown else None,
            epoch_losses=list(self.epoch_losses),
        )


SUMMARY_FIELDS = ("probe_acc", "probe_auc", "align", "unif", "final_loss")


@dataclass(frozen=True)
class StudyReport:
    config: SynthConfig
    variants: tuple[str, ...]
    seeds: tuple[int, ...]
    records: tuple[CellRecord, ...]

    def aggregates(self) -> dict[str, dict[str, dict[str, float | int]]]:
        """Per-variant mean/std/n of each summary field over clean cells."""
        out: dict[str, dict[str, dict[str, float | int]]] = {}
        for variant in self.variants:
            rows = [r for r in self.records if r.variant == variant and r.error is None]
            stats: dict[str, dict[str, float | int]] = {}
            for fname in SUMMARY_FIELDS:
                vals = np.array([getattr(r, fname) for r in rows], dtype=np.float64)
                if len(vals):
                    stats[fname] = {
                        "mean": float(vals.mean()),
                        "std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
                        "n": len(vals),
                    }
                else:
                    stats[fname] = {"mean": None, "std": None, "n": 0}  # type: ignore[dict-item]
            out[variant] = stats
        return out

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "variants": list(self.variants),
            "seeds": list(self.seeds),
            "records": [r.as_dict() for r in self.records],
            "aggregates": self.aggregates(),
        }


def _evaluate_cell(
    config: SynthConfig, cell: StudyCell, encoder: Encoder, eval_rng: np.random.Generator
) -> tuple[float, float, LossBreakdown]:
    features = cell.dataset.features
    v1 = augment(features, config.aug_sigma, eval_rng)
    v2 = augment(features, config.aug_sigma, eval_rng)
    batch = ViewPairBatch(encoder.encode(v1), encoder.encode(v2))
    d = pairwise_distances(batch)
    n = batch.n
    align = float(np.trace(d) / n)
    # One copy of the off-diagonal distances, in row-major order, is
    # exponentiated in place and freed before the loss blocks are built.
    e = np.delete(d.ravel(), np.arange(0, d.size, n + 1))
    unif = float(np.log(np.exp(np.negative(e, out=e), out=e).mean())) if n >= 2 else 0.0
    del e
    # The decoupled loss over every exam reads the diagnostics' distance matrix.
    groups = cell.groups(np.arange(n))
    breakdown = _breakdown(groups, _evaluate(batch, groups, d)[0])
    return align, unif, breakdown


def _run_cell(config: SynthConfig, variant: str, seed: int, dataset: SynthDataset) -> CellRecord:
    try:
        # Per-cell streams keyed on the variant's registry position and the
        # seed value, not on list positions, so a cell's record is the same
        # in any study that runs it.
        cell_ss = np.random.SeedSequence((config.seed, list(STUDY_VARIANTS).index(variant), seed))
        train_ss, eval_ss, probe_ss = cell_ss.spawn(3)
        cell = study_cell(config, dataset, variant)
        encoder, epoch_losses = train(config, cell, np.random.default_rng(train_ss))
        align, unif, breakdown = _evaluate_cell(config, cell, encoder, np.random.default_rng(eval_ss))
        probe_seed = int(probe_ss.generate_state(1)[0])
        acc, auc = linear_probe(encoder.encode(dataset.features), dataset.labels, probe_seed)
        return CellRecord(
            variant=variant,
            seed=seed,
            probe_acc=acc,
            probe_auc=auc,
            align=align,
            unif=unif,
            final_loss=breakdown.total,
            breakdown=breakdown,
            epoch_losses=tuple(epoch_losses),
        )
    # A cell that fails on its data (divergence, a degenerate batch, a bad
    # probe split) is recorded and the study keeps going; any other
    # exception is a bug and escapes.
    except (RuntimeError, ValueError) as exc:
        return CellRecord(variant=variant, seed=seed, error=f"{type(exc).__name__}: {exc}")


def _usable_cpus() -> int:
    """CPUs this process may run on, where the platform can say so."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_study(
    config: SynthConfig,
    variants: tuple[str, ...] | list[str] | None = None,
    seeds: tuple[int, ...] | list[int] | None = None,
    workers: int = 1,
) -> StudyReport:
    """Sweep variant x seed cells and aggregate.

    Every cell is independent and owns RNG streams derived from
    (config.seed, the variant's position in STUDY_VARIANTS, the seed
    value), so a cell's record is the same for any worker count, variant
    order or set of other cells.  Workers never exceed the number of cells
    or of usable CPUs.  Repeated variants, repeated seeds and
    negative seeds are rejected; a cell that raises RuntimeError or
    ValueError records its error and leaves the rest of the study running.
    """
    variants = tuple(variants) if variants is not None else tuple(STUDY_VARIANTS)
    seeds = tuple(seeds) if seeds is not None else DEFAULT_STUDY_SEEDS
    for name, values in (("variants", variants), ("seeds", seeds)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ValueError(f"duplicate {name}: {repeated}")
    if any(s < 0 for s in seeds):
        raise ValueError(f"seeds must be >= 0, got {sorted(s for s in seeds if s < 0)}")
    for v in variants:
        variant_spec(v)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # A dataset depends on the seed only: each is built once, and every
    # variant at that seed trains on the same exams.
    datasets = {seed: generate_dataset(config, seed) for seed in seeds}
    args = [(config, variant, seed, datasets[seed]) for variant in variants for seed in seeds]
    workers = min(workers, len(args), _usable_cpus())
    if workers <= 1:
        records = [_run_cell(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_cell, *zip(*args)))
    return StudyReport(config, variants, seeds, tuple(records))
