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
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import expit

from .detection import roc_auc
from .losses import (
    BatchPartition,
    LossBreakdown,
    ViewPairBatch,
    _distance_loss,
    loss_gradient,
    pairwise_distances,
    partition_batch,
)
from .metadata import (
    DEFAULT_EPSILON,
    AnnotationVector,
    KernelMatrix,
    KernelVariant,
    Source,
    kernel_matrix,
    summarize,
)

__all__ = [
    "WORKERS_ENV",
    "DEFAULT_STUDY_SEEDS",
    "STUDY_VARIANTS",
    "variant_spec",
    "batch_loss_inputs",
    "TrainingDivergedError",
    "AnnotatorParams",
    "SynthConfig",
    "SynthExam",
    "VariantSpec",
    "Encoder",
    "CellRecord",
    "StudyReport",
    "default_config",
    "config_from_dict",
    "generate_dataset",
    "simulate_annotators",
    "augment",
    "train",
    "linear_probe",
    "run_study",
]

WORKERS_ENV = "CONFCL_THREADS"
DEFAULT_STUDY_SEEDS = tuple(range(10))

# Keeps row normalization differentiable for an all-zero embedding row.
EPS_NORM = 1e-12


class TrainingDivergedError(RuntimeError):
    """Non-finite loss or gradient; carries where it happened."""

    def __init__(self, epoch: int, batch_index: int, breakdown: LossBreakdown):
        super().__init__(
            f"non-finite loss/gradient at epoch {epoch}, batch {batch_index}: "
            f"{breakdown.as_dict()}"
        )
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
    variant: str = "proposed"
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-2
    momentum: float = 0.0
    seed: int = 0
    normalize_embeddings: bool = True
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if self.n_exams < 0:
            raise ValueError("n_exams must be >= 0")
        for name in ("input_dim", "hidden_dim", "embed_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("class_separation", "noise_sigma", "aug_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if not (0.0 <= self.frac_unlabeled <= 1.0):
            raise ValueError("frac_unlabeled outside [0, 1]")
        if self.variant not in STUDY_VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {sorted(STUDY_VARIANTS)}"
            )
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum outside [0, 1)")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon outside (0, 1]")

    def as_dict(self) -> dict:
        return asdict(self)


def default_config() -> SynthConfig:
    return SynthConfig()


def config_from_dict(raw: dict) -> SynthConfig:
    data = dict(raw)
    annotator = data.pop("annotator", None)
    known = set(SynthConfig.__dataclass_fields__) - {"annotator"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if annotator is not None:
        extra = set(annotator) - set(AnnotatorParams.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown annotator fields: {sorted(extra)}")
        data["annotator"] = AnnotatorParams(**annotator)
    return SynthConfig(**data)


@dataclass(frozen=True)
class SynthExam:
    exam_id: str
    features: np.ndarray
    true_label: int
    annotation: AnnotationVector


@dataclass(frozen=True)
class VariantSpec:
    """How one ablation variant uses metadata and shapes the loss."""

    name: str
    kernel: KernelVariant | None  # None: ignore metadata, everything unlabeled
    global_uniformity: bool = False
    epsilon: float | None = None  # overrides the config single-vote confidence


STUDY_VARIANTS: dict[str, VariantSpec] = {
    "proposed": VariantSpec("proposed", KernelVariant.PROPOSED),
    "hc": VariantSpec("hc", KernelVariant.HIGH_CONFIDENCE),
    "majority": VariantSpec("majority", KernelVariant.MAJORITY_VOTING),
    # Trust single-report exams fully; multi-vote confidences never use
    # the floor, so a global override only promotes one-vote exams.
    "biopsy": VariantSpec("biopsy", KernelVariant.PROPOSED, epsilon=1.0),
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
    return AnnotationVector(
        exam_id, tuple(votes), tuple(Source.PIRADS for _ in votes)
    )


def generate_dataset(config: SynthConfig, seed: int) -> list[SynthExam]:
    """Balanced two-class Gaussian exams with simulated annotations.

    Class means sit at +/- class_separation/2 along the first feature
    axis.  Deterministic for a fixed (config, seed).
    """
    rng = np.random.default_rng(seed)
    exams: list[SynthExam] = []
    for i in range(config.n_exams):
        label = i % 2
        mean = np.zeros(config.input_dim)
        mean[0] = (0.5 if label == 1 else -0.5) * config.class_separation
        features = mean + rng.normal(0.0, config.noise_sigma, config.input_dim)
        annotation = simulate_annotators(
            f"exam-{i:05d}", label, config.annotator, rng, config.frac_unlabeled
        )
        exams.append(SynthExam(f"exam-{i:05d}", features, label, annotation))
    return exams


def augment(features: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian jitter; sigma 0 returns the input exactly."""
    feats = np.asarray(features, dtype=np.float64)
    if sigma == 0.0:
        return feats.copy()
    return feats + rng.normal(0.0, sigma, feats.shape)


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


@dataclass
class Encoder:
    """Affine -> tanh -> affine, with optional output row normalization."""

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
        if self.normalize:
            norms = np.sqrt((z * z).sum(axis=1) + EPS_NORM**2)
            emb = z / norms[:, None]
        else:
            norms = None
            emb = z
        return emb, {"x": x, "h": h, "z": z, "norms": norms}

    def encode(self, x: np.ndarray) -> np.ndarray:
        return self.forward(np.asarray(x, dtype=np.float64))[0]

    def backward(self, cache: dict, grad_emb: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients for one view given d(loss)/d(embedding)."""
        x, h, z, norms = cache["x"], cache["h"], cache["z"], cache["norms"]
        if self.normalize:
            # emb = z / n with n = sqrt(|z|^2 + eps^2):
            # d(emb)/dz = I/n - z z^T / n^3.
            dot = (grad_emb * z).sum(axis=1)
            gz = grad_emb / norms[:, None] - z * (dot / norms**3)[:, None]
        else:
            gz = grad_emb
        gw2 = h.T @ gz
        gb2 = gz.sum(axis=0)
        gh = gz @ self.w2.T
        ga = gh * (1.0 - h * h)
        return {
            "w1": x.T @ ga,
            "b1": ga.sum(axis=0),
            "w2": gw2,
            "b2": gb2,
        }

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


def _summaries_for(exams: list[SynthExam], config: SynthConfig, spec: VariantSpec):
    epsilon = spec.epsilon if spec.epsilon is not None else config.epsilon
    return [summarize(e.annotation, epsilon) for e in exams]


def batch_loss_inputs(summaries, spec: VariantSpec):
    """Partition a batch's summaries and build the labeled-block kernel."""
    if spec.kernel is None:
        partition = BatchPartition((), tuple(range(len(summaries))), ())
        return partition, None
    partition = partition_batch(summaries, spec.kernel)
    kernel = (
        kernel_matrix(list(partition.labeled_summaries), spec.kernel)
        if partition.labeled
        else None
    )
    return partition, kernel


def train(
    config: SynthConfig,
    exams: list[SynthExam],
    rng: np.random.Generator,
    spec: VariantSpec | None = None,
) -> tuple[Encoder, list[float]]:
    """SGD on the decoupled loss over augmented view pairs.

    Returns the trained encoder and per-epoch mean batch losses.  Raises
    TrainingDivergedError on the first non-finite loss or gradient.
    """
    spec = spec if spec is not None else variant_spec(config.variant)
    encoder = Encoder.init(
        config.input_dim,
        config.hidden_dim,
        config.embed_dim,
        config.normalize_embeddings,
        rng,
    )
    features = np.stack([e.features for e in exams]) if exams else np.zeros((0, config.input_dim))
    # Each batch's partition and kernel are slices of the whole dataset's:
    # block_row is an exam's row in the labeled block, -1 if unlabeled.
    all_partition, all_kernel = batch_loss_inputs(_summaries_for(exams, config, spec), spec)
    n = len(exams)
    block_row = np.full(n, -1)
    block_row[list(all_partition.labeled)] = np.arange(len(all_partition.labeled))
    velocity = {k: np.zeros_like(v) for k, v in encoder.params().items()}
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_losses: list[float] = []
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            feats = features[idx]
            v1 = augment(feats, config.aug_sigma, rng)
            v2 = augment(feats, config.aug_sigma, rng)
            e1, cache1 = encoder.forward(v1)
            e2, cache2 = encoder.forward(v2)
            rows = block_row[idx]
            labeled = rows >= 0
            partition = BatchPartition(
                tuple(np.flatnonzero(labeled).tolist()), tuple(np.flatnonzero(~labeled).tolist())
            )
            kernel = None
            if labeled.any():
                kernel = KernelMatrix(all_kernel.weights[np.ix_(rows[labeled], rows[labeled])])
            grads = loss_gradient(
                "decoupled", ViewPairBatch(e1, e2), partition, kernel, spec.global_uniformity
            )
            breakdown = grads.breakdown
            if not (
                np.isfinite(breakdown.total)
                and np.isfinite(grads.g1).all()
                and np.isfinite(grads.g2).all()
            ):
                raise TrainingDivergedError(epoch, batch_index, breakdown)
            pgrads = encoder.backward(cache1, grads.g1)
            for key, val in encoder.backward(cache2, grads.g2).items():
                pgrads[key] += val
            params = encoder.params()
            for key in params:
                velocity[key] = config.momentum * velocity[key] - config.learning_rate * pgrads[key]
                params[key] += velocity[key]
            batch_losses.append(breakdown.total)
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
    for _ in range(500):
        logits = x[tr] @ w + b
        p = expit(logits)
        err = p - y[tr]
        w -= 0.5 * (x[tr].T @ err) / len(tr)
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
    config: SynthConfig,
    spec: VariantSpec,
    encoder: Encoder,
    exams: list[SynthExam],
    eval_rng: np.random.Generator,
) -> tuple[float, float, LossBreakdown]:
    features = np.stack([e.features for e in exams])
    v1 = augment(features, config.aug_sigma, eval_rng)
    v2 = augment(features, config.aug_sigma, eval_rng)
    batch = ViewPairBatch(encoder.encode(v1), encoder.encode(v2))
    d = pairwise_distances(batch)
    align = float(np.trace(d) / batch.n)
    off = ~np.eye(batch.n, dtype=bool)
    unif = float(np.log(np.exp(-d[off]).mean())) if batch.n >= 2 else 0.0
    partition, kernel = batch_loss_inputs(_summaries_for(exams, config, spec), spec)
    # The decoupled loss reads the same distance matrix as the diagnostics.
    breakdown = _distance_loss("decoupled", d, partition, kernel, spec.global_uniformity)
    return align, unif, breakdown


def _run_cell(config: SynthConfig, variant: str, seed: int) -> CellRecord:
    try:
        spec = variant_spec(variant)
        # Per-cell streams keyed on the variant's registry position and the
        # seed value, not on list positions, so a cell's record is the same
        # in any study that runs it; datasets depend on the seed only, so
        # every variant sees the same exams for a given seed.
        cell_ss = np.random.SeedSequence((config.seed, list(STUDY_VARIANTS).index(variant), seed))
        train_ss, eval_ss, probe_ss = cell_ss.spawn(3)
        exams = generate_dataset(config, seed)
        encoder, epoch_losses = train(config, exams, np.random.default_rng(train_ss), spec)
        align, unif, breakdown = _evaluate_cell(
            config, spec, encoder, exams, np.random.default_rng(eval_ss)
        )
        embeddings = encoder.encode(np.stack([e.features for e in exams]))
        labels = np.array([e.true_label for e in exams])
        probe_seed = int(probe_ss.generate_state(1)[0])
        acc, auc = linear_probe(embeddings, labels, probe_seed)
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


def _cell_args(config, variants, seeds):
    return [(config, variant, seed) for variant in variants for seed in seeds]


def run_study(
    config: SynthConfig,
    variants: tuple[str, ...] | list[str] | None = None,
    seeds: tuple[int, ...] | list[int] | None = None,
    workers: int | None = None,
) -> StudyReport:
    """Sweep variant x seed cells and aggregate.

    Every cell is independent and owns RNG streams derived from
    (config.seed, the variant's position in STUDY_VARIANTS, the seed
    value), so a cell's record is the same for any worker count, variant
    order or set of other cells.  Workers default to the CONFCL_THREADS
    environment variable (1 if unset) and never exceed the number of
    cells or of usable CPUs.  Repeated variants, repeated seeds and
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
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV}={raw!r} is not an integer") from None
    if workers < 1:
        raise ValueError("workers must be >= 1")
    args = _cell_args(config, variants, seeds)
    workers = min(workers, len(args), _usable_cpus())
    if workers <= 1:
        records = [_run_cell(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_cell, *zip(*args)))
    return StudyReport(config, variants, seeds, tuple(records))
