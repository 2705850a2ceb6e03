"""Synthetic benchmark tests: data generation, training, probing, studies."""

import dataclasses
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from confcl.bench import (
    DEFAULT_STUDY_SEEDS,
    STUDY_VARIANTS,
    SUMMARY_FIELDS,
    AnnotatorParams,
    CellRecord,
    Encoder,
    StudyReport,
    SynthConfig,
    TrainingDivergedError,
    augment,
    batch_loss_inputs,
    config_from_dict,
    default_config,
    generate_dataset,
    linear_probe,
    run_study,
    simulate_annotators,
    study_cell,
    train,
    variant_spec,
)
from confcl.detection import DynamicThresholdParams
from confcl.losses import (
    BatchPartition,
    ViewPairBatch,
    loss_decoupled,
    loss_gradient,
    pairwise_distances,
)
from confcl.metadata import (
    AnnotationError,
    KernelMatrix,
    KernelVariant,
    MetadataSummary,
    Source,
    kernel_matrix,
    summarize,
    summarize_batch,
)

# ---------------------------------------------------------------------------
# Config


def test_default_config_committed_values():
    cfg = default_config()
    assert cfg.n_exams == 512
    assert cfg.input_dim == 16
    assert cfg.hidden_dim == 32
    assert cfg.embed_dim == 8
    assert cfg.class_separation == 2.0
    assert cfg.noise_sigma == 1.0
    assert cfg.aug_sigma == 0.5
    assert cfg.annotator == AnnotatorParams(n_min=1, n_max=7, p_flip=0.3, p_abstain=0.1)
    assert cfg.frac_unlabeled == 0.3
    assert cfg.epochs == 30
    assert cfg.batch_size == 16
    assert cfg.learning_rate == 1e-2
    assert cfg.momentum == 0.0
    assert cfg.seed == 0
    assert cfg.normalize_embeddings is True
    assert cfg.epsilon == 0.1


def test_config_dict_round_trip():
    cfg = SynthConfig(
        n_exams=20,
        annotator=AnnotatorParams(2, 5, 0.2, 0.0),
        epsilon=0.25,
    )
    assert config_from_dict(cfg.as_dict()) == cfg


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields.*learning_rte"):
        config_from_dict({"learning_rte": 0.1})
    with pytest.raises(ValueError, match="unknown annotator fields.*p_flp"):
        config_from_dict({"annotator": {"p_flp": 0.1}})


@pytest.mark.parametrize(
    "raw, message",
    [
        ([1, 2], "config must be a JSON object, got list"),
        ({"annotator": 5}, "annotator must be a JSON object, got int"),
        ({"annotator": [1]}, "annotator must be a JSON object, got list"),
        ({"annotator": None}, "annotator must be a JSON object, got NoneType"),
    ],
)
def test_config_from_dict_wants_json_objects(raw, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_exams": -1},
        {"input_dim": 0},
        {"hidden_dim": 0},
        {"embed_dim": 0},
        {"batch_size": 0},
        {"class_separation": -0.5},
        {"noise_sigma": -1.0},
        {"aug_sigma": -1.0},
        {"frac_unlabeled": 1.5},
        {"epochs": -1},
        {"learning_rate": -1e-3},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"epsilon": 0.0},
        {"epsilon": 1.5},
        {"epochs": 2.5},
        {"n_exams": 40.0},
        {"input_dim": 16.0},
        {"hidden_dim": "32"},
        {"embed_dim": 8.0},
        {"batch_size": 16.5},
        {"seed": 1.0},
        {"seed": -1},
        {"epochs": True},
        {"batch_size": True},
        {"normalize_embeddings": "no"},
        {"normalize_embeddings": 1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SynthConfig(**kwargs)


def test_config_epsilon_follows_the_metadata_rule():
    for bad in (0.0, 1.5, float("nan")):
        with pytest.raises(AnnotationError, match=rf"^epsilon {bad} outside \(0, 1\]$"):
            SynthConfig(epsilon=bad)


@pytest.mark.parametrize("bad", [True, "0.5", float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize(
    "make, name",
    [(SynthConfig, f) for f in ("class_separation", "noise_sigma", "aug_sigma", "frac_unlabeled")]
    + [(SynthConfig, f) for f in ("learning_rate", "momentum", "epsilon")]
    + [(AnnotatorParams, f) for f in ("p_flip", "p_abstain")],
)
def test_float_fields_reject_bools_strings_and_non_finite_values(make, name, bad):
    # True would pass every range check, a string fail them with a
    # TypeError, and nan or inf pass the open-ended ones.
    with pytest.raises(ValueError, match=rf"^{name} "):
        make(**{name: bad})


# Two wrong values per declared type; AnnotatorParams is SynthConfig.annotator's type.
_WRONG_VALUES = {
    "int": (True, 2.0),
    "float": (True, "0.5"),
    "bool": (1, "no"),
    "AnnotatorParams": (None, {"n_min": 1}),
}
_NOUNS = {"int": "an integer", "float": "a number", "bool": "a bool", "AnnotatorParams": "an AnnotatorParams"}


@pytest.mark.parametrize(
    "make, name, kind, bad",
    [
        pytest.param(make, f.name, f.type, bad, id=f"{make.__name__}.{f.name}={bad!r}")
        for make in (SynthConfig, AnnotatorParams, DynamicThresholdParams)
        for f in dataclasses.fields(make)
        for bad in _WRONG_VALUES[f.type]
    ],
)
def test_every_settings_field_rejects_values_not_of_its_declared_type(make, name, kind, bad):
    with pytest.raises(ValueError) as info:
        make(**{name: bad})
    assert type(info.value) is ValueError
    assert str(info.value) == f"{name} must be {_NOUNS[kind]}, got {bad!r}"


def test_config_allows_zero_learning_rate():
    assert SynthConfig(learning_rate=0.0).learning_rate == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_min": 0},
        {"n_max": 8},
        {"n_min": 5, "n_max": 3},
        {"p_flip": -0.1},
        {"p_abstain": 1.1},
        {"n_min": 1.0},
        {"n_max": 6.5},
        {"n_min": True},
    ],
)
def test_annotator_params_validation(kwargs):
    with pytest.raises(ValueError):
        AnnotatorParams(**kwargs)


# ---------------------------------------------------------------------------
# Dataset generation


def test_generate_dataset_deterministic():
    cfg = SynthConfig(n_exams=16)
    a = generate_dataset(cfg, seed=3)
    b = generate_dataset(cfg, seed=3)
    assert a.features.shape == b.features.shape == (16, cfg.input_dim)
    assert len(a.labels) == len(b.labels) == len(a.annotations) == len(b.annotations) == 16
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.features, b.features)
    assert a.annotations == b.annotations


def test_generate_dataset_different_seeds_differ():
    cfg = SynthConfig(n_exams=16)
    a = generate_dataset(cfg, seed=0)
    b = generate_dataset(cfg, seed=1)
    assert not np.array_equal(a.features[0], b.features[0])


def test_generate_dataset_balanced_alternating_labels():
    cfg = SynthConfig(n_exams=10)
    data = generate_dataset(cfg, seed=0)
    assert data.labels.tolist() == [0, 1] * 5
    assert data.annotations[0].exam_id == "exam-00000"
    assert data.annotations[9].exam_id == "exam-00009"


def test_generate_dataset_noise_free_class_means():
    cfg = SynthConfig(
        n_exams=4,
        input_dim=3,
        noise_sigma=0.0,
        class_separation=4.0,
        frac_unlabeled=0.0,
    )
    data = generate_dataset(cfg, seed=0)
    assert np.array_equal(data.features[0], [-2.0, 0.0, 0.0])
    assert np.array_equal(data.features[1], [2.0, 0.0, 0.0])


def test_generate_dataset_empty():
    data = generate_dataset(SynthConfig(n_exams=0), seed=0)
    assert data.features.shape == (0, SynthConfig().input_dim)
    assert len(data.labels) == 0 and data.annotations == ()


def test_generate_dataset_clean_votes_match_labels():
    cfg = SynthConfig(
        n_exams=12,
        annotator=AnnotatorParams(3, 3, 0.0, 0.0),
        frac_unlabeled=0.0,
    )
    data = generate_dataset(cfg, seed=5)
    for label, annotation in zip(data.labels, data.annotations, strict=True):
        assert annotation.votes == (label,) * 3
        assert all(s is Source.PIRADS for s in annotation.sources)


def test_clean_votes_give_unit_confidence_and_label_equality_kernel():
    # Noise-free annotators reduce every variant's kernel to agreement.
    cfg = SynthConfig(
        n_exams=8,
        annotator=AnnotatorParams(3, 3, 0.0, 0.0),
        frac_unlabeled=0.0,
    )
    data = generate_dataset(cfg, seed=2)
    summaries = summarize_batch(list(data.annotations))
    labels = data.labels
    for s, label in zip(summaries, labels, strict=True):
        assert s.label == label
        assert s.confidence == 1.0
    agreement = (labels[:, None] == labels[None, :]).astype(np.float64)
    # Unit confidences saturate the min rule; the flat-weight variants
    # still cap cross-exam agreement at 0.8.
    capped = np.where(agreement == 1.0, 0.8, 0.0)
    np.fill_diagonal(capped, 1.0)
    for variant in KernelVariant:
        got = kernel_matrix(summaries, variant).weights
        expected = agreement if variant is KernelVariant.PROPOSED else capped
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# Annotator simulation


def test_simulate_annotators_vote_count_and_sources():
    rng = np.random.default_rng(0)
    params = AnnotatorParams(4, 4, 0.0, 0.0)
    vec = simulate_annotators("e", 1, params, rng)
    assert vec.exam_id == "e"
    assert vec.votes == (1, 1, 1, 1)
    assert vec.sources == (Source.PIRADS,) * 4


def test_simulate_annotators_flip_rate():
    # 1e5 single-annotator draws; the flip fraction should sit near p_flip.
    rng = np.random.default_rng(42)
    params = AnnotatorParams(1, 1, 0.3, 0.0)
    flips = 0
    for _ in range(100_000):
        vec = simulate_annotators("e", 0, params, rng)
        flips += vec.votes[0]
    assert abs(flips / 100_000 - 0.3) < 0.01


def test_simulate_annotators_tag_a_lone_vote_isup_and_more_votes_pirads():
    rng = np.random.default_rng(2)
    for n in range(1, 8):
        vec = simulate_annotators("e", 1, AnnotatorParams(n, n, 0.0, 0.0), rng)
        assert vec.sources == ((Source.ISUP,) if n == 1 else (Source.PIRADS,) * n)
    # The tag follows the votes left after abstentions, not the annotator count.
    counts = set()
    for _ in range(200):
        vec = simulate_annotators("e", 0, AnnotatorParams(1, 7, 0.3, 0.5), rng)
        assert vec.sources == ((Source.ISUP,) if vec.n == 1 else (Source.PIRADS,) * vec.n)
        counts.add(vec.n)
    assert {0, 1, 2} <= counts
    emptied = simulate_annotators("e", 1, AnnotatorParams(3, 3, 0.0, 0.0), rng, frac_unlabeled=1.0)
    assert (emptied.votes, emptied.sources) == ((), ())


def test_simulate_annotators_full_dropout():
    rng = np.random.default_rng(1)
    params = AnnotatorParams(3, 3, 0.0, 0.0)
    for _ in range(50):
        vec = simulate_annotators("e", 1, params, rng, frac_unlabeled=1.0)
        assert vec.votes == ()


def test_simulate_annotators_full_abstention():
    rng = np.random.default_rng(1)
    params = AnnotatorParams(3, 3, 0.0, 1.0)
    vec = simulate_annotators("e", 1, params, rng)
    assert vec.votes == ()


# ---------------------------------------------------------------------------
# Augmentation


def test_augment_sigma_zero_is_identity_copy():
    rng = np.random.default_rng(0)
    x = np.arange(6.0).reshape(2, 3)
    out = augment(x, 0.0, rng)
    assert np.array_equal(out, x)
    assert out is not x


def test_augment_noise_scale():
    rng = np.random.default_rng(7)
    x = np.zeros((100_000, 1))
    out = augment(x, 0.5, rng)
    assert abs(out.std() - 0.5) < 0.01


def test_augment_draws_advance_rng():
    rng = np.random.default_rng(3)
    x = np.zeros((4, 2))
    assert not np.array_equal(augment(x, 1.0, rng), augment(x, 1.0, rng))


# ---------------------------------------------------------------------------
# Encoder


def test_encoder_init_shapes():
    enc = Encoder.init(5, 7, 3, True, np.random.default_rng(0))
    assert enc.w1.shape == (5, 7)
    assert enc.b1.shape == (7,)
    assert enc.w2.shape == (7, 3)
    assert enc.b2.shape == (3,)
    assert np.array_equal(enc.b1, np.zeros(7))
    assert np.array_equal(enc.b2, np.zeros(3))


def test_encoder_normalized_rows_are_unit():
    enc = Encoder.init(4, 6, 3, True, np.random.default_rng(1))
    emb = enc.encode(np.random.default_rng(2).normal(size=(10, 4)))
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)


def test_encoder_normalization_survives_zero_output():
    # The norm floor keeps an exactly-zero embedding row finite.
    enc = Encoder.init(4, 6, 3, True, np.random.default_rng(1))
    enc.w2 = np.zeros_like(enc.w2)
    emb = enc.encode(np.ones((2, 4)))
    assert np.isfinite(emb).all()


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("rows", [1, 3, 16])
def test_encoder_on_a_view_stack_equals_per_view_calls_bitwise(normalize, rows):
    rng = np.random.default_rng(rows)
    enc = Encoder.init(5, 7, 3, normalize, rng)
    x = rng.normal(size=(2, rows, 5))
    grad = rng.normal(size=(2, rows, 3))
    emb, cache = enc.forward(x)
    per_view = [enc.forward(x[v]) for v in (0, 1)]
    for v, (emb_v, _) in enumerate(per_view):
        assert np.array_equal(emb[v], emb_v)
    stacked = enc.backward(cache, grad)
    first, second = (enc.backward(cache_v, grad[v]) for v, (_, cache_v) in enumerate(per_view))
    assert set(stacked) == set(first)
    for key in first:
        assert np.array_equal(stacked[key], first[key] + second[key])


def _tiny_loss_setup():
    """Fixed 4-exam batch (3 labeled + 1 unlabeled) under the min-rule kernel."""
    summaries = [
        MetadataSummary.labeled("a", 1, 1.0),
        MetadataSummary.labeled("b", 1, 0.5),
        MetadataSummary.labeled("c", 0, 0.2),
        MetadataSummary.unlabeled("d"),
    ]
    partition, kernel = batch_loss_inputs(summaries, variant_spec("proposed"))
    rng = np.random.default_rng(13)
    v1 = rng.normal(size=(4, 3))
    v2 = rng.normal(size=(4, 3))
    return partition, kernel, v1, v2


def _param_gradients(encoder, partition, kernel, v1, v2):
    e1, cache1 = encoder.forward(v1)
    e2, cache2 = encoder.forward(v2)
    grads = loss_gradient("decoupled", ViewPairBatch(e1, e2), partition, kernel, False)
    out = encoder.backward(cache1, grads.g1)
    for key, val in encoder.backward(cache2, grads.g2).items():
        out[key] += val
    return out


@pytest.mark.parametrize("normalize", [False, True])
def test_encoder_backward_matches_finite_differences(normalize):
    partition, kernel, v1, v2 = _tiny_loss_setup()
    encoder = Encoder.init(3, 4, 2, normalize, np.random.default_rng(5))
    analytic = _param_gradients(encoder, partition, kernel, v1, v2)

    def total_loss():
        batch = ViewPairBatch(encoder.forward(v1)[0], encoder.forward(v2)[0])
        return loss_decoupled(batch, partition, kernel).total

    # The 1e-5 floor keeps central-difference roundoff (about 1e-10 here)
    # from dominating near-zero gradient entries.
    h = 1e-5
    worst = 0.0
    for key, arr in encoder.params().items():
        flat = arr.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = total_loss()
            flat[i] = keep - h
            down = total_loss()
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            got = analytic[key].reshape(-1)[i]
            scale = max(abs(fd), abs(got), 1e-5)
            worst = max(worst, abs(fd - got) / scale)
    assert worst <= 1e-3


# ---------------------------------------------------------------------------
# Training


def _small_config(**overrides):
    base = dict(
        n_exams=24,
        input_dim=4,
        hidden_dim=6,
        embed_dim=3,
        epochs=2,
        batch_size=8,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_train_zero_learning_rate_leaves_parameters_unchanged():
    cfg = SynthConfig(n_exams=32, epochs=2, learning_rate=0.0)
    cell = study_cell(cfg, generate_dataset(cfg, seed=1), "proposed")
    encoder, losses = train(cfg, cell, np.random.default_rng(2))
    init = Encoder.init(
        cfg.input_dim,
        cfg.hidden_dim,
        cfg.embed_dim,
        cfg.normalize_embeddings,
        np.random.default_rng(2),
    )
    assert len(losses) == 2
    for key, val in encoder.params().items():
        assert np.array_equal(val, init.params()[key])


def test_train_deterministic():
    cfg = _small_config()
    cell = study_cell(cfg, generate_dataset(cfg, seed=0), "proposed")
    enc_a, losses_a = train(cfg, cell, np.random.default_rng(4))
    enc_b, losses_b = train(cfg, cell, np.random.default_rng(4))
    assert losses_a == losses_b
    for key in enc_a.params():
        assert np.array_equal(enc_a.params()[key], enc_b.params()[key])


def test_train_loss_decreases_over_two_epochs():
    cfg = SynthConfig(epochs=2)
    cell = study_cell(cfg, generate_dataset(cfg, seed=0), "unsupervised")
    _, losses = train(cfg, cell, np.random.default_rng(7))
    assert len(losses) == 2
    assert losses[1] <= losses[0]


def test_train_zero_epochs_returns_initial_encoder():
    cfg = _small_config(epochs=0)
    cell = study_cell(cfg, generate_dataset(cfg, seed=0), "proposed")
    encoder, losses = train(cfg, cell, np.random.default_rng(9))
    init = Encoder.init(4, 6, 3, True, np.random.default_rng(9))
    assert losses == []
    for key, val in encoder.params().items():
        assert np.array_equal(val, init.params()[key])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_diverges_on_enormous_learning_rate():
    cfg = SynthConfig(
        n_exams=32,
        epochs=3,
        batch_size=8,
        learning_rate=1e280,
        normalize_embeddings=False,
        frac_unlabeled=1.0,
    )
    cell = study_cell(cfg, generate_dataset(cfg, seed=0), "unsupervised")
    with pytest.raises(TrainingDivergedError, match="epoch 0"):
        train(cfg, cell, np.random.default_rng(0))
    try:
        train(cfg, cell, np.random.default_rng(0))
    except TrainingDivergedError as err:
        assert err.epoch == 0
        assert err.batch_index == 1
        assert err.breakdown is not None


def test_train_diverges_on_non_finite_embeddings():
    # At this rate the first update overflows the parameters, so the next
    # forward pass yields non-finite embeddings before any loss is taken.
    # The overflow warns; the test expects that warning instead of letting
    # the suite-wide filter turn it into an error.
    cfg = SynthConfig(
        n_exams=32,
        epochs=3,
        batch_size=8,
        learning_rate=1e308,
        normalize_embeddings=False,
        frac_unlabeled=1.0,
    )
    cell = study_cell(cfg, generate_dataset(cfg, seed=0), "unsupervised")
    with pytest.warns(RuntimeWarning), pytest.raises(TrainingDivergedError) as info:
        train(cfg, cell, np.random.default_rng(0))
    assert (info.value.epoch, info.value.batch_index) == (0, 1)
    assert info.value.breakdown is None
    assert str(info.value) == "non-finite embeddings at epoch 0, batch 1"


def test_train_unlabeled_data_makes_variant_irrelevant():
    # Without any annotations every variant degenerates to the same loss.
    cfg = _small_config(frac_unlabeled=1.0)
    data = generate_dataset(cfg, seed=0)
    curves = [
        train(cfg, study_cell(cfg, data, name), np.random.default_rng(5))[1]
        for name in STUDY_VARIANTS
    ]
    for curve in curves[1:]:
        assert curve == curves[0]


def _reference_train(config, data, rng, spec):
    """train by the public per-batch definition: each batch's partition and
    kernel come from batch_loss_inputs over its own summaries, and its loss
    and gradient from loss_gradient.  Also returns the (|A|, |U|) sizes seen."""
    encoder = Encoder.init(
        config.input_dim, config.hidden_dim, config.embed_dim, config.normalize_embeddings, rng
    )
    features = data.features
    summaries = [summarize(a, config.epsilon, spec.trusted) for a in data.annotations]
    velocity = {k: np.zeros_like(v) for k, v in encoder.params().items()}
    epoch_losses, sizes = [], set()
    for _ in range(config.epochs):
        order = rng.permutation(len(features))
        batch_losses = []
        for start in range(0, len(features), config.batch_size):
            idx = order[start : start + config.batch_size]
            v1 = augment(features[idx], config.aug_sigma, rng)
            v2 = augment(features[idx], config.aug_sigma, rng)
            e1, cache1 = encoder.forward(v1)
            e2, cache2 = encoder.forward(v2)
            partition, kernel = batch_loss_inputs([summaries[i] for i in idx], spec)
            sizes.add((len(partition.labeled), len(partition.unlabeled)))
            grads = loss_gradient(
                "decoupled", ViewPairBatch(e1, e2), partition, kernel, spec.global_uniformity
            )
            pgrads = encoder.backward(cache1, grads.g1)
            for key, val in encoder.backward(cache2, grads.g2).items():
                pgrads[key] += val
            params = encoder.params()
            for key in params:
                velocity[key] = config.momentum * velocity[key] - config.learning_rate * pgrads[key]
                params[key] += velocity[key]
            batch_losses.append(grads.breakdown.total)
        epoch_losses.append(float(np.mean(batch_losses)))
    return encoder, epoch_losses, sizes


@pytest.mark.parametrize("aug_sigma", [0.5, 0.0])
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("variant", sorted(STUDY_VARIANTS))
def test_train_equals_public_per_batch_definition(variant, normalize, aug_sigma):
    # Batches of 3 plus a final batch of 1 give |A| and |U| of 0 and 1.
    cfg = _small_config(
        n_exams=25,
        batch_size=3,
        frac_unlabeled=0.5,
        momentum=0.5,
        epochs=2,
        normalize_embeddings=normalize,
        aug_sigma=aug_sigma,
    )
    data = generate_dataset(cfg, seed=3)
    encoder, epoch_losses = train(cfg, study_cell(cfg, data, variant), np.random.default_rng(11))
    spec = variant_spec(variant)
    ref, ref_losses, sizes = _reference_train(cfg, data, np.random.default_rng(11), spec)
    assert epoch_losses == ref_losses
    for key, val in encoder.params().items():
        assert np.array_equal(val, ref.params()[key])
    if variant == "proposed":
        assert {0, 1} <= {a for a, _ in sizes} and {0, 1} <= {u for _, u in sizes}


def _counting(counts, name, fn):
    """fn, adding one to counts[name] per call."""

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_train_validates_loss_inputs_once_per_cell_not_per_step(monkeypatch):
    counts = Counter()
    for cls in (KernelMatrix, BatchPartition):
        monkeypatch.setattr(cls, "__post_init__", _counting(counts, cls.__name__, cls.__post_init__))
    monkeypatch.setattr(np, "ix_", _counting(counts, "np.ix_", np.ix_))

    def constructions(variant, epochs):
        cfg = _small_config(epochs=epochs, frac_unlabeled=0.3)
        data = generate_dataset(cfg, seed=0)
        counts.clear()
        train(cfg, study_cell(cfg, data, variant), np.random.default_rng(3))
        return dict(counts)

    for variant in STUDY_VARIANTS:
        once = constructions(variant, 1)
        assert once["BatchPartition"] == 1
        assert constructions(variant, 3) == once


@pytest.mark.parametrize("variant", sorted(STUDY_VARIANTS))
def test_eval_cell_equals_public_loss_over_the_whole_dataset(variant):
    # The eval slices the cell's labeled block the way training steps do;
    # the validating public loss over all exams must agree bitwise.
    import confcl.bench as bench

    cfg = _small_config(n_exams=40, epochs=1)
    data = generate_dataset(cfg, seed=2)
    cell = study_cell(cfg, data, variant)
    encoder, _ = train(cfg, cell, np.random.default_rng(0))
    align, unif, breakdown = bench._evaluate_cell(cfg, cell, encoder, np.random.default_rng(1))
    rng = np.random.default_rng(1)
    v1 = augment(data.features, cfg.aug_sigma, rng)
    v2 = augment(data.features, cfg.aug_sigma, rng)
    batch = ViewPairBatch(encoder.encode(v1), encoder.encode(v2))
    spec = variant_spec(variant)
    partition, kernel = batch_loss_inputs([summarize(a, cfg.epsilon, spec.trusted) for a in data.annotations], spec)
    assert breakdown == loss_decoupled(batch, partition, kernel, spec.global_uniformity)
    assert align == float(np.trace(pairwise_distances(batch)) / batch.n)
    if variant == "proposed":
        assert breakdown.n_labeled > 1 and breakdown.n_unlabeled > 1


def test_run_cell_summarizes_each_exam_once_and_builds_one_block(monkeypatch):
    import confcl.bench as bench

    counts = Counter()
    # Looked up through the bench module, where the cell binds them: one
    # summary pass over every exam's votes, as columns.
    for name in ("summarize_votes", "batch_inputs", "generate_dataset", "train"):
        monkeypatch.setattr(bench, name, _counting(counts, name, getattr(bench, name)))
    cfg = _small_config()
    assert bench.run_study(cfg, ["proposed"], [0]).records[0].error is None
    assert counts == {
        "summarize_votes": 1,
        "batch_inputs": 1,
        "generate_dataset": 1,
        "train": 1,
    }


def _traced(f):
    """f()'s result, the bytes it allocated and still holds, and its peak."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = f()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - start, peak - start


def test_study_cell_at_2000_exams_holds_its_class_table_not_a_block():
    # The labeled block of 2000 exams is about 1200 x 1200 float64 (11 MiB);
    # the cell keeps each exam's class and the K x K table instead.
    cfg = SynthConfig(n_exams=2000)
    data = generate_dataset(cfg, seed=0)
    cell, held, _ = _traced(lambda: study_cell(cfg, data, "proposed"))
    assert np.count_nonzero(cell.exam_class >= 0) > 1000
    assert cell.table.shape[0] < 50
    assert held < 2**20


def test_eval_cell_at_2000_exams_holds_one_distance_matrix_and_one_copy():
    # One 2000 x 2000 float64 array is 30.5 MiB.  The eval keeps the
    # distances and one off-diagonal copy for the uniformity diagnostic;
    # an N x N mask and a negated copy on top of those would exceed 2.5 of them.
    cfg = SynthConfig(n_exams=2000)
    cell = study_cell(cfg, generate_dataset(cfg, seed=0), "proposed")
    encoder = Encoder.init(cfg.input_dim, cfg.hidden_dim, cfg.embed_dim, True, np.random.default_rng(0))
    import confcl.bench as bench

    _, _, peak = _traced(lambda: bench._evaluate_cell(cfg, cell, encoder, np.random.default_rng(1)))
    assert peak < 2.5 * 2000 * 2000 * 8


# ---------------------------------------------------------------------------
# Linear probe


def test_linear_probe_separable_embeddings():
    rng = np.random.default_rng(0)
    x = np.vstack([
        rng.normal(5.0, 0.1, (15, 2)),
        rng.normal(-5.0, 0.1, (15, 2)),
    ])
    y = np.array([1] * 15 + [0] * 15)
    acc, auc = linear_probe(x, y, seed=0)
    assert acc == 1.0
    assert auc == 1.0


def test_linear_probe_shuffled_labels_near_chance():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, 5))
    y = rng.permutation(np.repeat([0, 1], 150))
    _, auc = linear_probe(x, y, seed=0)
    assert 0.4 <= auc <= 0.6


def test_linear_probe_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 3))
    y = np.array([0, 1] * 20)
    assert linear_probe(x, y, seed=8) == linear_probe(x, y, seed=8)


def test_linear_probe_validation():
    x = np.zeros((19, 2))
    with pytest.raises(ValueError, match="at least 20"):
        linear_probe(x, np.array([0, 1] * 9 + [0]), seed=0)
    with pytest.raises(ValueError, match="both classes"):
        linear_probe(np.zeros((20, 2)), np.zeros(20, dtype=int), seed=0)
    with pytest.raises(ValueError, match="align"):
        linear_probe(np.zeros((20, 2)), np.array([0, 1] * 11), seed=0)


def _two_positive_probe_data():
    y = np.zeros(21, dtype=int)
    y[:2] = 1
    x = np.vstack([np.full((2, 2), 5.0), np.zeros((19, 2))])
    return x, y


def test_linear_probe_lone_positive_cannot_split():
    # One positive among 21 strands a class on every 70/30 split, so the
    # redraw cannot help and the probe must reject the data.
    y = np.zeros(21, dtype=int)
    y[0] = 1
    x = np.vstack([np.full((1, 2), 5.0), np.zeros((20, 2))])
    with pytest.raises(ValueError, match="single class after one redraw"):
        linear_probe(x, y, seed=0)


def test_linear_probe_redraw_recovers_split():
    # Seed 4 strands a class on the first draw but not the second.
    x, y = _two_positive_probe_data()
    assert linear_probe(x, y, seed=4) == (1.0, 1.0)


def test_linear_probe_gives_up_after_one_redraw():
    # Seed 9 strands a class on both draws.
    x, y = _two_positive_probe_data()
    with pytest.raises(ValueError, match="single class after one redraw"):
        linear_probe(x, y, seed=9)


# ---------------------------------------------------------------------------
# Variant specs and batch inputs


def test_study_variant_roster():
    assert tuple(STUDY_VARIANTS) == (
        "proposed",
        "hc",
        "majority",
        "biopsy",
        "glu",
        "unsupervised",
    )
    assert STUDY_VARIANTS["proposed"].kernel is KernelVariant.PROPOSED
    assert STUDY_VARIANTS["hc"].kernel is KernelVariant.HIGH_CONFIDENCE
    assert STUDY_VARIANTS["majority"].kernel is KernelVariant.MAJORITY_VOTING
    assert STUDY_VARIANTS["biopsy"].trusted is Source.ISUP
    assert STUDY_VARIANTS["glu"].global_uniformity is True
    assert STUDY_VARIANTS["unsupervised"].kernel is None


def test_variant_spec_unknown_name():
    with pytest.raises(ValueError, match="unknown variant 'mystery'"):
        variant_spec("mystery")


def test_batch_loss_inputs_unsupervised_ignores_metadata():
    summaries = [
        MetadataSummary.labeled("a", 1, 1.0),
        MetadataSummary.labeled("b", 0, 1.0),
    ]
    partition, kernel = batch_loss_inputs(summaries, variant_spec("unsupervised"))
    assert partition.labeled == ()
    assert partition.unlabeled == (0, 1)
    assert kernel is None


def test_batch_loss_inputs_mixed_batch():
    summaries = [
        MetadataSummary.labeled("a", 1, 1.0),
        MetadataSummary.unlabeled("b"),
        MetadataSummary.labeled("c", 0, 0.5),
    ]
    partition, kernel = batch_loss_inputs(summaries, variant_spec("proposed"))
    assert partition.labeled == (0, 2)
    assert partition.unlabeled == (1,)
    assert kernel.n == 2


def test_batch_loss_inputs_hc_demotes_uncertain_exams():
    summaries = [
        MetadataSummary.labeled("a", 1, 1.0),
        MetadataSummary.labeled("b", 1, 0.5),
    ]
    partition, kernel = batch_loss_inputs(summaries, variant_spec("hc"))
    assert partition.labeled == (0,)
    assert partition.unlabeled == (1,)
    assert kernel.n == 1
    partition, kernel = batch_loss_inputs(summaries, variant_spec("proposed"))
    assert partition.labeled == (0, 1)
    assert kernel.n == 2


def test_batch_loss_inputs_all_unlabeled_has_an_empty_kernel():
    summaries = [MetadataSummary.unlabeled("a"), MetadataSummary.unlabeled("b")]
    partition, kernel = batch_loss_inputs(summaries, variant_spec("proposed"))
    assert partition.labeled == ()
    assert kernel.n == 0 and kernel.weights.shape == (0, 0)


# ---------------------------------------------------------------------------
# Study sweep


def _study_json(report):
    return json.dumps(report.as_dict(), sort_keys=True)


def test_run_study_single_cell():
    report = run_study(_small_config(), variants=["proposed"], seeds=[0], workers=1)
    assert report.variants == ("proposed",)
    assert report.seeds == (0,)
    assert len(report.records) == 1
    rec = report.records[0]
    assert rec.error is None
    assert 0.0 <= rec.probe_acc <= 1.0
    assert 0.0 <= rec.probe_auc <= 1.0
    assert rec.final_loss == rec.breakdown.total
    assert len(rec.epoch_losses) == 2
    # Normalized embeddings pin the sign of the diagnostics: distances are
    # nonnegative and exp(-d) never exceeds 1.
    assert rec.align >= 0.0
    assert rec.unif <= 0.0


def test_run_study_deterministic():
    cfg = _small_config()
    a = run_study(cfg, variants=["proposed", "unsupervised"], seeds=[0, 1], workers=1)
    b = run_study(cfg, variants=["proposed", "unsupervised"], seeds=[0, 1], workers=1)
    assert _study_json(a) == _study_json(b)


def test_run_study_cell_depends_only_on_variant_and_seed():
    cfg = _small_config()
    cell = lambda report: json.dumps(
        next(r.as_dict() for r in report.records if (r.variant, r.seed) == ("unsupervised", 1)),
        sort_keys=True,
    )
    alone = cell(run_study(cfg, variants=["unsupervised"], seeds=[1], workers=1))
    for variants, seeds in (
        (["proposed", "unsupervised"], [0, 1]),
        (["unsupervised", "proposed"], [1, 0]),
        (["hc", "proposed", "unsupervised"], [2, 1]),
    ):
        assert cell(run_study(cfg, variants=variants, seeds=seeds, workers=1)) == alone


def test_run_study_worker_count_does_not_change_results():
    cfg = _small_config()
    serial = run_study(cfg, variants=["proposed", "hc"], seeds=[0], workers=1)
    parallel = run_study(cfg, variants=["proposed", "hc"], seeds=[0], workers=2)
    assert _study_json(serial) == _study_json(parallel)


def test_run_study_default_grid():
    assert DEFAULT_STUDY_SEEDS == tuple(range(10))
    assert SUMMARY_FIELDS == ("probe_acc", "probe_auc", "align", "unif", "final_loss")


def test_run_study_isolates_cell_failures(monkeypatch):
    import confcl.bench as bench

    real_train = bench.train

    def sabotaged(config, cell, rng):
        if cell.spec.name == "majority":
            raise RuntimeError("boom")
        return real_train(config, cell, rng)

    monkeypatch.setattr(bench, "train", sabotaged)
    report = bench.run_study(
        _small_config(), variants=["proposed", "majority"], seeds=[0], workers=1
    )
    by_variant = {r.variant: r for r in report.records}
    assert by_variant["proposed"].error is None
    assert by_variant["majority"].error == "RuntimeError: boom"
    assert by_variant["majority"].probe_auc is None
    agg = report.aggregates()
    assert agg["majority"]["probe_auc"]["n"] == 0
    assert agg["majority"]["probe_auc"]["mean"] is None
    assert agg["proposed"]["probe_auc"]["n"] == 1
    json.dumps(report.as_dict())  # errored cells must stay serializable


def test_run_study_lets_programming_errors_escape(monkeypatch):
    import confcl.bench as bench

    def sabotaged(config, cell, rng):
        raise TypeError("not a cell failure")

    monkeypatch.setattr(bench, "train", sabotaged)
    with pytest.raises(TypeError, match="not a cell failure"):
        bench.run_study(_small_config(), variants=["proposed"], seeds=[0], workers=1)


def test_run_study_validates_inputs():
    cfg = _small_config()
    with pytest.raises(ValueError, match="workers"):
        run_study(cfg, variants=["proposed"], seeds=[0], workers=0)
    with pytest.raises(ValueError, match="unknown variant"):
        run_study(cfg, variants=["proposed", "mystery"], seeds=[0], workers=1)
    with pytest.raises(ValueError, match="duplicate variants"):
        run_study(cfg, variants=["proposed", "proposed"], seeds=[0], workers=1)
    with pytest.raises(ValueError, match="duplicate seeds"):
        run_study(cfg, variants=["proposed"], seeds=[0, 1, 0], workers=1)
    with pytest.raises(ValueError, match="seeds must be >= 0"):
        run_study(cfg, variants=["proposed"], seeds=[0, -1], workers=1)


def _serial_pool(monkeypatch, usable_cpus):
    """Stand in a serial pool that records its size, and fix the CPU count."""
    import confcl.bench as bench

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(bench, "_usable_cpus", lambda: usable_cpus)
    return asked


def test_run_study_clamps_workers_to_cells(monkeypatch):
    asked = _serial_pool(monkeypatch, usable_cpus=8)
    cfg = _small_config()
    clamped = run_study(cfg, variants=["proposed", "hc"], seeds=[0], workers=64)
    assert asked == [2]
    serial = run_study(cfg, variants=["proposed", "hc"], seeds=[0], workers=1)
    assert _study_json(clamped) == _study_json(serial)


def test_run_study_clamps_workers_to_usable_cpus(monkeypatch):
    asked = _serial_pool(monkeypatch, usable_cpus=3)
    cfg = _small_config()
    clamped = run_study(cfg, variants=["proposed", "hc"], seeds=[0, 1], workers=64)
    assert asked == [3]
    asked = _serial_pool(monkeypatch, usable_cpus=1)
    serial = run_study(cfg, variants=["proposed", "hc"], seeds=[0, 1], workers=64)
    assert asked == []  # one usable CPU runs the cells in process, with no pool
    assert _study_json(clamped) == _study_json(serial)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_study_generates_each_seeds_dataset_once(monkeypatch, workers):
    # Every variant at a seed shares that seed's dataset, in process or
    # handed to a pool.
    import confcl.bench as bench

    asked = _serial_pool(monkeypatch, usable_cpus=2)
    counts = Counter()
    monkeypatch.setattr(
        bench, "generate_dataset", _counting(counts, "generate_dataset", bench.generate_dataset)
    )
    report = bench.run_study(
        _small_config(), ["proposed", "hc", "unsupervised"], [0, 1], workers=workers
    )
    assert asked == ([] if workers == 1 else [2])
    assert counts == {"generate_dataset": 2}
    assert [r.error for r in report.records] == [None] * 6


def test_usable_cpus_follows_affinity_then_cpu_count(monkeypatch):
    import confcl.bench as bench

    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 64)
    assert bench._usable_cpus() == 2
    monkeypatch.delattr(bench.os, "sched_getaffinity", raising=False)
    assert bench._usable_cpus() == 64
    monkeypatch.setattr(bench.os, "cpu_count", lambda: None)
    assert bench._usable_cpus() == 1


def test_aggregates_mean_std_over_clean_cells():
    cfg = _small_config()
    records = (
        CellRecord("proposed", 0, 0.5, 0.6, 1.0, -1.0, 0.1),
        CellRecord("proposed", 1, 0.7, 0.8, 2.0, -2.0, 0.3),
        CellRecord("proposed", 2, error="RuntimeError: boom"),
        CellRecord("hc", 0, 0.9, 0.9, 1.0, -1.0, 0.2),
    )
    report = StudyReport(cfg, ("proposed", "hc"), (0, 1, 2), records)
    agg = report.aggregates()
    assert agg["proposed"]["probe_auc"]["mean"] == pytest.approx(0.7)
    assert agg["proposed"]["probe_auc"]["std"] == pytest.approx(
        float(np.std([0.6, 0.8], ddof=1))
    )
    assert agg["proposed"]["probe_auc"]["n"] == 2
    # A single clean cell has no spread to estimate; report 0 instead of NaN.
    assert agg["hc"]["probe_auc"]["std"] == 0.0
    assert agg["hc"]["probe_auc"]["n"] == 1
