"""Golden values for every loss variant, pinned to 1e-12 relative.

Each case is a seeded batch (unit-norm views, random metadata) at N = 16
and N = 512.  The pinned term values, totals, present/skipped sets and
gradient fingerprints (the Frobenius norm of each view's gradient and its
projections onto two seeded probe arrays) were computed by the
three-function loss implementation that the single group core replaced,
so a refactor that changes any of them by more than rounding fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from confcl import bench, losses
from confcl.losses import ViewPairBatch, evaluate_loss, loss_gradient, partition_batch
from confcl.metadata import KernelVariant, MetadataSummary, kernel_matrix

DIM = 8
SIZES = (16, 512)
CONFIDENCES = (0.1, 0.2, 1 / 3, 0.5, 0.6, 1.0)
REL = 1e-12


def _views(rng: np.random.Generator, n: int) -> ViewPairBatch:
    x1 = rng.standard_normal((n, DIM))
    x2 = x1 + 0.5 * rng.standard_normal((n, DIM))
    unit = lambda x: x / np.linalg.norm(x, axis=1, keepdims=True)
    return ViewPairBatch(unit(x1), unit(x2))


def _labeled(rng: np.random.Generator, i: int, confidences=CONFIDENCES) -> MetadataSummary:
    conf = confidences[int(rng.integers(0, len(confidences)))]
    return MetadataSummary.labeled(f"e{i}", int(rng.integers(0, 2)), conf)


def _mixed(rng: np.random.Generator, n: int, confidences=CONFIDENCES) -> list[MetadataSummary]:
    return [
        MetadataSummary.unlabeled(f"e{i}") if rng.random() < 0.3 else _labeled(rng, i, confidences)
        for i in range(n)
    ]


def _decoupled(summaries, variant=KernelVariant.PROPOSED, glu=False):
    partition = partition_batch(summaries, variant)
    kernel = None
    if partition.labeled:
        kernel = kernel_matrix([summaries[i] for i in partition.labeled], variant)
    return dict(kind="decoupled", partition=partition, kernel=kernel, global_uniformity=glu)


def _case(name: str, n: int):
    """(batch, loss arguments) for one named case; seeded by name and size."""
    seed = sum(name.encode()) * 1000 + n
    rng = np.random.default_rng(seed)
    batch = _views(rng, n)
    if name == "nce":
        args = dict(kind="nce")
    elif name == "conditional":
        summaries = [_labeled(rng, i) for i in range(n)]
        args = dict(kind="conditional", kernel=kernel_matrix(summaries))
    elif name == "proposed":
        args = _decoupled(_mixed(rng, n))
    elif name == "glu":
        args = _decoupled(_mixed(rng, n), glu=True)
    elif name == "hc":
        # Half the labeled exams are unanimous, so the hc kernel is never empty.
        args = _decoupled(_mixed(rng, n, (0.6, 1.0)), KernelVariant.HIGH_CONFIDENCE)
    elif name == "majority":
        args = _decoupled(_mixed(rng, n), KernelVariant.MAJORITY_VOTING)
    elif name == "single-unlabeled":
        # |U| = 1: the unlabeled uniformity has no distinct pair to sum.
        lone = int(rng.integers(0, n))
        summaries = [
            MetadataSummary.unlabeled(f"e{i}") if i == lone else _labeled(rng, i)
            for i in range(n)
        ]
        args = _decoupled(summaries)
    elif name == "saturated":
        # The only labeled pair agrees fully: w = 1 everywhere, nothing repels.
        a, b = (int(i) for i in rng.choice(n, 2, replace=False))
        summaries = [
            MetadataSummary.labeled(f"e{i}", 1, 1.0)
            if i in (a, b)
            else MetadataSummary.unlabeled(f"e{i}")
            for i in range(n)
        ]
        args = _decoupled(summaries)
    else:
        raise KeyError(name)
    return batch, args


def _probes(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7919 + n)
    return rng.standard_normal((n, DIM)), rng.standard_normal((n, DIM))


def fingerprint(g: np.ndarray) -> tuple[float, float, float]:
    p, q = _probes(len(g))
    return float(np.linalg.norm(g)), float((g * p).sum()), float((g * q).sum())


def observe(name: str, n: int) -> dict:
    """Everything the golden table pins, computed by the current code."""
    batch, args = _case(name, n)
    kind = args.pop("kind")
    b = evaluate_loss(kind, batch, **args)
    g = loss_gradient(kind, batch, **args)
    return {
        "terms": {t: getattr(b, t) for t in sorted(b.present)},
        "total": b.total,
        "present": sorted(b.present),
        "skipped": sorted(b.skipped),
        "n_labeled": b.n_labeled,
        "n_unlabeled": b.n_unlabeled,
        "g1": fingerprint(g.g1),
        "g2": fingerprint(g.g2),
    }


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * abs(want)


GOLDEN = {('nce', 16): {'terms': {'align_unlabeled': 0.4769887787292868,
                         'unif_unlabeled': -1.2781038327916219},
               'total': -0.8011150540623351,
               'present': ['align_unlabeled', 'unif_unlabeled'],
               'skipped': [],
               'n_labeled': 0,
               'n_unlabeled': 16,
               'g1': (0.2275108447908737, 0.01917687939755379, -0.05135894935755697),
               'g2': (0.23282651857315428, 0.07219331045927779, -0.3550400964483029)},
 ('nce', 512): {'terms': {'align_unlabeled': 0.4642046416589242,
                          'unif_unlabeled': -1.3501013396650516},
                'total': -0.8858966980061274,
                'present': ['align_unlabeled', 'unif_unlabeled'],
                'skipped': [],
                'n_labeled': 0,
                'n_unlabeled': 512,
                'g1': (0.046754169641228534, 0.09163027044987868, -0.010237836874411769),
                'g2': (0.046695117176827526, -0.09022351895564734, -0.026823771543805056)},
 ('conditional', 16): {'terms': {'align_labeled': 3.029000360906074,
                                 'unif_labeled': -1.5469995361680722},
                       'total': 1.4820008247380017,
                       'present': ['align_labeled', 'unif_labeled'],
                       'skipped': [],
                       'n_labeled': 16,
                       'n_unlabeled': 0,
                       'g1': (0.42831030394299624, 0.3437266542179618, -0.984028575607708),
                       'g2': (0.42547093322457064, -0.0043229988277923015, -0.6548928205273291)},
 ('conditional', 512): {'terms': {'align_labeled': 97.88977754545701,
                                  'unif_labeled': -1.5023565785252482},
                        'total': 96.38742096693176,
                        'present': ['align_labeled', 'unif_labeled'],
                        'skipped': [],
                        'n_labeled': 512,
                        'n_unlabeled': 0,
                        'g1': (2.309072894095701, -0.3293922781035198, 0.6913657689164816),
                        'g2': (2.3084762672736243, 0.8897879344721017, 1.7947263881959752)},
 ('proposed', 16): {'terms': {'align_labeled': 2.533022439874742,
                              'align_unlabeled': 0.43633716200541256,
                              'unif_labeled': -1.5766768965177662,
                              'unif_unlabeled': -1.8526274515950478},
                    'total': -0.4599447462326596,
                    'present': ['align_labeled',
                                'align_unlabeled',
                                'unif_labeled',
                                'unif_unlabeled'],
                    'skipped': [],
                    'n_labeled': 13,
                    'n_unlabeled': 3,
                    'g1': (0.7896311623181212, -0.03594891469861802, 0.9537821247899243),
                    'g2': (0.8117888155410641, -0.7718536666866378, 0.023983481440781163)},
 ('proposed', 512): {'terms': {'align_labeled': 70.62563087827908,
                               'align_unlabeled': 0.4625818881926427,
                               'unif_labeled': -1.507006712665657,
                               'unif_unlabeled': -1.3588931481731905},
                     'total': 68.22231290563288,
                     'present': ['align_labeled',
                                 'align_unlabeled',
                                 'unif_labeled',
                                 'unif_unlabeled'],
                     'skipped': [],
                     'n_labeled': 363,
                     'n_unlabeled': 149,
                     'g1': (1.9767489857517029, -1.4498807076114875, -1.9799880411218067),
                     'g2': (1.9808203836201543, -1.600250253178318, -0.7982460687999742)},
 ('glu', 16): {'terms': {'align_labeled': 1.8317134778458324,
                         'align_unlabeled': 0.4996079313912752,
                         'unif_labeled': -1.4784303744301215,
                         'unif_unlabeled': -1.6465369488482857},
               'total': -0.7936459140412997,
               'present': ['align_labeled', 'align_unlabeled', 'unif_labeled', 'unif_unlabeled'],
               'skipped': [],
               'n_labeled': 11,
               'n_unlabeled': 5,
               'g1': (0.6056173891988175, -0.7416010156097156, -0.37495214132865035),
               'g2': (0.6006197954443595, 1.1205552524227607, 0.040412024180563666)},
 ('glu', 512): {'terms': {'align_labeled': 70.53529334907945,
                          'align_unlabeled': 0.46430732092764304,
                          'unif_labeled': -1.3533194272136797,
                          'unif_unlabeled': -1.3574760623882176},
                'total': 68.2888051804052,
                'present': ['align_labeled', 'align_unlabeled', 'unif_labeled', 'unif_unlabeled'],
                'skipped': [],
                'n_labeled': 337,
                'n_unlabeled': 175,
                'g1': (2.0619821724559655, -0.8128873032668398, 1.9715128006766491),
                'g2': (2.0657359347738447, -0.25117988261343926, 1.4030469381321957)},
 ('hc', 16): {'terms': {'align_labeled': 0.5759146712707555,
                        'align_unlabeled': 0.43234752561770623,
                        'unif_labeled': -1.9500591085532284,
                        'unif_unlabeled': -1.45470288974762},
              'total': -2.3964998014123866,
              'present': ['align_labeled', 'align_unlabeled', 'unif_labeled', 'unif_unlabeled'],
              'skipped': [],
              'n_labeled': 2,
              'n_unlabeled': 14,
              'g1': (1.0170399736854308, -0.014490474518336988, 0.6886585885637039),
              'g2': (0.8502746065023422, 0.28113016965062726, -0.15811051120439792)},
 ('hc', 512): {'terms': {'align_labeled': 99.1702413183759,
                         'align_unlabeled': 0.44420480612097124,
                         'unif_labeled': -1.8654661401280348,
                         'unif_unlabeled': -1.3566026012757508},
               'total': 96.39237738309308,
               'present': ['align_labeled', 'align_unlabeled', 'unif_labeled', 'unif_unlabeled'],
               'skipped': [],
               'n_labeled': 179,
               'n_unlabeled': 333,
               'g1': (3.686016024848619, 5.485012070738994, 4.670489799041533),
               'g2': (3.6851354766601663, 6.571217145132476, 3.587484416265947)},
 ('majority', 16): {'terms': {'align_labeled': 4.985064129940069,
                              'align_unlabeled': 0.45225839010516794,
                              'unif_labeled': -1.8952456386743044,
                              'unif_unlabeled': -1.5575289288640628},
                    'total': 1.9845479525068692,
                    'present': ['align_labeled',
                                'align_unlabeled',
                                'unif_labeled',
                                'unif_unlabeled'],
                    'skipped': [],
                    'n_labeled': 10,
                    'n_unlabeled': 6,
                    'g1': (1.1073929566990097, -0.8584026221461367, -0.9199287023494989),
                    'g2': (1.036523074264261, -1.0314881595393195, 1.4082205122971336)},
 ('majority', 512): {'terms': {'align_labeled': 196.66002992451618,
                               'align_unlabeled': 0.4526295592464134,
                               'unif_labeled': -1.8671398607964615,
                               'unif_unlabeled': -1.3592270742766865},
                     'total': 193.88629254868945,
                     'present': ['align_labeled',
                                 'align_unlabeled',
                                 'unif_labeled',
                                 'unif_unlabeled'],
                     'skipped': [],
                     'n_labeled': 354,
                     'n_unlabeled': 158,
                     'g1': (5.226596876366753, -5.128715125705151, -2.31367757873088),
                     'g2': (5.230040806674561, -4.247255508569669, -4.335953086091222)},
 ('single-unlabeled', 16): {'terms': {'align_labeled': 4.153932175655095,
                                      'align_unlabeled': 0.3487599273687481,
                                      'unif_labeled': -1.6090076203093815},
                            'total': 2.8936844827144617,
                            'present': ['align_labeled', 'align_unlabeled', 'unif_labeled'],
                            'skipped': ['unif_unlabeled'],
                            'n_labeled': 15,
                            'n_unlabeled': 1,
                            'g1': (1.1550229412247048, -0.8181971303951721, -0.6028511389676751),
                            'g2': (1.1586655676596254, 0.6212770063428468, 0.7044503835704674)},
 ('single-unlabeled', 512): {'terms': {'align_labeled': 106.52215688425233,
                                       'align_unlabeled': 0.7789111080775555,
                                       'unif_labeled': -1.5173110725784504},
                             'total': 105.78375691975143,
                             'present': ['align_labeled', 'align_unlabeled', 'unif_labeled'],
                             'skipped': ['unif_unlabeled'],
                             'n_labeled': 511,
                             'n_unlabeled': 1,
                             'g1': (2.714830125943896, 0.46868325360831875, 1.6872355831818167),
                             'g2': (2.7143595282357915, 0.8260750000720631, 0.9995847564211243)},
 ('saturated', 16): {'terms': {'align_labeled': 2.2320346279858967,
                               'align_unlabeled': 0.49877891861573814,
                               'unif_unlabeled': -1.4431061007477501},
                     'total': 1.2877074458538849,
                     'present': ['align_labeled', 'align_unlabeled', 'unif_unlabeled'],
                     'skipped': ['unif_labeled'],
                     'n_labeled': 2,
                     'n_unlabeled': 14,
                     'g1': (1.1086506818181696, 0.6312581922310302, 1.8625064750756997),
                     'g2': (1.1286755532268373, 1.4928273073415026, 0.006088928042238262)},
 ('saturated', 512): {'terms': {'align_labeled': 1.463482651176483,
                                'align_unlabeled': 0.4581733750299772,
                                'unif_unlabeled': -1.3557069458463986},
                      'total': 0.5659490803600615,
                      'present': ['align_labeled', 'align_unlabeled', 'unif_unlabeled'],
                      'skipped': ['unif_labeled'],
                      'n_labeled': 2,
                      'n_unlabeled': 510,
                      'g1': (1.1280113029330296, 0.9100576671873996, -1.491520837608532),
                      'g2': (1.1578074623746775, -0.7629463513339637, 0.22509726514956732)}}


@pytest.mark.parametrize("name,n", list(GOLDEN), ids=[f"{name}-{n}" for name, n in GOLDEN])
def test_loss_matches_golden(name, n):
    got, want = observe(name, n), GOLDEN[(name, n)]
    for key in ("present", "skipped", "n_labeled", "n_unlabeled"):
        assert got[key] == want[key], key
    assert got["terms"].keys() == want["terms"].keys()
    for term, value in want["terms"].items():
        assert _close(got["terms"][term], value), term
    assert _close(got["total"], want["total"])
    for view in ("g1", "g2"):
        for got_v, want_v in zip(got[view], want[view]):
            assert _close(got_v, want_v), view


@pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN}))
def test_gradient_breakdown_is_the_evaluated_loss(name):
    batch, args = _case(name, 16)
    kind = args.pop("kind")
    assert loss_gradient(kind, batch, **args).breakdown == evaluate_loss(kind, batch, **args)


def test_train_builds_one_distance_matrix_per_step(monkeypatch):
    config = bench.SynthConfig(
        n_exams=20, input_dim=4, hidden_dim=4, embed_dim=3, epochs=2, batch_size=8
    )
    sizes = []
    real = losses.pairwise_distances

    def counting(batch):
        sizes.append(batch.n)
        return real(batch)

    monkeypatch.setattr(losses, "pairwise_distances", counting)
    cell = bench.study_cell(config, bench.generate_dataset(config, 0), "proposed")
    bench.train(config, cell, np.random.default_rng(0))
    assert sizes == [8, 8, 4] * 2
