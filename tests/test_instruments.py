import math

import numpy as np
import pytest

from backflow.data import make_synthetic, split_probe
from backflow.instruments import apply_augmentation, sample_batch_plan
from backflow.model import ModelSpec, init_params, loss_and_grad
from backflow.optimizer import OptimizerConfig, step
from backflow import engine
from backflow.engine import ProtocolSettings, Regime
from backflow.protocol import REGIME_PRESETS
from backflow.seeding import derive_seed

SPEC = ModelSpec("softmax_linear", 8, 4)


@pytest.fixture(scope="module")
def dataset():
    ds = make_synthetic(8, 4, 200, spread=2.0, seed=0)
    return split_probe(ds, 100, seed=1)


def test_full_overlap_is_same_set(dataset):
    plan = sample_batch_plan(dataset, 64, overlap=1.0, same_classes=True, seed=3)
    assert set(plan.indices_a) == set(plan.indices_b)


def test_zero_overlap_is_disjoint(dataset):
    plan = sample_batch_plan(dataset, 64, overlap=0.0, same_classes=False, seed=4)
    assert not set(plan.indices_a) & set(plan.indices_b)


def test_half_overlap_256(dataset):
    plan = sample_batch_plan(dataset, 256, overlap=0.5, same_classes=False, seed=5)
    assert len(set(plan.indices_a) & set(plan.indices_b)) == 128


def test_overlap_exactness_random_draws(dataset):
    rng = np.random.default_rng(6)
    for _ in range(1000):
        b = int(rng.integers(2, 120))
        rho = float(rng.random())
        same = bool(rng.integers(0, 2))
        plan = sample_batch_plan(dataset, b, rho, same, int(rng.integers(0, 2**31)))
        assert len(plan.indices_a) == b == len(plan.indices_b)
        assert len(set(plan.indices_a) & set(plan.indices_b)) == math.floor(rho * b)
        assert len(set(plan.indices_a)) == b  # no replacement
        assert len(set(plan.indices_b)) == b


def test_class_histograms_match_when_available(dataset):
    labels = dataset.labels
    for seed in range(20):
        plan = sample_batch_plan(dataset, 64, overlap=0.25, same_classes=True, seed=seed)
        hist_a = np.bincount(labels[plan.indices_a], minlength=4)
        hist_b = np.bincount(labels[plan.indices_b], minlength=4)
        assert np.array_equal(hist_a, hist_b)


def test_class_shortfall_is_filled_from_other_classes():
    # only 10 class-1 rows exist, so a first batch of more than 5 leaves the second short of them
    ds = make_synthetic(4, 2, 40, spread=1.0, seed=2)
    labels = ds.labels.copy()
    labels[:70] = 0
    labels[70:] = 1
    ds = type(ds)(
        features=ds.features,
        labels=labels,
        train_indices=ds.train_indices,
        probe_indices=ds.probe_indices,
        provenance=ds.provenance,
    )
    plan = sample_batch_plan(ds, 32, overlap=0.0, same_classes=True, seed=0)
    hist_a = np.bincount(labels[plan.indices_a], minlength=2)
    hist_b = np.bincount(labels[plan.indices_b], minlength=2)
    assert hist_b[1] < hist_a[1]
    a, b = set(plan.indices_a.tolist()), set(plan.indices_b.tolist())
    assert len(plan.indices_b) == len(b) == 32 and not a & b
    class1_outside_a = set(ds.train_indices[labels[ds.train_indices] == 1].tolist()) - a
    assert class1_outside_a <= b
    assert hist_b.tolist() == [32 - len(class1_outside_a), len(class1_outside_a)]


def test_plan_determinism(dataset):
    a = sample_batch_plan(dataset, 32, 0.5, True, seed=123)
    b = sample_batch_plan(dataset, 32, 0.5, True, seed=123)
    assert np.array_equal(a.indices_a, b.indices_a)
    assert np.array_equal(a.indices_b, b.indices_b)


def test_insufficient_examples(dataset):
    with pytest.raises(ValueError, match="train examples"):
        sample_batch_plan(dataset, 600, overlap=0.0, same_classes=False, seed=0)


def test_batches_come_from_train_split(dataset):
    plan = sample_batch_plan(dataset, 64, 0.5, False, seed=9)
    probe = set(dataset.probe_indices)
    assert not probe & set(plan.indices_a)
    assert not probe & set(plan.indices_b)


def test_none_is_identity():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 6))
    out = apply_augmentation("none", x, 1)
    assert np.array_equal(out, x)
    assert out is not x


def test_blur_preserves_constants():
    x = np.full((3, 10), 2.5)
    out = apply_augmentation("blur", x, 2)
    assert np.allclose(out, x, atol=1e-12)


def test_weak_determinism():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 12))
    assert np.array_equal(apply_augmentation("weak", x, 77), apply_augmentation("weak", x, 77))


@pytest.mark.parametrize("kind", ["weak", "color", "blur"])
def test_augmentation_shapes_and_determinism(kind):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 16))
    out = apply_augmentation(kind, x, 5)
    assert out.shape == x.shape
    assert np.array_equal(out, apply_augmentation(kind, x, 5))
    assert not np.array_equal(out, x)
    assert not np.array_equal(out, apply_augmentation(kind, x, 6))


@pytest.mark.parametrize("kind", ["weak", "color", "blur"])
def test_image_mode(kind):
    rng = np.random.default_rng(10)
    images = rng.random((4, 10, 10))
    flat = images.reshape(4, 100)
    out = apply_augmentation(kind, flat, 3, (10, 10))
    assert out.shape == flat.shape
    assert np.array_equal(out, apply_augmentation(kind, flat, 3, (10, 10)))
    expected = REFERENCE_IMAGE_FORMS[kind](np.random.default_rng(3), images.copy())
    assert out.tobytes() == expected.tobytes()
    assert not np.array_equal(out, apply_augmentation(kind, flat, 3))  # the vector form differs


def test_image_weak_constant_unchanged():
    flat = np.full((2, 64), 0.3)
    out = apply_augmentation("weak", flat, 4, (8, 8))
    assert np.allclose(out, flat, atol=1e-15)


# The per-image forms of the image augmentations, one Python step per image.
# The batched forms in backflow.instruments must match them byte for byte.


def reference_random_crops(rng, images, pad=4):
    n, h, w = images.shape
    padded = np.pad(images, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")
    offsets = rng.integers(0, 2 * pad + 1, size=(n, 2))
    out = np.empty_like(images)
    for i in range(n):
        r, c = offsets[i]
        out[i] = padded[i, r : r + h, c : c + w]
    return out


def reference_weak(rng, images):
    out = reference_random_crops(rng, images)
    flip = rng.random(out.shape[0]) < 0.5
    out[flip] = out[flip, :, ::-1]
    return out


def reference_color(rng, images):
    out = reference_weak(rng, images)
    n = out.shape[0]
    brightness = rng.uniform(0.6, 1.4, size=(n, 1, 1))
    contrast = rng.uniform(0.6, 1.4, size=(n, 1, 1))
    means = out.mean(axis=(1, 2), keepdims=True)
    return (out * brightness - means) * contrast + means


def reference_blur(rng, images):
    out = reference_weak(rng, images)
    sigma = rng.uniform(0.1, 2.0, size=out.shape[0])
    side = np.exp(-0.5 / (sigma * sigma))
    for i in range(out.shape[0]):
        tap = np.array([side[i], 1.0, side[i]])
        tap /= tap.sum()
        rows = np.pad(out[i], ((1, 1), (0, 0)), mode="edge")
        blurred = tap[0] * rows[:-2] + tap[1] * rows[1:-1] + tap[2] * rows[2:]
        cols = np.pad(blurred, ((0, 0), (1, 1)), mode="edge")
        out[i] = tap[0] * cols[:, :-2] + tap[1] * cols[:, 1:-1] + tap[2] * cols[:, 2:]
    return out


REFERENCE_IMAGE_FORMS = {"weak": reference_weak, "color": reference_color, "blur": reference_blur}


@pytest.mark.parametrize("kind", ["weak", "color", "blur"])
def test_image_forms_match_per_image_reference(kind):
    rng = np.random.default_rng(31)
    fixed = [(1, 5, 5), (1, 16, 9), (2, 7, 7), (3, 5, 19), (128, 16, 16)]
    drawn = [tuple(int(v) for v in rng.integers((1, 5, 5), (200, 20, 20))) for _ in range(25)]
    for n, h, w in fixed + drawn:
        images = rng.normal(size=(n, h, w)) * rng.choice([1e-3, 1.0, 255.0])
        before = images.copy()
        for seed in (0, 1, int(rng.integers(0, 2**63))):
            expected = REFERENCE_IMAGE_FORMS[kind](np.random.default_rng(seed), images.copy())
            out = apply_augmentation(kind, images.reshape(n, h * w), seed, (h, w))
            assert out.dtype == np.float64 and out.flags.c_contiguous
            assert out.shape == (n, h * w) and out.tobytes() == expected.tobytes(), (kind, n, h, w, seed)
        assert np.array_equal(images, before)  # the input batch is left as it was


def first_pair(dataset, regime, batch_size, seed):
    """The batch plan, the batches and the no-break run of one micro-experiment."""
    settings = ProtocolSettings(batch_size=batch_size)
    plan = sample_batch_plan(dataset, batch_size, regime.overlap, regime.same_classes, derive_seed(seed, "plan"))
    batches = engine._repeat_batches(regime, dataset, seed, batch_size)
    (runs,) = engine.guarded_block(init_params(SPEC, 0), SPEC, regime, ("no",), dataset,
                                   dataset.features[dataset.probe_indices], settings, [(seed, 0)])
    return plan, batches, runs["no"], settings


def train_alone(x, y, regime, settings):
    """k steps of one branch from the base with the regime's lr and momentum."""
    config = OptimizerConfig(lr=regime.lr, momentum=regime.momentum,
                             weight_decay=settings.weight_decay, clip_norm=settings.clip_norm)
    params = init_params(SPEC, 0)
    velocity = np.zeros(params.size)
    for _ in range(regime.k):
        _, grad = loss_and_grad(SPEC, params, x, y)
        params, velocity = step(params, velocity, grad, config)
    return params, velocity


def test_make_pair_shares_everything_but_augmentation(dataset):
    regime = Regime("pair", 3, 0.02, 0.9, "weak", "color", "weak", 0.5, True)
    plan, (x_a, x_ap, x_b, y_a, y_b), run, settings = first_pair(dataset, regime, 32, seed=11)
    # A and A' augment the plan's first batch with one seed; B its second batch with another
    first, aug_seed = dataset.features[plan.indices_a], derive_seed(11, "aug_first")
    assert np.array_equal(x_a, apply_augmentation("weak", first, aug_seed))
    assert np.array_equal(x_ap, apply_augmentation("color", first, aug_seed))
    assert np.array_equal(x_b, apply_augmentation("weak", dataset.features[plan.indices_b], derive_seed(11, "aug_b")))
    assert np.array_equal(y_a, dataset.labels[plan.indices_a])
    assert np.array_equal(y_b, dataset.labels[plan.indices_b])
    # both branches step k times with the regime's lr and momentum
    for row, x in enumerate((x_a, x_ap)):
        params, velocity = train_alone(x, y_a, regime, settings)
        assert np.array_equal(run.params_mid[row], params)
        assert np.array_equal(run.velocity_mid[row], velocity)


def test_make_pair_placebo_identical(dataset):
    regime = Regime("placebo", 2, 0.02, 0.9, "weak", "weak", "weak", 0.5, True)
    _, (x_a, x_ap, _, _, _), run, _ = first_pair(dataset, regime, 32, seed=12)
    assert np.array_equal(x_a, x_ap)
    assert np.array_equal(run.params_mid[0], run.params_mid[1])


def test_negative_control_pair(dataset):
    regime = REGIME_PRESETS["negative"]
    plan, (x_a, x_ap, _, y_a, _), run, settings = first_pair(dataset, regime, 16, seed=14)
    assert regime.k == 1 and (regime.lr, regime.momentum) == (0.005, 0.0)
    assert np.array_equal(x_a, x_ap) and np.array_equal(x_a, dataset.features[plan.indices_a])
    for row, x in enumerate((x_a, x_ap)):
        params, _ = train_alone(x, y_a, regime, settings)
        assert np.array_equal(run.params_mid[row], params)


def test_instrument_validation():
    with pytest.raises(ValueError, match="k must be"):
        Regime("bad", 0, 0.02, 0.9, "weak", "color", "weak", 0.5, True)
    with pytest.raises(ValueError, match="unknown augmentation"):
        apply_augmentation("cutout", np.zeros((2, 4)), 0)
    with pytest.raises(ValueError, match="N x d rows"):
        apply_augmentation("weak", np.zeros((2, 2, 2)), 0, (2, 2))
    with pytest.raises(ValueError, match="flat width 4"):
        apply_augmentation("weak", np.zeros((2, 4)), 0, (3, 3))
