"""Controllable interventions: batch plans and seeded augmentations.

An instrument is a mini-batch, an augmentation applied to it, and a
micro-step count (the regime's k).  Batch plans control the overlap between
the first and second instrument's batches exactly and can match class
histograms.
Augmentations are deterministic maps given (kind, inputs, seed,
image_shape), so a branch pair that shares a kind and a seed sees
bit-identical batches.

Vector-mode augmentations (desk-scale analogs of the image transforms,
ordered none < weak < color/blur in perturbation strength):

* weak:  circular shift of the feature axis by one position plus additive
         Gaussian noise at 5% of the batch's feature standard deviation
* color: weak, then per-feature multiplicative jitter in [0.6, 1.4] and,
         per example with probability 0.2, projection onto the example mean
* blur:  weak, then window-3 moving-average smoothing with a mixing weight
         drawn from the blur's strength range

Given ``image_shape`` (H, W), the N x (H*W) rows are read as images and
the image forms are used instead: weak = reflect-pad-4 random crop +
horizontal flip, color adds brightness/contrast jitter, blur adds a 3-tap
Gaussian.  Each image draws its own crop offset, flip, jitter and blur
width, and each form is applied to the whole batch at once; the output bits
equal those of applying it one image at a time.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Dataset

AUG_KINDS = ("none", "weak", "color", "blur")


@dataclass
class BatchPlan:
    indices_a: np.ndarray
    indices_b: np.ndarray


def shared_rows(dataset: Dataset, batch_size: int, overlap: float) -> int:
    """Rows a plan's two batches share; ValueError if the train split cannot serve both."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    n_shared = math.floor(overlap * batch_size)
    needed = 2 * batch_size - n_shared
    if len(dataset.train_indices) < needed:
        raise ValueError(
            f"dataset has {len(dataset.train_indices)} train examples, need {needed} "
            f"for batch_size={batch_size}, overlap={overlap}"
        )
    return n_shared


def sample_batch_plan(
    dataset: Dataset,
    batch_size: int,
    overlap: float,
    same_classes: bool,
    seed: int,
) -> BatchPlan:
    """Draw the first batch and a second batch with exact prescribed overlap.

    The intersection size is exactly floor(overlap * batch_size).  With
    ``same_classes`` the second batch reproduces the first batch's class
    histogram as far as the remaining pool allows; any shortfall is filled
    from other classes.

    Requires ``dataset.train_indices`` sorted and unique, as every Dataset
    constructor makes them: the candidate pools are then sorted, which fixes
    the draws for a seed.
    """
    n_shared = shared_rows(dataset, batch_size, overlap)
    train = dataset.train_indices
    rng = np.random.default_rng(seed)
    idx_a = rng.choice(train, size=batch_size, replace=False)
    shared = rng.choice(idx_a, size=n_shared, replace=False) if n_shared else np.array([], dtype=idx_a.dtype)
    taken = np.zeros(dataset.num_examples, dtype=bool)
    taken[idx_a] = True
    pool = train[~taken[train]]
    n_rest = batch_size - n_shared
    shortfall = 0

    if n_rest == 0:
        rest = np.array([], dtype=idx_a.dtype)
    elif same_classes:
        labels = dataset.labels
        want = np.bincount(labels[idx_a], minlength=dataset.num_classes) - np.bincount(
            labels[shared], minlength=dataset.num_classes
        )
        picked = []
        pool_labels = labels[pool]
        for c in np.flatnonzero(want > 0):
            available = pool[pool_labels == c]
            take = min(int(want[c]), len(available))
            shortfall += int(want[c]) - take
            if take:
                picked.append(rng.choice(available, size=take, replace=False))
        rest = np.concatenate(picked) if picked else np.array([], dtype=idx_a.dtype)
        if shortfall:
            taken[rest] = True
            leftovers = pool[~taken[pool]]
            rest = np.concatenate([rest, rng.choice(leftovers, size=shortfall, replace=False)])
    else:
        rest = rng.choice(pool, size=n_rest, replace=False)

    idx_b = np.concatenate([shared, rest])
    return BatchPlan(indices_a=np.sort(idx_a), indices_b=np.sort(idx_b))


# ---------------------------------------------------------------------------
# Augmentations.


def _moving_average3(x: np.ndarray) -> np.ndarray:
    padded = np.pad(x, ((0, 0), (1, 1)), mode="edge")
    return (padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:]) / 3.0


def _weak_vec(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    shift = 1 if rng.integers(0, 2) else -1
    out = np.roll(x, shift, axis=1)
    scale = 0.05 * float(x.std())
    return out + scale * rng.normal(size=out.shape)


def _color_vec(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    out = _weak_vec(rng, x)
    jitter = rng.uniform(0.6, 1.4, size=out.shape[1])
    out = out * jitter
    gray = rng.random(out.shape[0]) < 0.2
    if gray.any():
        out[gray] = out[gray].mean(axis=1, keepdims=True)
    return out


def _blur_vec(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    out = _weak_vec(rng, x)
    sigma = rng.uniform(0.1, 2.0)
    weight = min(1.0, sigma / 2.0)
    return (1.0 - weight) * out + weight * _moving_average3(out)


def _random_crops(rng: np.random.Generator, images: np.ndarray) -> np.ndarray:
    n, h, w = images.shape
    pad = 4
    padded = np.pad(images, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")
    offsets = rng.integers(0, 2 * pad + 1, size=(n, 2))
    windows = sliding_window_view(padded, (h, w), axis=(1, 2))
    return windows[np.arange(n), offsets[:, 0], offsets[:, 1]]


def _weak_img(rng: np.random.Generator, images: np.ndarray) -> np.ndarray:
    out = _random_crops(rng, images)
    flip = rng.random(out.shape[0]) < 0.5
    out[flip] = out[flip, :, ::-1]
    return out


def _color_img(rng: np.random.Generator, images: np.ndarray) -> np.ndarray:
    out = _weak_img(rng, images)
    n = out.shape[0]
    brightness = rng.uniform(0.6, 1.4, size=(n, 1, 1))
    contrast = rng.uniform(0.6, 1.4, size=(n, 1, 1))
    means = out.mean(axis=(1, 2), keepdims=True)
    return (out * brightness - means) * contrast + means


def _blur_img(rng: np.random.Generator, images: np.ndarray) -> np.ndarray:
    out = _weak_img(rng, images)
    sigma = rng.uniform(0.1, 2.0, size=out.shape[0])
    side = np.exp(-0.5 / (sigma * sigma))[:, None, None]
    # Taps [side, 1, side] normalized per image; the total adds left to right,
    # as the sum of a per-image tap array does, so the bits match that form.
    total = (side + 1.0) + side
    edge, mid = side / total, 1.0 / total
    rows = np.pad(out, ((0, 0), (1, 1), (0, 0)), mode="edge")
    blurred = edge * rows[:, :-2] + mid * rows[:, 1:-1] + edge * rows[:, 2:]
    cols = np.pad(blurred, ((0, 0), (0, 0), (1, 1)), mode="edge")
    return edge * cols[:, :, :-2] + mid * cols[:, :, 1:-1] + edge * cols[:, :, 2:]


_VECTOR_FORMS = {"weak": _weak_vec, "color": _color_vec, "blur": _blur_vec}
_IMAGE_FORMS = {"weak": _weak_img, "color": _color_img, "blur": _blur_img}


def apply_augmentation(kind: str, inputs, seed: int, image_shape=None) -> np.ndarray:
    """Augment N x d rows; the same arguments always yield the same output.

    With ``image_shape`` (H, W) each row is an H x W image, d = H * W.
    """
    if kind not in AUG_KINDS:
        raise ValueError(f"unknown augmentation kind {kind!r}")
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("inputs must be N x d rows")
    if kind == "none":
        return x.copy()
    rng = np.random.default_rng(seed)
    if image_shape is None:
        return _VECTOR_FORMS[kind](rng, x)
    h, w = image_shape
    if x.shape[1] != h * w:
        raise ValueError(f"flat width {x.shape[1]} does not match image_shape {image_shape}")
    return _IMAGE_FORMS[kind](rng, x.reshape(-1, h, w)).reshape(x.shape)
