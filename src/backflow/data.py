"""Dataset provisioning: synthetic mixtures, file ingestion, probe splitting.

A Dataset is immutable after construction and shared read-only.  The probe
is a held-out, class-stratified subset fixed once per run; batches are
always drawn from the train side.  File-backed datasets are standardized
per coordinate with statistics computed from the train split only, which
happens when the split is made (the statistics do not exist earlier).
Provenance holds only the image shape of IDX data, which the engine reads.
"""

import csv
import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    train_indices: np.ndarray
    probe_indices: np.ndarray
    provenance: dict = field(default_factory=dict)
    normalize_on_split: bool = False

    @property
    def num_examples(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


def make_synthetic(
    input_dim: int,
    num_classes: int,
    per_class: int,
    spread: float = 3.0,
    seed: int = 0,
) -> Dataset:
    """Gaussian mixture with seeded class means on a sphere of radius ``spread``.

    Unit isotropic noise around each mean; larger ``spread`` separates the
    classes further.  Deterministic in the seed.  Checks values, not JSON types.
    """
    if input_dim < 2:
        raise ValueError("input_dim must be at least 2")
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    if per_class < 1:
        raise ValueError("per_class must be positive")
    if not math.isfinite(spread):
        raise ValueError(f"spread must be finite, got {spread!r}")
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(num_classes, input_dim))
    means = spread * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    features = np.concatenate(
        [means[c] + rng.normal(size=(per_class, input_dim)) for c in range(num_classes)]
    )
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(
        features=features,
        labels=labels,
        train_indices=np.arange(features.shape[0]),
        probe_indices=np.array([], dtype=np.int64),
    )


def _load_csv_labeled(path: str) -> tuple[np.ndarray, np.ndarray]:
    features, labels = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[0].strip() != "label":
            raise ValueError(f"{path}: header must start with 'label', got {header[:1]!r}")
        width = len(header)
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"{path}: row {row_num} has {len(row)} fields, expected {width}")
            try:
                labels.append(int(row[0]))
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}: row {row_num}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: row {row_num} has a non-finite feature")
            features.append(values)
    if not features:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64)


def _read_idx(path: str, expected_magic: int):
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated IDX header")
    magic, n = struct.unpack(">II", raw[:8])
    if magic != expected_magic:
        raise ValueError(f"{path}: IDX magic {magic} != expected {expected_magic}")
    ndim = magic & 0xFF
    offset = 4 + 4 * ndim
    if len(raw) < offset:
        raise ValueError(f"{path}: truncated IDX header ({len(raw)} bytes, {ndim} dims need {offset})")
    dims = struct.unpack(f">{ndim}I", raw[4:offset])
    data = np.frombuffer(raw, dtype=np.uint8, offset=offset)
    if data.size != int(np.prod(dims)):
        raise ValueError(f"{path}: payload size does not match header dims {dims}")
    return data.reshape(dims), dims


def _resolve_idx_pair(path: str) -> tuple[str, str]:
    if "::" in path:
        images, labels = path.split("::", 1)
        return images, labels
    name = os.path.basename(path)  # the directories keep their names
    labels = path[: len(path) - len(name)] + name.replace("images", "labels").replace("idx3", "idx1")
    if labels == path:
        raise ValueError(f"{path}: cannot locate the labels file; use 'images_file::labels_file'")
    return path, labels


def _load_idx_pair(path: str) -> tuple[np.ndarray, np.ndarray, dict]:
    images_file, labels_file = _resolve_idx_pair(path)
    images, dims = _read_idx(images_file, 0x00000803)
    labels, _ = _read_idx(labels_file, 0x00000801)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{images_file} has {images.shape[0]} images but "
            f"{labels_file} has {labels.shape[0]} labels"
        )
    features = images.reshape(images.shape[0], -1).astype(np.float64)
    return features, labels.astype(np.int64), {"image_shape": [int(d) for d in dims[1:]]}


FORMATS = ("csv_labeled", "idx_pair")


def load_table(path: str, format: str) -> Dataset:
    """Load a labeled table; IDX images keep their shape as ``provenance["image_shape"]``.

    Features are standardized later, when the probe split is made, using
    train-split statistics only.
    """
    if format == "csv_labeled":
        features, labels = _load_csv_labeled(path)
        provenance = {}
    elif format == "idx_pair":
        features, labels, provenance = _load_idx_pair(path)
    else:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if np.any(labels < 0):
        raise ValueError(f"{path}: negative labels")
    num_classes = int(labels.max()) + 1
    if num_classes < 2:
        raise ValueError(f"{path}: need at least two classes, found {num_classes}")
    counts = np.bincount(labels, minlength=num_classes)
    if np.any(counts == 0):
        missing = np.flatnonzero(counts == 0).tolist()
        raise ValueError(f"{path}: label arity inconsistent, no examples for classes {missing}")
    return Dataset(
        features=features,
        labels=labels,
        train_indices=np.arange(features.shape[0]),
        probe_indices=np.array([], dtype=np.int64),
        provenance=provenance,
        normalize_on_split=True,
    )


def _stratified_allocation(counts: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder allocation, at least one per nonempty class when feasible."""
    m = counts.sum()
    exact = counts * (total / m)
    alloc = np.floor(exact).astype(int)
    if total >= np.count_nonzero(counts):
        alloc = np.maximum(alloc, (counts > 0).astype(int))
    alloc = np.minimum(alloc, counts)
    remainder = exact - alloc
    order = np.argsort(-remainder, kind="stable")
    i = 0
    while alloc.sum() < total:
        c = order[i % len(order)]
        if alloc[c] < counts[c]:
            alloc[c] += 1
        i += 1
    while alloc.sum() > total:  # only after the one-per-class floor, so a class above 1 is left
        c = order[(i := i + 1) % len(order)]
        if alloc[c] > 1:
            alloc[c] -= 1
    return alloc


def split_probe(dataset: Dataset, probe_size: int, seed: int) -> Dataset:
    """Hold out a class-stratified probe of ``probe_size`` examples.

    The probe is fixed thereafter for every repeat of a run.  For datasets
    marked for normalization, all features are standardized here using the
    train rows' per-coordinate mean and standard deviation.
    """
    m = dataset.num_examples
    if probe_size >= m:
        raise ValueError(f"probe_size {probe_size} must be smaller than the dataset ({m})")
    if probe_size < 1:
        raise ValueError("probe_size must be positive")
    rng = np.random.default_rng(seed)
    counts = np.bincount(dataset.labels, minlength=dataset.num_classes)
    alloc = _stratified_allocation(counts, probe_size)
    probe_parts = []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        if alloc[c] > 0:
            probe_parts.append(rng.choice(members, size=alloc[c], replace=False))
    probe = np.sort(np.concatenate(probe_parts))
    keep = np.ones(m, bool)
    keep[probe] = False
    train = np.flatnonzero(keep)  # not np.setdiff1d, whose np.unique imports numpy.ma

    features = dataset.features
    if dataset.normalize_on_split:
        mean = features[train].mean(axis=0)
        std = features[train].std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        features = (features - mean) / std

    return replace(
        dataset,
        features=features,
        train_indices=train,
        probe_indices=probe,
        normalize_on_split=False,
    )
