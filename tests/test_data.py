import struct

import numpy as np
import pytest

from backflow.data import load_table, make_synthetic, split_probe
from backflow.model import ModelSpec, init_params, loss_and_grad
from backflow.optimizer import OptimizerConfig, step


def test_synthetic_determinism():
    a = make_synthetic(6, 3, 10, spread=2.0, seed=5)
    b = make_synthetic(6, 3, 10, spread=2.0, seed=5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_sizes_and_histogram():
    ds = make_synthetic(4, 3, 10, seed=0)
    assert ds.num_examples == 30
    assert np.array_equal(np.bincount(ds.labels), [10, 10, 10])
    assert ds.input_dim == 4 and ds.num_classes == 3


def test_synthetic_validation():
    with pytest.raises(ValueError):
        make_synthetic(1, 3, 10)
    with pytest.raises(ValueError):
        make_synthetic(4, 1, 10)


def test_well_separated_classes_are_learnable():
    # large spread with unit noise: a linear model should hit >= 99% probe accuracy
    ds = split_probe(make_synthetic(8, 4, 100, spread=30.0, seed=1), 80, seed=2)
    spec = ModelSpec("softmax_linear", 8, 4)
    params = init_params(spec, 0)
    config = OptimizerConfig(lr=0.5, momentum=0.9)
    velocity = np.zeros(params.size)
    rng = np.random.default_rng(3)
    for _ in range(200):
        batch = rng.choice(ds.train_indices, size=32, replace=False)
        _, grad = loss_and_grad(spec, params, ds.features[batch], ds.labels[batch])
        params, velocity = step(params, velocity, grad, config)
    from backflow.model import forward

    preds = forward(spec, params, ds.features[ds.probe_indices])
    accuracy = (preds.argmax(axis=1) == ds.labels[ds.probe_indices]).mean()
    assert accuracy >= 0.99


def assert_train_is_the_sorted_complement(split):
    # sample_batch_plan relies on sorted, unique train indices
    expected = np.setdiff1d(np.arange(split.num_examples), split.probe_indices)
    assert split.train_indices.dtype == expected.dtype
    assert np.array_equal(split.train_indices, expected)
    assert np.all(np.diff(split.train_indices) > 0)


def test_split_probe_properties():
    ds = make_synthetic(4, 4, 50, seed=4)
    split = split_probe(ds, 40, seed=5)
    assert len(split.probe_indices) == 40
    assert not set(split.probe_indices) & set(split.train_indices)
    assert len(split.probe_indices) + len(split.train_indices) == ds.num_examples
    # balanced data -> balanced probe within one example per class
    hist = np.bincount(split.labels[split.probe_indices], minlength=4)
    assert hist.max() - hist.min() <= 1
    again = split_probe(ds, 40, seed=5)
    assert np.array_equal(split.probe_indices, again.probe_indices)
    assert np.bincount(split.labels, minlength=4).tolist() == [50, 50, 50, 50]
    assert hist.tolist() == [10, 10, 10, 10]
    assert split.provenance == ds.provenance == {}
    assert_train_is_the_sorted_complement(split)


def test_split_probe_every_class_represented():
    ds = make_synthetic(4, 5, 30, seed=6)
    split = split_probe(ds, 7, seed=7)
    assert set(np.unique(split.labels[split.probe_indices])) == set(range(5))


def test_split_probe_keeps_every_class_of_a_skewed_table(tmp_path):
    # 30/1/1 rows per class: the one-per-class floor overshoots a probe of 3,
    # and the trim must not take a singleton class back out
    rows = ["label,f0"] + [f"{c},{i}.0" for c, n in ((0, 30), (1, 1), (2, 1)) for i in range(n)]
    path = tmp_path / "skewed.csv"
    path.write_text("\n".join(rows) + "\n")
    split = split_probe(load_table(str(path), "csv_labeled"), 3, seed=0)
    assert sorted(split.labels[split.probe_indices]) == [0, 1, 2]
    assert np.bincount(split.labels[split.probe_indices], minlength=3).tolist() == [1, 1, 1]
    assert_train_is_the_sorted_complement(split)


def test_split_probe_boundary():
    ds = make_synthetic(4, 2, 5, seed=8)
    split = split_probe(ds, 9, seed=9)
    assert len(split.train_indices) == 1
    assert_train_is_the_sorted_complement(split)
    with pytest.raises(ValueError, match="smaller"):
        split_probe(ds, 10, seed=9)


CSV_FIXTURE = """label,f0,f1
0,1.0,2.0
1,3.0,4.0
0,5.0,6.0
"""


def test_load_csv_fixture(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(CSV_FIXTURE)
    ds = load_table(str(path), "csv_labeled")
    assert ds.num_examples == 3
    assert ds.input_dim == 2
    assert ds.num_classes == 2
    assert ds.provenance == {}
    assert ds.normalize_on_split


def test_load_csv_malformed_row_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0\n0,1.0\n1,oops\n")
    with pytest.raises(ValueError, match="row 3"):
        load_table(str(path), "csv_labeled")
    path.write_text("label,f0\n0,1.0\n1\n")
    with pytest.raises(ValueError, match="row 3"):
        load_table(str(path), "csv_labeled")


def test_load_csv_non_finite_feature_names_row(tmp_path):
    path = tmp_path / "nonfinite.csv"
    for cell in ("nan", "inf", "-inf"):
        path.write_text(f"label,f0,f1\n0,1.0,2.0\n1,3.0,{cell}\n")
        with pytest.raises(ValueError, match="nonfinite.csv: row 3 has a non-finite feature"):
            load_table(str(path), "csv_labeled")


def test_load_csv_header_required(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        load_table(str(path), "csv_labeled")


def test_normalization_uses_train_statistics(tmp_path):
    rows = ["label,f0,f1"]
    raw = np.array(
        [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0], [5.0, 50.0], [6.0, 60.0]]
    )
    labels = [0, 1, 0, 1, 0, 1]
    for y, (a, b) in zip(labels, raw):
        rows.append(f"{y},{a},{b}")
    path = tmp_path / "six.csv"
    path.write_text("\n".join(rows) + "\n")
    ds = split_probe(load_table(str(path), "csv_labeled"), 2, seed=11)
    train = ds.train_indices
    mean = raw[train].mean(axis=0)
    std = raw[train].std(axis=0)
    expected = (raw - mean) / std
    assert np.allclose(ds.features, expected, atol=1e-12)
    # train columns standardize to zero mean, unit variance
    assert np.allclose(ds.features[train].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(ds.features[train].std(axis=0), 1.0, atol=1e-12)


def write_idx_pair(tmp_path, images, labels):
    img_path = tmp_path / "tiny-images-idx3-ubyte"
    lbl_path = tmp_path / "tiny-labels-idx1-ubyte"
    n, h, w = images.shape
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, n, h, w) + images.astype(np.uint8).tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x00000801, n) + labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


def test_load_idx_pair(tmp_path):
    rng = np.random.default_rng(12)
    images = rng.integers(0, 256, size=(8, 4, 5), dtype=np.uint8)
    labels = np.array([0, 1, 0, 1, 2, 2, 1, 0], dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, labels)
    ds = load_table(str(img_path), "idx_pair")
    assert ds.num_examples == 8
    assert ds.input_dim == 20
    assert ds.provenance == {"image_shape": [4, 5]}
    assert np.array_equal(ds.features[0], images[0].reshape(-1).astype(float))
    explicit = load_table(f"{img_path}::{lbl_path}", "idx_pair")
    assert np.array_equal(explicit.features, ds.features)


def test_load_idx_pair_from_a_directory_named_images(tmp_path):
    # only the file name is rewritten: the labels file sits beside the images
    directory = tmp_path / "images"
    directory.mkdir()
    images = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    img_path, _ = write_idx_pair(directory, images, np.array([0, 1], dtype=np.uint8))
    ds = load_table(str(img_path), "idx_pair")
    assert np.array_equal(ds.labels, [0, 1])


def test_load_idx_bad_magic(tmp_path):
    path = tmp_path / "bad-images-idx3-ubyte"
    path.write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + bytes(4))
    (tmp_path / "bad-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
    with pytest.raises(ValueError, match="magic"):
        load_table(str(path), "idx_pair")


def test_load_idx_truncated_header_names_file(tmp_path):
    # magic and count only: the three dimension sizes of an idx3 header are missing
    path = tmp_path / "short-images-idx3-ubyte"
    path.write_bytes(struct.pack(">II", 0x00000803, 1))
    (tmp_path / "short-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
    with pytest.raises(ValueError, match="short-images-idx3-ubyte: truncated IDX header"):
        load_table(str(path), "idx_pair")


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    img_path, _ = write_idx_pair(tmp_path, images, labels)
    with pytest.raises(ValueError, match="labels"):
        load_table(str(img_path), "idx_pair")


def test_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        load_table(str(tmp_path / "x.csv"), "parquet")
