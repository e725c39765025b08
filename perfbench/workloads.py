"""Workload inputs, generated from one integer seed.

The program under test sees only what this module writes into a work
directory: a run config and, for ``image``, an IDX image/label pair.  All
paths in the configs are relative to that directory, so the config digest
(and with it ``summary.json``) does not depend on where the checkout lives.

Why these four workloads:

* ``demo``: ``configs/demo.json`` as shipped (seed 0 reproduces it exactly),
  serial.  20 cells x 48 repeats of tiny (64x32)x(32x32) gradients, so NumPy
  dispatch dominates; the case a batched repeat engine should speed up.
* ``demo-w2``: the same sweep with ``workers: 2``; the only workload that
  goes through the process pool, which pickles the whole dataset per task.
* ``image``: a file-backed sweep on seeded 16x16 IDX images with ``mlp1``
  (hidden 64), batch 128, probe 1000, pretrained base, diagnostics on.
  Per-example augmentation loops and the BLAS-bound probe forward dominate,
  so batching repeats should gain little here.  Early-stop checkpoints fall
  inside the run, but the threshold is set so that it never fires on a
  nonzero delta: under the default threshold most cells stopped at the
  floor, which would tie run length to the seed.  It is the one workload
  whose program runs with one BLAS thread (``PINNED_BLAS``): its probe
  forward is large enough for OpenBLAS to thread, and with two threads on
  two CPUs one busy neighbouring process made it 2.2x slower (pinned: no
  change), so unpinned it measured the scheduler, not the program.
* ``oracle``: ``backflow oracle --demo-witness``; the only workload on the
  finite process oracle, touching no SGD layer.
"""

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("demo", "demo-w2", "image", "oracle")

ORACLE_COUNT = 400
IMAGE_SIDE = 16
IMAGE_CLASSES = 10
IMAGE_PER_CLASS = 300
IMAGES_FILE = "data/train-images-idx3-ubyte"
LABELS_FILE = "data/train-labels-idx1-ubyte"
IDX_PATH = f"{IMAGES_FILE}::{LABELS_FILE}"  # the loader's explicit images::labels form
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: list[str]  # arguments of ``backflow``, relative to the work directory
    planned_ops: int  # repeats (sweeps) or processes (oracle) a full run attempts
    env: dict = field(default_factory=dict)  # set for the program over the caller's environment

    @property
    def is_oracle(self) -> bool:
        return self.cli_args[0] == "oracle"


def demo_config(seed: int) -> dict:
    """``configs/demo.json`` with its dataset and model seeds drawn from ``seed``."""
    return {
        "output_dir": "out",
        "dataset": {
            "kind": "synthetic",
            "input_dim": 32,
            "num_classes": 10,
            "per_class": 500,
            "spread": 3.0,
            "seed": seed,
        },
        "model": {"kind": "mlp1", "input_dim": 32, "num_classes": 10, "hidden_dim": 32, "activation": "tanh"},
        "base_stage": "init",
        "regimes": ["standard", "resonant_strong", "resonant_mid", "orthogonal", "negative"],
        "break_flags": ["no", "break"],
        "seeds": [2 * seed, 2 * seed + 1],
        "repeats": 48,
        "batch_size": 64,
        "probe_size": 512,
        "early_stop": {"enabled": False, "floor": 64, "stride": 32, "half_width": 2e-4},
        "stats": {"bootstrap_samples": 2000, "tost_epsilon": 1e-3, "bh_q": 0.05},
        "diagnostics": {"enabled": True, "noncommute_k_max": 6, "probe_subset": 512},
        "workers": 1,
    }


def image_config(seed: int) -> dict:
    return {
        "output_dir": "out",
        "dataset": {"kind": "file", "path": IDX_PATH, "format": "idx_pair"},
        "model": {
            "kind": "mlp1",
            "input_dim": IMAGE_SIDE * IMAGE_SIDE,
            "num_classes": IMAGE_CLASSES,
            "hidden_dim": 64,
            "activation": "tanh",
        },
        "base_stage": "early",
        "regimes": ["standard", "orthogonal", "negative"],
        "break_flags": ["no", "break"],
        "seeds": [seed],
        "repeats": 16,
        "batch_size": 128,
        "probe_size": 1000,
        # A checkpoint at 8 of 16 repeats; a half-width of 1e-12 is reached only by
        # the negative control, whose deltas are exactly zero.
        "early_stop": {"enabled": True, "floor": 8, "stride": 8, "half_width": 1e-12},
        "diagnostics": {"enabled": True, "noncommute_k_max": 6, "probe_subset": 512},
        "workers": 1,
    }


def _write_idx(path: Path, magic: int, array: np.ndarray) -> None:
    header = struct.pack(">I", magic) + struct.pack(f">{array.ndim}I", *array.shape)
    path.write_bytes(header + np.ascontiguousarray(array, dtype=np.uint8).tobytes())


def write_idx_images(directory: Path, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Write a seeded 10-class IDX pair of 16x16 uint8 images; returns (images, labels).

    Each class is a smooth random template; examples add pixel noise and a
    per-example brightness offset, so classes overlap but stay learnable.
    """
    rng = np.random.default_rng(seed)
    side = IMAGE_SIDE
    coarse = rng.normal(size=(IMAGE_CLASSES, 4, 4))
    templates = np.kron(coarse, np.ones((side // 4, side // 4)))
    templates = 128.0 + 40.0 * templates
    labels = rng.permutation(np.repeat(np.arange(IMAGE_CLASSES), IMAGE_PER_CLASS)).astype(np.uint8)
    n = labels.size
    noise = rng.normal(scale=30.0, size=(n, side, side))
    offset = rng.normal(scale=15.0, size=(n, 1, 1))
    images = np.clip(np.rint(templates[labels] + noise + offset), 0, 255).astype(np.uint8)
    (directory / IMAGES_FILE).parent.mkdir(parents=True, exist_ok=True)
    _write_idx(directory / IMAGES_FILE, 0x00000803, images)
    _write_idx(directory / LABELS_FILE, 0x00000801, labels)
    return images, labels


def planned_repeats(config: dict) -> int:
    cells = len(config["regimes"]) * len(config["break_flags"]) * len(config["seeds"])
    return cells * config["repeats"]


def prepare(name: str, seed: int, directory: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    if name == "oracle":
        args = ["oracle", "--seed", str(seed), "--count", str(ORACLE_COUNT), "--demo-witness"]
        return Workload(name, args, 2 * ORACLE_COUNT)
    if name in ("demo", "demo-w2"):
        config = demo_config(seed)
        if name == "demo-w2":
            config["workers"] = 2
    elif name == "image":
        write_idx_images(directory, seed)
        config = image_config(seed)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    (directory / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    env = PINNED_BLAS if name == "image" else {}
    return Workload(name, ["run", "config.json"], planned_repeats(config), dict(env))
