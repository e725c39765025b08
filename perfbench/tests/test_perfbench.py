"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from backflow import load_table  # noqa: E402
from backflow.protocol import config_from_mapping, run_sweep  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_excludes_nested_wrapped_calls():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def inner():
        clock.advance(2.0)

    inner_w = tr.wrap("inner", inner)

    def outer():
        clock.advance(1.0)
        inner_w()
        clock.advance(0.5)
        inner_w()

    tr.wrap("outer", outer)()
    assert tr.layers["outer"] == [1, 5.5, 1.5]
    assert tr.layers["inner"] == [2, 4.0, 4.0]
    assert tr.self_total() == 5.5


def test_layer_metrics_report_every_layer_and_counter():
    tr = tracer.Tracer(clock=FakeClock())
    tr.counters["optimizer.step.clipped"] = 1
    tr.layers["optimizer.step"] = [4, 1.0, 1.0]
    metrics = tracer.layer_metrics(tr)
    assert set(metrics) == set(tracer.metric_units())
    assert metrics["model.forward.calls"] == 0 and metrics["model.forward.self_s"] == 0.0
    assert metrics["optimizer.step.clip_frac"] == 0.25


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "out"
    config = config_from_mapping(
        {
            "output_dir": str(out),
            "dataset": {"kind": "synthetic", "input_dim": 8, "num_classes": 3, "per_class": 40, "seed": 0},
            "model": {"kind": "softmax_linear", "input_dim": 8, "num_classes": 3},
            "regimes": ["standard", "negative"],
            "seeds": [0],
            "repeats": 4,
            "batch_size": 16,
            "probe_size": 30,
            "early_stop": {"enabled": False},
            "stats": {"bootstrap_samples": 100},
            "diagnostics": {"enabled": False},
        }
    )
    run_sweep(config)
    return out


def _load(out: Path):
    summary = json.loads((out / "summary.json").read_text())
    records = {}
    for cell in summary["cells"]:
        lines = (out / f"{cell['regime']}__{cell['break']}__seed{cell['seed']}.jsonl").read_text().splitlines()
        records[(cell["regime"], cell["break"], cell["seed"])] = [json.loads(x) for x in lines[1:]]
    return summary, records


def test_check_accepts_clean_sweep(small_sweep):
    outcome = check.check_sweep(small_sweep, exit_code=0)
    assert outcome.ok, outcome.problems
    assert outcome.ops == 16
    assert check.check_sweep(small_sweep, exit_code=1).problems == ["exit code 1"]


def test_check_reports_missing_outputs(tmp_path):
    outcome = check.check_sweep(tmp_path, exit_code=2)
    assert not outcome.ok and outcome.ops == 0 and outcome.digest is None
    assert outcome.problems[0] == "exit code 2"


def test_check_rejects_nonzero_negative_control_in_summary(small_sweep):
    summary, records = _load(small_sweep)
    assert check.check_summary(summary, records) == []
    cell = next(c for c in summary["cells"] if c["regime"] == "negative")
    cell["metrics"]["tv"]["mean"] = 1e-9
    problems = check.check_summary(summary, records)
    assert len(problems) == 1 and "negative control" in problems[0]


def test_check_rejects_nonzero_negative_control_in_records(small_sweep):
    summary, records = _load(small_sweep)
    key = next(k for k in records if k[0] == "negative")
    record = records[key][0]
    record["d2"]["js"] = 1e-12
    record["delta"]["js"] = record["d2"]["js"] - record["d1"]["js"]
    problems = check.check_summary(summary, records)
    assert len(problems) == 1 and "negative control js" in problems[0]


def test_check_rejects_inconsistent_delta_and_errors(small_sweep):
    summary, records = _load(small_sweep)
    key = next(k for k in records if k[0] == "standard")
    records[key][0]["delta"]["tv"] += 1e-3
    records[key][1]["error"] = "nan_guard: non-finite gradient"
    problems = check.check_summary(summary, records)
    assert any("delta" in p for p in problems)
    assert any("nan_guard" in p for p in problems)


def test_summary_digest_ignores_created_at(small_sweep):
    summary, _ = _load(small_sweep)
    later = json.loads(json.dumps(summary))
    later["meta"]["created_at"] = "2999-01-01T00:00:00Z"
    assert check.summary_digest(later) == check.summary_digest(summary)
    later["cells"][0]["n_repeats"] += 1
    assert check.summary_digest(later) != check.summary_digest(summary)


ORACLE_OK = """checked 4 processes (2 factoring, 2 break+lifting), 10 pairs x 3 divergences each
worst channel residual: 1.9e-16
worst back-flow delta:  -7.680e-12 (bound 1.0e-10)
memoryful demo process (buffer routes the second step):
  delta before break: +0.400000 (tv) -> positive, memory exhibited
  delta after break:  +0.000000e+00 -> within bound 1.0e-10
"""


def test_check_oracle():
    outcome = check.check_oracle(ORACLE_OK, 0)
    assert outcome.ok and outcome.ops == 4
    assert not check.check_oracle(ORACLE_OK.replace("-7.680e-12", "+3.0e-9"), 0).ok
    assert not check.check_oracle(ORACLE_OK.replace("+0.400000", "+0.000000"), 0).ok
    assert not check.check_oracle(ORACLE_OK, 1).ok
    assert not check.check_oracle(ORACLE_OK.splitlines()[0], 0).ok


def test_idx_images_round_trip_through_load_table(tmp_path):
    images, labels = workloads.write_idx_images(tmp_path, seed=3)
    path = f"{tmp_path / workloads.IMAGES_FILE}::{tmp_path / workloads.LABELS_FILE}"
    dataset = load_table(path, "idx_pair")
    side = workloads.IMAGE_SIDE
    assert dataset.provenance["image_shape"] == [side, side]
    np.testing.assert_array_equal(dataset.features, images.reshape(len(images), -1).astype(np.float64))
    np.testing.assert_array_equal(dataset.labels, labels)
    assert np.bincount(dataset.labels).tolist() == [workloads.IMAGE_PER_CLASS] * workloads.IMAGE_CLASSES
    other, _ = workloads.write_idx_images(tmp_path / "other", seed=4)
    assert not np.array_equal(images, other)


def test_default_seed_reproduces_shipped_demo_config():
    shipped = json.loads((ROOT / "configs" / "demo.json").read_text())
    generated = workloads.demo_config(0)
    assert {k: v for k, v in generated.items() if k != "output_dir"} == {
        k: v for k, v in shipped.items() if k != "output_dir"
    }
    assert workloads.demo_config(5)["dataset"]["seed"] == 5
    assert workloads.demo_config(5)["seeds"] == [10, 11]


def test_prepare_writes_only_relative_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        wl = workloads.prepare(name, 1, tmp_path / name)
        if wl.is_oracle:
            assert wl.cli_args[:3] == ["oracle", "--seed", "1"]
            continue
        config = json.loads((tmp_path / name / "config.json").read_text())
        assert config["output_dir"] == "out"
        assert config["workers"] == (2 if name == "demo-w2" else 1)
        assert wl.planned_ops == workloads.planned_repeats(config)


def test_only_image_pins_blas_threads(tmp_path):
    for name in workloads.WORKLOADS:
        wl = workloads.prepare(name, 1, tmp_path / name)
        assert wl.env == (workloads.PINNED_BLAS if name == "image" else {})
