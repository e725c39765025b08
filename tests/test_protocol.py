import json
import re
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import backflow.engine as engine
import backflow.protocol as protocol
from backflow.artifacts import cell_filename, read_jsonl, write_atomic
from backflow.data import make_synthetic, split_probe
from backflow.diagnostics import cosine
from backflow.divergences import KINDS, div_avg
from backflow.errors import ConfigError, NanGuardError
from backflow.instruments import apply_augmentation
from backflow.model import ModelSpec, forward, init_params, loss_and_grad
from backflow.optimizer import OptimizerConfig, causal_break, step
from backflow.engine import BackflowRecord, ProtocolSettings, Regime, pretrain, run_noncommute_curve
from backflow.protocol import (
    REGIME_PRESETS,
    EarlyStopPolicy,
    StatsPolicy,
    collect_with_early_stop,
    config_from_mapping,
    resolve_regime,
    run_micro_experiment,
    run_sweep,
)
from backflow.seeding import derive_seed
from backflow.summary import summarize

from test_data import write_idx_pair

SPEC = ModelSpec("softmax_linear", 12, 4)
SETTINGS = ProtocolSettings(batch_size=24)


@pytest.fixture(scope="module")
def dataset():
    ds = make_synthetic(12, 4, 120, spread=3.0, seed=0)
    return split_probe(ds, 96, seed=derive_seed("probe", 0))


@pytest.fixture(scope="module")
def base_params():
    return init_params(SPEC, derive_seed(0, "init"))


def small_regime(**overrides):
    fields = dict(
        name="test", k=2, lr=0.02, momentum=0.9, aug_a="weak", aug_aprime="color",
        aug_b="weak", overlap=0.5, same_classes=True,
    )
    fields.update(overrides)
    return Regime(**fields)


def probe_rows(dataset):
    """The first 64 probe rows: the subset the curves below read."""
    return dataset.features[dataset.probe_indices[:64]]


def test_placebo_is_exactly_zero(dataset, base_params):
    regime = small_regime(aug_aprime="weak")  # A and A' share kind and seed stream
    record = run_micro_experiment(base_params, SPEC, regime, False, dataset,
                                  dataset.probe_indices, seed=11, settings=SETTINGS)
    for kind in KINDS:
        assert record.d1[kind] == 0.0
        assert record.d2[kind] == 0.0
        assert record.delta[kind] == 0.0


def test_negative_preset_is_exactly_zero(dataset, base_params):
    record = run_micro_experiment(base_params, SPEC, REGIME_PRESETS["negative"], False,
                                  dataset, dataset.probe_indices, seed=3, settings=SETTINGS)
    assert all(record.delta[kind] == 0.0 for kind in KINDS)


def test_delta_is_d2_minus_d1(dataset, base_params):
    record = run_micro_experiment(base_params, SPEC, small_regime(), False, dataset,
                                  dataset.probe_indices, seed=5, settings=SETTINGS)
    for kind in KINDS:
        assert record.delta[kind] == pytest.approx(record.d2[kind] - record.d1[kind], abs=1e-12)
        assert 0.0 <= record.d1[kind] <= 1.0
        assert 0.0 <= record.d2[kind] <= 1.0


def test_branch_symmetry_under_aug_swap(dataset, base_params):
    regime = small_regime()
    swapped = small_regime(aug_a=regime.aug_aprime, aug_aprime=regime.aug_a)
    a = run_micro_experiment(base_params, SPEC, regime, False, dataset,
                             dataset.probe_indices, seed=7, settings=SETTINGS)
    b = run_micro_experiment(base_params, SPEC, swapped, False, dataset,
                             dataset.probe_indices, seed=7, settings=SETTINGS)
    assert a.d1 == b.d1
    assert a.d2 == b.d2


def test_determinism_of_records(dataset, base_params):
    kwargs = dict(settings=SETTINGS)
    a = run_micro_experiment(base_params, SPEC, small_regime(), False, dataset,
                             dataset.probe_indices, seed=13, **kwargs)
    b = run_micro_experiment(base_params, SPEC, small_regime(), False, dataset,
                             dataset.probe_indices, seed=13, **kwargs)
    assert a.d1 == b.d1 and a.d2 == b.d2 and a.delta == b.delta
    assert a.momentum_alignment == b.momentum_alignment


def test_momentum_zero_collapse_bitwise(dataset, base_params):
    regime = small_regime(momentum=0.0)
    for seed in (21, 22, 23, 24):
        no_break = run_micro_experiment(base_params, SPEC, regime, False, dataset,
                                        dataset.probe_indices, seed=seed, settings=SETTINGS)
        broke = run_micro_experiment(base_params, SPEC, regime, True, dataset,
                                     dataset.probe_indices, seed=seed, settings=SETTINGS)
        assert no_break.d1 == broke.d1
        assert no_break.d2 == broke.d2
        assert no_break.delta == broke.delta


def test_break_first_b_update_is_momentum_free(monkeypatch, dataset, base_params):
    regime = small_regime(momentum=0.95)
    real_step = engine.step
    updates = []  # the parameters after each stacked step: k of the A phase, then k of B

    def recorded_step(params, velocity, grad, config):
        updates.append(real_step(params, velocity, grad, config))
        return updates[-1]

    monkeypatch.setattr(engine, "step", recorded_step)
    record = run_micro_experiment(base_params, SPEC, regime, True, dataset, dataset.probe_indices,
                                  seed=31, settings=SETTINGS)
    assert record.ok and len(updates) == 2 * regime.k
    params_mid, first_b_params = updates[regime.k - 1][0], updates[regime.k][0]
    _, _, xb, _, yb = engine._repeat_batches(regime, dataset, 31, SETTINGS.batch_size)
    config = OptimizerConfig(lr=regime.lr, momentum=0.0,
                             weight_decay=SETTINGS.weight_decay, clip_norm=SETTINGS.clip_norm)
    for row in (0, 1):  # the A and A' rows
        mid = params_mid[row]
        _, grad = loss_and_grad(SPEC, mid, xb, yb)
        expected, _ = step(mid, np.zeros(base_params.size), grad, config)
        assert np.array_equal(first_b_params[row], expected)


def test_alignment_recorded_only_without_break(dataset, base_params):
    no_break = run_micro_experiment(base_params, SPEC, small_regime(), False, dataset,
                                    dataset.probe_indices, seed=41, settings=SETTINGS)
    broke = run_micro_experiment(base_params, SPEC, small_regime(), True, dataset,
                                 dataset.probe_indices, seed=41, settings=SETTINGS)
    assert no_break.momentum_alignment is not None
    assert -1.0 - 1e-12 <= no_break.momentum_alignment <= 1.0 + 1e-12
    assert broke.momentum_alignment is None


def test_micro_experiment_matches_hand_simulation(dataset, base_params):
    # k=1, momentum 0: replay the whole pipeline from the public pieces
    from backflow.instruments import sample_batch_plan

    regime = small_regime(k=1, momentum=0.0, lr=0.05)
    seed = 55
    record = run_micro_experiment(base_params, SPEC, regime, False, dataset,
                                  dataset.probe_indices, seed=seed, settings=SETTINGS)

    plan = sample_batch_plan(dataset, SETTINGS.batch_size, regime.overlap,
                             regime.same_classes, derive_seed(seed, "plan"))
    aug_seed = derive_seed(seed, "aug_first")
    config = OptimizerConfig(lr=regime.lr, momentum=0.0,
                             weight_decay=SETTINGS.weight_decay, clip_norm=SETTINGS.clip_norm)

    def one_step(params, velocity, kind, aug_seed, indices):
        x = apply_augmentation(kind, dataset.features[indices], aug_seed)
        _, grad = loss_and_grad(SPEC, params, x, dataset.labels[indices])
        return step(params, velocity, grad, config)

    pa, va = one_step(base_params, np.zeros(base_params.size), "weak", aug_seed, plan.indices_a)
    pap, vap = one_step(base_params, np.zeros(base_params.size), "color", aug_seed, plan.indices_a)
    probe_x = dataset.features[dataset.probe_indices]
    d1 = div_avg(("tv",), forward(SPEC, pa, probe_x), forward(SPEC, pap, probe_x))["tv"]
    b_seed = derive_seed(seed, "aug_b")
    pab, _ = one_step(pa, va, "weak", b_seed, plan.indices_b)
    papb, _ = one_step(pap, vap, "weak", b_seed, plan.indices_b)
    d2 = div_avg(("tv",), forward(SPEC, pab, probe_x), forward(SPEC, papb, probe_x))["tv"]

    assert record.d1["tv"] == pytest.approx(d1, abs=1e-12)
    assert record.d2["tv"] == pytest.approx(d2, abs=1e-12)
    assert record.delta["tv"] == pytest.approx(d2 - d1, abs=1e-12)


def reference_record(base_params, regime, flag, dataset, probe_x, seed):
    """One repeat and one flag from the definitions: unstacked, k plain steps per phase.

    Returns ``(d1, d2, delta, alignment)``, each divergence a ``{kind: value}``.
    """
    x_a, x_ap, x_b, y_a, y_b = engine._repeat_batches(regime, dataset, seed, SETTINGS.batch_size)
    config = OptimizerConfig(lr=regime.lr, momentum=regime.momentum,
                             weight_decay=SETTINGS.weight_decay, clip_norm=SETTINGS.clip_norm)

    def train(params, velocity, x, y):
        for _ in range(regime.k):
            _, grad = loss_and_grad(SPEC, params, x, y)
            params, velocity = step(params, velocity, grad, config)
        return params, velocity

    zero = np.zeros(base_params.size)
    mids = [train(base_params, zero, x, y_a) for x in (x_a, x_ap)]  # the A row, then the A' row
    ends = [train(p, causal_break(v) if flag == "break" else v, x_b, y_b) for p, v in mids]
    d1 = div_avg(KINDS, *(forward(SPEC, p, probe_x) for p, _ in mids))
    d2 = div_avg(KINDS, *(forward(SPEC, p, probe_x) for p, _ in ends))
    (params_a, velocity_a), _ = mids
    alignment = cosine(loss_and_grad(SPEC, params_a, x_b, y_b)[1], velocity_a) if flag == "no" else None
    return d1, d2, {kind: d2[kind] - d1[kind] for kind in KINDS}, alignment


def test_block_records_match_the_unstacked_reference(dataset, base_params):
    # k >= 2, momentum 0.9, overlap < 1, both flags, three repeats in one stacked block
    regime, flags = small_regime(k=3, momentum=0.9, overlap=0.5), ("no", "break")
    probe_x = dataset.features[dataset.probe_indices]
    repeats = [(derive_seed("repeat", 0, i), i) for i in range(3)]
    runs = engine.guarded_block(base_params, SPEC, regime, flags, dataset, probe_x, SETTINGS, repeats)
    for (seed, _), run in zip(repeats, runs):
        for flag in flags:
            record = run[flag].record
            d1, d2, delta, alignment = reference_record(base_params, regime, flag, dataset, probe_x, seed)
            for kind in KINDS:
                assert record.d1[kind] == pytest.approx(d1[kind], rel=1e-12, abs=0)
                assert record.d2[kind] == pytest.approx(d2[kind], rel=1e-12, abs=0)
                # a difference: its tolerance is relative to the terms it subtracts
                assert record.delta[kind] == pytest.approx(delta[kind], rel=0, abs=1e-12 * max(d1[kind], d2[kind]))
            if flag == "no":
                assert record.momentum_alignment == pytest.approx(alignment, rel=1e-12, abs=0)
            else:
                assert record.momentum_alignment is None


def test_alignment_reads_the_a_row_at_its_mid_time_parameters(dataset, base_params):
    regime, flags = small_regime(k=3, momentum=0.9), ("no", "break")
    repeats = [(derive_seed("repeat", 1, i), i) for i in range(3)]
    runs = engine.guarded_block(base_params, SPEC, regime, flags, dataset,
                                dataset.features[dataset.probe_indices], SETTINGS, repeats)
    for (seed, _), run in zip(repeats, runs):
        _, _, x_b, _, y_b = engine._repeat_batches(regime, dataset, seed, SETTINGS.batch_size)
        params_mid, velocity_mid = run["no"].params_mid, run["no"].velocity_mid
        grad_a, grad_ap = (loss_and_grad(SPEC, p, x_b, y_b)[1] for p in params_mid)
        alignment = run["no"].record.momentum_alignment
        assert alignment == pytest.approx(cosine(grad_a, velocity_mid[0]), rel=1e-12, abs=0)
        # the A' row's gradient, against either row's velocity, is another value
        for velocity in velocity_mid:
            assert alignment != pytest.approx(cosine(grad_ap, velocity), rel=1e-12, abs=0)


def test_noncommute_same_instrument_is_zero(dataset, base_params):
    regime = small_regime(aug_a="none", aug_b="none", overlap=1.0)
    curve = run_noncommute_curve(base_params, SPEC, regime, ("no",), dataset,
                                 probe_rows(dataset), seed=61, k_max=3,
                                 settings=SETTINGS)["no"]
    assert [v for _, v in curve] == [0.0, 0.0, 0.0]
    assert [k for k, _ in curve] == [1, 2, 3]
    no_k = run_noncommute_curve(base_params, SPEC, regime, ("no", "break"), dataset,
                                probe_rows(dataset), seed=61, k_max=0, settings=SETTINGS)
    assert no_k == {"no": [], "break": []}


def test_noncommute_eta_squared_scaling(dataset, base_params):
    small = small_regime(k=1, momentum=0.0, lr=1e-3, aug_a="weak", aug_b="color", overlap=0.0)
    half = small_regime(k=1, momentum=0.0, lr=5e-4, aug_a="weak", aug_b="color", overlap=0.0)
    kwargs = dict(settings=SETTINGS, k_max=1)
    tv_full = run_noncommute_curve(base_params, SPEC, small, ("no",), dataset,
                                   probe_rows(dataset), seed=63, **kwargs)["no"][0][1]
    tv_half = run_noncommute_curve(base_params, SPEC, half, ("no",), dataset,
                                   probe_rows(dataset), seed=63, **kwargs)["no"][0][1]
    assert tv_full / tv_half == pytest.approx(4.0, rel=0.15)


def test_noncommute_resonant_curves_nondecreasing(dataset, base_params):
    regime = small_regime(k=4, momentum=0.99, lr=0.03, overlap=1.0, aug_a="color",
                          aug_aprime="blur", aug_b="weak")
    good = 0
    for seed in range(10):
        curve = run_noncommute_curve(base_params, SPEC, regime, ("no",), dataset,
                                     probe_rows(dataset), seed=seed, k_max=4,
                                     settings=SETTINGS)["no"]
        values = [v for _, v in curve]
        good += all(values[i + 1] >= values[i] - 1e-12 for i in range(len(values) - 1))
    assert good >= 8


def test_nan_guard_retry_succeeds(monkeypatch, dataset, base_params):
    calls = {"n": 0}
    real_step = engine.step

    def flaky_step(params, velocity, grad, config):
        calls["n"] += 1
        if calls["n"] == 1:
            raise NanGuardError("injected failure")
        return real_step(params, velocity, grad, config)

    monkeypatch.setattr(engine, "step", flaky_step)
    record = run_micro_experiment(base_params, SPEC, small_regime(), False, dataset,
                                  dataset.probe_indices, seed=71, settings=SETTINGS)
    assert record.error is None
    assert record.retried


def test_nan_guard_persistent_failure_records_error(monkeypatch, dataset, base_params):
    def always_fail(params, velocity, grad, config):
        raise NanGuardError("injected failure")

    monkeypatch.setattr(engine, "step", always_fail)
    record = run_micro_experiment(base_params, SPEC, small_regime(), False, dataset,
                                  dataset.probe_indices, seed=72, settings=SETTINGS)
    assert record.error is not None and "nan_guard" in record.error
    assert record.d1 is None and record.delta is None
    assert record.retried


def make_injected_record(i, value):
    return BackflowRecord(repeat_id=i, seed=i, break_applied=False,
                          d1={"tv": 0.0}, d2={"tv": value},
                          delta={"tv": value, "js": value, "hellinger": value})


def collect_injected(value_of, max_repeats, policy):
    """collect_with_early_stop on one flag, one injected record per repeat id, one id per block."""
    def sample(open_flags, ids):
        assert open_flags == ("no",)
        return {"no": [make_injected_record(i, value_of(i)) for i in ids]}

    return collect_with_early_stop(sample, max_repeats, policy, flags=("no",), block_size=lambda n_open: 1)


def test_early_stop_zero_variance_stops_at_floor():
    records, stopped = collect_injected(lambda i: 0.0, 128, EarlyStopPolicy())
    assert stopped
    assert len(records) == 64


def test_early_stop_noisy_runs_to_max():
    rng = np.random.default_rng(0)
    noise = rng.normal(0.0, 0.01, size=128)
    records, stopped = collect_injected(lambda i: noise[i], 128, EarlyStopPolicy())
    assert not stopped
    assert len(records) == 128


def test_early_stop_disabled_runs_all():
    records, stopped = collect_injected(lambda i: 0.0, 80, EarlyStopPolicy(enabled=False))
    assert not stopped and len(records) == 80


def test_below_floor_runs_exactly_requested():
    records, stopped = collect_injected(lambda i: 0.0, 4, EarlyStopPolicy())
    assert not stopped and len(records) == 4


def test_pretrain_improves_fit(dataset):
    params = init_params(SPEC, 0)
    trained = pretrain(SPEC, params, dataset, passes=2, batch_size=24, seed=1)
    probe_x = dataset.features[dataset.probe_indices]
    probe_y = dataset.labels[dataset.probe_indices]
    before = (forward(SPEC, params, probe_x).argmax(1) == probe_y).mean()
    after = (forward(SPEC, trained, probe_x).argmax(1) == probe_y).mean()
    assert after > before


def test_pretrain_matches_unstacked_steps_bitwise(dataset):
    params = init_params(SPEC, 0)
    trained = pretrain(SPEC, params, dataset, passes=2, batch_size=24, seed=1)
    rng = np.random.default_rng(1)
    config = OptimizerConfig(lr=0.1, momentum=0.9, weight_decay=5e-4, clip_norm=1.0)
    expected, velocity = params, np.zeros(params.size)
    for _ in range(2):
        order = rng.permutation(dataset.train_indices)
        for start in range(0, len(order) - 23, 24):
            batch = order[start : start + 24]
            _, grad = loss_and_grad(SPEC, expected, dataset.features[batch], dataset.labels[batch])
            expected, velocity = step(expected, velocity, grad, config)
    assert trained.shape == params.shape and trained.tobytes() == expected.tobytes()


def sweep_mapping(tmp_path, **overrides):
    mapping = {
        "output_dir": str(tmp_path / "run"),
        "dataset": {"kind": "synthetic", "input_dim": 12, "num_classes": 4,
                    "per_class": 120, "spread": 3.0, "seed": 0},
        "model": {"kind": "softmax_linear", "input_dim": 12, "num_classes": 4},
        "regimes": ["standard"],
        "break_flags": ["no", "break"],
        "seeds": [0],
        "repeats": 4,
        "batch_size": 24,
        "probe_size": 96,
        "early_stop": {"enabled": False},
        "diagnostics": {"noncommute_k_max": 2, "probe_subset": 64},
    }
    mapping.update(overrides)
    return mapping


def test_run_sweep_artifacts_and_determinism(tmp_path):
    config = config_from_mapping(sweep_mapping(tmp_path))
    first = run_sweep(config, created_at="pinned")
    run_dir = first.run_dir
    for name in ("config.json", "summary.json", "diagnostics.jsonl",
                 "standard__no__seed0.jsonl", "standard__break__seed0.jsonl"):
        assert (run_dir / name).exists(), name

    blobs = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}
    config2 = config_from_mapping(sweep_mapping(tmp_path, output_dir=str(tmp_path / "run2")))
    second = run_sweep(config2, created_at="pinned")
    for p in second.run_dir.iterdir():
        if p.name == "config.json":  # differs in output_dir only
            continue
        assert p.read_bytes() == blobs[p.name], f"{p.name} not byte-identical"


def test_run_sweep_summary_means_match_jsonl(tmp_path):
    config = config_from_mapping(sweep_mapping(tmp_path, repeats=6))
    result = run_sweep(config, created_at="pinned")
    for cell in result.summary["cells"]:
        path = result.run_dir / f"{cell['regime']}__{cell['break']}__seed{cell['seed']}.jsonl"
        lines = path.read_text().splitlines()
        payloads = [json.loads(line) for line in lines[1:]]
        assert len(payloads) == cell["n_repeats"] == 6
        deltas = [p["delta"]["tv"] for p in payloads if p["error"] is None]
        assert cell["metrics"]["tv"]["mean"] == pytest.approx(np.mean(deltas), abs=1e-12)
        for kind in KINDS:
            assert kind in cell["metrics"]


def test_run_sweep_zero_variance_early_stops_at_floor(tmp_path):
    config = config_from_mapping(sweep_mapping(
        tmp_path,
        regimes=["negative"],
        break_flags=["no"],
        repeats=128,
        early_stop={"enabled": True, "floor": 64, "stride": 32, "half_width": 2e-4},
        diagnostics={"enabled": False},
    ))
    result = run_sweep(config, created_at="pinned")
    cell = result.summary["cells"][0]
    assert cell["early_stopped"]
    assert cell["n_repeats"] == 64
    assert cell["metrics"]["tv"]["ci_low"] == 0.0 == cell["metrics"]["tv"]["ci_high"]


def artifact_bytes(run_dir):
    """Every artifact of a run but config.json, which echoes output_dir."""
    return {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file() and p.name != "config.json"}


# sha256 of the artifacts of PINNED_SWEEP, computed with the per-branch engine
# (each branch of each flag stepped alone) and, for summary.json, the math-only
# t tails; the same at one and two BLAS threads
PINNED_SWEEP = dict(
    model={"kind": "mlp1", "input_dim": 12, "num_classes": 4, "hidden_dim": 8, "activation": "tanh"},
    regimes=["standard", "resonant_strong"],
    break_flags=["break", "no"],
    repeats=16,
    early_stop={"enabled": True, "floor": 4, "stride": 4, "half_width": 2e-3},
    diagnostics={"noncommute_k_max": 3, "probe_subset": 64},
)
PINNED_SHA256 = {
    "diagnostics.jsonl": "003556c43d64ac0a94073520a0e065de96ecfc22daa55820f6fb349e14e0abda",
    "resonant_strong__break__seed0.jsonl": "04d9c0d2cdf1f54f186b178a8ac4cd0751f1e4582c4f9e366035dd8bc2beca6a",
    "resonant_strong__no__seed0.jsonl": "18ad263fb99e49edebb3029db547d704a30ee5d01649758873dfe6dcbb39fe97",
    "standard__break__seed0.jsonl": "af7a811fece771b1c2911c7d8756b0bfcc4eb5fb1dcb697cef216ce7fc26b5a0",
    "standard__no__seed0.jsonl": "769d7eba46967e501dbcc6ee73b791f1b90631d21fc2fc06e34c91739d6d1334",
    "summary.json": "04f2421c8fc4d66d96ae8e9c44a7b9930ed69f14dc1bafe3b8bf952e220b59a6",
}


def test_run_sweep_artifacts_are_pinned_byte_for_byte(tmp_path):
    from hashlib import sha256

    result = run_sweep(config_from_mapping(sweep_mapping(tmp_path, **PINNED_SWEEP)), created_at="pinned")
    n_repeats = {(c["regime"], c["break"]): c["n_repeats"] for c in result.summary["cells"]}
    # the flags of resonant_strong stop at different checkpoints
    assert n_repeats[("resonant_strong", "break")] != n_repeats[("resonant_strong", "no")]
    digests = {name: sha256(blob).hexdigest() for name, blob in artifact_bytes(result.run_dir).items()}
    assert digests == PINNED_SHA256


def seeded_idx_images(directory, seed, n=240, shape=(6, 7), classes=4):
    """Write a seeded IDX pair of uint8 images: a random template per class plus pixel noise."""
    rng = np.random.default_rng(seed)
    templates = rng.uniform(40.0, 216.0, size=(classes, *shape))
    labels = rng.permutation(np.repeat(np.arange(classes), n // classes))
    images = np.clip(np.rint(templates[labels] + rng.normal(scale=25.0, size=(n, *shape))), 0, 255)
    write_idx_pair(directory, images, labels)


# an image sweep: standard trains A' on "color", resonant_strong trains A on
# "color" and A' on "blur"; paths are relative so the config digest is fixed
PINNED_IMAGE_SWEEP = dict(
    output_dir="run",
    dataset={"kind": "file", "path": "tiny-images-idx3-ubyte", "format": "idx_pair"},
    model={"kind": "mlp1", "input_dim": 42, "num_classes": 4, "hidden_dim": 8, "activation": "tanh"},
    regimes=["standard", "resonant_strong"],
    base_stage="early",
    pretrain_passes=1,
    repeats=6,
    probe_size=64,
    diagnostics={"noncommute_k_max": 3, "probe_subset": 32},
)
# sha256 of its artifacts, computed with the per-image augmentation loops and,
# for summary.json, the math-only t tails; the same at one and two BLAS threads
PINNED_IMAGE_SHA256 = {
    "diagnostics.jsonl": "ac2a43494c11e096cc706b8ffba12f2ca9074da219f3c389984e0611395d8b9c",
    "resonant_strong__break__seed0.jsonl": "965225a424e9a8e4fc4463d6d022dd6c97f5163e18a58db302d53d7efb3da7b5",
    "resonant_strong__no__seed0.jsonl": "3cf7052291354b1ad45ed0135fce69ce3908ab3fccdfd41f840b89d3ad4d73c0",
    "standard__break__seed0.jsonl": "8f9a786469593b99a19f5b37ef506591ceaadb152a988a363ff671ec22e2026c",
    "standard__no__seed0.jsonl": "8001f5f75caf711c0d57849aa7068fdb4cc2ca75e08a820e427b14404e95d66a",
    "summary.json": "2d1efa88efc1de7523e6ace255557deb4cedf6f55b4a13d5f4469b48e1cac416",
}


def test_image_sweep_artifacts_are_pinned_byte_for_byte(tmp_path, monkeypatch):
    from hashlib import sha256

    monkeypatch.chdir(tmp_path)
    seeded_idx_images(tmp_path, seed=5)
    config = config_from_mapping(sweep_mapping(tmp_path, **PINNED_IMAGE_SWEEP))
    result = run_sweep(config, created_at="pinned")
    assert result.summary["n_persistent_errors"] == 0
    digests = {name: sha256(blob).hexdigest() for name, blob in artifact_bytes(result.run_dir).items()}
    assert digests == PINNED_IMAGE_SHA256


def test_failed_artifact_write_leaves_no_partial_or_temp_file(tmp_path, monkeypatch):
    real_write_text = Path.write_text

    def interrupted(self, text, *args, **kwargs):
        if "summary" not in self.name:
            return real_write_text(self, text, *args, **kwargs)
        real_write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", interrupted)
    config = config_from_mapping(sweep_mapping(tmp_path))
    with pytest.raises(OSError, match="disk full"):
        run_sweep(config, created_at="pinned")
    # the artifacts written before the failure are complete; summary.json is absent, not truncated
    names = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert names == ["config.json", "diagnostics.jsonl", "standard__break__seed0.jsonl",
                     "standard__no__seed0.jsonl"]
    expected_lines = {"diagnostics.jsonl": 3, "standard__break__seed0.jsonl": 5, "standard__no__seed0.jsonl": 5}
    for name, count in expected_lines.items():
        lines = (tmp_path / "run" / name).read_text().splitlines()
        assert len([json.loads(line) for line in lines]) == count

    # an artifact that already exists keeps its old bytes when its rewrite fails
    old = tmp_path / "run" / "summary.json"
    old.write_bytes(b"previous\n")
    with pytest.raises(OSError, match="disk full"):
        write_atomic(old, "replacement\n")
    assert old.read_bytes() == b"previous\n"
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted([*names, "summary.json"])


def test_shared_flag_run_matches_single_flag_runs(monkeypatch, dataset, base_params):
    probe_x = dataset.features[dataset.probe_indices]
    regime = small_regime(momentum=0.95)
    flags = ("no", "break")

    def block(run_flags):
        """Repeat 3 of seed 17 as a one-repeat block for ``run_flags``, as ``{flag: Repeat}``."""
        (runs,) = engine.guarded_block(base_params, SPEC, regime, run_flags, dataset, probe_x, SETTINGS,
                                        [(17, 3)])
        return runs

    singles = {flag: block((flag,))[flag] for flag in flags}
    expected = {flag: singles[flag].record for flag in flags}
    calls = spy_engine(monkeypatch, lambda regime, repeats, flags: flags)

    def shared_run():
        runs = block(flags)
        for flag in flags:
            # each flag's states are the single-flag run's, bit for bit
            assert np.array_equal(runs[flag].params_mid, singles[flag].params_mid)
            assert np.array_equal(runs[flag].velocity_mid, singles[flag].velocity_mid)
            assert np.array_equal(runs[flag].params_end, singles[flag].params_end)
        return {flag: runs[flag].record for flag in flags}

    shared = shared_run()
    assert calls == [flags]  # one engine run
    assert shared == expected
    assert expected["no"].d1 == expected["break"].d1

    # a NaN-guard trip of the shared run falls back to one run per flag
    real_step = engine.step

    def fail_on_shared_rows(params, velocity, grad, config):
        if params.shape[0] == 4:  # the B phase of both flags at once
            raise NanGuardError("injected failure")
        return real_step(params, velocity, grad, config)

    monkeypatch.setattr(engine, "step", fail_on_shared_rows)
    calls.clear()
    fallback = shared_run()
    assert calls == [flags, ("no",), ("break",)]
    assert fallback == expected


def test_diagnostics_of_a_failed_shared_run_match_single_flag_sweeps(tmp_path, monkeypatch):
    # the sweep runs each seed's diagnostics repeat once for both flags; when
    # that shared B phase trips the guard, each flag falls back to a run of its own
    real_step = engine.step

    def fail_on_shared_rows(params, velocity, grad, config):
        if params.shape[0] == 4:
            raise NanGuardError("injected failure")
        return real_step(params, velocity, grad, config)

    monkeypatch.setattr(engine, "step", fail_on_shared_rows)

    def payloads(name, flags):
        config = config_from_mapping(sweep_mapping(tmp_path, output_dir=str(tmp_path / name), break_flags=flags))
        return {p["break"]: p for p in read_diagnostics(run_sweep(config, created_at="pinned").run_dir)}

    both = payloads("both", ["no", "break"])
    assert "cka_first" in both["no"] and "cka_first" in both["break"]
    for flag in ("no", "break"):
        assert both[flag] == payloads(flag, [flag])[flag]


@pytest.mark.parametrize("failures", ["none", "shared_curve", "full_lr"])
def test_one_curve_per_regime_and_seed_matches_single_flag_sweeps(tmp_path, monkeypatch, failures):
    real_curve, real_step = protocol.run_noncommute_curve, engine.step
    calls = []

    def curve(*args, **kwargs):
        calls.append((args[2].name, args[3], kwargs["lr_scale"]))
        # keyed on the shared curve itself: a failure keyed on a stack's shape would hit engine stacks too
        if failures == "shared_curve" and len(args[3]) > 1:
            raise NanGuardError("injected failure")
        return real_curve(*args, **kwargs)

    def failing_step(params, velocity, grad, config):
        if failures == "full_lr" and config.lr == REGIME_PRESETS["standard"].lr:
            raise NanGuardError("injected failure")
        return real_step(params, velocity, grad, config)

    monkeypatch.setattr(engine, "step", failing_step)

    def payloads(flags):
        config = config_from_mapping(sweep_mapping(tmp_path, output_dir=str(tmp_path / "-".join(flags)),
                                                   break_flags=flags, seeds=[0, 1]))
        run_dir = run_sweep(config, created_at="pinned").run_dir
        return {(p["break"], p["seed"]): p for p in read_diagnostics(run_dir)}

    singles = {**payloads(["no"]), **payloads(["break"])}
    monkeypatch.setattr(protocol, "run_noncommute_curve", curve)
    both = payloads(["no", "break"])
    assert both == singles
    assert all(("noncommute_retried" in p) == (failures == "full_lr") for p in both.values())
    shared = [("standard", ("no", "break"), 1.0)]
    if failures == "none":
        assert calls == shared * 2  # one curve per (regime, seed)
    if failures == "shared_curve":
        assert calls == (shared + [("standard", ("no",), 1.0), ("standard", ("break",), 1.0)]) * 2
    if failures == "full_lr":
        alone = [("standard", (flag,), lr_scale) for flag in ("no", "break") for lr_scale in (1.0, 0.5)]
        assert calls == (shared + alone) * 2


def read_cell_records(run_dir, regime_name, flag, seed):
    _, payloads = read_jsonl(run_dir / cell_filename(regime_name, flag, seed))
    return [BackflowRecord(**{k: v for k, v in payload.items() if k != "record"}) for payload in payloads]


def spy_engine(monkeypatch, view=lambda regime, repeats, flags: [repeat_id for _, repeat_id in repeats]):
    """Replace the engine with a spy; returns one ``view(regime, repeats, flags)`` per call.

    The default view is the call's repeat ids.
    """
    calls = []
    real_engine = engine._run_repeat

    def spy(*args):
        calls.append(view(args[2], args[6], args[7]))
        return real_engine(*args)

    monkeypatch.setattr(engine, "_run_repeat", spy)
    return calls


def two_repeat_blocks(monkeypatch):
    # a budget that holds the B rows of two repeats of both flags: blocks of 2, 2, 1 over 5 repeats
    monkeypatch.setattr(engine, "_STACK_FLOATS", 2 * 4 * engine._row_floats(SPEC, 24, 96))
    assert engine.repeats_per_block(SPEC, 24, 96, 2) == 2


def failing_by_row_values(regime, real_step):
    """A ``step`` that raises NanGuardError on some rows of ``regime``, and on a few at half its rate too.

    Decided by the rows' own values, as a real overflow is, so a row fails
    alike alone or stacked.
    """

    def failing_step(params, velocity, grad, config):
        last = grad[..., -1]
        if np.any(last > 0.15) or (config.lr == regime.lr and np.any((last > 0.07) | (last < -0.077))):
            raise NanGuardError("injected failure")
        return real_step(params, velocity, grad, config)

    return failing_step


@pytest.mark.parametrize("failures", ["none", "block_stacks", "row_values"])
@pytest.mark.parametrize("flags", [["no", "break"], ["break", "no"]])
def test_block_records_match_single_repeat_single_flag_runs(tmp_path, monkeypatch, flags, failures):
    config = config_from_mapping(sweep_mapping(tmp_path, break_flags=flags, repeats=5,
                                               diagnostics={"enabled": False}))
    regime = config.regimes[0]
    real_step = engine.step
    row_value_step = failing_by_row_values(regime, real_step)

    def failing_step(params, velocity, grad, config):
        if failures == "block_stacks" and params.shape[0] == 8:  # the B phase of a two-repeat block
            raise NanGuardError("injected failure")
        if failures == "row_values":
            return row_value_step(params, velocity, grad, config)
        return real_step(params, velocity, grad, config)

    monkeypatch.setattr(engine, "step", failing_step)
    dataset = protocol.build_dataset(config)
    base = protocol.base_parameters(config, dataset, 0)
    expected = {
        flag: [run_micro_experiment(base, SPEC, regime, flag == "break", dataset, dataset.probe_indices,
                                    seed=derive_seed("repeat", 0, i), settings=config, repeat_id=i)
               for i in range(5)]
        for flag in flags
    }

    two_repeat_blocks(monkeypatch)
    calls = spy_engine(monkeypatch)
    run_dir = run_sweep(config, created_at="pinned").run_dir
    for flag in flags:
        # every field: d1, d2, delta, momentum_alignment, retried and error
        assert read_cell_records(run_dir, regime.name, flag, 0) == expected[flag]
    if failures == "none":
        assert calls == [[0, 1], [2, 3], [4]]  # one engine call per block; the second flag's cell runs none
    if failures == "block_stacks":
        # each two-repeat block falls back to one run per (repeat, flag)
        assert calls == [[0, 1], [0], [0], [1], [1], [2, 3], [2], [2], [3], [3], [4]]
    if failures == "row_values":
        outcomes = {(r.retried, r.ok) for records in expected.values() for r in records}
        assert outcomes == {(False, True), (True, True), (True, False)}


@pytest.mark.parametrize("sweep", ["pinned", "persistent_errors"])
def test_summary_is_reproduced_from_the_cell_files_alone(tmp_path, monkeypatch, sweep):
    if sweep == "persistent_errors":  # repeats that fail the NaN guard twice, decided by their own values
        monkeypatch.setattr(engine, "step", failing_by_row_values(REGIME_PRESETS["standard"], engine.step))
    overrides = PINNED_SWEEP if sweep == "pinned" else {"repeats": 5}
    config = config_from_mapping(sweep_mapping(tmp_path, **overrides))
    result = run_sweep(config, created_at="pinned")
    if sweep == "pinned":  # resonant_strong's "break" cell stops early
        assert any(cell["early_stopped"] for cell in result.summary["cells"])
    else:
        assert result.summary["n_persistent_errors"] > 0
    keys = [(r.name, flag, s) for r in config.regimes for flag in config.break_flags for s in config.seeds]
    records_by_cell = {key: read_cell_records(result.run_dir, *key) for key in keys}
    text = json.dumps(summarize(config, records_by_cell, "pinned", config.digest()), indent=2, allow_nan=False)
    assert text + "\n" == (result.run_dir / "summary.json").read_text()


def test_a_stopped_flag_gets_no_more_b_rows(tmp_path, monkeypatch):
    # in PINNED_SWEEP, resonant_strong's "break" cell stops at 8 repeats and its "no" cell runs to 16
    pinned = run_sweep(config_from_mapping(sweep_mapping(tmp_path, **PINNED_SWEEP)), created_at="pinned")
    calls = spy_engine(monkeypatch, lambda regime, repeats, flags: (regime.name, repeats, flags))
    swapped = {**PINNED_SWEEP, "break_flags": ["no", "break"], "output_dir": str(tmp_path / "swapped")}
    result = run_sweep(config_from_mapping(sweep_mapping(tmp_path, **swapped)), created_at="pinned")
    n_repeats = {(c["regime"], c["break"]): c["n_repeats"] for c in result.summary["cells"]}
    assert n_repeats[("resonant_strong", "break")] == 8 and n_repeats[("resonant_strong", "no")] == 16
    diagnostics_repeat = [(derive_seed("diag", 0), 0)]
    strong = [(repeats, flags) for name, repeats, flags in calls
              if name == "resonant_strong" and repeats != diagnostics_repeat]
    assert {flags for repeats, flags in strong if repeats[0][1] < 8} == {("no", "break")}
    assert {flags for repeats, flags in strong if repeats[0][1] >= 8} == {("no",)}
    # records, not bytes: the header's config_digest differs with the flag order
    for cell in result.summary["cells"]:
        key = (cell["regime"], cell["break"], cell["seed"])
        assert read_cell_records(result.run_dir, *key) == read_cell_records(pinned.run_dir, *key)


def test_an_early_stopped_cell_computes_no_repeat_past_its_checkpoint(tmp_path, monkeypatch):
    # checkpoints at 3 and 5 of 7 repeats; the loose half-width stops every cell at 3
    config = config_from_mapping(sweep_mapping(
        tmp_path, repeats=7, diagnostics={"enabled": False},
        early_stop={"enabled": True, "floor": 3, "stride": 2, "half_width": 1.0},
    ))
    two_repeat_blocks(monkeypatch)
    calls = spy_engine(monkeypatch)
    result = run_sweep(config, created_at="pinned")
    assert [(cell["n_repeats"], cell["early_stopped"]) for cell in result.summary["cells"]] == [(3, True)] * 2
    assert calls == [[0, 1], [2]]  # the block of two never crosses the checkpoint


def test_non_positive_integer_config_values_name_their_field(tmp_path):
    # a stride of 0 used to hang the early-stop loop, -1 to exhaust memory; a batch of 0 read as a
    # NaN-guard failure and 0 bootstrap samples as an IndexError, after the run directory was made;
    # a probe subset of 1 failed in the first cell's CKA, and a negative k_max wrote an empty curve
    for overrides, field, value, bound in (
        ({"early_stop": {"enabled": True, "floor": 2, "stride": 0}}, "early_stop.stride", 0, "positive"),
        ({"early_stop": {"enabled": True, "floor": 2, "stride": -1}}, "early_stop.stride", -1, "positive"),
        ({"batch_size": 0}, "batch_size", 0, "positive"),
        ({"stats": {"bootstrap_samples": 0}}, "stats.bootstrap_samples", 0, "positive"),
        ({"repeats": -3}, "repeats", -3, "positive"),
        ({"diagnostics": {"probe_subset": 1}}, "diagnostics.probe_subset", 1, "at least 2"),
        ({"diagnostics": {"noncommute_k_max": -1}}, "diagnostics.noncommute_k_max", -1, "non-negative"),
    ):
        with pytest.raises(ConfigError, match=f"^{field}: must be {bound}, got {value}$"):
            config_from_mapping(sweep_mapping(tmp_path, **overrides))


def test_config_values_of_the_wrong_json_type_name_their_key(tmp_path):
    mlp = {"kind": "mlp1", "input_dim": 12, "num_classes": 4, "hidden_dim": 8}
    synthetic = sweep_mapping(tmp_path)["dataset"]
    table = {"kind": "file", "path": str(tmp_path / "table.csv"), "format": "csv_labeled"}
    # each of the first four used to be cast and run: "false" ran the diagnostics, "no" enabled
    # early stopping, 4.7 ran 4 repeats and [0.9, true] ran seeds 0 and 1
    for overrides, message in (
        ({"diagnostics": {"enabled": "false"}}, "diagnostics.enabled: must be true or false, got 'false'"),
        ({"early_stop": {"enabled": "no"}}, "early_stop.enabled: must be true or false, got 'no'"),
        ({"repeats": 4.7}, "repeats: must be an integer, got 4.7"),
        ({"seeds": [0.9, True]}, "seeds: must be an integer, got 0.9"),
        ({"seeds": [0, True]}, "seeds: must be an integer, got True"),
        ({"batch_size": True}, "batch_size: must be an integer, got True"),
        ({"early_stop": {"floor": 8.0}}, "early_stop.floor: must be an integer, got 8.0"),
        ({"probe_seed": "0"}, "probe_seed: must be an integer, got '0'"),
        ({"early_stop": {"enabled": 1}}, "early_stop.enabled: must be true or false, got 1"),
        ({"stats": {"bh_q": False}}, "stats.bh_q: must be a number, got False"),
        ({"stats": {"tost_epsilon": "1e-3"}}, "stats.tost_epsilon: must be a number, got '1e-3'"),
        ({"optimizer": {"weight_decay": None}}, "optimizer.weight_decay: must be a number, got None"),
        ({"repeats": None}, "repeats: must be an integer, got None"),
        ({"diagnostics": {"enabled": None}}, "diagnostics.enabled: must be true or false, got None"),
        ({"base_stage": None}, "base_stage: must be a string, got None"),
        ({"break_flags": ["no", None]}, "break_flags: must be a string, got None"),
        # these two used to name the run directories '3' and 'None'
        ({"output_dir": 3}, "output_dir: must be a string, got 3"),
        ({"output_dir": None}, "output_dir: must be a string, got None"),
        # a custom regime's fields: 2.5 steps crashed after config.json was written, "no" ran as True
        # and true as an overlap of 1.0
        ({"regimes": [custom_regime(k=2.5)]}, "regimes.k: must be an integer, got 2.5"),
        ({"regimes": [custom_regime(same_classes="no")]}, "regimes.same_classes: must be true or false, got 'no'"),
        ({"regimes": [custom_regime(overlap=True)]}, "regimes.overlap: must be a number, got True"),
        # the model's and the synthetic dataset's sizes; all but num_classes=True used to reach init_params
        *(({"model": model}, message) for model, message in (
            *(({**mlp, "hidden_dim": value}, f"model.hidden_dim: must be an integer, got {value!r}")
              for value in (8.5, 32.0, True)),
            ({**mlp, "input_dim": 4.0}, "model.input_dim: must be an integer, got 4.0"),
            ({**mlp, "num_classes": True}, "model.num_classes: must be an integer, got True"),
            ({**mlp, "num_classes": 3.0}, "model.num_classes: must be an integer, got 3.0"),
            ({**mlp, "kind": 1}, "model.kind: must be a string, got 1"),
        )),
        *(({"dataset": {**synthetic, key: value}}, f"dataset.{key}: must be {json_type}, got {value!r}")
          for key, value, json_type in (("input_dim", 4.0, "an integer"), ("num_classes", True, "an integer"),
                                        ("per_class", 10.0, "an integer"), ("seed", True, "an integer"),
                                        ("seed", 1.5, "an integer"), ("spread", True, "a number"))),
        *(({"dataset": {**table, key: value}}, f"dataset.{key}: must be a string, got {value!r}")
          for key, value in (("path", 0), ("path", 1), ("path", True), ("format", 5))),
        *(({"dataset": {**synthetic, "kind": kind}}, f"dataset: kind must be 'synthetic' or 'file', got {kind!r}")
          for kind in ("image", ["file"])),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_mapping(sweep_mapping(tmp_path, **overrides))
    # a float field takes any JSON number and stores a float; only clip_norm takes null
    config = config_from_mapping(sweep_mapping(tmp_path, optimizer={"weight_decay": 0, "clip_norm": None},
                                               regimes=[custom_regime(lr=1)]))
    assert (type(config.weight_decay), config.weight_decay, config.clip_norm) == (float, 0.0, None)
    assert (type(config.regimes[0].lr), config.regimes[0].lr) == (float, 1.0)
    # the model and dataset mappings are checked, not rewritten: config.json keeps an integer spread
    config = config_from_mapping(sweep_mapping(tmp_path, dataset={**synthetic, "spread": 3}, model=mlp,
                                               regimes=["negative"], break_flags=["no"], repeats=1,
                                               diagnostics={"enabled": False}))
    written = json.loads((run_sweep(config, created_at="pinned").run_dir / "config.json").read_text())
    assert (written["dataset"], written["model"]) == ({**synthetic, "spread": 3}, mlp)
    assert type(written["dataset"]["spread"]) is int


def custom_regime(**overrides):
    """A custom regime mapping: the standard preset's fields under another name."""
    return {**vars(REGIME_PRESETS["standard"]), "name": "custom", **overrides}


def test_a_regime_name_is_bounded_by_the_bytes_of_its_temporary_cell_file_names(tmp_path):
    # the "break" cell file of a 231-character name has 251 bytes, a legal name, but its temporary file 256
    accepted = config_from_mapping(sweep_mapping(tmp_path, regimes=[custom_regime(name="x" * 230)]))
    assert len(f".{cell_filename(accepted.regimes[0].name, 'break', 0)}.tmp") == 255
    for name, size in (("x" * 231, 256), ("\u00e9" * 116, 257)):  # two bytes per character in UTF-8
        with pytest.raises(ConfigError, match=rf"name too long for a cell file \({size} bytes, max 255\)$"):
            config_from_mapping(sweep_mapping(tmp_path, regimes=[custom_regime(name=name)]))


def test_a_minimal_config_takes_the_defaults_of_the_python_api(tmp_path):
    minimal = {key: sweep_mapping(tmp_path)[key] for key in ("output_dir", "dataset", "model", "regimes")}
    config = config_from_mapping(minimal)
    assert config.early_stop == EarlyStopPolicy()
    assert config.stats == StatsPolicy()
    assert (config.batch_size, config.weight_decay, config.clip_norm) == astuple(ProtocolSettings())
    # a one-row probe is refused only when the diagnostics would run the CKA on it
    assert config_from_mapping({**minimal, "probe_size": 1, "diagnostics": {"enabled": False}}).probe_size == 1


def test_shipped_demo_config_parses_under_the_strict_reader(capsys):
    demo = Path(__file__).resolve().parents[1] / "configs" / "demo.json"
    config = config_from_mapping(json.loads(demo.read_text()))
    # configs/demo.json keeps the retired workers key as long as perfbench's generated copy of it does
    assert capsys.readouterr().err == "warning: ignoring unknown config keys: workers\n"
    assert (config.repeats, config.seeds, config.early_stop.enabled, config.diagnostics_enabled) == (
        48, (0, 1), False, True
    )


def test_repeats_per_block_bounds_the_stacks():
    demo = ModelSpec("mlp1", 32, 10, hidden_dim=32)
    image = ModelSpec("mlp1", 256, 10, hidden_dim=64)
    # configs/demo.json trains four repeats per stack; eight measured +10% peak RSS on it
    assert 4 <= engine.repeats_per_block(demo, 64, 512, 2) < 8
    # the image benchmark spec stays at one repeat per stack, as before blocks
    assert engine.repeats_per_block(image, 128, 1000, 2) == 1


def reference_curve(base_params, spec, regime, break_applied, dataset, probe_x, seed, k_max, settings):
    """The non-commute curve as one two-row run of both phases per k: the loop the stacked curve replaces."""
    x_a, _, x_b, y_a, y_b = engine._repeat_batches(regime, dataset, seed, settings.batch_size)
    config = OptimizerConfig(lr=regime.lr, momentum=regime.momentum,
                             weight_decay=settings.weight_decay, clip_norm=settings.clip_norm)
    curve = []
    for k in range(1, k_max + 1):
        params, velocity = engine._train(spec, np.stack([base_params, base_params]),
                                         np.zeros((2, base_params.size)),
                                         np.stack([x_a, x_b]), np.stack([y_a, y_b]), k, config)
        if break_applied:
            velocity = np.zeros_like(velocity)
        params, _ = engine._train(spec, params, velocity, np.stack([x_b, x_a]),
                                  np.stack([y_b, y_a]), k, config)
        preds = forward(spec, params, probe_x)
        curve.append((k, div_avg(("tv",), preds[0], preds[1])["tv"]))
    return curve


# the single-flag ids name whether the break is applied
@pytest.mark.parametrize("flags", [("no",), ("break",), ("no", "break"), ("break", "no")],
                         ids=["False", "True", "no-break", "break-no"])
@pytest.mark.parametrize("k_max", [1, 5, 6])
def test_stacked_noncommute_curve_matches_per_k_reference_bitwise(monkeypatch, dataset, base_params,
                                                                  flags, k_max):
    regime = small_regime(k=3, momentum=0.95, lr=0.03, aug_a="color", aug_b="blur")
    probe_x = probe_rows(dataset)
    expected = {flag: reference_curve(base_params, SPEC, regime, flag == "break", dataset, probe_x, 29, k_max,
                                      SETTINGS)
                for flag in flags}
    real_forward = engine.forward
    stacks = []

    def counted_forward(spec, params, inputs):
        stacks.append(params.shape[0])
        return real_forward(spec, params, inputs)

    monkeypatch.setattr(engine, "forward", counted_forward)
    curves = run_noncommute_curve(base_params, SPEC, regime, flags, dataset, probe_x, 29,
                                  k_max=k_max, settings=SETTINGS)
    assert curves == expected and list(curves) == list(flags)
    assert stacks == [2 * len(flags)] * k_max  # one forward per k, of the rows of every flag


def test_first_second_phase_gradient_is_taken_once_per_pair(monkeypatch, dataset, base_params):
    # the flags of a pair share its first second-phase gradient: 2 rows, not 2 per flag
    rows = []
    real_gradient = engine.loss_and_grad_unchecked

    def counted_gradient(spec, params, x, y):
        rows.append(params.shape[0])
        return real_gradient(spec, params, x, y)

    monkeypatch.setattr(engine, "loss_and_grad_unchecked", counted_gradient)
    regime, flags = small_regime(k=3), ("no", "break")
    repeats = [(derive_seed("repeat", 0, i), i) for i in range(3)]
    runs = engine.guarded_block(base_params, SPEC, regime, flags, dataset,
                                dataset.features[dataset.probe_indices], SETTINGS, repeats)
    assert all(run[flag].record.ok for run in runs for flag in flags)
    pair_rows = 2 * len(repeats)
    assert rows == [pair_rows] * regime.k + [pair_rows] + [pair_rows * len(flags)] * (regime.k - 1)

    rows.clear()
    run_noncommute_curve(base_params, SPEC, regime, flags, dataset, probe_rows(dataset), 29, k_max=3,
                         settings=SETTINGS)
    # per switch k: the first phase's step to k, the shared first gradient, then k - 1 steps of both flags
    assert rows == [2, 2] + [2, 2, 4] + [2, 2, 4, 4]


def test_noncommute_curve_augments_only_the_batches_it_trains_on(monkeypatch, dataset, base_params):
    kinds = []

    def counted_augmentation(kind, *args):
        kinds.append(kind)
        return apply_augmentation(kind, *args)

    monkeypatch.setattr(engine, "apply_augmentation", counted_augmentation)
    regime = small_regime(aug_a="weak", aug_aprime="color", aug_b="blur")
    run_noncommute_curve(base_params, SPEC, regime, ("no", "break"), dataset, probe_rows(dataset), 29,
                         k_max=2, settings=SETTINGS)
    assert kinds == ["weak", "blur"]  # A and B; the repeat's A' batch is not drawn


@pytest.mark.parametrize("bad", ["label", "width"])
def test_train_checks_its_batch_before_the_first_step(monkeypatch, dataset, base_params, bad):
    steps = []

    def counted_step(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(engine, "step", counted_step)
    config = OptimizerConfig(lr=0.1, momentum=0.9)
    params = np.stack([base_params, base_params])
    x, y = dataset.features[:24], dataset.labels[:24]
    engine._train(SPEC, params, np.zeros_like(params), x, y, 3, config)
    assert len(steps) == 3
    steps.clear()
    if bad == "label":
        y = y.copy()
        y[5] = SPEC.num_classes
    else:
        x = x[:, :-1]
    with pytest.raises(ValueError, match="out of range" if bad == "label" else "features"):
        engine._train(SPEC, params, np.zeros_like(params), x, y, 3, config)
    assert steps == []


def test_norm_overflow_gives_error_record_not_zero_deltas(dataset, base_params):
    # The clip norm of the second gradient overflows.  It used to scale that
    # gradient to exactly zero: both branches saturated alike and the record
    # reported a clean delta of 0.
    regime = small_regime(lr=1e306)
    for broke in (False, True):
        record = run_micro_experiment(base_params, SPEC, regime, broke, dataset,
                                      dataset.probe_indices, seed=5, settings=SETTINGS)
        assert not record.ok and "nan_guard" in record.error
        assert record.delta is None and record.retried


def read_diagnostics(run_dir):
    return [json.loads(line) for line in (run_dir / "diagnostics.jsonl").read_text().splitlines()[1:]]


def test_persistent_nan_guard_in_diagnostics_is_recorded(tmp_path, monkeypatch):
    def always_fail(params, velocity, grad, config):
        raise NanGuardError("injected failure")

    monkeypatch.setattr(engine, "step", always_fail)
    config = config_from_mapping(sweep_mapping(tmp_path, break_flags=["no"], repeats=2))
    result = run_sweep(config, created_at="pinned")
    assert result.summary["n_persistent_errors"] == 2
    (payload,) = read_diagnostics(result.run_dir)
    assert "nan_guard" in payload["error"]
    assert "nan_guard" in payload["noncommute_error"]
    assert payload["noncommute"] == [] and payload["noncommute_slope"] is None
    assert payload["noncommute_retried"]


def test_noncommute_curve_retried_at_half_lr(tmp_path, monkeypatch):
    regime = REGIME_PRESETS["standard"]
    real_step = engine.step

    def fail_at_full_lr(params, velocity, grad, config):
        if config.lr == regime.lr:
            raise NanGuardError("injected failure")
        return real_step(params, velocity, grad, config)

    monkeypatch.setattr(engine, "step", fail_at_full_lr)
    result = run_sweep(config_from_mapping(sweep_mapping(tmp_path, break_flags=["no"], repeats=2)),
                       created_at="pinned")
    assert result.summary["n_persistent_errors"] == 0
    (payload,) = read_diagnostics(result.run_dir)
    assert payload["noncommute_retried"] and "noncommute_error" not in payload
    config = config_from_mapping(sweep_mapping(tmp_path))
    dataset = protocol.build_dataset(config)
    half = run_noncommute_curve(protocol.base_parameters(config, dataset, 0), config.model_spec(), regime,
                                ("no",), dataset, probe_rows(dataset),
                                derive_seed("noncommute", 0), k_max=2, settings=config,
                                lr_scale=0.5)["no"]
    assert payload["noncommute"] == [[k, v] for k, v in half]


def test_record_payload_round_trip(dataset, base_params):
    from backflow.protocol import _record_payload

    record = run_micro_experiment(base_params, SPEC, small_regime(), False, dataset,
                                  dataset.probe_indices, seed=91, settings=SETTINGS)
    payload = json.loads(json.dumps(_record_payload(record)))
    assert payload.pop("record") == "repeat"
    assert BackflowRecord(**payload) == record


def test_early_base_stage_pretrains(tmp_path):
    init_cfg = config_from_mapping(sweep_mapping(tmp_path, repeats=2))
    early_cfg = config_from_mapping(sweep_mapping(
        tmp_path, output_dir=str(tmp_path / "early"), repeats=2,
        base_stage="early", pretrain_passes=1,
    ))
    from backflow.protocol import base_parameters, build_dataset

    dataset = build_dataset(init_cfg)
    init_base = base_parameters(init_cfg, dataset, 0)
    early_base = base_parameters(early_cfg, dataset, 0)
    assert not np.array_equal(init_base, early_base)
    result = run_sweep(early_cfg, created_at="pinned")
    assert result.summary["meta"]["base_stage"] == "early"
    assert result.summary["n_persistent_errors"] == 0


def test_image_datasets_get_image_augmentations(dataset):
    from dataclasses import replace as dc_replace

    from backflow.instruments import sample_batch_plan

    image_ds = dc_replace(dataset, provenance={**dataset.provenance, "image_shape": [3, 4]})
    regime = small_regime()
    x_a = engine._repeat_batches(regime, image_ds, 81, SETTINGS.batch_size)[0]
    plan = sample_batch_plan(image_ds, SETTINGS.batch_size, regime.overlap, regime.same_classes,
                             derive_seed(81, "plan"))
    flat = image_ds.features[plan.indices_a]
    aug_seed = derive_seed(81, "aug_first")
    assert np.array_equal(x_a, apply_augmentation(regime.aug_a, flat, aug_seed, (3, 4)))
    # the vector form of the same draw differs: the image shape is what selects the form
    assert not np.array_equal(x_a, apply_augmentation(regime.aug_a, flat, aug_seed))


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError, match="regimes"):
        config_from_mapping(sweep_mapping(tmp_path, regimes=["no_such_preset"]))
    with pytest.raises(ConfigError, match="break_flags"):
        config_from_mapping(sweep_mapping(tmp_path, break_flags=["maybe"]))
    # a repeated flag would write one cell file twice and enter the BH correction twice
    with pytest.raises(ConfigError, match="break_flags: duplicate"):
        config_from_mapping(sweep_mapping(tmp_path, break_flags=["no", "no"]))
    with pytest.raises(ConfigError, match="output_dir"):
        mapping = sweep_mapping(tmp_path)
        del mapping["output_dir"]
        config_from_mapping(mapping)
    with pytest.raises(ConfigError, match="base_stage"):
        config_from_mapping(sweep_mapping(tmp_path, base_stage="late"))
    with pytest.raises(ConfigError, match="num_classes"):  # against the built dataset, before the run directory
        run_sweep(config_from_mapping(sweep_mapping(
            tmp_path, model={"kind": "softmax_linear", "input_dim": 12, "num_classes": 7}
        )))
    assert not (tmp_path / "run").exists()
    # misspelled or missing fields of the model and the dataset name the field
    with pytest.raises(ConfigError, match="model: .*hiden_dim"):
        config_from_mapping(sweep_mapping(
            tmp_path, model={"kind": "mlp1", "input_dim": 12, "num_classes": 4, "hiden_dim": 8}
        ))
    with pytest.raises(ConfigError, match="model: .*input_dim"):
        config_from_mapping(sweep_mapping(tmp_path, model={"kind": "softmax_linear", "num_classes": 4}))
    # a section that is not a mapping is named, whatever its value
    for section in ("dataset", "model", "optimizer", "early_stop", "stats", "diagnostics"):
        for value in (None, [1], "fast", 3):
            with pytest.raises(ConfigError, match=f"^{section}: must be a mapping, got {type(value).__name__}$"):
                config_from_mapping(sweep_mapping(tmp_path, **{section: value}))
    # so is a list field that is not a list: a string is not read as its characters
    for field in ("regimes", "break_flags", "seeds"):
        for value in (None, 3, "no", {"no": 1}):
            with pytest.raises(ConfigError, match=f"^{field}: must be a list, got {type(value).__name__}$"):
                config_from_mapping(sweep_mapping(tmp_path, **{field: value}))
    misspelled = {"kind": "synthetic", "input_dim": 12, "num_classes": 4, "per_klass": 120}
    with pytest.raises(ConfigError, match="dataset: .*per_klass"):
        protocol.build_dataset(config_from_mapping(sweep_mapping(tmp_path, dataset=misspelled)))
    for missing in ("path", "format"):
        dataset = {"kind": "file", "path": str(tmp_path / "table.csv"), "format": "csv_labeled"}
        del dataset[missing]
        with pytest.raises(ConfigError, match=f"dataset: .*'{missing}'"):
            protocol.build_dataset(config_from_mapping(sweep_mapping(tmp_path, dataset=dataset)))


def test_resolve_regime_mapping_and_presets():
    regime = resolve_regime({"name": "custom", "k": 2, "lr": 0.01, "momentum": 0.5,
                             "aug_a": "weak", "aug_aprime": "color", "aug_b": "weak",
                             "overlap": 0.5, "same_classes": True})
    assert regime.k == 2
    assert resolve_regime("negative") == REGIME_PRESETS["negative"]
    with pytest.raises(ConfigError, match="invalid regime"):
        resolve_regime({"name": "broken"})
    with pytest.raises(ConfigError, match="aug_b"):
        resolve_regime({"name": "bad", "k": 2, "lr": 0.01, "momentum": 0.5,
                        "aug_a": "weak", "aug_aprime": "color", "aug_b": "cutout",
                        "overlap": 0.5, "same_classes": True})
    with pytest.raises(ValueError, match="momentum"):
        Regime("bad", 2, 0.01, 1.0, "weak", "color", "weak", 0.5, True)


def test_regime_preset_values_are_pinned():
    std = REGIME_PRESETS["standard"]
    assert (std.k, std.lr, std.momentum) == (3, 0.02, 0.90)
    assert (std.aug_a, std.aug_aprime, std.aug_b) == ("weak", "color", "weak")
    assert (std.overlap, std.same_classes) == (0.5, True)
    strong = REGIME_PRESETS["resonant_strong"]
    assert (strong.k, strong.lr, strong.momentum) == (6, 0.03, 0.99)
    assert (strong.aug_a, strong.aug_aprime, strong.aug_b) == ("color", "blur", "weak")
    assert (strong.overlap, strong.same_classes) == (1.0, True)
    mid = REGIME_PRESETS["resonant_mid"]
    assert (mid.k, mid.lr, mid.momentum, mid.overlap) == (6, 0.03, 0.95, 0.75)
    orth = REGIME_PRESETS["orthogonal"]
    assert (orth.k, orth.lr, orth.momentum) == (6, 0.03, 0.99)
    assert (orth.aug_b, orth.overlap, orth.same_classes) == ("blur", 0.0, False)
    neg = REGIME_PRESETS["negative"]
    assert (neg.k, neg.lr, neg.momentum) == (1, 0.005, 0.00)
    assert (neg.aug_a, neg.aug_aprime, neg.aug_b) == ("none", "none", "none")
    assert (neg.overlap, neg.same_classes) == (0.0, False)


def readme_table(header: str) -> list[list[str]]:
    """The cells of each row of the README table whose header line starts with ``header``."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:  # past the header and its |---| line
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])  # "\|" is a literal bar
    return rows


def test_readme_configuration_table_names_every_config_key():
    keys = [row[0].strip("`") for row in readme_table("| field | JSON type and bound |")]
    assert sorted(keys) == sorted([*protocol.CONFIG_FIELDS, *protocol._REQUIRED])


def test_readme_preset_table_matches_the_presets():
    rows = {row[0].strip("`"): row[1:] for row in readme_table("| preset |")}
    assert set(rows) == set(REGIME_PRESETS)
    for name, (k, lr, momentum, aug_a, aug_aprime, aug_b, overlap_and_same) in rows.items():
        overlap, same = overlap_and_same.split(" / ")
        same_classes = {"yes": True, "no": False}[same]
        assert (int(k), float(lr), float(momentum), aug_a, aug_aprime, aug_b, float(overlap), same_classes) == (
            astuple(REGIME_PRESETS[name])[1:]
        ), name
