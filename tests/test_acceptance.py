"""Acceptance suite: every release criterion as one test, tightest tolerances.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from backflow.comb import (
    ProcessStack,
    instrument_pairs,
    memoryful_demo_comb,
    random_break_comb,
    random_factoring_comb,
    search_backflow_witness,
    verify_no_backflow,
)
from backflow.diagnostics import ConfigPoint, dose_response
from backflow.divergences import KINDS, div_row
from backflow.model import ModelSpec, loss_and_grad, parameter_count
from backflow.optimizer import amplification_factor
from backflow.engine import BackflowRecord, ProtocolSettings, Regime
from backflow.protocol import (
    EarlyStopPolicy,
    collect_with_early_stop,
    config_from_mapping,
    run_micro_experiment,
    run_sweep,
)
from backflow.seeding import derive_seed
from backflow.stats import bh_fdr, bootstrap_mean_ci, correlations, ols2, paired_t, tost_equivalence
from backflow.data import make_synthetic, split_probe
from backflow.model import init_params

DEFAULT_DATASET = {
    "kind": "synthetic",
    "input_dim": 32,
    "num_classes": 10,
    "per_class": 500,
    "spread": 3.0,
    "seed": 0,
}
DEFAULT_MODEL = {"kind": "softmax_linear", "input_dim": 32, "num_classes": 10}


def sweep_config(tmp_path, **overrides):
    mapping = {
        "output_dir": str(tmp_path / "run"),
        "dataset": dict(DEFAULT_DATASET),
        "model": dict(DEFAULT_MODEL),
        "regimes": ["resonant_strong"],
        "break_flags": ["no", "break"],
        "seeds": [0],
        "repeats": 128,
        "batch_size": 64,
        "probe_size": 512,
        "early_stop": {"enabled": False},
    }
    mapping.update(overrides)
    return config_from_mapping(mapping)


@pytest.fixture(scope="module")
def resonant_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("resonant")
    start = time.monotonic()
    result = run_sweep(sweep_config(tmp), created_at="pinned")
    elapsed = time.monotonic() - start
    return result, elapsed


def cell_of(summary, regime, flag, seed=0):
    for cell in summary["cells"]:
        if (cell["regime"], cell["break"], cell["seed"]) == (regime, flag, seed):
            return cell
    raise KeyError((regime, flag, seed))


def test_01_process_oracle_theorems():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for maker, break_flag in ((random_factoring_comb, False), (random_break_comb, True)):
        stacks = []
        for _ in range(100):
            comb, b_label, lambda_b = maker(rng)
            pairs = instrument_pairs(comb)
            assert len(pairs) == 10
            stacks.append(ProcessStack.of([comb], pairs, b_label, [lambda_b]))
        for report in verify_no_backflow(stacks, kinds=KINDS, break_before_second=break_flag):
            assert report.applicable[0], "channel precondition must hold by construction"
            worst = max(worst, report.max_delta[0])
    assert worst <= 1e-10

    comb, pair, b_label = memoryful_demo_comb()
    _, _, before = search_backflow_witness(comb, [pair], b_label, kinds=("tv",))
    _, _, after = search_backflow_witness(
        comb, [pair], b_label, kinds=("tv",), break_before_second=True
    )
    assert before > 0.05
    assert after <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\n[ 1] process oracle: PASS (worst delta {worst:.2e}, "
          f"demo {before:.3f} -> {after:.1e}, {elapsed:.1f}s)")


def test_02_data_processing_inequality():
    rng = np.random.default_rng(7)
    worst = -np.inf
    for kind in KINDS:
        for _ in range(500):
            n_in = int(rng.integers(2, 9))
            n_out = int(rng.integers(2, 9))
            p = rng.random(n_in) + 1e-9
            q = rng.random(n_in) + 1e-9
            p /= p.sum()
            q /= q.sum()
            channel = rng.random((n_out, n_in)) + 1e-9
            channel /= channel.sum(axis=0, keepdims=True)
            gap = div_row(kind, channel @ p, channel @ q) - div_row(kind, p, q)
            worst = max(worst, gap)
            assert gap <= 1e-12
    print(f"\n[ 2] data processing: PASS (max violation {worst:.2e} over 1500 draws)")


def test_03_gradient_correctness():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(100):
        kind = ("softmax_linear", "mlp1")[trial % 2]
        d = int(rng.integers(2, 8))
        c = int(rng.integers(2, 6))
        if kind == "mlp1":
            spec = ModelSpec(kind, d, c, hidden_dim=int(rng.integers(2, 7)),
                             activation=("tanh", "relu")[trial % 4 // 2])
        else:
            spec = ModelSpec(kind, d, c)
        params = rng.normal(scale=0.8, size=parameter_count(spec))
        x = rng.normal(size=(int(rng.integers(2, 10)), d))
        y = rng.integers(0, c, size=x.shape[0])
        _, grad = loss_and_grad(spec, params, x, y)
        h = 1e-5
        coords = rng.choice(params.size, size=min(20, params.size), replace=False)
        for j in coords:
            bumped = params.copy()
            bumped[j] += h
            up, _ = loss_and_grad(spec, bumped, x, y)
            bumped[j] -= 2 * h
            down, _ = loss_and_grad(spec, bumped, x, y)
            fd = (up - down) / (2 * h)
            rel = abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-4)
            worst = max(worst, rel)
            assert rel < 1e-4
    print(f"\n[ 3] gradient check: PASS (worst relative error {worst:.2e} over 100 configs)")


def test_04_placebo_nullity(tmp_path):
    placebo = {
        "name": "placebo", "k": 3, "lr": 0.02, "momentum": 0.9,
        "aug_a": "weak", "aug_aprime": "weak", "aug_b": "weak",
        "overlap": 0.5, "same_classes": True,
    }
    config = sweep_config(tmp_path, regimes=[placebo], repeats=16)
    result = run_sweep(config, created_at="pinned")
    for flag in ("no", "break"):
        cell = cell_of(result.summary, "placebo", flag)
        path = result.run_dir / f"placebo__{flag}__seed0.jsonl"
        payloads = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert len(payloads) == 16
        for payload in payloads:
            for kind in KINDS:
                assert payload["delta"][kind] == 0.0
        for kind in KINDS:
            assert cell["metrics"][kind]["ci_low"] == 0.0
            assert cell["metrics"][kind]["ci_high"] == 0.0
    print("\n[ 4] placebo nullity: PASS (per-repeat delta identically 0, CI = [0, 0])")


def test_05_momentum_zero_collapse():
    dataset = split_probe(
        make_synthetic(32, 10, 500, spread=3.0, seed=0), 512, derive_seed("probe", 0)
    )
    spec = ModelSpec("softmax_linear", 32, 10)
    base = init_params(spec, derive_seed(0, "init"))
    regime = Regime("mu0", 2, 0.02, 0.0, "weak", "color", "weak", 0.5, True)
    settings = ProtocolSettings()
    for repeat in range(8):
        seed = derive_seed("repeat", 0, repeat)
        no_break = run_micro_experiment(base, spec, regime, False, dataset,
                                        dataset.probe_indices, seed, settings, repeat)
        broke = run_micro_experiment(base, spec, regime, True, dataset,
                                     dataset.probe_indices, seed, settings, repeat)
        assert no_break.d1 == broke.d1    # bitwise equality of the measurements
        assert no_break.d2 == broke.d2
        assert no_break.delta == broke.delta
    print("\n[ 5] momentum-zero collapse: PASS (8 paired repeats bit-identical)")


def test_06_positive_backflow_and_break_attenuation(resonant_run):
    result, elapsed = resonant_run
    no_break = cell_of(result.summary, "resonant_strong", "no")
    broke = cell_of(result.summary, "resonant_strong", "break")
    tv_no = no_break["metrics"]["tv"]
    tv_break = broke["metrics"]["tv"]
    assert no_break["n_repeats"] >= 128
    assert tv_no["ci_low"] > 0.0
    assert tv_break["mean"] < tv_no["mean"]
    per_cell = elapsed / 2.0
    assert per_cell < 300.0
    print(f"\n[ 6] resonant back-flow: PASS (no-break mean {tv_no['mean']:+.4f} "
          f"CI [{tv_no['ci_low']:+.4f}, {tv_no['ci_high']:+.4f}] > 0; "
          f"break mean {tv_break['mean']:+.4f}; {per_cell:.1f}s/cell)")


def test_07_dose_response_direction(tmp_path):
    config = sweep_config(
        tmp_path,
        regimes=["standard", "resonant_mid", "resonant_strong"],
        break_flags=["no"],
        seeds=[0, 1, 2, 3, 4],
        repeats=64,
        diagnostics={"enabled": False},
    )
    result = run_sweep(config, created_at="pinned")
    regimes_meta = result.summary["meta"]["regimes"]
    points = [
        ConfigPoint(
            regime=c["regime"],
            seed=c["seed"],
            k=regimes_meta[c["regime"]]["k"],
            momentum=regimes_meta[c["regime"]]["momentum"],
            overlap=regimes_meta[c["regime"]]["overlap"],
            aug_b=regimes_meta[c["regime"]]["aug_b"],
            delta=c["metrics"]["tv"]["mean"],
        )
        for c in result.summary["cells"]
    ]
    report = dose_response(points)
    assert len(report.pair_seeds) >= 5
    assert all(d > 0 for d in report.pair_diffs)
    assert report.mean_lift > 0.0
    assert report.paired.p_value < 0.05
    print(f"\n[ 7] dose response: PASS ({len(report.pair_diffs)}/"
          f"{len(report.pair_diffs)} pairs positive, mean lift {report.mean_lift:+.4f}, "
          f"paired p {report.paired.p_value:.2e})")


def test_08_negative_control(tmp_path):
    config = sweep_config(
        tmp_path,
        regimes=["negative"],
        repeats=128,
        early_stop={"enabled": True, "floor": 64, "stride": 32, "half_width": 2e-4},
        diagnostics={"enabled": False},
    )
    result = run_sweep(config, created_at="pinned")
    for flag in ("no", "break"):
        cell = cell_of(result.summary, "negative", flag)
        tv = cell["metrics"]["tv"]
        assert abs(tv["mean"]) < 5e-3
        assert tv["tost_verdict"] == "practically_null"
        assert "tost_scaled_epsilon" in tv and "tost_scaled_verdict" in tv
        assert tv["tost_scaled_verdict"] == "practically_null"
        assert cell["early_stopped"] and cell["n_repeats"] == 64
    print("\n[ 8] negative control: PASS (|mean| < 5e-3, TOST null at nominal "
          "and noise-scaled margins, both conditions)")


def test_09_early_stop_discipline():
    def collect(delta_of):
        def sample(open_flags, ids):
            return {"no": [BackflowRecord(i, i, False, {"tv": 0.1}, {"tv": 0.1},
                                          dict.fromkeys(("tv", "js", "hellinger"), delta_of(i))) for i in ids]}

        return collect_with_early_stop(sample, 128, EarlyStopPolicy(), flags=("no",), block_size=lambda n: 1)

    records, stopped = collect(lambda i: 0.0)
    assert stopped and len(records) == 64

    rng = np.random.default_rng(3)
    noise = rng.normal(0.0, 0.01, size=128)
    records, stopped = collect(lambda i: noise[i])
    assert not stopped and len(records) == 128
    print("\n[ 9] early stop: PASS (zero variance stops at exactly 64; "
          "sigma=0.01 noise runs the full 128)")


def test_10_statistics_fixtures():
    # Benjamini-Hochberg against the hand step-up oracle: thresholds
    # 0.0125/0.025/0.0375/0.05, so exactly the first two order statistics pass.
    assert bh_fdr([0.01, 0.02, 0.04, 0.2], q=0.05).tolist() == [True, True, False, False]
    assert not bh_fdr([1.0, 0.9, 0.8]).any()
    assert bh_fdr([0.01], q=0.05).tolist() == [True]

    # OLS against the normal equations.
    rng = np.random.default_rng(5)
    a_mu = rng.uniform(1, 6, 40)
    rho = rng.uniform(0, 1, 40)
    delta = 0.2 + 0.03 * a_mu - 0.1 * rho + rng.normal(0, 0.005, 40)
    fit = ols2(delta, a_mu, rho)
    design = np.column_stack([np.ones(40), a_mu, rho])
    coef = np.linalg.solve(design.T @ design, design.T @ delta)
    assert np.allclose([fit.alpha, fit.beta, fit.gamma], coef, atol=1e-9)

    # Bootstrap coverage: 200 Bernoulli(1/2) replications of n=1000.
    hits = 0
    for rep in range(200):
        samples = np.random.default_rng(10_000 + rep).integers(0, 2, size=1000).astype(float)
        ci = bootstrap_mean_ci(samples, seed=rep)
        hits += ci.ci_low <= 0.5 <= ci.ci_high
    coverage = hits / 200
    assert coverage >= 0.93

    # Correlations and paired t against the reference implementations.
    x = np.array([0.1, 0.4, 0.35, 0.8, 0.23, 0.67, 0.91, 0.05, 0.52, 0.48])
    y = np.array([1.2, 0.9, 1.4, 2.4, 0.7, 1.9, 2.2, 0.4, 1.3, 1.8])
    ours = correlations(x, y)
    assert ours.pearson_r == pytest.approx(sps.pearsonr(x, y)[0], abs=1e-9)
    assert ours.pearson_p == pytest.approx(sps.pearsonr(x, y)[1], abs=1e-9)
    assert ours.spearman_rho == pytest.approx(sps.spearmanr(x, y)[0], abs=1e-9)
    assert ours.spearman_p == pytest.approx(sps.spearmanr(x, y)[1], abs=1e-9)
    ref = sps.ttest_rel(x, y)
    mine = paired_t(x, y)
    assert mine.statistic == pytest.approx(ref.statistic, abs=1e-9)
    assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    # TOST under tight noise inside the margin.
    null_hits = sum(
        tost_equivalence(
            np.random.default_rng(20_000 + rep).normal(0, 1e-4, 128)
        ).verdict == "practically_null"
        for rep in range(100)
    )
    assert null_hits >= 95
    print(f"\n[10] statistics fixtures: PASS (bootstrap coverage {coverage:.1%}, "
          f"TOST null rate {null_hits}%)")


def test_11_amplification_factor_reference_values():
    # Independent oracle: explicit partial geometric sums.
    a_95 = amplification_factor(0.95, 6)
    a_99 = amplification_factor(0.99, 6)
    assert a_95 == pytest.approx(math.fsum(0.95**i for i in range(6)), abs=1e-12)
    assert a_99 == pytest.approx(math.fsum(0.99**i for i in range(6)), abs=1e-12)
    assert a_95 == pytest.approx(5.2981621875, abs=1e-10)
    assert a_99 == pytest.approx(5.8519850599, abs=1e-10)
    # external anchors 5.29 / 5.90: 5.8519... rounds to 5.85, not 5.90, so the
    # second anchor holds only at one-decimal precision
    assert abs(a_95 - 5.29) <= 0.01
    assert abs(a_99 - 5.90) <= 0.05
    assert a_99 > a_95
    print(f"\n[11] amplification factor: PASS (A(0.95,6)={a_95:.6f}, "
          f"A(0.99,6)={a_99:.6f}; reported anchors 5.29/5.90)")


def test_12_metric_sign_agreement(resonant_run):
    result, _ = resonant_run
    cell = cell_of(result.summary, "resonant_strong", "no")
    signs = {kind: np.sign(cell["metrics"][kind]["mean"]) for kind in KINDS}
    assert len(set(signs.values())) == 1
    means = {kind: cell["metrics"][kind]["mean"] for kind in KINDS}
    print(f"\n[12] metric agreement: PASS (signs agree: "
          + ", ".join(f"{k}={v:+.4f}" for k, v in means.items()) + ")")
