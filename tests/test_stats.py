import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import backflow
from backflow.stats import (
    _average_ranks,
    _t_cdf,
    _t_sf,
    bh_fdr,
    bh_qvalues,
    bootstrap_mean_ci,
    correlations,
    normal_ci_half_width,
    ols2,
    paired_t,
    t_test_mean,
    tost_equivalence,
)


def test_bootstrap_constant_samples():
    summary = bootstrap_mean_ci([0.4] * 10, seed=0)
    assert summary.mean == 0.4
    assert summary.ci_low == summary.ci_high == 0.4
    assert summary.half_width == 0.0
    assert summary.n == 10


def test_bootstrap_two_samples_endpoints_enumerable():
    summary = bootstrap_mean_ci([0.0, 1.0], seed=1)
    assert summary.ci_low in (0.0, 0.5, 1.0)
    assert summary.ci_high in (0.0, 0.5, 1.0)
    assert summary.ci_low <= summary.ci_high


def test_bootstrap_determinism_and_bracketing():
    samples = [0.0, 1.0] * 500
    a = bootstrap_mean_ci(samples, seed=42)
    b = bootstrap_mean_ci(samples, seed=42)
    assert a == b
    assert a.ci_low < 0.5 < a.ci_high


def test_bootstrap_width_shrinks_with_n():
    rng = np.random.default_rng(2)
    widths = []
    for n in (32, 128, 512):
        samples = rng.normal(size=n)
        widths.append(bootstrap_mean_ci(samples, seed=3).half_width)
    assert widths[0] > widths[1] > widths[2]


def test_bootstrap_needs_two_samples():
    with pytest.raises(ValueError):
        bootstrap_mean_ci([1.0])


def test_normal_half_width():
    samples = np.array([0.0, 2.0, 4.0, 6.0])
    expected = 1.96 * np.std(samples, ddof=1) / 2.0
    assert normal_ci_half_width(samples) == pytest.approx(expected, abs=1e-12)


def test_tost_degenerate_cases():
    assert tost_equivalence([0.0] * 8).verdict == "practically_null"
    assert tost_equivalence([0.01] * 8, epsilon=1e-3).verdict == "not_null"
    assert tost_equivalence([5e-4] * 8, epsilon=1e-3).verdict == "practically_null"


def test_tost_monte_carlo_under_null():
    # tight noise (std 1e-4) inside the 1e-3 margin: equivalence nearly always declared
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(1000 + rep)
        samples = rng.normal(0.0, 1e-4, size=128)
        hits += tost_equivalence(samples, epsilon=1e-3).verdict == "practically_null"
    assert hits >= 95


def test_tost_rejects_clear_effect():
    rng = np.random.default_rng(4)
    samples = rng.normal(0.05, 0.01, size=64)
    assert tost_equivalence(samples, epsilon=1e-3).verdict == "not_null"


def test_tost_needs_three_samples():
    with pytest.raises(ValueError):
        tost_equivalence([0.0, 0.0])


def test_t_test_conventions():
    assert t_test_mean([0.0] * 5).p_value == 1.0
    assert t_test_mean([0.2] * 5).p_value == 0.0
    assert t_test_mean([-0.2] * 5, alternative="greater").p_value == 1.0
    assert t_test_mean([0.2] * 5, alternative="greater").p_value == 0.0


def test_t_test_and_tost_agree_on_clear_positive_effect():
    rng = np.random.default_rng(5)
    samples = rng.normal(0.05, 0.01, size=64)
    assert tost_equivalence(samples, epsilon=1e-3).verdict == "not_null"
    assert t_test_mean(samples, alternative="greater").p_value < 1e-6


def test_bh_all_ones_flags_nothing():
    assert not bh_fdr([1.0, 1.0, 1.0]).any()


def test_bh_single_small_p():
    assert bh_fdr([0.01], q=0.05).tolist() == [True]


def test_bh_hand_step_up_fixture():
    # thresholds at q=0.05, m=4: 0.0125, 0.025, 0.0375, 0.05
    # 0.01 <= 0.0125 and 0.02 <= 0.025, but 0.04 > 0.0375 and 0.2 > 0.05,
    # so the largest passing order statistic is the second one.
    flags = bh_fdr([0.01, 0.02, 0.04, 0.2], q=0.05)
    assert flags.tolist() == [True, True, False, False]


def test_bh_q_zero_flags_only_exact_zero():
    assert bh_fdr([0.0, 0.001], q=0.0).tolist() == [True, False]
    assert not bh_fdr([1e-12], q=0.0).any()


def test_bh_monotone_in_p():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = rng.random(12)
        flags = bh_fdr(p, q=0.2)
        if flags.any():
            cutoff = p[flags].max()
            assert np.array_equal(flags, p <= cutoff)


def test_bh_qvalues_fixture():
    q = bh_qvalues([0.01, 0.02, 0.04, 0.2])
    # step-up adjusted values: 0.04, 0.04, 0.0533..., 0.2
    assert q == pytest.approx([0.04, 0.04, 0.04 * 4 / 3, 0.2], abs=1e-12)
    flags = bh_fdr([0.01, 0.02, 0.04, 0.2], q=0.05)
    assert np.array_equal(flags, q <= 0.05)


def test_bh_validation():
    with pytest.raises(ValueError):
        bh_fdr([0.5, 1.5])


def test_correlations_perfect_linear():
    x = np.arange(10.0)
    result = correlations(x, 2 * x + 1)
    assert result.pearson_r == pytest.approx(1.0, abs=1e-12)
    assert result.spearman_rho == pytest.approx(1.0, abs=1e-12)
    assert result.pearson_p == 0.0 and result.spearman_p == 0.0


def test_correlations_monotone_nonlinear():
    x = np.linspace(-2, 2, 12)
    result = correlations(x, -(x**3))
    assert result.spearman_rho == pytest.approx(-1.0, abs=1e-12)
    assert abs(result.pearson_r) < 1.0


def test_correlations_match_reference_on_fixture():
    x = np.array([0.1, 0.4, 0.35, 0.8, 0.23, 0.67, 0.91, 0.05, 0.52, 0.48])
    y = np.array([1.2, 0.9, 1.4, 2.4, 0.7, 1.9, 2.2, 0.4, 1.3, 1.8])
    ours = correlations(x, y)
    ref_r, ref_rp = sps.pearsonr(x, y)
    ref_rho, ref_rhop = sps.spearmanr(x, y)
    assert ours.pearson_r == pytest.approx(ref_r, abs=1e-9)
    assert ours.pearson_p == pytest.approx(ref_rp, abs=1e-9)
    assert ours.spearman_rho == pytest.approx(ref_rho, abs=1e-9)
    assert ours.spearman_p == pytest.approx(ref_rhop, abs=1e-9)


def test_correlations_with_ties_match_reference():
    x = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 6.0])
    y = np.array([0.5, 1.0, 1.5, 1.5, 2.5, 3.5, 3.5, 4.0])
    ours = correlations(x, y)
    ref_rho, ref_rhop = sps.spearmanr(x, y)
    assert ours.spearman_rho == pytest.approx(ref_rho, abs=1e-9)
    assert ours.spearman_p == pytest.approx(ref_rhop, abs=1e-9)


def test_correlations_validation():
    with pytest.raises(ValueError, match="zero variance"):
        correlations([1, 1, 1, 1], [1, 2, 3, 4])
    with pytest.raises(ValueError, match="four"):
        correlations([1, 2, 3], [1, 2, 3])


def test_paired_t_identical_is_one():
    x = np.arange(5.0)
    assert paired_t(x, x).p_value == 1.0


def test_paired_t_constant_difference_is_zero():
    x = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    assert paired_t(x + 0.25, x).p_value == 0.0  # 0.25 subtracts exactly


def test_paired_t_matches_reference_on_fixture():
    x = np.array([1.0, 1.4, 0.9, 1.8, 1.2, 1.5, 1.1, 0.8])
    y = np.array([0.9, 1.1, 1.0, 1.5, 1.0, 1.6, 0.9, 0.7])
    ours = paired_t(x, y)
    ref = sps.ttest_rel(x, y)
    assert ours.statistic == pytest.approx(ref.statistic, abs=1e-9)
    assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-9)


def test_ols2_noiseless_recovery():
    rng = np.random.default_rng(7)
    a_mu = rng.uniform(1, 6, size=30)
    rho = rng.uniform(0, 1, size=30)
    delta = 1.0 + 2.0 * a_mu + 3.0 * rho
    fit = ols2(delta, a_mu, rho)
    assert fit.alpha == pytest.approx(1.0, abs=1e-9)
    assert fit.beta == pytest.approx(2.0, abs=1e-9)
    assert fit.gamma == pytest.approx(3.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_ols2_constant_covariate_reported():
    with pytest.raises(ValueError, match="a_mu"):
        ols2([1.0, 2.0, 3.0, 4.0, 5.0], [2.0] * 5, [0.1, 0.2, 0.3, 0.4, 0.5])


def test_ols2_matches_normal_equations():
    rng = np.random.default_rng(8)
    n = 40
    a_mu = rng.uniform(1, 6, size=n)
    rho = rng.uniform(0, 1, size=n)
    delta = 0.3 - 0.05 * a_mu + 0.4 * rho + rng.normal(0, 0.01, size=n)
    fit = ols2(delta, a_mu, rho)
    design = np.column_stack([np.ones(n), a_mu, rho])
    coef = np.linalg.solve(design.T @ design, design.T @ delta)
    assert fit.alpha == pytest.approx(coef[0], abs=1e-9)
    assert fit.beta == pytest.approx(coef[1], abs=1e-9)
    assert fit.gamma == pytest.approx(coef[2], abs=1e-9)
    resid = delta - design @ coef
    sigma2 = resid @ resid / (n - 3)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    for i, se in enumerate(fit.std_errors):
        assert se == pytest.approx(np.sqrt(cov[i, i]), abs=1e-9)
        t = coef[i] / np.sqrt(cov[i, i])
        assert fit.p_values[i] == pytest.approx(2 * sps.t.sf(abs(t), n - 3), abs=1e-9)


def test_ols2_needs_enough_rows():
    with pytest.raises(ValueError):
        ols2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.1, 0.2, 0.3])


def test_importing_cli_does_not_load_scipy_stats(tmp_path):
    # SciPy is no runtime dependency: a run, its report and its plot data load no scipy module
    config = {
        "output_dir": str(tmp_path / "run"),
        "dataset": {"kind": "synthetic", "input_dim": 12, "num_classes": 4, "per_class": 60, "spread": 3.0, "seed": 0},
        "model": {"kind": "softmax_linear", "input_dim": 12, "num_classes": 4},
        "regimes": ["standard", "resonant_strong"],
        "break_flags": ["no", "break"],
        "repeats": 4,
        "probe_size": 48,
        "diagnostics": {"noncommute_k_max": 2, "probe_subset": 32},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    run_dir = tmp_path / "run"
    code = (
        "import sys\n"
        "from backflow import cli\n"
        f"assert cli.main(['run', {str(path)!r}]) == 0\n"
        f"assert cli.main(['report', {str(run_dir)!r}]) == 0\n"
        f"assert cli.main(['plot-data', {str(run_dir)!r}]) == 0\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    )
    src = str(Path(backflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (run_dir / "summary.json").exists() and (run_dir / "plots").is_dir()
    assert proc.stdout.splitlines()[-1] == "[]"


# P(T > t) from mpmath at 50 digits; see tests/data/make_t_tails.py
T_TAILS = Path(__file__).resolve().parent / "data" / "t_tails.csv"


def test_t_tails_match_mpmath_table():
    with open(T_TAILS, newline="") as f:
        rows = [(int(r["df"]), float(r["t"]), float(r["sf"])) for r in csv.DictReader(f)]
    assert len(rows) > 1000
    assert {1, 1000, 10**4, 10**6} <= {df for df, _, _ in rows}
    assert min(sf for _, _, sf in rows) < 1e-295
    for df, t, sf in rows:
        rtol = 1e-12 if df <= 1000 else 1e-10
        assert abs(_t_sf(t, df) - sf) <= rtol * sf, (df, t)
        assert abs(_t_cdf(-t, df) - sf) <= rtol * sf, (df, t)


def test_t_tails_edge_cases():
    dfs = (1, 2, 3, 10, 47, 1000, 10**6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for df in dfs:
            for zero in (0.0, -0.0, np.float64(-0.0)):
                assert _t_sf(zero, df) == 0.5 == _t_cdf(zero, df)
            for big in (np.inf, np.float64(np.inf), 1e200, np.float64(1e200)):
                if df == 1 and not np.isinf(big):
                    continue  # the Cauchy tail 1/(pi t) is still a normal double; checked below
                assert (_t_sf(big, df), _t_sf(-big, df)) == (0.0, 1.0), (df, big)
                assert (_t_cdf(big, df), _t_cdf(-big, df)) == (1.0, 0.0), (df, big)
            assert np.isnan(_t_sf(np.nan, df)) and np.isnan(_t_cdf(np.nan, df))
        # where t² overflows, df = 1 still has the tail atan(1/t) / pi = 1 / (pi t)
        assert _t_sf(np.float64(1e200), 1) == pytest.approx(1.0 / (np.pi * 1e200), rel=1e-13, abs=0)
        assert _t_cdf(-1e200, 1) == pytest.approx(1.0 / (np.pi * 1e200), rel=1e-13, abs=0)
    with pytest.raises(ValueError):
        bh_fdr([0.01, _t_sf(np.nan, 5)])
    rng = np.random.default_rng(30)
    ts = np.concatenate([rng.standard_cauchy(200), [1e-300, 1e-8, 0.5, 300.0, 1e160, np.inf]])
    for df in dfs:
        for t in np.concatenate([ts, -ts]):
            assert _t_sf(t, df) == _t_cdf(-t, df), (t, df)


def test_t_test_and_tost_p_values_match_scipy_stats():
    rng = np.random.default_rng(31)
    for n in (3, 5, 12, 40):
        x = rng.normal(0.2, 1.0, n)
        mean, se = x.mean(), x.std(ddof=1) / np.sqrt(n)
        t = mean / se
        assert t_test_mean(x).p_value == pytest.approx(min(float(2.0 * sps.t.sf(abs(t), df=n - 1)), 1.0), rel=1e-12, abs=0)
        assert t_test_mean(x, alternative="greater").p_value == pytest.approx(float(sps.t.sf(t, df=n - 1)), rel=1e-12, abs=0)
        eps = 0.5
        p_low = float(sps.t.sf((mean + eps) / se, df=n - 1))
        p_high = float(sps.t.cdf((mean - eps) / se, df=n - 1))
        assert tost_equivalence(x, epsilon=eps).p_value == pytest.approx(max(p_low, p_high), rel=1e-12, abs=0)


def test_average_ranks_match_rankdata():
    rng = np.random.default_rng(32)
    for n in (1, 2, 5, 17, 60):
        for x in (rng.integers(0, 4, n).astype(float), rng.normal(size=n), np.zeros(n)):
            assert np.array_equal(_average_ranks(x), sps.rankdata(x))
    assert np.array_equal(_average_ranks(np.array([0.0, -0.0, 1.0])), sps.rankdata([0.0, -0.0, 1.0]))
