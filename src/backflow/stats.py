"""Inference on per-repeat back-flow samples.

Percentile bootstrap for means (resample-mean order statistics, no
interpolation, so CI endpoints are realizable resample means), TOST
equivalence against a small margin, Benjamini-Hochberg FDR control,
Pearson/Spearman correlations, paired t, and a two-covariate OLS used by
the dose-response analysis.  p-values use t distributions with classical
degrees of freedom throughout; their tails come from ``scipy.special.stdtr``
(what ``scipy.stats.t`` evaluates), so importing this module does not load
``scipy.stats``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr


@dataclass(frozen=True)
class BootstrapSummary:
    mean: float
    ci_low: float
    ci_high: float
    n: int
    half_width: float


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    verdict: str


def _t_sf(t: float, df: int) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom."""
    return float(stdtr(df, -t))


def _t_cdf(t: float, df: int) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom."""
    return float(stdtr(df, t))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n, ties sharing the mean of their ranks (exact halves)."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _clean(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


def bootstrap_mean_ci(
    samples, n_boot: int = 2000, level: float = 0.95, seed: int = 0
) -> BootstrapSummary:
    """Percentile bootstrap CI for the mean, deterministic in the seed."""
    arr = _clean(samples)
    n = arr.size
    if n < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(n_boot, n))
    means = arr[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha], method="nearest")
    return BootstrapSummary(
        mean=float(arr.mean()),
        ci_low=float(lo),
        ci_high=float(hi),
        n=n,
        half_width=float((hi - lo) / 2.0),
    )


def normal_ci_half_width(samples, z: float = 1.96) -> float:
    """Half-width of the normal-approximation 95% CI, z * s / sqrt(n)."""
    arr = _clean(samples)
    if arr.size < 2:
        raise ValueError("need at least two samples")
    return float(z * arr.std(ddof=1) / np.sqrt(arr.size))


def tost_equivalence(samples, epsilon: float = 1e-3, alpha: float = 0.05) -> TestResult:
    """Two one-sided t tests of -epsilon < mean < epsilon.

    Practically null iff both one-sided tests reject at ``alpha``; the
    reported p-value is the larger of the two.  Zero-variance samples are
    classified directly by whether the common value lies inside the margin.
    """
    arr = _clean(samples)
    n = arr.size
    if n < 3:
        raise ValueError("need at least three samples")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    mean = arr.mean()
    sd = arr.std(ddof=1)
    if sd == 0.0:
        inside = abs(mean) < epsilon
        return TestResult(
            statistic=float("inf") if inside else 0.0,
            p_value=0.0 if inside else 1.0,
            verdict="practically_null" if inside else "not_null",
        )
    se = sd / np.sqrt(n)
    t_low = (mean + epsilon) / se
    t_high = (mean - epsilon) / se
    p_low = _t_sf(t_low, n - 1)  # H0: mean <= -eps
    p_high = _t_cdf(t_high, n - 1)  # H0: mean >= +eps
    p = max(p_low, p_high)
    t_stat = t_low if p_low >= p_high else t_high
    verdict = "practically_null" if p < alpha else "not_null"
    return TestResult(statistic=float(t_stat), p_value=p, verdict=verdict)


def t_test_mean(samples, alternative: str = "two-sided", alpha: float = 0.05) -> TestResult:
    """One-sample t test of the mean against zero.

    ``alternative`` is "two-sided" (mean != 0) or "greater" (mean > 0, the
    test of the no-back-flow null E[delta] <= 0).  Zero-variance samples use
    the degenerate convention p = 0 when the common value already violates
    the null and p = 1 otherwise.
    """
    if alternative not in ("two-sided", "greater"):
        raise ValueError(f"unknown alternative {alternative!r}")
    arr = _clean(samples)
    n = arr.size
    if n < 2:
        raise ValueError("need at least two samples")
    mean = arr.mean()
    sd = arr.std(ddof=1)
    if sd == 0.0:
        if alternative == "two-sided":
            p = 0.0 if mean != 0.0 else 1.0
        else:
            p = 0.0 if mean > 0.0 else 1.0
        stat = float("inf") if p == 0.0 else 0.0
        return TestResult(stat, p, "significant" if p < alpha else "not_significant")
    t = mean / (sd / np.sqrt(n))
    if alternative == "two-sided":
        p = 2.0 * _t_sf(abs(t), n - 1)
    else:
        p = _t_sf(t, n - 1)
    return TestResult(float(t), min(p, 1.0), "significant" if p < alpha else "not_significant")


def paired_t(x, y) -> TestResult:
    """Two-sided one-sample t on the paired differences x - y."""
    xa = _clean(x)
    ya = _clean(y)
    if xa.size != ya.size:
        raise ValueError("paired samples must have equal length")
    if xa.size < 3:
        raise ValueError("need at least three pairs")
    return t_test_mean(xa - ya, alternative="two-sided")


def bh_fdr(p_values, q: float = 0.05) -> np.ndarray:
    """Benjamini-Hochberg step-up; returns a boolean significance flag per input.

    Flags are monotone in p: anything at or below the largest passing order
    statistic is flagged.
    """
    p = np.asarray(p_values, dtype=np.float64).ravel()
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if np.any((p < 0) | (p > 1)) or not np.all(np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    thresholds = q * (np.arange(1, m + 1) / m)
    passing = np.flatnonzero(sorted_p <= thresholds)
    flags = np.zeros(m, dtype=bool)
    if passing.size:
        cutoff = sorted_p[passing[-1]]
        flags = p <= cutoff
    return flags


def bh_qvalues(p_values) -> np.ndarray:
    """BH-adjusted q-values (monotone step-up adjustment)."""
    p = np.asarray(p_values, dtype=np.float64).ravel()
    if p.size == 0:
        return np.zeros(0)
    if np.any((p < 0) | (p > 1)) or not np.all(np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(adjusted, 1.0)
    return out


@dataclass(frozen=True)
class CorrelationResult:
    pearson_r: float
    pearson_p: float
    spearman_rho: float
    spearman_p: float


def _pearson_with_p(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    n = x.size
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    r = float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    return r, 2.0 * _t_sf(abs(t), n - 2)


def correlations(x, y) -> CorrelationResult:
    """Pearson and Spearman correlations with t-approximation p-values.

    Spearman uses average ranks for ties and then the Pearson machinery.
    """
    xa = _clean(x)
    ya = _clean(y)
    if xa.size != ya.size:
        raise ValueError("x and y must have equal length")
    if xa.size < 4:
        raise ValueError("need at least four points")
    if xa.std() == 0.0 or ya.std() == 0.0:
        raise ValueError("zero variance in x or y")
    r, rp = _pearson_with_p(xa, ya)
    rho, rhop = _pearson_with_p(_average_ranks(xa), _average_ranks(ya))
    return CorrelationResult(r, rp, rho, rhop)


@dataclass(frozen=True)
class Ols2Result:
    alpha: float
    beta: float
    gamma: float
    std_errors: tuple[float, float, float]
    p_values: tuple[float, float, float]
    r_squared: float


def ols2(delta, a_mu, rho) -> Ols2Result:
    """Least squares for delta = alpha + beta * a_mu + gamma * rho + noise.

    Classical standard errors and two-sided t p-values (df = n - 3).  Rank
    deficiency is reported explicitly, naming a constant covariate when that
    is the cause.
    """
    y = _clean(delta)
    x1 = _clean(a_mu)
    x2 = _clean(rho)
    n = y.size
    if x1.size != n or x2.size != n:
        raise ValueError("delta, a_mu, and rho must have equal length")
    if n <= 3:
        raise ValueError("need more than three observations")
    design = np.column_stack([np.ones(n), x1, x2])
    if np.linalg.matrix_rank(design) < 3:
        for name, col in (("a_mu", x1), ("rho", x2)):
            if np.ptp(col) == 0.0:
                raise ValueError(f"design is rank deficient: covariate {name} is constant")
        raise ValueError("design is rank deficient: covariates are collinear")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    rss = float(residuals @ residuals)
    tss = float(((y - y.mean()) ** 2).sum())
    sigma2 = rss / (n - 3)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    p = np.empty(3)
    for i in range(3):
        if se[i] == 0.0:
            p[i] = 0.0 if coef[i] != 0.0 else 1.0
        else:
            p[i] = 2.0 * _t_sf(abs(coef[i] / se[i]), n - 3)
    r_squared = 1.0 if tss == 0.0 else 1.0 - rss / tss
    return Ols2Result(
        alpha=float(coef[0]),
        beta=float(coef[1]),
        gamma=float(coef[2]),
        std_errors=(float(se[0]), float(se[1]), float(se[2])),
        p_values=(float(p[0]), float(p[1]), float(p[2])),
        r_squared=float(r_squared),
    )
