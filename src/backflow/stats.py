"""Inference on per-repeat back-flow samples.

Percentile bootstrap 95% CIs for means (resample-mean order statistics, no
interpolation, so CI endpoints are realizable resample means), TOST
equivalence against a small margin, Benjamini-Hochberg FDR control,
Pearson/Spearman correlations, paired t, and a two-covariate OLS used by
the dose-response analysis.  p-values use t distributions with classical
degrees of freedom throughout.  Their tails are computed here from the
regularized incomplete beta function with the standard library's ``math``
(no SciPy): within about 1e-13 relative of the exact tail for df <= 1000,
down to tails of 1e-300, and within 1e-10 up to df = 10**6.  The levels
are fixed: the CIs are at 95% and the t tests and TOST decide at 0.05.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np


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


_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS  # keeps the Lentz denominators off zero
_MAX_TERMS = 1000  # the t tails converge within about 100 terms at any df
_LOG_SQRT_PI = 0.5 * math.log(math.pi)  # log Gamma(1/2)


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2) = log Gamma(a) + log Gamma(1/2) - log Gamma(a + 1/2).

    From a = 20 on, the difference of the two lgammas is replaced by its
    asymptotic series, which keeps the absolute error below 4e-15 where the
    difference itself loses digits (1e-13 at a = 500, 7e-12 at a = 5,000).
    """
    if a < 20.0:
        return math.lgamma(a) + _LOG_SQRT_PI - math.lgamma(a + 0.5)
    z = 1.0 / a
    z2 = z * z
    return _LOG_SQRT_PI - 0.5 * math.log(a) + z * (1 / 8 - z2 * (1 / 192 - z2 * (1 / 640 - z2 * (17 / 14336))))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method.

    Numerical Recipes (3rd ed.) section 6.4; it converges fast for
    x < (a + 1) / (a + b + 2).  Raises instead of returning an unconverged value.
    """
    qab = a + b
    c = 1.0
    d = 1.0 - qab * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS):
        m2 = 2 * m
        even = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (a + m2 + 1.0))
        for coeff in (even, odd):
            d = 1.0 + coeff * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + coeff / c
            c = c if abs(c) >= _TINY else _TINY
            step = c * d
            h *= step
        if abs(step - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"continued fraction of I_x({a}, {b}) did not converge at x = {x}")


def _upper_tail(df: float, x: float, y: float, log_x: float, log_y: float) -> float:
    """P(T > |t|) = I_x(df/2, 1/2) / 2, given x = df/(df + t²), y = t²/(df + t²) and their logs."""
    a = 0.5 * df
    front = math.exp(a * log_x + 0.5 * log_y - _log_beta_half(a))
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_cf(a, 0.5, x) / a
    return 0.5 - front * _beta_cf(0.5, a, y)  # (1 - I_y(1/2, a)) / 2


def _t_sf(t: float, df: int) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom.

    x and y are each formed directly (neither as 1 minus the other), and the
    log of whichever is near 1 comes from ``log1p`` of the other.  t = ±inf
    gives 0 or 1 and NaN gives NaN.
    """
    t = float(t)  # a NumPy scalar would warn where t² overflows
    if math.isnan(t):
        return math.nan
    df = float(df)
    t2 = t * t
    if math.isinf(t2):  # |t| > 1.3e154: y is 1 to double precision and x = df / t²
        log_x = math.log(df) - 2.0 * math.log(abs(t))
        tail = _upper_tail(df, math.exp(log_x), 1.0, log_x, 0.0)
    else:
        y = t2 / (df + t2)
        if y == 0.0:  # t = ±0, or so small that the tail rounds to 1/2
            return 0.5
        x = df / (df + t2)
        log_x = math.log1p(-y) if y < 0.5 else math.log(x)
        log_y = math.log1p(-x) if x < 0.5 else math.log(y)
        tail = _upper_tail(df, x, y, log_x, log_y)
    return tail if t > 0.0 else 1.0 - tail


def _t_cdf(t: float, df: int) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom."""
    return _t_sf(-t, df)


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


def bootstrap_mean_ci(samples, n_boot: int = 2000, seed: int = 0) -> BootstrapSummary:
    """Percentile bootstrap 95% CI for the mean, deterministic in the seed."""
    arr = _clean(samples)
    n = arr.size
    if n < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(n_boot, n))
    means = arr[idx].mean(axis=1)
    lo, hi = np.quantile(means, [0.025, 0.975], method="nearest")
    return BootstrapSummary(
        mean=float(arr.mean()),
        ci_low=float(lo),
        ci_high=float(hi),
        n=n,
        half_width=float((hi - lo) / 2.0),
    )


def normal_ci_half_width(samples) -> float:
    """Half-width of the normal-approximation 95% CI, 1.96 * s / sqrt(n)."""
    arr = _clean(samples)
    if arr.size < 2:
        raise ValueError("need at least two samples")
    return float(1.96 * arr.std(ddof=1) / np.sqrt(arr.size))


def tost_equivalence(samples, epsilon: float = 1e-3) -> TestResult:
    """Two one-sided t tests of -epsilon < mean < epsilon.

    Practically null iff both one-sided tests reject at 0.05; the
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
    verdict = "practically_null" if p < 0.05 else "not_null"
    return TestResult(statistic=float(t_stat), p_value=p, verdict=verdict)


def t_test_mean(samples, alternative: str = "two-sided") -> TestResult:
    """One-sample t test of the mean against zero, significant at 0.05.

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
    else:
        stat = float(mean / (sd / np.sqrt(n)))
        p = 2.0 * _t_sf(abs(stat), n - 1) if alternative == "two-sided" else _t_sf(stat, n - 1)
    return TestResult(stat, min(p, 1.0), "significant" if p < 0.05 else "not_significant")


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
