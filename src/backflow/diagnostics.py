"""Mechanism diagnostics: alignment cosines, linear CKA, function-space PCA,
and the dose-response regression over regime means."""

from dataclasses import dataclass

import numpy as np

from .optimizer import amplification_factor
from .stats import BootstrapSummary, Ols2Result, TestResult, bootstrap_mean_ci, ols2, paired_t


def cosine(u, v) -> float:
    """Cosine of the angle between two vectors; 0.0 when either has zero norm."""
    ua = np.asarray(u, dtype=np.float64).ravel()
    va = np.asarray(v, dtype=np.float64).ravel()
    if ua.size != va.size:
        raise ValueError("length mismatch")
    nu = np.linalg.norm(ua)
    nv = np.linalg.norm(va)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(ua, va) / (nu * nv))


def linear_cka(x, y) -> float:
    """Linear centered kernel alignment between two feature matrices.

    Invariant to orthogonal transforms and isotropic scaling of either
    argument; ranges over [0, 1].
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 2 or ya.ndim != 2:
        raise ValueError("feature matrices must be 2-D")
    if xa.shape[0] != ya.shape[0]:
        raise ValueError("feature matrices must describe the same examples")
    if xa.shape[0] < 2:
        raise ValueError("need at least two examples")
    xc = xa - xa.mean(axis=0)
    yc = ya - ya.mean(axis=0)
    cross = np.linalg.norm(xc.T @ yc, "fro") ** 2
    norm_x = np.linalg.norm(xc.T @ xc, "fro")
    norm_y = np.linalg.norm(yc.T @ yc, "fro")
    if norm_x == 0.0 or norm_y == 0.0:
        raise ValueError("zero centered norm")
    return float(np.clip(cross / (norm_x * norm_y), 0.0, 1.0))


@dataclass(frozen=True)
class TrajectoryProjection:
    points: np.ndarray  # n_inputs x 2
    explained_variance: tuple[float, float]


def pca_project(matrices) -> TrajectoryProjection:
    """Project prediction matrices onto their top-2 principal directions.

    Inputs are flattened and centered across the whole set.  The sign of
    each direction is fixed so its largest-magnitude coordinate is positive,
    making the projection deterministic.  A fully degenerate set (all inputs
    identical) projects to the origin with zero explained variance.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    if len(mats) < 2:
        raise ValueError("need at least two matrices")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ValueError("all matrices must share one shape")
    flat = np.stack([m.ravel() for m in mats])
    centered = flat - flat.mean(axis=0)
    n = centered.shape[0]
    if not np.any(np.abs(centered) > 0.0):
        return TrajectoryProjection(np.zeros((n, 2)), (0.0, 0.0))
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    directions = vt[:2]
    if directions.shape[0] < 2:
        directions = np.vstack([directions, np.zeros((2 - directions.shape[0], centered.shape[1]))])
    s = np.concatenate([s, np.zeros(2)])[:2]
    for i in range(2):
        j = int(np.argmax(np.abs(directions[i])))
        if directions[i, j] < 0:
            directions[i] = -directions[i]
    points = centered @ directions.T
    explained = (s * s) / (n - 1)
    return TrajectoryProjection(points, (float(explained[0]), float(explained[1])))


def curve_slope(ks, values) -> float:
    """Least-squares slope of a diagnostic curve over its step counts."""
    x = np.asarray(ks, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two curve points")
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise ValueError("step counts are constant")
    return float((xc @ (y - y.mean())) / denom)


@dataclass(frozen=True)
class ConfigPoint:
    """Per-configuration mean back-flow with the regime knobs that produced it."""

    regime: str
    seed: int
    k: int
    momentum: float
    overlap: float
    aug_b: str
    delta: float


@dataclass(frozen=True)
class DoseResponse:
    fit: Ols2Result
    n_points: int
    pair_seeds: tuple[int, ...]
    pair_diffs: tuple[float, ...]
    mean_lift: float
    lift_ci: BootstrapSummary | None
    paired: TestResult | None


def dose_response(points) -> DoseResponse:
    """Regress mean back-flow on the momentum amplification factor and overlap.

    Restricted to configurations whose second instrument uses the weak
    augmentation.  Also runs the within-pair comparison of the two resonant
    regimes (``resonant_strong`` against ``resonant_mid``) at k = 6, paired
    by seed.
    """
    weak_points = [p for p in points if p.aug_b == "weak"]
    if len(weak_points) <= 3:
        raise ValueError("need more than three weak-second-step configurations")
    delta = [p.delta for p in weak_points]
    a_mu = [amplification_factor(p.momentum, p.k) for p in weak_points]
    rho = [p.overlap for p in weak_points]
    fit = ols2(delta, a_mu, rho)

    at_k6 = [p for p in weak_points if p.k == 6]
    strong_by_seed = {p.seed: p.delta for p in at_k6 if p.regime == "resonant_strong"}
    mid_by_seed = {p.seed: p.delta for p in at_k6 if p.regime == "resonant_mid"}
    seeds = tuple(sorted(set(strong_by_seed) & set(mid_by_seed)))
    diffs = tuple(strong_by_seed[s] - mid_by_seed[s] for s in seeds)
    lift_ci = None
    paired = None
    if len(seeds) >= 3:
        lift_ci = bootstrap_mean_ci(diffs, seed=0)
        paired = paired_t([strong_by_seed[s] for s in seeds], [mid_by_seed[s] for s in seeds])
    mean_lift = float(np.mean(diffs)) if diffs else float("nan")
    return DoseResponse(
        fit=fit,
        n_points=len(weak_points),
        pair_seeds=seeds,
        pair_diffs=diffs,
        mean_lift=mean_lift,
        lift_ci=lift_ci,
        paired=paired,
    )
