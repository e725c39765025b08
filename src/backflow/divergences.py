"""Bounded, contractive divergences on probability rows.

Three kinds are supported, all symmetric, zero iff the arguments agree, and
contractive under stochastic post-processing (the data-processing
inequality), which is what makes them usable as distinguishability measures:

* ``tv``        total variation, 0.5 * sum |p_i - q_i|, range [0, 1]
* ``js``        Jensen-Shannon with base-2 logarithms, range [0, 1]
* ``hellinger`` 0.5 * || sqrt(p) - sqrt(q) ||_2, range [0, sqrt(2)/2]

The Hellinger coefficient is deliberately 1/2 (not the conventional
1/sqrt(2)), so its maximum over disjoint supports is sqrt(2)/2.

Matrix variants average the per-row divergence, which preserves the
data-processing property row-wise.  ``div_avg`` takes a tuple of kinds and
returns a ``{kind: value}`` dict; it also takes a stack of prediction
matrices (R x N x C) and then gives one average per matrix pair.
"""

import numpy as np

KINDS = ("tv", "js", "hellinger")

_ROW_SUM_TOL = 1e-6


def _as_prob_rows(a, name: str) -> np.ndarray:
    """Rows of ``a`` renormalized, after checking them in one pass per condition.

    The comparisons are written so that NaN fails them.  ``initial`` gives
    empty input a verdict: an empty row fails its sum, a stack of no rows
    passes.
    """
    rows = np.atleast_2d(np.asarray(a, dtype=np.float64))
    lowest = rows.min(initial=0.0)
    if not lowest >= -1e-12:
        raise ValueError(f"{name} has negative entries" if lowest < 0 else f"{name}: non-finite entries")
    sums = rows.sum(axis=-1, keepdims=True)
    worst = float(np.abs(sums - 1.0).max(initial=0.0))
    if not worst <= _ROW_SUM_TOL:
        raise ValueError(f"{name} rows are not normalized (max deviation {worst:.3e})")
    return np.clip(rows, 0.0, None) / sums


def _kl_terms(p: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Entries p * log2(p / m) of KL(p || m) for m = total / 2, total = p + q, 0 where p is 0.

    The ratio is formed as 2p / (p + q), and only where p > 0 (there
    p + q > 0), so nothing is divided by 0.  It equals p / m whenever m is
    exact, and stays right where m itself would underflow to 0.
    """
    positive = p > 0.0
    return p * np.log2(np.where(positive, 2.0 * p, 1.0) / np.where(positive, total, 1.0))


def _row_values(kind: str, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    if kind == "tv":
        return 0.5 * np.abs(p - q).sum(axis=-1)
    if kind == "hellinger":
        diff = np.sqrt(p) - np.sqrt(q)
        return 0.5 * np.sqrt((diff * diff).sum(axis=-1))
    if kind == "js":
        total = p + q  # both terms' sum: IEEE addition commutes, so q + p is the same
        return 0.5 * _kl_terms(p, total).sum(axis=-1) + 0.5 * _kl_terms(q, total).sum(axis=-1)
    raise ValueError(f"unknown divergence kind: {kind!r}")


def div_row(kind: str, p, q) -> float:
    """Divergence between two probability vectors: ``div_avg`` of one row.

    Inputs whose sums deviate from 1 by less than 1e-6 are renormalized;
    larger deviations raise, so drift does not silently mask bugs.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}, two vectors of one length expected")
    return div_avg((kind,), p, q)[kind]


def div_avg(kinds: tuple[str, ...], p, q) -> dict:
    """Mean per-row divergence of each of ``kinds`` between two N x C prediction matrices.

    The matrices hold predictions on the same N inputs and are validated
    once for all kinds.  Returns ``{kind: value}``; stacked R x N x C inputs
    give an array of R averages per kind.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    pr = _as_prob_rows(p, "p")
    qr = _as_prob_rows(q, "q")

    def average(kind):
        value = _row_values(kind, pr, qr).mean(axis=-1)
        return float(value) if value.ndim == 0 else value

    return {kind: average(kind) for kind in kinds}
