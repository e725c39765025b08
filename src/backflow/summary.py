"""The sweep summary: one pure function of the configuration and the cell records.

``summarize`` reads nothing but its arguments, so the cell files of a
finished run reproduce its ``summary.json``.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .artifacts import SCHEMA_VERSION
from .divergences import KINDS
from .seeding import derive_seed
from .stats import bh_fdr, bh_qvalues, bootstrap_mean_ci, t_test_mean, tost_equivalence


@dataclass(frozen=True)
class StatsPolicy:
    bootstrap_samples: int = 2000
    tost_epsilon: float = 1e-3
    bh_q: float = 0.05


def _alignment_mean(records) -> float | None:
    """Mean momentum alignment of the ok records that have one, or None."""
    alignments = [r.momentum_alignment for r in records if r.ok and r.momentum_alignment is not None]
    return float(np.mean(alignments)) if alignments else None


def _metric_block(deltas: np.ndarray, policy: StatsPolicy, boot_seed: int) -> dict:
    """The mean of ``deltas``; from 2 values its bootstrap CI and t tests, from 3 its TOSTs."""
    n = deltas.size
    if n < 2:
        return {"n": n, "mean": float(deltas.mean()) if n else None}
    boot = bootstrap_mean_ci(deltas, n_boot=policy.bootstrap_samples, seed=boot_seed)
    block = {"n": n, "mean": boot.mean, "ci_low": boot.ci_low, "ci_high": boot.ci_high,
             "half_width": boot.half_width}
    block["p_one_sided"] = t_test_mean(deltas, alternative="greater").p_value
    block["p_two_sided"] = t_test_mean(deltas, alternative="two-sided").p_value
    if n >= 3:
        nominal = tost_equivalence(deltas, epsilon=policy.tost_epsilon)
        se = float(deltas.std(ddof=1) / math.sqrt(n))
        scaled_eps = max(policy.tost_epsilon, 3.0 * se)
        scaled = tost_equivalence(deltas, epsilon=scaled_eps)
        block["tost_p"] = nominal.p_value
        block["tost_verdict"] = nominal.verdict
        block["tost_scaled_epsilon"] = scaled_eps
        block["tost_scaled_p"] = scaled.p_value
        block["tost_scaled_verdict"] = scaled.verdict
    return block


def _block(labels: dict, records, policy: StatsPolicy, seed_tags: tuple, **fields) -> dict:
    """A cell or pooled row: ``labels``, record counts, ``fields``, and a metric block per kind."""
    valid = [r for r in records if r.ok]
    return {
        **labels,
        "n_repeats": len(records),
        "n_errors": len(records) - len(valid),
        **fields,
        "metrics": {
            kind: _metric_block(np.array([r.delta[kind] for r in valid]), policy, derive_seed(*seed_tags, kind))
            for kind in KINDS
        },
    }


def _bh_block(cells: list[dict], kind: str, q: float) -> list[dict]:
    """BH q-values and verdicts at ``q`` across the cells with a two-sided p-value for ``kind``."""
    entries = []
    for c in cells:
        metric = c["metrics"][kind]
        if "p_two_sided" in metric:
            labels = {key: c[key] for key in ("regime", "break", "seed")}
            entries.append({**labels, "p_two_sided": metric["p_two_sided"]})
    ps = [e["p_two_sided"] for e in entries]
    for entry, qv, significant in zip(entries, bh_qvalues(ps), bh_fdr(ps, q=q)):
        entry["q_value"] = float(qv)
        entry["significant"] = bool(significant)
    return entries


def summarize(config, records_by_cell: dict, created_at: str, digest: str) -> dict:
    """The ``summary.json`` dictionary of a sweep.

    ``records_by_cell`` maps every (regime name, flag, seed) of ``config``
    to the cell's records.  Cells are reported in (regime, flag, seed)
    order; a cell stopped early when it holds fewer than ``config.repeats``
    records, as every early-stop checkpoint lies below that count.
    """
    stats, cells, pooled = config.stats, [], []
    for regime in config.regimes:
        for flag in config.break_flags:
            labels = {"regime": regime.name, "break": flag}
            for seed in config.seeds:
                records = records_by_cell[regime.name, flag, seed]
                tags = ("bootstrap", regime.name, flag, seed)
                early_stopped = len(records) < config.repeats
                cells.append(_block({**labels, "seed": seed}, records, stats, tags,
                                    early_stopped=early_stopped, alignment_mean=_alignment_mean(records)))
            merged = [r for seed in config.seeds for r in records_by_cell[regime.name, flag, seed]]
            pooled.append(_block(labels, merged, stats, ("bootstrap-pooled", regime.name, flag)))
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": {
            "created_at": created_at,
            "config_digest": digest,
            "regimes": {r.name: asdict(r) for r in config.regimes},
            "base_stage": config.base_stage,
        },
        "cells": cells,
        "pooled": pooled,
        "bh": {kind: _bh_block(cells, kind, stats.bh_q) for kind in KINDS},
        "n_persistent_errors": sum(not r.ok for records in records_by_cell.values() for r in records),
    }
