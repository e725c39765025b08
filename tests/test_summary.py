"""The summary's rules, checked on hand-built records rather than through a sweep's bytes."""

import math

import numpy as np
import pytest

from backflow.divergences import KINDS
from backflow.engine import BackflowRecord, Regime
from backflow.protocol import RunConfig
from backflow.seeding import derive_seed
from backflow.stats import bh_fdr, bh_qvalues, bootstrap_mean_ci
from backflow.summary import StatsPolicy, summarize

REGIME = Regime("hand", 2, 0.02, 0.9, "weak", "color", "weak", 0.5, True)
CONFIG = RunConfig(dataset={}, model={}, regimes=(REGIME,), output_dir="unused",
                   break_flags=("no", "break"), seeds=(0, 1), repeats=6,
                   stats=StatsPolicy(bootstrap_samples=200))
# (flag, seed) -> deltas; "no" spreads widely (3 SE above the margin), "break" barely (3 SE below it)
DELTAS = {
    ("no", 0): [0.031, 0.012, 0.027, 0.004, 0.019, 0.024],  # a full cell
    ("no", 1): [0.015, 0.038, 0.009, 0.022],  # stopped early
    ("break", 0): [0.0201, 0.0202, 0.0199, 0.0203, 0.0200, 0.0198],
    ("break", 1): [0.0204, 0.0197, 0.0202, 0.0199, 0.0201],
}


def make_records(seed, deltas, break_applied):
    records = [
        BackflowRecord(i, seed, break_applied, {k: 0.0 for k in KINDS}, {k: v for k in KINDS},
                       {k: v for k in KINDS}, None if break_applied else 0.5)
        for i, v in enumerate(deltas)
    ]
    if seed == 1 and not break_applied:  # an errored repeat still counts as run
        records.append(BackflowRecord(len(records), seed, False, None, None, None, error="nan_guard: x"))
    return records


@pytest.fixture(scope="module")
def summary():
    records_by_cell = {("hand", flag, seed): make_records(seed, deltas, flag == "break")
                       for (flag, seed), deltas in DELTAS.items()}
    return summarize(CONFIG, records_by_cell, "now", "digest")


def test_a_pooled_row_counts_every_seed(summary):
    for pooled in summary["pooled"]:
        flag = pooled["break"]
        cells = [c for c in summary["cells"] if c["break"] == flag]
        assert pooled["n_repeats"] == sum(c["n_repeats"] for c in cells)
        assert pooled["n_errors"] == sum(c["n_errors"] for c in cells)
        merged = [v for seed in CONFIG.seeds for v in DELTAS[flag, seed]]
        assert pooled["metrics"]["tv"]["n"] == len(merged)
        assert pooled["metrics"]["tv"]["mean"] == pytest.approx(np.mean(merged), rel=1e-12)
    assert [p["n_repeats"] for p in summary["pooled"]] == [11, 11]


def test_bh_reads_each_cells_two_sided_p_value(summary):
    cells = summary["cells"]
    for kind in KINDS:
        entries = summary["bh"][kind]
        assert [(e["regime"], e["break"], e["seed"]) for e in entries] == [
            (c["regime"], c["break"], c["seed"]) for c in cells]
        p_values = [c["metrics"][kind]["p_two_sided"] for c in cells]
        assert [e["p_two_sided"] for e in entries] == p_values
        # the one-sided p-values differ, so BH on them would give other q-values
        assert all(c["metrics"][kind]["p_one_sided"] != p for c, p in zip(cells, p_values))
        assert [e["q_value"] for e in entries] == bh_qvalues(p_values).tolist()
        assert [e["significant"] for e in entries] == bh_fdr(p_values, q=CONFIG.stats.bh_q).tolist()


def test_early_stopped_holds_exactly_below_the_requested_repeats(summary):
    stopped = {(c["break"], c["seed"]): (c["n_repeats"], c["early_stopped"]) for c in summary["cells"]}
    assert stopped == {("no", 0): (6, False), ("no", 1): (5, True),
                       ("break", 0): (6, False), ("break", 1): (5, True)}


def test_scaled_tost_margin_is_the_larger_of_epsilon_and_three_standard_errors(summary):
    epsilon = CONFIG.stats.tost_epsilon
    for row in summary["cells"] + summary["pooled"]:
        deltas = [v for (flag, seed), values in DELTAS.items()
                  if flag == row["break"] and seed == row.get("seed", seed) for v in values]
        se = float(np.std(deltas, ddof=1) / math.sqrt(len(deltas)))
        margin = row["metrics"]["tv"]["tost_scaled_epsilon"]
        assert margin == max(epsilon, 3.0 * se)
        if row["break"] == "no":
            assert 3.0 * se > epsilon and margin == 3.0 * se
        else:
            assert 3.0 * se < epsilon and margin == epsilon


def test_each_interval_is_bootstrapped_under_its_seed_tag(summary):
    # a cell resamples under ("bootstrap", regime, flag, seed, kind), a pooled row
    # under ("bootstrap-pooled", regime, flag, kind) over its seeds' deltas in config order
    for row in summary["cells"] + summary["pooled"]:
        flag = row["break"]
        if "seed" in row:
            deltas, tags = DELTAS[flag, row["seed"]], ("bootstrap", REGIME.name, flag, row["seed"])
        else:
            deltas = [v for seed in CONFIG.seeds for v in DELTAS[flag, seed]]
            tags = ("bootstrap-pooled", REGIME.name, flag)
        for kind in KINDS:
            boot = bootstrap_mean_ci(np.array(deltas), n_boot=CONFIG.stats.bootstrap_samples,
                                     seed=derive_seed(*tags, kind))
            metric = row["metrics"][kind]
            assert (metric["ci_low"], metric["ci_high"]) == (boot.ci_low, boot.ci_high)
        # every kind has the same deltas, so only the seed tells their intervals apart
        assert len({(m["ci_low"], m["ci_high"]) for m in row["metrics"].values()}) == len(KINDS)
