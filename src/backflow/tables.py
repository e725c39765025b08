"""What a run's readers show: the ``plot-data`` tables and the ``report`` markdown.

Pure functions of the run's records: no file is read or written here.
"""

import numpy as np

from .divergences import KINDS

HIST_HEADER = ("condition", "bin_left", "bin_right", "count")


def _histogram_rows(values, condition: str, bins: int = 20) -> list[tuple]:
    if not values:
        return []
    edges = np.histogram_bin_edges(values, bins=bins)
    counts, _ = np.histogram(values, bins=edges)
    return [
        (condition, float(left), float(right), int(count))
        for left, right, count in zip(edges[:-1], edges[1:], counts)
    ]


def _cell_key(record: dict) -> tuple:
    """The (regime, break, seed) of a summary cell or a diagnostics record."""
    return record["regime"], record["break"], record["seed"]


def _cell_means(cells: list[dict]) -> dict:
    """The mean TV delta of every cell that has one, by (regime, break, seed), in summary order."""
    return {_cell_key(c): c["metrics"]["tv"]["mean"] for c in cells if c["metrics"]["tv"].get("mean") is not None}


def sign_flip_rows(cells: list[dict]) -> tuple[list[tuple], int]:
    """Pair no-break and break cells by (regime, seed) and flag sign flips.

    Rows are (regime, seed, delta_no, delta_break, sign_flip).
    """
    means = _cell_means(cells)
    rows = []
    for regime, seed in sorted({(regime, seed) for regime, _, seed in means}):
        no, brk = means.get((regime, "no", seed)), means.get((regime, "break", seed))
        if no is not None and brk is not None:
            rows.append((regime, seed, no, brk, int(np.sign(no) != np.sign(brk))))
    return rows, sum(row[-1] for row in rows)


def plot_tables(summary: dict, diagnostics_records: list[dict], no_break_records: list[dict]):
    """Every ``plot-data`` table as ``{file name: (header, rows)}``, and the dose-response note.

    ``diagnostics_records`` are the lines of ``diagnostics.jsonl`` (none with
    diagnostics off) and ``no_break_records`` the repeat records of the
    no-break cells.  The note says why the dose-response fit was skipped, or
    is None; a skipped fit leaves both dose tables header-only.
    """
    from . import diagnostics as diag
    from .stats import correlations

    cells = summary["cells"]
    mean_by_cell = _cell_means(cells)
    hist_rows = [
        row
        for condition in ("no", "break")
        for row in _histogram_rows([m for key, m in mean_by_cell.items() if key[1] == condition], condition)
    ]
    scatter_rows, flips = sign_flip_rows(cells)
    scatter_summary = [(len(scatter_rows), flips, flips / len(scatter_rows) if scatter_rows else float("nan"))]
    stat_columns = [(kind, bound) for kind in KINDS for bound in ("mean", "ci_low", "ci_high")]
    means_rows = [
        (pool["regime"], pool["break"], pool["n_repeats"],
         *(pool["metrics"].get(kind, {}).get(bound) for kind, bound in stat_columns))
        for pool in summary["pooled"]
    ]

    curve_rows, cka_rows, traj_rows, slope_rows = [], [], [], []
    for rec in diagnostics_records:
        key = _cell_key(rec)
        curve_rows += [(*key, k, tv) for k, tv in rec.get("noncommute", [])]
        if rec.get("cka_first") is not None:
            cka_rows.append((*key, rec["cka_first"], rec["cka_second"]))
        for label, (x, y) in zip(rec.get("pca_labels", []), rec.get("pca_points", [])):
            traj_rows.append((*key, label, x, y, *rec["pca_explained"]))
        if rec.get("noncommute_slope") is not None and key in mean_by_cell:
            slope_rows.append((*key, rec["noncommute_slope"], mean_by_cell[key]))
    slope_rows.sort()
    align_rows = sorted(
        (c["regime"], c["seed"], c["alignment_mean"], mean_by_cell[_cell_key(c)])
        for c in cells
        if c["break"] == "no" and c.get("alignment_mean") is not None and _cell_key(c) in mean_by_cell
    )

    # each correlation over the (x, mean delta) columns of its table's no-break rows
    corr_rows = []
    for name, pairs in (
        ("delta_vs_slope", [row[3:] for row in slope_rows if row[1] == "no"]),
        ("delta_vs_alignment", [row[2:] for row in align_rows]),
    ):
        try:
            c = correlations([x for x, _ in pairs], [y for _, y in pairs])
        except ValueError:
            continue
        corr_rows.append((name, len(pairs), c.pearson_r, c.pearson_p, c.spearman_rho, c.spearman_p))

    cosines = [r["momentum_alignment"] for r in no_break_records
               if r.get("momentum_alignment") is not None and r.get("error") is None]

    meta, knobs = summary["meta"]["regimes"], ("k", "momentum", "overlap", "aug_b")
    dose_points = [
        diag.ConfigPoint(regime=regime, seed=seed, delta=mean, **{knob: meta[regime][knob] for knob in knobs})
        for (regime, flag, seed), mean in mean_by_cell.items() if flag == "no"
    ]
    note, fit_rows, pair_rows = None, [], []
    try:
        dose = diag.dose_response(dose_points)
    except ValueError as exc:
        note = f"dose-response skipped: {exc}"
    else:
        fit = dose.fit
        fit_rows = [(dose.n_points, fit.alpha, fit.beta, fit.gamma, *fit.std_errors, *fit.p_values,
                     fit.r_squared, dose.mean_lift,
                     *((dose.lift_ci.ci_low, dose.lift_ci.ci_high) if dose.lift_ci else ("", "")),
                     dose.paired.p_value if dose.paired else "")]
        pair_rows = list(zip(dose.pair_seeds, dose.pair_diffs))

    return {
        "delta_hist.csv": (HIST_HEADER, hist_rows),
        "break_scatter.csv": (("regime", "seed", "delta_no", "delta_break", "sign_flip"), scatter_rows),
        "break_scatter_summary.csv": (("n_points", "n_sign_flips", "flip_fraction"), scatter_summary),
        "regime_means.csv": (
            ("regime", "break", "n", *(f"{kind}_{bound}" for kind, bound in stat_columns)), means_rows
        ),
        "noncommute_curves.csv": (("regime", "break", "seed", "k", "tv"), curve_rows),
        "cka_table.csv": (("regime", "break", "seed", "cka_first", "cka_second"), cka_rows),
        "trajectories.csv": (("regime", "break", "seed", "label", "x", "y", "explained_1", "explained_2"), traj_rows),
        "delta_vs_slope.csv": (("regime", "break", "seed", "noncommute_slope", "mean_delta_tv"), slope_rows),
        "delta_vs_alignment.csv": (("regime", "seed", "alignment_mean", "mean_delta_tv"), align_rows),
        "correlations.csv": (("relation", "n", "pearson_r", "pearson_p", "spearman_rho", "spearman_p"), corr_rows),
        "alignment_hist.csv": (HIST_HEADER, _histogram_rows(cosines, "no", bins=24)),
        "dose_response_fit.csv": (
            ("n", "alpha", "beta", "gamma", "se_alpha", "se_beta", "se_gamma", "p_alpha", "p_beta", "p_gamma",
             "r_squared", "mean_lift", "lift_ci_low", "lift_ci_high", "paired_p"), fit_rows
        ),
        "dose_response_pairs.csv": (("seed", "lift"), pair_rows),
    }, note


def report_text(summary: dict, tost_epsilon: float) -> str:
    """The markdown report of a run whose TOST verdicts used the margin ``tost_epsilon``."""
    margin = np.format_float_scientific(tost_epsilon, trim="-", exp_digits=1)
    lines = ["# Back-flow sweep report", ""]
    lines.append(f"Run digest: `{summary['meta']['config_digest']}`  ")
    lines.append(f"Base stage: `{summary['meta']['base_stage']}`")
    lines.append("")
    lines.append(f"| regime | break | n | mean dTV | 95% CI | TOST ({margin}) | p (one-sided) |")
    lines.append("|---|---|---|---|---|---|---|")
    for pool in summary["pooled"]:
        tv = pool["metrics"]["tv"]
        if tv.get("mean") is None:
            continue
        # fewer than two repeats give a mean alone: no CI and no test
        ci = f"[{tv['ci_low']:+.6f}, {tv['ci_high']:+.6f}]" if "ci_low" in tv else "-"
        p_value = f"{tv['p_one_sided']:.3g}" if "p_one_sided" in tv else "-"
        lines.append(
            f"| {pool['regime']} | {pool['break']} | {tv['n']} "
            f"| {tv['mean']:+.6f} | {ci} | {tv.get('tost_verdict', '-')} | {p_value} |"
        )
    _, flips = sign_flip_rows(summary["cells"])
    lines.append("")
    lines.append(f"Sign flips between conditions (per regime x seed): {flips}")
    return "\n".join(lines) + "\n"
