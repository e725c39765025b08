"""Operator surface: run sweeps, verify the process oracle, emit plot data.

Subcommands:

* ``run <config.json>``          execute a sweep, write JSONL + summary.json
* ``oracle --seed S --count N``  randomized no-back-flow verification runs
* ``plot-data <run_dir>``        CSV tables for histograms, scatters, curves
* ``report <run_dir>``           markdown summary table

Only ``run`` imports the sweep (``protocol`` and its ``engine``); ``run``
and ``plot-data`` import ``stats`` and ``diagnostics``, inside the command.  ``report`` reads
the run directory through ``artifacts`` alone, and ``oracle`` loads NumPy
and the process oracle alone.  No command loads SciPy.  Every file is
written through ``artifacts.write_atomic``, so a failed write leaves the
previous file.  ``run`` first fixes glibc's heap thresholds
(``_fix_heap_thresholds``), which the sweep's many short-lived NumPy
temporaries need.
"""

import argparse
import csv
import ctypes
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import comb as comb_mod
from .artifacts import cell_filename, read_jsonl, write_atomic
from .divergences import KINDS
from .errors import ConfigError


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers


def _fix_heap_thresholds() -> None:
    """Keep freed NumPy temporaries in the heap for the rest of the process.

    By default glibc raises its mmap and trim thresholds only as large
    blocks are freed, and trims the top of the heap whenever a few
    sweep-sized temporaries (256 KB to 2 MB) are freed together, so the
    next ones fault their pages in again.  The mmap threshold is fixed at
    32 MiB, the ceiling of glibc's dynamic threshold on 64-bit, and the
    trim threshold at twice that, as glibc's dynamic rule would set it.
    Does nothing where the C library has no ``mallopt`` (macOS, Windows).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def cmd_run(config_path: str) -> int:
    _fix_heap_thresholds()
    from .protocol import config_from_mapping, run_sweep

    try:
        mapping = json.loads(Path(config_path).read_text())
    except FileNotFoundError:
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        config = config_from_mapping(mapping)
        result = run_sweep(config)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for cell in result.summary["cells"]:
        tv = cell["metrics"]["tv"]
        if tv.get("ci_low") is not None:
            detail = f"mean dTV={tv['mean']:+.6f}  CI=[{tv['ci_low']:+.6f}, {tv['ci_high']:+.6f}]"
        elif tv.get("mean") is not None:
            detail = f"mean dTV={tv['mean']:+.6f}"
        else:
            detail = "no valid repeats"
        print(
            f"{cell['regime']:>16s}  {cell['break']:>5s}  seed={cell['seed']}  "
            f"n={cell['n_repeats']:3d}  {detail}"
        )
    errors = result.summary["n_persistent_errors"]
    print(f"summary written to {result.run_dir / 'summary.json'}")
    if errors:
        print(f"error: {errors} repeats failed the NaN guard twice", file=sys.stderr)
        return 1
    return 0


def _oracle_processes(maker, rng: np.random.Generator, count: int):
    """``count`` processes of ``maker``, each built only when the oracle reads it."""
    for _ in range(count):
        comb, b_label, lambda_b = maker(rng)
        yield comb, comb_mod.instrument_pairs(comb), b_label, lambda_b


def cmd_oracle(seed: int, count: int, demo_witness: bool = False) -> int:
    """Randomized verification that the no-back-flow bound holds where proven."""
    tol = comb_mod.ORACLE_TOL
    rng = np.random.default_rng(seed)
    worst = -np.inf
    worst_residual = 0.0
    for maker, break_flag in ((comb_mod.random_factoring_comb, False), (comb_mod.random_break_comb, True)):
        processes = _oracle_processes(maker, rng, count)
        for report in comb_mod.verify_no_backflow(processes, break_before_second=break_flag):
            if not report.applicable:
                print("FAIL: single-channel precondition violated "
                      f"(residual {report.omc_residual:.3e})")
                return 1
            worst = max(worst, report.max_delta)
            worst_residual = max(worst_residual, report.omc_residual)
    if count:
        # the last report is applicable here, with one delta per (pair, kind)
        n_pairs = len(report.deltas) // len(KINDS)
        print(f"checked {2 * count} processes "
              f"({count} factoring, {count} break+lifting), "
              f"{n_pairs} pairs x {len(KINDS)} divergences each")
        print(f"worst channel residual: {worst_residual:.3e}")
        print(f"worst back-flow delta:  {worst:.3e} (bound {tol:.1e})")
    else:
        print("checked 0 processes")

    status = 0
    if count and worst > tol:
        print("FAIL: positive back-flow where the bound must hold")
        status = 1

    if demo_witness:
        comb, pair, b_label = comb_mod.memoryful_demo_comb()
        before = comb_mod.search_backflow_witness(comb, [pair], b_label)
        after = comb_mod.search_backflow_witness(comb, [pair], b_label, break_before_second=True)
        print("memoryful demo process (buffer routes the second step):")
        print(f"  delta before break: {before[2]:+.6f} ({before[1]}) -> positive, memory exhibited")
        print(f"  delta after break:  {after[2]:+.6e} -> within bound {tol:.1e}")
        if not (before[2] > 0 and after[2] <= tol):
            print("FAIL: demo witness did not behave as constructed")
            status = 1
    return status


def _write_csv(path: Path, header: tuple, rows) -> None:
    """One header row, then the rows; None is written as an empty field."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, text.getvalue())


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


def sign_flip_rows(cells: list[dict]) -> tuple[list[tuple], int]:
    """Pair no-break and break cells by (regime, seed) and flag sign flips.

    Rows are (regime, seed, delta_no, delta_break, sign_flip).
    """
    by_key = {}
    for cell in cells:
        mean = cell["metrics"].get("tv", {}).get("mean")
        if mean is None:
            continue
        by_key.setdefault((cell["regime"], cell["seed"]), {})[cell["break"]] = mean
    rows = []
    for (regime, seed), pair in sorted(by_key.items()):
        if "no" in pair and "break" in pair:
            flip = int(np.sign(pair["no"]) != np.sign(pair["break"]))
            rows.append((regime, seed, pair["no"], pair["break"], flip))
    return rows, sum(row[-1] for row in rows)


def _missing_inputs(paths: list[Path]) -> bool:
    """Name every path that does not exist on stderr; whether there was one."""
    missing = [path for path in paths if not path.exists()]
    for path in missing:
        print(f"error: missing input: {path}", file=sys.stderr)
    return bool(missing)


def _cell_key(record: dict) -> tuple:
    """The (regime, break, seed) of a summary cell or a diagnostics record."""
    return record["regime"], record["break"], record["seed"]


def cmd_plotdata(run_dir: str) -> int:
    from . import diagnostics as diag
    from .stats import correlations

    run = Path(run_dir)
    summary_path, config_path = run / "summary.json", run / "config.json"
    if _missing_inputs([summary_path, config_path]):
        return 2
    summary = json.loads(summary_path.read_text())
    cells = summary["cells"]
    # a run with diagnostics off writes no diagnostics.jsonl; its diagnostics tables stay header-only
    diagnostics_path = run / "diagnostics.jsonl"
    diagnostics_enabled = json.loads(config_path.read_text())["diagnostics_enabled"]
    alignment_paths = [run / cell_filename(c["regime"], "no", c["seed"]) for c in cells if c["break"] == "no"]
    if _missing_inputs(([diagnostics_path] if diagnostics_enabled else []) + alignment_paths):
        return 2
    out = run / "plots"
    out.mkdir(exist_ok=True)

    # mean TV delta of every cell that has one, in summary order
    mean_by_cell = {
        _cell_key(c): c["metrics"]["tv"]["mean"] for c in cells if c["metrics"]["tv"].get("mean") is not None
    }
    hist_rows = [
        row
        for condition in ("no", "break")
        for row in _histogram_rows([m for key, m in mean_by_cell.items() if key[1] == condition], condition)
    ]
    _write_csv(out / "delta_hist.csv", HIST_HEADER, hist_rows)

    scatter_rows, flips = sign_flip_rows(cells)
    _write_csv(out / "break_scatter.csv", ("regime", "seed", "delta_no", "delta_break", "sign_flip"), scatter_rows)
    flip_fraction = flips / len(scatter_rows) if scatter_rows else float("nan")
    _write_csv(
        out / "break_scatter_summary.csv",
        ("n_points", "n_sign_flips", "flip_fraction"),
        [(len(scatter_rows), flips, flip_fraction)],
    )

    stat_columns = [(kind, bound) for kind in KINDS for bound in ("mean", "ci_low", "ci_high")]
    _write_csv(
        out / "regime_means.csv",
        ("regime", "break", "n", *(f"{kind}_{bound}" for kind, bound in stat_columns)),
        [
            (pool["regime"], pool["break"], pool["n_repeats"],
             *(pool["metrics"].get(kind, {}).get(bound) for kind, bound in stat_columns))
            for pool in summary["pooled"]
        ],
    )

    curve_rows, cka_rows, traj_rows, slope_rows = [], [], [], []
    diag_records = read_jsonl(diagnostics_path)[1] if diagnostics_enabled else []
    for rec in diag_records:
        key = _cell_key(rec)
        curve_rows += [(*key, k, tv) for k, tv in rec.get("noncommute", [])]
        if rec.get("cka_first") is not None:
            cka_rows.append((*key, rec["cka_first"], rec["cka_second"]))
        for label, (x, y) in zip(rec.get("pca_labels", []), rec.get("pca_points", [])):
            traj_rows.append((*key, label, x, y, *rec["pca_explained"]))
        if rec.get("noncommute_slope") is not None and key in mean_by_cell:
            slope_rows.append((*key, rec["noncommute_slope"], mean_by_cell[key]))
    slope_rows.sort()
    _write_csv(out / "noncommute_curves.csv", ("regime", "break", "seed", "k", "tv"), curve_rows)
    _write_csv(out / "cka_table.csv", ("regime", "break", "seed", "cka_first", "cka_second"), cka_rows)
    _write_csv(
        out / "trajectories.csv",
        ("regime", "break", "seed", "label", "x", "y", "explained_1", "explained_2"),
        traj_rows,
    )
    _write_csv(
        out / "delta_vs_slope.csv", ("regime", "break", "seed", "noncommute_slope", "mean_delta_tv"), slope_rows
    )

    align_rows = sorted(
        (c["regime"], c["seed"], c["alignment_mean"], mean_by_cell[_cell_key(c)])
        for c in cells
        if c["break"] == "no" and c.get("alignment_mean") is not None and _cell_key(c) in mean_by_cell
    )
    _write_csv(out / "delta_vs_alignment.csv", ("regime", "seed", "alignment_mean", "mean_delta_tv"), align_rows)

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
    _write_csv(
        out / "correlations.csv",
        ("relation", "n", "pearson_r", "pearson_p", "spearman_rho", "spearman_p"),
        corr_rows,
    )

    cosines = [
        r["momentum_alignment"]
        for path in alignment_paths
        for r in read_jsonl(path)[1]
        if r.get("momentum_alignment") is not None and r.get("error") is None
    ]
    _write_csv(out / "alignment_hist.csv", HIST_HEADER, _histogram_rows(cosines, "no", bins=24))

    regimes_meta = summary["meta"]["regimes"]
    dose_points = [
        diag.ConfigPoint(
            regime=regime,
            seed=seed,
            delta=mean,
            **{knob: regimes_meta[regime][knob] for knob in ("k", "momentum", "overlap", "aug_b")},
        )
        for (regime, flag, seed), mean in mean_by_cell.items()
        if flag == "no"
    ]
    try:
        dose = diag.dose_response(dose_points)
    except ValueError as exc:
        print(f"note: dose-response skipped: {exc}")
    else:
        fit = dose.fit
        _write_csv(
            out / "dose_response_fit.csv",
            ("n", "alpha", "beta", "gamma", "se_alpha", "se_beta", "se_gamma",
             "p_alpha", "p_beta", "p_gamma", "r_squared", "mean_lift",
             "lift_ci_low", "lift_ci_high", "paired_p"),
            [
                (dose.n_points, fit.alpha, fit.beta, fit.gamma, *fit.std_errors, *fit.p_values,
                 fit.r_squared, dose.mean_lift,
                 *((dose.lift_ci.ci_low, dose.lift_ci.ci_high) if dose.lift_ci else ("", "")),
                 dose.paired.p_value if dose.paired else "")
            ],
        )
        _write_csv(out / "dose_response_pairs.csv", ("seed", "lift"), zip(dose.pair_seeds, dose.pair_diffs))

    print(f"plot data written to {out}")
    return 0


def cmd_report(run_dir: str) -> int:
    run = Path(run_dir)
    summary_path = run / "summary.json"
    if _missing_inputs([summary_path]):
        return 2
    summary = json.loads(summary_path.read_text())
    lines = ["# Back-flow sweep report", ""]
    lines.append(f"Run digest: `{summary['meta']['config_digest']}`  ")
    lines.append(f"Base stage: `{summary['meta']['base_stage']}`")
    lines.append("")
    lines.append("| regime | break | n | mean dTV | 95% CI | TOST (1e-3) | p (one-sided) |")
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
    text = "\n".join(lines) + "\n"
    write_atomic(run / "report.md", text)
    print(text, end="")
    return 0


def _non_negative_int(text: str) -> int:
    """argparse type of ``oracle --seed`` and ``--count``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="backflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep from a JSON config")
    p_run.add_argument("config", help="path to the run configuration (JSON)")

    p_oracle = sub.add_parser("oracle", help="randomized no-back-flow verification")
    p_oracle.add_argument("--seed", type=_non_negative_int, default=0)
    p_oracle.add_argument("--count", type=_non_negative_int, default=100)
    p_oracle.add_argument("--demo-witness", action="store_true",
                          help="also exhibit the hand-built memoryful process")

    p_plot = sub.add_parser("plot-data", help="emit plot-ready CSV tables")
    p_plot.add_argument("run_dir", help="directory produced by 'run'")

    p_report = sub.add_parser("report", help="markdown summary of a run")
    p_report.add_argument("run_dir", help="directory produced by 'run'")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "oracle":
        return cmd_oracle(args.seed, args.count, args.demo_witness)
    if args.command == "plot-data":
        return cmd_plotdata(args.run_dir)
    if args.command == "report":
        return cmd_report(args.run_dir)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
