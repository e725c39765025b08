"""Operator surface: run sweeps, verify the process oracle, emit plot data.

Subcommands:

* ``run <config.json>``          execute a sweep, write JSONL + summary.json
* ``oracle --seed S --count N``  randomized no-back-flow verification runs
* ``plot-data <run_dir>``        CSV tables for histograms, scatters, curves
* ``report <run_dir>``           markdown summary table

Only ``run`` imports the sweep (``protocol`` and its ``engine``).  Here
``plot-data`` and ``report`` only check, read and write the run directory:
what they show is built by ``tables``, imported inside the command, and only
``run`` and ``plot-data`` load ``stats`` and ``diagnostics``.  ``oracle``
loads NumPy and the process oracle (``comb``, imported inside the command)
alone, and no command loads SciPy.  Every
file is written through ``artifacts.write_atomic``, so a failed write leaves
the previous file.  ``run`` first fixes glibc's heap thresholds
(``_fix_heap_thresholds``), which the sweep's short-lived temporaries need.
``main`` first freezes the import-time heap (``gc.freeze``, once per
process), so that no later collection, the one at interpreter exit
included, traverses NumPy's import objects again.
"""

import argparse
import csv
import ctypes
import gc
import io
import json
import sys
from pathlib import Path

import numpy as np

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


def cmd_oracle(seed: int, count: int, demo_witness: bool = False) -> int:
    """Randomized verification that the no-back-flow bound holds where proven."""
    from . import comb as comb_mod

    tol = comb_mod.ORACLE_TOL
    rng = np.random.default_rng(seed)
    worst = -np.inf
    worst_residual = 0.0
    for draw, break_flag in ((comb_mod.random_factoring_stacks, False), (comb_mod.random_break_stacks, True)):
        # drawn a chunk at a time inside verify_no_backflow, as it reads them
        reports = comb_mod.verify_no_backflow(draw(rng, count), break_before_second=break_flag)
        failures = [
            (report.index[g], report.omc_residual[g])
            for report in reports
            for g in np.flatnonzero(~report.applicable)
        ]
        if failures:
            # the first process in draw order without its channel
            print("FAIL: single-channel precondition violated "
                  f"(residual {min(failures)[1]:.3e})")
            return 1
        for report in reports:
            worst = max(worst, report.max_delta.max())
            worst_residual = max(worst_residual, report.omc_residual.max())
    if count:
        n_pairs = reports[-1].deltas.shape[1]
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


def _missing_inputs(paths: list[Path]) -> bool:
    """Name every path that does not exist on stderr; whether there was one."""
    missing = [path for path in paths if not path.exists()]
    for path in missing:
        print(f"error: missing input: {path}", file=sys.stderr)
    return bool(missing)


def _read_run(run: Path):
    """The summary and the config of the run in ``run``, or None after naming each missing one."""
    paths = run / "summary.json", run / "config.json"
    if _missing_inputs(list(paths)):
        return None
    return tuple(json.loads(path.read_text()) for path in paths)


def cmd_plotdata(run_dir: str) -> int:
    from .tables import plot_tables

    run = Path(run_dir)
    if (inputs := _read_run(run)) is None:
        return 2
    summary, config = inputs
    # a run with diagnostics off writes no diagnostics.jsonl; its diagnostics tables stay header-only
    diagnostics = [run / "diagnostics.jsonl"] if config["diagnostics_enabled"] else []
    no_break = [run / cell_filename(c["regime"], "no", c["seed"]) for c in summary["cells"] if c["break"] == "no"]
    if _missing_inputs(diagnostics + no_break):
        return 2
    tables, note = plot_tables(
        summary,
        [record for path in diagnostics for record in read_jsonl(path)[1]],
        [record for path in no_break for record in read_jsonl(path)[1]],
    )
    if note is not None:
        print(f"note: {note}")
    out = run / "plots"
    out.mkdir(exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    print(f"plot data written to {out}")
    return 0


def cmd_report(run_dir: str) -> int:
    from .tables import report_text

    run = Path(run_dir)
    if (inputs := _read_run(run)) is None:
        return 2
    summary, config = inputs
    text = report_text(summary, config["stats"]["tost_epsilon"])
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
    if not gc.get_freeze_count():  # once per process: later calls would freeze their callers' garbage
        gc.freeze()
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
