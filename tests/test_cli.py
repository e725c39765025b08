import csv
import ctypes
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import backflow
from backflow import comb as comb_mod
from backflow.artifacts import cell_filename, read_jsonl
from backflow.cli import main
from backflow.tables import plot_tables, report_text, sign_flip_rows


def write_config(tmp_path, **overrides):
    mapping = {
        "output_dir": str(tmp_path / "run"),
        "dataset": {"kind": "synthetic", "input_dim": 12, "num_classes": 4,
                    "per_class": 120, "spread": 3.0, "seed": 0},
        "model": {"kind": "softmax_linear", "input_dim": 12, "num_classes": 4},
        "regimes": ["standard"],
        "break_flags": ["no", "break"],
        "seeds": [0],
        "repeats": 5,
        "batch_size": 24,
        "probe_size": 96,
        "early_stop": {"enabled": False},
        "diagnostics": {"noncommute_k_max": 2, "probe_subset": 64},
    }
    mapping.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    return path, mapping


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_run_negative_preset_smoke(tmp_path, capsys):
    path, mapping = write_config(
        tmp_path,
        regimes=["negative"],
        break_flags=["no"],
        repeats=64,
        diagnostics={"enabled": False},
    )
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "negative" in out
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    cell = summary["cells"][0]
    assert set(cell["metrics"]) == {"tv", "js", "hellinger"}
    for kind in cell["metrics"]:
        assert cell["metrics"][kind]["mean"] == 0.0


def test_run_rerun_identical_modulo_timestamp(tmp_path):
    path, mapping = write_config(tmp_path, repeats=4)
    assert main(["run", str(path)]) == 0
    first = json.loads((tmp_path / "run" / "summary.json").read_text())
    first_lines = (tmp_path / "run" / "standard__no__seed0.jsonl").read_text().splitlines()

    assert main(["run", str(path)]) == 0
    second = json.loads((tmp_path / "run" / "summary.json").read_text())
    second_lines = (tmp_path / "run" / "standard__no__seed0.jsonl").read_text().splitlines()

    first["meta"].pop("created_at")
    second["meta"].pop("created_at")
    assert first == second
    assert first_lines[1:] == second_lines[1:]  # only the header line may differ
    assert json.loads(first_lines[0]).keys() == json.loads(second_lines[0]).keys()


def test_run_unknown_preset_fails_naming_field(tmp_path, capsys):
    path, _ = write_config(tmp_path, regimes=["fancy"])
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "regimes" in err and "fancy" in err


def test_run_non_mapping_section_fails_naming_section(tmp_path, capsys):
    for section in ("dataset", "model", "optimizer", "early_stop", "stats", "diagnostics"):
        path, _ = write_config(tmp_path, **{section: None})
        assert main(["run", str(path)]) == 2
        assert f"error: {section}: must be a mapping" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def test_run_non_list_field_fails_naming_field(tmp_path, capsys):
    for field, value in (("regimes", None), ("break_flags", "no"), ("seeds", 3), ("seeds", None)):
        path, _ = write_config(tmp_path, **{field: value})
        assert main(["run", str(path)]) == 2
        assert f"error: {field}: must be a list, got {type(value).__name__}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def test_run_non_positive_integer_fails_naming_field(tmp_path, capsys):
    for overrides, field in (
        ({"batch_size": 0}, "batch_size"),
        ({"stats": {"bootstrap_samples": 0}}, "stats.bootstrap_samples"),
        ({"early_stop": {"enabled": True, "floor": 2, "stride": 0}}, "early_stop.stride"),
        ({"early_stop": {"enabled": True, "floor": 2, "stride": -1}}, "early_stop.stride"),
    ):
        path, _ = write_config(tmp_path, **overrides)
        assert main(["run", str(path)]) == 2
        assert f"error: {field}: must be positive, got " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def test_run_invalid_diagnostics_bounds_fail_naming_field(tmp_path, capsys):
    for overrides, message in (
        ({"probe_subset": 1}, "diagnostics.probe_subset: must be at least 2, got 1"),
        ({"noncommute_k_max": -1}, "diagnostics.noncommute_k_max: must be non-negative, got -1"),
    ):
        path, _ = write_config(tmp_path, diagnostics={"noncommute_k_max": 2, "probe_subset": 64, **overrides})
        assert main(["run", str(path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def custom_regime(**overrides):
    """A regime mapping with the fields of the standard preset."""
    return {"name": "custom", "k": 3, "lr": 0.02, "momentum": 0.9, "aug_a": "weak", "aug_aprime": "color",
            "aug_b": "weak", "overlap": 0.5, "same_classes": True, **overrides}


def test_run_out_of_bound_values_fail_before_the_run_dir(tmp_path, capsys):
    # each used to run, or to fail only after config.json or cell files were written; a regime
    # named "../escaped" wrote its cell files outside the run directory
    path_separator = "regimes: invalid regime mapping: regime {!r}: name must not contain a path separator"
    for overrides, message in (
        ({"seeds": [0, 0]}, "seeds: duplicate seeds [0, 0]"),
        ({"stats": {"tost_epsilon": 0}}, "stats.tost_epsilon: must be positive, got 0.0"),
        ({"stats": {"tost_epsilon": -1e-3}}, "stats.tost_epsilon: must be positive, got -0.001"),
        ({"stats": {"bh_q": 1.5}}, "stats.bh_q: must be in [0, 1], got 1.5"),
        ({"stats": {"bh_q": -0.1}}, "stats.bh_q: must be in [0, 1], got -0.1"),
        ({"optimizer": {"weight_decay": -1e-4}}, "optimizer.weight_decay: must be non-negative, got -0.0001"),
        ({"optimizer": {"clip_norm": 0}}, "optimizer.clip_norm: must be positive, got 0.0"),
        ({"base_stage": "early", "pretrain_passes": -1}, "pretrain_passes: must be non-negative, got -1"),
        ({"early_stop": {"floor": -4}}, "early_stop.floor: must be non-negative, got -4"),
        ({"early_stop": {"half_width": float("nan")}}, "early_stop.half_width: must be non-negative, got nan"),
        ({"probe_size": 1}, "probe_size: must be at least 2 with diagnostics enabled, got 1"),
        ({"batch_size": 300}, "batch_size: regime 'standard': dataset has 384 train examples, "
                              "need 450 for batch_size=300, overlap=0.5"),
        ({"regimes": [custom_regime(name="../escaped")]}, path_separator.format("../escaped")),
        ({"regimes": [custom_regime(name="sub/dir")]}, path_separator.format("sub/dir")),
        # these two failed only after config.json: "embedded null byte" and "File name too long"
        ({"regimes": [custom_regime(name="a\0b")]},
         "regimes: invalid regime mapping: regime 'a\\x00b': name must not contain a NUL byte"),
        ({"regimes": [custom_regime(name="x" * 300)]},  # its first cell file's temporary name has 322 bytes
         f"regimes: regime {'x' * 300!r}: name too long for a cell file (322 bytes, max 255)"),
        # both ran, the first with engine blocks sized for a hidden layer the model does not have
        ({"model": {"kind": "softmax_linear", "input_dim": 12, "num_classes": 4, "hidden_dim": 64}},
         "model: softmax_linear takes no hidden_dim, got 64"),
        ({"model": {"kind": "softmax_linear", "input_dim": 12, "num_classes": 4, "activation": "sigmoid"}},
         "model: unknown activation 'sigmoid'"),
        # these exited 1 with a TypeError traceback after creating the run directory
        *(({"model": {"kind": "mlp1", "input_dim": 12, "num_classes": 4, "hidden_dim": value}},
           f"model: hidden_dim must be an integer, got {value!r}") for value in (8.5, 32.0, True)),
        ({"model": {"kind": "softmax_linear", "input_dim": 12.0, "num_classes": 4}},
         "model: input_dim must be an integer, got 12.0"),
        ({"model": {"kind": "softmax_linear", "input_dim": 12, "num_classes": 4.0}},
         "model: num_classes must be an integer, got 4.0"),
        # json.loads reads Infinity and 1e309 (which json.dumps writes as Infinity) as inf, which
        # every bound passed: the first two ran the whole sweep, then failed writing the summary; an
        # infinite clip_norm made every repeat fail the NaN guard
        ({"stats": {"tost_epsilon": 1e309}}, "stats.tost_epsilon: must be a finite number, got inf"),
        ({"regimes": [custom_regime(lr=1e309)]}, "regimes.lr: must be a finite number, got inf"),
        ({"optimizer": {"clip_norm": float("inf")}}, "optimizer.clip_norm: must be a finite number, got inf"),
        # an integer beyond the float range escaped as an OverflowError traceback
        ({"stats": {"bh_q": 10**400}}, f"stats.bh_q: must be a finite number, got {10**400}"),
    ):
        path, _ = write_config(tmp_path, **overrides)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # the input alone


def test_run_dataset_error_leaves_no_run_dir(tmp_path, capsys):
    misspelled = {"kind": "synthetic", "input_dim": 12, "num_classes": 4, "per_klass": 120}
    missing_path = {"kind": "file", "format": "csv_labeled"}
    # json.loads reads NaN and Infinity; these used to run every repeat into the NaN guard
    non_finite = [{"kind": "synthetic", "input_dim": 12, "num_classes": 4, "per_class": 120, "spread": spread}
                  for spread in (float("nan"), float("inf"))]
    for dataset in (misspelled, missing_path, *non_finite):
        path, _ = write_config(tmp_path, dataset=dataset)
        assert main(["run", str(path)]) == 2
        assert "error: dataset:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
    # a mistyped size is named, not left to NumPy
    sizes = {"kind": "synthetic", "input_dim": 12, "num_classes": 4, "per_class": 120}
    for name, value in (("per_class", 120.0), ("input_dim", 12.0), ("num_classes", 4.0), ("per_class", True)):
        path, _ = write_config(tmp_path, dataset={**sizes, name: value})
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: dataset: {name} must be an integer, got {value!r}\n"
        assert not (tmp_path / "run").exists()


def test_run_bad_dataset_file_leaves_no_run_dir(tmp_path, capsys):
    # a non-finite CSV feature and a truncated IDX header are input errors, not NaN-guard failures
    table = tmp_path / "table.csv"
    table.write_text("label,f0\n0,1.0\n1,nan\n")
    images = tmp_path / "short-images-idx3-ubyte"
    images.write_bytes(struct.pack(">II", 0x00000803, 1))
    (tmp_path / "short-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
    cases = (
        ({"kind": "file", "path": str(table), "format": "csv_labeled"}, "table.csv: row 3"),
        ({"kind": "file", "path": str(images), "format": "idx_pair"}, "short-images-idx3-ubyte: truncated"),
    )
    for dataset, message in cases:
        path, _ = write_config(tmp_path, dataset=dataset)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "run").exists()


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_oracle_smoke(capsys):
    assert main(["oracle", "--seed", "1", "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert "worst back-flow delta" in out


def test_oracle_zero_count(capsys):
    assert main(["oracle", "--seed", "1", "--count", "0"]) == 0
    assert "0 processes" in capsys.readouterr().out


def test_oracle_negative_count_is_a_usage_error(capsys):
    for flag in ("--count", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", flag, "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"{flag}: must be >= 0" in err


def loaded_after(statements, modules):
    """Those of ``modules`` that a fresh interpreter has loaded after running ``statements``.

    A fresh interpreter, since the test process has already imported every module.
    """
    src = str(Path(backflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys\n{statements}\nprint([m for m in {modules!r} if m in sys.modules])\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_oracle_loads_no_sweep_modules(tmp_path):
    # report reads the run directory through backflow.artifacts alone
    path, _ = write_config(tmp_path, diagnostics={"enabled": False})
    assert main(["run", str(path)]) == 0
    sweep_modules = ("scipy", "backflow.protocol", "backflow.engine", "backflow.stats", "backflow.diagnostics",
                     "backflow.model", "backflow.instruments")
    for argv in (["oracle", "--count", "2"], ["report", str(tmp_path / "run")]):
        assert loaded_after(f"from backflow import cli\nassert cli.main({argv!r}) == 0", sweep_modules) == "[]", argv


def test_plot_data_loads_no_sweep_module_and_only_its_readers_load_tables(tmp_path):
    path, _ = write_config(tmp_path, repeats=3)
    run_dir = str(tmp_path / "run")
    sweep_modules = ("scipy", "backflow.protocol", "backflow.engine", "backflow.model", "backflow.instruments")
    for argv, modules, loaded in (
        (["run", str(path)], ("backflow.tables",), "[]"),
        (["oracle", "--count", "2"], ("backflow.tables",), "[]"),
        (["plot-data", run_dir], sweep_modules + ("backflow.tables",), "['backflow.tables']"),
        (["report", run_dir], ("backflow.stats", "backflow.diagnostics", "backflow.tables"), "['backflow.tables']"),
    ):
        assert loaded_after(f"from backflow import cli\nassert cli.main({argv!r}) == 0", modules) == loaded, argv


def test_engine_loads_no_config_sweep_or_file_format_module():
    # the engine knows no config key, early-stop policy or run-directory format
    run_modules = ("backflow.protocol", "backflow.summary", "backflow.artifacts", "backflow.cli")
    assert loaded_after("import backflow.engine", run_modules + ("backflow.engine",)) == "['backflow.engine']"


def test_oracle_demo_witness(capsys):
    assert main(["oracle", "--seed", "2", "--count", "2", "--demo-witness"]) == 0
    out = capsys.readouterr().out
    assert "memoryful demo" in out
    assert "before break" in out


PLOT_TABLES = (
    "delta_hist.csv", "break_scatter.csv", "break_scatter_summary.csv", "regime_means.csv",
    "noncommute_curves.csv", "cka_table.csv", "trajectories.csv", "delta_vs_slope.csv",
    "delta_vs_alignment.csv", "correlations.csv", "alignment_hist.csv", "dose_response_fit.csv",
    "dose_response_pairs.csv",
)


def test_plot_data_outputs(tmp_path):
    path, mapping = write_config(tmp_path, regimes=["standard", "negative"], seeds=[0, 1])
    assert main(["run", str(path)]) == 0
    run_dir = tmp_path / "run"
    assert main(["plot-data", str(run_dir)]) == 0
    plots = run_dir / "plots"
    for name in PLOT_TABLES:
        assert (plots / name).exists(), name

    scatter = read_csv(plots / "break_scatter.csv")
    assert len(scatter) == 4  # (regime, seed) cells present in both conditions
    summary_rows = read_csv(plots / "break_scatter_summary.csv")
    assert int(summary_rows[0]["n_points"]) == 4
    assert int(summary_rows[0]["n_sign_flips"]) == sum(int(r["sign_flip"]) for r in scatter)

    means = read_csv(plots / "regime_means.csv")
    assert len(means) == 4  # (regime, condition) pooled rows
    curves = read_csv(plots / "noncommute_curves.csv")
    assert len(curves) == 2 * 2 * 2 * 2  # regimes x conditions x seeds x k values


def test_plot_data_single_cell_run(tmp_path):
    path, _ = write_config(tmp_path, regimes=["standard"], break_flags=["no"], seeds=[0])
    assert main(["run", str(path)]) == 0
    assert main(["plot-data", str(tmp_path / "run")]) == 0
    means = read_csv(tmp_path / "run" / "plots" / "regime_means.csv")
    assert len(means) == 1


def test_plot_data_missing_inputs_named(tmp_path, capsys):
    missing = tmp_path / "empty"
    missing.mkdir()
    assert main(["plot-data", str(missing)]) == 2
    assert "summary.json" in capsys.readouterr().err

    # diagnostics were on but their file is gone: nothing is written
    path, _ = write_config(tmp_path, repeats=2)
    assert main(["run", str(path)]) == 0
    (tmp_path / "run" / "diagnostics.jsonl").unlink()
    capsys.readouterr()
    assert main(["plot-data", str(tmp_path / "run")]) == 2
    assert "diagnostics.jsonl" in capsys.readouterr().err
    assert not (tmp_path / "run" / "plots").exists()


def test_plot_data_diagnostics_off(tmp_path):
    path, _ = write_config(tmp_path, repeats=3, diagnostics={"enabled": False})
    assert main(["run", str(path)]) == 0
    run_dir = tmp_path / "run"
    assert not (run_dir / "diagnostics.jsonl").exists()
    assert main(["plot-data", str(run_dir)]) == 0
    plots = run_dir / "plots"
    assert sorted(p.name for p in plots.iterdir()) == sorted(PLOT_TABLES)
    # one regime has no dose-response fit either: its tables are header-only too
    for name in ("noncommute_curves.csv", "cka_table.csv", "trajectories.csv", "delta_vs_slope.csv",
                 "dose_response_fit.csv", "dose_response_pairs.csv"):
        assert read_csv(plots / name) == [] and (plots / name).read_text().count("\n") == 1, name
    assert len(read_csv(plots / "break_scatter.csv")) == 1
    assert sum(int(r["count"]) for r in read_csv(plots / "alignment_hist.csv")) == 3


# three weak-second-step regimes over three seeds: enough no-break cells for
# both correlations and the dose-response fit with its paired lift
PINNED_PLOT_SWEEP = dict(regimes=["standard", "resonant_strong", "resonant_mid"], seeds=[0, 1, 2], repeats=4)
# sha256 of every plots/*.csv of that sweep, computed with the DictWriter
# tables and, for the p-values, the math-only t tails; the same at one and two
# BLAS threads
PINNED_PLOT_SHA256 = {
    "alignment_hist.csv": "a0e44b167cd0397812d37daf637b962559ef99227d4da2a2cef17a2638c7b23b",
    "break_scatter.csv": "95b0b8ae4417a2f595579871b98bb3320a468ac7824d70440abb21dd5a88a690",
    "break_scatter_summary.csv": "fac1d36b3c6b79099e5e3d40947d9412ff52dcc95881fbab58164cc93ea1efad",
    "cka_table.csv": "0f5b9cb8da977c337ea3d871ab90d1fa2de6000660a25700c7b60faadb052b6e",
    "correlations.csv": "b94103a5f91b9a81cc4e54d46a575da0c406c11efb1e6e2f5c14c314d84dc856",
    "delta_hist.csv": "b92ad56ff9127363b24cfc93b369db816ed2bb8b5b184435426eb2752e2433b6",
    "delta_vs_alignment.csv": "472dcfcdbed272fa7cba57e7817ce397fe57c6c65b196c4149c48184fc584236",
    "delta_vs_slope.csv": "f221f93ffe064bdcbe789560eab33b7fa8744d3f20cf0141c473306983848566",
    "dose_response_fit.csv": "3b2f080c3b33bbe31bbdf5f7cb2ce0b4b17848ef97f4123e07878a1d4514c490",
    "dose_response_pairs.csv": "4f36fa4327972b09a0b4bb4fec7db35f6df2b8369e4dd482a541fc853288a841",
    "noncommute_curves.csv": "767512c9cca7c78754edf97b854d3caab5e5be7c2ab1e9b02784e801c27953ae",
    "regime_means.csv": "ca4cb070e6e969e97f3d0a765e228be1dff83e4b4ae5dd0eaf0df4eecad2738f",
    "trajectories.csv": "9ab6603d0cb4437f996963158e07d992e63fd110aa9f6bccecfa32a8a08e2613",
}


def test_plot_data_tables_are_pinned_byte_for_byte(tmp_path, capsys):
    from hashlib import sha256

    path, _ = write_config(tmp_path, **PINNED_PLOT_SWEEP)
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    plots = tmp_path / "run" / "plots"
    assert main(["plot-data", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out == f"plot data written to {plots}\n"
    assert len(read_csv(plots / "correlations.csv")) == 2
    digests = {p.name: sha256(p.read_bytes()).hexdigest() for p in plots.iterdir()}
    assert digests == PINNED_PLOT_SHA256


def test_plot_tables_are_the_written_csv_files(tmp_path, capsys):
    path, _ = write_config(tmp_path, **PINNED_PLOT_SWEEP)
    assert main(["run", str(path)]) == 0
    run_dir = tmp_path / "run"
    assert main(["plot-data", str(run_dir)]) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    no_break = [r for c in summary["cells"] if c["break"] == "no"
                for r in read_jsonl(run_dir / cell_filename(c["regime"], "no", c["seed"]))[1]]
    tables, note = plot_tables(summary, read_jsonl(run_dir / "diagnostics.jsonl")[1], no_break)
    assert note is None

    def csv_bytes(header, rows):
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return text.getvalue().encode()

    written = {p.name: p.read_bytes() for p in (run_dir / "plots").iterdir()}
    assert {name: csv_bytes(*table) for name, table in tables.items()} == written
    assert sorted(written) == sorted(PLOT_TABLES)


def test_plot_data_rewrites_the_dose_tables_of_an_earlier_run(tmp_path, capsys):
    # a rerun into the same directory whose dose-response fit is skipped used to leave the earlier fit
    path, _ = write_config(tmp_path, **PINNED_PLOT_SWEEP, break_flags=["no"], diagnostics={"enabled": False})
    assert main(["run", str(path)]) == 0
    plots = tmp_path / "run" / "plots"
    assert main(["plot-data", str(tmp_path / "run")]) == 0
    assert int(read_csv(plots / "dose_response_fit.csv")[0]["n"]) == 9
    assert len(read_csv(plots / "dose_response_pairs.csv")) == 3

    path, _ = write_config(tmp_path, regimes=["negative"], break_flags=["no"], seeds=[0, 1, 2], repeats=4,
                           diagnostics={"enabled": False})
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    assert main(["plot-data", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out.startswith("note: dose-response skipped: ")
    for name in ("dose_response_fit.csv", "dose_response_pairs.csv"):
        assert read_csv(plots / name) == [] and (plots / name).read_text().count("\n") == 1, name


def test_sign_flip_count_on_fixture():
    def cell(regime, seed, flag, mean):
        return {"regime": regime, "seed": seed, "break": flag,
                "metrics": {"tv": {"mean": mean}}}

    cells = [
        cell("a", 0, "no", +0.02), cell("a", 0, "break", -0.01),   # flip
        cell("a", 1, "no", +0.01), cell("a", 1, "break", +0.005),  # no flip
        cell("b", 0, "no", -0.02), cell("b", 0, "break", -0.01),   # no flip
        cell("b", 1, "no", +0.03), cell("b", 1, "break", -0.02),   # flip
        cell("c", 0, "no", -0.01), cell("c", 0, "break", +0.02),   # flip
        cell("c", 1, "no", +0.02), cell("c", 1, "break", +0.01),   # no flip
    ]
    rows, flips = sign_flip_rows(cells)
    assert len(rows) == 6
    assert flips == 3


def test_run_persistent_nan_guard_exits_nonzero(tmp_path, capsys, monkeypatch):
    import backflow.engine as engine
    from backflow.errors import NanGuardError

    def always_fail(params, velocity, grad, config):
        raise NanGuardError("injected failure")

    monkeypatch.setattr(engine, "step", always_fail)
    path, _ = write_config(tmp_path, break_flags=["no"], repeats=3,
                           diagnostics={"enabled": False})
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert "NaN guard" in captured.err
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["n_persistent_errors"] == 3


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_run_keeps_freed_temporaries_from_faulting_in_again():
    # a fresh interpreter, whose heap thresholds only cmd_run has set: here it
    # sets them and stops at the missing config.  With glibc's default dynamic
    # thresholds the loop faults each of its 256 KiB temporaries in anew
    # (19,200 minor faults); with the fixed ones it reuses the same pages.
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from backflow import cli\n"
        "assert cli.main(['run', 'no-such-config.json']) == 2\n"
        "rng = np.random.default_rng(0)\n"
        "a, b = rng.random((16, 64, 32)), rng.random((16, 64, 32))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(200):\n"
        "    b * (1.0 - a * a)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(backflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 200


def test_run_works_where_the_c_library_has_no_mallopt(tmp_path, capsys, monkeypatch):
    loaded = []

    def libc_without_mallopt(name):
        loaded.append(name)
        return types.SimpleNamespace()

    monkeypatch.setattr(ctypes, "CDLL", libc_without_mallopt)
    path, _ = write_config(tmp_path, repeats=3, diagnostics={"enabled": False})
    assert main(["run", str(path)]) == 0
    assert loaded == [None]
    assert (tmp_path / "run" / "summary.json").exists()


def test_unknown_config_keys_warn_and_are_ignored(tmp_path, capsys):
    from backflow.protocol import config_from_mapping, run_sweep

    _, mapping = write_config(tmp_path)
    plain = run_sweep(config_from_mapping(mapping), created_at="pinned")
    assert capsys.readouterr().err == ""
    # "workers" is a retired key; "repeat" is a typo of "repeats" and must not change the repeat count;
    # a typo inside a section is named with its section and leaves the section's defaults
    extra = config_from_mapping({
        **mapping, "output_dir": str(tmp_path / "extra"), "workers": 2, "repeat": 64,
        "early_stop": {"enabled": False, "half_widht": 1.0},
        "optimizer": {"clip": None}, "stats": {"bh": 0.5},
        "diagnostics": {**mapping["diagnostics"], "probe_sub": 8},
    })
    (warning,) = capsys.readouterr().err.splitlines()
    assert warning == (
        "warning: ignoring unknown config keys: diagnostics.probe_sub, early_stop.half_widht, "
        "optimizer.clip, repeat, stats.bh, workers"
    )
    result = run_sweep(extra, created_at="pinned")

    def artifacts(run_dir):
        return {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "config.json"}

    assert artifacts(result.run_dir) == artifacts(plain.run_dir)
    assert [cell["n_repeats"] for cell in result.summary["cells"]] == [5, 5]


def test_report_writes_markdown(tmp_path, capsys):
    path, _ = write_config(tmp_path, regimes=["negative"], break_flags=["no"], repeats=4,
                           diagnostics={"enabled": False})
    assert main(["run", str(path)]) == 0
    assert main(["report", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "| negative | no |" in out
    assert (tmp_path / "run" / "report.md").exists()


def test_failed_plot_data_and_report_writes_keep_the_earlier_files(tmp_path, capsys, monkeypatch):
    path, _ = write_config(tmp_path, regimes=["negative"], repeats=4)
    assert main(["run", str(path)]) == 0
    run_dir = tmp_path / "run"
    assert main(["plot-data", str(run_dir)]) == 0
    assert main(["report", str(run_dir)]) == 0
    written = [*sorted((run_dir / "plots").iterdir()), run_dir / "report.md"]
    before = {p: p.read_bytes() for p in written}

    def write_half_then_fail(self, data, *args, **kwargs):
        with open(self, "w") as f:
            f.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    for command in ("plot-data", "report"):
        with pytest.raises(OSError, match="disk full"):
            main([command, str(run_dir)])
    assert {p: p.read_bytes() for p in written} == before
    assert not list(run_dir.rglob("*.tmp"))


def test_report_header_names_the_run_tost_margin(tmp_path, capsys):
    # the header used to print the default margin whatever margin the verdicts used
    for stats, margin in (({}, "1e-3"), ({"tost_epsilon": 5e-3}, "5e-3"), ({"tost_epsilon": 0.0125}, "1.25e-2")):
        path, _ = write_config(tmp_path, regimes=["negative"], break_flags=["no"], repeats=4, stats=stats,
                               diagnostics={"enabled": False})
        assert main(["run", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "run")]) == 0
        header = f"| regime | break | n | mean dTV | 95% CI | TOST ({margin}) | p (one-sided) |"
        assert header in capsys.readouterr().out.splitlines()


def test_report_names_each_missing_input(tmp_path, capsys):
    path, _ = write_config(tmp_path, regimes=["negative"], break_flags=["no"], repeats=2,
                           diagnostics={"enabled": False})
    assert main(["run", str(path)]) == 0
    run_dir = tmp_path / "run"
    (run_dir / "config.json").unlink()
    capsys.readouterr()
    assert main(["report", str(run_dir)]) == 2
    assert capsys.readouterr().err == f"error: missing input: {run_dir / 'config.json'}\n"
    (run_dir / "summary.json").unlink()
    assert main(["report", str(run_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: missing input: {run_dir / name}" for name in ("summary.json", "config.json")
    ]
    assert not (run_dir / "report.md").exists()


def test_report_text_of_a_mean_only_pooled_row():
    def pooled(regime, tv):
        return {"regime": regime, "break": "no", "n_repeats": tv["n"], "metrics": {"tv": tv}}

    summary = {
        "meta": {"config_digest": "0123456789abcdef", "base_stage": "init"},
        "cells": [],
        "pooled": [
            pooled("single", {"n": 1, "mean": 0.25}),
            pooled("empty", {"n": 0, "mean": None}),
            pooled("full", {"n": 3, "mean": -0.5, "ci_low": -0.75, "ci_high": -0.25, "p_one_sided": 0.98765,
                            "tost_verdict": "not_equivalent"}),
        ],
    }
    assert report_text(summary, 2e-4) == (
        "# Back-flow sweep report\n\n"
        "Run digest: `0123456789abcdef`  \n"
        "Base stage: `init`\n\n"
        "| regime | break | n | mean dTV | 95% CI | TOST (2e-4) | p (one-sided) |\n"
        "|---|---|---|---|---|---|---|\n"
        "| single | no | 1 | +0.250000 | - | - | - |\n"
        "| full | no | 3 | -0.500000 | [-0.750000, -0.250000] | not_equivalent | 0.988 |\n"
        "\n"
        "Sign flips between conditions (per regime x seed): 0\n"
    )


def test_report_without_ci_prints_dashes(tmp_path, capsys):
    # one repeat of one seed: the pooled entry has a mean but no CI, TOST or p
    path, _ = write_config(tmp_path, regimes=["negative"], break_flags=["no"], repeats=1,
                           diagnostics={"enabled": False})
    assert main(["run", str(path)]) == 0
    pooled = json.loads((tmp_path / "run" / "summary.json").read_text())["pooled"]
    assert [sorted(pool["metrics"]["tv"]) for pool in pooled] == [["mean", "n"]]
    assert main(["report", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "| negative | no | 1 | +0.000000 | - | - | - |" in out


def test_oracle_fails_at_the_first_process_without_a_channel(monkeypatch, capsys):
    made = []
    maker = comb_mod.random_factoring_comb

    def wrong_at_3_and_7(rng):
        comb, b_label, lambda_b = maker(rng)
        if len(made) in (3, 7):
            n_o = comb.obs_space.size
            lambda_b = comb_mod.Kernel(np.roll(np.eye(n_o), 1, axis=0), comb.obs_space, comb.obs_space)
        made.append((comb, comb_mod.instrument_pairs(comb), b_label, lambda_b))
        return comb, b_label, lambda_b

    monkeypatch.setattr(comb_mod, "random_factoring_comb", wrong_at_3_and_7)
    assert main(["oracle", "--seed", "0", "--count", "10"]) == 1
    reports = comb_mod.verify_no_backflow(made)
    assert [i for i, report in enumerate(reports) if not report.applicable] == [3, 7]
    residual_3, residual_7 = (f"{reports[i].omc_residual:.3e}" for i in (3, 7))
    assert residual_3 != residual_7
    assert capsys.readouterr().out == f"FAIL: single-channel precondition violated (residual {residual_3})\n"


def test_oracle_stdout_matches_the_recorded_seed0_digest(capsys):
    baseline = Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json"
    recorded = json.loads(baseline.read_text())["digests_seed0"]["oracle"]
    assert main(["oracle", "--seed", "0", "--count", "400", "--demo-witness"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == recorded
