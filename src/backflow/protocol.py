"""The sweep around the two-step engine: config reading, early stop, and the run.

``engine`` runs the A/A'->B micro-experiment on arrays; this module reads
a config into a ``RunConfig`` (whose fields extend the engine's
``ProtocolSettings``) and runs it.  The sweep, which runs serially, loops
over (regime, seed) and collects the cells of all break flags in
lockstep: each block runs for the flags whose cells are still open and
never crosses an early-stop checkpoint, where each flag stops on its own
records and writes its cell file.  The diagnostics of a (regime, seed) are
one engine repeat and one curve for all flags; ``summary.summarize`` reads
the cells' records alone.
"""

import json
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from hashlib import sha256
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import diagnostics as diag
from .artifacts import cell_filename, temp_path, write_atomic, write_jsonl
from .data import Dataset, load_table, make_synthetic, split_probe
from .engine import (
    BackflowRecord,
    ProtocolSettings,
    Regime,
    guard_rule,
    guarded_block,
    pretrain,
    repeats_per_block,
    run_noncommute_curve,
)
from .errors import ConfigError
from .instruments import shared_rows
from .model import ModelSpec, forward, init_params, penultimate_features
from .seeding import derive_seed
from .stats import normal_ci_half_width
from .summary import StatsPolicy, summarize


REGIME_PRESETS = {
    "standard": Regime("standard", 3, 0.02, 0.90, "weak", "color", "weak", 0.5, True),
    "resonant_strong": Regime("resonant_strong", 6, 0.03, 0.99, "color", "blur", "weak", 1.0, True),
    "resonant_mid": Regime("resonant_mid", 6, 0.03, 0.95, "color", "blur", "weak", 0.75, True),
    "orthogonal": Regime("orthogonal", 6, 0.03, 0.99, "color", "blur", "blur", 0.0, False),
    "negative": Regime("negative", 1, 0.005, 0.00, "none", "none", "none", 0.0, False),
}


def run_micro_experiment(
    base_params: np.ndarray,
    spec: ModelSpec,
    regime: Regime,
    break_applied: bool,
    dataset: Dataset,
    probe: np.ndarray,
    seed: int,
    settings: ProtocolSettings = ProtocolSettings(),
    repeat_id: int = 0,
) -> BackflowRecord:
    """One repeat of the two-step experiment; see the ``engine`` module docstring.

    Retries once at half the learning rate if any loss, gradient, or update
    stops being finite; a second failure yields an error record.
    """
    flag = "break" if break_applied else "no"
    (run,) = guarded_block(
        base_params, spec, regime, (flag,), dataset, dataset.features[probe], settings, [(seed, repeat_id)]
    )
    return run[flag].record


# ---------------------------------------------------------------------------
# Repeat collection with the early-stop discipline.


@dataclass(frozen=True)
class EarlyStopPolicy:
    """Stop a cell once the mean TV delta is pinned down tightly enough.

    After at least ``floor`` repeats, every ``stride`` repeats the
    normal-approximation 95% CI half-width of the mean TV delta is compared
    against ``half_width``.
    """

    enabled: bool = True
    floor: int = 64
    stride: int = 32
    half_width: float = 2e-4


def collect_with_early_stop(
    sample_fn,
    max_repeats: int,
    policy: EarlyStopPolicy = EarlyStopPolicy(),
    *,
    block_size,
    flags,
    on_finish=None,
) -> tuple[list[BackflowRecord], bool]:
    """Collect records for up to ``max_repeats`` repeats of every flag in lockstep.

    ``sample_fn(open_flags, repeat_ids)`` runs a range of repeat ids for the
    flags whose cells are still open and returns ``{flag: records}``; a
    range holds at most ``block_size(len(open_flags))`` ids; and
    ``on_finish(flag, records)`` is called as each flag finishes.

    No range crosses a checkpoint, so a flag that stops computes no repeat
    past it.  At a checkpoint each open flag decides from its own records
    alone; errored repeats are kept in the list (for the logs) but excluded
    from the half-width check.  Returns the records of every flag, in the
    order the flags finished, and whether the early-stop rule fired.
    """
    checkpoints = list(range(policy.floor, max_repeats, policy.stride)) if policy.enabled else []
    records = {flag: [] for flag in flags}
    finished, fired = [], False
    open_flags = tuple(flags)
    done = 0
    for boundary in checkpoints + [max_repeats]:
        size = block_size(len(open_flags))
        for start in range(done, boundary, size):
            for flag, block in sample_fn(open_flags, range(start, min(start + size, boundary))).items():
                records[flag].extend(block)
        done, at_checkpoint, still_open = boundary, boundary in checkpoints, []
        for flag in open_flags:
            valid = [r.delta["tv"] for r in records[flag] if r.ok]
            if at_checkpoint and not (len(valid) >= 2 and normal_ci_half_width(valid) <= policy.half_width):
                still_open.append(flag)
                continue
            finished.extend(records[flag])
            fired |= at_checkpoint
            if on_finish is not None:
                on_finish(flag, records[flag])
        open_flags = tuple(still_open)
        if not open_flags:
            break
    return finished, fired


# ---------------------------------------------------------------------------
# Run configuration.


@dataclass(frozen=True, kw_only=True)
class RunConfig(ProtocolSettings):
    dataset: dict
    model: dict
    regimes: tuple[Regime, ...]
    output_dir: str
    base_stage: str = "init"
    break_flags: tuple[str, ...] = ("no", "break")
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    repeats: int = 128
    probe_size: int = 512
    probe_seed: int = 0
    early_stop: EarlyStopPolicy = EarlyStopPolicy()
    stats: StatsPolicy = StatsPolicy()
    diagnostics_enabled: bool = True
    noncommute_k_max: int = 6
    probe_subset: int = 512
    pretrain_passes: int = 3

    def model_spec(self) -> ModelSpec:
        return ModelSpec(**self.model)

    def digest(self) -> str:
        return _config_digest(asdict(self))


def _config_digest(config: dict) -> str:
    """Digest of a config as ``config.json`` holds it: identifies the experiment, storage location excluded."""
    payload = {k: v for k, v in config.items() if k != "output_dir"}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return sha256(blob.encode()).hexdigest()[:16]


def resolve_regime(entry) -> Regime:
    if isinstance(entry, str):
        if entry not in REGIME_PRESETS:
            raise ConfigError(
                f"regimes: unknown preset {entry!r}; known presets: {sorted(REGIME_PRESETS)}"
            )
        return REGIME_PRESETS[entry]
    if isinstance(entry, dict):
        fields = _read_fields("regimes", entry, Regime)
        try:
            return Regime(**fields)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"regimes: invalid regime mapping: {exc}") from None
    raise ConfigError(f"regimes: entries must be preset names or mappings, got {type(entry)}")


_POSITIVE = ("positive", lambda v: v > 0)
_NON_NEGATIVE = ("non-negative", lambda v: v >= 0)

# Every optional config key, named "section.key" inside a section: the dataclass and field it
# sets, and the (description, test) of the values it takes.  The field holds its type and default.
CONFIG_FIELDS = {
    "base_stage": (RunConfig, "base_stage", ("'init' or 'early'", lambda v: v in ("init", "early"))),
    "break_flags": (RunConfig, "break_flags", None),
    "seeds": (RunConfig, "seeds", None),
    "repeats": (RunConfig, "repeats", _POSITIVE),
    "batch_size": (ProtocolSettings, "batch_size", _POSITIVE),
    "probe_size": (RunConfig, "probe_size", _POSITIVE),
    "probe_seed": (RunConfig, "probe_seed", None),
    "pretrain_passes": (RunConfig, "pretrain_passes", _NON_NEGATIVE),
    "optimizer.weight_decay": (ProtocolSettings, "weight_decay", _NON_NEGATIVE),
    "optimizer.clip_norm": (ProtocolSettings, "clip_norm", _POSITIVE),
    "early_stop.enabled": (EarlyStopPolicy, "enabled", None),
    "early_stop.floor": (EarlyStopPolicy, "floor", _NON_NEGATIVE),
    "early_stop.stride": (EarlyStopPolicy, "stride", _POSITIVE),
    "early_stop.half_width": (EarlyStopPolicy, "half_width", _NON_NEGATIVE),
    "stats.bootstrap_samples": (StatsPolicy, "bootstrap_samples", _POSITIVE),
    "stats.tost_epsilon": (StatsPolicy, "tost_epsilon", _POSITIVE),
    "stats.bh_q": (StatsPolicy, "bh_q", ("in [0, 1]", lambda v: 0 <= v <= 1)),
    "diagnostics.enabled": (RunConfig, "diagnostics_enabled", None),
    "diagnostics.noncommute_k_max": (RunConfig, "noncommute_k_max", _NON_NEGATIVE),
    "diagnostics.probe_subset": (RunConfig, "probe_subset", ("at least 2", lambda v: v >= 2)),  # for the CKA
}
_SECTIONS = sorted({key.split(".")[0] for key in CONFIG_FIELDS if "." in key})
_REQUIRED = ("dataset", "model", "regimes", "output_dir")
_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
_LOADERS = {"synthetic": make_synthetic, "file": load_table}  # by dataset.kind


def _read(key: str, value, kind):
    """``value`` from JSON as a field of type ``kind``, or a ConfigError naming ``key``.

    A bool is no number, nor is one beyond the float range (``Infinity``,
    ``1e309`` or ``1`` and 400 zeros in JSON), and only an ``X | None``
    field takes null.
    """
    if get_origin(kind) is tuple:  # tuple[item, ...], given as a list
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: must be a list, got {type(value).__name__}")
        return tuple(_read(key, item, get_args(kind)[0]) for item in value)
    if type(None) in get_args(kind):  # X | None
        return None if value is None else _read(key, value, get_args(kind)[0])
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and (kind is bool or not isinstance(value, bool)):
        if kind is float and abs(value) > sys.float_info.max:
            raise ConfigError(f"{key}: must be a finite number, got {value!r}")
        return float(value) if kind is float else value
    raise ConfigError(f"{key}: must be {_JSON_TYPES[kind]}, got {value!r}")


def _read_fields(section: str, mapping: dict, built) -> dict:
    """``mapping`` with each key that ``built`` annotates read as that type; ``built`` names the rest."""
    kinds = {key: kind for key, kind in get_type_hints(built).items() if key != "return"}  # a function's result
    return {key: _read(f"{section}.{key}", v, kinds[key]) if key in kinds else v for key, v in mapping.items()}


def config_from_mapping(mapping: dict) -> RunConfig:
    """Validate a parsed configuration file and normalize it to a RunConfig.

    Each key of ``CONFIG_FIELDS`` is read with its field's JSON type and bound, and each key of a
    regime, ``model`` or ``dataset`` with its type in what the mapping builds.  Unknown keys, top-level
    or inside a section (as ``section.key``), are named in one warning on stderr and ignored.
    """
    m = dict(mapping)
    for name in ("dataset", "model", *_SECTIONS):
        if name in m and not isinstance(m[name], dict):
            raise ConfigError(f"{name}: must be a mapping, got {type(m[name]).__name__}")
    if "regimes" in m and not isinstance(m["regimes"], (list, tuple)):
        raise ConfigError(f"regimes: must be a list, got {type(m['regimes']).__name__}")
    unknown = set(m) - {*_REQUIRED, *_SECTIONS, *(key for key in CONFIG_FIELDS if "." not in key)}
    unknown |= {f"{name}.{key}" for name in _SECTIONS for key in m.get(name, {})} - set(CONFIG_FIELDS)
    if unknown:
        print(f"warning: ignoring unknown config keys: {', '.join(sorted(unknown))}", file=sys.stderr)
    for required in _REQUIRED:
        if required not in m:
            raise ConfigError(f"{required}: missing required field")

    values = {owner: {} for owner, _, _ in CONFIG_FIELDS.values()}  # by owner, the fields given
    for key, (owner, name, bound) in CONFIG_FIELDS.items():
        section, _, leaf = key.rpartition(".")
        given = m.get(section, {}) if section else m
        if leaf in given:
            value = _read(key, given[leaf], owner.__annotations__[name])
            if bound is not None and value is not None and not bound[1](value):
                raise ConfigError(f"{key}: must be {bound[0]}, got {value!r}")
            values[owner][name] = value

    regimes = tuple(resolve_regime(entry) for entry in m["regimes"])
    config = RunConfig(
        dataset=dict(m["dataset"]),
        model=dict(m["model"]),
        regimes=regimes,
        output_dir=_read("output_dir", m["output_dir"], str),
        early_stop=EarlyStopPolicy(**values[EarlyStopPolicy]),
        stats=StatsPolicy(**values[StatsPolicy]),
        **values[ProtocolSettings],
        **values[RunConfig],
    )
    for flag in config.break_flags:
        if flag not in ("no", "break"):
            raise ConfigError(f"break_flags: entries must be 'no' or 'break', got {flag!r}")
    for key, one, many, items in (
        ("regimes", "regime", "regime names", [r.name for r in regimes]),
        ("break_flags", "condition", "conditions", list(config.break_flags)),
        ("seeds", "seed", "seeds", list(config.seeds)),  # a repeated seed would count its repeats twice
    ):
        if not items:
            raise ConfigError(f"{key}: at least one {one} is required")
        if len(set(items)) != len(items):
            raise ConfigError(f"{key}: duplicate {many} {items}")
    for name, flag, seed in ((r.name, f, s) for r in regimes for f in config.break_flags for s in config.seeds):
        if (size := len(temp_path(Path(cell_filename(name, flag, seed))).name.encode())) > 255:
            raise ConfigError(f"regimes: regime {name!r}: name too long for a cell file ({size} bytes, max 255)")
    # the CKA runs on min(probe_subset, probe_size) probe rows
    if config.diagnostics_enabled and config.probe_size < 2:
        raise ConfigError(f"probe_size: must be at least 2 with diagnostics enabled, got {config.probe_size}")
    _read_fields("model", config.model, ModelSpec)  # checked: config.json and the digest keep the mappings as given
    try:
        config.model_spec()
    except (TypeError, ValueError) as exc:  # a misspelled, missing or invalid field
        raise ConfigError(f"model: {exc}") from None
    if (kind := config.dataset.get("kind")) not in list(_LOADERS):  # a list: a JSON list or object is unhashable
        raise ConfigError(f"dataset: kind must be 'synthetic' or 'file', got {kind!r}")
    _read_fields("dataset", config.dataset, _LOADERS[kind])
    return config


def build_dataset(config: RunConfig) -> Dataset:
    spec = dict(config.dataset)
    loader = _LOADERS[spec.pop("kind")]
    try:
        dataset = loader(**spec)
    except (TypeError, ValueError) as exc:  # a misspelled, unknown, missing or invalid field
        raise ConfigError(f"dataset: {exc}") from None
    return split_probe(dataset, config.probe_size, derive_seed("probe", config.probe_seed))


def base_parameters(config: RunConfig, dataset: Dataset, seed_value: int) -> np.ndarray:
    spec = config.model_spec()
    params = init_params(spec, derive_seed(seed_value, "init"))
    if config.base_stage == "early":
        params = pretrain(
            spec,
            params,
            dataset,
            passes=config.pretrain_passes,
            batch_size=config.batch_size,
            seed=derive_seed(seed_value, "pretrain"),
        )
    return params


# ---------------------------------------------------------------------------
# Sweep execution.


def _record_payload(record: BackflowRecord) -> dict:
    # a shallow copy: the record's dicts are written as they are, not deep-copied
    return {"record": "repeat", **vars(record)}


def _diagnostics(config, spec, regime, dataset, probe_x, base_params, seed_value) -> dict:
    """The diagnostics records of one (regime, seed), as ``{flag: payload}``.

    One repeat runs as an engine block and the non-commute curve once, both
    for all flags under ``guard_rule``; the CKA and PCA read the A, A', AB
    and A'B rows of every ok flag from one stacked feature call and one
    stacked forward.  So each record equals that of a sweep of its flag
    alone, and none depends on the cells' records.
    """
    flags, repeat = config.break_flags, [(derive_seed("diag", seed_value), 0)]
    (runs,) = guarded_block(base_params, spec, regime, flags, dataset, probe_x, config, repeat)
    x_sub, seed = probe_x[: config.probe_subset], derive_seed("noncommute", seed_value)
    curves = partial(run_noncommute_curve, k_max=config.noncommute_k_max, settings=config)
    outcomes = guard_rule(
        lambda: curves(base_params, spec, regime, flags, dataset, x_sub, seed, lr_scale=1.0).values(),
        lambda flag, lr: curves(base_params, spec, regime, (flag,), dataset, x_sub, seed, lr_scale=lr)[flag],
        flags,
    )
    ok = [flag for flag in flags if runs[flag].record.ok]
    if ok:  # rows A, A', AB, A'B of every ok flag
        rows = np.concatenate([np.concatenate([runs[flag].params_mid, runs[flag].params_end]) for flag in ok])
        feats, preds = penultimate_features(spec, rows, x_sub), forward(spec, rows, x_sub)
    payloads = {}
    for flag, (curve, retried, error) in zip(flags, outcomes):
        curve = curve or []
        payloads[flag] = payload = {
            "record": "diagnostics",
            "regime": regime.name,
            "break": flag,
            "seed": seed_value,
            "noncommute": [[k, v] for k, v in curve],
            "noncommute_slope": diag.curve_slope([k for k, _ in curve], [v for _, v in curve])
            if len(curve) >= 2
            else None,
        }
        if retried:
            payload["noncommute_retried"] = True
        if error is not None:
            payload["noncommute_error"] = error
        if flag not in ok:
            payload["error"] = runs[flag].record.error
            continue
        i = 4 * ok.index(flag)
        projection = diag.pca_project([preds[i], preds[i + 2], preds[i + 1], preds[i + 3]])
        payload.update(
            cka_first=diag.linear_cka(feats[i], feats[i + 1]),
            cka_second=diag.linear_cka(feats[i + 2], feats[i + 3]),
            pca_points=[[float(a), float(b)] for a, b in projection.points],
            pca_labels=["A", "AB", "Aprime", "AprimeB"],
            pca_explained=list(projection.explained_variance),
        )
    return payloads


@dataclass
class SweepResult:
    run_dir: Path
    summary: dict


def _check_run_dir(run_dir: Path, digest: str) -> None:
    """Refuse a run directory that holds the run of another configuration.

    Its cell files, ``diagnostics.jsonl`` and ``report.md`` would stay beside
    the new run's.  A directory whose ``config.json`` has this config's
    digest is a rerun of the same configuration, which rewrites it in place.
    """
    try:
        text = (run_dir / "config.json").read_text()
    except FileNotFoundError:
        return
    try:
        previous = json.loads(text)
    except ValueError:
        previous = None
    found = _config_digest(previous) if isinstance(previous, dict) else "none"
    if found != digest:
        raise ConfigError(
            f"output_dir: {run_dir} holds the run of another configuration (config_digest {found}, "
            f"this configuration's {digest}); choose another output_dir or remove that run"
        )


def run_sweep(config: RunConfig, created_at: str | None = None) -> SweepResult:
    """Execute every (regime, break flag, seed) cell and write run artifacts.

    Writes config.json, one JSONL file per cell as it finishes, diagnostics.jsonl,
    and the summary that ``summarize`` makes of the cells' records.  Refuses,
    before writing anything, an ``output_dir`` that holds another
    configuration's run (``_check_run_dir``).
    """
    if created_at is None:
        created_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    digest = config.digest()
    run_dir = Path(config.output_dir)
    _check_run_dir(run_dir, digest)

    spec = config.model_spec()
    dataset = build_dataset(config)
    if spec.input_dim != dataset.input_dim:
        raise ConfigError(
            f"model: input_dim {spec.input_dim} does not match dataset input_dim {dataset.input_dim}"
        )
    if spec.num_classes != dataset.num_classes:
        raise ConfigError(
            f"model: num_classes {spec.num_classes} does not match dataset classes {dataset.num_classes}"
        )
    for regime in config.regimes:  # the check each repeat's batch plan makes
        try:
            shared_rows(dataset, config.batch_size, regime.overlap)
        except ValueError as exc:
            raise ConfigError(f"batch_size: regime {regime.name!r}: {exc}") from None
    probe_x = dataset.features[dataset.probe_indices]
    run_dir.mkdir(parents=True, exist_ok=True)
    config_text = json.dumps(asdict(config), indent=2, sort_keys=True, default=str) + "\n"
    write_atomic(run_dir / "config.json", config_text)

    base_by_seed = {s: base_parameters(config, dataset, s) for s in config.seeds}

    block_size = partial(repeats_per_block, spec, config.batch_size, config.probe_size)
    records_by_cell, diagnostics = {}, {}  # by (regime name, flag, seed) and by (regime name, seed)
    for regime in config.regimes:
        for seed_value in config.seeds:
            base = base_by_seed[seed_value]

            def sample(flags, repeat_ids):
                repeats = [(derive_seed("repeat", seed_value, i), i) for i in repeat_ids]
                runs = guarded_block(base, spec, regime, flags, dataset, probe_x, config, repeats)
                return {flag: [run[flag].record for run in runs] for flag in flags}

            def finish_cell(flag, records):
                key = (regime.name, flag, seed_value)
                records_by_cell[key] = records
                cell = {"regime": regime.name, "break": flag, "seed": seed_value}
                write_jsonl(run_dir / cell_filename(*key), map(_record_payload, records), created_at, digest, cell)

            collect_with_early_stop(
                sample,
                config.repeats,
                config.early_stop,
                block_size=block_size,
                flags=config.break_flags,
                on_finish=finish_cell,
            )

            if config.diagnostics_enabled:
                diagnostics[regime.name, seed_value] = _diagnostics(
                    config, spec, regime, dataset, probe_x, base, seed_value
                )

    summary = summarize(config, records_by_cell, created_at, digest)
    if config.diagnostics_enabled:  # in the order of the summary's cells
        payloads = [diagnostics[c["regime"], c["seed"]][c["break"]] for c in summary["cells"]]
        write_jsonl(run_dir / "diagnostics.jsonl", payloads, created_at, digest)
    write_atomic(run_dir / "summary.json", json.dumps(summary, indent=2, allow_nan=False) + "\n")
    return SweepResult(run_dir=run_dir, summary=summary)
