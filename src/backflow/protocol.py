"""The two-step A/B micro-experiment and the sweep around it.

One micro-experiment starts from cached base parameters, runs k optimizer
steps under a first instrument (A or its contrast A', which differ only by
augmentation on the same batch), then k steps under a common second
instrument B.  Carrying the optimizer buffers into B is the "no break"
condition; zeroing them immediately before B is the causal break.  The
measurement is the pair of mean probe divergences before and after B,

    d1 = div(P(theta_A), P(theta_A'))      d2 = div(P(theta_AB), P(theta_A'B))

and the per-repeat back-flow delta = d2 - d1 for each divergence kind.
A positive mean delta certifies that no single fixed channel maps the
mid-time probe laws to the post-B laws.

One trainer (``_two_phase``) runs the protocol for pairs of parameter
rows: a first phase from zero velocity, then at each of a list of switch
step counts every break flag's velocity rule and a second phase of as many
steps.  The engine (``_run_repeat``) is its one-switch case for a block of
repeats, whose A and A' rows are the pairs, so the flags of a repeat share
its batch plan, augmentation draws, A/A' phase and d1.  The non-commute
curve is its case of one pair (A then B, B then A) switched at every k up
to k_max.  A block of repeats, or a group of switches, holds as many as
fit a budget of floats per stacked call (``_STACK_FLOATS``) with the rows
of every flag, and at least one.  One guard rule (``_guard_rule``) serves
both: a stack runs once, and if it trips the NaN guard each (repeat, flag),
or each flag of a curve, reruns alone, retried once at half the learning
rate.  The sweep, which runs serially, loops over (regime, seed) and
collects the cells of all break flags in lockstep: each block runs for the
flags whose cells are still open and never crosses an early-stop
checkpoint, where each flag stops on its own records and writes its cell
file.  The diagnostics of a (regime, seed) are one engine repeat and one
curve for all flags; ``summary.summarize`` reads the cells' records alone.

There is one training loop, ``_train``: the trainer's two phases and the
base pretraining run their optimizer steps through it, on batch arrays
that ``_repeat_batches`` builds per repeat.

Randomness discipline: each repeat derives its own streams from
(seed, repeat_id, tag).  The A/A' augmentations share one seed (they
must differ only by kind), and B's plan and draws are common to both
branches of a repeat.  Records are pure functions of (config, seed,
repeat_id, flag): a record is the same whether its flag ran alone or with
the others.
"""

import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from hashlib import sha256
from operator import itemgetter
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import diagnostics as diag
from .artifacts import cell_filename, write_atomic, write_jsonl
from .data import Dataset, load_table, make_synthetic, split_probe
from .divergences import KINDS, div_avg
from .errors import ConfigError, NanGuardError
from .instruments import (
    AUG_KINDS,
    apply_augmentation,
    sample_batch_plan,
    shared_rows,
)
from .model import (
    ModelSpec,
    check_batch,
    forward,
    init_params,
    loss_and_grad_unchecked,
    parameter_count,
    penultimate_features,
)
from .optimizer import OptimizerConfig, causal_break, step
from .seeding import derive_seed
from .stats import normal_ci_half_width
from .summary import StatsPolicy, alignment_mean, summarize


@dataclass(frozen=True)
class Regime:
    """One micro-step regime: step count, optimizer knobs, augmentations, overlap."""

    name: str
    k: int
    lr: float
    momentum: float
    aug_a: str
    aug_aprime: str
    aug_b: str
    overlap: float
    same_classes: bool

    def __post_init__(self):
        if any(sep and sep in self.name for sep in ("/", os.sep, os.altsep)):  # it names the cell files
            raise ValueError(f"regime {self.name!r}: name must not contain a path separator")
        if self.k < 1:
            raise ValueError(f"regime {self.name!r}: k must be at least 1")
        if not self.lr > 0:
            raise ValueError(f"regime {self.name!r}: lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"regime {self.name!r}: momentum must lie in [0, 1)")
        for label, kind in (("aug_a", self.aug_a), ("aug_aprime", self.aug_aprime), ("aug_b", self.aug_b)):
            if kind not in AUG_KINDS:
                raise ValueError(f"regime {self.name!r}: {label} must be one of {AUG_KINDS}")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"regime {self.name!r}: overlap must lie in [0, 1]")


REGIME_PRESETS = {
    "standard": Regime("standard", 3, 0.02, 0.90, "weak", "color", "weak", 0.5, True),
    "resonant_strong": Regime("resonant_strong", 6, 0.03, 0.99, "color", "blur", "weak", 1.0, True),
    "resonant_mid": Regime("resonant_mid", 6, 0.03, 0.95, "color", "blur", "weak", 0.75, True),
    "orthogonal": Regime("orthogonal", 6, 0.03, 0.99, "color", "blur", "blur", 0.0, False),
    "negative": Regime("negative", 1, 0.005, 0.00, "none", "none", "none", 0.0, False),
}


@dataclass(frozen=True)
class ProtocolSettings:
    """Micro-step context shared by every instrument of a run."""

    batch_size: int = 64
    weight_decay: float = 1e-4
    clip_norm: float | None = 1.0


@dataclass
class BackflowRecord:
    """Per-repeat measurement; d1/d2/delta are None when the repeat errored."""

    repeat_id: int
    seed: int
    break_applied: bool
    d1: dict[str, float] | None
    d2: dict[str, float] | None
    delta: dict[str, float] | None
    momentum_alignment: float | None = None
    retried: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _repeat_batches(regime: Regime, dataset: Dataset, seed: int, batch_size: int, contrast: bool = True):
    """A repeat's augmented batches and labels: ``x_a, x_ap, x_b, y_a, y_b``.

    The batch plan and augmentation draws derive from ``seed``.  A and A'
    read the plan's first batch with one augmentation seed, so they differ
    only by kind; B reads the second batch with its own seed.  Image
    datasets get the image transform forms.  Without ``contrast`` x_ap is
    None and not computed; every other batch is the same, since each
    augmentation seeds its own generator.
    """
    plan = sample_batch_plan(dataset, batch_size, regime.overlap, regime.same_classes, derive_seed(seed, "plan"))
    shape = dataset.provenance.get("image_shape")
    first, second = dataset.features[plan.indices_a], dataset.features[plan.indices_b]
    aug_seed_first = derive_seed(seed, "aug_first")
    x_a = apply_augmentation(regime.aug_a, first, aug_seed_first, shape)
    x_ap = apply_augmentation(regime.aug_aprime, first, aug_seed_first, shape) if contrast else None
    x_b = apply_augmentation(regime.aug_b, second, derive_seed(seed, "aug_b"), shape)
    return x_a, x_ap, x_b, dataset.labels[plan.indices_a], dataset.labels[plan.indices_b]


def _optimizer_config(regime: Regime, settings: ProtocolSettings, lr_scale: float) -> OptimizerConfig:
    """The optimizer of a regime's A and B steps, at ``lr_scale`` times its learning rate."""
    return OptimizerConfig(
        lr=regime.lr * lr_scale,
        momentum=regime.momentum,
        weight_decay=settings.weight_decay,
        clip_norm=settings.clip_norm,
    )


def _train(spec, params, velocity, x, y, steps, config):
    """Optimizer steps of every stacked parameter row on its batch: the one training loop.

    ``x``/``y`` are one batch shared by all rows or one per row.  ``steps``
    is one count for all rows or a non-decreasing count per row (with one
    batch per row), so the rows still training at step t are a suffix.
    Returns the final parameters and velocities and the first step's
    gradient (None without steps); the caller's arrays are never written.
    The batch is checked once, before the first step, as the gradient of
    every step reads the same ``x``/``y``.  ``step`` is called through this
    module's namespace, so a replacement installed there (as the NaN-guard
    tests do) is used.
    """
    x, y = check_batch(spec, x, y)
    counts = np.broadcast_to(steps, len(params))
    done = []  # (parameters, velocities) of rows past their count, in row order
    first_grad = None
    for t in range(counts[-1]):
        finished = len(params) - np.count_nonzero(counts > t)
        if finished:  # copies, so the finished rows do not hold the whole stack
            done.append((params[:finished].copy(), velocity[:finished].copy()))
            params, velocity, x, y = params[finished:], velocity[finished:], x[finished:], y[finished:]
        _, grad = loss_and_grad_unchecked(spec, params, x, y)
        params, velocity = step(params, velocity, grad, config)
        if t == 0:
            first_grad = grad
    if done:
        params = np.concatenate([*(p for p, _ in done), params])
        velocity = np.concatenate([*(v for _, v in done), velocity])
    return params, velocity, first_grad


@dataclass
class Repeat:
    """One repeat run for one break flag: its record and its states.

    The arrays have rows (A, A'): mid-time parameters and velocities, and
    post-B parameters.  An errored repeat has no arrays.
    """

    record: BackflowRecord
    params_mid: np.ndarray | None = None
    velocity_mid: np.ndarray | None = None
    params_end: np.ndarray | None = None


# Float64 values one stacked training call may hold, counted per parameter
# row by _row_floats (4 MiB).  An engine block holds as many repeats, and a
# second-phase group of _two_phase as many switches, as fit with the rows
# of every flag, but never fewer than one.
_STACK_FLOATS = 1 << 19


def _row_floats(spec: ModelSpec, batch_size: int, probe_size: int) -> int:
    """Float64 values one stacked row holds: parameters, batch, and activations on batch and probe."""
    width = (spec.hidden_dim or 0) + spec.num_classes
    return parameter_count(spec) + batch_size * spec.input_dim + (batch_size + probe_size) * width


def _repeats_per_block(spec: ModelSpec, batch_size: int, probe_size: int, n_flags: int) -> int:
    """Repeats the engine runs as one stack, 2 rows per repeat and flag (a ``_two_phase`` pair is a repeat)."""
    return max(1, _STACK_FLOATS // (2 * n_flags * _row_floats(spec, batch_size, probe_size)))


def _two_phase(spec, params, first, second, switches, flags, config, probe_x):
    """Both phases of the protocol for pairs of rows: the one trainer of the engine and the curve.

    ``params`` holds pairs of rows (2i, 2i + 1), and ``first`` and ``second``
    an ``(x, y)`` of one batch per row.  The first phase trains every row
    from zero velocity as one trajectory.  At each step count s of the
    increasing ``switches`` each flag's velocity rule is applied, and the
    rows of every (switch, flag) train on their second batches for s steps,
    ordered (switch, pair, flag, member), so the step counts do not
    decrease.  Switches train in groups that fit the budget, a pair's rows
    of all flags counting as one repeat.  Yields per group the first-phase
    (parameters, velocities) at its switches and, in that row order, the
    end parameters, their probabilities on ``probe_x`` and the first
    second-phase gradient.  Every row is computed as it would be alone;
    raises NanGuardError if one stops being finite.
    """
    n_flags, size = len(flags), params.shape[1]
    per_group = _repeats_per_block(spec, first[0].shape[1], len(probe_x), len(params) // 2 * n_flags)

    def by_flag(a):  # rows (pair, member) -> (pair, flag, member)
        return np.repeat(a.reshape(-1, 2, *a.shape[1:]), n_flags, axis=0).reshape(-1, *a.shape[1:])

    def switched(velocity):  # as by_flag, each flag's rows under its velocity rule
        pairs = velocity.reshape(-1, 1, 2, size)
        rules = [causal_break(pairs) if flag == "break" else pairs for flag in flags]
        return np.concatenate(rules, axis=1).reshape(-1, size)

    velocity, done = np.zeros_like(params), 0
    for start in range(0, len(switches), per_group):
        group, states = switches[start : start + per_group], []
        for s in group:
            params, velocity, _ = _train(spec, params, velocity, *first, s - done, config)
            states.append((params, velocity))
            done = s
        params_b = by_flag(np.concatenate([p for p, _ in states]))
        velocity_b = switched(np.concatenate([v for _, v in states]))
        counts = np.repeat(group, len(params) * n_flags)
        x, y = (by_flag(np.concatenate([a] * len(group))) for a in second)
        end, _, grad = _train(spec, params_b, velocity_b, x, y, counts, config)
        probs = forward(spec, end, probe_x)
        yield states, end, probs, grad
        del end, probs, grad  # a suspended trainer holds no group's outputs


def _run_repeat(
    base_params, spec, regime, dataset, probe_x, settings, repeats, flags, lr_scale
) -> list[dict[str, Repeat]]:
    """The engine: a block of repeats of the A/A'->B protocol, each for every flag in ``flags``.

    ``repeats`` lists (seed, repeat_id) pairs; one ``{flag: Repeat}`` is
    returned per pair.  The A and A' rows of each repeat, each on its own
    batch, are a pair of ``_two_phase`` switched once, after k steps, to
    B; the B rows are ordered (repeat, flag, A/A').  So a repeat's plan,
    batches, A/A' phase and d1 are computed once for all flags.  Raises
    NanGuardError if any row stops being finite.
    """
    batches = (_repeat_batches(regime, dataset, seed, settings.batch_size) for seed, _ in repeats)
    x_a, x_ap, x_b, y_a, y_b = zip(*batches)  # each one array per repeat
    (group,) = _two_phase(
        spec,
        np.tile(base_params, (2 * len(repeats), 1)),
        (np.stack([x for pair in zip(x_a, x_ap) for x in pair]), np.repeat(y_a, 2, axis=0)),
        (np.repeat(x_b, 2, axis=0), np.repeat(y_b, 2, axis=0)),
        (regime.k,),
        flags,
        _optimizer_config(regime, settings, lr_scale),
        probe_x,
    )
    ((params_mid, velocity_mid),), params_end, preds_end, first_b_grad = group  # one switch, so one group
    preds_mid = forward(spec, params_mid, probe_x)
    d1_rows = div_avg(KINDS, preds_mid[0::2], preds_mid[1::2])
    d2_rows = div_avg(KINDS, preds_end[0::2], preds_end[1::2])

    runs = []
    for r, (seed, repeat_id) in enumerate(repeats):
        d1 = {kind: float(d1_rows[kind][r]) for kind in KINDS}
        by_flag = {}
        for i, flag in enumerate(flags):
            b = r * len(flags) + i  # the (repeat, flag) pair of B rows: its A row is 2b, its A' row 2b + 1
            d2 = {kind: float(d2_rows[kind][b]) for kind in KINDS}
            # the first B gradient of the A row is taken at the mid-time parameters
            alignment = diag.cosine(first_b_grad[2 * b], velocity_mid[2 * r]) if flag == "no" else None
            delta = {kind: d2[kind] - d1[kind] for kind in KINDS}
            record = BackflowRecord(repeat_id, seed, flag == "break", dict(d1), d2, delta, alignment)
            mid = slice(2 * r, 2 * r + 2)
            by_flag[flag] = Repeat(record, params_mid[mid], velocity_mid[mid], params_end[2 * b : 2 * b + 2])
        runs.append(by_flag)
    return runs


def _guard_rule(shared, alone, units) -> list[tuple]:
    """The NaN-guard rule of the engine's blocks and of the non-commute curves.

    ``shared()`` runs all ``units`` at once and gives one result per unit.
    If it trips the guard, or for a lone unit, each unit reruns by itself
    as ``alone(unit, lr_scale)``, retried once at half the learning rate, so
    every result equals that of its unit run alone.  Returns one ``(result,
    retried, error)`` per unit; a unit that fails twice has no result and
    the second failure as its error.
    """
    if len(units) > 1:  # a lone unit goes straight to the retry rule
        try:
            return [(result, False, None) for result in shared()]
        except NanGuardError:
            pass
    outcomes = []
    for unit in units:
        try:
            outcomes.append((alone(unit, 1.0), False, None))
        except NanGuardError:
            try:
                outcomes.append((alone(unit, 0.5), True, None))
            except NanGuardError as exc:
                outcomes.append((None, True, f"nan_guard: {exc}"))
    return outcomes


def _guarded_block(base_params, spec, regime, flags, dataset, probe_x, settings, repeats) -> list[dict]:
    """A block of (seed, repeat_id) ``repeats`` for every flag in ``flags`` under ``_guard_rule``.

    The block is one engine run, and its units are the (repeat, flag)
    pairs; a unit that fails twice gets an error record.  So every record
    and state equals that of its (repeat, flag) run alone.  Returns one
    ``{flag: Repeat}`` per repeat.
    """
    engine = partial(_run_repeat, base_params, spec, regime, dataset, probe_x, settings)
    units = [(repeat, flag) for repeat in repeats for flag in flags]
    outcomes = _guard_rule(
        lambda: [run[flag] for run in engine(repeats, flags, 1.0) for flag in flags],
        lambda unit, lr_scale: engine([unit[0]], unit[1:], lr_scale)[0][unit[1]],
        units,
    )
    runs = [{} for _ in repeats]
    for i, (((seed, repeat_id), flag), (run, retried, error)) in enumerate(zip(units, outcomes)):
        if error is not None:
            run = Repeat(BackflowRecord(repeat_id, seed, flag == "break", None, None, None, error=error))
        run.record.retried = retried
        runs[i // len(flags)][flag] = run
    return runs


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
    """One repeat of the two-step experiment; see the module docstring.

    Retries once at half the learning rate if any loss, gradient, or update
    stops being finite; a second failure yields an error record.
    """
    flag = "break" if break_applied else "no"
    (run,) = _guarded_block(
        base_params, spec, regime, (flag,), dataset, dataset.features[probe], settings, [(seed, repeat_id)]
    )
    return run[flag].record


def run_noncommute_curve(
    base_params: np.ndarray,
    spec: ModelSpec,
    regime: Regime,
    flags: tuple[str, ...],
    dataset: Dataset,
    probe_subset: np.ndarray,
    seed: int,
    *,
    k_max: int,
    settings: ProtocolSettings = ProtocolSettings(),
    lr_scale: float = 1.0,
) -> dict[str, list[tuple[int, float]]]:
    """Order sensitivity: TV between A-then-B and B-then-A endpoints vs k, for every flag in ``flags``.

    Both orders start from the same base parameters and share the repeat's
    batch plan and augmentation draws.  They are one pair of rows of
    ``_two_phase``, switched after every k in 1..k_max, so one first-phase
    trajectory serves every k and every flag.  Under ``break`` the buffers
    are zeroed at the switch point in both orders.  Returns ``{flag: [(k,
    tv), ...]}``; every value is computed as in a run of its k and flag
    alone.  Raises NanGuardError if either order stops being finite.
    """
    if k_max < 1:
        return {flag: [] for flag in flags}
    x_a, _, x_b, y_a, y_b = _repeat_batches(regime, dataset, seed, settings.batch_size, contrast=False)
    first = np.stack([x_a, x_b]), np.stack([y_a, y_b])  # row 0 runs A then B, row 1 runs B then A
    groups = _two_phase(
        spec,
        np.stack([base_params, base_params]),
        first,
        tuple(a[::-1] for a in first),  # each order's second phase is the other's first
        range(1, k_max + 1),
        flags,
        _optimizer_config(regime, settings, lr_scale),
        dataset.features[probe_subset],
    )
    # one group's probabilities at a time, so that no earlier group's rows are kept
    tv = np.concatenate([div_avg(("tv",), p[0::2], p[1::2])["tv"] for p in map(itemgetter(2), groups)])
    tv = tv.reshape(k_max, len(flags))
    return {flag: [(k, float(v)) for k, v in enumerate(tv[:, i], start=1)] for i, flag in enumerate(flags)}


def pretrain(
    spec: ModelSpec,
    params: np.ndarray,
    dataset: Dataset,
    *,
    passes: int,
    batch_size: int,
    seed: int = 0,
    lr: float = 0.1,
    momentum: float = 0.9,
    weight_decay: float = 5e-4,
) -> np.ndarray:
    """Short base-training run over the train split (the "early" stage), as a one-row stack."""
    rng = np.random.default_rng(seed)
    config = OptimizerConfig(lr=lr, momentum=momentum, weight_decay=weight_decay, clip_norm=1.0)
    params, velocity = params[None], np.zeros((1, params.size))
    for _ in range(passes):
        order = rng.permutation(dataset.train_indices)
        for start in range(0, len(order) - batch_size + 1, batch_size):
            batch = order[start : start + batch_size]
            params, velocity, _ = _train(
                spec, params, velocity, dataset.features[batch], dataset.labels[batch], 1, config
            )
    return params[0]


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


@dataclass(frozen=True)
class RunConfig:
    dataset: dict
    model: dict
    regimes: tuple[Regime, ...]
    output_dir: str
    base_stage: str = "init"
    break_flags: tuple[str, ...] = ("no", "break")
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    repeats: int = 128
    batch_size: int = ProtocolSettings.batch_size
    probe_size: int = 512
    probe_seed: int = 0
    weight_decay: float = ProtocolSettings.weight_decay
    clip_norm: float | None = ProtocolSettings.clip_norm
    early_stop: EarlyStopPolicy = EarlyStopPolicy()
    stats: StatsPolicy = StatsPolicy()
    diagnostics_enabled: bool = True
    noncommute_k_max: int = 6
    probe_subset: int = 512
    pretrain_passes: int = 3

    def settings(self) -> ProtocolSettings:
        return ProtocolSettings(self.batch_size, self.weight_decay, self.clip_norm)

    def model_spec(self) -> ModelSpec:
        return ModelSpec(**self.model)

    def digest(self) -> str:
        # identifies the experiment: storage location excluded
        payload = {k: v for k, v in asdict(self).items() if k != "output_dir"}
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
        kinds = Regime.__annotations__
        fields = {key: _read(f"regimes.{key}", v, kinds[key]) if key in kinds else v for key, v in entry.items()}
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
    "batch_size": (RunConfig, "batch_size", _POSITIVE),
    "probe_size": (RunConfig, "probe_size", _POSITIVE),
    "probe_seed": (RunConfig, "probe_seed", None),
    "pretrain_passes": (RunConfig, "pretrain_passes", _NON_NEGATIVE),
    "optimizer.weight_decay": (RunConfig, "weight_decay", _NON_NEGATIVE),
    "optimizer.clip_norm": (RunConfig, "clip_norm", _POSITIVE),
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


def _read(key: str, value, kind):
    """``value`` from JSON as a field of type ``kind``, or a ConfigError naming ``key``.

    A bool is no number, and only a ``float | None`` field takes null.
    """
    if get_origin(kind) is tuple:  # tuple[item, ...], given as a list
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: must be a list, got {type(value).__name__}")
        return tuple(_read(key, item, get_args(kind)[0]) for item in value)
    if kind == float | None:
        return None if value is None else _read(key, value, float)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and (kind is bool or not isinstance(value, bool)):
        return float(value) if kind is float else value
    raise ConfigError(f"{key}: must be {_JSON_TYPES[kind]}, got {value!r}")


def config_from_mapping(mapping: dict) -> RunConfig:
    """Validate a parsed configuration file and normalize it to a RunConfig.

    Each key of ``CONFIG_FIELDS`` is read with its field's JSON type and
    bound.  Unknown keys, top-level or inside a section (as
    ``section.key``), are named in one warning on stderr and ignored.
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

    values = {RunConfig: {}, EarlyStopPolicy: {}, StatsPolicy: {}}  # by owner, the fields given
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
    # the CKA runs on min(probe_subset, probe_size) probe rows
    if config.diagnostics_enabled and config.probe_size < 2:
        raise ConfigError(f"probe_size: must be at least 2 with diagnostics enabled, got {config.probe_size}")
    try:
        spec = config.model_spec()
    except (TypeError, ValueError) as exc:  # a misspelled, missing or invalid field
        raise ConfigError(f"model: {exc}") from None
    dataset_classes = config.dataset.get("num_classes")
    if dataset_classes is not None and dataset_classes != spec.num_classes:
        raise ConfigError(
            f"model: num_classes {spec.num_classes} does not match dataset num_classes {dataset_classes}"
        )
    return config


def build_dataset(config: RunConfig) -> Dataset:
    spec = dict(config.dataset)
    kind = spec.pop("kind", None)
    loaders = {"synthetic": make_synthetic, "file": load_table}
    if kind not in loaders:
        raise ConfigError(f"dataset: kind must be 'synthetic' or 'file', got {kind!r}")
    try:
        dataset = loaders[kind](**spec)
    except TypeError as exc:  # a misspelled, unknown or missing field
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


def _diagnostics(config, spec, regime, dataset, probe_x, base_params, seed_value, records_by_cell) -> dict:
    """The diagnostics records of one (regime, seed), as ``{flag: payload}``.

    One repeat runs as an engine block and the non-commute curve once, both
    for all flags under ``_guard_rule``; the CKA and PCA read the A, A', AB
    and A'B rows of every ok flag from one stacked feature call and one
    stacked forward.  So each record equals that of a sweep of its flag
    alone.  ``records_by_cell`` gives each cell's records.
    """
    flags, settings = config.break_flags, config.settings()
    repeat = [(derive_seed("diag", seed_value), 0)]
    (runs,) = _guarded_block(base_params, spec, regime, flags, dataset, probe_x, settings, repeat)
    sub, seed = dataset.probe_indices[: config.probe_subset], derive_seed("noncommute", seed_value)
    curves = partial(run_noncommute_curve, k_max=config.noncommute_k_max, settings=settings)
    outcomes = _guard_rule(
        lambda: curves(base_params, spec, regime, flags, dataset, sub, seed, lr_scale=1.0).values(),
        lambda flag, lr: curves(base_params, spec, regime, (flag,), dataset, sub, seed, lr_scale=lr)[flag],
        flags,
    )
    ok = [flag for flag in flags if runs[flag].record.ok]
    if ok:  # rows A, A', AB, A'B of every ok flag
        rows = np.concatenate([np.concatenate([runs[flag].params_mid, runs[flag].params_end]) for flag in ok])
        x_sub = probe_x[: config.probe_subset]
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
            "alignment_mean": alignment_mean(records_by_cell[regime.name, flag, seed_value]),
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


def run_sweep(config: RunConfig, created_at: str | None = None) -> SweepResult:
    """Execute every (regime, break flag, seed) cell and write run artifacts.

    Writes config.json, one JSONL file per cell as it finishes, diagnostics.jsonl,
    and the summary that ``summarize`` makes of the cells' records.
    """
    if created_at is None:
        created_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

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
    digest = config.digest()

    run_dir = Path(config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    config_text = json.dumps(asdict(config), indent=2, sort_keys=True, default=str) + "\n"
    write_atomic(run_dir / "config.json", config_text)

    base_by_seed = {s: base_parameters(config, dataset, s) for s in config.seeds}

    settings = config.settings()
    block_size = partial(_repeats_per_block, spec, config.batch_size, config.probe_size)
    records_by_cell, diagnostics = {}, {}  # by (regime name, flag, seed) and by (regime name, seed)
    for regime in config.regimes:
        for seed_value in config.seeds:
            base = base_by_seed[seed_value]

            def sample(flags, repeat_ids):
                repeats = [(derive_seed("repeat", seed_value, i), i) for i in repeat_ids]
                runs = _guarded_block(base, spec, regime, flags, dataset, probe_x, settings, repeats)
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
                    config, spec, regime, dataset, probe_x, base, seed_value, records_by_cell
                )

    summary = summarize(config, records_by_cell, created_at, digest)
    if config.diagnostics_enabled:  # in the order of the summary's cells
        payloads = [diagnostics[c["regime"], c["seed"]][c["break"]] for c in summary["cells"]]
        write_jsonl(run_dir / "diagnostics.jsonl", payloads, created_at, digest)
    write_atomic(run_dir / "summary.json", json.dumps(summary, indent=2, allow_nan=False) + "\n")
    return SweepResult(run_dir=run_dir, summary=summary)
