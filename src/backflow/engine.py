"""The two-step A/B micro-experiment: its trainer, its engine and the non-commute curve.

One micro-experiment starts from cached base parameters, runs k optimizer
steps under a first instrument (A or its contrast A', which differ only by
augmentation on the same batch), then k steps under a common second
instrument B.  Carrying the optimizer buffers into B is the "no break"
condition; zeroing them immediately before B is the causal break.  The
measurement is the pair of mean probe divergences before and after B,

    d1 = div(P(theta_A), P(theta_A'))      d2 = div(P(theta_AB), P(theta_A'B))

and the per-repeat back-flow delta = d2 - d1 for each divergence kind.
A positive mean delta certifies that no single fixed channel maps the
mid-time probe laws to the post-B laws: the probe laws are not Markov, with
the parameters counted as memory.  Only the break condition attributes that
memory to optimizer state; plain SGD with momentum 0 can show a positive
mean delta too (``test_witness_fires_without_optimizer_state`` in the
protocol tests is the measured counterexample).

One trainer (``_two_phase``) runs the protocol for pairs of parameter
rows: a first phase from zero velocity, then at each of a list of switch
step counts a second phase of as many steps for every break flag.  The
flags part at the second phase's first update: its gradient is taken once
per pair, and each flag's velocity rule is applied to it.  The engine
(``_run_repeat``) is its one-switch case for a block of repeats, whose A
and A' rows are the pairs, so the flags of a repeat share its batch plan,
augmentation draws, A/A' phase, d1 and first B gradient.  The non-commute
curve is its case of one pair (A then B, B then A) switched at every k up
to k_max, one stack of the rows of every flag per k.  An engine block holds
as many repeats as fit a budget of floats per stacked call
(``_STACK_FLOATS``) with the rows of every flag, and at least one.  One
guard rule (``guard_rule``) serves both: a stack runs once, and if it trips
the NaN guard each (repeat, flag), or each flag of a curve, reruns alone,
retried once at half the learning rate.  The engine knows no config key,
early-stop policy or file format.

There is one training loop, ``_train``: the trainer's two phases and the
base pretraining run their optimizer steps through it, on batch arrays
that ``_repeat_batches`` builds per repeat.  Only the second phase's
first step, on the shared gradient, is one ``step`` call of its own.

Randomness discipline: each repeat derives its own streams from
(seed, repeat_id, tag).  The A/A' augmentations share one seed (they
must differ only by kind), and B's plan and draws are common to both
branches of a repeat.  Records are pure functions of (config, seed,
repeat_id, flag): a record is the same whether its flag ran alone or with
the others.
"""

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import diagnostics as diag
from .data import Dataset
from .divergences import KINDS, div_avg
from .errors import NanGuardError
from .instruments import AUG_KINDS, apply_augmentation, sample_batch_plan
from .model import ModelSpec, check_batch, forward, loss_and_grad_unchecked, parameter_count
from .optimizer import OptimizerConfig, causal_break, step
from .seeding import derive_seed


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
        if "\0" in self.name:
            raise ValueError(f"regime {self.name!r}: name must not contain a NUL byte")
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
    """``steps`` optimizer steps of every stacked parameter row on its batch: the one training loop.

    ``x``/``y`` are one batch shared by all rows or one per row.  Returns
    the final parameters and velocities; the caller's arrays are never
    written.  The batch is checked once, before the first step, as the
    gradient of every step reads the same ``x``/``y``.  ``step`` is called
    through this module's namespace, so a replacement installed as
    ``engine.step`` (as the NaN-guard tests do) is used.
    """
    x, y = check_batch(spec, x, y)
    for _ in range(steps):
        _, grad = loss_and_grad_unchecked(spec, params, x, y)
        params, velocity = step(params, velocity, grad, config)
    return params, velocity


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
# row by _row_floats (4 MiB).  An engine block holds as many repeats as fit
# with the rows of every flag, but never fewer than one.
_STACK_FLOATS = 1 << 19


def _row_floats(spec: ModelSpec, batch_size: int, probe_size: int) -> int:
    """Float64 values one stacked row holds: parameters, batch, and activations on batch and probe."""
    width = (spec.hidden_dim or 0) + spec.num_classes
    return parameter_count(spec) + batch_size * spec.input_dim + (batch_size + probe_size) * width


def repeats_per_block(spec: ModelSpec, batch_size: int, probe_size: int, n_flags: int) -> int:
    """Repeats the engine runs as one stack, 2 rows per repeat and flag (a ``_two_phase`` pair is a repeat)."""
    return max(1, _STACK_FLOATS // (2 * n_flags * _row_floats(spec, batch_size, probe_size)))


def _two_phase(spec, params, first, second, switches, flags, config, probe_x):
    """Both phases of the protocol for pairs of rows: the one trainer of the engine and the curve.

    ``params`` holds pairs of rows (2i, 2i + 1), and ``first`` and ``second``
    an ``(x, y)`` of one batch per row.  The first phase trains every row
    from zero velocity as one trajectory.  At each step count s of the
    increasing ``switches`` the second phase's first gradient is taken once
    on the pair rows; each flag's velocity rule and that first step give
    the rows (pair, flag, member), which train on their second batches for
    the other s - 1 steps.  Yields per switch the first-phase (parameters,
    velocities), the end parameters, their probabilities on ``probe_x`` and
    the shared first gradient.  Every row is computed as it would be alone;
    raises NanGuardError if one stops being finite.
    """
    n_flags, size = len(flags), params.shape[1]

    def by_flag(a):  # rows (pair, member) -> (pair, flag, member)
        return np.repeat(a.reshape(-1, 2, *a.shape[1:]), n_flags, axis=0).reshape(-1, *a.shape[1:])

    def switched(velocity):  # as by_flag, each flag's rows under its velocity rule
        pairs = velocity.reshape(-1, 1, 2, size)
        rules = [causal_break(pairs) if flag == "break" else pairs for flag in flags]
        return np.concatenate(rules, axis=1).reshape(-1, size)

    second = check_batch(spec, *second)
    second_by_flag = [by_flag(a) for a in second]
    velocity, done = np.zeros_like(params), 0
    for s in switches:
        params, velocity = _train(spec, params, velocity, *first, s - done, config)
        done = s
        _, grad = loss_and_grad_unchecked(spec, params, *second)
        end, end_velocity = step(by_flag(params), switched(velocity), by_flag(grad), config)
        end, _ = _train(spec, end, end_velocity, *second_by_flag, s - 1, config)
        yield (params, velocity), end, forward(spec, end, probe_x), grad


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
    (switch,) = _two_phase(
        spec,
        np.tile(base_params, (2 * len(repeats), 1)),
        (np.stack([x for pair in zip(x_a, x_ap) for x in pair]), np.repeat(y_a, 2, axis=0)),
        (np.repeat(x_b, 2, axis=0), np.repeat(y_b, 2, axis=0)),
        (regime.k,),
        flags,
        _optimizer_config(regime, settings, lr_scale),
        probe_x,
    )
    (params_mid, velocity_mid), params_end, preds_end, first_b_grad = switch
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
            # the first B gradient of the A row, shared by the flags, is taken at the mid-time parameters
            alignment = diag.cosine(first_b_grad[2 * r], velocity_mid[2 * r]) if flag == "no" else None
            delta = {kind: d2[kind] - d1[kind] for kind in KINDS}
            record = BackflowRecord(repeat_id, seed, flag == "break", dict(d1), d2, delta, alignment)
            mid = slice(2 * r, 2 * r + 2)
            by_flag[flag] = Repeat(record, params_mid[mid], velocity_mid[mid], params_end[2 * b : 2 * b + 2])
        runs.append(by_flag)
    return runs


def guard_rule(shared, alone, units) -> list[tuple]:
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


def guarded_block(base_params, spec, regime, flags, dataset, probe_x, settings, repeats) -> list[dict]:
    """A block of (seed, repeat_id) ``repeats`` for every flag in ``flags`` under ``guard_rule``.

    The block is one engine run, and its units are the (repeat, flag)
    pairs; a unit that fails twice gets an error record.  So every record
    and state equals that of its (repeat, flag) run alone.  Returns one
    ``{flag: Repeat}`` per repeat.
    """
    engine = partial(_run_repeat, base_params, spec, regime, dataset, probe_x, settings)
    units = [(repeat, flag) for repeat in repeats for flag in flags]
    outcomes = guard_rule(
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


def run_noncommute_curve(
    base_params: np.ndarray,
    spec: ModelSpec,
    regime: Regime,
    flags: tuple[str, ...],
    dataset: Dataset,
    probe_x: np.ndarray,
    seed: int,
    *,
    k_max: int,
    settings: ProtocolSettings = ProtocolSettings(),
    lr_scale: float = 1.0,
) -> dict[str, list[tuple[int, float]]]:
    """Order sensitivity: TV on the probe rows ``probe_x`` between A-then-B and B-then-A endpoints vs k.

    Both orders start from the same base parameters and share the repeat's
    batch plan and augmentation draws.  They are one pair of rows of
    ``_two_phase``, switched after every k in 1..k_max, so one first-phase
    trajectory serves every k and every flag in ``flags``.  Under ``break``
    the buffers are zeroed at the switch point in both orders.  Returns
    ``{flag: [(k, tv), ...]}``; every value is computed as in a run of its k
    and flag alone.  Raises NanGuardError if either order stops being finite.
    """
    if k_max < 1:
        return {flag: [] for flag in flags}
    x_a, _, x_b, y_a, y_b = _repeat_batches(regime, dataset, seed, settings.batch_size, contrast=False)
    first = np.stack([x_a, x_b]), np.stack([y_a, y_b])  # row 0 runs A then B, row 1 runs B then A
    switches = _two_phase(
        spec,
        np.stack([base_params, base_params]),
        first,
        tuple(a[::-1] for a in first),  # each order's second phase is the other's first
        range(1, k_max + 1),
        flags,
        _optimizer_config(regime, settings, lr_scale),
        probe_x,
    )
    # one stack per k, its rows ordered (flag, order)
    tv = np.stack([div_avg(("tv",), probs[0::2], probs[1::2])["tv"] for _, _, probs, _ in switches])
    return {flag: [(k, float(v)) for k, v in enumerate(tv[:, i], start=1)] for i, flag in enumerate(flags)}


_PRETRAIN_OPTIMIZER = OptimizerConfig(lr=0.1, momentum=0.9, weight_decay=5e-4, clip_norm=1.0)


def pretrain(
    spec: ModelSpec,
    params: np.ndarray,
    dataset: Dataset,
    *,
    passes: int,
    batch_size: int,
    seed: int = 0,
) -> np.ndarray:
    """Short base-training run over the train split (the "early" stage), as a one-row stack."""
    rng = np.random.default_rng(seed)
    params, velocity = params[None], np.zeros((1, params.size))
    for _ in range(passes):
        order = rng.permutation(dataset.train_indices)
        for start in range(0, len(order) - batch_size + 1, batch_size):
            batch = order[start : start + batch_size]
            params, velocity = _train(
                spec, params, velocity, dataset.features[batch], dataset.labels[batch], 1, _PRETRAIN_OPTIMIZER
            )
    return params[0]
