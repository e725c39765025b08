"""Finite classical two-time processes and their memory structure.

A process here is a "comb": a prior over a finite latent space, one latent
transition kernel per instrument label, and an observation kernel pushing
latent states to a finite observable space.  Kernels are column-stochastic
matrices (column j = the distribution of the target given source state j),
so composition is plain matrix multiplication and distributions are column
vectors acted on from the left.

The module supports the two constructions used by the verification suite:

* processes where the second step factors through the observable by
  construction, so one fixed channel maps every one-step observable law to
  the two-step law (no distinguishability can flow back); and
* product-space processes (parameter component x buffer component) with a
  break kernel that resets the buffer, together with a lifting kernel from
  observables back to latent states, which makes the same factorization
  explicit after the break.

A comb keeps its instruments as one labelled (L, S, S) stack, validated in
one pass when the comb is built; ``Comb.kernel`` hands out a validated
``Kernel`` of one label.  A space is a name and a size; a comb's spaces are
its observation kernel's.

The oracle's unit of work is a ``ProcessStack``: processes that share their
state and observable sizes, labels, instrument pairs and second label, as
stacked arrays (G processes of L labels hold a (G, L, S, S) instrument
stack).  The chunk makers ``random_factoring_stacks`` and
``random_break_stacks`` draw ``_CHUNK`` processes at a time, each with the
generator calls of the one-process makers in their order, and build one
stack per size: each ``link`` product is one stacked matrix product in the
same association, and each role (prior, instruments, observation, every
product, the channel) is validated in one pass over the stack, a failure
naming the first bad process.  ``random_factoring_comb`` and
``random_break_comb`` are their one-process case.  The kernels that depend
only on their sizes (buffer reset, parameter readout and lifting) are built
once and shared read-only.

``verify_no_backflow`` takes stacks only; ``ProcessStack.of`` stacks combs
of one shape, and a single process is its one-comb stack.  Every law step
of a stack, and the channel's prediction, is one stacked matrix-vector
product, bit for bit the one-process, one-label path; one divergence call
then covers both law steps of every pair, kind and process.
``search_backflow_witness`` is the one-process case of the same helpers.
One tolerance, ``ORACLE_TOL``, serves the channel check and ``backflow
oracle``'s bound, and the random makers' sizes and labels are fixed.
Brute-force checks against path enumeration live in the test suite.
"""

import functools
import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergences import KINDS, div_avg

_STOCH_TOL = 1e-12


@dataclass(frozen=True)
class Space:
    """A named finite space of ``size`` states."""

    name: str
    size: int


def _check_stochastic(matrix: np.ndarray, what: str) -> None:
    """Raise unless ``matrix``, or each matrix of a stack, is finite, non-negative and column-stochastic.

    One pass per condition over the whole stack; the comparisons are written
    so that NaN fails them.  ``initial`` gives an empty matrix a verdict: a
    matrix with no columns (or a stack of none) passes, an empty column
    fails its sum.
    """
    if matrix.ndim < 2:
        raise ValueError(f"{what}: matrix must be at least 2-D")
    lowest = matrix.min(initial=0.0)
    if not lowest >= -_STOCH_TOL:
        raise ValueError(f"{what}: negative entries" if lowest < 0 else f"{what}: non-finite entries")
    worst = float(np.abs(matrix.sum(axis=-2) - 1.0).max(initial=0.0))
    if not worst <= _STOCH_TOL:
        raise ValueError(f"{what}: columns do not sum to 1 (max deviation {worst:.3e})")


def _check_stack(stack: np.ndarray, what: str, names: Iterable[str]) -> None:
    """``_check_stochastic`` of a whole stack of matrices in one pass.

    On a failure the matrices are checked in turn, each under its name in
    ``names`` (one per matrix, read only then), so that the error names the
    first bad one.
    """
    try:
        _check_stochastic(stack, what)
    except ValueError:
        for name, matrix in zip(names, stack.reshape(-1, *stack.shape[-2:])):
            _check_stochastic(matrix, name)
        raise


@dataclass(frozen=True)
class Kernel:
    """Column-stochastic map between finite spaces."""

    matrix: np.ndarray
    from_space: Space
    to_space: Space

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.to_space.size, self.from_space.size):
            raise ValueError(
                f"kernel shape {m.shape} does not match "
                f"{self.from_space.name}->{self.to_space.name} "
                f"({self.to_space.size}x{self.from_space.size})"
            )
        _check_stochastic(m, f"kernel {self.from_space.name}->{self.to_space.name}")


def link(k2: Kernel, k1: Kernel) -> Kernel:
    """Compose kernels: first k1, then k2."""
    if k1.to_space != k2.from_space:
        raise ValueError(
            f"space mismatch: {k1.to_space.name} (output of first) vs "
            f"{k2.from_space.name} (input of second)"
        )
    return Kernel(k2.matrix @ k1.matrix, k1.from_space, k2.to_space)


def _label_index(labels: tuple[str, ...], label: str) -> int:
    """Row of ``label`` in an instrument stack of ``labels``."""
    try:
        return labels.index(label)
    except ValueError:
        raise KeyError(f"unknown instrument label {label!r}") from None


@dataclass(frozen=True)
class Comb:
    """Two-time process: prior, labelled latent instrument kernels, observation.

    ``instruments[i]`` is the (S, S) latent kernel of ``labels[i]`` on the
    state space that ``observation`` reads.  ``break_kernel``, when present,
    is the latent map applied between the first and second instrument to
    sever the memory channel (for product spaces: keep the parameter
    component, reset the buffer component).
    """

    prior: np.ndarray
    labels: tuple[str, ...]
    instruments: np.ndarray
    observation: Kernel
    break_kernel: Kernel | None = None

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=np.float64)
        object.__setattr__(self, "prior", prior)
        if prior.shape != (self.state_space.size,):
            raise ValueError("prior length does not match state space")
        _check_stochastic(prior[:, None], "prior")
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            first = next(lbl for i, lbl in enumerate(labels) if lbl in labels[:i])
            raise ValueError(f"duplicate instrument label {first!r}")
        instruments = np.asarray(self.instruments, dtype=np.float64)
        object.__setattr__(self, "instruments", instruments)
        size = self.state_space.size
        if instruments.shape != (len(labels), size, size):
            raise ValueError(
                f"instrument stack shape {instruments.shape} does not match "
                f"{len(labels)} labels on {self.state_space.name} ({size}x{size})"
            )
        _check_stack(instruments, "instruments", (f"instrument {label!r}" for label in labels))
        brk, state = self.break_kernel, self.state_space
        if brk is not None and (brk.from_space, brk.to_space) != (state, state):
            raise ValueError("break kernel does not act on the state space")

    @property
    def state_space(self) -> Space:
        return self.observation.from_space

    @property
    def obs_space(self) -> Space:
        return self.observation.to_space

    def kernel(self, label: str) -> Kernel:
        """The instrument of ``label`` as a validated ``Kernel`` on the state space."""
        return Kernel(self.instruments[_label_index(self.labels, label)], self.state_space, self.state_space)


class ProcessStack(NamedTuple):
    """Processes that share their sizes, labels, instrument pairs and second label, as stacked arrays.

    Process g has the prior ``prior[g]``, the (S, S) instrument
    ``instruments[g, i]`` of ``labels[i]``, the (C, S) observation
    ``observation[g]``, the break kernel ``break_kernel[g]`` (None: the
    processes have none) and the (C, C) channel ``lambda_b[g]`` (None: the
    witness search, which has no channel).  A kernel that every process
    shares may be one (1, ...) matrix.  ``index[g]`` is the process's
    position in its input.  A named tuple, not a dataclass: the oracle's
    set-up time pays for building each dataclass at import.
    """

    index: Sequence[int]
    prior: np.ndarray
    labels: tuple[str, ...]
    instruments: np.ndarray
    observation: np.ndarray
    break_kernel: np.ndarray | None
    lambda_b: np.ndarray | None
    pairs: tuple[tuple[str, str], ...]
    b_label: str

    @classmethod
    def of(
        cls,
        combs: list[Comb],
        pairs: Iterable[tuple[str, str]],
        b_label: str,
        lambdas: list[Kernel] | None,
    ) -> "ProcessStack":
        """The stack of ``combs``, which must share their labels and sizes, with one channel each in ``lambdas``."""
        shapes = [(comb.labels, comb.state_space.size, comb.obs_space.size) for comb in combs]
        for g, shape in enumerate(shapes):
            if shape != shapes[0]:
                raise ValueError(f"comb {g}: labels and sizes {shape} differ from comb 0's {shapes[0]}")
        if lambdas is not None and len(lambdas) != len(combs):
            raise ValueError(f"{len(combs)} combs need {len(combs)} channels, got {len(lambdas)}")
        breaks = [comb.break_kernel for comb in combs]
        return cls(
            index=range(len(combs)),
            prior=np.array([comb.prior for comb in combs]),
            labels=combs[0].labels,
            instruments=np.array([comb.instruments for comb in combs]),
            observation=np.array([comb.observation.matrix for comb in combs]),
            break_kernel=None if any(k is None for k in breaks) else np.array([k.matrix for k in breaks]),
            lambda_b=None if lambdas is None else np.array([k.matrix for k in lambdas]),
            pairs=tuple(map(tuple, pairs)),
            b_label=b_label,
        )


def _apply(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix @ row`` for every row of ``rows`` (..., n), as one stacked matvec.

    ``matrix`` may itself be a stack broadcast against the rows.  The stacked
    matvec evaluates each row as the one-row product does, bit for bit; the
    gemm form ``rows @ matrix.T`` sums in another order.
    """
    return (matrix @ rows[..., None])[..., 0]


def _renorm(rows: np.ndarray) -> np.ndarray:
    """Each row over its own sum: validated kernels on a validated prior keep it within rounding of 1."""
    return rows / rows.sum(axis=-1, keepdims=True)


def _laws(stack: ProcessStack, first_labels: list[str], break_before_second: bool) -> tuple[np.ndarray, np.ndarray]:
    """One- and two-step observable laws of every process and first label, as (G, L, C) stacks.

    Entry [g, i] holds the laws of the pair (``first_labels[i]``,
    ``stack.b_label``) in process g.
    """
    labels, instruments = stack.labels, stack.instruments
    rows = [_label_index(labels, lbl) for lbl in first_labels]
    pi1 = _apply(instruments[:, rows], stack.prior[:, None])
    mid = pi1
    if break_before_second:
        if stack.break_kernel is None:
            raise ValueError("comb has no configured break kernel")
        mid = _apply(stack.break_kernel[:, None], pi1)
    pi2 = _apply(instruments[:, _label_index(labels, stack.b_label), None], mid)
    observation = stack.observation[:, None]
    return _renorm(_apply(observation, pi1)), _renorm(_apply(observation, pi2))


def channel_from_break(comb: Comb, b_label: str, lifting: Kernel) -> Kernel:
    """Observable channel O . (K_B . break) . R induced by the broken process.

    ``lifting`` maps observables back to latent states; with a valid lifting
    the returned channel reproduces every post-B observable law from the
    corresponding mid-time observable law.
    """
    if comb.break_kernel is None:
        raise ValueError("comb has no configured break kernel")
    if lifting.from_space != comb.obs_space or lifting.to_space != comb.state_space:
        raise ValueError("lifting kernel must map observables to latent states")
    broken_b = link(comb.kernel(b_label), comb.break_kernel)
    return link(comb.observation, link(broken_b, lifting))


def _pair_labels(instrument_pairs: Iterable[tuple[str, str]]) -> list[str]:
    return sorted({lbl for pair in instrument_pairs for lbl in pair})


def _pair_deltas(
    labels: list[str],
    phi1: np.ndarray,
    phi2: np.ndarray,
    instrument_pairs: tuple[tuple[str, str], ...],
    kinds: tuple[str, ...],
) -> np.ndarray:
    """D2 - D1 for every process, pair and kind, as a (G, pairs, kinds) array.

    ``phi1`` and ``phi2`` are (G, L, C) law stacks whose rows follow
    ``labels``.  One ``div_avg`` covers both law steps of every pair of every
    process, stacked as (G, 2 * pairs, 1, C) one-row matrices whose averages
    are the rows' own divergences, bit for bit what ``div_row`` gives for
    each pair and step.
    """
    n = len(instrument_pairs)
    diffs = np.empty((len(phi1), n, len(kinds)))
    if not n:
        return diffs
    row = {lbl: i for i, lbl in enumerate(labels)}
    firsts = [row[a] for a, _ in instrument_pairs]
    seconds = [row[a_prime] for _, a_prime in instrument_pairs]
    values = div_avg(
        tuple(kinds),
        np.concatenate([phi1[:, firsts], phi2[:, firsts]], axis=1)[:, :, None, :],
        np.concatenate([phi1[:, seconds], phi2[:, seconds]], axis=1)[:, :, None, :],
    )
    for k, kind in enumerate(kinds):
        diffs[:, :, k] = values[kind][:, n:] - values[kind][:, :n]
    return diffs


class StackReport(NamedTuple):
    """The verdict on every process of a ``ProcessStack``, as arrays along its first axis.

    Process g's channel holds where ``applicable[g]``, within
    ``omc_residual[g]`` in total variation; ``deltas[g, p, k]`` is D2 - D1
    of ``pairs[p]`` and kind k, and ``max_delta[g]`` the largest of them.  A
    process whose channel fails has NaN deltas and max delta.
    """

    index: Sequence[int]
    applicable: np.ndarray
    omc_residual: np.ndarray
    max_delta: np.ndarray
    deltas: np.ndarray


# processes drawn at a time: bounds the draws and stacks held alive
_CHUNK = 1024

# the largest channel residual (total variation) at which the bound applies,
# and the largest back-flow delta the oracle forgives
ORACLE_TOL = 1e-10


def verify_no_backflow(
    stacks: Iterable[ProcessStack],
    kinds: tuple[str, ...] = KINDS,
    break_before_second: bool = False,
) -> list[StackReport]:
    """Check the single-channel condition and the no-back-flow bound of every process of each stack.

    First verifies that a process's ``lambda_b`` maps each one-step law to
    the matching two-step law (within ``ORACLE_TOL`` in total variation) for
    every instrument appearing in the pairs; if not, the process is not
    applicable.  Otherwise reports the largest D2 - D1 over all pairs and
    divergence kinds.  Returns one ``StackReport`` per stack, in input
    order, checking each stack as it is read.
    """
    return [_verify_stack(stack, kinds, break_before_second) for stack in stacks]


def _verify_stack(stack: ProcessStack, kinds: tuple[str, ...], break_before_second: bool) -> StackReport:
    """The verdict on every process of ``stack``: the oracle's one law, residual and delta core."""
    labels = _pair_labels(stack.pairs)
    phi1, phi2 = _laws(stack, labels, break_before_second)
    predicted = _renorm(_apply(stack.lambda_b[:, None], phi1))
    residual = (0.5 * np.abs(predicted - phi2).sum(axis=-1)).max(axis=-1, initial=0.0)
    # deltas only where the channel holds: the bound says nothing elsewhere
    applicable = ~(residual > ORACLE_TOL)
    deltas = np.full((len(residual), len(stack.pairs), len(kinds)), np.nan)
    deltas[applicable] = _pair_deltas(labels, phi1[applicable], phi2[applicable], stack.pairs, kinds)
    max_delta = np.where(applicable, deltas.max(axis=(1, 2), initial=-np.inf), np.nan)
    return StackReport(stack.index, applicable, residual, max_delta, deltas)


def search_backflow_witness(
    comb: Comb,
    instrument_pairs: list[tuple[str, str]],
    b_label: str,
    kinds: tuple[str, ...] = KINDS,
    break_before_second: bool = False,
) -> tuple[tuple[str, str], str, float]:
    """Largest D2 - D1 over the supplied pairs; positive values exhibit memory."""
    if not instrument_pairs:
        raise ValueError("search_backflow_witness needs at least one instrument pair")
    best = (instrument_pairs[0], kinds[0], -np.inf)
    stack = ProcessStack.of([comb], instrument_pairs, b_label, None)
    labels = _pair_labels(stack.pairs)
    [deltas] = _pair_deltas(labels, *_laws(stack, labels, break_before_second), stack.pairs, kinds).tolist()
    for (a, a_prime), row in zip(instrument_pairs, deltas):
        for kind, delta in zip(kinds, row):
            if delta > best[2]:
                best = ((a, a_prime), kind, delta)
    return best


# ---------------------------------------------------------------------------
# Constructors for product spaces, breaks, and randomized verification runs.
# The kernels that depend only on their sizes are built once, with read-only
# matrices, and shared by every process of those sizes.


def product_state_space(n_theta: int, n_upsilon: int) -> Space:
    """Latent space of (parameter, buffer) pairs, parameter-major ordering."""
    return Space(f"S({n_theta}x{n_upsilon})", n_theta * n_upsilon)


def _theta_space(n_theta: int) -> Space:
    return Space(f"Theta({n_theta})", n_theta)


def _frozen_kernel(m: np.ndarray, from_space: Space, to_space: Space) -> Kernel:
    m.flags.writeable = False
    return Kernel(m, from_space, to_space)


@functools.cache
def buffer_reset_kernel(n_theta: int, n_upsilon: int) -> Kernel:
    """Deterministic map (theta, upsilon) -> (theta, 0) on a product space."""
    space = product_state_space(n_theta, n_upsilon)
    m = np.zeros((space.size, space.size))
    for i in range(n_theta):
        for j in range(n_upsilon):
            m[i * n_upsilon + 0, i * n_upsilon + j] = 1.0
    return _frozen_kernel(m, space, space)


@functools.cache
def theta_readout_kernel(n_theta: int, n_upsilon: int) -> Kernel:
    """Observation that reveals the parameter component exactly."""
    state = product_state_space(n_theta, n_upsilon)
    m = np.zeros((n_theta, state.size))
    for i in range(n_theta):
        for j in range(n_upsilon):
            m[i, i * n_upsilon + j] = 1.0
    return _frozen_kernel(m, state, _theta_space(n_theta))


@functools.cache
def theta_lifting_kernel(n_theta: int, n_upsilon: int) -> Kernel:
    """Lifting theta -> (theta, 0); right inverse of the parameter readout."""
    state = product_state_space(n_theta, n_upsilon)
    m = np.zeros((state.size, n_theta))
    for i in range(n_theta):
        m[i * n_upsilon + 0, i] = 1.0
    return _frozen_kernel(m, _theta_space(n_theta), state)


def _normalized(raw: np.ndarray, axis: int) -> np.ndarray:
    """``raw + 1e-3`` over its sums along ``axis``, in place: the random makers' distributions from uniform draws."""
    raw += 1e-3
    raw /= raw.sum(axis=axis, keepdims=True)
    return raw


def random_stochastic(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """A random column-stochastic (n_to, n_from) matrix, or a stack of them for a longer shape.

    A (L, n_to, n_from) stack reads the generator as L (n_to, n_from) draws
    in turn would, and gives their matrices bit for bit.
    """
    return _normalized(rng.random(shape), -2)


def random_prior(rng: np.random.Generator, n: int) -> np.ndarray:
    return _normalized(rng.random(n), -1)


B_LABEL = "B"

# the random makers' instrument labels: five first instruments, then B; and
# their pairs, ``instrument_pairs`` of a random comb
_RANDOM_LABELS = ("I0", "I1", "I2", "I3", "I4", B_LABEL)
_RANDOM_PAIRS = tuple(itertools.combinations(_RANDOM_LABELS[:-1], 2))


def _check_processes(index: Sequence[int], what: str, stack: np.ndarray) -> None:
    """Validate one role of every process of a stack in one pass; a failure names the first bad process."""
    _check_stack(stack, what, (f"process {i}: {what}" for i in index))


def _check_draws(index: Sequence[int], prior: np.ndarray, instruments: np.ndarray) -> None:
    """Validate the priors and instrument stacks of a chunk maker's processes, one pass each, as ``Comb`` does."""
    _check_processes(index, "prior", prior[..., None])
    names = (f"process {i}: instrument {label!r}" for i in index for label in _RANDOM_LABELS)
    _check_stack(instruments, "instruments", names)


def _draw_factoring(rng: np.random.Generator) -> tuple[tuple[int, int], tuple[np.ndarray, ...]]:
    """Sizes and raw draws of one factoring process: observation, lifting, first instruments, prior."""
    n_s = int(rng.integers(2, 7))
    n_o = int(rng.integers(2, 5))
    first = (len(_RANDOM_LABELS) - 1, n_s, n_s)
    return (n_s, n_o), (rng.random((n_o, n_s)), rng.random((n_s, n_o)), rng.random(first), rng.random(n_s))


def _factoring_stack(_sizes, index, observation, lift, first, prior) -> ProcessStack:
    """The stack of factoring processes from their stacked raw draws, each role validated in one pass."""
    observation, lift, first = (_normalized(m, -2) for m in (observation, lift, first))
    prior = _normalized(prior, -1)
    _check_processes(index, "observation", observation)
    _check_processes(index, "lifting", lift)
    # B is the product link(lift, observation) forms, validated with the stack
    instruments = np.concatenate([first, (lift @ observation)[:, None]], axis=1)
    _check_draws(index, prior, instruments)
    lambda_b = observation @ lift  # link(observation, lift)
    _check_processes(index, "lambda_b", lambda_b)
    return ProcessStack(index, prior, _RANDOM_LABELS, instruments, observation, None, lambda_b, _RANDOM_PAIRS, B_LABEL)


def _draw_break(rng: np.random.Generator) -> tuple[tuple[int, int], tuple[np.ndarray, ...]]:
    """Sizes and raw draws of one break process: instruments, prior."""
    n_t = int(rng.integers(2, 5))
    n_u = int(rng.integers(2, 4))
    size = n_t * n_u
    return (n_t, n_u), (rng.random((len(_RANDOM_LABELS), size, size)), rng.random(size))


def _break_stack(sizes, index, instruments, prior) -> ProcessStack:
    """The stack of break processes from their stacked raw draws, each role validated in one pass."""
    instruments, prior = _normalized(instruments, -2), _normalized(prior, -1)
    _check_draws(index, prior, instruments)
    reset, readout, lifting = (
        make(*sizes).matrix for make in (buffer_reset_kernel, theta_readout_kernel, theta_lifting_kernel)
    )
    # channel_from_break's products, B being the last label: O . ((K_B . break) . R)
    broken_b = instruments[:, -1] @ reset
    lifted = broken_b @ lifting
    lambda_b = readout @ lifted
    for what, matrices in (("broken B", broken_b), ("lifted B", lifted), ("lambda_b", lambda_b)):
        _check_processes(index, what, matrices)
    return ProcessStack(
        index, prior, _RANDOM_LABELS, instruments, readout[None], reset[None], lambda_b, _RANDOM_PAIRS, B_LABEL
    )


def _random_stacks(rng: np.random.Generator, count: int, draw, build) -> Iterator[ProcessStack]:
    """``count`` processes of ``draw``, drawn ``_CHUNK`` at a time, as one ``build`` stack per size and chunk.

    A chunk's stacks come in the draw order of their first processes;
    ``index`` counts the processes from 0 in draw order.
    """
    for start in range(0, count, _CHUNK):
        groups: dict[tuple[int, int], list] = {}
        for i in range(start, min(start + _CHUNK, count)):
            sizes, raws = draw(rng)
            groups.setdefault(sizes, []).append((i, *raws))
        for sizes, members in groups.items():
            index, *raws = zip(*members)
            yield build(sizes, index, *map(np.array, raws))


def random_factoring_stacks(rng: np.random.Generator, count: int) -> Iterator[ProcessStack]:
    """``count`` processes of ``random_factoring_comb``, as stacks, drawn only as they are read.

    Reads the generator as ``count`` calls of ``random_factoring_comb`` would
    and gives their matrices bit for bit.
    """
    return _random_stacks(rng, count, _draw_factoring, _factoring_stack)


def random_break_stacks(rng: np.random.Generator, count: int) -> Iterator[ProcessStack]:
    """``count`` processes of ``random_break_comb``, as stacks, drawn only as they are read.

    Reads the generator as ``count`` calls of ``random_break_comb`` would
    and gives their matrices bit for bit.
    """
    return _random_stacks(rng, count, _draw_break, _break_stack)


def random_factoring_comb(rng: np.random.Generator) -> tuple[Comb, str, Kernel]:
    """Random comb whose second step factors through the observable.

    The kernel for the second instrument is built as (lift back from the
    observable) after (observe), so a single observable channel reproduces
    the two-step law for every first instrument by construction.  The
    one-process case of ``random_factoring_stacks``.
    """
    [stack] = random_factoring_stacks(rng, 1)
    n_o, n_s = stack.observation.shape[1:]
    state, obs = Space(f"S{n_s}", n_s), Space(f"O{n_o}", n_o)
    comb = Comb(stack.prior[0], stack.labels, stack.instruments[0], Kernel(stack.observation[0], state, obs))
    return comb, B_LABEL, Kernel(stack.lambda_b[0], obs, obs)


def random_break_comb(rng: np.random.Generator) -> tuple[Comb, str, Kernel]:
    """Random product-space comb where the buffer reset restores the channel.

    The observation reveals the parameter component, the break resets the
    buffer, and the lifting sends an observed parameter to (parameter, 0);
    the observable channel O . (K_B . break) . R then holds exactly for any
    second-step kernel.  The one-process case of ``random_break_stacks``.
    """
    [stack] = random_break_stacks(rng, 1)
    n_t, size = stack.observation.shape[1:]
    n_u = size // n_t
    observation = theta_readout_kernel(n_t, n_u)
    comb = Comb(stack.prior[0], stack.labels, stack.instruments[0], observation, buffer_reset_kernel(n_t, n_u))
    return comb, B_LABEL, Kernel(stack.lambda_b[0], comb.obs_space, comb.obs_space)


def instrument_pairs(comb: Comb) -> list[tuple[str, str]]:
    """Every unordered pair of the comb's first instruments (its labels but B), in sorted order."""
    labels = sorted(lbl for lbl in comb.labels if lbl != B_LABEL)
    return [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]


def memoryful_demo_comb() -> tuple[Comb, tuple[str, str], str]:
    """Hand-built four-state process with strictly positive back-flow.

    The buffer stores which first instrument ran; both instruments induce the
    same parameter law, a flip with probability 0.3 (so the mid-time
    observables coincide), but the second step routes on the buffer,
    separating the branches only after it acts.  Applying the buffer reset
    provably removes the effect.
    """
    n_t, n_u = 2, 2
    flip_prob = 0.3
    state = product_state_space(n_t, n_u)
    observation = theta_readout_kernel(n_t, n_u)

    def first_step(buffer_value: int) -> np.ndarray:
        m = np.zeros((state.size, state.size))
        for i in range(n_t):
            for j in range(n_u):
                src = i * n_u + j
                m[i * n_u + buffer_value, src] += 1.0 - flip_prob
                m[(1 - i) * n_u + buffer_value, src] += flip_prob
        return m

    b_matrix = np.zeros((state.size, state.size))
    for i in range(n_t):
        # buffer 0: keep the parameter; buffer 1: flip it.
        b_matrix[i * n_u + 0, i * n_u + 0] = 1.0
        b_matrix[(1 - i) * n_u + 1, i * n_u + 1] = 1.0

    prior = np.zeros(state.size)
    prior[0] = 1.0
    comb = Comb(
        prior=prior,
        labels=("A", "Aprime", B_LABEL),
        instruments=np.array([first_step(0), first_step(1), b_matrix]),
        observation=observation,
        break_kernel=buffer_reset_kernel(n_t, n_u),
    )
    return comb, ("A", "Aprime"), B_LABEL
