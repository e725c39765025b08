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
``Kernel`` of one label.  The random makers draw a process's same-shape
matrices with one generator call, which reads the stream as the
per-matrix calls would, and the kernels that depend only on their sizes
(buffer reset, parameter readout and lifting) are built once and shared
read-only.  A space is a name and a size; a comb's spaces are its
observation kernel's.

``verify_no_backflow`` takes many processes and checks them in groups: it
reads its input 128 at a time and stacks each chunk's processes that share
state and observable sizes, instrument pairs and second label.  A group of
G processes and L labels has its kernels as one (G, L, S, S) stack, indexed
from the combs' own stacks; every later law step, and the channel's
prediction, is one stacked matrix-vector product, bit for bit the
one-process, one-label path.  One divergence call then covers both law
steps of every pair, kind and process of the group.
``search_backflow_witness`` and a one-process check are the G = 1 case of
the same helpers.  One tolerance, ``ORACLE_TOL``, serves the channel check
and ``backflow oracle``'s bound, and the random makers' sizes and labels
are fixed.  Every kernel, including each ``link`` product, every
instrument stack and every prior is validated when built.  Brute-force
checks against path enumeration live in the test suite.
"""

import functools
import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import itemgetter

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
        try:
            _check_stochastic(instruments, "instruments")
        except ValueError:
            # name the first bad label: its own check raises
            for label, matrix in zip(labels, instruments):
                _check_stochastic(matrix, f"instrument {label!r}")
            raise
        brk, state = self.break_kernel, self.state_space
        if brk is not None and (brk.from_space, brk.to_space) != (state, state):
            raise ValueError("break kernel does not act on the state space")

    @property
    def state_space(self) -> Space:
        return self.observation.from_space

    @property
    def obs_space(self) -> Space:
        return self.observation.to_space

    def index(self, label: str) -> int:
        """Row of ``label`` in the instrument stack."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown instrument label {label!r}") from None

    def kernel(self, label: str) -> Kernel:
        """The instrument of ``label`` as a validated ``Kernel`` on the state space."""
        return Kernel(self.instruments[self.index(label)], self.state_space, self.state_space)


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


def _stack(matrices: list[np.ndarray]) -> np.ndarray:
    """One (n, m) matrix per comb as a (G, 1, n, m) stack, broadcast over label rows."""
    return np.array(matrices)[:, None]


def _laws(
    combs: list[Comb], first_labels: list[str], second_label: str, break_before_second: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One- and two-step observable laws of every comb and first label, as (G, L, C) stacks.

    Entry [g, i] holds the laws of the pair (``first_labels[i]``,
    ``second_label``) in ``combs[g]``; the combs share their state and
    observable sizes.
    """
    size = combs[0].state_space.size
    # reshape gives no labels the (G, 0, S, S) stack their empty product needs
    kernels = np.array([c.instruments[c.index(lbl)] for c in combs for lbl in first_labels])
    kernels = kernels.reshape(len(combs), -1, size, size)
    pi1 = _apply(kernels, np.array([c.prior for c in combs])[:, None])
    mid = pi1
    if break_before_second:
        if any(c.break_kernel is None for c in combs):
            raise ValueError("comb has no configured break kernel")
        mid = _apply(_stack([c.break_kernel.matrix for c in combs]), pi1)
    pi2 = _apply(_stack([c.instruments[c.index(second_label)] for c in combs]), mid)
    observation = _stack([c.observation.matrix for c in combs])
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


def _pair_labels(instrument_pairs: list[tuple[str, str]]) -> list[str]:
    return sorted({lbl for pair in instrument_pairs for lbl in pair})


def _pair_deltas(
    labels: list[str],
    phi1: np.ndarray,
    phi2: np.ndarray,
    instrument_pairs: list[tuple[str, str]],
    kinds: tuple[str, ...],
) -> list[list[tuple[str, str, str, float]]]:
    """D2 - D1 for every (pair, kind) of every process, pair-major and kind-minor.

    ``phi1`` and ``phi2`` are (G, L, C) law stacks whose rows follow
    ``labels``; the result holds one list per process.  One ``div_avg`` covers
    both law steps of every pair of every process, stacked as (G, 2 * pairs,
    1, C) one-row matrices whose averages are the rows' own divergences, bit
    for bit what ``div_row`` gives for each pair and step.
    """
    n = len(instrument_pairs)
    if not n:
        return [[] for _ in phi1]
    row = {lbl: i for i, lbl in enumerate(labels)}
    firsts = [row[a] for a, _ in instrument_pairs]
    seconds = [row[a_prime] for _, a_prime in instrument_pairs]
    values = div_avg(
        tuple(kinds),
        np.concatenate([phi1[:, firsts], phi2[:, firsts]], axis=1)[:, :, None, :],
        np.concatenate([phi1[:, seconds], phi2[:, seconds]], axis=1)[:, :, None, :],
    )
    diffs = np.empty((len(phi1), n, len(kinds)))
    for k, kind in enumerate(kinds):
        diffs[:, :, k] = values[kind][:, n:] - values[kind][:, :n]
    keys = [(a, a_prime, kind) for a, a_prime in instrument_pairs for kind in kinds]
    rows = diffs.reshape(len(phi1), len(keys)).tolist()
    return [[(*key, delta) for key, delta in zip(keys, row)] for row in rows]


@dataclass
class NoBackflowReport:
    """Result of checking that no instrument pair gains distinguishability."""

    applicable: bool
    omc_residual: float
    max_delta: float
    deltas: list[tuple[str, str, str, float]] = field(default_factory=list)


# processes read from the input at a time: bounds the combs and stacks held alive
_CHUNK = 128

# the largest channel residual (total variation) at which the bound applies,
# and the largest back-flow delta the oracle forgives
ORACLE_TOL = 1e-10

Process = tuple[Comb, list[tuple[str, str]], str, Kernel]


def verify_no_backflow(
    processes: Iterable[Process],
    kinds: tuple[str, ...] = KINDS,
    break_before_second: bool = False,
) -> list[NoBackflowReport]:
    """Check the single-channel condition and the no-back-flow bound of each process.

    Each process is ``(comb, instrument_pairs, b_label, lambda_b)``.  First
    verifies that ``lambda_b`` maps each one-step law to the matching
    two-step law (within ``ORACLE_TOL`` in total variation) for every instrument
    appearing in the pairs.  If that precondition fails, the report is marked
    not applicable.  Otherwise reports the largest D2 - D1 over all pairs and
    divergence kinds.  Returns one report per process, in input order.

    ``processes`` is read ``_CHUNK`` at a time; each chunk's processes with the
    same state and observable sizes, pairs and ``b_label`` are checked as one
    stack, bit for bit as each would be alone.
    """
    reports = []
    processes = iter(processes)
    while chunk := list(itertools.islice(processes, _CHUNK)):
        groups: dict[tuple, list[int]] = {}
        for i, (comb, pairs, b_label, _) in enumerate(chunk):
            key = (comb.state_space.size, comb.obs_space.size, tuple(map(tuple, pairs)), b_label)
            groups.setdefault(key, []).append(i)
        by_index = {}
        for (_, _, pairs, b_label), members in groups.items():
            group = [chunk[i] for i in members]
            group_reports = _verify_group(group, list(pairs), b_label, kinds, break_before_second)
            by_index.update(zip(members, group_reports))
        reports += [by_index[i] for i in range(len(chunk))]
    return reports


def _verify_group(
    group: list[Process],
    instrument_pairs: list[tuple[str, str]],
    b_label: str,
    kinds: tuple[str, ...],
    break_before_second: bool,
) -> list[NoBackflowReport]:
    """The reports of processes that share their sizes, pairs and ``b_label``, as one stack."""
    labels = _pair_labels(instrument_pairs)
    phi1, phi2 = _laws([comb for comb, *_ in group], labels, b_label, break_before_second)
    predicted = _renorm(_apply(_stack([lambda_b.matrix for *_, lambda_b in group]), phi1))
    residuals = (0.5 * np.abs(predicted - phi2).sum(axis=-1)).max(axis=-1, initial=0.0).tolist()
    # deltas only where the channel holds: the bound says nothing elsewhere
    kept = [g for g, residual in enumerate(residuals) if not residual > ORACLE_TOL]
    deltas = dict(zip(kept, _pair_deltas(labels, phi1[kept], phi2[kept], instrument_pairs, kinds)))
    return [
        NoBackflowReport(
            applicable=True,
            omc_residual=residual,
            max_delta=max(map(itemgetter(3), deltas[g]), default=-np.inf),
            deltas=deltas[g],
        )
        if g in deltas
        else NoBackflowReport(
            applicable=False,
            omc_residual=residual,
            max_delta=float("nan"),
        )
        for g, residual in enumerate(residuals)
    ]


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
    labels = _pair_labels(instrument_pairs)
    laws = _laws([comb], labels, b_label, break_before_second)
    for a, a_prime, kind, delta in _pair_deltas(labels, *laws, instrument_pairs, kinds)[0]:
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


def random_stochastic(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """A random column-stochastic (n_to, n_from) matrix, or a stack of them for a longer shape.

    A (L, n_to, n_from) stack reads the generator as L (n_to, n_from) draws
    in turn would, and gives their matrices bit for bit.
    """
    m = rng.random(shape) + 1e-3
    return m / m.sum(axis=-2, keepdims=True)


def random_prior(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.random(n) + 1e-3
    return p / p.sum()


B_LABEL = "B"

# the random makers' instrument labels: five first instruments, then B
_RANDOM_LABELS = ("I0", "I1", "I2", "I3", "I4", B_LABEL)


def random_factoring_comb(rng: np.random.Generator) -> tuple[Comb, str, Kernel]:
    """Random comb whose second step factors through the observable.

    The kernel for the second instrument is built as (lift back from the
    observable) after (observe), so a single observable channel reproduces
    the two-step law for every first instrument by construction.
    """
    n_s = int(rng.integers(2, 7))
    n_o = int(rng.integers(2, 5))
    state = Space(f"S{n_s}", n_s)
    obs = Space(f"O{n_o}", n_o)
    observation = Kernel(random_stochastic(rng, n_o, n_s), state, obs)
    lift = Kernel(random_stochastic(rng, n_s, n_o), obs, state)
    # B is the product link(lift, observation) forms, validated with the stack
    b_matrix = lift.matrix @ observation.matrix
    instruments = np.concatenate([random_stochastic(rng, len(_RANDOM_LABELS) - 1, n_s, n_s), b_matrix[None]])
    comb = Comb(
        prior=random_prior(rng, n_s),
        labels=_RANDOM_LABELS,
        instruments=instruments,
        observation=observation,
    )
    lambda_b = link(observation, lift)
    return comb, B_LABEL, lambda_b


def random_break_comb(rng: np.random.Generator) -> tuple[Comb, str, Kernel]:
    """Random product-space comb where the buffer reset restores the channel.

    The observation reveals the parameter component, the break resets the
    buffer, and the lifting sends an observed parameter to (parameter, 0);
    the observable channel O . (K_B . break) . R then holds exactly for any
    second-step kernel.
    """
    n_t = int(rng.integers(2, 5))
    n_u = int(rng.integers(2, 4))
    state = product_state_space(n_t, n_u)
    observation = theta_readout_kernel(n_t, n_u)
    instruments = random_stochastic(rng, len(_RANDOM_LABELS), state.size, state.size)
    comb = Comb(
        prior=random_prior(rng, state.size),
        labels=_RANDOM_LABELS,
        instruments=instruments,
        observation=observation,
        break_kernel=buffer_reset_kernel(n_t, n_u),
    )
    lambda_b = channel_from_break(comb, B_LABEL, theta_lifting_kernel(n_t, n_u))
    return comb, B_LABEL, lambda_b


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
