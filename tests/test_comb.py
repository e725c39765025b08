import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from backflow import comb as comb_mod
from backflow.comb import (
    B_LABEL,
    _laws,
    Comb,
    ProcessStack,
    buffer_reset_kernel,
    instrument_pairs,
    memoryful_demo_comb,
    random_break_comb,
    random_factoring_comb,
    search_backflow_witness,
    theta_lifting_kernel,
    theta_readout_kernel,
    verify_no_backflow,
)
from backflow.divergences import KINDS, div_row


def random_stochastic(rng, *shape):
    """A random column-stochastic (n_to, n_from) matrix from one generator call, or a stack of them."""
    m = rng.random(shape) + 1e-3
    return m / m.sum(axis=-2, keepdims=True)


def random_prior(rng, n):
    p = rng.random(n) + 1e-3
    return p / p.sum()


def break_channel(comb, lifting):
    """O . ((K_B . break) . R), the channel of a break comb whose last label is B, as the break maker forms it."""
    return comb.observation @ ((comb.instruments[-1] @ comb.break_kernel) @ lifting)


def comb_laws(comb, first_labels, second_label, break_before_second):
    """``_laws`` of the one-comb stack: the (1, L, C) laws of each first label, then ``second_label``."""
    return _laws(ProcessStack.of([comb], [], second_label, None), first_labels, break_before_second)


def verify_one(comb, pairs, b_label, lam, kinds=KINDS, break_flag=False):
    """``verify_no_backflow``'s report on the one-comb stack of one process."""
    stack = ProcessStack.of([comb], pairs, b_label, [lam])
    [report] = verify_no_backflow([stack], kinds=kinds, break_before_second=break_flag)
    return report


def two_time_laws(comb, i0, i1, break_before_second=False):
    """One- and two-step observable laws of the pair (i0, i1), the one-comb, one-label case of ``_laws``."""
    phi1, phi2 = comb_laws(comb, [i0], i1, break_before_second)
    return phi1[0, 0], phi2[0, 0]


def factoring_stack(rng, n_s, n_o, observation):
    """``_factoring_stack`` of one process from the raw ``observation`` and uniform draws, and its lift.

    The maker normalizes its draws in place, so the lift returned is the one the process used.
    """
    first = rng.random((1, len(comb_mod._RANDOM_LABELS) - 1, n_s, n_s))
    lift = rng.random((1, n_s, n_o))
    return comb_mod._factoring_stack((n_s, n_o), (0,), observation[None], lift, first, rng.random((1, n_s))), lift[0]


def test_link_constant_kernel_absorbs():
    # a constant observation: B = lift . observation has equal columns, and the channel
    # observation . lift is the observation's one column, whatever the lift
    rng = np.random.default_rng(1)
    column = rng.random(3)
    stack, _ = factoring_stack(rng, 4, 3, np.tile(column[:, None], (1, 4)))
    observation, k_b, lam = stack.observation[0], stack.instruments[0, -1], stack.lambda_b[0]
    assert np.allclose(observation, observation[:, :1], atol=1e-15)
    assert np.allclose(k_b, k_b[:, :1], atol=1e-15)
    assert np.allclose(lam, np.tile(observation[:, :1], (1, 3)), atol=1e-15)


def test_link_matches_double_sum():
    # the makers' kernel products, entry by entry over the latent and observable states between
    rng = np.random.default_rng(2)
    n_s, n_o = 3, 2
    stack, lift = factoring_stack(rng, n_s, n_o, rng.random((n_o, n_s)))
    observation, k_b, lam = stack.observation[0], stack.instruments[0, -1], stack.lambda_b[0]
    assert np.allclose(lift.sum(axis=0), 1.0, atol=1e-15)
    for a in range(n_s):
        for c in range(n_s):
            assert k_b[c, a] == pytest.approx(sum(lift[c, o] * observation[o, a] for o in range(n_o)), abs=1e-12)
    for a in range(n_o):
        for c in range(n_o):
            assert lam[c, a] == pytest.approx(sum(observation[c, s] * lift[s, a] for s in range(n_s)), abs=1e-12)
    for _ in range(5):
        comb, _, lam = random_break_comb(rng)
        n_t, size = comb.observation.shape
        lifting = theta_lifting_kernel(n_t, size // n_t)
        k_b, reset, observation = comb.instruments[-1], comb.break_kernel, comb.observation
        for a in range(n_t):
            for c in range(n_t):
                total = sum(
                    observation[c, s2] * k_b[s2, s1] * reset[s1, s0] * lifting[s0, a]
                    for s2 in range(size)
                    for s1 in range(size)
                    for s0 in range(size)
                )
                assert lam[c, a] == pytest.approx(total, abs=1e-12)


def test_kernel_validation():
    # every kernel a comb or a stack takes is validated: the observation, the break kernel and each channel
    prior, stack = np.array([0.5, 0.5]), np.eye(2)[None]
    good = Comb(prior, (B_LABEL,), stack, np.eye(2), np.eye(2))
    for matrix, message in (
        (np.array([[0.5, 0.5], [0.4, 0.5]]), "columns do not sum"),
        (np.array([[1.2, 0.5], [-0.2, 0.5]]), "negative entries"),
        (np.array([[np.nan, 0.5], [np.nan, 0.5]]), "non-finite entries"),
        (np.array([[np.inf, 0.5], [0.0, 0.5]]), r"columns do not sum to 1 \(max deviation inf\)"),
    ):
        with pytest.raises(ValueError, match=f"^observation: {message}"):
            Comb(prior, (B_LABEL,), stack, matrix)
        with pytest.raises(ValueError, match=f"^break kernel: {message}"):
            Comb(prior, (B_LABEL,), stack, np.eye(2), matrix)
        with pytest.raises(ValueError, match=f"^channel 1: {message}"):
            ProcessStack.of([good, good], [], B_LABEL, [np.eye(2), matrix])
    # the wrong shape, an empty kernel included; an empty observation has empty columns, which fail their sums
    for matrix in (np.eye(3), np.full((2, 3), 0.5), np.zeros((0, 2)), np.eye(2)[None]):
        shape = re.escape(str(matrix.shape))
        with pytest.raises(ValueError, match=rf"^break kernel shape {shape} does not match \(2, 2\)$"):
            Comb(prior, (B_LABEL,), stack, np.eye(2), matrix)
        with pytest.raises(ValueError, match=rf"^channel 0 shape {shape} does not match \(2, 2\)$"):
            ProcessStack.of([good], [], B_LABEL, [matrix])
    with pytest.raises(ValueError, match="^observation: columns do not sum"):
        Comb(prior, (), np.zeros((0, 2, 2)), np.zeros((0, 2)))
    for matrix in (np.eye(2)[None], np.ones(2)):
        with pytest.raises(ValueError, match=rf"^observation shape {re.escape(str(matrix.shape))} does not match a"):
            Comb(prior, (B_LABEL,), stack, matrix)
    # the fixed-size pieces are built once, validated, and shared read-only
    for make, shape in ((buffer_reset_kernel, (6, 6)), (theta_readout_kernel, (3, 6)), (theta_lifting_kernel, (6, 3))):
        kernel = make(3, 2)
        assert make(3, 2) is kernel
        assert kernel.shape == shape and kernel.dtype == np.float64
        assert np.array_equal(kernel.sum(axis=0), np.ones(shape[1]))
        with pytest.raises(ValueError, match="read-only"):
            kernel[0, 0] = 0.5
    assert np.array_equal(theta_readout_kernel(3, 2) @ theta_lifting_kernel(3, 2), np.eye(3))


def test_prior_validation():
    labels, stack = ("I",), np.eye(2)[None]
    with pytest.raises(ValueError, match="prior: non-finite entries"):
        Comb(np.array([np.nan, 1.0]), labels, stack, np.eye(2))
    with pytest.raises(ValueError, match="prior: negative entries"):
        Comb(np.array([-0.5, 1.5]), labels, stack, np.eye(2))
    with pytest.raises(ValueError, match="prior: columns do not sum"):
        Comb(np.array([0.5, 0.6]), labels, stack, np.eye(2))
    # the instrument stack is validated as a whole; a failure names the first bad label
    prior = np.array([0.5, 0.5])
    good = random_stochastic(np.random.default_rng(0), 3, 2, 2)
    three = ("I0", "I1", "I2")
    Comb(prior, three, good, np.eye(2))
    for value, message in (
        (-0.1, "negative entries"),
        (np.nan, "non-finite entries"),
        (np.inf, r"columns do not sum to 1 \(max deviation inf\)"),
        (None, "columns do not sum"),
    ):
        bad = good.copy()
        if value is None:
            bad[1, 0, 1] += 1e-9
        else:
            bad[1, 1, 0] = value
        with pytest.raises(ValueError, match=f"instrument 'I1': {message}"):
            Comb(prior, three, bad, np.eye(2))
        bad[2] = bad[1]
        with pytest.raises(ValueError, match=f"instrument 'I1': {message}"):
            Comb(prior, three, bad, np.eye(2))
    for labels, instruments in ((three[:2], good), (three, np.ones((3, 2, 3)) / 2), (three, good[0])):
        with pytest.raises(ValueError, match="instrument stack shape"):
            Comb(prior, labels, instruments, np.eye(2))
    with pytest.raises(ValueError, match="duplicate instrument label 'I0'"):
        Comb(prior, ("I0", "I1", "I0"), good, np.eye(2))
    # an empty stack passes, as a comb of no instruments did
    assert Comb(prior, (), np.zeros((0, 2, 2)), np.eye(2)).labels == ()


def test_comb_checks_its_pieces_against_the_observation_spaces():
    # a comb's sizes are its (C, S) observation's: S latent states, C observables
    rng = np.random.default_rng(25)
    observation = random_stochastic(rng, 2, 3)
    stack = random_stochastic(rng, 1, 3, 3)
    with pytest.raises(ValueError, match="prior length does not match state space"):
        Comb(random_prior(rng, 2), (B_LABEL,), stack, observation)
    with pytest.raises(ValueError, match=r"instrument stack shape \(1, 2, 2\) does not match 1 labels on 3 states"):
        Comb(random_prior(rng, 3), (B_LABEL,), random_stochastic(rng, 1, 2, 2), observation)
    for break_kernel in (observation, np.eye(2), observation.T):
        with pytest.raises(ValueError, match=r"^break kernel shape \(\d, \d\) does not match \(3, 3\)$"):
            Comb(random_prior(rng, 3), (B_LABEL,), stack, observation, break_kernel)
    comb = Comb(random_prior(rng, 3), (B_LABEL,), stack, observation, np.eye(3))
    # a channel maps the observables to themselves
    for lam in (observation, np.eye(3), observation.T):
        with pytest.raises(ValueError, match=r"^channel 0 shape \(\d, \d\) does not match \(2, 2\)$"):
            ProcessStack.of([comb], [], B_LABEL, [lam])
    assert ProcessStack.of([comb], [], B_LABEL, [np.eye(2)]).lambda_b.shape == (1, 2, 2)
    # each piece is held as a float64 array
    ints = Comb([1, 0, 0], (B_LABEL,), np.eye(3, dtype=int)[None], [[1, 1, 1]], np.eye(3, dtype=int))
    assert [m.dtype for m in (ints.prior, ints.instruments, ints.observation, ints.break_kernel)] == [np.float64] * 4


def make_random_comb(rng, n_s=3, n_o=2, n_instruments=3):
    return Comb(
        prior=random_prior(rng, n_s),
        labels=tuple(f"I{i}" for i in range(n_instruments)),
        instruments=random_stochastic(rng, n_instruments, n_s, n_s),
        observation=random_stochastic(rng, n_o, n_s),
    )


def test_two_time_laws_identity_comb():
    prior = random_prior(np.random.default_rng(5), 4)
    comb = Comb(
        prior=prior,
        labels=("I", "J"),
        instruments=np.array([np.eye(4), np.eye(4)]),
        observation=np.eye(4),
    )
    phi1, phi2 = two_time_laws(comb, "I", "J")
    assert np.allclose(phi1, prior, atol=1e-15)
    assert np.allclose(phi2, prior, atol=1e-15)


def test_two_time_laws_constant_second_step_erases_memory():
    rng = np.random.default_rng(6)
    comb = make_random_comb(rng)
    column = random_prior(rng, 3)
    constant = np.tile(column[:, None], (1, 3))
    comb2 = Comb(
        comb.prior,
        (*comb.labels, "C"),
        np.concatenate([comb.instruments, constant[None]]),
        comb.observation,
    )
    _, phi2_a = two_time_laws(comb2, "I0", "C")
    _, phi2_b = two_time_laws(comb2, "I1", "C")
    assert np.allclose(phi2_a, phi2_b, atol=1e-14)


def test_two_time_laws_match_path_enumeration():
    rng = np.random.default_rng(7)
    comb = make_random_comb(rng, n_s=4, n_o=3)
    i0, i1 = "I0", "I1"
    phi1, phi2 = two_time_laws(comb, i0, i1)
    k0, k1 = comb.instruments[:2]
    obs = comb.observation
    n_s, n_o = 4, 3
    phi1_naive = np.zeros(n_o)
    phi2_naive = np.zeros(n_o)
    for s0 in range(n_s):
        for s1 in range(n_s):
            for o in range(n_o):
                phi1_naive[o] += obs[o, s1] * k0[s1, s0] * comb.prior[s0]
            for s2 in range(n_s):
                for o in range(n_o):
                    phi2_naive[o] += obs[o, s2] * k1[s2, s1] * k0[s1, s0] * comb.prior[s0]
    assert np.allclose(phi1, phi1_naive, atol=1e-12)
    assert np.allclose(phi2, phi2_naive, atol=1e-12)


def test_two_time_laws_unknown_label():
    comb = make_random_comb(np.random.default_rng(8))
    with pytest.raises(KeyError, match="unknown instrument"):
        two_time_laws(comb, "nope", "I0")


def break_stack(rng, n_t, n_u, k_b=None):
    """``_break_stack`` of one process of uniform draws, with B's raw draw ``k_b`` when given."""
    instruments = rng.random((1, len(comb_mod._RANDOM_LABELS), n_t * n_u, n_t * n_u))
    if k_b is not None:
        instruments[0, -1] = k_b
    return comb_mod._break_stack((n_t, n_u), (0,), instruments, rng.random((1, n_t * n_u)))


def test_channel_from_break_fully_observed():
    # no buffer: identity observation, identity lifting, identity break, so the channel is K_B
    stack = break_stack(np.random.default_rng(9), 3, 1)
    assert np.array_equal(stack.observation[0], np.eye(3)) and np.array_equal(stack.break_kernel[0], np.eye(3))
    assert np.allclose(stack.lambda_b[0], stack.instruments[0, -1], atol=1e-15)


def test_channel_from_break_constant_b():
    rng = np.random.default_rng(10)
    column = rng.random(6)
    stack = break_stack(rng, 3, 2, np.tile(column[:, None], (1, 6)))
    lam = stack.lambda_b[0]
    assert np.allclose(lam, lam[:, :1], atol=1e-14)


def test_channel_from_break_columns_stochastic():
    rng = np.random.default_rng(11)
    for _ in range(20):
        comb, b_label, lam = random_break_comb(rng)
        assert np.all(lam >= -1e-12)
        assert np.allclose(lam.sum(axis=0), 1.0, atol=1e-12)


def test_verify_no_backflow_equal_pair_is_zero():
    rng = np.random.default_rng(12)
    comb, b_label, lam = random_factoring_comb(rng)
    report = verify_one(comb, [("I0", "I0")], b_label, lam)
    assert report.applicable[0]
    assert report.max_delta[0] == 0.0


def test_verify_no_backflow_identity_channel_equality_case():
    # With an identity second step on a fully observed process, D2 == D1.
    rng = np.random.default_rng(13)
    instruments = np.concatenate([random_stochastic(rng, 2, 3, 3), np.eye(3)[None]])
    comb = Comb(random_prior(rng, 3), ("I0", "I1", B_LABEL), instruments, np.eye(3))
    report = verify_one(comb, [("I0", "I1")], B_LABEL, np.eye(3))
    assert report.applicable[0]
    assert abs(report.max_delta[0]) <= 1e-15


def test_verify_no_backflow_randomized_factoring():
    rng = np.random.default_rng(14)
    stacks = []
    for _ in range(25):
        comb, b_label, lam = random_factoring_comb(rng)
        stacks.append(ProcessStack.of([comb], instrument_pairs(comb), b_label, [lam]))
    reports = verify_no_backflow(stacks)
    assert len(reports) == 25
    for report in reports:
        assert report.applicable[0]
        assert report.omc_residual[0] <= 1e-12
        assert report.max_delta[0] <= 1e-10


def test_verify_no_backflow_randomized_break_lifting():
    rng = np.random.default_rng(15)
    stacks = []
    for _ in range(25):
        comb, b_label, lam = random_break_comb(rng)
        stacks.append(ProcessStack.of([comb], instrument_pairs(comb), b_label, [lam]))
    reports = verify_no_backflow(stacks, break_before_second=True)
    assert len(reports) == 25
    for report in reports:
        assert report.applicable[0]
        assert report.omc_residual[0] <= 1e-12
        assert report.max_delta[0] <= 1e-10


def test_verify_reports_not_applicable_when_channel_wrong():
    rng = np.random.default_rng(16)
    comb, b_label, _ = random_break_comb(rng)
    report = verify_one(comb, instrument_pairs(comb), b_label, wrong_channel(comb), break_flag=True)
    if report.applicable[0]:  # rolled identity can coincide only on degenerate laws
        assert report.omc_residual[0] <= 1e-10
    else:
        assert report.omc_residual[0] > 1e-10
        assert np.isnan(report.max_delta[0]) and np.isnan(report.deltas[0]).all()


def test_memoryful_demo_exhibits_backflow_then_break_removes_it():
    comb, pair, b_label = memoryful_demo_comb()
    pair_found, kind, delta = search_backflow_witness(comb, [pair], b_label)
    assert delta > 0.05
    assert pair_found == pair
    # the two first steps induce identical mid-time observables
    phi1_a, _ = two_time_laws(comb, pair[0], b_label)
    phi1_ap, _ = two_time_laws(comb, pair[1], b_label)
    assert np.allclose(phi1_a, phi1_ap, atol=1e-15)
    _, _, delta_after = search_backflow_witness(comb, [pair], b_label, break_before_second=True)
    assert delta_after <= 1e-10


def test_buffer_blind_second_step_has_no_backflow():
    # K_B = (theta transition) x (fresh buffer), independent of the buffer.
    rng = np.random.default_rng(17)
    n_t, n_u = 3, 2
    size = n_t * n_u
    theta_map = random_stochastic(rng, n_t, n_t)
    buffer_dist = random_prior(rng, n_u)
    m = np.zeros((size, size))
    for i in range(n_t):
        for j in range(n_u):
            for i2 in range(n_t):
                for j2 in range(n_u):
                    m[i2 * n_u + j2, i * n_u + j] = theta_map[i2, i] * buffer_dist[j2]
    comb = Comb(
        prior=random_prior(rng, size),
        labels=("A", "Aprime", B_LABEL),
        instruments=np.concatenate([random_stochastic(rng, 2, size, size), m[None]]),
        observation=theta_readout_kernel(n_t, n_u),
    )
    _, _, delta = search_backflow_witness(comb, [("A", "Aprime")], B_LABEL)
    assert delta <= 1e-10


def test_instrument_pairs_count():
    rng = np.random.default_rng(18)
    comb, _, _ = random_factoring_comb(rng)
    assert len(instrument_pairs(comb)) == 10


def test_data_processing_on_module_kernels():
    rng = np.random.default_rng(19)
    for _ in range(100):
        comb, b_label, lam = random_factoring_comb(rng)
        n = comb.observation.shape[0]
        p = random_prior(rng, n)
        q = random_prior(rng, n)
        for kind in KINDS:
            assert div_row(kind, lam @ p, lam @ q) <= div_row(kind, p, q) + 1e-12


def reference_laws(comb, i0, i1, break_flag):
    """The laws of (i0, i1) one label at a time, one matrix-vector product per step."""
    kernel = dict(zip(comb.labels, comb.instruments))
    pi1 = kernel[i0] @ comb.prior
    phi1 = comb.observation @ pi1
    mid = comb.break_kernel @ pi1 if break_flag else pi1
    phi2 = comb.observation @ (kernel[i1] @ mid)
    return phi1 / phi1.sum(), phi2 / phi2.sum()


def reference_residual(comb, labels, b_label, lam, break_flag):
    residual = 0.0
    for label in labels:
        phi1, phi2 = reference_laws(comb, label, b_label, break_flag)
        predicted = lam @ phi1
        predicted = predicted / predicted.sum()
        residual = max(residual, float(0.5 * np.abs(predicted - phi2).sum()))
    return residual


def reference_deltas(comb, pairs, b_label, kinds, break_flag):
    """D2 - D1 per (pair, kind) from one ``div_row`` call per law and kind."""
    deltas = []
    for a, a_prime in pairs:
        phi1_a, phi2_a = reference_laws(comb, a, b_label, break_flag)
        phi1_ap, phi2_ap = reference_laws(comb, a_prime, b_label, break_flag)
        for kind in kinds:
            delta = div_row(kind, phi2_a, phi2_ap) - div_row(kind, phi1_a, phi1_ap)
            deltas.append((a, a_prime, kind, delta))
    return deltas


def reference_witness(deltas):
    best = ((deltas[0][0], deltas[0][1]), deltas[0][2], -np.inf)
    for a, a_prime, kind, delta in deltas:
        if delta > best[2]:
            best = ((a, a_prime), kind, delta)
    return best


def check_against_reference(comb, pairs, b_label, lam, kinds, break_flag):
    expected = reference_deltas(comb, pairs, b_label, kinds, break_flag)
    if lam is not None:
        report = verify_one(comb, pairs, b_label, lam, kinds, break_flag)
        assert report.applicable[0]
        # residual, max delta and every delta in pair and kind order, bit for bit
        expected_bits = reference_report((comb, pairs, b_label, lam), kinds, break_flag)
        assert stack_report_bits(report, 0, pairs, kinds) == expected_bits
    witness = search_backflow_witness(comb, pairs, b_label, kinds=kinds, break_before_second=break_flag)
    assert witness == reference_witness(expected)


def test_stacked_pair_deltas_match_div_row_loop_bitwise():
    rng = np.random.default_rng(20)
    kind_sets = (KINDS, ("js",), ("hellinger", "tv"))
    for i in range(100):
        for maker, break_flag in ((random_factoring_comb, False), (random_break_comb, True)):
            comb, b_label, lam = maker(rng)
            pairs = instrument_pairs(comb)
            pairs = pairs + [("I0", "I0"), pairs[-1][::-1]]
            kinds = kind_sets[i % len(kind_sets)]
            check_against_reference(comb, pairs, b_label, lam, kinds, break_flag)
            if break_flag:  # the memoryful direction: no channel, witness only
                check_against_reference(comb, pairs, b_label, None, kinds, False)
    comb, pair, b_label = memoryful_demo_comb()
    lam = break_channel(comb, theta_lifting_kernel(2, 2))
    for kinds in kind_sets:
        check_against_reference(comb, [pair], b_label, None, kinds, False)
        check_against_reference(comb, [pair, pair[::-1]], b_label, lam, kinds, True)


def check_laws_against_reference(comb, b_label, break_flag):
    labels = sorted(comb.labels)
    phi1, phi2 = comb_laws(comb, labels, b_label, break_flag)
    assert phi1.shape == phi2.shape == (1, len(labels), comb.observation.shape[0])
    for i, label in enumerate(labels):
        ref1, ref2 = reference_laws(comb, label, b_label, break_flag)
        assert np.array_equal(phi1[0, i], ref1) and np.array_equal(phi2[0, i], ref2)
        one1, one2 = two_time_laws(comb, label, b_label, break_flag)
        assert np.array_equal(one1, ref1) and np.array_equal(one2, ref2)


def test_stacked_laws_match_per_label_loop_bitwise():
    rng = np.random.default_rng(22)
    for _ in range(100):
        comb, b_label, _ = random_factoring_comb(rng)
        check_laws_against_reference(comb, b_label, False)
        with pytest.raises(ValueError, match="no configured break kernel"):
            comb_laws(comb, ["I0"], b_label, True)
        comb, b_label, _ = random_break_comb(rng)
        for break_flag in (False, True):
            check_laws_against_reference(comb, b_label, break_flag)
    comb, _, b_label = memoryful_demo_comb()
    for break_flag in (False, True):
        check_laws_against_reference(comb, b_label, break_flag)


def per_label_comb(prior, kernels, observation, break_kernel):
    """A comb of one matrix per label, as the ``reference_*`` helpers read it."""
    return SimpleNamespace(
        prior=prior,
        labels=tuple(kernels),
        instruments=list(kernels.values()),
        observation=observation,
        break_kernel=break_kernel,
    )


def parent_factoring_process(rng, max_states=6, max_obs=4, n_instruments=5):
    """The factoring maker as one generator call per matrix and one matrix product per composition."""
    n_s = int(rng.integers(2, max_states + 1))
    n_o = int(rng.integers(2, max_obs + 1))
    observation = random_stochastic(rng, n_o, n_s)
    lift = random_stochastic(rng, n_s, n_o)
    kernels = {f"I{i}": random_stochastic(rng, n_s, n_s) for i in range(n_instruments)}
    kernels[B_LABEL] = lift @ observation
    prior = random_prior(rng, n_s)
    return per_label_comb(prior, kernels, observation, None), observation @ lift


def parent_break_process(rng, max_theta=4, max_upsilon=3, n_instruments=5):
    """The break maker as one generator call per matrix and one matrix product per composition."""
    n_t = int(rng.integers(2, max_theta + 1))
    n_u = int(rng.integers(2, max_upsilon + 1))
    size = n_t * n_u
    observation = theta_readout_kernel(n_t, n_u)
    kernels = {f"I{i}": random_stochastic(rng, size, size) for i in range(n_instruments)}
    kernels[B_LABEL] = random_stochastic(rng, size, size)
    prior = random_prior(rng, size)
    reset = buffer_reset_kernel(n_t, n_u)
    lambda_b = observation @ ((kernels[B_LABEL] @ reset) @ theta_lifting_kernel(n_t, n_u))
    return per_label_comb(prior, kernels, observation, reset), lambda_b


def assert_same_kernel(kernel, reference):
    assert kernel.shape == reference.shape and kernel.tobytes() == reference.tobytes()


def test_makers_match_per_matrix_recipe_bitwise():
    for seed in range(6):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for maker, parent_maker, break_flag in (
            (random_factoring_comb, parent_factoring_process, False),
            (random_break_comb, parent_break_process, True),
        ):
            stacks, expected = [], []
            for _ in range(20):
                comb, b_label, lam = maker(rng)
                reference, reference_lam = parent_maker(reference_rng)
                assert rng.bit_generator.state == reference_rng.bit_generator.state
                assert comb.labels == reference.labels
                assert comb.instruments.tobytes() == np.array(reference.instruments).tobytes()
                assert comb.prior.tobytes() == reference.prior.tobytes()
                assert_same_kernel(comb.observation, reference.observation)
                if break_flag:
                    assert_same_kernel(comb.break_kernel, reference.break_kernel)
                else:
                    assert comb.break_kernel is None
                assert_same_kernel(lam, reference_lam)
                pairs = instrument_pairs(comb)
                stacks.append(ProcessStack.of([comb], pairs, b_label, [lam]))
                expected.append(reference_report((reference, pairs, b_label, reference_lam), KINDS, break_flag))
            reports = verify_no_backflow(stacks, break_before_second=break_flag)
            # every random comb has the same pairs
            assert [stack_report_bits(report, 0, pairs, KINDS) for report in reports] == expected
            assert all(report.applicable[0] for report in reports)


def test_verify_no_backflow_empty_pair_list():
    comb, b_label, lam = random_factoring_comb(np.random.default_rng(21))
    report = verify_one(comb, [], b_label, lam)
    assert report.applicable[0]
    assert report.max_delta[0] == -np.inf
    assert report.deltas.shape == (1, 0, len(KINDS))


def bits(value):
    return struct.pack("<d", value)


def reference_report(process, kinds, break_flag, tol=1e-10):
    """(applicable, residual bits, max-delta bits, deltas with value bits) of one process alone."""
    comb, pairs, b_label, lam = process
    labels = sorted({lbl for pair in pairs for lbl in pair})
    residual = reference_residual(comb, labels, b_label, lam, break_flag)
    if residual > tol:
        return False, bits(residual), None, []
    deltas = reference_deltas(comb, pairs, b_label, kinds, break_flag)
    max_delta = -np.inf
    for *_, delta in deltas:
        max_delta = max(max_delta, delta)
    return True, bits(residual), bits(max_delta), [(*key, bits(delta)) for *key, delta in deltas]


def wrong_channel(comb):
    return np.roll(np.eye(comb.observation.shape[0]), 1, axis=0)


def same_size_processes(maker, rng, count):
    """``count`` (comb, channel) pairs of ``maker`` with the sizes of its first draw; other draws are skipped."""
    found = []
    while len(found) < count:
        comb, _, lam = maker(rng)
        if not found or comb.observation.shape == found[0][0].observation.shape:
            found.append((comb, lam))
    return found


def stack_of(processes, pairs):
    """The ``ProcessStack`` of (comb, channel) pairs that share their sizes."""
    return ProcessStack.of([comb for comb, _ in processes], pairs, B_LABEL, [lam for _, lam in processes])


def test_batch_reports_match_per_process_reference_bitwise():
    rng = np.random.default_rng(23)
    demo, demo_pair, demo_b = memoryful_demo_comb()
    demo_lam = break_channel(demo, theta_lifting_kernel(2, 2))
    assert demo_b == B_LABEL
    for break_flag in (False, True):
        # (processes, pairs, whether each channel holds): the demo's lifted channel holds only after the break
        cases = [([(demo, demo_lam)] * 3, [demo_pair, demo_pair[::-1]], [break_flag] * 3)]
        # factoring combs have no break kernel; without the break, a break comb's channel fails but on no pairs
        for maker in (random_break_comb,) if break_flag else (random_factoring_comb, random_break_comb):
            holds = break_flag or maker is random_factoring_comb
            processes = same_size_processes(maker, rng, 4)
            pairs = instrument_pairs(processes[0][0])
            comb = processes[1][0]
            wrong = processes[:1] + [(comb, wrong_channel(comb))] + processes[2:]
            duplicated = pairs + [("I0", "I0"), pairs[-1][::-1], pairs[0]]  # duplicate and reversed pairs
            cases += [
                (wrong, pairs, [holds, False, holds, holds]),
                (processes, duplicated, [holds] * 4),
                (processes, [], [True] * 4),
            ]
        reports = verify_no_backflow(
            (stack_of(processes, pairs) for processes, pairs, _ in cases), break_before_second=break_flag
        )
        assert len(reports) == len(cases)
        for (processes, pairs, applicable), report in zip(cases, reports):
            assert list(report.index) == list(range(len(processes)))
            assert report.applicable.tolist() == applicable
            for g, (comb, lam) in enumerate(processes):
                expected = reference_report((comb, pairs, B_LABEL, lam), KINDS, break_flag)
                assert stack_report_bits(report, g, pairs, KINDS) == expected
    factoring = same_size_processes(random_factoring_comb, rng, 2)
    stacks = [stack_of([(demo, demo_lam)], [demo_pair]), stack_of(factoring, instrument_pairs(factoring[0][0]))]
    with pytest.raises(ValueError, match="comb has no configured break kernel"):
        verify_no_backflow(stacks, break_before_second=True)


def test_process_stack_of_refuses_combs_of_another_shape():
    rng = np.random.default_rng(25)
    comb, b_label, lam = random_factoring_comb(rng)
    pairs = instrument_pairs(comb)
    # the same process under another label order: checked alone it gives the same verdict
    order = [1, 0, 2, 3, 4, 5]
    swapped = Comb(comb.prior, tuple(comb.labels[i] for i in order), comb.instruments[order], comb.observation)
    assert swapped.labels[:2] == ("I1", "I0")
    expected = stack_report_bits(verify_one(comb, pairs, b_label, lam), 0, pairs, KINDS)
    assert stack_report_bits(verify_one(swapped, pairs, b_label, lam), 0, pairs, KINDS) == expected
    with pytest.raises(ValueError, match=r"^comb 1: labels and sizes \(\('I1', 'I0',"):
        ProcessStack.of([comb, swapped], pairs, b_label, [lam, lam])
    other, _, other_lam = random_factoring_comb(rng)
    while other.observation.shape == comb.observation.shape:
        other, _, other_lam = random_factoring_comb(rng)
    with pytest.raises(ValueError, match=r"^comb 2: labels and sizes .* differ from comb 0's"):
        ProcessStack.of([comb, comb, other], pairs, b_label, [lam, lam, other_lam])
    with pytest.raises(ValueError, match=r"^2 combs need 2 channels, got 1$"):
        ProcessStack.of([comb, comb], pairs, b_label, [lam])
    stack = ProcessStack.of([comb, comb], pairs, b_label, [lam, lam])
    assert list(stack.index) == [0, 1] and stack.labels == comb.labels
    [report] = verify_no_backflow([stack])
    assert [stack_report_bits(report, g, pairs, KINDS) for g in (0, 1)] == [expected] * 2


def test_verify_no_backflow_reads_processes_one_chunk_at_a_time(monkeypatch):
    chunk = 8
    monkeypatch.setattr(comb_mod, "_CHUNK", chunk)
    drawn, checked = [], []  # stacks checked at each draw; (index, processes drawn) at each check
    draw, verify = comb_mod._draw_break, comb_mod._verify_stack

    def counted_draw(rng):
        drawn.append(len(checked))
        return draw(rng)

    def spied_verify(stack, *args):
        checked.append((list(stack.index), len(drawn)))
        return verify(stack, *args)

    monkeypatch.setattr(comb_mod, "_draw_break", counted_draw)
    monkeypatch.setattr(comb_mod, "_verify_stack", spied_verify)
    stacks = comb_mod.random_break_stacks(np.random.default_rng(24), 3 * chunk)
    reports = verify_no_backflow(stacks, break_before_second=True)
    assert [list(report.index) for report in reports] == [index for index, _ in checked]
    assert sorted(i for index, _ in checked for i in index) == list(range(3 * chunk))
    # a stack is checked once its chunk is drawn, before the next chunk's first draw ...
    ends = [(index[0] // chunk + 1) * chunk for index, _ in checked]
    assert [seen for _, seen in checked] == ends and sorted(set(ends)) == [chunk, 2 * chunk, 3 * chunk]
    # ... and a process is drawn once every stack of the earlier chunks is checked
    assert drawn == [sum(end <= i for end in ends) for i in range(3 * chunk)]
    assert verify_no_backflow(iter([])) == []


def test_verify_no_backflow_refuses_a_stack_without_a_channel():
    comb, pair, b_label = memoryful_demo_comb()
    with pytest.raises(ValueError, match=r"^stack has no channel \(lambda_b\) to verify$"):
        verify_no_backflow([ProcessStack.of([comb], [pair], b_label, None)])


def test_search_backflow_witness_empty_pair_list():
    comb, _, b_label = memoryful_demo_comb()
    with pytest.raises(ValueError, match="needs at least one instrument pair"):
        search_backflow_witness(comb, [], b_label)


def stack_report_bits(report, g, pairs, kinds):
    """``reference_report``'s tuple, read from process g of a ``StackReport``."""
    if not report.applicable[g]:
        return False, bits(report.omc_residual[g]), None, []
    deltas = [
        (a, a_prime, kind, bits(report.deltas[g, p, k]))
        for p, (a, a_prime) in enumerate(pairs)
        for k, kind in enumerate(kinds)
    ]
    return True, bits(report.omc_residual[g]), bits(report.max_delta[g]), deltas


CHUNK_MAKERS = (
    # chunk maker, one-process maker, per-matrix recipe, break flag, every (size, size) the maker draws
    (comb_mod.random_factoring_stacks, random_factoring_comb, parent_factoring_process, False,
     {(n_s, n_o) for n_s in range(2, 7) for n_o in range(2, 5)}),
    (comb_mod.random_break_stacks, random_break_comb, parent_break_process, True,
     {(n_t, n_u) for n_t in range(2, 5) for n_u in range(2, 4)}),
)


def test_chunk_makers_draw_and_verify_as_the_one_process_makers_bitwise(monkeypatch):
    chunk = 20
    monkeypatch.setattr(comb_mod, "_CHUNK", chunk)
    count = 2 * chunk + 7  # three chunks, the last one partial
    seen = {break_flag: set() for *_, break_flag, _ in CHUNK_MAKERS}
    for seed in range(6):
        for stacks_of, one_maker, recipe, break_flag, _ in CHUNK_MAKERS:
            rng, one_rng, recipe_rng = (np.random.default_rng(seed) for _ in range(3))
            stacks = list(stacks_of(rng, count))
            ones = [one_maker(one_rng) for _ in range(count)]
            references = [recipe(recipe_rng) for _ in range(count)]
            assert rng.bit_generator.state == one_rng.bit_generator.state == recipe_rng.bit_generator.state
            # every process once; a stack is one size within one chunk, in the draw order of its first process
            assert sorted(i for stack in stacks for i in stack.index) == list(range(count))
            firsts = [(stack.index[0] // chunk, stack.index[0]) for stack in stacks]
            assert firsts == sorted(firsts)
            sizes = []
            for stack in stacks:
                assert list(stack.index) == sorted(stack.index)
                assert len({i // chunk for i in stack.index}) == 1
                n_state, n_obs = stack.prior.shape[1], stack.observation.shape[1]
                sizes.append((n_state, n_obs) if not break_flag else (n_obs, n_state // n_obs))
            seen[break_flag].update(sizes)
            assert len(sizes) == len({(stack.index[0] // chunk, size) for stack, size in zip(stacks, sizes)})
            reports = verify_no_backflow(stacks, break_before_second=break_flag)
            assert [report.index for report in reports] == [stack.index for stack in stacks]
            for stack, report in zip(stacks, reports):
                for g, i in enumerate(stack.index):
                    comb, b_label, lam = ones[i]
                    reference, reference_lam = references[i]
                    pairs = instrument_pairs(comb)
                    assert (stack.labels, list(stack.pairs), stack.b_label) == (comb.labels, pairs, b_label)
                    stacked = np.array(reference.instruments)
                    assert stack.instruments[g].tobytes() == comb.instruments.tobytes() == stacked.tobytes()
                    assert stack.prior[g].tobytes() == comb.prior.tobytes() == reference.prior.tobytes()
                    observation = stack.observation[g % len(stack.observation)]
                    assert observation.tobytes() == reference.observation.tobytes()
                    if break_flag:
                        assert stack.break_kernel[g % len(stack.break_kernel)].tobytes() == (
                            reference.break_kernel.tobytes()
                        )
                    else:
                        assert stack.break_kernel is None
                    assert stack.lambda_b[g].tobytes() == lam.tobytes() == reference_lam.tobytes()
                    expected = reference_report((reference, pairs, b_label, reference_lam), KINDS, break_flag)
                    assert stack_report_bits(report, g, pairs, KINDS) == expected
                    assert expected[0]
    assert seen == {break_flag: shapes for *_, break_flag, shapes in CHUNK_MAKERS}


def test_chunk_makers_validate_every_role_and_name_the_bad_process(monkeypatch):
    monkeypatch.setattr(comb_mod, "_CHUNK", 8)
    for draw_name, stacks_of, one_maker, roles in (
        ("_draw_factoring", comb_mod.random_factoring_stacks, random_factoring_comb,
         ((0, None, "observation"), (1, None, "lifting"), (2, 3, "instrument 'I3'"), (3, None, "prior"))),
        ("_draw_break", comb_mod.random_break_stacks, random_break_comb,
         ((0, 1, "instrument 'I1'"), (0, 5, "instrument 'B'"), (1, None, "prior"))),
    ):
        draw = getattr(comb_mod, draw_name)
        for raw, row, message in roles:
            for bad, count in ((11, 20), (0, 1)):
                drawn = []

                def poisoned(rng):
                    sizes, raws = draw(rng)
                    if len(drawn) == bad:  # one negative entry in one raw draw of process ``bad``
                        target = raws[raw] if row is None else raws[raw][row]
                        target.flat[0] = -1.0
                    drawn.append(sizes)
                    return sizes, raws

                monkeypatch.setattr(comb_mod, draw_name, poisoned)
                with pytest.raises(ValueError, match=rf"^process {bad}: {message}: negative entries$"):
                    list(stacks_of(np.random.default_rng(3), count))
                drawn.clear()
                if count == 1:
                    with pytest.raises(ValueError, match=rf"^process 0: {message}: negative entries$"):
                        one_maker(np.random.default_rng(3))
                monkeypatch.setattr(comb_mod, draw_name, draw)
