import math
import warnings

import numpy as np
import pytest

from backflow.divergences import KINDS, div_avg, div_row


def random_prob(rng, n):
    p = rng.random(n) + 1e-9
    return p / p.sum()


def test_identity_of_indiscernibles():
    p = [0.2, 0.3, 0.5]
    for kind in KINDS:
        assert div_row(kind, p, p) == 0.0


def test_disjoint_support_values():
    assert div_row("tv", [1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-15)
    assert div_row("js", [1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-15)
    assert div_row("hellinger", [1, 0], [0, 1]) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)


def test_tv_direct_evaluation():
    assert div_row("tv", [0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.25, abs=1e-15)


def test_symmetry_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        p, q = random_prob(rng, n), random_prob(rng, n)
        for kind in KINDS:
            assert div_row(kind, p, q) == div_row(kind, q, p)


def test_range_bounds():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        p, q = random_prob(rng, n), random_prob(rng, n)
        for kind in KINDS:
            v = div_row(kind, p, q)
            assert 0.0 <= v <= 1.0
        assert div_row("hellinger", p, q) <= math.sqrt(2) / 2 + 1e-12


def test_js_subnormal_rows_do_not_warn():
    # the m of an entry where p is 0 can be subnormal; 1 / m overflowed there and warned
    p, q = [0.0, 1 - 5e-324, 5e-324], [1e-310, 1 - 1e-310, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = div_row("js", p, q)
        assert value == div_row("js", q, p)
    assert 0.0 < value < 1e-300


def test_js_nonnegative_when_mixture_underflows():
    # m = (p + q) / 2 of the last entry underflows to 0; taking m as 1 there made the value negative
    value = div_row("js", [1.0, 5e-324], [1.0, 0.0])
    assert value >= 0.0
    assert div_row("js", [1.0, 0.0], [1.0, 5e-324]) == value


def test_js_finite_with_zeros():
    v = div_row("js", [0.5, 0.5, 0.0], [0.0, 0.5, 0.5])
    assert np.isfinite(v) and 0.0 < v < 1.0


def test_data_processing_inequality():
    rng = np.random.default_rng(2)
    for _ in range(150):
        n_in = int(rng.integers(2, 8))
        n_out = int(rng.integers(2, 8))
        p, q = random_prob(rng, n_in), random_prob(rng, n_in)
        channel = rng.random((n_out, n_in)) + 1e-6
        channel /= channel.sum(axis=0, keepdims=True)
        for kind in KINDS:
            assert div_row(kind, channel @ p, channel @ q) <= div_row(kind, p, q) + 1e-12


def test_zero_iff_equal():
    rng = np.random.default_rng(3)
    p = random_prob(rng, 5)
    q = random_prob(rng, 5)
    for kind in KINDS:
        assert div_row(kind, p, q) > 0.0


def test_renormalization_tolerance():
    p = np.array([0.5, 0.5]) * (1 + 5e-7)
    assert div_row("tv", p, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError, match="not normalized"):
        div_row("tv", [0.6, 0.6], [0.5, 0.5])


def test_non_finite_rows_raise():
    nan_row, row = [np.nan, 0.5], [0.5, 0.5]
    for p, q in ((nan_row, row), (row, nan_row)):
        with pytest.raises(ValueError, match="non-finite entries"):
            div_row("tv", p, q)
        with pytest.raises(ValueError, match="non-finite entries"):
            div_avg(KINDS, np.array([row, p]), np.array([row, q]))


def test_empty_row_is_not_normalized():
    with pytest.raises(ValueError, match="not normalized"):
        div_row("tv", [], [])


def test_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        div_row("tv", [1, 0], [1, 0, 0])
    # a matrix is not a vector: div_avg averages its rows, div_row refuses it
    p = [[0.5, 0.5], [1.0, 0.0]]
    q = [[0.5, 0.5], [0.0, 1.0]]
    assert div_avg(("tv",), p, q)["tv"] == 0.5
    with pytest.raises(ValueError, match="mismatch"):
        div_row("tv", p, q)


def test_unknown_kind():
    with pytest.raises(ValueError, match="unknown divergence"):
        div_row("kl", [1, 0], [0, 1])


def test_div_avg_identity_and_mean():
    p = np.array([[1.0, 0.0], [0.5, 0.5]])
    q = np.array([[0.0, 1.0], [0.5, 0.5]])
    assert div_avg(("tv",), p, p) == {"tv": 0.0}
    # row divergences are 1 and 0, so the mean is 0.5
    assert div_avg(("tv",), p, q)["tv"] == pytest.approx(0.5, abs=1e-15)


def test_div_avg_matches_row_loop():
    rng = np.random.default_rng(4)
    p = np.stack([random_prob(rng, 6) for _ in range(40)])
    q = np.stack([random_prob(rng, 6) for _ in range(40)])
    for kind in KINDS:
        naive = sum(div_row(kind, p[i], q[i]) for i in range(len(p))) / len(p)
        assert div_avg((kind,), p, q)[kind] == pytest.approx(naive, abs=1e-12)


def test_div_avg_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        div_avg(("tv",), np.eye(2), np.eye(3))


def test_div_avg_stacked_and_multi_kind_match_single_calls():
    rng = np.random.default_rng(5)
    p = np.stack([np.stack([random_prob(rng, 6) for _ in range(20)]) for _ in range(3)])
    q = np.stack([np.stack([random_prob(rng, 6) for _ in range(20)]) for _ in range(3)])
    stacked = div_avg(KINDS, p, q)
    assert set(stacked) == set(KINDS)
    for kind in KINDS:
        assert stacked[kind].shape == (3,)
        for r in range(3):
            assert stacked[kind][r] == div_avg((kind,), p[r], q[r])[kind]
    assert div_avg(KINDS, p[0], q[0]) == {kind: div_avg((kind,), p[0], q[0])[kind] for kind in KINDS}
