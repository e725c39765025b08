import numpy as np
import pytest

from backflow.errors import NanGuardError
from backflow.model import (
    ModelSpec,
    forward,
    init_params,
    loss_and_grad,
    parameter_count,
    penultimate_features,
)

LINEAR = ModelSpec("softmax_linear", 4, 3)
MLP = ModelSpec("mlp1", 8, 10, hidden_dim=16, activation="tanh")


def test_parameter_counts():
    assert parameter_count(LINEAR) == 4 * 3 + 3 == 15
    assert parameter_count(MLP) == 8 * 16 + 16 + 16 * 10 + 10 == 314


def test_init_determinism():
    a = init_params(LINEAR, seed=7)
    b = init_params(LINEAR, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, init_params(LINEAR, seed=8))
    assert a.shape == (15,)


def test_init_scale():
    params = init_params(ModelSpec("softmax_linear", 100, 10), seed=0)
    bound = np.sqrt(6.0 / 110)
    weights = params[:1000]
    assert np.abs(weights).max() <= bound
    assert params[1000:].sum() == 0.0  # biases start at zero


def test_forward_uniform_at_zero_params():
    params = np.zeros(parameter_count(LINEAR))
    preds = forward(LINEAR, params, np.random.default_rng(0).normal(size=(5, 4)))
    assert np.allclose(preds, 1.0 / 3.0, atol=1e-15)


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for spec in (LINEAR, MLP):
        params = init_params(spec, seed=3)
        preds = forward(spec, params, rng.normal(size=(20, spec.input_dim)))
        assert np.allclose(preds.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(preds >= 0.0) and np.all(preds <= 1.0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    params = init_params(LINEAR, seed=5)
    x = rng.normal(size=(6, 4))
    shifted = params.copy()
    shifted[12:] += 3.7  # add one constant to every class bias -> same logit shift per row
    assert np.allclose(forward(LINEAR, params, x), forward(LINEAR, shifted, x), atol=1e-12)


def test_forward_matches_direct_reimplementation():
    rng = np.random.default_rng(3)
    params = init_params(LINEAR, seed=11)
    x = rng.normal(size=(1, 4))
    w = params[:12].reshape(3, 4)
    b = params[12:]
    z = w @ x[0] + b
    expected = np.exp(z) / np.exp(z).sum()
    assert np.allclose(forward(LINEAR, params, x)[0], expected, atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 2), (6, 10), (3, 7, 10)])
def test_row_max_equals_the_last_axis_reduction(shape):
    from backflow.model import _row_max

    z = np.random.default_rng(9).normal(size=shape)
    z.flat[1::5] = np.inf
    z.flat[2::7] = -np.inf
    z.flat[3::11] = np.nan
    assert np.array_equal(_row_max(z), z.max(axis=-1, keepdims=True), equal_nan=True)


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(4)
    params = init_params(MLP, seed=2)
    x = rng.normal(size=(10, 8))
    assert np.array_equal(forward(MLP, params, x), forward(MLP, params, x))


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError, match="features"):
        forward(LINEAR, init_params(LINEAR, 0), np.zeros((2, 5)))


def test_loss_at_zero_params_is_log_c():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)
    loss, grad = loss_and_grad(LINEAR, np.zeros(15), x, y)
    assert loss == pytest.approx(np.log(3), abs=1e-12)
    assert grad.shape == (15,)


def test_perfect_fit_limit():
    # weights scaled so the true class logit dominates by ~200: loss and grad vanish
    params = np.zeros(15)
    w = np.zeros((3, 4))
    w[0, 0] = 200.0
    w[1, 0] = -200.0
    w[2, 0] = -200.0
    params[:12] = w.ravel()
    x = np.array([[1.0, 0.0, 0.0, 0.0]])
    loss, grad = loss_and_grad(LINEAR, params, x, [0])
    assert abs(loss) <= 1e-9
    assert np.abs(grad).max() <= 1e-9


def relative_gradient_errors(spec, params, x, y, rng, n_coords=20, h=1e-5):
    _, grad = loss_and_grad(spec, params, x, y)
    coords = rng.choice(params.size, size=min(n_coords, params.size), replace=False)
    errors = []
    for j in coords:
        bumped = params.copy()
        bumped[j] += h
        up, _ = loss_and_grad(spec, bumped, x, y)
        bumped[j] -= 2 * h
        down, _ = loss_and_grad(spec, bumped, x, y)
        fd = (up - down) / (2 * h)
        errors.append(abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-4))
    return errors


@pytest.mark.parametrize("kind,activation", [("softmax_linear", None), ("mlp1", "tanh"), ("mlp1", "relu")])
def test_gradients_match_finite_differences(kind, activation):
    rng = np.random.default_rng(6)
    for _ in range(8):
        d = int(rng.integers(2, 7))
        c = int(rng.integers(2, 5))
        if kind == "mlp1":
            spec = ModelSpec(kind, d, c, hidden_dim=int(rng.integers(2, 6)), activation=activation)
        else:
            spec = ModelSpec(kind, d, c)
        params = rng.normal(scale=0.7, size=parameter_count(spec))
        x = rng.normal(size=(int(rng.integers(2, 9)), d))
        y = rng.integers(0, c, size=x.shape[0])
        errs = relative_gradient_errors(spec, params, x, y, rng)
        assert max(errs) < 1e-4


def test_loss_label_validation():
    x = np.zeros((2, 4))
    with pytest.raises(ValueError, match="out of range"):
        loss_and_grad(LINEAR, np.zeros(15), x, [0, 3])


def test_nan_guard_on_nonfinite_params():
    params = np.zeros(15)
    params[0] = np.inf
    with pytest.raises(NanGuardError):
        loss_and_grad(LINEAR, params, np.ones((2, 4)), [0, 1])


def test_penultimate_linear_returns_inputs():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 4))
    feats = penultimate_features(LINEAR, init_params(LINEAR, 0), x)
    assert np.array_equal(feats, x)
    feats[0, 0] = 99.0  # returned copy must not alias the input
    assert x[0, 0] != 99.0


def test_penultimate_mlp_zero_first_layer():
    spec = ModelSpec("mlp1", 3, 2, hidden_dim=4, activation="tanh")
    params = init_params(spec, 0)
    params[: 3 * 4 + 4] = 0.0
    feats = penultimate_features(spec, params, np.random.default_rng(8).normal(size=(6, 3)))
    assert np.array_equal(feats, np.zeros((6, 4)))


def test_penultimate_mlp_matches_reimplementation():
    spec = ModelSpec("mlp1", 5, 3, hidden_dim=7, activation="tanh")
    params = init_params(spec, 9)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 5))
    w1 = params[:35].reshape(7, 5)
    b1 = params[35:42]
    assert np.allclose(penultimate_features(spec, params, x), np.tanh(x @ w1.T + b1), atol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError, match="hidden_dim"):
        ModelSpec("mlp1", 4, 3)
    with pytest.raises(ValueError, match="num_classes"):
        ModelSpec("softmax_linear", 4, 1)
    with pytest.raises(ValueError, match="unknown model kind"):
        ModelSpec("cnn", 4, 3)
    # both used to be accepted and ignored
    with pytest.raises(ValueError, match="softmax_linear takes no hidden_dim, got 64"):
        ModelSpec("softmax_linear", 32, 10, hidden_dim=64)
    with pytest.raises(ValueError, match="unknown activation 'sigmoid'"):
        ModelSpec("softmax_linear", 4, 3, activation="sigmoid")


@pytest.mark.parametrize("spec", [LINEAR, MLP, ModelSpec("mlp1", 8, 10, hidden_dim=16, activation="relu")])
def test_stacked_rows_match_unstacked_calls_bitwise(spec):
    rng = np.random.default_rng(6)
    rows = np.stack([init_params(spec, seed=s) for s in range(3)])
    x = rng.normal(size=(3, 12, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=(3, 12))
    loss, grad = loss_and_grad(spec, rows, x, y)
    assert loss.shape == (3,) and grad.shape == rows.shape
    for r in range(3):
        loss_r, grad_r = loss_and_grad(spec, rows[r], x[r], y[r])
        assert loss[r] == loss_r
        assert np.array_equal(grad[r], grad_r)
    # one batch shared by every row
    _, shared = loss_and_grad(spec, rows, x[0], y[0])
    probs = forward(spec, rows, x[0])
    feats = penultimate_features(spec, rows, x[0])
    assert probs.shape == (3, 12, spec.num_classes)
    assert feats.shape == (3, 12, spec.hidden_dim or spec.input_dim)
    for r in range(3):
        assert np.array_equal(shared[r], loss_and_grad(spec, rows[r], x[0], y[0])[1])
        assert np.array_equal(probs[r], forward(spec, rows[r], x[0]))
        assert np.array_equal(feats[r], penultimate_features(spec, rows[r], x[0]))


def test_stacked_nan_guard_fires_for_one_bad_row():
    rows = np.zeros((2, parameter_count(LINEAR)))
    rows[1, 0] = np.inf
    with pytest.raises(NanGuardError):
        loss_and_grad(LINEAR, rows, np.ones((2, 4)), [0, 1])


def kernel_digest(spec):
    """sha256 over ``init_params``, ``forward``, ``loss_and_grad`` and ``penultimate_features``.

    Each is taken on seeded inputs for unstacked parameters, for stacked
    parameters with one shared batch, and for stacked parameters with one
    batch per row.
    """
    from hashlib import sha256

    rng = np.random.default_rng(21)
    init = np.stack([init_params(spec, seed=s) for s in range(3)])
    rows = init + rng.normal(scale=0.3, size=init.shape)  # nonzero biases too
    x = rng.normal(size=(3, 24, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=(3, 24))
    h = sha256(init.tobytes())
    for params, inputs, labels in ((rows[0], x[0], y[0]), (rows, x[0], y[0]), (rows, x, y)):
        loss, grad = loss_and_grad(spec, params, inputs, labels)
        for out in (forward(spec, params, inputs), np.float64(loss), grad,
                    penultimate_features(spec, params, inputs)):
            h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


# sha256 of the model kernel's outputs for each architecture, cut with the
# per-kind code paths on OpenBLAS's SkylakeX kernel; the same at one and two
# BLAS threads
PINNED_KERNEL_SHA256 = {
    "softmax_linear": "75a5491ae9d01f21096e0585b2308bcbafabbe700ac21f651f6f538b59e3d0cb",
    "mlp1/tanh": "957f19e5fe817ad3bb75646d3aeb02c4ac94df33937419d3b5ba11191ac881d1",
    "mlp1/relu": "2c7346280888049523212e230a909ea817946a07600b2c2b6b16725731030601",
}


@pytest.mark.parametrize("name,spec", [
    ("softmax_linear", ModelSpec("softmax_linear", 12, 5)),
    ("mlp1/tanh", ModelSpec("mlp1", 12, 5, hidden_dim=16, activation="tanh")),
    ("mlp1/relu", ModelSpec("mlp1", 12, 5, hidden_dim=16, activation="relu")),
])
def test_kernel_outputs_are_pinned_byte_for_byte(name, spec):
    assert kernel_digest(spec) == PINNED_KERNEL_SHA256[name]
