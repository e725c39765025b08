"""Minimal differentiable classifiers with closed-form gradients.

A model is its list of affine layers ``(fan_in, fan_out)``: ``[(d, c)]``
for the softmax linear model, ``[(d, h), (h, c)]`` for the one-hidden-layer
MLP, with the activation (tanh or relu) between layers.  Both kinds share
one code path derived from that list.  Parameters live in one flat float64
vector, each layer's weights then its biases; an (R, P) stack of such
vectors is R independent models, evaluated row by row with the same
arithmetic as a single vector.  All operations are pure functions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NanGuardError

KINDS = ("softmax_linear", "mlp1")
ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class ModelSpec:
    """A model's kind and sizes; construction checks their values, not their JSON types."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int | None = None
    activation: str = "tanh"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.kind == "mlp1" and (self.hidden_dim is None or self.hidden_dim < 1):
            raise ValueError("mlp1 requires a positive hidden_dim")
        if self.kind == "softmax_linear" and self.hidden_dim is not None:
            raise ValueError(f"softmax_linear takes no hidden_dim, got {self.hidden_dim!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def _layers(spec: ModelSpec) -> list[tuple[int, int]]:
    """The affine layers ``(fan_in, fan_out)``, from the inputs to the classes."""
    dims = [spec.input_dim, *([spec.hidden_dim] if spec.kind == "mlp1" else []), spec.num_classes]
    return list(zip(dims[:-1], dims[1:]))


def parameter_count(spec: ModelSpec) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in _layers(spec))


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Seeded uniform(-a, a) weight init with a = sqrt(6/(fan_in+fan_out)).

    Biases start at zero.  Identical (spec, seed) yield bit-identical vectors.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in _layers(spec):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-a, a, size=(fan_out, fan_in)).ravel(), np.zeros(fan_out)]
    return np.concatenate(parts)


def _unpack(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (weight, bias) view per layer; a stacked (R, P) vector gives a leading row axis on each."""
    if params.ndim not in (1, 2) or params.shape[-1] != parameter_count(spec):
        raise ValueError(
            f"parameter vector has shape {params.shape}, expected {parameter_count(spec)} per row"
        )
    lead = params.shape[:-1]
    views, off = [], 0
    for fan_in, fan_out in _layers(spec):
        w = params[..., off : off + fan_in * fan_out].reshape(lead + (fan_out, fan_in))
        off += fan_in * fan_out
        views.append((w, params[..., off : off + fan_out]))
        off += fan_out
    return views


def _check_inputs(spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[-1] != spec.input_dim:
        raise ValueError(f"inputs have {x.shape[-1]} features, spec expects {spec.input_dim}")
    return x


def _activation(spec: ModelSpec, pre: np.ndarray) -> np.ndarray:
    """The hidden activation, written over ``pre``."""
    if spec.activation == "tanh":
        return np.tanh(pre, out=pre)
    return np.maximum(pre, 0.0, out=pre)


def _T(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (the matrix transpose of every row)."""
    return np.swapaxes(a, -1, -2)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w.T + b``, the bias added into the product's own buffer."""
    z = x @ _T(w)
    z += b[..., None, :]
    return z


def _layer_inputs(spec: ModelSpec, layers: list, x: np.ndarray) -> list[np.ndarray]:
    """The input of every layer: ``x``, then each hidden layer's activation."""
    inputs = [x]
    for w, b in layers[:-1]:
        inputs.append(_activation(spec, _affine(inputs[-1], w, b)))
    return inputs


def _row_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=-1, keepdims=True)``, taken one class column at a time.

    A maximum is exact in any order, so the values are the same; over the
    few classes of the last axis this is faster than NumPy's reduction.
    """
    out = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(out, z[..., j : j + 1], out=out)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of the last axis, written over ``z``."""
    # Max subtraction keeps the exponentials bounded for the NaN guard.
    z -= _row_max(z)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def forward(spec: ModelSpec, params: np.ndarray, inputs) -> np.ndarray:
    """Softmax class probabilities, (N, C) for a batch of N feature vectors.

    Stacked (R, P) parameters give (R, N, C) probabilities, row r from
    parameter row r; ``inputs`` may be shared (N, d) or per row (R, N, d).
    """
    x = _check_inputs(spec, inputs)
    layers = _unpack(spec, params)
    return _softmax(_affine(_layer_inputs(spec, layers, x)[-1], *layers[-1]))


def check_batch(spec: ModelSpec, inputs, labels) -> tuple[np.ndarray, np.ndarray]:
    """A batch as float64 inputs and int64 labels, after checking its shapes and label range.

    ``inputs`` is (n, d) or (R, n, d) and ``labels`` (n,) or (R, n), one
    class index per input row; raises ValueError otherwise.
    """
    x = _check_inputs(spec, inputs)
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim not in (1, 2) or y.shape[-1] != x.shape[-2]:
        raise ValueError("labels must be one integer per input row")
    if np.any(y < 0) or np.any(y >= spec.num_classes):
        raise ValueError("labels out of range")
    return x, y


def loss_and_grad(
    spec: ModelSpec, params: np.ndarray, inputs, labels
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient in the flat layout.

    Stacked (R, P) parameters train R independent rows at once: ``inputs``
    is (n, d) or (R, n, d), ``labels`` is (n,) or (R, n), and the result is
    an (R,) loss array with an (R, P) gradient.  Each row is computed
    exactly as the unstacked call on that row would compute it.
    """
    return loss_and_grad_unchecked(spec, params, *check_batch(spec, inputs, labels))


def loss_and_grad_unchecked(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """``loss_and_grad`` on a batch that ``check_batch`` has returned, without checking it again.

    A training loop checks its fixed batch once and calls this per step.
    """
    n = x.shape[-2]
    layers = _unpack(spec, params)
    acts = _layer_inputs(spec, layers, x)
    z = _affine(acts[-1], *layers[-1])
    # flat (row, example) view of z, to pick each example's label column
    target = (np.arange(z.size // z.shape[-1]), np.broadcast_to(y, z.shape[:-1]).ravel())

    with np.errstate(over="ignore", invalid="ignore"):  # NaN guard below decides
        zmax = _row_max(z)
        logsum = np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True)) + zmax
        picked = z.reshape(-1, z.shape[-1])[target].reshape(z.shape[:-1])
        loss = (logsum[..., 0] - picked).mean(axis=-1)

        dz = np.exp(z - logsum)  # softmax probabilities
        dz.reshape(-1, z.shape[-1])[target] -= 1.0
        dz /= n

    parts = []
    for i, a in reversed(list(enumerate(acts))):  # a is layer i's input, dz its output's gradient
        parts[:0] = [_T(dz) @ a, dz.sum(axis=-2)]
        if i:
            dh = dz @ layers[i][0]
            if spec.activation == "tanh":
                dz = a * a  # dh * (1 - a**2), in one buffer
                np.subtract(1.0, dz, out=dz)
                dz *= dh
            else:
                dz = dh * (a > 0.0)  # relu(pre) > 0 exactly where pre > 0
    grad = np.concatenate([part.reshape(z.shape[:-2] + (-1,)) for part in parts], axis=-1)

    if not np.all(np.isfinite(loss)) or not np.all(np.isfinite(grad)):
        raise NanGuardError("non-finite loss or gradient")
    return (float(loss) if loss.ndim == 0 else loss), grad


def penultimate_features(spec: ModelSpec, params: np.ndarray, inputs) -> np.ndarray:
    """Input to the final linear layer (the inputs themselves for the linear model).

    Stacked (R, P) parameters give (R, N, ·) features, row r from parameter
    row r, as ``forward`` does; the linear model then gives one copy of the
    inputs per row.
    """
    x = _check_inputs(spec, inputs)
    layers = _unpack(spec, params)
    if len(layers) == 1:
        shape = np.broadcast_shapes(params.shape[:-1] + (1, 1), x.shape)
        return np.array(np.broadcast_to(x, shape))
    return _layer_inputs(spec, layers, x)[-1]
