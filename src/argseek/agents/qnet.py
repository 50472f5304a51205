"""Small fully connected Q-network with hand-rolled backprop.

Hidden layers use tanh, the output layer is linear. The loss is the mean
squared error between the Q-value of the taken action and its target; only
that one output unit per sample receives error signal. Parameters update
with Adam. All parameters share one float64 vector laid out W0, b0, W1, b1,
...; so do the gradient, the Adam moments and model files, which are plain
text with 17-significant-digit values so a save/load round trip is bit exact.

The batch forward multiplies a stack of (1, d) rows, ``x[:, None, :] @ w.T``,
so numpy runs the same one-row product for every row that a single forward
runs: each row of a batch equals ``mlp_forward`` of that row bit for bit, and
batching the double-DQN targets changes no trained byte. A plain (B, d)
product sums in a different order and differs in the last few bits.
``mlp_gradients`` keeps the plain product, which training has always used,
so its bits stay as they were too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..kb import read_lines


def _layer_views(flat: np.ndarray, layer_dims: tuple[int, ...]) -> tuple[list, list]:
    """Per-layer weight and bias views into a vector laid out like ``flat``."""
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


@dataclass
class QNetworkParams:
    """Every parameter in one float64 vector ``flat``; ``weights[i]`` (shape
    (out, in)) and ``biases[i]`` are views into it."""

    layer_dims: tuple[int, ...]
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dims = self.layer_dims
        if len(dims) < 2 or min(dims) < 1:
            raise ValueError(f"need at least two positive layer dims, got {dims}")
        size = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(dims[:-1], dims[1:]))
        self.flat = np.ascontiguousarray(self.flat, dtype=np.float64)
        if self.flat.shape != (size,):
            raise ValueError(f"parameter count {self.flat.size} does not match dims {dims}")
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("non-finite parameter values")
        self.weights, self.biases = _layer_views(self.flat, dims)


def init_qnet(layer_dims: tuple[int, ...], rng: np.random.Generator) -> QNetworkParams:
    """Symmetric uniform init scaled by 1/sqrt(fan_in), for weights and biases."""
    layers = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        layers.append(rng.uniform(-bound, bound, size=fan_out * (fan_in + 1)))
    return QNetworkParams(tuple(layer_dims), np.concatenate(layers))


def copy_params(params: QNetworkParams) -> QNetworkParams:
    return QNetworkParams(params.layer_dims, params.flat.copy())


def mlp_forward_batch(params: QNetworkParams, x: np.ndarray) -> np.ndarray:
    """Q-values for a batch of feature rows, shape (B, n_actions); row i is
    bitwise ``mlp_forward(params, x[i])``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layer_dims[0]:
        raise ValueError(
            f"expected batch of dim-{params.layer_dims[0]} rows, got {x.shape}"
        )
    h = x[:, None, :]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T + b
        if i != last:
            h = np.tanh(h)
    return h[:, 0, :]


def mlp_forward(params: QNetworkParams, x: np.ndarray) -> np.ndarray:
    """Q-values for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a single feature vector")
    return mlp_forward_batch(params, x[None, :])[0]


def mlp_gradients(
    params: QNetworkParams, x: np.ndarray, actions: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss and exact gradient of mean (Q(x)[a] - target)^2 over the batch.

    Returns (loss, grad) with ``grad`` laid out like ``params.flat``.
    """
    x = np.asarray(x, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or len(actions) != len(x) or len(targets) != len(x) or not len(x):
        raise ValueError("batch arrays must be non-empty with matching lengths")

    acts = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = acts[-1] @ w.T + b
        acts.append(h if i == last else np.tanh(h))
    q = acts[-1]
    batch = len(x)
    picked = q[np.arange(batch), actions]
    err = picked - targets
    loss = float(np.mean(err**2))

    # Only the taken action's output unit carries error signal.
    delta = np.zeros_like(q)
    delta[np.arange(batch), actions] = 2.0 * err / batch

    grad = np.empty_like(params.flat)
    w_grads, b_grads = _layer_views(grad, params.layer_dims)
    for i in range(len(w_grads) - 1, -1, -1):
        w_grads[i][...] = delta.T @ acts[i]
        b_grads[i][...] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i]) * (1.0 - acts[i] ** 2)

    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient values")
    return loss, grad


@dataclass
class AdamState:
    """Moment accumulators laid out like ``QNetworkParams.flat`` from the
    first step on; 0.0 before it."""

    m: np.ndarray | float = 0.0
    v: np.ndarray | float = 0.0
    t: int = 0


def adam_update(
    params: QNetworkParams,
    grad: np.ndarray,
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One in-place Adam step with bias-corrected moments; ``grad`` is laid
    out like ``params.flat``."""
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad**2
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    params.flat -= learning_rate * (state.m / c1) / (np.sqrt(state.v / c2) + eps)


def save_qnet(params: QNetworkParams, path: str | Path) -> None:
    """Text format: a dims header, then one value of ``flat`` per line."""
    lines = ["dims " + " ".join(str(d) for d in params.layer_dims)]
    lines.extend("%.17g" % v for v in params.flat)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_qnet(path: str | Path) -> QNetworkParams:
    """Read a model file; errors name the file, and the line where there is one."""
    lines = read_lines(path)
    if not lines or not lines[0].startswith("dims "):
        raise ValueError(f"{path}: not a model file (missing dims header)")
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip():
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from None
            if not math.isfinite(values[-1]):
                raise ValueError(f"{path}:{lineno}: non-finite value {line!r}")
    try:
        dims = tuple(int(t) for t in lines[0].split()[1:])
        return QNetworkParams(dims, np.array(values, dtype=np.float64))
    except ValueError as exc:
        raise ValueError(f"{path}: dims header: {exc}") from None
