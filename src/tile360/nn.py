"""Minimal float64 neural-network kernels with hand-written backward passes.

Everything here is plain numpy. The networks built on top of these kernels
are small and have fixed topology, so each layer carries a static backward
pass instead of a general autodiff tape. All math is done in float64 so
analytic gradients can be checked tightly against central finite differences.

Conventions:
  * feature vectors live on the last axis; a leading batch axis is optional
    and passes through every kernel unchanged,
  * weight matrices are (out_features, in_features), applied as ``x @ w.T``,
  * parameters of a whole network live in a :class:`ParamStore`, an ordered
    name -> array mapping that can flatten to a single vector (for Adam and
    for finite-difference checks) and write back in place.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ParameterError, ShapeError, TrainingError

Array = np.ndarray

CHECKPOINT_MAGIC = b"T360"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def sigmoid(x: Array) -> Array:
    """Numerically safe logistic function.

    ``1 / (1 + e^-x)`` for x >= 0 and ``e^x / (1 + e^x)`` otherwise, both
    from ``e = exp(-|x|) <= 1``, so neither branch can overflow.
    """
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def softmax(logits: Array, axis: int = -1) -> Array:
    """Max-subtracted softmax; output sums to 1 along ``axis``."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ShapeError("softmax of an empty vector is undefined")
    if not np.all(np.isfinite(logits)):
        raise ParameterError("softmax requires finite logits")
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def entropy(probs: Array, axis: int = -1) -> Array:
    """Shannon entropy (nats) of a categorical distribution."""
    p = np.clip(probs, 1e-300, None)
    return -np.sum(p * np.log(p), axis=axis)


# ---------------------------------------------------------------------------
# parameter storage
# ---------------------------------------------------------------------------

class ParamStore:
    """Ordered name -> float64 array mapping with a flat-vector view.

    Layers register their arrays here; the arrays themselves are shared, so
    in-place writes through :meth:`from_vector` are immediately visible to
    every layer that holds them.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, Array] = {}

    def add(self, name: str, array: Array) -> Array:
        if name in self._arrays:
            raise ParameterError(f"duplicate parameter name {name!r}")
        arr = np.asarray(array, dtype=np.float64)
        self._arrays[name] = arr
        return arr

    def __getitem__(self, name: str) -> Array:
        return self._arrays[name]

    def __setitem__(self, name: str, value: Array) -> None:
        """In-place write so shared references stay valid (shape must match)."""
        arr = self._arrays[name]
        if arr is value:
            return
        arr[...] = value

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self) -> Iterator[tuple[str, Array]]:
        return iter(self._arrays.items())

    @property
    def size(self) -> int:
        return sum(a.size for a in self._arrays.values())

    def to_vector(self) -> Array:
        if not self._arrays:
            return np.zeros(0)
        return np.concatenate([a.ravel() for a in self._arrays.values()])

    def from_vector(self, vec: Array) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.size,):
            raise ShapeError(
                f"vector has {vec.shape} entries, store holds {self.size}"
            )
        offset = 0
        for arr in self._arrays.values():
            arr[...] = vec[offset : offset + arr.size].reshape(arr.shape)
            offset += arr.size

    def zeros_like(self) -> "ParamStore":
        out = ParamStore()
        for name, arr in self._arrays.items():
            out.add(name, np.zeros_like(arr))
        return out

    def copy_from(self, other: "ParamStore") -> None:
        if self.names() != other.names():
            raise ShapeError("parameter stores have different layouts")
        for name, arr in self._arrays.items():
            arr[...] = other[name]


def uniform_init(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> Array:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# linear layer
# ---------------------------------------------------------------------------

def linear_forward(weights: Array, bias: Array, x: Array) -> Array:
    """``y[k] = sum_j weights[k, j] * x[j] + bias[k]``; batches broadcast."""
    weights = np.asarray(weights, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if weights.ndim != 2:
        raise ShapeError("weights must be a matrix")
    if x.shape[-1] != weights.shape[1]:
        raise ShapeError(
            f"input has {x.shape[-1]} features, layer expects {weights.shape[1]}"
        )
    if bias.shape != (weights.shape[0],):
        raise ShapeError("bias length must equal the layer's output size")
    return x @ weights.T + bias


def linear_backward(
    weights: Array, x: Array, dy: Array
) -> tuple[Array, Array, Array]:
    """Returns (dx, dweights, dbias) for a linear layer."""
    if x.ndim == 1:
        dw = np.outer(dy, x)
        db = dy.copy()
    else:
        flat_x = x.reshape(-1, x.shape[-1])
        flat_dy = dy.reshape(-1, dy.shape[-1])
        dw = flat_dy.T @ flat_x
        db = flat_dy.sum(axis=0)
    dx = dy @ weights
    return dx, dw, db


class Linear:
    """Fully connected layer whose parameters live in a ParamStore."""

    def __init__(
        self,
        store: ParamStore,
        prefix: str,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
    ) -> None:
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w = store.add(f"{prefix}.w", uniform_init((out_dim, in_dim), in_dim, rng))
        self.b = store.add(f"{prefix}.b", uniform_init((out_dim,), in_dim, rng))
        self._prefix = prefix

    def forward(self, x: Array) -> Array:
        return linear_forward(self.w, self.b, x)

    def backward(self, x: Array, dy: Array, grads: ParamStore) -> Array:
        dx, dw, db = linear_backward(self.w, x, dy)
        grads[f"{self._prefix}.w"] += dw
        grads[f"{self._prefix}.b"] += db
        return dx


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

@dataclass
class LstmCellParams:
    """Fused gate weights for one LSTM cell.

    ``w`` has shape (4 * hidden_dim, input_dim + hidden_dim) and acts on the
    concatenation [x, h_prev]; its row blocks of hidden_dim rows are the
    gates i, f, o, g in that order. ``b`` has length 4 * hidden_dim with the
    same block layout.
    """

    input_dim: int
    hidden_dim: int
    w: Array
    b: Array

    @classmethod
    def create(
        cls,
        store: ParamStore,
        prefix: str,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
    ) -> "LstmCellParams":
        z_dim = input_dim + hidden_dim
        w = store.add(f"{prefix}.w", uniform_init((4 * hidden_dim, z_dim), z_dim, rng))
        b = store.add(f"{prefix}.b", uniform_init((4 * hidden_dim,), z_dim, rng))
        return cls(input_dim=input_dim, hidden_dim=hidden_dim, w=w, b=b)


@dataclass
class LstmStepCache:
    """Forward intermediates needed by the backward pass of one step.

    ``gates`` holds the activated gates [i, f, o, g] along the last axis.
    """

    z: Array
    gates: Array
    c_prev: Array
    tanh_c: Array


def lstm_step(
    params: LstmCellParams, x: Array, h_prev: Array, c_prev: Array
) -> tuple[Array, Array, LstmStepCache]:
    """One step of the standard LSTM recurrence.

    Gates: i, f, o are sigmoids; candidate g and the cell read-out are tanh:
        c = f * c_prev + i * g,   h = o * tanh(c).
    Accepts (dim,) vectors or (batch, dim) matrices.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.input_dim:
        raise ShapeError(
            f"lstm input has {x.shape[-1]} features, cell expects {params.input_dim}"
        )
    hid = params.hidden_dim
    if h_prev.shape[-1] != hid or c_prev.shape[-1] != hid:
        raise ShapeError("hidden/cell state size does not match the cell")
    z = np.concatenate([x, h_prev], axis=-1)
    # bias added in place: a second (batch, 4H) temporary per step left heap
    # holes between the cached gate arrays and raised peak memory by ~2%
    gates = z @ params.w.T
    gates += params.b
    gates[..., : 3 * hid] = sigmoid(gates[..., : 3 * hid])
    gates[..., 3 * hid :] = np.tanh(gates[..., 3 * hid :])
    i, f, o, g = np.split(gates, 4, axis=-1)
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return h, c, LstmStepCache(z=z, gates=gates, c_prev=c_prev, tanh_c=tanh_c)


def lstm_step_backward(
    params: LstmCellParams,
    prefix: str,
    cache: LstmStepCache,
    dh: Array,
    dc: Array,
    grads: ParamStore,
) -> tuple[Array, Array, Array]:
    """Backward pass of one LSTM step; returns (dx, dh_prev, dc_prev).

    Accepts the (dim,) or (batch, dim) shapes of :func:`lstm_step`; the
    returned gradients have the shape of the forward inputs.
    """
    vector = cache.z.ndim == 1
    z, gates, c_prev, tanh_c, dh, dc = map(
        np.atleast_2d, (cache.z, cache.gates, cache.c_prev, cache.tanh_c, dh, dc)
    )
    i, f, o, g = np.split(gates, 4, axis=-1)
    dc_total = dc + dh * o * (1.0 - tanh_c**2)
    da = np.concatenate(
        [
            dc_total * g * i * (1.0 - i),
            dc_total * c_prev * f * (1.0 - f),
            dh * tanh_c * o * (1.0 - o),
            dc_total * i * (1.0 - g**2),
        ],
        axis=-1,
    )
    grads[f"{prefix}.w"] += da.T @ z
    grads[f"{prefix}.b"] += da.sum(axis=0)
    dz = da @ params.w
    dc_prev = dc_total * f
    if vector:
        dz, dc_prev = dz[0], dc_prev[0]
    return dz[..., : params.input_dim], dz[..., params.input_dim :], dc_prev


# ---------------------------------------------------------------------------
# 1-D convolution (valid, cross-correlation)
# ---------------------------------------------------------------------------

def conv1d_forward(filters: Array, bias: Array, x: Array) -> Array:
    """Valid (no padding) 1-D cross-correlation.

    ``x`` is (length, channels) or (batch, length, channels); ``filters`` is
    (n_filters, width, channels). Output length is
    length - width + 1, feature axis is the filter bank.
    A 1-D ``x`` or 2-D ``filters`` is treated as single-channel.
    """
    x = np.asarray(x, dtype=np.float64)
    filters = np.asarray(filters, dtype=np.float64)
    if filters.ndim == 2:
        filters = filters[:, :, None]
    squeeze_batch = False
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim == 2:
        x = x[None, :, :]
        squeeze_batch = True
    n_filters, width, channels = filters.shape
    batch, length, x_channels = x.shape
    if x_channels != channels:
        raise ShapeError(f"input has {x_channels} channels, filters expect {channels}")
    if length < width:
        raise ShapeError(f"input length {length} is shorter than filter width {width}")
    out_len = length - width + 1
    windows = np.stack(
        [x[:, k : k + width, :] for k in range(out_len)], axis=1
    )  # (batch, out_len, width, channels)
    out = (
        windows.reshape(batch, out_len, width * channels)
        @ filters.reshape(n_filters, width * channels).T
    )
    out += bias
    return out[0] if squeeze_batch else out


def conv1d_backward(filters: Array, x: Array, dy: Array) -> tuple[Array, Array, Array]:
    """Returns (dx, dfilters, dbias); shapes follow :func:`conv1d_forward`."""
    filters = np.asarray(filters, dtype=np.float64)
    if filters.ndim == 2:
        filters = filters[:, :, None]
    squeeze_batch = False
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim == 2:
        x = x[None, :, :]
        dy = dy[None, :, :]
        squeeze_batch = True
    n_filters, width, channels = filters.shape
    batch, length, _ = x.shape
    out_len = dy.shape[1]
    windows = np.stack([x[:, k : k + width, :] for k in range(out_len)], axis=1)
    flat_windows = windows.reshape(batch * out_len, width * channels)
    flat_dy = dy.reshape(batch * out_len, n_filters)
    dfilters = (flat_dy.T @ flat_windows).reshape(n_filters, width, channels)
    dbias = flat_dy.sum(axis=0)
    dwindows = (flat_dy @ filters.reshape(n_filters, width * channels)).reshape(
        batch, out_len, width, channels
    )
    dx = np.zeros_like(x)
    for k in range(out_len):
        dx[:, k : k + width, :] += dwindows[:, k, :, :]
    return (dx[0] if squeeze_batch else dx), dfilters, dbias


class Conv1d:
    """Valid 1-D convolution bank bound to a ParamStore."""

    def __init__(
        self,
        store: ParamStore,
        prefix: str,
        channels: int,
        width: int,
        n_filters: int,
        rng: np.random.Generator,
    ) -> None:
        fan_in = width * channels
        self.filters = store.add(
            f"{prefix}.filters", uniform_init((n_filters, width, channels), fan_in, rng)
        )
        self.bias = store.add(f"{prefix}.bias", uniform_init((n_filters,), fan_in, rng))
        self._prefix = prefix

    def forward(self, x: Array) -> Array:
        return conv1d_forward(self.filters, self.bias, x)

    def backward(self, x: Array, dy: Array, grads: ParamStore) -> Array:
        dx, dfilt, dbias = conv1d_backward(self.filters, x, dy)
        grads[f"{self._prefix}.filters"] += dfilt
        grads[f"{self._prefix}.bias"] += dbias
        return dx


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Adam moment estimates for one flat parameter vector."""

    first_moment: Array
    second_moment: Array
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    learning_rate: float = 1e-3

    @classmethod
    def create(cls, n_params: int, learning_rate: float = 1e-3, **kwargs) -> "AdamState":
        return cls(
            first_moment=np.zeros(n_params),
            second_moment=np.zeros(n_params),
            learning_rate=learning_rate,
            **kwargs,
        )


def adam_update(state: AdamState, params: Array, grads: Array) -> Array:
    """One bias-corrected Adam step; returns the updated parameter vector.

    ``state`` is mutated (moments and step count advance). A NaN anywhere in
    the gradient aborts with :class:`TrainingError` rather than poisoning the
    moments.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ShapeError("params, grads and Adam moments must have equal length")
    if not np.all(np.isfinite(grads)):
        raise TrainingError("non-finite gradient passed to adam_update")
    state.step_count += 1
    t = state.step_count
    state.first_moment *= state.beta1
    state.first_moment += (1.0 - state.beta1) * grads
    state.second_moment *= state.beta2
    state.second_moment += (1.0 - state.beta2) * grads**2
    m_hat = state.first_moment / (1.0 - state.beta1**t)
    v_hat = state.second_moment / (1.0 - state.beta2**t)
    return params - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def finite_diff_check(
    loss_fn: Callable[[Array], tuple[float, Array]],
    params: Array,
    step: float = 1e-5,
    coords: Array | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn(vec)`` must return ``(loss, grad_vector)`` and be deterministic.
    The error at each checked coordinate is
    ``|analytic - numeric| / max(1e-8, |numeric|)``; ``coords`` restricts the
    scan to a subset of coordinates (default: all of them).
    """
    params = np.asarray(params, dtype=np.float64)
    loss0, grad = loss_fn(params)
    if not np.isfinite(loss0) or not np.all(np.isfinite(grad)):
        raise TrainingError("loss or analytic gradient is non-finite at the check point")
    if grad.shape != params.shape:
        raise ShapeError("analytic gradient length does not match parameters")
    if coords is None:
        coords = np.arange(params.size)
    worst = 0.0
    for k in np.asarray(coords, dtype=int):
        bumped = params.copy()
        bumped[k] += step
        up, _ = loss_fn(bumped)
        bumped[k] -= 2.0 * step
        down, _ = loss_fn(bumped)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise TrainingError("non-finite loss during finite-difference scan")
        numeric = (up - down) / (2.0 * step)
        err = abs(grad[k] - numeric) / max(1e-8, abs(numeric))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------
#
# Layout: 4-byte magic, little-endian uint32 header length, UTF-8 JSON header
# {"format_version", "arrays": [{"name", "shape"}, ...], "meta": {...}}, then
# the arrays' float64 little-endian bytes concatenated in header order.

def save_checkpoint(path, arrays: ParamStore | dict, meta: dict | None = None) -> None:
    items = list(arrays.items())
    header = {
        "format_version": CHECKPOINT_VERSION,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in items],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in items:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict[str, Array], dict]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ParameterError(f"{path} is not a parameter checkpoint")
        (header_len,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(header_len).decode("utf-8"))
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise ParameterError(
                f"unsupported checkpoint version {header.get('format_version')}"
            )
        out: dict[str, Array] = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(count * 8), dtype="<f8").astype(np.float64)
            out[entry["name"]] = data.reshape(shape)
    return out, header.get("meta", {})
