"""Viewpoint predictors: static, least-squares, cross-user KNN, attentive net.

All predictors operate in normalized coordinates: longitude is unwrapped
(made continuous across the +-180 seam), re-centered on the last history
sample, and divided by 180; latitude is divided by 90. Outputs therefore
live in [-1, 1]^2 and are mapped back to wrapped degrees with the task's
stored anchor. Re-centering keeps L1 training losses free of seam jumps and
keeps realistic head movement inside the tanh output range.

The attentive network shares one two-layer LSTM encoder between the current
user and every cross user, scores cross users by inner product with the
current user's embedding, softmax-normalizes those scores, fuses embeddings
by weighted addition, and decodes the fused vector with a tanh linear layer.
Multi-step prediction is rolling: each predicted viewpoint is appended to
the user's history while cross-user encodings advance on their true samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PredictionError, TrainingError
from .geometry import (
    TileGrid,
    Trajectory,
    Viewpoint,
    clamp_latitude,
    viewing_probabilities,
    wrap_longitude,
)
from .nn import (
    AdamState,
    Linear,
    LstmCellParams,
    ParamStore,
    adam_update,
    lstm_step,
    lstm_step_backward,
    softmax,
)

Array = np.ndarray

DEFAULT_HIDDEN = 32
DEFAULT_CADENCE_HZ = 6.0   # one kept frame out of five at 30 fps
DEFAULT_HISTORY_S = 1.0
DEFAULT_HORIZON_S = 5.0
DEFAULT_KNN_K = 5


# ---------------------------------------------------------------------------
# prediction tasks
# ---------------------------------------------------------------------------

@dataclass
class PredictionTask:
    """One prediction instance in normalized coordinates.

    ``history`` is (H, 2); ``cross`` is (M, H + horizon, 2) ground truth for
    other users on the same video (M may be zero); ``targets`` is
    (horizon, 2) when ground truth for the current user is known.
    ``anchor_lon`` is the degree longitude subtracted before normalization.
    """

    history: Array
    cross: Array
    horizon: int
    targets: Array | None = None
    anchor_lon: float = 0.0

    def __post_init__(self) -> None:
        self.history = np.asarray(self.history, dtype=np.float64)
        self.cross = np.asarray(self.cross, dtype=np.float64)
        if self.history.ndim != 2 or self.history.shape[1] != 2 or self.history.shape[0] < 1:
            raise ParameterError("history must be a nonempty (H, 2) array")
        if self.horizon < 1:
            raise ParameterError("horizon must be at least one step")
        if self.cross.size == 0:
            self.cross = np.zeros((0, self.history.shape[0] + self.horizon, 2))
        if self.cross.ndim != 3 or self.cross.shape[2] != 2:
            raise ParameterError("cross must be (M, H + horizon, 2)")
        need = self.history.shape[0] + self.horizon
        if self.cross.shape[0] > 0 and self.cross.shape[1] < need:
            raise PredictionError(
                f"cross-user trajectories cover {self.cross.shape[1]} steps, need {need}"
            )
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=np.float64)
            if self.targets.shape != (self.horizon, 2):
                raise ParameterError("targets must be (horizon, 2)")

    @property
    def history_len(self) -> int:
        return int(self.history.shape[0])

    @property
    def n_cross(self) -> int:
        return int(self.cross.shape[0])

    def denormalize(self, coords: Array) -> list[Viewpoint]:
        """Map (..., 2) normalized coordinates back to wrapped viewpoints."""
        pts = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        return [
            Viewpoint(
                wrap_longitude(x * 180.0 + self.anchor_lon),
                clamp_latitude(y * 90.0),
            )
            for x, y in pts
        ]


def _recenter(unwrapped_lons: Array, anchor: float, center_index: int) -> Array:
    """Anchor-relative continuous longitudes, turn-shifted near zero.

    Subtracts the anchor and removes whole turns so the sample at
    ``center_index`` lands within half a turn of it.
    """
    rel = unwrapped_lons - anchor
    return rel - 360.0 * np.round(rel[center_index] / 360.0)


def task_from_trajectories(
    user: Trajectory,
    cross: list[Trajectory],
    end_index: int,
    history_len: int,
    horizon: int,
    with_targets: bool = True,
) -> PredictionTask:
    """Cut one task out of degree-space trajectories.

    ``end_index`` is the last history sample; the task covers samples
    [end_index - history_len + 1, end_index + horizon]. Longitudes are
    unwrapped over that window and re-centered on the user's sample at
    ``end_index``.
    """
    start = end_index - history_len + 1
    stop = end_index + horizon + 1
    if start < 0:
        raise ParameterError("not enough history before end_index")
    if stop > len(user):
        raise PredictionError("user trajectory too short for the requested horizon")
    u_lons = user.unwrapped_lons()[start:stop]
    anchor = float(u_lons[history_len - 1])
    u_x = (u_lons - anchor) / 180.0
    u_y = user.lats[start:stop] / 90.0
    history = np.stack([u_x[:history_len], u_y[:history_len]], axis=1)
    targets = (
        np.stack([u_x[history_len:], u_y[history_len:]], axis=1) if with_targets else None
    )

    rows = []
    for other in cross:
        if stop > len(other):
            raise PredictionError(
                f"cross trajectory {other.user_id!r} too short for the window"
            )
        o_lons = _recenter(other.unwrapped_lons()[start:stop], anchor, history_len - 1)
        o_x = o_lons / 180.0
        o_y = other.lats[start:stop] / 90.0
        rows.append(np.stack([o_x, o_y], axis=1))
    cross_arr = np.stack(rows, axis=0) if rows else np.zeros((0, stop - start, 2))
    return PredictionTask(
        history=history,
        cross=cross_arr,
        horizon=horizon,
        targets=targets,
        anchor_lon=anchor,
    )


# ---------------------------------------------------------------------------
# non-learned predictors
# ---------------------------------------------------------------------------

def predict_static(task: PredictionTask) -> Array:
    """Repeat the last observed viewpoint across the horizon."""
    return np.tile(task.history[-1], (task.horizon, 1))


def predict_lr(task: PredictionTask) -> Array:
    """Ordinary least squares per coordinate, extrapolated and clamped."""
    h = task.history_len
    if h < 2:
        raise ParameterError("least-squares prediction needs at least two samples")
    t = np.arange(h, dtype=np.float64)
    t_mean = t.mean()
    denom = float(((t - t_mean) ** 2).sum())
    future = np.arange(h, h + task.horizon, dtype=np.float64)
    out = np.empty((task.horizon, 2))
    for d in range(2):
        series = task.history[:, d]
        slope = float(((t - t_mean) * (series - series.mean())).sum()) / denom
        intercept = series.mean() - slope * t_mean
        out[:, d] = intercept + slope * future
    return np.clip(out, -1.0, 1.0)


def _wrapped_manhattan_deg(a: Array, b: Array) -> Array:
    """Manhattan distance in degrees between normalized coordinate rows."""
    dx = np.abs(a[..., 0] - b[..., 0]) % 2.0
    dx = np.minimum(dx, 2.0 - dx) * 180.0
    dy = np.abs(a[..., 1] - b[..., 1]) * 90.0
    return dx + dy


def predict_knn(
    task: PredictionTask,
    k: int = DEFAULT_KNN_K,
    grid: TileGrid | None = None,
    fov_deg: tuple[float, float] = (100.0, 100.0),
) -> tuple[Array, Array | None]:
    """Amend the least-squares forecast with nearby cross-user viewpoints.

    For each future step, the k cross-user viewpoints closest (wrapped
    Manhattan distance) to the least-squares prediction are averaged into
    the amended viewpoint; their per-tile viewing-probability vectors are
    averaged into the tile estimate (None when no grid is given).
    """
    if task.n_cross == 0:
        raise PredictionError("cross-user KNN needs at least one cross trajectory")
    if k < 1 or k > task.n_cross:
        raise ParameterError(f"k must be in [1, {task.n_cross}]")
    base = predict_lr(task)
    h = task.history_len
    points = np.empty((task.horizon, 2))
    probs = np.empty((task.horizon, grid.n_tiles)) if grid is not None else None
    for s in range(task.horizon):
        others = task.cross[:, h + s, :]
        dist = _wrapped_manhattan_deg(others, base[s])
        nearest = np.argsort(dist, kind="stable")[:k]
        chosen = others[nearest]
        points[s] = chosen.mean(axis=0)
        if grid is not None:
            vecs = [
                viewing_probabilities(task.denormalize(c)[0], grid, *fov_deg)
                for c in chosen
            ]
            probs[s] = np.mean(vecs, axis=0)
    return points, probs


# ---------------------------------------------------------------------------
# cross-user attentive network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttentionTrace:
    """Participants, similarities, weights, and fused embedding of one step.

    Participant order: cross users first, the current user last. Leading
    batch axes of the inputs carry through every field.
    """

    stacked: Array
    similarities: Array
    weights: Array
    fused: Array


def attend(user_embedding: Array, cross_embeddings: Array) -> AttentionTrace:
    """Inner-product attention over {cross users} + {current user}.

    ``user_embedding`` is (..., hidden) and ``cross_embeddings`` is
    (..., M, hidden) with the same leading axes; M may be zero.
    """
    user_embedding = np.asarray(user_embedding, dtype=np.float64)
    cross_embeddings = np.asarray(cross_embeddings, dtype=np.float64)
    if cross_embeddings.ndim != user_embedding.ndim + 1 or (
        cross_embeddings.shape[:-2] + cross_embeddings.shape[-1:] != user_embedding.shape
    ):
        raise ParameterError(
            f"cross embeddings {cross_embeddings.shape} do not match the user "
            f"embedding {user_embedding.shape} as (..., M, hidden) and (..., hidden)"
        )
    stacked = np.concatenate([cross_embeddings, user_embedding[..., None, :]], axis=-2)
    sims = np.einsum("...mh,...h->...m", stacked, user_embedding)
    weights = softmax(sims, axis=-1)
    fused = np.einsum("...m,...mh->...h", weights, stacked)
    return AttentionTrace(stacked=stacked, similarities=sims, weights=weights, fused=fused)


class CrossUserAttentiveNet:
    """Shared-encoder attention predictor with exact analytic gradients."""

    def __init__(self, hidden: int = DEFAULT_HIDDEN, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.hidden = hidden
        self.store = ParamStore()
        self.enc1 = LstmCellParams.create(self.store, "enc1", 2, hidden, rng)
        self.enc2 = LstmCellParams.create(self.store, "enc2", hidden, hidden, rng)
        self.dec = Linear(self.store, "dec", hidden, 2, rng)

    # -- encoder stepping ----------------------------------------------------

    def _zero_state(self, lead: tuple[int, ...]) -> tuple[Array, Array, Array, Array]:
        shape = lead + (self.hidden,)
        return (np.zeros(shape), np.zeros(shape), np.zeros(shape), np.zeros(shape))

    def _encode_step(self, x, state, caches=None):
        h1, c1, h2, c2 = state
        h1n, c1n, cache1 = lstm_step(self.enc1, x, h1, c1)
        h2n, c2n, cache2 = lstm_step(self.enc2, h1n, h2, c2)
        if caches is not None:
            caches.append((cache1, cache2))
        return (h1n, c1n, h2n, c2n)

    def _backward_step(self, caches_k, dstate, grads):
        dh1, dc1, dh2, dc2 = dstate
        cache1, cache2 = caches_k
        dx2, dh2p, dc2p = lstm_step_backward(self.enc2, "enc2", cache2, dh2, dc2, grads)
        dx1, dh1p, dc1p = lstm_step_backward(
            self.enc1, "enc1", cache1, dh1 + dx2, dc1, grads
        )
        return dx1, (dh1p, dc1p, dh2p, dc2p)

    def encode(self, sequence: Array, state=None) -> tuple[Array, tuple]:
        """Run the two-layer encoder over (L, 2); returns (embedding, state).

        Passing the returned state back in resumes the recurrence, so the
        embedding of a sequence equals resuming from its prefix's state.
        """
        sequence = np.asarray(sequence, dtype=np.float64)
        if sequence.ndim != 2 or sequence.shape[1] != 2 or sequence.shape[0] < 1:
            raise ParameterError("sequence must be a nonempty (L, 2) array")
        if state is None:
            state = self._zero_state(())
        for step in sequence:
            state = self._encode_step(step, state)
        return state[2], state

    # -- rolling forward ------------------------------------------------------

    def _forward(self, history: Array, cross: Array, horizon: int, keep: bool):
        """Batched rolling prediction.

        ``history`` is (B, H, 2), ``cross`` is (B, M, H + horizon, 2). Returns
        predictions (B, horizon, 2) plus the cache needed for backward when
        ``keep`` is true.
        """
        B, H, _ = history.shape
        M = cross.shape[1]
        user_state = self._zero_state((B,))
        user_caches: list | None = [] if keep else None
        for k in range(H):
            user_state = self._encode_step(history[:, k], user_state, user_caches)

        flat_cross = cross.reshape(B * M, cross.shape[2], 2)
        cross_state = self._zero_state((B * M,))
        cross_caches: list | None = [] if keep else None
        for k in range(H + 1 if M > 0 else 0):
            cross_state = self._encode_step(flat_cross[:, k], cross_state, cross_caches)

        preds = np.empty((B, horizon, 2))
        att_cache = []
        for s in range(1, horizon + 1):
            trace = attend(user_state[2], cross_state[2].reshape(B, M, self.hidden))
            yhat = np.tanh(self.dec.forward(trace.fused))
            preds[:, s - 1] = yhat
            if keep:
                att_cache.append((trace, yhat))
            if s < horizon:
                user_state = self._encode_step(yhat, user_state, user_caches)
                if M > 0:
                    cross_state = self._encode_step(
                        flat_cross[:, H + s], cross_state, cross_caches
                    )
        cache = {
            "user_caches": user_caches,
            "cross_caches": cross_caches,
            "att": att_cache,
            "B": B,
            "H": H,
            "M": M,
            "horizon": horizon,
        }
        return preds, cache

    def predict(self, task: PredictionTask) -> Array:
        """Rolling multi-step prediction for one task; output (horizon, 2)."""
        preds, _ = self._forward(
            task.history[None, :, :], task.cross[None, :, :, :], task.horizon, keep=False
        )
        return preds[0]

    def predict_batch(self, history: Array, cross: Array, horizon: int) -> Array:
        preds, _ = self._forward(history, cross, horizon, keep=False)
        return preds

    # -- loss and gradient ------------------------------------------------------

    def loss_and_grad(
        self, history: Array, cross: Array, targets: Array
    ) -> tuple[float, ParamStore]:
        """Mean per-task L1 trajectory loss and its analytic gradient.

        The gradient flows through the rolling feedback (each prediction is
        the next encoder input) and through the shared encoder on every
        cross-user chain.
        """
        history = np.asarray(history, dtype=np.float64)
        cross = np.asarray(cross, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        B, H, _ = history.shape
        M = cross.shape[1]
        horizon = targets.shape[1]
        preds, cache = self._forward(history, cross, horizon, keep=True)
        residual = preds - targets
        loss = float(np.abs(residual).sum() / B)

        grads = self.store.zeros_like()
        dstate = self._zero_state((B,))
        user_caches = cache["user_caches"]
        att = cache["att"]
        pending_dy = np.zeros((B, 2))
        cross_inject: list[Array] = []

        for s in range(horizon, 0, -1):
            trace, yhat = att[s - 1]
            stacked, alpha = trace.stacked, trace.weights
            dy = np.sign(residual[:, s - 1]) / B + pending_dy
            dpre = dy * (1.0 - yhat**2)
            grads["dec.w"] += dpre.T @ trace.fused
            grads["dec.b"] += dpre.sum(axis=0)
            dfused = dpre @ self.dec.w
            dalpha = np.einsum("bh,bmh->bm", dfused, stacked)
            dstacked = alpha[:, :, None] * dfused[:, None, :]
            dsims = alpha * (dalpha - np.sum(alpha * dalpha, axis=-1, keepdims=True))
            # sims[b, m] = stacked[b, m] . f_user[b]; the user is the last slot
            dstacked += dsims[:, :, None] * stacked[:, -1:, :]
            dquery = np.einsum("bm,bmh->bh", dsims, stacked)
            df_user = dstacked[:, -1, :] + dquery
            if M > 0:
                cross_inject.append(dstacked[:, :-1, :])
            dh1, dc1, dh2, dc2 = dstate
            dstate = (dh1, dc1, dh2 + df_user, dc2)
            # the user chain step that produced this embedding consumed
            # history[H-1] for s == 1 and yhat_{s-1} otherwise
            dx, dstate = self._backward_step(user_caches.pop(), dstate, grads)
            pending_dy = dx if s > 1 else None
        # remaining history steps (inputs are ground truth; dx is discarded)
        while user_caches:
            _, dstate = self._backward_step(user_caches.pop(), dstate, grads)

        if M > 0:
            cross_caches = cache["cross_caches"]
            dstate_c = self._zero_state((B * M,))
            inject_at = {H + s - 1: horizon - s for s in range(1, horizon + 1)}
            # cross_inject was appended for s = horizon .. 1
            for k in range(len(cross_caches) - 1, -1, -1):
                if k in inject_at:
                    dh1, dc1, dh2, dc2 = dstate_c
                    add = cross_inject[inject_at[k]].reshape(B * M, self.hidden)
                    dstate_c = (dh1, dc1, dh2 + add, dc2)
                _, dstate_c = self._backward_step(cross_caches[k], dstate_c, grads)
        if not np.isfinite(loss):
            raise TrainingError("attentive-net loss is non-finite")
        return loss, grads


@dataclass
class CuanTrainConfig:
    """Adam training configuration for the attentive network.

    ``lr_decay`` multiplies the learning rate once per epoch; with the L1
    objective a mild decay (0.85-0.95) lets Adam settle instead of
    oscillating around the kink.
    """

    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    lr_decay: float = 1.0
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8


def stack_tasks(tasks: list[PredictionTask]) -> tuple[Array, Array, Array]:
    """Stack same-shape tasks into (history, cross, targets) batches."""
    if not tasks:
        raise ParameterError("need at least one task")
    for t in tasks:
        if t.targets is None:
            raise ParameterError("training tasks need targets")
    history = np.stack([t.history for t in tasks])
    cross = np.stack([t.cross for t in tasks])
    targets = np.stack([t.targets for t in tasks])
    return history, cross, targets


def train_attentive(
    net: CrossUserAttentiveNet,
    dataset: list[PredictionTask],
    config: CuanTrainConfig = CuanTrainConfig(),
) -> list[float]:
    """Minimize the summed L1 trajectory loss with Adam; returns epoch losses.

    Each epoch shuffles the dataset and walks it in mini-batches. A NaN loss
    aborts with a diagnostic rather than continuing on poisoned parameters.
    """
    history, cross, targets = stack_tasks(dataset)
    n = history.shape[0]
    rng = np.random.default_rng(config.seed)
    params = net.store.to_vector()
    adam = AdamState.create(
        params.size,
        learning_rate=config.learning_rate,
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
        epsilon=config.adam_epsilon,
    )
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = net.loss_and_grad(history[idx], cross[idx], targets[idx])
            if not np.isfinite(loss):
                raise TrainingError(f"NaN loss at epoch {epoch}")
            total += loss * idx.size
            params = adam_update(adam, params, grads.to_vector())
            net.store.from_vector(params)
        adam.learning_rate *= config.lr_decay
        epoch_losses.append(total / n)
    return epoch_losses
