"""Sequential actor-critic bitrate agent over the per-tile decision process.

The policy and value networks share one body: a 1-D conv bank over the
tile's chunk-size ladder, a 1-D conv bank over the 8-slot neighbor
(probability, chosen-rate) channels, and a fully connected layer over the
four scalars (throughput estimate, previous viewport quality, tile
probability, buffer estimate), merged by concatenation into a linear head.
Activations are tanh throughout: the networks are tiny and smooth
activations keep finite-difference gradient checks tight.

Training follows the asynchronous advantage actor-critic recipe with a
two-level return: an outer discounted pass over segment rewards and an
inner discounted pass over per-tile reward estimates (walked in reverse
decision order); the learning target for a tile transition is the sum of
the two. Workers hold private parameter copies, synchronize before each
episode, and apply accumulated episode gradients to the shared store. The
default scheduler is a deterministic single-threaded round-robin, which
makes runs bit-reproducible; the parameter store still takes a lock so the
apply step stays atomic if threads are ever used.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .environment import StreamEnv
from .errors import ParameterError, Tile360Error, TrainingError
from .nn import (
    AdamState,
    Conv1d,
    Linear,
    ParamStore,
    adam_update,
    entropy,
    load_checkpoint,
    save_checkpoint,
    softmax,
)
from .sequential import (
    DecisionOrder,
    DecisionPass,
    TileDecisionState,
    decision_order,
)

Array = np.ndarray

DEFAULT_FILTERS = 64
DEFAULT_SCALAR_UNITS = 64
N_SCALARS = 4


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateEncoder:
    """Turns a TileDecisionState into scaled network inputs.

    Scales keep every feature roughly O(1) so the tanh body starts in its
    linear region: chunk sizes divide by the largest expected chunk,
    per-tile rates by the largest per-tile rate, throughput by the ladder's
    top whole-video rate, buffer by the buffer cap.
    """

    n_levels: int
    chunk_scale: float
    rate_scale: float
    throughput_scale: float
    buffer_scale: float

    @classmethod
    def for_manifest(cls, manifest, buffer_cap_s: float) -> "StateEncoder":
        rate_scale = float(manifest.tile_rates.max())
        return cls(
            n_levels=manifest.n_levels,
            chunk_scale=rate_scale * manifest.segment_duration,
            rate_scale=rate_scale,
            throughput_scale=float(max(manifest.level_mbps)),
            buffer_scale=float(buffer_cap_s),
        )

    def features(self, states: Sequence[TileDecisionState]) -> tuple[Array, Array, Array]:
        """(chunk (B, M, 1), neighbors (B, 8, 2), scalars (B, 4))."""
        chunk = np.stack([s.chunk_sizes for s in states])[:, :, None] / self.chunk_scale
        neigh = np.empty((len(states), 8, 2))
        scalars = np.empty((len(states), N_SCALARS))
        for b, s in enumerate(states):
            neigh[b, :, 0] = s.neighbor_probs
            neigh[b, :, 1] = s.neighbor_rates
            scalars[b, 0] = s.throughput_est
            scalars[b, 1] = s.last_viewport_quality
            scalars[b, 2] = s.tile_prob
            scalars[b, 3] = s.buffer_est
        neigh[:, :, 1] /= self.rate_scale
        scalars[:, 0] /= self.throughput_scale
        scalars[:, 1] /= self.rate_scale
        scalars[:, 3] /= self.buffer_scale
        return chunk, neigh, scalars


# ---------------------------------------------------------------------------
# the shared network body
# ---------------------------------------------------------------------------

class TileNet:
    """Conv + conv + scalar-FC body with a linear head."""

    def __init__(
        self,
        encoder: StateEncoder,
        out_dim: int,
        filters: int = DEFAULT_FILTERS,
        scalar_units: int = DEFAULT_SCALAR_UNITS,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.encoder = encoder
        self.out_dim = out_dim
        self.filters = filters
        self.scalar_units = scalar_units
        self.store = ParamStore()
        # ladders can be shorter than the canonical filter width
        self.chunk_width = min(3, encoder.n_levels)
        self.conv_chunk = Conv1d(self.store, "conv_chunk", 1, self.chunk_width, filters, rng)
        self.conv_neigh = Conv1d(self.store, "conv_neigh", 2, 3, filters, rng)
        self.fc_scalar = Linear(self.store, "fc_scalar", N_SCALARS, scalar_units, rng)
        self._len_chunk = encoder.n_levels - self.chunk_width + 1
        self._len_neigh = 8 - 3 + 1
        concat_dim = (self._len_chunk + self._len_neigh) * filters + scalar_units
        self.head = Linear(self.store, "head", concat_dim, out_dim, rng)
        self.lock = threading.Lock()

    def forward_batch(self, feats: tuple[Array, Array, Array]) -> tuple[Array, dict]:
        chunk, neigh, scalars = feats
        B = chunk.shape[0]
        a = np.tanh(self.conv_chunk.forward(chunk))
        b = np.tanh(self.conv_neigh.forward(neigh))
        s = np.tanh(self.fc_scalar.forward(scalars))
        concat = np.concatenate([a.reshape(B, -1), b.reshape(B, -1), s], axis=1)
        out = self.head.forward(concat)
        cache = {"feats": feats, "a": a, "b": b, "s": s, "concat": concat}
        return out, cache

    def forward_one(self, state: TileDecisionState) -> Array:
        out, _ = self.forward_batch(self.encoder.features([state]))
        return out[0]

    def backward_batch(self, cache: dict, dout: Array, grads: ParamStore) -> None:
        chunk, neigh, scalars = cache["feats"]
        B = chunk.shape[0]
        dconcat = self.head.backward(cache["concat"], dout, grads)
        na = self._len_chunk * self.filters
        nb = self._len_neigh * self.filters
        da = dconcat[:, :na].reshape(B, self._len_chunk, self.filters) * (1 - cache["a"] ** 2)
        db = dconcat[:, na : na + nb].reshape(B, self._len_neigh, self.filters) * (
            1 - cache["b"] ** 2
        )
        ds = dconcat[:, na + nb :] * (1 - cache["s"] ** 2)
        self.conv_chunk.backward(chunk, da, grads)
        self.conv_neigh.backward(neigh, db, grads)
        self.fc_scalar.backward(scalars, ds, grads)

    def sync_from(self, other: "TileNet") -> None:
        self.store.copy_from(other.store)

    def apply_gradients(self, adam: AdamState, grads: ParamStore) -> None:
        """Atomically apply one Adam step to this net's parameters."""
        with self.lock:
            self.store.from_vector(
                adam_update(adam, self.store.to_vector(), grads.to_vector())
            )

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "out_dim": self.out_dim,
            "filters": self.filters,
            "scalar_units": self.scalar_units,
            "encoder": {
                "n_levels": self.encoder.n_levels,
                "chunk_scale": self.encoder.chunk_scale,
                "rate_scale": self.encoder.rate_scale,
                "throughput_scale": self.encoder.throughput_scale,
                "buffer_scale": self.encoder.buffer_scale,
            },
        }
        meta.update(extra_meta or {})
        save_checkpoint(path, self.store, meta)

    @classmethod
    def load(cls, path) -> "TileNet":
        arrays, meta = load_checkpoint(path)
        encoder = StateEncoder(**meta["encoder"])
        kwargs = dict(filters=meta["filters"], scalar_units=meta["scalar_units"])
        if cls is TileNet:
            net = cls(encoder, out_dim=meta["out_dim"], **kwargs)
        else:
            net = cls(encoder, **kwargs)  # subclasses fix their own head size
        for name in net.store.names():
            net.store[name][...] = arrays[name]
        return net


class PolicyNet(TileNet):
    """Distribution over ladder levels for one tile decision."""

    def __init__(self, encoder: StateEncoder, **kwargs) -> None:
        super().__init__(encoder, out_dim=encoder.n_levels, **kwargs)

    def probs(self, state: TileDecisionState) -> Array:
        return softmax(self.forward_one(state))

    def probs_batch(self, states: Sequence[TileDecisionState]) -> Array:
        out, _ = self.forward_batch(self.encoder.features(states))
        return softmax(out, axis=-1)


class ValueNet(TileNet):
    """Scalar state-value estimate for one tile decision."""

    def __init__(self, encoder: StateEncoder, **kwargs) -> None:
        super().__init__(encoder, out_dim=1, **kwargs)


def select_action(
    dist: Array, rng: np.random.Generator | None = None, greedy: bool = False
) -> int:
    """Pick a level: greedy argmax (lowest index wins ties) or seeded sample."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 1 or dist.size == 0 or np.any(dist < 0):
        raise ParameterError("need a nonempty probability vector")
    if greedy:
        return int(np.argmax(dist))
    if rng is None:
        raise ParameterError("sampling needs a random generator")
    cum = np.cumsum(dist)
    draw = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, draw, side="right")), dist.size - 1)


# ---------------------------------------------------------------------------
# rollouts and returns
# ---------------------------------------------------------------------------

@dataclass
class TileTransition:
    state: TileDecisionState
    action: int
    reward: float
    forced: bool


@dataclass
class RolloutBuffer:
    """One episode: per-segment tile transitions plus segment-level rewards."""

    segments: list[list[TileTransition]] = field(default_factory=list)
    top_rewards: list[float] = field(default_factory=list)
    breakdowns: list = field(default_factory=list)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def validate(self, n_tiles: int) -> None:
        if len(self.top_rewards) != len(self.segments):
            raise TrainingError("rollout has mismatched segment/reward counts")
        for seg in self.segments:
            if len(seg) != n_tiles:
                raise TrainingError("rollout segment does not cover every tile")


def compose_returns(
    buffer: RolloutBuffer, gamma_top: float, gamma_bottom: float
) -> list[Array]:
    """Two-level return targets, one array per segment in decision order.

    Outer pass: R <- r_j + gamma_top * R over segments, newest first. Inner
    pass: R' <- r_i + gamma_bottom * R' over that segment's tiles in reverse
    decision order. The target for a transition is R + R'.
    """
    if not buffer.segments:
        raise TrainingError("cannot compose returns of an empty episode")
    targets: list[Array] = [np.empty(0)] * buffer.n_segments
    top = 0.0
    for j in range(buffer.n_segments - 1, -1, -1):
        top = buffer.top_rewards[j] + gamma_top * top
        inner = 0.0
        seg = buffer.segments[j]
        t = np.empty(len(seg))
        for i in range(len(seg) - 1, -1, -1):
            inner = seg[i].reward + gamma_bottom * inner
            t[i] = top + inner
        targets[j] = t
    return targets


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def policy_loss_and_grad(
    policy: PolicyNet,
    states: Sequence[TileDecisionState],
    actions: Array,
    advantages: Array,
    beta: float,
) -> tuple[float, ParamStore]:
    """Summed policy loss -log pi(a|s) * adv - beta * H(pi) and its gradient."""
    feats = policy.encoder.features(states)
    logits, cache = policy.forward_batch(feats)
    probs = softmax(logits, axis=-1)
    logp = np.log(np.clip(probs, 1e-300, None))
    picked = logp[np.arange(len(states)), actions]
    ent = entropy(probs, axis=-1)
    loss = float(-(picked * advantages).sum() - beta * ent.sum())
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(states)), actions] = 1.0
    dlogits = (probs - onehot) * advantages[:, None] + beta * probs * (
        logp + ent[:, None]
    )
    grads = policy.store.zeros_like()
    policy.backward_batch(cache, dlogits, grads)
    return loss, grads


def value_loss_and_grad(
    value: ValueNet, states: Sequence[TileDecisionState], targets: Array
) -> tuple[float, ParamStore]:
    """Summed squared TD error (target - V)^2 and its gradient."""
    feats = value.encoder.features(states)
    out, cache = value.forward_batch(feats)
    v = out[:, 0]
    err = targets - v
    loss = float((err**2).sum())
    dout = (-2.0 * err)[:, None]
    grads = value.store.zeros_like()
    value.backward_batch(cache, dout, grads)
    return loss, grads


def episode_gradients(
    policy: PolicyNet,
    value: ValueNet,
    buffer: RolloutBuffer,
    gamma_top: float,
    gamma_bottom: float,
    beta: float,
) -> tuple[ParamStore, ParamStore, dict]:
    """Accumulated policy/value gradients for one finished episode.

    Forced transitions (out-of-FoV tiles pinned to the lowest level) carry
    no policy or value gradient: their actions were not sampled from the
    policy, and their values never feed an advantage.
    """
    targets_per_seg = compose_returns(buffer, gamma_top, gamma_bottom)
    states: list[TileDecisionState] = []
    actions: list[int] = []
    targets: list[float] = []
    for seg, seg_targets in zip(buffer.segments, targets_per_seg):
        for step, target in zip(seg, seg_targets):
            if step.forced:
                continue
            states.append(step.state)
            actions.append(step.action)
            targets.append(float(target))
    stats = {"transitions": len(states), "entropy": 0.0, "value_loss": 0.0}
    if not states:
        return policy.store.zeros_like(), value.store.zeros_like(), stats
    actions_arr = np.asarray(actions)
    targets_arr = np.asarray(targets)
    v_out, _ = value.forward_batch(value.encoder.features(states))
    advantages = targets_arr - v_out[:, 0]
    _, grads_p = policy_loss_and_grad(policy, states, actions_arr, advantages, beta)
    value_loss, grads_v = value_loss_and_grad(value, states, targets_arr)
    probs = policy.probs_batch(states)
    stats["entropy"] = float(entropy(probs, axis=-1).mean())
    stats["value_loss"] = value_loss / len(states)
    return grads_p, grads_v, stats


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------

@dataclass
class EpisodeWorld:
    """An environment plus its per-segment probability schedule."""

    env: StreamEnv
    predicted: Array  # (segments, tiles)
    actual: Array     # (segments, tiles)
    reset_seed: int | None = 0


def run_episode(
    policy: PolicyNet,
    world: EpisodeWorld,
    order: DecisionOrder = DecisionOrder.HIGH_TO_LOW,
    rng: np.random.Generator | None = None,
    greedy: bool = False,
    order_seed: int = 0,
) -> RolloutBuffer:
    """Play one full video; returns the filled rollout buffer."""
    env = world.env
    state = env.reset(seed=world.reset_seed, predicted_probs=world.predicted[0])
    buffer = RolloutBuffer()
    while not env.done:
        seg = env.segment_index
        predicted = world.predicted[seg]
        plan = decision_order(predicted, order, seed=order_seed + seg)
        walk = DecisionPass(state, plan, env.manifest, predicted, env.weights)
        transitions: list[TileTransition] = []
        while not walk.done:
            tile_state = walk.state()
            forced = walk.forced
            if forced:
                action = 0
            else:
                action = select_action(policy.probs(tile_state), rng=rng, greedy=greedy)
            reward = walk.advance(tile_state, action)
            transitions.append(
                TileTransition(state=tile_state, action=action, reward=reward, forced=forced)
            )
        next_seg = min(seg + 1, len(world.predicted) - 1)
        result = env.step(
            walk.decision(), world.actual[seg], predicted_next=world.predicted[next_seg]
        )
        buffer.segments.append(transitions)
        buffer.top_rewards.append(result.reward)
        buffer.breakdowns.append(result.breakdown)
        state = result.state
    buffer.validate(env.manifest.n_tiles)
    return buffer


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    """Actor-critic training knobs; defaults are the desk-scale preset."""

    gamma_top: float = 0.99
    gamma_bottom: float = 1.0
    workers: int = 16
    entropy_init: float = 1.0
    entropy_decay: float = 0.1
    entropy_decay_interval: int = 1_000_000
    entropy_subtractive: bool = False
    entropy_floor: float = 1e-3
    policy_lr: float = 1e-4
    value_lr: float = 1e-3
    max_iterations: int = 200_000
    order: DecisionOrder = DecisionOrder.HIGH_TO_LOW
    filters: int = DEFAULT_FILTERS
    scalar_units: int = DEFAULT_SCALAR_UNITS
    seed: int = 0

    def entropy_weight(self, step: int) -> float:
        k = step // self.entropy_decay_interval
        if self.entropy_subtractive:
            return max(self.entropy_init - self.entropy_decay * k, 0.0)
        return max(self.entropy_init * self.entropy_decay**k, self.entropy_floor)


# the paper-scale preset: 10^7 iterations, 16 workers
PAPER_SCALE = TrainConfig(max_iterations=10_000_000)


@dataclass
class TrainResult:
    policy: PolicyNet
    value: ValueNet
    log_rows: list[dict]
    incidents: list[dict] = field(default_factory=list)


def train(
    episode_factory: Callable[[np.random.Generator], EpisodeWorld],
    encoder: StateEncoder,
    config: TrainConfig = TrainConfig(),
    progress: Callable[[dict], None] | None = None,
) -> TrainResult:
    """Round-robin asynchronous-style training until the iteration budget.

    ``episode_factory`` draws one EpisodeWorld per episode (workers see the
    same stream of worlds in a fixed rotation, so seeded runs are
    bit-reproducible). The iteration counter advances once per segment.
    """
    rng = np.random.default_rng(config.seed)
    shared_policy = PolicyNet(
        encoder, filters=config.filters, scalar_units=config.scalar_units, seed=config.seed
    )
    shared_value = ValueNet(
        encoder,
        filters=config.filters,
        scalar_units=config.scalar_units,
        seed=config.seed + 1,
    )
    adam_p = AdamState.create(shared_policy.store.size, learning_rate=config.policy_lr)
    adam_v = AdamState.create(shared_value.store.size, learning_rate=config.value_lr)
    workers = [
        (
            PolicyNet(encoder, filters=config.filters, scalar_units=config.scalar_units),
            ValueNet(encoder, filters=config.filters, scalar_units=config.scalar_units),
            np.random.default_rng(rng.integers(2**63)),
        )
        for _ in range(config.workers)
    ]

    step = 0
    episode = 0
    rows: list[dict] = []
    incidents: list[dict] = []
    consecutive_failures = 0
    while step < config.max_iterations:
        policy, value, worker_rng = workers[episode % config.workers]
        policy.sync_from(shared_policy)
        value.sync_from(shared_value)
        try:
            world = episode_factory(worker_rng)
            buffer = run_episode(
                policy, world, order=config.order, rng=worker_rng, order_seed=episode
            )
        except Tile360Error as exc:
            # log the incident and restart this worker on a fresh episode
            incidents.append({"episode": episode, "worker": episode % config.workers, "error": str(exc)})
            episode += 1
            consecutive_failures += 1
            if consecutive_failures > 3 * config.workers:
                raise TrainingError(
                    f"every worker keeps failing; last error: {exc}"
                ) from exc
            continue
        consecutive_failures = 0
        beta = config.entropy_weight(step)
        grads_p, grads_v, stats = episode_gradients(
            policy, value, buffer, config.gamma_top, config.gamma_bottom, beta
        )
        if stats["transitions"] > 0:
            shared_policy.apply_gradients(adam_p, grads_p)
            shared_value.apply_gradients(adam_v, grads_v)
        step += buffer.n_segments
        episode += 1
        mean_qoe = float(np.mean(buffer.top_rewards))
        row = {
            "step": step,
            "episode": episode,
            "mean_qoe": mean_qoe,
            "q1": float(np.mean([b.q1 for b in buffer.breakdowns])),
            "q2": float(np.mean([b.q2 for b in buffer.breakdowns])),
            "q3": float(np.mean([b.q3 for b in buffer.breakdowns])),
            "q4": float(np.mean([b.q4 for b in buffer.breakdowns])),
            "entropy": stats["entropy"],
            "beta": beta,
            "value_loss": stats["value_loss"],
        }
        rows.append(row)
        if progress is not None:
            progress(row)
    return TrainResult(
        policy=shared_policy, value=shared_value, log_rows=rows, incidents=incidents
    )


def evaluate_policy(
    policy: PolicyNet,
    worlds: Sequence[EpisodeWorld],
    order: DecisionOrder = DecisionOrder.HIGH_TO_LOW,
) -> dict:
    """Greedy rollout over fixed worlds; returns mean QoE and term means."""
    qoes: list[float] = []
    terms = np.zeros(4)
    count = 0
    for world in worlds:
        buffer = run_episode(policy, world, order=order, greedy=True)
        qoes.append(float(np.mean(buffer.top_rewards)))
        for b in buffer.breakdowns:
            terms += np.array([b.q1, b.q2, b.q3, b.q4])
            count += 1
    terms = terms / max(count, 1)
    return {
        "mean_qoe": float(np.mean(qoes)),
        "episode_qoes": qoes,
        "q1": terms[0],
        "q2": terms[1],
        "q3": terms[2],
        "q4": terms[3],
    }
