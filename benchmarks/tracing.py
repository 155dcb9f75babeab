"""In-memory span tracer wrapped around the program's public functions.

A span records a name, a start, an end and its parent span. The tracer
replaces each traced function with a timing wrapper in every ``tile360``
module namespace where it is looked up (a function that another module
imports by name is wrapped there too) and restores the originals when
removed. Nothing under ``src/`` is edited.

Self time is a span's duration minus the time covered by its child spans.
Calls and self times are summed as spans end, so they cover every span; the
span log itself keeps the first ``SPAN_LOG_CAP`` spans, which bounds memory
when a hot function such as ``download_time`` runs millions of times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# ``<layer>.<function>`` names; a dotted function part is ``Class.method``.
TRACED = (
    "agent.train",
    "agent.run_episode",
    "agent.select_action",
    "agent.episode_gradients",
    "agent.StateEncoder.features",
    "agent.TileNet.forward_batch",
    "agent.TileNet.backward_batch",
    "agent.TileNet.sync_from",
    "sequential.assemble_state",
    "sequential.tile_reward",
    "sequential.decision_order",
    "nn.adam_update",
    "nn.lstm_step",
    "nn.lstm_step_backward",
    "predictors.train_attentive",
    "predictors.CrossUserAttentiveNet.loss_and_grad",
    "predictors.CrossUserAttentiveNet.predict",
    "predictors.predict_knn",
    "predictors.predict_lr",
    "geometry.viewing_probabilities",
    "synth.synthesize_trajectories",
    "synth.synthesize_traces",
    "harness.sample_tasks",
    "harness.probs_schedule",
    "harness.evaluate_prediction",
    "harness.run_bb_episode",
    "harness.run_greedy_episode",
    "harness.run_agent_episode",
    "environment.StreamEnv.step",
    "environment.download_time",
    "qoe.spatial_variation",
    "baselines.bb_select",
    "baselines.greedy_mckp",
    "baselines.brute_force_oracle",
)

PACKAGE = "tile360"
SPAN_LOG_CAP = 1_000_000


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports."""
    return [f"{name}.{kind}" for name in TRACED for kind in ("calls", "self_s")]


class Tracer:
    """Collects spans of the traced functions while installed."""

    def __init__(self, names=TRACED) -> None:
        self.names = list(names)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[list] = []  # [child seconds, span log index] per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a ``tile360`` module holds it."""
        for nid, name in enumerate(self.names):
            layer, _, attr = name.partition(".")
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(nid, vars(cls)[meth]))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(nid, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)

    def remove(self) -> None:
        """Restore every original function."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, wrapped) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapped)

    def _wrap(self, nid: int, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            if idx < SPAN_LOG_CAP:
                name_ids.append(nid)
                parents.append(stack[-1][1] if stack else -1)
                ends.append(0.0)
                starts.append(0.0)
            else:
                idx = -1
            frame = [0.0, idx]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                self_s[nid] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if idx >= 0:
                    starts[idx] = start
                    ends[idx] = end

        return traced

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per traced function so far."""
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )
