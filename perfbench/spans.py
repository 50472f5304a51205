"""Spans around calls into argseek's layers, recorded from outside the package.

A wrapper is set on the name a caller looks up: ``harness.step`` for the
harness's episode loop and ``env.step`` for ``DialogueEnv.step``, because
``from .env import step`` copies the function into the harness namespace.
Nothing under ``src/`` is edited; ``Tracer.uninstall`` restores every name.

A span records its name, start, end and parent span. Spans are kept in memory
and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from pathlib import Path

import numpy as np

from argseek import abduction, data, env, harness
from argseek.agents import ddqn

# (owner, attribute, span name). Several attributes may feed one span name;
# none of them calls another under the same name, so spans never nest in
# themselves.
TARGETS = (
    (data, "generate_synthetic", "data.generate"),
    (data, "load_dataset", "data.load"),
    (harness, "build_fact_graph", "kb.build_fact_graph"),
    (abduction, "explain", "abduction.explain"),
    (abduction.ExplainCache, "explain", "abduction.cache.lookup"),
    (abduction.ExplainCache, "__init__", "abduction.cache.build"),
    (abduction, "rationality", "abduction.rationality"),
    (harness, "step", "env.step"),
    (env, "step", "env.step"),
    (harness, "featurize", "env.featurize"),
    (env, "featurize", "env.featurize"),
    (harness, "legal_actions", "env.legal_actions"),
    (env, "legal_actions", "env.legal_actions"),
    (ddqn, "mlp_forward", "agents.qnet.forward"),
    (ddqn, "mlp_gradients", "agents.qnet.gradients"),
    (ddqn, "adam_update", "agents.qnet.adam"),
    (ddqn, "copy_params", "agents.qnet.copy_params"),
    (ddqn, "ddqn_target", "agents.ddqn.target"),
    (ddqn, "masked_argmax", "agents.ddqn.masked_argmax"),
    (ddqn.ReplayBuffer, "sample", "agents.ddqn.replay_sample"),
    (ddqn, "greedy_action", "agents.ddqn.greedy_action"),
    (harness, "greedy_action", "agents.ddqn.greedy_action"),
    (harness, "random_next", "agents.heuristics.next"),
    (harness, "dfs_next", "agents.heuristics.next"),
    (harness, "bfs_next", "agents.heuristics.next"),
    (harness, "evaluate", "harness.evaluate"),
    (harness, "run_episode", "harness.run_episode"),
)

# Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "data.generate.s": "s",
    "data.load.s": "s",
    "kb.build_fact_graph.calls": "count",
    "kb.build_fact_graph.s": "s",
    "abduction.explain.calls": "count",
    "abduction.explain.s": "s",
    "abduction.explain.p50_us": "us",
    "abduction.explain.tail_us": "us",
    "abduction.cache.lookups": "count",
    "abduction.cache.builds": "count",
    "abduction.cache.hit_ratio": "ratio",
    "abduction.rationality.calls": "count",
    "abduction.rationality.s": "s",
    "env.step.calls": "count",
    "env.step.self_s": "s",
    "env.featurize.s": "s",
    "env.legal_actions.s": "s",
    "agents.qnet.forward.calls": "count",
    "agents.qnet.forward.s": "s",
    "agents.qnet.gradients.s": "s",
    "agents.qnet.adam.s": "s",
    "agents.qnet.copy_params.calls": "count",
    "agents.ddqn.target.calls": "count",
    "agents.ddqn.target.self_s": "s",
    "agents.ddqn.masked_argmax.s": "s",
    "agents.ddqn.replay_sample.s": "s",
    "agents.ddqn.greedy_action.s": "s",
    "agents.ddqn.updates": "count",
    "agents.heuristics.next.calls": "count",
    "agents.heuristics.next.s": "s",
    "harness.evaluate.calls": "count",
    "harness.run_episode.calls": "count",
    "harness.run_episode.self_s": "s",
    "trace_overhead": "s",
}


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest percentile, up to p99, that
    has at least ten samples beyond it (the maximum when n < 11)."""
    if n < 11:
        return n - 1
    return min(n - 11, math.ceil(0.99 * n) - 1)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Three numbers per span: name id, start, end. A span's parent is
        # the innermost span whose interval encloses it, found when the run
        # ends (see spans()).
        self._store = array("d")
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._store) // 3

    def _wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        store, clock, nan = self._store, time.perf_counter, math.nan

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The abduce query cap raises between any two bytecodes. One
            # extend call adds a whole record, so the store never holds a
            # partial one; a span cut before its end is stored keeps a NaN
            # end.
            idx = len(store) + 2
            store.extend((nid, clock(), nan))
            try:
                return fn(*args, **kwargs)
            finally:
                store[idx] = clock()

        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Name id, start, end and parent index (-1 for a root) of every
        span. A span cut by the query cap before its end was stored counts
        as ending where it started."""
        rec = np.frombuffer(self._store, dtype=np.float64).reshape(-1, 3)
        ids, start, end = rec[:, 0].astype(np.int64), rec[:, 1].copy(), rec[:, 2].copy()
        cut = np.isnan(end)
        end[cut] = start[cut]
        # Spans were stored in order of start and nest properly, so the
        # parent of each is the top of the stack of still-open spans.
        parent = [-1] * len(start)
        ends = end.tolist()
        open_spans: list[int] = []
        for i, s in enumerate(start.tolist()):
            while open_spans and ends[open_spans[-1]] <= s:
                open_spans.pop()
            if open_spans:
                parent[i] = open_spans[-1]
            open_spans.append(i)
        return ids, start, end, np.array(parent, dtype=np.int64)

    def layer_metrics(self, trace_overhead: float) -> dict[str, float]:
        ids, start, end, parent = self.spans()
        dur = end - start
        child_time = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])

        def mask(name: str) -> np.ndarray:
            nid = self._name_ids.get(name)
            return ids == nid if nid is not None else np.zeros(len(ids), bool)

        def calls(name: str) -> int:
            return int(mask(name).sum())

        def total(name: str) -> float:
            return float(dur[mask(name)].sum())

        def self_time(name: str) -> float:
            m = mask(name)
            return float((dur[m] - child_time[m]).sum())

        explain = np.sort(dur[mask("abduction.explain")]) * 1e6
        lookup_ids = np.flatnonzero(mask("abduction.cache.lookup"))
        lookups = len(lookup_ids)
        misses = int(np.isin(parent[mask("abduction.explain")], lookup_ids).sum())
        return {
            "data.generate.s": total("data.generate"),
            "data.load.s": total("data.load"),
            "kb.build_fact_graph.calls": calls("kb.build_fact_graph"),
            "kb.build_fact_graph.s": total("kb.build_fact_graph"),
            "abduction.explain.calls": len(explain),
            "abduction.explain.s": total("abduction.explain"),
            "abduction.explain.p50_us": float(np.median(explain)) if len(explain) else 0.0,
            "abduction.explain.tail_us": (
                float(explain[tail_index(len(explain))]) if len(explain) else 0.0
            ),
            "abduction.cache.lookups": lookups,
            "abduction.cache.builds": calls("abduction.cache.build"),
            "abduction.cache.hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
            "abduction.rationality.calls": calls("abduction.rationality"),
            "abduction.rationality.s": total("abduction.rationality"),
            "env.step.calls": calls("env.step"),
            "env.step.self_s": self_time("env.step"),
            "env.featurize.s": total("env.featurize"),
            "env.legal_actions.s": total("env.legal_actions"),
            "agents.qnet.forward.calls": calls("agents.qnet.forward"),
            "agents.qnet.forward.s": total("agents.qnet.forward"),
            "agents.qnet.gradients.s": total("agents.qnet.gradients"),
            "agents.qnet.adam.s": total("agents.qnet.adam"),
            "agents.qnet.copy_params.calls": calls("agents.qnet.copy_params"),
            "agents.ddqn.target.calls": calls("agents.ddqn.target"),
            "agents.ddqn.target.self_s": self_time("agents.ddqn.target"),
            "agents.ddqn.masked_argmax.s": total("agents.ddqn.masked_argmax"),
            "agents.ddqn.replay_sample.s": total("agents.ddqn.replay_sample"),
            "agents.ddqn.greedy_action.s": total("agents.ddqn.greedy_action"),
            "agents.ddqn.updates": calls("agents.qnet.adam"),
            "agents.heuristics.next.calls": calls("agents.heuristics.next"),
            "agents.heuristics.next.s": total("agents.heuristics.next"),
            "harness.evaluate.calls": calls("harness.evaluate"),
            "harness.run_episode.calls": calls("harness.run_episode"),
            "harness.run_episode.self_s": self_time("harness.run_episode"),
            "trace_overhead": trace_overhead,
        }

    def write(self, path: Path) -> None:
        """Save every span: name, start, end (perf_counter seconds) and the
        index of its parent span, -1 for a root."""
        ids, start, end, parent = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=ids, start=start, end=end, parent=parent
        )
