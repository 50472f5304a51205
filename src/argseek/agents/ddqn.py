"""Double deep Q-network questioner.

The online network picks the bootstrap action, the periodically synced
target network scores it. Exploration is epsilon-greedy with a linear
anneal over a fixed count of initial actions. Illegal (already asked)
actions are masked out of both the greedy policy and the bootstrap argmax.
Each update computes the targets of its whole sampled batch at once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import env
from ..abduction import ExplainCache
from ..env import Scenario
from .heuristics import random_next
from .qnet import (
    AdamState,
    QNetworkParams,
    adam_update,
    copy_params,
    init_qnet,
    mlp_forward,
    mlp_forward_batch,
    mlp_gradients,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Hyperparams:
    """Training configuration; defaults are conventional small-scale values."""

    gamma: float = 0.95
    eps_start: float = 0.1
    eps_end: float = 0.01
    eps_anneal_actions: int = 2000
    episodes: int = 1000
    learning_rate: float = 1e-3
    batch_size: int = 32
    replay_capacity: int = 10000
    target_sync_every: int = 100
    hidden_dims: tuple[int, ...] = (50, 50)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps_end <= self.eps_start <= 1.0:
            raise ValueError("need 0 <= eps_end <= eps_start <= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.batch_size < 1 or self.replay_capacity < self.batch_size:
            raise ValueError("replay capacity must hold at least one batch")
        if self.target_sync_every < 1:
            raise ValueError("target_sync_every must be >= 1")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")


@dataclass(frozen=True)
class Transition:
    """One experience tuple for the replay buffer; ``legal_next`` is the
    legal mask of the next state."""

    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    done: bool
    legal_next: np.ndarray


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform batch sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._cursor = 0

    def push(self, transition: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._cursor] = transition
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        if batch_size > len(self._items):
            raise ValueError("not enough transitions buffered")
        idx = rng.choice(len(self._items), size=batch_size, replace=False)
        return [self._items[i] for i in idx]

    def __len__(self) -> int:
        return len(self._items)


def epsilon_at(hp: Hyperparams, action_count: int) -> float:
    """Exploration rate after the given number of global actions."""
    if action_count >= hp.eps_anneal_actions:
        return hp.eps_end
    frac = action_count / hp.eps_anneal_actions
    return hp.eps_start + (hp.eps_end - hp.eps_start) * frac


def masked_argmax(q: np.ndarray, legal: np.ndarray) -> int | np.ndarray:
    """Highest-Q action along the last axis where the boolean mask ``legal``
    is True; ties resolve to the lowest legal index. An int for one row of
    Q-values, an index array for a stack of rows."""
    masked = np.where(legal, q, -np.inf)
    best = masked.argmax(axis=-1)
    # A row with no legal Q-value above -inf peaks at index 0, legal or
    # not; its pick is its first legal index, if it has one.
    stuck = masked.max(axis=-1) == -np.inf
    if np.count_nonzero(stuck):  # cheaper than .any() on one row
        if not legal.any(axis=-1).all():
            raise ValueError("no legal actions to choose from")
        best = np.where(stuck, legal.argmax(axis=-1), best)
    return int(best) if best.ndim == 0 else best


def greedy_action(params: QNetworkParams, features: np.ndarray, legal: np.ndarray) -> int:
    return masked_argmax(mlp_forward(params, features), legal)


def ddqn_target(
    batch: Sequence[Transition],
    theta: QNetworkParams,
    theta_minus: QNetworkParams,
    gamma: float,
) -> np.ndarray:
    """Bootstrap values of a batch: the online net selects each action, the
    target net scores it; a terminal row's target is its reward."""
    s_next = np.stack([t.s_next for t in batch])
    legal_next = np.stack([t.legal_next for t in batch])
    r = np.array([t.r for t in batch], dtype=np.float64)
    done = np.array([t.done for t in batch], dtype=bool)
    # A terminal row's pick is never used, so its mask may be empty.
    a_star = masked_argmax(mlp_forward_batch(theta, s_next), legal_next | done[:, None])
    q_minus = mlp_forward_batch(theta_minus, s_next)
    return np.where(done, r, r + gamma * q_minus[np.arange(len(batch)), a_star])


def train_ddqn(
    scenario: Scenario,
    ka_pool: Sequence[frozenset[str]],
    hp: Hyperparams,
) -> tuple[QNetworkParams, np.ndarray]:
    """Train a questioner on episodes with answerers drawn from the pool.

    Returns the final online network and the per-episode cumulative reward
    curve. All episodes share one explanation cache.
    """
    if not ka_pool:
        raise ValueError("training pool of answerer knowledge bases is empty")
    rng = np.random.default_rng(hp.seed)
    dims = (scenario.feature_dim, *hp.hidden_dims, scenario.n_actions)
    params = init_qnet(dims, rng)
    target = copy_params(params)
    buffer = ReplayBuffer(hp.replay_capacity)
    adam = AdamState()
    curve = np.zeros(hp.episodes, dtype=np.float64)
    cache = ExplainCache(scenario.rules, scenario.config)

    action_count = 0
    update_count = 0

    def explore(state: env.EnvState, legal: np.ndarray, rng: np.random.Generator) -> int:
        nonlocal action_count
        epsilon = epsilon_at(hp, action_count)
        action_count += 1
        if rng.random() < epsilon:
            return random_next(legal, rng)
        return greedy_action(params, s, legal)

    # Each episode starts from the empty state; a step's s_next is the next step's s.
    start = env.featurize(env.EnvState(), scenario)
    for ep in range(hp.episodes):
        ka = ka_pool[int(rng.integers(len(ka_pool)))]
        s = start
        total = 0.0
        for action, result, legal_next in env.rollout(scenario, ka, explore, rng, cache):
            total += result.reward
            s_next = env.featurize(result.state, scenario)
            buffer.push(Transition(s, action, result.reward, s_next, result.done, legal_next))
            if len(buffer) >= hp.batch_size:
                batch = buffer.sample(hp.batch_size, rng)
                x = np.stack([t.s for t in batch])
                actions = np.array([t.a for t in batch])
                targets = ddqn_target(batch, params, target, hp.gamma)
                _, grad = mlp_gradients(params, x, actions, targets)
                adam_update(params, grad, adam, hp.learning_rate)
                update_count += 1
                if update_count % hp.target_sync_every == 0:
                    target = copy_params(params)
            s = s_next
        curve[ep] = total
        if (ep + 1) % 100 == 0:
            recent = curve[max(0, ep - 99) : ep + 1]
            logger.info(
                "episode %d/%d: mean reward over last 100 = %.2f",
                ep + 1,
                hp.episodes,
                float(recent.mean()),
            )
    return params, curve
