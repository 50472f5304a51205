"""Dialogue MDP for information-seeking question selection.

A ``Scenario`` fixes the episode constants; its action space is every atom
of the universe but the claim (at least one). The answerer is a bare fact
set (K_A). The questioner picks one unasked candidate fact per step; the
answerer reveals it only when it lies in K_A. Collected facts feed the
questioner's knowledge base, whose normalized rationality toward the claim
drives the goal condition. Every step costs ``r_time``; reaching ``theta_r``
additionally pays ``r_goal`` and ends the episode, as does exhausting the
turn budget or the action space.

An ``EnvState`` holds each fact once: the action indices asked, in order,
the collected facts and their rationality. ``reset`` and ``step`` build new
states and never change one. Every policy picks from ``legal_actions``, a
boolean mask over ``candidate_facts``; ``featurize`` gives the learning
agent the flat vector ``[asked ⊕ collected ⊕ [r_norm]]``. ``rollout`` is
the one episode loop: training and evaluation both step the MDP through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .abduction import AbductionConfig, ExplainCache
from .kb import Rule


class EnvError(ValueError):
    """Raised on contract violations such as repeating an action."""


@dataclass(frozen=True)
class Scenario:
    """Fixed episode configuration shared by every strategy.

    ``candidate_facts`` is the ordered action space, derived from the
    universe: every atom but the claim, in universe order.
    """

    claim: str
    atom_universe: tuple[str, ...]
    rules: tuple[Rule, ...]
    theta_r: float
    t_limit: int
    r_goal: float = 100.0
    r_time: float = -1.0
    config: AbductionConfig = AbductionConfig()
    candidate_facts: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(set(self.atom_universe)) != len(self.atom_universe):
            raise EnvError("atom_universe contains duplicates")
        if self.claim not in self.atom_universe:
            raise EnvError("claim missing from atom universe")
        candidates = tuple(a for a in self.atom_universe if a != self.claim)
        if not candidates:
            raise EnvError("atom universe has no atom besides the claim to ask")
        object.__setattr__(self, "candidate_facts", candidates)
        if self.t_limit < 1:
            raise EnvError("t_limit must be >= 1")
        if not 0.0 < self.theta_r <= 1.0:
            raise EnvError("theta_r must lie in (0, 1]")
        if not (math.isfinite(self.r_goal) and math.isfinite(self.r_time)):
            raise EnvError("r_goal and r_time must be finite")

    @property
    def n_actions(self) -> int:
        return len(self.candidate_facts)

    @property
    def feature_dim(self) -> int:
        return 2 * len(self.candidate_facts) + 1


@dataclass(frozen=True)
class EnvState:
    """Questioner-visible episode state.

    ``asked`` holds the action indices asked so far, in the order asked;
    ``kq_facts`` the answered ones among them, as candidate facts. ``r_raw``
    and ``r_norm`` are the rationality of ``kq_facts`` toward the claim.
    """

    asked: tuple[int, ...] = ()
    kq_facts: frozenset[str] = frozenset()
    r_raw: float = 0.0
    r_norm: float = 0.0

    @property
    def step(self) -> int:
        return len(self.asked)


@dataclass(frozen=True)
class StepResult:
    """``answered`` is the asked fact when the answerer knew it, else None."""

    state: EnvState
    reward: float
    done: bool
    answered: str | None


# A policy maps (state, legal mask, rng) to an action index; the mask is
# ``legal_actions``'s boolean array over ``candidate_facts``.
Policy = Callable[[EnvState, np.ndarray, np.random.Generator], int]


def reset(scenario: Scenario, ka: frozenset[str]) -> EnvState:
    """Start an episode: empty questioner knowledge, nothing asked yet."""
    unknown = ka - set(scenario.candidate_facts)
    if unknown:
        raise EnvError(f"answerer facts outside candidates: {sorted(unknown)[:5]}")
    return EnvState()


def legal_actions(state: EnvState, scenario: Scenario) -> np.ndarray:
    """Boolean mask over ``candidate_facts``, True where not yet asked."""
    legal = np.ones(scenario.n_actions, dtype=bool)
    legal[list(state.asked)] = False
    return legal


def step(
    state: EnvState,
    action: int,
    scenario: Scenario,
    ka: frozenset[str],
    cache: ExplainCache,
) -> StepResult:
    """Ask one candidate fact and settle reward and termination. The
    answerer confirms a queried fact it knows, else stays silent.

    ``cache`` must be built on ``scenario.rules`` and ``scenario.config``.
    """
    if not 0 <= action < scenario.n_actions:
        raise EnvError(f"action index {action} out of range")
    if action in state.asked:
        raise EnvError(f"action {action} was already taken this episode")

    asked = state.asked + (action,)
    query = scenario.candidate_facts[action]
    answered = query if query in ka else None
    if answered is None:
        new_state = EnvState(asked, state.kq_facts, state.r_raw, state.r_norm)
    else:
        kq_facts = state.kq_facts | {query}
        rat = cache.rationality(kq_facts, scenario.claim)
        new_state = EnvState(asked, kq_facts, rat.r, rat.r_norm)

    success = new_state.r_norm >= scenario.theta_r
    done = success or len(asked) >= scenario.t_limit or len(asked) == scenario.n_actions
    reward = scenario.r_time + (scenario.r_goal if success else 0.0)
    return StepResult(new_state, reward, done, answered)


def featurize(state: EnvState, scenario: Scenario) -> np.ndarray:
    """Flat observation: asked flags, collected flags, then r_norm."""
    n = scenario.n_actions
    vec = np.zeros(2 * n + 1)
    vec[list(state.asked)] = 1.0
    vec[[n + i for i in state.asked if scenario.candidate_facts[i] in state.kq_facts]] = 1.0
    vec[-1] = state.r_norm
    return vec


def rollout(
    scenario: Scenario,
    ka: frozenset[str],
    policy: Policy,
    rng: np.random.Generator,
    cache: ExplainCache,
) -> Iterator[tuple[int, StepResult, np.ndarray]]:
    """Play one episode: reset, then per step ask ``policy`` for an action
    and ``step``, yielding ``(action, result, legal mask of result.state)``.
    The policy picks again only when the caller resumes the generator."""
    state = reset(scenario, ka)
    legal = legal_actions(state, scenario)
    done = False
    while not done:
        action = policy(state, legal, rng)
        result = step(state, action, scenario, ka, cache)
        state, done = result.state, result.done
        legal = legal_actions(state, scenario)
        yield action, result, legal
