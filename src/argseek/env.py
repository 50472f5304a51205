"""Dialogue MDP for information-seeking question selection.

The questioner picks one unasked candidate fact per step; the answerer
reveals it only when it lies in the answerer's knowledge. Collected facts
feed the questioner's knowledge base, whose normalized rationality toward
the claim drives the goal condition. Every step costs ``r_time``; reaching
``theta_r`` additionally pays ``r_goal`` and ends the episode, as does
exhausting the turn budget or the action space.

States are exposed both as structured records and as flat feature vectors
``[asked ⊕ collected ⊕ [r_norm]]`` for the learning agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .abduction import AbductionConfig, ExplainCache
from .kb import KnowledgeBase, Rule


class EnvError(ValueError):
    """Raised on contract violations such as repeating an action."""


@dataclass(frozen=True)
class Scenario:
    """Fixed episode configuration shared by every strategy.

    ``candidate_facts`` is the ordered action space: every askable atom,
    never including the claim itself.
    """

    claim: str
    atom_universe: tuple[str, ...]
    candidate_facts: tuple[str, ...]
    rules: tuple[Rule, ...]
    theta_r: float
    t_limit: int
    r_goal: float = 100.0
    r_time: float = -1.0
    config: AbductionConfig = AbductionConfig()

    def __post_init__(self) -> None:
        if self.claim in self.candidate_facts:
            raise EnvError("claim cannot be an askable candidate")
        if len(set(self.candidate_facts)) != len(self.candidate_facts):
            raise EnvError("candidate_facts contains duplicates")
        universe = set(self.atom_universe)
        if self.claim not in universe:
            raise EnvError("claim missing from atom universe")
        missing = [f for f in self.candidate_facts if f not in universe]
        if missing:
            raise EnvError(f"candidates outside atom universe: {missing[:5]}")
        if self.t_limit < 1:
            raise EnvError("t_limit must be >= 1")
        if not 0.0 < self.theta_r <= 1.0:
            raise EnvError("theta_r must lie in (0, 1]")

    @property
    def n_actions(self) -> int:
        return len(self.candidate_facts)

    @property
    def feature_dim(self) -> int:
        return 2 * len(self.candidate_facts) + 1


@dataclass(frozen=True)
class EnvState:
    """Questioner-visible episode state.

    ``asked`` and ``collected`` are 0/1 tuples indexed like
    ``candidate_facts``; a fact can only be collected by asking it.
    """

    asked: tuple[int, ...]
    collected: tuple[int, ...]
    rationality: float
    step: int
    kq_facts: frozenset[str]
    rationality_raw: float = 0.0


@dataclass(frozen=True)
class StepInfo:
    answered: str | None
    r_raw: float
    r_norm: float


@dataclass(frozen=True)
class StepResult:
    state: EnvState
    reward: float
    done: bool
    info: StepInfo


@dataclass(frozen=True)
class Transition:
    """One experience tuple for the replay buffer."""

    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    done: bool
    legal_next: frozenset[int]


def as_answerer(ka: KnowledgeBase | frozenset[str] | set[str]) -> KnowledgeBase:
    """Accept a bare fact set anywhere an answerer knowledge base is due."""
    if isinstance(ka, KnowledgeBase):
        return ka
    return KnowledgeBase(facts=frozenset(ka))


def reset(scenario: Scenario, ka: KnowledgeBase | frozenset[str]) -> EnvState:
    """Start an episode: empty questioner knowledge, nothing asked yet."""
    ka = as_answerer(ka)
    unknown = ka.facts - set(scenario.candidate_facts)
    if unknown:
        raise EnvError(f"answerer facts outside candidates: {sorted(unknown)[:5]}")
    n = scenario.n_actions
    return EnvState(
        asked=(0,) * n,
        collected=(0,) * n,
        rationality=0.0,
        step=0,
        kq_facts=frozenset(),
    )


def legal_actions(state: EnvState) -> frozenset[int]:
    return frozenset(i for i, flag in enumerate(state.asked) if not flag)


def answer(query: str, ka: KnowledgeBase | frozenset[str]) -> str | None:
    """The answerer confirms a queried fact it knows, else stays silent."""
    return query if query in as_answerer(ka).facts else None


def step(
    state: EnvState,
    action: int,
    scenario: Scenario,
    ka: KnowledgeBase | frozenset[str],
    cache: ExplainCache,
) -> StepResult:
    """Ask one candidate fact and settle reward and termination.

    ``cache`` must be built on ``scenario.rules`` and ``scenario.config``.
    """
    ka = as_answerer(ka)
    if not 0 <= action < scenario.n_actions:
        raise EnvError(f"action index {action} out of range")
    if state.asked[action]:
        raise EnvError(f"action {action} was already taken this episode")

    asked = list(state.asked)
    asked[action] = 1
    collected = list(state.collected)
    kq_facts = state.kq_facts

    query = scenario.candidate_facts[action]
    got = answer(query, ka)
    r_raw = state.rationality_raw
    r_norm = state.rationality
    if got is not None:
        collected[action] = 1
        kq_facts = kq_facts | {got}
        rat = cache.rationality(kq_facts, scenario.claim)
        r_raw, r_norm = rat.r, rat.r_norm

    new_step = state.step + 1
    success = r_norm >= scenario.theta_r
    done = success or new_step >= scenario.t_limit or 0 not in asked
    reward = scenario.r_time + (scenario.r_goal if success else 0.0)

    new_state = EnvState(
        asked=tuple(asked),
        collected=tuple(collected),
        rationality=r_norm,
        step=new_step,
        kq_facts=kq_facts,
        rationality_raw=r_raw,
    )
    return StepResult(new_state, reward, done, StepInfo(got, r_raw, r_norm))


def featurize(state: EnvState) -> np.ndarray:
    """Flat observation: asked flags, collected flags, then r_norm."""
    return np.asarray(
        list(state.asked) + list(state.collected) + [state.rationality],
        dtype=np.float64,
    )


def make_scenario(
    claim: str,
    atom_universe: Sequence[str],
    rules: Sequence[Rule],
    theta_r: float,
    t_limit: int,
    r_goal: float = 100.0,
    r_time: float = -1.0,
    config: AbductionConfig | None = None,
) -> Scenario:
    """Scenario with the conventional action space: every atom but the claim."""
    universe = tuple(atom_universe)
    candidates = tuple(a for a in universe if a != claim)
    return Scenario(
        claim=claim,
        atom_universe=universe,
        candidate_facts=candidates,
        rules=tuple(rules),
        theta_r=theta_r,
        t_limit=t_limit,
        r_goal=r_goal,
        r_time=r_time,
        config=config or AbductionConfig(),
    )
