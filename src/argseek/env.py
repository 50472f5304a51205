"""Dialogue MDP for information-seeking question selection.

A ``Scenario`` fixes the episode constants; its action space is every atom
of the universe but the claim. The answerer is a bare fact set (K_A). The
questioner picks one unasked candidate fact per step; the answerer reveals
it only when it lies in K_A. Collected facts feed the questioner's knowledge
base, whose normalized rationality toward the claim drives the goal
condition. Every step costs ``r_time``; reaching ``theta_r`` additionally
pays ``r_goal`` and ends the episode, as does exhausting the turn budget or
the action space.

``reset`` and ``step`` build new states and never change one. States are
exposed both as structured records and as flat feature vectors
``[asked ⊕ collected ⊕ [r_norm]]`` for the learning agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        object.__setattr__(self, "candidate_facts", candidates)
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
class StepResult:
    """``answered`` is the asked fact when the answerer knew it, else None."""

    state: EnvState
    reward: float
    done: bool
    answered: str | None


@dataclass(frozen=True)
class Transition:
    """One experience tuple for the replay buffer."""

    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    done: bool
    legal_next: frozenset[int]


def reset(scenario: Scenario, ka: frozenset[str]) -> EnvState:
    """Start an episode: empty questioner knowledge, nothing asked yet."""
    unknown = ka - set(scenario.candidate_facts)
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
    if state.asked[action]:
        raise EnvError(f"action {action} was already taken this episode")

    asked = list(state.asked)
    asked[action] = 1
    collected = list(state.collected)
    kq_facts = state.kq_facts

    query = scenario.candidate_facts[action]
    answered = query if query in ka else None
    r_raw = state.rationality_raw
    r_norm = state.rationality
    if answered is not None:
        collected[action] = 1
        kq_facts = kq_facts | {query}
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
    return StepResult(new_state, reward, done, answered)


def featurize(state: EnvState) -> np.ndarray:
    """Flat observation: asked flags, collected flags, then r_norm."""
    return np.asarray(
        list(state.asked) + list(state.collected) + [state.rationality],
        dtype=np.float64,
    )
