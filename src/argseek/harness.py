"""Evaluation harness: seeded episode rollouts, metrics, sweeps, transcripts.

Every episode draws its RNG from (seed, episode index), never from a shared
stream, so trajectories are prefix-consistent across time limits: a success
at limit T replays identically and stays a success at T + 1. That makes
completed-vs-limit curves exactly nondecreasing rather than just in
expectation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Mapping, Sequence

import numpy as np

from .abduction import ExplainCache
from .agents.ddqn import greedy_action
from .agents.heuristics import (
    STRATEGY_KINDS,
    TraversalState,
    bfs_next,
    dfs_next,
    random_next,
)
from .agents.qnet import QNetworkParams
from .env import EnvState, Policy, Scenario, featurize, rollout
# Not used here: perfbench/spans.py wraps harness.step and
# harness.legal_actions by name, and its tracer fails if either is missing.
from .env import legal_actions, step
from .kb import build_fact_graph

UNKNOWN_ANSWER = "I do not know."

# A factory is called once per episode so traversal cursors never leak
# across episodes.
PolicyFactory = Callable[[], Policy]


@dataclass(frozen=True)
class Metrics:
    """Aggregate episode outcomes for one strategy."""

    avg_score: float
    completed: int
    avg_steps: float
    stderr_score: float
    episodes_evaluated: int

    def __post_init__(self) -> None:
        if not 0 <= self.completed <= self.episodes_evaluated:
            raise ValueError("completed out of range")


@dataclass(frozen=True)
class StepRecord:
    step: int
    asked: str
    answered: str | None
    r_raw: float
    r_norm: float
    reward: float


@dataclass(frozen=True)
class EpisodeLog:
    records: tuple[StepRecord, ...]
    success: bool


def policy_factory(
    kind: str,
    scenario: Scenario,
    model: QNetworkParams | None = None,
) -> PolicyFactory:
    """Build a per-episode policy constructor for a strategy name."""
    if kind == "ddqn":
        if model is None:
            raise ValueError("ddqn strategy needs a trained model")

        def greedy(state: EnvState, legal: np.ndarray, rng: np.random.Generator) -> int:
            return greedy_action(model, featurize(state, scenario), legal)

        return lambda: greedy
    if kind not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy {kind!r}")
    if kind == "random":

        def uniform(state: EnvState, legal: np.ndarray, rng: np.random.Generator) -> int:
            return random_next(legal, rng)

        return lambda: uniform

    graph = build_fact_graph(scenario.rules, scenario.atom_universe)
    next_fn = dfs_next if kind == "dfs" else bfs_next

    def make_traversal() -> Policy:
        walk = TraversalState(scenario.candidate_facts)

        def act(state: EnvState, legal: np.ndarray, rng: np.random.Generator) -> int:
            return next_fn(walk, graph, scenario.claim, legal, rng)

        return act

    return make_traversal


def run_episode(
    scenario: Scenario,
    ka: frozenset[str],
    policy: Policy,
    rng: np.random.Generator,
    cache: ExplainCache | None = None,
) -> EpisodeLog:
    """Roll out one dialogue and record every step."""
    if cache is None:
        cache = ExplainCache(scenario.rules, scenario.config)
    records = tuple(
        StepRecord(
            result.state.step, scenario.candidate_facts[action], result.answered,
            result.state.r_raw, result.state.r_norm, result.reward,
        )
        for action, result, _ in rollout(scenario, ka, policy, rng, cache)
    )
    return EpisodeLog(records=records, success=records[-1].r_norm >= scenario.theta_r)


def _episode_rng(seed: int, episode: int) -> np.random.Generator:
    return np.random.default_rng([seed, episode])


# One finished rollout: the running reward total after each step (index k
# holds the total after k steps, index 0 is 0.0) and whether it succeeded.
_Run = tuple[list[float], bool]


def _rollouts(
    kind: str,
    test_kas: Sequence[frozenset[str]],
    scenario: Scenario,
    seeds: Sequence[int],
    models: Mapping[int, QNetworkParams] | None,
) -> list[list[_Run]]:
    """Run one episode per (seed, test K_A) at ``scenario.t_limit`` with one
    shared explain cache; returns the runs grouped by seed, in input order."""
    if not test_kas:
        raise ValueError("empty test list")
    if not seeds:
        raise ValueError("need at least one seed")
    cache = ExplainCache(scenario.rules, scenario.config)
    # Only ddqn's policy depends on the seed, through its per-seed model.
    factory = None if kind == "ddqn" else policy_factory(kind, scenario)

    runs: list[list[_Run]] = []
    for seed in seeds:
        if kind == "ddqn":
            if models is None or seed not in models:
                raise ValueError(f"no model supplied for seed {seed}")
            factory = policy_factory(kind, scenario, models[seed])
        seed_runs: list[_Run] = []
        for i, ka in enumerate(test_kas):
            log = run_episode(scenario, ka, factory(), _episode_rng(seed, i), cache=cache)
            totals = list(accumulate((rec.reward for rec in log.records), initial=0.0))
            seed_runs.append((totals, log.success))
        runs.append(seed_runs)
    return runs


def _aggregate(runs: Sequence[Sequence[_Run]], scenario: Scenario, t_limit: int) -> Metrics:
    """Metrics of ``runs`` cut at ``t_limit``, which must not exceed the limit
    they ran at. An episode of length L counts min(L, t_limit) steps and the
    reward total after them, and succeeds only if it did within t_limit."""
    completed = 0
    total_steps = 0
    seed_means: list[float] = []
    for seed_runs in runs:
        seed_total = 0.0
        for totals, success in seed_runs:
            length = len(totals) - 1
            steps = min(length, t_limit)
            seed_total += totals[steps]
            total_steps += steps
            completed += int(success and length <= t_limit)
        seed_means.append(seed_total / len(seed_runs))

    episodes = sum(len(seed_runs) for seed_runs in runs)
    avg_score = (scenario.r_goal * completed + scenario.r_time * total_steps) / episodes
    if len(runs) > 1:
        stderr = float(np.std(seed_means, ddof=1) / np.sqrt(len(runs)))
    else:
        stderr = 0.0
    return Metrics(
        avg_score=avg_score,
        completed=completed,
        avg_steps=total_steps / episodes,
        stderr_score=stderr,
        episodes_evaluated=episodes,
    )


def evaluate(
    kind: str,
    test_kas: Sequence[frozenset[str]],
    scenario: Scenario,
    seeds: Sequence[int],
    models: Mapping[int, QNetworkParams] | None = None,
    t_limit: int | None = None,
) -> Metrics:
    """Run one episode per (seed, test K_A) and aggregate outcomes.

    Learned strategies read their per-seed model from ``models``; baseline
    seeds vary only the episode RNG. avg_score satisfies
    (r_goal * completed + r_time * total_steps) / episodes exactly.
    """
    if t_limit is not None:
        scenario = dataclasses.replace(scenario, t_limit=t_limit)
    runs = _rollouts(kind, test_kas, scenario, seeds, models)
    return _aggregate(runs, scenario, scenario.t_limit)


def sweep_tlimit(
    kind: str,
    test_kas: Sequence[frozenset[str]],
    scenario: Scenario,
    seeds: Sequence[int],
    max_tlimit: int,
    models: Mapping[int, QNetworkParams] | None = None,
) -> list[tuple[int, Metrics]]:
    """Evaluate at every time limit 1..max_tlimit from one set of rollouts.

    Every (seed, K_A) episode runs once, at ``max_tlimit``, and the row for
    each limit T is cut from those runs. That is exact, not an estimate:
    episodes are prefix-consistent (see the module docstring), so the run at
    limit T is the first min(L, T) steps of the run at ``max_tlimit``, which
    has length L. Each row therefore equals ``evaluate(..., t_limit=T)``
    float for float.
    """
    if max_tlimit < 1:
        raise ValueError("max_tlimit must be >= 1")
    scenario = dataclasses.replace(scenario, t_limit=max_tlimit)
    runs = _rollouts(kind, test_kas, scenario, seeds, models)
    return [(t, _aggregate(runs, scenario, t)) for t in range(1, max_tlimit + 1)]


def render_transcript(
    log: EpisodeLog, questions: Mapping[str, tuple[str, str]]
) -> str:
    """Readable dialogue table; one row per step, rationality after each."""
    lines = ["step\tspeaker\tquestion\tanswer\trationality"]
    for rec in log.records:
        question = questions.get(rec.asked, (rec.asked, ""))[0]
        if rec.answered is None:
            answer = UNKNOWN_ANSWER
        else:
            answer = questions.get(rec.answered, (None, rec.answered))[1]
        lines.append(f"{rec.step}\tQ\t{question}\t{answer}\t{rec.r_norm!r}")
    outcome = "success" if log.success else "failure"
    lines.append(f"# outcome: {outcome}")
    return "\n".join(lines) + "\n"


def metrics_csv(rows: Sequence[tuple[str, Metrics]]) -> str:
    """CSV for eval output; repr floats keep output byte-reproducible."""
    lines = ["strategy,avg_score,stderr,completed,avg_steps"]
    for name, m in rows:
        lines.append(
            f"{name},{m.avg_score!r},{m.stderr_score!r},{m.completed},{m.avg_steps!r}"
        )
    return "\n".join(lines) + "\n"


def sweep_csv(rows: Sequence[tuple[str, Sequence[tuple[int, Metrics]]]]) -> str:
    lines = ["t_limit,strategy,completed"]
    for name, table in rows:
        for t, m in table:
            lines.append(f"{t},{name},{m.completed}")
    return "\n".join(lines) + "\n"
