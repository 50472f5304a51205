"""Shared fixtures and instance builders for the test suite."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pytest

from argseek.abduction import AbductionConfig
from argseek.agents.qnet import QNetworkParams
from argseek.data import Dataset, build_toy, save_dataset
from argseek.kb import Rule, parse_rule

# Dyadic per-premise weights: every product and sum of charges is an exact
# binary float, so search and oracle must agree bit for bit, not just within
# a tolerance.
DYADIC_WEIGHTS = (0.5, 0.75, 1.0, 1.25, 1.5)


def random_instance(
    rng: np.random.Generator,
    max_atoms: int = 8,
    max_rules: int = 6,
    weights: Sequence[float] = DYADIC_WEIGHTS,
) -> tuple[list[str], list[Rule], frozenset[str]]:
    """Small random (atoms, rules, observations) abduction instance; each rule
    draws one premise weight from ``weights``."""
    n_atoms = int(rng.integers(3, max_atoms + 1))
    atoms = [f"a{i}" for i in range(n_atoms)]
    rules: list[Rule] = []
    for _ in range(int(rng.integers(0, max_rules + 1))):
        conclusion = atoms[int(rng.integers(n_atoms))]
        others = [a for a in atoms if a != conclusion]
        k = int(rng.integers(1, min(3, len(others)) + 1))
        picked = rng.choice(len(others), size=k, replace=False)
        premises = tuple(others[i] for i in sorted(picked))
        theta = weights[int(rng.integers(len(weights)))]
        rules.append(Rule(premises, conclusion, (theta,) * k))
    n_obs = int(rng.integers(1, 4))
    picked = rng.choice(n_atoms, size=min(n_obs, n_atoms), replace=False)
    observations = frozenset(atoms[i] for i in picked)
    return atoms, rules, observations


@pytest.fixture(scope="session")
def toy() -> Dataset:
    return build_toy()


@pytest.fixture(scope="session")
def toy_dir(tmp_path_factory, toy):
    """The toy dataset saved to disk, shared read-only across tests."""
    base = tmp_path_factory.mktemp("toydata")
    save_dataset(toy, base)
    return base


@pytest.fixture(scope="session")
def toy_oracle_model(toy) -> QNetworkParams:
    """Single linear layer whose biases rank the three needed facts first.

    With zero weights the Q-values never depend on the state, so the greedy
    policy asks d1, d2, d3 in index order: the known-optimal behavior.
    """
    sc = toy.scenario
    bias = np.array(
        [1.0 if atom in ("d1", "d2", "d3") else 0.0 for atom in sc.candidate_facts]
    )
    weights = np.zeros(sc.n_actions * sc.feature_dim)
    return QNetworkParams((sc.feature_dim, sc.n_actions), np.concatenate([weights, bias]))


@pytest.fixture(scope="session")
def fig_rules() -> tuple[Rule, ...]:
    """Five-atom example: one claim q1 backed by q2, q4, q5, and q3 derivable
    from q2. Used throughout as the hand-checkable reference instance."""
    return (parse_rule("q2 & q4 & q5 -> q1 :: 1.2"), parse_rule("q2 -> q3"))


@pytest.fixture(scope="session")
def default_config() -> AbductionConfig:
    return AbductionConfig()
