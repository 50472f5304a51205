"""Top-level acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py``: each criterion reports as
its own pass/fail line. The slow criteria (7, 8, 9) train real models; the
whole module is budgeted well under the stated wall-clock limits, which the
tests themselves enforce.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from argseek.abduction import (
    AbductionConfig,
    ExplainCache,
    brute_force_explain,
    construct_argument,
    explain,
    rationality,
)
from argseek.agents.ddqn import Hyperparams, Transition, ddqn_target, train_ddqn
from argseek.agents.qnet import QNetworkParams, init_qnet, mlp_gradients
from argseek.cli import main
from argseek.data import GenParams, build_synthetic, build_toy
from argseek.harness import evaluate, policy_factory, run_episode, sweep_tlimit
from argseek.kb import KnowledgeBase
from conftest import random_instance
from test_agents import numeric_gradients

BASELINES = ("random", "dfs", "bfs")
SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def bench():
    return build_synthetic(GenParams())


@pytest.fixture(scope="module")
def bench_models(bench):
    """Five independently seeded training runs on the benchmark, timed."""
    start = time.monotonic()
    models = {}
    for seed in SEEDS:
        hp = Hyperparams(seed=seed)
        models[seed], _ = train_ddqn(bench.scenario, bench.train_kas, hp)
    return models, time.monotonic() - start


def test_criterion_01_search_matches_oracle_on_200_instances():
    rng = np.random.default_rng(2024)
    config = AbductionConfig()
    start = time.monotonic()
    for _ in range(200):
        _, rules, obs = random_instance(rng, max_atoms=8, max_rules=6)
        fast = explain(obs, rules, config)
        slow = brute_force_explain(obs, rules, config)
        assert fast.total_cost == slow.total_cost
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 1: 200 instances agreed exactly in {elapsed:.1f}s")


def test_criterion_02_worked_example_exact(fig_rules, default_config):
    kq = KnowledgeBase(facts=frozenset({"q3", "q4"}), rules=fig_rules)
    res = rationality(kq, "q1", default_config)
    assert res.e_alpha == 10.0
    assert res.e_k == 20.0
    assert res.e_joint == pytest.approx(12.0, rel=1e-12)
    assert res.r == 18.0
    assert res.r_norm == 0.6
    oracle = brute_force_explain({"q1", "q3", "q4"}, fig_rules, default_config)
    assert res.e_joint == oracle.total_cost
    arg = construct_argument(kq, "q1", default_config)
    assert arg.support_facts == {"q3", "q4"}
    assert arg.assumptions == {"q2", "q5"}
    print("criterion 2: costs 10/20/12, savings 18, normalized 0.6, "
          "support {q3,q4}, assumptions {q2,q5}")


def test_criterion_03_rationality_bounds():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(300):
        atoms, rules, obs = random_instance(rng)
        claim = atoms[int(rng.integers(len(atoms)))]
        kq = KnowledgeBase(facts=obs - {claim}, rules=tuple(rules))
        assert rationality(kq, claim).r_norm <= 1.0
        empty = KnowledgeBase(facts=frozenset(), rules=tuple(rules))
        assert rationality(empty, claim).r_norm == 0.0
        checked += 1
    print(f"criterion 3: normalized rationality <= 1 and 0 on empty, "
          f"{checked} instances")


def test_criterion_04_gradient_check_20_networks():
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(20):
        params = init_qnet((7, 9, 8, 5), rng)
        x = rng.normal(size=(4, 7))
        actions = rng.integers(0, 5, size=4)
        targets = rng.normal(size=4)
        _, analytic = mlp_gradients(params, x, actions, targets)
        numeric = numeric_gradients(params, x, actions, targets, h=1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(
            1.0, np.maximum(np.abs(analytic), np.abs(numeric))
        )
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4
    print(f"criterion 4: max relative gradient error {worst:.2e} over 20 networks")


def test_criterion_05_target_arithmetic():
    def flat_net(bias):
        n = len(bias)
        return QNetworkParams((2, n), np.concatenate([np.zeros(n * 2), bias]))

    for r in (-1.0, 0.0, 99.0, 2.5):
        terminal = Transition(
            s=np.zeros(2), a=0, r=r, s_next=np.zeros(2), done=True,
            legal_next=np.zeros(1, dtype=bool),
        )
        assert ddqn_target([terminal], flat_net([1.0]), flat_net([2.0]), 0.95)[0] == r

    # Masked case: the online net's global best (index 0) is illegal, so it
    # must pick index 2, which the synced copy scores at 4.
    online = flat_net([9.0, 0.0, 1.0])
    target = flat_net([0.0, 9.0, 4.0])
    t = Transition(
        s=np.zeros(2), a=0, r=-1.0, s_next=np.zeros(2), done=False,
        legal_next=np.array([False, True, True]),
    )
    (y,) = ddqn_target([t], online, target, 0.95)
    assert abs(y - 2.8) <= 1e-12
    print("criterion 5: terminal targets equal rewards; masked bootstrap "
          "gives -1 + 0.95*4 = 2.8")


def test_criterion_06_environment_accounting(toy):
    sc = toy.scenario
    cache = ExplainCache(sc.rules, sc.config)
    factory = policy_factory("random", sc)
    for episode in range(1000):
        ka = toy.kas[episode % len(toy.kas)]
        rng = np.random.default_rng([9, episode])
        log = run_episode(sc, ka, factory(), rng, cache=cache)
        total = sum(rec.reward for rec in log.records)
        steps, success = len(log.records), log.success
        assert total == 100.0 * success + (-1.0) * steps
        assert steps <= sc.t_limit
        asked = [rec.asked for rec in log.records]
        assert len(asked) == len(set(asked)) == steps
    print("criterion 6: reward identity, budget, and no-repeat held over "
          "1000 episodes")


def test_criterion_07_learning_works_on_toy():
    start = time.monotonic()
    toy = build_toy()
    params, _ = train_ddqn(toy.scenario, toy.train_kas, Hyperparams(seed=0))
    trained = evaluate("ddqn", toy.test_kas, toy.scenario, [0], {0: params})
    baseline = evaluate("random", toy.test_kas, toy.scenario, [0])
    elapsed = time.monotonic() - start
    assert trained.episodes_evaluated == 50
    assert trained.completed >= 45  # >= 90%
    assert baseline.completed <= trained.completed // 2  # materially fewer
    assert elapsed < 600.0
    print(f"criterion 7: trained {trained.completed}/50 vs random "
          f"{baseline.completed}/50 in {elapsed:.0f}s")


def test_criterion_08_benchmark_orderings(bench, bench_models):
    models, train_time = bench_models
    assert train_time < 7200.0
    sc = bench.scenario
    learned = evaluate("ddqn", bench.test_kas, sc, SEEDS, models)
    summary = [f"ddqn score {learned.avg_score:.2f} completed "
               f"{learned.completed}/250 steps {learned.avg_steps:.2f}"]
    for kind in BASELINES:
        base = evaluate(kind, bench.test_kas, sc, SEEDS)
        assert learned.avg_score > base.avg_score, kind
        assert learned.completed > base.completed, kind
        assert learned.avg_steps < base.avg_steps, kind
        summary.append(f"{kind} {base.avg_score:.2f}/{base.completed}"
                       f"/{base.avg_steps:.2f}")
    print(f"criterion 8: {'; '.join(summary)}; training took {train_time:.0f}s")


def test_criterion_09_budget_sweep_dominance(bench, bench_models):
    models, _ = bench_models
    sc = bench.scenario
    curves = {}
    for kind in ("ddqn",) + BASELINES:
        table = sweep_tlimit(
            kind, bench.test_kas, sc, SEEDS, 10,
            models=models if kind == "ddqn" else None,
        )
        counts = [m.completed for _, m in table]
        assert counts == sorted(counts), f"{kind} curve not nondecreasing"
        curves[kind] = counts
    for kind in BASELINES:
        for t in range(10):
            assert curves["ddqn"][t] >= curves[kind][t], (kind, t + 1)
    print(f"criterion 9: ddqn curve {curves['ddqn']} dominates "
          + ", ".join(f"{k} {curves[k]}" for k in BASELINES))


def test_criterion_10_byte_identical_csv(toy_dir):
    runner = CliRunner()
    eval_args = ["eval", "--data", str(toy_dir), "--strategy", "random",
                 "--seeds", "0,1"]
    sweep_args = ["sweep", "--data", str(toy_dir), "--strategy", "bfs",
                  "--seeds", "0", "--max-tlimit", "4"]
    for args in (eval_args, sweep_args):
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
    print("criterion 10: repeated eval and sweep runs were byte-identical")
