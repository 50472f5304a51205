"""Episode rollouts, metric aggregation, sweeps, and output rendering."""

import dataclasses

import numpy as np
import pytest

from argseek.abduction import ExplainCache
from argseek.agents.qnet import init_qnet
from argseek.data import GenParams, build_synthetic
from argseek.harness import (
    EpisodeLog,
    Metrics,
    StepRecord,
    evaluate,
    metrics_csv,
    policy_factory,
    render_transcript,
    run_episode,
    sweep_csv,
    sweep_tlimit,
)


class TestMetrics:
    def test_completed_must_fit_episode_count(self):
        with pytest.raises(ValueError):
            Metrics(0.0, completed=51, avg_steps=1.0, stderr_score=0.0,
                    episodes_evaluated=50)
        with pytest.raises(ValueError):
            Metrics(0.0, completed=-1, avg_steps=1.0, stderr_score=0.0,
                    episodes_evaluated=50)


class TestPolicyFactory:
    def test_ddqn_requires_model(self, toy):
        with pytest.raises(ValueError, match="model"):
            policy_factory("ddqn", toy.scenario)

    def test_unknown_kind_rejected(self, toy):
        with pytest.raises(ValueError, match="unknown strategy"):
            policy_factory("astar", toy.scenario)

    def test_each_episode_gets_a_fresh_traversal(self, toy):
        factory = policy_factory("dfs", toy.scenario)
        rng = np.random.default_rng(0)
        ka = toy.kas[0]
        log1 = run_episode(toy.scenario, ka, factory(), rng)
        log2 = run_episode(toy.scenario, ka, factory(), np.random.default_rng(0))
        # Same seed and fresh cursors reproduce the same walk.
        assert [r.asked for r in log1.records] == [r.asked for r in log2.records]


def outcome(log):
    """(reward total, steps, success) of an episode; rewards are added in
    step order, as the harness adds them."""
    total = 0.0
    for rec in log.records:
        total += rec.reward
    return total, len(log.records), log.success


class TestRunEpisode:
    def test_oracle_model_solves_in_three_steps(self, toy, toy_oracle_model):
        policy = policy_factory("ddqn", toy.scenario, toy_oracle_model)()
        log = run_episode(toy.scenario, toy.kas[0], policy, np.random.default_rng(0))
        assert outcome(log) == (97.0, 3, True)
        assert [r.step for r in log.records] == [1, 2, 3]
        assert [r.asked for r in log.records] == ["d1", "d2", "d3"]
        assert [r.answered for r in log.records] == ["d1", "d2", "d3"]
        assert [r.reward for r in log.records] == [-1.0, -1.0, 99.0]
        assert [r.r_norm for r in log.records] == [
            0.4000000000000001, 0.6, 0.7,
        ]
        assert [r.r_raw for r in log.records] == [8.000000000000002, 18.0, 28.0]

    def test_failed_episode_reported(self, toy):
        # A policy that insists on distractors never reaches the threshold.
        def junk_policy(state, legal, rng):
            return int(np.flatnonzero(legal)[-1])

        log = run_episode(toy.scenario, toy.kas[0], junk_policy, np.random.default_rng(0))
        total, steps, success = outcome(log)
        assert not success
        assert steps == toy.scenario.t_limit
        assert total == -4.0


class TestEvaluate:
    def test_oracle_model_completes_everything(self, toy, toy_oracle_model):
        m = evaluate("ddqn", toy.test_kas, toy.scenario, [0], {0: toy_oracle_model})
        assert m.episodes_evaluated == 50
        assert m.completed == 50
        assert m.avg_score == 97.0
        assert m.avg_steps == 3.0
        assert m.stderr_score == 0.0

    def test_score_identity_holds_for_random(self, toy):
        m = evaluate("random", toy.test_kas, toy.scenario, [0])
        n = m.episodes_evaluated
        assert n == 50
        recomputed = (100.0 * m.completed - m.avg_steps * n) / n
        assert m.avg_score == pytest.approx(recomputed, abs=1e-9)

    def test_tlimit_override_forbids_success(self, toy):
        m = evaluate("random", toy.test_kas, toy.scenario, [0], t_limit=1)
        assert m.completed == 0
        assert m.avg_steps == 1.0
        assert m.avg_score == -1.0

    def test_two_seed_aggregation(self, toy):
        a = evaluate("random", toy.test_kas, toy.scenario, [0])
        b = evaluate("random", toy.test_kas, toy.scenario, [1])
        both = evaluate("random", toy.test_kas, toy.scenario, [0, 1])
        assert both.episodes_evaluated == 100
        assert both.avg_score == pytest.approx((a.avg_score + b.avg_score) / 2)
        # Sample standard error over two per-seed means: half their gap.
        assert both.stderr_score == pytest.approx(abs(a.avg_score - b.avg_score) / 2)

    def test_deterministic_given_seeds(self, toy):
        a = evaluate("bfs", toy.test_kas, toy.scenario, [3])
        b = evaluate("bfs", toy.test_kas, toy.scenario, [3])
        assert a == b

    def test_input_validation(self, toy, toy_oracle_model):
        with pytest.raises(ValueError, match="empty"):
            evaluate("random", [], toy.scenario, [0])
        with pytest.raises(ValueError, match="seed"):
            evaluate("random", toy.test_kas, toy.scenario, [])
        with pytest.raises(ValueError, match="no model"):
            evaluate("ddqn", toy.test_kas, toy.scenario, [0, 1],
                     {0: toy_oracle_model})


class TestSweep:
    def test_completed_is_nondecreasing(self, toy):
        table = sweep_tlimit("random", toy.test_kas, toy.scenario, [0, 1], 4)
        assert [t for t, _ in table] == [1, 2, 3, 4]
        counts = [m.completed for _, m in table]
        assert counts == sorted(counts)

    def test_rows_match_individual_evaluations(self, toy):
        table = sweep_tlimit("random", toy.test_kas, toy.scenario, [0], 3)
        for t, metrics in table:
            assert metrics == evaluate(
                "random", toy.test_kas, toy.scenario, [0], t_limit=t
            )

    def test_bad_limit_rejected(self, toy):
        with pytest.raises(ValueError):
            sweep_tlimit("random", toy.test_kas, toy.scenario, [0], 0)


SWEEP_SEEDS = [0, 1, 2]


def sweep_case(name, toy):
    """(test K_A sets, scenario) for one sweep-equivalence case."""
    if name == "synthetic":
        ds = build_synthetic(
            GenParams(n_facts=30, n_rules=12, ka_count=20, ka_size=6,
                      train_count=10, seed=1)
        )
        return ds.test_kas, ds.scenario
    if name == "fractional":
        # Rewards that are not exact binary floats pin the order in which
        # the per-seed totals are added up.
        return toy.test_kas, dataclasses.replace(toy.scenario, r_time=-0.3, r_goal=7.7)
    return toy.test_kas, toy.scenario


def sweep_models(kind, scenario):
    """An untrained model shared by every seed, so ddqn episodes vary in length."""
    if kind != "ddqn":
        return None
    model = init_qnet((scenario.feature_dim, 8, scenario.n_actions),
                      np.random.default_rng(0))
    return {seed: model for seed in SWEEP_SEEDS}


def replayed_metrics(kind, test_kas, scenario, seeds, models, t_limit):
    """The slow path a sweep row replaces: every episode replayed at t_limit
    with a fresh cache, rewards added up in the same order as evaluate."""
    scenario = dataclasses.replace(scenario, t_limit=t_limit)
    cache = ExplainCache(scenario.rules, scenario.config)
    completed, total_steps, seed_means = 0, 0, []
    for seed in seeds:
        factory = policy_factory(kind, scenario, models[seed] if models else None)
        seed_total = 0.0
        for i, ka in enumerate(test_kas):
            reward, steps, success = outcome(
                run_episode(scenario, ka, factory(), np.random.default_rng([seed, i]), cache=cache)
            )
            seed_total += reward
            total_steps += steps
            completed += int(success)
        seed_means.append(seed_total / len(test_kas))
    episodes = len(seeds) * len(test_kas)
    stderr = float(np.std(seed_means, ddof=1) / np.sqrt(len(seeds)))
    return Metrics(
        avg_score=(scenario.r_goal * completed + scenario.r_time * total_steps) / episodes,
        completed=completed,
        avg_steps=total_steps / episodes,
        stderr_score=stderr,
        episodes_evaluated=episodes,
    )


class TestSweepEquivalence:
    """The one-rollout sweep and evaluate against a full replay per time limit."""

    def check_rows(self, kind, test_kas, scenario, max_tlimit):
        models = sweep_models(kind, scenario)
        table = sweep_tlimit(kind, test_kas, scenario, SWEEP_SEEDS, max_tlimit, models=models)
        assert [t for t, _ in table] == list(range(1, max_tlimit + 1))
        for t, metrics in table:
            want = replayed_metrics(kind, test_kas, scenario, SWEEP_SEEDS, models, t)
            assert metrics == want, f"sweep row t_limit={t}"
            assert evaluate(
                kind, test_kas, scenario, SWEEP_SEEDS, models=models, t_limit=t
            ) == want, f"evaluate t_limit={t}"
        return table

    @pytest.mark.parametrize("case", ["toy", "synthetic", "fractional"])
    @pytest.mark.parametrize("kind", ["random", "dfs", "bfs", "ddqn"])
    def test_rows_equal_per_limit_replays(self, toy, kind, case):
        test_kas, scenario = sweep_case(case, toy)
        self.check_rows(kind, test_kas, scenario, 10)

    @pytest.mark.parametrize("kind", ["random", "dfs", "bfs", "ddqn"])
    def test_limits_beyond_the_action_count(self, toy, kind):
        # Past n_actions every unfinished episode has asked everything, so
        # it ends there and the rows stop changing.
        test_kas, scenario = sweep_case("toy", toy)
        n = scenario.n_actions
        table = self.check_rows(kind, test_kas, scenario, n + 3)
        assert all(m == table[n - 1][1] for _, m in table[n:])

    def test_random_episodes_run_out_of_actions(self, toy):
        test_kas, scenario = sweep_case("toy", toy)
        n = scenario.n_actions
        table = sweep_tlimit("random", test_kas, scenario, SWEEP_SEEDS, n + 3)
        m = table[-1][1]
        # Most random walks fail and stop after asking all n candidates.
        assert m.completed < m.episodes_evaluated
        assert n - 1 < m.avg_steps < n


class TestRenderTranscript:
    def test_full_dialogue(self, toy):
        log = EpisodeLog(
            records=(
                StepRecord(1, "d1", "d1", 8.000000000000002, 0.4000000000000001, -1.0),
                StepRecord(2, "zz", None, 8.000000000000002, 0.4000000000000001, -1.0),
                StepRecord(3, "d2", "d2", 18.0, 0.6, -1.0),
            ),
            success=False,
        )
        text = render_transcript(log, toy.questions)
        assert text == (
            "step\tspeaker\tquestion\tanswer\trationality\n"
            "1\tQ\tIs d1 known to hold?\td1 holds.\t0.4000000000000001\n"
            "2\tQ\tzz\tI do not know.\t0.4000000000000001\n"
            "3\tQ\tIs d2 known to hold?\td2 holds.\t0.6\n"
            "# outcome: failure\n"
        )

    def test_empty_log_renders_header_and_outcome(self, toy):
        text = render_transcript(EpisodeLog(records=(), success=True), toy.questions)
        assert text == "step\tspeaker\tquestion\tanswer\trationality\n# outcome: success\n"


class TestCsvRendering:
    def test_metrics_csv_exact(self):
        rows = [
            ("ddqn", Metrics(97.0, 50, 3.0, 0.0, 50)),
            ("random", Metrics(-3.0, 1, 4.0, 0.5, 50)),
        ]
        assert metrics_csv(rows) == (
            "strategy,avg_score,stderr,completed,avg_steps\n"
            "ddqn,97.0,0.0,50,3.0\n"
            "random,-3.0,0.5,1,4.0\n"
        )

    def test_sweep_csv_exact(self):
        m1 = Metrics(-1.0, 0, 1.0, 0.0, 50)
        m2 = Metrics(3.0, 2, 1.9, 0.0, 50)
        assert sweep_csv([("bfs", [(1, m1), (2, m2)])]) == (
            "t_limit,strategy,completed\n"
            "1,bfs,0\n"
            "2,bfs,2\n"
        )

    def test_repr_floats_round_trip(self, toy):
        m = evaluate("random", toy.test_kas, toy.scenario, [0])
        line = metrics_csv([("random", m)]).splitlines()[1]
        _, score, stderr, completed, steps = line.split(",")
        assert float(score) == m.avg_score
        assert float(stderr) == m.stderr_score
        assert int(completed) == m.completed
        assert float(steps) == m.avg_steps
