"""The one episode loop: ``env.rollout``'s contract, and bit-for-bit
equivalence of training and evaluation with the hand-written loops each
used to run on its own (kept below as reference implementations)."""

import numpy as np
import pytest

from argseek import env
from argseek.abduction import ExplainCache
from argseek.agents.ddqn import (
    Hyperparams,
    ReplayBuffer,
    Transition,
    ddqn_target,
    epsilon_at,
    greedy_action,
    train_ddqn,
)
from argseek.agents.heuristics import random_next
from argseek.agents.qnet import (
    AdamState,
    adam_update,
    copy_params,
    init_qnet,
    mlp_gradients,
)
from argseek.data import GenParams, build_synthetic
from argseek.harness import (
    EpisodeLog,
    StepRecord,
    evaluate,
    policy_factory,
    run_episode,
)


def reference_train_ddqn(scenario, ka_pool, hp):
    """The training loop as it stood before ``env.rollout``; also returns
    the number of updates it made."""
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
    for ep in range(hp.episodes):
        ka = ka_pool[int(rng.integers(len(ka_pool)))]
        state = env.reset(scenario, ka)
        features = env.featurize(state, scenario)
        legal = env.legal_actions(state, scenario)
        total = 0.0
        done = False
        while not done:
            if rng.random() < epsilon_at(hp, action_count):
                action = random_next(legal, rng)
            else:
                action = greedy_action(params, features, legal)
            action_count += 1
            result = env.step(state, action, scenario, ka, cache)
            state, done = result.state, result.done
            total += result.reward
            s_next = env.featurize(state, scenario)
            legal_next = env.legal_actions(state, scenario)
            buffer.push(Transition(features, action, result.reward, s_next, done, legal_next))
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
            features, legal = s_next, legal_next
        curve[ep] = total
    return params, curve, update_count


def reference_run_episode(scenario, ka, policy, rng):
    """The evaluation loop as it stood before ``env.rollout``."""
    cache = ExplainCache(scenario.rules, scenario.config)
    state = env.reset(scenario, ka)
    records = []
    done = False
    while not done:
        action = policy(state, env.legal_actions(state, scenario), rng)
        result = env.step(state, action, scenario, ka, cache=cache)
        state, done = result.state, result.done
        records.append(
            StepRecord(
                step=state.step,
                asked=scenario.candidate_facts[action],
                answered=result.answered,
                r_raw=state.r_raw,
                r_norm=state.r_norm,
                reward=result.reward,
            )
        )
    return EpisodeLog(records=tuple(records), success=state.r_norm >= scenario.theta_r)


@pytest.fixture(scope="module")
def small():
    """A synthetic dataset whose episodes run to different lengths."""
    return build_synthetic(
        GenParams(n_facts=30, n_rules=12, ka_count=12, ka_size=5, train_count=8, seed=1)
    )


@pytest.fixture(params=["toy", "small"])
def dataset(request):
    return request.getfixturevalue(request.param)


class TestTrainingMatchesReferenceLoop:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_params_and_curve_bit_for_bit(self, dataset, seed):
        # Both exploration branches, a full replay ring and several target
        # syncs all happen under these settings.
        hp = Hyperparams(
            episodes=40, eps_start=0.5, eps_end=0.05, eps_anneal_actions=60,
            batch_size=4, replay_capacity=32, target_sync_every=5,
            hidden_dims=(8,), seed=seed,
        )
        want_params, want_curve, updates = reference_train_ddqn(
            dataset.scenario, dataset.train_kas, hp
        )
        assert updates >= 10 * hp.target_sync_every
        params, curve = train_ddqn(dataset.scenario, dataset.train_kas, hp)
        assert curve.tobytes() == want_curve.tobytes()
        assert params.layer_dims == want_params.layer_dims
        assert params.flat.tobytes() == want_params.flat.tobytes()


class TestRunEpisodeMatchesReferenceLoop:
    @pytest.mark.parametrize("kind", ["random", "dfs", "bfs", "ddqn"])
    def test_same_records(self, dataset, kind):
        scenario = dataset.scenario
        dims = (scenario.feature_dim, 8, scenario.n_actions)
        model = init_qnet(dims, np.random.default_rng(3)) if kind == "ddqn" else None
        factory = policy_factory(kind, scenario, model)
        cache = ExplainCache(scenario.rules, scenario.config)
        for seed in range(4):
            for i, ka in enumerate(dataset.test_kas):
                want = reference_run_episode(
                    scenario, ka, factory(), np.random.default_rng([seed, i])
                )
                got = run_episode(scenario, ka, factory(), np.random.default_rng([seed, i]), cache)
                assert got == want


class TestRolloutContract:
    def test_policy_waits_for_resume(self, toy):
        scenario = toy.scenario
        ka = toy.test_kas[0]
        calls = []

        def policy(state, legal, rng):
            calls.append(state.step)
            return random_next(legal, rng)

        cache = ExplainCache(scenario.rules, scenario.config)
        episode = env.rollout(scenario, ka, policy, np.random.default_rng(0), cache)
        assert calls == []
        steps = 0
        for _, result, _ in episode:
            steps += 1
            # The policy chose this step's action and nothing beyond it.
            assert calls == list(range(steps))
            assert result.state.step == steps
        assert steps >= 1

    def test_caller_work_between_steps_reaches_next_pick(self, toy):
        # A value the caller sets after step t is what the policy reads at
        # step t + 1, as training's features and network updates need.
        scenario = toy.scenario
        seen = []
        current = {"tag": -1}

        def policy(state, legal, rng):
            seen.append(current["tag"])
            return int(np.flatnonzero(legal)[0])

        cache = ExplainCache(scenario.rules, scenario.config)
        ka = frozenset()  # nothing is answered, so the episode runs to t_limit
        for _, result, _ in env.rollout(scenario, ka, policy, None, cache):
            current["tag"] = result.state.step
        assert seen == [-1, *range(1, scenario.t_limit)]

    def test_masks_are_legal_actions_of_their_states(self, dataset):
        scenario = dataset.scenario
        cache = ExplainCache(scenario.rules, scenario.config)

        def policy(state, legal, rng):
            assert np.array_equal(legal, env.legal_actions(state, scenario))
            return random_next(legal, rng)

        for i, ka in enumerate(dataset.test_kas):
            rng = np.random.default_rng(i)
            for action, result, legal in env.rollout(scenario, ka, policy, rng, cache):
                assert legal.dtype == bool
                assert np.array_equal(legal, env.legal_actions(result.state, scenario))
                assert not legal[action]

    @pytest.mark.parametrize("kind", ["random", "dfs", "bfs", "ddqn"])
    def test_patched_env_step_sees_every_eval_step(self, toy, toy_oracle_model, kind, monkeypatch):
        calls = []
        real_step = env.step

        def counting_step(*args, **kwargs):
            calls.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(env, "step", counting_step)
        models = {0: toy_oracle_model, 1: toy_oracle_model} if kind == "ddqn" else None
        m = evaluate(kind, toy.test_kas, toy.scenario, [0, 1], models=models)
        assert len(calls) == round(m.avg_steps * m.episodes_evaluated) > 0
