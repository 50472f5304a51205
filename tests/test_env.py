"""Dialogue environment: transitions, rewards, termination, featurization."""

import dataclasses

import numpy as np
import pytest

from argseek.abduction import ExplainCache
from argseek.env import EnvError, EnvState, Scenario, featurize, legal_actions, reset, step


@pytest.fixture(scope="module")
def toy_scenario(toy):
    return toy.scenario


@pytest.fixture
def good_ka():
    return frozenset({"d1", "d2", "d3", "x1", "x2", "x3"})


def cache_for(scenario):
    return ExplainCache(scenario.rules, scenario.config)


def play(scenario, ka, actions, cache=None):
    cache = cache or cache_for(scenario)
    state = reset(scenario, ka)
    results = []
    for a in actions:
        results.append(step(state, a, scenario, ka, cache))
        state = results[-1].state
    return state, results


class TestScenario:
    def test_make_scenario_excludes_claim(self, toy):
        sc = toy.scenario
        assert sc.claim == "c"
        assert "c" not in sc.candidate_facts
        assert sc.n_actions == 9
        assert sc.feature_dim == 19

    def test_replace_recomputes_candidates(self, toy):
        sc = dataclasses.replace(toy.scenario, claim="d1")
        assert sc.candidate_facts == ("c", "d2", "d3", "x1", "x2", "x3", "x4", "x5", "x6")

    def test_duplicate_universe_atoms_rejected(self, toy):
        with pytest.raises(EnvError):
            Scenario(
                claim="c",
                atom_universe=("c", "d1", "d1"),
                rules=toy.rules,
                theta_r=0.65,
                t_limit=4,
            )

    def test_claim_outside_universe_rejected(self, toy):
        with pytest.raises(EnvError):
            Scenario("zz", toy.universe, toy.rules, 0.65, 4)

    @pytest.mark.parametrize("theta_r,t_limit", [(0.0, 4), (1.5, 4), (0.65, 0)])
    def test_bad_thresholds_rejected(self, toy, theta_r, t_limit):
        with pytest.raises(EnvError):
            Scenario("c", toy.universe, toy.rules, theta_r, t_limit)

    def test_universe_of_only_the_claim_rejected(self):
        # No action to ask: a 0-output network and 0-step episodes.
        with pytest.raises(EnvError, match="no atom besides the claim"):
            Scenario("c", ("c",), (), 0.65, 4)

    @pytest.mark.parametrize("field", ["r_goal", "r_time"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rewards_rejected(self, toy, field, value):
        with pytest.raises(EnvError, match="finite"):
            dataclasses.replace(toy.scenario, **{field: value})


class TestReset:
    def test_initial_state_is_empty(self, toy_scenario, good_ka):
        state = reset(toy_scenario, good_ka)
        assert state == EnvState()
        assert state.asked == ()
        assert featurize(state, toy_scenario).tolist() == [0.0] * 19
        assert state.r_norm == 0.0
        assert state.step == 0
        assert state.kq_facts == frozenset()

    def test_state_holds_each_fact_once(self):
        names = [f.name for f in dataclasses.fields(EnvState)]
        assert names == ["asked", "kq_facts", "r_raw", "r_norm"]

    def test_answerer_facts_must_be_askable(self, toy_scenario):
        with pytest.raises(EnvError):
            reset(toy_scenario, frozenset({"c"}))
        with pytest.raises(EnvError):
            reset(toy_scenario, frozenset({"nope"}))


class TestStep:
    def test_unanswered_ask_changes_nothing_but_flags(self, toy_scenario, good_ka):
        # x6 (index 8) is outside the answerer's knowledge.
        state, (res,) = play(toy_scenario, good_ka, [8])
        assert res.answered is None
        assert state.asked == (8,)
        assert featurize(state, toy_scenario)[9 + 8] == 0
        assert state.kq_facts == frozenset()
        assert state.r_norm == 0.0
        assert res.reward == -1.0
        assert not res.done

    def test_collection_recomputes_rationality(self, toy_scenario, good_ka):
        state, (res,) = play(toy_scenario, good_ka, [0])
        assert res.answered == "d1"
        assert featurize(state, toy_scenario)[9 + 0] == 1
        assert state.kq_facts == {"d1"}
        assert state.r_norm == 0.4000000000000001
        assert state.r_raw == 8.000000000000002
        assert res.reward == -1.0

    def test_rationality_survives_unanswered_ask(self, toy_scenario, good_ka):
        state, results = play(toy_scenario, good_ka, [0, 8])
        assert results[1].answered is None
        assert state.r_norm == results[0].state.r_norm
        assert state.r_raw == results[0].state.r_raw

    def test_success_pays_goal_reward_and_ends(self, toy_scenario, good_ka):
        state, results = play(toy_scenario, good_ka, [0, 1, 2])
        assert [r.reward for r in results] == [-1.0, -1.0, 99.0]
        assert results[-1].done
        assert state.r_norm == 0.7
        assert sum(r.reward for r in results) == 100.0 - 3.0

    def test_threshold_is_inclusive(self, toy_scenario, good_ka):
        # {d1, d2} scores exactly 0.6; at theta_r = 0.6 that must succeed.
        sc = dataclasses.replace(toy_scenario, theta_r=0.6)
        state, results = play(sc, good_ka, [0, 1])
        assert state.r_norm == 0.6
        assert results[-1].done
        assert results[-1].reward == 99.0

    def test_collected_distractor_blocks_success(self, toy_scenario, good_ka):
        # x1 dilutes the fact set: 4 collected facts score 0.56 < 0.65.
        state, results = play(toy_scenario, good_ka, [3, 0, 1, 2])
        assert state.r_norm == 0.56
        assert results[-1].done  # turn budget exhausted
        assert results[-1].reward == -1.0

    def test_budget_exhaustion_ends_episode(self, toy_scenario, good_ka):
        state, results = play(toy_scenario, good_ka, [8, 7, 6, 5])
        assert [r.done for r in results] == [False, False, False, True]
        assert state.step == 4
        assert state.asked == (8, 7, 6, 5)

    def test_action_space_exhaustion_ends_episode(self, toy):
        sc = Scenario("c", ("c", "x1", "x2"), (), 0.65, 10)
        state, results = play(sc, frozenset(), [0, 1])
        assert results[-1].done
        assert state.step == 2

    def test_repeat_action_rejected(self, toy_scenario, good_ka):
        state, _ = play(toy_scenario, good_ka, [0])
        with pytest.raises(EnvError):
            step(state, 0, toy_scenario, good_ka, cache_for(toy_scenario))

    def test_out_of_range_action_rejected(self, toy_scenario, good_ka):
        state = reset(toy_scenario, good_ka)
        cache = cache_for(toy_scenario)
        with pytest.raises(EnvError):
            step(state, 9, toy_scenario, good_ka, cache)
        with pytest.raises(EnvError):
            step(state, -1, toy_scenario, good_ka, cache)

    def test_shared_cache_preserves_results(self, toy_scenario, good_ka):
        # A second episode on a shared cache is served from its memo and
        # must step exactly like one on a cache of its own.
        shared = cache_for(toy_scenario)
        first = play(toy_scenario, good_ka, (0, 1, 2), shared)
        second = play(toy_scenario, good_ka, (0, 1, 2), shared)
        own = play(toy_scenario, good_ka, (0, 1, 2))
        assert first == second == own


class TestFeaturize:
    def test_layout_asked_collected_rationality(self, fig_rules):
        sc = Scenario("q1", ("q1", "q2", "q3", "q4", "q5"), fig_rules, 0.7, 10)
        assert sc.feature_dim == 9
        state, _ = play(sc, frozenset({"q5"}), [3])  # ask q5
        vec = featurize(state, sc)
        assert vec.dtype == np.float64
        assert vec.shape == (9,)
        assert vec[:8].tolist() == [0, 0, 0, 1, 0, 0, 0, 1]
        assert vec[8] == pytest.approx(0.4, rel=1e-12)

    def test_legal_actions_complement_asked(self, toy_scenario, good_ka):
        state, _ = play(toy_scenario, good_ka, [2, 5])
        legal = legal_actions(state, toy_scenario)
        assert legal.dtype == bool
        assert np.flatnonzero(legal).tolist() == [0, 1, 3, 4, 6, 7, 8]

    def test_matches_flag_list_layout(self, toy):
        # Reference: the layout featurize had when the state stored 0/1
        # asked and collected tuples, concatenated through lists. A budget
        # of every action lets states grow to the whole action space.
        sc = dataclasses.replace(toy.scenario, t_limit=toy.scenario.n_actions)
        cache = cache_for(sc)
        rng = np.random.default_rng(3)
        for episode in range(300):
            ka = toy.kas[episode % len(toy.kas)]
            state = reset(sc, ka)
            asked, collected = [0] * sc.n_actions, [0] * sc.n_actions
            done = False
            while True:
                vec = featurize(state, sc)
                want = np.asarray(asked + collected + [state.r_norm], dtype=np.float64)
                assert vec.dtype == want.dtype and vec.shape == want.shape
                assert vec.tobytes() == want.tobytes()
                if done:
                    break
                action = int(rng.choice(np.flatnonzero(legal_actions(state, sc))))
                result = step(state, action, sc, ka, cache)
                asked[action] = 1
                collected[action] = int(result.answered is not None)
                state, done = result.state, result.done


class TestAccounting:
    def test_reward_identity_over_random_episodes(self, toy):
        # Cumulative reward must equal r_goal * success - steps, with no
        # repeats and length within the budget, for any action sequence.
        sc = toy.scenario
        cache = cache_for(sc)
        rng = np.random.default_rng(7)
        for episode in range(200):
            ka = toy.kas[episode % len(toy.kas)]
            state = reset(sc, ka)
            total = 0.0
            asked = []
            done = False
            while not done:
                legal = np.flatnonzero(legal_actions(state, sc))
                action = legal[int(rng.integers(len(legal)))]
                result = step(state, action, sc, ka, cache)
                asked.append(action)
                total += result.reward
                state = result.state
                done = result.done
            success = state.r_norm >= sc.theta_r
            assert total == 100.0 * success - state.step
            assert state.step <= sc.t_limit
            assert len(asked) == len(set(asked)) == state.step
