"""Explanation search against the exhaustive oracle, plus cost-model cases
small enough to check by hand."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from argseek import abduction
from argseek.abduction import (
    AbductionConfig,
    AbductionError,
    ExplainCache,
    brute_force_explain,
    construct_argument,
    explain,
    rationality,
)
from argseek.data import GenParams, build_synthetic
from argseek.harness import evaluate
from argseek.kb import KnowledgeBase, Rule, parse_rule
from conftest import DYADIC_WEIGHTS, random_instance

# Premise weights whose products and sums are not exact binary floats.
NON_DYADIC_WEIGHTS = (0.1, 0.3, 0.45, 0.7, 0.9, 1.1, 1.3)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def rules_of(*lines: str) -> tuple[Rule, ...]:
    return tuple(parse_rule(line) for line in lines)


class TestHandCases:
    def test_empty_observations_cost_zero(self):
        proof = explain([], rules_of("a -> b"))
        assert proof.total_cost == 0.0
        assert proof.labels == {}
        assert proof.charges == {}

    def test_single_observation_no_rules(self):
        proof = explain({"a"}, [])
        assert proof.total_cost == 10.0
        assert proof.assumptions == ("a",)
        assert proof.charges == {"a": 10.0}

    def test_cheap_rule_beats_assuming(self):
        # Backchaining through weight 0.8 charges the premise 8 < 10.
        proof = explain({"a"}, rules_of("b -> a :: 0.8"))
        assert proof.total_cost == 8.0
        assert proof.assumptions == ("b",)
        assert proof.charges["b"] == 8.0
        assert proof.labels["a"] is not None

    def test_expensive_rule_is_inert(self):
        # Weight above 1 makes derivation cost 12 > 10, so assume wins.
        proof = explain({"a"}, rules_of("b -> a :: 1.2"))
        assert proof.total_cost == 10.0
        assert proof.assumptions == ("a",)

    def test_shared_premise_pays_minimum_once(self):
        proof = explain({"a", "b"}, rules_of("x -> a :: 0.5", "x -> b :: 1.0"))
        assert proof.total_cost == 5.0
        assert proof.assumptions == ("x",)
        assert proof.charges["x"] == 5.0

    def test_cost_beats_assumption_count(self):
        # Deriving needs two assumptions but is cheaper than one.
        proof = explain({"a"}, rules_of("c & d -> a :: 0.8"))
        assert proof.total_cost == 8.0
        assert proof.assumptions == ("c", "d")

    def test_tied_cost_breaks_to_lexicographic_assumptions(self):
        # Assuming a and deriving it through b both cost 10.
        proof = explain({"a"}, rules_of("b -> a :: 1.0"))
        assert proof.total_cost == 10.0
        assert proof.assumptions == ("a",)

    def test_tie_goes_to_the_first_labeling_in_search_order(self):
        # Both rules cost 8.0. The search tries a's rules in sort_key order,
        # so b & c comes first and wins, though d needs fewer assumptions.
        rules = rules_of("b & c -> a :: 0.8", "d -> a :: 0.8")
        for proof in (explain({"a"}, rules), brute_force_explain({"a"}, rules)):
            assert proof.total_cost == 8.0
            assert proof.assumptions == ("b", "c")

    @pytest.mark.parametrize(
        "gap, assumptions, cost", [(2e-9, ("b",), 10.0 * (1.0 - 2e-9)), (0.5e-9, ("a",), 10.0)]
    )
    def test_tie_window_edges(self, gap, assumptions, cost):
        # Deriving a from b undercuts assuming a by the relative gap: beyond
        # the 1e-9 tie window it wins, within it the first leaf (ASSUME a)
        # stays, and neither the prune nor the oracle cuts the difference.
        rules = [Rule(("b",), "a", (1.0 - gap,))]
        for proof in (explain({"a"}, rules), brute_force_explain({"a"}, rules)):
            assert proof.assumptions == assumptions
            assert proof.total_cost == cost

    def test_justification_cycles_rejected(self):
        rules = rules_of("a -> b :: 0.5", "b -> a :: 0.5")
        # Deriving each from the other would be free; both engines must
        # refuse it and settle for one assumption at half charge, also when
        # the depth bound alone would not stop a cycle.
        for max_depth in (6, 10_000):
            config = AbductionConfig(max_depth=max_depth)
            proof = explain({"a", "b"}, rules, config)
            oracle = brute_force_explain({"a", "b"}, rules, config)
            assert proof.total_cost == 5.0
            assert proof.assumptions == ("a",)
            assert oracle.total_cost == 5.0
            assert oracle.assumptions == ("a",)

    @pytest.mark.parametrize("max_depth", [6, 10_000])
    def test_cycle_beside_an_outside_premise(self, max_depth):
        # The a <-> b cycle is refused however deep the bound, and a is
        # still derived from c, which carries 5.0 * 0.9.
        config = AbductionConfig(max_depth=max_depth)
        rules = rules_of("a -> b :: 0.5", "b -> a :: 0.5", "c -> a :: 0.9")
        proof = explain({"a", "b"}, rules, config)
        oracle = brute_force_explain({"a", "b"}, rules, config)
        assert proof.total_cost == 4.5
        assert proof.assumptions == ("c",)
        assert (oracle.total_cost, oracle.assumptions) == (4.5, ("c",))
        assert proof.charges == oracle.charges == {"a": 5.0, "b": 10.0, "c": 4.5}

    def test_depth_cap_limits_chaining(self):
        chain = rules_of(
            "a1 -> a0 :: 0.5", "a2 -> a1 :: 0.5", "a3 -> a2 :: 0.5"
        )
        shallow = explain({"a0"}, chain, AbductionConfig(max_depth=2))
        assert shallow.total_cost == 2.5
        assert shallow.assumptions == ("a2",)
        deep = explain({"a0"}, chain, AbductionConfig(max_depth=6))
        assert deep.total_cost == 1.25
        assert deep.assumptions == ("a3",)

    def test_zero_depth_forbids_all_rules(self):
        proof = explain({"a"}, rules_of("b -> a :: 0.5"), AbductionConfig(max_depth=0))
        assert proof.total_cost == 10.0
        assert proof.assumptions == ("a",)

    def test_node_cap_enforced_per_component(self, monkeypatch):
        # A rule-less observation is its own component, searched in two
        # nodes: the root and its ASSUME.
        monkeypatch.setattr(abduction, "_MAX_NODES", 2)
        explain({"a", "b"}, [])
        monkeypatch.setattr(abduction, "_MAX_NODES", 1)
        with pytest.raises(AbductionError, match="visited 2 nodes, above the cap of 1"):
            explain({"a"}, [])

    def test_labels_order_independent_of_string_hashing(self):
        # One component in which all-ASSUME wins: deriving o_i from o_i+1
        # also needs y_i at charge 12 > 10. The labeling is the search's
        # first leaf, reached by assuming every observation.
        script = (
            "from argseek.abduction import explain\n"
            "from argseek.kb import parse_rule\n"
            "obs = ['o%d' % i for i in range(12)]\n"
            "rules = [parse_rule('o%d & y%d -> o%d :: 2.4' % (i + 1, i, i)) for i in range(11)]\n"
            "proof = explain(set(obs), rules)\n"
            "assert proof.assumptions == tuple(sorted(obs))\n"
            "print(list(proof.labels))\n"
        )
        orders = set()
        for hash_seed in range(4):
            env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": str(SRC_DIR)}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=60, check=True,
            )
            orders.add(done.stdout)
        assert len(orders) == 1, orders

    def test_disconnected_observations_decompose(self):
        rules = rules_of("x -> a :: 0.5", "y -> b :: 0.5")
        proof = explain({"a", "b"}, rules)
        assert proof.total_cost == 10.0
        assert proof.assumptions == ("x", "y")


class TestWorkedExample:
    """The five-atom reference instance with every number frozen.

    Claim q1 is concluded from q2, q4, q5 (weight 1.2, so 0.4 per premise)
    and q3 from q2 (default weight 1.2). With q3 and q4 collected, the
    joint explanation reuses q2 and q4 under the claim, saving 18 of the
    30 units the separate explanations cost.
    """

    def test_claim_alone(self, fig_rules, default_config):
        proof = explain({"q1"}, fig_rules, default_config)
        assert proof.total_cost == 10.0
        assert proof.assumptions == ("q1",)

    def test_facts_alone(self, fig_rules, default_config):
        proof = explain({"q3", "q4"}, fig_rules, default_config)
        assert proof.total_cost == 20.0
        assert proof.assumptions == ("q3", "q4")

    def test_joint_explanation(self, fig_rules, default_config):
        proof = explain({"q1", "q3", "q4"}, fig_rules, default_config)
        assert math.isclose(proof.total_cost, 12.0, rel_tol=1e-12)
        assert proof.assumptions == ("q2", "q4", "q5")
        assert proof.charges["q1"] == 10.0
        assert proof.charges["q3"] == 10.0
        for atom in ("q2", "q4", "q5"):
            assert proof.charges[atom] == 3.9999999999999996
        oracle = brute_force_explain({"q1", "q3", "q4"}, fig_rules, default_config)
        assert oracle.total_cost == proof.total_cost
        assert oracle.assumptions == proof.assumptions

    def test_rationality_values(self, fig_rules, default_config):
        kq = KnowledgeBase(facts=frozenset({"q3", "q4"}), rules=fig_rules)
        res = rationality(kq, "q1", default_config)
        assert res.e_alpha == 10.0
        assert res.e_k == 20.0
        assert math.isclose(res.e_joint, 12.0, rel_tol=1e-12)
        assert res.r == 18.0
        assert res.r_norm == 0.6

    def test_argument_extraction(self, fig_rules, default_config):
        kq = KnowledgeBase(facts=frozenset({"q3", "q4"}), rules=fig_rules)
        arg = construct_argument(kq, "q1", default_config)
        assert arg.claim == "q1"
        assert arg.support_facts == {"q3", "q4"}
        assert arg.assumptions == {"q2", "q5"}
        assert [r.conclusion for r in arg.support_rules] == ["q1", "q3"]
        assert arg.rationality.r == 18.0
        assert arg.rationality.r_norm == 0.6
        assert arg.proof.assumptions == ("q2", "q4", "q5")

    def test_argument_for_unrelated_claim(self, fig_rules, default_config):
        kq = KnowledgeBase(facts=frozenset({"q3", "q4"}), rules=fig_rules)
        arg = construct_argument(kq, "q9", default_config)
        assert arg.support_facts == frozenset()
        assert arg.assumptions == frozenset()
        assert arg.rationality.r_norm == 0.0


class TestProofStructure:
    def test_listing_format(self, fig_rules, default_config):
        proof = explain({"q1", "q3", "q4"}, fig_rules, default_config)
        lines = proof.listing().splitlines()
        assert len(lines) == len(proof.labels)
        for line in lines:
            atom, label, charge = line.split("\t")
            assert atom in proof.labels
            assert label == "ASSUME" or "->" in label
            assert float(charge) == proof.charges[atom]


class TestConfigValidation:
    def test_non_positive_obs_cost_rejected(self):
        with pytest.raises(ValueError):
            AbductionConfig(obs_cost=0.0)

    @pytest.mark.parametrize("obs_cost", [float("nan"), float("inf")])
    def test_non_finite_obs_cost_rejected(self, obs_cost):
        with pytest.raises(ValueError, match="finite"):
            AbductionConfig(obs_cost=obs_cost)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            AbductionConfig(max_depth=-1)

    def test_oracle_refuses_large_universe(self):
        # x and p0..p15 are each concluded by one usable rule, so each has
        # two options: 2**17 assignments, above the cap of 2**16.
        atoms = [f"p{i}" for i in range(16)]
        rules = [Rule(tuple(atoms), "x", (0.5,) * 16)]
        rules += [Rule(("x",), a, (0.5,)) for a in atoms]
        with pytest.raises(AbductionError, match="oracle refuses 131072 assignments"):
            brute_force_explain({"x"}, rules)


class TestOracleEquivalence:
    def test_random_instances_agree_exactly(self):
        # Every depth bound on the same 80 instances; at 10_000 only the
        # component size bounds the search's depth pass.
        for max_depth in (0, 1, 2, 6, 10_000):
            rng = np.random.default_rng(12345)
            config = AbductionConfig(max_depth=max_depth)
            for _ in range(80):
                _, rules, obs = random_instance(rng)
                fast = explain(obs, rules, config)
                slow = brute_force_explain(obs, rules, config)
                assert fast.total_cost == slow.total_cost
                assert fast.assumptions == slow.assumptions
                assert fast.charges == slow.charges
                paid = sum(
                    fast.charges[a] for a, r in fast.labels.items() if r is None
                )
                assert fast.total_cost == pytest.approx(paid, abs=1e-12)

    def test_tie_on_cost_and_assumptions_broken_by_used_rules(self):
        # Deriving a3 from a5 directly or through a2 both cost 10.0 and
        # assume only a5. a3's rules are tried in sort_key order, so the one
        # through a2 is met first and wins on both sides.
        rules = rules_of("a5 -> a3 :: 1.3", "a2 -> a3 :: 1.1", "a5 -> a2 :: 1.3")
        fast = explain({"a3", "a5"}, rules)
        slow = brute_force_explain({"a3", "a5"}, rules)
        assert fast.total_cost == slow.total_cost == 10.0
        assert fast.assumptions == ("a5",)
        assert fast.labels == slow.labels == {"a3": rules[1], "a2": rules[2], "a5": None}
        assert fast.charges == slow.charges

    def test_non_dyadic_weights_agree_within_tie_window(self):
        # Inexact charges put costs inside the tie window, where the prune
        # threshold moves. Totals may differ in the last bit: explain adds
        # per-component totals, the oracle sums all assumed atoms in one
        # pass. Seed 3 reaches both such totals and labelings tied on cost
        # and assumptions, which the used rules break the same on each side.
        for max_depth in (0, 1, 2, 6, 10_000):
            rng = np.random.default_rng(3)
            config = AbductionConfig(max_depth=max_depth)
            for _ in range(400):
                _, rules, obs = random_instance(rng, weights=NON_DYADIC_WEIGHTS)
                fast = explain(obs, rules, config)
                slow = brute_force_explain(obs, rules, config)
                assert fast.assumptions == slow.assumptions
                assert abs(fast.total_cost - slow.total_cost) <= abduction._tie_eps(
                    slow.total_cost
                )
                assert fast.labels == slow.labels
                assert fast.charges == slow.charges


def generator_shaped_instance(
    rng: np.random.Generator,
) -> tuple[list[Rule], frozenset[str]]:
    """A small instance shaped like ``build_synthetic``'s: a binary backbone
    under b0 at total rule weights 0.8 then 0.9, and distractor rules at
    premise weight 1.2 whose first premise is an earlier atom and whose
    other premises are rule-less leaves or earlier atoms. Observations mix
    distractor conclusions with backbone atoms and leaves."""
    depth = int(rng.integers(1, 3))
    backbone = [f"b{i}" for i in range(2 ** (depth + 1) - 1)]
    rules = [
        parse_rule(f"b{2 * i + 1} & b{2 * i + 2} -> b{i} :: {0.8 if i == 0 else 0.9}")
        for i in range(2**depth - 1)
    ]
    existing = list(backbone)
    concluded: list[str] = []
    leaves: list[str] = []
    for i in range(int(rng.integers(1, 4))):
        conclusion = f"d{i}"
        premises = [existing[int(rng.integers(len(existing)))]]
        for _ in range(int(rng.integers(1, 3))):
            if len(leaves) < 4 and rng.random() < 0.7:
                leaves.append(f"l{len(leaves)}")
                premises.append(leaves[-1])
            else:
                pick = existing[int(rng.integers(len(existing)))]
                if pick not in premises:
                    premises.append(pick)
        total = 1.2 * len(premises)
        rules.append(parse_rule(f"{' & '.join(premises)} -> {conclusion} :: {total!r}"))
        concluded.append(conclusion)
        existing.extend(a for a in [conclusion, *premises] if a not in existing)
    picks = concluded + [
        existing[int(i)] for i in rng.choice(len(existing), size=2, replace=False)
    ]
    n_obs = int(rng.integers(1, min(4, len(picks)) + 1))
    obs = frozenset(picks[int(i)] for i in rng.choice(len(picks), size=n_obs, replace=False))
    return rules, obs


class TestGeneratorShapedOracle:
    @pytest.mark.parametrize("max_depth", [0, 1, 2, 6, 10_000])
    def test_generator_shaped_instances_agree_exactly(self, max_depth):
        rng = np.random.default_rng(4242)
        config = AbductionConfig(max_depth=max_depth)
        for _ in range(60):
            rules, obs = generator_shaped_instance(rng)
            fast = explain(obs, rules, config)
            slow = brute_force_explain(obs, rules, config)
            assert fast.total_cost == slow.total_cost
            assert fast.assumptions == slow.assumptions
            assert fast.charges == slow.charges


class TestBenchComponentsOracle:
    def test_bench_eval_components_match_oracle(self, monkeypatch):
        # Every distinct component observation set that the bench random,
        # dfs and bfs evals search, seeds 0-4. A component's atoms, rules and
        # floors depend only on its observations, so explaining the set alone
        # repeats that search; the oracle checks every set within its cap.
        bench = build_synthetic(GenParams())
        searched: set[frozenset[str]] = set()

        class Recording(abduction._BranchAndBound):
            def __init__(self, observations, *args):
                searched.add(observations)
                super().__init__(observations, *args)

        monkeypatch.setattr(abduction, "_BranchAndBound", Recording)
        for kind in ("random", "dfs", "bfs"):
            evaluate(kind, bench.test_kas, bench.scenario, range(5))
        monkeypatch.undo()
        checked = 0
        for obs in sorted(searched, key=sorted):
            try:
                slow = brute_force_explain(obs, bench.rules, bench.config)
            except AbductionError as exc:
                assert "oracle refuses" in str(exc)
                continue
            fast = explain(obs, bench.rules, bench.config)
            assert fast.labels == slow.labels
            assert fast.charges == slow.charges
            assert fast.total_cost == slow.total_cost
            checked += 1
        assert (len(searched), checked) == (619, 596)


class TestHeavyTail:
    def test_bench_heavy_joint_within_node_cap(self, monkeypatch):
        # The bench pool's heaviest joint instance. A bound that counts only
        # atoms already assumed searched 2,975,779 nodes on it; counting the
        # forced assumptions from the moment they are needed takes a few
        # thousand, so a looser bound fails here on the cap, not on time.
        monkeypatch.setattr(abduction, "_MAX_NODES", 20_000)
        bench = build_synthetic(GenParams())
        facts = "q014,q027,q032,q036,q037,q047,q060,q063,q067".split(",")
        proof = explain({*facts, bench.claim}, bench.rules, bench.config)
        assert proof.total_cost == pytest.approx(86.48, rel=1e-9, abs=0.0)


@st.composite
def abduction_instances(draw):
    n = draw(st.integers(3, 6))
    atoms = [f"a{i}" for i in range(n)]
    rules = []
    for _ in range(draw(st.integers(0, 5))):
        c = draw(st.integers(0, n - 1))
        others = [a for i, a in enumerate(atoms) if i != c]
        premises = draw(
            st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True)
        )
        theta = draw(st.sampled_from(DYADIC_WEIGHTS))
        rules.append(Rule(tuple(premises), atoms[c], (theta,) * len(premises)))
    obs = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=3, unique=True))
    return atoms, rules, frozenset(obs)


class TestProperties:
    @settings(deadline=None)
    @given(abduction_instances())
    def test_search_matches_oracle(self, instance):
        _, rules, obs = instance
        fast = explain(obs, rules)
        slow = brute_force_explain(obs, rules)
        assert fast.total_cost == slow.total_cost
        assert fast.assumptions == slow.assumptions

    @settings(deadline=None)
    @given(abduction_instances())
    def test_cost_bounded_by_all_assume(self, instance):
        _, rules, obs = instance
        cost = explain(obs, rules).total_cost
        assert 0.0 <= cost <= 10.0 * len(obs)

    @settings(deadline=None)
    @given(abduction_instances(), st.integers(0, 5))
    def test_extra_observation_adds_at_most_obs_cost(self, instance, idx):
        atoms, rules, obs = instance
        extra = atoms[idx % len(atoms)]
        base = explain(obs, rules).total_cost
        grown = explain(obs | {extra}, rules).total_cost
        assert grown <= base + 10.0 + 1e-9

    @settings(deadline=None)
    @given(abduction_instances(), st.integers(0, 5))
    def test_normalized_rationality_at_most_one(self, instance, idx):
        atoms, rules, obs = instance
        claim = atoms[idx % len(atoms)]
        kq = KnowledgeBase(facts=obs - {claim}, rules=tuple(rules))
        res = rationality(kq, claim)
        assert res.r_norm <= 1.0

    @settings(deadline=None)
    @given(abduction_instances(), st.integers(0, 5))
    def test_no_facts_means_zero_rationality(self, instance, idx):
        atoms, rules, _ = instance
        claim = atoms[idx % len(atoms)]
        kq = KnowledgeBase(facts=frozenset(), rules=tuple(rules))
        res = rationality(kq, claim)
        assert res.r_norm == 0.0
        assert res.r == 0.0


class TestExplainCache:
    def test_matches_fresh_explain_on_growing_sets(self, fig_rules, default_config):
        cache = ExplainCache(fig_rules, default_config)
        collected: set[str] = set()
        for atom in ("q3", "q4", "q2", "q5"):
            collected.add(atom)
            cached = cache.explain(collected)
            fresh = explain(collected, fig_rules, default_config)
            assert cached.total_cost == fresh.total_cost
            assert cached.assumptions == fresh.assumptions

    def test_memoizes_by_observation_set(self, fig_rules, default_config):
        cache = ExplainCache(fig_rules, default_config)
        first = cache.explain({"q1", "q3"})
        assert cache.explain({"q3", "q1"}) is first

    def test_node_cap_independent_of_cache_history(self, monkeypatch):
        # A cache miss searches exactly as explain does, whatever the cache
        # holds: a cap one below the cold search's node count raises on
        # both, a cap at it on neither. These facts' joint search is long
        # enough that a cached subset's cost could prune it.
        nodes: list[int] = []
        solve = abduction._BranchAndBound.solve

        def counting_solve(search, *args):
            try:
                return solve(search, *args)
            finally:
                nodes.append(search.nodes)

        monkeypatch.setattr(abduction._BranchAndBound, "solve", counting_solve)
        bench = build_synthetic(GenParams())
        facts = frozenset({"q004", "q005", "q019", "q027"})
        joint = facts | {bench.claim}
        explain(joint, bench.rules, bench.config)
        cold = nodes[-1]
        for cap in (cold - 1, cold):
            monkeypatch.setattr(abduction, "_MAX_NODES", cap)
            cache = ExplainCache(bench.rules, bench.config)
            cache.explain(facts)
            raised = []
            for run in (lambda: explain(joint, bench.rules, bench.config),
                        lambda: cache.explain(joint)):
                try:
                    run()
                    raised.append(False)
                except AbductionError:
                    raised.append(True)
            assert raised == [cap < cold] * 2, cap

    def test_rationality_matches_module_function(self, default_config):
        # The module's explain on each of the three sets is the reference
        # for the cache's rationality, and the oracle pins the joint cost
        # independently.
        rng = np.random.default_rng(31)
        for _ in range(250):
            atoms, rules, obs = random_instance(rng)
            claim = atoms[int(rng.integers(len(atoms)))]
            facts = obs - {claim}
            got = ExplainCache(rules, default_config).rationality(facts, claim)
            e_alpha = explain({claim}, rules, default_config).total_cost
            e_k = explain(facts, rules, default_config).total_cost
            joint = explain(facts | {claim}, rules, default_config)
            assert (got.e_alpha, got.e_k, got.e_joint) == (e_alpha, e_k, joint.total_cost)
            oracle = brute_force_explain(facts | {claim}, rules, default_config)
            assert got.e_joint == oracle.total_cost
            r = e_alpha + e_k - joint.total_cost
            assert got.r == r
            assert got.r_norm == (r / (e_alpha + e_k) if e_alpha + e_k > 0 else 0.0)
            arg = construct_argument(
                KnowledgeBase(facts=facts, rules=tuple(rules)), claim, default_config
            )
            assert arg.rationality == got
            assert arg.proof.labels == joint.labels
            assert arg.proof.charges == joint.charges
            # Reference support: flood fill from the claim over the joint
            # proof, where a used rule joins its conclusion and premises.
            adj: dict[str, set[str]] = {a: set() for a in joint.labels}
            for atom, rule in joint.labels.items():
                for p in rule.premises if rule is not None else ():
                    adj[atom].add(p)
                    adj[p].add(atom)
            component, stack = {claim}, [claim]
            while stack:
                for nxt in adj[stack.pop()] - component:
                    component.add(nxt)
                    stack.append(nxt)
            used = [joint.labels[a] for a in component if joint.labels[a] is not None]
            assert arg.support_facts == component & facts
            assert arg.support_rules == tuple(sorted(used, key=Rule.sort_key))
            assert arg.assumptions == {
                a for a in component
                if joint.labels[a] is None and a not in facts and a != claim
            }
