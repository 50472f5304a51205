"""Minimum-cost abductive explanation engine.

An explanation labels every atom it needs either ASSUME or with a rule whose
conclusion it is. Needs start at the observations and propagate through the
premises of used rules. Charges flow downward: an observation is worth
``obs_cost``; a rule passes ``charge(conclusion) * premise_weight`` down to
each premise; an atom required from several places pays only its minimum
charge, once. The cost of an explanation is the sum of charges over the
ASSUME-labeled atoms, and ``explain`` minimizes it by branch and bound.

``brute_force_explain`` is a deliberately separate exhaustive implementation
kept as an oracle for the search. On any instance small enough for
enumeration the two must return the same labels and charges, and totals
within the tie window: ``explain`` adds up per-component totals while the
oracle sums all assumed atoms in one pass, so on weights that are not dyadic
the last bit of a total can differ.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .kb import KnowledgeBase, Rule, render_rule

logger = logging.getLogger(__name__)

# Relative window within which two labeling costs count as a tie; ties are
# broken by (fewer assumptions, lexicographically smallest assumption set,
# smallest sorted set of used rules), so each instance has one optimum.
_TIE_REL = 1e-9

# Nodes one component's proof search may visit before ``explain`` gives up.
# Far above any search the bundled datasets need (a few thousand nodes).
_MAX_NODES = 1_000_000

# Largest reachable universe ``brute_force_explain`` enumerates.
_ORACLE_MAX_ATOMS = 14


class AbductionError(ValueError):
    """Raised when a proof search exceeds its node cap, or the oracle its
    universe cap."""


@dataclass(frozen=True)
class AbductionConfig:
    """Cost-model and search-bound settings.

    obs_cost: charge carried by each observed atom before any rule applies.
    max_depth: cap on rule-chaining depth below any observation; bounds the
        search on recursive rule sets.
    """

    obs_cost: float = 10.0
    max_depth: int = 6

    def __post_init__(self) -> None:
        if not 0 < self.obs_cost < math.inf:
            raise ValueError("obs_cost must be positive and finite")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


@dataclass(frozen=True)
class ProofStructure:
    """A complete labeling with its propagated charges.

    ``labels[atom]`` is None for ASSUME or the Rule justifying the atom.
    ``total_cost`` is the sum of charges over ASSUME-labeled atoms.
    """

    labels: Mapping[str, Rule | None]
    charges: Mapping[str, float]
    total_cost: float

    @property
    def assumptions(self) -> tuple[str, ...]:
        return tuple(sorted(a for a, r in self.labels.items() if r is None))

    def listing(self) -> str:
        """Tab-separated export: atom, label, charge (one line per atom)."""
        lines = []
        for atom in sorted(self.labels):
            rule = self.labels[atom]
            label = "ASSUME" if rule is None else render_rule(rule)
            lines.append(f"{atom}\t{label}\t{self.charges[atom]!r}")
        return "\n".join(lines)


@dataclass(frozen=True)
class RationalityResult:
    """Joint-explanation savings for a claim against a fact set."""

    e_alpha: float
    e_k: float
    e_joint: float
    r: float
    r_norm: float


@dataclass(frozen=True)
class Argument:
    """A claim with the support extracted from its optimal joint proof.

    ``rationality`` holds the claim's three explanation costs and savings;
    ``proof`` is the joint proof of the facts and the claim.
    """

    claim: str
    support_facts: frozenset[str]
    support_rules: tuple[Rule, ...]
    assumptions: frozenset[str]
    rationality: RationalityResult
    proof: ProofStructure


def _tie_eps(cost: float) -> float:
    return _TIE_REL * max(1.0, abs(cost))


def _labeling_rank(labels: Mapping[str, Rule | None]) -> tuple:
    asm = tuple(sorted(a for a, r in labels.items() if r is None))
    used = tuple(sorted(r.sort_key() for r in labels.values() if r is not None))
    return (len(asm), asm, used)


def _reachable_universe(
    observations: Sequence[str], rules: Sequence[Rule], max_depth: int
) -> tuple[dict[str, int], dict[str, list[Rule]]]:
    """Atoms reachable by backchaining within max_depth, with min distances,
    plus the usable rules grouped by conclusion."""
    by_conclusion: dict[str, list[Rule]] = {}
    for rule in sorted(rules, key=Rule.sort_key):
        by_conclusion.setdefault(rule.conclusion, []).append(rule)

    dist = {atom: 0 for atom in observations}
    frontier = sorted(dist)
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        nxt = []
        for atom in frontier:
            for rule in by_conclusion.get(atom, ()):
                for p in rule.premises:
                    if p not in dist:
                        dist[p] = depth
                        nxt.append(p)
        frontier = sorted(nxt)

    usable: dict[str, list[Rule]] = {}
    for atom in dist:
        kept = [
            r
            for r in by_conclusion.get(atom, ())
            if all(p in dist for p in r.premises)
        ]
        if kept:
            usable[atom] = kept
    return dist, usable


def _charge_floors(
    universe: Iterable[str],
    observations: frozenset[str],
    by_conclusion: Mapping[str, list[Rule]],
    config: AbductionConfig,
) -> dict[str, float]:
    """Lower bound on the charge any atom can carry in a valid labeling:
    the cheapest weight product over need-paths of length <= max_depth."""
    floor = {a: (config.obs_cost if a in observations else math.inf) for a in universe}
    for _ in range(config.max_depth):
        changed = False
        for atom, rules in by_conclusion.items():
            base = floor[atom]
            if base == math.inf:
                continue
            for rule in rules:
                for p, theta in zip(rule.premises, rule.premise_weights):
                    cand = base * theta
                    if cand < floor[p]:
                        floor[p] = cand
                        changed = True
        if not changed:
            break
    return floor


def _components(
    universe: Iterable[str], by_conclusion: Mapping[str, list[Rule]]
) -> list[list[str]]:
    """Connected components of the universe under rule co-occurrence."""
    parent = {a: a for a in universe}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for rules in by_conclusion.values():
        for rule in rules:
            for p in rule.premises:
                union(rule.conclusion, p)
    groups: dict[str, list[str]] = {}
    for a in parent:
        groups.setdefault(find(a), []).append(a)
    comps = [sorted(g) for g in groups.values()]
    comps.sort(key=lambda g: g[0])
    return comps


def _final_charges(
    labels: Mapping[str, Rule | None],
    depth: Mapping[str, int],
    observations: frozenset[str],
    obs_cost: float,
) -> tuple[dict[str, float], float]:
    """Exact charge propagation over a complete labeling. Every premise of a
    used rule lies deeper than its conclusion, so one pass in ``depth`` order
    passes each atom's charge down only once it is final."""
    charges = {a: (obs_cost if a in observations else math.inf) for a in labels}
    for atom in sorted(labels, key=depth.__getitem__):
        rule = labels[atom]
        if rule is not None:
            c = charges[atom]
            for p, theta in zip(rule.premises, rule.premise_weights):
                charges[p] = min(charges[p], c * theta)
    total = 0.0
    for atom in sorted(labels):
        if labels[atom] is None:
            total += charges[atom]
    return charges, total


class _BranchAndBound:
    """Labeling search over one connected component.

    Branches over the justification of one pending atom at a time, ASSUME
    first. The state is the partial labeling ``labels`` and, for every atom
    needed so far, ``depth``: its longest need-path from an observation over
    the rules in ``labels``. A rule is tried by labeling its conclusion with
    it and raising each premise to one below the conclusion. If a premise
    already needs the conclusion, the raise runs round that cycle until it
    passes the depth bound, so the one depth pass refuses both too-deep and
    cyclic justifications. The bound is ``max_depth`` capped at the
    component size minus one: an acyclic need-path visits each atom at most
    once, so the cap loses no valid labeling and keeps the raise's recursion
    within the component.

    The lower bound ``lb`` is the sum of charge floors over the atoms already
    assumed and the forced assumptions: needed atoms that no rule concludes.
    A forced atom can only be assumed, exactly once, so its floor counts from
    the moment it is needed (an observation at the start, a premise when a
    rule makes it pending) and is not added again when it is assumed.
    Charges are finalized only on complete labelings, in one pass ordered by
    their depths, because a later rule choice can still lower the charge of
    an atom assumed earlier. The search starts with no incumbent: its first
    leaf, reached by assuming every observation, is the all-ASSUME labeling,
    and each accepted leaf keeps the charges its pass computed. Each search
    visits at most ``_MAX_NODES`` nodes.
    """

    def __init__(
        self,
        observations: frozenset[str],
        by_conclusion: Mapping[str, list[Rule]],
        floors: Mapping[str, float],
        config: AbductionConfig,
        component_size: int,
    ):
        self.obs = observations
        self.by_conclusion = by_conclusion
        self.floors = floors
        self.config = config
        self.max_depth = min(config.max_depth, component_size - 1)
        self.nodes = 0

        self.labels: dict[str, Rule | None] = {}
        self.pending: set[str] = set(observations)
        self.depth: dict[str, int] = {a: 0 for a in observations}
        self.lb = 0.0
        for a in sorted(observations):
            if a not in by_conclusion:
                self.lb += floors[a]

        self.best_labels: dict[str, Rule | None] = {}
        self.best_charges: dict[str, float] = {}
        self.best_cost = math.inf

    def solve(self) -> tuple[dict, dict, float]:
        self._dfs()
        return self.best_labels, self.best_charges, self.best_cost

    # -- search -----------------------------------------------------------

    def _dfs(self) -> None:
        self.nodes += 1
        if self.nodes > _MAX_NODES:
            raise AbductionError(
                f"proof search visited {self.nodes} nodes, above the cap of {_MAX_NODES}"
            )
        if self.lb > self.best_cost + _tie_eps(self.best_cost):
            return
        if not self.pending:
            self._complete()
            return
        atom = min(self.pending)
        self._try_assume(atom)
        for rule in self.by_conclusion.get(atom, ()):
            self._try_rule(atom, rule)

    def _complete(self) -> None:
        charges, total = _final_charges(self.labels, self.depth, self.obs, self.config.obs_cost)
        eps = _tie_eps(min(total, self.best_cost))
        if total < self.best_cost - eps or (
            total <= self.best_cost + eps
            and _labeling_rank(self.labels) < _labeling_rank(self.best_labels)
        ):
            self.best_labels = dict(self.labels)
            self.best_charges = charges
            self.best_cost = total

    def _try_assume(self, atom: str) -> None:
        lb = self.lb
        if atom in self.by_conclusion:
            self.lb += self.floors[atom]  # a forced atom was counted when needed
        self.labels[atom] = None
        self.pending.discard(atom)
        self._dfs()
        self.pending.add(atom)
        del self.labels[atom]
        self.lb = lb

    def _try_rule(self, atom: str, rule: Rule) -> None:
        lb = self.lb
        self.labels[atom] = rule
        self.pending.discard(atom)
        new_pending: list[str] = []
        for p in rule.premises:
            if p not in self.labels and p not in self.pending:
                self.pending.add(p)
                new_pending.append(p)
                if p not in self.by_conclusion:
                    self.lb += self.floors[p]
        undo_depth: list[tuple[str, int | None]] = []
        ok = True
        for p in rule.premises:
            if not self._raise_depth(p, self.depth[atom] + 1, undo_depth):
                ok = False
                break
        if ok:
            self._dfs()
        # Rollback in reverse order of application.
        for a, old in reversed(undo_depth):
            if old is None:
                del self.depth[a]
            else:
                self.depth[a] = old
        for p in new_pending:
            self.pending.discard(p)
        self.pending.add(atom)
        del self.labels[atom]
        self.lb = lb

    def _raise_depth(self, atom: str, new_depth: int, undo: list) -> bool:
        """Propagate a longest-path increase; False past the depth bound."""
        cur = self.depth.get(atom)
        if cur is not None and cur >= new_depth:
            return True
        undo.append((atom, cur))
        self.depth[atom] = new_depth
        if new_depth > self.max_depth:
            return False
        rule = self.labels.get(atom)
        if rule is not None:
            for child in rule.premises:
                if not self._raise_depth(child, new_depth + 1, undo):
                    return False
        return True


def explain(
    observations: Iterable[str],
    rules: Iterable[Rule],
    config: AbductionConfig | None = None,
) -> ProofStructure:
    """Minimum-cost explanation of the observation set."""
    config = config or AbductionConfig()
    obs = frozenset(observations)
    if not obs:
        return ProofStructure({}, {}, 0.0)
    rule_list = list(rules)
    dist, by_conclusion = _reachable_universe(sorted(obs), rule_list, config.max_depth)
    floors = _charge_floors(dist, obs, by_conclusion, config)

    labels: dict[str, Rule | None] = {}
    charges: dict[str, float] = {}
    total = 0.0
    for comp in _components(dist, by_conclusion):
        comp_obs = obs.intersection(comp)
        if not comp_obs:
            continue
        search = _BranchAndBound(comp_obs, by_conclusion, floors, config, len(comp))
        comp_labels, comp_charges, comp_total = search.solve()
        labels.update(comp_labels)
        charges.update(comp_charges)
        total += comp_total
    return ProofStructure(labels, charges, total)


def brute_force_explain(
    observations: Iterable[str],
    rules: Iterable[Rule],
    config: AbductionConfig | None = None,
) -> ProofStructure:
    """Exhaustive oracle: enumerate every labeling, keep the cheapest.

    Written independently of :func:`explain` (full enumeration, relaxation
    fixpoints instead of incremental bookkeeping) so that agreement between
    the two is meaningful evidence of correctness. Refuses instances whose
    reachable universe exceeds ``_ORACLE_MAX_ATOMS`` atoms.
    """
    config = config or AbductionConfig()
    obs = frozenset(observations)
    if not obs:
        return ProofStructure({}, {}, 0.0)

    # Reachable atoms by iterated premise expansion, depth-limited.
    reachable = set(obs)
    frontier = set(obs)
    all_rules = sorted(rules, key=Rule.sort_key)
    for _ in range(config.max_depth):
        nxt = set()
        for rule in all_rules:
            if rule.conclusion in frontier:
                nxt.update(p for p in rule.premises if p not in reachable)
        if not nxt:
            break
        reachable |= nxt
        frontier = nxt
    if len(reachable) > _ORACLE_MAX_ATOMS:
        raise AbductionError(
            f"oracle refuses {len(reachable)}-atom universe (cap {_ORACLE_MAX_ATOMS})"
        )

    atoms = sorted(reachable)
    options: list[list[Rule | None]] = []
    for atom in atoms:
        opts: list[Rule | None] = [None]
        opts.extend(
            r
            for r in all_rules
            if r.conclusion == atom and all(p in reachable for p in r.premises)
        )
        options.append(opts)

    best: tuple[float, tuple, dict, dict] | None = None
    for assignment in itertools.product(*options):
        choice = dict(zip(atoms, assignment))
        needed = _bf_needed(obs, choice)
        labels = {a: choice[a] for a in needed}
        depths = _bf_depths(labels, obs)
        if depths is None or max(depths.values()) > config.max_depth:
            continue
        charges = _bf_charges(labels, obs, config.obs_cost)
        total = 0.0
        for atom in sorted(labels):
            if labels[atom] is None:
                total += charges[atom]
        rank = _labeling_rank(labels)
        if best is None:
            best = (total, rank, labels, charges)
            continue
        eps = _tie_eps(min(total, best[0]))
        if total < best[0] - eps or (total <= best[0] + eps and rank < best[1]):
            best = (total, rank, labels, charges)
    assert best is not None  # the all-assume assignment is always valid
    return ProofStructure(best[2], best[3], best[0])


def _bf_needed(obs: frozenset[str], choice: Mapping[str, Rule | None]) -> set[str]:
    needed = set(obs)
    stack = list(obs)
    while stack:
        rule = choice[stack.pop()]
        if rule is not None:
            for p in rule.premises:
                if p not in needed:
                    needed.add(p)
                    stack.append(p)
    return needed


def _bf_depths(
    labels: Mapping[str, Rule | None], obs: frozenset[str]
) -> dict[str, int] | None:
    """Longest need-path from any observation; None when justifications cycle."""
    depth = {a: (0 if a in obs else -1) for a in labels}
    for round_no in range(len(labels) + 1):
        changed = False
        for atom, rule in labels.items():
            if rule is None or depth[atom] < 0:
                continue
            for p in rule.premises:
                if depth[atom] + 1 > depth[p]:
                    depth[p] = depth[atom] + 1
                    changed = True
        if not changed:
            return depth
    return None  # still relaxing after |labels| rounds: cycle


def _bf_charges(
    labels: Mapping[str, Rule | None], obs: frozenset[str], obs_cost: float
) -> dict[str, float]:
    charge = {a: math.inf for a in labels}
    for a in obs:
        charge[a] = obs_cost
    changed = True
    while changed:
        changed = False
        for atom, rule in labels.items():
            if rule is None or charge[atom] == math.inf:
                continue
            for p, theta in zip(rule.premises, rule.premise_weights):
                cand = charge[atom] * theta
                if cand < charge[p]:
                    charge[p] = cand
                    changed = True
    return charge


def rationality(
    kq: KnowledgeBase,
    claim: str,
    config: AbductionConfig | None = None,
) -> RationalityResult:
    """Savings from explaining the claim jointly with the collected facts.

    Returns the three explanation costs, the raw saving r, and its
    normalized form r_norm = r / (e_alpha + e_k), zero when that sum is zero.
    The costs come from :meth:`ExplainCache.rationality` on a fresh cache,
    so this function and a dialogue's cached steps share one formula.
    """
    cache = ExplainCache(kq.rules, config or AbductionConfig())
    return cache.rationality(kq.facts, claim)


def construct_argument(
    kq: KnowledgeBase,
    claim: str,
    config: AbductionConfig | None = None,
) -> Argument:
    """Extract the claim's argument from the optimal joint proof.

    The support is the connected component of the joint proof containing the
    claim, where a used rule connects its conclusion with each premise.
    Assumptions are the component's ASSUME-labeled atoms that are neither
    collected facts nor the claim itself. The argument carries the claim's
    rationality and the joint proof, computed once through one cache.
    """
    cache = ExplainCache(kq.rules, config or AbductionConfig())
    rat = cache.rationality(kq.facts, claim)
    joint = cache.explain(kq.facts | {claim})
    used = {a: [r] for a, r in joint.labels.items() if r is not None}
    component = next(c for c in _components(joint.labels, used) if claim in c)

    support_facts = kq.facts.intersection(component)
    # Each atom carries one label, so no rule is used twice.
    support_rules = tuple(sorted((used[a][0] for a in component if a in used), key=Rule.sort_key))
    assumptions = frozenset(
        a for a in component if a not in used and a not in kq.facts and a != claim
    )
    return Argument(
        claim=claim,
        support_facts=support_facts,
        support_rules=support_rules,
        assumptions=assumptions,
        rationality=rat,
        proof=joint,
    )


class ExplainCache:
    """Memoizes explanations for a fixed rule set and config.

    Dialogue episodes recompute rationality on slowly growing fact sets, so
    keying on the frozen observation set gives high hit rates. A miss runs
    :func:`explain` on the set alone: what the cache already holds changes
    neither the result nor whether the search hits the node cap.
    """

    def __init__(self, rules: Sequence[Rule], config: AbductionConfig):
        self.rules = tuple(rules)
        self.config = config
        self._memo: dict[frozenset[str], ProofStructure] = {}

    def explain(self, observations: Iterable[str]) -> ProofStructure:
        key = frozenset(observations)
        proof = self._memo.get(key)
        if proof is None:
            proof = self._memo[key] = explain(key, self.rules, self.config)
        return proof

    def rationality(self, facts: Iterable[str], claim: str) -> RationalityResult:
        """The three costs, r = e_alpha + e_k - e_joint and r_norm =
        r / (e_alpha + e_k), zero when that sum is zero."""
        fact_set = frozenset(facts)
        e_alpha = self.explain({claim}).total_cost
        e_k = self.explain(fact_set).total_cost
        e_joint = self.explain(fact_set | {claim}).total_cost
        r = e_alpha + e_k - e_joint
        denom = e_alpha + e_k
        r_norm = r / denom if denom > 0 else 0.0
        if r < -1e-9:
            logger.warning(
                "negative rationality %r (e_alpha=%r e_k=%r e_joint=%r)",
                r,
                e_alpha,
                e_k,
                e_joint,
            )
        return RationalityResult(e_alpha, e_k, e_joint, r, r_norm)
