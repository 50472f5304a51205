"""Propositional knowledge representation: atoms, weighted Horn rules, fact graphs.

Atoms are plain string identifiers. A rule ``p1 & p2 -> q :: W`` carries a
total weight W that is split uniformly across its premises; the per-premise
weights act as cost multipliers during explanation search.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Iterable

logger = logging.getLogger(__name__)

# Total rule weight used when a rule line carries no explicit ":: W" suffix.
# Backchaining through a single rule then costs slightly more than assuming
# its conclusion outright, so chaining pays off only through shared structure.
DEFAULT_RULE_WEIGHT = 1.2

_RESERVED_TOKENS = ("&", "->", "::", "#")


class KBError(ValueError):
    """Malformed atom, rule, or knowledge-base input."""


def check_atom_id(atom: str) -> str:
    """Validate an atom identifier and return it unchanged."""
    if not atom:
        raise KBError("atom id is empty")
    if any(ch.isspace() for ch in atom):
        raise KBError(f"atom id contains whitespace: {atom!r}")
    for tok in _RESERVED_TOKENS:
        if tok in atom:
            raise KBError(f"atom id contains reserved token {tok!r}: {atom!r}")
    return atom


@dataclass(frozen=True)
class Rule:
    """A weighted Horn rule ``premises -> conclusion``.

    ``premise_weights[i]`` is the positive cost multiplier applied when the
    conclusion's charge is passed down to ``premises[i]``.
    """

    premises: tuple[str, ...]
    conclusion: str
    premise_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.premises:
            raise KBError("rule has no premises")
        if len(self.premise_weights) != len(self.premises):
            raise KBError(
                f"rule {self.conclusion!r}: {len(self.premises)} premises but "
                f"{len(self.premise_weights)} weights"
            )
        for atom in (*self.premises, self.conclusion):
            check_atom_id(atom)
        if self.conclusion in self.premises:
            raise KBError(f"rule conclusion {self.conclusion!r} appears among its premises")
        if len(set(self.premises)) != len(self.premises):
            repeated = next(p for i, p in enumerate(self.premises) if p in self.premises[:i])
            raise KBError(f"rule {self.conclusion!r} repeats premise {repeated!r}")
        if not all(math.isfinite(w) for w in self.premise_weights):
            raise KBError(f"rule {self.conclusion!r} has a non-finite premise weight")
        if any(w <= 0 for w in self.premise_weights):
            raise KBError(f"rule {self.conclusion!r} has a non-positive premise weight")

    @property
    def total_weight(self) -> float:
        return sum(self.premise_weights)

    def sort_key(self) -> tuple:
        return (self.conclusion, self.premises, self.premise_weights)


def parse_rule(line: str) -> Rule:
    """Parse one rule line such as ``q2 & q4 & q5 -> q1 :: 1.2``.

    The optional ``:: W`` suffix sets the total weight W, split uniformly
    across the premises; without it the total defaults to
    ``DEFAULT_RULE_WEIGHT``.
    """
    text = line.strip()
    weight = DEFAULT_RULE_WEIGHT
    if "::" in text:
        body, _, wtext = text.partition("::")
        try:
            weight = float(wtext.strip())
        except ValueError:
            raise KBError(f"bad weight in rule line: {line!r}") from None
        if not math.isfinite(weight):
            raise KBError(f"non-finite weight in rule line: {line!r}")
        if weight <= 0:
            raise KBError(f"non-positive weight in rule line: {line!r}")
        text = body.strip()
    if "->" not in text:
        raise KBError(f"missing '->' in rule line: {line!r}")
    lhs, _, rhs = text.partition("->")
    conclusion = rhs.strip()
    if not conclusion:
        raise KBError(f"empty conclusion in rule line: {line!r}")
    premises = [p.strip() for p in lhs.split("&")]
    if not lhs.strip() or any(not p for p in premises):
        raise KBError(f"empty premise in rule line: {line!r}")
    theta = weight / len(premises)
    return Rule(tuple(premises), conclusion, (theta,) * len(premises))


def render_rule(rule: Rule) -> str:
    """Canonical text form; ``parse_rule(render_rule(r))`` returns ``r`` for
    rules with uniform premise weights."""
    lhs = " & ".join(rule.premises)
    return f"{lhs} -> {rule.conclusion} :: {rule.total_weight!r}"


@dataclass(frozen=True)
class KnowledgeBase:
    """A fact set plus a rule set. Immutable."""

    facts: frozenset[str] = frozenset()
    rules: tuple[Rule, ...] = ()


@dataclass(frozen=True)
class FactGraph:
    """Undirected graph over atoms: each rule links every premise to its
    conclusion. Adjacency lists are sorted; the graph is symmetric with no
    self-loops."""

    nodes: frozenset[str]
    adjacency: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def neighbors(self, atom: str) -> tuple[str, ...]:
        return self.adjacency.get(atom, ())


def build_fact_graph(rules: Iterable[Rule], atoms: Iterable[str]) -> FactGraph:
    """Build the fact graph for a rule set over a fixed atom universe.

    Atoms referenced by no rule become isolated nodes. Rules referring to
    atoms outside the universe are rejected.
    """
    universe = {check_atom_id(a) for a in atoms}
    neigh: dict[str, set[str]] = {a: set() for a in universe}
    for rule in rules:
        for atom in (*rule.premises, rule.conclusion):
            if atom not in universe:
                raise KBError(f"rule references unknown atom {atom!r}")
        for p in rule.premises:
            neigh[p].add(rule.conclusion)
            neigh[rule.conclusion].add(p)
    adjacency = {a: tuple(sorted(ns)) for a, ns in neigh.items()}
    return FactGraph(frozenset(universe), adjacency)


def read_lines(path: str | Path) -> list[str]:
    """Lines of a UTF-8 text file; a byte that is not UTF-8 fails naming file and line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def content_lines(path: str | Path) -> list[tuple[int, str]]:
    """Number and stripped text of each non-blank, non-'#' line of a UTF-8 text file."""
    numbered = ((n, raw.strip()) for n, raw in enumerate(read_lines(path), start=1))
    return [(n, line) for n, line in numbered if line and not line.startswith("#")]


def load_facts_file(path: str | Path) -> list[str]:
    """Read one atom id per line; '#' lines are comments. Preserves order,
    drops duplicates (logged)."""
    seen: dict[str, None] = {}
    dropped = 0
    for lineno, line in content_lines(path):
        try:
            check_atom_id(line)
        except KBError as exc:
            raise KBError(f"{path}:{lineno}: {exc}") from None
        if line in seen:
            dropped += 1
            continue
        seen[line] = None
    if dropped:
        logger.warning("%s: dropped %d duplicate fact(s)", path, dropped)
    return list(seen)


def load_rules_file(path: str | Path, atoms: Container[str] | None = None) -> list[Rule]:
    """Read one rule per line; '#' lines are comments. Parse errors, and a
    rule over an atom outside ``atoms`` when given, name the offending line."""
    rules = []
    for lineno, line in content_lines(path):
        try:
            rule = parse_rule(line)
            for atom in (*rule.premises, rule.conclusion) if atoms is not None else ():
                if atom not in atoms:
                    raise KBError(f"rule references unknown atom {atom!r}")
        except KBError as exc:
            raise KBError(f"{path}:{lineno}: {exc}") from None
        rules.append(rule)
    return rules
