"""Dataset loading, saving, and synthetic generation.

A dataset is a directory: ``facts.txt`` (one atom per line), ``rules.txt``,
``kas.txt`` (every answerer knowledge set, one per line in dataset order,
atoms sorted and space-separated; a blank line is an empty set),
``questions.tsv`` (surface text per atom), and ``manifest.txt`` with
``key = value`` lines tying them together with the episode constants.

The synthetic generator reproduces corpus *shape*, not content. It builds a
claim with a small derivation backbone whose rule weights make explanation
costs drop sharply once two independent backbone facts are known, then pads
the graph with inert distractor rules (premise weight above 1, so using
them never lowers any explanation cost). Distractors attach near the claim
and chain among themselves, which is what separates the questioning
strategies: breadth-first wastes early asks on claim-adjacent distractors,
depth-first wanders down distractor chains and collects redundant
same-branch facts, while an informed policy asks backbone facts only.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .abduction import AbductionConfig
from .env import Scenario
from .kb import (
    Rule, content_lines, load_facts_file, load_rules_file, parse_rule, read_lines, render_rule
)

logger = logging.getLogger(__name__)

# Per-premise weight for distractor rules. Any value above 1 keeps them
# inert: backchaining through them always costs more than assuming, and
# their premise contributions can never undercut an existing charge.
_DISTRACTOR_THETA = 1.2


@dataclass(frozen=True)
class GenParams:
    """Shape parameters for synthetic generation.

    The backbone is a ``backbone_branching``-ary tree of ``backbone_depth``
    rule levels under the claim; ``backbone_weights[i]`` is the total rule
    weight at level i. Remaining atoms and rules become distractors, of
    which ``claim_adjacent`` rules take the claim itself as a premise.
    """

    n_facts: int = 122
    n_rules: int = 72
    max_premises: int = 3
    ka_count: int = 550
    ka_size: int = 20
    train_count: int = 500
    seed: int = 0
    backbone_branching: int = 2
    backbone_depth: int = 3
    backbone_weights: tuple[float, ...] = (0.8, 0.9, 0.9)
    claim_adjacent: int = 3

    def __post_init__(self) -> None:
        if self.ka_count < 1:
            raise ValueError("ka_count must be >= 1")
        if not 0 < self.ka_size <= self.n_facts - 1:
            raise ValueError("need 0 < ka_size <= n_facts - 1")
        if not 0 < self.train_count < self.ka_count:
            raise ValueError("need 0 < train_count < ka_count")
        if self.max_premises < 2:
            raise ValueError("max_premises must be >= 2")
        if len(self.backbone_weights) != self.backbone_depth:
            raise ValueError("backbone_weights must have one entry per level")
        if self.n_facts <= self.backbone_atoms():
            raise ValueError("n_facts too small for the backbone tree")
        if self.n_rules <= self.backbone_rules():
            raise ValueError("n_rules too small for the backbone tree")
        spare = (self.n_facts - self.backbone_atoms()) - (
            self.n_rules - self.backbone_rules()
        )
        if spare < 0:
            raise ValueError("more distractor rules than atoms to conclude")

    def backbone_atoms(self) -> int:
        b = self.backbone_branching
        return sum(b**i for i in range(self.backbone_depth + 1))

    def backbone_rules(self) -> int:
        b = self.backbone_branching
        return sum(b**i for i in range(self.backbone_depth))


@dataclass
class Dataset:
    """A fully loaded corpus plus the episode constants from its manifest."""

    universe: tuple[str, ...]
    rules: tuple[Rule, ...]
    claim: str
    kas: tuple[frozenset[str], ...]
    train_count: int
    theta_r: float
    t_limit: int
    r_goal: float
    r_time: float
    config: AbductionConfig
    questions: dict[str, tuple[str, str]] = field(default_factory=dict)

    @property
    def scenario(self) -> Scenario:
        return Scenario(
            claim=self.claim,
            atom_universe=self.universe,
            rules=self.rules,
            theta_r=self.theta_r,
            t_limit=self.t_limit,
            r_goal=self.r_goal,
            r_time=self.r_time,
            config=self.config,
        )

    @property
    def train_kas(self) -> tuple[frozenset[str], ...]:
        return self.kas[: self.train_count]

    @property
    def test_kas(self) -> tuple[frozenset[str], ...]:
        return self.kas[self.train_count :]


# Every manifest key, in the order ``save_dataset`` writes them, with the
# parser of its value and the record whose field, the key in lower case, it
# sets; a file key sets none and is written as its name in ``_FILE_NAMES``.
# A manifest holds each key once, and no other key but ``questions_file``.
_MANIFEST_KEYS = {
    "facts_file": (str, None),
    "rules_file": (str, None),
    "ka_file": (str, None),
    "claim": (str, Dataset),
    "theta_R": (float, Scenario),
    "t_limit": (int, Scenario),
    "r_goal": (float, Scenario),
    "r_time": (float, Scenario),
    "train_count": (int, Dataset),
    "obs_cost": (float, AbductionConfig),
    "max_depth": (int, AbductionConfig),
}
_FILE_NAMES = {"facts_file": "facts.txt", "rules_file": "rules.txt", "ka_file": "kas.txt"}


def _parse_manifest(path: Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, line in content_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _MANIFEST_KEYS and key != "questions_file":
            raise ValueError(f"{path}:{lineno}: unknown manifest key {key!r}")
        if key in entries:
            raise ValueError(f"{path}:{lineno}: repeated manifest key {key!r}")
        entries[key] = value
    missing = [k for k in _MANIFEST_KEYS if k not in entries]
    if missing:
        raise ValueError(f"{path}: missing manifest keys {missing}")
    return entries


def _set_manifest_values(path: Path, entries: dict[str, str], record):
    """``record`` with each manifest key that sets one of its fields parsed
    and set, one at a time, so that a value that fails to parse or validate
    names its key."""
    for key, (parse, owner) in _MANIFEST_KEYS.items():
        if owner is type(record):
            try:
                record = dataclasses.replace(record, **{key.lower(): parse(entries[key])})
            except ValueError as exc:
                raise ValueError(f"{path}: {key}: {exc}") from None
    return record


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load and validate a dataset directory from its manifest."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    base = manifest_path.parent
    entries = _parse_manifest(manifest_path)

    facts_file = base / entries["facts_file"]
    universe = tuple(load_facts_file(facts_file))
    atom_set = set(universe)
    rules = tuple(load_rules_file(base / entries["rules_file"], atom_set))
    claim = entries["claim"]
    if claim not in universe:
        raise ValueError(f"{manifest_path}: claim: {claim!r} is not in {facts_file}")

    ka_file = base / entries["ka_file"]
    kas = []
    for lineno, line in enumerate(read_lines(ka_file), 1):
        ka = frozenset(line.split())
        bad = sorted(ka - atom_set)
        if bad:
            raise ValueError(f"{ka_file}:{lineno}: atoms outside the universe: {bad[:5]}")
        if claim in ka:
            raise ValueError(f"{ka_file}:{lineno}: answerer set contains the claim")
        kas.append(ka)
    if not kas:
        raise ValueError(f"{ka_file}: no answerer sets found")

    try:
        train_count = int(entries["train_count"])
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: train_count: {exc}") from None
    if not 0 < train_count < len(kas):
        raise ValueError(
            f"{manifest_path}: train_count: {train_count} does not split "
            f"{len(kas)} answerer sets"
        )

    config = _set_manifest_values(manifest_path, entries, AbductionConfig())
    try:
        scenario = Scenario(claim, universe, rules, theta_r=0.7, t_limit=10, config=config)
    except ValueError as exc:
        raise ValueError(f"{facts_file}: {exc}") from None
    scenario = _set_manifest_values(manifest_path, entries, scenario)
    questions: dict[str, tuple[str, str]] = {}
    q_file = base / entries.get("questions_file", "questions.tsv")
    if "questions_file" in entries and not q_file.is_file():
        raise FileNotFoundError(f"{manifest_path}: questions_file: no such file {q_file}")
    if q_file.is_file():
        for lineno, raw in enumerate(read_lines(q_file), 1):
            if not raw.strip():
                continue
            parts = raw.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{q_file}:{lineno}: expected 3 tab-separated fields")
            if parts[0] not in atom_set:
                raise ValueError(f"{q_file}:{lineno}: atom {parts[0]!r} is not in {facts_file}")
            if parts[0] in questions:
                raise ValueError(f"{q_file}:{lineno}: repeated atom {parts[0]!r}")
            questions[parts[0]] = (parts[1], parts[2])

    return Dataset(
        universe=universe,
        rules=rules,
        claim=claim,
        kas=tuple(kas),
        train_count=train_count,
        theta_r=scenario.theta_r,
        t_limit=scenario.t_limit,
        r_goal=scenario.r_goal,
        r_time=scenario.r_time,
        config=config,
        questions=questions,
    )


def save_dataset(dataset: Dataset, directory: str | Path) -> Path:
    """Write a dataset directory; returns the manifest path."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    (base / _FILE_NAMES["facts_file"]).write_text(
        "".join(f"{a}\n" for a in dataset.universe), encoding="utf-8"
    )
    (base / _FILE_NAMES["rules_file"]).write_text(
        "".join(f"{render_rule(r)}\n" for r in dataset.rules), encoding="utf-8"
    )
    (base / _FILE_NAMES["ka_file"]).write_text(
        "".join(" ".join(sorted(ka)) + "\n" for ka in dataset.kas), encoding="utf-8"
    )
    if dataset.questions:
        lines = [
            f"{atom}\t{q}\t{a}\n"
            for atom, (q, a) in sorted(dataset.questions.items())
        ]
        (base / "questions.tsv").write_text("".join(lines), encoding="utf-8")
    values = {
        key: _FILE_NAMES[key] if owner is None
        else getattr(dataset.config if owner is AbductionConfig else dataset, key.lower())
        for key, (_, owner) in _MANIFEST_KEYS.items()
    }
    manifest = base / "manifest.txt"
    manifest.write_text(
        "".join(f"{key} = {value}\n" for key, value in values.items()), encoding="utf-8"
    )
    return manifest


def _question_text(atom: str, claim: str) -> tuple[str, str]:
    if atom == claim:
        return (f"Does the case establish {atom}?", f"{atom} is the claim at issue.")
    return (f"Is {atom} known to hold?", f"{atom} holds.")


def build_synthetic(params: GenParams) -> Dataset:
    """Construct a synthetic dataset in memory, determined by params.seed."""
    rng = np.random.default_rng(params.seed)
    width = max(3, len(str(params.n_facts - 1)))
    atoms = [f"q{i:0{width}d}" for i in range(params.n_facts)]
    claim = atoms[0]

    # Backbone tree: level l holds branching**l atoms; each non-frontier
    # atom is concluded by one rule from its children on the next level.
    b = params.backbone_branching
    levels: list[list[str]] = []
    cursor = 0
    for l in range(params.backbone_depth + 1):
        levels.append(atoms[cursor : cursor + b**l])
        cursor += b**l
    rules: list[Rule] = []
    for l in range(params.backbone_depth):
        weight = params.backbone_weights[l]
        for i, parent in enumerate(levels[l]):
            children = levels[l + 1][i * b : (i + 1) * b]
            rules.append(
                parse_rule(f"{' & '.join(children)} -> {parent} :: {weight!r}")
            )
    backbone = atoms[:cursor]

    # Distractors: the first chunk gets one concluding rule each, the rest
    # only ever appear as premises. Premise weight above 1 keeps every
    # distractor rule irrelevant to explanation costs.
    distractors = atoms[cursor:]
    n_d_rules = params.n_rules - params.backbone_rules()
    concluded = distractors[:n_d_rules]
    leaf_pool = list(distractors[n_d_rules:])
    existing: list[str] = []
    for i, conclusion in enumerate(concluded):
        if i < params.claim_adjacent:
            anchor = claim
        elif i < params.claim_adjacent + len(backbone) - 1:
            anchor = backbone[1 + (i - params.claim_adjacent)]
        else:
            anchor = existing[int(rng.integers(len(existing)))]
        n_prem = int(rng.integers(2, params.max_premises + 1))
        premises = [anchor]
        while len(premises) < n_prem:
            if leaf_pool:
                premises.append(leaf_pool.pop(0))
            else:
                pick = existing[int(rng.integers(len(existing)))]
                if pick not in premises:
                    premises.append(pick)
                elif len(existing) <= len(premises):
                    break
        total = _DISTRACTOR_THETA * len(premises)
        rules.append(
            parse_rule(f"{' & '.join(premises)} -> {conclusion} :: {total!r}")
        )
        existing.append(conclusion)
        existing.extend(p for p in premises if p != anchor and p not in existing)

    candidates = atoms[1:]
    kas = tuple(
        frozenset(
            np.asarray(candidates)[
                rng.choice(len(candidates), size=params.ka_size, replace=False)
            ].tolist()
        )
        for _ in range(params.ka_count)
    )
    questions = {a: _question_text(a, claim) for a in atoms}
    config = AbductionConfig(obs_cost=10.0, max_depth=max(6, params.backbone_depth + 1))
    return Dataset(
        universe=tuple(atoms),
        rules=tuple(rules),
        claim=claim,
        kas=kas,
        train_count=params.train_count,
        theta_r=0.7,
        t_limit=10,
        r_goal=100.0,
        r_time=-1.0,
        config=config,
        questions=questions,
    )


def generate_synthetic(params: GenParams, directory: str | Path) -> Path:
    """Generate a synthetic dataset on disk; returns the manifest path."""
    return save_dataset(build_synthetic(params), directory)


def build_toy(seed: int = 0) -> Dataset:
    """Tiny fixed-shape domain for fast end-to-end learning checks.

    Ten atoms; the claim follows from three designated facts that appear in
    every answerer set, padded with three of six distractor atoms. An
    episode succeeds only by collecting exactly the three designated facts,
    so the optimal policy is three asks and collected distractors are fatal.
    There are 110 answerer sets, the first 60 for training.
    """
    rng = np.random.default_rng(seed)
    claim = "c"
    good = ("d1", "d2", "d3")
    junk = tuple(f"x{i}" for i in range(1, 7))
    atoms = (claim,) + good + junk
    rules = (parse_rule("d1 & d2 & d3 -> c"),)
    kas = tuple(
        frozenset(good)
        | frozenset(
            np.asarray(junk)[rng.choice(len(junk), size=3, replace=False)].tolist()
        )
        for _ in range(110)
    )
    questions = {a: _question_text(a, claim) for a in atoms}
    return Dataset(
        universe=atoms,
        rules=rules,
        claim=claim,
        kas=kas,
        train_count=60,
        theta_r=0.65,
        t_limit=4,
        r_goal=100.0,
        r_time=-1.0,
        config=AbductionConfig(),
        questions=questions,
    )
