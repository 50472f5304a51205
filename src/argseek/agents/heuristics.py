"""Baseline questioners that walk the fact graph.

All three strategies pick an unasked candidate index per step, where the
boolean legal mask is True. The random strategy ignores the graph. DFS and
BFS both start at the claim node and break ties uniformly at random; once
the claim's component is exhausted they fall back to uniform choice over
whatever is still askable, so disconnected graphs never strand an episode.
The claim itself is never asked.
"""

from __future__ import annotations

import numpy as np

from ..kb import FactGraph

STRATEGY_KINDS = ("random", "dfs", "bfs")


class TraversalState:
    """Mutable per-episode walk position for one strategy.

    ``visited`` covers the claim plus every fact this traversal has emitted;
    ``stack`` is the DFS path, ``frontier``/``next_frontier`` the BFS depth
    layers. Lazily seeded from the claim on the first query.
    """

    def __init__(self, candidates: tuple[str, ...]):
        self.candidates = candidates
        self.atom_index = {atom: i for i, atom in enumerate(candidates)}
        self.started = False
        self.visited: set[str] = set()
        self.stack: list[str] = []
        self.frontier: list[str] = []
        self.next_frontier: list[str] = []


def _pick(items: list[str], rng: np.random.Generator) -> str:
    return items[int(rng.integers(len(items)))]


def random_next(legal: np.ndarray, rng: np.random.Generator) -> int:
    choices = np.flatnonzero(legal)
    if not len(choices):
        raise ValueError("no legal actions left")
    return int(choices[rng.integers(len(choices))])


def dfs_next(
    traversal: TraversalState,
    graph: FactGraph,
    claim: str,
    legal: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Next fact in randomized depth-first order from the claim node."""
    if not legal.any():
        raise ValueError("no legal actions left")
    if not traversal.started:
        traversal.started = True
        traversal.visited.add(claim)
        traversal.stack.append(claim)
    while traversal.stack:
        here = traversal.stack[-1]
        unvisited = [n for n in graph.neighbors(here) if n not in traversal.visited]
        if not unvisited:
            traversal.stack.pop()
            continue
        chosen = _pick(unvisited, rng)
        traversal.visited.add(chosen)
        traversal.stack.append(chosen)
        idx = traversal.atom_index.get(chosen)
        if idx is not None and legal[idx]:
            return idx
    return random_next(legal, rng)


def bfs_next(
    traversal: TraversalState,
    graph: FactGraph,
    claim: str,
    legal: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Next fact in randomized breadth-first order from the claim node.

    A depth layer is fully emitted, in uniformly random order, before any
    node one step deeper is offered.
    """
    if not legal.any():
        raise ValueError("no legal actions left")
    if not traversal.started:
        traversal.started = True
        traversal.visited.add(claim)
        traversal.frontier = [
            n for n in graph.neighbors(claim) if n not in traversal.visited
        ]
        traversal.visited.update(traversal.frontier)
    while traversal.frontier or traversal.next_frontier:
        if not traversal.frontier:
            traversal.frontier = traversal.next_frontier
            traversal.next_frontier = []
        chosen = _pick(traversal.frontier, rng)
        traversal.frontier.remove(chosen)
        fresh = [n for n in graph.neighbors(chosen) if n not in traversal.visited]
        traversal.visited.update(fresh)
        traversal.next_frontier.extend(fresh)
        idx = traversal.atom_index.get(chosen)
        if idx is not None and legal[idx]:
            return idx
    return random_next(legal, rng)
