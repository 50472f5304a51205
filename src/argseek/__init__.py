"""Toolkit for optimizing information-seeking questioning strategies.

A questioner builds a rational argument for a claim by querying an answerer
for facts. Rationality is scored by a minimum-cost abduction engine; the
questioning strategy is either a graph-traversal heuristic or a double deep
Q-network trained inside a dialogue MDP.
"""

__version__ = "0.1.0"
