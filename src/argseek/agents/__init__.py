"""Questioner strategies: graph-traversal baselines and the DDQN learner."""
