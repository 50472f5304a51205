"""Questioner strategies: graph-traversal baselines and the DDQN learner."""

from __future__ import annotations

from .ddqn import (
    Hyperparams,
    ReplayBuffer,
    ddqn_target,
    epsilon_at,
    greedy_action,
    masked_argmax,
    train_ddqn,
)
from .heuristics import (
    STRATEGY_KINDS,
    TraversalState,
    bfs_next,
    dfs_next,
    random_next,
)
from .qnet import (
    AdamState,
    QNetworkParams,
    adam_update,
    copy_params,
    init_qnet,
    load_qnet,
    mlp_forward,
    mlp_forward_batch,
    mlp_gradients,
    save_qnet,
)

__all__ = [
    "AdamState",
    "Hyperparams",
    "QNetworkParams",
    "ReplayBuffer",
    "STRATEGY_KINDS",
    "TraversalState",
    "adam_update",
    "bfs_next",
    "copy_params",
    "ddqn_target",
    "dfs_next",
    "epsilon_at",
    "greedy_action",
    "init_qnet",
    "load_qnet",
    "masked_argmax",
    "mlp_forward",
    "mlp_forward_batch",
    "mlp_gradients",
    "random_next",
    "save_qnet",
    "train_ddqn",
]
