"""Command line interface: generate, train, evaluate, sweep, inspect.

All tabular output is CSV on stdout (or --out FILE) and is byte-reproducible
from the flags and seeds. ARGSEEK_SEED provides the default seed anywhere a
seed flag is omitted.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from .abduction import construct_argument
from .agents.ddqn import Hyperparams, train_ddqn
from .agents.qnet import QNetworkParams, load_qnet, save_qnet
from .data import Dataset, GenParams, build_toy, generate_synthetic, load_dataset, save_dataset
from .env import Scenario
from .harness import (
    evaluate,
    metrics_csv,
    render_transcript,
    run_episode,
    policy_factory,
    sweep_csv,
    sweep_tlimit,
)
from .kb import KnowledgeBase

STRATEGIES = ("random", "dfs", "bfs", "ddqn")


def _load(data: str) -> Dataset:
    path = Path(data)
    manifest = path / "manifest.txt" if path.is_dir() else path
    return load_dataset(manifest)


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise click.ClickException(f"bad --seeds value {text!r}") from exc
    if not seeds:
        raise click.ClickException("--seeds is empty")
    if min(seeds) < 0:
        raise click.ClickException(f"--seeds takes no negative seed: {text!r}")
    if len(set(seeds)) < len(seeds):
        raise click.ClickException(f"--seeds repeats a seed: {text!r}")
    return seeds


def _load_models(
    strategy: str, model_paths: tuple[str, ...], seeds: list[int], scenario: Scenario
) -> dict[int, QNetworkParams] | None:
    """Load one ddqn model per seed; each must map the scenario's features to
    its actions. None for a baseline, which takes no --model."""
    if strategy != "ddqn":
        if model_paths:
            raise click.ClickException(f"--model is only for --strategy ddqn, not {strategy}")
        return None
    if not model_paths:
        raise click.ClickException("--strategy ddqn requires --model")
    if len(model_paths) == 1:
        paths = list(model_paths) * len(seeds)
    elif len(model_paths) == len(seeds):
        paths = list(model_paths)
    else:
        raise click.ClickException(
            f"got {len(model_paths)} --model paths for {len(seeds)} seeds; "
            "pass one per seed or a single shared model"
        )
    models = {}
    for seed, path in zip(seeds, paths):
        model = load_qnet(path)
        dims = model.layer_dims
        if (dims[0], dims[-1]) != (scenario.feature_dim, scenario.n_actions):
            raise click.ClickException(
                f"{path}: model maps {dims[0]} inputs to {dims[-1]} actions, but the "
                f"dataset has {scenario.feature_dim} features and {scenario.n_actions} actions"
            )
        models[seed] = model
    return models


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


@click.group()
def main() -> None:
    """Questioning-strategy toolkit for rational argument construction."""


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--facts", default=122, show_default=True)
@click.option("--rules", default=72, show_default=True)
@click.option("--ka", "ka_count", default=550, show_default=True)
@click.option("--ka-size", default=20, show_default=True)
@click.option("--train", "train_count", default=500, show_default=True)
@click.option("--seed", default=0, show_default=True, envvar="ARGSEEK_SEED",
              type=click.IntRange(min=0))
@click.option("--toy", is_flag=True, help="Write the fixed 10-atom toy domain instead.")
def gen(out_dir, facts, rules, ka_count, ka_size, train_count, seed, toy) -> None:
    """Generate a synthetic dataset directory."""
    try:
        if toy:
            manifest = save_dataset(build_toy(seed=seed), out_dir)
        else:
            params = GenParams(
                n_facts=facts,
                n_rules=rules,
                ka_count=ka_count,
                ka_size=ka_size,
                train_count=train_count,
                seed=seed,
            )
            manifest = generate_synthetic(params, out_dir)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(str(manifest))


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--episodes", default=1000, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, envvar="ARGSEEK_SEED",
              type=click.IntRange(min=0))
@click.option("--out", "out_path", required=True, type=click.Path())
def train(data, episodes, seed, out_path) -> None:
    """Train a questioner network on the dataset's training split."""
    try:
        ds = _load(data)
        hp = Hyperparams(episodes=episodes, seed=seed)
        params, curve = train_ddqn(ds.scenario, ds.train_kas, hp)
    except (OSError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    save_qnet(params, out_path)
    click.echo(f"{out_path} (mean reward over final 100 episodes: {curve[-100:].mean():.2f})")


@main.command("eval")
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--strategy", required=True, type=click.Choice(STRATEGIES))
@click.option("--model", "model_paths", multiple=True, type=click.Path(exists=True))
@click.option("--seeds", default="0", show_default=True, envvar="ARGSEEK_SEED")
@click.option("--t-limit", type=click.IntRange(min=1), help="Override the manifest time limit.")
@click.option("--out", "out_path", default=None, type=click.Path())
def eval_cmd(data, strategy, model_paths, seeds, t_limit, out_path) -> None:
    """Evaluate one strategy on the test split; emits a metrics CSV."""
    seed_list = _parse_seeds(seeds)
    try:
        ds = _load(data)
        models = _load_models(strategy, model_paths, seed_list, ds.scenario)
        metrics = evaluate(
            strategy, ds.test_kas, ds.scenario, seed_list, models=models, t_limit=t_limit
        )
    except (OSError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    _emit(metrics_csv([(strategy, metrics)]), out_path)


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--strategy", required=True, type=click.Choice(STRATEGIES))
@click.option("--model", "model_paths", multiple=True, type=click.Path(exists=True))
@click.option("--seeds", default="0", show_default=True, envvar="ARGSEEK_SEED")
@click.option("--max-tlimit", default=10, show_default=True, type=click.IntRange(min=1))
@click.option("--out", "out_path", default=None, type=click.Path())
def sweep(data, strategy, model_paths, seeds, max_tlimit, out_path) -> None:
    """Evaluate a strategy at every time limit 1..N; emits a CSV."""
    seed_list = _parse_seeds(seeds)
    try:
        ds = _load(data)
        models = _load_models(strategy, model_paths, seed_list, ds.scenario)
        table = sweep_tlimit(
            strategy, ds.test_kas, ds.scenario, seed_list, max_tlimit, models=models
        )
    except (OSError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    _emit(sweep_csv([(strategy, table)]), out_path)


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--model", "model_paths", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--ka", "ka_index", required=True, type=int)
@click.option("--seed", default=0, show_default=True, envvar="ARGSEEK_SEED",
              type=click.IntRange(min=0))
def transcript(data, model_paths, ka_index, seed) -> None:
    """Replay one dialogue with a trained model and print the exchange."""
    if len(model_paths) > 1:
        raise click.UsageError("--model takes one path: transcript replays one --seed")
    try:
        ds = _load(data)
        if not 0 <= ka_index < len(ds.kas):
            raise click.ClickException(
                f"--ka {ka_index} out of range (dataset has {len(ds.kas)} K_A sets)"
            )
        models = _load_models("ddqn", model_paths, [seed], ds.scenario)
        scenario = ds.scenario
        policy = policy_factory("ddqn", scenario, models[seed])()
        log = run_episode(scenario, ds.kas[ka_index], policy, np.random.default_rng(seed))
    except (OSError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(render_transcript(log, ds.questions), nl=False)


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--facts", default="", help="Comma-separated collected fact atoms.")
@click.option("--claim", default=None, help="Claim atom; defaults to the dataset claim.")
def abduce(data, facts, claim) -> None:
    """Score one questioner knowledge state: costs, rationality, and proof."""
    try:
        ds = _load(data)
        claim_atom = claim or ds.claim
        fact_set = frozenset(f.strip() for f in facts.split(",") if f.strip())
        unknown = sorted(fact_set - set(ds.universe))
        if unknown:
            raise click.ClickException(f"facts outside the universe: {unknown}")
        if claim_atom not in ds.universe:
            raise click.ClickException(f"claim {claim_atom!r} outside the universe")
        if claim_atom in fact_set:
            raise click.ClickException(f"--facts holds the claim {claim_atom!r} itself")
        kq = KnowledgeBase(facts=fact_set, rules=ds.rules)
        argument = construct_argument(kq, claim_atom, ds.config)
    except (OSError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    result = argument.rationality
    click.echo(f"E_alpha = {result.e_alpha!r}")
    click.echo(f"E_k = {result.e_k!r}")
    click.echo(f"E_joint = {result.e_joint!r}")
    click.echo(f"R = {result.r!r}")
    click.echo(f"R_norm = {result.r_norm!r}")
    click.echo(f"support_facts = {sorted(argument.support_facts)}")
    click.echo(f"assumptions = {sorted(argument.assumptions)}")
    click.echo("joint proof (atom, label, charge):")
    click.echo(argument.proof.listing())


if __name__ == "__main__":
    main()
