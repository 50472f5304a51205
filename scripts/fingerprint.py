"""Print one hash per class of argseek's outputs on one dataset.

    python3 scripts/fingerprint.py DATA_DIR

Run it on two source trees, on one machine, to show that a change leaves
every output as it was. argseek is imported from the ``src/`` next to this
script. The classes:

- ``proofs``: observations, labels and charges (in dict order) and total of
  every ``explain`` call that the random, dfs and bfs evals and sweeps make;
- ``eval KIND`` and ``sweep KIND``: the CSVs ``argseek eval`` and ``argseek
  sweep`` print for each strategy over seeds 0-4, ddqn with the model below;
- ``abduce``: ``argseek abduce`` on the first i + 1 sorted atoms of the
  i-th test answerer set, for the first ten sets;
- ``train``: ``params.flat`` and the reward curve of a 200-episode training
  with seed 1, as ``argseek train --episodes 200 --seed 1`` runs it;
- ``transcript``: ``argseek transcript`` with that model, on the first test
  answerer set, seed 0.

Proofs, the baseline CSVs and abduce are plain float arithmetic and do not
depend on the machine. Trained bytes, and so ``train``, ``transcript`` and
the ddqn CSVs, go through BLAS: compare them on one machine only.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from click.testing import CliRunner

from argseek import abduction, cli
from argseek.agents.ddqn import Hyperparams, train_ddqn
from argseek.agents.qnet import save_qnet
from argseek.data import load_dataset

BASELINES = ("random", "dfs", "bfs")
SEEDS = "0,1,2,3,4"
ABDUCE_QUERIES = 10
TRAIN = Hyperparams(episodes=200, seed=1)


def _hash(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


def _run(*args: str) -> str:
    """Stdout of one ``argseek`` command, which must succeed."""
    result = CliRunner().invoke(cli.main, list(args))
    if result.exit_code != 0:
        raise SystemExit(f"argseek {' '.join(args)} exited {result.exit_code}: {result.output}")
    return result.stdout


def _csv_hashes(data_dir: str, kind: str, *model: str) -> dict[str, str]:
    return {
        f"eval {kind}": _hash(_run("eval", "--data", data_dir, "--strategy", kind,
                                   *model, "--seeds", SEEDS)),
        f"sweep {kind}": _hash(_run("sweep", "--data", data_dir, "--strategy", kind,
                                    *model, "--seeds", SEEDS)),
    }


def stable_hashes(data_dir: str) -> dict[str, str]:
    """The classes that do not depend on the machine: proofs, baseline CSVs
    and abduce."""
    calls: list[str] = []
    explain = abduction.explain

    def recording_explain(observations, rules, config=None):
        proof = explain(observations, rules, config)
        calls.append(repr((
            sorted(observations),
            list(proof.labels.items()),
            list(proof.charges.items()),
            proof.total_cost,
        )))
        return proof

    out: dict[str, str] = {}
    abduction.explain = recording_explain
    try:
        for kind in BASELINES:
            out.update(_csv_hashes(data_dir, kind))
    finally:
        abduction.explain = explain
    out["proofs"] = _hash("\n".join(calls))

    test_kas = load_dataset(Path(data_dir) / "manifest.txt").test_kas
    listings = [
        _run("abduce", "--data", data_dir, "--facts", ",".join(sorted(ka)[: i + 1]))
        for i, ka in enumerate(test_kas[:ABDUCE_QUERIES])
    ]
    out["abduce"] = _hash("".join(listings))
    return dict(sorted(out.items()))


def trained_hashes(data_dir: str) -> dict[str, str]:
    """The classes that go through a trained network: train, the ddqn CSVs
    and transcript."""
    ds = load_dataset(Path(data_dir) / "manifest.txt")
    params, curve = train_ddqn(ds.scenario, ds.train_kas, TRAIN)
    out = {"train": _hash(params.flat.tobytes() + curve.tobytes())}
    with tempfile.TemporaryDirectory() as tmp:
        model = str(Path(tmp) / "model.qnet")
        save_qnet(params, model)
        out.update(_csv_hashes(data_dir, "ddqn", "--model", model))
        out["transcript"] = _hash(_run(
            "transcript", "--data", data_dir, "--model", model,
            "--ka", str(ds.train_count), "--seed", "0",
        ))
    return dict(sorted(out.items()))


def main(argv: list[str]) -> None:
    if len(argv) != 1:
        raise SystemExit("usage: fingerprint.py DATA_DIR")
    for name, digest in {**stable_hashes(argv[0]), **trained_hashes(argv[0])}.items():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
