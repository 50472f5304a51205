"""Record the outputs the benchmark checks against, into expected.json.

    python3 perfbench/record.py

Run from the root of a source checkout, only when the recorded outputs are
meant to change. For the bench and toy datasets it runs one benchmark
session with the checks against recorded outputs off, and stores its
random, dfs and bfs eval and sweep CSVs and, for each abduce pool query, its
facts and its (e_alpha, e_k, e_joint), each checked against
ExplainCache.rationality. A query abandoned at session.QUERY_CAP_S is stored
with null costs. Cold latencies go to stderr, to place
session.REPEAT_LIMIT_S in a gap of their distribution.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

BASELINES = ("random", "dfs", "bfs")


def record(cfg) -> dict:
    from argseek import harness
    import session

    sess = session.Session(cfg, None, 0, run.WORKDIR)
    for kind in BASELINES:
        sess.evaluate(kind)
        sess.sweep(kind)
    sess.abduce()
    sess.final_checks()
    if sess.problems:
        sys.exit(f"{cfg.name}: " + "; ".join(sess.problems))
    abduce = []
    for i, facts in enumerate(sess.pool):
        got = sess.answers[i]
        abduce.append({"facts": sorted(facts), "costs": None if got is None else list(got)})
        print(f"{cfg.name}\t{len(facts)}\t{sess.latency[i][0]:.4f}", file=sys.stderr, flush=True)
    out = sess.outputs
    return {
        "eval": {k: harness.metrics_csv([(k, out[f"eval {k}"])]) for k in BASELINES},
        "sweep": {k: harness.sweep_csv([(k, out[f"sweep {k}"])]) for k in BASELINES},
        "abduce": abduce,
    }


def main() -> None:
    run.bootstrap()
    import session

    out = {cfg.name: record(cfg) for cfg in (session.TOY, session.BENCH)}
    path = Path(__file__).parent / "expected.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
