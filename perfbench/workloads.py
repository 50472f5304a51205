"""The two workloads: every untraced run measures every operation; a traced
run covers the operations of its workload only."""

from __future__ import annotations

import resource
import time
from pathlib import Path

import numpy as np

import session
import spans

# Every run repeats each operation in rounds spread over the run, because the
# machine's speed drifts over seconds to minutes. Set-up, the least steady,
# runs four times a round, and the two cheapest evals twice. The first abduce
# pass, in the first round, also runs the slow queries that are not repeated.
MIN_ROUNDS = 2
SWEEPS = tuple(f"sweep {kind}" for kind in session.STRATEGIES)
ROUND = (
    ("setup",) * 4
    + ("train",)
    + tuple(f"evaluate {kind}" for kind in session.STRATEGIES)
    + ("evaluate bfs", "evaluate ddqn")
    + SWEEPS
    + ("abduce",)
)

# The operations each workload's traced run covers.
TRACE_SCOPE = {
    "train": ("train",),
    "query": (
        *(f"evaluate {kind}" for kind in session.STRATEGIES),
        *SWEEPS,
        "abduce",
    ),
}


def run_op(sess: session.Session, op: str) -> None:
    name, _, kind = op.partition(" ")
    method = getattr(sess, name)
    method(kind) if kind else method()


def run_untraced(cfg, seed: int, seconds: float, expected: dict, workdir: Path):
    """Rounds of every operation: at least MIN_ROUNDS, and more while another
    round, as long as the last one, still ends within ``seconds``. Each even
    round runs in a seed-drawn order and the round after it in the reverse
    order, so an operation's samples lie on both sides of the middle of the
    pair and a steady drift in the machine's speed across the pair largely
    cancels out of its mean."""
    sess = session.Session(cfg, expected, seed, workdir)
    start = time.perf_counter()
    ends = [start]
    while True:
        rounds = len(ends) - 1
        order = np.random.default_rng([seed, rounds // 2]).permutation(ROUND).tolist()
        for op in order[:: -1 if rounds % 2 else 1]:
            run_op(sess, op)
        ends.append(time.perf_counter())
        rounds += 1
        if rounds >= MIN_ROUNDS and 2 * ends[-1] - ends[-2] - start > seconds:
            break
    sess.final_checks()
    metrics = sess.metrics()
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = [f"# {rounds} rounds in {time.perf_counter() - start:.1f} s"]
    summary += [f"# {key} samples: {values}" for key, values in sess.samples.items()]
    summary.append(
        f"# abduce: {len(sess.pool)} queries, {sess.passes} passes; p80 is the highest "
        f"percentile with ten queries beyond it; "
        f"{sum(not sess.repeats(i) for i in range(len(sess.pool)))} slower than "
        f"{session.REPEAT_LIMIT_S:g} s, asked once; {sess.abandoned} abandoned at "
        f"{session.QUERY_CAP_S:g} s"
    )
    return metrics, sess.attempted, sess.abandoned, sess.problems, summary


def run_traced(cfg, workload: str, seed: int, expected: dict, workdir: Path):
    """Set-up plus the workload's operations, untraced, traced, then untraced
    again.

    The traced outputs must equal the untraced ones. The tracing overhead is
    the traced wall time minus the mean of the two untraced ones, which puts
    one-time warm-up costs and slow drift on both sides.
    """
    tracer = spans.Tracer()
    runs = []
    for traced in (False, True, False):
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            sess = session.Session(cfg, expected, seed, workdir)
            for op in TRACE_SCOPE[workload]:
                run_op(sess, op)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        runs.append((sess, wall))
    plain = runs[0][0]
    plain.final_checks()
    problems = [p for sess, _ in runs for p in sess.problems]
    if any(sess.all_outputs() != plain.all_outputs() for sess, _ in runs[1:]):
        problems.append(f"{workload}: traced and untraced outputs differ")
    metrics = tracer.layer_metrics(runs[1][1] - (runs[0][1] + runs[2][1]) / 2)
    trace_file = workdir / f"trace-{workload}-{seed}.npz"
    tracer.write(trace_file)
    summary = [f"# {len(tracer)} spans written to {trace_file}"]
    attempted = sum(sess.attempted for sess, _ in runs)
    abandoned = sum(sess.abandoned for sess, _ in runs)
    return metrics, attempted, abandoned, problems, summary
