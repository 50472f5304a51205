"""argseek benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload query --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; argseek is imported from ``src/``.
Every run prints all end-to-end metrics (``--trace 0``) or all per-layer
metrics (``--trace 1``); see README.md in this directory. The last line of
standard output is the JSON result; the lines before it record the run
environment and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_run"
WORKLOADS = ("train", "query")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "train_steps_per_s": "1/s",
    "eval_random_s": "s",
    "eval_dfs_s": "s",
    "eval_bfs_s": "s",
    "eval_ddqn_s": "s",
    "sweep_random_s": "s",
    "sweep_dfs_s": "s",
    "sweep_bfs_s": "s",
    "sweep_ddqn_s": "s",
    "abduce_p50_ms": "ms",
    "abduce_p80_ms": "ms",
    "abduce_queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def bootstrap() -> None:
    """Pin BLAS to one thread before numpy loads; import argseek from src/."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "argseek" / "__init__.py").is_file():
        sys.exit(f"argseek sources not found under {src}; run from a source checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def git_commit() -> str | None:
    """HEAD commit read from .git without starting git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_environment(seed: int) -> dict:
    import numpy as np

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv: list[str] | None = None, cfg=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    import session
    import spans
    import workloads

    cfg = cfg or session.BENCH
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())[cfg.name]
    print("# env " + json.dumps(run_environment(args.seed)), flush=True)
    if args.trace:
        metrics, attempted, abandoned, problems, summary = workloads.run_traced(
            cfg, args.workload, args.seed, expected, WORKDIR
        )
        units = spans.LAYER_UNITS
    else:
        metrics, attempted, abandoned, problems, summary = workloads.run_untraced(
            cfg, args.seed, args.seconds, expected, WORKDIR
        )
        units = END_TO_END_UNITS
    for line in summary:
        print(line)
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]!r} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": abandoned + len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    main()
