"""Fast self-test: every workload and every check on the toy dataset.

    python3 perfbench/selftest.py

Runs each workload untraced and traced on the ten-atom toy domain with five
training episodes and an eight-query abduce pool, and fails unless every run
is correct with no failed operation. Takes about twenty seconds.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    run.bootstrap()
    import session

    bad = []
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            argv = ["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace]
            result = run.main(argv, cfg=session.TOY)
            if not result["correct"] or result["failed"]:
                bad.append(f"{workload} --trace {trace}")
    if bad:
        print("self-test FAILED: " + ", ".join(bad), file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
