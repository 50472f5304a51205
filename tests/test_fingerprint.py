"""Pinned output fingerprint of the default benchmark dataset.

Only the classes that do not depend on the machine are pinned: proofs, the
baseline CSVs and abduce are plain float arithmetic. Trained bytes go
through BLAS and are compared between trees on one machine, never here.
"""

import importlib.util
from pathlib import Path

from argseek.data import GenParams, generate_synthetic

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fingerprint.py"

# scripts/fingerprint.py on the data `argseek gen --out bench` writes.
BENCH_STABLE = {
    "abduce": "d796821bea6bcf14",
    "eval bfs": "60ae9a0775a10258",
    "eval dfs": "951cda809be6043a",
    "eval random": "9ac22c42301caad3",
    "proofs": "fca98febab4c91a3",
    "sweep bfs": "6242eec5e1cfb537",
    "sweep dfs": "a51f7af11aa17fb7",
    "sweep random": "f7d6fa7da6e89305",
}


def load_script():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_outputs_match_pinned_hashes(tmp_path):
    generate_synthetic(GenParams(), tmp_path / "bench")
    assert load_script().stable_hashes(str(tmp_path / "bench")) == BENCH_STABLE
