"""The benchmark's operations on one generated dataset, and their checks.

A ``Session`` holds one loaded dataset and runs the operations users run on
it: set-up, a training, an evaluation and a budget sweep per strategy, and a
pass over the cold abduce query pool. It keeps every timing sample, the
outputs of each operation, and every failed check. Operations call argseek
through module attributes (``harness.evaluate``, ``ddqn.train_ddqn`` ...) so
that a tracer installed on those names sees the calls.
"""

from __future__ import annotations

import dataclasses
import math
import signal
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from argseek import abduction, data, harness
from argseek.agents import ddqn, qnet
from argseek.kb import KnowledgeBase

from spans import tail_index

STRATEGIES = ("random", "dfs", "bfs", "ddqn")
EVAL_SEEDS = (0, 1, 2, 3, 4)
MAX_TLIMIT = 10
HIDDEN_DIMS = ddqn.Hyperparams().hidden_dims
# Seed of the training, of the ddqn model and of the abduce pool. The work is
# the same in every run: proof costs are heavy-tailed in the facts a policy
# asks, so inputs drawn per run would move the times more than any bound
# (see README.md).
WORK_SEED = 0
# Relative tie window of the proof search (abduction._TIE_REL).
TIE_REL = 1e-9
# Every abduce query runs to its end, so the heavy tail of proof search is
# measured in full. A query slower than REPEAT_LIMIT_S on its first pass is
# not asked again in the run, which keeps a run within its time. The limit
# sits in the widest gap of the bench pool's cold latencies: on a 2-vCPU
# Intel Xeon VM the fastest 48 queries took at most 0.59 s and the other two
# 3.1-3.3 s and 8.8-11.5 s.
REPEAT_LIMIT_S = 1.35
# A query still running after QUERY_CAP_S is abandoned and counted as a
# failed operation, so that a run always ends.
QUERY_CAP_S = 60.0


@dataclass(frozen=True)
class Config:
    """Dataset and sizes for one benchmark scale.

    ``build`` gives the dataset in memory and ``make`` writes the same
    dataset into a directory, returning its manifest; set-up times ``make``
    plus ``data.load_dataset``.
    """

    name: str
    build: Callable[[], data.Dataset]
    make: Callable[[Path], Path]
    train_episodes: int
    pool_per_size: int


def _build_bench() -> data.Dataset:
    return data.build_synthetic(data.GenParams())


def _make_bench(directory: Path) -> Path:
    return data.generate_synthetic(data.GenParams(), directory)


def _make_toy(directory: Path) -> Path:
    return data.save_dataset(data.build_toy(), directory)


# The default benchmark dataset, as `argseek gen --out bench` writes it.
BENCH = Config("bench", _build_bench, _make_bench, train_episodes=40, pool_per_size=5)
TOY = Config("toy", data.build_toy, _make_toy, train_episodes=5, pool_per_size=2)


def setup(cfg: Config, workdir: Path) -> tuple[float, data.Dataset]:
    """Write the dataset to a temporary directory and read it back."""
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        t0 = time.perf_counter()
        manifest = cfg.make(Path(tmp))
        dataset = data.load_dataset(manifest)
        return time.perf_counter() - t0, dataset


def abduce_pool(dataset: data.Dataset, per_size: int) -> list[frozenset[str]]:
    """Distinct subsets of test K_A sets, per_size of each size 1..t_limit."""
    rng = np.random.default_rng(WORK_SEED)
    test = dataset.test_kas
    pool: list[frozenset[str]] = []
    for size in range(1, dataset.t_limit + 1):
        drawn = 0
        while drawn < per_size:
            ka = sorted(test[int(rng.integers(len(test)))])
            facts = frozenset(ka[i] for i in rng.choice(len(ka), size=size, replace=False))
            if facts not in pool:
                pool.append(facts)
                drawn += 1
    return pool


def cold_rationality(dataset: data.Dataset, facts: frozenset[str]):
    """What `argseek abduce` computes: rationality with no cache and no hint."""
    kq = KnowledgeBase(facts=facts, rules=dataset.rules)
    return abduction.rationality(kq, dataset.claim, dataset.config)


class DeadlineExpired(Exception):
    """Raised by SIGALRM when a call runs past its deadline."""


def _expire(signum, frame):
    raise DeadlineExpired


def with_deadline(fn: Callable[[], object], seconds: float):
    """fn(), or None when it runs past the deadline and is abandoned."""
    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            result = fn()
            signal.setitimer(signal.ITIMER_REAL, 0)
            return result
        except DeadlineExpired:
            return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= TIE_REL * max(1.0, abs(b))


def _episode_steps(reward: float, scenario) -> int | None:
    """Steps of an episode from its reward r_time*steps (+ r_goal on success)."""
    for success in (0, 1):
        steps = (reward - scenario.r_goal * success) / scenario.r_time
        if steps == round(steps) and 1 <= steps <= scenario.t_limit:
            return int(steps)
    return None


class Session:
    """One loaded dataset, the operations run on it, and what they produced.

    ``expected`` holds the recorded outputs; with None (when recording
    them) the checks against recorded outputs are skipped and every other
    check runs.
    """

    def __init__(self, cfg: Config, expected: dict | None, seed: int, workdir: Path):
        self.cfg = cfg
        self.expected = expected
        self.seed = seed
        self.workdir = workdir
        self.samples: dict[str, list[float]] = defaultdict(list)
        # First outputs of each operation; later repetitions must match them.
        self.outputs: dict[str, object] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.abandoned = 0
        self.setup()
        self.dataset = self.outputs["setup"]
        sc = self.scenario = self.dataset.scenario
        dims = (sc.feature_dim, *HIDDEN_DIMS, sc.n_actions)
        # One untrained model shared by every evaluation seed.
        model = qnet.init_qnet(dims, np.random.default_rng(WORK_SEED))
        self.models = {s: model for s in EVAL_SEEDS}
        self.pool = abduce_pool(self.dataset, cfg.pool_per_size)
        self.passes = 0
        self.latency: dict[int, list[float]] = defaultdict(list)
        self.answers: dict[int, tuple[float, float, float] | None] = {}

    def _record(self, op: str, outputs, check: Callable[[], list[str]]) -> None:
        """Count one attempted operation; check it the first time, and
        require every later repetition to reproduce its outputs."""
        self.attempted += 1
        if op not in self.outputs:
            self.outputs[op] = outputs
            problems = check()
        elif outputs != self.outputs[op]:
            problems = [f"{op}: outputs differ between repetitions"]
        else:
            problems = []
        self.problems += problems

    # -- operations -------------------------------------------------------

    def setup(self) -> None:
        secs, loaded = setup(self.cfg, self.workdir)
        self.samples["setup_s"].append(secs)
        self._record("setup", loaded, lambda: self.check_setup(loaded))

    def check_setup(self, loaded: data.Dataset) -> list[str]:
        loaded = dataclasses.replace(
            loaded, universe=tuple(loaded.universe), rules=tuple(loaded.rules)
        )
        if loaded != self.cfg.build():
            return ["set-up: loaded dataset differs from the generated one"]
        return []

    def train(self) -> None:
        hp = ddqn.Hyperparams(episodes=self.cfg.train_episodes, seed=WORK_SEED)
        t0 = time.perf_counter()
        params, curve = ddqn.train_ddqn(self.scenario, self.dataset.train_kas, hp)
        secs = time.perf_counter() - t0
        steps = [_episode_steps(float(r), self.scenario) for r in curve]
        self.samples["train_s"].append(secs)
        self.samples["train_steps"].append(sum(s for s in steps if s is not None))
        arrays = params.weights + params.biases
        outputs = (curve.tobytes(), params.layer_dims, tuple(a.tobytes() for a in arrays))
        self._record("train", outputs, lambda: self.check_train(params, curve, steps))

    def check_train(self, params, curve, steps) -> list[str]:
        sc = self.scenario
        problems = []
        if len(curve) != self.cfg.train_episodes:
            problems.append(f"train: curve has {len(curve)} episodes")
        lo, hi = sc.r_time * sc.t_limit, sc.r_goal + sc.r_time
        if not all(lo <= r <= hi for r in curve) or None in steps:
            problems.append(f"train: an episode reward lies outside [{lo}, {hi}]")
        dims = (sc.feature_dim, *HIDDEN_DIMS, sc.n_actions)
        if params.layer_dims != dims:
            problems.append(f"train: params have dims {params.layer_dims}, want {dims}")
        if not all(np.all(np.isfinite(a)) for a in params.weights + params.biases):
            problems.append("train: non-finite parameters")
        return problems

    def evaluate(self, kind: str) -> None:
        models = self.models if kind == "ddqn" else None
        t0 = time.perf_counter()
        m = harness.evaluate(kind, self.dataset.test_kas, self.scenario, EVAL_SEEDS, models=models)
        self.samples[f"eval_{kind}_s"].append(time.perf_counter() - t0)
        self._record(f"eval {kind}", m, lambda: self.check_eval(kind, m))

    def check_eval(self, kind: str, m: harness.Metrics) -> list[str]:
        if kind != "ddqn":
            if self.expected is None:
                return []
            if harness.metrics_csv([(kind, m)]) != self.expected["eval"][kind]:
                return [f"eval {kind}: CSV differs from the recorded bytes"]
            return []
        sc = self.scenario
        steps = round(m.avg_steps * m.episodes_evaluated)
        score = (sc.r_goal * m.completed + sc.r_time * steps) / m.episodes_evaluated
        if m.avg_score != score or not math.isclose(m.avg_steps * m.episodes_evaluated, steps):
            return ["eval ddqn: avg_score is not (r_goal*completed + r_time*steps)/episodes"]
        return []

    def sweep(self, kind: str) -> None:
        models = self.models if kind == "ddqn" else None
        t0 = time.perf_counter()
        table = harness.sweep_tlimit(
            kind, self.dataset.test_kas, self.scenario, EVAL_SEEDS, MAX_TLIMIT, models=models
        )
        self.samples[f"sweep_{kind}_s"].append(time.perf_counter() - t0)
        self._record(f"sweep {kind}", table, lambda: self.check_sweep(kind, table))

    def check_sweep(self, kind: str, table) -> list[str]:
        if kind != "ddqn":
            if self.expected is None:
                return []
            if harness.sweep_csv([(kind, table)]) != self.expected["sweep"][kind]:
                return [f"sweep {kind}: CSV differs from the recorded bytes"]
            return []
        completed = [m.completed for _, m in table]
        if completed != sorted(completed) or [t for t, _ in table] != list(range(1, MAX_TLIMIT + 1)):
            return ["sweep ddqn: completed decreases with the time limit"]
        return []

    def abduce(self) -> None:
        """One pass over the query pool. The first pass asks every query;
        later passes skip the ones slower than REPEAT_LIMIT_S and the ones
        abandoned at QUERY_CAP_S, which count as failed once."""
        first = not self.answers
        order = np.random.default_rng([self.seed, self.passes]).permutation(len(self.pool))
        self.passes += 1
        for i in order.tolist():
            if not first and not self.repeats(i):
                continue
            facts = self.pool[i]
            self.attempted += 1
            t0 = time.perf_counter()
            got = with_deadline(lambda: cold_rationality(self.dataset, facts), QUERY_CAP_S)
            secs = time.perf_counter() - t0
            costs = None if got is None else (got.e_alpha, got.e_k, got.e_joint)
            if got is None:
                self.abandoned += 1
                self.latency[i].append(math.inf)
            else:
                self.latency[i].append(secs)
                if not 0.0 <= got.r_norm <= 1.0:
                    self.problems.append(f"abduce {sorted(facts)}: r_norm outside [0, 1]")
            if first:
                self.answers[i] = costs
            elif costs != self.answers[i]:
                self.problems.append(f"abduce {sorted(facts)}: answer differs between passes")

    def repeats(self, i: int) -> bool:
        """Whether pool query i is asked again after the first pass."""
        return self.latency[i][0] <= REPEAT_LIMIT_S

    def final_checks(self) -> None:
        """Checks that need every operation's outputs: the ddqn sweep row at
        t_limit against the ddqn eval, each completed abduce answer against
        the recorded one (unless recording), and each repeated one against
        ExplainCache.rationality. The few queries past REPEAT_LIMIT_S would
        take as long again through the cache; record.py compares them."""
        if "sweep ddqn" in self.outputs and "eval ddqn" in self.outputs:
            if self.outputs["sweep ddqn"][self.scenario.t_limit - 1][1] != self.outputs["eval ddqn"]:
                self.problems.append("sweep ddqn: the row at t_limit differs from the eval")
        if not self.answers:
            return
        recorded = [None] * len(self.pool)
        if self.expected is not None:
            recorded = [entry["costs"] for entry in self.expected["abduce"]]
            if [sorted(f) for f in self.pool] != [e["facts"] for e in self.expected["abduce"]]:
                self.problems.append("abduce: query pool differs from the recorded one")
                return
        cache = abduction.ExplainCache(self.dataset.rules, self.dataset.config)
        claim = self.dataset.claim
        for i, (facts, costs) in enumerate(zip(self.pool, recorded)):
            got = self.answers[i]
            if got is None:
                continue
            if costs is not None and not all(map(_same, got, costs)):
                self.problems.append(f"abduce {sorted(facts)}: {got} != recorded {costs}")
            if not (self.repeats(i) or self.expected is None):
                continue
            cached = cache.rationality(facts, claim)
            if not all(map(_same, got, (cached.e_alpha, cached.e_k, cached.e_joint))):
                self.problems.append(f"abduce {sorted(facts)}: differs from ExplainCache.rationality")

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """End-to-end metrics. Each operation repeats identical work, so its
        time is the mean of its repetitions, which spreads the machine's
        speed drift over the whole run; a query's latency is its mean over
        the passes. ``setup_s`` is the median of the run's set-ups."""
        mean = {key: statistics.fmean(values) for key, values in self.samples.items()}
        out = {"setup_s": statistics.median(self.samples["setup_s"]), "train_s": mean["train_s"]}
        out["train_steps_per_s"] = mean["train_steps"] / mean["train_s"]
        for kind in STRATEGIES:
            out[f"eval_{kind}_s"] = mean[f"eval_{kind}_s"]
            out[f"sweep_{kind}_s"] = mean[f"sweep_{kind}_s"]
        # An abandoned query counts as slower than any limit, and as taking
        # QUERY_CAP_S in a pass.
        latency = sorted(statistics.fmean(v) for v in self.latency.values())
        tail = latency[tail_index(len(latency))]
        completed = [x for x in latency if math.isfinite(x)]
        pass_s = sum(completed) + QUERY_CAP_S * (len(latency) - len(completed))
        out["abduce_p50_ms"] = 1e3 * statistics.median(latency)
        out["abduce_p80_ms"] = 1e3 * min(tail, QUERY_CAP_S)
        out["abduce_queries_per_s"] = len(completed) / pass_s
        return out

    def all_outputs(self) -> dict[str, object]:
        return {**self.outputs, "abduce": dict(self.answers)}
