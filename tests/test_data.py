"""Dataset generation, serialization round trips, and loader validation."""

import dataclasses
import math

import pytest

from argseek.abduction import ExplainCache
from argseek.data import (
    GenParams,
    build_synthetic,
    build_toy,
    generate_synthetic,
    load_dataset,
    save_dataset,
)

SMALL = dict(n_facts=30, n_rules=12, ka_count=12, ka_size=5, train_count=8, seed=1)


class TestGenParams:
    def test_defaults_are_valid(self):
        params = GenParams()
        assert params.backbone_atoms() == 15
        assert params.backbone_rules() == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ka_count": 0},
            {"ka_size": 0},
            {"n_facts": 20, "ka_size": 20},  # ka_size must leave out the claim
            {"train_count": 0},
            {"ka_count": 10, "train_count": 10},
            {"max_premises": 1},
            {"backbone_weights": (0.8, 0.9)},  # one weight per level
            {"n_facts": 15},  # no room beyond the backbone tree
            {"n_rules": 7},
            {"n_facts": 18, "n_rules": 12, "ka_size": 5, "train_count": 2,
             "ka_count": 5},  # more distractor rules than atoms to conclude
        ],
    )
    def test_invalid_shapes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GenParams(**{**dict(seed=0), **kwargs})


@pytest.fixture(scope="module")
def benchmark_small():
    return build_synthetic(GenParams(**SMALL))


class TestBuildSynthetic:
    def test_default_shape(self):
        ds = build_synthetic(GenParams())
        assert len(ds.universe) == 122
        assert len(ds.rules) == 72
        assert len(ds.kas) == 550
        assert all(len(ka) == 20 for ka in ds.kas)
        assert ds.claim == "q000"
        assert ds.train_count == 500
        assert len(ds.train_kas) == 500
        assert len(ds.test_kas) == 50
        assert ds.theta_r == 0.7
        assert ds.t_limit == 10

    def test_backbone_tree_structure(self, benchmark_small):
        rules = benchmark_small.rules
        assert rules[0].conclusion == "q000"
        assert rules[0].premises == ("q001", "q002")
        assert rules[0].total_weight == pytest.approx(0.8)
        assert rules[1].premises == ("q003", "q004")
        assert rules[2].premises == ("q005", "q006")
        level2 = [rules[i] for i in range(3, 7)]
        assert [r.conclusion for r in level2] == ["q003", "q004", "q005", "q006"]
        for r in level2:
            assert r.total_weight == pytest.approx(0.9)

    def test_distractor_rules_are_inert(self, benchmark_small):
        n_backbone = GenParams(**SMALL).backbone_rules()
        distractors = benchmark_small.rules[n_backbone:]
        assert distractors
        for rule in distractors:
            assert all(w > 1.0 for w in rule.premise_weights)

    def test_claim_adjacent_distractors(self, benchmark_small):
        n_backbone = GenParams(**SMALL).backbone_rules()
        distractors = benchmark_small.rules[n_backbone:]
        touching_claim = [r for r in distractors if "q000" in r.premises]
        assert len(touching_claim) == 3

    def test_kas_exclude_claim_and_stay_in_universe(self, benchmark_small):
        universe = set(benchmark_small.universe)
        for ka in benchmark_small.kas:
            assert benchmark_small.claim not in ka
            assert ka <= universe

    def test_every_atom_has_question_text(self, benchmark_small):
        assert set(benchmark_small.questions) == set(benchmark_small.universe)

    def test_same_seed_reproduces(self):
        a = build_synthetic(GenParams(**SMALL))
        b = build_synthetic(GenParams(**SMALL))
        assert a.universe == b.universe
        assert a.rules == b.rules
        assert a.kas == b.kas

    def test_different_seed_differs(self):
        a = build_synthetic(GenParams(**SMALL))
        b = build_synthetic(GenParams(**{**SMALL, "seed": 2}))
        assert a.kas != b.kas


@pytest.fixture(scope="module")
def bench():
    ds = build_synthetic(GenParams())
    return ds, ExplainCache(ds.rules, ds.config)


class TestBenchmarkEconomics:
    """Explanation-cost landscape the generator is designed to produce.

    The claim's own best explanation assumes the eight leaves of its
    backbone tree (cost 8 * 10 * 0.4 * 0.45 * 0.45 = 6.48). Two collected
    facts from different backbone branches push normalized rationality
    over the 0.7 threshold; single facts, nested ancestor pairs, and any
    distractor in the collected set stay below it.
    """

    def test_claim_explanation_cost(self, bench):
        ds, cache = bench
        assert math.isclose(
            cache.explain({ds.claim}).total_cost, 6.48, rel_tol=1e-9
        )

    def test_sibling_backbone_pair_succeeds(self, bench):
        ds, cache = bench
        assert cache.rationality(frozenset({"q001", "q002"}), ds.claim).r_norm >= 0.7
        assert cache.rationality(frozenset({"q003", "q006"}), ds.claim).r_norm >= 0.7

    def test_single_backbone_fact_fails(self, bench):
        ds, cache = bench
        for atom in ("q001", "q003", "q007"):
            assert cache.rationality(frozenset({atom}), ds.claim).r_norm < 0.7

    def test_nested_ancestor_pair_fails(self, bench):
        ds, cache = bench
        # q003 sits below q001 in the same branch; the pair is redundant.
        assert cache.rationality(frozenset({"q001", "q003"}), ds.claim).r_norm < 0.7

    def test_distractor_dilutes_good_pair(self, bench):
        ds, cache = bench
        junk = ds.universe[-1]
        r = cache.rationality(frozenset({"q001", "q002", junk}), ds.claim)
        assert r.r_norm < 0.7

    def test_distractors_alone_score_zero(self, bench):
        ds, cache = bench
        junk = frozenset(ds.universe[-3:])
        assert cache.rationality(junk, ds.claim).r_norm == 0.0


class TestRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path, benchmark_small):
        manifest = save_dataset(benchmark_small, tmp_path / "ds")
        loaded = load_dataset(manifest)
        assert tuple(loaded.universe) == benchmark_small.universe
        assert tuple(loaded.rules) == benchmark_small.rules
        assert loaded.claim == benchmark_small.claim
        assert loaded.kas == benchmark_small.kas
        assert loaded.train_count == benchmark_small.train_count
        assert loaded.theta_r == benchmark_small.theta_r
        assert loaded.t_limit == benchmark_small.t_limit
        assert loaded.r_goal == benchmark_small.r_goal
        assert loaded.r_time == benchmark_small.r_time
        assert loaded.config == benchmark_small.config
        assert loaded.questions == benchmark_small.questions

    def test_load_of_save_equals_built_dataset(self, tmp_path, toy, benchmark_small):
        # Loading gives the same field types the generators build, tuples
        # included, so the whole record compares equal.
        default = build_synthetic(GenParams())
        for name, built in (("toy", toy), ("small", benchmark_small), ("default", default)):
            loaded = load_dataset(save_dataset(built, tmp_path / name))
            assert type(loaded.universe) is tuple and type(loaded.rules) is tuple
            assert loaded == built

    def test_generate_writes_expected_files(self, tmp_path):
        manifest = generate_synthetic(GenParams(**SMALL), tmp_path / "ds")
        base = manifest.parent
        assert (base / "facts.txt").is_file()
        assert (base / "rules.txt").is_file()
        assert (base / "questions.tsv").is_file()
        lines = (base / "kas.txt").read_text().splitlines()
        assert len(lines) == SMALL["ka_count"]
        assert not (base / "ka").exists()

    def test_generation_is_byte_deterministic(self, tmp_path):
        m1 = generate_synthetic(GenParams(**SMALL), tmp_path / "a")
        m2 = generate_synthetic(GenParams(**SMALL), tmp_path / "b")
        for name in ("facts.txt", "rules.txt", "questions.tsv", "manifest.txt",
                     "kas.txt"):
            assert (m1.parent / name).read_bytes() == (m2.parent / name).read_bytes()

    def test_kas_file_holds_one_sorted_set_per_line(self, tmp_path, toy):
        # A blank line is an empty set, so line n stays kas[n-1].
        ds = dataclasses.replace(toy, kas=toy.kas[:1] + (frozenset(),) + toy.kas[2:])
        manifest = save_dataset(ds, tmp_path / "toy")
        lines = (manifest.parent / "kas.txt").read_text().splitlines()
        assert lines[0] == " ".join(sorted(toy.kas[0]))
        assert lines[1] == ""
        assert load_dataset(manifest) == ds

    def test_regenerate_into_same_directory(self, tmp_path):
        # A second, smaller generation into the same directory must leave
        # nothing of the first behind for the loader to pick up.
        second = GenParams(**{**SMALL, "ka_count": 10, "seed": 2})
        generate_synthetic(GenParams(**SMALL), tmp_path / "ds")
        manifest = generate_synthetic(second, tmp_path / "ds")
        assert load_dataset(manifest) == build_synthetic(second)


class TestLoaderValidation:
    @pytest.fixture
    def ds_dir(self, tmp_path, benchmark_small):
        return save_dataset(benchmark_small, tmp_path / "ds").parent

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope" / "manifest.txt")

    def test_missing_required_keys(self, ds_dir):
        (ds_dir / "manifest.txt").write_text("facts_file = facts.txt\n")
        with pytest.raises(ValueError, match="missing manifest keys"):
            load_dataset(ds_dir / "manifest.txt")

    def test_manifest_line_without_equals(self, ds_dir):
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(manifest.read_text() + "not a key value line\n")
        with pytest.raises(ValueError, match="key = value"):
            load_dataset(manifest)

    def test_claim_must_be_a_fact(self, ds_dir):
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(
            manifest.read_text().replace("claim = q000", "claim = zz")
        )
        with pytest.raises(ValueError, match="claim") as err:
            load_dataset(manifest)
        assert str(err.value).startswith(
            f"{manifest}: claim: 'zz' is not in {ds_dir / 'facts.txt'}"
        )

    def test_ka_atom_outside_universe(self, ds_dir):
        kas_file = ds_dir / "kas.txt"
        kas_file.write_text("q001 zz\n" + kas_file.read_text().split("\n", 1)[1])
        with pytest.raises(ValueError, match="outside the universe") as err:
            load_dataset(ds_dir / "manifest.txt")
        assert str(err.value) == f"{kas_file}:1: atoms outside the universe: ['zz']"

    def test_ka_containing_claim(self, ds_dir):
        kas_file = ds_dir / "kas.txt"
        kas_file.write_text("q000 q001\n" + kas_file.read_text().split("\n", 1)[1])
        with pytest.raises(ValueError, match="contains the claim") as err:
            load_dataset(ds_dir / "manifest.txt")
        assert str(err.value) == f"{kas_file}:1: answerer set contains the claim"

    def test_empty_kas_file(self, ds_dir):
        (ds_dir / "kas.txt").write_text("")
        with pytest.raises(ValueError) as err:
            load_dataset(ds_dir / "manifest.txt")
        assert str(err.value) == f"{ds_dir / 'kas.txt'}: no answerer sets found"

    @pytest.mark.parametrize(
        "name", ["manifest.txt", "facts.txt", "rules.txt", "kas.txt", "questions.tsv"]
    )
    def test_undecodable_byte_names_file_and_line(self, ds_dir, name):
        path = ds_dir / name
        lines = path.read_bytes().split(b"\n")
        lines[1] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as err:
            load_dataset(ds_dir / "manifest.txt")
        assert str(err.value).startswith(f"{path}:2: not UTF-8 text")

    def test_bad_train_split(self, ds_dir):
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(
            manifest.read_text().replace("train_count = 8", "train_count = 12")
        )
        with pytest.raises(ValueError, match="train_count") as err:
            load_dataset(manifest)
        assert str(err.value).startswith(
            f"{manifest}: train_count: 12 does not split 12 answerer sets"
        )

    def test_missing_ka_file(self, ds_dir):
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(
            manifest.read_text().replace("ka_file = kas.txt", "ka_file = kb.txt")
        )
        with pytest.raises(FileNotFoundError) as err:
            load_dataset(manifest)
        assert str(ds_dir / "kb.txt") in str(err.value)

    def test_old_ka_dir_manifest_rejected(self, ds_dir):
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(
            manifest.read_text().replace("ka_file = kas.txt", "ka_dir = ka")
        )
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        assert str(err.value) == f"{manifest}:3: unknown manifest key 'ka_dir'"

    def test_misspelled_key_names_line(self, ds_dir):
        # Ignored, the misspelling would leave theta_R at a placeholder.
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("theta_R = 0.7", "theta_r = 0.99"))
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        assert str(err.value) == f"{manifest}:5: unknown manifest key 'theta_r'"

    def test_repeated_key_names_line(self, ds_dir):
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(manifest.read_text() + "t_limit = 3\n")
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        assert str(err.value) == f"{manifest}:12: repeated manifest key 't_limit'"

    def test_every_written_key_required(self, ds_dir):
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("theta_R = 0.7\n", ""))
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        assert str(err.value) == f"{manifest}: missing manifest keys ['theta_R']"

    def test_rule_over_unknown_atom_names_line(self, ds_dir):
        rules_file = ds_dir / "rules.txt"
        rules_file.write_text(rules_file.read_text() + "zz & q001 -> q000 :: 1.0\n")
        with pytest.raises(ValueError) as err:
            load_dataset(ds_dir / "manifest.txt")
        assert str(err.value) == f"{rules_file}:13: rule references unknown atom 'zz'"

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("t_limit = 10", "t_limit = ten", "t_limit: invalid literal for int()"),
            ("theta_R = 0.7", "theta_R = 1.5", "theta_R: theta_r must lie in (0, 1]"),
            ("obs_cost = 10.0", "obs_cost = 0", "obs_cost: obs_cost must be positive"),
            ("obs_cost = 10.0", "obs_cost = nan", "obs_cost: obs_cost must be positive and finite"),
            ("obs_cost = 10.0", "obs_cost = inf", "obs_cost: obs_cost must be positive and finite"),
            ("r_goal = 100.0", "r_goal = lots", "r_goal: could not convert"),
            ("r_goal = 100.0", "r_goal = inf", "r_goal: r_goal and r_time must be finite"),
            ("r_goal = 100.0", "r_goal = nan", "r_goal: r_goal and r_time must be finite"),
            ("r_time = -1.0", "r_time = -inf", "r_time: r_goal and r_time must be finite"),
            ("train_count = 8", "train_count = eight", "train_count: invalid literal"),
        ],
        ids=[
            "t_limit", "theta_R", "obs_cost", "obs_cost-nan", "obs_cost-inf", "r_goal",
            "r_goal-inf", "r_goal-nan", "r_time-inf", "train_count",
        ],
    )
    def test_bad_value_names_manifest_and_key(self, ds_dir, old, new, message):
        manifest = ds_dir / "manifest.txt"
        assert old in manifest.read_text()
        manifest.write_text(manifest.read_text().replace(old, new))
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        assert str(err.value).startswith(f"{manifest}: {message}")

    def test_universe_of_only_the_claim_names_facts_file(self, ds_dir):
        (ds_dir / "facts.txt").write_text("q000\n")
        (ds_dir / "rules.txt").write_text("")
        (ds_dir / "kas.txt").write_text("\n" * SMALL["ka_count"])
        with pytest.raises(ValueError) as err:
            load_dataset(ds_dir / "manifest.txt")
        assert str(err.value) == (
            f"{ds_dir / 'facts.txt'}: atom universe has no atom besides the claim to ask"
        )

    def test_malformed_questions_file(self, ds_dir):
        (ds_dir / "questions.tsv").write_text("q001\tonly two fields\n")
        with pytest.raises(ValueError, match="3 tab-separated"):
            load_dataset(ds_dir / "manifest.txt")

    def test_missing_questions_file_names_manifest_and_key(self, ds_dir):
        # Unchecked, a misnamed questions file would load with no questions.
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(manifest.read_text() + "questions_file = q.tsv\n")
        with pytest.raises(FileNotFoundError) as err:
            load_dataset(manifest)
        assert str(err.value) == (
            f"{manifest}: questions_file: no such file {ds_dir / 'q.tsv'}"
        )

    def test_named_questions_file_is_read(self, ds_dir, benchmark_small):
        (ds_dir / "questions.tsv").rename(ds_dir / "q.tsv")
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(manifest.read_text() + "questions_file = q.tsv\n")
        assert load_dataset(manifest).questions == benchmark_small.questions

    def test_question_atom_outside_universe_names_line(self, ds_dir):
        q_file = ds_dir / "questions.tsv"
        q_file.write_text(q_file.read_text() + "zz\tIs zz known?\tzz holds.\n")
        lineno = len(q_file.read_text().splitlines())
        with pytest.raises(ValueError) as err:
            load_dataset(ds_dir / "manifest.txt")
        assert str(err.value) == (
            f"{q_file}:{lineno}: atom 'zz' is not in {ds_dir / 'facts.txt'}"
        )

    def test_repeated_question_atom_names_line(self, ds_dir):
        # Unchecked, the later row would silently replace the earlier one.
        q_file = ds_dir / "questions.tsv"
        q_file.write_text(q_file.read_text() + "q001\tAgain?\tAgain.\n")
        lineno = len(q_file.read_text().splitlines())
        with pytest.raises(ValueError) as err:
            load_dataset(ds_dir / "manifest.txt")
        assert str(err.value) == f"{q_file}:{lineno}: repeated atom 'q001'"


class TestToyDomain:
    def test_shape(self, toy):
        assert toy.universe == ("c", "d1", "d2", "d3", "x1", "x2", "x3", "x4", "x5", "x6")
        assert toy.claim == "c"
        assert len(toy.rules) == 1
        assert toy.rules[0].premises == ("d1", "d2", "d3")
        assert len(toy.kas) == 110
        assert toy.train_count == 60
        assert toy.theta_r == 0.65
        assert toy.t_limit == 4

    def test_every_ka_contains_the_needed_facts(self, toy):
        for ka in toy.kas:
            assert {"d1", "d2", "d3"} <= ka
            assert len(ka) == 6  # plus three of the six distractors

    def test_deterministic_per_seed(self):
        assert build_toy(seed=4).kas == build_toy(seed=4).kas
        assert build_toy(seed=4).kas != build_toy(seed=5).kas

    def test_round_trip(self, tmp_path, toy):
        manifest = save_dataset(toy, tmp_path / "toy")
        loaded = load_dataset(manifest)
        assert tuple(loaded.universe) == toy.universe
        assert loaded.kas == toy.kas
        assert loaded.theta_r == toy.theta_r
