"""End-to-end command line flows on the toy dataset."""

import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from argseek import abduction
from argseek.agents.qnet import init_qnet, load_qnet, save_qnet
from argseek.cli import main
from argseek.data import load_dataset


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def oracle_path(tmp_path_factory, toy_oracle_model):
    path = tmp_path_factory.mktemp("models") / "oracle.txt"
    save_qnet(toy_oracle_model, path)
    return str(path)


class TestGen:
    def test_toy_dataset(self, runner, tmp_path):
        out = tmp_path / "toy"
        result = runner.invoke(main, ["gen", "--toy", "--out", str(out)])
        assert result.exit_code == 0, result.output
        ds = load_dataset(result.output.strip())
        assert len(ds.universe) == 10
        assert len((out / "kas.txt").read_text().splitlines()) == 110

    def test_synthetic_dataset(self, runner, tmp_path):
        out = tmp_path / "bench"
        result = runner.invoke(
            main,
            ["gen", "--out", str(out), "--facts", "30", "--rules", "12",
             "--ka", "12", "--ka-size", "5", "--train", "8", "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        ds = load_dataset(out / "manifest.txt")
        assert len(ds.universe) == 30
        assert len(ds.kas) == 12

    def test_impossible_shape_fails_cleanly(self, runner, tmp_path):
        result = runner.invoke(
            main, ["gen", "--out", str(tmp_path / "x"), "--facts", "10"]
        )
        assert result.exit_code != 0
        assert "Error" in result.output


class TestTrain:
    def test_writes_loadable_model(self, runner, toy_dir, tmp_path):
        out = tmp_path / "model.txt"
        result = runner.invoke(
            main,
            ["train", "--data", str(toy_dir), "--episodes", "2", "--seed", "0",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        params = load_qnet(out)
        assert params.layer_dims == (19, 50, 50, 9)

    def test_missing_dataset_fails(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["train", "--data", str(tmp_path / "none"), "--out",
             str(tmp_path / "m.txt")],
        )
        assert result.exit_code != 0

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_episodes_below_one_rejected(self, runner, toy_dir, tmp_path, episodes):
        out = tmp_path / "model.txt"
        result = runner.invoke(
            main,
            ["train", "--data", str(toy_dir), "--episodes", episodes, "--out", str(out)],
        )
        assert result.exit_code != 0
        assert "--episodes" in result.output
        assert not out.exists()


class TestEval:
    def test_oracle_model_metrics(self, runner, toy_dir, oracle_path):
        result = runner.invoke(
            main,
            ["eval", "--data", str(toy_dir), "--strategy", "ddqn",
             "--model", oracle_path, "--seeds", "0"],
        )
        assert result.exit_code == 0, result.output
        assert result.output == (
            "strategy,avg_score,stderr,completed,avg_steps\n"
            "ddqn,97.0,0.0,50,3.0\n"
        )

    def test_repeat_runs_are_byte_identical(self, runner, toy_dir):
        args = ["eval", "--data", str(toy_dir), "--strategy", "random",
                "--seeds", "0,1"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
        assert first.output.startswith("strategy,avg_score,stderr,completed,avg_steps\n")

    def test_tlimit_override(self, runner, toy_dir):
        result = runner.invoke(
            main,
            ["eval", "--data", str(toy_dir), "--strategy", "random",
             "--seeds", "0", "--t-limit", "1"],
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[1] == "random,-1.0,0.0,0,1.0"

    def test_out_flag_writes_file(self, runner, toy_dir, tmp_path):
        out = tmp_path / "metrics.csv"
        stdout_run = runner.invoke(
            main, ["eval", "--data", str(toy_dir), "--strategy", "bfs",
                   "--seeds", "2"],
        )
        file_run = runner.invoke(
            main, ["eval", "--data", str(toy_dir), "--strategy", "bfs",
                   "--seeds", "2", "--out", str(out)],
        )
        assert stdout_run.exit_code == file_run.exit_code == 0
        assert out.read_text() == stdout_run.output

    def test_ddqn_without_model_fails(self, runner, toy_dir):
        result = runner.invoke(
            main, ["eval", "--data", str(toy_dir), "--strategy", "ddqn"]
        )
        assert result.exit_code != 0
        assert "--model" in result.output

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_model_with_baseline_refused(self, runner, toy_dir, oracle_path, command):
        # A baseline would run without the model, so the flag is a mistake.
        result = runner.invoke(
            main,
            [command, "--data", str(toy_dir), "--strategy", "random", "--model", oracle_path],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "--model" in result.output

    def test_model_count_must_match_seeds(self, runner, toy_dir, oracle_path):
        result = runner.invoke(
            main,
            ["eval", "--data", str(toy_dir), "--strategy", "ddqn",
             "--model", oracle_path, "--model", oracle_path, "--seeds", "0,1,2"],
        )
        assert result.exit_code != 0
        assert "per seed" in result.output

    def test_single_model_shared_across_seeds(self, runner, toy_dir, oracle_path):
        result = runner.invoke(
            main,
            ["eval", "--data", str(toy_dir), "--strategy", "ddqn",
             "--model", oracle_path, "--seeds", "0,1,2"],
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[1] == "ddqn,97.0,0.0,150,3.0"

    @pytest.mark.parametrize(
        "dims, wrong",
        [((19, 4, 5), "19 inputs to 5 actions"), ((21, 4, 9), "21 inputs to 9 actions")],
    )
    @pytest.mark.parametrize("command", ["eval", "sweep", "transcript"])
    def test_model_dims_must_fit_dataset(self, runner, toy_dir, tmp_path, dims, wrong, command):
        path = tmp_path / "misfit.txt"
        save_qnet(init_qnet(dims, np.random.default_rng(0)), path)
        args = [command, "--data", str(toy_dir), "--model", str(path)]
        args += ["--ka", "0"] if command == "transcript" else ["--strategy", "ddqn"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
        assert str(path) in result.output
        assert wrong in result.output
        assert "dataset has 19 features and 9 actions" in result.output

    def test_bad_seed_list_fails(self, runner, toy_dir):
        result = runner.invoke(
            main, ["eval", "--data", str(toy_dir), "--strategy", "random",
                   "--seeds", "0,x"],
        )
        assert result.exit_code != 0

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_repeated_seed_rejected(self, runner, toy_dir, oracle_path, tmp_path, command):
        # Models are keyed by seed, so a repeated seed would drop a model.
        other = tmp_path / "other.txt"
        save_qnet(init_qnet((19, 9), np.random.default_rng(0)), other)
        for extra in (["--strategy", "random"],
                      ["--strategy", "ddqn", "--model", oracle_path, "--model", str(other)]):
            result = runner.invoke(
                main, [command, "--data", str(toy_dir), "--seeds", "0,0", *extra]
            )
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            assert "--seeds" in result.output

    @pytest.mark.parametrize("command, seeds", [("eval", "-1"), ("sweep", "0,-2")])
    def test_negative_seed_in_list_rejected(self, runner, toy_dir, command, seeds):
        for args, env in (
            (["--seeds", seeds], {}),
            ([], {"ARGSEEK_SEED": seeds}),
        ):
            result = runner.invoke(
                main, [command, "--data", str(toy_dir), "--strategy", "random", *args],
                env=env,
            )
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            assert "--seeds" in result.output

    @pytest.mark.parametrize("command", ["gen", "train", "transcript"])
    def test_negative_seed_flag_rejected(self, runner, toy_dir, oracle_path, tmp_path, command):
        args = {
            "gen": ["--toy", "--out", str(tmp_path / "toy")],
            "train": ["--data", str(toy_dir), "--episodes", "1", "--out", str(tmp_path / "m")],
            "transcript": ["--data", str(toy_dir), "--model", oracle_path, "--ka", "0"],
        }[command]
        for extra, env in ((["--seed", "-3"], {}), ([], {"ARGSEEK_SEED": "-1"})):
            result = runner.invoke(main, [command, *args, *extra], env=env)
            assert result.exit_code == 2
            assert "--seed" in result.output
            assert not (tmp_path / "toy").exists() and not (tmp_path / "m").exists()

    @pytest.mark.parametrize(
        "command, flag", [("eval", "--t-limit"), ("sweep", "--max-tlimit")]
    )
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_time_limit_below_one_rejected(self, runner, toy_dir, command, flag, value):
        result = runner.invoke(
            main, [command, "--data", str(toy_dir), "--strategy", "random", flag, value]
        )
        assert result.exit_code == 2
        assert flag in result.output

    def test_unknown_strategy_fails(self, runner, toy_dir):
        result = runner.invoke(
            main, ["eval", "--data", str(toy_dir), "--strategy", "astar"]
        )
        assert result.exit_code != 0

    def test_seed_env_variable_provides_default(self, runner, toy_dir):
        explicit = runner.invoke(
            main, ["eval", "--data", str(toy_dir), "--strategy", "random",
                   "--seeds", "3"],
        )
        via_env = runner.invoke(
            main, ["eval", "--data", str(toy_dir), "--strategy", "random"],
            env={"ARGSEEK_SEED": "3"},
        )
        assert via_env.exit_code == 0
        assert via_env.output == explicit.output


class TestSweep:
    def test_csv_shape_and_monotonicity(self, runner, toy_dir):
        result = runner.invoke(
            main,
            ["sweep", "--data", str(toy_dir), "--strategy", "random",
             "--seeds", "0,1", "--max-tlimit", "4"],
        )
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[0] == "t_limit,strategy,completed"
        assert len(lines) == 5
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert counts == sorted(counts)

    def test_repeat_runs_are_byte_identical(self, runner, toy_dir):
        args = ["sweep", "--data", str(toy_dir), "--strategy", "bfs",
                "--seeds", "0", "--max-tlimit", "3"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


class TestTranscript:
    def test_replays_a_successful_dialogue(self, runner, toy_dir, oracle_path):
        result = runner.invoke(
            main,
            ["transcript", "--data", str(toy_dir), "--model", oracle_path,
             "--ka", "0"],
        )
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[0] == "step\tspeaker\tquestion\tanswer\trationality"
        assert lines[1] == "1\tQ\tIs d1 known to hold?\td1 holds.\t0.4000000000000001"
        assert lines[-1] == "# outcome: success"

    def test_ka_index_out_of_range(self, runner, toy_dir, oracle_path):
        result = runner.invoke(
            main,
            ["transcript", "--data", str(toy_dir), "--model", oracle_path,
             "--ka", "9999"],
        )
        assert result.exit_code != 0
        assert "out of range" in result.output

    def test_second_model_refused(self, runner, toy_dir, oracle_path):
        # One --seed replays one dialogue, so a second path is a usage error.
        result = runner.invoke(
            main,
            ["transcript", "--data", str(toy_dir), "--model", oracle_path,
             "--model", oracle_path, "--ka", "0"],
        )
        assert result.exit_code == 2
        assert "--model" in result.output


class TestAbduce:
    def test_costs_and_proof(self, runner, toy_dir):
        result = runner.invoke(
            main, ["abduce", "--data", str(toy_dir), "--facts", "d1,d2"]
        )
        assert result.exit_code == 0, result.output
        out = result.output
        assert "E_alpha = 10.0\n" in out
        assert "E_k = 20.0\n" in out
        assert "E_joint = 11.999999999999998\n" in out
        assert "R = 18.0\n" in out
        assert "R_norm = 0.6\n" in out
        assert "support_facts = ['d1', 'd2']\n" in out
        assert "assumptions = ['d3']\n" in out
        assert "ASSUME" in out
        assert "d1 & d2 & d3 -> c :: 1.2" in out

    def test_no_facts_scores_zero(self, runner, toy_dir):
        result = runner.invoke(main, ["abduce", "--data", str(toy_dir)])
        assert result.exit_code == 0
        assert "R_norm = 0.0\n" in result.output

    def test_each_proof_computed_once(self, runner, toy_dir, monkeypatch):
        # E_alpha, E_k and E_joint need three explanations; the printed
        # joint proof is the one behind E_joint.
        calls = []
        real_explain = abduction.explain

        def counting_explain(*args, **kwargs):
            calls.append(1)
            return real_explain(*args, **kwargs)

        monkeypatch.setattr(abduction, "explain", counting_explain)
        result = runner.invoke(
            main, ["abduce", "--data", str(toy_dir), "--facts", "d1,d2"]
        )
        assert result.exit_code == 0, result.output
        assert len(calls) == 3

    def test_spaces_after_commas_ignored(self, runner, toy_dir):
        spaced = runner.invoke(
            main, ["abduce", "--data", str(toy_dir), "--facts", " d1, d2 "]
        )
        plain = runner.invoke(
            main, ["abduce", "--data", str(toy_dir), "--facts", "d1,d2"]
        )
        assert spaced.exit_code == 0, spaced.output
        assert spaced.output == plain.output

    def test_unknown_fact_fails(self, runner, toy_dir):
        result = runner.invoke(
            main, ["abduce", "--data", str(toy_dir), "--facts", "d1,zz"]
        )
        assert result.exit_code != 0
        assert "outside the universe" in result.output

    @pytest.mark.parametrize("args", [["--facts", "c"], ["--facts", "d1,d2", "--claim", "d2"]])
    def test_claim_among_facts_fails(self, runner, toy_dir, args):
        # No dialogue can collect the claim, and load_dataset refuses
        # answerer sets that hold it.
        result = runner.invoke(main, ["abduce", "--data", str(toy_dir), *args])
        assert result.exit_code == 1
        claim = args[-1]
        assert f"--facts holds the claim {claim!r}" in result.output
        assert "R_norm" not in result.output

    def test_repeated_premise_fails_naming_file_and_line(self, runner, toy_dir, tmp_path):
        # Loaded, this line would split its weight four ways and quietly
        # change every score.
        data_dir = tmp_path / "toy"
        shutil.copytree(toy_dir, data_dir)
        (data_dir / "rules.txt").write_text("d1 & d1 & d2 & d3 -> c\n")
        result = runner.invoke(main, ["abduce", "--data", str(data_dir), "--facts", "d1,d2"])
        assert result.exit_code == 1
        assert "rules.txt:1: rule 'c' repeats premise 'd1'" in result.output
        assert "R_norm" not in result.output

    def test_unknown_claim_fails(self, runner, toy_dir):
        result = runner.invoke(
            main, ["abduce", "--data", str(toy_dir), "--claim", "zz"]
        )
        assert result.exit_code != 0


class TestResourceCaps:
    @pytest.mark.parametrize(
        "args",
        [["abduce", "--facts", "d1,d2"], ["eval", "--strategy", "random"]],
        ids=["abduce", "eval"],
    )
    def test_node_cap_fails_with_the_count(self, runner, toy_dir, monkeypatch, args):
        monkeypatch.setattr(abduction, "_MAX_NODES", 1)
        result = runner.invoke(main, [args[0], "--data", str(toy_dir), *args[1:]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert "visited 2 nodes, above the cap of 1" in result.output
        assert "R_norm" not in result.output
