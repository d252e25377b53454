import configparser
import os
import subprocess
import sys
from pathlib import Path

import pytest

from imnav import agent as ag
from imnav import evaluation as ev
from imnav import harness
from imnav import imagination as im
from imnav import training as tr
from imnav import world as wd
from imnav.errors import ConfigurationError, InputError

ROOT = Path(__file__).resolve().parent.parent
SMALL_AGENT = "d = 32\nheads = 2\ncross_layers = 1\n"


def run_cli(args):
    return harness.main([str(a) for a in args])


def run_harness(*args, blas_threads=None):
    """`python -m imnav.harness ARGS` in a child process that imports imnav
    from this checkout's src/ whether or not the package is installed; with
    `blas_threads`, the child's BLAS thread variables are set to it."""
    env = dict(os.environ)
    if blas_threads is not None:
        env.update(dict.fromkeys(harness.BLAS_THREAD_VARS, str(blas_threads)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "imnav.harness", *map(str, args)],
                          capture_output=True, text=True, env=env)


def write_spec(tmp_path, conditions="baseline imagine", seeds="1 2", data_seed=0, world="",
               sizes=(6, 3, 3), agent="", train="base_iterations = 8\niterations = 8\n"):
    """An experiment spec file; `world`, `agent` and `train` hold extra lines
    of their sections, and `sizes` the three split sizes."""
    path = tmp_path / "exp.cfg"
    path.write_text(
        "[experiment]\n"
        f"name = t\nseeds = {seeds}\nconditions = {conditions}\ndata_seed = {data_seed}\n"
        "[world]\n" + world
        + "train_worlds = {}\nval_seen_worlds = {}\nval_unseen_worlds = {}\n".format(*sizes)
        + ("[agent]\n" + agent if agent else "") + "[train]\n" + train)
    return path


def gen_dataset(tmp_path, split="train", count=6, seed=3, prefix=None, world_flags=()):
    prefix = prefix or split
    worlds = tmp_path / f"{prefix}_worlds.txt"
    corpus = tmp_path / f"{prefix}_corpus.txt"
    imags = tmp_path / f"{prefix}_imag.txt"
    assert run_cli(["gen-world", "--split", split, "--count", count,
                    "--seed", seed, "--out", worlds, *world_flags]) == 0
    assert run_cli(["gen-corpus", "--worlds", worlds, "--seed", seed + 1, "--out", corpus]) == 0
    assert run_cli(["imagine", "--worlds", worlds, "--corpus", corpus, "--seed", seed + 2,
                    "--out", imags]) == 0
    return worlds, corpus, imags


@pytest.fixture(scope="module")
def probe_inputs(tmp_path_factory):
    """probe-attention's input flags: a 6-episode split and a baseline
    checkpoint trained on it."""
    tmp_path = tmp_path_factory.mktemp("probe")
    worlds, corpus, imags = gen_dataset(tmp_path)
    ckpt = tmp_path / "a.ckpt"
    spec = write_spec(tmp_path, agent=SMALL_AGENT, train="base_iterations = 6\n")
    assert run_cli(["train", "--spec", spec, "--condition", "baseline", "--worlds", worlds,
                    "--corpus", corpus, "--imaginations", imags, "--seed", "5",
                    "--out", ckpt]) == 0
    return ["--ckpt", ckpt, "--worlds", worlds, "--corpus", corpus, "--imaginations", imags]


class TestCli:
    def test_gen_world_deterministic_files(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            code = harness.main(["gen-world", "--seed", "7", "--count", "4", "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_flag_exits_2(self):
        proc = run_harness("gen-world", "--bogus-flag", "1")
        assert proc.returncode == 2 and proc.stderr.startswith("usage: imnav gen-world")

    def test_eval_requires_checkpoint_flag(self):
        proc = run_harness("eval", "--condition", "imagine", "--worlds", "w", "--corpus", "c",
                           "--imaginations", "i", "--seed", "0", "--out", "m")
        assert proc.returncode == 2 and "--ckpt" in proc.stderr

    def test_seed_required_for_generation(self):
        proc = run_harness("gen-world", "--out", "w.txt")
        assert proc.returncode == 2 and "--seed" in proc.stderr

    @pytest.mark.parametrize("flag", ["--templates", "--lexicon-nouns", "--lexicon-blacklist"])
    def test_asset_path_flags_are_gone(self, tmp_path, flag):
        # the packaged data files are the one source of templates and lexicon
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-corpus", "--worlds", "w", "--seed", "1", "--out", "c", flag, "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--layout", "--n-nodes"])
    def test_removed_layout_flags_are_gone(self, flag):
        # fork worlds are the only layout
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-world", "--seed", "1", "--out", "w", flag, "8"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        ("gen-world", "--mode"), ("train", "--val-worlds"), ("train", "--val-corpus"),
        ("train", "--val-imaginations"), ("train", "--eval-interval")])
    def test_episode_mode_and_mid_training_eval_flags_are_gone(self, command, flag):
        required = ["--spec", "s", "--condition", "baseline", "--worlds", "w", "--corpus", "c",
                    "--imaginations", "i"] * (command == "train")
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *required, "--seed", "1", "--out", "o", flag, "x"])
        assert exc.value.code == 2

    def test_worlds_file_with_coarse_episode_exits_1(self, tmp_path, capsys):
        worlds, _, _ = gen_dataset(tmp_path, count=2)
        lines = worlds.read_text().splitlines()
        idx = next(i for i, line in enumerate(lines) if line.startswith("episode 1 "))
        lines[idx] = lines[idx].replace(" fine ", " coarse ", 1)
        worlds.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["gen-corpus", "--worlds", worlds, "--seed", "1",
                        "--out", tmp_path / "c.txt"]) == 1
        err = capsys.readouterr().err
        assert f":{idx + 1}:" in err and "'coarse'" in err
        assert not (tmp_path / "c.txt").exists()

    def test_report_rejects_the_old_metrics_header(self, tmp_path, capsys):
        path = tmp_path / "old.tsv"
        path.write_text("split\tcondition\tSR\tSPL\tNE\tTL\tRGS\tRGSPL\tn\tseed\n"
                        "val_unseen\timagine\t50.00\t40.00\t1.0\t4.0\t-\t-\t40\t1\n")
        assert run_cli(["report", path, "--out", tmp_path / "r.tsv"]) == 1
        assert "split condition SR SPL NE TL n seed" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    def test_route_longer_than_max_steps_exits_1_before_any_work(self, tmp_path, capsys):
        # seven forks make 15-edge routes: 16 decisions with the stop, one
        # more than AgentConfig.max_steps; six forks still fit
        assert run_cli(["gen-world", "--n-forks", "6", "--count", "1", "--seed", "1",
                        "--out", tmp_path / "w6.txt"]) == 0
        assert run_cli(["gen-world", "--n-forks", "7", "--count", "1", "--seed", "1",
                        "--out", tmp_path / "w7.txt"]) == 1
        assert "n_forks=7" in capsys.readouterr().err and not (tmp_path / "w7.txt").exists()
        with pytest.raises(ConfigurationError, match="n_forks=7"):
            harness.ExperimentSpec(world={"n_forks": 7})

    @pytest.mark.parametrize("count", [0, -2])
    def test_gen_world_count_below_1_exits_1_writing_nothing(self, tmp_path, capsys, count):
        out = tmp_path / "w.txt"
        assert run_cli(["gen-world", "--count", count, "--seed", "1", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"--count {count}" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_file_exits_1(self, tmp_path):
        code = run_cli(["gen-corpus", "--worlds", tmp_path / "nope.txt", "--seed", "1",
                        "--out", tmp_path / "c.txt"])
        assert code == 1

    def test_worlds_file_with_short_episode_path_exits_1(self, tmp_path, capsys):
        worlds, _, _ = gen_dataset(tmp_path, count=2)
        lines = worlds.read_text().splitlines()
        idx = next(i for i, line in enumerate(lines) if line.startswith("episode 1 "))
        lines[idx] = lines[idx].rsplit(" ", 1)[0]     # drop the goal, keep the node count
        worlds.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["gen-corpus", "--worlds", worlds, "--seed", "1",
                        "--out", tmp_path / "c.txt"]) == 1
        assert f":{idx + 1}:" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    def test_unknown_corpus_word_exits_1(self, tmp_path, capsys):
        worlds, corpus, imags = gen_dataset(tmp_path, count=3)
        ckpt = tmp_path / "a.ckpt"
        files = ["--worlds", worlds, "--corpus", corpus, "--imaginations", imags]
        spec = write_spec(tmp_path, agent=SMALL_AGENT, train="base_iterations = 1\n")
        baseline = ["--spec", spec, "--condition", "baseline"]
        assert run_cli(["train", *baseline, *files, "--seed", "5", "--out", ckpt]) == 0
        lines = corpus.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("instr "))
        fields = lines[first].split(" ")
        fields[5] = "stroll"          # instr <idx> <world> <mode> <n> <tokens...>
        lines[first] = " ".join(fields)
        corpus.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["train", *baseline, *files, "--seed", "5",
                        "--out", tmp_path / "b.ckpt"]) == 1
        assert run_cli(["eval", "--ckpt", ckpt, "--condition", "baseline", *files, "--seed", "2",
                        "--out", tmp_path / "m.tsv"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("'stroll'" in line and "instruction 0" in line
                                     for line in err)

    def test_train_eval_flow(self, tmp_path, capsys):
        worlds, corpus, imags = gen_dataset(tmp_path)
        ckpt = tmp_path / "a.ckpt"
        curves = tmp_path / "curves.tsv"
        spec = write_spec(tmp_path, agent=SMALL_AGENT, train="base_iterations = 12\n")
        assert run_cli(["train", "--spec", spec, "--condition", "baseline", "--worlds", worlds,
                        "--corpus", corpus, "--imaginations", imags, "--seed", "5",
                        "--out", ckpt, "--curves", curves]) == 0
        metrics = tmp_path / "m.tsv"
        capsys.readouterr()
        assert run_cli(["eval", "--ckpt", ckpt, "--condition", "baseline", "--worlds", worlds,
                        "--corpus", corpus, "--imaginations", imags, "--seed", "2",
                        "--out", metrics]) == 0
        (rec, cond), = ev.read_metrics(metrics)
        assert rec.count == 6 and cond == "baseline"
        assert curves.read_text().count("\n") >= 12
        # the printed row is the row written
        assert capsys.readouterr().out.splitlines() == metrics.read_text().splitlines()[-1:]

    def test_train_takes_d_v_and_k_views_from_worlds(self, tmp_path):
        worlds, corpus, imags = gen_dataset(tmp_path, count=3,
                                            world_flags=("--d-v", "24", "--k", "8"))
        ckpt = tmp_path / "a.ckpt"
        spec = write_spec(tmp_path, world="d_v = 24\n", agent=SMALL_AGENT,
                          train="base_iterations = 2\n")
        assert run_cli(["train", "--spec", spec, "--condition", "baseline", "--worlds", worlds,
                        "--corpus", corpus, "--imaginations", imags, "--seed", "5",
                        "--out", ckpt]) == 0
        cfg = tr.load_checkpoint(ckpt).agent_config
        assert (cfg.d_v, cfg.k_views) == (24, 8)

    def test_probe_attention_runs(self, probe_inputs, capsys):
        assert run_cli(["probe-attention", *probe_inputs, "--episode", "0",
                        "--imagination", "0", "--layer", "0", "--head", "1"]) == 0
        out = capsys.readouterr().out
        assert "top attended language tokens" in out

    @pytest.mark.parametrize("flag, value, names", [
        ("--head", -1, "head -1"), ("--imagination", -1, "imagination -1"),
        ("--episode", -1, "episode -1"), ("--episode", 6, "episode 6"),
        ("--layer", 1, "layer 1"), ("--layer", -1, "layer -1"), ("--k", 0, "k 0"),
        ("--k", -1, "k -1")],
        ids=["head_-1", "imagination_-1", "episode_-1", "episode_past_split", "layer_1",
             "layer_-1", "k_0", "k_-1"])
    def test_probe_attention_bad_index_exits_1(self, probe_inputs, capsys, flag, value, names):
        """Each index is checked against what it indexes (6 episodes, 2
        heads, one cross-modal layer), negative ones included."""
        assert run_cli(["probe-attention", *probe_inputs, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names in err

    def test_report_merges_and_aggregates(self, tmp_path):
        worlds, corpus, imags = gen_dataset(tmp_path)
        ckpt = tmp_path / "a.ckpt"
        spec = write_spec(tmp_path, agent=SMALL_AGENT, train="base_iterations = 6\n")
        assert run_cli(["train", "--spec", spec, "--condition", "baseline", "--worlds", worlds,
                        "--corpus", corpus, "--imaginations", imags, "--seed", "5",
                        "--out", ckpt]) == 0
        m1 = tmp_path / "m1.tsv"
        m2 = tmp_path / "m2.tsv"
        for seed, out in (("1", m1), ("2", m2)):
            assert run_cli(["eval", "--ckpt", ckpt, "--condition", "baseline", "--worlds", worlds,
                            "--corpus", corpus, "--imaginations", imags, "--seed", seed,
                            "--out", out]) == 0
        out = tmp_path / "summary.tsv"
        assert run_cli(["report", m1, m2, "--out", out]) == 0
        merged = out.read_text().splitlines()
        body = [l for l in merged if l and not l.startswith(("#", "split\t"))]
        assert len(body) == 1 and body[0].endswith("\t2")


def metrics_row(split, condition, sr, spl=0.5, ne=1.0, tl=4.0, n=40, seed=1):
    return ev.MetricsRecord(sr=sr, spl=spl, ne_mean=ne, tl_mean=tl, count=n, seed=seed,
                            split=split), condition


class TestReportArithmetic:
    def test_two_seed_mean_and_stdev(self):
        rows = [metrics_row("val_unseen", "imagine", 0.60, seed=1),
                metrics_row("val_unseen", "imagine", 0.62, seed=2)]
        summary = harness.summarize(rows)
        s = summary[("val_unseen", "imagine")]
        assert abs(s["sr_mean"] - 0.61) < 1e-12
        assert abs(100 * s["sr_std"] - 1.4142135) < 1e-4

    def test_single_row_identity(self):
        rows = [metrics_row("val_seen", "baseline", 0.5, spl=0.4, tl=3.0, n=10, seed=3)]
        s = harness.summarize(rows)[("val_seen", "baseline")]
        assert s["sr_mean"] == 0.5 and s["sr_std"] == 0.0

    def test_grouped_row_count(self):
        rows = []
        for cond in ("a", "b"):
            for seed in (1, 2, 3):
                rows.append(metrics_row("val_unseen", cond, 0.1, spl=0.1, tl=1.0, n=5, seed=seed))
        summary = harness.summarize(rows)
        assert sum(s["n_rows"] for s in summary.values()) == len(rows)

    def test_two_rows_of_one_seed_are_rejected(self, tmp_path, capsys):
        """Seed 1 twice would count as two runs: a mean SR of 0.433, where the
        two seeds' mean is 0.4. So summarize, and report over overlapping
        metrics files, fail instead."""
        rows = [metrics_row("val_unseen", "imagine", 0.5, seed=1),
                metrics_row("val_unseen", "imagine", 0.5, seed=1),
                metrics_row("val_unseen", "imagine", 0.3, seed=2)]
        with pytest.raises(InputError, match="seed 1"):
            harness.summarize(rows)
        two_seeds = harness.summarize(rows[1:])[("val_unseen", "imagine")]
        assert abs(two_seeds["sr_mean"] - 0.4) < 1e-12
        paths = [tmp_path / "m1.tsv", tmp_path / "m2.tsv"]
        ev.write_metrics(paths[0], rows[:1])
        ev.write_metrics(paths[1], rows[1:])
        assert run_cli(["report", *paths, "--out", tmp_path / "r.tsv"]) == 1
        assert "seed 1" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    def test_summary_of_read_rows_equals_summary_of_written_rows(self, tmp_path):
        # rates exact at 2 decimals, so the file loses nothing
        rows = [metrics_row(split, cond, sr, spl=spl, ne=ne, seed=seed)
                for split, cond, sr, spl, ne, seed in (
                    ("val_unseen", "imagine", 0.25, 0.125, 1.5, 1),
                    ("val_unseen", "imagine", 0.75, 0.5, 0.25, 2),
                    ("val_seen", "null_test", 0.5, 0.375, 2.0, 1))]
        path = tmp_path / "m.tsv"
        ev.write_metrics(path, rows)
        assert harness.summarize(ev.read_metrics(path)) == harness.summarize(rows)


class TestExperimentSpec:
    @pytest.mark.parametrize("train, named", [
        ("base_iterations = 8\nlamda = 7\n", "train.lamda"),
        ("base_iterations = 8\niterations = abc\n", "train.iterations"),
        ("aux_in_all_stages = maybe\n", "train.aux_in_all_stages"),
    ])
    def test_bad_key_or_value_is_named(self, tmp_path, train, named):
        path = write_spec(tmp_path, train=train)
        with pytest.raises(ConfigurationError, match=named):
            harness.read_experiment_spec(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_spec(tmp_path)
        path.write_text(path.read_text().replace("[train]", "[trian]"))
        with pytest.raises(ConfigurationError, match="trian"):
            harness.read_experiment_spec(path)

    @pytest.mark.parametrize("key, value", [
        ("train.base_iterations", "-1"), ("world.train_worlds", "0"),
        ("world.val_seen_worlds", "-2"), ("world.val_unseen_worlds", "0"),
        ("train.iterations", "-1"), ("train.batch_size", "0"), ("train.tau", "0"),
    ])
    def test_bad_numbers_fail_before_training(self, tmp_path, capsys, key, value):
        p = configparser.ConfigParser()
        p.read(write_spec(tmp_path, conditions="baseline imagine infonce"))
        section, name = key.split(".")
        p[section][name] = value
        path = tmp_path / "bad.cfg"
        with open(path, "w") as fh:
            p.write(fh)
        with pytest.raises(ConfigurationError, match=name):
            harness.read_experiment_spec(path)
        out_dir = tmp_path / "out"
        assert run_cli(["ablate", "--spec", path, "--out-dir", out_dir, "--quiet"]) == 1
        assert name in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value, named", [
        ("infonce_lambda", "-0.2", "infonce_lam"), ("lambda", "nan", "lam"),
        ("lambda", "inf", "lam"), ("tau", "nan", "tau"), ("tau", "inf", "tau"),
        ("lr_multiplier", "0", "lr_multiplier"), ("lr_multiplier", "-10", "lr_multiplier"),
        ("base_lr", "0", "base_lr"), ("base_lr", "-1e-3", "base_lr"), ("base_lr", "nan", "base_lr"),
    ])
    def test_bad_training_numbers_fail_before_training(self, tmp_path, capsys, key, value, named):
        path = write_spec(tmp_path, conditions="baseline imagine infonce",
                          train=f"base_iterations = 8\niterations = 8\n{key} = {value}\n")
        with pytest.raises(ConfigurationError, match=named):
            harness.read_experiment_spec(path)
        out_dir = tmp_path / "out"
        assert run_cli(["ablate", "--spec", path, "--out-dir", out_dir, "--quiet"]) == 1
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, named", [   # flags: [train] lines of the spec
        (["iterations = -1"], "iterations"),
        (["batch_size = 0"], "batch_size"),
        (["tau = 0"], "tau"),
    ])
    def test_train_rejects_bad_numbers_before_reading_data(self, tmp_path, capsys, flags, named):
        missing = tmp_path / "missing.txt"
        spec = write_spec(tmp_path, train="".join(line + "\n" for line in flags))
        assert run_cli(["train", "--spec", spec, "--condition", "baseline", "--worlds", missing,
                        "--corpus", missing, "--imaginations", missing, "--seed", "1",
                        "--out", tmp_path / "a.ckpt"]) == 1
        err = capsys.readouterr().err
        assert named in err and "missing input file" not in err

    def test_two_stage_fractions_fail_before_training(self, tmp_path):
        path = write_spec(tmp_path, train="stage_fractions = 0.5 0.5\n")
        out_dir = tmp_path / "out"
        assert run_cli(["ablate", "--spec", path, "--out-dir", out_dir, "--quiet"]) == 1
        assert not out_dir.exists()

    def test_coarse_mode_fails_before_building_data(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        path.write_text(path.read_text().replace("[world]\n", "[world]\nmode = coarse\n"))
        with pytest.raises(ConfigurationError, match="world.mode"):
            harness.read_experiment_spec(path)
        out_dir = tmp_path / "out"
        assert run_cli(["ablate", "--spec", path, "--out-dir", out_dir, "--quiet"]) == 1
        assert "world.mode" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_test_conditions_pull_in_imagine_and_baseline(self, tmp_path):
        spec = harness.read_experiment_spec(write_spec(tmp_path, conditions="wrong_test"))
        assert "imagine" in spec.conditions and "baseline" in spec.conditions

    @pytest.mark.parametrize("fields, named", [
        ({"seeds": (101, 101)}, r"seeds \[101\]"),
        ({"seeds": (101, 102, 101, 102)}, r"seeds \[101, 102\]"),
        ({"conditions": ("imagine", "imagine")}, r"conditions \['imagine'\]"),
        ({"conditions": ("baseline", "wrong_test", "baseline")}, r"conditions \['baseline'\]"),
        ({"conditions": ()}, "no conditions"),
    ])
    def test_duplicate_or_empty_entries_rejected(self, fields, named):
        with pytest.raises(ConfigurationError, match=named):
            harness.ExperimentSpec(**fields)

    def test_empty_conditions_fail_before_training(self, tmp_path, capsys):
        """An empty conditions list would train a baseline per seed, evaluate
        nothing and exit 0."""
        path = write_spec(tmp_path, conditions="")
        out_dir = tmp_path / "out"
        assert run_cli(["ablate", "--spec", path, "--out-dir", out_dir, "--quiet"]) == 1
        assert "no conditions" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_condition_rejected(self, tmp_path):
        path = write_spec(tmp_path, conditions="bogus")
        with pytest.raises(ConfigurationError):
            harness.read_experiment_spec(path)

    def test_verdict_format(self):
        summary = {("val_unseen", "imagine"): dict(sr_mean=0.5, n_rows=2),
                   ("val_unseen", "wrong_test"): dict(sr_mean=0.3, n_rows=2)}
        lines = harness.verdict_lines(summary, ["imagine", "wrong_test"])
        assert lines == ["hypothesis correct>wrong: PASS (Δ=+20.0 SR)"]

    def test_text_only_verdict(self):
        summary = {("val_unseen", "imagine"): dict(sr_mean=0.335, n_rows=1),
                   ("val_unseen", "text_only"): dict(sr_mean=0.212, n_rows=1),
                   ("val_unseen", "baseline"): dict(sr_mean=0.30, n_rows=1)}
        lines = harness.verdict_lines(summary, ["baseline", "imagine", "text_only"])
        assert "hypothesis imagine>text_only: PASS (Δ=+12.3 SR)" in lines
        summary[("val_unseen", "text_only")] = dict(sr_mean=0.30, n_rows=1)
        lines = harness.verdict_lines(summary, ["baseline", "imagine", "text_only"])
        assert "hypothesis imagine>text_only: FAIL (Δ=+3.5 SR)" in lines
        # no verdict without the text_only condition
        lines = harness.verdict_lines(summary, ["baseline", "imagine"])
        assert not any("text_only" in line for line in lines)

    def test_every_condition_is_named_by_a_hypothesis(self):
        # a trained or test-time condition that no verdict reads has no claim to test
        named = {c for _, lhs, rhs, _ in harness.HYPOTHESES for c in (lhs, rhs)}
        unnamed = set(harness.TRAIN_CONDITIONS) | set(harness.TEST_CONDITIONS)
        assert not unnamed - named, sorted(unnamed - named)


class TestDefaults:
    """Flags and spec keys take their defaults from the config dataclass fields."""
    REQUIRED = {
        "gen-world": ["--seed", "1", "--out", "w"],
        "imagine": ["--worlds", "w", "--corpus", "c", "--seed", "1", "--out", "i"],
    }
    FIELDS = {
        "gen-world": {wd.WorldConfig: ("split", "n_forks", "k_views", "sigma_obs"),
                      ag.AgentConfig: ("d_v",)},
        "imagine": {im.ImaginationConfig: ("fidelity", "sigma_gen")},
    }

    @pytest.mark.parametrize("command", ["gen-world", "imagine"])
    def test_parser_defaults_are_field_defaults(self, command):
        args = harness.build_parser().parse_args([command, *self.REQUIRED[command]])
        for cls, names in self.FIELDS[command].items():
            for name in names:
                assert getattr(args, name) == getattr(cls, name), (command, name)

    def test_spec_defaults_are_field_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nname = defaults\n")
        spec = harness.read_experiment_spec(path)
        assert spec == harness.ExperimentSpec(name="defaults")
        assert spec.train == tr.TrainConfig() and spec.imagination == im.ImaginationConfig()
        assert spec.world == {} and spec.agent == {}


class TestAblateSmoke:
    @pytest.fixture(scope="class")
    def desk_runs(self, tmp_path_factory):
        """Output directories of a tiny two-seed desk ablation run with
        --workers 1 and with --workers 2."""
        tmp_path = tmp_path_factory.mktemp("desk")
        p = configparser.ConfigParser(inline_comment_prefixes=("#",))
        assert p.read(ROOT / "experiments" / "desk.cfg")
        p["experiment"]["seeds"] = " ".join(p["experiment"]["seeds"].split()[:2])
        p["world"].update(train_worlds="8", val_seen_worlds="4", val_unseen_worlds="4")
        p["train"].update(base_iterations="4", iterations="4")
        spec_path = tmp_path / "desk.cfg"
        with open(spec_path, "w") as fh:
            p.write(fh)
        outs = [tmp_path / f"workers{n}" for n in (1, 2)]
        environ = dict(os.environ)
        for n, out in zip((1, 2), outs):
            assert run_cli(["ablate", "--spec", spec_path, "--out-dir", out,
                            "--workers", n, "--quiet"]) == 0
        assert dict(os.environ) == environ   # pinning the workers leaves this process's settings
        return outs

    def test_workers_run_with_one_blas_thread(self, desk_runs, tmp_path):
        seeds = harness.read_experiment_spec(ROOT / "experiments" / "desk.cfg").seeds[:2]
        for out in desk_runs:
            assert sorted(p.name for p in (out / "threads").iterdir()) == [
                f"seed_{seed}.txt" for seed in seeds]
            for seed in seeds:
                lines = (out / "threads" / f"seed_{seed}.txt").read_text().splitlines()
                assert lines[-2:] == ["OPENBLAS_NUM_THREADS=1", "OMP_NUM_THREADS=1"], (out, seed)
        with pytest.raises(ConfigurationError, match="workers"):
            harness.run_ablation(harness.ExperimentSpec(), tmp_path / "out", workers=0)
        assert not (tmp_path / "out").exists()

    def test_shipped_desk_spec_is_byte_identical_across_workers(self, desk_runs):
        outs = desk_runs
        for name in ("metrics.tsv", "summary.txt", "verdicts.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        assert len((outs[0] / "verdicts.txt").read_text().splitlines()) == 7

    def test_tiny_ablation_and_orchestration_equivalence(self, tmp_path):
        spec_path = write_spec(tmp_path, "baseline imagine null_test", seeds="9", data_seed=1,
                               agent=SMALL_AGENT, train="base_iterations = 10\niterations = 10\n")
        out_dir = tmp_path / "out"
        assert run_cli(["ablate", "--spec", spec_path, "--out-dir", out_dir, "--quiet"]) == 0
        rows = ev.read_metrics(out_dir / "metrics.tsv")
        # 3 conditions x 2 splits x 1 seed
        assert len(rows) == 6
        assert (out_dir / "summary.txt").exists()
        assert (out_dir / "verdicts.txt").exists()

        # rerun is byte-identical
        out2 = tmp_path / "out2"
        run_cli(["ablate", "--spec", spec_path, "--out-dir", out2, "--quiet"])
        assert (out_dir / "metrics.tsv").read_bytes() == (out2 / "metrics.tsv").read_bytes()

        # null_test rows equal an independent eval of the imagine checkpoint
        # on the same val_unseen split, rebuilt through dataset.standard_splits
        from imnav import dataset as ds, instructions as ins, world as wd, imagination as im
        library = wd.load_library(harness.DATA_DIR / "landmarks.txt", d_v=16)
        templates = ins.load_templates(harness.DATA_DIR / "templates.txt")
        lexicon = ins.load_lexicon(harness.DATA_DIR / "lexicon_nouns.txt",
                                   harness.DATA_DIR / "lexicon_blacklist.txt", library)
        splits = ds.standard_splits(library, templates, lexicon, train_n=6, val_seen_n=3,
                                    val_unseen_n=3, data_seed=1)
        ckpt = tr.load_checkpoint(out_dir / "ckpt" / "imagine_9.bin")
        agent = tr.agent_from_checkpoint(ckpt)
        rec = ev.evaluate(agent, splits["val_unseen"].items, "null", seed=9, split="val_unseen")
        row = next(r for r, c in rows if c == "null_test" and r.split == "val_unseen")
        # metrics.tsv holds 2-decimal percentages; at n=3 distinct SRs differ by 33.33
        assert row.sr == float(f"{100 * rec.sr:.2f}") / 100

    def test_spec_world_d_v_reaches_the_agent(self, tmp_path):
        # the agent's d_v and k_views come from the built worlds, not AgentConfig defaults
        spec_path = write_spec(tmp_path, seeds="4", data_seed=2, world="d_v = 24\nk_views = 8\n",
                               sizes=(4, 2, 2), agent=SMALL_AGENT,
                               train="base_iterations = 3\niterations = 3\n")
        out_dir = tmp_path / "out"
        assert run_cli(["ablate", "--spec", spec_path, "--out-dir", out_dir, "--quiet"]) == 0
        cfg = tr.load_checkpoint(out_dir / "ckpt" / "imagine_4.bin").agent_config
        assert (cfg.d_v, cfg.k_views) == (24, 8)

    def test_report_matches_ablate_summary(self, tmp_path):
        spec_path = write_spec(tmp_path, seeds="5 6", data_seed=3, sizes=(8, 6, 6),
                               agent=SMALL_AGENT, train="base_iterations = 30\niterations = 10\n")
        out_dir = tmp_path / "out"
        assert run_cli(["ablate", "--spec", spec_path, "--out-dir", out_dir, "--quiet"]) == 0
        merged = tmp_path / "report.tsv"
        assert run_cli(["report", out_dir / "metrics.tsv", "--out", merged]) == 0

        summary = {}
        for line in (out_dir / "summary.txt").read_text().splitlines()[1:]:
            if not line.strip():
                break
            f = line.split()
            summary[(f[0], f[1])] = [float(f[i]) for i in (2, 4, 5, 7)]
        body = [l.split("\t") for l in merged.read_text().splitlines()
                if not l.startswith("#")]
        assert body[0][2:6] == ["sr_mean", "sr_std", "spl_mean", "spl_std"]
        report = {(f[0], f[1]): [float(x) for x in f[2:6]] for f in body[1:]}
        assert report.keys() == summary.keys() and len(report) == 4
        assert any(v[0] > 0.0 for v in summary.values())   # a scale error would show
        # metrics.tsv stores each row to 0.01 points and both outputs print to
        # 0.01 points, so the two agree to within one printed step
        for key, want in summary.items():
            assert max(abs(a - b) for a, b in zip(report[key], want)) <= 0.01 + 1e-9, key


class TestCliEqualsAblate:
    """`imnav train` and `imnav eval` on CLI-generated files compute, byte for
    byte, what `imnav ablate` computes for the same spec, seed and data."""
    SEED, DATA_SEED = 3, 1
    CONDITIONS = "baseline imagine null_test wrong_test goal_only no_aux infonce text_only"

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """The spec, the ablation's output directory and the CLI's train and
        val_unseen files."""
        tmp_path = tmp_path_factory.mktemp("cli_ablate")
        spec = write_spec(tmp_path, self.CONDITIONS, seeds=str(self.SEED),
                          data_seed=self.DATA_SEED, world="d_v = 24\n", sizes=(6, 2, 4),
                          agent=SMALL_AGENT, train="base_iterations = 6\niterations = 8\n")
        out = tmp_path / "ablate"
        assert run_cli(["ablate", "--spec", spec, "--out-dir", out, "--quiet"]) == 0
        files = {}
        for split, offset in (("train", 0), ("val_unseen", 90019)):
            # the seeds dataset.standard_splits derives from the spec's data_seed
            d = self.DATA_SEED
            worlds, corpus, imags = (tmp_path / f"{split}_{kind}.txt"
                                     for kind in ("worlds", "corpus", "imag"))
            assert run_cli(["gen-world", "--split", split, "--count", 6 if split == "train" else 4,
                            "--d-v", "24", "--seed", 7 * d + offset, "--out", worlds]) == 0
            assert run_cli(["gen-corpus", "--worlds", worlds, "--seed", 13 * d + offset + 1,
                            "--out", corpus]) == 0
            assert run_cli(["imagine", "--worlds", worlds, "--corpus", corpus,
                            "--seed", 17 * d + offset + 2, "--out", imags]) == 0
            files[split] = ["--worlds", worlds, "--corpus", corpus, "--imaginations", imags]
        return spec, out, files

    @staticmethod
    def body(path):
        return [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]

    def test_train_and_eval_reproduce_the_ablation(self, run, tmp_path):
        spec, out, files = run
        seed = self.SEED
        for cond in ("baseline", "imagine", "no_aux", "infonce", "text_only"):
            init = [] if cond == "baseline" else ["--init-from", tmp_path / "baseline.bin"]
            proc = run_harness("train", "--spec", spec, "--condition", cond, *files["train"],
                               *init, "--seed", seed, "--out", tmp_path / f"{cond}.bin",
                               "--curves", tmp_path / f"{cond}.tsv")
            assert proc.returncode == 0, proc.stderr
            assert ((tmp_path / f"{cond}.bin").read_bytes()
                    == (out / "ckpt" / f"{cond}_{seed}.bin").read_bytes()), cond
            assert (self.body(tmp_path / f"{cond}.tsv")
                    == self.body(out / "curves" / f"{cond}_{seed}.tsv")), cond
        rows = {line.split("\t")[1]: line for line in self.body(out / "metrics.tsv")
                if line.startswith("val_unseen\t")}
        assert sorted(rows) == sorted(self.CONDITIONS.split())
        for cond, want in rows.items():
            ckpt = tmp_path / ("imagine.bin" if cond in harness.TEST_CONDITIONS else f"{cond}.bin")
            proc = run_harness("eval", "--ckpt", ckpt, "--condition", cond, *files["val_unseen"],
                               "--seed", seed, "--out", tmp_path / f"m_{cond}.tsv")
            assert proc.returncode == 0, proc.stderr
            assert self.body(tmp_path / f"m_{cond}.tsv")[1:] == [want], cond
            assert proc.stdout.splitlines() == [want], cond

    def test_train_checkpoint_ignores_inherited_blas_threads(self, run, tmp_path):
        spec, _, files = run
        ckpts = [tmp_path / f"threads{n}.bin" for n in (2, 1)]
        for n, ckpt in zip((2, 1), ckpts):
            proc = run_harness("train", "--spec", spec, "--condition", "baseline", *files["train"],
                               "--seed", self.SEED, "--out", ckpt, blas_threads=n)
            assert proc.returncode == 0, proc.stderr
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes()

    @pytest.mark.parametrize("condition, init", [("imagine", False), ("text_only", False),
                                                 ("baseline", True)])
    def test_init_from_required_for_finetunes_only(self, run, tmp_path, capsys, condition, init):
        spec, out, files = run
        extra = ["--init-from", out / "ckpt" / f"baseline_{self.SEED}.bin"] * init
        capsys.readouterr()
        assert run_cli(["train", "--spec", spec, "--condition", condition, *files["train"],
                        *extra, "--seed", "1", "--out", tmp_path / "a.bin"]) == 1
        assert "--init-from" in capsys.readouterr().err
        assert not (tmp_path / "a.bin").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--iters", "4"), ("--batch-size", "2"), ("--schedule", "flat"), ("--flat-lr", "0.1"),
        ("--aux", "none"), ("--lam", "0.5"), ("--infonce-lam", "0.2"), ("--tau", "0.1"),
        ("--lr-multiplier", "1"), ("--stage-fractions", "0.5 0.25 0.25"),
        ("--no-imaginations", None), ("--d", "32"), ("--heads", "2"), ("--cross-layers", "1")])
    def test_removed_train_flags_exit_2(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--spec", "s", "--condition", "baseline", "--worlds", "w",
                     "--corpus", "c", "--imaginations", "i", "--seed", "1", "--out", "o",
                     flag, *(value.split() if value else [])])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, args", [
        ("train", ["--spec", "s"]),
        ("eval", ["--ckpt", "k"]),
        ("eval", ["--ckpt", "k", "--condition", "imagine", "--policy", "null"]),
        ("eval", ["--ckpt", "k", "--condition", "correct"])])
    def test_condition_is_required_and_replaces_policy(self, command, args):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *args, "--worlds", "w", "--corpus", "c", "--imaginations", "i",
                     "--seed", "1", "--out", "o"])
        assert exc.value.code == 2

    def test_spec_d_v_must_match_the_files(self, run, tmp_path, capsys):
        spec, out, files = run
        other = tmp_path / "spec.cfg"     # world.d_v left at its default, 16; the files have 24
        other.write_text(spec.read_text().replace("d_v = 24\n", ""))
        capsys.readouterr()
        assert run_cli(["train", "--spec", other, "--condition", "baseline", *files["train"],
                        "--seed", "1", "--out", tmp_path / "a.bin"]) == 1
        err = capsys.readouterr().err
        assert "d_v = 16" in err and "d_v = 24" in err
        assert not (tmp_path / "a.bin").exists()

    def test_eval_policy_per_condition(self):
        assert {c: harness.eval_policy(c) for c in harness.ALL_CONDITIONS} == {
            "baseline": "null", "imagine": "correct", "no_aux": "correct",
            "infonce": "correct", "text_only": "correct", "null_test": "null",
            "wrong_test": "wrong", "goal_only": "goal_only"}
