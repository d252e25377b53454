import configparser
import dataclasses
import hashlib
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imnav import agent as ag
from imnav import dataset as ds
from imnav import evaluation as ev
from imnav import harness
from imnav import imagination as im
from imnav import training as tr
from imnav import world as wd
from imnav.errors import ConfigurationError, FormatError, InputError

ROOT = Path(__file__).resolve().parent.parent
SMALL_AGENT = "d = 32\nheads = 2\ncross_layers = 1\n"
DATA_FILES = [f"{split}.txt" for split in wd.SPLITS]


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


def gen_dataset(tmp_path, **spec):
    """A spec (`write_spec(tmp_path, **spec)`) and the data directory that
    `imnav data` writes from it."""
    path = write_spec(tmp_path, **spec)
    data = tmp_path / "data"
    assert run_cli(["data", "--spec", path, "--out", data]) == 0
    return path, data


def parses(args):
    """Whether the CLI accepts `args`: the tests of removed flags check that
    their command line is accepted without the flag."""
    harness.build_parser().parse_args([str(a) for a in args])
    return True


def edit_line(path, prefix, edit):
    """Replace the first line of `path` that starts with `prefix` by
    `edit(line)`, or drop it when `edit` returns None; returns its index."""
    lines = path.read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    new = edit(lines[idx])
    lines[idx:idx + 1] = [] if new is None else [new]
    path.write_text("\n".join(lines) + "\n")
    return idx


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small spec, its data directory (6 train, 3 val_seen and 3
    val_unseen episodes) and a baseline checkpoint trained on it."""
    tmp_path = tmp_path_factory.mktemp("trained")
    spec, data = gen_dataset(tmp_path, agent=SMALL_AGENT, train="base_iterations = 6\n")
    ckpt = tmp_path / "a.ckpt"
    assert run_cli(["train", "--spec", spec, "--condition", "baseline", "--data", data,
                    "--seed", "5", "--out", ckpt]) == 0
    return spec, data, ckpt


@pytest.fixture
def eval_copy(trained, tmp_path, capsys):
    """A copy of the trained fixture's data directory, and a function that
    runs `eval` of its checkpoint on a split of the copy and returns the exit
    code and stderr; it checks that a failed eval writes no metrics file."""
    _, data, ckpt = trained
    copy = tmp_path / "data"
    shutil.copytree(data, copy)

    def run_eval(split="train"):
        capsys.readouterr()
        metrics = tmp_path / "m.tsv"
        code = run_cli(["eval", "--ckpt", ckpt, "--condition", "baseline", "--data", copy,
                        "--split", split, "--seed", "2", "--out", metrics])
        assert code == 0 or not metrics.exists()
        return code, capsys.readouterr().err

    return copy, run_eval


class TestCli:
    def test_data_files_are_deterministic(self, tmp_path):
        # one --out for both runs: the files' headers name the command line
        spec, out = write_spec(tmp_path, sizes=(4, 1, 2)), tmp_path / "data"
        runs = []
        for _ in range(2):
            assert harness.main(["data", "--spec", str(spec), "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(runs[0]) == sorted(DATA_FILES)
        assert runs[0] == runs[1]

    def test_desk_data_bytes_are_pinned(self, tmp_path):
        """`imnav data` on the shipped desk spec writes these split files.
        The digests are the SHA-256 of each file's non-comment lines (the
        header names the command line). Re-record them only for an intended
        change of the data, as with perfbench's reference.json: a speedup of
        split building must leave every byte as it was."""
        pinned = {
            "train.txt": "47945572c2e6a4a75e54e3dd09e3fe2e3b6dabe6d662d3d729803871290d7f3b",
            "val_seen.txt": "20c185272a1aa3bc7ff93bd56fd395f43b57d1b35072b1f776bb28fb05a44784",
            "val_unseen.txt": "041bb4202be63888a2266c4da1bb39aa7c68d1f4a6ee38832c6e42d320751e09",
        }
        out = tmp_path / "data"
        assert run_cli(["data", "--spec", ROOT / "experiments" / "desk.cfg", "--out", out]) == 0
        got = {}
        for name in DATA_FILES:
            with open(out / name, "rb") as fh:
                body = b"".join(line for line in fh if not line.startswith(b"#"))
            got[name] = hashlib.sha256(body).hexdigest()
        assert got == pinned

    def test_unknown_flag_exits_2(self):
        proc = run_harness("data", "--bogus-flag", "1")
        assert proc.returncode == 2 and proc.stderr.startswith("usage: imnav data")

    def test_eval_requires_checkpoint_flag(self):
        proc = run_harness("eval", "--condition", "imagine", "--data", "d", "--split",
                           "val_unseen", "--seed", "0", "--out", "m")
        assert proc.returncode == 2 and "--ckpt" in proc.stderr

    def test_spec_required_for_data(self):
        proc = run_harness("data", "--out", "d")
        assert proc.returncode == 2 and "--spec" in proc.stderr

    def test_eval_requires_a_split(self, capsys):
        args = ["eval", "--condition", "imagine", "--seed", "0", "--out", "m", "--ckpt", "k",
                "--data", "d"]
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2 and "--split" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, "--split", "bogus"])
        assert exc.value.code == 2 and "'bogus'" in capsys.readouterr().err

    def test_probe_attention_is_gone(self, capsys):
        # the one-episode attention print left with agent.attention_probe
        with pytest.raises(SystemExit) as exc:
            run_cli(["probe-attention", "--ckpt", "k", "--data", "d", "--split", "train"])
        assert exc.value.code == 2
        assert "invalid choice: 'probe-attention'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--templates", "--lexicon-nouns", "--lexicon-blacklist"])
    def test_asset_path_flags_are_gone(self, tmp_path, flag):
        # the packaged data files are the one source of templates and lexicon
        args = ["data", "--spec", "s", "--out", "d"]
        assert parses(args)
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, flag, "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--layout", "--n-nodes"])
    def test_removed_layout_flags_are_gone(self, flag):
        # fork worlds are the only layout
        args = ["data", "--spec", "s", "--out", "d"]
        assert parses(args)
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, flag, "8"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        ("data", "--mode"), ("train", "--val-worlds"), ("train", "--val-corpus"),
        ("train", "--val-imaginations"), ("train", "--eval-interval")])
    def test_episode_mode_and_mid_training_eval_flags_are_gone(self, command, flag):
        required = {"data": ["--spec", "s", "--out", "o"],
                    "train": ["--spec", "s", "--condition", "baseline", "--data", "d",
                              "--seed", "1", "--out", "o"]}[command]
        assert parses([command, *required])
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *required, flag, "x"])
        assert exc.value.code == 2

    @staticmethod
    def set_field(column, value):
        def edit(line):
            fields = line.split(" ")
            fields[column] = value
            return " ".join(fields)
        return edit

    # world <w> <split> <k_views> <sigma_obs> <n_forks> <draws...>: with two
    # forks, column 6 is the first landmark and column 14, the last, the
    # goal's free view
    @pytest.mark.parametrize("prefix, column, value, named", [
        ("world 0 ", 14, "12", "view 12 is not free"),    # K = 12: action 12 is the stop
        ("world 0 ", 6, "99", "class 99 is not in the train pool"),
        ("imag 0 ", 2, "99", "class 99 outside"),
        ("world 0 ", 4, "-0.1", "sigma_obs must be finite and >= 0, got -0.1"),
        ("world 0 ", None, None, "a second world record for world 0"),
        ("instr 0 ", None, None, "a second instr record for world 0")],
        ids=["view_past_k", "landmark_class", "imag_class",
             "negative_sigma_obs", "second_world", "second_instr"])
    def test_bad_split_record_exits_1_naming_the_line(self, trained, eval_copy, capsys,
                                                      prefix, column, value, named):
        """Each record is checked against what it indexes or repeats: eval and
        train exit 1 with one line naming the line, and write nothing."""
        spec, _, _ = trained
        data, run_eval = eval_copy
        assert (wd.WorldConfig.k_views, wd.WorldConfig.n_forks) == (12, 2)
        if column is None:      # a copy of the record right after it ("turn right" for "left")
            idx = edit_line(data / "train.txt", prefix,
                            lambda line: line + "\n" + line.replace(" left ", " right ")) + 1
        else:
            idx = edit_line(data / "train.txt", prefix, self.set_field(column, value))
        code, err = run_eval()
        assert code == 1 and err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"train.txt:{idx + 1}:" in err and named in err
        ckpt = data.parent / "a.bin"
        assert run_cli(["train", "--spec", spec, "--condition", "baseline", "--data", data,
                        "--seed", "5", "--out", ckpt]) == 1
        assert named in capsys.readouterr().err and not ckpt.exists()

    def test_imagination_count_other_than_the_kept_count_exits_1(self, eval_copy):
        data, run_eval = eval_copy
        edit_line(data / "train.txt", "imag 0 ", lambda line: None)
        code, err = run_eval()
        assert code == 1 and err.startswith("error: ") and len(err.splitlines()) == 1
        assert "world 0 has 1 imaginations for its 2 kept sub-instructions" in err

    def test_split_files_must_hold_that_split(self, eval_copy):
        # a split file says which split its worlds belong to; eval labels its
        # metrics row with the split it was asked for, so they must agree
        data, run_eval = eval_copy
        shutil.copy(data / "val_seen.txt", data / "val_unseen.txt")
        code, err = run_eval("val_unseen")
        assert code == 1
        assert err.startswith("error: ") and "'val_seen', not 'val_unseen'" in err
        assert run_eval("val_seen")[0] == 0

    def test_report_rejects_the_old_metrics_header(self, tmp_path, capsys):
        path = tmp_path / "old.tsv"
        path.write_text("split\tcondition\tSR\tSPL\tNE\tTL\tRGS\tRGSPL\tn\tseed\n"
                        "val_unseen\timagine\t50.00\t40.00\t1.0\t4.0\t-\t-\t40\t1\n")
        assert run_cli(["report", path, "--out", tmp_path / "r.tsv"]) == 1
        assert "split condition SR SPL NE TL n seed" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("column, value, named", [
        (6, "0", "n must be >= 1, got 0"), (6, "-60", "n must be >= 1, got -60"),
        (2, "nan", "SR must be in [0, 100], got nan"), (2, "150", "SR must be in [0, 100]"),
        (3, "-40", "SPL must be in [0, 100]"), (4, "-1", "NE must be finite and >= 0"),
        (4, "nan", "NE must be finite and >= 0"), (5, "inf", "TL must be finite and >= 0"),
        (0, "val_unsen", "unknown split 'val_unsen'"), (7, "-7", "seed must be >= 0, got -7")])
    def test_report_rejects_a_malformed_metrics_row(self, tmp_path, capsys, column, value,
                                                    named):
        good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
        ev.write_metrics(good, [metrics_row("val_unseen", "imagine", 0.5)])
        lines = good.read_text().splitlines()
        fields = lines[-1].split("\t")
        fields[column] = value
        bad.write_text("\n".join(lines[:-1] + ["\t".join(fields)]) + "\n")
        assert run_cli(["report", good, "--out", tmp_path / "r.tsv"]) == 0
        capsys.readouterr()
        (tmp_path / "r.tsv").unlink()
        assert run_cli(["report", good, bad, "--out", tmp_path / "r.tsv"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}:{len(lines)}: {named}")
        assert not captured.out and not (tmp_path / "r.tsv").exists()

    def test_report_rejects_an_unknown_condition(self, tmp_path, capsys):
        path = tmp_path / "m.tsv"
        ev.write_metrics(path, [metrics_row("val_unseen", "imagine", 0.5),
                                metrics_row("val_unseen", "nonsense", 0.5)])
        assert run_cli(["report", path, "--out", tmp_path / "r.tsv"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: unknown condition 'nonsense'")
        assert not captured.out and not (tmp_path / "r.tsv").exists()

    def test_report_rejects_a_file_of_no_rows(self, tmp_path, capsys):
        good, empty = tmp_path / "good.tsv", tmp_path / "empty.tsv"
        ev.write_metrics(good, [metrics_row("val_unseen", "imagine", 0.5)])
        ev.write_metrics(empty, [], command="imnav eval", seed=1)
        assert run_cli(["report", good, empty, "--out", tmp_path / "r.tsv"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {empty}: holds a header and no metrics rows")
        assert not captured.out and not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("command", ["report", "data"])
    def test_output_that_cannot_be_written_exits_1(self, tmp_path, command):
        """An output path under a regular file fails with one `error:` line,
        no traceback, and writes nothing."""
        blocker = tmp_path / "afile"
        blocker.write_text("kept\n")
        if command == "report":
            source = tmp_path / "m.tsv"
            ev.write_metrics(source, [metrics_row("val_unseen", "imagine", 0.5)])
            args = ["report", source, "--out", blocker / "r.tsv"]
        else:
            source = write_spec(tmp_path)
            args = ["data", "--spec", source, "--out", blocker / "data"]
        proc = run_harness(*args)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert sorted(tmp_path.iterdir()) == sorted([blocker, source])
        assert blocker.read_text() == "kept\n"

    def test_train_eval_and_report_make_a_missing_output_directory(self, trained, tmp_path):
        spec, data, ckpt = trained
        ckpt_out, metrics, merged = (tmp_path / "a" / "b.ckpt", tmp_path / "m" / "n" / "m.tsv",
                                     tmp_path / "r" / "r.tsv")
        assert run_cli(["train", "--spec", spec, "--condition", "baseline", "--data", data,
                        "--seed", "5", "--out", ckpt_out]) == 0
        assert ckpt_out.read_bytes() == ckpt.read_bytes()
        assert run_cli(["eval", "--ckpt", ckpt_out, "--condition", "baseline", "--data", data,
                        "--split", "train", "--seed", "2", "--out", metrics]) == 0
        assert run_cli(["report", metrics, "--out", merged]) == 0
        assert len(ev.read_metrics(metrics)) == 1 and merged.exists()

    def test_route_longer_than_max_steps_exits_1_before_any_work(self, tmp_path, capsys):
        # seven forks make 15-edge routes: 16 decisions with the stop, one
        # more than agent.MAX_STEPS; six forks still fit
        for forks, code in ((6, 0), (7, 1)):
            spec = write_spec(tmp_path, world=f"n_forks = {forks}\n", sizes=(1, 1, 1))
            assert run_cli(["data", "--spec", spec, "--out", tmp_path / f"d{forks}"]) == code
        assert "n_forks=7" in capsys.readouterr().err and not (tmp_path / "d7").exists()
        assert (tmp_path / "d6" / "train.txt").exists()
        with pytest.raises(ConfigurationError, match="n_forks=7"):
            harness.ExperimentSpec(world={"n_forks": 7})

    @pytest.mark.parametrize("count", [0, -2])
    def test_train_worlds_below_1_exits_1_writing_nothing(self, tmp_path, capsys, count):
        spec = write_spec(tmp_path, sizes=(count, 1, 1))
        assert run_cli(["data", "--spec", spec, "--out", tmp_path / "d"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"train_worlds must be >= 1, got {count}" in err
        assert list(tmp_path.iterdir()) == [spec]

    def test_missing_input_file_exits_1(self, trained, tmp_path):
        _, _, ckpt = trained
        code = run_cli(["eval", "--ckpt", ckpt, "--condition", "baseline",
                        "--data", tmp_path / "nope", "--split", "train", "--seed", "1",
                        "--out", tmp_path / "m.tsv"])
        assert code == 1

    @pytest.mark.parametrize("command, flag", [
        ("data", "--spec"), ("data", "--out"),
        ("train", "--spec"), ("train", "--data"), ("train", "--init-from"), ("train", "--curves"),
        ("train", "--out"),
        ("eval", "--ckpt"), ("eval", "--data"), ("eval", "--out"),
        ("ablate", "--spec"), ("ablate", "--out-dir"),
        ("report", "--out")])
    def test_empty_path_flag_exits_1_before_any_work(self, trained, tmp_path, capsys,
                                                     monkeypatch, command, flag):
        """An empty path, as an unset shell variable gives it, is one `error:`
        line naming the flag, exit 1, before any work: nothing is written,
        here or in the current directory, and no train or eval step starts."""
        spec, data, ckpt = trained
        metrics = tmp_path / "m.tsv"
        ev.write_metrics(metrics, [metrics_row("val_unseen", "imagine", 0.5)])
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)

        def no_pool(workers):
            raise AssertionError("a train or eval step started")

        monkeypatch.setattr(harness, "_pinned_pool", no_pool)
        args = {
            "data": ["data", "--spec", spec, "--out", "d"],
            "train": ["train", "--spec", spec, "--condition", "imagine", "--data", data,
                      "--init-from", ckpt, "--curves", "c.tsv", "--seed", "1", "--out", "a.bin"],
            "eval": ["eval", "--ckpt", ckpt, "--condition", "baseline", "--data", data,
                     "--split", "train", "--seed", "1", "--out", "m.tsv"],
            "ablate": ["ablate", "--spec", spec, "--out-dir", "runs"],
            "report": ["report", metrics, "--out", "r.tsv"]}[command]
        args[args.index(flag) + 1] = ""
        capsys.readouterr()
        assert run_cli(args) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and flag in line.split()
        assert list(work.iterdir()) == []

    def test_checkpoint_with_trailing_bytes_is_refused(self, trained, tmp_path, capsys):
        """Bytes after a checkpoint's RNG state are a FormatError naming the
        file, and `imnav eval` of it exits 1 writing no metrics."""
        spec, data, ckpt = trained
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(ckpt.read_bytes() + b"twenty-one more bytes")
        with pytest.raises(FormatError, match=f"{re.escape(str(padded))}: 21 bytes follow"):
            tr.load_checkpoint(padded)
        capsys.readouterr()
        assert run_cli(["eval", "--ckpt", padded, "--condition", "baseline", "--data", data,
                        "--split", "train", "--seed", "1", "--out", tmp_path / "m.tsv"]) == 1
        assert str(padded) in capsys.readouterr().err
        assert not (tmp_path / "m.tsv").exists()

    def test_divergence_dump_is_shown(self, tmp_path, capsys):
        """`train` and `ablate` print the diverged iteration's losses and a
        line per parameter after the one-line error, also from a worker."""
        spec, data = gen_dataset(tmp_path, conditions="baseline", seeds="1", sizes=(2, 1, 1),
                                 agent=SMALL_AGENT, train="base_iterations = 3\nbase_lr = 1e30\n")
        dumps = []
        for argv, error in (
                (["train", "--spec", spec, "--condition", "baseline", "--data", data,
                  "--seed", "1", "--out", tmp_path / "a.bin"],
                 "error: non-finite loss at iteration 1"),
                (["ablate", "--spec", spec, "--out-dir", tmp_path / "ablate", "--quiet"],
                 "error: condition baseline failed at seed 1: non-finite loss at iteration 1")):
            capsys.readouterr()
            assert run_cli(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert err[:2] == [error, "iteration=1"] and err[2].startswith("l_base=")
            assert all(re.fullmatch(r"\w+\t\|theta\|=\S+\t\|last_update_grad\|=\S+", line)
                       for line in err[3:]), err
            dumps.append(err[1:])
        assert dumps[0] == dumps[1] and dumps[0][2].startswith("tok_embed\t")

    def test_unknown_corpus_word_exits_1(self, tmp_path, capsys):
        spec, data = gen_dataset(tmp_path, sizes=(3, 1, 1), agent=SMALL_AGENT,
                                 train="base_iterations = 1\n")
        ckpt = tmp_path / "a.ckpt"
        baseline = ["--spec", spec, "--condition", "baseline", "--data", data]
        assert run_cli(["train", *baseline, "--seed", "5", "--out", ckpt]) == 0

        def stroll(line):
            fields = line.split(" ")
            fields[3] = "stroll"          # instr <w> <n> <tokens...>
            return " ".join(fields)

        edit_line(data / "train.txt", "instr ", stroll)
        capsys.readouterr()
        assert run_cli(["train", *baseline, "--seed", "5", "--out", tmp_path / "b.ckpt"]) == 1
        assert run_cli(["eval", "--ckpt", ckpt, "--condition", "baseline", "--data", data,
                        "--split", "train", "--seed", "2", "--out", tmp_path / "m.tsv"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("'stroll'" in line and "instruction 0" in line
                                     for line in err)

    def test_train_eval_flow(self, tmp_path, capsys):
        spec, data = gen_dataset(tmp_path, agent=SMALL_AGENT, train="base_iterations = 12\n")
        ckpt = tmp_path / "a.ckpt"
        curves = tmp_path / "curves.tsv"
        assert run_cli(["train", "--spec", spec, "--condition", "baseline", "--data", data,
                        "--seed", "5", "--out", ckpt, "--curves", curves]) == 0
        metrics = tmp_path / "m.tsv"
        capsys.readouterr()
        assert run_cli(["eval", "--ckpt", ckpt, "--condition", "baseline", "--data", data,
                        "--split", "train", "--seed", "2", "--out", metrics]) == 0
        (rec, cond), = ev.read_metrics(metrics)
        assert rec.count == 6 and cond == "baseline" and rec.split == "train"
        assert curves.read_text().count("\n") >= 12
        # the printed row is the row written
        assert capsys.readouterr().out.splitlines() == metrics.read_text().splitlines()[-1:]

    def test_train_takes_d_v_and_k_views_from_worlds(self, tmp_path):
        spec, data = gen_dataset(tmp_path, world="d_v = 24\nk_views = 8\n", sizes=(3, 1, 1),
                                 agent=SMALL_AGENT, train="base_iterations = 2\n")
        ckpt = tmp_path / "a.ckpt"
        spec.write_text(spec.read_text().replace("k_views = 8\n", ""))   # k_views: the data's
        assert run_cli(["train", "--spec", spec, "--condition", "baseline", "--data", data,
                        "--seed", "5", "--out", ckpt]) == 0
        cfg = tr.load_checkpoint(ckpt).agent_config
        assert (cfg.d_v, cfg.k_views) == (24, 8)

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_negative_seed_exits_1_writing_nothing(self, trained, tmp_path, capsys, command):
        spec, data, ckpt = trained
        out = tmp_path / "out"
        args = {"train": ["--spec", spec, "--condition", "baseline", "--data", data, "--out", out],
                "eval": ["--ckpt", ckpt, "--condition", "baseline", "--data", data,
                         "--split", "train", "--out", out]}[command]
        assert run_cli([command, *args, "--seed", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "--seed must be >= 0, got -3" in captured.err
        assert not captured.out and list(tmp_path.iterdir()) == []

    def test_report_merges_and_aggregates(self, trained, tmp_path):
        _, data, ckpt = trained
        m1 = tmp_path / "m1.tsv"
        m2 = tmp_path / "m2.tsv"
        for seed, out in (("1", m1), ("2", m2)):
            assert run_cli(["eval", "--ckpt", ckpt, "--condition", "baseline", "--data", data,
                            "--split", "val_unseen", "--seed", seed, "--out", out]) == 0
        out = tmp_path / "summary.tsv"
        assert run_cli(["report", m1, m2, "--out", out]) == 0
        merged = out.read_text().splitlines()
        body = [l for l in merged if l and not l.startswith(("#", "split\t"))]
        assert len(body) == 1 and body[0].endswith("\t2")

    def test_readme_commands_parse(self):
        """Every `imnav ...` line of README's code blocks, joined with its
        backslash continuations, is a command line the CLI accepts."""
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(),
                            flags=re.M | re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True) for line in lines
                    if line.lstrip().startswith("imnav ")]
        assert {argv[1] for argv in commands} == {"data", "train", "eval", "ablate", "report"}
        parser = harness.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail("README: " + " ".join(argv))


def assert_same(a, b, where="split"):
    """`a` equals `b` field by field, through dataclasses, containers and
    numpy arrays (which must also agree in dtype)."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), where
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            assert_same(a[k], b[k], f"{where}[{k!r}]")
    else:
        assert a == b, (where, a, b)


class TestDataDirectory:
    def test_read_split_equals_the_built_split(self, tmp_path):
        """Each split read back from `imnav data` is the split it was built
        from: episodes, worlds, records, kept subs, imaginations, token ids,
        vocabulary and split name."""
        spec_path, data = gen_dataset(
            tmp_path, data_seed=4, sizes=(3, 2, 2),
            world="n_forks = 3\nk_views = 8\nsigma_obs = 0.2\nfidelity = 0.7\nsigma_gen = 0.1\n")
        built = harness.build_spec_splits(harness.read_experiment_spec(spec_path))
        for name in wd.SPLITS:
            read = ds.read_split(data, name)
            assert read.split == name and [it.episode.world.split for it in read.items] == (
                [name] * len(built[name].items))
            assert any(it.imaginations for it in read.items) and any(
                it.record.kept for it in read.items)
            assert_same(read, built[name], name)

    def test_sigma_obs_reads_back_exactly(self, tmp_path):
        # observation noise is drawn with the float64 sigma_obs, so 9 digits are not enough
        _, data = gen_dataset(tmp_path, sizes=(2, 1, 1), world="sigma_obs = 0.1234567891234\n")
        for name in wd.SPLITS:
            assert {item.episode.world.sigma_obs for item in ds.read_split(data, name).items} == {
                0.1234567891234}

    def test_produced_by_names_the_argv_given_to_main(self, trained, tmp_path, monkeypatch):
        """The header names the arguments `main` parsed, not this process's
        sys.argv, also for `eval`, which writes from a pinned worker."""
        spec, _, ckpt = trained
        monkeypatch.setattr(sys, "argv", ["some_driver.py", "--flag"])
        data_argv = ["data", "--spec", str(spec), "--out", str(tmp_path / "data")]
        eval_argv = ["eval", "--ckpt", str(ckpt), "--condition", "baseline",
                     "--data", str(tmp_path / "data"), "--split", "val_seen", "--seed", "1",
                     "--out", str(tmp_path / "m.tsv")]
        for argv, path in ((data_argv, tmp_path / "data" / "train.txt"),
                           (eval_argv, tmp_path / "m.tsv")):
            assert run_cli(argv) == 0
            assert "# produced-by: imnav " + shlex.join(argv) in path.read_text().splitlines()


class TestSeedJob:
    """`_seed_job` run directly on a directory whose data/ `imnav data` wrote."""

    @staticmethod
    def run_dir(tmp_path, **spec):
        """The spec of `gen_dataset(tmp_path, **spec)`, whose data/ is in
        tmp_path, with the output directories `run_ablation` makes."""
        spec_path, _ = gen_dataset(tmp_path, seeds="4", agent=SMALL_AGENT, **spec)
        for sub in ("curves", "ckpt", "threads"):
            (tmp_path / sub).mkdir()
        return spec_path

    def test_seed_job_reads_data_not_the_spec(self, tmp_path):
        spec_path = self.run_dir(tmp_path, conditions="baseline", data_seed=1,
                                 train="base_iterations = 6\n")
        spec = dataclasses.replace(harness.read_experiment_spec(spec_path), data_seed=2)
        with harness._pinned_pool(1) as pool:   # one BLAS thread, as in `imnav train`
            pool.submit(harness._seed_job, spec, 4, str(tmp_path), True).result()
        assert run_cli(["train", "--spec", spec_path, "--condition", "baseline",
                        "--data", tmp_path / "data", "--seed", 4, "--out", tmp_path / "a.bin"]) == 0
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "ckpt" / "baseline_4.bin").read_bytes()

    def test_finetunes_compute_stage_1_once(self, tmp_path, monkeypatch):
        spec = harness.read_experiment_spec(self.run_dir(
            tmp_path, conditions="imagine no_aux infonce",
            train="base_iterations = 4\niterations = 8\n"))
        calls, step = [], tr._train_step

        def counting_step(*args, **kwargs):
            calls.append(None)
            return step(*args, **kwargs)

        monkeypatch.setattr(tr, "_train_step", counting_step)
        harness._seed_job(spec, 4, str(tmp_path), quiet=True)
        iterations, stage1 = spec.train.iterations, spec.train.stage_ends[0]
        assert stage1 > 0
        assert len(calls) == spec.base_iterations + iterations + 2 * (iterations - stage1)


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
        missing = tmp_path / "missing"
        spec = write_spec(tmp_path, train="".join(line + "\n" for line in flags))
        assert run_cli(["train", "--spec", spec, "--condition", "baseline", "--data", missing,
                        "--seed", "1", "--out", tmp_path / "a.ckpt"]) == 1
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

    def test_alignment_loss_in_all_stages_fails_before_building_data(self, tmp_path, capsys):
        # the key stays for specs that name it false, as desk.cfg does
        desk = harness.read_experiment_spec(ROOT / "experiments" / "desk.cfg")
        assert desk.train.aux_in_all_stages is False
        path = write_spec(tmp_path, train="aux_in_all_stages = true\n")
        with pytest.raises(ConfigurationError, match="aux_in_all_stages"):
            harness.read_experiment_spec(path)
        out_dir = tmp_path / "out"
        assert run_cli(["ablate", "--spec", path, "--out-dir", out_dir, "--quiet"]) == 1
        assert "aux_in_all_stages" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("spec, named", [
        ({"seeds": "-1"}, "seeds must be >= 0, got -1"),
        ({"seeds": "3 -2"}, "seeds must be >= 0, got -2"),
        ({"data_seed": -1}, "data_seed must be >= 0, got -1"),
        ({"agent": "heads = 0\n"}, "heads must be >= 1, got 0"),
        ({"agent": "heads = -2\n"}, "heads must be >= 1, got -2"),
        ({"agent": "d = 0\n"}, "d must be >= 1, got 0"),
        ({"agent": "cross_layers = 0\n"}, "cross_layers must be >= 1, got 0"),
        ({"world": "sigma_obs = -0.1\n"}, "sigma_obs must be finite and >= 0, got -0.1"),
        ({"world": "sigma_obs = nan\n"}, "sigma_obs must be finite and >= 0, got nan"),
        ({"world": "sigma_obs = inf\n"}, "sigma_obs must be finite and >= 0, got inf"),
    ], ids=["seed_-1", "second_seed_-2", "data_seed_-1", "heads_0", "heads_-2", "d_0",
            "cross_layers_0", "sigma_obs_-0.1", "sigma_obs_nan", "sigma_obs_inf"])
    def test_values_that_cannot_run_exit_1_writing_nothing(self, tmp_path, capsys, spec, named):
        """`data` and `ablate` each fail naming the key, before they write a file."""
        path = write_spec(tmp_path, **spec)
        for command in (["data", "--spec", path, "--out", tmp_path / "data"],
                        ["ablate", "--spec", path, "--out-dir", tmp_path / "run", "--quiet"]):
            assert run_cli(command) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err
        assert list(tmp_path.iterdir()) == [path]

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
        summary = harness.summarize([metrics_row("val_unseen", "imagine", 0.5, seed=s)
                                     for s in (1, 2)] +
                                    [metrics_row("val_unseen", "wrong_test", 0.3, seed=s)
                                     for s in (1, 2)])
        lines = harness.verdict_lines(summary, ["imagine", "wrong_test"])
        assert lines == ["hypothesis correct>wrong: PASS (Δ=+20.0 SR)"]

    def test_text_only_verdict(self):
        def summary(text_only):
            return harness.summarize([metrics_row("val_unseen", cond, sr, n=1000)
                                      for cond, sr in (("imagine", 0.335), ("text_only", text_only),
                                                       ("baseline", 0.30))])
        lines = harness.verdict_lines(summary(0.212), ["baseline", "imagine", "text_only"])
        assert "hypothesis imagine>text_only: PASS (Δ=+12.3 SR)" in lines
        lines = harness.verdict_lines(summary(0.30), ["baseline", "imagine", "text_only"])
        assert "hypothesis imagine>text_only: FAIL (Δ=+3.5 SR)" in lines
        # no verdict without the text_only condition
        lines = harness.verdict_lines(summary(0.212), ["baseline", "imagine"])
        assert not any("text_only" in line for line in lines)

    @pytest.mark.parametrize("rhs_successes", [(29, 22, 35, 18, 26), (27, 33, 21, 36, 25)])
    @pytest.mark.parametrize("hypothesis", harness.HYPOTHESES, ids=lambda h: h[0])
    def test_verdict_at_exactly_its_margin(self, hypothesis, rhs_successes):
        """At 5 seeds of 60 episodes Δ moves in steps of 1/3 SR point, so a Δ
        lands exactly on its margin, where the float means differ from it by
        a rounding: exactly at the margin PASSes, one success short FAILs.
        The other condition's successes are rotated over the seeds, so equal
        totals do not mean equal rows."""
        name, lhs, rhs, margin = hypothesis
        need = 6 if margin is None else round(3 * margin)    # successes over 300 episodes
        cases = [(need, "PASS"), (need + 1, "FAIL")] if margin is None else [
            (need, "PASS"), (need - 1, "FAIL")]
        if margin is None:       # |Δ| <= 2: the lower side too
            cases += [(-need, "PASS"), (-need - 1, "FAIL")]
        rotated = rhs_successes[1:] + rhs_successes[:1]
        for extra, verdict in cases:
            lhs_successes = [n + extra // 5 + (i < extra % 5) for i, n in enumerate(rotated)]
            assert sum(lhs_successes) - sum(rhs_successes) == extra
            rows = [metrics_row("val_unseen", cond, n / 60, n=60, seed=seed)
                    for cond, successes in ((lhs, lhs_successes), (rhs, rhs_successes))
                    for seed, n in enumerate(successes)]
            (line,) = harness.verdict_lines(harness.summarize(rows), [lhs, rhs])
            assert line.startswith(f"hypothesis {name}: {verdict} (Δ="), (extra, line)

    def test_every_condition_is_named_by_a_hypothesis(self):
        # a trained or test-time condition that no verdict reads has no claim to test
        named = {c for _, lhs, rhs, _ in harness.HYPOTHESES for c in (lhs, rhs)}
        unnamed = set(harness.TRAIN_CONDITIONS) | set(harness.TEST_CONDITIONS)
        assert not unnamed - named, sorted(unnamed - named)


class TestDefaults:
    """Spec keys take their defaults from the config dataclass fields."""

    def test_spec_defaults_are_field_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nname = defaults\n")
        spec = harness.read_experiment_spec(path)
        assert spec == harness.ExperimentSpec(name="defaults")
        assert spec.train == tr.TrainConfig() and spec.imagination == im.ImaginationConfig()
        assert spec.world == {} and spec.agent == {}

    def test_every_agent_setting_has_a_source(self):
        """An AgentConfig field is set by the data, a spec key or a condition:
        a setting that none of them sets is a module constant of `agent`."""
        from_data = {"vocab_size", "k_views"}
        from_spec = {name for keys in harness.SPEC_KEYS.values()
                     for cls, name in keys.values() if cls is ag.AgentConfig}
        from_conditions = {name for _, overrides in harness.TRAIN_CONDITIONS.values()
                           for name in overrides}
        fields = {f.name for f in dataclasses.fields(ag.AgentConfig)}
        assert fields == from_data | from_spec | from_conditions


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
        for name in ("metrics.tsv", "summary.txt", "verdicts.txt",
                     *(f"data/{name}" for name in DATA_FILES)):
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
    """`imnav train` and `imnav eval` on the files of `imnav data` compute,
    byte for byte, what `imnav ablate` computes for the same spec and seed."""
    SEED = 3
    CONDITIONS = "baseline imagine null_test wrong_test goal_only no_aux infonce text_only"
    # every world and imagination value differs from its default
    WORLD = ("n_forks = 3\nk_views = 8\nd_v = 24\nsigma_obs = 0.2\n"
             "fidelity = 0.7\nsigma_gen = 0.1\n")

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """The spec, the ablation's output directory and the data directory."""
        tmp_path = tmp_path_factory.mktemp("cli_ablate")
        spec = write_spec(tmp_path, self.CONDITIONS, seeds=str(self.SEED), data_seed=1,
                          world=self.WORLD, sizes=(6, 2, 4), agent=SMALL_AGENT,
                          train="base_iterations = 6\niterations = 8\n")
        out = tmp_path / "ablate"
        assert run_cli(["ablate", "--spec", spec, "--out-dir", out, "--quiet"]) == 0
        data = tmp_path / "data"
        assert run_cli(["data", "--spec", spec, "--out", data]) == 0
        return spec, out, data

    @staticmethod
    def body(path):
        return [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]

    def test_ablate_writes_the_data_of_imnav_data(self, run):
        _, out, data = run
        assert sorted(p.name for p in (out / "data").iterdir()) == sorted(DATA_FILES)
        for name in DATA_FILES:
            assert self.body(out / "data" / name) == self.body(data / name), name

    def test_reading_and_writing_a_split_is_a_fixed_point(self, run, tmp_path):
        """`write_split` of each split that `read_split` reads reproduces its
        file byte for byte, and the split read equals the split the spec
        builds, field by field: each imagination's sub-instruction, true
        class, emitted class and feature included."""
        spec, _, data = run
        built = harness.build_spec_splits(harness.read_experiment_spec(spec))
        assert any(im.corrupted for item in built["train"].items for im in item.imaginations)
        for name in wd.SPLITS:
            produced_by, seed = (data / f"{name}.txt").read_text().splitlines()[1:3]
            command = produced_by.removeprefix("# produced-by: ")
            seed = int(seed.removeprefix("# seed: "))
            read = ds.read_split(data, name)
            ds.write_split(tmp_path, read, command=command, seed=seed)
            assert (tmp_path / f"{name}.txt").read_bytes() == (data / f"{name}.txt").read_bytes()
            assert_same(read, built[name], name)

    def test_train_and_eval_reproduce_the_ablation(self, run, tmp_path):
        spec, out, data = run
        seed = self.SEED
        for cond in ("baseline", "imagine", "no_aux", "infonce", "text_only"):
            init = [] if cond == "baseline" else ["--init-from", tmp_path / "baseline.bin"]
            proc = run_harness("train", "--spec", spec, "--condition", cond, "--data", data,
                               *init, "--seed", seed, "--out", tmp_path / f"{cond}.bin",
                               "--curves", tmp_path / f"{cond}.tsv")
            assert proc.returncode == 0, proc.stderr
            assert ((tmp_path / f"{cond}.bin").read_bytes()
                    == (out / "ckpt" / f"{cond}_{seed}.bin").read_bytes()), cond
            assert (self.body(tmp_path / f"{cond}.tsv")
                    == self.body(out / "curves" / f"{cond}_{seed}.tsv")), cond
        rows = {tuple(line.split("\t")[:2]): line for line in self.body(out / "metrics.tsv")[1:]}
        assert sorted(rows) == sorted((split, cond) for split in ("val_seen", "val_unseen")
                                      for cond in self.CONDITIONS.split())
        for (split, cond), want in rows.items():
            ckpt = tmp_path / ("imagine.bin" if cond in harness.TEST_CONDITIONS else f"{cond}.bin")
            metrics = tmp_path / f"m_{split}_{cond}.tsv"
            proc = run_harness("eval", "--ckpt", ckpt, "--condition", cond, "--data", data,
                               "--split", split, "--seed", seed, "--out", metrics)
            assert proc.returncode == 0, proc.stderr
            assert self.body(metrics)[1:] == [want], (split, cond)
            assert proc.stdout.splitlines() == [want], (split, cond)

    def test_train_checkpoint_ignores_inherited_blas_threads(self, run, tmp_path):
        spec, _, data = run
        ckpts = [tmp_path / f"threads{n}.bin" for n in (2, 1)]
        for n, ckpt in zip((2, 1), ckpts):
            proc = run_harness("train", "--spec", spec, "--condition", "baseline", "--data", data,
                               "--seed", self.SEED, "--out", ckpt, blas_threads=n)
            assert proc.returncode == 0, proc.stderr
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes()

    @pytest.mark.parametrize("condition, init", [("imagine", False), ("text_only", False),
                                                 ("baseline", True)])
    def test_init_from_required_for_finetunes_only(self, run, tmp_path, capsys, condition, init):
        spec, out, data = run
        extra = ["--init-from", out / "ckpt" / f"baseline_{self.SEED}.bin"] * init
        capsys.readouterr()
        assert run_cli(["train", "--spec", spec, "--condition", condition, "--data", data,
                        *extra, "--seed", "1", "--out", tmp_path / "a.bin"]) == 1
        assert "--init-from" in capsys.readouterr().err
        assert not (tmp_path / "a.bin").exists()

    def test_empty_init_from_is_a_missing_file(self, run, tmp_path, capsys):
        """`--init-from ""`, as an unset shell variable gives it, names no
        base checkpoint: it is refused, not a finetune from a random base."""
        spec, _, data = run
        capsys.readouterr()
        assert run_cli(["train", "--spec", spec, "--condition", "imagine", "--data", data,
                        "--init-from", "", "--seed", "1", "--out", tmp_path / "a.bin"]) == 1
        assert capsys.readouterr().err == "error: --init-from is an empty path\n"
        assert not (tmp_path / "a.bin").exists()

    def test_finetune_of_a_base_with_another_agent_exits_1(self, run, tmp_path, capsys):
        """A spec whose [agent] differs from the base checkpoint's agent is
        refused, naming each field that differs, before any checkpoint is
        written."""
        spec, out, data = run
        other = tmp_path / "other.cfg"
        other.write_text(spec.read_text().replace("heads = 2", "heads = 4")
                         .replace("cross_layers = 1", "cross_layers = 2"))
        capsys.readouterr()
        assert run_cli(["train", "--spec", other, "--condition", "imagine", "--data", data,
                        "--init-from", out / "ckpt" / f"baseline_{self.SEED}.bin",
                        "--seed", "1", "--out", tmp_path / "a.bin"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "heads = 2 (spec: 4)" in err and "cross_layers = 1 (spec: 2)" in err
        assert not (tmp_path / "a.bin").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--iters", "4"), ("--batch-size", "2"), ("--schedule", "flat"), ("--flat-lr", "0.1"),
        ("--aux", "none"), ("--lam", "0.5"), ("--infonce-lam", "0.2"), ("--tau", "0.1"),
        ("--lr-multiplier", "1"), ("--stage-fractions", "0.5 0.25 0.25"),
        ("--no-imaginations", None), ("--d", "32"), ("--heads", "2"), ("--cross-layers", "1")])
    def test_removed_train_flags_exit_2(self, flag, value):
        # --d must not abbreviate --data
        args = ["train", "--spec", "s", "--condition", "baseline", "--data", "d",
                "--seed", "1", "--out", "o"]
        assert parses(args)
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, flag, *(value.split() if value else [])])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, args", [
        ("train", ["--spec", "s"]),
        ("eval", ["--ckpt", "k"]),
        ("eval", ["--ckpt", "k", "--condition", "imagine", "--policy", "null"]),
        ("eval", ["--ckpt", "k", "--condition", "correct"])])
    def test_condition_is_required_and_replaces_policy(self, command, args):
        common = ["--data", "d", "--seed", "1", "--out", "o"] + (
            ["--split", "val_unseen"] if command == "eval" else [])
        assert parses([command, *args[:2], "--condition", "baseline", *common])
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *args, *common])
        assert exc.value.code == 2

    def test_spec_d_v_must_match_the_files(self, run, tmp_path, capsys):
        spec, out, data = run
        other = tmp_path / "spec.cfg"     # world.d_v left at its default, 16; the files have 24
        other.write_text(spec.read_text().replace("d_v = 24\n", ""))
        capsys.readouterr()
        assert run_cli(["train", "--spec", other, "--condition", "baseline", "--data", data,
                        "--seed", "1", "--out", tmp_path / "a.bin"]) == 1
        err = capsys.readouterr().err
        assert "d_v = 16" in err and "d_v = 24" in err
        assert not (tmp_path / "a.bin").exists()

    def test_eval_policy_per_condition(self):
        assert {c: harness.eval_policy(c) for c in harness.ALL_CONDITIONS} == {
            "baseline": "null", "imagine": "correct", "no_aux": "correct",
            "infonce": "correct", "text_only": "correct", "null_test": "null",
            "wrong_test": "wrong", "goal_only": "goal_only"}
