import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imnav import dataset as ds
from imnav import evaluation as ev
from imnav import harness
from imnav import imagination as im
from imnav import instructions as ins
from imnav import serial
from imnav import world as wd
from imnav.errors import FormatError

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def split():
    """A train split of six default worlds at d_v = 16."""
    library, templates, lexicon = ds.load_assets(d_v=16)
    vocab = ins.build_vocab(templates, library)
    episodes = [wd.sample_episode(wd.generate_world(wd.WorldConfig(library=library), seed=s))
                for s in range(6)]
    records = ins.build_corpus(episodes, templates, lexicon, seed=1, vocab=vocab)
    sets = im.imagine_dataset(records, library, im.ImaginationConfig(), seed=2)
    return ds.bundle(episodes, records, sets, vocab, library, "train")


def written(split, tmp_path):
    """The path of `split` written into tmp_path, and its lines."""
    ds.write_split(tmp_path, split, command="test", seed=1)
    path = tmp_path / "train.txt"
    return path, path.read_text().splitlines()


def rewritten(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def edited(split, tmp_path, tag, column, value):
    """`split` written into tmp_path with field `column` of the first `tag`
    record of world 0 set to `value`; returns the path and the line number."""
    path, lines = written(split, tmp_path)
    idx = next(i for i, line in enumerate(lines) if line.startswith(f"{tag} 0 "))
    fields = lines[idx].split(" ")
    fields[column] = value
    lines[idx] = " ".join(fields)
    return rewritten(path, lines), idx + 1


class TestWorldsRoundTrip:
    def test_exact(self, split, tmp_path):
        path, _ = written(split, tmp_path)
        library, rows = serial.read_split(path)
        assert len(rows) == len(split.items)
        for c0, c1 in zip(split.library.classes, library.classes):
            assert c0.phrase == c1.phrase and c0.held_out == c1.held_out
            assert np.array_equal(c0.prototype, c1.prototype)
        assert np.array_equal(split.library.background, library.background)
        for item, (e1, _, _) in zip(split.items, rows):
            e0, w0, w1 = item.episode, item.episode.world, e1.world
            assert np.array_equal(w0.positions, w1.positions)
            assert w0.edges == w1.edges
            assert w0.view_map == w1.view_map
            assert {k: tuple(sorted(v)) for k, v in w0.placements.items()} == \
                   {k: tuple(sorted(v)) for k, v in w1.placements.items()}
            assert (e0.start, e0.goal, e0.teacher_path, e0.mode) == \
                   (e1.start, e1.goal, e1.teacher_path, e1.mode)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a header\n")
        with pytest.raises(FormatError):
            serial.read_split(path)

    def test_malformed_record_names_line(self, split, tmp_path):
        path, lineno = edited(split, tmp_path, "world", 5, "oops")     # n_forks
        with pytest.raises(FormatError) as exc:
            serial.read_split(path)
        assert f":{lineno}:" in str(exc.value)

    def test_missing_instr_record_names_the_world(self, split, tmp_path):
        path, lines = written(split, tmp_path)
        kept = [l for l in lines if not l.startswith("instr 2 ")]
        assert len(kept) == len(lines) - 1
        with pytest.raises(FormatError, match="world 2 has no instr record"):
            serial.read_split(rewritten(path, kept))

    @pytest.mark.parametrize("tag, column, value, named", [
        ("imag", 2, "60", "class 60"),
        ("imag", 2, "-1", "class -1")])
    def test_view_or_class_out_of_range_names_the_line(self, split, tmp_path, tag, column,
                                                       value, named):
        # imag <w> <emitted class> <feature...>
        assert len(split.library.classes) == 60
        path, lineno = edited(split, tmp_path, tag, column, value)
        with pytest.raises(FormatError, match=named) as exc:
            serial.read_split(path)
        assert f":{lineno}:" in str(exc.value)

    @pytest.mark.parametrize("sigma_obs", ["-0.1", "nan", "inf"])
    def test_sigma_obs_that_cannot_generate_names_the_line(self, split, tmp_path, sigma_obs):
        # world generation's rule: finite and >= 0
        path, lineno = edited(split, tmp_path, "world", 4, sigma_obs)
        with pytest.raises(FormatError, match="sigma_obs must be finite and >= 0") as exc:
            serial.read_split(path)
        assert f":{lineno}:" in str(exc.value)

    @pytest.mark.parametrize("tag", ["world", "instr"])
    def test_second_record_of_a_world_names_the_line(self, split, tmp_path, tag):
        path, lines = written(split, tmp_path)
        idx = next(i for i, l in enumerate(lines) if l.startswith(f"{tag} 0 "))
        lines.insert(idx + 1, lines[idx].replace(" left ", " right "))
        with pytest.raises(FormatError, match=f"a second {tag} record for world 0") as exc:
            serial.read_split(rewritten(path, lines))
        assert f":{idx + 2}:" in str(exc.value)

    @pytest.mark.parametrize("at, new_id, named", [
        (2, "1", "a second class record for class 1"),   # classes 0, 1, 1, ...
        (1, "2", "class 2 comes before class 1")])       # classes 0, 2, 2, ...
    def test_class_out_of_order_names_the_line(self, split, tmp_path, at, new_id, named):
        path, lines = written(split, tmp_path)
        idx = [i for i, l in enumerate(lines) if l.startswith("class ")][at]
        assert lines[idx].startswith(f"class {at} ")
        lines[idx] = f"class {new_id} " + lines[idx].split(" ", 2)[2]
        with pytest.raises(FormatError, match=f"malformed 'class' record: {named}") as exc:
            serial.read_split(rewritten(path, lines))
        assert f":{idx + 1}:" in str(exc.value)

    def test_background_width_must_be_d_v(self, split, tmp_path):
        path, lines = written(split, tmp_path)
        idx = next(i for i, l in enumerate(lines) if l.startswith("background "))
        lines[idx] = lines[idx].rsplit(" ", 1)[0]           # d_v - 1 values
        with pytest.raises(FormatError, match="background has 15 dims, expected 16") as exc:
            serial.read_split(rewritten(path, lines))
        assert f":{idx + 1}:" in str(exc.value)

    @pytest.mark.parametrize("count", ["59", "61"])
    def test_library_class_count_must_match_the_class_records(self, split, tmp_path, count):
        path, lines = written(split, tmp_path)
        idx = next(i for i, l in enumerate(lines) if l.startswith("library "))
        assert lines[idx] == "library 60 16"
        lines[idx] = f"library {count} 16"
        with pytest.raises(FormatError,
                           match=f"says {count} classes but the file has 60 class records") as exc:
            serial.read_split(rewritten(path, lines))
        assert f":{idx + 1}:" in str(exc.value)

    @staticmethod
    def world_record(split, w=0):
        """(the world record of world `w` as written, its n_forks, its
        draws): world <w> <split> <k_views> <sigma_obs> <n_forks> <draws...>"""
        world = split.items[w].episode.world
        draws = list(world.draws)
        n_forks = len(draws) // 4
        return (f"world {w} {world.split} {world.k_views} {world.sigma_obs!r} {n_forks} "
                + " ".join(map(str, draws)), n_forks, draws)

    def test_world_record_holds_the_draws(self, split, tmp_path):
        """Landmarks, decoys, sides, then the free views of the dead ends and
        the goal, which show the decoys and the last landmark."""
        _, lines = written(split, tmp_path)
        for w, item in enumerate(split.items):
            line, n, draws = self.world_record(split, w)
            assert line in lines and len(draws) == 4 * n + 1 and n == wd.WorldConfig.n_forks
            world = item.episode.world
            landmarks, decoys, sides = draws[:n], draws[n:2 * n], draws[2 * n:3 * n]
            assert set(sides) <= {1, -1} and len({*landmarks, *decoys}) == 2 * n
            goal = item.episode.goal
            assert world.placements[goal] == ((landmarks[-1], draws[-1]),)
            shown = sorted(cid for entries in world.placements.values() for cid, _ in entries)
            assert shown == sorted(landmarks + 2 * decoys + landmarks[-1:])
        assert not [l for l in lines if l.split(" ")[0] in ("node", "edge", "place")]

    @staticmethod
    def free_and_bound_views(split):
        """World 0's goal, a free view of it other than the recorded one, and
        the view its one edge uses."""
        world = split.items[0].episode.world
        goal = split.items[0].episode.goal
        (bound,) = world.view_map[goal]
        recorded = world.placements[goal][0][1]
        other = next(v for v in range(world.k_views) if v not in (bound, recorded))
        return goal, other, bound

    @pytest.mark.parametrize("case", [
        "landmark_outside_library", "landmark_held_out", "decoy_repeats_landmark",
        "side_0", "side_2", "view_past_k", "view_negative", "view_on_edge", "draw_dash",
        "too_few_draws", "too_many_draws", "no_forks"])
    def test_draw_that_cannot_build_the_world_names_the_line(self, split, tmp_path, case):
        """Recorded draws are checked as generation would have drawn them."""
        line, n, draws = self.world_record(split)
        head, fields = line.split(" ")[:6], line.split(" ")[6:]
        goal, other, bound = self.free_and_bound_views(split)
        held_out = next(c.id for c in split.library.classes if c.held_out)
        edits = {   # case -> (draw index, value, message)
            "landmark_outside_library": (0, "60", "class 60 is not in the train pool"),
            "landmark_held_out": (0, str(held_out), f"class {held_out} is not in the train pool"),
            "decoy_repeats_landmark": (n, str(draws[0]), f"class {draws[0]} is drawn twice"),
            "side_0": (2 * n, "0", "side 0 is not 1 or -1"),
            "side_2": (2 * n, "2", "side 2 is not 1 or -1"),
            "view_past_k": (-1, "12", f"view 12 is not free at node {goal}"),
            "view_negative": (-1, "-1", f"view -1 is not free at node {goal}"),
            "view_on_edge": (-1, str(bound), f"view {bound} is not free at node {goal}"),
            "draw_dash": (1, "-", "'-'")}
        if case in edits:
            index, value, named = edits[case]
            fields[index] = value
        elif case == "no_forks":   # with the one draw an n_forks = 0 record holds
            head[5], fields, named = "0", fields[-1:], "needs n_forks >= 1"
        else:
            fields = fields[:-1] if case == "too_few_draws" else fields + [str(other)]
            named = f"has {len(fields)} draws; n_forks={n} makes {4 * n + 1}"
        path, lines = written(split, tmp_path)
        idx = lines.index(line)
        lines[idx] = " ".join(head + fields)
        with pytest.raises(FormatError, match=re.escape(named)) as exc:
            serial.read_split(rewritten(path, lines))
        assert f":{idx + 1}: malformed 'world' record" in str(exc.value)

    @pytest.mark.parametrize("classes", ["seen", "held_out"])
    def test_unknown_split_names_the_line(self, split, tmp_path, classes):
        """A mistyped split names its world line, whether the world draws
        the seen classes it was written with or held-out ones."""
        line, n, _ = self.world_record(split)
        fields = line.split(" ")
        fields[2] = "val_unsen"
        if classes == "held_out":
            fields[6:6 + 2 * n] = map(str, split.library.pool("val_unseen")[:2 * n])
        path, lines = written(split, tmp_path)
        idx = lines.index(line)
        lines[idx] = " ".join(fields)
        rewritten(path, lines)
        for read in (serial.read_split, lambda path: ds.read_split(path.parent, "train")):
            with pytest.raises(FormatError, match=re.escape(
                    f":{idx + 1}: malformed 'world' record: unknown split 'val_unsen'")):
                read(path)

    def test_another_free_view_is_read_as_drawn(self, split, tmp_path):
        # the recorded free view is where the goal shows its class; the
        # graph and its view bindings do not depend on it
        line, _, _ = self.world_record(split)
        goal, other, _ = self.free_and_bound_views(split)
        path, lines = written(split, tmp_path)
        lines[lines.index(line)] = line.rsplit(" ", 1)[0] + f" {other}"
        _, rows = serial.read_split(rewritten(path, lines))
        world, built = rows[0][0].world, split.items[0].episode.world
        assert world.placements[goal] == ((built.placements[goal][0][0], other),)
        assert world.edges == built.edges and world.view_map == built.view_map

    def test_node_with_more_edges_than_views_names_the_line(self, split, tmp_path):
        """Binding views to more edges than a node has views never ends, so
        the file is read in a child process that must finish."""
        path, lineno = edited(split, tmp_path, "world", 3, "2")   # k_views 2 < fork degree 3
        code = ("import sys; from imnav import serial; from imnav.errors import FormatError\n"
                "try:\n    serial.read_split(sys.argv[1])\n"
                "except FormatError as exc:\n    print(exc)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (f":{lineno}: malformed 'world' record: K=2 too small for max degree 3"
                in proc.stdout), proc.stdout

    def test_v1_file_fails_at_the_header(self, split, tmp_path):
        path, lines = written(split, tmp_path)
        lines[0] = "# imnav-split v1"
        with pytest.raises(FormatError, match="re-make the split files with `imnav data`"):
            serial.read_split(rewritten(path, lines))

    def test_v2_file_fails_at_the_header(self, split, tmp_path):
        path, lines = written(split, tmp_path)
        lines[0] = "# imnav-split v2"
        with pytest.raises(FormatError, match="expected header '# imnav-split v3'; re-make the "
                                              "split files with `imnav data`"):
            serial.read_split(rewritten(path, lines))

    @pytest.mark.parametrize("record", ["view 0 1 0 0", "episode 0 0 4 3 0 1 2", "gold 0 0",
                                        "node 0 0 0 0", "edge 0 0 1", "place 0 4 6 33"])
    def test_removed_record_is_an_unknown_tag(self, split, tmp_path, record):
        # v1's view bindings, route and gold annotation, and v2's nodes,
        # edges and placements, are derived on reading
        path, lines = written(split, tmp_path)
        idx = next(i for i, l in enumerate(lines) if l.startswith("instr 0 "))
        lines.insert(idx, record)
        with pytest.raises(FormatError, match=f"malformed '{record.split()[0]}' record: "
                                              "unknown record tag") as exc:
            serial.read_split(rewritten(path, lines))
        assert f":{idx + 1}:" in str(exc.value)


class TestSplitFileRoundTrip:
    """Writing what `dataset.read_split` read from a split file gives the
    file back byte for byte."""

    @staticmethod
    def assert_rewritten(splits, out):
        """Write each split into out/a, and what is read from there into out/b."""
        first, second = out / "a", out / "b"
        first.mkdir(parents=True)
        second.mkdir()
        for split in splits.values():
            ds.write_split(first, split, command="test", seed=0)
            ds.write_split(second, ds.read_split(first, split.split), command="test", seed=0)
            name = f"{split.split}.txt"
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_desk_data(self, tmp_path):
        spec = harness.read_experiment_spec(ROOT / "experiments" / "desk.cfg")
        self.assert_rewritten(harness.build_spec_splits(spec), tmp_path)

    @pytest.mark.parametrize("n_forks", [1, 2, 3, 4, 5])
    def test_fork_and_view_counts(self, tmp_path, n_forks):
        library, templates, lexicon = ds.load_assets(d_v=16)
        for k_views in (6, 8, 10, 12):
            self.assert_rewritten(ds.standard_splits(
                library, templates, lexicon, n_forks=n_forks, k_views=k_views, train_n=4,
                val_seen_n=4, val_unseen_n=4, data_seed=n_forks * 100 + k_views),
                tmp_path / str(k_views))


class TestCorpusRoundTrip:
    def test_exact(self, split, tmp_path):
        written(split, tmp_path)
        read = ds.read_split(tmp_path, "train")
        for item0, item1 in zip(split.items, read.items):
            r0, r1 = item0.record, item1.record
            assert r0.instruction.tokens == r1.instruction.tokens
            assert r0.subs == r1.subs and r0.kept == r1.kept
            assert item0.token_ids == item1.token_ids

    @pytest.mark.parametrize("tag, named", [("instr", "tokens")])
    def test_a_field_past_the_count_names_the_line(self, split, tmp_path, tag, named):
        # instr <w> <n> <n tokens>
        path, lines = written(split, tmp_path)
        idx = next(i for i, l in enumerate(lines) if l.startswith(tag + " "))
        lines[idx] += " left"
        with pytest.raises(FormatError, match=named) as exc:
            serial.read_split(rewritten(path, lines))
        assert f":{idx + 1}:" in str(exc.value)

    @pytest.mark.parametrize("world", ["past_last", "-1"])
    def test_world_index_out_of_range_names_the_line(self, split, tmp_path, world):
        index = str(len(split.items)) if world == "past_last" else world
        path, lineno = edited(split, tmp_path, "instr", 1, index)
        with pytest.raises(FormatError, match=f"world {index} outside") as exc:
            serial.read_split(path)
        assert f":{lineno}:" in str(exc.value)

    def test_kept_step_without_a_route_landmark_names_the_world(self, split, tmp_path):
        # a delimiter inside a kept step leaves the instruction with more
        # segments than its route has steps, so no segment has a route step
        path, lines = written(split, tmp_path)
        kept = split.items[0].record.kept[0]
        idx = next(i for i, line in enumerate(lines) if line.startswith("instr 0 "))
        fields = lines[idx].split(" ")
        fields[3 + kept.span[0]] = "."          # instr <w> <n> <tokens...>
        lines[idx] = " ".join(fields)
        rewritten(path, lines)
        # the rest of the step, after its new one-token segment, is still kept
        with pytest.raises(FormatError, match=f"world 0: kept sub-instruction {kept.index + 1} "
                                              "has no route step that shows a landmark"):
            ds.read_split(tmp_path, "train")

    @staticmethod
    def with_instruction(split, tmp_path, w, tokens):
        """`split` written into tmp_path with the tokens of world `w` replaced."""
        path, lines = written(split, tmp_path)
        idx = next(i for i, line in enumerate(lines) if line.startswith(f"instr {w} "))
        lines[idx] = f"instr {w} {len(tokens)} {' '.join(tokens)}"
        rewritten(path, lines)

    def test_kept_step_moved_off_its_route_step_names_the_world(self, split, tmp_path):
        """A kept step swapped with the unkept step after it describes a
        route step whose view shows no landmark."""
        w, item, k = next((w, item, k) for w, item in enumerate(split.items)
                          for k, (a, b) in enumerate(zip(item.record.subs, item.record.subs[1:]))
                          if a.filter_verdict == "kept" and b.filter_verdict != "kept")
        subs, tokens = item.record.subs, item.record.instruction.tokens
        (s, m), (_, e) = subs[k].span, subs[k + 1].span
        self.with_instruction(split, tmp_path, w,
                              tokens[:s] + tokens[m:e] + tokens[s:m] + tokens[e:])
        with pytest.raises(FormatError, match=f"world {w}: kept sub-instruction {k + 1} has no "
                                              "route step that shows a landmark"):
            ds.read_split(tmp_path, "train")

    def test_edited_instruction_is_resegmented(self, split, tmp_path):
        """An instruction edited in the file gets the sub-instructions,
        verdicts and noun positions of its new tokens: an unkept step given a
        longer wording moves every later step, and its noun positions, one
        token on, while each segment keeps its route step's class."""
        w, item, k = next((w, item, k) for w, item in enumerate(split.items)
                          for k, sub in enumerate(item.record.subs)
                          if len(sub.tokens) == 3 and sub.filter_verdict != "kept"
                          and any(later.index > k for later in item.record.kept))
        subs, tokens = item.record.subs, item.record.instruction.tokens
        s, e = subs[k].span
        new = tokens[:s] + ("walk", "toward", "it", ".") + tokens[e:]
        self.with_instruction(split, tmp_path, w, new)
        read = ds.read_split(tmp_path, "train").items[w]
        assert read.record.instruction.tokens == new
        assert [(sub.span, sub.noun_token_indices, sub.filter_verdict, sub.landmark_class)
                for sub in read.record.subs[k + 1:]] == [
            (tuple(i + 1 for i in sub.span), tuple(i + 1 for i in sub.noun_token_indices),
             sub.filter_verdict, sub.landmark_class) for sub in subs[k + 1:]]
        assert read.record.subs[k].filter_verdict != "kept"
        assert [(im.sub_index, im.true_class) for im in read.imaginations] == [
            (im.sub_index, im.true_class) for im in item.imaginations]


class TestImaginationsRoundTrip:
    def test_exact(self, split, tmp_path):
        written(split, tmp_path)
        read = ds.read_split(tmp_path, "train")
        for item0, item1 in zip(split.items, read.items):
            assert len(item0.imaginations) == len(item1.imaginations)
            for a, b in zip(item0.imaginations, item1.imaginations):
                assert np.array_equal(a.feature, b.feature)
                assert (a.sub_index, a.true_class, a.emitted_class) == \
                       (b.sub_index, b.true_class, b.emitted_class)

    @pytest.mark.parametrize("instruction", ["past_last", "-1"])
    def test_instruction_index_out_of_range_names_the_line(self, split, tmp_path, instruction):
        # imag <w> ...: one instruction per world
        index = str(len(split.items)) if instruction == "past_last" else instruction
        path, lineno = edited(split, tmp_path, "imag", 1, index)
        with pytest.raises(FormatError, match=f"world {index} outside") as exc:
            serial.read_split(path)
        assert f":{lineno}:" in str(exc.value)

    @pytest.mark.parametrize("edit", ["drop", "add"])
    def test_imagination_count_must_match_the_kept_count(self, split, tmp_path, edit):
        path, lines = written(split, tmp_path)
        kept = len(split.items[0].record.kept)
        assert kept >= 1
        idx = next(i for i, l in enumerate(lines) if l.startswith("imag 0 "))
        lines[idx:idx + 1] = [] if edit == "drop" else [lines[idx]] * 2
        rewritten(path, lines)
        n = kept - 1 if edit == "drop" else kept + 1
        with pytest.raises(FormatError, match=f"world 0 has {n} imaginations for its {kept} "
                                              "kept sub-instructions"):
            ds.read_split(tmp_path, "train")


class TestMetrics:
    @staticmethod
    def rows():
        """(MetricsRecord, condition) rows whose rates are exact in the file's
        2-decimal percentages."""
        return [(ev.MetricsRecord(sr=0.6, spl=0.55, ne_mean=1.2, tl_mean=4.5, count=40, seed=7,
                                  split="val_unseen"), "imagine"),
                (ev.MetricsRecord(sr=0.62, spl=0.57, ne_mean=1.1, tl_mean=4.4, count=40, seed=8,
                                  split="val_seen"), "null_test")]

    def test_roundtrip_and_percentages(self, tmp_path):
        path = tmp_path / "m.tsv"
        ev.write_metrics(path, self.rows(), command="test", seed=7)
        assert "\tnull_test\t62.00\t57.00\t1.1000\t4.4000\t40\t8" in path.read_text()
        assert ev.read_metrics(path) == self.rows()

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        ev.write_metrics(path, self.rows())
        lines = path.read_text().splitlines()
        lines.append("too\tfew\tcolumns")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            ev.read_metrics(path)
        assert str(len(lines)) in str(exc.value)

    def test_header_carries_command_and_seed(self, tmp_path):
        path = tmp_path / "m.tsv"
        ev.write_metrics(path, self.rows(), command="imnav eval --x", seed=7)
        text = path.read_text()
        assert "# produced-by: imnav eval --x" in text
        assert "# seed: 7" in text


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "summary.txt"
        serial.write_text(path, ["old"])
        with pytest.raises(RuntimeError):
            with serial.atomic_open(path) as fh:
                fh.write("new, half written")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.txt"]

    def test_header_then_lines(self, tmp_path):
        path = tmp_path / "a.txt"
        serial.write_text(path, ["x", "y"], tag="# tag v1", command="imnav t", seed=3)
        assert path.read_text() == "# tag v1\n# produced-by: imnav t\n# seed: 3\nx\ny\n"
        serial.write_text(path, [])
        assert path.read_text() == ""
