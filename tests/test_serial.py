import numpy as np
import pytest

from imnav import dataset as ds
from imnav import evaluation as ev
from imnav import imagination as im
from imnav import instructions as ins
from imnav import serial
from imnav import world as wd
from imnav.errors import FormatError


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
        path, lineno = edited(split, tmp_path, "node", 3, "oops")
        with pytest.raises(FormatError) as exc:
            serial.read_split(path)
        assert f":{lineno}:" in str(exc.value)

    @pytest.mark.parametrize("edit", ["drop", "add"])
    def test_episode_node_count_must_match_its_path(self, split, tmp_path, edit):
        path, lines = written(split, tmp_path)
        idx = next(i for i, l in enumerate(lines) if l.startswith("episode"))
        # episode <w> <start> <goal> <n> <nodes...>
        lines[idx] = lines[idx].rsplit(" ", 1)[0] if edit == "drop" else lines[idx] + " 0"
        with pytest.raises(FormatError, match="nodes") as exc:
            serial.read_split(rewritten(path, lines))
        assert f":{idx + 1}:" in str(exc.value)

    def test_missing_node_record_names_the_world(self, split, tmp_path):
        path, lines = written(split, tmp_path)
        kept = [l for l in lines if not l.startswith("node 0 3 ")]
        assert len(kept) == len(lines) - 1
        with pytest.raises(FormatError, match="world 0 "):
            serial.read_split(rewritten(path, kept))

    def test_missing_episode_record_names_the_world(self, split, tmp_path):
        path, lines = written(split, tmp_path)
        kept = [l for l in lines if not l.startswith("episode 2 ")]
        assert len(kept) == len(lines) - 1
        with pytest.raises(FormatError, match="world 2 has no episode record"):
            serial.read_split(rewritten(path, kept))

    @pytest.mark.parametrize("tag", ["instr", "gold"])
    def test_missing_instr_or_gold_record_names_the_world(self, split, tmp_path, tag):
        path, lines = written(split, tmp_path)
        kept = [l for l in lines if not l.startswith(f"{tag} 2 ")]
        assert len(kept) == len(lines) - 1
        with pytest.raises(FormatError, match=f"world 2 has no {tag} record"):
            serial.read_split(rewritten(path, kept))

    @pytest.mark.parametrize("tag, column", [("world", 7), ("edge", 3), ("view", 2), ("view", 4),
                                             ("place", 2), ("episode", 2), ("episode", 3),
                                             ("episode", 7)])
    def test_undeclared_node_names_the_line(self, split, tmp_path, tag, column):
        # world <w> <split> <k> <d_v> <sigma> <n_nodes> <start> <goal>; edge <w> <a> <b>;
        # view <w> <node> <view> <neighbour>; place <w> <node> <view> <class>;
        # episode <w> <start> <goal> <n> <nodes...>
        assert split.items[0].episode.world.n_nodes < 99
        path, lineno = edited(split, tmp_path, tag, column, "99")
        with pytest.raises(FormatError, match="node 99") as exc:
            serial.read_split(path)
        assert f":{lineno}:" in str(exc.value)

    @pytest.mark.parametrize("tag, column, value, named", [
        ("view", 3, "12", "view 12 outside"),
        ("view", 3, "-1", "view -1"),
        ("place", 3, "14", "view 14 outside"),
        ("place", 4, "99", "class 99 outside"),
        ("gold", 5, "60", "class 60"),
        ("imag", 2, "60", "class 60"),
        ("imag", 2, "-1", "class -1")])
    def test_view_or_class_out_of_range_names_the_line(self, split, tmp_path, tag, column,
                                                       value, named):
        # gold <w> <n> (<start> <end> <class|->)...; imag <w> <emitted class> <feature...>
        assert (split.items[0].episode.world.k_views, len(split.library.classes)) == (12, 60)
        path, lineno = edited(split, tmp_path, tag, column, value)
        with pytest.raises(FormatError, match=named) as exc:
            serial.read_split(path)
        assert f":{lineno}:" in str(exc.value)

    @pytest.mark.parametrize("sigma_obs", ["-0.1", "nan", "inf"])
    def test_sigma_obs_that_cannot_generate_names_the_line(self, split, tmp_path, sigma_obs):
        # world generation's rule: finite and >= 0
        path, lineno = edited(split, tmp_path, "world", 5, sigma_obs)
        with pytest.raises(FormatError, match="sigma_obs must be finite and >= 0") as exc:
            serial.read_split(path)
        assert f":{lineno}:" in str(exc.value)

    @pytest.mark.parametrize("tag", ["world", "episode", "instr", "gold"])
    def test_second_record_of_a_world_names_the_line(self, split, tmp_path, tag):
        path, lines = written(split, tmp_path)
        idx = next(i for i, l in enumerate(lines) if l.startswith(f"{tag} 0 "))
        lines.insert(idx + 1, lines[idx].replace(" left ", " right "))
        with pytest.raises(FormatError, match=f"a second {tag} record for world 0") as exc:
            serial.read_split(rewritten(path, lines))
        assert f":{idx + 2}:" in str(exc.value)

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

    @pytest.mark.parametrize("d_v", ["15", "17"])
    def test_world_d_v_must_be_the_librarys(self, split, tmp_path, d_v):
        # world <w> <split> <k> <d_v> ...
        path, lineno = edited(split, tmp_path, "world", 4, d_v)
        with pytest.raises(FormatError, match=f"d_v {d_v} is not the library's 16") as exc:
            serial.read_split(path)
        assert f":{lineno}:" in str(exc.value)


class TestCorpusRoundTrip:
    def test_exact(self, split, tmp_path):
        written(split, tmp_path)
        read = ds.read_split(tmp_path, "train")
        for item0, item1 in zip(split.items, read.items):
            r0, r1 = item0.record, item1.record
            assert r0.instruction.tokens == r1.instruction.tokens
            assert r0.instruction.gold_segments == r1.instruction.gold_segments
            assert r0.instruction.gold_landmarks == r1.instruction.gold_landmarks
            assert r0.subs == r1.subs and r0.kept == r1.kept
            assert item0.token_ids == item1.token_ids

    @pytest.mark.parametrize("tag, named", [("instr", "tokens"), ("gold", "segments")])
    def test_a_field_past_the_count_names_the_line(self, split, tmp_path, tag, named):
        # instr <w> <n> <n tokens>; gold <w> <n> <3n fields>
        path, lines = written(split, tmp_path)
        idx = next(i for i, l in enumerate(lines) if l.startswith(tag + " "))
        lines[idx] += " left" if tag == "instr" else " 0"
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

    @pytest.mark.parametrize("edit", ["class", "tokens"])
    def test_kept_sub_instruction_without_a_gold_class_names_the_world(self, split, tmp_path,
                                                                        edit):
        # a kept step's gold class set to "-", or tokens that no longer split
        # at the gold segments, leave an imagination without a true class
        path, lines = written(split, tmp_path)
        kept = split.items[0].record.kept[0]
        tag = "gold" if edit == "class" else "instr"
        idx = next(i for i, line in enumerate(lines) if line.startswith(f"{tag} 0 "))
        fields = lines[idx].split(" ")
        if edit == "class":
            fields[3 + 3 * kept.index + 2] = "-"    # gold <w> <n> (<start> <end> <class>)...
        else:
            fields[3 + kept.span[0]] = "."          # instr <w> <n> <tokens...>
        lines[idx] = " ".join(fields)
        rewritten(path, lines)
        with pytest.raises(FormatError, match="world 0: kept sub-instruction .* no gold"):
            ds.read_split(tmp_path, "train")

    def test_edited_instruction_is_resegmented(self, split, tmp_path):
        """An instruction edited in the file, with its gold segments, gets the
        sub-instructions, verdicts and noun positions of its new tokens: a
        kept step swapped with the unkept step after it moves one place on,
        and its imagination with it."""
        w, item, k = next((w, item, k) for w, item in enumerate(split.items)
                          for k, (a, b) in enumerate(zip(item.record.subs, item.record.subs[1:]))
                          if a.filter_verdict == "kept" and b.filter_verdict != "kept")
        subs, instr = item.record.subs, item.record.instruction
        (s, m), (_, e) = subs[k].span, subs[k + 1].span
        tokens = instr.tokens[:s] + instr.tokens[m:e] + instr.tokens[s:m] + instr.tokens[e:]
        golds = list(zip(instr.gold_segments, instr.gold_landmarks))
        golds[k:k + 2] = [((s, s + e - m), golds[k + 1][1]), ((s + e - m, e), golds[k][1])]
        gold = " ".join(f"{a} {b} {'-' if c is None else c}" for (a, b), c in golds)
        path, lines = written(split, tmp_path)
        for tag, text in (("instr", f"{len(tokens)} {' '.join(tokens)}"),
                          ("gold", f"{len(golds)} {gold}")):
            idx = next(i for i, line in enumerate(lines) if line.startswith(f"{tag} {w} "))
            lines[idx] = f"{tag} {w} {text}"
        rewritten(path, lines)
        read = ds.read_split(tmp_path, "train").items[w]
        moved = read.record.subs[k + 1]
        assert read.record.instruction.tokens == tokens
        assert (read.record.subs[k].filter_verdict, moved.filter_verdict) == (
            subs[k + 1].filter_verdict, "kept")
        assert moved.noun_token_indices == tuple(i + e - m for i in subs[k].noun_token_indices)
        assert [sub.index for sub in read.record.kept] == [
            k + 1 if sub.index == k else sub.index for sub in item.record.kept]
        assert [(im.sub_index, im.true_class) for im in read.imaginations] == [
            (k + 1 if im.sub_index == k else im.sub_index, im.true_class)
            for im in item.imaginations]


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
