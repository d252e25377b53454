from pathlib import Path

import numpy as np
import pytest

from imnav import evaluation as ev
from imnav import imagination as im
from imnav import instructions as ins
from imnav import serial
from imnav import world as wd
from imnav.errors import FormatError

DATA = Path(__file__).parent.parent / "src" / "imnav" / "data"


@pytest.fixture(scope="module")
def bundle():
    library = wd.load_library(DATA / "landmarks.txt", d_v=16)
    templates = ins.load_templates(DATA / "templates.txt")
    lexicon = ins.load_lexicon(DATA / "lexicon_nouns.txt", DATA / "lexicon_blacklist.txt", library)
    vocab = ins.build_vocab(templates, library)
    pairs = []
    for s in range(6):
        w = wd.generate_world(wd.WorldConfig(library=library, layout="forks"), seed=s)
        pairs.append((w, wd.sample_episode(w)))
    records = ins.build_corpus([e for _, e in pairs], templates, lexicon, seed=1, vocab=vocab)
    sets = im.imagine_dataset(records, library, im.ImaginationConfig(), seed=2)
    return dict(library=library, pairs=pairs, records=records, sets=sets)


class TestWorldsRoundTrip:
    def test_exact(self, bundle, tmp_path):
        path = tmp_path / "w.txt"
        serial.write_worlds(path, bundle["library"], bundle["pairs"], command="test", seed=1)
        library, pairs = serial.read_worlds(path)
        assert len(pairs) == len(bundle["pairs"])
        for c0, c1 in zip(bundle["library"].classes, library.classes):
            assert c0.phrase == c1.phrase and c0.held_out == c1.held_out
            assert np.array_equal(c0.prototype, c1.prototype)
        assert np.array_equal(bundle["library"].background, library.background)
        for (w0, e0), (w1, e1) in zip(bundle["pairs"], pairs):
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
            serial.read_worlds(path)

    def test_malformed_record_names_line(self, bundle, tmp_path):
        path = tmp_path / "w.txt"
        serial.write_worlds(path, bundle["library"], bundle["pairs"])
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("node"))
        lines[idx] = "node 0 0 oops 1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            serial.read_worlds(path)
        assert f":{idx + 1}:" in str(exc.value)

    @pytest.mark.parametrize("column, value", [(2, "coarse"), (5, "3")])
    def test_episode_other_than_fine_rejected(self, bundle, tmp_path, column, value):
        # v1 episode lines keep a mode and a target column: fine and "-"
        path = tmp_path / "w.txt"
        serial.write_worlds(path, bundle["library"], bundle["pairs"])
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("episode"))
        fields = lines[idx].split(" ")
        assert (fields[2], fields[5]) == ("fine", "-")
        fields[column] = value
        lines[idx] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="fine") as exc:
            serial.read_worlds(path)
        assert f":{idx + 1}:" in str(exc.value)


    @pytest.mark.parametrize("edit", ["drop", "add"])
    def test_episode_node_count_must_match_its_path(self, bundle, tmp_path, edit):
        path = tmp_path / "w.txt"
        serial.write_worlds(path, bundle["library"], bundle["pairs"])
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("episode"))
        # episode <w> <mode> <start> <goal> <target> <n> <nodes...>
        lines[idx] = lines[idx].rsplit(" ", 1)[0] if edit == "drop" else lines[idx] + " 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="nodes") as exc:
            serial.read_worlds(path)
        assert f":{idx + 1}:" in str(exc.value)


    def test_missing_node_record_names_the_world(self, bundle, tmp_path):
        path = tmp_path / "w.txt"
        serial.write_worlds(path, bundle["library"], bundle["pairs"])
        lines = path.read_text().splitlines()
        kept = [l for l in lines if not l.startswith("node 0 3 ")]
        assert len(kept) == len(lines) - 1
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(FormatError, match="world 0 "):
            serial.read_worlds(path)

    def test_missing_episode_record_names_the_world(self, bundle, tmp_path):
        # a world without its episode would reach the corpus reader as None
        path = tmp_path / "w.txt"
        serial.write_worlds(path, bundle["library"], bundle["pairs"])
        lines = path.read_text().splitlines()
        kept = [l for l in lines if not l.startswith("episode 2 ")]
        assert len(kept) == len(lines) - 1
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(FormatError, match="world 2 has no episode record"):
            serial.read_worlds(path)

    @pytest.mark.parametrize("tag, column", [("world", 7), ("edge", 3), ("view", 2), ("view", 4),
                                             ("place", 2), ("episode", 3), ("episode", 7)])
    def test_undeclared_node_names_the_line(self, bundle, tmp_path, tag, column):
        # world <w> <split> <k> <d_v> <sigma> <n_nodes> <start> <goal>; edge <w> <a> <b>;
        # view <w> <node> <view> <neighbour>; place <w> <node> ...;
        # episode <w> <mode> <start> <goal> <target> <n> <nodes...>
        path = tmp_path / "w.txt"
        serial.write_worlds(path, bundle["library"], bundle["pairs"])
        lines = path.read_text().splitlines()
        assert bundle["pairs"][0][0].n_nodes < 99
        idx = next(i for i, l in enumerate(lines) if l.startswith(f"{tag} 0 "))
        fields = lines[idx].split(" ")
        fields[column] = "99"
        lines[idx] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="node 99") as exc:
            serial.read_worlds(path)
        assert f":{idx + 1}:" in str(exc.value)

    def test_background_width_must_be_d_v(self, bundle, tmp_path):
        path = tmp_path / "w.txt"
        serial.write_worlds(path, bundle["library"], bundle["pairs"])
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("background "))
        lines[idx] = lines[idx].rsplit(" ", 1)[0]           # d_v - 1 values
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="background has 15 dims, expected 16") as exc:
            serial.read_worlds(path)
        assert f":{idx + 1}:" in str(exc.value)


class TestCorpusRoundTrip:
    def test_exact(self, bundle, tmp_path):
        wpath = tmp_path / "w.txt"
        serial.write_worlds(wpath, bundle["library"], bundle["pairs"])
        _, pairs = serial.read_worlds(wpath)
        cpath = tmp_path / "c.txt"
        serial.write_corpus(cpath, bundle["records"], list(range(len(bundle["records"]))))
        records, world_indices = serial.read_corpus(cpath, pairs)
        assert world_indices == list(range(len(bundle["records"])))
        for r0, r1 in zip(bundle["records"], records):
            assert r0.instruction.tokens == r1.instruction.tokens
            assert r0.instruction.gold_segments == r1.instruction.gold_segments
            assert r0.instruction.gold_landmarks == r1.instruction.gold_landmarks
            for s0, s1 in zip(r0.subs, r1.subs):
                assert (s0.span, s0.filter_verdict, s0.landmark_class) == \
                       (s1.span, s1.filter_verdict, s1.landmark_class)
                assert s0.noun_phrases == s1.noun_phrases
                assert s0.noun_token_indices == s1.noun_token_indices
            assert len(r0.kept) == len(r1.kept)

    def test_instruction_other_than_fine_rejected(self, bundle, tmp_path):
        wpath = tmp_path / "w.txt"
        serial.write_worlds(wpath, bundle["library"], bundle["pairs"])
        _, pairs = serial.read_worlds(wpath)
        cpath = tmp_path / "c.txt"
        serial.write_corpus(cpath, bundle["records"], list(range(len(bundle["records"]))))
        lines = cpath.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("instr"))
        assert " fine " in lines[idx]   # instr <idx> <world> <mode> <n> <tokens...>
        lines[idx] = lines[idx].replace(" fine ", " coarse ", 1)
        cpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="fine") as exc:
            serial.read_corpus(cpath, pairs)
        assert f":{idx + 1}:" in str(exc.value)


    @pytest.mark.parametrize("tag, named", [("instr", "tokens"), ("gold", "segments"),
                                            ("seg", "indices")])
    def test_a_field_past_the_count_names_the_line(self, bundle, tmp_path, tag, named):
        # instr <idx> <world> <mode> <n> <n tokens>; gold <idx> <n> <3n fields>;
        # seg <idx> <index> <start> <end> <verdict> <class> <phrases> <n> <n indices>
        wpath = tmp_path / "w.txt"
        serial.write_worlds(wpath, bundle["library"], bundle["pairs"])
        _, pairs = serial.read_worlds(wpath)
        cpath = tmp_path / "c.txt"
        serial.write_corpus(cpath, bundle["records"], list(range(len(bundle["records"]))))
        lines = cpath.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith(tag + " "))
        lines[idx] += " left" if tag == "instr" else " 0"
        cpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=named) as exc:
            serial.read_corpus(cpath, pairs)
        assert f":{idx + 1}:" in str(exc.value)


    @pytest.mark.parametrize("world", ["past_last", "-1"])
    def test_world_index_out_of_range_names_the_line(self, bundle, tmp_path, world):
        wpath = tmp_path / "w.txt"
        serial.write_worlds(wpath, bundle["library"], bundle["pairs"])
        _, pairs = serial.read_worlds(wpath)
        cpath = tmp_path / "c.txt"
        serial.write_corpus(cpath, bundle["records"], list(range(len(bundle["records"]))))
        lines = cpath.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("instr "))
        fields = lines[idx].split(" ")                      # instr <idx> <world> ...
        fields[2] = str(len(pairs)) if world == "past_last" else world
        lines[idx] = " ".join(fields)
        cpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="world index") as exc:
            serial.read_corpus(cpath, pairs)
        assert f":{idx + 1}:" in str(exc.value)


class TestImaginationsRoundTrip:
    def test_exact(self, bundle, tmp_path):
        path = tmp_path / "i.txt"
        serial.write_imaginations(path, bundle["sets"])
        sets = serial.read_imaginations(path, len(bundle["sets"]), bundle["library"].d_v)
        for g0, g1 in zip(bundle["sets"], sets):
            assert len(g0) == len(g1)
            for a, b in zip(g0, g1):
                assert np.array_equal(a.feature, b.feature)
                assert (a.sub_index, a.true_class, a.emitted_class) == \
                       (b.sub_index, b.true_class, b.emitted_class)

    @pytest.mark.parametrize("instruction", ["past_last", "-1"])
    def test_instruction_index_out_of_range_names_the_line(self, bundle, tmp_path, instruction):
        path = tmp_path / "i.txt"
        serial.write_imaginations(path, bundle["sets"])
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("imag "))
        fields = lines[idx].split(" ")                      # imag <instruction> ...
        fields[1] = str(len(bundle["sets"])) if instruction == "past_last" else instruction
        lines[idx] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="instruction index") as exc:
            serial.read_imaginations(path, len(bundle["sets"]), bundle["library"].d_v)
        assert f":{idx + 1}:" in str(exc.value)


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
