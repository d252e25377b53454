from pathlib import Path

import pytest

from imnav import instructions as ins
from imnav import world as wd
from imnav.errors import ConfigurationError, InputError, VocabularyError

DATA = Path(__file__).parent.parent / "src" / "imnav" / "data"


@pytest.fixture(scope="module")
def library():
    return wd.load_library(DATA / "landmarks.txt", d_v=16)


@pytest.fixture(scope="module")
def templates():
    return ins.load_templates(DATA / "templates.txt")


@pytest.fixture(scope="module")
def lexicon(library):
    return ins.load_lexicon(DATA / "lexicon_nouns.txt", DATA / "lexicon_blacklist.txt", library)


@pytest.fixture(scope="module")
def fine_episode(library):
    w = wd.generate_world(wd.WorldConfig(library=library, layout="forks"), seed=0)
    return wd.sample_episode(w)


def make_sub(text):
    tokens = tuple(text.split())
    return ins.SubInstruction(index=0, span=(0, len(tokens)), tokens=tokens)


class TestGenerate:
    def test_one_segment_per_path_step(self, fine_episode, templates):
        instr = ins.generate_instruction(fine_episode, templates, seed=1)
        assert len(ins.segment(instr)) == len(fine_episode.teacher_path) - 1

    def test_deterministic(self, fine_episode, templates):
        a = ins.generate_instruction(fine_episode, templates, seed=9)
        b = ins.generate_instruction(fine_episode, templates, seed=9)
        assert a.tokens == b.tokens

    def test_spans_partition_token_range(self, fine_episode, templates):
        instr = ins.generate_instruction(fine_episode, templates, seed=3)
        pos = 0
        for s, e in (sub.span for sub in ins.segment(instr)):
            assert s == pos
            pos = e
        assert pos == len(instr.tokens)
        assert len(instr.tokens) <= 80

    def test_vocabulary_error_for_unknown_landmark(self, fine_episode, templates, library):
        tiny_vocab = ("walk", "the")
        with pytest.raises(VocabularyError):
            ins.generate_instruction(fine_episode, templates, seed=0, vocab=tiny_vocab)

    def test_tokens_in_closed_vocab(self, fine_episode, templates, library):
        vocab = ins.build_vocab(templates, library)
        instr = ins.generate_instruction(fine_episode, templates, seed=4, vocab=vocab)
        assert all(t in set(vocab) for t in instr.tokens)


class TestSegment:
    def test_two_segments(self):
        instr = ins.Instruction(tokens=tuple("walk past the sofa . turn left .".split()),
                                episode=None)
        subs = ins.segment(instr)
        assert len(subs) == 2
        assert subs[0].tokens == tuple("walk past the sofa .".split())

    def test_no_delimiters_single_segment(self):
        instr = ins.Instruction(tokens=("go", "straight"), episode=None)
        subs = ins.segment(instr)
        assert len(subs) == 1
        assert subs[0].span == (0, 2)

    def test_then_is_a_delimiter(self):
        instr = ins.Instruction(tokens=tuple("go straight then turn at the sofa".split()),
                                episode=None)
        assert len(ins.segment(instr)) == 2

    def test_empty_instruction_rejected(self):
        instr = ins.Instruction(tokens=(), episode=None)
        with pytest.raises(InputError):
            ins.segment(instr)

    def test_matches_route_landmark_classes_on_corpus(self, library, templates, lexicon):
        """Each generated segment names the phrase of the landmark class it
        is given, or no phrase when it is given none; the route shows one
        landmark per fork."""
        worlds = [wd.generate_world(wd.WorldConfig(library=library, layout="forks"), seed=s)
                  for s in range(20)]
        eps = [wd.sample_episode(w) for w in worlds]
        records = ins.build_corpus(eps, templates, lexicon, seed=5)
        phrases = {c.phrase: c.id for c in library.classes}
        for rec in records:
            named = [next((phrases[p] for p in phrases
                           if f" {' '.join(p)} " in f" {' '.join(s.tokens)} "), None)
                     for s in rec.subs]
            assert [s.landmark_class for s in rec.subs] == named
            assert sum(c is not None for c in named) == wd.WorldConfig.n_forks


class TestExtract:
    """The informative noun phrases `filter_sub_instructions` records: the
    runs of lexicon words not rooted on the blacklist."""

    @staticmethod
    def filtered(text, lexicon):
        sub = make_sub(text)
        ins.filter_sub_instructions([sub], lexicon)
        return sub.filter_verdict, sub.noun_phrases, sub.noun_token_indices

    def test_pool_table(self, lexicon):
        assert self.filtered("walk past the pool table", lexicon) == (
            "kept", ("pool table",), (3, 4))

    def test_go_straight_then_left_has_none(self, lexicon):
        assert self.filtered("go straight then left", lexicon) == ("blacklisted", (), ())

    def test_multiword_runs(self, lexicon):
        assert self.filtered("enter the kitchen with blue walls", lexicon) == (
            "kept", ("kitchen", "blue walls"), (2, 4, 5))

    def test_repeated_segment_takes_its_own_span(self, lexicon):
        """Outcomes are kept per lexicon by segment tokens; a repeat of a
        segment elsewhere in an instruction gets indices in its own span."""
        instruction = ins.Instruction(tokens=tuple(
            "walk past the pool table . turn left . walk past the pool table .".split()),
            episode=None)
        subs = ins.segment(instruction)
        kept = ins.filter_sub_instructions(subs, lexicon)
        assert [s.index for s in kept] == [0, 2]
        assert [s.noun_token_indices for s in kept] == [(3, 4), (12, 13)]
        assert subs[1].filter_verdict == "blacklisted"
        assert lexicon.outcomes[subs[0].tokens] == ("kept", ("pool table",), (3, 4))


class TestFilter:
    def test_turn_left_blacklisted(self, lexicon):
        sub = make_sub("turn left")
        kept = ins.filter_sub_instructions([sub], lexicon)
        assert kept == [] and sub.filter_verdict == "blacklisted"

    def test_pronoun_dropped(self, lexicon):
        sub = make_sub("walk toward it")
        ins.filter_sub_instructions([sub], lexicon)
        assert sub.filter_verdict == "blacklisted"

    def test_go_straight_no_noun(self, lexicon):
        sub = make_sub("go straight")
        ins.filter_sub_instructions([sub], lexicon)
        assert sub.filter_verdict == "no_noun"

    def test_landmark_kept(self, lexicon):
        sub = make_sub("walk past the pool table")
        kept = ins.filter_sub_instructions([sub], lexicon)
        assert kept == [sub]
        assert sub.filter_verdict == "kept"
        assert sub.noun_phrases == ("pool table",)

    def test_order_preserved(self, lexicon):
        subs = [make_sub("walk past the sofa"), make_sub("turn left"), make_sub("head to the piano")]
        for i, s in enumerate(subs):
            s.index = i
        kept = ins.filter_sub_instructions(subs, lexicon)
        assert [s.index for s in kept] == [0, 2]

    def test_idempotent(self, lexicon):
        subs = [make_sub("walk past the sofa"), make_sub("go straight")]
        kept = ins.filter_sub_instructions(subs, lexicon)
        again = ins.filter_sub_instructions(kept, lexicon)
        assert again == kept

    def test_blacklist_growth_is_monotone(self, lexicon, library):
        subs_text = ["walk past the sofa", "turn left", "head to the piano", "walk toward it"]
        kept_small = ins.filter_sub_instructions([make_sub(t) for t in subs_text], lexicon)
        bigger = ins.FilterLexicon(lexicon.noun_lexicon - {"piano"},
                                   lexicon.blacklist | {"piano"})
        kept_big = ins.filter_sub_instructions([make_sub(t) for t in subs_text], bigger)
        small_texts = {" ".join(s.tokens) for s in kept_small}
        big_texts = {" ".join(s.tokens) for s in kept_big}
        assert big_texts <= small_texts

    def test_lexicon_blacklist_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            ins.FilterLexicon(frozenset({"sofa", "left"}), frozenset({"left"}))


class TestCorpus:
    def test_kept_iff_landmark_template(self, library, templates, lexicon):
        worlds = [wd.generate_world(wd.WorldConfig(library=library, layout="forks"), seed=s)
                  for s in range(15)]
        eps = [wd.sample_episode(w) for w in worlds]
        records = ins.build_corpus(eps, templates, lexicon, seed=2)
        for rec in records:
            for sub in rec.subs:
                assert (sub.filter_verdict == "kept") == (sub.landmark_class is not None)

    def test_stats_simple_mean(self):
        def fake(nsubs, nkept):
            rec = ins.InstructionRecord(
                instruction=ins.Instruction(tokens=("a",), episode=None))
            rec.subs = [None] * nsubs
            rec.kept = [None] * nkept
            return rec

        avg_seg, avg_kept, _ = ins.corpus_stats([fake(3, 3), fake(5, 5)])
        assert avg_seg == 4.0
        assert avg_kept == avg_seg

    def test_stats_match_counting_oracle(self, library, templates, lexicon):
        worlds = [wd.generate_world(wd.WorldConfig(library=library, layout="forks"), seed=s)
                  for s in range(30)]
        eps = [wd.sample_episode(w) for w in worlds]
        records = ins.build_corpus(eps, templates, lexicon, seed=7)
        avg_seg, avg_kept, vocab_size = ins.corpus_stats(records)
        # independent recount
        segs = kept = 0
        words = set()
        for rec in records:
            segs += len(rec.instruction.episode.teacher_path) - 1     # one per route step
            kept += sum(1 for s in rec.subs if s.filter_verdict == "kept")
            words |= set(rec.instruction.tokens)
        assert avg_seg == segs / 30
        assert avg_kept == kept / 30
        assert vocab_size == len(words)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            ins.corpus_stats([])
