"""Templated instruction generation, segmentation, and noun-phrase filtering.

Instructions are closed-vocabulary token sequences built from templates, one
segment per teacher-path step: landmark-referencing at steps whose target
view shows a landmark, non-visual otherwise, goal-naming at the final step.

Segmentation splits at delimiter tokens. The tagger is a lexicon chunker: a
candidate noun phrase is a maximal run of lexicon words, rooted at its last
word; phrases rooted on blacklist words (counts, directions, pronouns) are
uninformative and get a sub-instruction dropped unless a better phrase exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, InputError, VocabularyError

DELIMITERS = (".", "then")


@dataclass(frozen=True)
class TemplateSet:
    move: tuple      # non-visual step templates, token tuples
    step: tuple      # landmark step templates, '{}' marks the slot
    final: tuple     # goal-naming step templates
    # no instruction uses these; they are read only for their words, which
    # include `find`: without them the vocabulary has 85 words, not 86, and
    # the token ids of every existing checkpoint would shift
    coarse: tuple

    def all_words(self):
        out = set()
        for group in (self.move, self.step, self.final, self.coarse):
            for tpl in group:
                out.update(w for w in tpl if w != "{}")
        return out


def load_templates(path):
    groups = {"move": [], "step": [], "final": [], "coarse": []}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            kind, _, text = line.partition("|")
            if kind not in groups or not text:
                raise ConfigurationError(f"bad template line: {raw.strip()!r}")
            groups[kind].append(tuple(text.split()))
    if not all(groups.values()):
        raise ConfigurationError("template file must define move/step/final/coarse entries")
    return TemplateSet(*(tuple(groups[k]) for k in ("move", "step", "final", "coarse")))


@dataclass(frozen=True)
class FilterLexicon:
    noun_lexicon: frozenset
    blacklist: frozenset

    def __post_init__(self):
        if self.noun_lexicon & self.blacklist:
            raise ConfigurationError(
                f"noun lexicon and blacklist overlap: {sorted(self.noun_lexicon & self.blacklist)}")

    @cached_property
    def words(self):
        """The words a candidate noun phrase is made of: lexicon and blacklist."""
        return self.noun_lexicon | self.blacklist

    @cached_property
    def outcomes(self):
        """Segment tokens -> their filter outcome (`_outcome`), filled as
        segments are filtered: segments repeat across instructions."""
        return {}


def load_lexicon(nouns_path, blacklist_path, library=None):
    def read(path):
        out = set()
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if line and not line.startswith("#"):
                    out.add(line)
        return out

    nouns = read(nouns_path)
    blacklist = read(blacklist_path)
    if library is not None:
        landmark_words = library.words()
        if landmark_words & blacklist:
            raise ConfigurationError("blacklist contains landmark words")
        nouns |= landmark_words
    return FilterLexicon(frozenset(nouns), frozenset(blacklist))


def build_vocab(templates, library):
    """Closed vocabulary: template words, landmark words, delimiters."""
    words = templates.all_words() | library.words() | set(DELIMITERS)
    return tuple(sorted(words))


@dataclass(frozen=True)
class Instruction:
    """The tokens of an episode's instruction. Generation gives it one
    segment per route step; `build_record` gives segment i the landmark
    class of route step i (`Episode.route_landmarks`)."""
    tokens: tuple
    episode: object


@dataclass
class SubInstruction:
    index: int
    span: tuple                   # (start, end) token indices
    tokens: tuple
    noun_phrases: tuple = ()
    noun_token_indices: tuple = ()
    landmark_class: int | None = None
    filter_verdict: str | None = None   # kept | no_noun | blacklisted


def generate_instruction(episode, templates, seed, vocab=None):
    """Build the templated instruction for an episode's teacher path.
    VocabularyError if `vocab` is given and lacks one of its tokens."""
    if not templates.step or not templates.move:
        raise ConfigurationError("template set is empty")
    library = episode.world.library
    rng = np.random.default_rng(np.random.SeedSequence([0x1A57, seed]))
    landmarks = episode.route_landmarks
    tokens = []
    for i, cid in enumerate(landmarks):
        if cid is not None:
            pool = templates.final if i == len(landmarks) - 1 else templates.step
            tpl = pool[int(rng.integers(len(pool)))]
            for w in tpl:
                tokens.extend(library.by_id(cid).phrase if w == "{}" else (w,))
        else:
            tokens.extend(templates.move[int(rng.integers(len(templates.move)))])
        tokens.append(".")
    if vocab is not None:
        missing = [t for t in tokens if t not in vocab]
        if missing:
            raise VocabularyError(f"tokens outside the closed vocabulary: {sorted(set(missing))}")
    if len(tokens) > 80:
        raise ConfigurationError(f"instruction too long: {len(tokens)} tokens")
    return Instruction(tokens=tuple(tokens), episode=episode)


def segment(instruction):
    """Split at delimiter tokens; each delimiter closes the span it ends."""
    tokens = instruction.tokens
    if not tokens:
        raise InputError("cannot segment an empty instruction")
    spans = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok in DELIMITERS:
            spans.append((start, i + 1))
            start = i + 1
    if start < len(tokens):
        spans.append((start, len(tokens)))
    return [SubInstruction(index=i, span=sp, tokens=tokens[sp[0]:sp[1]])
            for i, sp in enumerate(spans)]


def _outcome(tokens, lexicon):
    """The filter verdict of a segment's tokens, its informative noun phrases
    and the offsets of their tokens in the segment. A candidate phrase is a
    maximal run of lexicon/blacklist words, rooted at its last word."""
    runs, cur = [], []
    for offset, tok in enumerate(tokens):
        if tok in lexicon.words:
            cur.append(offset)
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    informative = [run for run in runs if tokens[run[-1]] not in lexicon.blacklist]
    if informative:
        return ("kept", tuple(" ".join(tokens[i] for i in run) for run in informative),
                tuple(i for run in informative for i in run))
    return ("blacklisted" if runs else "no_noun"), (), ()


def filter_sub_instructions(subs, lexicon):
    """Assign verdicts and return the kept sub-instructions in order."""
    kept = []
    for sub in subs:
        outcome = lexicon.outcomes.get(sub.tokens)
        if outcome is None:
            outcome = lexicon.outcomes[sub.tokens] = _outcome(sub.tokens, lexicon)
        sub.filter_verdict, phrases, offsets = outcome
        if phrases:
            sub.noun_phrases = phrases
            sub.noun_token_indices = tuple(sub.span[0] + i for i in offsets)
            kept.append(sub)
    return kept


@dataclass
class InstructionRecord:
    """One instruction with its segmentation and filter outcome."""
    instruction: Instruction
    subs: list = field(default_factory=list)
    kept: list = field(default_factory=list)


def build_record(instruction, lexicon):
    """Segment and filter `instruction`. When it has one segment per route
    step, segment i takes the landmark class of route step i."""
    subs = segment(instruction)
    landmarks = instruction.episode.route_landmarks
    if len(subs) == len(landmarks):
        for s, cls in zip(subs, landmarks):
            s.landmark_class = cls
    kept = filter_sub_instructions(subs, lexicon)
    return InstructionRecord(instruction=instruction, subs=subs, kept=kept)


def build_corpus(episodes, templates, lexicon, seed, vocab=None):
    """One InstructionRecord per episode, deterministically sub-seeded."""
    vocab = None if vocab is None else frozenset(vocab)
    records = []
    for i, ep in enumerate(episodes):
        instr = generate_instruction(ep, templates, seed=seed * 100003 + i, vocab=vocab)
        records.append(build_record(instr, lexicon))
    return records


def corpus_stats(records):
    """(mean segments per instruction, mean kept per instruction, vocab size)."""
    if not records:
        raise InputError("empty corpus")
    n = len(records)
    seg_total = sum(len(r.subs) for r in records)
    kept_total = sum(len(r.kept) for r in records)
    vocab = set()
    for r in records:
        vocab.update(r.instruction.tokens)
    return seg_total / n, kept_total / n, len(vocab)
