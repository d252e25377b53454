"""Templated instruction generation, segmentation, and noun-phrase filtering.

An instruction is a tuple of closed-vocabulary tokens built from templates,
one segment per teacher-path step: landmark-referencing at steps whose target
view shows a landmark, non-visual otherwise, goal-naming at the final step.
`build_record` takes the tokens and the route's landmark classes, so a record
holds no reference to its episode or world.

Segmentation splits at delimiter tokens. The tagger is a lexicon chunker: a
candidate noun phrase is a maximal run of lexicon words, rooted at its last
word; phrases rooted on blacklist words (counts, directions, pronouns) are
uninformative and get a sub-instruction dropped unless a better phrase exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, InputError

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


def load_lexicon(nouns_path, blacklist_path, library):
    def read(path):
        out = set()
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if line and not line.startswith("#"):
                    out.add(line)
        return out

    blacklist = read(blacklist_path)
    landmark_words = library.words()
    if landmark_words & blacklist:
        raise ConfigurationError("blacklist contains landmark words")
    return FilterLexicon(frozenset(read(nouns_path) | landmark_words), frozenset(blacklist))


def build_vocab(templates, library):
    """Closed vocabulary: template words, landmark words, delimiters."""
    words = templates.all_words() | library.words() | set(DELIMITERS)
    return tuple(sorted(words))


@dataclass
class SubInstruction:
    index: int
    span: tuple                   # (start, end) token indices
    tokens: tuple
    noun_token_indices: tuple = ()
    landmark_class: int | None = None
    filter_verdict: str | None = None   # kept | no_noun | blacklisted


def generate_instruction(episode, templates, seed):
    """The tokens of the templated instruction for an episode's teacher
    path, one segment per route step. Its words are those of `build_vocab`
    on the same templates and the episode's library."""
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
    if len(tokens) > 80:
        raise ConfigurationError(f"instruction too long: {len(tokens)} tokens")
    return tuple(tokens)


def segment(tokens):
    """Split an instruction's tokens at delimiter tokens; each delimiter
    closes the span it ends."""
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
    """The filter verdict of a segment's tokens and the offsets in the
    segment of its informative noun phrases' tokens. A candidate phrase is a
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
        return "kept", tuple(i for run in informative for i in run)
    return ("blacklisted" if runs else "no_noun"), ()


def filter_sub_instructions(subs, lexicon):
    """Assign verdicts and return the kept sub-instructions in order."""
    kept = []
    for sub in subs:
        outcome = lexicon.outcomes.get(sub.tokens)
        if outcome is None:
            outcome = lexicon.outcomes[sub.tokens] = _outcome(sub.tokens, lexicon)
        sub.filter_verdict, offsets = outcome
        if offsets:
            sub.noun_token_indices = tuple(sub.span[0] + i for i in offsets)
            kept.append(sub)
    return kept


@dataclass
class InstructionRecord:
    """One instruction's tokens with their segmentation and filter outcome."""
    tokens: tuple
    subs: list = field(default_factory=list)
    kept: list = field(default_factory=list)


def build_record(tokens, landmarks, lexicon):
    """Segment and filter an instruction's `tokens`. When it has one segment
    per route step, segment i takes landmarks[i], the landmark class of route
    step i (`Episode.route_landmarks`)."""
    subs = segment(tokens)
    if len(subs) == len(landmarks):
        for s, cls in zip(subs, landmarks):
            s.landmark_class = cls
    kept = filter_sub_instructions(subs, lexicon)
    return InstructionRecord(tokens=tokens, subs=subs, kept=kept)


def build_corpus(episodes, templates, lexicon, seed):
    """One InstructionRecord per episode, deterministically sub-seeded."""
    return [build_record(generate_instruction(ep, templates, seed=seed * 100003 + i),
                         ep.route_landmarks, lexicon)
            for i, ep in enumerate(episodes)]


def corpus_stats(records):
    """(mean segments per instruction, mean kept per instruction, vocab size)."""
    if not records:
        raise InputError("empty corpus")
    n = len(records)
    seg_total = sum(len(r.subs) for r in records)
    kept_total = sum(len(r.kept) for r in records)
    vocab = set()
    for r in records:
        vocab.update(r.tokens)
    return seg_total / n, kept_total / n, len(vocab)
