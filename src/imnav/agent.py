"""The toy VLN agent.

Encoders: token embeddings + sinusoidal positions + one self-attention block
for text; a linear projection + type embedding + bias-free 3-layer MLP for
imaginations, each encoded on its own; per-view linear projection +
view-index embedding + a recurrent summary token for panoramas.

The cross-modal policy alternates two attention streams per layer: the
context stream ([text; imagination] tokens attending over context + visual
keys) and the visual stream (visual tokens attending over context keys).
`decide(record=)` hands back each layer's raw context-stream weights.
Imagination tokens join only the context stream, with no order encoding:
they form a set. Action logits are per-navigable-view scores plus a stop
score read off the history token, all from one fused op, `nc.action_logits`,
in training and greedy steps alike.
Under teacher forcing the path is known in advance, so a rollout only draws
its dropout multipliers and observations, and `decide` encodes and decides
all episodes of a training batch in one padded pass: one text, one
imagination and one observation encoder pass over the batch (the histories
step in lockstep), then the cross-modal layers over all steps. The first
layer's context stream takes each episode's context once, not once per
step: its queries, their keys and values and their scores are the same at
every step of an episode. The last layer's visual stream computes only the
rows the action head reads: each step's history token and its navigable
views, padded to the batch's largest navigable set (4 of the K + 1 = 13
rows on the desk spec).

A greedy rollout encodes and joins the [text; imagination] context once per
episode (`EncodedContext`), off the tape, and each step reuses it. Its
steps hold their history and visual tokens as arrays, and array inputs
make `encode_observation`, `advance_history` and `cross_modal_step` compute
one step of one episode on arrays, through the forward kernels that
numcore's ops record (`nc.mean_forward`, `nc.attention_forward`,
`nc.ffn_forward`, `nc.action_logits_forward`), with no Tensor, closure,
mask or padding. The context joins all K + 1 visual tokens at every layer,
as in an unbatched pass of the ops, whose numpy products the kernels make
in the same shapes and order, so a greedy step's logits are that pass's bit
for bit, inside `nc.no_grad()` or not. Tensor inputs run the taped body.

An episode's imaginations are whatever list it is handed: a test-time policy
transforms the lists before the rollout, and `null` hands over none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import numcore as nc
from . import serial
from . import world as wd
from .errors import (ConfigurationError, ContractError, FormatError, ShapeError,
                     VocabularyError)


DROPOUT_RATE = 0.15   # train-time dropout over imagination tokens
TEXT_DROPOUT = 0.3    # train-time word-identity dropout
MAX_STEPS = 15        # greedy decisions per episode, the stop included


@dataclass(frozen=True)
class AgentConfig:
    vocab_size: int                   # from the data, as are k_views and d_v
    d: int = 64                       # from a spec, as are heads and cross_layers
    heads: int = 4
    cross_layers: int = 2
    k_views: int = wd.WorldConfig.k_views
    d_v: int = 16                     # also the feature width of generated data
    imag_source: str = "imagination"  # from a condition: imagination | text_mean

    def __post_init__(self):
        for name in ("d", "heads", "cross_layers"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.heads != 0:
            raise ConfigurationError(f"d={self.d} not divisible by heads={self.heads}")
        if self.imag_source not in ("imagination", "text_mean"):
            raise ConfigurationError(f"imag_source={self.imag_source!r} not in "
                                     "('imagination', 'text_mean')")

    def to_text(self):
        return "\n".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))

    @classmethod
    def from_text(cls, text):
        """The config of `to_text`'s lines. A malformed line, an unknown key,
        a bad value or a removed variant raises FormatError naming it."""
        known = {f.name for f in fields(cls)}
        values = {}
        for line in text.strip().splitlines():
            key, sep, value = line.partition("=")
            if not sep:
                raise FormatError(f"agent config line {line!r} is not key=value")
            if key == "mlp_hidden":   # set by d; `load_values` checks the arrays' widths
                continue
            if key in RETIRED_KEYS:
                if value != RETIRED_KEYS[key]:
                    raise FormatError(f"agent config {key}={value} names a removed variant or "
                                      f"setting; only {key}={RETIRED_KEYS[key]} loads")
                continue
            if key not in known:
                raise FormatError(f"unknown agent config key {key!r}")
            try:
                values[key] = serial.parse_field(cls, key, value)
            except ValueError as exc:
                raise FormatError(f"agent config {key}={value!r}: {exc}") from None
        try:
            return cls(**values)
        except (TypeError, ConfigurationError) as exc:
            raise FormatError(f"agent config: {exc}") from None


# keys of removed agent variants and settings, which older checkpoints store,
# with the one value each may hold: the value the remaining agent computes
RETIRED_KEYS = {"fusion": "early", "imagination_encoder": "mlp", "concat_target": "text",
                "imag_order_encoding": "False", "dropout_rate": str(DROPOUT_RATE),
                "text_dropout": str(TEXT_DROPOUT), "max_steps": str(MAX_STEPS)}


SINUSOID_SCALE = 0.15
_SINUSOID_CACHE = {}


def sinusoid_table(n, d):
    key = (n, d)
    if key not in _SINUSOID_CACHE:
        pos = np.arange(n)[:, None]
        i = np.arange(d)[None, :]
        angles = pos / np.power(10000.0, (2 * (i // 2)) / d)
        table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
        _SINUSOID_CACHE[key] = (SINUSOID_SCALE * table).astype(np.float32)
    return _SINUSOID_CACHE[key]


def init_params(config, seed):
    """Seeded ParamStore; group tags drive the staged finetuning schedule."""
    rng = np.random.default_rng(np.random.SeedSequence([0x1217, seed]))
    store = nc.ParamStore()
    d, mh, dv = config.d, math.ceil(2 * config.d / 3), config.d_v   # mh: FFN and MLP width

    def xavier(shape):
        limit = math.sqrt(6.0 / (shape[0] + shape[1]))
        return nc.Tensor(rng.uniform(-limit, limit, size=shape).astype(np.float32))

    def gauss(shape, std):
        return nc.Tensor((std * rng.standard_normal(shape)).astype(np.float32))

    base = lambda name, t: store.add(name, t, "base")
    imag = lambda name, t: store.add(name, t, "imagination_encoder")

    # small init keeps trained embeddings dominated by gradient-built structure
    base("tok_embed", gauss((config.vocab_size, d), 0.05))
    for p in ("t_wq", "t_wk", "t_wv", "t_wo"):
        base(p, xavier((d, d)))
    base("t_ff1", xavier((d, mh)))
    base("t_ff2", xavier((mh, d)))

    base("vis_proj", xavier((dv, d)))
    base("view_embed", gauss((config.k_views, d), 0.3))
    base("hist_init", gauss((1, d), 0.3))
    base("hist_wh", xavier((d, d)))
    base("hist_wp", xavier((d, d)))

    for layer in range(config.cross_layers):
        for stream in ("c", "v"):
            for p in ("wq", "wk", "wv", "wo"):
                base(f"{stream}{layer}_{p}", xavier((d, d)))
            base(f"{stream}{layer}_ff1", xavier((d, mh)))
            base(f"{stream}{layer}_ff2", xavier((mh, d)))

    base("act_w", xavier((d, 1)))
    base("stop_w", xavier((d, 1)))

    imag("im_m1", xavier((d, mh)))
    imag("im_m2", xavier((mh, mh)))
    imag("im_m3", xavier((mh, d)))

    store.add("t_im", gauss((d,), 0.3), "type_embedding")
    return store


@dataclass
class EncodedContext:
    """The encoded instructions and imaginations of B episodes, and the
    joined [text; imagination] context tokens of each episode with their
    key mask, which the cross-modal layers read. They are joined once, here:
    `decide` builds one context per batch and greedy `rollout` one per
    episode, and every step of those episodes reads it; the first
    cross-modal layer turns it into per-step tokens."""
    text: nc.Tensor            # (B, L_max, d), each instruction padded after its tokens
    text_lengths: tuple        # L_b
    imag: nc.Tensor | None     # (ΣN, d) imagination tokens in episode order
    imag_counts: tuple         # N_b, all 0 when imag is None
    tokens: nc.Tensor = field(init=False)          # (B, n_max, d) text then imagination tokens
    valid: np.ndarray | None = field(init=False)   # (B, n_max) real tokens; None: none padded

    def __post_init__(self):
        self.tokens, self.valid = self.text, _valid(self.text_lengths)
        if self.imag is not None:
            imag = _pad(self.imag, self.imag_counts)
            self.valid = _joined(len(self.text_lengths), (self.valid, self.text.shape[1]),
                                 (_valid(self.imag_counts), imag.shape[1]))
            self.tokens = nc.concat([self.text, imag], axis=1)


@dataclass(frozen=True)
class ContextInputs:
    """One episode's context before encoding, with its train-time dropout
    multipliers already drawn (see `context_inputs`)."""
    token_ids: tuple
    nouns: tuple                      # (row, noun-token positions) per kept sub-instruction
    features: np.ndarray | None       # (N, d_v) imagination features
    text_keep: np.ndarray | None      # (L, 1) word-dropout multipliers
    imag_keep: np.ndarray | None      # (N, d) imagination-token dropout multipliers


@dataclass
class Trajectory:
    visited: list
    actions: list                      # teacher: the teacher path's actions
    action_spaces: list
    logits: list                       # argmax: an (A,) array per step; teacher: empty (`decide`)
    aux_pairs: list                    # (imagination token row, noun-token positions)
    truncated: bool = False
    # teacher mode: the inputs `decide` turns into logits
    inputs: ContextInputs | None = None
    observations: np.ndarray | None = None   # (T, K, d_v)


class Agent:
    def __init__(self, config, params):
        self.config = config
        self.params = params

    # ------------------------------------------------------------------
    # encoders
    # ------------------------------------------------------------------

    def encode_text(self, instructions, keep=None):
        """B token-id sequences -> (B, L_max, d) tokens, each instruction
        padded after its tokens (`_valid` of the lengths marks the real ones).

        `keep` holds train-time (L_b, 1) word-dropout multipliers per
        instruction (see `nc.dropout_mask`): a dropped word's row is zeroed,
        and its position survives via the position encoding.
        """
        lengths = [len(ids) for ids in instructions]
        if not lengths or min(lengths) == 0:
            raise ContractError("cannot encode an empty instruction")
        width = max(lengths)
        ids = np.zeros((len(lengths), width), dtype=np.intp)
        for b, seq in enumerate(instructions):
            ids[b, :lengths[b]] = seq
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise VocabularyError(f"token id outside vocabulary of size {self.config.vocab_size}")
        x = nc.take_rows(self.params["tok_embed"], ids)
        if keep is not None and any(k is not None for k in keep):
            rows = np.ones((len(lengths), width, 1), dtype=np.float32)
            for b, k in enumerate(keep):
                if k is not None:
                    rows[b, :lengths[b]] = k
            x = nc.dropout(x, rows)
        x = nc.add(x, nc.constant(sinusoid_table(width, self.config.d)))
        return self._block(x, x, "t_", mask=_valid(lengths))

    def encode_imaginations(self, features, keep=None):
        """(ΣN, d_v) imagination features, of any number of episodes -> (ΣN, d)
        tokens, or None when there are none. Each row is encoded on its own.
        `keep` holds train-time (ΣN, d) dropout multipliers (see
        `nc.dropout_mask`)."""
        if features is None or len(features) == 0:
            return None
        feats = np.asarray(features, dtype=np.float32)
        if feats.ndim != 2 or feats.shape[1] != self.config.d_v:
            raise ShapeError(f"imagination features must be (N, {self.config.d_v}), got {feats.shape}")
        p = self.params
        # the d_v -> d projection is shared with the observation pathway: both
        # kinds of features come from the same (identity) vision encoder, so
        # one projection keeps them in a common space and matching transfers
        # to landmark classes never seen in training
        x = nc.matmul(nc.constant(feats), p["vis_proj"])
        x = nc.add(x, p["t_im"])
        x = nc.dropout(x, keep)
        x = nc.relu(nc.matmul(x, p["im_m1"]))
        x = nc.relu(nc.matmul(x, p["im_m2"]))
        return nc.matmul(x, p["im_m3"])

    def encode_observation(self, panoramas, hist_state, counts=None):
        """The steps of B episodes: (ΣT, K, d_v) panoramas, counts[b] of them
        from episode b in order (default: one episode), and the (1, d) or
        (B, d) history before each episode's first step -> ((ΣT, K+1, d)
        tokens, (ΣT, d) pooled views).

        Token 0 of an episode's step t is its history token, which summarises
        the episode's steps < t; the B histories advance in lockstep,
        max(T) - 1 times. The history after the last step is left to
        `advance_history`, for the callers that read it. An array (1, d)
        history, a greedy step's, takes one step on arrays and returns arrays.
        """
        cfg = self.config
        pano = np.asarray(panoramas, dtype=np.float32)
        if pano.ndim != 3 or pano.shape[1:] != (cfg.k_views, cfg.d_v):
            raise ShapeError(f"panoramas must be (T, {cfg.k_views}, {cfg.d_v}), got {pano.shape}")
        steps = pano.shape[0]
        counts = [steps] if counts is None else list(counts)
        if sum(counts) != steps or min(counts) < 1:
            raise ShapeError(f"{steps} panoramas for step counts {counts}")
        p, batch = self.params, len(counts)
        if isinstance(hist_state, np.ndarray):
            if steps != 1:
                raise ShapeError(f"an array pass takes one step, not {steps}")
            views = pano @ p["vis_proj"].values + p["view_embed"].values
            pooled = nc.mean_forward(views, axis=1) @ p["hist_wp"].values
            return np.concatenate([hist_state.reshape(1, 1, cfg.d), views], axis=1), pooled
        views = nc.add(nc.matmul(nc.constant(pano), p["vis_proj"]), p["view_embed"])
        pooled = nc.matmul(nc.mean(views, axis=1), p["hist_wp"])               # (ΣT, d)
        hist_tokens = hist_state if hist_state.shape[0] == batch else nc.repeat(hist_state, [batch])
        if max(counts) > 1:
            hists, lengths = [hist_tokens], np.asarray(counts)
            starts = np.cumsum(lengths) - lengths
            for t in range(max(counts) - 1):
                # an episode with fewer steps re-reads its last row; the
                # histories that follow from it are never read
                hists.append(self.advance_history(
                    hists[-1], nc.take_rows(pooled, starts + np.minimum(t, lengths - 1))))
            # step t of episode b is row t * B + b of the stacked histories
            order = np.concatenate([np.arange(n) * batch + b for b, n in enumerate(counts)])
            hist_tokens = nc.take_rows(nc.concat(hists, axis=0), order)
        hist_tokens = nc.reshape(hist_tokens, (steps, 1, cfg.d))
        return nc.concat([hist_tokens, views], axis=1), pooled

    def advance_history(self, hist_state, pooled_step):
        """The (B, d) histories after a step whose pooled views are (B, d):
        an array when the histories are, as a greedy step's are."""
        wh = self.params["hist_wh"]
        if isinstance(hist_state, np.ndarray):
            return np.tanh(hist_state @ wh.values + pooled_step)
        return nc.tanh(nc.add(nc.matmul(hist_state, wh), pooled_step))

    # ------------------------------------------------------------------
    # attention plumbing
    # ------------------------------------------------------------------

    def _block(self, q_tokens, kv_tokens, prefix, record=None, mask=None, counts=None):
        """Residual attention then residual feed-forward, over (..., n, d):
        two tape nodes, since `nc.attention` and `nc.ffn` each add their
        input. `counts` gives `nc.attention`'s per-episode form."""
        p = self.params
        x = nc.attention(q_tokens, kv_tokens, p[prefix + "wq"], p[prefix + "wk"], p[prefix + "wv"],
                         p[prefix + "wo"], self.config.heads, record=record, mask=mask,
                         counts=counts)
        return nc.ffn(x, p[prefix + "ff1"], p[prefix + "ff2"])

    def _untaped_block(self, q_tokens, kv_tokens, prefix):
        """`_block` of arrays, with no mask: the kernels its two ops record."""
        p = self.params
        x, _ = nc.attention_forward(q_tokens, kv_tokens, p[prefix + "wq"].values,
                                    p[prefix + "wk"].values, p[prefix + "wv"].values,
                                    p[prefix + "wo"].values, self.config.heads)
        return nc.ffn_forward(x, p[prefix + "ff1"].values, p[prefix + "ff2"].values)[0]

    # ------------------------------------------------------------------
    # cross-modal policy
    # ------------------------------------------------------------------

    def cross_modal_step(self, context, visual_tokens, counts, navs, record=None):
        """The decisions of B episodes in one pass. `context` holds their
        encoded instructions and imaginations, shared by each episode's
        steps; episode b has counts[b] consecutive steps of the (ΣT, K+1, d)
        `visual_tokens`; `navs` holds the sorted navigable (view, neighbor)
        lists of all ΣT steps in episode order.

        Array `visual_tokens`, a greedy step's, take one step of one episode,
        `_untaped_logits`, which records no weights. Tensor ones record the
        tape: layer 0's context stream projects and scores each episode's
        context tokens once for all its steps (`nc.attention(counts=)`); its
        output, and every later layer, holds context tokens per step. Each
        step's context tokens are padded to the batch's longest, and
        key-padding masks keep the padding out of every softmax. Padded
        queries are computed but read by nothing, so they get zero gradient.
        The last layer's visual stream computes only the rows the action head
        reads (`_read_rows`): the history, the navigable views in `nav` order,
        then distinct unread views up to 1 + max(len(nav)) rows; every earlier
        layer, and the visual tokens as the context stream's keys, keep all
        K + 1.

        The action head, one `nc.action_logits` call, reads each step's
        history token h and navigable views v in place: a view's logit is
        (v · h) / √d + v · act_w, and the stop logit is h · stop_w.

        Returns the (ΣT, A) logits over [navigable views; stop] padded with
        -inf. When `record` is a list it receives, per layer, the context
        stream's (ΣT, heads, Tq, Tk) attention weights as `nc.attention`
        records them, padding included: queries are the Tq padded context
        tokens, keys those tokens then the K + 1 visual tokens, and padded
        keys weigh exactly 0. The visual stream records nothing.
        """
        cfg = self.config
        k = cfg.k_views
        batch, steps = len(counts), visual_tokens.shape[0]
        if context.text.shape[0] != batch or sum(counts) != steps or len(navs) != steps:
            raise ShapeError(f"{context.text.shape[0]} contexts, step counts {list(counts)}, "
                             f"{steps} visual token sets and {len(navs)} navigable lists")
        if isinstance(visual_tokens, np.ndarray):
            if list(counts) != [1]:
                raise ShapeError(f"an array pass takes one step, not step counts {list(counts)}")
            return self._untaped_logits(context, visual_tokens, navs[0])
        # masks of the real context tokens, None when nothing is padded. The
        # visual token sets all have K + 1 tokens.
        ctx, ctx_valid, vis = context.tokens, context.valid, visual_tokens
        ctx_keys = _keys(ctx_valid, counts)
        both_keys = _keys(_joined(batch, (ctx_valid, ctx.shape[1]), (None, k + 1)), counts)

        # each step's navigable views among the visual tokens after the history
        slots = [[v for v, _ in nav] for nav in navs]
        for layer in range(cfg.cross_layers):
            if layer == 0:
                ctx = self._block(ctx, vis, "c0_", record, ctx_valid, counts)
            else:
                ctx = self._block(ctx, nc.concat([ctx, vis], axis=1), f"c{layer}_", record,
                                  both_keys)
            if layer == cfg.cross_layers - 1:
                vis, slots = _read_rows(vis, slots)
            vis = self._block(vis, ctx, f"v{layer}_", mask=ctx_keys)

        # step t's actions among its n = 1 + views scores, the stop last;
        # padding repeats the stop index
        n = vis.shape[1]
        lengths = [len(nav) + 1 for nav in navs]
        width = max(lengths)
        index = [[t * n + s for s in slot] + [t * n + n - 1] * (width - len(slot))
                 for t, slot in enumerate(slots)]
        pad = None
        if min(lengths) < width:
            pad = np.where(np.arange(width) < np.array(lengths)[:, None], 0.0,
                           -np.inf).astype(np.float32)
        return nc.action_logits(vis, self.params["act_w"], self.params["stop_w"], index, pad)

    def _untaped_logits(self, context, vis, nav):
        """The (1, A) logits array of a greedy step's (1, K+1, d) visual
        tokens: the one context joins all K + 1 of them at every layer, with
        nothing padded or masked, and the head scores every view."""
        p, k = self.params, self.config.k_views
        ctx = context.tokens.values
        for layer in range(self.config.cross_layers):
            ctx = self._untaped_block(ctx, np.concatenate([ctx, vis], axis=1), f"c{layer}_")
            vis = self._untaped_block(vis, ctx, f"v{layer}_")
        index = np.array([[v for v, _ in nav] + [k]], dtype=np.intp)
        return nc.action_logits_forward(vis, p["act_w"].values, p["stop_w"].values, index)[0]


def _read_rows(vis, slots):
    """The (ΣT, 1 + max nav, d) rows of (ΣT, K+1, d) visual tokens that the
    action head reads, and each step's view slots among them: its history
    token, then its navigable views in view order (`navigable` lists them
    sorted, so this is `nav` order), then the lowest views it does not read,
    as padding. No row is gathered twice, so the gather's backward scatters
    by plain indexing."""
    steps, n, d = vis.shape
    lengths = np.array([len(slot) for slot in slots])
    read = np.zeros((steps, n), dtype=bool)
    read[:, 0] = True
    read[np.repeat(np.arange(steps), lengths), [1 + v for slot in slots for v in slot]] = True
    index = np.argsort(~read, axis=1, kind="stable")[:, :1 + lengths.max()]
    index += np.arange(steps)[:, None] * n
    return (nc.take_rows(nc.reshape(vis, (steps * n, d)), index),
            [range(length) for length in lengths])


def _valid(lengths):
    """The (B, max length) mask of the real tokens of B sets padded after
    their lengths[b] tokens; None when no set is padded."""
    if min(lengths) == max(lengths):
        return None
    lengths = np.asarray(lengths)
    return np.arange(lengths.max()) < lengths[:, None]


def _joined(batch, *blocks):
    """The mask of (mask or None, width) token blocks of B episodes laid side
    by side; None when no block is padded."""
    if all(valid is None for valid, _ in blocks):
        return None
    return np.concatenate([np.ones((batch, width), dtype=bool) if valid is None else valid
                           for valid, width in blocks], axis=1)


def _keys(valid, counts):
    """A mask of B episodes' tokens as the key mask of their steps."""
    return None if valid is None else np.repeat(valid, counts, axis=0)


def _pad(rows, counts):
    """The (Σn, d) rows of B consecutive sets, counts[b] >= 0 rows in set b,
    as (B, max n, d) tokens with each set padded after its rows. Padding
    repeats row 0; the masks of `_valid` keep it out."""
    width = max(counts)
    if min(counts) == width:
        return nc.reshape(rows, (len(counts), width, rows.shape[-1]))
    counts = np.asarray(counts)
    slots = np.arange(width)
    starts = np.cumsum(counts) - counts
    return nc.take_rows(rows, np.where(slots < counts[:, None], starts[:, None] + slots, 0))


def noun_phrase_means(text, groups):
    """(P, d) mean noun-phrase embeddings: row p averages the (B, L_max, d)
    `text` tokens of instruction groups[p][0] at positions groups[p][1]."""
    if any(len(positions) == 0 for _, positions in groups):
        raise ContractError("sub-instruction has no noun-phrase token positions")
    batch, width, d = text.shape
    index = [b * width + i for b, positions in groups for i in positions]
    return nc.segment_mean(nc.take_rows(nc.reshape(text, (batch * width, d)), index),
                           [len(positions) for _, positions in groups])


def context_inputs(agent, token_ids, imaginations, kept_subs, train=False, rng=None):
    """One episode's context before encoding, with its train-time dropout
    multipliers drawn from `rng`: word dropout first, then dropout over the
    imagination tokens.

    `imaginations` is the (possibly policy-transformed) list for the episode.
    Under `imag_source = text_mean` each imagination whose sub-instruction is
    in kept_subs becomes that sub-instruction's mean noun-phrase embedding.
    """
    cfg = agent.config
    nouns = tuple((row, sub.noun_token_indices)
                  for row, sub in _kept_pairs(imaginations, kept_subs))
    text_keep = nc.dropout_mask((len(token_ids), 1), TEXT_DROPOUT, rng, train)
    features = imag_keep = None
    if imaginations and cfg.imag_source == "imagination":
        features = np.stack([im.feature for im in imaginations])
        imag_keep = nc.dropout_mask((len(imaginations), cfg.d), DROPOUT_RATE, rng, train)
    return ContextInputs(token_ids=tuple(token_ids), nouns=nouns, features=features,
                         text_keep=text_keep, imag_keep=imag_keep)


def build_context(agent, inputs):
    """Encode the instructions and imaginations of B episodes, given their
    `context_inputs`, with one text encoder and one imagination encoder
    pass."""
    text = agent.encode_text([x.token_ids for x in inputs], [x.text_keep for x in inputs])
    if agent.config.imag_source == "text_mean":
        counts = tuple(len(x.nouns) for x in inputs)
        imag = noun_phrase_means(text, [(b, positions) for b, x in enumerate(inputs)
                                        for _, positions in x.nouns]) if any(counts) else None
    else:
        imagined = [x for x in inputs if x.features is not None]
        counts = tuple(0 if x.features is None else len(x.features) for x in inputs)
        keep = [x.imag_keep for x in imagined if x.imag_keep is not None]
        imag = agent.encode_imaginations(
            np.concatenate([x.features for x in imagined]) if imagined else None,
            np.concatenate(keep) if keep else None)
    return EncodedContext(text=text, text_lengths=tuple(len(x.token_ids) for x in inputs),
                          imag=imag, imag_counts=counts)


def _kept_pairs(imaginations, kept_subs):
    """(row, sub-instruction) of each imagination whose sub-instruction was
    kept."""
    by_index = {s.index: s for s in kept_subs}
    return [(row, by_index[im.sub_index]) for row, im in enumerate(imaginations)
            if im.sub_index in by_index]


def rollout(agent, episode, token_ids, tokens, imaginations, mode, obs_rng,
            kept_subs=(), train=False, aux=False):
    """Run one episode. `obs_rng` is its one random stream: with `train`,
    the dropout multipliers are drawn from it (`context_inputs`) before the
    observations.

    teacher mode only draws: the dropout multipliers, then the teacher
    path's observations in path order, all in one `observation_at` call.
    `decide` encodes and decides every teacher episode of a batch in one
    pass, and the teacher path's `actions` supervise its logits. argmax mode
    follows the greedy policy until stop or `MAX_STEPS` decisions (ties
    break to the lowest action index), drawing each step's observation when
    it reaches the node. With `aux`, the trajectory lists the (imagination
    token, noun-phrase) pairs of the alignment loss. Deterministic given the
    rng stream. argmax mode builds its context off the tape and steps on
    arrays, so its logits are the same bytes inside `nc.no_grad()` or not.
    `tokens`, the instruction's words, is read by nothing; it keeps its
    place among the positional arguments.
    """
    cfg = agent.config
    world = episode.world
    if mode == "teacher" and MAX_STEPS < len(episode.teacher_path):
        raise ContractError(f"MAX_STEPS={MAX_STEPS} too small for the teacher path")

    inputs = context_inputs(agent, token_ids, imaginations, kept_subs, train=train, rng=obs_rng)
    truncated = False
    observations = None
    logits_list = []

    if mode == "teacher":
        visited = list(episode.teacher_path)
        spaces = [wd.navigable(world, node) for node in visited]
        observations = wd.observation_at(world, visited, obs_rng)
        actions = [next(i for i, (_, nb) in enumerate(nav) if nb == nxt)
                   for nav, nxt in zip(spaces, visited[1:])] + [len(spaces[-1])]
    elif mode == "argmax":
        with nc.no_grad():
            context = build_context(agent, [inputs])
        hist = agent.params["hist_init"].values
        node = episode.start
        visited = [node]
        actions, spaces = [], []
        for _ in range(MAX_STEPS):
            nav = wd.navigable(world, node)
            vis_tokens, pooled = agent.encode_observation(
                wd.observation_at(world, [node], obs_rng), hist)
            logits = agent.cross_modal_step(context, vis_tokens, [1], [nav])[0]
            action = int(logits.argmax())
            logits_list.append(logits)
            actions.append(action)
            spaces.append(nav)
            if action == len(nav):
                break
            node = nav[action][1]
            visited.append(node)
            hist = agent.advance_history(hist, pooled)
        else:
            truncated = True
    else:
        raise ContractError(f"unknown rollout mode {mode!r}")

    aux_pairs = list(inputs.nouns) if aux and cfg.imag_source == "imagination" else []
    return Trajectory(visited=visited, actions=actions, action_spaces=spaces,
                      logits=logits_list, aux_pairs=aux_pairs, truncated=truncated,
                      inputs=inputs if mode == "teacher" else None, observations=observations)


def decide(agent, trajectories, record=None):
    """Encode and decide the steps of teacher-mode trajectories in one padded
    pass: one text, one imagination and one observation encoder pass over
    the batch, then `cross_modal_step`.

    Its last visual-stream layer computes only each step's history and
    navigable view rows (see `cross_modal_step`), so its logits and
    gradients equal those of computing all K + 1 rows within float32
    rounding, not bit for bit.

    Returns the (ΣT, A) action logits of all steps in trajectory order, the
    navigable views' then the stop's, as `cross_modal_step`'s one
    `nc.action_logits` call scores them, padded with -inf (step t of the
    first trajectory is row t; its first len(nav) + 1 columns are its
    actions), and the (P, d) imagination tokens h and
    noun-phrase means s̄ of the trajectories' alignment pairs in order (None
    and None without pairs). `record` is handed to `cross_modal_step`: a list
    receives each layer's (ΣT, heads, Tq, Tk) context-stream weights.
    """
    context = build_context(agent, [t.inputs for t in trajectories])
    counts = [len(t.action_spaces) for t in trajectories]
    visual, _ = agent.encode_observation(np.concatenate([t.observations for t in trajectories]),
                                         agent.params["hist_init"], counts)
    logits = agent.cross_modal_step(
        context, visual, counts, [nav for t in trajectories for nav in t.action_spaces], record)
    pairs = [(b, row, positions) for b, t in enumerate(trajectories)
             for row, positions in t.aux_pairs]
    if not pairs:
        return logits, None, None
    starts = np.cumsum(context.imag_counts) - context.imag_counts
    h = nc.take_rows(context.imag, [starts[b] + row for b, row, _ in pairs])
    return logits, h, noun_phrase_means(context.text, [(b, p) for b, _, p in pairs])
