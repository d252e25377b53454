"""The toy VLN agent.

Encoders: token embeddings + sinusoidal positions + one self-attention block
for text; a linear projection + type embedding + bias-free 3-layer MLP for
imaginations (or a small transformer block, as an ablation); per-view linear
projection + view-index embedding + a recurrent summary token for panoramas.

The cross-modal policy alternates two attention streams per layer: the
context stream ([text; imagination] tokens attending over context + visual
keys, which is what the attention probe inspects) and the visual stream
(visual tokens attending over context keys, per the integration scheme).
Action logits are per-navigable-view scores plus a stop score read off the
history token. Under teacher forcing the path is known in advance, so each
episode's T steps are encoded in one pass over a leading step axis, and the
steps of all episodes of a training batch are decided in one padded pass
(`decide`); greedy decoding runs the same code with one episode and T = 1.

Masked imagination tokens are excluded from every key/query set, which is
exactly the zero-attention-weight (-inf pre-softmax) semantics and makes
null-imagination runs bit-identical to runs without imagination tokens.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import numcore as nc
from . import serial
from . import world as wd
from .errors import ConfigurationError, ContractError, ShapeError, VocabularyError


@dataclass(frozen=True)
class AgentConfig:
    vocab_size: int
    d: int = 64
    heads: int = 4
    cross_layers: int = 2
    k_views: int = 12
    d_v: int = 16                     # also the feature width of generated data
    mlp_hidden: int = 0               # 0 -> ceil(2d/3)
    dropout_rate: float = 0.15
    text_dropout: float = 0.3         # train-time word-identity dropout
    fusion: str = "early"             # early | late
    imagination_encoder: str = "mlp"  # mlp | transformer
    concat_target: str = "text"       # text | visual
    imag_source: str = "imagination"  # imagination | text_mean
    imag_order_encoding: bool = False
    max_steps: int = 15

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ConfigurationError(f"d={self.d} not divisible by heads={self.heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")
        if self.mlp_hidden == 0:
            object.__setattr__(self, "mlp_hidden", math.ceil(2 * self.d / 3))
        for name, value, allowed in (
            ("fusion", self.fusion, ("early", "late")),
            ("imagination_encoder", self.imagination_encoder, ("mlp", "transformer")),
            ("concat_target", self.concat_target, ("text", "visual")),
            ("imag_source", self.imag_source, ("imagination", "text_mean")),
        ):
            if value not in allowed:
                raise ConfigurationError(f"{name}={value!r} not in {allowed}")

    def to_text(self):
        return "\n".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))

    @classmethod
    def from_text(cls, text):
        pairs = (line.partition("=") for line in text.strip().splitlines())
        return cls(**{k: serial.parse_field(cls, k, v) for k, _, v in pairs})


_SINUSOID_CACHE = {}


def sinusoid_table(n, d, scale=0.15):
    key = (n, d, scale)
    if key not in _SINUSOID_CACHE:
        pos = np.arange(n)[:, None]
        i = np.arange(d)[None, :]
        angles = pos / np.power(10000.0, (2 * (i // 2)) / d)
        table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
        _SINUSOID_CACHE[key] = (scale * table).astype(np.float32)
    return _SINUSOID_CACHE[key]


def init_params(config, seed):
    """Seeded ParamStore; group tags drive the staged finetuning schedule."""
    rng = np.random.default_rng(np.random.SeedSequence([0x1217, seed]))
    store = nc.ParamStore()
    d, mh, dv = config.d, config.mlp_hidden, config.d_v

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

    if config.imagination_encoder == "mlp":
        imag("im_m1", xavier((d, mh)))
        imag("im_m2", xavier((mh, mh)))
        imag("im_m3", xavier((mh, d)))
    else:
        for p in ("im_wq", "im_wk", "im_wv", "im_wo"):
            imag(p, xavier((d, d)))
        imag("im_ff1", xavier((d, mh)))
        imag("im_ff2", xavier((mh, d)))
    if config.fusion == "late":
        imag("gate_u", xavier((d, 1)))
        imag("gate_w", xavier((d, 1)))

    store.add("t_im", gauss((d,), 0.3), "type_embedding")
    return store


@dataclass
class EncodedContext:
    text: nc.Tensor                    # (L, d)
    imag: nc.Tensor | None             # (N_live, d) or None; masked tokens already dropped
    imag_mask: np.ndarray              # original mask over the imagination list
    live_indices: tuple = ()           # imagination-list indices of the kept rows

    def live_imag(self):
        """Unmasked imagination tokens (the -inf-masked ones carry exactly zero
        attention weight, i.e. they are absent from every key and query set)."""
        return self.imag


@dataclass
class AttentionRecord:
    layer: int
    stream: str          # context | visual
    weights: np.ndarray  # (heads, Tq, Tk)
    query_kinds: tuple
    key_kinds: tuple


@dataclass
class Trajectory:
    episode: object
    token_ids: tuple
    tokens: tuple
    visited: list
    actions: list
    action_spaces: list
    logits: list
    teacher_actions: list
    attention: list | None
    grounding_view: int | None
    aux_pairs: list
    imaginations: list
    truncated: bool = False
    # teacher mode: the inputs `decide` turns into logits
    context: EncodedContext | None = None
    visual: nc.Tensor | None = None    # (T, K+1, d)


class StepLogits(Sequence):
    """The per-step logits of one decided teacher trajectory: step t is row
    first + t of the batch's padded logits, cut to its actions. A step is
    sliced (and recorded on the tape) only when read; training reads the
    padded logits directly."""

    def __init__(self, padded, first, lengths):
        self.padded, self.first, self.lengths = padded, first, lengths

    def __len__(self):
        return len(self.lengths)

    def __getitem__(self, t):
        t = range(len(self.lengths))[t]
        width = self.padded.shape[1]
        flat = nc.reshape(self.padded, (self.padded.values.size,))
        return nc.take_rows(flat, (self.first + t) * width + np.arange(self.lengths[t]))


class Agent:
    def __init__(self, config, params):
        self.config = config
        self.params = params

    # ------------------------------------------------------------------
    # encoders
    # ------------------------------------------------------------------

    def encode_text(self, token_ids, train=False, rng=None):
        if len(token_ids) == 0:
            raise ContractError("cannot encode an empty instruction")
        ids = np.asarray(token_ids, dtype=np.intp)
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise VocabularyError(f"token id outside vocabulary of size {self.config.vocab_size}")
        p = self.params
        x = nc.take_rows(p["tok_embed"], ids)
        # word-identity dropout: whole token rows are zeroed (inverted scaling),
        # positions survive via the position encoding
        rate = self.config.text_dropout
        if train and rate > 0.0:
            keep = 1.0 - rate
            rows = (rng.random((len(token_ids), 1)) < keep).astype(np.float32) / np.float32(keep)
            x = nc.mul(x, nc.constant(np.repeat(rows, self.config.d, axis=1)))
        x = nc.add(x, nc.constant(sinusoid_table(len(token_ids), self.config.d)))
        return self._block(x, x, "t_")

    def encode_imaginations(self, features, train=False, rng=None):
        """(N, d_v) features -> ((N, d) tokens, all-true mask)."""
        if features is None or len(features) == 0:
            return None, np.zeros(0, dtype=bool)
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
        x = nc.dropout(x, self.config.dropout_rate, rng, train)
        if self.config.imagination_encoder == "mlp":
            x = nc.relu(nc.matmul(x, p["im_m1"]))
            x = nc.relu(nc.matmul(x, p["im_m2"]))
            x = nc.matmul(x, p["im_m3"])
        else:
            x = nc.add(x, nc.constant(sinusoid_table(feats.shape[0], self.config.d)))
            x = self._block(x, x, "im_")
        if self.config.imag_order_encoding:
            x = nc.add(x, nc.constant(sinusoid_table(feats.shape[0], self.config.d)))
        return x, np.ones(feats.shape[0], dtype=bool)

    def mean_nounphrase_embedding(self, sub, text_tokens):
        if not sub.noun_token_indices:
            raise ContractError("sub-instruction has no noun-phrase token positions")
        rows = nc.take_rows(text_tokens, list(sub.noun_token_indices))
        return nc.reshape(nc.mean(rows, axis=0), (self.config.d,))

    def encode_observation(self, panoramas, hist_state):
        """T steps of K views: (T, K, d_v) panoramas and the history before the
        first step -> ((T, K+1, d) tokens, (T, d) pooled views).

        Token 0 of step t is the history token, which summarises steps < t.
        The history after the last step is left to `advance_history`, for the
        callers that read it.
        """
        cfg = self.config
        pano = np.asarray(panoramas, dtype=np.float32)
        if pano.ndim != 3 or pano.shape[1:] != (cfg.k_views, cfg.d_v):
            raise ShapeError(f"panoramas must be (T, {cfg.k_views}, {cfg.d_v}), got {pano.shape}")
        p = self.params
        steps = pano.shape[0]
        views = nc.add(nc.matmul(nc.constant(pano), p["vis_proj"]), p["view_embed"])
        pooled = nc.matmul(nc.mean(views, axis=1), p["hist_wp"])               # (T, d)
        hists = [hist_state]
        for t in range(steps - 1):
            hists.append(self.advance_history(hists[-1], nc.take_rows(pooled, [t])))
        hist_tokens = nc.reshape(nc.concat(hists, axis=0), (steps, 1, cfg.d))
        return nc.concat([hist_tokens, views], axis=1), pooled

    def advance_history(self, hist_state, pooled_step):
        """The (1, d) history after a step whose pooled views are (1, d)."""
        return nc.tanh(nc.add(nc.matmul(hist_state, self.params["hist_wh"]), pooled_step))

    # ------------------------------------------------------------------
    # attention plumbing
    # ------------------------------------------------------------------

    def _block(self, q_tokens, kv_tokens, prefix, record=None, mask=None):
        """Residual attention then residual feed-forward, over (..., n, d)."""
        p = self.params
        x = nc.add(q_tokens, nc.attention(q_tokens, kv_tokens, p[prefix + "wq"], p[prefix + "wk"],
                                          p[prefix + "wv"], p[prefix + "wo"], self.config.heads,
                                          record=record, mask=mask))
        return nc.add(x, nc.ffn(x, p[prefix + "ff1"], p[prefix + "ff2"]))

    # ------------------------------------------------------------------
    # cross-modal policy
    # ------------------------------------------------------------------

    def cross_modal_step(self, contexts, visual_tokens, navs, record_attention=False):
        """The decisions of B episodes in one pass. Episode b has the encoded
        context `contexts[b]`, shared by its steps, and (T_b, K+1, d)
        `visual_tokens[b]`; `navs` holds the sorted navigable (view, neighbor)
        lists of all ΣT steps in episode order.

        Each step's token sets are padded to the batch's longest, and
        key-padding masks keep the padding out of every softmax. Padded
        queries are computed but read by nothing, so they get zero gradient.
        With equal-length sets (one context) nothing is padded or masked.

        Returns ((ΣT, A) logits over [navigable views; stop] padded with -inf,
        (ΣT, K, 1) view scores, per-step lists of attention records or None).
        """
        cfg = self.config
        d, k = cfg.d, cfg.k_views
        counts = [v.shape[0] for v in visual_tokens]
        steps = sum(counts)
        if len(contexts) != len(counts) or len(navs) != steps:
            raise ShapeError(f"{len(contexts)} contexts, {len(counts)} visual token sets and "
                             f"{len(navs)} navigable lists for {steps} steps")
        live = [c.live_imag() for c in contexts]
        # early fusion puts the imagination tokens into one of the streams
        imags = live if cfg.fusion == "early" else [None] * len(live)
        n_text = [c.text.shape[0] for c in contexts]
        n_imag = [0 if m is None else m.shape[0] for m in imags]
        into_text = cfg.concat_target == "text"
        n_ctx = [t + i for t, i in zip(n_text, n_imag)] if into_text else n_text
        ctx = self._padded([[c.text] + ([m] if into_text and m is not None else [])
                            for c, m in zip(contexts, imags)], n_ctx, counts)
        vis = visual_tokens[0] if len(visual_tokens) == 1 else nc.concat(visual_tokens, axis=0)
        n_vis = [k + 1] * len(contexts)
        if not into_text and any(n_imag):
            # imagination tokens after each step's views
            n_vis = [k + 1 + n for n in n_imag]
            extra = self._padded([[] if m is None else [m] for m in imags], n_imag, counts)
            vis = nc.concat([vis, extra], axis=1)
        # key masks, None when nothing is padded: then the arithmetic is
        # exactly that of an unbatched pass
        ctx_keys = _key_mask(counts, n_ctx)
        both_keys = _key_mask(counts, n_ctx, n_vis)

        raws = []   # per layer and stream: (ΣT, heads, Tq, Tk) weights
        for layer in range(cfg.cross_layers):
            c_raw = [] if record_attention else None
            ctx = self._block(ctx, nc.concat([ctx, vis], axis=1), f"c{layer}_", c_raw, both_keys)
            v_raw = [] if record_attention else None
            vis = self._block(vis, ctx, f"v{layer}_", v_raw, ctx_keys)
            if record_attention:
                raws += [(layer, "context", c_raw[0]), (layer, "visual", v_raw[0])]
        records = None
        if record_attention:
            records = []
            for t, b in enumerate(np.repeat(np.arange(len(contexts)), counts)):
                ctx_kinds = ("text",) * n_text[b] + ("imagination",) * (n_ctx[b] - n_text[b])
                vis_kinds = ("visual",) * (k + 1) + ("imagination",) * (n_vis[b] - k - 1)
                # each step's weights cut to its own (query, key) tokens, which
                # lead each padded block
                width = ctx.shape[1]
                cuts = {"context": (n_ctx[b], np.r_[0:n_ctx[b], width:width + n_vis[b]],
                                    ctx_kinds, ctx_kinds + vis_kinds),
                        "visual": (n_vis[b], np.arange(n_ctx[b]), vis_kinds, ctx_kinds)}
                step = []
                for layer, stream, w in raws:
                    queries, keys, query_kinds, key_kinds = cuts[stream]
                    step.append(AttentionRecord(layer=layer, stream=stream,
                                                weights=w[t][:, :queries][:, :, keys],
                                                query_kinds=query_kinds, key_kinds=key_kinds))
                records.append(step)

        view_tokens = nc.take_rows(vis, list(range(1, k + 1)), axis=1)       # (ΣT, K, d)
        hist_token = nc.take_rows(vis, [0], axis=1)                          # (ΣT, 1, d)
        # state-conditioned matching score plus a per-view bias term
        match = nc.scale(nc.matmul(view_tokens, nc.transpose(hist_token, (0, 2, 1))),
                         1.0 / math.sqrt(d))                                # (ΣT, K, 1)
        view_scores = nc.add(match, nc.matmul(view_tokens, self.params["act_w"]))
        stop_score = nc.matmul(hist_token, self.params["stop_w"])           # (ΣT, 1, 1)
        scores = nc.concat([view_scores, stop_score], axis=1)               # (ΣT, K+1, 1)
        if cfg.fusion == "late" and any(m is not None for m in live):
            # an episode without imaginations pools zeros: a gate strength of 0
            pooled = [nc.constant(np.zeros((1, d), dtype=np.float32)) if m is None
                      else nc.reshape(nc.mean(m, axis=0), (1, d)) for m in live]
            pooled = pooled[0] if len(pooled) == 1 else nc.concat(pooled, axis=0)   # (B, d)
            strength = nc.repeat(nc.reshape(nc.matmul(pooled, self.params["gate_w"]),
                                            (len(live), 1, 1)), counts)         # (ΣT, 1, 1)
            cand = nc.concat([view_tokens, hist_token], axis=1)
            gates = nc.sigmoid(nc.matmul(cand, self.params["gate_u"]))      # (ΣT, K+1, 1)
            scores = nc.add(scores, nc.mul(gates, strength))
        # step t's actions in the flat scores; padding repeats the stop index
        lengths = [len(nav) + 1 for nav in navs]
        width = max(lengths)
        index = [[t * (k + 1) + v for v, _ in nav] + [t * (k + 1) + k] * (width - len(nav))
                 for t, nav in enumerate(navs)]
        logits = nc.take_rows(nc.reshape(scores, (steps * (k + 1),)), index)
        if min(lengths) < width:
            valid = np.arange(width) < np.array(lengths)[:, None]
            logits = nc.add(logits, nc.constant(np.where(valid, 0.0, -np.inf).astype(np.float32)))
        return logits, view_scores, records

    def _padded(self, parts, lengths, counts):
        """(ΣT, max(lengths), d) tokens: episode b's rows (`parts[b]` stacked,
        `lengths[b]` of them) zero-padded and repeated for its counts[b] steps."""
        width = max(lengths)
        pieces = []
        for part, n in zip(parts, lengths):
            pieces += part
            if n < width:
                pieces.append(nc.constant(np.zeros((width - n, self.config.d), dtype=np.float32)))
        rows = pieces[0] if len(pieces) == 1 else nc.concat(pieces, axis=0)
        rows = nc.reshape(rows, (len(lengths), width, self.config.d))
        return rows if len(counts) == sum(counts) else nc.repeat(rows, counts)


def _key_mask(counts, *blocks):
    """The (ΣT, Σ widths) mask of the real tokens of padded blocks laid side by
    side: block j holds episode b's blocks[j][b] tokens, then padding up to
    max(blocks[j]). None when no token is padding."""
    if all(min(n) == max(n) for n in blocks):
        return None
    valid = np.concatenate([np.arange(max(n)) < np.array(n)[:, None] for n in blocks], axis=1)
    return np.repeat(valid, counts, axis=0)


def build_context(agent, token_ids, imaginations, kept_subs, imag_mask=None,
                  train=False, rng=None):
    """Encode text and imaginations once per episode.

    `imaginations` is the (possibly policy-transformed) list for the episode;
    under `imag_source = text_mean` each live imagination whose sub-instruction
    is in kept_subs becomes that sub-instruction's mean noun-phrase embedding.
    """
    text = agent.encode_text(token_ids, train=train, rng=rng)
    n = len(imaginations)
    if imag_mask is None:
        mask = np.ones(n, dtype=bool)
    else:
        mask = np.asarray(imag_mask, dtype=bool)
        if mask.shape[0] != n:
            raise ShapeError("imagination mask length mismatch")
    live = tuple(int(i) for i in np.nonzero(mask)[0])

    if agent.config.imag_source == "text_mean":
        pairs = _kept_pairs(imaginations, live, kept_subs)
        rows = [nc.reshape(agent.mean_nounphrase_embedding(sub, text), (1, agent.config.d))
                for _, sub in pairs]
        imag = nc.concat(rows, axis=0) if rows else None
        live = tuple(live[pos] for pos, _ in pairs)
    else:
        feats = np.stack([imaginations[i].feature for i in live]) if live else None
        imag, _ = agent.encode_imaginations(feats, train=train, rng=rng)
    return EncodedContext(text=text, imag=imag, imag_mask=mask, live_indices=live)


def _kept_pairs(imaginations, indices, kept_subs):
    """(position in `indices`, sub-instruction) of each listed imagination
    whose sub-instruction was kept."""
    by_index = {s.index: s for s in kept_subs}
    return [(pos, by_index[imaginations[i].sub_index]) for pos, i in enumerate(indices)
            if imaginations[i].sub_index in by_index]


def rollout(agent, episode, token_ids, tokens, imaginations, mode, obs_rng,
            kept_subs=(), imag_mask=None, train=False, drop_rng=None,
            max_steps=None, record_attention=False, aux=False):
    """Run one episode.

    teacher mode encodes the teacher path's observations and leaves the
    decisions to `decide`, which runs every teacher episode of a batch in one
    pass and fills the logits used for supervision. argmax mode follows the
    greedy policy until stop or max_steps (ties break to the lowest action
    index). With `aux`, the trajectory carries the (imagination token,
    noun-phrase mean) pairs of the alignment loss. Deterministic given the rng
    streams.
    """
    cfg = agent.config
    world = episode.world
    max_steps = max_steps or cfg.max_steps
    if mode == "teacher" and max_steps < len(episode.teacher_path):
        raise ContractError("max_steps too small for the teacher path")

    context = build_context(agent, token_ids, imaginations, kept_subs,
                            imag_mask=imag_mask, train=train, rng=drop_rng)
    hist = agent.params["hist_init"]
    attn = [] if record_attention else None
    truncated = False
    visual = grounding_view = None
    logits_list = []

    if mode == "teacher":
        # the path is known in advance: draw its observations in path order
        # and encode all steps in one pass
        visited = list(episode.teacher_path)
        spaces = [wd.navigable(world, node) for node in visited]
        obs = np.stack([wd.observation_at(world, node, obs_rng) for node in visited])
        visual, _ = agent.encode_observation(obs, hist)
        actions = [next(i for i, (_, nb) in enumerate(nav) if nb == nxt)
                   for nav, nxt in zip(spaces, visited[1:])] + [len(spaces[-1])]
        teacher_actions = list(actions)
    elif mode == "argmax":
        node = episode.start
        visited = [node]
        actions, spaces, teacher_actions = [], [], []
        for _ in range(max_steps):
            nav = wd.navigable(world, node)
            obs = wd.observation_at(world, node, obs_rng)
            vis_tokens, pooled = agent.encode_observation(obs[None], hist)
            logits, view_scores, recs = agent.cross_modal_step(
                [context], [vis_tokens], [nav], record_attention=record_attention)
            logits = nc.reshape(logits, (len(nav) + 1,))
            action = int(np.argmax(logits.values))
            logits_list.append(logits)
            actions.append(action)
            spaces.append(nav)
            if record_attention:
                attn.extend(recs)
            if action == len(nav):
                break
            node = nav[action][1]
            visited.append(node)
            hist = agent.advance_history(hist, pooled)
        else:
            truncated = True
        grounding_view = int(np.argmax(view_scores.values[-1, :, 0]))
    else:
        raise ContractError(f"unknown rollout mode {mode!r}")

    aux_pairs = []
    if aux and context.imag is not None and cfg.imag_source == "imagination":
        for row, sub in _kept_pairs(imaginations, context.live_indices, kept_subs):
            h_i = nc.reshape(nc.take_rows(context.imag, [row]), (cfg.d,))
            aux_pairs.append((h_i, agent.mean_nounphrase_embedding(sub, context.text)))

    return Trajectory(episode=episode, token_ids=tuple(token_ids), tokens=tuple(tokens),
                      visited=visited, actions=actions, action_spaces=spaces,
                      logits=logits_list, teacher_actions=teacher_actions,
                      attention=attn, grounding_view=grounding_view,
                      aux_pairs=aux_pairs, imaginations=list(imaginations),
                      truncated=truncated, context=context if mode == "teacher" else None,
                      visual=visual)


def decide(agent, trajectories):
    """Decide the steps of teacher-mode trajectories in one padded pass.

    Fills each trajectory's per-step logits, grounding view and, if it was
    rolled out with record_attention, its per-step attention records. Returns
    the (ΣT, A) logits of all steps in trajectory order, padded with -inf.
    """
    logits, view_scores, records = agent.cross_modal_step(
        [t.context for t in trajectories], [t.visual for t in trajectories],
        [nav for t in trajectories for nav in t.action_spaces],
        record_attention=any(t.attention is not None for t in trajectories))
    first = 0
    for traj in trajectories:
        steps = len(traj.action_spaces)
        traj.logits = StepLogits(logits, first, [len(nav) + 1 for nav in traj.action_spaces])
        traj.grounding_view = int(np.argmax(view_scores.values[first + steps - 1, :, 0]))
        if traj.attention is not None:
            traj.attention = records[first:first + steps]
        first += steps
    return logits


def attention_probe(trajectory, layer, head, imag_index, k=3):
    """Top-k text tokens and views attended by an imagination query, at the
    first step where the imagination's referent is visible in the panorama."""
    if trajectory.attention is None:
        raise ContractError("trajectory has no attention records")
    if imag_index >= len(trajectory.imaginations):
        raise IndexError(f"imagination index {imag_index} out of range")
    target = trajectory.imaginations[imag_index].true_class
    world = trajectory.episode.world
    step = None
    for t, node in enumerate(trajectory.visited):
        if any(cid == target for cid, _ in world.placements.get(node, ())):
            step = t
            break
    if step is None or step >= len(trajectory.attention):
        raise ContractError(f"referent class {target} never visible along the trajectory")

    recs = [r for r in trajectory.attention[step] if r.stream == "context" and r.layer == layer]
    if not recs:
        raise IndexError(f"no context attention at layer {layer}")
    rec = recs[0]
    if head >= rec.weights.shape[0]:
        raise IndexError(f"head {head} out of range")
    query_positions = [i for i, kind in enumerate(rec.query_kinds) if kind == "imagination"]
    if imag_index >= len(query_positions):
        raise IndexError("imagination token was masked out of the context")
    row = rec.weights[head, query_positions[imag_index]]

    def topk(indices, labels):
        weightsv = row[indices]
        order = np.argsort(-weightsv, kind="stable")[:k]
        return [(labels[i], float(weightsv[i])) for i in order]

    text_keys = [i for i, kind in enumerate(rec.key_kinds) if kind == "text"]
    vis_keys = [i for i, kind in enumerate(rec.key_kinds) if kind == "visual"]
    top_tokens = topk(text_keys, [trajectory.tokens[j] for j in range(len(text_keys))])
    # visual keys: history token first, then the K views
    view_labels = ["history"] + [f"view{j}" for j in range(world.k_views)]
    top_views = topk(vis_keys, view_labels[:len(vis_keys)])
    return top_tokens, top_views
