import contextlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from imnav import agent as ag
from imnav import dataset as ds
from imnav import evaluation as ev
from imnav import harness
from imnav import imagination as im
from imnav import instructions as ins
from imnav import numcore as nc
from imnav import training as tr
from imnav import world as wd
from imnav.errors import (ConfigurationError, ContractError, FormatError, ShapeError,
                          VocabularyError)
from fdcheck import check_gradients

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "imnav" / "data"


@pytest.fixture(scope="module")
def setup():
    library = wd.load_library(DATA / "landmarks.txt", d_v=16)
    templates = ins.load_templates(DATA / "templates.txt")
    lexicon = ins.load_lexicon(DATA / "lexicon_nouns.txt", DATA / "lexicon_blacklist.txt", library)
    vocab = ins.build_vocab(templates, library)
    world = wd.generate_world(wd.WorldConfig(library=library), seed=1)
    episode = wd.sample_episode(world)
    record = ins.build_record(ins.generate_instruction(episode, templates, seed=2),
                              episode.route_landmarks, lexicon)
    imags = im.imagine_dataset([record], library, im.ImaginationConfig(sigma_gen=0.0, fidelity=1.0), seed=0)[0]
    config = ag.AgentConfig(vocab_size=len(vocab))
    params = ag.init_params(config, seed=0)
    agent = ag.Agent(config, params)
    word_to_id = {w: i for i, w in enumerate(vocab)}
    token_ids = [word_to_id[t] for t in record.tokens]
    return dict(library=library, vocab=vocab, world=world, episode=episode,
                record=record, imags=imags, agent=agent, token_ids=token_ids)


def run_rollout(s, imaginations, mode="teacher", seed=0, agent=None, record=None):
    """One rollout of the setup episode; a teacher one is decided on its own,
    and `record`, a list, receives its context-stream attention weights."""
    agent = agent or s["agent"]
    traj = ag.rollout(agent, s["episode"], s["token_ids"],
                      s["record"].tokens, imaginations, mode,
                      obs_rng=np.random.default_rng(seed), kept_subs=s["record"].kept)
    if mode == "teacher":
        ag.decide(agent, [traj], record=record)
    return traj


def step_rows(logits, trajectories):
    """Per trajectory, the (A_t,) logit values of each step, cut from the
    padded (ΣT, A) logits `decide` returned for those trajectories."""
    out, first = [], 0
    for traj in trajectories:
        out.append([logits.values[first + t, :len(nav) + 1]
                    for t, nav in enumerate(traj.action_spaces)])
        first += len(traj.action_spaces)
    assert first == logits.shape[0]
    return out


def _cast_params(params, dtype):
    from imnav import numcore as nc
    store = nc.ParamStore()
    for name, t in params.items():
        store.add(name, nc.Tensor(t.values.astype(dtype)), params.group_of(name))
    return store


class TestConfig:
    def test_divisibility(self):
        with pytest.raises(ConfigurationError):
            ag.AgentConfig(vocab_size=10, d=10, heads=4)

    def test_mlp_hidden_default_ratio(self):
        params = ag.init_params(ag.AgentConfig(vocab_size=10, d=768), seed=0)
        assert params["t_ff1"].shape == (768, 512)

    def test_roundtrip_text(self):
        cfg = ag.AgentConfig(vocab_size=55, d=32, heads=2, imag_source="text_mean")
        assert ag.AgentConfig.from_text(cfg.to_text()) == cfg

    @pytest.mark.parametrize("line, named", [
        ("colour=blue", "colour"),             # unknown key
        ("d 32", "d 32"),                      # not key=value
        ("d=thirty", "d"),                     # value of the wrong type
        ("d=30", "heads"),                     # a value the config rejects
        ("fusion=late", "fusion"),             # a removed variant
        ("imag_order_encoding=True", "imag_order_encoding"),
        ("heads=0", "heads"),                  # was a ZeroDivisionError
    ])
    def test_bad_text_raises_format_error_naming_it(self, line, named):
        text = ag.AgentConfig(vocab_size=55).to_text() + "\n" + line
        with pytest.raises(FormatError, match=named):
            ag.AgentConfig.from_text(text)

    def test_missing_vocab_size_raises_format_error(self):
        text = "\n".join(l for l in ag.AgentConfig(vocab_size=55).to_text().splitlines()
                         if not l.startswith("vocab_size="))
        with pytest.raises(FormatError, match="vocab_size"):
            ag.AgentConfig.from_text(text)

    def test_removed_variant_keys_load_only_with_the_remaining_value(self):
        # and the settings that are now constants, as older checkpoints store them
        cfg = ag.AgentConfig(vocab_size=55)
        old = cfg.to_text() + ("\nfusion=early\nimagination_encoder=mlp\nconcat_target=text"
                               "\nimag_order_encoding=False\nmlp_hidden=43\ndropout_rate=0.15"
                               "\ntext_dropout=0.3\nmax_steps=15")
        assert ag.AgentConfig.from_text(old) == cfg
        for key, value in (("fusion", "late"), ("imagination_encoder", "transformer"),
                           ("concat_target", "visual"), ("dropout_rate", "0.2"),
                           ("text_dropout", "0.5"), ("max_steps", "10")):
            with pytest.raises(FormatError, match=key):
                ag.AgentConfig.from_text(f"{cfg.to_text()}\n{key}={value}")

    @pytest.mark.parametrize("name", ["base.ckpt", "imagine.ckpt"])
    def test_checkpoints_with_removed_keys_load(self, name):
        # both files store fusion, imagination_encoder, concat_target and
        # imag_order_encoding, and mlp_hidden, dropout_rate, text_dropout and
        # max_steps, at the values of the remaining agent
        ckpt = tr.load_checkpoint(ROOT / "perfbench" / "data" / name)
        agent = tr.agent_from_checkpoint(ckpt)
        assert set(agent.params.names()) == set(ckpt.values)
        assert ckpt.agent_config == ag.AgentConfig(vocab_size=86, d_v=24)


class TestEncodeText:
    def test_empty_rejected(self, setup):
        with pytest.raises(ContractError):
            setup["agent"].encode_text([[]])

    def test_unknown_token(self, setup):
        with pytest.raises(VocabularyError):
            setup["agent"].encode_text([[10 ** 6]])

    def test_eval_deterministic(self, setup):
        a = setup["agent"].encode_text([setup["token_ids"]])
        b = setup["agent"].encode_text([setup["token_ids"]])
        assert a.values.tobytes() == b.values.tobytes()

    def test_position_encoding_active(self, setup):
        ids = setup["token_ids"]
        permuted = list(reversed(ids))
        a = setup["agent"].encode_text([ids]).values[0]
        b = setup["agent"].encode_text([permuted]).values[0]
        # compare the embedding of the first token of `a` against the same
        # word's embedding at its permuted position
        assert not np.allclose(a[0], b[-1], atol=1e-6)


class TestEncodeImaginations:
    def test_empty_gives_none(self, setup):
        assert setup["agent"].encode_imaginations(None) is None

    def test_zero_mlp_weights_give_zero_tokens(self, setup):
        cfg = setup["agent"].config
        params = ag.init_params(cfg, seed=3)
        for name in ("im_m3",):
            params[name].values[:] = 0.0
        agent = ag.Agent(cfg, params)
        feats = np.stack([i.feature for i in setup["imags"]])
        h = agent.encode_imaginations(feats)
        assert np.abs(h.values).max() == 0.0

    def test_full_scale_layer_shapes(self):
        cfg = ag.AgentConfig(vocab_size=10, d=768, heads=8, d_v=32)
        params = ag.init_params(cfg, seed=0)
        assert params["im_m1"].shape == (768, 512)
        assert params["im_m2"].shape == (512, 512)
        assert params["im_m3"].shape == (512, 768)

    def test_dropout_only_at_train(self, setup):
        feats = np.stack([i.feature for i in setup["imags"]])
        cfg = setup["agent"].config
        a = setup["agent"].encode_imaginations(feats)
        b = setup["agent"].encode_imaginations(
            feats, keep=nc.dropout_mask((len(feats), cfg.d), ag.DROPOUT_RATE, None, train=False))
        assert a.values.tobytes() == b.values.tobytes()
        keep = nc.dropout_mask((len(feats), cfg.d), ag.DROPOUT_RATE, np.random.default_rng(0))
        c = setup["agent"].encode_imaginations(feats, keep=keep)
        assert a.values.tobytes() != c.values.tobytes()


class TestNounPhraseMean:
    def test_single_token_mean_is_that_embedding(self, setup):
        text = setup["agent"].encode_text([setup["token_ids"]])
        first = setup["record"].kept[0].noun_token_indices[0]
        got = ag.noun_phrase_means(text, [(0, (first,))])
        assert np.allclose(got.values[0], text.values[0, first], atol=1e-7)

    def test_mean_matches_oracle(self, setup):
        ids = setup["token_ids"]
        # a longer second instruction pads the first
        text = setup["agent"].encode_text([ids, ids + ids[:3]])
        sub = setup["record"].kept[0]
        got = ag.noun_phrase_means(text, [(1, sub.noun_token_indices),
                                          (0, sub.noun_token_indices)]).values
        for row, b in zip(got, (1, 0)):
            want = text.values[b, list(sub.noun_token_indices)].mean(axis=0)
            assert np.abs(row - want).max() < 1e-6

    def test_no_indices_rejected(self, setup):
        text = setup["agent"].encode_text([setup["token_ids"]])
        sub = ins.SubInstruction(index=0, span=(0, 2), tokens=("go", "straight"))
        with pytest.raises(ContractError):
            ag.noun_phrase_means(text, [(0, sub.noun_token_indices)])


class TestEncodeObservation:
    def test_initial_history_token(self, setup):
        obs = wd.observation_at(setup["world"], [0], np.random.default_rng(0))
        tokens, _ = setup["agent"].encode_observation(obs, setup["agent"].params["hist_init"])
        assert np.array_equal(tokens.values[0, 0], setup["agent"].params["hist_init"].values[0])

    def test_pure_function(self, setup):
        obs = wd.observation_at(setup["world"], [0], np.random.default_rng(1))
        h0 = setup["agent"].params["hist_init"]
        a, pa = setup["agent"].encode_observation(obs, h0)
        b, pb = setup["agent"].encode_observation(obs, h0)
        ha, hb = (setup["agent"].advance_history(h0, p) for p in (pa, pb))
        assert a.values.tobytes() == b.values.tobytes()
        assert ha.values.tobytes() == hb.values.tobytes()

    def test_history_evolves_with_observation(self, setup):
        rng = np.random.default_rng(2)
        h0 = setup["agent"].params["hist_init"]
        obs1 = wd.observation_at(setup["world"], [0], rng)
        obs2 = wd.observation_at(setup["world"], [2], rng)
        _, pooled = setup["agent"].encode_observation(obs1, h0)
        h1 = setup["agent"].advance_history(h0, pooled)
        tokens_a, _ = setup["agent"].encode_observation(obs2, h0)
        tokens_b, _ = setup["agent"].encode_observation(obs2, h1)
        assert h1.values.tobytes() != h0.values.tobytes()
        assert tokens_a.values.tobytes() != tokens_b.values.tobytes()


class TestPermutationInvariance:
    def test_set_semantics_without_order_encoding(self, setup):
        # float64 keeps reduction-reordering noise below the 1e-6 bound;
        # the float32 path gets a scaled sanity bound
        agent64 = ag.Agent(setup["agent"].config, _cast_params(setup["agent"].params, np.float64))
        fwd = run_rollout(setup, setup["imags"], mode="argmax", agent=agent64)
        rev = run_rollout(setup, list(reversed(setup["imags"])), mode="argmax", agent=agent64)
        assert fwd.visited == rev.visited
        for a, b in zip(fwd.logits, rev.logits):
            assert np.abs(a - b).max() < 1e-6
        f32f = run_rollout(setup, setup["imags"], mode="argmax")
        f32r = run_rollout(setup, list(reversed(setup["imags"])), mode="argmax")
        for a, b in zip(f32f.logits, f32r.logits):
            assert np.abs(a - b).max() < 1e-4


class TestCrossModal:
    def test_block_records_two_tape_nodes(self, setup):
        """A residual attention and feed-forward block is the attention node
        and the ffn node, with no separate residual adds."""
        agent = setup["agent"]
        x = nc.Tensor(np.random.default_rng(3).normal(size=(2, 5, agent.config.d))
                      .astype(np.float32), requires_grad=True)
        out = agent._block(x, x, "c0_")
        nodes, stack = {}, [out]
        while stack:
            node = stack.pop()
            if node._backward is not None and id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        assert len(nodes) == 2

    def test_attention_rows_sum_to_one(self, setup):
        weights = []
        run_rollout(setup, setup["imags"], mode="teacher", record=weights)
        assert weights
        for layer in weights:
            sums = layer.sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-5

    def test_grad_reaches_imagination_params(self, setup):
        agent = setup["agent"]
        traj = ag.rollout(agent, setup["episode"], setup["token_ids"],
                          setup["record"].tokens, setup["imags"], "teacher",
                          obs_rng=np.random.default_rng(0), kept_subs=setup["record"].kept,
                          train=True)
        logits, _, _ = ag.decide(agent, [traj])
        loss = tr.imitation_loss(logits, [traj.actions])
        agent.params.zero_grads()
        nc.backward(loss)
        for name in ("t_im", "im_m1", "vis_proj"):
            grad = agent.params[name].grad
            assert grad is not None and float(np.abs(grad).max()) > 0.0

    def test_empty_navigable_gives_stop_only(self, setup):
        agent = setup["agent"]
        context = ag.build_context(agent, [ag.context_inputs(agent, setup["token_ids"], [], [])])
        obs = wd.observation_at(setup["world"], [0], np.random.default_rng(0))
        vis, _ = agent.encode_observation(obs, agent.params["hist_init"])
        logits = agent.cross_modal_step(context, vis, [1], [[]])
        assert logits.shape == (1, 1)
        # the greedy step's array path
        assert agent.cross_modal_step(context, vis.values, [1], [[]]).shape == (1, 1)


class TestVariants:
    def make(self, setup, **overrides):
        cfg = ag.AgentConfig(vocab_size=setup["agent"].config.vocab_size, **overrides)
        return ag.Agent(cfg, ag.init_params(cfg, seed=6))

    def test_text_mean_source_runs_and_masks(self, setup):
        # each imagination of a kept sub-instruction becomes a noun-phrase
        # mean token; an episode handed none (null) gets no such token
        agent = self.make(setup, imag_source="text_mean")
        kept = setup["record"].kept
        with_tokens, null = (ag.context_inputs(agent, setup["token_ids"], imags, kept)
                             for imags in (setup["imags"], []))
        assert with_tokens.features is None and len(with_tokens.nouns) == len(setup["imags"])
        assert ag.build_context(agent, [with_tokens]).imag.shape[0] == len(setup["imags"])
        assert null.nouns == () and ag.build_context(agent, [null]).imag is None
        assert len(run_rollout(setup, setup["imags"], mode="argmax", agent=agent).logits) >= 1


class TestRollout:
    def test_teacher_mode_visits_teacher_path(self, setup):
        traj = run_rollout(setup, setup["imags"], mode="teacher")
        assert traj.visited == list(setup["episode"].teacher_path)
        assert len(traj.actions) == len(setup["episode"].teacher_path)

    def test_deterministic(self, setup):
        a = run_rollout(setup, setup["imags"], mode="argmax", seed=5)
        b = run_rollout(setup, setup["imags"], mode="argmax", seed=5)
        assert a.visited == b.visited and a.actions == b.actions

    def test_teacher_rollout_draw_order(self, setup):
        """Word dropout, then imagination dropout, then each step's observation."""
        agent, world, cfg = setup["agent"], setup["world"], setup["agent"].config
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        traj = ag.rollout(agent, setup["episode"], setup["token_ids"],
                          setup["record"].tokens, setup["imags"], "teacher",
                          obs_rng=rng, kept_subs=setup["record"].kept, train=True)

        def keep(shape, rate):
            return (ref.random(shape) < 1.0 - rate).astype(np.float32) / np.float32(1.0 - rate)

        assert np.array_equal(traj.inputs.text_keep,
                              keep((len(setup["token_ids"]), 1), ag.TEXT_DROPOUT))
        assert np.array_equal(traj.inputs.imag_keep,
                              keep((len(setup["imags"]), cfg.d), ag.DROPOUT_RATE))
        assert np.array_equal(traj.observations, np.concatenate(
            [wd.observation_at(world, [node], ref) for node in setup["episode"].teacher_path]))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_truncation_sets_flag(self, setup, monkeypatch):
        monkeypatch.setattr(ag, "MAX_STEPS", 1)
        traj = ag.rollout(setup["agent"], setup["episode"], setup["token_ids"],
                          setup["record"].tokens, [], "argmax",
                          obs_rng=np.random.default_rng(0))
        assert traj.truncated or traj.actions[-1] == len(traj.action_spaces[-1])


class TestBatchedTeacher:
    """A teacher rollout runs all steps in one pass; it must equal deciding the
    same teacher path one step at a time, and draw the same random numbers."""

    @staticmethod
    def stepwise(agent, s, rng):
        context = ag.build_context(agent, [ag.context_inputs(agent, s["token_ids"], s["imags"],
                                                             s["record"].kept, train=True,
                                                             rng=rng)])
        world, hist, logits = s["world"], agent.params["hist_init"], []
        for node in s["episode"].teacher_path:
            obs = wd.observation_at(world, [node], rng)
            nav = wd.navigable(world, node)
            vis, pooled = agent.encode_observation(obs, hist)
            step_logits = agent.cross_modal_step(context, vis, [1], [nav])
            logits.append(nc.reshape(step_logits, (len(nav) + 1,)))
            hist = agent.advance_history(hist, pooled)
        return logits

    @staticmethod
    def loss(logits, actions):
        return nc.mean(nc.concat([nc.reshape(nc.cross_entropy(l, a), (1,))
                                  for l, a in zip(logits, actions)], axis=0))

    @pytest.mark.parametrize("overrides", [{}, {"imag_source": "text_mean"}])
    def test_matches_stepwise_decisions(self, setup, overrides):
        cfg = ag.AgentConfig(vocab_size=setup["agent"].config.vocab_size, **overrides)
        agent = ag.Agent(cfg, ag.init_params(cfg, seed=8))
        batched_rng, stepwise_rng = np.random.default_rng(3), np.random.default_rng(3)
        traj = ag.rollout(agent, setup["episode"], setup["token_ids"],
                          setup["record"].tokens, setup["imags"], "teacher",
                          obs_rng=batched_rng, kept_subs=setup["record"].kept,
                          train=True)
        logits, _, _ = ag.decide(agent, [traj])
        agent.params.zero_grads()
        nc.backward(tr.imitation_loss(logits, [traj.actions]))
        batched_grads = {name: t.grad.copy() for name, t in agent.params.items()
                         if t.grad is not None}

        reference = self.stepwise(agent, setup, stepwise_rng)
        assert batched_rng.bit_generator.state == stepwise_rng.bit_generator.state
        (steps,) = step_rows(logits, [traj])
        assert len(steps) == len(reference) == len(setup["episode"].teacher_path)
        for a, b in zip(steps, reference):
            assert a.shape == b.shape
            assert np.abs(a - b.values).max() < 1e-5
        agent.params.zero_grads()
        nc.backward(self.loss(reference, traj.actions))
        for name, grad in batched_grads.items():
            want = agent.params[name].grad
            assert np.abs(grad - want).max() < 1e-5 * max(1.0, float(np.abs(want).max())), name


@pytest.fixture(scope="module")
def episodes(setup):
    """Four teacher episodes with different path lengths and instruction
    lengths, handed no imaginations (as under the null policy and as in
    base training), all their imaginations, or only the first."""
    library, vocab = setup["library"], setup["vocab"]
    templates = ins.load_templates(DATA / "templates.txt")
    lexicon = ins.load_lexicon(DATA / "lexicon_nouns.txt", DATA / "lexicon_blacklist.txt", library)
    word_to_id = {w: i for i, w in enumerate(vocab)}
    out = []
    for seed, forks, n_imags in ((1, 2, 0), (2, 3, 0), (3, 2, None), (4, 3, 1)):
        world = wd.generate_world(wd.WorldConfig(library=library, n_forks=forks),
                                  seed=seed)
        episode = wd.sample_episode(world)
        record = ins.build_record(ins.generate_instruction(episode, templates, seed=seed),
                                  episode.route_landmarks, lexicon)
        imags = im.imagine_dataset([record], library, im.ImaginationConfig(sigma_gen=0.0),
                                   seed=seed)[0]
        out.append(dict(episode=episode, tokens=record.tokens, kept=record.kept,
                        token_ids=[word_to_id[t] for t in record.tokens],
                        imags=imags[:n_imags]))
    assert len({len(e["episode"].teacher_path) for e in out}) > 1
    assert len({len(e["tokens"]) for e in out}) > 1
    return out


def unbatched_observation(agent, obs, hist):
    """One step's (1, K+1, d) visual tokens and (1, d) pooled views as a plain
    unbatched pass of the ops makes them, and the history after the step:
    the reference for a greedy step's observation encoder."""
    p = agent.params
    views = nc.add(nc.matmul(nc.constant(obs), p["vis_proj"]), p["view_embed"])
    pooled = nc.matmul(nc.mean(views, axis=1), p["hist_wp"])
    vis = nc.concat([nc.reshape(hist, (1, 1, agent.config.d)), views], axis=1)
    return vis, pooled, nc.tanh(nc.add(nc.matmul(hist, p["hist_wh"]), pooled))


def unbatched_logits(agent, text, imag, vis, nav):
    """One decision as a plain unbatched pass makes it: the (1, L, d) text and
    (N, d) imagination tokens (or None) joined for the step, nothing padded,
    no mask. The reference for a batch of one."""
    cfg, p = agent.config, agent.params
    ctx = nc.reshape(text, text.shape[1:])
    if imag is not None:
        ctx = nc.concat([ctx, imag], axis=0)
    ctx = nc.reshape(ctx, (1,) + ctx.shape)
    for layer in range(cfg.cross_layers):
        ctx = agent._block(ctx, nc.concat([ctx, vis], axis=1), f"c{layer}_")
        vis = agent._block(vis, ctx, f"v{layer}_")
    k = cfg.k_views
    views = nc.take_rows(vis, list(range(1, k + 1)), axis=1)
    hist = nc.take_rows(vis, [0], axis=1)
    match = nc.scale(nc.matmul(views, nc.transpose(hist, (0, 2, 1))), 1.0 / math.sqrt(cfg.d))
    scores = nc.concat([nc.add(match, nc.matmul(views, p["act_w"])),
                        nc.matmul(hist, p["stop_w"])], axis=1)
    return nc.take_rows(nc.reshape(scores, (k + 1,)), [v for v, _ in nav] + [k])


class TestGreedyDecoding:
    """Greedy `evaluate` joins each episode's context once and reuses it at
    every step; under every imagination policy its actions and per-step
    logits must be, bit for bit, those of a decoder that rebuilds each
    step's context from the public ops."""

    @pytest.fixture(scope="class")
    def items(self, setup):
        library = setup["library"]
        templates = ins.load_templates(DATA / "templates.txt")
        lexicon = ins.load_lexicon(DATA / "lexicon_nouns.txt", DATA / "lexicon_blacklist.txt",
                                   library)
        return ds.standard_splits(library, templates, lexicon, train_n=1, val_seen_n=1,
                                  val_unseen_n=5, data_seed=3)["val_unseen"].items

    @staticmethod
    def stepwise(agent, item, imaginations, rng):
        """The greedy decisions of one episode, each step encoding the text and
        imaginations again and joining them itself."""
        inputs = ag.context_inputs(agent, item.token_ids, imaginations, item.record.kept)
        world, node, hist = item.episode.world, item.episode.start, agent.params["hist_init"]
        actions, logits = [], []
        for _ in range(ag.MAX_STEPS):
            nav = wd.navigable(world, node)
            vis, _, after = unbatched_observation(agent, wd.observation_at(world, [node], rng),
                                                  hist)
            text = agent.encode_text([inputs.token_ids])
            if agent.config.imag_source == "text_mean":
                imag = (ag.noun_phrase_means(text, [(0, pos) for _, pos in inputs.nouns])
                        if inputs.nouns else None)
            else:
                imag = agent.encode_imaginations(inputs.features)
            step = unbatched_logits(agent, text, imag, vis, nav)
            actions.append(int(np.argmax(step.values)))
            logits.append(step.values.tobytes())
            if actions[-1] == len(nav):
                break
            node = nav[actions[-1]][1]
            hist = after
        return actions, logits

    @pytest.mark.parametrize("imag_source", ["imagination", "text_mean"])
    def test_evaluate_equals_stepwise_decoding_bitwise(self, setup, items, imag_source,
                                                       monkeypatch):
        cfg = ag.AgentConfig(vocab_size=len(setup["vocab"]), d=32, heads=2,
                             imag_source=imag_source)
        agent = ag.Agent(cfg, ag.init_params(cfg, seed=4))
        decoded, rollout = [], ag.rollout

        def spy(*args, **kwargs):
            decoded.append(rollout(*args, **kwargs))
            return decoded[-1]

        monkeypatch.setattr(ag, "rollout", spy)
        steps = 0
        for policy in ev.POLICIES:
            decoded.clear()
            ev.evaluate(agent, items, policy, seed=6)
            sets = ev.apply_policy([item.imaginations for item in items], policy, 6)
            assert len(decoded) == len(items)
            with nc.no_grad():
                for i, (item, traj) in enumerate(zip(items, decoded)):
                    rng = np.random.default_rng(np.random.SeedSequence([0xE7A1, 6, i]))
                    actions, logits = self.stepwise(agent, item, sets[i], rng)
                    assert traj.actions == actions, (policy, i)
                    assert [step.tobytes() for step in traj.logits] == logits, (policy, i)
                    steps += len(actions)
        # the episodes carry imaginations and take several steps
        assert all(item.imaginations for item in items) and steps > 2 * len(items) * 4

    def test_greedy_rollout_makes_no_tensor_after_its_context(self, setup, items, monkeypatch):
        """Inside or outside no_grad, an argmax rollout makes Tensors only in
        `build_context`, and records no tape node there: each of its steps,
        however many it takes, computes on arrays."""
        cfg = ag.AgentConfig(vocab_size=len(setup["vocab"]), d=32, heads=2)
        agent, made = ag.Agent(cfg, ag.init_params(cfg, seed=4)), []
        result, init, build = nc._result, nc.Tensor.__init__, ag.build_context

        def spy_result(*args):
            made.append("op")
            out = result(*args)
            assert out._backward is None and not out.requires_grad
            return out

        def spy_init(tensor, *args, **kwargs):
            made.append("tensor")
            init(tensor, *args, **kwargs)

        def spy_build(*args, **kwargs):
            context = build(*args, **kwargs)
            made.append("context")
            return context

        monkeypatch.setattr(nc, "_result", spy_result)
        monkeypatch.setattr(nc.Tensor, "__init__", spy_init)
        monkeypatch.setattr(ag, "build_context", spy_build)
        assert all(p.requires_grad for _, p in agent.params.items())
        steps = set()
        for scope in (nc.no_grad, contextlib.nullcontext):
            with scope():
                for i, item in enumerate(items):
                    made.clear()
                    traj = ag.rollout(agent, item.episode, item.token_ids,
                                      item.record.tokens, item.imaginations,
                                      "argmax", obs_rng=ev.observation_rng(0, i),
                                      kept_subs=item.record.kept)
                    assert "op" in made and made[-1] == "context" and made.count("context") == 1
                    assert all(type(step) is np.ndarray for step in traj.logits)
                    steps.add(len(traj.actions))
        assert len(steps) > 1, steps

    def test_greedy_rollout_ignores_the_callers_no_grad(self, setup, items):
        """An argmax rollout takes the same actions, with the same logit bytes,
        inside and outside no_grad."""
        cfg = ag.AgentConfig(vocab_size=len(setup["vocab"]), d=32, heads=2)
        agent = ag.Agent(cfg, ag.init_params(cfg, seed=4))
        steps = 0
        for i, item in enumerate(items):
            runs = []
            for scope in (nc.no_grad, contextlib.nullcontext):
                with scope():
                    traj = ag.rollout(agent, item.episode, item.token_ids,
                                      item.record.tokens, item.imaginations,
                                      "argmax", obs_rng=ev.observation_rng(0, i),
                                      kept_subs=item.record.kept)
                runs.append((traj.actions, [step.tobytes() for step in traj.logits]))
            assert runs[0] == runs[1], i
            steps += len(runs[0][0])
        assert steps > 2 * len(items)


class TestPaddedBatch:
    """The teacher episodes of a batch are decided in one padded pass; it must
    equal deciding each episode on its own, and draw the same random numbers."""

    # Explicit ids: each case keeps the name it had before the cases between
    # them (late fusion, visual concatenation) were deleted.
    VARIANTS = [pytest.param({}, id="overrides0"),
                pytest.param({"imag_source": "text_mean"}, id="overrides3")]

    @staticmethod
    def make(setup, overrides):
        cfg = ag.AgentConfig(vocab_size=setup["agent"].config.vocab_size, **overrides)
        return ag.Agent(cfg, ag.init_params(cfg, seed=9))

    @staticmethod
    def roll(agent, eps, rng, aux=False):
        return [ag.rollout(agent, e["episode"], e["token_ids"], e["tokens"], e["imags"], "teacher",
                           obs_rng=rng, kept_subs=e["kept"], train=True, aux=aux)
                for e in eps]

    @staticmethod
    def masks_seen(monkeypatch):
        seen, attention = [], nc.attention

        def spy(*args, mask=None, **kwargs):
            seen.append(mask)
            return attention(*args, mask=mask, **kwargs)

        monkeypatch.setattr(nc, "attention", spy)
        return seen

    @pytest.mark.parametrize("overrides", VARIANTS)
    def test_one_pass_equals_per_episode_passes(self, setup, episodes, overrides, monkeypatch):
        agent = self.make(setup, overrides)
        batched_rng, single_rng = np.random.default_rng(5), np.random.default_rng(5)
        trajs = self.roll(agent, episodes, batched_rng)
        masks = self.masks_seen(monkeypatch)
        padded, _, _ = ag.decide(agent, trajs)
        assert any(m is not None for m in masks)           # the padding is exercised
        assert padded.shape[0] == sum(len(t.action_spaces) for t in trajs)
        agent.params.zero_grads()
        nc.backward(tr.imitation_loss(padded, [t.actions for t in trajs]))
        batched = {n: t.grad.copy() for n, t in agent.params.items() if t.grad is not None}

        singles = []
        for e in episodes:
            (traj,) = self.roll(agent, [e], single_rng)
            singles.append((traj, ag.decide(agent, [traj])[0]))
        assert batched_rng.bit_generator.state == single_rng.bit_generator.state
        for tb, (ts, single) in zip(step_rows(padded, trajs), singles):
            (ts_steps,) = step_rows(single, [ts])
            assert len(tb) == len(ts_steps) == len(ts.visited)
            for a, b in zip(tb, ts_steps):
                assert a.shape == b.shape
                assert np.abs(a - b).max() < 1e-5
        agent.params.zero_grads()
        per_episode = [nc.reshape(tr.imitation_loss(logits, [t.actions]), (1,))
                       for t, logits in singles]
        nc.backward(nc.mean(nc.concat(per_episode, axis=0)))
        assert set(batched) == {n for n, t in agent.params.items() if t.grad is not None}
        for name, grad in batched.items():
            want = agent.params[name].grad
            assert np.abs(grad - want).max() < 1e-5 * max(1.0, float(np.abs(want).max())), name

    @pytest.mark.parametrize("overrides", VARIANTS)
    def test_batch_of_one_is_the_unbatched_pass_bitwise(self, setup, episodes, overrides,
                                                        monkeypatch):
        """One step of one episode handed an array history, a greedy step,
        computes on arrays with no attention op, so no mask: its visual
        tokens, pooled views, next history and logits are the unbatched
        pass's byte for byte."""
        agent = self.make(setup, overrides)
        masks = self.masks_seen(monkeypatch)
        hist = agent.params["hist_init"]
        for e in episodes:
            context = ag.build_context(agent, [ag.context_inputs(
                agent, e["token_ids"], e["imags"], e["kept"])])
            node = e["episode"].start
            obs = wd.observation_at(e["episode"].world, [node], np.random.default_rng(0))
            nav = wd.navigable(e["episode"].world, node)
            want_vis, want_pooled, want_next = unbatched_observation(agent, obs, hist)
            want = unbatched_logits(agent, context.text, context.imag, want_vis, nav)
            masks.clear()
            vis, pooled = agent.encode_observation(obs, hist.values)
            logits = agent.cross_modal_step(context, vis, [1], [nav])
            after = agent.advance_history(hist.values, pooled)
            assert masks == []
            for got, ref in ((vis, want_vis), (pooled, want_pooled), (after, want_next),
                             (logits[0], want)):
                assert type(got) is np.ndarray and got.shape == ref.shape
                assert got.tobytes() == ref.values.tobytes()

    def test_array_pass_of_more_than_one_step_raises(self, setup, episodes):
        agent = self.make(setup, {})
        e = episodes[0]
        context = ag.build_context(agent, [ag.context_inputs(agent, e["token_ids"], e["imags"],
                                                             e["kept"])])
        path = list(e["episode"].teacher_path[:2])
        obs = wd.observation_at(e["episode"].world, path, np.random.default_rng(0))
        navs = [wd.navigable(e["episode"].world, node) for node in path]
        hist = agent.params["hist_init"]
        with pytest.raises(ShapeError, match="an array pass takes one step"):
            agent.encode_observation(obs, hist.values)
        vis, _ = agent.encode_observation(obs, hist)
        with pytest.raises(ShapeError, match="an array pass takes one step"):
            agent.cross_modal_step(context, vis.values, [2], navs)

    @pytest.fixture(scope="class")
    def desk_batch(self):
        """Eight train episodes of the shipped desk spec, each with its
        imaginations, and the spec's agent config."""
        spec = harness.read_experiment_spec(ROOT / "experiments" / "desk.cfg")
        spec = replace(spec, train_worlds=8, val_seen_worlds=1, val_unseen_worlds=1)
        split = harness.build_spec_splits(spec)["train"]
        return split.items, harness._agent_config(split, spec)

    @staticmethod
    def repeated_context(attention):
        """`nc.attention` whose per-episode form repeats the queries over the
        steps and joins them to the step's keys: the form's oracle."""
        def op(xq, xkv, *weights, mask=None, counts=None, **kwargs):
            if counts is None:
                return attention(xq, xkv, *weights, mask=mask, **kwargs)
            ctx = nc.repeat(xq, counts)
            if mask is not None:
                mask = np.concatenate([np.repeat(mask, counts, axis=0),
                                       np.ones(xkv.shape[:2], dtype=bool)], axis=1)
            return attention(ctx, nc.concat([ctx, xkv], axis=1), *weights, mask=mask, **kwargs)
        return op

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_desk_batch_equals_repeated_context(self, desk_batch, dtype, monkeypatch):
        """Layer 0 of the context stream projects and scores each episode's
        context once for all its steps: on a padded desk batch the float32
        logits equal, byte for byte, those of repeating the context over the
        steps, and every parameter gradient agrees within rounding. (In
        float64 OpenBLAS scores the repeated context's longer key blocks with
        another kernel, whose sums may differ in the last bit.)"""
        items, cfg = desk_batch
        agent = ag.Agent(cfg, _cast_params(ag.init_params(cfg, seed=3), dtype))
        rng = np.random.default_rng(8)
        trajs = [ag.rollout(agent, it.episode, it.token_ids, it.record.tokens,
                            it.imaginations, "teacher", obs_rng=rng, kept_subs=it.record.kept,
                            train=True) for it in items]
        assert len({len(it.token_ids) for it in items}) > 1 and all(it.imaginations for it in items)
        assert min(len(t.action_spaces) for t in trajs) > 1
        runs, forms, attention = [], [], nc.attention

        def spy(*args, **kwargs):
            forms.append(kwargs.get("counts"))
            return attention(*args, **kwargs)

        for op in (spy, self.repeated_context(attention)):
            monkeypatch.setattr(nc, "attention", op)
            agent.params.zero_grads()
            logits, _, _ = ag.decide(agent, trajs)
            nc.backward(tr.imitation_loss(logits, [t.actions for t in trajs]))
            runs.append((logits.values.tobytes(),
                         {n: t.grad for n, t in agent.params.items() if t.grad is not None}))
        # layer 0's context stream alone takes the per-episode form
        assert [c is not None for c in forms] == [False] + [True] + [False] * (
            2 * cfg.cross_layers - 1)
        (got, got_grads), (want, want_grads) = runs
        tol = 1e-5 if dtype == np.float32 else 1e-12
        if dtype == np.float32:
            assert got == want
        else:
            got, want = np.frombuffer(got, dtype), np.frombuffer(want, dtype)
            real = np.isfinite(want)
            assert np.array_equal(real, np.isfinite(got))
            assert np.abs(got[real] - want[real]).max() <= tol * np.abs(want[real]).max()
        assert set(got_grads) == set(want_grads)
        for name, grad in want_grads.items():
            assert np.abs(got_grads[name] - grad).max() <= tol * np.abs(grad).max(), name

    def test_read_rows_pad_with_distinct_unread_views(self):
        """Each step keeps its history row, then its navigable view rows, then
        pads with views it does not read, no row twice, so the gather's
        backward needs no scatter-add."""
        steps, n, d = 3, 13, 2
        vis = nc.Tensor(np.arange(steps * n * d, dtype=np.float32).reshape(steps, n, d),
                        requires_grad=True)
        rows, slots = ag._read_rows(vis, [[4], [0, 7], [2, 5, 11]])
        positions = rows.values[..., 0] / d - n * np.arange(steps)[:, None]
        assert positions.tolist() == [[0, 5, 1, 2], [0, 1, 8, 2], [0, 3, 6, 12]]
        assert [list(s) for s in slots] == [[0], [0, 1], [0, 1, 2]]
        nc.backward(nc.sum_(rows))
        assert vis.grad.sum() == rows.values.size

    def test_desk_batch_last_visual_layer_computes_the_read_rows(self, desk_batch,
                                                                 monkeypatch):
        """The last visual-stream layer of a teacher-forced batch computes only
        each step's history and navigable view rows, padded with unread views:
        its logits and every parameter gradient equal, within float32
        rounding, those of computing all K + 1 rows."""
        items, cfg = desk_batch
        agent = ag.Agent(cfg, ag.init_params(cfg, seed=5))
        rng = np.random.default_rng(8)
        trajs = [ag.rollout(agent, it.episode, it.token_ids, it.record.tokens,
                            it.imaginations, "teacher", obs_rng=rng, kept_subs=it.record.kept,
                            train=True) for it in items]
        navs = [nav for t in trajs for nav in t.action_spaces]
        assert {len(nav) for nav in navs} == {1, 2, 3}
        queries, runs, attention = [], [], nc.attention

        def spy(xq, *args, **kwargs):
            queries.append(xq.shape)
            return attention(xq, *args, **kwargs)

        monkeypatch.setattr(nc, "attention", spy)
        for read_rows in (ag._read_rows, lambda vis, slots: (vis, slots)):
            monkeypatch.setattr(ag, "_read_rows", read_rows)
            queries.clear()
            agent.params.zero_grads()
            logits, _, _ = ag.decide(agent, trajs)
            nc.backward(tr.imitation_loss(logits, [t.actions for t in trajs]))
            runs.append((queries[-1], logits.values.copy(),
                         {n: t.grad for n, t in agent.params.items() if t.grad is not None}))
        (got_q, got, got_grads), (want_q, want, want_grads) = runs
        assert got_q == (len(navs), 4, cfg.d) and want_q == (len(navs), cfg.k_views + 1, cfg.d)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        real = np.isfinite(want)
        assert np.abs(got[real] - want[real]).max() <= 1e-5
        assert set(got_grads) == set(want_grads)
        for name, grad in want_grads.items():
            assert np.abs(got_grads[name] - grad).max() <= 1e-5 * np.abs(grad).max(), name

    def test_greedy_step_keeps_the_plain_calls(self, setup, episodes, monkeypatch):
        """A greedy step, handed array visual tokens, makes the plain kernel
        calls of an unbatched pass: an attention and a feed-forward kernel
        per stream and layer, with no mask and the context joined to all
        K + 1 visual tokens, and one head kernel; it records no tape node,
        and its logits are the unbatched pass's byte for byte."""
        agent = self.make(setup, {})
        e = episodes[2]
        assert e["imags"]
        context = ag.build_context(agent, [ag.context_inputs(agent, e["token_ids"], e["imags"],
                                                             e["kept"])])
        node = e["episode"].start
        obs = wd.observation_at(e["episode"].world, [node], np.random.default_rng(0))
        vis, _ = agent.encode_observation(obs, agent.params["hist_init"])
        nav = wd.navigable(e["episode"].world, node)
        want = unbatched_logits(agent, context.text, context.imag, vis, nav).values.tobytes()
        kernels = {"attention_forward": [], "ffn_forward": [], "action_logits_forward": [],
                   "_result": []}

        def spy(name):
            kernel = getattr(nc, name)

            def call(*args, **kwargs):
                kernels[name].append((args[0].shape, args[1].shape if name == "attention_forward"
                                      else None, kwargs.get("mask")))
                return kernel(*args, **kwargs)
            return call

        for name in kernels:
            monkeypatch.setattr(nc, name, spy(name))
        logits = agent.cross_modal_step(context, vis.values, [1], [nav])
        layers, k, tc = agent.config.cross_layers, agent.config.k_views, context.tokens.shape[1]
        d = agent.config.d
        assert kernels["attention_forward"] == [((1, tc, d), (1, tc + k + 1, d), None),
                                                ((1, k + 1, d), (1, tc, d), None)] * layers
        assert len(kernels["ffn_forward"]) == 2 * layers
        assert [shape for shape, _, _ in kernels["action_logits_forward"]] == [(1, k + 1, d)]
        assert kernels["_result"] == []
        assert logits.tobytes() == want

    def test_record_of_a_padded_batch_cuts_to_each_episodes_record(self, setup, episodes):
        """`decide(record=)` over two episodes with different context lengths
        records padded (ΣT, heads, Tq, Tk) weights: padded keys weigh exactly
        0, every row sums to 1, and each episode's real queries and keys equal
        what deciding it alone records."""
        agent = self.make(setup, {})
        pair = [episodes[0], episodes[2]]

        def roll(e, seed):
            return ag.rollout(agent, e["episode"], e["token_ids"], e["tokens"], e["imags"],
                              "teacher", obs_rng=np.random.default_rng(seed),
                              kept_subs=e["kept"])

        lengths = [(len(e["token_ids"]), len(e["imags"])) for e in pair]
        assert len({text + imag for text, imag in lengths}) == 2
        width = max(text for text, _ in lengths)
        tq = width + max(imag for _, imag in lengths)
        with nc.no_grad():
            trajs = [roll(e, seed) for seed, e in enumerate(pair)]
            padded = []
            ag.decide(agent, trajs, record=padded)
            assert len(padded) == agent.config.cross_layers
            first = 0
            for seed, (e, traj, (text, imag)) in enumerate(zip(pair, trajs, lengths)):
                single = []
                ag.decide(agent, [roll(e, seed)], record=single)
                steps = len(traj.action_spaces)
                queries = np.r_[np.arange(text), width + np.arange(imag)]
                keys = np.r_[queries, tq + np.arange(agent.config.k_views + 1)]
                pads = np.setdiff1d(np.arange(tq), queries)
                for layer, alone in zip(padded, single):
                    rows = layer[first:first + steps]
                    assert rows.shape[-2:] == (tq, tq + agent.config.k_views + 1)
                    assert np.abs(rows.sum(axis=-1) - 1.0).max() < 1e-5
                    assert np.all(rows[..., pads] == 0.0)
                    cut = rows[:, :, queries][..., keys]
                    assert cut.shape == alone.shape
                    assert np.abs(cut - alone).max() < 1e-6
                first += steps
            assert first == padded[0].shape[0]


class TestBatchedIteration:
    """A training iteration encodes its whole batch in one pass: one text
    encoder over padded instructions, one imagination encoder over every
    live imagination, one observation encoder whose histories step in
    lockstep. Its loss and gradients must equal those of decoding each
    episode alone, and it must draw the same random numbers."""

    VARIANTS = TestPaddedBatch.VARIANTS
    LAM = 0.5

    @classmethod
    def loss(cls, base_terms, h, s):
        return tr.total_loss(base_terms, tr.cosine_alignment_loss(h, s), cls.LAM)

    @pytest.mark.parametrize("overrides", VARIANTS)
    def test_iteration_equals_per_episode_decoding(self, setup, episodes, overrides):
        agent = TestPaddedBatch.make(setup, overrides)
        batched_rng, single_rng = np.random.default_rng(11), np.random.default_rng(11)
        trajs = TestPaddedBatch.roll(agent, episodes, batched_rng, aux=True)
        # unequal instruction lengths, imagination sets and teacher paths
        assert len({len(t.inputs.token_ids) for t in trajs}) == len(trajs)
        counts = [len(e["imags"]) for e in episodes]
        assert sorted(counts)[:2] == [0, 0] and len(set(counts)) == 3
        assert len({len(t.visited) for t in trajs}) == 2
        logits, h, s = ag.decide(agent, trajs)
        batched_loss = self.loss(tr.imitation_loss(logits, [t.actions for t in trajs]),
                                 h, s)
        agent.params.zero_grads()
        nc.backward(batched_loss)
        batched = {n: t.grad.copy() for n, t in agent.params.items() if t.grad is not None}

        singles = []
        for e in episodes:
            (traj,) = TestPaddedBatch.roll(agent, [e], single_rng, aux=True)
            singles.append((traj, *ag.decide(agent, [traj])))
        assert batched_rng.bit_generator.state == single_rng.bit_generator.state
        base = nc.mean(nc.concat([nc.reshape(tr.imitation_loss(lg, [t.actions]), (1,))
                                  for t, lg, _, _ in singles], axis=0))
        hs = [(hb, sb) for _, _, hb, sb in singles if hb is not None]
        assert (h is None) == (not hs) == (agent.config.imag_source == "text_mean")
        if hs:
            h, s = (nc.concat(side, axis=0) for side in zip(*hs))
        single_loss = self.loss(base, h, s)
        assert abs(batched_loss.item() - single_loss.item()) < 1e-6
        agent.params.zero_grads()
        nc.backward(single_loss)
        assert set(batched) == {n for n, t in agent.params.items() if t.grad is not None}
        for name, grad in batched.items():
            want = agent.params[name].grad
            assert np.abs(grad - want).max() < 1e-5 * max(1.0, float(np.abs(want).max())), name


class TestAgentGradcheck:
    def test_policy_gradient_matches_finite_differences(self, setup):
        """End-to-end: loss through text + imagination + cross-modal layers,
        over two steps of one episode."""
        cfg = ag.AgentConfig(vocab_size=12, d=16, heads=2, cross_layers=1, k_views=4, d_v=8)
        params = ag.init_params(cfg, seed=0)
        checked = ["tok_embed", "t_im", "im_m1", "vis_proj", "c0_wq", "v0_wk", "act_w"]
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(2, 8)).astype(np.float32)
        pano = rng.normal(size=(2, 4, 8)).astype(np.float32)

        def build(tensors):
            store = nc.ParamStore()
            for name, _ in params.items():
                group = params.group_of(name)
                if name in checked:
                    store.add(name, tensors[checked.index(name)], group)
                else:
                    store.add(name, nc.Tensor(params[name].values.astype(np.float64)), group)
            a = ag.Agent(cfg, store)
            ctx = ag.EncodedContext(text=a.encode_text([[1, 3, 5]]), text_lengths=(3,),
                                    imag=a.encode_imaginations(feats), imag_counts=(2,))
            vis, _ = a.encode_observation(pano, store["hist_init"])
            logits = a.cross_modal_step(ctx, vis, [2], [[(0, 1), (2, 3)], [(1, 2)]])
            return nc.mean(nc.cross_entropy(logits, [1, 0]))

        arrays = [params[name].values.astype(np.float64) for name in checked]
        check_gradients(build, arrays, tol=1e-4)
