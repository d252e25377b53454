import ctypes
import math
import platform
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from imnav import agent as ag
from imnav import dataset as ds
from imnav import evaluation as ev
from imnav import harness
from imnav import instructions as ins
from imnav import numcore as nc
from imnav import training as tr
from imnav import world as wd
from imnav.errors import ConfigurationError, ContractError, FormatError, NumericGuardError
from fdcheck import check_gradients

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "imnav" / "data"


def vec(x):
    return nc.Tensor(np.asarray(x, dtype=np.float32), requires_grad=True)


def rows(pairs):
    """The (P, d) h and s̄ of P pairs (h_i, s̄_i) of 1D tensors; (None, None)
    for no pairs."""
    if not pairs:
        return None, None
    return tuple(nc.concat([nc.reshape(v, (1, v.shape[0])) for v in side], axis=0)
                 for side in zip(*pairs))


@pytest.fixture(scope="module")
def tiny_split():
    library = wd.load_library(DATA / "landmarks.txt", d_v=16)
    templates = ins.load_templates(DATA / "templates.txt")
    lexicon = ins.load_lexicon(DATA / "lexicon_nouns.txt", DATA / "lexicon_blacklist.txt", library)
    splits = ds.standard_splits(library, templates, lexicon, train_n=6, val_seen_n=3,
                                val_unseen_n=3, data_seed=1)
    return splits


@pytest.fixture(scope="module")
def tiny_agent_config(tiny_split):
    return ag.AgentConfig(vocab_size=len(tiny_split["train"].vocab), d=32, heads=2,
                          cross_layers=1, d_v=16)


@pytest.fixture(scope="module")
def desk_data():
    """A few train worlds of the shipped desk spec, its agent and train configs."""
    spec = harness.read_experiment_spec(ROOT / "experiments" / "desk.cfg")
    spec = replace(spec, train_worlds=3, val_seen_worlds=1, val_unseen_worlds=1)
    split = harness.build_spec_splits(spec)["train"]
    return split, harness._agent_config(split, spec), spec.train


def infonce_oracle(hs, ss, owners, tau):
    """Mean InfoNCE loss written out pair by pair in float64."""
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    total = 0.0
    for i in range(len(hs)):
        pos = math.exp(cos(hs[i], ss[i]) / tau)
        denom = pos + sum(math.exp(cos(hs[i], ss[j]) / tau)
                          for j in range(len(hs)) if owners[j] != owners[i])
        total += -math.log(pos / denom)
    return total / len(hs)


class TestImitationLoss:
    def test_saturated_logits(self):
        logits = vec([[1000.0, 0.0], [0.0, 1000.0]])
        loss = tr.imitation_loss(logits, [[0, 1]])
        assert loss.item() < 1e-6

    def test_uniform_logits(self):
        logits = vec([[0.0] * 4 for _ in range(3)])
        loss = tr.imitation_loss(logits, [[0, 1, 2]])
        assert abs(loss.item() - math.log(4)) < 1e-6

    def test_matches_per_step_oracle(self):
        rng = np.random.default_rng(0)
        raw = [rng.normal(size=5).astype(np.float32) for _ in range(3)]
        targets = [1, 4, 0]
        loss = tr.imitation_loss(vec(np.stack(raw)), [targets])
        want = np.mean([
            -np.log(np.exp(r.astype(np.float64) - r.max())[t]
                    / np.exp(r.astype(np.float64) - r.max()).sum())
            for r, t in zip(raw, targets)])
        assert abs(loss.item() - want) < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            tr.imitation_loss(vec([[0.0, 1.0]]), [[0, 1]])


class TestCosineAlignment:
    def test_identical_pairs_zero(self):
        a = vec([1.0, 2.0, 3.0])
        loss = tr.cosine_alignment_loss(*rows([(a, vec([1.0, 2.0, 3.0]))]))
        assert abs(loss.item()) < 1e-6

    def test_antipodal_pairs_two(self):
        loss = tr.cosine_alignment_loss(*rows([(vec([1.0, 0.0]), vec([-1.0, 0.0]))]))
        assert abs(loss.item() - 2.0) < 1e-6

    def test_orthogonal_pair_one(self):
        loss = tr.cosine_alignment_loss(*rows([(vec([1.0, 0.0]), vec([0.0, 1.0]))]))
        assert abs(loss.item() - 1.0) < 1e-6

    def test_mixed_mean(self):
        pairs = [(vec([1.0, 0.0]), vec([1.0, 0.0])), (vec([1.0, 0.0]), vec([0.0, 1.0]))]
        loss = tr.cosine_alignment_loss(*rows(pairs))
        assert abs(loss.item() - 0.5) < 1e-6

    def test_empty_returns_zero(self):
        assert tr.cosine_alignment_loss(*rows([])).item() == 0.0

    def test_zero_norm_guarded(self):
        with pytest.raises(NumericGuardError):
            tr.cosine_alignment_loss(*rows([(vec([1.0, 0.0]), vec([1.0, 1.0])),
                                            (vec([0.0, 0.0]), vec([1.0, 0.0]))]))

    def test_range_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pairs = [(vec(rng.normal(size=6) + 0.01), vec(rng.normal(size=6) + 0.01))
                     for _ in range(4)]
            loss = tr.cosine_alignment_loss(*rows(pairs))
            assert -1e-6 <= loss.item() <= 2.0 + 1e-6

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1)

        def build(ts):
            pairs = [(nc.reshape(ts[0], (6,)), nc.reshape(ts[1], (6,)))]
            return tr.cosine_alignment_loss(*rows(pairs))

        for _ in range(5):
            a = rng.normal(size=(2, 3)) + 0.2
            b = rng.normal(size=(2, 3)) + 0.2
            check_gradients(build, [a, b], tol=1e-4)


class TestInfoNCE:
    def test_no_negatives_zero(self):
        pair = (vec([1.0, 0.5]), vec([0.5, 1.0]))
        loss = tr.infonce_loss(*rows([pair]), [0], tau=0.1)
        assert loss.item() == 0.0

    def test_symmetric_two_way_ln2(self):
        # one negative with identical similarity to the positive
        h = vec([1.0, 0.0])
        pairs = [(h, vec([1.0, 0.0])), (vec([0.0, 1.0]), vec([1.0, 0.0]))]
        loss = tr.infonce_loss(*rows(pairs), [0, 1], tau=0.1)
        # pair 0: positive sim 1, negative (owner 1) sim 1 -> ln 2
        # pair 1: positive sim 0 vs negative sim 0 -> ln 2
        assert abs(loss.item() - math.log(2)) < 1e-6

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        hs = [rng.normal(size=4) + 0.1 for _ in range(4)]
        ss = [rng.normal(size=4) + 0.1 for _ in range(4)]
        owners = [0, 0, 1, 2]
        tau = 0.2
        pairs = [(vec(h), vec(s)) for h, s in zip(hs, ss)]
        loss = tr.infonce_loss(*rows(pairs), owners, tau)

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        want = 0.0
        for i in range(4):
            pos = math.exp(cos(hs[i], ss[i]) / tau)
            denom = pos + sum(math.exp(cos(hs[i], ss[j]) / tau)
                              for j in range(4) if owners[j] != owners[i])
            want += -math.log(pos / denom)
        want /= 4
        assert abs(loss.item() - want) < 1e-6

    def test_item_drawn_twice_is_not_its_own_negative(self):
        # an item drawn twice in one batch gives its pairs twice, with one owner
        rng = np.random.default_rng(6)
        hs = [rng.normal(size=4) + 0.1 for _ in range(3)]
        ss = [rng.normal(size=4) + 0.1 for _ in range(3)]
        drawn, owners = [0, 1, 0, 1, 2], [4, 4, 4, 4, 9]
        pairs = [(vec(hs[i]), vec(ss[i])) for i in drawn]
        loss = tr.infonce_loss(*rows(pairs), owners, tau=0.2)
        want = infonce_oracle([hs[i] for i in drawn], [ss[i] for i in drawn], owners, 0.2)
        assert abs(loss.item() - want) < 1e-6
        same = tr.infonce_loss(*rows(pairs[:4]), owners[:4], tau=0.2)
        assert same.item() == 0.0

    def test_zero_norm_guarded(self):
        with pytest.raises(NumericGuardError):
            tr.infonce_loss(*rows([(vec([1.0, 0.0]), vec([0.0, 0.0])),
                                   (vec([1.0, 1.0]), vec([1.0, 0.0]))]),
                            [0, 1], tau=0.1)

    def test_bad_temperature(self):
        with pytest.raises(ConfigurationError):
            tr.infonce_loss(*rows([(vec([1.0]), vec([1.0]))]), [0], tau=0.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        pairs = [(vec(rng.normal(size=5) + 0.2), vec(rng.normal(size=5) + 0.2)) for _ in range(5)]
        loss = tr.infonce_loss(*rows(pairs), list(range(5)), tau=0.1)
        assert loss.item() >= 0.0

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)

        def build(ts):
            pairs = [(nc.reshape(ts[0], (6,)), nc.reshape(ts[1], (6,))),
                     (nc.reshape(nc.scale(ts[0], 0.5), (6,)), nc.reshape(nc.scale(ts[1], 2.0), (6,)))]
            return tr.infonce_loss(*rows(pairs), [0, 1], tau=0.3)

        for _ in range(5):
            a = rng.normal(size=(2, 3)) + 0.2
            b = rng.normal(size=(2, 3)) + 0.2
            check_gradients(build, [a, b], tol=1e-4)


class TestTotalLoss:
    def test_weighted_sum(self):
        got = tr.total_loss(vec(1.0), vec(0.5), 0.5)
        assert abs(got.item() - 1.25) < 1e-7

    def test_lambda_zero_identity(self):
        base = vec(0.7)
        got = tr.total_loss(base, vec(123.0), 0.0)
        assert got.item() == base.item()

    def test_exact_composition(self):
        lb, la = vec(0.31415), vec(0.2718)
        got = tr.total_loss(lb, la, 0.5)
        assert float(got.values) == float(lb.values) + np.float32(0.5 * la.values)


class TestSchedule:
    def cfg(self, iterations=100000):
        return tr.TrainConfig(iterations=iterations, lr_multiplier=1.0)

    def test_stage1(self):
        lrs = tr.three_stage_schedule(10000, self.cfg())
        assert lrs["base"] == 0.0
        assert lrs["imagination_encoder"] == 1e-4
        assert lrs["type_embedding"] == 1e-4

    def test_stage2(self):
        lrs = tr.three_stage_schedule(30000, self.cfg())
        assert lrs["imagination_encoder"] == 5e-5
        assert lrs["base"] == 1e-6

    def test_stage3(self):
        lrs = tr.three_stage_schedule(80000, self.cfg())
        assert all(lr == 1e-6 for lr in lrs.values())

    def test_multiplier_scales(self):
        cfg = tr.TrainConfig(iterations=1000, lr_multiplier=10.0)
        lrs = tr.three_stage_schedule(0, cfg)
        assert lrs["imagination_encoder"] == 1e-3

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            tr.three_stage_schedule(100000, self.cfg())

    def test_fractions_must_sum(self):
        with pytest.raises(ConfigurationError):
            tr.TrainConfig(stage_fractions=(0.5, 0.2, 0.2))

    def test_fractions_must_be_three_non_negative(self):
        for fractions in ((0.5, 0.5), (0.25, 0.25, 0.25, 0.25), (0.7, 0.5, -0.2)):
            with pytest.raises(ConfigurationError):
                tr.TrainConfig(stage_fractions=fractions)

    @pytest.mark.parametrize("field, value", [
        ("iterations", -1), ("batch_size", 0), ("batch_size", -3), ("tau", 0.0), ("tau", -0.1),
        ("tau", math.inf), ("tau", math.nan), ("lam", -0.5), ("lam", math.nan),
        ("lam", math.inf), ("infonce_lam", -0.2), ("infonce_lam", math.nan),
        ("lr_multiplier", 0.0), ("lr_multiplier", -10.0), ("lr_multiplier", math.inf),
        ("flat_lr", 0.0), ("flat_lr", -1e-3), ("flat_lr", math.nan)])
    def test_bad_numbers_rejected_naming_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            tr.TrainConfig(**{field: value})

    def test_zero_iterations_allowed(self):
        assert tr.TrainConfig(iterations=0).stage_ends == (0, 0)


class TestTrainLoop:
    def base_cfg(self, n, seed=3):
        return tr.TrainConfig(iterations=n, batch_size=2, schedule="flat", flat_lr=1e-3,
                              aux_loss="none", use_imaginations=False, seed=seed)

    def test_deterministic_checkpoints(self, tiny_split, tiny_agent_config):
        a, _ = tr.train(tiny_split["train"], tiny_agent_config, self.base_cfg(4))
        b, _ = tr.train(tiny_split["train"], tiny_agent_config, self.base_cfg(4))
        for name in a.values:
            assert a.values[name].tobytes() == b.values[name].tobytes()

    def test_stage1_freezes_base_bitwise(self, tiny_split, tiny_agent_config):
        base_ckpt, _ = tr.train(tiny_split["train"], tiny_agent_config, self.base_cfg(3))
        cfg = tr.TrainConfig(iterations=4, batch_size=2, stage_fractions=(1.0, 0.0, 0.0),
                             aux_loss="cosine", seed=5)
        ckpt, _ = tr.train(tiny_split["train"], tiny_agent_config, cfg,
                           init_values=base_ckpt.values)
        params = ag.init_params(tiny_agent_config, 0)
        for name in ckpt.values:
            group = params.group_of(name)
            if group == "base":
                assert ckpt.values[name].tobytes() == base_ckpt.values[name].tobytes()
        assert any(ckpt.values[n].tobytes() != base_ckpt.values[n].tobytes()
                   for n in ckpt.values if params.group_of(n) != "base")

    def test_aux_gradient_isolation(self, tiny_split, tiny_agent_config):
        """L_cos gradients stay on the h_i / sbar_i paths."""
        params = ag.init_params(tiny_agent_config, seed=0)
        agent = ag.Agent(tiny_agent_config, params)
        item = tiny_split["train"].items[0]
        traj = ag.rollout(agent, item.episode, item.token_ids, item.record.instruction.tokens,
                          item.imaginations, "teacher", obs_rng=np.random.default_rng(0),
                          kept_subs=item.record.kept, train=True,
                          drop_rng=np.random.default_rng(0), aux=True)
        _, h, s = ag.decide(agent, [traj])
        loss = tr.cosine_alignment_loss(h, s)
        params.zero_grads()
        nc.backward(loss)
        on_path = {"vis_proj", "im_m1", "im_m2", "im_m3", "t_im", "tok_embed",
                   "t_wq", "t_wk", "t_wv", "t_wo", "t_ff1", "t_ff2"}
        for name, t in params.items():
            norm = 0.0 if t.grad is None else float(np.abs(t.grad).max())
            if name in on_path:
                continue
            assert norm == 0.0, f"{name} got aux gradient {norm}"
        assert float(np.abs(params["t_im"].grad).max()) > 0.0

    def test_lr0_groups_are_off_the_tape_for_one_iteration(self, desk_data, monkeypatch):
        split, acfg, train_cfg = desk_data
        cfg = replace(train_cfg, iterations=4, batch_size=1, seed=2)   # stages 0.5/0.25/0.25
        stores, untracked = [], []
        init_params, rollout = ag.init_params, ag.rollout

        def recording_init(*args):
            stores.append(init_params(*args))
            return stores[-1]

        def recording_rollout(agent, *args, **kwargs):
            p = agent.params
            untracked.append({p.group_of(n) for n, t in p.items() if not t.requires_grad})
            if len(untracked) == fail_at:
                raise RuntimeError("rollout failed")
            return rollout(agent, *args, **kwargs)

        monkeypatch.setattr(ag, "init_params", recording_init)
        monkeypatch.setattr(ag, "rollout", recording_rollout)
        fail_at = None
        tr.train(split, acfg, cfg)
        assert untracked == [{"base"}, {"base"}, set(), set()]
        fail_at = 6
        with pytest.raises(RuntimeError):
            tr.train(split, acfg, cfg)
        for store in stores:
            assert all(t.requires_grad for _, t in store.items())

    def test_curves_count_alignment_pairs(self, tiny_split, tiny_agent_config, monkeypatch):
        """The fourth column of a curve row is the iteration's alignment-pair
        count: 0 in a base training and in stage 1 of a cosine finetune,
        whose losses read no pairs, and LossBreakdown.n_im in every row."""
        counts, step = [], tr._train_step

        def recording_step(*args):
            breakdown = step(*args)
            counts.append(breakdown.n_im)
            return breakdown

        monkeypatch.setattr(tr, "_train_step", recording_step)
        base, curves = tr.train(tiny_split["train"], tiny_agent_config, self.base_cfg(3))
        assert [c[3] for c in curves] == counts == [0, 0, 0]
        counts.clear()
        cfg = tr.TrainConfig(iterations=8, batch_size=2, aux_loss="cosine", seed=5)
        _, curves = tr.train(tiny_split["train"], tiny_agent_config, cfg,
                             init_values=base.values)
        stage1 = cfg.stage_ends[0]
        assert [c[3] for c in curves] == counts
        assert counts[:stage1] == [0] * stage1 and min(counts[stage1:]) > 0

    def test_loss_decreases_on_small_corpus(self, tiny_split, tiny_agent_config):
        cfg = self.base_cfg(60, seed=1)
        _, curves = tr.train(tiny_split["train"], tiny_agent_config, cfg)
        first = np.mean([c[1] for c in curves[:10]])
        last = np.mean([c[1] for c in curves[-10:]])
        assert last < first

    def test_divergence_aborts_with_dump(self, tiny_split, tiny_agent_config):
        cfg = tr.TrainConfig(iterations=30, batch_size=2, schedule="flat", flat_lr=1e6,
                             aux_loss="none", use_imaginations=False, seed=0)
        with pytest.raises(tr.TrainingDiverged) as exc:
            tr.train(tiny_split["train"], tiny_agent_config, cfg)
        head, _, *rows = exc.value.dump.splitlines()
        assert head.startswith("iteration=") and int(head.partition("=")[2]) > 0
        # per parameter, the gradient norm of the last update before the divergence
        norms = [row.split("\t")[2].partition("|last_update_grad|=")[2] for row in rows]
        assert len(norms) == len(ag.init_params(tiny_agent_config, 0).names())
        assert max(float(n) for n in norms) > 0.0


class TestStage1Gradients:
    """Stage 1 takes the frozen base off the tape. The gradients it gives the
    imagination groups must equal those of a full backward, which this test
    gets by marking every parameter trainable before each rollout."""

    def first_step(self, monkeypatch, split, acfg, cfg, full):
        grads = []
        adam_step, rollout = nc.Adam.step, ag.rollout

        def capture(opt, lrs):
            grads.append({n: None if t.grad is None else t.grad.copy()
                          for n, t in opt.store.items()})
            return adam_step(opt, lrs)

        def all_tracked(agent, *args, **kwargs):
            for _, t in agent.params.items():
                t.requires_grad = True
            return rollout(agent, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(nc.Adam, "step", capture)
            if full:
                m.setattr(ag, "rollout", all_tracked)
            ckpt, _ = tr.train(split, acfg, cfg)
        return grads[0], ckpt

    # Explicit ids: each case keeps the name it had before the late-fusion
    # case between them was deleted.
    @pytest.mark.parametrize("overrides", [pytest.param({}, id="overrides0"),
                                           pytest.param({"imag_source": "text_mean"},
                                                        id="overrides2")])
    def test_imagination_grads_match_full_backward(self, desk_data, monkeypatch, overrides):
        split, acfg, train_cfg = desk_data
        acfg = replace(acfg, **overrides)
        cfg = replace(train_cfg, iterations=1, batch_size=2, stage_fractions=(1.0, 0.0, 0.0),
                      seed=3)
        frozen, ckpt = self.first_step(monkeypatch, split, acfg, cfg, full=False)
        full, _ = self.first_step(monkeypatch, split, acfg, cfg, full=True)
        params = ag.init_params(acfg, cfg.seed)
        imag = [n for n in params.names() if params.group_of(n) != "base"]
        for name in params.names():
            if name in imag:
                assert frozen[name].tobytes() == full[name].tobytes(), name
            else:
                assert frozen[name] is None and full[name] is not None, name
        if acfg.imag_source == "text_mean":
            # no trainable parameter lies on the loss path: nothing moves
            assert not any(np.any(frozen[n]) for n in imag)
            for name, t in params.items():
                assert ckpt.values[name].tobytes() == t.values.tobytes(), name
        else:
            assert all(np.any(frozen[n]) for n in imag)


class TestHookCallCounts:
    """perfbench/tracing.py times an optimiser iteration at each
    training.three_stage_schedule call and a greedy episode at each
    agent.rollout call; a change to these counts must change it too."""

    def test_once_per_iteration_and_per_episode(self, tiny_split, tiny_agent_config, monkeypatch):
        calls = Counter()
        schedule, rollout = tr.three_stage_schedule, ag.rollout

        def counted_schedule(iteration, cfg):
            calls["schedule"] += 1
            return schedule(iteration, cfg)

        def counted_rollout(agent, episode, token_ids, tokens, imaginations, mode, *a, **kw):
            calls[mode] += 1
            return rollout(agent, episode, token_ids, tokens, imaginations, mode, *a, **kw)

        monkeypatch.setattr(tr, "three_stage_schedule", counted_schedule)
        monkeypatch.setattr(ag, "rollout", counted_rollout)
        ckpt, _ = tr.train(tiny_split["train"], tiny_agent_config,
                           tr.TrainConfig(iterations=3, batch_size=2, seed=1))
        assert calls == {"schedule": 3, "teacher": 6}
        items = tiny_split["val_unseen"].items
        ev.evaluate(tr.agent_from_checkpoint(ckpt), items, "correct", seed=0)
        assert calls == {"schedule": 3, "teacher": 6, "argmax": len(items)}


class TestIterationStructure:
    """An iteration decides all its teacher episodes in one padded pass, and
    frees its tape before the next forward starts."""

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_attention_calls_per_iteration(self, tiny_split, tiny_agent_config, monkeypatch,
                                           batch_size):
        calls = []
        attention, schedule = nc.attention, tr.three_stage_schedule

        def counted_schedule(iteration, cfg):
            calls.append(0)
            return schedule(iteration, cfg)

        def counted_attention(*args, **kwargs):
            calls[-1] += 1
            return attention(*args, **kwargs)

        monkeypatch.setattr(tr, "three_stage_schedule", counted_schedule)
        monkeypatch.setattr(nc, "attention", counted_attention)
        tr.train(tiny_split["train"], tiny_agent_config,
                 tr.TrainConfig(iterations=4, batch_size=batch_size, seed=1))
        # one text encoder for the batch, then two streams per cross-modal layer
        assert calls == [1 + 2 * tiny_agent_config.cross_layers] * 4

    def test_desk_base_iteration_records_at_most_100_tape_nodes(self, desk_data, monkeypatch):
        split, acfg, _ = desk_data
        nodes, backward = [], nc.backward

        def counted(loss):
            seen, stack = set(), [loss]
            while stack:
                node = stack.pop()
                if id(node) not in seen and node._parents:
                    seen.add(id(node))
                    stack.extend(node._parents)
            nodes.append(len(seen))
            return backward(loss)

        monkeypatch.setattr(nc, "backward", counted)
        tr.train(split, acfg, tr.TrainConfig(iterations=3, batch_size=8, schedule="flat",
                                             aux_loss="none", use_imaginations=False, seed=4))
        assert len(nodes) == 3 and max(nodes) <= 100

    def test_previous_tape_is_freed_before_the_next_forward(self, tiny_split, tiny_agent_config,
                                                             monkeypatch):
        held, alive = [], []
        backward, decide, schedule = nc.backward, ag.decide, tr.three_stage_schedule

        def keep_loss(loss):
            # a tensor's values array lives exactly as long as the tensor
            held.append(weakref.ref(loss.values))
            return backward(loss)

        def keep_logits(agent, trajectories):
            decided = decide(agent, trajectories)
            held.append(weakref.ref(decided[0].values))
            return decided

        def check(iteration, cfg):
            alive.append([ref() is not None for ref in held])
            held.clear()
            return schedule(iteration, cfg)

        monkeypatch.setattr(nc, "backward", keep_loss)
        monkeypatch.setattr(ag, "decide", keep_logits)
        monkeypatch.setattr(tr, "three_stage_schedule", check)
        tr.train(tiny_split["train"], tiny_agent_config,
                 tr.TrainConfig(iterations=3, batch_size=2, schedule="flat", seed=1))
        assert alive == [[], [False, False], [False, False]]


class TestFreedHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc")
    def test_later_iterations_reuse_the_freed_heap(self, desk_data, monkeypatch):
        """A desk base iteration faults in almost no fresh pages once the
        heap has grown: it reuses what the previous iteration freed, where
        glibc's defaults gave it back to the kernel (about 620 minor faults
        per iteration)."""
        import resource

        split, acfg, train_cfg = desk_data
        cfg = replace(train_cfg, iterations=10, schedule="flat", aux_loss="none",
                      use_imaginations=False, seed=4)
        faults, step = [], tr._train_step

        def counting_step(*args):
            breakdown = step(*args)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            return breakdown

        monkeypatch.setattr(tr, "_train_step", counting_step)
        tr.train(split, acfg, cfg)
        later = np.diff(faults)[3:]
        assert later.mean() < 64, f"minor faults per iteration: {later}"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc")
    def test_setting_is_idempotent(self):
        assert tr._keep_freed_heap() and tr._keep_freed_heap()

    @staticmethod
    def no_library(name):
        raise OSError(f"{name}: cannot open shared object file")

    @pytest.mark.parametrize("library", ["no_mallopt", "no_library"])
    def test_no_mallopt_is_a_silent_no_op(self, library, monkeypatch, tiny_split,
                                          tiny_agent_config):
        monkeypatch.setattr(ctypes, "CDLL",
                            self.no_library if library == "no_library" else lambda name: object())
        assert tr._keep_freed_heap() is False
        tr.train(tiny_split["train"], tiny_agent_config,
                 tr.TrainConfig(iterations=1, batch_size=2, schedule="flat", seed=1))


class TestCheckpointIO:
    def make_ckpt(self, tiny_split, tiny_agent_config, iters=3):
        cfg = tr.TrainConfig(iterations=iters, batch_size=2, schedule="flat",
                             aux_loss="cosine", seed=7)
        return tr.train(tiny_split["train"], tiny_agent_config, cfg)[0]

    def test_roundtrip_bitwise(self, tiny_split, tiny_agent_config, tmp_path):
        ckpt = self.make_ckpt(tiny_split, tiny_agent_config)
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(ckpt, path)
        back = tr.load_checkpoint(path)
        assert back.agent_config == ckpt.agent_config
        assert back.iteration == ckpt.iteration
        assert back.rng_state == ckpt.rng_state
        for name in ckpt.values:
            assert back.values[name].tobytes() == ckpt.values[name].tobytes()
            assert back.adam_m[name].tobytes() == ckpt.adam_m[name].tobytes()
            assert back.adam_v[name].tobytes() == ckpt.adam_v[name].tobytes()

    def test_resume_matches_uninterrupted(self, tiny_split, tiny_agent_config, tmp_path):
        def cfg(n):
            return tr.TrainConfig(iterations=n, batch_size=2, schedule="flat",
                                  aux_loss="cosine", seed=11)

        full, full_curves = tr.train(tiny_split["train"], tiny_agent_config, cfg(8))
        half, _ = tr.train(tiny_split["train"], tiny_agent_config, cfg(4))
        path = tmp_path / "half.ckpt"
        tr.save_checkpoint(half, path)
        resumed, resumed_curves = tr.train(tiny_split["train"], tiny_agent_config, cfg(8),
                                           resume=tr.load_checkpoint(path))
        for name in full.values:
            assert full.values[name].tobytes() == resumed.values[name].tobytes()
        assert full_curves[4:] == resumed_curves

    def test_corrupt_magic(self, tiny_split, tiny_agent_config, tmp_path):
        ckpt = self.make_ckpt(tiny_split, tiny_agent_config)
        path = tmp_path / "b.ckpt"
        tr.save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            tr.load_checkpoint(path)

    def test_failed_save_keeps_old_checkpoint(self, tiny_split, tiny_agent_config, tmp_path):
        ckpt = self.make_ckpt(tiny_split, tiny_agent_config)
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(ckpt, path)
        old = path.read_bytes()
        # the Adam moments are written after the values, so this fails midway
        with pytest.raises(KeyError):
            tr.save_checkpoint(replace(ckpt, adam_m={}), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]

    def test_truncated_file(self, tiny_split, tiny_agent_config, tmp_path):
        ckpt = self.make_ckpt(tiny_split, tiny_agent_config)
        path = tmp_path / "c.ckpt"
        tr.save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(FormatError):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("named, edit", [
        ("c0_wq", lambda arrays: {**arrays, "c0_wq": np.zeros((3, 3), np.float32)}),
        ("zzz", lambda arrays: {**arrays, "zzz": np.zeros((2,), np.float32)}),
        ("act_w", lambda arrays: {k: a for k, a in arrays.items() if k != "act_w"})],
        ids=["other_shape", "unknown_name", "missing_name"])
    def test_arrays_that_do_not_fit_the_config_raise_format_error_naming_them(
            self, tiny_split, tiny_agent_config, tmp_path, named, edit):
        ckpt = self.make_ckpt(tiny_split, tiny_agent_config, iters=1)
        path = tmp_path / "bad.ckpt"
        tr.save_checkpoint(replace(ckpt, **{field: edit(getattr(ckpt, field))
                                            for field in ("values", "adam_m", "adam_v")}), path)
        ckpt = tr.load_checkpoint(path)
        cfg = tr.TrainConfig(iterations=2, batch_size=2, schedule="flat")
        with pytest.raises(FormatError, match=named):
            tr.agent_from_checkpoint(ckpt)
        with pytest.raises(FormatError, match=named):
            tr.train(tiny_split["train"], tiny_agent_config, cfg, init_values=ckpt.values)
        with pytest.raises(FormatError, match=named):
            tr.train(tiny_split["train"], tiny_agent_config, cfg, resume=ckpt)

    @pytest.mark.parametrize("width", [22, 20], ids=["ceil_2d_over_3", "other"])
    def test_checkpoint_with_the_fixed_settings_loads_at_its_one_width(
            self, tiny_split, tiny_agent_config, tmp_path, width):
        """A checkpoint written while mlp_hidden, dropout_rate, text_dropout
        and max_steps were config fields loads to the same config and arrays
        when its width is ceil(2d/3) = 22 at d = 32; another width is a
        FormatError naming the first array of that width."""
        ckpt = self.make_ckpt(tiny_split, tiny_agent_config, iters=1)
        lines = tiny_agent_config.to_text().splitlines()
        old_text = "\n".join(lines[:6] + [f"mlp_hidden={width}", "dropout_rate=0.15",
                                           "text_dropout=0.3"] + lines[6:] + ["max_steps=15"])

        def resized(arrays):   # the feed-forward and imagination-MLP arrays at `width`
            return {k: np.zeros([width if n == 22 else n for n in a.shape], np.float32)
                    if k.endswith(("_ff1", "_ff2")) or k.startswith("im_m") else a
                    for k, a in arrays.items()}

        old = replace(ckpt, agent_config=SimpleNamespace(to_text=lambda: old_text))
        if width != 22:
            old = replace(old, **{f: resized(getattr(ckpt, f))
                                  for f in ("values", "adam_m", "adam_v")})
        path = tmp_path / "old.ckpt"
        tr.save_checkpoint(old, path)
        back = tr.load_checkpoint(path)
        assert back.agent_config == tiny_agent_config
        if width == 22:
            assert all(back.values[k].tobytes() == a.tobytes() for k, a in ckpt.values.items())
            tr.agent_from_checkpoint(back)
        else:
            with pytest.raises(FormatError, match="'t_ff1' has shape"):
                tr.agent_from_checkpoint(back)

    @pytest.mark.parametrize("text", ["agent_config", "rng_state"])
    def test_undecodable_text_raises_format_error(self, tiny_split, tiny_agent_config, tmp_path,
                                                  text):
        ckpt = self.make_ckpt(tiny_split, tiny_agent_config, iters=1)
        path = tmp_path / "d.ckpt"
        tr.save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        if text == "agent_config":
            # magic, version byte, u32 length, then the config's UTF-8 text
            raw[len(tr.CHECKPOINT_MAGIC) + 5] = 0xFF
        else:
            assert raw[-1:] == b"}"    # the RNG state's JSON ends the file
            raw[-1:] = b"x"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            tr.load_checkpoint(path)

    def test_baseline_trace_equals_imagination_free_trace(self, tiny_split, tiny_agent_config):
        """lambda=0, aux none, no imaginations == the baseline agent's trace."""
        cfg_a = tr.TrainConfig(iterations=5, batch_size=2, schedule="flat", flat_lr=1e-3,
                               aux_loss="none", use_imaginations=False, seed=2)
        a, curves_a = tr.train(tiny_split["train"], tiny_agent_config, cfg_a)
        b, curves_b = tr.train(tiny_split["train"], tiny_agent_config, cfg_a)
        assert curves_a == curves_b
        for name in a.values:
            assert a.values[name].tobytes() == b.values[name].tobytes()


class TestStage1Reuse:
    """A three-stage finetune keeps its state at the end of stage 1, and a later
    finetune whose stage 1 reads the same inputs resumes from it."""

    @pytest.fixture(scope="class")
    def base(self, tiny_split, tiny_agent_config):
        cfg = tr.TrainConfig(iterations=3, batch_size=2, schedule="flat", aux_loss="none",
                             use_imaginations=False, seed=3)
        return tr.train(tiny_split["train"], tiny_agent_config, cfg)[0].values

    @staticmethod
    def cfg(aux, **kw):
        return tr.TrainConfig(**{**dict(iterations=8, batch_size=2, aux_loss=aux, seed=5,
                                        stage_fractions=(0.5, 0.25, 0.25)), **kw})

    @pytest.fixture
    def scheduled(self, monkeypatch):
        """The iterations training.three_stage_schedule is called for."""
        calls, schedule = [], tr.three_stage_schedule

        def counted(iteration, cfg):
            calls.append(iteration)
            return schedule(iteration, cfg)

        monkeypatch.setattr(tr, "three_stage_schedule", counted)
        return calls

    @staticmethod
    def assert_same_run(a, b):
        (ckpt_a, curves_a), (ckpt_b, curves_b) = a, b
        assert curves_a == curves_b
        assert (ckpt_a.iteration, ckpt_a.adam_steps, ckpt_a.rng_state, ckpt_a.agent_config) == \
               (ckpt_b.iteration, ckpt_b.adam_steps, ckpt_b.rng_state, ckpt_b.agent_config)
        for name in ("values", "adam_m", "adam_v"):
            x, y = getattr(ckpt_a, name), getattr(ckpt_b, name)
            assert list(x) == list(y)
            for k in x:
                assert x[k].dtype == y[k].dtype and x[k].tobytes() == y[k].tobytes(), (name, k)

    def test_reused_stage1_gives_the_same_bytes(self, tiny_split, tiny_agent_config, base,
                                                scheduled):
        split, losses = tiny_split["train"], ("cosine", "infonce", "none")
        warm = [tr.train(split, tiny_agent_config, self.cfg(aux), init_values=base)
                for aux in losses]
        assert scheduled == list(range(8)) + list(range(4, 8)) * 2
        cold = []
        for aux in losses:
            tr.clear_stage1()
            cold.append(tr.train(split, tiny_agent_config, self.cfg(aux), init_values=base))
        for a, b in zip(warm, cold):
            self.assert_same_run(a, b)

    @pytest.mark.parametrize("change", [
        "seed", "batch_size", "iterations", "stage_fractions", "lr_multiplier",
        "use_imaginations", "agent_config", "init_values", "split", "aux_in_all_stages"])
    def test_a_changed_input_recomputes_stage1(self, tiny_split, tiny_agent_config, base,
                                               scheduled, change):
        split, acfg, values = tiny_split["train"], tiny_agent_config, base
        first, cfg = self.cfg("cosine"), self.cfg("infonce")
        if change == "aux_in_all_stages":
            first, cfg = (self.cfg(aux, aux_in_all_stages=True) for aux in ("cosine", "infonce"))
        elif change == "agent_config":
            acfg = replace(acfg, heads=4)
        elif change == "init_values":
            values = dict(base)
            name = next(iter(values))
            values[name] = values[name].copy()
            values[name].flat[0] += 1.0
        elif change == "split":
            split = replace(split)
        else:
            cfg = replace(cfg, **{change: dict(
                seed=6, batch_size=3, iterations=12, stage_fractions=(0.25, 0.25, 0.5),
                lr_multiplier=5.0, use_imaginations=False)[change]})
        tr.train(tiny_split["train"], tiny_agent_config, first, init_values=base)
        scheduled.clear()
        tr.train(split, acfg, cfg, init_values=values)
        assert scheduled == list(range(cfg.iterations))

    def test_alignment_loss_in_all_stages_still_reuses_its_own_stage1(
            self, tiny_split, tiny_agent_config, base, scheduled):
        cfg = self.cfg("cosine", aux_in_all_stages=True)
        tr.train(tiny_split["train"], tiny_agent_config, cfg, init_values=base)
        scheduled.clear()
        tr.train(tiny_split["train"], tiny_agent_config, cfg, init_values=base)
        assert scheduled == list(range(4, 8))

    def test_mutating_outputs_and_inputs_leaves_the_stored_stage1(
            self, tiny_split, tiny_agent_config, base, scheduled):
        split = tiny_split["train"]
        tr.clear_stage1()
        want = tr.train(split, tiny_agent_config, self.cfg("infonce"), init_values=base)
        tr.clear_stage1()
        values = {k: v.copy() for k, v in base.items()}
        ckpt, curves = tr.train(split, tiny_agent_config, self.cfg("cosine"), init_values=values)
        for name in ("values", "adam_m", "adam_v"):
            for arr in getattr(ckpt, name).values():
                arr[...] = 7.0
        ckpt.adam_steps.clear()
        ckpt.rng_state["state"]["state"] = 1
        curves[0] = curves[1]
        for arr in values.values():
            arr[...] = 0.0
        scheduled.clear()
        got = tr.train(split, tiny_agent_config, self.cfg("infonce"), init_values=base)
        assert scheduled == list(range(4, 8))
        self.assert_same_run(got, want)

    @pytest.mark.parametrize("run", ["flat", "no_init_values", "resume", "no_stage1",
                                     "diverged"])
    def test_nothing_is_stored_or_reused_without_a_key(self, tiny_split, tiny_agent_config,
                                                       base, scheduled, monkeypatch, run):
        split, cfg, kw = tiny_split["train"], self.cfg("cosine"), dict(init_values=base)
        if run == "flat":
            cfg = replace(cfg, schedule="flat")
        elif run == "no_init_values":
            kw = {}
        elif run == "resume":   # with a stored stage 1 that the same call without resume reuses
            tr.train(split, tiny_agent_config, cfg, **kw)
            kw["resume"] = tr.train(split, tiny_agent_config, replace(cfg, iterations=0))[0]
        elif run == "no_stage1":
            cfg = replace(cfg, stage_fractions=(0.0, 0.5, 0.5))
        else:
            step = tr._train_step

            def diverge_at_1(*args):
                if args[6] == 1:
                    raise tr.TrainingDiverged("non-finite loss at iteration 1")
                return step(*args)

            monkeypatch.setattr(tr, "_train_step", diverge_at_1)
        stored = tr._stage1
        for _ in range(2):
            scheduled.clear()
            try:
                tr.train(split, tiny_agent_config, cfg, **kw)
            except tr.TrainingDiverged:
                assert run == "diverged"
            assert tr._stage1 is stored
        assert scheduled == (list(range(2)) if run == "diverged" else list(range(cfg.iterations)))

    @pytest.mark.parametrize("in_all_stages", [False, True])
    def test_stage1_reads_no_alignment_loss_field(self, tiny_split, tiny_agent_config, base,
                                                  in_all_stages):
        """The invariant the stored stage 1's key rests on: with the alignment
        loss off in stage 1, cosine, InfoNCE and no-aux finetunes give the same
        stage-1 rows and the same state at the stage-1 boundary."""
        runs = []
        for aux in ("cosine", "infonce", "none"):
            tr.clear_stage1()
            _, curves = tr.train(tiny_split["train"], tiny_agent_config,
                                 self.cfg(aux, aux_in_all_stages=in_all_stages),
                                 init_values=base)
            runs.append((tr._stage1[2], curves[:4]))
        if in_all_stages:
            assert runs[0][1] != runs[1][1] != runs[2][1] != runs[0][1]
        else:
            for other in runs[1:]:
                self.assert_same_run(runs[0], other)
