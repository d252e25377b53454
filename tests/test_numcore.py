import math

import numpy as np
import pytest

from imnav import numcore as nc
from imnav.errors import ContractError, NumericGuardError, ShapeError
from fdcheck import check_gradients


def t(arr, grad=False):
    return nc.Tensor(np.asarray(arr, dtype=np.float32), requires_grad=grad)


class TestForward:
    def test_softmax_symmetry(self):
        out = nc.softmax(t([0.0, 0.0]))
        assert np.allclose(out.values, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = t(rng.normal(size=(5, 7)))
        out = nc.softmax(x, axis=-1)
        assert np.allclose(out.values.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_neg_inf_gets_zero_weight(self):
        x = nc.Tensor(np.array([1.0, 2.0, -np.inf], dtype=np.float32))
        out = nc.softmax(x)
        assert out.values[2] == 0.0
        assert np.isclose(out.values.sum(), 1.0)

    def test_relu(self):
        out = nc.relu(t([-1.0, 2.0]))
        assert out.values.tolist() == [0.0, 2.0]

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(4, 2)).astype(np.float32)
        got = nc.matmul(t(a), t(b)).values
        want = np.zeros((3, 2), dtype=np.float64)
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += float(a[i, k]) * float(b[k, j])
        assert np.abs(got - want).max() < 1e-6

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            nc.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            nc.add(t(np.zeros((2, 3))), t(np.zeros((3, 2))))

    def test_dropout_eval_is_identity(self):
        x = t(np.ones((4, 4)))
        mask = nc.dropout_mask(x.shape, 0.5, np.random.default_rng(0), train=False)
        assert mask is None and nc.dropout(x, mask) is x

    def test_dropout_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(1)
        x = t(np.ones((200, 200)))
        out = nc.dropout(x, nc.dropout_mask(x.shape, 0.3, rng))
        assert abs(out.values.mean() - 1.0) < 0.02

    def test_concat_and_mean(self):
        a = t([[1.0, 2.0]])
        b = t([[3.0, 4.0]])
        cat = nc.concat([a, b], axis=0)
        assert cat.values.shape == (2, 2)
        m = nc.mean(cat, axis=0)
        assert np.allclose(m.values, [2.0, 3.0])

    def test_take_rows(self):
        x = t(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = nc.take_rows(x, [2, 0])
        assert np.allclose(out.values, [[6, 7, 8], [0, 1, 2]])


class TestCosine:
    def test_identical(self):
        a = t([1.0, 2.0, 3.0])
        assert abs(nc.cosine_similarity(a, t([1.0, 2.0, 3.0])).item() - 1.0) < 1e-6

    def test_orthogonal(self):
        assert abs(nc.cosine_similarity(t([1.0, 0.0]), t([0.0, 2.0])).item()) < 1e-7

    def test_antipodal(self):
        a = [0.5, -1.5, 2.0]
        got = nc.cosine_similarity(t(a), t([-x for x in a])).item()
        assert abs(got + 1.0) < 1e-6

    def test_zero_norm_guarded(self):
        with pytest.raises(NumericGuardError):
            nc.cosine_similarity(t([0.0, 0.0]), t([1.0, 0.0]))

    def test_matrix_holds_every_row_pair(self):
        rng = np.random.default_rng(4)
        h, s = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        got = nc.cosine_similarity(t(h), t(s)).values
        assert got.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                want = nc.cosine_similarity(t(h[i]), t(s[j])).item()
                assert abs(got[i, j] - want) < 1e-6

    def test_single_row_is_the_vector_case(self):
        a, b = [0.5, -1.5, 2.0], [1.0, 0.25, -0.5]
        got = nc.cosine_similarity(t([a]), t([b])).values
        assert got.shape == (1, 1)
        assert got[0, 0] == nc.cosine_similarity(t(a), t(b)).item()

    def test_zero_row_guarded(self):
        with pytest.raises(NumericGuardError):
            nc.cosine_similarity(t([[1.0, 0.0], [0.0, 0.0]]), t([[1.0, 1.0]]))

    def test_mixed_ranks_rejected(self):
        with pytest.raises(ShapeError):
            nc.cosine_similarity(t([[1.0, 0.0]]), t([1.0, 0.0]))


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = nc.cross_entropy(t([0.0, 0.0, 0.0, 0.0]), 1)
        assert abs(loss.item() - math.log(4)) < 1e-6

    def test_saturated(self):
        logits = t([0.0, 1000.0, 0.0])
        assert nc.cross_entropy(logits, 1).item() < 1e-6

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            nc.cross_entropy(t([0.0, 0.0]), 5)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            logits = rng.normal(size=8).astype(np.float32)
            target = int(rng.integers(8))
            got = nc.cross_entropy(t(logits), target).item()
            z = logits.astype(np.float64)
            want = float(np.log(np.exp(z).sum()) - z[target])
            assert abs(got - want) < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            logits = rng.normal(size=5).astype(np.float32)
            assert nc.cross_entropy(t(logits), int(rng.integers(5))).item() >= 0.0

    def test_rows_match_single_rows(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(4, 6)).astype(np.float32)
        targets = [5, 0, 2, 2]
        got = nc.cross_entropy(t(logits), targets).values
        want = [nc.cross_entropy(t(row), k).item() for row, k in zip(logits, targets)]
        assert got.shape == (4,) and np.array_equal(got, np.float32(want))

    def test_neg_inf_logits_drop_out(self):
        masked = nc.cross_entropy(t([[1.0, -np.inf, 0.5], [-np.inf, 2.0, 0.0]]), [2, 1])
        kept = [nc.cross_entropy(t([1.0, 0.5]), 1).item(), nc.cross_entropy(t([2.0, 0.0]), 0).item()]
        assert np.allclose(masked.values, kept, rtol=0, atol=1e-7)

    def test_one_target_per_row(self):
        with pytest.raises(ShapeError):
            nc.cross_entropy(t(np.zeros((2, 3))), [0])


class TestBackward:
    def test_square_gradient(self):
        x = t(3.0, grad=True)
        loss = nc.mul(x, x)
        nc.backward(loss)
        assert abs(float(x.grad) - 6.0) < 1e-6

    def test_independent_leaf_gets_no_grad(self):
        x = t([1.0, 2.0], grad=True)
        y = t([3.0, 4.0], grad=True)
        nc.backward(nc.mean(nc.mul(y, y)))
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = t([1.0, 2.0], grad=True)
        with pytest.raises(ContractError):
            nc.backward(nc.relu(x))

    def test_repeated_backward_accumulates(self):
        x = t(2.0, grad=True)
        loss = nc.mul(x, x)
        nc.backward(loss)
        first = float(x.grad)
        loss2 = nc.mul(x, x)
        nc.backward(loss2)
        assert abs(float(x.grad) - 2 * first) < 1e-6

    def test_two_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(5)

        def build(ts):
            w1, w2, x = ts
            h = nc.relu(nc.matmul(x, w1))
            out = nc.matmul(h, w2)
            return nc.mean(nc.mul(out, out))

        # keep relu pre-activations away from the kink so the FD oracle is valid
        done = 0
        while done < 5:
            w1 = rng.normal(size=(4, 6)) * 0.7
            w2 = rng.normal(size=(6, 2)) * 0.7
            x = rng.normal(size=(3, 4)) * 0.7
            if np.abs(x @ w1).min() < 0.05:
                continue
            check_gradients(build, [w1, w2, x], tol=1e-4)
            done += 1


class TestGradcheckPerOp:
    """Property check: every composite op matches central differences."""

    def test_all_ops(self):
        rng = np.random.default_rng(42)
        cases = {
            "matmul": lambda ts: nc.mean(nc.matmul(ts[0], nc.transpose(ts[1], (1, 0)))),
            "add": lambda ts: nc.mean(nc.add(ts[0], ts[1])),
            "mul": lambda ts: nc.mean(nc.mul(ts[0], ts[1])),
            "scale": lambda ts: nc.mean(nc.scale(ts[0], 2.5)),
            "relu": lambda ts: nc.mean(nc.relu(ts[0])),
            "softmax": lambda ts: nc.mean(nc.mul(nc.softmax(ts[0], axis=-1), ts[1])),
            "sigmoid": lambda ts: nc.mean(nc.sigmoid(ts[0])),
            "tanh": lambda ts: nc.mean(nc.tanh(ts[0])),
            "concat": lambda ts: nc.mean(nc.concat([ts[0], ts[1]], axis=0)),
            "take_rows": lambda ts: nc.mean(nc.take_rows(ts[0], [1, 1, 0])),
            # offset keeps the norm O(1): the FD oracle's truncation error
            # grows like 1/|x|^2 near the origin
            "l2_norm": lambda ts: nc.l2_norm(nc.add(ts[0], nc.constant(np.full((2, 3), 1.5)))),
            "reshape": lambda ts: nc.mean(nc.mul(nc.reshape(ts[0], (6,)), nc.reshape(ts[1], (6,)))),
            "transpose": lambda ts: nc.mean(nc.mul(nc.transpose(ts[0], (1, 0)), nc.transpose(ts[1], (1, 0)))),
            "cosine": lambda ts: nc.cosine_similarity(nc.reshape(ts[0], (6,)), nc.reshape(ts[1], (6,))),
            # every row of ts[0] against every row of ts[1], weighted per pair
            "cosine_rows": lambda ts: nc.sum_(nc.mul(nc.cosine_similarity(ts[0], ts[1]),
                                                     nc.constant(np.array([[1.0, -2.0],
                                                                           [0.5, 3.0]])))),
            "cross_entropy": lambda ts: nc.cross_entropy(nc.reshape(ts[0], (6,)), 2),
            "cross_entropy_rows": lambda ts: nc.mean(nc.cross_entropy(
                nc.add(ts[0], nc.constant(np.array([[0.0, 0.0, -np.inf], [0.0, -np.inf, 0.0]]))),
                [1, 2])),
        }
        for name, build in cases.items():
            done = 0
            while done < 3:
                a = rng.normal(size=(2, 3))
                b = rng.normal(size=(2, 3))
                if min(np.abs(a).min(), np.abs(b).min()) < 0.05:
                    continue
                check_gradients(build, [a, b], tol=1e-4)
                done += 1

    def test_batched_matmul_grad(self):
        rng = np.random.default_rng(9)

        def build(ts):
            return nc.mean(nc.matmul(ts[0], ts[1]))

        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        check_gradients(build, [a, b], tol=1e-4)

    def test_softmax_with_neg_inf_grad_is_finite(self):
        x = nc.Tensor(np.array([[0.5, 1.5, -np.inf]], dtype=np.float32), requires_grad=True)
        out = nc.softmax(x, axis=-1)
        nc.backward(nc.mean(out))
        assert np.isfinite(x.grad[:, :2]).all()
        assert x.grad[0, 2] == 0.0


def attention_chain(xq, xkv, wq, wk, wv, wo, heads):
    """Unbatched attention as a chain of single ops (the fused op's oracle)."""
    d = wq.shape[1]
    dh = d // heads
    tq, tk = xq.shape[0], xkv.shape[0]

    def split(x, t):
        return nc.transpose(nc.reshape(x, (t, heads, dh)), (1, 0, 2))

    q = split(nc.matmul(xq, wq), tq)
    k = split(nc.matmul(xkv, wk), tk)
    v = split(nc.matmul(xkv, wv), tk)
    scores = nc.scale(nc.matmul(q, nc.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
    out = nc.matmul(nc.softmax(scores, axis=-1), v)
    return nc.matmul(nc.reshape(nc.transpose(out, (1, 0, 2)), (tq, d)), wo)


def attention_by_repeat(xq, xkv, wq, wk, wv, wo, heads, record=None, mask=None, counts=None):
    """`nc.attention` with its per-episode `counts` form composed from
    `repeat`, `concat` and the plain call (the form's oracle)."""
    if counts is None:
        return nc.attention(xq, xkv, wq, wk, wv, wo, heads, record=record, mask=mask)
    ctx = nc.repeat(xq, counts)
    if mask is not None:
        mask = np.concatenate([np.repeat(mask, counts, axis=0),
                               np.ones(xkv.shape[:2], dtype=bool)], axis=1)
    return nc.attention(ctx, nc.concat([ctx, xkv], axis=1), wq, wk, wv, wo, heads,
                        record=record, mask=mask)


def action_logits_chain(vis, act_w, stop_w, index, pad=None):
    """The action head as a chain of single ops (the fused op's oracle):
    gather the views and the history, score, join the scores, gather the
    actions, then add the pad."""
    steps, n, d = vis.shape
    views = nc.take_rows(vis, np.arange(1, n), axis=1)
    hist = nc.take_rows(vis, [0], axis=1)
    match = nc.scale(nc.matmul(views, nc.transpose(hist, (0, 2, 1))), 1.0 / math.sqrt(d))
    scores = nc.concat([nc.add(match, nc.matmul(views, act_w)), nc.matmul(hist, stop_w)], axis=1)
    logits = nc.take_rows(nc.reshape(scores, (steps * n,)), index)
    return logits if pad is None else nc.add(logits, nc.constant(pad))


# a batch of read rows: steps with 1, 2 and 3 navigable views among 1 + 3
# rows, each padded to 4 actions by repeating its stop index
HEAD_VIEWS = (1, 2, 3)
HEAD_INDEX = np.array([[t * 4 + s for s in range(v)] + [t * 4 + 3] * (4 - v)
                       for t, v in enumerate(HEAD_VIEWS)])
HEAD_PAD = np.where(np.arange(4) <= np.array(HEAD_VIEWS)[:, None], 0.0, -np.inf).astype(np.float32)


# uneven steps per episode, and a (B, tq) mask padding two of the three
# episodes' query keys
EPISODE_COUNTS = (2, 1, 3)
EPISODE_MASK = np.array([[True, True, True, False],
                         [True, True, True, True],
                         [True, True, False, False]])


class TestFusedOps:
    D, HEADS, HIDDEN = 4, 2, 3

    def weights(self, rng, dtype=np.float64):
        return [rng.normal(size=(self.D, self.D)).astype(dtype) for _ in range(4)]

    def test_attention_gradcheck(self):
        rng = np.random.default_rng(13)
        for lead in ((), (2,)):
            probe = rng.normal(size=lead + (3, self.D))

            def cross(ts):
                out = nc.attention(ts[0], ts[1], *ts[2:], heads=self.HEADS)
                return nc.mean(nc.mul(out, nc.constant(probe)))

            def self_attn(ts):
                out = nc.attention(ts[0], ts[0], *ts[1:], heads=self.HEADS)
                return nc.mean(nc.mul(out, nc.constant(probe)))

            w = [0.5 * a for a in self.weights(rng)]
            xq = rng.normal(size=lead + (3, self.D))
            xkv = rng.normal(size=lead + (5, self.D))
            check_gradients(cross, [xq, xkv] + w, tol=1e-4)
            check_gradients(self_attn, [xq] + w, tol=1e-4)

    @pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
    def test_attention_by_episode_gradcheck(self, masked):
        """The per-episode form against central differences, and its float64
        gradients against those of its repeat/concat oracle."""
        rng = np.random.default_rng(53)
        mask = EPISODE_MASK if masked else None
        probe = rng.normal(size=(sum(EPISODE_COUNTS), 4, self.D))
        w = [0.5 * a for a in self.weights(rng)]
        arrays = [rng.normal(size=(3, 4, self.D)), rng.normal(size=(6, 2, self.D))] + w

        def build(op):
            def loss(ts):
                out = op(ts[0], ts[1], *ts[2:], heads=self.HEADS, mask=mask,
                         counts=EPISODE_COUNTS)
                return nc.mean(nc.mul(out, nc.constant(probe)))
            return loss

        check_gradients(build(nc.attention), arrays, tol=1e-4)
        grads = []
        for op in (nc.attention, attention_by_repeat):
            leaves = [nc.Tensor(a, requires_grad=True) for a in arrays]
            nc.backward(build(op)(leaves))
            grads.append([x.grad for x in leaves])
        for got, want in zip(*grads):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_attention_by_episode_rejects_bad_counts_and_mask(self):
        rng = np.random.default_rng(59)
        w = [t(a) for a in self.weights(rng, np.float32)]
        xq, xkv = t(np.zeros((3, 4, self.D))), t(np.zeros((6, 2, self.D)))
        bad = [dict(counts=[2, 1, 2]), dict(counts=[2, 1, 4]), dict(counts=[3, 0, 3]),
               dict(counts=[3, 3]), dict(counts=[2, 1, 3], mask=np.ones((3, 6), dtype=bool)),
               dict(counts=[2, 1, 3], mask=np.ones((6, 4), dtype=bool))]
        for kwargs in bad:
            with pytest.raises(ShapeError):
                nc.attention(xq, xkv, *w, heads=self.HEADS, **kwargs)
        nc.attention(xq, xkv, *w, heads=self.HEADS, counts=[2, 1, 3], mask=EPISODE_MASK)

    def test_masked_attention_gradcheck(self):
        rng = np.random.default_rng(37)
        # a leading batch axis whose rows keep different keys, and one row
        # keeping every key
        mask = np.array([[True, False, True, True, False],
                         [True, True, True, True, True],
                         [False, False, False, True, False]])
        probe = rng.normal(size=(3, 2, self.D))

        def build(ts):
            out = nc.attention(ts[0], ts[1], *ts[2:], heads=self.HEADS, mask=mask)
            return nc.mean(nc.mul(out, nc.constant(probe)))

        w = [0.5 * a for a in self.weights(rng)]
        check_gradients(build, [rng.normal(size=(3, 2, self.D)), rng.normal(size=(3, 5, self.D))] + w,
                        tol=1e-4)

    def test_masked_keys_get_zero_weight_and_gradient(self):
        rng = np.random.default_rng(41)
        mask = np.array([[True, False, True, False], [False, True, True, True]])
        w = [t(a) for a in self.weights(rng, np.float32)]
        xq = nc.Tensor(rng.normal(size=(2, 3, self.D)).astype(np.float32), requires_grad=True)
        xkv = nc.Tensor(rng.normal(size=(2, 4, self.D)).astype(np.float32), requires_grad=True)
        record = []
        out = nc.attention(xq, xkv, *w, heads=self.HEADS, record=record, mask=mask)
        nc.backward(nc.mean(nc.mul(out, out)))
        weights = record[0]                                     # (2, heads, 3, 4)
        assert np.all(weights.transpose(0, 3, 1, 2)[~mask] == 0.0)
        assert np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-6
        assert np.all(xkv.grad[~mask] == 0.0)
        assert np.all(np.abs(xkv.grad[mask]).sum(axis=-1) > 0.0)
        # changing a masked key's input changes nothing
        moved = xkv.values.copy()
        moved[~mask] += 100.0
        again = nc.attention(xq, t(moved), *w, heads=self.HEADS, mask=mask)
        assert again.values.tobytes() == out.values.tobytes()

    def test_all_valid_mask_equals_no_mask_bitwise(self):
        rng = np.random.default_rng(43)
        values = [rng.normal(size=(3, 2, self.D)).astype(np.float32),
                  rng.normal(size=(3, 5, self.D)).astype(np.float32)]
        weights = self.weights(rng, np.float32)

        def run(mask):
            ts = [nc.Tensor(a.copy(), requires_grad=True) for a in values + weights]
            out = nc.attention(ts[0], ts[1], *ts[2:], heads=self.HEADS, mask=mask)
            nc.backward(nc.mean(nc.mul(out, out)))
            return [out.values.tobytes()] + [x.grad.tobytes() for x in ts]

        assert run(np.ones((3, 5), dtype=bool)) == run(None)

    def test_mask_shape_and_empty_rows_rejected(self):
        rng = np.random.default_rng(47)
        w = [t(a) for a in self.weights(rng, np.float32)]
        xq, xkv = t(np.zeros((2, 3, self.D))), t(np.zeros((2, 4, self.D)))
        for bad in (np.ones((2, 3), dtype=bool), np.array([[True] * 4, [False] * 4])):
            with pytest.raises(ShapeError):
                nc.attention(xq, xkv, *w, heads=self.HEADS, mask=bad)

    def test_repeat_rejects_bad_counts(self):
        for counts in ([1], [1, 0], [2, -1]):
            with pytest.raises(ShapeError):
                nc.repeat(t(np.zeros((2, 3))), counts)

    def test_ffn_gradcheck(self):
        rng = np.random.default_rng(17)
        for lead in ((), (2,)):
            done = 0
            while done < 2:
                x = rng.normal(size=lead + (3, self.D))
                w1 = rng.normal(size=(self.D, self.HIDDEN))
                w2 = rng.normal(size=(self.HIDDEN, self.D))
                # keep relu pre-activations away from the kink so the FD oracle is valid
                if np.abs(x @ w1).min() < 0.05:
                    continue
                probe = rng.normal(size=lead + (3, self.D))
                check_gradients(lambda ts: nc.mean(nc.mul(nc.ffn(*ts), nc.constant(probe))),
                                [x, w1, w2], tol=1e-4)
                done += 1

    def test_attention_forward_equals_op_chain(self):
        rng = np.random.default_rng(19)
        w = [t(a) for a in self.weights(rng, np.float32)]
        xq = t(rng.normal(size=(3, self.D)))
        xkv = t(rng.normal(size=(5, self.D)))
        record = []
        fused = nc.attention(xq, xkv, *w, heads=self.HEADS, record=record)
        chain = nc.add(xq, attention_chain(xq, xkv, *w, heads=self.HEADS))
        assert np.array_equal(fused.values, chain.values)
        assert record[0].shape == (self.HEADS, 3, 5)
        assert np.abs(record[0].sum(axis=-1) - 1.0).max() < 1e-6

        # a batch axis runs every slice as its own unbatched call
        bq = rng.normal(size=(3, 2, self.D)).astype(np.float32)
        bkv = rng.normal(size=(3, 4, self.D)).astype(np.float32)
        batched = nc.attention(t(bq), t(bkv), *w, heads=self.HEADS).values
        for i in range(3):
            one = bq[i] + attention_chain(t(bq[i]), t(bkv[i]), *w, heads=self.HEADS).values
            assert np.abs(batched[i] - one).max() < 1e-6

    def test_ffn_forward_equals_op_chain(self):
        rng = np.random.default_rng(23)
        x = t(rng.normal(size=(2, 3, self.D)))
        w1 = t(rng.normal(size=(self.D, self.HIDDEN)))
        w2 = t(rng.normal(size=(self.HIDDEN, self.D)))
        fused = nc.ffn(x, w1, w2).values
        for i in range(2):
            xi = t(x.values[i])
            chain = nc.add(xi, nc.matmul(nc.relu(nc.matmul(xi, w1)), w2)).values
            assert np.array_equal(nc.ffn(xi, w1, w2).values, chain)
            assert np.abs(fused[i] - chain).max() < 1e-6

    def test_action_logits_forward_equals_op_chain(self):
        """Bit for bit at a greedy step's shape, all K + 1 rows with some
        views navigable, and on a padded batch of read rows."""
        rng = np.random.default_rng(37)
        d, k = 64, 12
        act_w, stop_w = t(rng.normal(size=(d, 1))), t(rng.normal(size=(d, 1)))
        vis = t(rng.normal(size=(1, k + 1, d)))
        for nav in ([0, 5, 11], list(range(k)), [7]):
            index = [nav + [k]]
            fused = nc.action_logits(vis, act_w, stop_w, index)
            assert fused.values.tobytes() == action_logits_chain(vis, act_w, stop_w,
                                                                 index).values.tobytes()
        rows = t(rng.normal(size=(3, 4, d)))
        fused = nc.action_logits(rows, act_w, stop_w, HEAD_INDEX, HEAD_PAD).values
        chain = action_logits_chain(rows, act_w, stop_w, HEAD_INDEX, HEAD_PAD).values
        assert fused.tobytes() == chain.tobytes()
        assert np.isneginf(fused).sum() == 3
        with pytest.raises(ShapeError):
            nc.action_logits(t(np.zeros((4, d))), act_w, stop_w, [[0]])

    def test_action_logits_gradcheck(self):
        """Against central differences, with repeated stop indices scattered
        back (probe-weighted, no pad) and through a -inf pad (cross-entropy),
        and its float64 gradients against those of its op chain."""
        rng = np.random.default_rng(41)
        probe = rng.normal(size=HEAD_INDEX.shape)
        targets = [1, 0, 3]
        arrays = [rng.normal(size=(3, 4, self.D)), rng.normal(size=(self.D, 1)),
                  rng.normal(size=(self.D, 1))]

        def probed(op):
            return lambda ts: nc.mean(nc.mul(op(*ts, HEAD_INDEX), nc.constant(probe)))

        def padded(op):
            return lambda ts: nc.mean(nc.cross_entropy(op(*ts, HEAD_INDEX, HEAD_PAD), targets))

        for build in (probed, padded):
            check_gradients(build(nc.action_logits), arrays, tol=1e-4)
            grads = []
            for op in (nc.action_logits, action_logits_chain):
                leaves = [nc.Tensor(a, requires_grad=True) for a in arrays]
                nc.backward(build(op)(leaves))
                grads.append([leaf.grad for leaf in leaves])
            for fused, chain in zip(*grads):
                assert np.abs(fused - chain).max() < 1e-12

    def test_attention_rejects_mismatched_batch(self):
        rng = np.random.default_rng(29)
        w = [t(a) for a in self.weights(rng, np.float32)]
        with pytest.raises(ShapeError):
            nc.attention(t(np.zeros((2, 3, self.D))), t(np.zeros((3, 3, self.D))), *w,
                         heads=self.HEADS)

    def test_batching_ops_grad(self):
        """The broadcasting forms the batched agent pass relies on."""
        rng = np.random.default_rng(31)
        cases = [
            # (T, K, d) + (K, d) and (T, n, 1) * (1, 1) broadcasts
            (lambda ts: nc.mean(nc.mul(nc.add(ts[0], ts[1]), ts[0])), [(2, 3, 4), (3, 4)]),
            (lambda ts: nc.mean(nc.mul(nc.mul(ts[0], ts[1]), ts[0])), [(2, 3, 1), (1, 1)]),
            # batched operand against a shared 2D weight
            (lambda ts: nc.mean(nc.mul(nc.matmul(ts[0], ts[1]), nc.matmul(ts[0], ts[1]))),
             [(2, 3, 4), (4, 2)]),
            (lambda ts: nc.mean(nc.mul(nc.take_rows(ts[0], [2, 0, 2], axis=1),
                                       nc.repeat(nc.reshape(ts[1], (1, 3, 4)), [2]))),
             [(2, 3, 4), (3, 4)]),
            # rows repeated unevenly, as per-episode tokens over their steps
            (lambda ts: nc.mean(nc.mul(nc.repeat(ts[0], [2, 1, 3]), ts[1])), [(3, 2, 4), (6, 2, 4)]),
            # sets padded by a 2D gather, grouped means with an empty group,
            # and word dropout broadcast over the feature axis
            (lambda ts: nc.mean(nc.mul(nc.take_rows(ts[0], [[0, 2], [1, 0]]), ts[1])),
             [(3, 4), (2, 2, 4)]),
            (lambda ts: nc.mean(nc.mul(nc.segment_mean(ts[0], [2, 0, 3]), ts[1])), [(5, 4), (3, 4)]),
            (lambda ts: nc.mean(nc.mul(nc.dropout(ts[0], keep), ts[0])), [(2, 3, 4)]),
        ]
        keep = np.array([[[2.0], [0.0], [2.0]], [[0.0], [2.0], [2.0]]])
        for build, shapes in cases:
            check_gradients(build, [rng.normal(size=s) for s in shapes], tol=1e-4)

    def test_segment_mean_equals_mean_of_each_group(self):
        x = t(np.random.default_rng(32).normal(size=(6, 5)))
        out = nc.segment_mean(x, [1, 3, 0, 2])
        for row, (start, end) in zip(out.values, [(0, 1), (1, 4), (4, 4), (4, 6)]):
            want = (nc.mean(t(x.values[start:end]), axis=0).values if end > start
                    else np.zeros(5, dtype=np.float32))
            assert row.tobytes() == want.tobytes()
        for counts in ([1, 3], [2, -1, 5], [[6]]):
            with pytest.raises(ShapeError):
                nc.segment_mean(x, counts)

    def test_dropout_draw_then_apply(self):
        """The draw is one rng.random(shape) < keep, scaled by 1/keep."""
        rng, ref = np.random.default_rng(33), np.random.default_rng(33)
        mask = nc.dropout_mask((5, 1), 0.3, rng)
        keep = np.float32(0.7)
        assert mask.tobytes() == ((ref.random((5, 1)) < 0.7).astype(np.float32) / keep).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        x = t(np.ones((5, 3)))
        assert np.array_equal(nc.dropout(x, mask).values, np.repeat(mask, 3, axis=1))
        with pytest.raises(ShapeError):
            nc.dropout(x, np.ones((3, 1), dtype=np.float32))
        with pytest.raises(ContractError):
            nc.dropout_mask((2,), 1.0, rng)


def sublayer_attention(xq, xkv, wq, wk, wv, wo, heads, record=None, mask=None):
    """The fused attention op without its residual add, as one tape node:
    the oracle whose input plus output `nc.attention` must equal."""
    xqv, xkvv = xq.values, xkv.values
    lead, tq, tk, d = xqv.shape[:-2], xqv.shape[-2], xkvv.shape[-2], wq.values.shape[1]
    q, k, v = xqv @ wq.values, xkvv @ wk.values, xkvv @ wv.values
    qh, kh, vh = nc._heads(q, heads), nc._heads(k, heads), nc._heads(v, heads)
    dtype = np.result_type(q, k, v)
    weights, weights_h = nc._key_major(tk, lead, heads, tq, dtype)
    np.matmul(kh, np.ascontiguousarray(qh.swapaxes(-1, -2)), out=weights_h)
    c = dtype.type(1.0 / math.sqrt(d // heads))
    weights *= c
    if mask is not None:
        weights[~mask.transpose((mask.ndim - 1,) + tuple(range(mask.ndim - 1)))] = -np.inf
    nc._softmax_keys(weights)
    if record is not None:
        record.append(np.ascontiguousarray(weights_h.swapaxes(-1, -2)))
    out = np.empty(lead + (tq, d), dtype)
    np.matmul(weights_h.swapaxes(-1, -2), vh, out=nc._heads(out, heads))

    def back(g):
        if wo.requires_grad:
            wo.take_grad(nc._weight_grad(out, g))
        g_out = nc._heads(g @ nc._transposed(wo), heads)
        g_scores, g_scores_h = nc._key_major(tk, lead, heads, tq, dtype)
        np.matmul(vh, np.ascontiguousarray(g_out.swapaxes(-1, -2)), out=g_scores_h)
        nc._softmax_keys_grad(weights, g_scores)
        g_scores *= c
        g_q = np.empty(lead + (tq, d), dtype)
        np.matmul(g_scores_h.swapaxes(-1, -2), kh, out=nc._heads(g_q, heads))
        g_kv = np.empty(lead + (tk, 2 * d), dtype)
        np.matmul(g_scores_h, qh, out=nc._heads(g_kv[..., :d], heads))
        np.matmul(weights_h, g_out, out=nc._heads(g_kv[..., d:], heads))
        if wq.requires_grad:
            wq.take_grad(nc._weight_grad(xqv, g_q))
        if xq.requires_grad:
            xq.take_grad(g_q @ nc._transposed(wq))
        if wk.requires_grad or wv.requires_grad:
            g_wkv = nc._weight_grad(xkvv, g_kv)
            for w, g_w in ((wk, g_wkv[:, :d]), (wv, g_wkv[:, d:])):
                if w.requires_grad:
                    w.take_grad(g_w)
        if xkv.requires_grad:
            # [g_k | g_v] @ [wk^T; wv^T]: one product for both input gradients
            xkv.take_grad(g_kv @ np.concatenate((nc._transposed(wk), nc._transposed(wv))))

    return nc._result(out @ wo.values, (xq, xkv, wq, wk, wv, wo), back)


def sublayer_ffn(x, w1, w2):
    """The fused feed-forward op without its residual add (the oracle)."""
    h = x.values @ w1.values
    np.maximum(h, 0, out=h)

    def back(g):
        if w2.requires_grad:
            w2.take_grad(nc._weight_grad(h, g))
        g_h = np.matmul(g, nc._transposed(w2))
        g_h *= h > 0
        if w1.requires_grad:
            w1.take_grad(nc._weight_grad(x.values, g_h))
        if x.requires_grad:
            x.take_grad(np.matmul(g_h, nc._transposed(w1)))

    return nc._result(h @ w2.values, (x, w1, w2), back)


class TestResidualSubBlocks:
    """`attention` and `ffn` equal their input plus the sub-layer op, as a
    separate `add` node used to make them, byte for byte in values, in the
    recorded weights and in every input and weight gradient."""

    @staticmethod
    def run(op, arrays, dtype, self_attn=False, **kwargs):
        leaves = [nc.Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        ins = [leaves[0]] + leaves if self_attn else leaves
        out = op(*ins, **kwargs)
        probe = np.random.default_rng(5).normal(size=out.shape).astype(dtype)
        nc.backward(nc.sum_(nc.mul(out, nc.constant(probe))))
        return [out.values.tobytes()] + [x.grad.tobytes() for x in leaves]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["mask", "no_mask", "record", "xq_is_xkv"])
    def test_attention_equals_input_plus_sublayer(self, dtype, case):
        rng = np.random.default_rng(71)
        d, heads = 8, 2
        arrays = [rng.normal(size=(3, 5, d)), rng.normal(size=(3, 7, d))]
        arrays += [0.5 * rng.normal(size=(d, d)) for _ in range(4)]
        mask = None
        if case == "mask":
            mask = np.ones((3, 7), dtype=bool)
            mask[0, 4:] = False
            mask[2, ::2] = False
        self_attn = case == "xq_is_xkv"
        if self_attn:
            del arrays[1]
        records = {}

        def op(fn, key):
            def build(xq, xkv, *w):
                record = records.setdefault(key, []) if case == "record" else None
                if fn is nc.attention:
                    return nc.attention(xq, xkv, *w, heads=heads, record=record, mask=mask)
                return nc.add(xq, fn(xq, xkv, *w, heads=heads, record=record, mask=mask))
            return build

        got = self.run(op(nc.attention, "got"), arrays, dtype, self_attn)
        want = self.run(op(sublayer_attention, "want"), arrays, dtype, self_attn)
        assert got == want
        if case == "record":
            assert records["got"][0].tobytes() == records["want"][0].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
    def test_attention_by_episode_equals_repeated_queries(self, dtype, masked):
        """The per-episode form gives the values and recorded weights of its
        repeat/concat oracle byte for byte, and its gradients within
        rounding: it sums over each episode's steps before the products."""
        rng = np.random.default_rng(79)
        d, heads = 8, 2
        arrays = [rng.normal(size=(3, 4, d)), rng.normal(size=(6, 7, d))]
        arrays += [0.5 * rng.normal(size=(d, d)) for _ in range(4)]
        mask = EPISODE_MASK if masked else None
        runs = []
        for op in (nc.attention, attention_by_repeat):
            record = []
            got = self.run(lambda *ts: op(*ts, heads=heads, record=record, mask=mask,
                                          counts=EPISODE_COUNTS), arrays, dtype)
            runs.append((got, record[0].tobytes()))
        (got, got_record), (want, want_record) = runs
        assert got[0] == want[0] and got_record == want_record
        tol = 1e-6 if dtype == np.float32 else 1e-12
        for a, b in zip(got[1:], want[1:]):
            a, b = np.frombuffer(a, dtype), np.frombuffer(b, dtype)
            assert np.abs(a - b).max() <= tol * np.abs(b).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ffn_equals_input_plus_sublayer(self, dtype):
        rng = np.random.default_rng(73)
        arrays = [rng.normal(size=(3, 5, 8)), 0.5 * rng.normal(size=(8, 6)),
                  0.5 * rng.normal(size=(6, 8))]
        got = self.run(nc.ffn, arrays, dtype)
        want = self.run(lambda x, w1, w2: nc.add(x, sublayer_ffn(x, w1, w2)), arrays, dtype)
        assert got == want


def out_of_place_softmax(x, axis=-1):
    """The softmax formula as written before it worked in place, with the
    kernels' key sum: the keys added one after another in x's dtype."""
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    keys = np.moveaxis(e, axis, 0)
    total = keys[0].copy()
    for row in keys[1:]:
        total += row
    return e / np.expand_dims(total, axis)


class TestKernels:
    """The in-place, key-major and contiguous-transpose kernels against the
    formulas they replace: forward values bit for bit, gradients within
    float32 tolerance, scatter gradients bit for bit."""

    def test_row_max_and_softmax_bitwise(self):
        rng = np.random.default_rng(51)
        for shape in ((7, 38), (3, 4, 5, 38)):
            x = rng.normal(size=shape).astype(np.float32)
            x[..., 30:] = -np.inf                      # padded keys
            x.reshape(-1, shape[-1])[1, 3] = 0.0
            assert nc.softmax(t(x)).values.tobytes() == out_of_place_softmax(x).tobytes()
        y = rng.normal(size=(4, 6, 5)).astype(np.float32)
        for axis in (0, 1, -1):
            assert (nc.softmax(t(y), axis=axis).values.tobytes()
                    == out_of_place_softmax(y, axis).tobytes())

    @pytest.mark.parametrize("batch, tq, tk", [(1200, 22, 35), (2000, 13, 22)])
    def test_key_major_weights_equal_row_major_softmax_bitwise(self, batch, tq, tk):
        """The cross-modal shapes of a desk iteration (48 steps), with the
        batch grown to over 10^5 (step, head, query) rows: the key-major
        softmax, whose key sum runs down contiguous key rows, gives the
        row-major weights of the in-order key sum bit for bit."""
        rng = np.random.default_rng(61)
        d, heads = 64, 4
        mask = np.ones((batch, tk), dtype=bool)
        for b, n in enumerate(rng.integers(1, tk + 1, size=batch)):
            mask[b, n:] = False                        # padded keys
        xq = rng.normal(size=(batch, tq, d)).astype(np.float32)
        xkv = rng.normal(size=(batch, tk, d)).astype(np.float32)
        wq, wk = [(0.3 * rng.normal(size=(d, d))).astype(np.float32) for _ in range(2)]
        record = []
        nc.attention(t(xq), t(xkv), t(wq), t(wk), t(wk), t(wk), heads=heads,
                     record=record, mask=mask)

        def split(x):
            return x.reshape(x.shape[:2] + (heads, d // heads)).transpose(0, 2, 1, 3)

        q, k = split(xq @ wq), split(xkv @ wk)
        scores = (q @ k.transpose(0, 1, 3, 2)) * np.float32(1.0 / math.sqrt(d // heads))
        weights = out_of_place_softmax(
            np.where(mask[:, None, None, :], scores, np.float32(-np.inf)))
        assert batch * heads * tq >= 10 ** 5
        assert record[0].tobytes() == weights.tobytes()

    def test_masked_attention_equals_where_then_softmax_bitwise(self):
        rng = np.random.default_rng(53)
        d, heads, tq, tk = 16, 4, 6, 9
        mask = np.ones((4, tk), dtype=bool)
        mask[0, 5:] = False
        mask[1, 1:] = False
        mask[3, ::2] = False                           # mask[2] keeps every key
        xq = rng.normal(size=(4, tq, d)).astype(np.float32)
        xkv = rng.normal(size=(4, tk, d)).astype(np.float32)
        wq, wk, wv, wo = [(0.5 * rng.normal(size=(d, d))).astype(np.float32) for _ in range(4)]
        record = []
        out = nc.attention(t(xq), t(xkv), t(wq), t(wk), t(wv), t(wo), heads=heads,
                           record=record, mask=mask)

        def split(x):
            return x.reshape(x.shape[:2] + (heads, d // heads)).transpose(0, 2, 1, 3)

        q, k, v = split(xq @ wq), split(xkv @ wk), split(xkv @ wv)
        scores = (q @ k.transpose(0, 1, 3, 2)) * np.float32(1.0 / math.sqrt(d // heads))
        weights = out_of_place_softmax(
            np.where(mask[:, None, None, :], scores, np.float32(-np.inf)))
        want = xq + (weights @ v).transpose(0, 2, 1, 3).reshape(4, tq, d) @ wo
        assert record[0].tobytes() == weights.tobytes()
        assert out.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tq, tk", [(22, 35), (13, 22)])
    def test_float32_key_sums_stay_within_their_bound(self, tq, tk):
        """At the cross-modal shapes of a desk iteration (48 steps, padded
        keys), the weights of the float32 key sum are within (tk + 2) * 2^-24
        relative of the float64-sum formula's: tk * 2^-24 for the sum of tk
        non-negative terms, plus one rounding per quotient. Every row of
        kept keys sums to 1 within 1e-6."""
        rng = np.random.default_rng(67)
        batch, d, heads = 48, 64, 4
        mask = np.ones((batch, tk), dtype=bool)
        for b, n in enumerate(rng.integers(1, tk + 1, size=batch)):
            mask[b, n:] = False                        # padded keys
        mask[::5, 0] = False                           # and a masked first key
        mask[::5, -1] = True
        xq = rng.normal(size=(batch, tq, d)).astype(np.float32)
        xkv = rng.normal(size=(batch, tk, d)).astype(np.float32)
        # scores of about unit scale, so that many keys share the weight
        wq, wk = [(0.1 * rng.normal(size=(d, d))).astype(np.float32) for _ in range(2)]
        record = []
        nc.attention(t(xq), t(xkv), t(wq), t(wk), t(wk), t(wk), heads=heads,
                     record=record, mask=mask)

        def split(x):
            return x.reshape(x.shape[:2] + (heads, d // heads)).transpose(0, 2, 1, 3)

        q, k = split(xq @ wq), split(xkv @ wk)
        scores = (q @ k.transpose(0, 1, 3, 2)) * np.float32(1.0 / math.sqrt(d // heads))
        scores = np.where(mask[:, None, None, :], scores, np.float32(-np.inf))
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        got = record[0]
        assert np.median(mask.sum(axis=1)) > tk / 3
        assert np.all(got[~np.broadcast_to(mask[:, None, None, :], got.shape)] == 0.0)
        err = np.abs(got.astype(np.float64) - want) / np.where(want > 0, want, 1.0)
        assert err.max() <= (tk + 2) * 2.0 ** -24
        assert np.abs(got.sum(axis=-1, dtype=np.float64) - 1.0).max() <= 1e-6

    def test_masked_attention_keeps_negative_zero_scores_bitwise(self):
        """Query 0 scores 2^-75 * -2^-74 = -2^-149 against every key of head 0,
        which the 1/2 scale rounds to -0.0; the weights of those kept -0.0
        scores equal the row-major softmax of np.where(mask, scores, -inf)."""
        rng = np.random.default_rng(59)
        d, heads, tq, tk = 16, 4, 3, 7
        mask = np.ones((2, tk), dtype=bool)
        mask[0, 4:] = False
        xq = rng.normal(size=(2, tq, d)).astype(np.float32)
        xkv = rng.normal(size=(2, tk, d)).astype(np.float32)
        xq[:, 0, :4] = [2.0 ** -75, 0.0, 0.0, 0.0]
        xkv[:, :, 0] = -(2.0 ** -74)
        eye = np.eye(d, dtype=np.float32)
        record = []
        nc.attention(t(xq), t(xkv), t(eye), t(eye), t(eye), t(eye), heads=heads,
                     record=record, mask=mask)

        def split(x):
            return x.reshape(x.shape[:2] + (heads, d // heads)).transpose(0, 2, 1, 3)

        scores = (split(xq) @ split(xkv).transpose(0, 1, 3, 2)) * np.float32(0.5)
        kept = scores[:, 0, 0][mask]
        assert (kept == 0).all() and np.signbit(kept).all()
        weights = out_of_place_softmax(
            np.where(mask[:, None, None, :], scores, np.float32(-np.inf)))
        assert record[0].tobytes() == weights.tobytes()

    def test_input_gradients_match_float64(self):
        """Input and weight gradients (for attention: xq, xkv, wq, wk, wv, wo)."""
        rng = np.random.default_rng(57)
        x = rng.normal(size=(5, 7, 8))
        kv = rng.normal(size=(5, 9, 8))
        w = [0.5 * rng.normal(size=(8, 8)) for _ in range(4)]
        w1, w2 = 0.5 * rng.normal(size=(8, 12)), 0.5 * rng.normal(size=(12, 8))
        probe = rng.normal(size=(5, 7, 8))
        cases = [
            (lambda ts: nc.matmul(ts[0], ts[1]), [x, w[0]]),
            (lambda ts: nc.attention(ts[0], ts[1], *ts[2:], heads=2), [x, kv] + w),
            (lambda ts: nc.attention(ts[0], ts[0], *ts[1:], heads=2), [x] + w),
            (lambda ts: nc.ffn(*ts), [x, w1, w2]),
        ]
        for build, arrays in cases:
            grads = {}
            for dtype in (np.float32, np.float64):
                ts = [nc.Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
                nc.backward(nc.sum_(nc.mul(build(ts), nc.constant(probe.astype(dtype)))))
                grads[dtype] = [x.grad for x in ts]
            for g32, g64 in zip(grads[np.float32], grads[np.float64]):
                assert g32.dtype == np.float32
                assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()

    def test_taken_gradients_sum_and_stay_unshared(self, monkeypatch):
        """take_grad keeps a first gradient uncopied and changes nothing else:
        a tensor read twice by matmul, and one read by attention as queries
        and keys, get the gradients that copying each handed-over one gives,
        bit for bit. backward releases every interior gradient, and no
        leaf's grad shares memory with another's."""
        rng = np.random.default_rng(63)
        d = 8
        arrays = ([rng.normal(size=(3, 5, d))]
                  + [0.5 * rng.normal(size=(d, d)) for _ in range(6)]
                  + [0.5 * rng.normal(size=(d, 12)), 0.5 * rng.normal(size=(12, d))])
        probe = t(rng.normal(size=(3, 5, d)))

        def run():
            leaves = [t(a, grad=True) for a in arrays]
            x, m1, m2, wq, wk, wv, wo, f1, f2 = leaves
            h = nc.matmul(x, m1)
            a = nc.add(nc.attention(h, h, wq, wk, wv, wo, heads=2), nc.matmul(x, m2))
            loss = nc.sum_(nc.mul(nc.ffn(a, f1, f2), probe))
            nc.backward(loss)
            return leaves, tape_nodes(loss)

        ours, nodes = run()
        interior = [n for n in nodes if n._backward is not None]
        assert len(interior) == 7 and all(n.grad is None for n in interior)
        assert_unshared([x.grad for x in ours])
        copy_every_gradient(monkeypatch)
        copied, _ = run()
        for a, b in zip(ours, copied):
            assert a.grad.tobytes() == b.grad.tobytes()

    def test_take_rows_grad_equals_scatter_add_bitwise(self):
        """Distinct indices are scattered by plain indexing, repeated ones by
        np.add.at; both equal np.add.at into zeros, bit for bit, also when
        the gradient accumulates over two gathers of one tensor."""
        rng = np.random.default_rng(59)
        cases = [([4, 0, 2], 0), ([[1, 3], [0, 4]], 0), ([-1, 0], 0),    # distinct
                 ([2, 0, 2, 2], 0), ([4, -1], 0), ([[1, 1], [0, 1]], 0),  # repeated
                 ([3, 0], 1), ([1, 1, 4], 1)]                            # along axis 1
        for indices, axis in cases:
            x = rng.normal(size=(5, 5, 3)).astype(np.float32)
            sel = (slice(None),) * axis + (np.asarray(indices),)
            probes = [rng.normal(size=x[sel].shape).astype(np.float32) for _ in range(2)]
            for gathers in (1, 2):
                xt = t(x, grad=True)
                loss = nc.sum_(nc.concat([nc.reshape(nc.mul(nc.take_rows(xt, indices, axis),
                                                            nc.constant(p)), (-1,))
                                          for p in probes[:gathers]]))
                nc.backward(loss)
                parts = []
                for p in probes[:gathers]:
                    acc = np.zeros_like(x)
                    np.add.at(acc, sel, p)
                    parts.append(acc)
                want = parts[0] if gathers == 1 else parts[0] + parts[1]
                assert xt.grad.tobytes() == want.tobytes(), (indices, axis, gathers)


def tape_nodes(loss):
    """Every tensor reachable from `loss` through recorded parents."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def assert_unshared(grads):
    assert all(g is not None for g in grads)
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


def copy_every_gradient(monkeypatch):
    """Make take_grad copy every gradient it is handed, as before gradients
    were handed over uncopied."""
    take = nc.Tensor.take_grad
    monkeypatch.setattr(nc.Tensor, "take_grad", lambda self, g: take(self, np.array(g)))


class TestGradientOwnership:
    """After backward every interior gradient is released, no two leaf
    gradients share memory, and each leaf gradient equals, bit for bit, the
    one a run that copies every handed-over gradient gives: a backward that
    hands g or views of it on uncopied never writes where another tensor
    reads."""

    CASES = {
        # both operands of an add need g: the first gets g, the second a copy
        "add_same_tensor": lambda x, w: nc.add(nc.add(x, x),
                                               nc.matmul(nc.add(nc.tanh(x), nc.tanh(x)), w)),
        "add_interior_twice": lambda x, w: nc.add(*[nc.matmul(x, w)] * 2),
        # disjoint views of g, two of them into one tensor
        "concat_same_tensor": lambda x, w: nc.matmul(nc.concat([x, nc.relu(x), x], axis=1), w),
        "concat_interior_twice": lambda x, w: nc.concat([nc.matmul(x, w)] * 2, axis=0),
        # a leaf adopts a transposed view of g, then more is added into it
        "reshape_transpose_chain": lambda x, w: nc.add(nc.add(nc.reshape(nc.transpose(
            nc.reshape(nc.transpose(x, (2, 0, 1)), (4, 15)), (1, 0)), (3, 5, 4)), x),
            nc.matmul(x, w)),
        # xq is xkv: the residual and the q and k/v input gradients add up
        "self_attention": lambda x, w: nc.attention(*[nc.matmul(x, w)] * 2, w, w, w, w, heads=2),
        "self_attention_leaf": lambda x, w: nc.ffn(nc.attention(x, x, w, w, w, w, heads=2),
                                                   w, w),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_interior_released_leaves_unshared_and_bitwise(self, case, monkeypatch):
        rng = np.random.default_rng(73)
        arrays = [rng.normal(size=(3, 5, 4)), 0.5 * rng.normal(size=(4, 4))]

        def run():
            x, w = [t(a, grad=True) for a in arrays]
            out = self.CASES[case](x, w)
            probe = np.random.default_rng(5).normal(size=out.shape).astype(np.float32)
            loss = nc.sum_(nc.mul(out, nc.constant(probe)))
            nc.backward(loss)
            return [x, w], tape_nodes(loss)

        ours, nodes = run()
        assert all(n.grad is None for n in nodes if n._backward is not None)
        assert_unshared([x.grad for x in ours])
        copy_every_gradient(monkeypatch)
        copied, _ = run()
        for a, b in zip(ours, copied):
            assert a.grad.tobytes() == b.grad.tobytes()


class TestDeterminism:
    def test_same_seed_same_result(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            x = t(rng.normal(size=(4, 4)))
            y = nc.dropout(nc.softmax(x, axis=1),
                           nc.dropout_mask((4, 4), 0.2, np.random.default_rng(seed + 1)))
            return y.values.tobytes()

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestAdam:
    def test_frozen_group_untouched(self):
        store = nc.ParamStore()
        a = store.add("a", t([1.0, 2.0]), "base")
        b = store.add("b", t([3.0]), "imagination_encoder")
        before = a.values.tobytes()
        a.grad = np.ones_like(a.values)
        b.grad = np.ones_like(b.values)
        opt = nc.Adam(store)
        opt.step({"base": 0.0, "imagination_encoder": 0.1})
        assert a.values.tobytes() == before
        assert b.values[0] != 3.0

    def test_first_step_approx_lr(self):
        store = nc.ParamStore()
        x = store.add("x", t(5.0), "base")
        x.grad = np.asarray(1.0, dtype=np.float32)
        nc.Adam(store).step({"base": 0.1})
        assert abs(float(x.values) - 4.9) < 1e-4

    def test_missing_grad_raises(self):
        """The error names the parameter, and the step changes nothing."""
        store = nc.ParamStore()
        a = store.add("a", t([1.0, 2.0]), "base")
        store.add("b", t([3.0]), "imagination_encoder")
        a.grad = np.ones_like(a.values)
        opt = nc.Adam(store)
        with pytest.raises(ContractError, match="missing grad for 'b'"):
            opt.step({"base": 0.1, "imagination_encoder": 0.1})
        assert a.values.tolist() == [1.0, 2.0] and not opt.m["a"].any()
        assert opt.steps == {"base": 0, "imagination_encoder": 0}

    def test_five_step_trace_matches_reference(self):
        # independent reference Adam on f(x) = x^2 (grad 2x)
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        xr = 1.5
        m = v = 0.0
        ref = []
        for step in range(1, 6):
            g = 2 * xr
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            mhat = m / (1 - beta1 ** step)
            vhat = v / (1 - beta2 ** step)
            xr -= lr * mhat / (math.sqrt(vhat) + eps)
            ref.append(xr)

        store = nc.ParamStore()
        x = store.add("x", nc.Tensor(np.asarray(1.5, dtype=np.float64)), "base")
        opt = nc.Adam(store)
        got = []
        for _ in range(5):
            store.zero_grads()
            loss = nc.mul(x, x)
            nc.backward(loss)
            opt.step({"base": lr})
            got.append(float(x.values))
        assert np.abs(np.array(got) - np.array(ref)).max() < 1e-7

    SHAPES = {"a": ((3, 4), "base"), "b": ((), "base"), "c": ((5,), "imagination_encoder"),
              "d": ((2, 3), "base"), "e": ((4, 2), "imagination_encoder"),
              "f": ((6,), "type_embedding")}

    @staticmethod
    def reference_step(values, m, v, grads, steps, lr_by_group, groups,
                       beta1=0.9, beta2=0.999, eps=1e-8):
        """The per-tensor Adam update, one parameter at a time."""
        live = {g for g, lr in lr_by_group.items() if lr > 0.0}
        for g in live:
            steps[g] += 1
        for name in values:
            group = groups[name]
            if group not in live:
                continue
            lr, tstep = lr_by_group[group], steps[group]
            g32 = grads[name].astype(values[name].dtype, copy=False)
            m[name] *= beta1
            m[name] += (1.0 - beta1) * g32
            v[name] *= beta2
            v[name] += (1.0 - beta2) * (g32 * g32)
            mhat = m[name] / (1.0 - beta1 ** tstep)
            vhat = v[name] / (1.0 - beta2 ** tstep)
            values[name] -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(values[name].dtype)

    def store_and_reference(self, rng):
        store = nc.ParamStore()
        for name, (shape, group) in self.SHAPES.items():
            store.add(name, t(rng.normal(size=shape)), group)
        groups = {name: group for name, (_, group) in self.SHAPES.items()}
        ref = dict(values={n: p.values.copy() for n, p in store.items()},
                   m={n: np.zeros_like(p.values) for n, p in store.items()},
                   v={n: np.zeros_like(p.values) for n, p in store.items()},
                   steps=dict.fromkeys(store.groups(), 0), groups=groups)
        return store, ref

    def assert_equal_bytes(self, store, opt, ref):
        for name, p in store.items():
            assert p.values.tobytes() == ref["values"][name].tobytes(), name
            assert opt.m[name].tobytes() == ref["m"][name].tobytes(), name
            assert opt.v[name].tobytes() == ref["v"][name].tobytes(), name
        assert opt.steps == ref["steps"]

    def test_flat_buffers_equal_per_tensor_formula(self):
        """Several steps with a frozen group, changing learning rates and
        float64 gradients give the per-tensor formula's bytes."""
        rng = np.random.default_rng(81)
        store, ref = self.store_and_reference(rng)
        opt = nc.Adam(store)
        schedule = [
            {"base": 0.01, "imagination_encoder": 0.01, "type_embedding": 0.01},
            {"base": 0.0, "imagination_encoder": 0.02, "type_embedding": 0.02},
            {"base": 0.003, "imagination_encoder": 0.0, "type_embedding": 0.02},
            {"base": 0.05, "imagination_encoder": 0.001, "type_embedding": 0.0},
            {"base": 0.05, "imagination_encoder": 0.001, "type_embedding": 0.01},
        ]
        for i, lrs in enumerate(schedule):
            grads = {}
            for name, p in store.items():
                dtype = np.float64 if (i + len(name)) % 2 else np.float32
                grads[name] = rng.normal(size=p.values.shape).astype(dtype)
                p.grad = grads[name].copy()
            opt.step(lrs)
            self.reference_step(ref["values"], ref["m"], ref["v"], grads, ref["steps"], lrs,
                                ref["groups"])
            self.assert_equal_bytes(store, opt, ref)
        assert all(p.values.dtype == np.float32 for _, p in store.items())

    def test_in_place_writes_reach_the_flat_buffers(self):
        """Warm starts and resumes write into params[name].values and
        opt.m/opt.v in place; the next step reads what they wrote."""
        rng = np.random.default_rng(83)
        store, ref = self.store_and_reference(rng)
        opt = nc.Adam(store)
        for name, p in store.items():
            for arrays, held in ((ref["values"], p.values), (ref["m"], opt.m[name]),
                                 (ref["v"], opt.v[name])):
                arrays[name][...] = np.abs(rng.normal(size=held.shape))
                held[...] = arrays[name]
        opt.steps.update(base=3, imagination_encoder=1)
        ref["steps"].update(base=3, imagination_encoder=1)
        lrs = {"base": 0.01, "imagination_encoder": 0.02, "type_embedding": 0.03}
        grads = {name: rng.normal(size=p.values.shape).astype(np.float32)
                 for name, p in store.items()}
        for name, p in store.items():
            p.grad = grads[name]
        opt.step(lrs)
        self.reference_step(ref["values"], ref["m"], ref["v"], grads, ref["steps"], lrs,
                            ref["groups"])
        self.assert_equal_bytes(store, opt, ref)

    def test_group_with_mixed_dtypes_rejected(self):
        store = nc.ParamStore()
        store.add("a", t([1.0]), "base")
        store.add("b", nc.Tensor(np.ones(2)), "base")
        with pytest.raises(ContractError, match="'base'"):
            nc.Adam(store)
