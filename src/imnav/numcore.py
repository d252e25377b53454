"""Minimal dense-tensor core with tape-based reverse-mode autodiff.

Values are float32 by default (float64 is supported and propagates, which is
what the gradient-check tests use). Reductions accumulate in float64 and cast
back to the input dtype, with two exceptions that run in the values' dtype.
The softmax key sums of `softmax` and `attention` each add at most about 40
non-negative terms, so in float32 they are within tk * 2^-24 (2.4e-6 at 40
keys) relative of the exact sum, and a float64 cast cost about 5x the sum.
The sums over an episode's steps (`_segment_sum`, in `repeat`'s backward and
`attention`'s per-episode form) are one-hot products through BLAS, about a
tenth of the time of np.add.reduceat. A tape is just the implicit graph of
Tensor parents; `backward` walks it in reverse topological order. An op
records a tape node if and only if one of its inputs requires grad.

`attention` and `ffn` are fused residual sub-blocks: each records one tape
node for a whole transformer sub-block, residual add included, and computes
the values of its input plus the equivalent chain of single ops. Each adds
its input into its own fresh output buffer, and its backward adds the
residual gradient in place into the input gradient it computes. Both, like
`matmul` against a 2D weight, accept leading batch axes, so the steps of
every teacher-forced episode of a batch run as one pass; `attention`'s key
mask keeps the padding of shorter episodes out. When the queries of a step
are its episode's and also its first keys, as in the first cross-modal
layer, `attention(counts=)` takes them once per episode: it projects and
scores them once per episode, not once per step, and sums their gradients
over the steps before the products with the weights.

`action_logits` fuses the agent's action head the same way: the view and
stop scores of a batch of steps, their gather into each step's actions and
an optional -inf pad, as one tape node. It reads the views in place instead
of gathering them, and its float32 values are the single-op chain's bit for
bit.

`Adam` keeps each parameter group's values and moments in one flat buffer,
whose views the parameters and moment dicts hold, and updates a group in
one pass of elementwise operations over its gathered gradients.

Layout rule for the kernels: numpy multiplies a batched operand by a
transposed view on a slow path but by a contiguous copy through BLAS, so
every input gradient against a 2D weight multiplies by `_transposed(w)`,
and `attention` copies q^T and g_out^T before multiplying by them. Its
softmax works key-major, in one (tk, ..., heads, tq) buffer per pass, so
the scale, the -inf of a masked key, max subtraction, exp and key sum
each run over contiguous rows as long as all queries of all heads, and
every batched product reads or writes a (..., heads, tk, tq) view of that
buffer which BLAS takes as it is. Per-head operands are (..., heads, t, dh)
views of (..., t, d) rows (`_heads`), so the products write `o` and the
gradients of q, k and v by `out=` straight into their row layout. The
weights are bit-identical to the row-wise out-of-place formula whose key
sum adds the keys in order. The per-episode form writes its per-episode
scores and each step's own into that one buffer, and keeps the one softmax
and the one product with the values, so its float32 forward is
bit-identical to the per-step call's.

Gradient ownership rule: `backward` releases each interior node's gradient
as that node's backward takes it, so every backward owns the `g` it
receives, and only leaves keep their gradients. A backward hands `g`, views
of it or arrays it has just computed to `Tensor.take_grad`, which keeps a
first one uncopied, so no two tensors may be handed overlapping memory:
`add` copies `g` only for its second operand when both need it, and
`concat`, `reshape` and `transpose` pass disjoint views of `g`.

Op-result rule: an op hands `_result` the values it has just computed, and
`_result` wraps them as they are, without `Tensor.__init__`'s checks. Ops
compute only from the float32/float64 values of Tensors, so their values are
float already; a numpy scalar (from a full reduction or a scalar index)
becomes a 0-d array, and nothing is copied. `Tensor(values)` is for leaves
and constants: it turns lists and scalars into arrays and casts any
non-float array to float32, while float32/float64 arrays pass uncopied.
Ops keep their Python and numpy calls few, and do work only the backward
needs inside the backward.

Forward-kernel rule: the forward arithmetic of `mean`, `attention`'s plain
form, `ffn` and `action_logits` lives in array functions (`mean_forward`,
`attention_forward`, `ffn_forward`, `action_logits_forward`) that the ops
call and record. A caller that holds plain arrays, as greedy decoding
does, calls the same kernels on them, so its values are the ops' bit for
bit without a Tensor or closure per op.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, NumericGuardError, ShapeError

DEFAULT_DTYPE = np.float32
COSINE_EPS = 1e-8   # `cosine_similarity` raises on a norm at or below this


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad=False):
        if isinstance(values, (np.ndarray, np.generic)):
            arr = np.asarray(values)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(DEFAULT_DTYPE)
        else:
            arr = np.asarray(values, dtype=DEFAULT_DTYPE)
        self.values = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self):
        return float(self.values)

    def take_grad(self, g):
        """Add g, which the caller hands over, to this tensor's gradient:
        nothing else may hold g, so a first one of the values' dtype becomes
        the gradient uncopied, and a later one is added into it in place."""
        if self.grad is not None:
            self.grad += g
        elif type(g) is np.ndarray and g.dtype == self.values.dtype:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.values.dtype)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, grad={self.requires_grad})"


def constant(values):
    return Tensor(values, requires_grad=False)


def _result(values, parents, backward_fn):
    """Wrap an op's freshly computed float values (see the op-result rule in
    the module docstring) as its result, recording the tape edge when a
    parent requires grad."""
    out = Tensor.__new__(Tensor)
    out.values = values if type(values) is np.ndarray else np.asarray(values)
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad, out._parents, out._backward = True, parents, backward_fn
    else:
        out.requires_grad, out._parents, out._backward = False, (), None
    return out


def backward(loss):
    """Populate grads of all requires_grad leaves reachable from `loss`.

    Each interior node's gradient is released (set to None) as its backward
    takes it, so that backward owns the array and may hand it, or views of
    it, to its inputs uncopied; only leaves keep their gradients. Repeated
    calls without a grad reset accumulate into the leaves, matching the
    optimizer contract. `loss` must be a scalar produced by recorded ops.
    """
    if loss.values.ndim != 0 and loss.values.size != 1:
        raise ContractError(f"backward expects a scalar, got shape {loss.values.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss.take_grad(np.ones_like(loss.values))
    for node in reversed(topo):
        if node._backward is not None:
            g, node.grad = node.grad, None
            node._backward(g)


# ---------------------------------------------------------------------------
# core ops
# ---------------------------------------------------------------------------

def _transposed(w):
    """A 2D weight's transpose as a contiguous copy, for input gradients."""
    return np.ascontiguousarray(w.values.T)


def _weight_grad(x, g):
    """Gradient of a 2D weight w in x @ w, summed over x's leading batch axes."""
    return np.matmul(x.reshape(-1, x.shape[-1]).T, g.reshape(-1, g.shape[-1]))


def matmul(a, b):
    """np.matmul semantics for 2D, batched 3D (batch dims must match), or a
    batched (..., n, k) operand against a shared 2D (k, m) weight."""
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError("matmul needs >=2D operands")
    if a.values.shape[-1] != b.values.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.values.shape} @ {b.values.shape}")
    if a.values.ndim != b.values.ndim and b.values.ndim != 2:
        raise ShapeError("matmul operands must have equal rank, or a 2D right operand")
    vals = np.matmul(a.values, b.values)

    def back(g):
        if a.requires_grad:
            bt = _transposed(b) if b.values.ndim == 2 else np.swapaxes(b.values, -1, -2)
            a.take_grad(np.matmul(g, bt))
        if b.requires_grad:
            if b.values.ndim == 2:
                b.take_grad(_weight_grad(a.values, g))
            else:
                b.take_grad(np.matmul(np.swapaxes(a.values, -1, -2), g))

    return _result(vals, (a, b), back)


def add(a, b):
    """Elementwise add; `b` may also be broadcast over leading axes of `a`,
    e.g. (N, d) + (d,) or (T, K, d) + (K, d)."""
    av, bv = a.values, b.values
    if av.shape == bv.shape:
        vals = av + bv

        def back(g):
            if a.requires_grad:
                a.take_grad(g)
            if b.requires_grad:
                b.take_grad(g.copy() if a.requires_grad else g)

    elif bv.ndim < av.ndim and av.shape[av.ndim - bv.ndim:] == bv.shape:
        vals = av + bv

        def back(g):
            if a.requires_grad:
                a.take_grad(g)
            if b.requires_grad:
                lead = tuple(range(av.ndim - bv.ndim))
                b.take_grad(g.sum(axis=lead, dtype=np.float64).astype(bv.dtype))

    else:
        raise ShapeError(f"add shapes incompatible: {av.shape} + {bv.shape}")
    return _result(vals, (a, b), back)


def sub(a, b):
    return add(a, scale(b, -1.0))


def mul(a, b):
    """Elementwise product with numpy broadcasting, e.g. (N, d) * (d,) or
    (T, n, 1) * (1, 1)."""
    av, bv = a.values, b.values
    try:
        np.broadcast_shapes(av.shape, bv.shape)
    except ValueError:
        raise ShapeError(f"mul shapes incompatible: {av.shape} * {bv.shape}") from None
    vals = av * bv

    def back(g):
        if a.requires_grad:
            ga = g * bv
            if ga.shape != av.shape:
                ga = _reduce_to(ga, av.shape, av.dtype)
            a.take_grad(ga)
        if b.requires_grad:
            gb = g * av
            if gb.shape != bv.shape:
                gb = _reduce_to(gb, bv.shape, bv.dtype)
            b.take_grad(gb)

    return _result(vals, (a, b), back)


def _reduce_to(g, shape, dtype):
    while g.ndim > len(shape):
        g = g.sum(axis=0, dtype=np.float64)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True, dtype=np.float64)
    return g.astype(dtype)


def scale(a, c):
    c = float(c)
    vals = a.values * np.asarray(c, dtype=a.values.dtype)

    def back(g):
        if a.requires_grad:
            a.take_grad(g * np.asarray(c, dtype=a.values.dtype))

    return _result(vals, (a,), back)


def relu(a):
    vals = np.maximum(a.values, 0)

    def back(g):
        if a.requires_grad:
            a.take_grad(g * (a.values > 0))

    return _result(vals, (a,), back)


def sigmoid(a):
    vals = 1.0 / (1.0 + np.exp(-a.values))

    def back(g):
        if a.requires_grad:
            a.take_grad(g * vals * (1.0 - vals))

    return _result(vals, (a,), back)


def tanh(a):
    vals = np.tanh(a.values)

    def back(g):
        if a.requires_grad:
            a.take_grad(g * (1.0 - vals * vals))

    return _result(vals, (a,), back)


def _softmax_keys(s):
    """Stabilized softmax over axis 0, the keys, computed in s's own buffer,
    which the caller owns: subtract the max over keys, exp, divide by the
    key sum. -inf entries get weight exactly 0. The sum of the tk
    non-negative exps runs in s's dtype, not float64: in float32 it is
    within tk * 2^-24 relative of the exact sum, so each weight is within
    (tk + 2) * 2^-24 relative of the float64-sum weight (two more roundings,
    one per quotient)."""
    s -= s.max(axis=0)
    np.exp(s, out=s)
    s /= s.sum(axis=0)
    return s


def _softmax_keys_grad(w, g):
    """The input gradient w * (g - sum over keys of g * w) of key-major
    weights w, computed in g's own buffer, which the caller owns; the key
    sum runs in g's dtype, as in `_softmax_keys`."""
    g -= (g * w).sum(axis=0)
    g *= w
    return g


def softmax(a, axis=-1):
    """Stabilized softmax. -inf entries get weight exactly 0."""
    keys = _softmax_keys(np.moveaxis(a.values, axis, 0).copy())

    def back(g):
        if a.requires_grad:
            g_keys = _softmax_keys_grad(keys, np.moveaxis(g, axis, 0).copy())
            a.take_grad(np.moveaxis(g_keys, 0, axis))

    return _result(np.moveaxis(keys, 0, axis), (a,), back)


def dropout_mask(shape, rate, rng, train=True):
    """The draw step of inverted dropout: per entry 1/keep where
    rng.random(shape) < keep, else 0. None, drawing nothing, at eval or
    rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0,1), got {rate}")
    if not train or rate == 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(DEFAULT_DTYPE) / np.asarray(keep, dtype=DEFAULT_DTYPE)


def dropout(a, mask):
    """The apply step of inverted dropout: `a` times multipliers from
    `dropout_mask`, which may broadcast over a's trailing axes of size 1.
    A None mask is the identity."""
    if mask is None:
        return a
    shape = a.values.shape
    if mask.ndim != len(shape) or any(m not in (1, n) for m, n in zip(mask.shape, shape)):
        raise ShapeError(f"dropout mask {mask.shape} does not broadcast to {a.values.shape}")
    vals = a.values * mask

    def back(g):
        if a.requires_grad:
            a.take_grad(g * mask)

    return _result(vals, (a,), back)


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of empty list")
    vals = np.concatenate([t.values for t in tensors], axis=axis)

    def back(g):
        idx = [slice(None)] * g.ndim
        start = 0
        for t in tensors:
            end = start + t.values.shape[axis]
            if t.requires_grad:
                idx[axis] = slice(start, end)
                t.take_grad(g[tuple(idx)])
            start = end

    return _result(vals, tuple(tensors), back)


def mean_forward(x, axis=None):
    """The arithmetic of `mean` on an array."""
    n = x.size if axis is None else x.shape[axis]
    return (np.add.reduce(x, axis=axis, dtype=np.float64) / n).astype(x.dtype)


def mean(a, axis=None):
    """Mean with float64 accumulation: the float64 sum divided by the count,
    which is what np.mean(dtype=np.float64) computes."""
    n = a.values.size if axis is None else a.values.shape[axis]
    vals = mean_forward(a.values, axis)

    def back(g):
        if a.requires_grad:
            if axis is None:
                a.take_grad(np.full_like(a.values, g / n))
            else:
                a.take_grad(np.repeat(np.expand_dims(g, axis) / n, a.values.shape[axis], axis=axis))

    return _result(vals, (a,), back)


def segment_mean(a, counts):
    """Means of consecutive row groups: row i is the mean of the next
    counts[i] rows of `a` (a zero row for an empty group), each accumulated
    in float64 exactly as `mean(rows, axis=0)`."""
    counts = np.asarray(counts, dtype=np.intp)
    if counts.ndim != 1 or counts.min(initial=0) < 0 or counts.sum() != a.values.shape[0]:
        raise ShapeError(f"segment_mean needs counts >= 0 summing to {a.values.shape[0]}, "
                         f"got {counts}")
    ends = np.cumsum(counts)
    vals = np.zeros((len(counts),) + a.values.shape[1:], dtype=a.values.dtype)
    for i, (start, end) in enumerate(zip(ends - counts, ends)):
        if end > start:
            vals[i] = a.values[start:end].mean(axis=0, dtype=np.float64)

    def back(g):
        if a.requires_grad:
            sizes = np.maximum(counts, 1).astype(g.dtype).reshape((-1,) + (1,) * (g.ndim - 1))
            a.take_grad(np.repeat(g / sizes, counts, axis=0))

    return _result(vals, (a,), back)


def sum_(a, axis=None):
    vals = a.values.sum(axis=axis, dtype=np.float64).astype(a.values.dtype)

    def back(g):
        if a.requires_grad:
            if axis is None:
                a.take_grad(np.full_like(a.values, g))
            else:
                a.take_grad(np.repeat(np.expand_dims(g, axis), a.values.shape[axis], axis=axis))

    return _result(vals, (a,), back)


def l2_norm(a):
    sq = (a.values.astype(np.float64) ** 2).sum()
    nrm = np.sqrt(sq).astype(a.values.dtype)

    def back(g):
        if a.requires_grad:
            denom = max(float(nrm), 1e-30)
            a.take_grad(g * (a.values / np.asarray(denom, dtype=a.values.dtype)))

    return _result(nrm, (a,), back)


def cosine_similarity(a, b):
    """Cosines of every row of a (P, d) with every row of b (Q, d), as a
    (P, Q) matrix recorded as one tape node; 1D a and b give their scalar
    cosine (the P = Q = 1 case). Float64 inside, with a near-zero-norm guard."""
    av = np.atleast_2d(a.values).astype(np.float64)
    bv = np.atleast_2d(b.values).astype(np.float64)
    if a.values.ndim != b.values.ndim or av.ndim != 2 or av.shape[1] != bv.shape[1]:
        raise ShapeError("cosine_similarity needs two 1D vectors or two 2D row sets of "
                         f"equal width, got {a.values.shape}, {b.values.shape}")
    na = np.sqrt((av * av).sum(axis=1))
    nb = np.sqrt((bv * bv).sum(axis=1))
    if na.min() <= COSINE_EPS or nb.min() <= COSINE_EPS:
        raise NumericGuardError(f"cosine_similarity norm below guard: |a|={na.min():.3g} "
                                f"|b|={nb.min():.3g}")
    norms = np.outer(na, nb)
    c = np.matmul(av, bv.T) / norms
    vals = c.reshape(a.values.shape[:-1] + b.values.shape[:-1]).astype(a.values.dtype)

    def back(g):
        g64 = np.asarray(g, dtype=np.float64).reshape(c.shape)
        g_dot = g64 / norms
        g_c = g64 * c
        if a.requires_grad:
            ga = np.matmul(g_dot, bv) - (g_c.sum(axis=1) / (na * na))[:, None] * av
            a.take_grad(ga.reshape(a.values.shape).astype(a.values.dtype))
        if b.requires_grad:
            gb = np.matmul(g_dot.T, av) - (g_c.sum(axis=0) / (nb * nb))[:, None] * bv
            b.take_grad(gb.reshape(b.values.shape).astype(b.values.dtype))

    return _result(vals, (a, b), back)


def cross_entropy(logits, target):
    """-log softmax(logits)[target] along the last axis, stabilized by max
    subtraction: 1D logits and an int target give a scalar, (N, K) logits and
    N targets give N losses. -inf logits get probability exactly 0."""
    x = logits.values
    target = np.asarray(target, dtype=np.intp)
    if x.ndim not in (1, 2) or target.shape != x.shape[:-1]:
        raise ShapeError(f"cross_entropy expects 1D or 2D logits with one target per row, "
                         f"got shapes {x.shape} and {target.shape}")
    if target.min() < 0 or target.max() >= x.shape[-1]:
        raise IndexError(f"cross_entropy target {target} out of range for {x.shape[-1]} logits")
    pick = (np.arange(x.shape[0]), target) if x.ndim == 2 else (target,)
    x64 = x.astype(np.float64)
    z = x64 - x64.max(axis=-1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    vals = np.asarray(logsum[..., 0] - z[pick], dtype=x.dtype)
    probs = np.exp(z - logsum)

    def back(g):
        if logits.requires_grad:
            gl = probs.copy()
            gl[pick] -= 1.0
            logits.take_grad((np.asarray(g, dtype=np.float64)[..., None] * gl)
                                   .astype(x.dtype))

    return _result(vals, (logits,), back)


def take_rows(a, indices, axis=0):
    """Gather entries along `axis` (rows by default); backward scatter-adds,
    by plain indexing when no entry is gathered twice."""
    idx = np.asarray(indices, dtype=np.intp)
    lead = (slice(None),) * axis
    sel = lead + (idx,)
    vals = a.values[sel]

    def back(g):
        if a.requires_grad:
            acc = np.zeros_like(a.values)
            n = a.values.shape[len(lead)]
            if np.bincount((idx % n).ravel(), minlength=n).max(initial=0) <= 1:
                acc[sel] += g           # 0 + g per entry, exactly as np.add.at
            else:
                np.add.at(acc, sel, g)
            a.take_grad(acc)

    return _result(vals, (a,), back)


def _counts(counts, rows, what):
    """`counts` as an index array, checked to hold one count >= 1 per entry
    of `rows`, a 1-tuple of the row count."""
    counts = np.asarray(counts, dtype=np.intp)
    if counts.shape != rows or counts.min(initial=1) < 1:
        raise ShapeError(f"{what} needs one count >= 1 per row of {rows}, got {counts}")
    return counts


def _segment_sum(x, counts, axis=0):
    """Sums of consecutive groups of x's entries along `axis`, counts[b] of
    them in group b, as one product with a (B, sum(counts)) one-hot matrix
    in x's dtype; np.add.reduceat takes about ten times as long."""
    one_hot = np.repeat(np.eye(len(counts), dtype=x.dtype), counts, axis=1)
    lead = x.shape[:axis]
    sums = np.matmul(one_hot, x.reshape(lead + (x.shape[axis], -1)))
    return sums.reshape(lead + (len(counts),) + x.shape[axis + 1:])


def repeat(a, counts):
    """Row i of `a` repeated counts[i] >= 1 times along the leading axis; the
    backward sums each row's copies in the values' dtype (`_segment_sum`)."""
    counts = _counts(counts, a.values.shape[:1], "repeat")
    vals = np.repeat(a.values, counts, axis=0)

    def back(g):
        if a.requires_grad:
            a.take_grad(_segment_sum(g, counts))

    return _result(vals, (a,), back)


def reshape(a, shape):
    vals = a.values.reshape(shape)

    def back(g):
        if a.requires_grad:
            a.take_grad(g.reshape(a.values.shape))

    return _result(vals, (a,), back)


def transpose(a, axes):
    vals = a.values.transpose(axes)

    def back(g):
        if a.requires_grad:
            a.take_grad(g.transpose(np.argsort(axes)))

    return _result(vals, (a,), back)


# ---------------------------------------------------------------------------
# fused transformer ops
# ---------------------------------------------------------------------------

def _heads(rows, heads):
    """The (..., heads, t, dh) per-head view of (..., t, heads * dh) rows
    whose last axis is contiguous, so that splitting it is a view: writing
    to it writes the rows."""
    return rows.reshape(rows.shape[:-1] + (heads, -1)).swapaxes(-2, -3)


def _key_major(tk, lead, heads, tq, dtype):
    """An uninitialized key-major (tk, ..., heads, tq) buffer and its
    (..., heads, tk, tq) view."""
    buf = np.empty((tk,) + lead + (heads, tq), dtype)
    nb = len(lead)
    return buf, buf.transpose(tuple(range(1, nb + 2)) + (0, nb + 2))


def _attend(weights, weights_h, vh, wo, out_shape, heads, record):
    """The softmax over keys of the scaled, masked key-major scores in
    `weights`, in place, then the weighted values `out` (out_shape) and their
    output projection by the (d, d) array wo."""
    _softmax_keys(weights)
    if record is not None:
        record.append(np.ascontiguousarray(weights_h.swapaxes(-1, -2)))
    out = np.empty(out_shape, weights.dtype)
    np.matmul(weights_h.swapaxes(-1, -2), vh, out=_heads(out, heads))
    return out, out @ wo


def _attend_grad(g, out, weights, vh, wo, c, heads):
    """The backward of `_attend` and of the scale c: wo's gradient, then the
    per-head gradient of `out` and the key-major gradients of the unscaled
    scores with their (..., heads, tk, tq) view."""
    if wo.requires_grad:
        wo.take_grad(_weight_grad(out, g))
    g_out = _heads(g @ _transposed(wo), heads)
    g_scores, g_scores_h = _key_major(weights.shape[0], out.shape[:-2], heads, out.shape[-2],
                                      weights.dtype)
    np.matmul(vh, np.ascontiguousarray(g_out.swapaxes(-1, -2)), out=g_scores_h)
    _softmax_keys_grad(weights, g_scores)
    g_scores *= c
    return g_out, g_scores, g_scores_h


def attention_forward(xq, xkv, wq, wk, wv, wo, heads, mask=None, record=None):
    """The arithmetic of `attention`'s plain form on arrays, with shapes the
    caller has checked: the residual sub-block's (..., tq, d) values, and the
    arrays its backward reads, (qh, kh, vh, weights, weights_h, out, c)."""
    lead, tq, tk, d = xq.shape[:-2], xq.shape[-2], xkv.shape[-2], wq.shape[1]
    q, k, v = xq @ wq, xkv @ wk, xkv @ wv
    qh, kh, vh = _heads(q, heads), _heads(k, heads), _heads(v, heads)
    dtype = np.result_type(q, k, v)
    weights, weights_h = _key_major(tk, lead, heads, tq, dtype)
    np.matmul(kh, np.ascontiguousarray(qh.swapaxes(-1, -2)), out=weights_h)
    c = dtype.type(1.0 / math.sqrt(d // heads))
    weights *= c
    if mask is not None:
        weights[~mask.transpose((mask.ndim - 1,) + tuple(range(mask.ndim - 1)))] = -np.inf
    out, vals = _attend(weights, weights_h, vh, wo, lead + (tq, d), heads, record)
    vals += xq
    return vals, (qh, kh, vh, weights, weights_h, out, c)


def attention(xq, xkv, wq, wk, wv, wo, heads, record=None, mask=None, counts=None):
    """The residual attention sub-block xq + MHA(xq, xkv) of queries
    xq (..., tq, d) over keys/values xkv (..., tk, d): projections, scaled
    dot-product softmax, the output projection and the residual add,
    recorded as one tape node. Leading batch axes must match.
    `mask`, a boolean (..., tk) array, keeps only the keys it marks true: the
    others are set to -inf before the softmax, so they get weight exactly 0
    and their inputs gradient exactly 0. When `record` is a list it receives
    a copy of the (..., heads, tq, tk) attention weights.

    With `counts`, xq holds the queries of B episodes, (B, tq, d), and xkv
    the further keys of their steps, (sum(counts), tk', d), counts[b] >= 1
    consecutive steps from episode b. Each step's queries are its episode's
    xq, and its keys are those queries then its own xkv rows; `mask` is the
    (B, tq) mask of the query keys. The result, the recorded weights and the
    gradients are those of the call on `repeat(xq, counts)` and
    `concat([repeat(xq, counts), xkv], axis=1)`, but the query, the query
    keys and values and their scores are computed once per episode, and
    their gradients are summed over the episode's steps before the products
    with the weights and the input gradient. With OpenBLAS the float32
    values and weights are bit-identical to that call's."""
    d = wq.values.shape[1]
    if d % heads != 0:
        raise ShapeError(f"attention width {d} not divisible by {heads} heads")
    if counts is not None:
        return _episode_attention(xq, xkv, wq, wk, wv, wo, heads, record, mask, counts)
    xqv, xkvv = xq.values, xkv.values
    lead = xqv.shape[:-2]
    if xqv.ndim < 2 or xkvv.shape[:-2] != lead:
        raise ShapeError(f"attention batch axes differ: {xqv.shape} vs {xkvv.shape}")
    tq, tk = xqv.shape[-2], xkvv.shape[-2]
    if mask is not None and (mask.shape != lead + (tk,) or not mask.any(axis=-1).all()):
        raise ShapeError(f"attention key mask must be {lead + (tk,)} with a "
                         f"true entry per row, got {mask.shape}")
    vals, (qh, kh, vh, weights, weights_h, out, c) = attention_forward(
        xqv, xkvv, wq.values, wk.values, wv.values, wo.values, heads, mask, record)
    dtype = weights.dtype

    def back(g):
        g_out, g_scores, g_scores_h = _attend_grad(g, out, weights, vh, wo, c, heads)
        g_q = np.empty(lead + (tq, d), dtype)
        np.matmul(g_scores_h.swapaxes(-1, -2), kh, out=_heads(g_q, heads))
        # [g_k | g_v] rows, so that wk and wv get their gradients from one product
        g_kv = np.empty(lead + (tk, 2 * d), dtype)
        np.matmul(g_scores_h, qh, out=_heads(g_kv[..., :d], heads))
        np.matmul(weights_h, g_out, out=_heads(g_kv[..., d:], heads))
        if wq.requires_grad:
            wq.take_grad(_weight_grad(xqv, g_q))
        if xq.requires_grad:
            g_xq = g_q @ _transposed(wq)
            g_xq += g               # the residual
            xq.take_grad(g_xq)
        if wk.requires_grad or wv.requires_grad:
            g_wkv = _weight_grad(xkvv, g_kv)
            for w, g_w in ((wk, g_wkv[:, :d]), (wv, g_wkv[:, d:])):
                if w.requires_grad:
                    w.take_grad(g_w)
        if xkv.requires_grad:
            xkv.take_grad(g_kv @ np.concatenate((_transposed(wk), _transposed(wv))))

    return _result(vals, (xq, xkv, wq, wk, wv, wo), back)


def _episode_attention(xq, xkv, wq, wk, wv, wo, heads, record, mask, counts):
    """`attention` with `counts`: the queries of an episode are also the first
    keys of each of its steps."""
    xqv, xkvv = xq.values, xkv.values
    if xqv.ndim != 3 or xkvv.ndim != 3:
        raise ShapeError(f"attention by episode needs (B, tq, d) queries and (steps, tk, d) "
                         f"keys, got {xqv.shape} and {xkvv.shape}")
    batch, tq, d = xqv.shape
    counts = _counts(counts, (batch,), "attention by episode")
    steps, tk = xkvv.shape[0], tq + xkvv.shape[1]
    if counts.sum() != steps:
        raise ShapeError(f"step counts {counts} do not sum to the {steps} key rows")
    if mask is not None and mask.shape != (batch, tq):
        raise ShapeError(f"attention query key mask must be {(batch, tq)}, got {mask.shape}")
    episode = np.repeat(np.arange(batch), counts)          # each step's episode
    # once per episode: q, the query keys and values, and their scores
    q, k_own, v_own = xqv @ wq.values, xqv @ wk.values, xqv @ wv.values
    k_step, v_step = xkvv @ wk.values, xkvv @ wv.values
    qh, kh_own, kh_step = _heads(q, heads), _heads(k_own, heads), _heads(k_step, heads)
    dtype = np.result_type(q, k_own, v_own, k_step, v_step)
    q_t = np.ascontiguousarray(qh.swapaxes(-1, -2))
    own, own_h = _key_major(tq, (batch,), heads, tq, dtype)
    np.matmul(kh_own, q_t, out=own_h)
    c = dtype.type(1.0 / math.sqrt(d // heads))
    own *= c
    if mask is not None:
        own[~mask.T] = -np.inf
    # per step: the episode's scores, then those of the step's own keys
    weights, weights_h = _key_major(tk, (steps,), heads, tq, dtype)
    np.take(own, episode, axis=1, out=weights[:tq], mode="clip")
    np.matmul(kh_step, q_t[episode], out=weights_h[..., tq:, :])
    weights[tq:] *= c
    v = np.empty((steps, tk, d), dtype)
    np.take(v_own, episode, axis=0, out=v[:, :tq], mode="clip")
    v[:, tq:] = v_step
    vh = _heads(v, heads)
    out, vals = _attend(weights, weights_h, vh, wo.values, (steps, tq, d), heads, record)
    vals += xqv[episode]

    def back(g):
        g_out, g_scores, g_scores_h = _attend_grad(g, out, weights, vh, wo, c, heads)
        # the query keys' score gradients, summed over each episode's steps
        own_gh = _segment_sum(g_scores[:tq], counts, axis=1).transpose(1, 2, 0, 3)
        # per step: g_q from the step's keys | g_v of the query keys | the residual
        per_step = np.empty((steps, tq, 3 * d), dtype)
        np.matmul(g_scores_h[..., tq:, :].swapaxes(-1, -2), kh_step,
                  out=_heads(per_step[..., :d], heads))
        np.matmul(weights_h[..., :tq, :], g_out, out=_heads(per_step[..., d:2 * d], heads))
        per_step[..., 2 * d:] = g
        summed = _segment_sum(per_step, counts)
        # [g_q | g_k | g_v] rows of xq, so that one product gives the
        # gradients of wq, wk and wv, and one more that of xq
        g_qkv = np.empty((batch, tq, 3 * d), dtype)
        np.matmul(own_gh.swapaxes(-1, -2), kh_own, out=_heads(g_qkv[..., :d], heads))
        g_qkv[..., :d] += summed[..., :d]
        np.matmul(own_gh, qh, out=_heads(g_qkv[..., d:2 * d], heads))
        g_qkv[..., 2 * d:] = summed[..., d:2 * d]
        g_kv = np.empty((steps, tk - tq, 2 * d), dtype)       # [g_k | g_v] rows of xkv
        np.matmul(g_scores_h[..., tq:, :], _heads(q[episode], heads),
                  out=_heads(g_kv[..., :d], heads))
        np.matmul(weights_h[..., tq:, :], g_out, out=_heads(g_kv[..., d:], heads))
        if wq.requires_grad or wk.requires_grad or wv.requires_grad:
            g_w = _weight_grad(xqv, g_qkv)
            g_w[:, d:] += _weight_grad(xkvv, g_kv)
            for i, w in enumerate((wq, wk, wv)):
                if w.requires_grad:
                    w.take_grad(g_w[:, i * d:(i + 1) * d])
        w_t = np.concatenate((_transposed(wq), _transposed(wk), _transposed(wv)))
        if xq.requires_grad:
            g_xq = g_qkv @ w_t
            g_xq += summed[..., 2 * d:]     # the residual
            xq.take_grad(g_xq)
        if xkv.requires_grad:
            xkv.take_grad(g_kv @ w_t[d:])

    return _result(vals, (xq, xkv, wq, wk, wv, wo), back)


def ffn_forward(x, w1, w2):
    """The arithmetic of `ffn` on arrays: x + relu(x @ w1) @ w2, and the
    relu rows h its backward reads."""
    h = x @ w1
    np.maximum(h, 0, out=h)
    vals = h @ w2
    vals += x
    return vals, h


def ffn(x, w1, w2):
    """The residual feed-forward sub-block x + relu(x @ w1) @ w2, recorded as
    one tape node; x is (..., n, d)."""
    vals, h = ffn_forward(x.values, w1.values, w2.values)

    def back(g):
        if w2.requires_grad:
            w2.take_grad(_weight_grad(h, g))
        if w1.requires_grad or x.requires_grad:
            g_h = np.matmul(g, _transposed(w2))
            g_h *= h > 0
            if w1.requires_grad:
                w1.take_grad(_weight_grad(x.values, g_h))
            if x.requires_grad:
                g_x = np.matmul(g_h, _transposed(w1))
                g_x += g            # the residual
                x.take_grad(g_x)

    return _result(vals, (x, w1, w2), back)


def action_logits_forward(v, act_w, stop_w, index, pad=None):
    """The arithmetic of `action_logits` on arrays: the logits of the
    (ΣT, n, d) rows v at the flat score positions of the index array
    `index`, plus `pad` when given, and the arrays its backward reads,
    (views, hist, c)."""
    steps, n, d = v.shape
    views, hist = v[:, 1:], v[:, :1]
    c = v.dtype.type(1.0 / math.sqrt(d))
    scores = np.empty((steps, n, 1), v.dtype)
    match = np.matmul(views, hist.transpose(0, 2, 1))
    match *= c
    np.add(match, np.matmul(views, act_w), out=scores[:, :-1])
    np.matmul(hist, stop_w, out=scores[:, -1:])
    vals = scores.reshape(steps * n)[index]
    if pad is not None:
        vals += pad
    return vals, (views, hist, c)


def action_logits(vis, act_w, stop_w, index, pad=None):
    """The action head over (ΣT, n, d) visual rows, row 0 of each step its
    history token h and rows 1.. its views v (none for a stop-only step),
    recorded as one tape node.
    Its scores are (v · h) · float32(1/√d) + v · act_w per view, then the
    stop score h · stop_w last, n per step; the logits are the flat scores
    at the (ΣT, A) positions `index`, plus `pad` (e.g. -inf on padding)
    when given. The products are those of the chain of single ops, in the
    same shapes and order, so the values are that chain's bit for bit; the
    views are read in place, not gathered. The backward scatter-adds the
    logits' gradient into the scores by np.add.at, so an index may repeat,
    as the stop index does on padding."""
    v = vis.values
    if v.ndim != 3 or v.shape[1] < 1:
        raise ShapeError(f"action_logits needs (steps, 1 + views, d) rows, got {v.shape}")
    steps, n, _ = v.shape
    index = np.asarray(index, dtype=np.intp)
    vals, (views, hist, c) = action_logits_forward(v, act_w.values, stop_w.values, index, pad)

    def back(g):
        g_flat = np.zeros(steps * n, g.dtype)
        np.add.at(g_flat, index, g)
        g_scores = g_flat.reshape(steps, n, 1)
        g_view, g_stop = g_scores[:, :-1], g_scores[:, -1:]
        if act_w.requires_grad:
            act_w.take_grad(_weight_grad(views, g_view))
        if stop_w.requires_grad:
            stop_w.take_grad(_weight_grad(hist, g_stop))
        if vis.requires_grad:
            g_match = g_view * c
            g_vis = np.empty_like(v)
            np.matmul(g_view, _transposed(act_w), out=g_vis[:, 1:])
            g_vis[:, 1:] += np.matmul(g_match, hist)
            np.matmul(g_match.transpose(0, 2, 1), views, out=g_vis[:, :1])
            g_vis[:, :1] += np.matmul(g_stop, _transposed(stop_w))
            vis.take_grad(g_vis)

    return _result(vals, (vis, act_w, stop_w), back)


# ---------------------------------------------------------------------------
# parameters and optimizer
# ---------------------------------------------------------------------------

class ParamStore:
    """Named trainable tensors, each tagged with a parameter group."""

    def __init__(self):
        self._params = {}   # name -> Tensor
        self._groups = {}   # name -> group

    def add(self, name, tensor, group):
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        self._params[name] = tensor
        self._groups[name] = group
        return tensor

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def group_of(self, name):
        return self._groups[name]

    def names(self):
        return list(self._params.keys())

    def items(self):
        return self._params.items()

    def groups(self):
        return sorted(set(self._groups.values()))

    def zero_grads(self):
        for t in self._params.values():
            t.grad = None


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction (`ADAM_BETA1`, `ADAM_BETA2`, `ADAM_EPS`);
    per-group step counters and learning rates.

    Each group's parameter values and moments live in one flat buffer per
    group, and every parameter's `.values`, `m[name]` and `v[name]` become
    views of it, so writes through them (warm starts, resumes) reach the
    buffers. A step gathers a live group's gradients into one preallocated
    buffer and runs the per-tensor update once over the whole group, into
    preallocated temporaries. Every operation is elementwise, so the bits
    are those of updating one tensor at a time. A group's parameters must
    share one dtype.

    Groups with lr == 0 are skipped entirely: no parameter writes, no moment
    updates, no step-count increment. A step missing a live gradient raises
    before it changes anything.
    """

    def __init__(self, store):
        self.store = store
        self.m, self.v, self._grads = {}, {}, {}
        self._flat = {}     # group -> (names, values, grads, m, v, two temporaries)
        for group in store.groups():
            names = [name for name in store.names() if store.group_of(name) == group]
            dtypes = {store[name].values.dtype for name in names}
            if len(dtypes) > 1:
                raise ContractError(f"Adam: group {group!r} mixes dtypes "
                                    f"{sorted(map(str, dtypes))}")
            flat = np.zeros((6, sum(store[name].values.size for name in names)), dtypes.pop())
            values, grads, m, v = flat[:4]
            start = 0
            for name in names:
                t = store[name]
                end = start + t.values.size
                values[start:end] = t.values.ravel()
                t.values = values[start:end].reshape(t.values.shape)
                for views, buf in ((self._grads, grads), (self.m, m), (self.v, v)):
                    views[name] = buf[start:end].reshape(t.values.shape)
                start = end
            self._flat[group] = (names, *flat)
        self.steps = {g: 0 for g in store.groups()}
        self._stepped = set()   # groups whose last step's gradients `_grads` holds

    def last_grad(self, name):
        """The gradient that the last step of `name`'s group applied to it, or
        None before that group's first step with this optimizer."""
        return self._grads[name] if self.store.group_of(name) in self._stepped else None

    def step(self, lr_by_group):
        live = [g for g, lr in lr_by_group.items() if lr > 0.0]
        for group in live:
            for name in self._flat[group][0]:
                g = self.store[name].grad
                if g is None:
                    raise ContractError(f"Adam.step: missing grad for {name!r}")
                np.copyto(self._grads[name], g, casting="same_kind")
        self._stepped.update(live)
        for group in live:
            _, values, grads, m, v, upd, den = self._flat[group]
            self.steps[group] += 1
            lr, tstep = lr_by_group[group], self.steps[group]
            # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) (g g)
            m *= ADAM_BETA1
            m += np.multiply(grads, 1.0 - ADAM_BETA1, out=upd)
            v *= ADAM_BETA2
            np.multiply(grads, grads, out=upd)
            v += np.multiply(upd, 1.0 - ADAM_BETA2, out=upd)
            # values -= lr mhat / (sqrt(vhat) + eps)
            np.divide(v, 1.0 - ADAM_BETA2 ** tstep, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            np.divide(m, 1.0 - ADAM_BETA1 ** tstep, out=upd)
            upd *= lr
            upd /= den
            values -= upd
