"""Reverse-mode autodiff over dense float64 arrays.

Carries exactly the operations the convolutional relation models need:
1-D convolution, ReLU, elementwise add, max-over-time pooling, affine maps,
embedding lookup, dropout, and softmax cross-entropy, plus an Adam optimizer
and a central-difference gradient checker. Every op records parent links and
a backward closure on its output; ``backward`` replays the closures in
reverse topological order and then unlinks them, so a graph is single-use
and is freed by reference counting as soon as the caller drops the loss.
Inside ``no_grad()`` ops record nothing and return plain leaves, which is how
inference runs.

The structured ops take batch-first inputs only, in the layout the models
run from embedding to loss: ``conv1d`` and ``max_over_time`` take (batch, seq,
channels), ``affine`` takes (batch, in), and ``softmax_cross_entropy`` takes
(batch, K) logits with a length-batch label vector. One sentence is a batch
of one. Any other rank raises ShapeError.

Gradient buffers are lazy for op outputs. Leaves and parameters get a zero
``grad`` at construction, because ``zero_grad`` and Adam read it. An op
output gets one on its first accumulation: an array the backward closure
computed fresh becomes the buffer as it is, and an array the closure does
not own (a pass-through, a slice, a broadcast) is copied. Reading ``grad``
before anything was added still gives zeros.

``steady_heap`` fixes glibc's allocator thresholds, so that a training step
reuses the heap pages of the step before it instead of faulting them in.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ShapeError


class Tensor:
    """Dense float64 array with an optional gradient slot.

    ``requires_grad`` tensors have a ``grad`` of the same shape that reads
    as zeros until something is added into it; gradients accumulate across
    backward passes until ``zero_grad``. A tensor built with parents (an op
    output) allocates that buffer on first use, every other one at once.
    Construction rejects NaN/Inf payloads outright: non-finite values are an
    error surface, never silent state.
    """

    __slots__ = ("data", "_grad", "requires_grad", "name", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, name=None, _parents=()):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            where = f" in {name!r}" if name else ""
            raise NumericsError(f"non-finite values{where}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad = np.zeros_like(arr) if self.requires_grad and not _parents else None
        self.name = name
        self._parents = _parents
        self._backward = None

    @property
    def grad(self):
        if self._grad is None and self.requires_grad:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        if self.requires_grad:
            self.grad[...] = 0.0

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"


def zero_grads(tensors):
    for t in tensors:
        t.zero_grad()


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: op outputs are plain leaves.

    The previous setting comes back on exit, also when the block raises.
    """
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _accumulate(t, g, fresh=False):
    """Add ``g`` into ``t.grad``.

    On the first accumulation into an op output, ``g`` becomes the buffer:
    as it is if ``fresh`` says the caller computed it and holds no other
    reference, otherwise as a copy, so no two tensors share a buffer.
    """
    if t._grad is None:
        t._grad = g if fresh else np.array(g, dtype=np.float64)
    else:
        t._grad += g


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_mallopt = None  # looked up on the first steady_heap call; False where absent


def steady_heap():
    """Fix glibc's mmap and trim thresholds for this process.

    A training step allocates and frees tens of MB of arrays. With glibc's
    dynamic thresholds, whether those pages stay mapped between steps
    depends on the allocation history of the whole process, so the same
    step can fault in thousands of fresh pages or none. Setting
    ``M_MMAP_THRESHOLD`` to its 64-bit maximum (32 MiB) serves every step
    buffer and prediction chunk from the heap, and a fixed 256 MiB
    ``M_TRIM_THRESHOLD`` keeps a step's working set mapped; setting either
    one turns the dynamic thresholds off. The setting is process-wide and
    stays for the life of the process; calling again changes nothing.
    Where the C library has no ``mallopt`` this does nothing.
    """
    global _mallopt
    if _mallopt is None:
        try:
            fn = ctypes.CDLL(None).mallopt
        except (AttributeError, OSError, TypeError):
            fn = False
        else:
            fn.argtypes = [ctypes.c_int, ctypes.c_int]
            fn.restype = ctypes.c_int
        _mallopt = fn
    if _mallopt:
        _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        _mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _result(data, parents):
    """Op output: requires grad iff any parent does; parents kept for topo."""
    req = _grad_enabled and any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, _parents=tuple(parents) if req else ())


def topo_order(root):
    """All tensors reachable from ``root`` via parent links, parents first.

    Each node appears exactly once, so a reverse sweep visits every op
    backward closure exactly once.
    """
    order = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        nxt = next(parents, None)
        if nxt is None:
            order.append(node)
            stack.pop()
        elif id(nxt) not in seen:
            seen.add(id(nxt))
            stack.append((nxt, iter(nxt._parents)))
    return order


def backward(loss):
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be a scalar. Unreached parameters keep whatever their grad
    already holds (zeros after ``zero_grads``). A graph is single-use: each
    node drops its backward closure and parent links once the closure has
    run, so the graph holds no reference cycle and the intermediates are
    freed as soon as nothing else refers to them. A second ``backward`` on
    the same loss propagates nothing; build the graph again instead.
    """
    if loss.data.size != 1:
        raise ShapeError(f"loss must be a scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order = topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward()
        node._backward = None
        node._parents = ()


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def relu(x):
    """max(0, x); subgradient at exactly 0 is 0."""
    out = _result(np.maximum(x.data, 0.0), (x,))
    if out.requires_grad:
        mask = x.data > 0.0

        def _bw():
            _accumulate(x, mask * out.grad, fresh=True)

        out._backward = _bw
    return out


def add(a, b):
    """Elementwise sum of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    out = _result(a.data + b.data, (a, b))
    if out.requires_grad:

        def _bw():
            if a.requires_grad:
                _accumulate(a, out.grad)
            if b.requires_grad:
                _accumulate(b, out.grad)

        out._backward = _bw
    return out


def sum_all(x):
    out = _result(np.asarray(x.data.sum()), (x,))
    if out.requires_grad:

        def _bw():
            _accumulate(x, np.broadcast_to(out.grad, x.data.shape))

        out._backward = _bw
    return out


def mean(x):
    out = _result(np.asarray(x.data.mean()), (x,))
    if out.requires_grad:
        inv = 1.0 / x.data.size

        def _bw():
            _accumulate(x, np.broadcast_to(inv * out.grad, x.data.shape))

        out._backward = _bw
    return out


def concat(parts, axis=-1):
    """Concatenate tensors along ``axis``; backward slices the gradient."""
    parts = tuple(parts)
    out = _result(np.concatenate([p.data for p in parts], axis=axis), parts)
    if out.requires_grad:
        widths = [p.data.shape[axis] for p in parts]

        def _bw():
            offset = 0
            for p, w in zip(parts, widths):
                if p.requires_grad:
                    index = [slice(None)] * out.grad.ndim
                    index[axis] = slice(offset, offset + w)
                    _accumulate(p, out.grad[tuple(index)])
                offset += w

        out._backward = _bw
    return out


def dropout(x, p_keep, mode, rng=None):
    """Bernoulli masking in train mode, activation scaling in test mode.

    Train multiplies elementwise by a 0/1 mask with keep probability
    ``p_keep``; test multiplies by the scalar ``p_keep``. For any affine
    layer consuming the result this equals the usual test-time weight
    rescaling: E[w . (z * r)] = w . (p z) = (p w) . z.
    """
    if not 0.0 < p_keep <= 1.0:
        raise ValueError(f"p_keep must be in (0, 1], got {p_keep}")
    if mode == "train":
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        factor = (rng.random(x.data.shape) < p_keep).astype(np.float64)
    elif mode == "test":
        factor = p_keep
    else:
        raise ValueError(f"dropout mode must be 'train' or 'test', got {mode!r}")
    out = _result(x.data * factor, (x,))
    if out.requires_grad:

        def _bw():
            _accumulate(x, factor * out.grad, fresh=True)

        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# structured ops


def lookup(table, indices):
    """Gather rows of a (vocab, dim) table; scatter-add on the way back.

    ``indices`` may have any shape (including empty); repeated ids accumulate
    their gradients into the same row. The scatter is one ``np.bincount``
    over flat (row, column) positions, which sums in index order, so it
    equals ``np.add.at`` bit for bit on a zeroed gradient.
    """
    if table.data.ndim != 2:
        raise ShapeError(f"lookup table must be 2-D, got shape {table.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    rows = table.data.shape[0]
    if idx.size:
        bad = (idx < 0) | (idx >= rows)
        if bad.any():
            offender = int(idx[bad].reshape(-1)[0])
            raise IndexError(f"lookup id {offender} out of range for table with {rows} rows")
    out = _result(table.data[idx], (table,))
    if out.requires_grad:

        def _bw():
            width = table.data.shape[1]
            flat = (idx[..., None] * width + np.arange(width)).ravel()
            sums = np.bincount(flat, weights=out.grad.ravel(), minlength=table.data.size)
            _accumulate(table, sums.reshape(table.data.shape), fresh=True)

        out._backward = _bw
    return out


def affine(x, weight, bias):
    """x @ W + b for x of shape (batch, in)."""
    if weight.data.ndim != 2:
        raise ShapeError(f"affine weight must be 2-D, got shape {weight.data.shape}")
    if x.data.ndim != 2:
        raise ShapeError(f"affine input must be 2-D (batch, in), got shape {x.data.shape}")
    in_dim, out_dim = weight.data.shape
    if x.data.shape[-1] != in_dim:
        raise ShapeError(f"affine: input shape {x.data.shape} does not match weight shape {weight.data.shape}")
    if bias.data.shape != (out_dim,):
        raise ShapeError(f"affine: bias shape {bias.data.shape} does not match weight shape {weight.data.shape}")
    out = _result(x.data @ weight.data + bias.data, (x, weight, bias))
    if out.requires_grad:

        def _bw():
            g = out.grad
            if x.requires_grad:
                _accumulate(x, g @ weight.data.T, fresh=True)
            if weight.requires_grad:
                _accumulate(weight, x.data.T @ g, fresh=True)  # outer(x, g) summed over the batch
            if bias.requires_grad:
                _accumulate(bias, g.sum(axis=0), fresh=True)

        out._backward = _bw
    return out


def _conv_pad(width, padding, seq_len):
    """Left/right zero padding; 'same' puts the extra zero on the right."""
    if padding == "valid":
        if width > seq_len:
            raise ShapeError(f"conv1d: width {width} exceeds sequence length {seq_len} in valid mode")
        return 0, 0
    if padding == "same":
        left = (width - 1) // 2
        return left, width - 1 - left
    raise ValueError(f"conv1d padding must be 'valid' or 'same', got {padding!r}")


def _conv_forward(xp, kernel, bias):
    width = kernel.shape[0]
    s = xp.shape[1] - width + 1
    out = np.zeros((xp.shape[0], s, kernel.shape[2]))
    for k in range(width):
        out += xp[:, k : k + s, :] @ kernel[k]
    return out + bias


def _conv_input_grad(g, kernel, padded_shape, left, seq_len):
    width = kernel.shape[0]
    s = g.shape[1]
    gxp = np.zeros(padded_shape)
    for k in range(width):
        gxp[:, k : k + s, :] += g @ kernel[k].T
    return gxp[:, left : left + seq_len, :]


def _conv_kernel_grad(g, xp):
    batch, s, out_ch = g.shape
    width = xp.shape[1] - s + 1
    in_ch = xp.shape[2]
    g2 = g.reshape(batch * s, out_ch)
    gk = np.empty((width, in_ch, out_ch))
    for k in range(width):
        gk[k] = xp[:, k : k + s, :].reshape(batch * s, in_ch).T @ g2
    return gk


def conv1d(x, kernel, bias, padding="valid"):
    """1-D convolution over the sequence axis.

    ``x`` is (batch, seq, in_ch); ``kernel`` is (width, in_ch, out_ch);
    ``bias`` is (out_ch,). Valid mode yields seq - width + 1 output rows;
    same mode zero-pads back to seq rows with the extra zero on the right
    when the width is even. The output is linear; activations are applied
    separately.
    """
    if kernel.data.ndim != 3:
        raise ShapeError(f"conv1d kernel must be 3-D (width, in_ch, out_ch), got shape {kernel.data.shape}")
    if x.data.ndim != 3:
        raise ShapeError(f"conv1d input must be 3-D (batch, seq, in_ch), got shape {x.data.shape}")
    width, in_ch, out_ch = kernel.data.shape
    if x.data.shape[-1] != in_ch:
        raise ShapeError(f"conv1d: input shape {x.data.shape} does not match kernel shape {kernel.data.shape}")
    if bias.data.shape != (out_ch,):
        raise ShapeError(f"conv1d: bias shape {bias.data.shape} does not match kernel shape {kernel.data.shape}")
    batch, seq_len, _ = x.data.shape
    left, right = _conv_pad(width, padding, seq_len)
    if left or right:
        xp = np.zeros((batch, left + seq_len + right, in_ch))
        xp[:, left : left + seq_len] = x.data
    else:
        xp = x.data
    out = _result(_conv_forward(xp, kernel.data, bias.data), (x, kernel, bias))
    if out.requires_grad:

        def _bw():
            g = out.grad
            if x.requires_grad:
                _accumulate(x, _conv_input_grad(g, kernel.data, xp.shape, left, seq_len), fresh=True)
            if kernel.requires_grad:
                _accumulate(kernel, _conv_kernel_grad(g, xp), fresh=True)
            if bias.requires_grad:
                _accumulate(bias, g.sum(axis=(0, 1)), fresh=True)

        out._backward = _bw
    return out


def max_over_time(x):
    """Per-channel maximum over the sequence axis of a (batch, seq, ch) input.

    Gradient flows only to the first argmax position per channel; ties break
    to the lowest index.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"max_over_time input must be 3-D (batch, seq, ch), got shape {x.data.shape}")
    if x.data.shape[1] == 0:
        raise ShapeError("max_over_time: empty sequence")
    argmax = np.argmax(x.data, axis=1)  # first occurrence wins ties
    out = _result(np.take_along_axis(x.data, argmax[:, None, :], axis=1)[:, 0, :], (x,))
    if out.requires_grad:
        b_ix = np.arange(x.data.shape[0])[:, None]
        c_ix = np.arange(x.data.shape[2])[None, :]

        def _bw():
            gx = np.zeros_like(x.data)
            gx[b_ix, argmax, c_ix] = out.grad
            _accumulate(x, gx, fresh=True)

        out._backward = _bw
    return out


def softmax_cross_entropy(logits, labels):
    """Per-row -log softmax(logits)[label], max-shifted for stability.

    ``logits`` is (batch, K) and ``labels`` a length-batch vector of class
    ids; the result is the (batch,) vector of losses. The gradient of each
    row is softmax(logits) - one_hot(label), scaled by the upstream grad.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be 2-D (batch, K), got shape {logits.data.shape}")
    lab = np.asarray(labels, dtype=np.int64)
    n_rows, n_classes = logits.data.shape
    if lab.shape != (n_rows,):
        raise ShapeError(f"labels shape {lab.shape} does not match logits shape {logits.data.shape}")
    bad = (lab < 0) | (lab >= n_classes)
    if bad.any():
        raise IndexError(f"label {int(lab[bad][0])} out of range for {n_classes} classes")
    shift = logits.data - logits.data.max(axis=1, keepdims=True)
    expd = np.exp(shift)
    expd_sum = expd.sum(axis=1)
    out = _result(np.log(expd_sum) - shift[np.arange(n_rows), lab], (logits,))
    if out.requires_grad:
        probs = expd / expd_sum[:, None]

        def _bw():
            gmat = probs.copy()
            gmat[np.arange(n_rows), lab] -= 1.0
            _accumulate(logits, gmat * out.grad[:, None], fresh=True)

        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# optimization


@dataclass
class AdamState:
    """Per-parameter Adam moment buffers; shapes mirror the parameter list."""

    first_moment: list
    second_moment: list
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params, beta1=0.9, beta2=0.999, eps=1e-8):
        params = list(params)
        return cls(
            first_moment=[np.zeros_like(p.data) for p in params],
            second_moment=[np.zeros_like(p.data) for p in params],
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update, in place on the parameter data."""
    params = list(params)
    grads = list(grads)
    if not (len(params) == len(grads) == len(state.first_moment)):
        raise ShapeError(
            f"adam_step: {len(params)} params, {len(grads)} grads, {len(state.first_moment)} moment buffers"
        )
    state.step_count += 1
    t = state.step_count
    corr1 = 1.0 - state.beta1**t
    corr2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if g.shape != p.data.shape or m.shape != p.data.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} does not match param shape {p.data.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= lr * (m / corr1) / (np.sqrt(v / corr2) + state.eps)


# ---------------------------------------------------------------------------
# verification


@dataclass
class GradCheckResult:
    max_rel_err: float
    per_param: dict

    def __str__(self):
        lines = [f"{name:24s} max rel err {err:.3e}" for name, err in self.per_param.items()]
        lines.append(f"{'OVERALL':24s} max rel err {self.max_rel_err:.3e}")
        return "\n".join(lines)


def finite_diff_check(build, eps=1e-5):
    """Compare analytic gradients against central finite differences.

    ``build`` re-runs the forward pass over a persistent set of parameter
    tensors and returns ``(scalar loss, {name: param})``; perturbing a
    parameter in place and calling it again must re-evaluate the loss. The
    graph must be deterministic (dropout in test mode or p_keep=1). Relative
    error per coordinate is |a - n| / max(|a|, |n|, 1e-8).
    """
    loss, params = build()
    zero_grads(params.values())
    backward(loss)
    analytic = {name: p.grad.copy() for name, p in params.items()}
    per_param = {}
    for name, p in params.items():
        worst = 0.0
        for ix in np.ndindex(*p.data.shape):
            orig = p.data[ix]
            p.data[ix] = orig + eps
            loss_plus = float(build()[0].data)
            p.data[ix] = orig - eps
            loss_minus = float(build()[0].data)
            p.data[ix] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            a = float(analytic[name][ix])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
        per_param[name] = worst
    overall = max(per_param.values()) if per_param else 0.0
    return GradCheckResult(overall, per_param)
