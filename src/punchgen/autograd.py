"""Minimal reverse-mode automatic differentiation on numpy arrays.

Everything the neural modules need is expressed through the primitives
below: a ``Tensor`` wraps a float64 ndarray, records the closure that
propagates its output gradient to its parents, and ``Tensor.backward``
replays the tape in reverse topological order.

One worker thread runs beside the caller's. During a backward it takes
every piece of gradient work whose target is a large leaf (a parameter of
at least LEAF_FLOOR elements): the weight product of a matmul, the scatter
of an embedding lookup and every accumulation into that leaf, in tape
order, while the calling thread walks the tape through the activations.
Each leaf's contributions are summed on one thread in the serial order, so
gradients are bit-identical to a serial backward. `run_beside` lends the
same worker to other code (the optimizer, generation). The worker never
queues work for itself: there, a backward and `run_beside` run inline.

All data is kept in float64 so finite-difference gradient checks are
meaningful at tight tolerances.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Elements; a smaller leaf's gradient work stays on the calling thread. Handing off the
# desk preset's leaves (at most 58,688 elements) cost more than it saved.
LEAF_FLOOR = 1 << 17
_worker_ident = None


def _name_worker() -> None:
    global _worker_ident
    _worker_ident = threading.get_ident()


_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="autograd", initializer=_name_worker)


def _on_worker() -> bool:
    return threading.get_ident() == _worker_ident


# Per-thread state: every thread starts from the defaults. A context variable is read in a
# third of the time a threading.local attribute takes, and tape recording is read by every op.
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)
_JOBS = contextvars.ContextVar("jobs", default=None)  # worker jobs of the running backward


@contextlib.contextmanager
def no_grad():
    """Disable tape recording on this thread inside the block (inference mode)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def run_beside(job, own):
    """Run job() on the worker thread while this thread runs own(); return (job(), own()).

    job() sees this thread's context variables (grad mode included). Both calls have
    finished when it returns or raises; an error in own() wins. On the worker itself,
    job() and then own() run inline.
    """
    if _on_worker():
        return job(), own()
    future = _WORKER.submit(contextvars.copy_context().run, job)
    try:
        mine = own()
    finally:
        future.exception()  # waits
    return future.result(), mine


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # collapse leading broadcast axes
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # collapse axes that were size-1 in the original shape
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node in the autodiff graph.

    Parameters are Tensors with ``requires_grad=True``; intermediate
    results inherit the flag from their parents. ``_backward`` receives
    the gradient of the loss w.r.t. this node and accumulates into the
    parents' ``.grad`` arrays.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED.get()
        self._backward = None
        self._parents: tuple = ()

    # ---------------------------------------------------------------- plumbing

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, grad, on_worker: bool = False):
        """Add grad, an array or a function that computes one, into .grad.

        Inside a backward, a large leaf's call is queued for the worker thread;
        a function lets the product that makes its gradient run there too.
        """
        if not on_worker and self._backward is None and self.data.size >= LEAF_FLOOR:
            jobs = _JOBS.get()
            if jobs is not None:
                jobs.append(_WORKER.submit(self._accumulate, grad, True))
                return
        if callable(grad):
            grad = grad()
        # Out of place, since a backward rule may hand one array to several parents. A strided
        # view is copied to C order: BLAS may sum a strided operand in another order.
        if self.grad is None:
            self.grad = grad if grad.flags.c_contiguous else grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None):
        """Reverse-accumulate gradients from this node through the tape."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
            else:
                stack.append((node, True))
                for p in node._parents:
                    if id(p) not in seen:
                        stack.append((p, False))
        jobs = []
        token = _JOBS.set(None if _on_worker() else jobs)
        try:
            self._accumulate(np.asarray(grad, dtype=np.float64))
            while topo:  # a spent interior node drops its gradient, closure and parents at once
                node = topo.pop()
                if node._backward is not None:
                    if node.grad is not None:
                        node._backward(node.grad)
                    node.grad, node._backward, node._parents = None, None, ()
        finally:
            _JOBS.reset(token)
            errors = [e for e in (job.exception() for job in jobs) if e is not None]  # waits for each
        if errors:
            raise errors[0]

    # ---------------------------------------------------------------- operators

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take_slice(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# -------------------------------------------------------------------- arithmetic


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y; a 2-D y shared by x's batch axes meets all of x's rows in one 2-D product."""
    if x.ndim > 2 and y.ndim == 2:
        return (x.reshape(-1, x.shape[-1]) @ y).reshape(x.shape[:-1] + y.shape[-1:])
    return x @ y


def matmul(a, b) -> Tensor:
    """Matrix product with numpy semantics: 1-D operands, leading batch axes, broadcasting."""
    a, b = _wrap(a), _wrap(b)
    data = _product(a.data, b.data)

    def backward(grad):
        # promote 1-D operands to matrices as numpy does; one rule then covers every shape
        x = a.data[None, :] if a.data.ndim == 1 else a.data
        y = b.data[:, None] if b.data.ndim == 1 else b.data
        g = grad.reshape(np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
                         + (x.shape[-2], y.shape[-1]))
        if a.requires_grad:
            ga = _product(g, np.swapaxes(y, -1, -2))
            a._accumulate(_unbroadcast(ga, x.shape).reshape(a.data.shape))
        if b.requires_grad:
            def grad_b():  # a large weight's product runs on the worker thread
                # a 2-D weight shared across a batch gets one 2-D product over the folded batch axes
                if y.ndim == 2 and g.ndim > 2:
                    gb = x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = np.swapaxes(x, -1, -2) @ g
                return _unbroadcast(gb, y.shape).reshape(b.data.shape)

            b._accumulate(grad_b)

    return _make(data, (a, b), backward)


def tanh(a) -> Tensor:
    a = _wrap(a)
    data = np.tanh(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (1.0 - data * data))

    return _make(data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    e = np.exp(-np.abs(a.data))  # never overflows
    data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * data * (1.0 - data))

    return _make(data, (a,), backward)


def relu(a) -> Tensor:
    a = _wrap(a)
    data = np.maximum(a.data, 0.0)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (a.data > 0))

    return _make(data, (a,), backward)


def leaky_relu(a, slope: float) -> Tensor:
    a = _wrap(a)
    data = np.where(a.data > 0, a.data, slope * a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * np.where(a.data > 0, 1.0, slope))

    return _make(data, (a,), backward)


# -------------------------------------------------------------------- shape ops


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        if not a.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return _make(data, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    data = a.data.reshape(shape)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.reshape(a.data.shape))

    return _make(data, (a,), backward)


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    """Exchange two axes; negative axes count from the end, so leading batch axes pass through."""
    a = _wrap(a)
    data = np.swapaxes(a.data, axis1, axis2)

    def backward(grad):
        if a.requires_grad:  # a swap is its own inverse
            a._accumulate(np.swapaxes(grad, axis1, axis2))

    return _make(data, (a,), backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * grad.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(idx)])

    return _make(data, tuple(tensors), backward)


def _is_mask(i) -> bool:
    return isinstance(i, np.ndarray) and i.dtype == bool


def take_slice(a, idx) -> Tensor:
    """Basic, boolean-mask and integer-array indexing.

    The gradient of ints, slices and masks is assigned, as they cannot repeat an element;
    an integer array's is scatter-added.
    """
    a = _wrap(a)
    data = a.data[idx]
    basic = all(isinstance(i, (int, slice)) or _is_mask(i) for i in (idx if isinstance(idx, tuple) else (idx,)))

    def backward(grad):
        if a.requires_grad:
            def scatter():  # an embedding's runs on the worker thread
                g = np.zeros_like(a.data)
                if basic:
                    g[idx] = grad
                else:
                    np.add.at(g, idx, grad)
                return g

            a._accumulate(scatter)

    return _make(data, (a,), backward)


def scatter_rows(x, real: np.ndarray) -> Tensor:
    """Packed rows x (n, ...) laid out at the n True entries of the mask `real` (B, t), zeros elsewhere.

    The output is (B, t, ...); `out[real]` gives x back, and the gradient is `grad[real]`.
    """
    x = _wrap(x)
    data = np.zeros(real.shape + x.data.shape[1:])
    data[real] = x.data

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad[real])

    return _make(data, (x,), backward)


# -------------------------------------------------------------------- softmax family


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad):
        if a.requires_grad:
            inner = (grad * data).sum(axis=axis, keepdims=True)
            a._accumulate(data * (grad - inner))

    return _make(data, (a,), backward)


def cross_entropy_sum(logits, targets) -> Tensor:
    """Summed token cross-entropy.

    logits: (t, V) Tensor, targets: (t,) int array. Returns a scalar
    Tensor equal to -sum_i log softmax(logits)_i[targets_i].
    """
    logits = _wrap(logits)
    targets = np.asarray(targets, dtype=np.intp)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(targets.shape[0])
    data = -logp[rows, targets].sum()

    def backward(grad):
        if logits.requires_grad:
            g = np.exp(logp)
            g[rows, targets] -= 1.0
            logits._accumulate(g * grad)

    return _make(np.asarray(data), (logits,), backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data

    def backward(grad):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(grad * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.data.shape))
        if x.requires_grad:
            d = x.data.shape[-1]
            dxhat = grad * gain.data
            gx = inv * (dxhat
                        - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
            x._accumulate(gx)

    return _make(data, (x, gain, bias), backward)


# -------------------------------------------------------------------- init helpers


def xavier_bound(fan_in: int, fan_out: int) -> float:
    """Half-width of the Glorot/Xavier uniform interval."""
    return math.sqrt(6.0 / (fan_in + fan_out))


def xavier_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Glorot/Xavier uniform init for a weight matrix of the given shape."""
    fan_in, fan_out = (shape[0], shape[-1]) if len(shape) > 1 else (shape[0], shape[0])
    bound = xavier_bound(fan_in, fan_out)
    return rng.uniform(-bound, bound, size=shape)


def parameter(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(xavier_uniform(rng, shape), requires_grad=True)
