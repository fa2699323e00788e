"""Dense float32 tensors with tape-based reverse-mode automatic differentiation.

Only the kernels the backbone, its losses and the analysis tools call are
provided: elementwise add, subtract and multiply, a per-channel scale and
shift (`channel_affine`), per-sample group normalization (one group),
valid-count average pooling, strided convolution for patch embedding,
channel-wise and head linear maps, GELU, a whole block of the fused deploy
form (`deploy_block`: both norms, the MLP and the residual), log-softmax
and KL divergence, the sum of all elements, spatial means, MSE, and the MSE
of two batches of token relation matrices. Kernels are called as functions;
a Tensor has no operator overloads. No broadcasting beyond a plain scalar,
no higher-order gradients, no devices other than CPU.
"""
from __future__ import annotations

import contextvars
import itertools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from time import perf_counter
from typing import Callable, Optional, Sequence

import numpy as np


class NumericsError(ArithmeticError):
    """A kernel produced (or received) a non-finite value."""


class ShapeError(ValueError):
    """Operand shapes violate a kernel's contract."""


class TapeError(RuntimeError):
    """Misuse of the recording tape (double backward, unrecorded tensor)."""


def _f32(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float32))


def _check_finite(arr: np.ndarray, what: str = "kernel output") -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values in {what}")


class Tensor:
    """A dense float32 array, optionally participating in gradient recording.

    A kernel output recorded on a tape carries `(tape serial, node index)`
    as `_node`: two ints, so the output never keeps its tape alive."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _f32(data)
        _check_finite(self.data, "tensor data")
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[tuple[int, int]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_SERIALS = itertools.count()


class Tape:
    """Records kernel applications for one reverse pass.

    Recording order equals forward execution order; `backward` runs once per
    tape, and a second call raises TapeError. Tensors created while no tape
    is active are constants as far as autodiff is concerned.

    A node holds a backward closure and one entry per input: None for a
    constant, the index of the node that produced the input on this tape,
    or a leaf Tensor. The tape holds no output, so an output that no
    closure captured is freed with its last reference, and `backward` pops
    each node before running it, so the arrays its closure saved go right
    after; after `backward` the tape holds no node.

    A backward closure returns, per input, None, the gradient, or a job: a
    zero-argument callable that returns the gradient. Kernels return jobs
    for the weight-position inputs whose gradient nothing before the end of
    the pass reads (conv and channel-linear weights and biases, per-channel
    scales and shifts). A job calls numpy only, never a kernel or `_apply`,
    and reads only arrays that no backward closure writes in place: its
    closure's forward operands and incoming gradient. So `backward` may run
    it on the worker thread (`_worker`), in a copy of the caller's context,
    which holds numpy's error state, while the input-gradient chain goes
    on; a job's result holds the bytes an inline call gives, and it warns
    or raises as an inline call would.
    """

    def __init__(self):
        self._serial = next(_SERIALS)
        self._nodes: list[tuple[Callable, tuple[int | Tensor | None, ...]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _LOCAL.tapes.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _LOCAL.tapes.pop()
        assert popped is self

    def _record(self, out: Tensor, inputs: tuple[Optional[Tensor], ...],
                backward_fn: Callable) -> None:
        entries = tuple(
            None if t is None
            else t._node[1] if t._node is not None and t._node[0] == self._serial
            else t if t.requires_grad else None
            for t in inputs)
        out._node = (self._serial, len(self._nodes))
        self._nodes.append((backward_fn, entries))

    def backward(self, loss: Tensor) -> None:
        """Populate `.grad` on every recorded tensor with requires_grad set."""
        if self._consumed:
            raise TapeError("tape already consumed by a backward pass")
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._node is None or loss._node[0] != self._serial:
            raise TapeError("loss was not produced under this tape")
        self._consumed = True

        # gradients stay float32, the forward's precision; kernels that need
        # wider accumulation widen internally and cast on return. Nodes'
        # gradients are keyed by node index, leaves' by identity, each leaf
        # in the order of its first contribution. A slot holds a job's
        # Future until a node, a second contribution or the leaf pass
        # reads it.
        grads: dict[int, np.ndarray | Future] = {
            loss._node[1]: np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}
        leaf_grads: dict[int, np.ndarray | Future] = {}
        nodes = self._nodes
        worker = _worker()
        jobs: list[Future] = []

        def start(gi):
            if not callable(gi):
                return gi
            if worker is None:
                return gi()
            jobs.append(worker.submit(contextvars.copy_context().run, gi))
            return jobs[-1]

        def value(g) -> np.ndarray:
            return g.result() if isinstance(g, Future) else g

        def accumulate(slots, key, gi) -> None:
            slots[key] = value(slots[key]) + value(gi) if key in slots else gi

        try:
            while nodes:
                # popped, so its closure and the arrays it saved are freed
                # before the next node runs
                backward_fn, entries = nodes.pop()
                g = grads.pop(len(nodes), None)
                if g is None:
                    continue
                for entry, gi in zip(entries, backward_fn(value(g))):
                    if entry is None or gi is None:
                        continue
                    gi = start(gi)
                    if isinstance(entry, Tensor):
                        leaves.setdefault(id(entry), entry)
                        accumulate(leaf_grads, id(entry), gi)
                    else:
                        accumulate(grads, entry, gi)
            done = [(leaf, value(leaf_grads[key]))
                    for key, leaf in leaves.items()]
        finally:
            nodes.clear()
            # no job outlives the pass, whether it returns or raises
            wait(jobs)
        # Leaves accumulate into the persistent buffer; intermediates are dropped.
        for leaf, g in done:
            acc = g.astype(np.float32)
            leaf.grad = acc if leaf.grad is None else leaf.grad + acc


_WORKER: Optional[ThreadPoolExecutor] = None


def _drop_worker() -> None:
    global _WORKER
    _WORKER = None


# a forked child inherits the pool but not its thread, so a job sent to it
# would never run; the child starts its own on first use
os.register_at_fork(after_in_child=_drop_worker)


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _worker() -> Optional[ThreadPoolExecutor]:
    """The one thread beside the caller's: it runs a backward's jobs beside
    its input-gradient chain (`Tape.backward`), and the second half of each
    evaluation batch (`train.evaluate`). Started on first use; None, so that
    both run inline, unless numpy's bundled OpenBLAS reports one live thread
    and the process may run on two CPUs or more. numpy releases the GIL
    inside BLAS calls and ufunc loops, so the two threads compute at once;
    more BLAS threads would compete with the worker for the cores."""
    from . import bench  # bench imports this module
    blas = bench._openblas()
    if blas is None or blas.get_threads() != 1 or _cpus() < 2:
        return None
    global _WORKER
    if _WORKER is None:
        _WORKER = ThreadPoolExecutor(1, thread_name_prefix="riformer-worker")
    return _WORKER


class _ThreadState(threading.local):
    """Each thread's stack of recording tapes and active profile, so a
    forward on the worker neither records onto the caller's tape nor
    charges its profile. Thread-local rather than a ContextVar: the worker
    runs in a copy of the caller's context, which would carry both."""

    def __init__(self):
        self.tapes: list[Tape] = []
        self.profile: Optional[_Profile] = None


_LOCAL = _ThreadState()


def _tape() -> Optional[Tape]:
    tapes = _LOCAL.tapes
    return tapes[-1] if tapes else None


def _profile() -> Optional[_Profile]:
    """This thread's active profile, if any."""
    return _LOCAL.profile


class _Profile:
    """`_apply` charges each kernel's FLOPs, and the wall time since the last
    kernel ended, to the `component` the model last set; so the seconds sum
    to the time the profile was active."""

    def __init__(self):
        self.component = ""
        self.flops: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def __enter__(self) -> "_Profile":
        _LOCAL.profile, self._last = self, perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.charge(0)
        _LOCAL.profile = None

    def charge(self, flops: int) -> None:
        now, c = perf_counter(), self.component
        self.flops[c] = self.flops.get(c, 0) + flops
        self.seconds[c] = self.seconds.get(c, 0.0) + now - self._last
        self._last = now


def _apply(out_data: np.ndarray,
           inputs: Sequence,
           backward_fn: Callable,
           flops: Optional[int] = None) -> Tensor:
    """Wrap a kernel result, recording on the active tape when needed;
    `flops` (default: one per output element) goes to the active profile."""
    out = Tensor.__new__(Tensor)
    out.data = _f32(out_data)
    _check_finite(out.data)  # the float32 cast may overflow to inf
    out.grad = None
    out.requires_grad = False
    out._node = None
    tape = _tape()
    if tape is not None:
        # constants stay in place as None so each input lines up with its
        # position in the tuple backward_fn returns
        tensors = tuple(t if isinstance(t, Tensor) else None for t in inputs)
        if any(t is not None and t.requires_grad for t in tensors):
            out.requires_grad = True
            tape._record(out, tensors, backward_fn)
    profile = _LOCAL.profile
    if profile is not None:
        profile.charge(out.data.size if flops is None else flops)
    return out


def _coerce(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else _f32(x)


def _needs_grad(*inputs) -> tuple[bool, ...]:
    """Which inputs want a gradient, read at forward time.

    A backward closure returns None for the others, so no work is spent on
    gradients of constants (the input image, a frozen teacher's activations).
    """
    return tuple(isinstance(t, Tensor) and t.requires_grad for t in inputs)


def _operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The data of two operands of one shape, or of one operand and a plain
    scalar: a size-1 constant that is not a Tensor and gets no gradient."""
    da, db = _coerce(a), _coerce(b)
    if da.shape != db.shape and not any(
            d.size == 1 and not isinstance(x, Tensor)
            for x, d in ((a, da), (b, db))):
        raise ShapeError(f"operand shapes differ: {da.shape} vs {db.shape}")
    return da, db


# ---------------------------------------------------------------------------
# Elementwise arithmetic (same shape, or one side a plain scalar)

def add(a, b) -> Tensor:
    da, db = _operands(a, b)
    return _apply(da + db, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    da, db = _operands(a, b)
    return _apply(da - db, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    da, db = _operands(a, b)
    need_a, need_b = _needs_grad(a, b)
    return _apply(da * db, (a, b),
                  lambda g: (g * db if need_a else None,
                             g * da if need_b else None))


def channel_affine(x: Tensor, s: Tensor, t: Optional[Tensor] = None) -> Tensor:
    """x * s[c] (+ t[c]) on an (N, C, H, W) x: a per-channel scale, and a
    shift when `t` is given.

    The multiply and the add round to float32 one after the other. A
    vector's gradient sums in float32 over the samples, then the rows, then
    the columns, in a backward job (`Tape`). Counted as 1 FLOP per element,
    2 with the shift.
    """
    dx, ds = _coerce(x), _coerce(s)
    if (dx.ndim != 4 or ds.shape != (dx.shape[1],)
            or (t is not None and _coerce(t).shape != ds.shape)):
        raise ShapeError(f"channel_affine expects an (N, C, H, W) input and "
                         f"(C,) vectors, got {dx.shape} and {ds.shape}")
    s3 = ds[:, None, None]
    out = dx * s3
    if t is not None:
        out += _coerce(t)[:, None, None]
    need_x, need_s, need_t = _needs_grad(x, s, t)

    def per_channel(g):
        return g.sum(axis=0).sum(axis=1).sum(axis=1)

    def bwd(g):
        return (g * s3 if need_x else None,
                (lambda: per_channel(g * dx)) if need_s else None,
                (lambda: per_channel(g)) if need_t else None)

    return _apply(out, (x, s, t), bwd, (1 + (t is not None)) * dx.size)


# ---------------------------------------------------------------------------
# Reductions

def tsum(a: Tensor) -> Tensor:
    """The sum of all elements."""
    da = _coerce(a)
    shape = da.shape
    return _apply(da.sum(), (a,),
                  lambda g: (np.broadcast_to(g, shape).copy(),), da.size)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise mean of squared differences (Frobenius norm over count)."""
    da, db = _coerce(a), _coerce(b)
    if da.shape != db.shape:
        raise ShapeError(f"mse shape mismatch: {da.shape} vs {db.shape}")
    # float32 subtraction is correctly rounded; only the sum needs float64
    diff = da - db
    n = diff.size
    out = np.float32((diff * diff).sum(dtype=np.float64) / n)
    need_a, need_b = _needs_grad(a, b)

    def bwd(g):
        ga = diff * np.float32(2.0 * g / n)
        return (ga if need_a else None, -ga if need_b else None)

    return _apply(out, (a, b), bwd, 3 * n)  # subtract, square, accumulate


def _normalize_tokens(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, C, H, W) -> the HW tokens of C channels as (N, C, HW) in float64,
    each divided by its norm n = sqrt(sum x^2 + 1e-24) + 1e-12 (an all-zero
    token stays 0), and the (N, 1, HW) norms."""
    t = x.reshape(x.shape[0], x.shape[1], -1).astype(np.float64)
    norm = np.sqrt((t * t).sum(axis=1, keepdims=True) + 1e-24) + 1e-12
    return t / norm, norm


def relation_mse(a: Tensor, b: Tensor) -> Tensor:
    """The MSE of two batches of token relation matrices, without forming
    them when C < P.

    Each (N, C, H, W) input is read as P = HW tokens of C channels, and
    each token is normalized over channels (`_normalize_tokens`). With A and
    B a sample's (C, P) unit tokens, the loss is the mean over (N, P, P) of
    (A^T A - B^T B)^2. As ||A^T A - B^T B||^2 = ||A A^T||^2 - 2 ||A B^T||^2
    + ||B B^T||^2, the shape picks the smaller products: D = A^T A - B^T B
    when P <= C, else the C x C Grams Ga = A A^T, Gb = B B^T and M = A B^T.
    Everything is evaluated in float64 and the loss is rounded once to
    float32. Each side's products run the same matmul on operands of the
    same layout, so identical inputs give exactly 0.
    With s = 1 / (N P^2) the gradients with respect to the unit tokens are
    4s A D and -4s B D, that is 4s (Ga A - M B) and 4s (Gb B - M^T A). The
    normalization's adjoint takes such a gradient gu of u = x / n to
    gu / n - x (gu . x) / (n^2 (n - 1e-12)), evaluated token by token as
    (gu - u (gu . u) n / (n - 1e-12)) / n, for a side that needs a gradient
    only. Counted as 2 FLOPs per multiply-add of the products formed, plus 1
    per subtract, square and accumulate over their entries, plus 3 per input
    element for the normalization (square, accumulate, divide).
    """
    da, db = _coerce(a), _coerce(b)
    if da.shape != db.shape or da.ndim != 4:
        raise ShapeError(f"relation_mse expects two (N, C, H, W) inputs of "
                         f"one shape, got {da.shape} and {db.shape}")
    n, c, h, w = da.shape
    p = h * w
    s = 1.0 / (n * p * p)
    (ua, na), (ub, nb) = _normalize_tokens(da), _normalize_tokens(db)
    need_a, need_b = _needs_grad(a, b)

    if p <= c:
        d = np.swapaxes(ua, 1, 2) @ ua
        d -= np.swapaxes(ub, 1, 2) @ ub
        out = s * np.vdot(d, d)
        flops = n * p * p * (4 * c + 3)

        def unit_grads():
            return (ua @ d if need_a else None, ub @ -d if need_b else None)
    else:
        at = np.ascontiguousarray(np.swapaxes(ua, 1, 2))
        bt = np.ascontiguousarray(np.swapaxes(ub, 1, 2))
        ga, m, gb = ua @ at, ua @ bt, ub @ bt
        # a sum of squares, so rounding below zero is rounded back up
        out = max(s * (np.vdot(ga, ga) - 2.0 * np.vdot(m, m)
                       + np.vdot(gb, gb)), 0.0)
        flops = n * c * c * (6 * p + 6)

        def unit_grads():
            gua = gub = None
            if need_a:
                gua = ga @ ua
                gua -= m @ ub
            if need_b:
                gub = gb @ ub
                gub -= np.swapaxes(m, 1, 2) @ ua
            return gua, gub

    def bwd(g):
        k = 4.0 * s * g.item()
        grads = []
        for gu, u, norm in zip(unit_grads(), (ua, ub), (na, nb)):
            if gu is not None:
                dot = (gu * u).sum(axis=1, keepdims=True)
                gu -= u * (dot * (norm / (norm - 1e-12)))
                gu *= k / norm
                gu = gu.astype(np.float32).reshape(da.shape)
            grads.append(gu)
        return tuple(grads)

    return _apply(np.float32(out), (a, b), bwd, flops + 6 * da.size)


# ---------------------------------------------------------------------------
# Linear algebra

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """(N, C) @ (K, C)^T + (K,) -- the classifier head."""
    dx, dw, dbias = _coerce(x), _coerce(w), _coerce(b)
    if dx.ndim != 2 or dw.ndim != 2 or dx.shape[1] != dw.shape[1]:
        raise ShapeError(f"linear: x {dx.shape}, w {dw.shape}")
    need_x, need_w, need_b = _needs_grad(x, w, b)

    def bwd(g):
        return (g @ dw if need_x else None,
                g.T @ dx if need_w else None,
                g.sum(axis=0) if need_b else None)

    out = dx @ dw.T + dbias
    return _apply(out, (x, w, b), bwd, (2 * dx.shape[1] + 1) * out.size)


def channel_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-location channel map, i.e. 1x1 convolution: (N,C,H,W) -> (N,D,H,W).

    The weight and bias gradients are backward jobs (`Tape`)."""
    dx, dw = _coerce(x), _coerce(w)
    if dx.ndim != 4 or dw.ndim != 2 or dw.shape[1] != dx.shape[1]:
        raise ShapeError(f"channel_linear: x {dx.shape}, w {dw.shape}")
    n, c, h, wdt = dx.shape
    d = dw.shape[0]
    x3 = dx.reshape(n, c, h * wdt)
    out = dw @ x3  # one (D, C) @ (C, HW) GEMM per sample
    out += _coerce(b)[None, :, None]
    need_x, need_w, need_b = _needs_grad(x, w, b)

    def bwd(g):
        g3 = g.reshape(n, d, h * wdt)
        gx = (dw.T @ g3).reshape(dx.shape) if need_x else None
        gw = ((lambda: np.tensordot(g3, x3, axes=([0, 2], [0, 2])))
              if need_w else None)
        gb = (lambda: g.sum(axis=(0, 2, 3))) if need_b else None
        return (gx, gw, gb)

    return _apply(out.reshape(n, d, h, wdt), (x, w, b), bwd,
                  (2 * c + 1) * out.size)


# ---------------------------------------------------------------------------
# Normalization

def _norm_input_grad(g3, x3, mu, istd, gamma, a):
    """The input gradient of a single-group norm on the (N, C, P) float32
    x3, whose output is x * a + b per (n, c) with a = gamma * istd, or
    that plus anything linear in x that folds into the (N, C, 1) float32
    `a` (a residual adds 1). Returns it with the per-(n, c) float64 sums
    K = istd * (sum g x - mu sum g) and G = sum g, from which gamma's and
    beta's gradients follow.

    With them the gradient is g * a + x * p[n] + q[n]. Sums accumulate in
    float64, as the forward's statistics do.
    """
    m = x3.shape[1] * x3.shape[2]
    gs = g3.sum(axis=2, dtype=np.float64)
    tmp = np.multiply(g3, x3)
    k = istd[:, None] * (tmp.sum(axis=2, dtype=np.float64) - mu[:, None] * gs)
    mean_dxhat, mean_dxhat_xhat = gs @ gamma / m, k @ gamma / m
    p = -istd * istd * mean_dxhat_xhat
    q = -istd * mean_dxhat - p * mu
    np.multiply(x3, p.astype(np.float32)[:, None, None], out=tmp)
    tmp += q.astype(np.float32)[:, None, None]
    gx = np.multiply(g3, a)
    gx += tmp
    return gx, k, gs


def _moments(x64: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's mean and inverse std over all elements of the float64
    (N, ...) x64: its sum, and E[x^2] as its dot product with itself, so
    the squares are exact and every finite input has finite statistics."""
    n = x64.shape[0]
    m = x64.size // n
    flat = x64.reshape(n, 1, m)
    mu = flat.sum(axis=2)[:, 0] / m
    var = (flat @ flat.transpose(0, 2, 1))[:, 0, 0] / m - mu * mu
    return mu, (np.maximum(var, 0.0) + 1e-5) ** -0.5


def group_norm_1(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-sample normalization over all C*H*W elements, per-channel affine.

    Matches GroupNorm with a single group: statistics are computed per sample
    across channels and spatial positions, then each channel is scaled by
    gamma and shifted by beta. The statistics come from `_moments` on the
    float64 copy of x. The output is one multiply-add per element, x * a[n, c] + b[n, c] with
    a = gamma * istd and b = beta - gamma * mu * istd. Counted as 8 FLOPs
    per element.
    """
    dx, dg, dbeta = _coerce(x), _coerce(gamma), _coerce(beta)
    if dx.ndim != 4:
        raise ShapeError(f"group_norm_1 expects 4-D input, got {dx.shape}")
    n, c = dx.shape[:2]
    if dg.shape != (c,) or dbeta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")

    x3 = dx.reshape(n, c, -1)
    mu, istd = _moments(x3.astype(np.float64))
    a = istd[:, None] * dg
    b = (dbeta - mu[:, None] * a).astype(np.float32)[:, :, None]
    a = a.astype(np.float32)[:, :, None]
    out = np.multiply(x3, a)
    out += b

    def bwd(g):
        gx, k, gs = _norm_input_grad(g.reshape(n, c, -1), x3, mu, istd, dg, a)
        return (gx.reshape(dx.shape), k.sum(axis=0).astype(np.float32),
                gs.sum(axis=0).astype(np.float32))

    return _apply(out.reshape(dx.shape), (x, gamma, beta), bwd,
                  8 * dx.size)  # by convention


# ---------------------------------------------------------------------------
# Pooling

def _box_sum(x: np.ndarray, k: int) -> np.ndarray:
    """Sum over centered kxk windows clipped to the image, in x's dtype.

    One GEMM against the (W, W) 0/1 band |i - j| <= p sums each row's
    window; 2p shifted adds over the rows then sum the column's window.
    The result overwrites x, so a caller passes a scratch array and the
    pass holds one more array of x's size.
    """
    p = (k - 1) // 2
    h, w = x.shape[-2:]
    i = np.arange(w)
    band = (np.abs(i[:, None] - i) <= p).astype(x.dtype)
    rows = (x.reshape(-1, w) @ band).reshape(-1, h, w)
    out = x.reshape(-1, h, w)
    np.copyto(out, rows)
    for d in range(1, min(p, h - 1) + 1):
        out[:, d:] += rows[:, :-d]
        out[:, :-d] += rows[:, d:]
    return out.reshape(x.shape)


def _window_counts(h: int, w: int, k: int) -> np.ndarray:
    p = (k - 1) // 2
    i = np.arange(h)
    j = np.arange(w)
    rows = np.minimum(i + p, h - 1) - np.maximum(i - p, 0) + 1
    cols = np.minimum(j + p, w - 1) - np.maximum(j - p, 0) + 1
    return rows[:, None].astype(np.float64) * cols[None, :]


def avg_pool_same(x: Tensor, k: int) -> Tensor:
    """Same-size sliding mean; boundary windows average valid elements only.

    A separable box sum (`_box_sum`): a band GEMM along each row, then
    shifted adds along the columns. The forward sums in float64, which adds
    a window's float32 values exactly (always on a constant map, and
    whenever its magnitudes lie within a factor 2^20 for k <= 21), divides
    by the window counts and rounds once to float32. So the output is the
    window mean rounded to float32, a per-channel constant map pools to
    itself bit for bit, and the pooling mixer is exactly zero on it. The
    backward is the same box sum of g / counts, in float32 like the rest
    of the tape. Counted as 6 FLOPs per element for any k.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"window size must be odd and positive, got {k}")
    dx = _coerce(x)
    if dx.ndim != 4:
        raise ShapeError(f"avg_pool_same expects 4-D input, got {dx.shape}")
    if k == 1:
        return _apply(dx.copy(), (x,), lambda g: (g,), 0)
    h, w = dx.shape[-2:]
    counts = _window_counts(h, w, k)
    # divide in float64 and round once, straight into the float32 output
    out = np.divide(_box_sum(dx.astype(np.float64), k), counts,
                    out=np.empty_like(dx), casting="unsafe")

    def bwd(g):
        # out[p] = sum_{q in win(p)} x[q] / cnt(p); window membership is
        # symmetric for centered windows, so the adjoint is a box sum of g/cnt.
        return (_box_sum(g * (1.0 / counts).astype(np.float32), k),)

    return _apply(out, (x,), bwd, 6 * dx.size)  # by convention


# ---------------------------------------------------------------------------
# Convolution (patch embedding only: small k, stride >= 1, replicate padding)

def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int, pad: int) -> Tensor:
    """Strided dense convolution with edge-replicate padding.

    The forward and the backward share one edge-padded grid laid out
    (C, H', W', N), so every copy and add in them runs over contiguous
    samples. im2col: the input is copied into the grid once (interior, then
    the replicated border rows and columns), and one copy of a strided view
    of the grid fills a (C, k, k, OH, OW, N) column buffer. Read as its
    transpose, with a row per (output position, sample), that buffer is the
    column matrix, so the forward and the weight gradient are each one GEMM
    against the (D, C*k*k) weight matrix; the weight and bias gradients are
    backward jobs (`Tape`). col2im, the input gradient, is the
    adjoint: k*k strided slab adds into the grid (the windows overlap, so
    they cannot be one add), then the border folded back onto the edge rows
    and columns. The forward GEMM can give last-bit different rows when the
    batch holds 1-3 samples, so a sample's output can depend on its batch
    size, unlike `deploy_block`'s.
    """
    if pad < 0 or stride < 1:
        raise ShapeError(f"conv2d needs pad >= 0 and stride >= 1, "
                         f"got pad {pad}, stride {stride}")
    dx, dw, dbias = _coerce(x), _coerce(w), _coerce(b)
    if dx.ndim != 4 or dw.ndim != 4:
        raise ShapeError(f"conv2d: x {dx.shape}, w {dw.shape}")
    cout, cin, k, kw = dw.shape
    if dx.shape[1] != cin:
        raise ShapeError(f"conv2d channel mismatch: {dx.shape[1]} vs {cin}")
    if k != kw:
        raise ShapeError("conv2d supports square kernels only")
    n, _, h, wdt = dx.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wdt + 2 * pad - k) // stride + 1
    # the far side is padded up to the last window's end, so no window
    # clips; replicate padding keeps constant maps constant
    ph = max((oh - 1) * stride + k - pad - h, 0)
    pw = max((ow - 1) * stride + k - pad - wdt, 0)
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d: a {k}x{k} window does not fit the "
                         f"{h}x{wdt} input padded by {pad}")
    bottom, right = pad + h, pad + wdt
    xp = np.empty((cin, bottom + ph, right + pw, n), np.float32)
    xp[:, pad:bottom, pad:right] = dx.transpose(1, 2, 3, 0)
    if pad:
        xp[:, :pad, pad:right] = xp[:, pad:pad + 1, pad:right]
    if ph:
        xp[:, bottom:, pad:right] = xp[:, bottom - 1:bottom, pad:right]
    if pad:  # the columns run the full height, so they fill the corners
        xp[:, :, :pad] = xp[:, :, pad:pad + 1]
    if pw:
        xp[:, :, right:] = xp[:, :, right - 1:right]
    sc, sh, sw, sn = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (cin, k, k, oh, ow, n),
        (sc, sh, sw, sh * stride, sw * stride, sn), writeable=False).copy()
    cols = win.reshape(cin * k * k, oh * ow * n).T
    w2 = dw.reshape(cout, cin * k * k)
    out = cols @ w2.T
    out += dbias
    need_x, need_w, need_b = _needs_grad(x, w, b)

    def bwd(g):
        g2 = g.transpose(1, 2, 3, 0).reshape(cout, oh * ow * n)
        gw = (lambda: (g2 @ cols).reshape(dw.shape)) if need_w else None
        gb = (lambda: g.sum(axis=(0, 2, 3))) if need_b else None
        if not need_x:
            return (None, gw, gb)
        # col2im: the forward's window copy, reversed into k*k slab adds
        # (the windows overlap), and the replicated border folded back onto
        # the edge rows and columns
        gcols = (w2.T @ g2).reshape(cin, k, k, oh, ow, n)
        gxp = np.zeros((cin, bottom + ph, right + pw, n), np.float32)
        for i in range(k):
            for j in range(k):
                gxp[:, i:i + (oh - 1) * stride + 1:stride,
                    j:j + (ow - 1) * stride + 1:stride] += gcols[:, i, j]
        gxp[:, pad] += gxp[:, :pad].sum(axis=1)
        gxp[:, bottom - 1] += gxp[:, bottom:].sum(axis=1)
        gxp[:, :, pad] += gxp[:, :, :pad].sum(axis=2)
        gxp[:, :, right - 1] += gxp[:, :, right:].sum(axis=2)
        gx = gxp[:, pad:bottom, pad:right].transpose(3, 0, 1, 2)
        return (np.ascontiguousarray(gx), gw, gb)

    return _apply(out.reshape(oh, ow, n, cout).transpose(2, 3, 0, 1),
                  (x, w, b), bwd, (2 * cols.shape[1] + 1) * out.size)


# ---------------------------------------------------------------------------
# Activations and probability kernels

_INV_SQRT_2PI = np.float64(1.0 / np.sqrt(2.0 * np.pi))
# h(s), s = x^2, highest power first: Phi(x) ~ 1/2 + 1/2 tanh(x h(x^2)); see
# gelu. h(0) is sqrt(2 / pi), as in the two-term tanh form.
_GELU_H = tuple(map(np.float32, (
    1.84666427e-09, -1.35730531e-07, 4.01260195e-06, -5.56039558e-05,
    -3.17414597e-05, 3.63320634e-02, 7.97885299e-01)))
_GELU_CLIP = np.float32(6.0)
_GELU_PDF_CLIP = np.float32(20.0)
# elements per pass: the block, its output slices and the work buffer stay
# in cache (with the derivative kept for a backward, blocks of 1 << 15 and
# 1 << 17 cost 4-16% and 3-5% more at the six batch-32 nano shapes; at the
# deploy shapes blocks of 1 << 17 cost 2-6% more)
_GELU_BLOCK = 1 << 16


def _gelu_into(flat: np.ndarray, out: np.ndarray,
               keep_deriv: bool) -> Optional[np.ndarray]:
    """gelu's forward loop: x * Phi(x) of the flat float32 array `flat`
    into `out` (not `flat` itself), block by block. When `keep_deriv`, each
    block also forms gelu's derivative Phi(x) + x pdf(x) from its Phi, and
    the result is the derivative in a full-size array; else None. float32
    exp(-x^2 / 2) is 0 beyond |x| = 14.4, so a clip keeps x^2 finite and
    moves no bit."""
    w = np.empty(min(flat.size, _GELU_BLOCK), np.float32)
    phi = np.empty_like(w)
    deriv = np.empty_like(flat) if keep_deriv else None
    for i in range(0, flat.size, _GELU_BLOCK):
        xb, ob = flat[i:i + _GELU_BLOCK], out[i:i + _GELU_BLOCK]
        m = xb.size
        pb, h = phi[:m], w[:m]
        u = xb.clip(-_GELU_CLIP, _GELU_CLIP, out=ob)
        s = np.square(u, out=pb)
        np.multiply(s, _GELU_H[0], out=h)
        for c in _GELU_H[1:-1]:
            h += c
            h *= s
        h += _GELU_H[-1]
        h *= u
        np.tanh(h, out=h)
        np.multiply(h, np.float32(0.5), out=pb)
        pb += np.float32(0.5)
        np.multiply(xb, pb, out=ob)
        if keep_deriv:
            t = xb.clip(-_GELU_PDF_CLIP, _GELU_PDF_CLIP, out=deriv[i:i + m])
            t *= t
            t *= np.float32(-0.5)
            np.exp(t, out=t)
            t *= np.float32(_INV_SQRT_2PI)
            t *= xb
            t += pb
    return deriv


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x), the exact (erf) form, in float32.

    Phi(x) is 1/2 + 1/2 tanh(u h(u^2)) with u = clip(x, -6, 6) and h the
    degree-6 polynomial _GELU_H, evaluated in blocks of _GELU_BLOCK
    elements (`_gelu_into`): one clip, a Horner chain in u^2 (13 in-place
    multiplies and adds, the final multiply by u included), one `np.tanh`
    and three multiply or add passes; Phi lives in a second block buffer.
    While a tape records and x needs a gradient, each block also forms the
    derivative Phi(x) + x pdf(x) from its Phi (an exp pass and five
    multiply or add passes), and the backward keeps that array alone, not
    x or Phi: it is one out-of-place multiply by the incoming gradient.

    The fit: h(s), s = x^2, approximates (1/2) logit Phi(x) / x, fitted in
    float64 by iteratively reweighted least squares on x in (0, 5.3] with
    weights 1/tol(x), tol(x) = 3e-7 max(1, x) / (x^2 Phi (1 - Phi)), the
    error in h that moves the output by about 3e-7 max(1, x); beyond 5.3,
    Phi rounds to 1 in float32. On a dense float32 grid over [-10, 10] the
    result is within 3e-7 max(1, |x|) of x * Phi(x) in float64 (measured:
    1.27e-7). Degree 5 misses that bound in float32 (3.2e-7 on |x| <= 5.3).

    The tails are exact: h > 0 on [0, 36], so u h(u^2) has the sign of x,
    and at the clip it is +-12.1, where float32 tanh is exactly +-1. So
    Phi lies in [0, 1], gelu(x) <= 0 for x <= 0, gelu(x) is -0 for
    x <= -6 and x itself for x >= 6, and no finite input overflows.
    """
    dx = _coerce(x)
    keep = _tape() is not None and _needs_grad(x)[0]
    out = np.empty_like(dx)
    dgelu = _gelu_into(dx.reshape(-1), out.reshape(-1), keep)
    if keep:
        dgelu = dgelu.reshape(dx.shape)
    return _apply(out, (x,), lambda g: (dgelu * g,),
                  6 * dx.size)  # by convention


# ---------------------------------------------------------------------------
# The fused deploy block

def deploy_block(x: Tensor, norm1_gamma: Tensor, norm1_beta: Tensor,
                 norm2_gamma: Tensor, norm2_beta: Tensor, w1: Tensor,
                 b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """A whole block of the fused deploy form, y + w2 gelu(w1 norm2(y) + b1)
    + b2 with y = x + norm1(x), as one kernel: norm1 and norm2 are
    group_norm_1's single-group norms, w1 and w2 channel_linear's maps.

    With k1 and mu1 a sample's inverse std and mean, norm1 is x a1 + c1
    per (n, c), a1 = k1 g and c1 = b - mu1 k1 g for norm1's gamma g and
    beta b, so y = x A + c1 with A = 1 + a1. Both norms' statistics are
    group_norm_1's (`_moments`): norm1's taken on x's float64 copy, norm2's
    on y formed in float64 over that copy. norm2(y) is then x (A a2) +
    (c1 a2 + c2), one float32 scale-and-shift pass that is the first
    GEMM's input. The hidden activation runs gelu's blocked loop
    (`_gelu_into`), and an epilogue adds x A, then c1 + b2, to the second
    GEMM's output. No statistic mixes samples, so a sample's output does
    not depend on its batch.

    Only x gets a gradient, through group_norm_1's adjoint
    (`_norm_input_grad`) for each norm and gelu's: the backward reads the
    GELU derivative that `_gelu_into` kept, which it forms only then, and
    not the hidden pre-activation. Deploy weights are fixed, so a weight that
    requires a gradient while a tape records raises TapeError. Counted by
    the kernels it replaces: 8 FLOPs per element for the statistics and the
    scale-and-shift (one norm), each GEMM as channel_linear counts it with
    its bias (c1 rides with b2), 6 per hidden element for the GELU and 2
    per element for the residual x A.
    """
    weights = (norm1_gamma, norm1_beta, norm2_gamma, norm2_beta, w1, b1, w2, b2)
    dx = _coerce(x)
    g1, be1, g2, be2, dw1, db1, dw2, db2 = map(_coerce, weights)
    if dx.ndim != 4 or dw1.ndim != 2:
        raise ShapeError(f"deploy_block: x {dx.shape}, w1 {dw1.shape}")
    n, c, h, wdt = dx.shape
    hidden = dw1.shape[0]
    if [v.shape for v in (g1, be1, g2, be2, dw1, db1, dw2, db2)] != [
            (c,)] * 4 + [(hidden, c), (hidden,), (c, hidden), (c,)]:
        raise ShapeError(f"deploy_block: x {dx.shape} needs ({c},) norm "
                         f"vectors and b2, w1 ({hidden}, {c}), b1 "
                         f"({hidden},) and w2 ({c}, {hidden})")
    tape = _tape()
    if tape is not None and any(_needs_grad(*weights)):
        raise TapeError("deploy_block gives its weights no gradient; a deploy "
                        "weight that requires one cannot be trained")
    need_x = tape is not None and _needs_grad(x)[0]

    hw = h * wdt
    x3 = dx.reshape(n, c, hw)
    x64 = x3.astype(np.float64)
    mu1, istd1 = _moments(x64)
    a1 = istd1[:, None] * g1
    c1 = be1 - mu1[:, None] * a1
    big_a = a1 + 1.0
    # y = x A + c1 in float64, over x's copy, for norm2's statistics
    x64 *= big_a[:, :, None]
    x64 += c1[:, :, None]
    mu2, istd2 = _moments(x64)
    a2 = istd2[:, None] * g2
    # float32 (N, C, 1): norm2's scale and shift of x, A, and c1 + b2
    scale, shift, a32, shift_out = np.array((
        big_a * a2, (c1 - mu2[:, None]) * a2 + be2, big_a, c1 + db2),
        np.float32)[..., None]

    z = np.multiply(x3, scale)
    z += shift
    pre = dw1 @ z  # one (hidden, C) @ (C, HW) GEMM per sample
    pre += db1[:, None]
    act = np.empty_like(pre)
    dgelu = _gelu_into(pre.reshape(-1), act.reshape(-1), need_x)
    if need_x:
        dgelu = dgelu.reshape(pre.shape)
    out = dw2 @ act
    out += np.multiply(x3, a32, out=z)
    out += shift_out

    def bwd(g):
        g3 = g.reshape(n, c, hw)
        gz = dw1.T @ (dgelu * (dw2.T @ g3))
        y3 = np.multiply(x3, a32)
        y3 += c1.astype(np.float32)[:, :, None]
        gy, _, _ = _norm_input_grad(gz, y3, mu2, istd2, g2,
                                    a2.astype(np.float32)[:, :, None])
        gy += g3
        gx, _, _ = _norm_input_grad(gy, x3, mu1, istd1, g1, a32)
        return (gx.reshape(dx.shape),) + (None,) * len(weights)

    flops = ((2 * c + 1) * hidden + 6 * hidden + (2 * hidden + 1) * c) * n * hw
    return _apply(out.reshape(dx.shape), (x, *weights), bwd,
                  flops + 10 * dx.size)


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last dimension."""
    dx = _coerce(x).astype(np.float64)
    z = dx - dx.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    sm = np.exp(out)

    def bwd(g):
        return ((g - sm * g.sum(axis=-1, keepdims=True)).astype(np.float32),)

    return _apply(out, (x,), bwd, 5 * dx.size)  # max, sub, exp, sum, sub


def global_spatial_mean(x: Tensor) -> Tensor:
    """(N, C, H, W) -> (N, C) mean over spatial positions."""
    dx = _coerce(x)
    if dx.ndim != 4:
        raise ShapeError(f"global_spatial_mean expects 4-D input, got {dx.shape}")
    n, c, h, w = dx.shape
    return _apply(dx.mean(axis=(2, 3)), (x,),
                  lambda g: (np.broadcast_to(g[:, :, None, None] / (h * w),
                                             dx.shape).copy(),), dx.size)


def kl_div(log_p: Tensor, log_q: Tensor) -> Tensor:
    """KL(p || q) from log-probabilities, averaged over the batch (first dim).

    Gradient flows into `log_q` only; `log_p` is treated as the (frozen)
    reference distribution, which is how a distillation target is used.
    """
    dlp, dlq = _coerce(log_p), _coerce(log_q)
    if dlp.shape != dlq.shape:
        raise ShapeError(f"kl_div shape mismatch: {dlp.shape} vs {dlq.shape}")
    p = np.exp(dlp.astype(np.float64))
    n = dlp.shape[0]
    out = (p * (dlp - dlq)).sum() / n

    def bwd(g):
        return (None, (-g * p / n).astype(np.float32))

    return _apply(out, (log_p, log_q), bwd, 4 * dlp.size)  # exp, sub, mul, sum
