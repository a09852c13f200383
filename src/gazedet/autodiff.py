"""Minimal dense-tensor engine with reverse-mode gradients.

Everything is float64 on CPU and fully deterministic: the same seed gives a
bitwise-identical training trajectory. The graph is a plain tape of applied
ops (each output tensor remembers its parents and a backward closure, except
inside ``no_grad()``); there is no general graph compiler because the
detector is a fixed pipeline.

Conventions:
  - conv2d is cross-correlation (no kernel flip), NCHW layout.
  - ReLU subgradient at 0 is 0.
  - Any op that would produce NaN/Inf raises NumericsError instead.
  - A loss's mean is sum / max(n, 1): bitwise np.mean for n >= 1, and 0.0
    with a zero-size gradient over zero rows, so empty batches need no branch.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "LayerParams",
    "NumericsError",
    "no_grad",
    "ShapeError",
    "conv2d",
    "relu",
    "maxpool2d",
    "linear",
    "sigmoid",
    "elementwise_combine",
    "reshape",
    "transpose",
    "flatten",
    "gather_rows",
    "take_channel_per_row",
    "tensor_sum",
    "softmax_cross_entropy",
    "bce_with_logits",
    "smooth_l1",
    "grad_check",
    "sgd_step",
    "kaiming",
]


class NumericsError(FloatingPointError):
    """An op produced or received a non-finite value."""


class ShapeError(ValueError):
    """Operand shapes are incompatible; message names both shapes."""


def _check_finite(arr: np.ndarray, ctx: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values in {ctx}")
    return arr


class Tensor:
    """Dense f64 array with an optional gradient buffer.

    ``requires_grad`` marks trainable leaves; interior nodes propagate
    gradients whenever any ancestor is trainable.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _check_finite(np.asarray(data, dtype=np.float64, order="C"),
                                  "tensor constructor")
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def tracked(self) -> bool:
        return self.requires_grad or bool(self._parents)

    def item(self) -> float:
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray) -> None:
        # the first g is stored as 0.0 + g: bitwise a zeroed buffer plus g
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse pass from a scalar output."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents)
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return elementwise_combine(self, other, "sum")

    def __mul__(self, other: "Tensor") -> "Tensor":
        return elementwise_combine(self, other, "mul")


_grad_enabled = True


@contextmanager
def no_grad():
    """Ops inside the block record no parents and no backward closure, so
    their outputs are untracked constants and their buffers are freed as
    soon as the caller drops them. The previous mode is restored on exit,
    also when the block raises."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _node(data: np.ndarray, vjps: tuple, ctx: str) -> Tensor:
    """An op's output. ``vjps`` pairs each input with its vector-Jacobian
    product, the map from the output's gradient to that input's gradient.
    Only pairs whose input is tracked when the op runs (not when backward
    runs) are kept, and none under no_grad(); their inputs become
    ``_parents`` and ``_backward`` runs ``p.accumulate_grad(fn(g))`` for each
    kept pair in order, or is None when none is kept."""
    out = Tensor.__new__(Tensor)
    out.data = _check_finite(np.asarray(data, dtype=np.float64, order="C"), ctx)
    out.grad = None
    out.requires_grad = False
    kept = [(p, fn) for p, fn in vjps if p.tracked] if _grad_enabled else []
    out._parents = tuple(p for p, _ in kept)
    out._backward = None
    if kept:
        def backward(g):
            for p, fn in kept:
                p.accumulate_grad(fn(g))
        out._backward = backward
    return out


@dataclass
class LayerParams:
    """Trainable weights/bias for one layer.

    conv2d weights: (C_out, C_in, kH, kW); linear weights: (M, D).
    Bias length is C_out / M.
    """

    weights: Tensor
    bias: Tensor

    @property
    def kind(self) -> str:
        return "conv2d" if self.weights.data.ndim == 4 else "linear"

    def tensors(self) -> tuple[Tensor, Tensor]:
        return (self.weights, self.bias)


def kaiming(shape: tuple, rng: np.random.Generator) -> LayerParams:
    """He-uniform weights, then a bias of ``shape[:1]``; fan-in is ``prod(shape[1:])``."""
    fan_in = int(np.prod(shape[1:]))
    bound = np.sqrt(6.0 / fan_in)
    w = rng.uniform(-bound, bound, size=shape)
    b = rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=shape[:1])
    return LayerParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


# ---------------------------------------------------------------------------
# primitive ops


def _taps(kh: int, kw: int, stride: int, ho: int, wo: int):
    """Yield (i, j, index) per kernel tap in row-major order; ``a[index]`` is
    the (..., ho, wo) strided view of what tap (i, j) reads for every output
    cell of a window sweep over ``a``."""
    for i in range(kh):
        for j in range(kw):
            yield i, j, (..., slice(i, i + ho * stride, stride), slice(j, j + wo * stride, stride))


def conv2d(x: Tensor, params: LayerParams, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation over NCHW input; output H' = (H + 2p - kH)//s + 1.

    One GEMM in a (C*kH*kW, N*H'*W') column layout: forward ``W @ cols``,
    weight gradient ``g @ cols.T``, input gradient ``W.T @ g`` added back
    tap by tap as contiguous (C, N, H', W') planes.
    """
    if stride < 1 or pad < 0:
        raise ShapeError(f"invalid stride/pad ({stride}, {pad})")
    w, b = params.weights, params.bias
    n, c, h, wid = x.data.shape
    f, c_w, kh, kw = w.data.shape
    if c != c_w:
        raise ShapeError(f"conv2d channel mismatch: input {x.data.shape} vs weights {w.data.shape}")
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d kernel {w.data.shape} larger than padded input {x.data.shape}")

    if pad:
        xp = np.zeros((n, c, h + 2 * pad, wid + 2 * pad))
        xp[:, :, pad : pad + h, pad : pad + wid] = x.data
    else:
        xp = x.data
    k, nl = c * kh * kw, n * ho * wo
    sn, sc, sh, sw = xp.strides
    # rows (c, i, j), columns (n, y, x): one strided view, copied once by the reshape
    cols = np.lib.stride_tricks.as_strided(
        xp, (c, kh, kw, n, ho, wo), (sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False).reshape(k, nl)
    wmat = w.data.reshape(f, k)
    y = wmat @ cols  # (f, n*ho*wo)
    y += b.data[:, None]

    def g_mat(g):
        return g.transpose(1, 0, 2, 3).reshape(f, nl)

    def dx(g):
        dcols = (wmat.T @ g_mat(g)).reshape(c, kh, kw, n, ho, wo)
        dxp = np.zeros((c, n, h + 2 * pad, wid + 2 * pad))
        for i, j, tap in _taps(kh, kw, stride, ho, wo):
            dxp[tap] += dcols[:, i, j]
        return dxp[:, :, pad : pad + h, pad : pad + wid].transpose(1, 0, 2, 3)

    return _node(y.reshape(f, n, ho, wo).transpose(1, 0, 2, 3), (
        (w, lambda g: (g_mat(g) @ cols.T).reshape(w.data.shape)),
        (b, lambda g: g.sum(axis=(0, 2, 3))),
        (x, dx),
    ), "conv2d output")


def relu(x: Tensor) -> Tensor:
    # np.maximum(-0.0, 0.0) is 0.0, so no output is a negative zero
    return _node(np.maximum(x.data, 0.0), ((x, lambda g: g * (x.data > 0)),), "relu output")


def maxpool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Window maxima; gradient routed to the first max in row-major window order.

    Rows and columns that no full window covers are dropped.
    """
    n, c, h, w = x.data.shape
    if k > h or k > w:
        raise ShapeError(f"pool window {k} larger than input {x.data.shape}")
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    taps = [tap for _i, _j, tap in _taps(k, k, stride, ho, wo)]
    out_data = x.data[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out_data, x.data[tap], out=out_data)

    def dx(g):
        dx = np.zeros_like(x.data)
        unrouted = np.ones(out_data.shape, dtype=bool)  # windows not yet given their g
        hit = np.empty(out_data.shape, dtype=bool)
        for tap in taps:
            np.equal(x.data[tap], out_data, out=hit)
            hit &= unrouted
            unrouted ^= hit
            # g * False is -0.0 for negative g, and 0.0 + -0.0 is 0.0, so
            # the sum is bitwise what adding only the routed g would give
            dx[tap] += np.multiply(g, hit)
        return dx

    return _node(out_data, ((x, dx),), "maxpool2d output")


def linear(x: Tensor, params: LayerParams) -> Tensor:
    """Affine map x @ W.T + b for 2-D inputs (N, D) -> (N, M)."""
    w, b = params.weights, params.bias
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"linear shape mismatch: input {x.data.shape} vs weights {w.data.shape}")
    return _node(x.data @ w.data.T + b.data, (
        (w, lambda g: g.T @ x.data),
        (b, lambda g: g.sum(axis=0)),
        (x, lambda g: g @ w.data),
    ), "linear output")


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _stable_sigmoid(x.data)
    return _node(s, ((x, lambda g: g * s * (1.0 - s)),), "sigmoid output")


def elementwise_combine(a: Tensor, b: Tensor, mode: str) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"combine shape mismatch: {a.data.shape} vs {b.data.shape}")
    if mode == "sum":
        vjps = ((a, lambda g: g), (b, lambda g: g))
        out_data = a.data + b.data
    elif mode == "mul":
        vjps = ((a, lambda g: g * b.data), (b, lambda g: g * a.data))
        out_data = a.data * b.data
    else:
        raise ValueError(f"unknown combine mode {mode!r}")
    return _node(out_data, vjps, "combine output")


def reshape(x: Tensor, shape: tuple) -> Tensor:
    old = x.data.shape
    return _node(x.data.reshape(shape), ((x, lambda g: g.reshape(old)),), "reshape output")


def transpose(x: Tensor, axes: tuple) -> Tensor:
    inv = tuple(np.argsort(axes))
    return _node(x.data.transpose(axes), ((x, lambda g: g.transpose(inv)),), "transpose output")


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    shape = x.data.shape
    # the trailing size is spelled out: numpy cannot infer -1 for zero rows
    out_data = x.data.reshape(shape[:start_dim] + (int(np.prod(shape[start_dim:])),))
    return _node(out_data, ((x, lambda g: g.reshape(shape)),), "flatten output")


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)

    def dx(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, idx, g)
        return dx

    return _node(x.data[idx], ((x, dx),), "gather output")


def take_channel_per_row(x: Tensor, channels: np.ndarray) -> Tensor:
    """From (R, K, ...) take one K-channel per row -> (R, ...)."""
    channels = np.asarray(channels, dtype=np.intp)
    rows = np.arange(x.data.shape[0])

    def dx(g):
        dx = np.zeros_like(x.data)
        dx[rows, channels] = g
        return dx

    return _node(x.data[rows, channels], ((x, dx),), "channel-select output")


def tensor_sum(x: Tensor) -> Tensor:
    return _node(np.asarray(x.data.sum()), ((x, lambda g: np.broadcast_to(g, x.data.shape)),),
                 "sum output")


# ---------------------------------------------------------------------------
# fused losses (stable log-sum-exp / log1p forms with analytic gradients)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean multiclass CE over rows of (R, K) logits against integer labels."""
    labels = np.asarray(labels, dtype=np.intp)
    z = logits.data
    r = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    logsum = np.log(ez.sum(axis=1)) + zmax[:, 0]
    losses = logsum - z[np.arange(r), labels]
    n = max(r, 1)

    def dz(g):
        p = ez / ez.sum(axis=1, keepdims=True)
        p[np.arange(r), labels] -= 1.0
        return g * p / n

    return _node(np.asarray(losses.sum() / n), ((logits, dz),), "softmax-CE output")


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary CE of sigmoid(logits) against {0,1} targets, any shape."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.data.shape:
        raise ShapeError(f"bce target shape {t.shape} vs logits {logits.data.shape}")
    z = logits.data
    losses = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = max(z.size, 1)
    return _node(np.asarray(losses.sum() / n),
                 ((logits, lambda g: g * (_stable_sigmoid(z) - t) / n),), "bce output")


def smooth_l1(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Smooth-L1 summed over the last axis, averaged over rows.

    Per element: 0.5 x^2 for |x| < 1, |x| - 0.5 otherwise.
    """
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != pred.data.shape:
        raise ShapeError(f"smooth_l1 target shape {t.shape} vs pred {pred.data.shape}")
    d = pred.data - t
    absd = np.abs(d)
    per = np.where(absd < 1.0, 0.5 * d * d, absd - 0.5)
    r = max(pred.data.shape[0], 1) if pred.data.ndim > 1 else 1
    return _node(np.asarray(per.sum() / r),
                 ((pred, lambda g: g * np.where(absd < 1.0, d, np.sign(d)) / r),),
                 "smooth-l1 output")


# ---------------------------------------------------------------------------
# verification and optimization


def grad_check(fn, inputs: list[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn(*inputs)`` must return a scalar Tensor. Error is
    |analytic - numeric| / max(1, |analytic|), maximized over all elements
    of every input.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    if out.data.size != 1:
        raise ShapeError(f"grad_check closure must return a scalar, got {out.data.shape}")
    out.backward()
    worst = 0.0
    with no_grad():  # the 2N perturbed evaluations are never back-propagated
        for t in inputs:
            analytic = np.zeros_like(t.data) if t.grad is None else t.grad
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + eps
                f_pos = fn(*inputs).item()
                flat[i] = old - eps
                f_neg = fn(*inputs).item()
                flat[i] = old
                numeric = (f_pos - f_neg) / (2.0 * eps)
                a = analytic.reshape(-1)[i]
                worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
    for t in inputs:
        t.zero_grad()
    return worst


def sgd_step(params: dict[str, LayerParams], velocities: dict, lr: float,
             momentum: float = 0.0) -> None:
    """v <- momentum*v - lr*g; w <- w + v; grads zeroed afterward. ``velocities``
    maps each name in ``params`` to its (weights, bias) v, updated in place.

    A tensor with no gradient (its parameter did not contribute to the
    loss this step) counts as a zero gradient, so its momentum still decays.
    """
    for name, p in params.items():
        for part, t, v in zip(("weights", "bias"), p.tensors(), velocities[name]):
            v *= momentum
            if t.grad is not None:
                v -= lr * t.grad
            t.data = _check_finite(t.data + v, f"sgd_step update of layer {name!r} {part}")
            t.grad = None
