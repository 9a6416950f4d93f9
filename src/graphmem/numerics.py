"""Dense float64 tensors with reverse-mode automatic differentiation.

The tape is dynamic: any operation that touches a gradient-bearing tensor
records its inputs and a backward closure, and ``Tensor.backward`` replays
the recording in reverse topological order. Operations that only see
constants produce constants, so per-graph fixed data (adjacency, features)
costs nothing at backward time.

All arrays are float64 and row-major. Gradient correctness is certified
against :func:`finite_difference_gradient`; that check is the contract for
every exported operation here.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _shape_error(op: str, *shapes) -> DimensionError:
    return DimensionError(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse mode.

    Leaf tensors created with ``requires_grad=True`` accumulate into
    ``grad``; everything else is an intermediate whose links are dropped
    once its share of the backward pass has run.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed=None, free: bool = True) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``seed`` defaults to ones (d self/d self); pass a scalar to scale
        the whole pass, e.g. 1/batch when averaging example losses.
        ``free=True`` drops intermediate links as they are consumed so the
        tape is collected promptly.
        """
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        if seed is None:
            self.grad = np.ones_like(self.data)
        else:
            self.grad = np.broadcast_to(np.asarray(seed, dtype=np.float64), self.data.shape).copy()
        for node in reversed(topo):
            fn = node._backward
            if fn is not None and node.grad is not None:
                fn(node.grad)
            if free and fn is not None:
                node._backward = None
                node._parents = ()
                node.grad = None

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, _as_tensor(1.0 / other))

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _tracked(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._backward is not None for t in tensors)


def _record(out: Tensor, parents: tuple[Tensor, ...], backward: Callable[[np.ndarray], None]) -> Tensor:
    out._parents = parents
    out._backward = backward
    return out


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    if tensor.grad is None:
        tensor.grad = np.array(grad, dtype=np.float64)
    else:
        tensor.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes numpy broadcasting introduced for ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    if not _tracked(a, b):
        return out

    def backward(g: np.ndarray) -> None:
        if _tracked(a):
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if _tracked(b):
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    if not _tracked(a, b):
        return out

    def backward(g: np.ndarray) -> None:
        if _tracked(a):
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if _tracked(b):
            _accumulate(b, -_unbroadcast(g, b.data.shape))

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    if not _tracked(a, b):
        return out

    def backward(g: np.ndarray) -> None:
        if _tracked(a):
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if _tracked(b):
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    out = Tensor(a.data ** exponent)
    if not _tracked(a):
        return out

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * exponent * a.data ** (exponent - 1))

    return _record(out, (a,), backward)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    if not _tracked(x):
        return out

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (x.data > 0.0))

    return _record(out, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data))
    if not _tracked(x):
        return out
    y = out.data

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (1.0 - y * y))

    return _record(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    # stable in both tails
    y = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out = Tensor(y)
    if not _tracked(x):
        return out

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * y * (1.0 - y))

    return _record(out, (x,), backward)


def log(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data))
    if not _tracked(x):
        return out

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g / x.data)

    return _record(out, (x,), backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    out = Tensor(np.clip(x.data, lo, hi))
    if not _tracked(x):
        return out
    inside = (x.data >= lo) & (x.data <= hi)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * inside)

    return _record(out, (x,), backward)


def lerp(gate: Tensor, new: Tensor, old: Tensor) -> Tensor:
    """gate*new + (1-gate)*old, elementwise; the skip-connection mixer."""
    out = Tensor(gate.data * new.data + (1.0 - gate.data) * old.data)
    if not _tracked(gate, new, old):
        return out

    def backward(g: np.ndarray) -> None:
        if _tracked(gate):
            _accumulate(gate, _unbroadcast(g * (new.data - old.data), gate.data.shape))
        if _tracked(new):
            _accumulate(new, _unbroadcast(g * gate.data, new.data.shape))
        if _tracked(old):
            _accumulate(old, _unbroadcast(g * (1.0 - gate.data), old.data.shape))

    return _record(out, (gate, new, old), backward)


# -- reductions and shape ops ----------------------------------------------


def total(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(x.data.sum())
    if not _tracked(x):
        return out

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.full_like(x.data, float(g)))

    return _record(out, (x,), backward)


def mean(x: Tensor) -> Tensor:
    return total(x) / x.data.size


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ValueError("concat of no tensors")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    if not _tracked(*parts):
        return out
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if _tracked(part):
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                _accumulate(part, g[tuple(index)])

    return _record(out, tuple(parts), backward)


def scatter(values: Tensor, rows, cols, shape: tuple[int, int]) -> Tensor:
    """Zero matrix of ``shape`` with ``values[k]`` added at ``(rows[k], cols[k])``.

    Backward gathers the output gradient at the same positions.
    """
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    if values.ndim != 1 or r.shape != values.shape or c.shape != values.shape:
        raise _shape_error("scatter", values.shape, r.shape, c.shape)
    flat = np.ravel_multi_index((r, c), shape)
    out = Tensor(np.bincount(flat, weights=values.data, minlength=shape[0] * shape[1]).reshape(shape))
    if not _tracked(values):
        return out

    def backward(g: np.ndarray) -> None:
        _accumulate(values, g[r, c])

    return _record(out, (values,), backward)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows of a matrix; backward scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(x.data[idx])
    if not _tracked(x):
        return out

    def backward(g: np.ndarray) -> None:
        scat = np.zeros_like(x.data)
        np.add.at(scat, idx, g)
        _accumulate(x, scat)

    return _record(out, (x,), backward)


# -- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product for 1-D and 2-D operands, numpy semantics."""
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise _shape_error("matmul", a.shape, b.shape)
    if a.data.shape[-1] != b.data.shape[0]:
        raise _shape_error("matmul", a.shape, b.shape)
    out = Tensor(a.data @ b.data)
    if not _tracked(a, b):
        return out

    def backward(g: np.ndarray) -> None:
        if _tracked(a):
            if a.ndim == 1 and b.ndim == 1:
                _accumulate(a, g * b.data)
            elif b.ndim == 1:
                _accumulate(a, np.outer(g, b.data))
            elif a.ndim == 1:
                _accumulate(a, b.data @ g)
            else:
                _accumulate(a, g @ b.data.T)
        if _tracked(b):
            if a.ndim == 1 and b.ndim == 1:
                _accumulate(b, g * a.data)
            elif a.ndim == 1:
                _accumulate(b, np.outer(a.data, g))
            elif b.ndim == 1:
                _accumulate(b, a.data.T @ g)
            else:
                _accumulate(b, a.data.T @ g)

    return _record(out, (a, b), backward)


def affine(weight: Tensor, x: Tensor, bias) -> Tensor:
    """weight @ x + bias."""
    return add(matmul(weight, x), _as_tensor(bias))


def linear_sum(terms: Sequence[tuple[Tensor, Tensor]], bias: Tensor | None = None) -> Tensor:
    """Fused sum of right-transposed products: sum_k x_k @ W_k.T (+ bias).

    Each ``x_k`` is (n,in_k) or (in_k,); each ``W_k`` is (out,in_k). 2-D and
    1-D terms may mix, in which case 1-D results broadcast across rows.
    One tape node instead of 2k+1 keeps per-example graphs small.
    """
    acc: np.ndarray | None = None
    for x, w in terms:
        if w.ndim != 2 or x.data.shape[-1] != w.data.shape[1]:
            raise _shape_error("linear_sum", x.shape, w.shape)
        piece = x.data @ w.data.T
        acc = piece if acc is None else acc + piece
    if acc is None:
        raise ValueError("linear_sum of no terms")
    if bias is not None:
        acc = acc + bias.data
    out = Tensor(acc)
    flat_parents = tuple(t for pair in terms for t in pair) + ((bias,) if bias is not None else ())
    if not _tracked(*flat_parents):
        return out

    def backward(g: np.ndarray) -> None:
        for x, w in terms:
            term_shape = (w.data.shape[0],) if x.ndim == 1 else (x.data.shape[0], w.data.shape[0])
            gx = _unbroadcast(g, term_shape)
            if _tracked(x):
                _accumulate(x, gx @ w.data)
            if _tracked(w):
                if x.ndim == 1:
                    _accumulate(w, np.outer(gx, x.data))
                else:
                    _accumulate(w, gx.T @ x.data)
        if bias is not None and _tracked(bias):
            _accumulate(bias, _unbroadcast(g, bias.data.shape))

    return _record(out, flat_parents, backward)


def softmax(scores: Tensor) -> Tensor:
    """Probability vector over a 1-D score vector, max-subtracted for stability."""
    if scores.data.size == 0:
        raise ValueError("softmax of an empty vector")
    if scores.ndim != 1:
        raise _shape_error("softmax", scores.shape)
    shifted = scores.data - scores.data.max()
    e = np.exp(shifted)
    p = e / e.sum()
    out = Tensor(p)
    if not _tracked(scores):
        return out

    def backward(g: np.ndarray) -> None:
        _accumulate(scores, p * (g - float(g @ p)))

    return _record(out, (scores,), backward)


def segment_softmax(scores: Tensor, segments, n_segments: int) -> Tensor:
    """Softmax of a 1-D score vector within each segment: entry ``k`` is
    normalized over the entries whose ``segments`` id equals ``segments[k]``.

    Ids lie in ``0..n_segments-1``; every non-empty segment sums to one.
    Scores are max-subtracted per segment for stability.
    """
    seg = np.asarray(segments, dtype=np.intp)
    if scores.ndim != 1 or seg.shape != scores.shape:
        raise _shape_error("segment_softmax", scores.shape, seg.shape)
    peak = np.full(n_segments, -np.inf)
    np.maximum.at(peak, seg, scores.data)
    e = np.exp(scores.data - peak[seg])
    p = e / np.bincount(seg, weights=e, minlength=n_segments)[seg]
    out = Tensor(p)
    if not _tracked(scores):
        return out

    def backward(g: np.ndarray) -> None:
        _accumulate(scores, p * (g - np.bincount(seg, weights=g * p, minlength=n_segments)[seg]))

    return _record(out, (scores,), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout: zero with probability ``rate`` and rescale survivors.

    Identity at inference or rate 0; requires a generator when active.
    """
    if rate < 0.0 or rate >= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs a random generator")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return mul(x, constant(mask))


# -- initialization ---------------------------------------------------------


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


# -- the independent gradient oracle ----------------------------------------


def finite_difference_gradient(
    f: Callable[[], float],
    params: dict[str, np.ndarray],
    eps: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``f`` w.r.t. every entry of ``params``.

    ``f`` must be a deterministic closure over the arrays in ``params``
    (dropout off, inputs fixed); each coordinate is wiggled in place and
    restored. This is the oracle exact gradients are certified against --
    it must stay independent of the tape.
    """
    grads: dict[str, np.ndarray] = {}
    for name, array in params.items():
        grad = np.zeros_like(array)
        flat = array.reshape(-1)
        flat_grad = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = f()
            flat[i] = saved - eps
            f_minus = f()
            flat[i] = saved
            flat_grad[i] = (f_plus - f_minus) / (2.0 * eps)
        grads[name] = grad
    return grads


def max_relative_error(
    exact: dict[str, np.ndarray],
    estimate: dict[str, np.ndarray],
) -> tuple[float, str]:
    """max over coordinates of |g_exact - g_fd| / max(1, |g_fd|), with argmax name."""
    worst = 0.0
    worst_name = ""
    for name, fd in estimate.items():
        ex = exact.get(name)
        if ex is None:
            ex = np.zeros_like(fd)
        err = np.abs(ex - fd) / np.maximum(1.0, np.abs(fd))
        local = float(err.max()) if err.size else 0.0
        if local >= worst:
            worst = local
            worst_name = name
    return worst, worst_name
