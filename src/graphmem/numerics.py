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
        ``free=True`` drops intermediate links as they are consumed, so each
        intermediate is collected as soon as the pass is done with it.
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
        while topo:
            node = topo.pop()
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
    for t in tensors:
        if t.requires_grad or t._backward is not None:
            return True
    return False


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


def _stable_sigmoid(d: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(d))  # never overflows, so both tails stay finite
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# name -> (forward, derivative written in terms of the output)
_ACTIVATIONS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]] = {
    "relu": (lambda a: np.maximum(a, 0.0), lambda y: y > 0.0),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "sigmoid": (_stable_sigmoid, lambda y: y * (1.0 - y)),
}


def _activation(x: Tensor, name: str) -> Tensor:
    forward_fn, derivative = _ACTIVATIONS[name]
    out = Tensor(forward_fn(x.data))
    if not _tracked(x):
        return out
    y = out.data

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * derivative(y))

    return _record(out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return _activation(x, "relu")


def tanh(x: Tensor) -> Tensor:
    return _activation(x, "tanh")


def sigmoid(x: Tensor) -> Tensor:
    return _activation(x, "sigmoid")


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


def _sum_rows(rows: np.ndarray, index: np.ndarray, n_out: int) -> np.ndarray:
    """(n_out, k) sums of the rows of ``rows`` grouped by ``index``; ids
    that no row carries give zero rows."""
    k = rows.shape[1]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n_out * k).reshape(n_out, k)


def gather_sum(x: Tensor, weights: Tensor, src, dst, n_out: int, tail: Tensor | None = None) -> Tensor:
    """Weighted gather-sum over an edge list: ``out[d]`` is the sum of
    ``weights[e] * x[src[e]]`` over the edges ``e`` with ``dst[e] == d``.

    ``x`` is (n, k), ``weights``, ``src`` and ``dst`` have one entry per
    edge; the output is (n_out, k). With ``tail``, an (n_out, j) tensor,
    the output is (n_out, k + j) with the tail's columns after the sums.
    Backward gathers the rows of ``x`` again instead of keeping the
    (edges, k) copy from the forward pass.
    """
    s = np.asarray(src, dtype=np.intp)
    d = np.asarray(dst, dtype=np.intp)
    if (x.ndim != 2 or weights.ndim != 1 or s.shape != weights.shape or d.shape != weights.shape
            or (tail is not None and tail.shape[0] != n_out)):
        raise _shape_error("gather_sum", x.shape, weights.shape, s.shape, d.shape)
    summed = _sum_rows(weights.data[:, None] * x.data[s], d, n_out)
    out = Tensor(summed if tail is None else np.concatenate([summed, tail.data], axis=1))
    parents = (x, weights) if tail is None else (x, weights, tail)
    if not _tracked(*parents):
        return out
    k = x.data.shape[1]

    def backward(g: np.ndarray) -> None:
        if tail is not None and _tracked(tail):
            _accumulate(tail, g[:, k:])
        at_dst = g[d, :k]
        if _tracked(x):
            _accumulate(x, _sum_rows(weights.data[:, None] * at_dst, s, x.data.shape[0]))
        if _tracked(weights):
            _accumulate(weights, np.einsum("ek,ek->e", at_dst, x.data[s]))

    return _record(out, parents, backward)


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


def linear_sum(
    terms: Sequence[tuple[Tensor, Tensor] | tuple[Tensor, Tensor, np.ndarray]],
    bias: Tensor | None = None,
    activation: str | None = None,
    project: Tensor | None = None,
) -> Tensor:
    """Fused, optionally activated, sum of right-transposed products:
    ``activation(sum_k x_k @ W_k.T + bias)``, optionally ``@ project``.

    A term is ``(x, W)`` or ``(x, W, rows)``. ``x`` is (n, in) or (in,) and
    ``W`` is (out, in); 1-D results broadcast across rows. With ``rows``,
    an integer index, the term contributes ``(x @ W.T)[rows]``: the product
    is taken once per row of a 2-D ``x`` and then gathered, so that per-graph
    rows reach per-node outputs (or per-node rows reach per-edge outputs)
    without gathered copies of ``x``. ``activation`` is None, "relu",
    "tanh" or "sigmoid"; it is applied inside this one tape node, whose
    backward works from the output, so no pre-activation is kept. With
    ``project``, an (out,) vector, the node returns one value per row and
    recomputes the activated rows during backward instead of keeping them.
    """
    parts: list[tuple[Tensor, Tensor, np.ndarray | None]] = []
    for term in terms:
        x, w = term[0], term[1]
        rows = np.asarray(term[2], dtype=np.intp) if len(term) == 3 else None
        if w.ndim != 2 or x.data.shape[-1] != w.data.shape[1] or (rows is not None and x.ndim != 2):
            raise _shape_error("linear_sum", x.shape, w.shape)
        parts.append((x, w, rows))
    if not parts:
        raise ValueError("linear_sum of no terms")
    if project is not None and project.shape != (parts[0][1].data.shape[0],):
        raise _shape_error("linear_sum", parts[0][1].shape, project.shape)

    def evaluate() -> np.ndarray:
        acc = None
        for x, w, rows in parts:
            piece = x.data @ w.data.T
            if rows is not None:
                piece = piece[rows]
            acc = piece if acc is None else acc + piece
        if bias is not None:
            acc = acc + bias.data
        return acc if activation is None else _ACTIVATIONS[activation][0](acc)

    y = evaluate()
    out = Tensor(y if project is None else y @ project.data)
    flat_parents = (tuple(t for x, w, _ in parts for t in (x, w)) + ((bias,) if bias is not None else ())
                    + ((project,) if project is not None else ()))
    if not _tracked(*flat_parents):
        return out

    def backward(g: np.ndarray) -> None:
        y = out.data if project is None else evaluate()
        if project is not None:
            if _tracked(project):
                _accumulate(project, np.tensordot(g, y, g.ndim))
            g = np.multiply.outer(g, project.data)
        if activation is not None:
            g = g * _ACTIVATIONS[activation][1](y)
        for x, w, rows in parts:
            if rows is not None:
                gx = _sum_rows(g, rows, x.data.shape[0])
            else:
                gx = _unbroadcast(g, (w.data.shape[0],) if x.ndim == 1 else (x.data.shape[0], w.data.shape[0]))
            if _tracked(x):
                _accumulate(x, gx @ w.data)
            if _tracked(w):
                _accumulate(w, np.outer(gx, x.data) if x.ndim == 1 else gx.T @ x.data)
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


def dropout(
    x: Tensor,
    rate: float,
    rng: np.random.Generator | Sequence[np.random.Generator] | None,
    training: bool,
    bounds: np.ndarray | None = None,
) -> Tensor:
    """Inverted dropout: zero with probability ``rate`` and rescale survivors.

    Identity at inference or rate 0; requires a generator when active.
    With ``bounds``, row offsets ``0 = b_0 < ... < b_n`` ending at the row
    count, ``rng`` is a sequence of ``n`` generators and rows
    ``b_k..b_{k+1}`` draw their mask from generator ``k`` alone, so a block
    gets the mask it would get without the other blocks.
    """
    if rate < 0.0 or rate >= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs a random generator")
    if bounds is None:
        draw = rng.random(x.data.shape)
    else:
        if len(rng) != len(bounds) - 1:
            raise ValueError(f"dropout over {len(bounds) - 1} row blocks needs as many generators, got {len(rng)}")
        draw = np.concatenate([gen.random((hi - lo,) + x.data.shape[1:])
                               for gen, lo, hi in zip(rng, bounds[:-1], bounds[1:])])
    mask = (draw >= rate) / (1.0 - rate)
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
