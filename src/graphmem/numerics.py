"""Dense float64 tensors with reverse-mode automatic differentiation.

The tape is dynamic: any operation that touches a gradient-bearing tensor
records its inputs and a backward closure, and ``Tensor.backward`` replays
the recording in reverse topological order. Operations that only see
constants produce constants, so per-graph fixed data (adjacency, features)
costs nothing at backward time.

The operations are the fused nodes the model runs: :func:`linear_sum`,
:func:`gated_update`, :func:`segment_softmax`, :func:`binary_cross_entropy`
and :func:`dropout`. Each records one tape node however many products,
activations or gathers it computes; :func:`linear_sum` and
:func:`gated_update` check, sum and differentiate their terms with the
same code. The one weighted gather-sum, an :class:`EdgeSum`, is no node
of its own but any term's input: the attention read and the neighbour and
link sums. The model stores each gated update's weights stacked the way
:func:`gated_update` takes them, so parameters enter the tape as they are.

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

    def backward(self, seed=None) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``seed`` defaults to ones (d self/d self); pass a scalar to scale
        the whole pass, e.g. 1/batch when averaging example losses, or an
        array of ``self``'s shape to weight each entry. Intermediate links
        are dropped as they are consumed, so each intermediate is collected
        as soon as the pass is done with it, and a tape runs backward once.
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
            if fn is not None:
                node._backward = None
                node._parents = ()
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


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


def _stable_sigmoid(d: np.ndarray) -> np.ndarray:
    # neither exponent is positive, so neither overflows and both tails stay finite
    return np.exp(np.minimum(d, 0.0)) / (1.0 + np.exp(-np.abs(d)))


# name -> (forward, derivative written in terms of the output)
_ACTIVATIONS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]] = {
    "relu": (lambda a: np.maximum(a, 0.0), lambda y: y > 0.0),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "sigmoid": (_stable_sigmoid, lambda y: y * (1.0 - y)),
}


# -- gathers ----------------------------------------------------------------


def _sum_rows(rows: np.ndarray, index: np.ndarray, n_out: int) -> np.ndarray:
    """(n_out, k) sums of the rows of ``rows`` grouped by ``index``; ids
    that no row carries give zero rows."""
    k = rows.shape[1]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n_out * k).reshape(n_out, k)


def _edge_sum(x: Tensor, weights: Tensor, s: np.ndarray, keys: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The value, of shape ``shape``, of the :class:`EdgeSum` of these arguments."""
    return _sum_rows(weights.data[:, None] * x.data[s], keys, shape[0] * shape[1] // x.data.shape[1]).reshape(shape)


class EdgeSum:
    """A term input of :func:`linear_sum` and :func:`gated_update`: a
    weighted gather-sum over an edge list whose edges carry keys, with one
    column block per key group.

    The sum of ``weights[e] * x[src[e]]`` over the edges with ``keys[e] ==
    d * groups + r`` fills columns ``r*k:(r+1)*k`` of row ``d`` of the
    (n_out, groups * k) value, so one pass sums every group; a row and
    group without edges stays zero. An edge may join two cells of a graph
    or run from a cell to its graph's row, as in the attention read (one
    group, keyed by the cell's graph).

    ``data`` holds the value, computed once here. The node that consumes
    it keeps only the recipe (``x``, ``weights``, the edges and keys): its
    backward gathers the sums again instead of keeping ``data``.
    """

    __slots__ = ("x", "weights", "src", "keys", "data")

    def __init__(self, x: Tensor, weights: Tensor, src, keys, n_out: int, groups: int):
        s = np.asarray(src, dtype=np.intp)
        d = np.asarray(keys, dtype=np.intp)
        if x.ndim != 2 or weights.ndim != 1 or s.shape != weights.shape or d.shape != weights.shape:
            raise _shape_error("EdgeSum", x.shape, weights.shape, s.shape, d.shape)
        self.x, self.weights, self.src, self.keys = x, weights, s, d
        self.data = _edge_sum(x, weights, s, d, (n_out, groups * x.data.shape[1]))


# -- terms, the one path of both fused nodes ----------------------------------


def _term_sum(parts: list[tuple], inputs: list[np.ndarray] | None = None) -> np.ndarray:
    """The sum of the parts' products, over ``inputs`` or over inputs
    recomputed from the parts."""
    z = None
    for k, (x, w, rows, edges) in enumerate(parts):
        xd = inputs[k] if inputs else x.data if edges is None else _edge_sum(x, *edges)
        a = xd @ w.data.T if rows is None else (xd @ w.data.T)[rows]
        z = a if z is None else np.add(z, a, out=z)
    return z


def _terms(op: str, terms: Sequence[tuple],
           shape: tuple[int, int] | None = None) -> tuple[np.ndarray, list[tuple], tuple[Tensor, ...]]:
    """Check ``terms`` and sum them: ``(z, parts, parents)``. No term may
    put ``rows`` on an EdgeSum, and all give the same (n, out) rows,
    ``shape`` when given. A part is what a node keeps of a term,
    ``(x, W, rows, edges)``: ``edges`` is None or an EdgeSum's recipe
    (weights, src, keys, shape), ``x`` then the tensor it sums."""
    if not terms:
        raise ValueError(f"{op} of no terms")
    parts: list[tuple] = []
    sizes = set() if shape is None else {shape}
    for term in terms:
        x, w = term[0], term[1]
        rows = np.asarray(term[2], dtype=np.intp) if len(term) == 3 else None
        xd, wd = x.data, w.data
        fits = (xd.ndim == 2 and wd.ndim == 2 and xd.shape[1] == wd.shape[1]
                and (rows is None or (rows.ndim == 1 and not isinstance(x, EdgeSum))))
        sizes.add((xd.shape[0] if rows is None else rows.size, wd.shape[0]) if fits else None)
        if not fits or len(sizes) != 1:
            raise _shape_error(op, *(np.shape(p.data if k < 2 else p) for t in terms for k, p in enumerate(t)),
                               *(() if shape is None else (shape,)))
        parts.append((x.x, w, None, (x.weights, x.src, x.keys, xd.shape)) if isinstance(x, EdgeSum)
                     else (x, w, rows, None))
    parents = tuple(t for x, w, _, edges in parts for t in ((x, w) if edges is None else (x, w, edges[0])))
    return _term_sum(parts, [term[0].data for term in terms]), parts, parents


def _terms_backward(parts: list[tuple], dz: np.ndarray) -> None:
    """Push ``dz``, the gradient of the terms' sum, into their tracked
    tensors; an EdgeSum's sums are gathered again."""
    for x, w, rows, edges in parts:
        gz = dz if rows is None else _sum_rows(dz, rows, x.data.shape[0])
        if _tracked(w):
            _accumulate(w, gz.T @ (x.data if edges is None else _edge_sum(x, *edges)))
        if edges is None:
            if _tracked(x):
                _accumulate(x, gz @ w.data)
        elif _tracked(x, edges[0]):
            weights, s, keys, _ = edges
            at_key = (gz @ w.data).reshape(-1, x.data.shape[1])[keys]
            if _tracked(x):
                _accumulate(x, _sum_rows(weights.data[:, None] * at_key, s, x.data.shape[0]))
            if _tracked(weights):
                _accumulate(weights, np.einsum("ek,ek->e", at_key, x.data[s]))


# -- the fused nodes ----------------------------------------------------------


def linear_sum(
    terms: Sequence[tuple],
    bias: Tensor | None = None,
    activation: str | None = None,
    project: Tensor | None = None,
) -> Tensor:
    """Fused, optionally activated, sum of right-transposed products:
    ``activation(sum_k X_k @ W_k.T + bias)``, optionally ``@ project``.

    A term is ``(x, W)`` or ``(x, W, rows)``: ``X_k`` is the (n, in) tensor
    ``x`` or the value of an :class:`EdgeSum` ``x``, and ``W`` is (out, in).
    With ``rows``, an integer index, the term contributes ``(x @ W.T)[rows]``:
    the product is taken once per row of ``x`` and then gathered, so that
    per-graph rows reach per-node outputs (or per-node rows reach per-edge
    outputs) without gathered copies of ``x``. Every term contributes the
    same number of rows. ``activation`` is None, "relu", "tanh" or "sigmoid",
    applied inside this one tape node, whose backward works from the output:
    it keeps no pre-activation and no :class:`EdgeSum` value. With
    ``project``, an (out,) vector, the node returns one value per row and
    recomputes the activated rows during backward instead of keeping them.
    """
    z, parts, parents = _terms("linear_sum", terms)
    if project is not None and project.shape != (z.shape[1],):
        raise _shape_error("linear_sum", z.shape, project.shape)

    def activate(z: np.ndarray) -> np.ndarray:
        if bias is not None:
            z += bias.data
        return z if activation is None else _ACTIVATIONS[activation][0](z)

    y = activate(z)
    out = Tensor(y if project is None else y @ project.data)
    parents += ((bias,) if bias is not None else ()) + ((project,) if project is not None else ())
    if not _tracked(*parents):
        return out

    def backward(g: np.ndarray) -> None:
        y = out.data if project is None else activate(_term_sum(parts))
        if project is not None:
            if _tracked(project):
                _accumulate(project, np.tensordot(g, y, g.ndim))
            g = np.multiply.outer(g, project.data)
        if activation is not None:
            g = g * _ACTIVATIONS[activation][1](y)
        _terms_backward(parts, g)
        if bias is not None and _tracked(bias):
            _accumulate(bias, g.sum(axis=0))

    return _record(out, parents, backward)


def gated_update(
    terms: Sequence[tuple],
    bias: Tensor,
    old: Tensor,
) -> Tensor:
    """The gated skip connection as one tape node: ``g * p + (1 - g) * old``
    with the proposal ``p = relu(Z[:, :out])`` and the gate
    ``g = sigmoid(Z[:, out:])`` of the stacked pre-activations
    ``Z = sum_k X_k @ W_k.T + bias``.

    ``old`` is (n, out) and the terms are those of :func:`linear_sum`, each
    giving n rows through a (2 * out, in) weight ``W``: the proposal's rows
    over the gate's, so one product serves both. ``bias`` is one (2 * out,)
    row for every output row or an (n, 2 * out) row each. The node keeps
    ``p`` and ``g`` but no :class:`EdgeSum` value, as :func:`linear_sum`.
    """
    if old.ndim != 2:
        raise _shape_error("gated_update", old.shape)
    n, width = old.data.shape
    if bias.shape not in ((2 * width,), (n, 2 * width)):
        raise _shape_error("gated_update", bias.shape, old.shape)
    z, parts, parents = _terms("gated_update", terms, (n, 2 * width))
    z += bias.data
    p = np.maximum(z[:, :width], 0.0)
    g = _stable_sigmoid(z[:, width:])
    out = Tensor(g * p + (1.0 - g) * old.data)
    parents = (bias, old) + parents
    if not _tracked(*parents):
        return out

    def backward(gout: np.ndarray) -> None:
        dz = np.concatenate([gout * g * (p > 0.0), gout * (p - old.data) * g * (1.0 - g)], axis=1)
        _terms_backward(parts, dz)
        if _tracked(bias):
            _accumulate(bias, dz.sum(axis=0) if bias.ndim == 1 else dz)
        if _tracked(old):
            _accumulate(old, gout * (1.0 - g))

    return _record(out, parents, backward)


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


# -- loss and regularization --------------------------------------------------

# probabilities are clipped to [PROB_FLOOR, 1 - PROB_FLOOR] before the log
PROB_FLOOR = 1e-12


def binary_cross_entropy(prob: Tensor, labels: np.ndarray) -> Tensor:
    """Elementwise binary cross-entropy ``-log(y*p + (1-y)*(1-p))`` of
    probabilities against labels ``y`` of the same shape, as one tape node.

    ``p`` is ``prob`` clipped to [PROB_FLOOR, 1 - PROB_FLOOR], so the loss
    is finite for any input; the gradient is zero where the clip binds.
    For 0/1 labels the log's argument is exactly ``p`` or ``1 - p``.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != prob.shape:
        raise _shape_error("binary_cross_entropy", prob.shape, y.shape)
    p = np.clip(prob.data, PROB_FLOOR, 1.0 - PROB_FLOOR)
    likelihood = y * p + (1.0 - y) * (1.0 - p)
    out = Tensor(-np.log(likelihood))
    if not _tracked(prob):
        return out

    def backward(g: np.ndarray) -> None:
        inside = (prob.data >= PROB_FLOOR) & (prob.data <= 1.0 - PROB_FLOOR)
        dlikelihood = -g / likelihood
        _accumulate(prob, (dlikelihood * y - dlikelihood * (1.0 - y)) * inside)

    return _record(out, (prob,), backward)


def dropout(
    x: Tensor,
    rate: float,
    rngs: Sequence[np.random.Generator] | None,
    training: bool,
    bounds: Sequence[int],
) -> Tensor:
    """Inverted dropout: zero with probability ``rate`` and rescale survivors.

    Identity at inference or rate 0; requires generators when active.
    ``bounds`` are row offsets ``0 = b_0 < ... < b_n`` ending at the row
    count, ``rngs`` is a sequence of ``n`` generators, and rows
    ``b_k..b_{k+1}`` draw their mask from generator ``k`` alone, so a block
    gets the mask it would get without the other blocks.
    """
    if rate < 0.0 or rate >= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rngs is None:
        raise ValueError("dropout in training mode needs random generators")
    if len(rngs) != len(bounds) - 1:
        raise ValueError(f"dropout over {len(bounds) - 1} row blocks needs as many generators, got {len(rngs)}")
    draw = np.concatenate([gen.random((hi - lo,) + x.data.shape[1:])
                           for gen, lo, hi in zip(rngs, bounds[:-1], bounds[1:])])
    mask = (draw >= rate) / (1.0 - rate)
    out = Tensor(x.data * mask)
    if not _tracked(x):
        return out

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * mask)

    return _record(out, (x,), backward)


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
