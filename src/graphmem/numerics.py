"""Dense float64 tensors with reverse-mode automatic differentiation.

The tape is dynamic: any operation that touches a gradient-bearing tensor
records its inputs and a backward closure, and ``Tensor.backward`` replays
the recording in reverse topological order. Operations that only see
constants produce constants, so per-graph fixed data (adjacency, features)
costs nothing at backward time.

The operations are the fused nodes the model runs: :func:`linear_sum`,
:func:`gated_update`, :func:`block_sum`, :func:`graph_sum`,
:func:`link_sum`, :func:`segment_softmax`, :func:`binary_cross_entropy`
and :func:`dropout`. Each records one tape node however many products,
activations or gathers it computes, and keeps what its backward reads, so
no backward computes a forward value again, and none draws random numbers
(:func:`dropout` multiplies by a mask its caller draws).
:func:`linear_sum` and :func:`gated_update` check, sum and differentiate
their terms, each a tensor through a weight, with the same code. The
weighted sums run on a pack's :class:`Slots`: the per-graph
:func:`graph_sum` (the attention read), the per-graph block products of
:func:`block_sum` (the neighbour cells) and the keyed :func:`link_sum`
(the link features, two numbers per key: a placed has-neighbour indicator
and a ring sum). Each keeps its value, which is linear in the pack, for
the nodes that consume it; the pack's one block array is the slots', not
the tape's. The slots also carry each graph's controller row to its cells
and sum their gradient back per graph, and gather the rows at the edges'
ends for the edge scorer, keeping the scatter index of that gather's
gradient. The model stores each gated update's weights stacked the way
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
        # leaves (parameters and constants, parents of almost every node)
        # have nothing to replay, so the walk never pushes them
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
                if parent._backward is not None and id(parent) not in seen:
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
    return Tensor(np.array(data, dtype=np.float64, order="C"), requires_grad=True)


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


# -- per-graph sums: the pack layout and its sum nodes -------------------------


class Gather:
    """Rows picked by an integer index, as a term's ``rows`` (see
    :func:`linear_sum`): :meth:`spread` takes row ``index[i]`` of (n, k)
    rows for every ``i``, and :meth:`sums`, its transpose, adds the rows
    that share an index into (n, k) rows, zero for an index no row carries.
    The sums are one keyed ``bincount`` over the flat index
    ``index * k + arange(k)``, which is kept per width ``k``, so a gather
    kept with its pack builds it once per width and frees it with the
    pack."""

    __slots__ = ("index", "n", "_flat")

    def __init__(self, index, n: int):
        self.index, self.n = np.asarray(index, dtype=np.intp), n
        self._flat: dict[int, np.ndarray] = {}

    def spread(self, rows: np.ndarray) -> np.ndarray:
        return rows[self.index]

    def sums(self, rows: np.ndarray) -> np.ndarray:
        k = rows.shape[1]
        flat = self._flat.get(k)
        if flat is None:
            flat = self._flat[k] = (self.index[:, None] * k + np.arange(k)).ravel()
        return np.bincount(flat, weights=rows.ravel(), minlength=self.n * k).reshape(self.n, k)


class Slots:
    """The per-graph layout of a pack: graph ``b`` owns the contiguous rows
    ``bounds[b]:bounds[b+1]``, none of them empty, ``segments`` holds each
    row's graph, and the edges ``src[e] -> dst[e]`` under relation
    ``keys[e] % R`` (keyed ``dst[e] * R + r``) join rows of one graph.

    Per-graph sums add each graph's run of rows (:meth:`sums`, the
    ``reduceat`` of the runs); :meth:`spread` copies each graph's row to
    its run. ``at_src`` and ``at_dst`` are the :class:`Gather` of the rows
    at every edge's source and destination, kept with the slots.

    Block products (:meth:`product`) run on a padded layout. Sorted by
    size, a graph more than twice the smallest graph of the current group
    starts a new group; a group's width ``m`` is its largest graph, so no
    graph is padded past twice its size. Each group holds its graphs in
    pack order, ``m`` padded rows each: row ``i`` of a group's ``l``-th
    graph is padded row ``first + l * m + i``, and ``slot`` holds that row
    for every row. A group's (B_g, m R, m) block array has the weight of
    the edge from row ``j`` to row ``i`` under relation ``r`` of its
    ``l``-th graph at ``[l, i R + r, j]``, so that its product with the
    graphs' (m, k) padded rows reads as (m, R k) rows, relation ``r`` in
    columns ``r*k:(r+1)*k``. All groups' blocks lie flat one after the
    other in one kept array of ``n_entries``, zeroed when first used, edge
    ``e``'s at ``positions[e]``. Every product writes its edge weights there
    and no other entry, so a pack's products run one at a time, as its kept
    padded rows already require.
    """

    __slots__ = ("bounds", "counts", "segments", "n_relations", "src", "dst", "keys", "slot", "groups",
                 "n_padded", "n_entries", "positions", "at_src", "at_dst", "_blocks", "_padded")

    def __init__(self, bounds, src, keys, n_relations: int):
        self.bounds = np.asarray(bounds, dtype=np.intp)
        self.counts = np.diff(self.bounds)
        if np.any(self.counts < 1):
            raise ValueError(f"Slots: graph {int(np.argmin(self.counts))} has no rows, "
                             "an empty memory with nothing to attend over")
        self.n_relations, self.src, self.keys = n_relations, np.asarray(src, np.intp), np.asarray(keys, np.intp)
        n_graphs, r = self.counts.size, n_relations
        first_row = np.empty(n_graphs, dtype=np.intp)    # each graph's first padded row
        first_entry = np.empty(n_graphs, dtype=np.intp)  # and its first block entry
        width = np.empty(n_graphs, dtype=np.intp)
        self.groups: list[tuple[int, int, int, int]] = []  # (first padded row, first entry, B_g, m)
        order = np.argsort(self.counts, kind="stable")
        by_size = self.counts[order]
        rows = entries = start = 0
        while start < n_graphs:
            end = int(np.searchsorted(by_size, 2 * by_size[start], side="right"))
            members, m = np.sort(order[start:end]), int(by_size[end - 1])
            first_row[members] = rows + m * np.arange(members.size)
            first_entry[members] = entries + m * r * m * np.arange(members.size)
            width[members] = m
            self.groups.append((rows, entries, members.size, m))
            rows, entries, start = rows + members.size * m, entries + members.size * m * r * m, end
        self.n_padded, self.n_entries = rows, entries
        self._blocks: np.ndarray | None = None
        self._padded: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self.segments = np.repeat(np.arange(n_graphs), self.counts)
        self.slot = np.repeat(first_row - self.bounds[:-1], self.counts) + np.arange(self.bounds[-1])
        self.dst, relation = (self.keys // r, self.keys % r) if r else (self.keys, self.keys)
        graph = self.segments[self.dst]
        local = self.bounds[graph]
        self.positions = first_entry[graph] + ((self.dst - local) * r + relation) * width[graph] + self.src - local
        self.at_src, self.at_dst = Gather(self.src, self.bounds[-1]), Gather(self.dst, self.bounds[-1])

    @property
    def n_graphs(self) -> int:
        return self.counts.size

    def sums(self, rows: np.ndarray) -> np.ndarray:
        """(B, k) per-graph sums of (N, k) ``rows``."""
        return np.add.reduceat(rows, self.bounds[:-1], axis=0)

    def spread(self, rows: np.ndarray) -> np.ndarray:
        """(N, k): each graph's row of (B, k) ``rows``, at every row it owns."""
        return np.repeat(rows, self.counts, axis=0)

    def product(self, weights: np.ndarray, rows: np.ndarray, k: int, transpose: bool = False) -> np.ndarray:
        """Every graph's block of the edges' ``weights`` times its (m, k)
        padded ``rows``, as (N, R k) rows; with ``transpose``, the
        transposed blocks times its (m R, k) padded (N, R k) ``rows``, as
        (N, k) rows. One batched ``matmul`` per size group; padded rows are
        zero in and dropped out. The block array and the padded arrays in
        and out are kept for the next product: a fresh set per product cost
        more in page faults than the product itself (2-vCPU VM, 250-row
        packs)."""
        r = self.n_relations
        if self._blocks is None:
            self._blocks = np.zeros(self.n_entries)
        blocks = self._blocks
        blocks[self.positions] = weights  # only edge entries are ever written, so the rest stay zero
        widths = (rows.shape[1], k if transpose else r * k)
        if widths not in self._padded:
            # only slot rows are ever written into the input, so its padded rows stay zero
            self._padded[widths] = (np.zeros((self.n_padded, widths[0])), np.empty((self.n_padded, widths[1])))
        padded, out = self._padded[widths]
        padded[self.slot] = rows
        for first, entry, n, m in self.groups:
            a = blocks[entry:entry + n * m * r * m].reshape(n, m * r, m)
            span = slice(first, first + n * m)
            if transpose:
                np.matmul(a.transpose(0, 2, 1), padded[span].reshape(n, m * r, k), out=out[span].reshape(n, m, k))
            else:
                np.matmul(a, padded[span].reshape(n, m, k), out=out[span].reshape(n, m * r, k))
        return out[self.slot]


def block_sum(x: Tensor, weights: Tensor, slots: Slots) -> Tensor:
    """The relation-typed neighbour sums of a pack's rows as per-graph
    block products (see :class:`Slots`), as one tape node.

    Row ``i`` of the (N, R * k) value holds, in columns ``r*k:(r+1)*k``,
    the sum of ``weights[e] * x[src[e]]`` over the edges ``slots.src[e] ->
    i`` under relation ``r``, computed by one batched ``matmul`` per size
    group. Each product, the forward one and the transposed one of
    backward, writes the weights into the slots' block array. The node
    keeps its value. Its backward is the transposed product for ``x`` and,
    per edge, the gradient at the destination's block dotted with the
    source row for ``weights``.
    """
    if x.ndim != 2 or x.shape[0] != slots.bounds[-1] or weights.shape != slots.src.shape:
        raise _shape_error("block_sum", x.shape, weights.shape, (slots.bounds[-1],))
    k = x.shape[1]
    out = Tensor(slots.product(weights.data, x.data, k))
    if not _tracked(x, weights):
        return out

    def backward(g: np.ndarray) -> None:
        if _tracked(x):
            _accumulate(x, slots.product(weights.data, g, k, transpose=True))
        if _tracked(weights):
            # the gradient at the block each edge adds to, dotted with its source row
            _accumulate(weights, np.einsum("ek,ek->e", g.reshape(-1, k)[slots.keys], x.data[slots.src]))

    return _record(out, (x, weights), backward)


def link_sum(weights: Tensor, ring: np.ndarray, slots: Slots) -> Tensor:
    """The link features of every key's edges, weighted by ``weights`` and
    summed, as one tape node: two numbers per key ``d * R + r``, since an
    edge's link features are its relation's one-hot and its ``ring`` flag
    and a key's weights sum to one. Row ``d`` of the (N, 2R) value holds in
    column ``r`` an exact 1.0 when the key has an edge, placed rather than
    summed, and in column ``R + r`` the sum of ``ring[e] * weights[e]`` over
    its edges, one keyed ``bincount``; both are 0 for a key without edges.
    The node keeps its value. Its backward gives each edge's weight its ring
    flag times the gradient at its key's ring column, so an edge off every
    ring gets no weight gradient.
    """
    n, r = int(slots.bounds[-1]), slots.n_relations
    if weights.shape != slots.src.shape or np.shape(ring) != slots.src.shape:
        raise _shape_error("link_sum", weights.shape, np.shape(ring), slots.src.shape)
    has = np.zeros(n * r)
    has[slots.keys] = 1.0
    rings = np.bincount(slots.keys, weights=ring * weights.data, minlength=n * r)
    out = Tensor(np.concatenate([has.reshape(n, r), rings.reshape(n, r)], axis=1))
    if not _tracked(weights):
        return out

    def backward(g: np.ndarray) -> None:
        _accumulate(weights, ring * g[:, r:].reshape(-1)[slots.keys])

    return _record(out, (weights,), backward)


def graph_sum(x: Tensor, weights: Tensor, slots: Slots) -> Tensor:
    """The weighted sum of every graph's rows of a pack as one tape node:
    ``sum_i weights[i] * x[i]`` over the rows graph ``b`` owns in row ``b``
    of the (B, k) value, one ``reduceat`` over the graphs' runs (see
    :class:`Slots`). The attention read is one. Its backward spreads each
    graph's gradient row to the rows it owns, with no scatter."""
    if x.ndim != 2 or weights.shape != (x.shape[0],) or x.shape[0] != slots.bounds[-1]:
        raise _shape_error("graph_sum", x.shape, weights.shape, (slots.bounds[-1],))
    out = Tensor(slots.sums(weights.data[:, None] * x.data))
    if not _tracked(x, weights):
        return out

    def backward(g: np.ndarray) -> None:
        at_row = slots.spread(g)
        if _tracked(x):
            _accumulate(x, weights.data[:, None] * at_row)
        if _tracked(weights):
            _accumulate(weights, np.einsum("ik,ik->i", at_row, x.data))

    return _record(out, (x, weights), backward)


# -- terms, the one path of both fused nodes ----------------------------------


def _terms(op: str, terms: Sequence[tuple],
           shape: tuple[int, int] | None = None) -> tuple[np.ndarray, list[tuple], tuple[Tensor, ...]]:
    """Check ``terms`` and sum them: ``(z, parts, parents)``. All terms
    give the same (n, out) rows, ``shape`` when given. A part is what a
    node keeps of a term, ``(x, W, rows)``: ``rows`` None, Slots or a
    Gather."""
    if not terms:
        raise ValueError(f"{op} of no terms")
    parts: list[tuple] = []
    z = None
    sizes = set() if shape is None else {shape}
    for term in terms:
        x, w = term[0], term[1]
        rows = term[2] if len(term) == 3 else None
        xs, wd = x.shape, w.data
        if rows is not None and not isinstance(rows, (Slots, Gather)):
            raise TypeError(f"{op}: a term's rows are Slots or a Gather, not {type(rows).__name__}")
        fits = (len(xs) == 2 and wd.ndim == 2 and xs[1] == wd.shape[1]
                and (rows is None or (xs[0] == rows.n_graphs if isinstance(rows, Slots)
                                      else rows.index.ndim == 1 and xs[0] == rows.n)))
        n = xs[0] if rows is None else rows.bounds[-1] if isinstance(rows, Slots) else rows.index.size
        sizes.add((n, wd.shape[0]) if fits else None)
        if not fits or len(sizes) != 1:
            raise _shape_error(op, *(p.shape if k < 2 else np.shape(getattr(p, "index", None))
                                     for t in terms for k, p in enumerate(t)),
                               *(() if shape is None else (shape,)))
        parts.append((x, w, rows))
        a = x.data @ wd.T
        if rows is not None:
            a = rows.spread(a)
        z = a if z is None else np.add(z, a, out=z)
    return z, parts, tuple(t for x, w, _ in parts for t in (x, w))


def _terms_backward(parts: list[tuple], dz: np.ndarray) -> None:
    """Push ``dz``, the gradient of the terms' sum, into their tracked
    tensors."""
    for x, w, rows in parts:
        gz = dz if rows is None else rows.sums(dz)
        if _tracked(w):
            _accumulate(w, gz.T @ x.data)
        if _tracked(x):
            _accumulate(x, gz @ w.data)


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
    ``x``, a sum node's output among them (:func:`graph_sum`,
    :func:`block_sum`), and ``W`` is (out, in). With ``rows`` the term
    contributes ``(x @ W.T)[rows]``: the product is taken once per row of
    ``x`` and then gathered, so that per-node rows reach per-edge outputs
    without gathered copies of ``x``. ``rows`` is a :class:`Gather` of an
    integer index, whose gradient is a keyed scatter, or a pack's
    :class:`Slots`, which gives each graph's row to the rows it owns, its
    gradient a per-graph sum.
    Every term contributes the same number of rows. ``activation`` is None,
    "relu", "tanh" or "sigmoid", applied inside this one tape node, whose
    backward works from the activated rows ``y`` and the terms' tensors: it
    keeps ``y`` and no pre-activation. With ``project``, an (out,) vector,
    the node returns ``y @ project``, one value per row, and still keeps
    ``y``, (n, out) floats beside its (n,) value.
    """
    y, parts, parents = _terms("linear_sum", terms)
    if project is not None and project.shape != (y.shape[1],):
        raise _shape_error("linear_sum", y.shape, project.shape)
    if bias is not None:
        y += bias.data
    if activation is not None:
        y = _ACTIVATIONS[activation][0](y)
    out = Tensor(y if project is None else y @ project.data)
    parents += ((bias,) if bias is not None else ()) + ((project,) if project is not None else ())
    if not _tracked(*parents):
        return out

    def backward(g: np.ndarray) -> None:
        if project is not None:
            if _tracked(project):
                _accumulate(project, g @ y)
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
    ``p`` and ``g`` and, as :func:`linear_sum`, no pre-activation.
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


def dropout(x: Tensor, mask: np.ndarray) -> Tensor:
    """Inverted dropout as one tape node: ``x * mask``, for a ``mask`` of
    ``x``'s shape that the caller draws, each entry 0 (dropped) or
    ``1 / (1 - rate)`` (kept and rescaled). The node keeps the mask for
    its backward."""
    if np.shape(mask) != x.shape:
        raise _shape_error("dropout", x.shape, np.shape(mask))
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
    restored, by its own index, so an array in any memory order (Fortran,
    a transposed view) is wiggled itself and never a copy. This is the
    oracle exact gradients are certified against -- it must stay
    independent of the tape.
    """
    grads: dict[str, np.ndarray] = {}
    for name, array in params.items():
        grad = np.zeros_like(array)
        for index in np.ndindex(array.shape):
            saved = array[index]
            array[index] = saved + eps
            f_plus = f()
            array[index] = saved - eps
            f_minus = f()
            array[index] = saved
            grad[index] = (f_plus - f_minus) / (2.0 * eps)
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
