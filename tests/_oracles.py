"""Brute-force reference implementations the library is checked against.

Deliberately independent of the package internals: plain loops and
enumeration only, no shared code paths with the code under test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def edge_in_ring_oracle(n_nodes: int, edges: list[tuple[int, int]], edge_index: int) -> bool:
    """Remove the edge and test whether its endpoints stay connected."""
    u, v = edges[edge_index]
    adjacency = [[] for _ in range(n_nodes)]
    for k, (a, b) in enumerate(edges):
        if k == edge_index:
            continue
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {u}
    frontier = [u]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return v in seen


def _relation_pairs(graph, relation: int) -> set[frozenset[int]]:
    return {frozenset((i, j)) for i, j, r in graph.bonds.tolist() if r == relation}


def neighbor_lists(graph) -> list[list[list[int]]]:
    """``[r - 1][i]``: the neighbors of node ``i`` under relation ``r``, ascending."""
    out = [[[] for _ in range(graph.n_nodes)] for _ in range(graph.n_relations)]
    for i, j, r in graph.bonds.tolist():
        out[r - 1][i].append(j)
        out[r - 1][j].append(i)
    for per_relation in out:
        for nbrs in per_relation:
            nbrs.sort()
    return out


def neighbor_union(graph) -> list[list[int]]:
    """Per node, its neighbors under any relation, ascending."""
    return [sorted(sum((per_relation[i] for per_relation in neighbor_lists(graph)), []))
            for i in range(graph.n_nodes)]


def find_motif_oracle(graph, shape: str, relation: int) -> bool:
    """Subgraph search by exhaustive enumeration over node tuples."""
    pairs = _relation_pairs(graph, relation)
    nodes = range(graph.n_nodes)

    def has(a: int, b: int) -> bool:
        return frozenset((a, b)) in pairs

    if shape == "triangle":
        return any(
            has(a, b) and has(b, c) and has(a, c)
            for a, b, c in itertools.combinations(nodes, 3)
        )
    if shape == "square":
        for combo in itertools.combinations(nodes, 4):
            for perm in itertools.permutations(combo):
                a, b, c, d = perm
                if has(a, b) and has(b, c) and has(c, d) and has(d, a):
                    return True
        return False
    if shape == "star3":
        for center in nodes:
            leaves = [n for n in nodes if n != center and has(center, n)]
            if len(leaves) >= 3:
                return True
        return False
    raise ValueError(shape)


def pairwise_auc(scores, labels) -> float | None:
    """Explicit enumeration of all (positive, negative) pairs; ties count 0.5."""
    positives = [s for s, y in zip(scores, labels) if y == 1]
    negatives = [s for s, y in zip(scores, labels) if y == 0]
    if not positives or not negatives:
        return None
    total = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(positives) * len(negatives))


def f1_counts_oracle(scores, labels) -> float:
    """Explicit TP/FP/FN counting at threshold 0.5 (>= is positive)."""
    tp = fp = fn = 0
    for s, y in zip(scores, labels):
        predicted = s >= 0.5
        if predicted and y == 1:
            tp += 1
        elif predicted and y == 0:
            fp += 1
        elif not predicted and y == 1:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def micro_f1_oracle(scores, labels, task_ids) -> float:
    """Pool TP/FP/FN over all tasks, then one F1."""
    tp = fp = fn = 0
    for s, y in zip(scores, labels):
        predicted = s >= 0.5
        if predicted and y == 1:
            tp += 1
        elif predicted and y == 0:
            fp += 1
        elif not predicted and y == 1:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def mean_passing_oracle(neighbor_lists: list[list[int]], memory0: np.ndarray, hops: int) -> np.ndarray:
    """``hops`` rounds where each cell becomes the mean of its neighbors
    (zero when it has none)."""
    memory = memory0.copy()
    for _ in range(hops):
        updated = np.zeros_like(memory)
        for i, nbrs in enumerate(neighbor_lists):
            if nbrs:
                acc = np.zeros(memory.shape[1])
                for j in nbrs:
                    acc = acc + memory[j]
                updated[i] = acc / len(nbrs)
        memory = updated
    return memory


def bfs_distances(neighbor_union: list[list[int]], source: int) -> list[int]:
    """Hop distances from ``source``; unreachable nodes get a large value."""
    n = len(neighbor_union)
    dist = [10**9] * n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt_frontier = []
        for node in frontier:
            for nxt in neighbor_union[node]:
                if dist[nxt] > dist[node] + 1:
                    dist[nxt] = dist[node] + 1
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return dist


def per_block_initialize_oracle(config, seed: int) -> dict[str, np.ndarray]:
    """Seeded initial parameters in the per-block layout the model stored
    before the gated updates' weights were stacked: one matrix per proposal
    and per gate block, and per relation one [cell | link] matrix each,
    drawn in this order, each uniform within its own +-sqrt(6/(rows+cols))."""
    rng = np.random.default_rng(seed)
    k_m, k_h = config.memory_size, config.controller_size
    k_x, k_b = config.node_feat_dim, config.n_relations + 1

    def mat(rows: int, cols: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    t = {"query_in.weight": mat(k_h, config.query_dim), "query_in.bias": np.zeros(k_h),
         "embed.weight": mat(k_m, k_x), "embed.bias": np.zeros(k_m)}
    t["attn.cell"] = mat(k_h, k_m)
    t["attn.ctrl"] = mat(k_h, k_h)
    t["attn.bias"] = np.zeros(k_h)
    t["attn.score"] = np.zeros(k_h)
    for update, width, inputs in (("ctrl", k_h, (("self", k_h), ("read", k_m))),
                                  ("mem", k_m, (("self", k_m), ("ctrl", k_h)))):
        for block in (update, f"{update}_gate"):
            for part, cols in inputs:
                t[f"{block}.{part}"] = mat(width, cols)
            t[f"{block}.bias"] = np.zeros(width)
    for r in range(config.n_relations):
        t[f"mem.rel{r}"] = mat(k_m, k_m + k_b)
        t[f"mem_gate.rel{r}"] = mat(k_m, k_m + k_b)
    if config.neighbor_mode == "learned":
        t["nbr.cell"] = mat(k_h, k_m)
        t["nbr.self"] = mat(k_h, k_m)
        t["nbr.bias"] = np.zeros(k_h)
        t["nbr.score"] = np.zeros(k_h)
    t["out.weight"] = mat(1, k_h)
    t["out.bias"] = np.zeros(1)
    return t


def live_link_columns(n_relations: int) -> np.ndarray:
    """Where the columns of ``numerics.link_sum``'s (N, 2R) rows sit in the
    wide layout of R blocks of k_b = R + 1 link columns, a relation one-hot
    and a ring flag each: relation r's one-hot column ``r*k_b + r``, then
    its ring column ``r*k_b + R``. The other R(R - 1) columns are dead:
    every summed link row is zero there."""
    k_b, r = n_relations + 1, np.arange(n_relations)
    return np.concatenate([r * k_b + r, r * k_b + n_relations])


def wide_link(link: np.ndarray, n_relations: int) -> np.ndarray:
    """(rows, 2R) link sums or link weights in the wide (rows, R (R + 1))
    layout (:func:`live_link_columns`), zero in the dead columns."""
    wide = np.zeros((link.shape[0], n_relations * (n_relations + 1)))
    wide[:, live_link_columns(n_relations)] = link
    return wide


def wide_link_params(params):
    """The model's parameters with ``mem.gated.link`` widened (:func:`wide_link`)
    into a parameter of its own: the (2 k_m, R (R + 1)) weight the model
    stored before its dead columns went, holding the same live values and
    zeros in the dead columns. The other tensors are shared."""
    from graphmem import numerics as nm
    from graphmem.model import ModelParams

    link = wide_link(params["mem.gated.link"].data, params.config.n_relations)
    return ModelParams(params.config, {**params.tensors, "mem.gated.link": nm.parameter(link)})


class JoinedColumns:
    """Two arrays of one row count read as the matrix [left | right]
    (``np.asarray``), ``right`` spread over ``width`` columns at ``at`` and
    zero elsewhere; an assignment to it writes through to both, and refuses
    a nonzero value in a column ``right`` does not hold."""

    def __init__(self, left: np.ndarray, right: np.ndarray, width: int, at: list[int]):
        self.left, self.right, self.width, self.at = left, right, width, at

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape[0], self.left.shape[1] + self.width

    def __array__(self, dtype=None, copy=None):
        spread = np.zeros((self.left.shape[0], self.width))
        spread[:, self.at] = self.right
        return np.concatenate([self.left, spread], axis=1).astype(dtype or np.float64)

    def __setitem__(self, key, value) -> None:
        joined = np.asarray(self)
        joined[key] = value
        spread = joined[:, self.left.shape[1]:]
        if np.delete(spread, self.at, axis=1).any():
            raise ValueError("a nonzero value in a column the joined arrays do not hold")
        self.left[...] = joined[:, :self.left.shape[1]]
        self.right[...] = spread[:, self.at]


def param_blocks(arrays: dict) -> dict:
    """The stacked gated-update parameters under the per-block names of
    :func:`per_block_initialize_oracle`, as views that read and write the
    stacked arrays: ``ctrl.self`` and ``ctrl_gate.self`` are the proposal
    and gate rows of ``ctrl.gated.self``, and so on, and ``mem.rel{r}`` and
    ``mem_gate.rel{r}`` join relation r's column blocks of ``mem.gated.nbr``
    and ``mem.gated.link`` (a :class:`JoinedColumns`): the link part of
    relation r's block is its k_b = R + 1 columns of the wide layout (see
    :func:`live_link_columns`), columns ``r`` and ``R + r`` of
    ``mem.gated.link`` at its one-hot and ring columns, zero elsewhere.
    Other names pass through. Works on gradients as well as on values."""
    k_h = arrays["ctrl.gated.self"].shape[1]
    k_m = arrays["mem.gated.self"].shape[1]
    n_relations = arrays["mem.gated.nbr"].shape[1] // k_m
    blocks = {name: array for name, array in arrays.items() if ".gated." not in name}
    for update, width, parts in (("ctrl", k_h, ("self", "read", "bias")), ("mem", k_m, ("self", "ctrl", "bias"))):
        for part in parts:
            stacked = arrays[f"{update}.gated.{part}"]
            blocks[f"{update}.{part}"] = stacked[:width]
            blocks[f"{update}_gate.{part}"] = stacked[width:]
    for r in range(n_relations):
        for block, rows in (("mem", slice(None, k_m)), ("mem_gate", slice(k_m, None))):
            blocks[f"{block}.rel{r}"] = JoinedColumns(arrays["mem.gated.nbr"][rows, r * k_m:(r + 1) * k_m],
                                                      arrays["mem.gated.link"][rows, r::n_relations],
                                                      n_relations + 1, [r, n_relations])
    return blocks


def _block_arrays(arrays: dict) -> dict[str, np.ndarray]:
    """The stacked parameters as plain per-block arrays, for reading."""
    return {name: np.asarray(block) for name, block in param_blocks(arrays).items()}


def learned_memory_step_oracle(graph, params: dict, memory: np.ndarray,
                               controller: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """One memory hop with learned neighbor weighting, straight from the
    definitions: each node scores its neighbors under each relation with
    the shared ``nbr.*`` head, softmaxes the scores over that neighbor set
    and mixes [neighbor cell, link features] with the weights. ``params``
    holds the model's stacked arrays, read block by block (see
    :func:`param_blocks`). Returns the new memory and the per-relation
    context rows."""
    params = _block_arrays(params)
    m, k_m = memory.shape
    n_relations = graph.n_relations
    neighbors = neighbor_lists(graph)
    k_b = params["mem.rel0"].shape[1] - k_m
    link_of = {}
    for (i, j, relation), ring in zip(graph.bonds.tolist(), graph.ring.tolist()):
        link = np.zeros(k_b)
        link[relation - 1] = 1.0
        link[-1] = float(ring)
        link_of[(i, j)] = link_of[(j, i)] = link
    contexts = []
    for r in range(n_relations):
        ctx = np.zeros((m, k_m + k_b))
        for i in range(m):
            nbrs = neighbors[r][i]
            if not nbrs:
                continue
            scores = []
            for j in nbrs:
                blend = np.tanh(params["nbr.cell"] @ memory[j] + params["nbr.self"] @ memory[i]
                                + params["nbr.bias"])
                scores.append(float(params["nbr.score"] @ blend))
            peak = max(scores)
            exps = [math.exp(s - peak) for s in scores]
            denom = sum(exps)
            for j, e in zip(nbrs, exps):
                w = e / denom
                ctx[i, :k_m] += w * memory[j]
                ctx[i, k_m:] += w * link_of[(i, j)]
        contexts.append(ctx)
    updated = np.zeros_like(memory)
    for i in range(m):
        pre_p = params["mem.self"] @ memory[i] + params["mem.ctrl"] @ controller + params["mem.bias"]
        pre_g = (params["mem_gate.self"] @ memory[i] + params["mem_gate.ctrl"] @ controller
                 + params["mem_gate.bias"])
        for r in range(n_relations):
            pre_p = pre_p + params[f"mem.rel{r}"] @ contexts[r][i]
            pre_g = pre_g + params[f"mem_gate.rel{r}"] @ contexts[r][i]
        proposal = np.maximum(pre_p, 0.0)
        gate = 1.0 / (1.0 + np.exp(-pre_g))
        updated[i] = gate * proposal + (1.0 - gate) * memory[i]
    return updated, contexts


def per_relation_memory_step_oracle(graphs, params: dict, memory: np.ndarray, controllers: np.ndarray,
                                    neighbor_mode: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """One memory hop over the disjoint union of ``graphs`` the way the
    model computed it before one keyed edge list replaced the per-relation
    lists: per relation, one directed edge list over the stacked rows
    (each bond both ways, grouped by destination, sources ascending), edge
    weights (1/deg, or a softmax over each node's in-edges of the
    ``nbr.*`` head's scores), the contexts [weighted neighbour cells,
    weighted link rows] and their proposal and gate products with that
    relation's own weights, read block by block from the model's stacked
    arrays in ``params`` (see :func:`param_blocks`). ``controllers`` holds
    one row per graph.
    Returns the new memory and the per-relation (N, k_m + k_b) contexts."""
    params = _block_arrays(params)
    n, k_m = memory.shape
    n_relations = sum(1 for name in params if name.startswith("mem.rel"))
    k_b = params["mem.rel0"].shape[1] - k_m
    firsts = np.cumsum([0] + [g.n_nodes for g in graphs])
    rows_of = np.concatenate([np.full(g.n_nodes, b) for b, g in enumerate(graphs)]).astype(int)
    pre_p = memory @ params["mem.self"].T + (controllers @ params["mem.ctrl"].T)[rows_of] + params["mem.bias"]
    pre_g = (memory @ params["mem_gate.self"].T + (controllers @ params["mem_gate.ctrl"].T)[rows_of]
             + params["mem_gate.bias"])
    contexts = []
    for r in range(n_relations):
        edges = []  # (dst, src, link row)
        for g, first in zip(graphs, firsts):
            for (i, j, relation), ring in zip(g.bonds.tolist(), g.ring.tolist()):
                if relation - 1 != r:
                    continue
                link = np.zeros(k_b)
                link[relation - 1] = 1.0
                link[-1] = float(ring)
                edges += [(first + i, first + j, link), (first + j, first + i, link)]
        edges.sort(key=lambda edge: (edge[0], edge[1]))
        dst = np.array([e[0] for e in edges], dtype=int)
        src = np.array([e[1] for e in edges], dtype=int)
        links = np.array([e[2] for e in edges]).reshape(-1, k_b)
        if neighbor_mode == "uniform" or not edges:
            weights = 1.0 / np.bincount(dst, minlength=n)[dst]
        else:
            blend = np.tanh(memory[src] @ params["nbr.cell"].T + memory[dst] @ params["nbr.self"].T
                            + params["nbr.bias"])
            scores = blend @ params["nbr.score"]
            peak = np.full(n, -np.inf)
            np.maximum.at(peak, dst, scores)
            e = np.exp(scores - peak[dst])
            weights = e / np.bincount(dst, weights=e, minlength=n)[dst]
        context = np.zeros((n, k_m + k_b))
        np.add.at(context, dst, np.concatenate([weights[:, None] * memory[src], weights[:, None] * links], axis=1))
        contexts.append(context)
        pre_p = pre_p + context @ params[f"mem.rel{r}"].T
        pre_g = pre_g + context @ params[f"mem_gate.rel{r}"].T
    gate = 1.0 / (1.0 + np.exp(-pre_g))
    return gate * np.maximum(pre_p, 0.0) + (1.0 - gate) * memory, contexts


def gather_sum(x: np.ndarray, weights: np.ndarray, src, dst, n_out: int) -> np.ndarray:
    """Weighted gather-sum over an edge list, one edge at a time in edge
    order: ``out[d]`` is the sum of ``weights[e] * x[src[e]]`` over the
    edges ``e`` with ``dst[e] == d``, and a row without edges is zero."""
    out = np.zeros((n_out, x.shape[1]))
    for e in range(len(src)):
        out[dst[e]] += weights[e] * x[src[e]]
    return out


def gated_update_oracle(terms, bias, old) -> np.ndarray:
    """The gated skip connection row by row from its definition: each row's
    pre-activations ``z = sum W @ X + bias`` stack the proposal over the
    gate, relu(z[:w]) and sigmoid(z[w:]), which blend with its old value.
    ``bias`` is one (2w,) row or one per output row. A term is ("plain", x,
    W), ("rows", x, W, rows) with X_i = x[rows[i]], or ("edges", x,
    weights, src, keys, groups, W), where X_i holds, for each group r in
    turn, the sum of weights[e] * x[src[e]] over the edges with keys[e] ==
    i * groups + r."""
    n, width = old.shape
    bias_rows = np.broadcast_to(bias, (n, 2 * width))
    out = np.zeros_like(old)
    for i in range(n):
        pre = bias_rows[i].copy()
        for term in terms:
            kind = term[0]
            if kind == "plain":
                _, x, w = term
                xi = x[i]
            elif kind == "rows":
                _, x, w, rows = term
                xi = x[rows[i]]
            else:
                _, x, weights, src, keys, groups, w = term
                blocks = []
                for r in range(groups):
                    summed = np.zeros(x.shape[1])
                    for e in range(len(src)):
                        if keys[e] == i * groups + r:
                            summed = summed + weights[e] * x[src[e]]
                    blocks.append(summed)
                xi = np.concatenate(blocks)
            pre = pre + w @ xi
        proposal = np.maximum(pre[:width], 0.0)
        gate = 1.0 / (1.0 + np.exp(-pre[width:]))
        out[i] = gate * proposal + (1.0 - gate) * old[i]
    return out


# -- circular fingerprints: the per-byte, per-atom loops -------------------------

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
HCOUNT_CLAMP = 4  # the last explicit-H slot


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64, one Python xor and multiply per byte."""
    value = FNV64_OFFSET
    for byte in data:
        value ^= byte
        value = (value * FNV64_PRIME) & ((1 << 64) - 1)
    return value


def hash_ints(values) -> int:
    """FNV-1a over each integer as 8 little-endian bytes, in order."""
    return fnv1a64(b"".join(v.to_bytes(8, "little") for v in values))


def atom_identifiers_oracle(graph, radius: int) -> list[list[int]]:
    """Per-round atom identifiers atom by atom: round 0 hashes (element
    slot, degree, clamped H count), round r hashes [r, own identifier,
    then the sorted (bond type, neighbor identifier) pairs]."""
    bonded = [[] for _ in range(graph.n_nodes)]
    for i, j, relation in graph.bonds.tolist():
        bonded[i].append((relation, j))
        bonded[j].append((relation, i))
    degree = [len(pairs) for pairs in bonded]
    hydrogens = [sum(graph.symbols[j] == "H" for _, j in pairs) for pairs in bonded]
    slots = graph.element_slots.tolist()
    current = [
        hash_ints((slots[i], degree[i], min(hydrogens[i], HCOUNT_CLAMP)))
        for i in range(graph.n_nodes)
    ]
    rounds = [current]
    for r in range(1, radius + 1):
        nxt = []
        for i in range(graph.n_nodes):
            flat = [r, current[i]]
            for bond_type, neighbor_id in sorted((bond_type, current[j]) for bond_type, j in bonded[i]):
                flat.extend((bond_type, neighbor_id))
            nxt.append(hash_ints(flat))
        rounds.append(nxt)
        current = nxt
    return rounds


def fold_oracle(rounds: list[list[int]], nbits: int) -> np.ndarray:
    """Set bit ``identifier % nbits`` for every identifier of every round."""
    bits = np.zeros(nbits, dtype=np.uint8)
    for round_ids in rounds:
        for identifier in round_ids:
            bits[identifier % nbits] = 1
    return bits


def hex_oracle(bits) -> str:
    """The bits as one binary number, bit 0 most significant, in nbits/4
    hex digits, and in one digit below 8 bits."""
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return format(value, f"0{len(bits) // 4}x")


# -- sigmoid: the two-branch formula -------------------------------------------


def stable_sigmoid_oracle(d: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-d) for d >= 0 and e^d / (1 + e^d) below, with e^-|d|."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# -- MOL/SDF records: the line-by-line reading -----------------------------------

BOND_CODES = (1, 2, 3, 4)


def _counts_field_oracle(line: str, start: int, stop: int, line_no: int) -> int:
    from graphmem.molgraph import MolfileError

    try:
        return int(line[start:stop].strip())
    except ValueError:
        raise MolfileError(f"malformed counts line {line!r}", line_no) from None


def parse_molfile_oracle(text: str, line_offset: int = 0) -> dict:
    """One V2000 record read line by line, each line checked in order:
    the title, symbols, (i < j, bond type) bonds with 0-based atoms, and
    per-atom degrees and explicit-H counts counted bond by bond. Raises
    graphmem's MolfileError with the message and line of the first
    offending line."""
    from graphmem.molgraph import MolfileError

    lines = text.splitlines()
    if len(lines) < 4:
        raise MolfileError("record shorter than header + counts line", line_offset + len(lines))
    counts_no = line_offset + 4
    counts = lines[3]
    n_atoms = _counts_field_oracle(counts, 0, 3, counts_no)
    n_bonds = _counts_field_oracle(counts, 3, 6, counts_no)
    if n_atoms < 0 or n_bonds < 0:
        raise MolfileError(f"malformed counts line {counts!r}", counts_no)
    if len(lines) < 4 + n_atoms + n_bonds:
        raise MolfileError(
            f"counts line promises {n_atoms} atoms and {n_bonds} bonds but the record is shorter",
            counts_no,
        )
    symbols = []
    for k in range(n_atoms):
        line = lines[4 + k]
        symbol = line[31:34].strip()
        if not symbol:
            parts = line.split()
            if len(parts) < 4:
                raise MolfileError(f"malformed atom line {line!r}", counts_no + 1 + k)
            symbol = parts[3]
        symbols.append(symbol)
    bonds = []
    for k in range(n_bonds):
        line_no = counts_no + 1 + n_atoms + k
        line = lines[4 + n_atoms + k]
        try:
            a, b, bond_type = int(line[0:3]), int(line[3:6]), int(line[6:9])
        except ValueError:
            raise MolfileError(f"malformed bond line {line!r}", line_no) from None
        if not (1 <= a <= n_atoms and 1 <= b <= n_atoms):
            raise MolfileError(f"atom index out of range in bond {a}-{b}", line_no)
        if a == b:
            raise MolfileError(f"self-bond on atom {a}", line_no)
        if bond_type not in BOND_CODES:
            raise MolfileError(f"bond type {bond_type} outside {{1,2,3,4}}", line_no)
        if any((lo, hi) == (min(a, b) - 1, max(a, b) - 1) for lo, hi, _ in bonds):
            raise MolfileError(f"duplicate bond between atoms {min(a, b)} and {max(a, b)}", line_no)
        bonds.append((min(a, b) - 1, max(a, b) - 1, bond_type))
    degree = [0] * n_atoms
    h_count = [0] * n_atoms
    for i, j, _ in bonds:
        degree[i] += 1
        degree[j] += 1
        h_count[i] += symbols[j] == "H"
        h_count[j] += symbols[i] == "H"
    return {"title": lines[0].strip(), "symbols": symbols, "bonds": bonds, "degree": degree,
            "h_count": h_count}


def parse_sdf_oracle(text: str) -> list[dict]:
    """Split on ``$$$$`` lines, rejoin each record that has a non-blank
    line and read it with :func:`parse_molfile_oracle`."""
    records = []
    record = []
    offset = 0
    for idx, line in enumerate(text.splitlines()):
        if line.strip() == "$$$$":
            if any(l.strip() for l in record):
                records.append(parse_molfile_oracle("\n".join(record), line_offset=offset))
            record = []
            offset = idx + 1
        else:
            record.append(line)
    if any(l.strip() for l in record):
        records.append(parse_molfile_oracle("\n".join(record), line_offset=offset))
    return records


def repeats_oracle(*columns) -> list[bool]:
    """Per row of ``columns``, whether the same values occur at an earlier
    row, by comparing the row with every earlier one."""
    rows = list(zip(*(column.tolist() for column in columns)))
    return [any(rows[j] == row for j in range(k)) for k, row in enumerate(rows)]


def featurize_oracle(record: dict, vocab) -> tuple[np.ndarray, list[bool]]:
    """Node feature rows atom by atom (element one-hot with a trailing
    OTHER slot, then degree and explicit-H one-hots over slots 0..4,
    clamped) and each bond's in-ring flag from the remove-edge oracle."""
    vocab = list(vocab)
    width = len(vocab) + 1 + 5 + 5
    rows = np.zeros((len(record["symbols"]), width))
    for i, symbol in enumerate(record["symbols"]):
        rows[i, vocab.index(symbol) if symbol in vocab else len(vocab)] = 1.0
        rows[i, len(vocab) + 1 + min(record["degree"][i], 4)] = 1.0
        rows[i, len(vocab) + 6 + min(record["h_count"][i], 4)] = 1.0
    pairs = [(i, j) for i, j, _ in record["bonds"]]
    ring = [edge_in_ring_oracle(len(record["symbols"]), pairs, k) for k in range(len(pairs))]
    return rows, ring


def graph_record(graph) -> dict:
    """A graph as the record :func:`featurize_oracle` reads, its degrees and
    explicit-H counts recounted bond by bond."""
    bonds = [tuple(bond) for bond in graph.bonds.tolist()]
    degree, h_count = [0] * graph.n_nodes, [0] * graph.n_nodes
    for i, j, _ in bonds:
        for atom, other in ((i, j), (j, i)):
            degree[atom] += 1
            h_count[atom] += graph.symbols[other] == "H"
    return {"symbols": list(graph.symbols), "bonds": bonds, "degree": degree, "h_count": h_count}


def prepare_graph_oracle(graph, config, vocab):
    """One graph's pack constants as they were built graph by graph, before
    packs were built in one pass: its own edge sort and keyed sums. Its
    node rows are :func:`featurize_oracle`'s under ``vocab``; the edges'
    link rows (:func:`link_features_oracle`) give each edge's ring flag."""
    from graphmem import numerics as nm
    from graphmem.model import PreparedGraph

    m, n_relations = graph.n_nodes, config.n_relations
    ends = graph.bonds
    bond_links = link_features_oracle(graph)
    src = np.concatenate([ends[:, 1], ends[:, 0]])
    dst = np.concatenate([ends[:, 0], ends[:, 1]])
    relation = np.concatenate([ends[:, 2], ends[:, 2]]) - 1
    order = np.lexsort((src, relation, dst))
    src, dst = src[order], dst[order]
    keys = dst * n_relations + relation[order]
    links = np.concatenate([bond_links, bond_links])[order]
    uniform = nm.constant(1.0 / np.bincount(keys, minlength=m * n_relations)[keys])
    # the padded slot layout is checked against its own oracle,
    # block_layout_oracle
    return PreparedGraph(
        features=nm.constant(featurize_oracle(graph_record(graph), vocab)[0]), ring=links[:, -1], uniform=uniform,
        slots=nm.Slots([0, m], src, keys, n_relations),
    )


def link_features_oracle(graph) -> np.ndarray:
    """A featurized graph's link rows bond by bond: the relation one-hot over
    the graph's relations, then the bond's in-ring flag."""
    links = np.zeros((len(graph.bonds), graph.n_relations + 1))
    for k, (_, _, relation) in enumerate(graph.bonds.tolist()):
        links[k, relation - 1] = 1.0
        links[k, -1] = float(graph.ring[k])
    return links


def pack_links_oracle(prepared, k_b: int) -> np.ndarray:
    """The (E, k_b) link rows of a pack's edges edge by edge, as packs
    stored them before their summed link rows became one keyed sum: the
    one-hot of the edge's relation ``keys[e] % R``, then its ring flag."""
    slots = prepared.slots
    links = np.zeros((slots.keys.size, k_b))
    for e, (key, ring) in enumerate(zip(slots.keys.tolist(), prepared.ring.tolist())):
        links[e, key % slots.n_relations] = 1.0
        links[e, -1] = ring
    return links


def mean_links_bias_oracle(prepared, arrays) -> np.ndarray:
    """The uniform-mode memory bias as packs computed it when they stored
    their averaged link rows: each edge's link row times 1/deg_r(dst),
    added into its key's row in edge order, then those (N, R * k_b) rows,
    at their live columns (:func:`live_link_columns`; the dead ones must
    be zero), projected by ``mem.gated.link`` plus ``mem.gated.bias``."""
    keys, n_relations = prepared.slots.keys, prepared.slots.n_relations
    links = pack_links_oracle(prepared, n_relations + 1)
    mean = np.zeros((prepared.n_nodes * n_relations, links.shape[1]))
    for e, key in enumerate(keys.tolist()):
        mean[key] += prepared.uniform.data[e] * links[e]
    mean = mean.reshape(prepared.n_nodes, -1)
    live = live_link_columns(n_relations)
    assert not np.delete(mean, live, axis=1).any()
    return mean[:, live] @ arrays["mem.gated.link"].T + arrays["mem.gated.bias"]


def concatenated_pack(graphs):
    """The disjoint union of prepared graphs (or packs), in order, by
    concatenation: node rows stacked, edges and their keys offset by their
    graph's first row, row bounds offset by the rows before, and the slot
    layout built from those."""
    from graphmem import numerics as nm
    from graphmem.model import PreparedGraph

    rows = np.cumsum([0] + [g.n_nodes for g in graphs])
    n_relations = graphs[0].slots.n_relations

    def stack(tensors):
        return nm.constant(np.concatenate([t.data for t in tensors]))

    return PreparedGraph(
        features=stack(g.features for g in graphs),
        ring=np.concatenate([g.ring for g in graphs]),
        uniform=stack(g.uniform for g in graphs),
        slots=nm.Slots(np.concatenate([[0]] + [g.slots.bounds[1:] + row for g, row in zip(graphs, rows)]),
                       np.concatenate([g.slots.src + row for g, row in zip(graphs, rows)]),
                       np.concatenate([g.slots.keys + row * n_relations for g, row in zip(graphs, rows)]),
                       n_relations),
    )


# -- the keyed formulation the per-graph sums replaced ----------------------------


def _sum_rows(rows, index, n_out: int):
    """(n_out, k) sums of the rows of ``rows`` grouped by ``index``, one
    keyed ``bincount`` over the flat index ``index * k + arange(k)``; ids
    that no row carries give zero rows."""
    k = rows.shape[1]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n_out * k).reshape(n_out, k)


def edge_sum(x, weights, src, keys, n_out: int, groups: int):
    """A weighted gather-sum over an edge list whose edges carry keys, with
    one column block per key group, as one tape node.

    The sum of ``weights[e] * x[src[e]]`` over the edges with ``keys[e] ==
    d * groups + r`` fills columns ``r*k:(r+1)*k`` of row ``d`` of the
    (n_out, groups * k) value, so one keyed ``bincount`` sums every group;
    a row and group without edges stays zero. The keyed oracles below sum
    the neighbour cells, the link rows and the attention read so
    (:func:`keyed_link_sum`). Its backward scatters the gradient at each
    edge's key back to its source row for ``x``, and dots it with the
    source row for ``weights``.
    """
    from graphmem import numerics as nm

    s = np.asarray(src, dtype=np.intp)
    d = np.asarray(keys, dtype=np.intp)
    if x.ndim != 2 or weights.ndim != 1 or s.shape != weights.shape or d.shape != weights.shape:
        raise nm._shape_error("edge_sum", x.shape, weights.shape, s.shape, d.shape)
    k = x.data.shape[1]
    out = nm.Tensor(_sum_rows(weights.data[:, None] * x.data[s], d, n_out * groups).reshape(n_out, groups * k))
    if not nm._tracked(x, weights):
        return out

    def backward(g):
        at_key = g.reshape(-1, k)[d]
        if nm._tracked(x):
            nm._accumulate(x, _sum_rows(weights.data[:, None] * at_key, s, x.data.shape[0]))
        if nm._tracked(weights):
            nm._accumulate(weights, np.einsum("ek,ek->e", at_key, x.data[s]))

    return nm._record(out, (x, weights), backward)


def keyed_link_sum(prepared, weights, k_b: int):
    """The edges' link rows (:func:`pack_links_oracle`) weighted by
    ``weights`` and summed per key, relation ``r`` in columns
    ``r*k_b:(r+1)*k_b`` of (N, R * k_b) rows."""
    from graphmem import numerics as nm

    keys = prepared.slots.keys
    return edge_sum(nm.constant(pack_links_oracle(prepared, k_b)), weights, np.arange(keys.size), keys,
                   prepared.n_nodes, prepared.slots.n_relations)


def masked_block_ring_sum(prepared, weights, k_b: int):
    """The ring sum as packs ran it before it became a keyed vector sum: a
    block product of constant (N, k_b) rows that are 1 in their last
    column, its edge weights masked by ``prepared.ring``, as one tape node.
    Its backward gives each edge's weight its ring flag times the gradient
    at its destination's block dotted with the source row."""
    from graphmem import numerics as nm

    slots = prepared.slots
    ones = np.zeros((prepared.n_nodes, k_b))
    ones[:, -1] = 1.0
    out = nm.Tensor(slots.product(prepared.ring * weights.data, ones, k_b))
    if not nm._tracked(weights):
        return out

    def backward(g):
        at_key = g.reshape(-1, k_b)[slots.keys]
        nm._accumulate(weights, prepared.ring * np.einsum("ek,ek->e", at_key, ones[slots.src]))

    return nm._record(out, (weights,), backward)


def keyed_memory_bias(params, prepared):
    """The memory update's bias as packs ran it on keyed sums: in uniform
    mode the link term of the uniform weights joins ``mem.gated.bias`` as
    one row per cell; in learned mode the bias is ``mem.gated.bias`` alone,
    since :func:`keyed_memory_step` adds the whole link term. The link rows
    are wide, so ``params`` holds the wide link weight
    (:func:`wide_link_params`)."""
    from graphmem import numerics as nm

    bias = params["mem.gated.bias"]
    if params.config.neighbor_mode == "uniform":
        link = keyed_link_sum(prepared, prepared.uniform, params.config.n_relations + 1)
        bias = nm.linear_sum([(link, params["mem.gated.link"])], bias=bias)
    return bias


def keyed_attentive_read(state, params, prepared):
    """The attentive read as packs ran it on keyed sums: each graph's
    controller row gathered to its cells by segment id (its gradient a
    keyed scatter), and the read an :func:`edge_sum` from every cell to its
    graph's row. Returns (read, weights, scores) as ``attentive_read``."""
    from graphmem import numerics as nm

    segments, n_graphs = prepared.slots.segments, prepared.n_graphs
    scores = nm.linear_sum(
        [(state.memory, params["attn.cell"]), (state.controller, params["attn.ctrl"], nm.Gather(segments, n_graphs))],
        bias=params["attn.bias"], activation="tanh", project=params["attn.score"],
    )
    weights = nm.segment_softmax(scores, segments, n_graphs)
    return edge_sum(state.memory, weights, np.arange(prepared.n_nodes), segments, n_graphs, 1), weights, scores


def keyed_memory_step(state, controller, params, prepared, bias=None):
    """The memory update as packs ran it on keyed sums: the neighbour cells
    and the link rows each one :func:`edge_sum` keyed by (destination,
    relation), each graph's controller row gathered to its cells by segment
    id, and the link rows projected by the wide link weight of ``params``
    (:func:`wide_link_params`). ``bias`` is :func:`keyed_memory_bias`,
    computed here when not given."""
    from graphmem import numerics as nm
    from graphmem.model import _neighbor_weights

    weights = _neighbor_weights(prepared, state.memory, params)
    slots = prepared.slots
    cells = edge_sum(state.memory, weights, slots.src, slots.keys, prepared.n_nodes, slots.n_relations)
    terms = [(state.memory, params["mem.gated.self"]),
             (controller, params["mem.gated.ctrl"], nm.Gather(slots.segments, prepared.n_graphs)),
             (cells, params["mem.gated.nbr"])]
    if params.config.neighbor_mode == "learned":
        terms.append((keyed_link_sum(prepared, weights, params.config.n_relations + 1), params["mem.gated.link"]))
    return nm.gated_update(terms, keyed_memory_bias(params, prepared) if bias is None else bias, state.memory)


def dropout_oracle(x, bounds, rate, rng, training):
    """Inverted dropout drawn where it is applied, as ``model.forward`` drew
    it one site at a time: identity at inference or rate 0; otherwise rows
    ``bounds[b]:bounds[b + 1]`` draw their mask from generator ``b`` of
    ``rng`` (one ``Generator`` serves a pack of one), zero with probability
    ``rate`` and rescaled by 1/(1 - rate)."""
    from graphmem import numerics as nm

    if not training or rate == 0.0:
        return x
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    draw = np.concatenate([gen.random((hi - lo,) + x.data.shape[1:])
                           for gen, lo, hi in zip(rngs, bounds[:-1], bounds[1:])])
    return nm.dropout(x, (draw >= rate) / (1.0 - rate))


def keyed_forward(prepared, query, params, hops, *, dropout_rate=0.0, rng=None, training=False):
    """``model.forward`` on the keyed read and memory update above, hop for
    hop, with ``params`` holding the wide link weight
    (:func:`wide_link_params`) and dropout drawn site by site
    (:func:`dropout_oracle`); returns the (B, 1) probability tensor."""
    from graphmem import numerics as nm
    from graphmem.model import HopState, controller_step, init_state

    bias = keyed_memory_bias(params, prepared)
    state = init_state(prepared, query, params)
    per_graph = np.arange(prepared.n_graphs + 1)
    state.controller = dropout_oracle(state.controller, per_graph, dropout_rate, rng, training)
    state.memory = dropout_oracle(state.memory, prepared.slots.bounds, dropout_rate, rng, training)
    for t in range(1, hops + 1):
        read, weights, _ = keyed_attentive_read(state, params, prepared)
        controller = controller_step(state, read, params)
        memory = keyed_memory_step(state, controller, params, prepared, bias) if t < hops else None
        if memory is None:
            controller = dropout_oracle(controller, per_graph, dropout_rate, rng, training)
        state = HopState(t=t, controller=controller, memory=memory, attention=weights)
    return nm.linear_sum([(state.controller, params["out.weight"])], bias=params["out.bias"], activation="sigmoid")


def block_layout_oracle(sizes, edges, n_relations):
    """The slot layout of graphs of ``sizes`` from its definition, graph by
    graph: groups of the size-sorted graphs, each starting at a graph more
    than twice its group's first, each as wide as its largest graph and
    holding its graphs in pack order; and each group's (B_g, m R, m) blocks
    with ``weight`` at [l, i R + r, j] for every ``(graph, i, j, r, weight)``
    in ``edges`` (local rows i <- j). Returns (groups, blocks): groups as
    lists of graph indices, blocks as one array per group."""
    order = sorted(range(len(sizes)), key=lambda b: (sizes[b], b))
    groups = []
    for b in order:
        if not groups or sizes[b] > 2 * sizes[groups[-1][0]]:
            groups.append([])
        groups[-1].append(b)
    groups = [sorted(group) for group in groups]
    blocks = []
    for group in groups:
        m = max(sizes[b] for b in group)
        block = np.zeros((len(group), m * n_relations, m))
        for graph, i, j, r, weight in edges:
            if graph in group:
                block[group.index(graph), i * n_relations + r, j] = weight
        blocks.append(block)
    return groups, blocks


# -- a fingerprint baseline -----------------------------------------------------
# Not an oracle: a comparison model that the acceptance run prints next to
# the memory network's score. It uses the library's optimizer.


@dataclass(frozen=True)
class LogisticConfig:
    steps: int = 400
    learning_rate: float = 0.05
    l2: float = 1e-4


@dataclass(eq=False)
class LogisticModel:
    weights: np.ndarray
    bias: float


def logistic_baseline_train(bits: np.ndarray, labels: Sequence[int],
                            config: LogisticConfig = LogisticConfig()) -> LogisticModel:
    """L2-regularized logistic regression on a (molecules, nbits) 0/1 bit
    matrix, fit full-batch with the main model's optimizer
    (:func:`graphmem.training.adam_step`). Deterministic (zero init)."""
    from graphmem.training import AdamState, adam_step

    x = np.asarray(bits, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (x.shape[0],):
        raise ValueError(f"{x.shape[0]} fingerprints but {y.shape} labels")
    params = {"weights": np.zeros(x.shape[1]), "bias": np.zeros(1)}
    state = AdamState.for_params(params)
    n = x.shape[0]
    for _ in range(config.steps):
        z = x @ params["weights"] + params["bias"][0]
        p = 1.0 / (1.0 + np.exp(-z))
        residual = (p - y) / n
        grads = {
            "weights": x.T @ residual + 2.0 * config.l2 * params["weights"],
            "bias": np.asarray([residual.sum()]),
        }
        adam_step(params, grads, state, config.learning_rate)
    return LogisticModel(weights=params["weights"], bias=float(params["bias"][0]))


def logistic_baseline_predict(model: LogisticModel, bits: np.ndarray) -> float:
    """The positive-class probability of one molecule's bit vector."""
    z = float(np.asarray(bits, dtype=np.float64) @ model.weights + model.bias)
    return 1.0 / (1.0 + np.exp(-z))
