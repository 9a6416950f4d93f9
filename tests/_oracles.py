"""Brute-force reference implementations the library is checked against.

Deliberately independent of the package internals: plain loops and
enumeration only, no shared code paths with the code under test.
"""

from __future__ import annotations

import itertools
import math

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
    return {frozenset((e.i, e.j)) for e in graph.edges if e.relation == relation}


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


def learned_memory_step_oracle(graph, params: dict, memory: np.ndarray,
                               controller: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """One memory hop with learned neighbor weighting, straight from the
    definitions: each node scores its neighbors under each relation with
    the shared ``nbr.*`` head, softmaxes the scores over that neighbor set
    and mixes [neighbor cell, link features] with the weights. Returns the
    new memory and the per-relation context rows."""
    m, k_m = memory.shape
    n_relations = len(graph.neighbors)
    link_of = {}
    for e in graph.edges:
        link_of[(e.i, e.j)] = e.link_features
        link_of[(e.j, e.i)] = e.link_features
    k_b = len(graph.edges[0].link_features) if graph.edges else 0
    contexts = []
    for r in range(n_relations):
        ctx = np.zeros((m, k_m + k_b))
        for i in range(m):
            nbrs = graph.neighbors[r][i]
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


def gated_update_oracle(terms, proposal_bias, gate_bias, old) -> np.ndarray:
    """The gated skip connection row by row from its definition: each row's
    proposal relu(sum P @ X + b_p) and gate sigmoid(sum G @ X + b_g) blend
    with its old value. A term is ("plain", x, P, G), ("rows", x, P, G, rows)
    with X_i = x[rows[i]], or ("edges", x, weights, src, dst, links, P, G)
    with X_i = [sum of weights[e] * x[src[e]] over edges into i, links[i]]."""
    n, width = old.shape
    out = np.zeros_like(old)
    for i in range(n):
        pre_p = proposal_bias.copy()
        pre_g = gate_bias.copy()
        for term in terms:
            kind = term[0]
            if kind == "plain":
                _, x, wp, wg = term
                xi = x[i]
            elif kind == "rows":
                _, x, wp, wg, rows = term
                xi = x[rows[i]]
            else:
                _, x, weights, src, dst, links, wp, wg = term
                summed = np.zeros(x.shape[1])
                for e in range(len(src)):
                    if dst[e] == i:
                        summed = summed + weights[e] * x[src[e]]
                xi = np.concatenate([summed, links[i]])
            pre_p = pre_p + wp @ xi
            pre_g = pre_g + wg @ xi
        proposal = np.maximum(pre_p, 0.0)
        gate = 1.0 / (1.0 + np.exp(-pre_g))
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
    for e in graph.edges:
        bonded[e.i].append((e.relation, e.j))
        bonded[e.j].append((e.relation, e.i))
    current = [
        hash_ints((graph.element_slots[i], node.degree, min(node.h_neighbors, HCOUNT_CLAMP)))
        for i, node in enumerate(graph.nodes)
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
    hex digits (at least one)."""
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return format(value, f"0{len(bits) // 4}x")
