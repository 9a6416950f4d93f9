"""Multi-relational molecular graphs.

Covers the data model (typed nodes and edges with per-relation neighbor
lists), a self-contained MOL/SDF V2000 subset parser, ring-edge detection
by bridge finding, one-hot atom/bond featurization, and a deterministic
synthetic motif-dataset generator used for desk-scale experiments.

Everything here is a pure function of its inputs; a built graph is never
mutated, so one graph object can back many examples and tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DEFAULT_VOCAB: tuple[str, ...] = ("C", "N", "O", "S", "F", "Cl", "Br", "I", "P", "H")
SYNTHETIC_ALPHABET: tuple[str, ...] = ("A", "B", "D", "E")

N_BOND_TYPES = 4  # MOL V2000 codes: 1 single, 2 double, 3 triple, 4 aromatic
DEGREE_SLOTS = 5  # one-hot slots 0..4, larger values clamp into the last slot
HCOUNT_SLOTS = 5

SDF_RECORD_SEPARATOR = "$$$$"


class MolfileError(ValueError):
    """A MOL/SDF record could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class DatasetError(ValueError):
    """A label file or dataset layout problem."""


class SyntheticSpecError(ValueError):
    """A synthetic dataset spec is malformed or infeasible."""


@dataclass(frozen=True)
class AtomNode:
    """One graph node: element symbol plus derived local counts."""

    symbol: str
    degree: int
    h_neighbors: int  # explicit H-atom neighbors only; no valence model


@dataclass(frozen=True, eq=False)
class Edge:
    """One undirected typed edge, stored once with i < j."""

    i: int
    j: int
    relation: int  # 1-based relation id
    link_features: np.ndarray | None = None


@dataclass(eq=False)
class MolecularGraph:
    """Nodes, typed edges, and per-relation adjacency for one molecule.

    ``neighbors[r-1][i]`` lists the neighbors of node ``i`` under relation
    ``r``, sorted ascending. ``node_features`` and per-edge
    ``link_features`` are attached by :func:`featurize`.
    """

    nodes: list[AtomNode]
    edges: list[Edge]
    n_relations: int
    neighbors: list[list[list[int]]] = field(repr=False)
    node_features: np.ndarray | None = None
    element_slots: list[int] | None = None
    title: str = ""

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def neighbor_union(self, i: int) -> list[int]:
        out: list[int] = []
        for per_relation in self.neighbors:
            out.extend(per_relation[i])
        return sorted(out)

    @classmethod
    def from_bonds(
        cls,
        symbols: Sequence[str],
        bonds: Iterable[tuple[int, int, int]],
        n_relations: int,
        title: str = "",
    ) -> "MolecularGraph":
        """Build a graph from 0-based (i, j, relation) bonds.

        Degrees and explicit-H counts are derived here so they cannot
        drift from the adjacency. Bonds are stored bidirectionally.
        """
        m = len(symbols)
        neighbors: list[list[list[int]]] = [[[] for _ in range(m)] for _ in range(n_relations)]
        edges: list[Edge] = []
        seen_pairs: set[tuple[int, int]] = set()
        for i, j, relation in bonds:
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"bond ({i}, {j}) references a missing node")
            if i == j:
                raise ValueError(f"self-bond on node {i}")
            if not (1 <= relation <= n_relations):
                raise ValueError(f"relation {relation} outside 1..{n_relations}")
            pair = (min(i, j), max(i, j))
            if pair in seen_pairs:
                raise ValueError(f"duplicate bond between nodes {pair[0]} and {pair[1]}")
            seen_pairs.add(pair)
            edges.append(Edge(pair[0], pair[1], relation))
            neighbors[relation - 1][i].append(j)
            neighbors[relation - 1][j].append(i)
        for per_relation in neighbors:
            for lst in per_relation:
                lst.sort()
        degree = [0] * m
        h_neighbors = [0] * m
        for e in edges:
            degree[e.i] += 1
            degree[e.j] += 1
            if symbols[e.j] == "H":
                h_neighbors[e.i] += 1
            if symbols[e.i] == "H":
                h_neighbors[e.j] += 1
        nodes = [AtomNode(sym, degree[i], h_neighbors[i]) for i, sym in enumerate(symbols)]
        return cls(nodes=nodes, edges=edges, n_relations=n_relations, neighbors=neighbors, title=title)


# -- MOL / SDF parsing -------------------------------------------------------


def _counts_field(line: str, start: int, stop: int, line_no: int) -> int:
    text = line[start:stop].strip()
    try:
        return int(text)
    except ValueError:
        raise MolfileError(f"malformed counts line {line!r}", line_no) from None


def parse_molfile(text: str, line_offset: int = 0) -> MolecularGraph:
    """Parse one MOL V2000 connection table (or one SDF record) into a graph.

    Only the connection table is used: coordinates, charges and stereo
    flags are read past and discarded. Bond type codes become relation ids
    1..4. ``line_offset`` shifts reported line numbers when the record sits
    inside a larger SDF file.
    """
    lines = text.splitlines()
    if len(lines) < 4:
        raise MolfileError("record shorter than header + counts line", line_offset + len(lines))
    counts_no = line_offset + 4
    counts = lines[3]
    n_atoms = _counts_field(counts, 0, 3, counts_no)
    n_bonds = _counts_field(counts, 3, 6, counts_no)
    if n_atoms < 0 or n_bonds < 0:
        raise MolfileError(f"malformed counts line {counts!r}", counts_no)
    if len(lines) < 4 + n_atoms + n_bonds:
        raise MolfileError(
            f"counts line promises {n_atoms} atoms and {n_bonds} bonds but the record is shorter",
            counts_no,
        )

    symbols: list[str] = []
    for k in range(n_atoms):
        line_no = counts_no + 1 + k
        line = lines[4 + k]
        symbol = line[31:34].strip()
        if not symbol:
            parts = line.split()
            if len(parts) < 4:
                raise MolfileError(f"malformed atom line {line!r}", line_no)
            symbol = parts[3]
        symbols.append(symbol)

    bonds: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for k in range(n_bonds):
        line_no = counts_no + 1 + n_atoms + k
        line = lines[4 + n_atoms + k]
        try:
            a = int(line[0:3])
            b = int(line[3:6])
            bond_type = int(line[6:9])
        except ValueError:
            raise MolfileError(f"malformed bond line {line!r}", line_no) from None
        if not (1 <= a <= n_atoms and 1 <= b <= n_atoms):
            raise MolfileError(f"atom index out of range in bond {a}-{b}", line_no)
        if a == b:
            raise MolfileError(f"self-bond on atom {a}", line_no)
        if bond_type not in (1, 2, 3, 4):
            raise MolfileError(f"bond type {bond_type} outside {{1,2,3,4}}", line_no)
        pair = (min(a, b), max(a, b))
        if pair in seen:
            raise MolfileError(f"duplicate bond between atoms {pair[0]} and {pair[1]}", line_no)
        seen.add(pair)
        bonds.append((a - 1, b - 1, bond_type))

    title = lines[0].strip() if lines else ""
    return MolecularGraph.from_bonds(symbols, bonds, N_BOND_TYPES, title=title)


def parse_sdf(text: str) -> list[MolecularGraph]:
    """Split an SDF file on ``$$$$`` separators and parse each record."""
    graphs: list[MolecularGraph] = []
    record: list[str] = []
    offset = 0
    lines = text.splitlines()
    for idx, line in enumerate(lines):
        if line.strip() == SDF_RECORD_SEPARATOR:
            if any(l.strip() for l in record):
                graphs.append(parse_molfile("\n".join(record), line_offset=offset))
            record = []
            offset = idx + 1
        else:
            record.append(line)
    if any(l.strip() for l in record):
        graphs.append(parse_molfile("\n".join(record), line_offset=offset))
    return graphs


def write_molfile(graph: MolecularGraph, title: str = "") -> str:
    """Render a graph back to a V2000 connection table (zeroed coordinates)."""
    lines = [title, "  graphmem", ""]
    lines.append(f"{graph.n_nodes:3d}{len(graph.edges):3d}  0  0  0  0  0  0  0  0999 V2000")
    for node in graph.nodes:
        lines.append(f"{0.0:10.4f}{0.0:10.4f}{0.0:10.4f} {node.symbol:<3s} 0  0  0  0  0  0  0  0  0  0  0  0")
    for e in graph.edges:
        lines.append(f"{e.i + 1:3d}{e.j + 1:3d}{e.relation:3d}  0")
    lines.append("M  END")
    return "\n".join(lines) + "\n"


def write_sdf(graphs: Sequence[MolecularGraph], titles: Sequence[str] | None = None) -> str:
    chunks = []
    for k, g in enumerate(graphs):
        title = titles[k] if titles is not None else g.title
        chunks.append(write_molfile(g, title) + SDF_RECORD_SEPARATOR + "\n")
    return "".join(chunks)


# -- ring detection -----------------------------------------------------------


def detect_ring_edges(graph: MolecularGraph) -> np.ndarray:
    """Flag, per edge, whether it lies on some cycle.

    An edge is in a ring iff it is not a bridge; bridges are found with an
    iterative depth-first search over the union of all relations, tracking
    discovery times and low-links.
    """
    m = graph.n_nodes
    n_edges = len(graph.edges)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for eid, e in enumerate(graph.edges):
        adjacency[e.i].append((e.j, eid))
        adjacency[e.j].append((e.i, eid))

    in_ring = np.ones(n_edges, dtype=bool)
    disc = [-1] * m
    low = [0] * m
    clock = 0
    for root in range(m):
        if disc[root] != -1:
            continue
        # stack entries: (node, incoming edge id, iterator position)
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        disc[root] = low[root] = clock
        clock += 1
        while stack:
            node, in_edge, pos = stack.pop()
            if pos < len(adjacency[node]):
                stack.append((node, in_edge, pos + 1))
                nxt, eid = adjacency[node][pos]
                if eid == in_edge:
                    continue
                if disc[nxt] == -1:
                    disc[nxt] = low[nxt] = clock
                    clock += 1
                    stack.append((nxt, eid, 0))
                else:
                    low[node] = min(low[node], disc[nxt])
            else:
                if in_edge != -1:
                    parent = graph.edges[in_edge].i if graph.edges[in_edge].j == node else graph.edges[in_edge].j
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent]:
                        in_ring[in_edge] = False  # bridge
    return in_ring


# -- featurization ------------------------------------------------------------


def node_feature_dim(vocab: Sequence[str]) -> int:
    return len(vocab) + 1 + DEGREE_SLOTS + HCOUNT_SLOTS


def link_feature_dim(n_relations: int) -> int:
    return n_relations + 1


def featurize(graph: MolecularGraph, vocab: Sequence[str] = DEFAULT_VOCAB) -> MolecularGraph:
    """Attach one-hot node features and typed link features to a graph.

    Node rows are element one-hot (vocabulary order, unknowns in a trailing
    OTHER slot), then degree one-hot over slots 0..4 (clamped), then
    explicit-H-count one-hot likewise. Edge features are relation one-hot
    followed by an in-ring bit. The output is deterministic for identical
    inputs; the input graph is left untouched.
    """
    slot_of = {symbol: k for k, symbol in enumerate(vocab)}
    other = len(vocab)
    k_x = node_feature_dim(vocab)
    x = np.zeros((graph.n_nodes, k_x), dtype=np.float64)
    element_slots: list[int] = []
    for i, node in enumerate(graph.nodes):
        e_slot = slot_of.get(node.symbol, other)
        element_slots.append(e_slot)
        x[i, e_slot] = 1.0
        x[i, other + 1 + min(node.degree, DEGREE_SLOTS - 1)] = 1.0
        x[i, other + 1 + DEGREE_SLOTS + min(node.h_neighbors, HCOUNT_SLOTS - 1)] = 1.0

    ring = detect_ring_edges(graph)
    k_b = link_feature_dim(graph.n_relations)
    edges: list[Edge] = []
    for eid, e in enumerate(graph.edges):
        b = np.zeros(k_b, dtype=np.float64)
        b[e.relation - 1] = 1.0
        b[-1] = 1.0 if ring[eid] else 0.0
        edges.append(Edge(e.i, e.j, e.relation, b))

    return MolecularGraph(
        nodes=graph.nodes,
        edges=edges,
        n_relations=graph.n_relations,
        neighbors=graph.neighbors,
        node_features=x,
        element_slots=element_slots,
        title=graph.title,
    )


# -- labeled examples and label files ------------------------------------------


@dataclass(eq=False)
class LabeledExample:
    graph: MolecularGraph
    task_id: int
    label: int
    example_id: str = ""


def read_labels_csv(text: str) -> list[tuple[str, str, int]]:
    """Parse an ``id,task,label`` CSV into (id, task, label) rows."""
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError("label file is empty") from None
    if [h.strip() for h in header] != ["id", "task", "label"]:
        raise DatasetError(f"label file header must be 'id,task,label', got {','.join(header)!r}")
    rows: list[tuple[str, str, int]] = []
    for k, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise DatasetError(f"label file row {k} has {len(row)} fields, expected 3")
        label_text = row[2].strip()
        if label_text not in ("0", "1"):
            raise DatasetError(f"label file row {k}: label must be 0 or 1, got {label_text!r}")
        rows.append((row[0].strip(), row[1].strip(), int(label_text)))
    return rows


# -- synthetic motif datasets ---------------------------------------------------

MOTIF_SIZES = {"triangle": 3, "square": 4, "star3": 4}


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic motif-detection dataset."""

    nodes_min: int
    nodes_max: int
    relations: int
    motif: str  # "<shape>:<relation>", e.g. "triangle:2"
    balance: float
    count: int

    def motif_shape(self) -> str:
        return self.motif.split(":", 1)[0]

    def motif_relation(self) -> int:
        return int(self.motif.split(":", 1)[1])


def parse_synthetic_spec(text: str) -> SyntheticSpec:
    """Parse the flat ``key=value`` spec format (blank lines and # comments ok)."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SyntheticSpecError(f"line {line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    required = ("nodes_min", "nodes_max", "relations", "motif", "balance", "count")
    missing = [k for k in required if k not in values]
    if missing:
        raise SyntheticSpecError(f"missing keys: {', '.join(missing)}")
    unknown = [k for k in values if k not in required]
    if unknown:
        raise SyntheticSpecError(f"unknown keys: {', '.join(unknown)}")
    try:
        spec = SyntheticSpec(
            nodes_min=int(values["nodes_min"]),
            nodes_max=int(values["nodes_max"]),
            relations=int(values["relations"]),
            motif=values["motif"],
            balance=float(values["balance"]),
            count=int(values["count"]),
        )
    except ValueError as exc:
        raise SyntheticSpecError(f"bad value: {exc}") from None
    _validate_spec(spec)
    return spec


def _validate_spec(spec: SyntheticSpec) -> None:
    if spec.nodes_min < 1 or spec.nodes_max < spec.nodes_min:
        raise SyntheticSpecError(f"bad node range {spec.nodes_min}..{spec.nodes_max}")
    if spec.relations < 1:
        raise SyntheticSpecError("relations must be >= 1")
    if not (0.0 <= spec.balance <= 1.0):
        raise SyntheticSpecError(f"balance {spec.balance} outside [0, 1]")
    if spec.count < 1:
        raise SyntheticSpecError("count must be >= 1")
    parts = spec.motif.split(":")
    if len(parts) != 2 or parts[0] not in MOTIF_SIZES:
        raise SyntheticSpecError(
            f"motif must be one of {sorted(MOTIF_SIZES)} as '<shape>:<relation>', got {spec.motif!r}"
        )
    try:
        relation = int(parts[1])
    except ValueError:
        raise SyntheticSpecError(f"motif relation must be an integer, got {parts[1]!r}") from None
    if not (1 <= relation <= spec.relations):
        raise SyntheticSpecError(f"motif relation {relation} outside 1..{spec.relations}")
    if MOTIF_SIZES[parts[0]] > spec.nodes_max:
        raise SyntheticSpecError(
            f"motif {parts[0]} needs {MOTIF_SIZES[parts[0]]} nodes but nodes_max is {spec.nodes_max}"
        )


def contains_motif(graph: MolecularGraph, shape: str, relation: int) -> bool:
    """Whether the graph contains the motif as a subgraph of one relation type."""
    if relation > graph.n_relations:
        return False
    nbr = graph.neighbors[relation - 1]
    if shape == "triangle":
        for e in graph.edges:
            if e.relation != relation:
                continue
            if set(nbr[e.i]) & set(nbr[e.j]):
                return True
        return False
    if shape == "star3":
        return any(len(lst) >= 3 for lst in nbr)
    if shape == "square":
        m = graph.n_nodes
        for i in range(m):
            for k in range(i + 1, m):
                common = set(nbr[i]) & set(nbr[k])
                common.discard(i)
                common.discard(k)
                if len(common) >= 2:
                    return True
        return False
    raise SyntheticSpecError(f"unknown motif shape {shape!r}")


def _motif_edges(shape: str) -> list[tuple[int, int]]:
    if shape == "triangle":
        return [(0, 1), (1, 2), (0, 2)]
    if shape == "square":
        return [(0, 1), (1, 2), (2, 3), (0, 3)]
    if shape == "star3":
        return [(0, 1), (0, 2), (0, 3)]
    raise SyntheticSpecError(f"unknown motif shape {shape!r}")


def _random_bonds(rng: np.random.Generator, n: int, n_relations: int) -> dict[tuple[int, int], int]:
    """Random connected graph: a random attachment tree plus a few extra edges."""
    bonds: dict[tuple[int, int], int] = {}
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        bonds[(parent, k)] = int(rng.integers(1, n_relations + 1))
    n_extra = int(rng.integers(0, n // 2 + 1))
    for _ in range(n_extra):
        for _attempt in range(8):
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            pair = (min(i, j), max(i, j))
            if i != j and pair not in bonds:
                bonds[pair] = int(rng.integers(1, n_relations + 1))
                break
    return bonds


def random_graph(rng: np.random.Generator, n_min: int, n_max: int, n_relations: int,
                 alphabet: Sequence[str] = SYNTHETIC_ALPHABET) -> MolecularGraph:
    """One random connected multi-relational graph with random element labels."""
    n = int(rng.integers(n_min, n_max + 1))
    bonds = _random_bonds(rng, n, n_relations)
    symbols = [alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(n)]
    bond_list = sorted((i, j, r) for (i, j), r in bonds.items())
    return MolecularGraph.from_bonds(symbols, bond_list, n_relations)


def _plant_motif(rng: np.random.Generator, bonds: dict[tuple[int, int], int], n: int,
                 shape: str, relation: int) -> None:
    spots = rng.permutation(n)[: MOTIF_SIZES[shape]]
    for a, b in _motif_edges(shape):
        i, j = int(spots[a]), int(spots[b])
        bonds[(min(i, j), max(i, j))] = relation


def generate_synthetic(spec: SyntheticSpec, seed: int) -> list[LabeledExample]:
    """Deterministic motif-detection dataset: positives contain the motif,
    negatives are rejection-sampled to exclude it.

    Exactly ``round(count * balance)`` positives are produced; the output
    order is a seeded shuffle, identical across runs for the same inputs.
    """
    _validate_spec(spec)
    rng = np.random.default_rng(seed)
    shape, relation = spec.motif_shape(), spec.motif_relation()
    n_pos = int(round(spec.count * spec.balance))
    examples: list[tuple[MolecularGraph, int]] = []
    for _ in range(n_pos):
        n = int(rng.integers(max(spec.nodes_min, MOTIF_SIZES[shape]), spec.nodes_max + 1))
        bonds = _random_bonds(rng, n, spec.relations)
        _plant_motif(rng, bonds, n, shape, relation)
        symbols = [SYNTHETIC_ALPHABET[int(rng.integers(0, len(SYNTHETIC_ALPHABET)))] for _ in range(n)]
        bond_list = sorted((i, j, r) for (i, j), r in bonds.items())
        examples.append((MolecularGraph.from_bonds(symbols, bond_list, spec.relations), 1))
    for _ in range(spec.count - n_pos):
        for _attempt in range(10_000):
            graph = random_graph(rng, spec.nodes_min, spec.nodes_max, spec.relations)
            if not contains_motif(graph, shape, relation):
                examples.append((graph, 0))
                break
        else:
            raise SyntheticSpecError(
                f"could not sample a negative without motif {spec.motif!r}; the spec is too dense"
            )
    order = rng.permutation(len(examples))
    return [
        LabeledExample(graph=examples[k][0], task_id=0, label=examples[k][1], example_id=str(pos))
        for pos, k in enumerate(order)
    ]
