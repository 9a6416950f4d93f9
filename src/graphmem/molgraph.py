"""Multi-relational molecular graphs.

Covers the data model, a self-contained MOL/SDF V2000 subset parser,
ring-edge detection by bridge finding, atom featurization, and a
deterministic synthetic motif-dataset generator used for desk-scale
experiments.

A graph is columnar: its element symbols, one (E, 3) integer ``bonds``
array and the per-atom degree and explicit-H counts derived from it.
:func:`featurize` adds each atom's element slot and the vocabulary's
slot width, so an atom is three integers; :func:`atom_one_hot` builds the
one-hot node rows of a pack from them. The per-bond ring flags are
derived from ``bonds`` on first read and kept, so only a caller that
reads them (``model.pack``) pays for the search. Nothing is kept per
atom or per bond object; the ``nodes`` and ``edges`` views are built on
access.

The SDF reader works in array passes over the whole text. It keeps the
lines, split where ``str.splitlines`` splits, as offsets into one integer
array of the characters, and reads the counts, symbol and bond columns of
all records by gathering from that array; a line becomes a string only
where its text is needed (a title, a field ``int`` must read, a distinct
symbol, an error). Its errors are those of a line-by-line reading: the
earliest offending line's. :func:`featurize_all` slots the atoms of a run
of graphs in one lookup pass.

Everything here is a pure function of its inputs; a built graph is never
mutated, so one graph object can back many examples and tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

DEFAULT_VOCAB: tuple[str, ...] = ("C", "N", "O", "S", "F", "Cl", "Br", "I", "P", "H")
SYNTHETIC_ALPHABET: tuple[str, ...] = ("A", "B", "D", "E")

N_BOND_TYPES = 4  # MOL V2000 codes: 1 single, 2 double, 3 triple, 4 aromatic
V2000_MAX_COUNT = 999  # atoms or bonds in one record: the counts line gives each 3 characters
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


class AtomNode(NamedTuple):
    """Read-only view of one atom: element symbol plus derived local counts."""

    symbol: str
    degree: int
    h_neighbors: int  # explicit H-atom neighbors only; no valence model


class Edge(NamedTuple):
    """Read-only view of one bond: i < j and the 1-based relation id."""

    i: int
    j: int
    relation: int


def _first_failure(checks: Sequence[np.ndarray]) -> tuple[int, int] | None:
    """The first row any of the boolean ``checks`` flags, and the first
    check that flags it; None when no row is flagged."""
    failing = np.logical_or.reduce(checks)
    if not failing.any():
        return None
    row = int(failing.argmax())
    return row, next(k for k, check in enumerate(checks) if check[row])


def _repeats(*columns: np.ndarray) -> np.ndarray:
    """Whether each row's values in ``columns`` already occur at an earlier row.

    The columns become one exact int64 key per row, mixed-radix over each
    column's range of values. A range that would carry the key past int64
    first renumbers the key so far and the column by rank, so the key stays
    exact for any integers. A stable sort of the keys keeps equal rows in
    row order.
    """
    n = len(columns[0])
    if not n:
        return np.zeros(0, dtype=bool)
    key = np.zeros(n, dtype=np.int64)
    size = 1  # the key's values lie in 0..size-1
    for column in columns:
        low = int(column.min())
        width = int(column.max()) - low + 1
        if size * width >= 2**63:
            key = np.unique(key, return_inverse=True)[1]
            column = np.unique(column, return_inverse=True)[1]
            size, low, width = int(key.max()) + 1, 0, int(column.max()) + 1
        key = key * width + (column - low)
        size *= width
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    repeat = np.zeros(n, dtype=bool)
    repeat[order[1:]] = ordered[1:] == ordered[:-1]
    return repeat


def _explicit_h(is_h: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per atom, how many of the bonds ``ends`` (rows i, j) join it to an
    atom that ``is_h`` flags."""
    i, j = ends[:, 0], ends[:, 1]
    return np.bincount(np.concatenate([i[is_h[j]], j[is_h[i]]]), minlength=len(is_h))


@dataclass(eq=False)
class MolecularGraph:
    """One molecule as arrays.

    ``bonds`` holds one row (i, j, relation) per bond with i < j and a
    1-based relation; ``degree`` and ``h_count`` (explicit H neighbors) are
    derived from it, and so is ``ring`` (one in-ring flag per bond), on
    first read. :func:`featurize` fills ``element_slots`` and
    ``slot_width``, which fingerprints and :func:`atom_one_hot` read.
    """

    symbols: tuple[str, ...]
    bonds: np.ndarray
    n_relations: int
    degree: np.ndarray
    h_count: np.ndarray
    element_slots: np.ndarray | None = None
    slot_width: int | None = None
    title: str = ""

    @property
    def n_nodes(self) -> int:
        return len(self.symbols)

    @property
    def feature_width(self) -> int | None:
        """The width of the graph's :func:`atom_one_hot` rows, None before :func:`featurize`."""
        return None if self.slot_width is None else self.slot_width + DEGREE_SLOTS + HCOUNT_SLOTS

    @cached_property
    def ring(self) -> np.ndarray:
        """One in-ring flag per bond, from :func:`detect_ring_edges` on
        first read and kept: a graph is never mutated."""
        return detect_ring_edges(self)

    @property
    def nodes(self) -> list[AtomNode]:
        """One read-only view per atom, built on each access."""
        return list(map(AtomNode, self.symbols, self.degree.tolist(), self.h_count.tolist()))

    @property
    def edges(self) -> list[Edge]:
        """One read-only view per bond, in bond order, built on each access."""
        return list(map(Edge._make, self.bonds.tolist()))

    @classmethod
    def _derive(cls, symbols: Sequence[str], bonds: np.ndarray, n_relations: int,
                title: str = "") -> "MolecularGraph":
        """A graph from valid (i < j, relation) bond rows; derives the counts."""
        is_h = np.array([symbol == "H" for symbol in symbols], dtype=bool)
        degree = np.bincount(bonds[:, :2].ravel(), minlength=len(symbols))
        return cls(tuple(symbols), bonds, n_relations, degree, _explicit_h(is_h, bonds), title=title)

    @classmethod
    def from_bonds(
        cls,
        symbols: Sequence[str],
        bonds: Iterable[tuple[int, int, int]],
        n_relations: int,
        title: str = "",
    ) -> "MolecularGraph":
        """Build a graph from 0-based (i, j, relation) bonds, in order.

        Raises ValueError for the first bond that names a missing node,
        joins a node to itself, has a relation outside 1..n_relations or
        repeats a pair. Degrees and explicit-H counts are derived here so
        they cannot drift from the bonds.
        """
        m = len(symbols)
        rows = np.array(list(bonds), dtype=np.intp).reshape(-1, 3)
        i, j, relation = rows.T
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        failure = _first_failure([(lo < 0) | (hi >= m), i == j,
                                  (relation < 1) | (relation > n_relations), _repeats(lo, hi)])
        if failure is not None:
            row, check = failure
            messages = (
                f"bond ({i[row]}, {j[row]}) references a missing node",
                f"self-bond on node {i[row]}",
                f"relation {relation[row]} outside 1..{n_relations}",
                f"duplicate bond between nodes {lo[row]} and {hi[row]}",
            )
            raise ValueError(messages[check])
        return cls._derive(symbols, np.stack([lo, hi, relation], axis=1), n_relations, title)


# -- MOL / SDF parsing -------------------------------------------------------

# The characters below 0x1F at which str.splitlines breaks a line; past
# ASCII it also breaks at U+0085, U+2028 and U+2029.
_ASCII_BREAKS = np.zeros(0x1F, dtype=bool)
_ASCII_BREAKS[[0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E]] = True
_CODE_POINTS = 0x110000  # three code points and a count below 4 make an exact int64 key


class _Lines:
    """A text's lines, split where ``str.splitlines`` splits, as offsets.

    ``codes`` holds the text's characters as integers: its bytes for ASCII
    text, its code points otherwise. Line k is ``text[starts[k]:ends[k]]``.
    :meth:`columns` reads the same columns of many lines in one gather, so
    a line is cut out as a string only where its text is needed.
    """

    def __init__(self, text: str):
        self.text = text
        if text.isascii():
            codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        else:
            codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        near = codes <= 0x1E
        if codes.dtype != np.uint8:
            near |= (codes == 0x85) | ((codes | 1) == 0x2029)
        at = np.flatnonzero(near)
        kind = codes[at]
        at = at[(kind > 0x1E) | _ASCII_BREAKS[np.minimum(kind, 0x1E)]]
        kind = codes[at]
        crlf = (kind[:-1] == 0x0D) & (kind[1:] == 0x0A) & (np.diff(at) == 1)
        keep = np.ones(len(at), dtype=bool)
        keep[1:] = ~crlf  # the \n of \r\n breaks no line of its own
        step = np.ones(len(at), dtype=np.intp)
        step[:-1] += crlf
        self.codes = codes
        self.ends = at[keep]
        self.starts = np.concatenate([[0], (at + step)[keep]])
        if self.starts[-1] == len(codes):  # no empty line after a final break
            self.starts = self.starts[:-1]
        else:
            self.ends = np.append(self.ends, len(codes))

    def __len__(self) -> int:
        return len(self.starts)

    def line(self, k: int) -> str:
        return self.text[self.starts[k]:self.ends[k]]

    def columns(self, lines: np.ndarray, first: int, width: int) -> np.ndarray:
        """Characters ``first`` to ``first + width - 1`` of each of ``lines``,
        as a (width, len(lines)) array of ``codes``, 0 past a line's end."""
        at = self.starts[lines] + np.arange(first, first + width)[:, None]
        return self.codes.take(at, mode="clip") * (at < self.ends[lines])


def _int_fields(lines: _Lines, rows: np.ndarray, n_fields: int,
                read: Callable[[str], tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The ``n_fields`` 3-character integer fields that open each of the
    lines ``rows``, as an (n, n_fields) array, and which lines are
    malformed.

    A line whose every field is blanks then ASCII digits is read from the
    gathered characters. Any other line (a sign, an inner blank, a short
    line, another digit) is cut out and read by ``read``, and is malformed
    where ``read`` raises ValueError; the gathered values equal ``read``'s
    wherever both read a line.
    """
    chars = lines.columns(rows, 0, 3 * n_fields)
    digits = chars - chars.dtype.type(ord("0"))  # wraps past 9 below "0"
    is_digit = digits <= 9
    blank = chars == ord(" ")
    plain = is_digit[2::3] & (is_digit[0::3] | blank[0::3]) & (is_digit[1::3] | blank[1::3] & blank[0::3])
    digits *= is_digit
    values = (digits[0::3] * np.intp(100) + digits[1::3] * np.intp(10) + digits[2::3]).T
    malformed = np.zeros(len(rows), dtype=bool)
    for k in np.flatnonzero(~plain.all(axis=0)).tolist():
        try:
            values[k] = read(lines.line(rows[k]))
        except ValueError:
            malformed[k] = True
    return values, malformed


def _record_counts(lines: _Lines, first: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, MolfileError | None]:
    """The (atoms, bonds) each record's counts line promises, for the
    records before the first whose header fails, and that failure: a
    record shorter than header + counts line, a counts field ``int``
    rejects or that is negative, or counts past the record's end."""
    size = stop - first
    counted = np.flatnonzero(size >= 4)
    counts, malformed = _int_fields(lines, first[counted] + 3, 2,
                                    lambda line: (int(line[0:3].strip()), int(line[3:6].strip())))
    malformed |= (counts < 0).any(axis=1)
    promised = np.zeros((len(first), 2), dtype=np.intp)
    promised[counted] = counts
    failed = np.ones(len(first), dtype=bool)
    failed[counted] = malformed
    failed |= size < 4 + promised.sum(axis=1)
    if not failed.any():
        return promised, None
    r = int(failed.argmax())
    line_no = int(first[r]) + 4
    if size[r] < 4:
        error = MolfileError("record shorter than header + counts line", int(first[r] + size[r]))
    elif malformed[np.searchsorted(counted, r)]:
        error = MolfileError(f"malformed counts line {lines.line(first[r] + 3)!r}", line_no)
    else:
        n_atoms, n_bonds = promised[r].tolist()
        error = MolfileError(f"counts line promises {n_atoms} atoms and {n_bonds} bonds but the record is shorter",
                             line_no)
    return promised[:r], error


def _atom_symbols(lines: _Lines, atom_lines: np.ndarray) -> tuple[list[str], np.ndarray, tuple[int, str] | None]:
    """Each atom line's element symbol, whether it is H, and the (line,
    message) of the first malformed atom line, if any.

    A symbol is columns 32-34 stripped, or where they are blank the line's
    fourth field. Equal columns read as one key, so each distinct column
    text is cut out and stripped once.
    """
    c0, c1, c2 = lines.columns(atom_lines, 31, 3).astype(np.int64)
    # how many of the three columns a line reaches: tells a NUL from a short line's padding
    present = np.clip(lines.ends[atom_lines] - lines.starts[atom_lines] - 31, 0, 3)
    key = ((c0 * _CODE_POINTS + c1) * _CODE_POINTS + c2) * 4 + present
    distinct, kind = np.unique(key, return_inverse=True)
    seen = np.empty(len(distinct), dtype=np.intp)
    seen[kind] = atom_lines  # a line of each key: all of them hold the same column text
    names = np.array([lines.line(k)[31:34].strip() for k in seen.tolist()], dtype=object)
    symbols = names[kind].tolist()
    is_h = (names == "H")[kind]
    for k in np.flatnonzero((names == "")[kind]).tolist():
        line = lines.line(atom_lines[k])
        parts = line.split()
        if len(parts) < 4:
            return symbols, is_h, (int(atom_lines[k]) + 1, f"malformed atom line {line!r}")
        symbols[k] = parts[3]
        is_h[k] = parts[3] == "H"
    return symbols, is_h, None


def _read_records(lines: _Lines, first: np.ndarray, stop: np.ndarray) -> list[MolecularGraph]:
    """Parse the records made of lines ``first[r]`` to ``stop[r] - 1`` into
    graphs.

    The counts, atom and bond lines of all records are read together, by
    gathering their characters at fixed columns, and validated by array
    comparisons. The error raised is the one a record-by-record,
    line-by-line reading meets first: the earliest offending line, and on
    that line the first failed check.
    """
    counts, pending = _record_counts(lines, first, stop)
    first = first[: len(counts)]
    n_atoms, n_bonds = counts.T
    atom_bounds = np.concatenate([[0], np.cumsum(n_atoms)])
    bond_bounds = np.concatenate([[0], np.cumsum(n_bonds)])
    atom_lines = np.repeat(first + 4 - atom_bounds[:-1], n_atoms) + np.arange(atom_bounds[-1])
    bond_lines = np.repeat(first + 4 + n_atoms - bond_bounds[:-1], n_bonds) + np.arange(bond_bounds[-1])
    symbols, is_h, atom_error = _atom_symbols(lines, atom_lines)
    errors = [] if atom_error is None else [atom_error]  # (line, message) of the first failure of each kind

    fields, malformed = _int_fields(lines, bond_lines, 3,
                                    lambda line: (int(line[0:3]), int(line[3:6]), int(line[6:9])))
    owner = np.repeat(np.arange(len(first)), n_bonds)
    limit = n_atoms[owner]
    a, b, bond_type = fields.T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    failure = _first_failure([malformed, (lo < 1) | (hi > limit), a == b,
                              (bond_type < 1) | (bond_type > N_BOND_TYPES), _repeats(owner, lo, hi)])
    if failure is not None:
        row, check = failure
        messages = (
            f"malformed bond line {lines.line(bond_lines[row])!r}",
            f"atom index out of range in bond {a[row]}-{b[row]}",
            f"self-bond on atom {a[row]}",
            f"bond type {bond_type[row]} outside {{1,2,3,4}}",
            f"duplicate bond between atoms {lo[row]} and {hi[row]}",
        )
        errors.append((int(bond_lines[row]) + 1, messages[check]))
    if errors:
        line, message = min(errors)
        raise MolfileError(message, line)
    if pending is not None:
        raise pending

    bonds = np.stack([lo - 1, hi - 1, bond_type], axis=1)
    ends = bonds[:, :2] + atom_bounds[owner][:, None]  # atoms numbered across records
    degree = np.bincount(ends.ravel(), minlength=len(symbols))
    h_count = _explicit_h(is_h, ends)
    text = lines.text
    titles = [text[s:e].strip() for s, e in zip(lines.starts[first].tolist(), lines.ends[first].tolist())]
    atom_bounds, bond_bounds = atom_bounds.tolist(), bond_bounds.tolist()
    return [
        MolecularGraph(tuple(symbols[a0:a1]), bonds[b0:b1], N_BOND_TYPES, degree[a0:a1], h_count[a0:a1],
                       title=title)
        for title, a0, a1, b0, b1 in zip(titles, atom_bounds, atom_bounds[1:], bond_bounds, bond_bounds[1:])
    ]


def parse_molfile(text: str) -> MolecularGraph:
    """Parse one MOL V2000 connection table (or one SDF record) into a graph.

    Only the connection table is used: coordinates, charges and stereo
    flags are read past and discarded. Bond type codes become relation ids
    1..4. Reported line numbers count from the first line of ``text``;
    :func:`parse_sdf` numbers them within the whole file.
    """
    lines = _Lines(text)
    return _read_records(lines, np.array([0]), np.array([len(lines)]))[0]


def parse_sdf(text: str) -> list[MolecularGraph]:
    """Split an SDF file on ``$$$$`` separators and parse every record
    that has a non-blank line.

    A separator is a line that strips to ``$$$$``; only the lines holding
    four ``$`` in a row are cut out to be tested. A record ends at its last
    line break, as in :func:`parse_molfile`: one empty line before a
    separator belongs to no record.
    """
    lines = _Lines(text)
    dollars = np.flatnonzero(lines.codes == ord("$"))
    runs = dollars[:-3][dollars[3:] - dollars[:-3] == 3]  # the first of four in a row
    candidates = np.unique(np.searchsorted(lines.starts, runs, side="right") - 1).tolist()
    separators = [k for k in candidates if lines.line(k).strip() == SDF_RECORD_SEPARATOR]
    first = np.array([0, *(k + 1 for k in separators)], dtype=np.intp)
    stop = np.array([*separators, len(lines)], dtype=np.intp)
    nonempty = first < stop
    first, stop = first[nonempty], stop[nonempty]
    spans = zip(lines.starts[first].tolist(), lines.ends[stop - 1].tolist())
    filled = np.array([s < e and not text[s:e].isspace() for s, e in spans], dtype=bool)
    first, stop = first[filled], stop[filled]
    stop -= lines.starts[stop - 1] == lines.ends[stop - 1]
    return _read_records(lines, first, stop)


def write_molfile(graph: MolecularGraph, title: str = "") -> str:
    """Render a graph back to a V2000 connection table (zeroed coordinates);
    a DatasetError for more atoms or bonds than its counts line holds."""
    for what, count in (("atoms", graph.n_nodes), ("bonds", len(graph.bonds))):
        if count > V2000_MAX_COUNT:
            raise DatasetError(f"molecule {title!r} has {count} {what}, but a V2000 record holds at most "
                               f"{V2000_MAX_COUNT}")
    lines = [title, "  graphmem", ""]
    lines.append(f"{graph.n_nodes:3d}{len(graph.bonds):3d}  0  0  0  0  0  0  0  0999 V2000")
    for symbol in graph.symbols:
        lines.append(f"{0.0:10.4f}{0.0:10.4f}{0.0:10.4f} {symbol:<3s} 0  0  0  0  0  0  0  0  0  0  0  0")
    for i, j, relation in graph.bonds.tolist():
        lines.append(f"{i + 1:3d}{j + 1:3d}{relation:3d}  0")
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
    """Flag, per bond, whether it lies on some cycle.

    A bond is in a ring iff it is not a bridge; bridges are found with an
    iterative depth-first search over the union of all relations, tracking
    discovery times and low-links, on adjacency lists read off ``bonds``.
    """
    m = graph.n_nodes
    in_ring = np.ones(len(graph.bonds), dtype=bool)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for k, (i, j, _) in enumerate(graph.bonds.tolist()):
        adjacency[i].append((j, k))
        adjacency[j].append((i, k))

    disc = [-1] * m
    low = [0] * m
    bridges: list[int] = []
    clock = 0
    for root in range(m):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        # stack entries: (node, incoming bond, iterator over its adjacency)
        stack = [(root, -1, iter(adjacency[root]))]
        while stack:
            node, in_bond, pending = stack[-1]
            for nxt, bond in pending:
                if disc[nxt] == -1:
                    disc[nxt] = low[nxt] = clock
                    clock += 1
                    stack.append((nxt, bond, iter(adjacency[nxt])))
                    break
                if disc[nxt] < low[node] and bond != in_bond:
                    low[node] = disc[nxt]
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                    if low[node] > disc[parent]:
                        bridges.append(in_bond)
    in_ring[bridges] = False
    return in_ring


# -- featurization ------------------------------------------------------------


def node_feature_dim(vocab: Sequence[str]) -> int:
    return len(vocab) + 1 + DEGREE_SLOTS + HCOUNT_SLOTS


def link_feature_dim(n_relations: int) -> int:
    return n_relations + 1


def featurize(graph: MolecularGraph, vocab: Sequence[str] = DEFAULT_VOCAB) -> MolecularGraph:
    """A copy of the graph with each atom's slot in ``vocab`` (a symbol
    ``vocab`` lacks takes the trailing OTHER slot, ``len(vocab)``; one it
    lists twice, its last slot) and the slot width ``len(vocab) + 1``. No
    ring search runs here: the new graph derives its ``ring`` flags on
    first read."""
    return featurize_all([graph], vocab)[0]


def featurize_all(graphs: Sequence[MolecularGraph], vocab: Sequence[str] = DEFAULT_VOCAB) -> list[MolecularGraph]:
    """:func:`featurize` for each of ``graphs``: the atoms of all of them
    get their slots in one lookup pass, and each graph's slots are a view
    of one array."""
    slot_of = {symbol: k for k, symbol in enumerate(vocab)}
    bounds = list(accumulate((graph.n_nodes for graph in graphs), initial=0))
    symbols = chain.from_iterable(graph.symbols for graph in graphs)
    slots = np.fromiter(map(slot_of.get, symbols, repeat(len(vocab))), dtype=np.intp, count=bounds[-1])
    return [MolecularGraph(graph.symbols, graph.bonds, graph.n_relations, graph.degree, graph.h_count,
                           element_slots=slots[a0:a1], slot_width=len(vocab) + 1, title=graph.title)
            for graph, a0, a1 in zip(graphs, bounds, bounds[1:])]


def atom_one_hot(graphs: Sequence[MolecularGraph]) -> np.ndarray:
    """The (N, k_x) one-hot node rows of featurized graphs of one slot width,
    atoms stacked in order, set by one scatter: the element slot's one-hot
    (vocabulary order, then OTHER), then the degree's over slots 0..4 and
    the explicit-H count's likewise, each clamped into its last slot."""
    width = graphs[0].slot_width
    degree = np.minimum(np.concatenate([graph.degree for graph in graphs]), DEGREE_SLOTS - 1)
    h_count = np.minimum(np.concatenate([graph.h_count for graph in graphs]), HCOUNT_SLOTS - 1)
    hot = np.stack([np.concatenate([graph.element_slots for graph in graphs]),
                    width + degree, width + DEGREE_SLOTS + h_count], axis=1)
    x = np.zeros((len(hot), graphs[0].feature_width))
    x[np.arange(len(hot))[:, None], hot] = 1.0
    return x


# -- labeled examples and label files ------------------------------------------


@dataclass(eq=False)
class LabeledExample:
    graph: MolecularGraph
    task_id: int
    label: int
    example_id: str = ""


def read_labels_csv(text: str) -> list[tuple[str, str, int]]:
    """Parse an ``id,task,label`` CSV into (id, task, label) rows, LF, CRLF
    and bare-CR line ends alike; malformed text, whatever the csv module
    refuses included, is a DatasetError."""
    import csv
    import io

    reader = csv.reader(io.StringIO(text, newline=None))
    rows: list[tuple[str, str, int]] = []
    try:
        header = next(reader, None)
        if header is None:
            raise DatasetError("label file is empty")
        if [h.strip() for h in header] != ["id", "task", "label"]:
            raise DatasetError(f"label file header must be 'id,task,label', got {','.join(header)!r}")
        for k, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DatasetError(f"label file row {k} has {len(row)} fields, expected 3")
            label_text = row[2].strip()
            if label_text not in ("0", "1"):
                raise DatasetError(f"label file row {k}: label must be 0 or 1, got {label_text!r}")
            rows.append((row[0].strip(), row[1].strip(), int(label_text)))
    except csv.Error as exc:
        raise DatasetError(f"label file line {reader.line_num}: {exc}") from None
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


def parse_key_values(text: str, source: str, error: type[ValueError]) -> dict[str, str]:
    """The flat ``key=value`` format of config files and synthetic specs:
    each line stripped, blank and ``#`` lines skipped, every other line
    split at its first ``=``, a later key winning. A line without ``=``
    raises ``error`` naming ``source`` and the line."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{source}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def parse_synthetic_spec(text: str, source: str = "spec") -> SyntheticSpec:
    """Parse the flat ``key=value`` spec format (see :func:`parse_key_values`)
    of the file ``source``."""
    values = parse_key_values(text, source, SyntheticSpecError)
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
    """Whether the graph contains the motif as a subgraph of one relation type.

    Counts shared neighbors with one product of the relation's (n, n)
    adjacency matrix: a triangle is a bonded pair with a shared neighbor,
    a square two atoms with two, a three-star an atom with three bonds.
    """
    if relation > graph.n_relations:
        return False
    if shape not in MOTIF_SIZES:
        raise SyntheticSpecError(f"unknown motif shape {shape!r}")
    i, j = graph.bonds[graph.bonds[:, 2] == relation, :2].T
    if shape == "star3":
        return bool((np.bincount(np.concatenate([i, j]), minlength=1) >= 3).any())
    adjacency = np.zeros((graph.n_nodes, graph.n_nodes))
    adjacency[i, j] = adjacency[j, i] = 1.0
    shared = adjacency @ adjacency  # shared[a, b]: neighbors a and b have in common
    if shape == "triangle":
        return bool((shared * adjacency).any())
    np.fill_diagonal(shared, 0.0)  # an atom shares all its neighbors with itself
    return bool((shared >= 2.0).any())


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


def _bond_rows(bonds: dict[tuple[int, int], int]) -> np.ndarray:
    """The (E, 3) rows of a generated bond dict, sorted by atom pair."""
    return np.array(sorted((i, j, r) for (i, j), r in bonds.items()), dtype=np.intp).reshape(-1, 3)


def random_graph(rng: np.random.Generator, n_min: int, n_max: int, n_relations: int,
                 alphabet: Sequence[str] = SYNTHETIC_ALPHABET) -> MolecularGraph:
    """One random connected multi-relational graph with random element labels."""
    n = int(rng.integers(n_min, n_max + 1))
    bonds = _random_bonds(rng, n, n_relations)
    symbols = [alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(n)]
    return MolecularGraph._derive(symbols, _bond_rows(bonds), n_relations)


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
        examples.append((MolecularGraph._derive(symbols, _bond_rows(bonds), spec.relations), 1))
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
