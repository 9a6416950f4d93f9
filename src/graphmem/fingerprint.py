"""Circular substructure fingerprints.

The fingerprint is an iterative-hash scheme over atom environments: round 0
hashes each atom's invariant tuple, every later round hashes the atom's
previous identifier together with the sorted (bond type, neighbor
identifier) pairs, and all identifiers from all rounds are folded modulo
the bit length. Hashing is FNV-1a 64-bit over a fixed little-endian
serialization, so fingerprints are bit-identical across platforms.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

from .molgraph import HCOUNT_SLOTS, MolecularGraph

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_PRIME = np.uint64(FNV64_PRIME)
_PRIME_POW8 = np.uint64(pow(FNV64_PRIME, 8, 2**64))
_WORD = np.dtype("<u8")  # hashed integers are 8-byte little-endian words

DEFAULT_RADIUS = 2
DEFAULT_NBITS = 1024
# Fingerprints are built as one (molecules, nbits) byte matrix per run, so
# a width past this bound is rejected as a configuration error instead of
# ending in a failed allocation.
MAX_NBITS = 2**16
# Each round keeps one identifier per atom and costs about 0.2 ms per
# thousand atoms (runs of 4,096 atoms, 2-vCPU Xeon VM), and rounds past a
# molecule's diameter reach no new atoms, so a radius past this bound is
# rejected instead of exhausting memory.
MAX_RADIUS = 64


def _word_columns(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For rows of ``lengths`` words, longest first: how many rows have a
    word c, and where word column c starts when stored column by column."""
    live = len(lengths) - np.cumsum(np.bincount(lengths))[:-1]
    return live, np.cumsum(live) - live


def fnv1a64_words(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """FNV-1a 64 of rows of 8-byte little-endian words, all rows in one pass.

    Row k has ``lengths[k]`` words, and ``lengths`` does not increase, so
    the rows that have a word c are a prefix. ``words`` holds the rows
    word column by word column: word 0 of every row, then word 1 of the
    rows that have one, and so on. Each column updates a prefix of the
    running hashes in place. A column whose words are all below 256 takes
    one xor and one multiply by FNV64_PRIME**8: its seven high bytes are
    zero, and xor with zero leaves a hash unchanged. Any other column takes
    eight byte steps. A uint64 array multiply wraps modulo 2**64, which is
    the FNV arithmetic (uint64 scalars would warn on overflow).
    """
    words = np.asarray(words, dtype=_WORD)
    lengths = np.asarray(lengths, dtype=np.int64)
    hashes = np.full(len(lengths), FNV64_OFFSET, dtype=np.uint64)
    if not len(words):
        return hashes
    live, starts = _word_columns(lengths)
    small = np.maximum.reduceat(words, starts) < 256
    octets = words.view(np.uint8)
    for start, count, one_byte in zip(starts.tolist(), live.tolist(), small.tolist()):
        head = hashes[:count]
        if one_byte:
            head ^= words[start:start + count]
            head *= _PRIME_POW8
        else:
            column = octets[8 * start:8 * (start + count)].reshape(count, 8)
            for byte in column.T:
                head ^= byte
                head *= _PRIME
    return hashes


def check_options(radius: int, nbits: int) -> None:
    """Raise ValueError unless ``nbits`` is a power of two in [2, MAX_NBITS]
    and ``radius`` lies in [0, MAX_RADIUS]."""
    if nbits < 2 or nbits & (nbits - 1) or nbits > MAX_NBITS:
        raise ValueError(f"nbits must be a power of two from 2 to {MAX_NBITS}, got {nbits}")
    if not 0 <= radius <= MAX_RADIUS:
        raise ValueError(f"radius must be from 0 to {MAX_RADIUS}, got {radius}")


def _identifiers(graphs: Sequence[MolecularGraph], radius: int) -> list[np.ndarray]:
    """Per-round identifiers, rounds 0..radius, of the atoms of ``graphs``
    stacked in order.

    Round 0 hashes each atom's (element slot, degree, clamped H count) as
    three 8-byte little-endian words; round r hashes the words [r, own
    identifier, then (bond type, neighbor identifier) for each bond, sorted].
    The rounds run on the atoms ranked by falling degree, which puts the
    longer word rows first, as :func:`fnv1a64_words` takes them.
    """
    if any(g.element_slots is None for g in graphs):
        raise ValueError("graph has no element slots; they are part of the atom invariant")
    sizes = np.array([g.n_nodes for g in graphs], dtype=np.int64)
    n = int(sizes.sum())

    def stacked(arrays: list[np.ndarray], *shape: int) -> np.ndarray:
        return np.concatenate([np.zeros((0, *shape), dtype=np.int64), *arrays])

    degree = stacked([g.degree for g in graphs])
    by_degree = np.argsort(-degree)
    atoms = np.arange(n)
    rank = np.empty(n, dtype=np.int64)
    rank[by_degree] = atoms
    degree = degree[by_degree]
    invariants = np.concatenate([
        stacked([g.element_slots for g in graphs])[by_degree],
        degree,
        np.minimum(stacked([g.h_count for g in graphs]), HCOUNT_SLOTS - 1)[by_degree],
    ]).astype(_WORD)
    bonds = stacked([g.bonds for g in graphs], 3)
    offset = np.repeat(np.cumsum(sizes) - sizes, [len(g.bonds) for g in graphs])
    ends = (rank[bonds[:, 0] + offset], rank[bonds[:, 1] + offset])
    # every bond seen from both of its atoms
    atom = np.concatenate(ends)
    neighbor = np.concatenate(ends[::-1])
    bond_type = np.tile(bonds[:, 2], 2)
    pair_key = (atom * (int(bond_type.max(initial=0)) + 1) + bond_type) * n
    # Once the pairs are sorted by atom, the k-th pair belongs to the same
    # atom and bond position in every round, so its two word slots are
    # fixed: word c of row i sits at starts[c] + i.
    lengths = 2 + 2 * degree
    live, starts = _word_columns(lengths)
    rows = np.sort(atom)
    column = 2 + 2 * (np.arange(len(rows)) - (np.cumsum(degree) - degree)[rows])
    bond_at, neighbor_at = starts[column] + rows, starts[column + 1] + rows
    words = np.empty(int(live.sum()), dtype=_WORD)

    current = fnv1a64_words(invariants, np.full(n, 3))
    rounds = [current[rank]]
    for r in range(1, radius + 1):
        # by atom, bond type, then the neighbor identifier's rank among all
        # identifiers: pairs tied on all three are equal words, so their
        # order does not matter
        id_rank = np.empty(n, dtype=np.int64)
        id_rank[np.argsort(current)] = atoms
        order = np.argsort(pair_key + id_rank[neighbor])
        words[:n] = r
        words[n:2 * n] = current
        words[bond_at] = bond_type[order]
        words[neighbor_at] = current[neighbor[order]]
        current = fnv1a64_words(words, lengths)
        rounds.append(current[rank])
    return rounds


def circular_fingerprints(
    graphs: Sequence[MolecularGraph],
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> np.ndarray:
    """The (graphs, nbits) uint8 0/1 bit matrix of graphs with element
    slots: every identifier of every round, of all graphs' atoms at once,
    folded into nbits bits."""
    check_options(radius, nbits)
    owner = np.repeat(np.arange(len(graphs)), [g.n_nodes for g in graphs])
    identifiers = np.concatenate(_identifiers(graphs, radius))
    bits = np.zeros((len(graphs), nbits), dtype=np.uint8)
    bits[np.tile(owner, radius + 1), identifiers % np.uint64(nbits)] = 1
    return bits


def circular_fingerprint(
    graph: MolecularGraph,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> np.ndarray:
    """The bit row of one graph with element slots."""
    return circular_fingerprints([graph], radius, nbits)[0]


def fingerprint_lines(ids: Sequence[str], bits: Sequence[np.ndarray]) -> str:
    """The ``id,hexstring`` CSV lines of (molecules, nbits) 0/1 bit rows.

    A row is nbits/4 hex digits, bit 0 most significant, and one digit
    below 8 bits; all rows are packed and hex-encoded in one pass. An id
    that holds a comma or a quote is quoted, so every row reads back as
    two fields."""
    bits = np.asarray(bits, dtype=np.uint8)
    packed = np.packbits(bits, axis=1)
    # below 8 bits a row is the high bits of its one byte: shift them down
    # and keep the byte's second hex digit
    packed >>= max(0, 8 - bits.shape[1])
    text = packed.tobytes().hex()
    width, skip = 2 * packed.shape[1], int(bits.shape[1] < 8)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        zip(ids, (text[k + skip:k + width] for k in range(0, len(text), width))))
    return out.getvalue()


def fingerprint_csv(rows: Sequence[tuple[str, np.ndarray]]) -> str:
    """(id, bit row) pairs as :func:`fingerprint_lines` under the header line,
    which is all a library without records gives."""
    return "id,fingerprint\n" + (fingerprint_lines(*zip(*rows)) if rows else "")

