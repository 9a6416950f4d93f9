"""Circular fingerprints, and the logistic baseline of tests/_oracles.py."""

import csv
import io

import numpy as np
import pytest

from graphmem.fingerprint import (
    DEFAULT_NBITS,
    MAX_RADIUS,
    _identifiers,
    circular_fingerprint,
    circular_fingerprints,
    fingerprint_csv,
    fnv1a64_words,
)
from graphmem.molgraph import DEFAULT_VOCAB, MolecularGraph, featurize, parse_molfile, random_graph

from _oracles import (
    LogisticConfig,
    atom_identifiers_oracle,
    fnv1a64,
    fold_oracle,
    hash_ints,
    hex_oracle,
    logistic_baseline_predict,
    logistic_baseline_train,
)
from test_molgraph import BENZENE, molblock

METHANE = molblock(["C"], [], title="methane")  # heavy-atom record: lone carbon
ETHANE = molblock(["C", "C"], [(1, 2, 1)], title="ethane")


def fp_of(text, radius=2, nbits=1024, vocab=DEFAULT_VOCAB):
    return circular_fingerprint(featurize(parse_molfile(text), vocab), radius=radius, nbits=nbits)


def csv_hex(*rows):
    """The hex field of each bit row in fingerprint_csv's output."""
    text = fingerprint_csv([(f"m{k}", row) for k, row in enumerate(rows)])
    return [line.split(",")[1] for line in text.splitlines()[1:]]


class TestHashing:
    def test_fnv1a_reference_vectors(self):
        # published FNV-1a 64 test vectors through the loop oracle; the word
        # hash of a row without words is the offset basis, the hash of b""
        vectors = {b"": 0xCBF29CE484222325, b"a": 0xAF63DC4C8601EC8C, b"foobar": 0x85944171F73967E8}
        for text, value in vectors.items():
            assert fnv1a64(text) == value
        empty = fnv1a64_words(np.zeros(0, dtype=np.uint64), np.zeros(2, dtype=np.int64))
        assert empty.tolist() == [vectors[b""]] * 2

    def test_word_rows_equal_the_oracle(self):
        # rows of different lengths in one call, longest first, stored word
        # column by word column; the columns mix words below 256, words at
        # the byte boundary and full 64-bit words
        rows = [
            [255, 256, 2**64 - 1, 7, 0],
            [0, 1, 2**63, 255],
            [1, 2**40 + 3, 255],
            [256],
            [],
        ]
        lengths = np.array([len(row) for row in rows])
        words = np.array([row[c] for c in range(len(rows[0])) for row in rows if len(row) > c],
                         dtype=np.uint64)
        assert fnv1a64_words(words, lengths).tolist() == [hash_ints(row) for row in rows]
        # a column of words below 256 is hashed like any other
        small = [[3, 200], [255, 0], [0, 9]]
        words = np.array([row[c] for c in range(2) for row in small], dtype=np.uint64)
        assert fnv1a64_words(words, np.full(3, 2)).tolist() == [hash_ints(row) for row in small]

    def test_frozen_methane_and_ethane_bits(self):
        # frozen from an independent implementation of the same procedure
        # (tuple ints as 8-byte little-endian words through FNV-1a 64)
        methane = fp_of(METHANE, radius=1, nbits=64)
        ethane = fp_of(ETHANE, radius=1, nbits=64)
        assert sorted(np.flatnonzero(methane).tolist()) == [5, 27]
        assert sorted(np.flatnonzero(ethane).tolist()) == [4, 21]
        assert not np.array_equal(methane, ethane)
        benzene = fp_of(BENZENE, radius=2, nbits=64)
        assert np.flatnonzero(benzene).tolist() == [7, 19, 33]
        assert csv_hex(methane, ethane, benzene) == ["0400001000000000", "0800040000000000", "0100100040000000"]


class TestFingerprint:
    def test_same_molecule_parsed_twice_is_identical(self):
        a = fp_of(BENZENE)
        b = fp_of(BENZENE)
        assert a.tobytes() == b.tobytes()

    def test_single_atom_radius_zero_sets_one_bit(self):
        fp = fp_of(METHANE, radius=0, nbits=16)
        assert fp.dtype == np.uint8 and fp.sum() == 1
        assert np.flatnonzero(fp).tolist() == [5]  # frozen from the independent run

    def test_isomorphism_invariance_under_relabeling(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            graph = random_graph(rng, 3, 10, 3, alphabet=("C", "N", "O"))
            perm = rng.permutation(graph.n_nodes)
            symbols = [""] * graph.n_nodes
            for old, node in enumerate(graph.nodes):
                symbols[perm[old]] = node.symbol
            bonds = [(int(perm[e.i]), int(perm[e.j]), e.relation) for e in graph.edges]
            relabeled = MolecularGraph.from_bonds(symbols, bonds, graph.n_relations)
            a = circular_fingerprint(featurize(graph, DEFAULT_VOCAB), radius=2, nbits=256)
            b = circular_fingerprint(featurize(relabeled, DEFAULT_VOCAB), radius=2, nbits=256)
            assert a.tobytes() == b.tobytes()

    def test_popcount_monotone_in_radius(self):
        for text in (BENZENE, ETHANE, METHANE):
            previous_bits = None
            for radius in range(0, 4):
                fp = fp_of(text, radius=radius, nbits=512)
                if previous_bits is not None:
                    assert np.all(previous_bits <= fp)  # old bits stay set
                previous_bits = fp

    def test_fold_collisions_at_tiny_width(self):
        rng = np.random.default_rng(1)
        big = featurize(random_graph(rng, 14, 16, 3, alphabet=("C", "N", "O")), DEFAULT_VOCAB)
        identifiers = {i for round_ids in atom_identifiers_oracle(big, 3) for i in round_ids}
        assert len(identifiers) >= 20
        fp = circular_fingerprint(big, radius=3, nbits=4)
        # pigeonhole: more identifiers than bits forces shared slots
        assert fp.sum() <= 4 < len(identifiers)

    def test_hex_roundtrip(self):
        # the CSV's hex read back as one binary number gives the bits again
        fp = fp_of(BENZENE, radius=2, nbits=128)
        (text,) = csv_hex(fp)
        again = [int(bit) for bit in format(int(text, 16), "0128b")]
        assert again == fp.tolist()

    def test_nbits_validation(self):
        graph = featurize(parse_molfile(METHANE), DEFAULT_VOCAB)
        with pytest.raises(ValueError):
            circular_fingerprint(graph, nbits=100)
        with pytest.raises(ValueError):
            circular_fingerprint(graph, nbits=1)
        with pytest.raises(ValueError, match="radius"):
            circular_fingerprints([graph], radius=-1)
        with pytest.raises(ValueError, match=f"radius must be from 0 to {MAX_RADIUS}"):
            circular_fingerprints([graph], radius=MAX_RADIUS + 1)
        assert circular_fingerprints([graph], radius=MAX_RADIUS).shape == (1, DEFAULT_NBITS)

    def test_unfeaturized_graph_rejected(self):
        with pytest.raises(ValueError, match="no element slots"):
            circular_fingerprint(parse_molfile(METHANE))

    def test_csv_titles_with_commas_and_quotes_read_back(self):
        fp = fp_of(METHANE, nbits=16)
        text = fingerprint_csv([('aspirin, form "II"', fp), ("plain", fp)])
        assert text.splitlines()[2] == f"plain,{hex_oracle(fp)}"
        assert list(csv.reader(io.StringIO(text))) == [
            ["id", "fingerprint"], ['aspirin, form "II"', hex_oracle(fp)], ["plain", hex_oracle(fp)]]

    def test_csv_export_shape(self):
        fp = fp_of(METHANE, nbits=64)
        text = fingerprint_csv([("m0", fp)])
        header, row = text.strip().splitlines()
        assert header == "id,fingerprint"
        name, hexstring = row.split(",")
        assert name == "m0"
        assert len(hexstring) == 16

    def test_csv_of_no_rows_is_the_header(self):
        assert fingerprint_csv([]) == "id,fingerprint\n"


def varied_graphs(rng, count):
    """Featurized random graphs over 1-4 relations with explicit H atoms and
    an unknown element; every fifth gets two isolated atoms. A hub with 6 H
    and 1 N (degree 7, H count past its clamp), a single atom and a graph
    without atoms close the list."""
    alphabet = ("C", "N", "O", "H", "X")
    graphs = []
    for k in range(count):
        relations = 1 + k % 4
        graph = random_graph(rng, 1, 18, relations, alphabet=alphabet)
        if k % 5 == 0:
            graph = MolecularGraph.from_bonds([node.symbol for node in graph.nodes] + ["C", "H"],
                                              [(e.i, e.j, e.relation) for e in graph.edges], relations)
        graphs.append(graph)
    graphs.append(MolecularGraph.from_bonds(["C"] + ["H"] * 6 + ["N"], [(0, j, 1) for j in range(1, 8)], 4))
    graphs.append(MolecularGraph.from_bonds(["O"], [], 2))
    graphs.append(MolecularGraph.from_bonds([], [], 1))
    return [featurize(graph, DEFAULT_VOCAB) for graph in graphs]


class TestBatchMatchesLoop:
    """The batched hash against the per-byte, per-atom loop it replaced."""

    def test_identifiers_and_bits_equal_the_oracle(self):
        graphs = varied_graphs(np.random.default_rng(2024), 200)
        assert max(node.degree for g in graphs for node in g.nodes) > 4
        oracle_rounds = [atom_identifiers_oracle(g, 3) for g in graphs]
        for graph, rounds in zip(graphs, oracle_rounds):
            assert [ids.tolist() for ids in _identifiers([graph], 3)] == rounds
        for radius in range(4):
            for nbits in (2, 4, 8, 64, 1024):
                batch = circular_fingerprints(graphs, radius=radius, nbits=nbits)
                assert batch.shape == (len(graphs), nbits) and batch.dtype == np.uint8
                for fp, rounds in zip(batch, oracle_rounds):
                    np.testing.assert_array_equal(fp, fold_oracle(rounds[: radius + 1], nbits))

    def test_words_past_one_byte_equal_the_oracle(self):
        # a 300-symbol vocabulary puts element slots past 255; a star atom of
        # degree 300 puts its degree word past 255 and its rows past 600 words
        vocab = [f"X{k}" for k in range(300)]
        rng = np.random.default_rng(5)
        chain = MolecularGraph.from_bonds([f"X{k}" for k in (0, 255, 256, 299, 17)] + ["Q"],
                                          [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 1), (4, 0, 2), (4, 5, 3)], 3)
        star = MolecularGraph.from_bonds(["X280"] + [vocab[k] for k in rng.integers(0, 300, 300)],
                                         [(0, j, 1 + j % 3) for j in range(1, 301)], 3)
        graphs = [featurize(g, vocab) for g in (chain, star)] + varied_graphs(rng, 5)
        assert max(g.element_slots.max(initial=0) for g in graphs) > 255
        assert graphs[1].degree.max() == 300
        for radius in (0, 1, 2, MAX_RADIUS):
            oracle_rounds = [atom_identifiers_oracle(g, radius) for g in graphs]
            batch_rounds = _identifiers(graphs, radius)
            for k, rounds in enumerate(zip(*oracle_rounds)):
                assert batch_rounds[k].tolist() == [i for ids in rounds for i in ids]
            for fp, rounds in zip(circular_fingerprints(graphs, radius=radius, nbits=1024), oracle_rounds):
                np.testing.assert_array_equal(fp, fold_oracle(rounds, 1024))

    def test_position_in_a_batch_does_not_matter(self):
        rng = np.random.default_rng(7)
        graphs = varied_graphs(rng, 20)
        alone = [circular_fingerprint(g, radius=2, nbits=256) for g in graphs]
        for _ in range(5):
            order = rng.permutation(len(graphs))
            order = np.concatenate([order, order[:3]])  # some molecules twice
            batch = circular_fingerprints([graphs[k] for k in order], radius=2, nbits=256)
            for k, fp in zip(order, batch):
                np.testing.assert_array_equal(fp, alone[k])

    def test_empty_batch(self):
        assert circular_fingerprints([]).shape == (0, DEFAULT_NBITS)

    def test_hex_equals_the_bit_loop_at_every_width(self):
        # one CSV of 20 random rows per width, with all-zero and all-one rows
        rng = np.random.default_rng(11)
        for nbits in (2, 4, 8, 16, 64, 1024):
            rows = (rng.random((20, nbits)) < 0.5).astype(np.uint8)
            rows[0], rows[1] = 0, 1
            assert csv_hex(*rows) == [hex_oracle(row) for row in rows]
            assert {len(text) for text in csv_hex(*rows)} == {max(1, nbits // 4)}


class TestLogisticBaseline:
    def test_separable_toy_set_fits_perfectly(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        y = [1, 0, 1, 0]
        model = logistic_baseline_train(x, y, LogisticConfig(steps=300, learning_rate=0.2))
        predictions = [logistic_baseline_predict(model, row) >= 0.5 for row in x]
        assert predictions == [True, False, True, False]

    def test_identical_inputs_balanced_labels_stay_at_half(self):
        x = np.ones((8, 4))
        y = [0, 1] * 4
        model = logistic_baseline_train(x, y, LogisticConfig(steps=500, learning_rate=0.1))
        assert abs(logistic_baseline_predict(model, x[0]) - 0.5) < 1e-6

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(3)
        x = (rng.random((20, 16)) > 0.5).astype(float)
        y = (rng.random(20) > 0.5).astype(int).tolist()
        a = logistic_baseline_train(x, y)
        b = logistic_baseline_train(x, y)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            logistic_baseline_train(np.zeros((0, 4)), [])
