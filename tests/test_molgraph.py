"""Parsing, ring detection, featurization, and the synthetic generator."""

import inspect

import numpy as np
import pytest

from graphmem import molgraph
from graphmem.fingerprint import circular_fingerprint
from graphmem.molgraph import (
    DEFAULT_VOCAB,
    MolecularGraph,
    MolfileError,
    DatasetError,
    SyntheticSpec,
    SyntheticSpecError,
    atom_one_hot,
    contains_motif,
    detect_ring_edges,
    featurize,
    featurize_all,
    generate_synthetic,
    parse_molfile,
    parse_sdf,
    parse_synthetic_spec,
    random_graph,
    read_labels_csv,
    write_molfile,
    write_sdf,
)

from _oracles import (
    atom_identifiers_oracle,
    edge_in_ring_oracle,
    featurize_oracle,
    find_motif_oracle,
    fold_oracle,
    link_features_oracle,
    neighbor_lists,
    neighbor_union,
    parse_sdf_oracle,
    repeats_oracle,
)


def molblock(symbols, bonds, title="mol"):
    """Render a minimal V2000 record for tests."""
    lines = [title, "  test", ""]
    lines.append(f"{len(symbols):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000")
    for s in symbols:
        lines.append(f"{0.0:10.4f}{0.0:10.4f}{0.0:10.4f} {s:<3s} 0  0  0  0  0  0  0  0  0  0  0  0")
    for a, b, t in bonds:
        lines.append(f"{a:3d}{b:3d}{t:3d}  0")
    lines.append("M  END")
    return "\n".join(lines) + "\n"


# hand-transcribed reference record: 6 carbons, 6 aromatic bonds in a cycle
BENZENE = molblock(
    ["C"] * 6,
    [(1, 2, 4), (2, 3, 4), (3, 4, 4), (4, 5, 4), (5, 6, 4), (6, 1, 4)],
    title="benzene",
)


class TestParseMolfile:
    def test_single_atom(self):
        g = parse_molfile(molblock(["C"], []))
        assert g.n_nodes == 1
        assert g.edges == []
        assert g.nodes[0].symbol == "C"
        assert g.nodes[0].degree == 0

    def test_two_atoms_bidirectional(self):
        g = parse_molfile(molblock(["C", "C"], [(1, 2, 1)]))
        assert g.n_nodes == 2
        assert g.bonds.tolist() == [[0, 1, 1]]
        assert neighbor_lists(g)[0] == [[1], [0]]

    def test_benzene_by_independent_adjacency_count(self):
        g = parse_molfile(BENZENE)
        assert g.n_nodes == 6
        assert len(g.edges) == 6
        assert all(e.relation == 4 for e in g.edges)
        # independent count: tally endpoints straight from the bond list
        degree = [0] * 6
        for e in g.edges:
            degree[e.i] += 1
            degree[e.j] += 1
        assert degree == [2] * 6
        assert [n.degree for n in g.nodes] == [2] * 6

    def test_explicit_hydrogen_neighbors_counted(self):
        g = parse_molfile(molblock(["C", "H", "H", "O"], [(1, 2, 1), (1, 3, 1), (1, 4, 2)]))
        assert g.nodes[0].h_neighbors == 2
        assert g.nodes[3].h_neighbors == 0

    def test_malformed_counts_line(self):
        bad = molblock(["C"], []).replace("  1  0", " x1  0", 1)
        with pytest.raises(MolfileError, match="line 4"):
            parse_molfile(bad)

    def test_atom_index_out_of_range(self):
        with pytest.raises(MolfileError, match="out of range") as err:
            parse_molfile(molblock(["C", "C"], [(1, 3, 1)]))
        assert err.value.line == 7

    def test_bond_type_outside_codes(self):
        with pytest.raises(MolfileError, match="bond type"):
            parse_molfile(molblock(["C", "C"], [(1, 2, 5)]))

    def test_duplicate_bond_either_orientation(self):
        with pytest.raises(MolfileError, match="duplicate bond"):
            parse_molfile(molblock(["C", "C"], [(1, 2, 1), (2, 1, 2)]))

    def test_self_bond_rejected(self):
        with pytest.raises(MolfileError, match="self-bond"):
            parse_molfile(molblock(["C", "C"], [(1, 1, 1)]))

    def test_truncated_record(self):
        text = "\n".join(molblock(["C", "C"], [(1, 2, 1)]).splitlines()[:5])
        with pytest.raises(MolfileError, match="shorter"):
            parse_molfile(text)

    def test_roundtrip_through_writer(self):
        g = parse_molfile(BENZENE)
        again = parse_molfile(write_molfile(g, "benzene"))
        assert [n.symbol for n in again.nodes] == [n.symbol for n in g.nodes]
        assert [(e.i, e.j, e.relation) for e in again.edges] == [(e.i, e.j, e.relation) for e in g.edges]


class TestParseSdf:
    def test_multiple_records(self):
        text = molblock(["C"], [], title="a") + "$$$$\n" + BENZENE + "$$$$\n"
        graphs = parse_sdf(text)
        assert [g.n_nodes for g in graphs] == [1, 6]
        assert graphs[0].title == "a"

    def test_missing_final_separator_ok(self):
        graphs = parse_sdf(molblock(["C"], []))
        assert len(graphs) == 1

    def test_error_carries_file_line_number(self):
        text = molblock(["C"], [], title="a") + "$$$$\n" + molblock(["C", "C"], [(1, 9, 1)])
        with pytest.raises(MolfileError) as err:
            parse_sdf(text)
        # second record starts at file line 8; its bond line is the 7th of the record
        assert err.value.line == 14

    def test_write_sdf_roundtrip(self):
        graphs = parse_sdf(write_sdf([parse_molfile(BENZENE), parse_molfile(molblock(["N"], []))]))
        assert [g.n_nodes for g in graphs] == [6, 1]

    def test_write_refuses_counts_past_the_v2000_field(self):
        # the counts line gives atoms and bonds 3 characters each
        chain = MolecularGraph.from_bonds(["C"] * 1000, [(i, i + 1, 1) for i in range(999)], 1)
        with pytest.raises(DatasetError, match="'big' has 1000 atoms, but a V2000 record holds at most 999"):
            write_molfile(chain, "big")
        with pytest.raises(DatasetError, match="1000 atoms"):
            write_sdf([parse_molfile(BENZENE), chain])
        # 46 atoms, every pair bonded: 1035 bonds
        dense = MolecularGraph.from_bonds(["C"] * 46, [(i, j, 1) for i in range(46) for j in range(i + 1, 46)], 1)
        with pytest.raises(DatasetError, match="has 1035 bonds, but a V2000 record holds at most 999"):
            write_molfile(dense, "dense")

    def test_largest_writable_chain_round_trips(self):
        chain = MolecularGraph.from_bonds(["C", "N"] * 499 + ["O"], [(i, i + 1, 1 + i % 2) for i in range(998)], 2)
        again = parse_sdf(write_sdf([chain], ["c999"]))
        assert len(again) == 1 and again[0].title == "c999"
        assert again[0].symbols == chain.symbols
        np.testing.assert_array_equal(again[0].bonds, chain.bonds)


def mutated_files(count=3000, seed=0, alphabet="0123456789 -+.$CNOx\n", crlf=0.0):
    """Seeded random edits of a two-record SDF file: characters of
    ``alphabet`` replaced, inserted or deleted, lines deleted or repeated,
    and with probability ``crlf`` every line break turned into CRLF."""
    base = (BENZENE + "$$$$\n" + molblock(["C", "N", "O"], [(1, 2, 1), (2, 3, 2)], title="b")
            + "$$$$\n")
    rng = np.random.default_rng(seed)
    for _ in range(count):
        text = base
        if crlf and rng.random() < crlf:
            text = text.replace("\n", "\r\n")
        for _ in range(int(rng.integers(1, 4))):
            lines = text.split("\n")
            op = int(rng.integers(5))
            at = int(rng.integers(len(text)))
            char = alphabet[int(rng.integers(len(alphabet)))]
            if op == 0:
                text = text[:at] + char + text[at + 1:]
            elif op == 1:
                text = text[:at] + char + text[at:]
            elif op == 2:
                text = text[:at] + text[at + 1:]
            elif op == 3:
                k = int(rng.integers(len(lines)))
                text = "\n".join(lines[:k] + lines[k + 1:])
            else:
                k = int(rng.integers(len(lines)))
                text = "\n".join(lines[:k + 1] + lines[k:])
        yield text


def outcome(read, text):
    """What ``read(text)`` returns, or the class, message and line it raises."""
    try:
        return read(text)
    except MolfileError as exc:
        return (type(exc), str(exc), exc.line)


def assert_matches_oracle(graphs, records, vocab=DEFAULT_VOCAB):
    """Parsed graphs equal the line-by-line oracle's records, before and
    after featurization."""
    assert len(graphs) == len(records)
    for g, record in zip(graphs, records):
        assert g.title == record["title"]
        assert list(g.symbols) == record["symbols"]
        assert g.bonds.tolist() == [list(bond) for bond in record["bonds"]]
        assert [tuple(e) for e in g.edges] == record["bonds"]
        assert g.degree.tolist() == record["degree"]
        assert g.h_count.tolist() == record["h_count"]
        features, ring = featurize_oracle(record, vocab)
        featurized = featurize(g, vocab)
        np.testing.assert_array_equal(atom_one_hot([featurized]), features)
        assert featurized.ring.tolist() == ring


class TestSdfFuzz:
    def test_mutated_records_raise_only_data_errors(self):
        # each mutant either parses and featurizes as the line-by-line oracle
        # does, or raises the oracle's MolfileError: same message, same line
        failures = 0
        for text in mutated_files():
            got, expected = outcome(parse_sdf, text), outcome(parse_sdf_oracle, text)
            if isinstance(expected, tuple):
                failures += 1
                assert got == expected, text
            else:
                assert_matches_oracle(got, expected)
        assert 1000 < failures < 2000  # both outcomes are well represented

    def test_mutants_with_carriage_returns_tabs_and_other_characters(self):
        # what the first alphabet cannot reach: bare and CRLF line breaks,
        # tabs, a Latin letter, an Arabic-Indic digit that int() reads and
        # more $, in files whose line breaks are sometimes all CRLF
        failures = 0
        for text in mutated_files(count=1500, seed=27, alphabet="0123456789 -+.$CNOx\n\r\t\u00e9\u0664$$",
                                  crlf=0.3):
            got, expected = outcome(parse_sdf, text), outcome(parse_sdf_oracle, text)
            if isinstance(expected, tuple):
                failures += 1
                assert got == expected, text
            else:
                assert_matches_oracle(got, expected)
        assert 700 < failures < 1050  # both outcomes are well represented


class TestParseMatchesOracle:
    def test_generated_libraries(self):
        rng = np.random.default_rng(5)
        graphs = [random_graph(rng, 1, 40, 4, alphabet=("C", "H", "N", "Zz", "Cl")) for _ in range(150)]
        graphs.append(MolecularGraph.from_bonds([], [], 4))
        graphs.append(MolecularGraph.from_bonds(["H", "C", "H"], [(0, 1, 1), (1, 2, 1)], 4))
        titles = [f"m{k}" if k % 3 else "" for k in range(len(graphs))]
        text = write_sdf(graphs, titles)
        assert_matches_oracle(parse_sdf(text), parse_sdf_oracle(text))

    def test_bond_fields_read_as_int_reads_them(self):
        # signs, inner and trailing blanks, leading zeros, underscores, a
        # tab and non-ASCII digits, each on one bond line
        lines = ["+1  2  1", "  1 +3001  0", "1    4  1", "002  5 02", "1_0  1  1",
                 "  3\t 6  4", "  \u0664  7  1", "  5  8  2"]
        head = molblock(["C"] * 10, []).splitlines()
        head[3] = f" 10{len(lines):3d}" + head[3][6:]
        text = "\n".join(head[:-1] + lines + head[-1:]) + "\n"
        g = parse_molfile(text)
        assert g.bonds.tolist() == [[0, 1, 1], [0, 2, 1], [0, 3, 1], [1, 4, 2], [0, 9, 1],
                                    [2, 5, 4], [3, 6, 1], [4, 7, 2]]
        assert [tuple(bond) for bond in g.bonds.tolist()] == parse_sdf_oracle(text)[0]["bonds"]

    @pytest.mark.parametrize("newline", ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                         "\u2028", "\u2029"])
    def test_every_line_break_splitlines_knows(self, newline):
        rng = np.random.default_rng(6)
        graphs = [random_graph(rng, 1, 12, 4, alphabet=("C", "H", "N")) for _ in range(5)]
        text = write_sdf(graphs, [f"m{k}" for k in range(5)])
        every = text.replace("\n", newline)
        mixed = "".join(line + (newline if k % 3 else "\n") for k, line in enumerate(text.splitlines()))
        broken = every.replace(f"m2{newline}", f"m2{newline}{newline}", 1)  # shifts record m2's counts line
        for variant in (every, mixed, broken):
            got, expected = outcome(parse_sdf, variant), outcome(parse_sdf_oracle, variant)
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert_matches_oracle(got, expected)
        assert len(parse_sdf(every)) == 5 and isinstance(outcome(parse_sdf, broken), tuple)

    def test_symbol_columns_read_as_the_line_reads_them(self):
        # a NUL in column 32 is a symbol; a line that ends before column 32
        # takes its fourth field, and one without a fourth field is malformed
        atoms = [" " * 31 + "\x00", "0.0 0.0 0.0 N 0", " " * 31 + "\x00\x00", " " * 31 + " O ", "1 2 3 Cl"]
        head = molblock(["C"] * len(atoms), [(1, 2, 1)]).splitlines()
        text = "\n".join(head[:4] + atoms + head[4 + len(atoms):]) + "\n"
        assert parse_sdf(text)[0].symbols == ("\x00", "N", "\x00\x00", "O", "Cl")
        assert_matches_oracle(parse_sdf(text), parse_sdf_oracle(text))
        short = text.replace("1 2 3 Cl", "1 2 3")
        assert outcome(parse_sdf, short) == outcome(parse_sdf_oracle, short)
        assert outcome(parse_sdf, short)[1:] == ("line 9: malformed atom line '1 2 3'", 9)

    def test_error_in_an_earlier_record_wins(self):
        # a bad bond in record one comes before a bad counts line in record two
        text = (molblock(["C", "C"], [(1, 2, 7)], title="a") + "$$$$\n"
                + molblock(["C"], []).replace("  1  0", " x1  0", 1))
        assert outcome(parse_sdf, text) == outcome(parse_sdf_oracle, text)
        assert outcome(parse_sdf, text)[2] == 7

    def test_record_ends_at_its_last_line_break(self):
        # the blank line before the separator closes the record; it is not a counts line
        text = "title\n\n\n\n$$$$\n"
        assert outcome(parse_sdf, text) == outcome(parse_sdf_oracle, text)
        assert outcome(parse_sdf, text)[1:] == ("line 3: record shorter than header + counts line", 3)


class TestRepeats:
    """The duplicate check of parse_sdf and from_bonds against a row-by-row
    comparison with every earlier row."""

    def test_random_columns_match_the_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(0, 60))
            columns = []
            for _ in range(int(rng.integers(1, 4))):
                values = rng.integers(-3, 4, size=n) * int(rng.choice([1, 7, 2**40 + 3, 2**61]))
                columns.append(values + int(rng.choice([0, -(2**40), 2**41])))
            assert molgraph._repeats(*columns).tolist() == repeats_oracle(*columns)

    def test_empty_single_and_extreme_rows(self):
        empty = np.zeros(0, dtype=np.intp)
        assert molgraph._repeats(empty, empty).tolist() == []
        assert molgraph._repeats(np.array([-(2**62)]), np.array([2**62])).tolist() == [False]
        low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        columns = [np.array([low, high, low, high, low]), np.array([high, low, high, high, low])]
        assert molgraph._repeats(*columns).tolist() == repeats_oracle(*columns) == [False, False, True, False, False]
        span = np.array([-(2**62), 2**62 - 1, -(2**62)])  # 2**63 values: one more than int64 holds
        assert molgraph._repeats(span).tolist() == [False, False, True]

    def test_a_key_past_int64_is_exact(self):
        # column ranges 2, 2**32 and 2**32: a mixed-radix key of (1, 0, 0)
        # would be 2**64, which wraps to the key of (0, 0, 0)
        columns = [np.array([0, 1, 0]), np.array([0, 0, 2**32 - 1]), np.array([0, 0, 2**32 - 1])]
        assert molgraph._repeats(*columns).tolist() == [False, False, False]

    def test_from_bonds_reports_the_first_failure_of_the_first_row(self):
        # both rows are out of range, and the second also repeats the first
        with pytest.raises(ValueError, match=r"^bond \(0, 5\) references a missing node$"):
            MolecularGraph.from_bonds(["C"] * 3, [(0, 5, 1), (5, 0, 1)], 2)
        with pytest.raises(ValueError, match=r"^bond \(4611686018427387904, -4611686018427387904\) references"):
            MolecularGraph.from_bonds(["C"] * 3, [(2**62, -(2**62), 1)] * 2, 2)
        with pytest.raises(ValueError, match=r"^duplicate bond between nodes 0 and 2$"):
            MolecularGraph.from_bonds(["C"] * 3, [(0, 2, 1), (0, 1, 1), (2, 0, 2)], 2)


class TestRingDetection:
    def test_path_has_no_rings(self):
        g = parse_molfile(molblock(["C", "C", "C"], [(1, 2, 1), (2, 3, 1)]))
        assert detect_ring_edges(g).tolist() == [False, False]

    def test_cycle_all_in_ring(self):
        assert detect_ring_edges(parse_molfile(BENZENE)).tolist() == [True] * 6

    def test_square_plus_pendant(self):
        g = parse_molfile(molblock(["C"] * 5, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (4, 5, 1)]))
        flags = detect_ring_edges(g)
        edges = [(e.i, e.j) for e in g.edges]
        expected = [edge_in_ring_oracle(5, edges, k) for k in range(len(edges))]
        assert flags.tolist() == expected
        assert sum(flags) == 4

    def test_empty_graph(self):
        g = MolecularGraph.from_bonds(["C"], [], 4)
        assert detect_ring_edges(g).size == 0

    def test_matches_remove_edge_oracle_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            g = random_graph(rng, 2, 8, 2)
            if len(g.edges) > 12:
                continue
            edges = [(e.i, e.j) for e in g.edges]
            expected = [edge_in_ring_oracle(g.n_nodes, edges, k) for k in range(len(edges))]
            assert detect_ring_edges(g).tolist() == expected


class TestFeaturize:
    def test_lone_carbon_row(self):
        g = featurize(parse_molfile(molblock(["C"], [])), vocab=("C", "N", "O"))
        expected = [1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0]
        assert atom_one_hot([g]).tolist() == [expected]

    def test_ethane_degree_slot_and_edge_features(self):
        g = featurize(parse_molfile(molblock(["C", "C"], [(1, 2, 1)])), vocab=("C", "N", "O"))
        for row in atom_one_hot([g]):
            assert row[4:9].tolist() == [0, 1, 0, 0, 0]  # degree 1
        assert link_features_oracle(g).tolist() == [[1, 0, 0, 0, 0]]

    def test_benzene_edges_aromatic_and_in_ring(self):
        g = featurize(parse_molfile(BENZENE))
        assert g.ring.tolist() == [True] * 6
        assert link_features_oracle(g).tolist() == [[0, 0, 0, 1, 1]] * 6

    def test_degree_clamp(self):
        star7 = molblock(["C"] * 8, [(1, k, 1) for k in range(2, 9)])
        star4 = molblock(["C"] * 5, [(1, k, 1) for k in range(2, 6)])
        row7 = atom_one_hot([featurize(parse_molfile(star7))])[0]
        row4 = atom_one_hot([featurize(parse_molfile(star4))])[0]
        vocab_width = 11  # 10 defaults + OTHER
        assert row7[vocab_width : vocab_width + 5].tolist() == row4[vocab_width : vocab_width + 5].tolist()

    def test_unknown_element_goes_to_other_slot(self):
        g = featurize(parse_molfile(molblock(["Zz"], [])), vocab=("C", "N"))
        assert atom_one_hot([g])[0][:3].tolist() == [0, 0, 1]
        assert g.element_slots.tolist() == [2]

    def test_parse_featurize_deterministic_bytes(self):
        a = featurize(parse_molfile(BENZENE))
        b = featurize(parse_molfile(BENZENE))
        assert a.element_slots.tobytes() == b.element_slots.tobytes() and a.slot_width == b.slot_width
        assert atom_one_hot([a]).tobytes() == atom_one_hot([b]).tobytes()

    def test_neighbor_degree_bookkeeping(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_graph(rng, 2, 10, 3)
            neighbors = neighbor_lists(g)
            total = sum(len(nbrs) for nbrs in neighbor_union(g))
            assert total == 2 * len(g.edges)
            for i in range(g.n_nodes):
                per_relation = [set(neighbors[r][i]) for r in range(g.n_relations)]
                union = set().union(*per_relation) if per_relation else set()
                assert sum(len(s) for s in per_relation) == len(union)  # disjoint across relations
                assert len(union) == g.nodes[i].degree


class TestFeaturizeAll:
    """One lookup pass over a run of graphs equals featurize graph by graph,
    bit for bit."""

    @staticmethod
    def expected_slots(graph, vocab):
        # a symbol's last slot in vocab, else the OTHER slot
        return [max((k for k, symbol in enumerate(vocab) if symbol == atom), default=len(vocab))
                for atom in graph.symbols]

    @pytest.mark.parametrize("vocab", [DEFAULT_VOCAB, ("C", "N", "C", "H"), ("Zz",), ()])
    def test_equals_featurize_graph_by_graph(self, vocab):
        rng = np.random.default_rng(13)
        graphs = [random_graph(rng, 1, 12, 4, alphabet=("C", "H", "N", "Zz", "Cl")) for _ in range(30)]
        graphs.insert(7, MolecularGraph.from_bonds([], [], 4, title="empty"))
        graphs.append(MolecularGraph.from_bonds([], [], 4))
        together = featurize_all(graphs, vocab)
        assert len(together) == len(graphs)
        for graph, one_pass in zip(graphs, together):
            alone = featurize(graph, vocab)
            for g in (alone, one_pass):
                assert g.element_slots.dtype == np.intp and g.slot_width == len(vocab) + 1
                assert g.element_slots.tolist() == self.expected_slots(graph, vocab)
                assert g.symbols == graph.symbols and g.title == graph.title and g.n_relations == 4
                for name in ("bonds", "degree", "h_count"):
                    assert getattr(g, name) is getattr(graph, name)
            assert one_pass.element_slots.tobytes() == alone.element_slots.tobytes()
            np.testing.assert_array_equal(atom_one_hot([one_pass]), atom_one_hot([alone]))
            assert one_pass.ring.tolist() == alone.ring.tolist()

    def test_unknown_symbols_and_an_empty_run(self):
        graph = MolecularGraph.from_bonds(["Zz", "C", "Qq"], [(0, 1, 1)], 4)
        assert featurize_all([graph], ("C", "N"))[0].element_slots.tolist() == [2, 0, 2]
        assert featurize_all([], ("C", "N")) == []

    def test_the_parsed_library_matches_the_oracle(self):
        rng = np.random.default_rng(17)
        graphs = [random_graph(rng, 1, 30, 4, alphabet=("C", "H", "N", "Zz", "Cl")) for _ in range(40)]
        text = write_sdf(graphs, [f"m{k}" for k in range(len(graphs))])
        vocab = ("C", "N", "O", "H")
        for record, g in zip(parse_sdf_oracle(text), featurize_all(parse_sdf(text), vocab)):
            np.testing.assert_array_equal(atom_one_hot([g]), featurize_oracle(record, vocab)[0])


class TestLabelsCsv:
    def test_reads_rows(self):
        rows = read_labels_csv("id,task,label\n0,aids,1\n1,aids,0\n")
        assert rows == [("0", "aids", 1), ("1", "aids", 0)]

    def test_rejects_bad_header(self):
        with pytest.raises(DatasetError, match="header"):
            read_labels_csv("molecule,task,label\n")

    def test_rejects_bad_label(self):
        with pytest.raises(DatasetError, match="label"):
            read_labels_csv("id,task,label\n0,aids,2\n")


class TestSyntheticSpec:
    def test_parse_roundtrip(self):
        spec = parse_synthetic_spec(
            "nodes_min=8\nnodes_max=16\nrelations=3\nmotif=triangle:2\nbalance=0.5\ncount=100\n"
        )
        assert spec == SyntheticSpec(8, 16, 3, "triangle:2", 0.5, 100)

    def test_comments_and_blanks_ignored(self):
        spec = parse_synthetic_spec(
            "# demo\n\nnodes_min=4\nnodes_max=6\nrelations=1\nmotif=triangle:1\nbalance=0.4\ncount=10\n"
        )
        assert spec.count == 10

    def test_missing_key(self):
        with pytest.raises(SyntheticSpecError, match="missing"):
            parse_synthetic_spec("nodes_min=4\n")

    def test_unknown_key(self):
        with pytest.raises(SyntheticSpecError, match="unknown"):
            parse_synthetic_spec(
                "nodes_min=4\nnodes_max=6\nrelations=1\nmotif=triangle:1\nbalance=0.5\ncount=10\nfoo=1\n"
            )

    def test_motif_larger_than_max_nodes_infeasible(self):
        with pytest.raises(SyntheticSpecError, match="nodes_max"):
            parse_synthetic_spec(
                "nodes_min=2\nnodes_max=2\nrelations=1\nmotif=triangle:1\nbalance=0.5\ncount=10\n"
            )

    def test_motif_relation_outside_range(self):
        with pytest.raises(SyntheticSpecError, match="relation"):
            parse_synthetic_spec(
                "nodes_min=4\nnodes_max=6\nrelations=2\nmotif=triangle:3\nbalance=0.5\ncount=10\n"
            )


class TestGenerateSynthetic:
    SPEC = SyntheticSpec(nodes_min=6, nodes_max=10, relations=3, motif="triangle:2", balance=0.5, count=60)

    def test_deterministic_byte_identical(self):
        a = generate_synthetic(self.SPEC, seed=11)
        b = generate_synthetic(self.SPEC, seed=11)
        assert write_sdf([e.graph for e in a]) == write_sdf([e.graph for e in b])
        assert [e.label for e in a] == [e.label for e in b]

    def test_different_seeds_differ(self):
        a = generate_synthetic(self.SPEC, seed=11)
        b = generate_synthetic(self.SPEC, seed=12)
        assert write_sdf([e.graph for e in a]) != write_sdf([e.graph for e in b])

    def test_exact_positive_count(self):
        examples = generate_synthetic(
            SyntheticSpec(nodes_min=6, nodes_max=10, relations=2, motif="triangle:1", balance=0.5, count=100),
            seed=3,
        )
        assert sum(e.label for e in examples) == 50

    def test_labels_match_subgraph_enumeration_oracle(self):
        for ex in generate_synthetic(self.SPEC, seed=21):
            assert find_motif_oracle(ex.graph, "triangle", 2) == bool(ex.label)

    def test_square_and_star_motifs_against_oracle(self):
        for shape in ("square", "star3"):
            spec = SyntheticSpec(nodes_min=5, nodes_max=9, relations=2, motif=f"{shape}:1",
                                 balance=0.5, count=30)
            for ex in generate_synthetic(spec, seed=8):
                assert find_motif_oracle(ex.graph, shape, 1) == bool(ex.label)

    def test_contains_motif_agrees_with_oracle_on_random_graphs(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            g = random_graph(rng, 3, 9, 3)
            for shape in ("triangle", "square", "star3"):
                for relation in (1, 2, 3):
                    assert contains_motif(g, shape, relation) == find_motif_oracle(g, shape, relation)


class TestBenchmarkContract:
    """The molecule API the benchmark harness (perfbench/workloads.py) and
    gradcheck read: it must keep working as the graph's storage changes."""

    def test_from_bonds_and_views(self):
        g = MolecularGraph.from_bonds(["C", "N", "O", "H"], [(1, 0, 1), (1, 2, 1), (2, 0, 1), (3, 1, 2)], 3,
                                      title="mol7")
        assert g.title == "mol7" and g.n_nodes == 4 and g.n_relations == 3
        assert [(node.symbol, node.degree, node.h_neighbors) for node in g.nodes] == [
            ("C", 2, 0), ("N", 3, 1), ("O", 2, 0), ("H", 1, 0)]
        # bond order kept, each bond stored with i < j
        assert [(e.i, e.j, e.relation) for e in g.edges] == [(0, 1, 1), (1, 2, 1), (0, 2, 1), (1, 3, 2)]
        with pytest.raises(AttributeError):
            g.nodes[0].symbol = "S"
        with pytest.raises(AttributeError):
            g.edges[0].relation = 2
        assert contains_motif(g, "triangle", 1) and not contains_motif(g, "triangle", 2)
        assert not contains_motif(g, "star3", 1)
        # the harness rebuilds graphs from the views
        again = MolecularGraph.from_bonds([node.symbol for node in g.nodes],
                                          [(e.i, e.j, e.relation) for e in g.edges], g.n_relations)
        assert again.edges == g.edges and again.nodes == g.nodes

    def test_from_bonds_rejects_bad_bonds(self):
        for bonds, message in (([(0, 5, 1)], r"bond \(0, 5\) references a missing node"),
                               ([(1, 1, 1)], "self-bond on node 1"),
                               ([(0, 1, 3)], r"relation 3 outside 1\.\.2"),
                               ([(0, 1, 1), (1, 0, 2)], "duplicate bond between nodes 0 and 1")):
            with pytest.raises(ValueError, match=message):
                MolecularGraph.from_bonds(["C", "C", "C"], bonds, 2)

    def test_traced_functions_keep_their_names_and_signatures(self):
        # the harness calls featurize once per graph, and its tracer wraps
        # parse_sdf and featurize by name
        assert molgraph.featurize.__name__ == "featurize" and molgraph.parse_sdf.__name__ == "parse_sdf"
        featurize_params = inspect.signature(molgraph.featurize).parameters
        assert list(featurize_params) == ["graph", "vocab"]
        assert featurize_params["vocab"].default == DEFAULT_VOCAB
        assert list(inspect.signature(molgraph.parse_sdf).parameters) == ["text"]

    def test_sdf_round_trip_and_fingerprint(self):
        spec = SyntheticSpec(nodes_min=20, nodes_max=40, relations=4, motif="triangle:2", balance=0.5, count=6)
        graphs = [ex.graph for ex in generate_synthetic(spec, seed=4)]
        library = [MolecularGraph.from_bonds([{"A": "C", "B": "N", "D": "O", "E": "S"}[node.symbol]
                                              for node in g.nodes],
                                             [(e.i, e.j, e.relation) for e in g.edges], 4, title=f"mol{k}")
                   for k, g in enumerate(graphs)]
        parsed = parse_sdf(write_sdf(library))
        assert [g.title for g in parsed] == [f"mol{k}" for k in range(6)]
        for g, back in zip(library, parsed):
            assert back.nodes == g.nodes and back.edges == g.edges
        featurized = featurize(parsed[0])
        fp = circular_fingerprint(featurized)
        np.testing.assert_array_equal(fp, fold_oracle(atom_identifiers_oracle(featurized, 2), 1024))
