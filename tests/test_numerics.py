"""Tensor ops, the tape, and the finite-difference oracle."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from _oracles import edge_sum, gated_update_oracle, keyed_link_sum, stable_sigmoid_oracle, wide_link

from graphmem import numerics as nm
from graphmem.numerics import (
    DimensionError,
    Tensor,
    binary_cross_entropy,
    constant,
    dropout,
    finite_difference_gradient,
    linear_sum,
    parameter,
    segment_softmax,
)


def tape(out: Tensor) -> set[int]:
    """The ids of the tensors reachable from ``out`` through parent links."""
    seen = {id(out)}
    stack = [out]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return seen


def square(w: Tensor) -> Tensor:
    """w * w for a (1, 1) tensor, as one linear_sum node."""
    return linear_sum([(w, w)])


class TestActivations:
    def test_relu(self):
        out = linear_sum([(constant([[-1.0, 2.0]]), constant(np.eye(2)))], activation="relu")
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_sigmoid_zero(self):
        out = linear_sum([(constant([[0.0]]), constant([[1.0]]))], activation="sigmoid")
        assert out.data[0, 0] == 0.5

    def test_sigmoid_saturates_cleanly(self):
        w = parameter([[1.0]])
        out = linear_sum([(constant([[1000.0], [-1000.0]]), w)], activation="sigmoid")
        np.testing.assert_array_equal(out.data, [[1.0], [0.0]])
        out.backward()
        np.testing.assert_array_equal(w.grad, [[0.0]])
        # the gated update's gate: fully open keeps the proposal relu(2) = 2,
        # fully closed keeps the old value 3, both exactly
        for gate_bias, expected in ((1000.0, 2.0), (-1000.0, 3.0)):
            weight = parameter([[1.0], [0.0]])  # the proposal's row over the gate's
            out = nm.gated_update([(constant([[2.0]]), weight)], constant([0.0, gate_bias]),
                                  constant([[3.0]]))
            np.testing.assert_array_equal(out.data, [[expected]])
            out.backward()
            np.testing.assert_array_equal(weight.grad[1], [0.0])

    def test_sigmoid_equals_the_two_branch_formula_bit_for_bit(self):
        rng = np.random.default_rng(0)
        draws = [rng.normal(0.0, scale, 100_000) for scale in (1.0, 10.0, 100.0, 1000.0)]
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 1e308, -1e308, 1e-320, -1e-320])
        d = np.concatenate(draws + [edges])
        assert np.array_equal(nm._stable_sigmoid(d), stable_sigmoid_oracle(d))
        assert np.array_equal(np.signbit(nm._stable_sigmoid(d)), np.signbit(stable_sigmoid_oracle(d)))

    def test_affine_identity(self):
        out = linear_sum([(constant([[3.0, 4.0]]), constant(np.eye(2)))], bias=constant(np.zeros(2)))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_affine_shape_error_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(1, 3\).*\(2, 2\)"):
            linear_sum([(constant([[1.0, 2.0, 3.0]]), constant(np.eye(2)))])
        with pytest.raises(DimensionError, match=r"\(3, 2\).*\(2,\)"):  # terms of 3 and 2 rows
            linear_sum([(constant(np.ones((3, 2))), constant(np.eye(2))),
                        (constant(np.ones((1, 2))), constant(np.eye(2)), nm.Gather([0, 0], 1))])


class TestSoftmax:
    """segment_softmax with one segment and with several."""

    def test_symmetry(self):
        np.testing.assert_array_equal(segment_softmax(constant([0.0, 0.0]), [0, 0], 1).data, [0.5, 0.5])
        out = segment_softmax(constant([0.0, 5.0, 0.0, 5.0]), [0, 1, 0, 1], 2)
        np.testing.assert_array_equal(out.data, [0.5, 0.5, 0.5, 0.5])

    def test_shift_invariance_no_overflow(self):
        out = segment_softmax(constant([1000.0, 1000.0]), [0, 0], 1)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)
        out = segment_softmax(constant([1000.0, -1000.0, 1000.0, -1000.0]), [0, 1, 0, 1], 2)
        np.testing.assert_allclose(out.data, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_closed_form(self):
        out = segment_softmax(constant([math.log(1.0), math.log(3.0)]), [0, 0], 1)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)
        # segment 1 holds [log 3, log 1] in the other order, segment 0 one entry
        out = segment_softmax(constant([math.log(3.0), 7.0, math.log(1.0)]), [1, 0, 1], 2)
        np.testing.assert_allclose(out.data, [0.75, 1.0, 0.25], atol=1e-15)

    def test_sums_to_one_within_1e12(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 1025))
            scores = rng.uniform(-700.0, 700.0, size=n)
            total = segment_softmax(constant(scores), np.zeros(n, dtype=int), 1).data.sum()
            assert abs(total - 1.0) <= 1e-12
            n_segments = int(rng.integers(1, 33))
            segments = rng.integers(0, n_segments, size=n)
            sums = np.bincount(segments, weights=segment_softmax(constant(scores), segments, n_segments).data,
                               minlength=n_segments)
            present = np.bincount(segments, minlength=n_segments) > 0
            assert np.all(np.abs(sums[present] - 1.0) <= 1e-12)
            assert not sums[~present].any()


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = constant([1.0, 2.0])
        assert dropout(x, 0.0, [np.random.default_rng(0)], training=True, bounds=[0, 2]) is x

    def test_inference_is_identity(self):
        x = constant([1.0, 2.0])
        assert dropout(x, 0.5, [np.random.default_rng(0)], training=False, bounds=[0, 2]) is x

    def test_zero_fraction_concentrates(self):
        x = constant(np.ones(10_000))
        out = dropout(x, 0.5, [np.random.default_rng(123)], training=True, bounds=[0, 10_000])
        zero_fraction = float((out.data == 0.0).mean())
        assert abs(zero_fraction - 0.5) < 0.02
        # survivors are rescaled by 1/(1-rate)
        assert np.all(out.data[out.data != 0.0] == 2.0)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout(constant([1.0]), 1.0, [np.random.default_rng(0)], training=True, bounds=[0, 1])

    def test_is_one_tape_node(self):
        x = parameter(np.ones((3, 2)))
        out = dropout(x, 0.5, [np.random.default_rng(0)], training=True, bounds=[0, 3])
        assert out._parents == (x,) and tape(out) == {id(out), id(x)}

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        arrays = {"x": rng.normal(size=(4, 3))}
        weight = rng.normal(size=(4, 3))

        def dropped(x: Tensor) -> Tensor:
            # rows 0 and 1-3 draw their masks from two fresh generators
            rngs = [np.random.default_rng(k) for k in (1, 2)]
            return dropout(x, 0.4, rngs, training=True, bounds=np.array([0, 1, 4]))

        x = parameter(arrays["x"])
        out = dropped(x)
        assert (out.data == 0.0).any()
        out.backward(seed=weight)

        def value() -> float:
            return float((weight * dropped(constant(arrays["x"])).data).sum())

        estimate = finite_difference_gradient(value, arrays, eps=1e-6)
        worst, name = nm.max_relative_error({"x": x.grad}, estimate)
        assert worst <= 1e-6, f"worst {worst} at {name}"


class TestCrossEntropyNode:
    def test_matches_finite_differences_with_zero_gradient_past_the_clip(self):
        # rows 0-3 lie inside [1e-12, 1 - 1e-12]; rows 4-7 lie past it, where
        # the loss is flat and the gradient is exactly zero
        arrays = {"p": np.array([[0.3], [0.9], [0.05], [0.6], [-0.2], [1.4], [-1e-3], [1.0 + 1e-3]])}
        labels = np.array([[1.0], [0.0], [0.0], [1.0], [1.0], [0.0], [1.0], [0.0]])
        weight = np.random.default_rng(8).normal(size=(8, 1))
        p = parameter(arrays["p"])
        loss = binary_cross_entropy(p, labels)
        np.testing.assert_allclose(loss.data[:4, 0], -np.log([0.3, 0.1, 0.95, 0.6]), rtol=0, atol=1e-15)
        assert np.all(np.isfinite(loss.data))
        loss.backward(seed=weight)
        np.testing.assert_array_equal(p.grad[4:], np.zeros((4, 1)))

        def value() -> float:
            return float((weight * binary_cross_entropy(constant(arrays["p"]), labels).data).sum())

        estimate = finite_difference_gradient(value, arrays, eps=1e-6)
        worst, name = nm.max_relative_error({"p": p.grad}, estimate)
        assert worst <= 1e-6, f"worst {worst} at {name}"

    def test_shape_error(self):
        with pytest.raises(DimensionError):
            binary_cross_entropy(constant([[0.5], [0.5]]), np.ones(2))


class TestTapeGradients:
    def test_square_gradient(self):
        w = parameter([[3.0]])
        square(w).backward()
        np.testing.assert_allclose(w.grad, [[6.0]])

    def test_untouched_parameter_has_no_gradient(self):
        w = parameter([[3.0]])
        other = parameter([[1.0]])
        square(w).backward()
        assert other.grad is None

    def test_shared_subexpression_accumulates(self):
        w = parameter([[2.0]])
        one = constant([[1.0]])
        # w feeds two nodes: y = w*w + w*3, dy/dw = 2w + 3 = 7
        y = linear_sum([(square(w), one), (linear_sum([(w, constant([[3.0]]))]), one)])
        y.backward()
        np.testing.assert_allclose(w.grad, [[7.0]])

    def test_aliasing_safe_for_passthrough_grads(self):
        # s = a + b feeds two consumers; accumulation must not corrupt either
        a = parameter([[1.0, 2.0]])
        b = parameter([[3.0, 4.0]])
        eye, ones = constant(np.eye(2)), constant(np.ones((1, 2)))
        s = linear_sum([(a, eye), (b, eye)])
        loss = linear_sum([(linear_sum([(s, constant(2.0 * np.eye(2)))]), ones),
                           (linear_sum([(s, constant(3.0 * np.eye(2)))]), ones)])
        loss.backward()
        np.testing.assert_allclose(a.grad, [[5.0, 5.0]])
        np.testing.assert_allclose(b.grad, [[5.0, 5.0]])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_composite_matches_finite_differences(self, seed):
        # exercises linear_sum (plain, row-gathered, activated, projected),
        # segment softmax, the gated update (plain, row-gathered, edge-summed
        # and keyed edge-summed terms; shared and per-row bias),
        # dropout and the cross-entropy node in one
        # recorded expression with several outputs. Each output is weighted
        # by a fixed random array R_k: the exact gradient of sum_k <R_k, out_k>
        # is the sum of the backward passes seeded with R_k, one per output
        # on a freshly built tape.
        rng = np.random.default_rng(seed)
        arrays = {
            "w": rng.normal(size=(4, 3)),
            "u": rng.normal(size=(1, 4)),
            "v": rng.normal(size=4),
            "b": rng.normal(size=4),
            "m": rng.normal(size=(5, 3)),
            "s": rng.normal(size=(4, 4)),
            "t": rng.normal(size=(8, 8)),
            "q": rng.normal(size=(4, 4)),
            "h": rng.normal(size=(8, 4)),
            "c": rng.normal(size=(3, 8)),
            "k": rng.normal(size=(8, 4)),
            "e": rng.normal(size=8),
        }
        x = rng.normal(size=(2, 3))

        def build():
            leaves = {name: Tensor(arrays[name], True) for name in arrays}
            w, u, v, b, m, s, t, q, h, c, k, e = (leaves[name] for name in "wuvbmstqhcke")
            hidden = linear_sum([(constant(x), w)], bias=b, activation="tanh")  # (2, 4)
            table = linear_sum([(m, w)], bias=b)  # (5, 4)
            # cells 0-2 belong to graph 0 and cells 3-4 to graph 1
            cells = [0, 0, 0, 1, 1]
            scores = linear_sum([(table, s), (hidden, q, nm.Gather(cells, 2))], activation="tanh", project=v)  # (5,)
            attn = segment_softmax(scores, cells, 2)  # (5,)
            # each cell's attention-weighted row summed into its graph's row
            read = edge_sum(table, attn, np.arange(5), cells, 2, 1)  # (2, 4)
            controlled = nm.gated_update([(hidden, k), (read, h)], e, hidden)  # (2, 4)
            # rows 0, 2, 2 of m @ w.T plus rows 4, 4, 1 of table @ s.T
            picked = linear_sum([(m, w, nm.Gather([0, 2, 2], 5)), (table, s, nm.Gather([4, 4, 1], 5))], bias=b,
                                activation="tanh")  # (3, 4)
            # segment 0 has two members, segment 1 none, segment 2 one (weight 1)
            segments = [0, 0, 2]
            weights = segment_softmax(linear_sum([(picked, s)], project=v), segments, 3)  # (3,)
            assert weights.data[2] == 1.0
            gathered = edge_sum(table, weights, [1, 3, 1], segments, 3, 1)  # (3, 4), row 1 zero
            assert not gathered.data[1].any()
            proposal = linear_sum([(picked, s)], activation="relu")  # (3, 4)
            opened = nm.gated_update([(gathered, h)], c, proposal)  # (3, 4)
            # (3, 8): the same weighted sums keyed into two column groups, edges
            # 0 and 2 into group 0 of rows 0 and 2, edge 1 into group 1 of row 0;
            # the weights are tracked, and row 1 has no in-edges
            context = edge_sum(table, weights, [1, 3, 1], [0, 1, 4], 3, 2)
            assert not context.data[1].any() and not context.data[2, 4:].any()
            # weights stacked [proposal; gate]: a plain term, rows 4, 0, 4 of
            # table @ k.T, the edge-summed context and one tracked bias row per
            # output row
            updated = nm.gated_update([(opened, h), (table, k, nm.Gather([4, 0, 4], 5)), (context, t)],
                                      c, proposal)  # (3, 4)
            # one (8,) bias row for every output row
            again = nm.gated_update([(updated, h)], e, updated)
            dropped = dropout(again, 0.5, [np.random.default_rng(seed)], training=True, bounds=[0, 3])  # (3, 4)
            # one score per row, the activated rows recomputed in backward
            scored = linear_sum([(m, w, nm.Gather([4, 0], 5))], bias=b, activation="tanh", project=v)  # (2,)
            prob = linear_sum([(controlled, u)], activation="sigmoid")  # (2, 1)
            loss = binary_cross_entropy(prob, np.array([[1.0], [0.0]]))  # (2, 1)
            return [attn, controlled, proposal, opened, dropped, scored, loss], leaves

        outputs, _ = build()
        seeds = [rng.normal(size=out.shape) for out in outputs]
        exact = {name: np.zeros_like(array) for name, array in arrays.items()}
        for k, seed_k in enumerate(seeds):
            outputs, leaves = build()
            outputs[k].backward(seed=seed_k)
            for name, leaf in leaves.items():
                if leaf.grad is not None:
                    exact[name] += leaf.grad

        def value() -> float:
            return float(sum((seed_k * out.data).sum() for seed_k, out in zip(seeds, build()[0])))

        estimate = finite_difference_gradient(value, arrays, eps=1e-6)
        worst, name = nm.max_relative_error(exact, estimate)
        assert worst <= 1e-6, f"worst {worst} at {name}"

    def test_backward_seed_scales(self):
        w = parameter([[3.0]])
        square(w).backward(seed=0.5)
        np.testing.assert_allclose(w.grad, [[3.0]])


class TestGatedUpdate:
    @staticmethod
    def inputs(seed):
        rng = np.random.default_rng(seed)
        # 4 output rows of width 3; edges 0->1, 2->1, 3->0, 1->3 keyed into
        # two column groups: 0->1 and 2->1 into group 1 of row 1 (a repeated
        # key), 3->0 into group 0 of row 0, 1->3 into group 1 of row 3; row 2
        # has no in-edges
        return {
            "old": rng.normal(size=(4, 3)),
            "x": rng.normal(size=(4, 5)),
            "groups": rng.normal(size=(2, 2)),
            "rows": np.array([0, 1, 1, 0]),
            "cells": rng.normal(size=(4, 2)),
            "weights": rng.uniform(0.1, 1.0, size=4),
            "src": np.array([0, 2, 3, 1]),
            "keys": np.array([3, 3, 0, 7]),
            "weight": [rng.normal(size=shape) for shape in [(6, 5), (6, 2), (6, 4)]],
            "bias": rng.normal(size=6),
            "bias_rows": rng.normal(size=(4, 6)),
        }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_oracle(self, seed):
        a = self.inputs(seed)
        w = a["weight"]
        terms = [("plain", a["x"], w[0]), ("rows", a["groups"], w[1], a["rows"]),
                 ("edges", a["cells"], a["weights"], a["src"], a["keys"], 2, w[2])]
        params = [parameter(x) for x in w]
        for bias in (a["bias"], a["bias_rows"]):
            expected = gated_update_oracle(terms, bias, a["old"])
            context = edge_sum(parameter(a["cells"]), parameter(a["weights"]), a["src"], a["keys"], 4, 2)
            out = nm.gated_update(
                [(parameter(a["x"]), params[0]), (parameter(a["groups"]), params[1], nm.Gather(a["rows"], 2)),
                 (context, params[2])],
                parameter(bias), parameter(a["old"]))
            assert not context.data[2].any()  # no in-edges: zero sums
            np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linear_sum_edge_sum_term_matches_finite_differences(self, seed):
        # an edge_sum term beside a plain one, its summed cells and edge
        # weights tracked, in a projected and in an activated linear_sum
        a = self.inputs(seed)
        rng = np.random.default_rng(seed + 100)
        arrays = {"x": a["x"], "cells": a["cells"], "weights": a["weights"], "w": rng.normal(size=(3, 5)),
                  "e": rng.normal(size=(3, 4)), "b": rng.normal(size=3), "v": rng.normal(size=3)}
        seeds = [rng.normal(size=4), rng.normal(size=(4, 3))]

        def build(edge_sum_term=True):
            leaves = {name: Tensor(arrays[name], True) for name in arrays}
            x, cells, weights, w, e, b, v = leaves.values()
            context = edge_sum(cells, weights, a["src"], a["keys"], 4, 2)  # (4, 4)
            term = (context, e) if edge_sum_term else (constant(context.data), e)
            outputs = [linear_sum([(x, w), term], bias=b, activation="tanh", project=v),
                       linear_sum([term, (x, w)], bias=b, activation="sigmoid")]
            return outputs, leaves

        for got, wanted in zip(build()[0], build(edge_sum_term=False)[0]):
            assert np.array_equal(got.data, wanted.data)
        exact = {name: np.zeros_like(array) for name, array in arrays.items()}
        for k, seed_k in enumerate(seeds):
            outputs, leaves = build()
            outputs[k].backward(seed=seed_k)
            for name, leaf in leaves.items():
                if leaf.grad is not None:
                    exact[name] += leaf.grad
        assert exact["cells"].any() and exact["weights"].any()

        def value() -> float:
            return float(sum((seed_k * out.data).sum() for seed_k, out in zip(seeds, build()[0])))

        estimate = finite_difference_gradient(value, arrays, eps=1e-6)
        worst, name = nm.max_relative_error(exact, estimate)
        assert worst <= 1e-6, f"worst {worst} at {name}"

    def test_shape_errors(self):
        a = self.inputs(0)
        w = [parameter(x) for x in a["weight"]]
        bias = parameter(a["bias"])
        with pytest.raises(DimensionError):  # weights do not match the input width
            nm.gated_update([(constant(a["x"]), w[1])], bias, constant(a["old"]))
        with pytest.raises(DimensionError):  # rows do not cover the output rows
            nm.gated_update([(constant(a["groups"]), w[1], nm.Gather([0, 1], 2))], bias, constant(a["old"]))
        with pytest.raises(DimensionError):  # a term with fewer rows than the output
            nm.gated_update([(constant(a["groups"]), w[1])], bias, constant(a["old"]))
        with pytest.raises(DimensionError):  # weights not stacked [proposal; gate]
            nm.gated_update([(constant(a["x"]), parameter(a["weight"][0][:3]))], bias, constant(a["old"]))
        with pytest.raises(DimensionError):  # bias rows for another row count
            nm.gated_update([(constant(a["x"]), w[0])], parameter(a["bias_rows"][:2]), constant(a["old"]))


class TestLinkSum:
    # two graphs, rows 0-2 and 3-4, two relations and links of width 3; edge e
    # runs src[e] -> dst[e] under relation rel[e], key 0 holds two edges, and
    # edges 1, 4 and 6 lie on no ring
    SRC = np.array([1, 2, 0, 2, 0, 4, 3, 3])
    DST = np.array([0, 0, 1, 1, 2, 3, 4, 4])
    REL = np.array([0, 0, 1, 0, 0, 1, 1, 0])
    RING = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def slots(self, n_relations=2):
        return nm.Slots([0, 3, 5], self.SRC, self.DST * n_relations + self.REL, n_relations)

    def arrays(self, seed):
        rng = np.random.default_rng(seed)
        return {"weights": rng.uniform(0.1, 1.0, size=8), "w": rng.normal(size=(4, 4)), "b": rng.normal(size=4),
                "v": rng.normal(size=4)}

    def link_sum(self, weights, ring):
        return nm.link_sum(weights, ring, self.slots())

    def test_values_equal_the_keyed_link_rows_oracle(self):
        # every edge's link row weighted and summed key by key, under the
        # uniform weights and under softmax weights, at the live columns of
        # the wide rows; the sums of the softmax weights per key are not all
        # exactly one, but the placed indicator columns are exactly 1.0 and 0.0
        slots = self.slots()
        keys = slots.keys
        pack = SimpleNamespace(slots=slots, ring=self.RING, n_nodes=5)
        has = np.zeros(10)
        has[keys] = 1.0
        uniform = 1.0 / np.bincount(keys, minlength=10)[keys]
        learned = [segment_softmax(Tensor(np.random.default_rng(seed).normal(size=8)), keys, 10).data
                   for seed in range(4)]
        assert any(np.bincount(keys, weights=w, minlength=10)[0] != 1.0 for w in learned)
        for weights in [uniform] + learned:
            summed = self.link_sum(Tensor(weights), self.RING).data
            np.testing.assert_allclose(wide_link(summed, 2), keyed_link_sum(pack, Tensor(weights), 3).data,
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(summed[:, :2].ravel(), has)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unflagged_edges_get_no_weight_gradient(self, seed):
        # the ring column of each relation is the keyed sum of the
        # ring-flagged weights; with a linear term the edges off every ring
        # get zero weight gradient and the others exactly that of the sum
        # with every flag one
        a = self.arrays(seed)
        grad_seed = np.random.default_rng(seed + 50).normal(size=(5, 4))
        ones_last = np.zeros((5, 3))
        ones_last[:, -1] = 1.0
        grads = []
        for ring in (self.RING, np.ones(8)):
            weights, w = Tensor(a["weights"], True), Tensor(a["w"], True)
            summed = self.link_sum(weights, ring)
            keyed = edge_sum(constant(ones_last), constant(ring * a["weights"]), self.SRC, self.DST * 2 + self.REL,
                             5, 2)
            np.testing.assert_allclose(summed.data[:, 2:], keyed.data[:, 2::3], rtol=0, atol=1e-15)
            linear_sum([(summed, w)]).backward(seed=grad_seed)
            grads.append(weights.grad)
        flagged, all_flagged = grads
        assert all_flagged[self.RING == 0.0].all()
        np.testing.assert_array_equal(flagged[self.RING == 0.0], 0.0)
        np.testing.assert_array_equal(flagged[self.RING == 1.0], all_flagged[self.RING == 1.0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_link_sum_matches_finite_differences(self, seed):
        a = self.arrays(seed)
        grad_seed = np.random.default_rng(seed + 60).normal(size=5)

        def build():
            leaves = {name: Tensor(array, True) for name, array in a.items()}
            summed = self.link_sum(leaves["weights"], self.RING)
            out = linear_sum([(summed, leaves["w"])], bias=leaves["b"], activation="tanh", project=leaves["v"])
            return out, leaves

        out, leaves = build()
        out.backward(seed=grad_seed)
        exact = {name: leaf.grad for name, leaf in leaves.items()}
        np.testing.assert_array_equal(exact["weights"][self.RING == 0.0], 0.0)
        estimate = finite_difference_gradient(lambda: float(grad_seed @ build()[0].data), a, eps=1e-6)
        worst, name = nm.max_relative_error(exact, estimate)
        assert worst <= 1e-6, f"worst {worst} at {name}"

    def test_link_sum_checks_its_shapes(self):
        weights = Tensor(np.ones(8))
        with pytest.raises(DimensionError):  # one weight per edge
            self.link_sum(Tensor(np.ones(9)), self.RING)
        with pytest.raises(DimensionError):  # one ring flag per edge
            self.link_sum(weights, np.ones(9))
        assert self.link_sum(weights, self.RING).shape == (5, 4)

    def test_more_relations_than_one_hot_columns(self):
        # a model of three relations on graphs of two: each used relation's
        # indicator and ring columns are those of the two-relation sum, and
        # the third relation's, which no edge uses, are zero
        weights = Tensor(np.random.default_rng(3).uniform(0.1, 1.0, size=8))
        two = self.link_sum(weights, self.RING).data.reshape(5, 2, 2)
        three = nm.link_sum(weights, self.RING, self.slots(3)).data.reshape(5, 2, 3)
        np.testing.assert_array_equal(three[:, :, :2], two)
        np.testing.assert_array_equal(three[:, :, 2], 0.0)

    def test_no_relations_no_keys(self):
        # a model without relations has no edges and no keys: an empty
        # (N, 0) sum, computed without a warning
        slots = nm.Slots([0, 3, 5], [], [], 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summed = nm.link_sum(parameter(np.zeros(0)), np.zeros(0), slots)
        assert summed.shape == (5, 0)


class TestFiniteDifferenceOracle:
    def test_quadratic(self):
        arrays = {"w": np.array([3.0])}
        grads = finite_difference_gradient(lambda: float(arrays["w"][0] ** 2), arrays, eps=1e-5)
        assert abs(grads["w"][0] - 6.0) <= 1e-8

    def test_constant_function(self):
        arrays = {"w": np.array([1.0, -2.0])}
        grads = finite_difference_gradient(lambda: 7.5, arrays, eps=1e-5)
        assert np.all(np.abs(grads["w"]) <= 1e-9)

    def test_sine_at_zero(self):
        arrays = {"w": np.array([0.0])}
        grads = finite_difference_gradient(lambda: math.sin(arrays["w"][0]), arrays, eps=1e-5)
        assert abs(grads["w"][0] - 1.0) <= 1e-9

    def test_restores_parameters(self):
        arrays = {"w": np.array([1.5, -2.5])}
        before = arrays["w"].copy()
        finite_difference_gradient(lambda: float((arrays["w"] ** 2).sum()), arrays)
        np.testing.assert_array_equal(arrays["w"], before)


class TestDeterminism:
    def test_glorot_is_seeded(self):
        a = nm.glorot_uniform(np.random.default_rng(9), 4, 5)
        b = nm.glorot_uniform(np.random.default_rng(9), 4, 5)
        np.testing.assert_array_equal(a, b)

    def test_dropout_is_seeded(self):
        x = constant(np.ones(100))
        a = dropout(x, 0.3, [np.random.default_rng(5)], training=True, bounds=[0, 100]).data
        b = dropout(x, 0.3, [np.random.default_rng(5)], training=True, bounds=[0, 100]).data
        np.testing.assert_array_equal(a, b)
