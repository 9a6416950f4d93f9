"""Tensor ops, the tape, and the finite-difference oracle."""

import math
import weakref

import numpy as np
import pytest
from _oracles import gated_update_oracle

from graphmem import numerics as nm
from graphmem.numerics import (
    DimensionError,
    Tensor,
    affine,
    constant,
    dropout,
    finite_difference_gradient,
    gather_sum,
    lerp,
    linear_sum,
    matmul,
    parameter,
    relu,
    segment_softmax,
    sigmoid,
    softmax,
)


class TestActivations:
    def test_relu(self):
        out = relu(constant([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_sigmoid_zero(self):
        assert sigmoid(constant([0.0])).data[0] == 0.5

    def test_sigmoid_saturates_cleanly(self):
        assert sigmoid(constant([1000.0])).data[0] == 1.0
        assert sigmoid(constant([-1000.0])).data[0] == 0.0

    def test_affine_identity(self):
        out = affine(constant(np.eye(2)), constant([3.0, 4.0]), 0.0)
        np.testing.assert_array_equal(out.data, [3.0, 4.0])

    def test_affine_shape_error_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 2\).*\(3,\)"):
            affine(constant(np.eye(2)), constant([1.0, 2.0, 3.0]), 0.0)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_array_equal(softmax(constant([0.0, 0.0])).data, [0.5, 0.5])

    def test_shift_invariance_no_overflow(self):
        out = softmax(constant([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_closed_form(self):
        out = softmax(constant([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_sums_to_one_within_1e12(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 1025))
            scores = rng.uniform(-700.0, 700.0, size=n)
            total = softmax(constant(scores)).data.sum()
            assert abs(total - 1.0) <= 1e-12

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            softmax(constant(np.zeros(0)))


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = constant([1.0, 2.0])
        assert dropout(x, 0.0, np.random.default_rng(0), training=True) is x

    def test_inference_is_identity(self):
        x = constant([1.0, 2.0])
        assert dropout(x, 0.5, np.random.default_rng(0), training=False) is x

    def test_zero_fraction_concentrates(self):
        x = constant(np.ones(10_000))
        out = dropout(x, 0.5, np.random.default_rng(123), training=True)
        zero_fraction = float((out.data == 0.0).mean())
        assert abs(zero_fraction - 0.5) < 0.02
        # survivors are rescaled by 1/(1-rate)
        assert np.all(out.data[out.data != 0.0] == 2.0)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout(constant([1.0]), 1.0, np.random.default_rng(0), training=True)


class TestTapeGradients:
    def test_square_gradient(self):
        w = parameter([3.0])
        loss = w**2
        loss.backward()
        np.testing.assert_allclose(w.grad, [6.0])

    def test_untouched_parameter_has_no_gradient(self):
        w = parameter([3.0])
        other = parameter([1.0])
        (w**2).backward()
        assert other.grad is None

    def test_shared_subexpression_accumulates(self):
        w = parameter([2.0])
        y = w * w + w * 3.0  # dy/dw = 2w + 3 = 7
        y.backward()
        np.testing.assert_allclose(w.grad, [7.0])

    def test_aliasing_safe_for_passthrough_grads(self):
        # a + b feeds two consumers; accumulation must not corrupt either
        a = parameter([1.0, 2.0])
        b = parameter([3.0, 4.0])
        s = a + b
        loss = nm.total(s * 2.0) + nm.total(s * 3.0)
        loss.backward()
        np.testing.assert_allclose(a.grad, [5.0, 5.0])
        np.testing.assert_allclose(b.grad, [5.0, 5.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_composite_matches_finite_differences(self, seed):
        # exercises linear_sum (plain, row-gathered, activated, projected), matmul,
        # softmax, lerp, clip, log, segment softmax, gather-sum, the gated update
        # (plain, row-gathered and edge-summed terms) and the reductions in one
        # recorded expression
        rng = np.random.default_rng(seed)
        arrays = {
            "w": rng.normal(size=(4, 3)),
            "u": rng.normal(size=(5, 4)),
            "v": rng.normal(size=4),
            "b": rng.normal(size=4),
            "m": rng.normal(size=(5, 3)),
            "g": rng.normal(size=(5, 4)),
            "s": rng.normal(size=(4, 4)),
            "t": rng.normal(size=(4, 8)),
            "q": rng.normal(size=(4, 4)),
            "h": rng.normal(size=(4, 8)),
            "c": rng.normal(size=4),
        }
        x = rng.normal(size=3)

        def build():
            leaves = {name: Tensor(arrays[name], True) for name in arrays}
            w, u, v, b, m, gmat, s, t, q, h, c = (leaves[k] for k in "wuvbmgstqhc")
            hidden = nm.tanh(linear_sum([(constant(x), w)], bias=b))  # (4,)
            table = linear_sum([(m, w)], bias=b)  # (5, 4)
            attn = softmax(matmul(table, v))  # (5,)
            read = matmul(attn, table)  # (4,)
            rows = matmul(u, hidden)  # (5,)
            gate = sigmoid(matmul(gmat, read))  # (5,)
            mixed = lerp(gate, relu(rows), nm.tanh(rows))  # (5,)
            # rows 0, 2, 2 of m @ w.T plus rows 4, 4, 1 of table @ s.T
            picked = linear_sum([(m, w, [0, 2, 2]), (table, s, [4, 4, 1])], bias=b,
                                activation="tanh")  # (3, 4)
            # segment 0 has two members, segment 1 none, segment 2 one (weight 1)
            segments = [0, 0, 2]
            weights = segment_softmax(matmul(picked, v), segments, 3)  # (3,)
            assert weights.data[2] == 1.0
            gathered = gather_sum(table, weights, [1, 3, 1], segments, 3)  # (3, 4), row 1 zero
            assert not gathered.data[1].any()
            proposal = linear_sum([(picked, s)], activation="relu")  # (3, 4)
            opened = linear_sum([(gathered, s)], bias=b, activation="sigmoid")  # (3, 4)
            # (3, 8): the same weighted sums, then the columns of picked as links;
            # weights and links are tracked, and row 1 has no in-edges
            context = nm.EdgeSum(table, weights, [1, 3, 1], segments, picked)
            assert not context.data[1, :4].any()
            # a plain term, rows 4, 0, 4 of table @ W.T and the edge-summed context
            updated = nm.gated_update([(opened, s, q), (table, q, s, [4, 0, 4]), (context, t, h)],
                                      b, c, proposal)  # (3, 4)
            # one score per row, the activated rows recomputed in backward
            scored = linear_sum([(m, w, [4, 0])], bias=b, activation="tanh", project=v)  # (2,)
            log_term = nm.total(nm.log(nm.clip(attn, 1e-9, 1.0)) * attn)
            loss = (nm.mean(gathered * gathered) + nm.total(mixed) * 0.1 + log_term
                    + nm.total(proposal * opened) * 0.1 + nm.total(scored * scored)
                    + nm.total(updated * updated))
            return loss, leaves

        loss, leaves = build()
        loss.backward()
        exact = {name: leaf.grad for name, leaf in leaves.items()}
        estimate = finite_difference_gradient(lambda: build()[0].item(), arrays, eps=1e-6)
        worst, name = nm.max_relative_error(exact, estimate)
        assert worst <= 1e-6, f"worst {worst} at {name}"

    def test_matmul_vector_cases_match_finite_differences(self):
        rng = np.random.default_rng(4)
        arrays = {"a": rng.normal(size=(3, 4)), "x": rng.normal(size=4), "y": rng.normal(size=3)}

        def build():
            leaves = {name: Tensor(arrays[name], True) for name in arrays}
            col = matmul(leaves["a"], leaves["x"])  # (3,)
            row = matmul(leaves["y"], leaves["a"])  # (4,)
            scalar = matmul(leaves["x"], row)  # dot
            return nm.total(col * col) + scalar, leaves

        loss, leaves = build()
        loss.backward()
        exact = {name: leaf.grad for name, leaf in leaves.items()}
        estimate = finite_difference_gradient(lambda: build()[0].item(), arrays, eps=1e-6)
        worst, name = nm.max_relative_error(exact, estimate)
        assert worst <= 1e-7, f"worst {worst} at {name}"

    def test_matmul_shape_error(self):
        with pytest.raises(DimensionError):
            matmul(constant(np.zeros((2, 3))), constant(np.zeros((4, 2))))

    def test_backward_seed_scales(self):
        w = parameter([3.0])
        (w**2).backward(seed=0.5)
        np.testing.assert_allclose(w.grad, [3.0])


class TestGatedUpdate:
    @staticmethod
    def inputs(seed):
        rng = np.random.default_rng(seed)
        # 4 output rows of width 3; edges 0->1, 2->1, 3->0, 1->3 with a
        # repeated destination, and row 2 has no in-edges
        return {
            "old": rng.normal(size=(4, 3)),
            "x": rng.normal(size=(4, 5)),
            "groups": rng.normal(size=(2, 2)),
            "rows": np.array([0, 1, 1, 0]),
            "cells": rng.normal(size=(4, 2)),
            "weights": rng.uniform(0.1, 1.0, size=4),
            "src": np.array([0, 2, 3, 1]),
            "dst": np.array([1, 1, 0, 3]),
            "links": rng.normal(size=(4, 2)),
            "weight": [rng.normal(size=shape) for shape in [(3, 5), (3, 5), (3, 2), (3, 2), (3, 4), (3, 4)]],
            "bias": [rng.normal(size=3), rng.normal(size=3)],
        }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_oracle(self, seed):
        a = self.inputs(seed)
        w = a["weight"]
        expected = gated_update_oracle(
            [("plain", a["x"], w[0], w[1]), ("rows", a["groups"], w[2], w[3], a["rows"]),
             ("edges", a["cells"], a["weights"], a["src"], a["dst"], a["links"], w[4], w[5])],
            a["bias"][0], a["bias"][1], a["old"])
        params = [parameter(x) for x in w]
        context = nm.EdgeSum(parameter(a["cells"]), parameter(a["weights"]), a["src"], a["dst"],
                             parameter(a["links"]))
        out = nm.gated_update(
            [(parameter(a["x"]), params[0], params[1]), (parameter(a["groups"]), params[2], params[3], a["rows"]),
             (context, params[4], params[5])],
            parameter(a["bias"][0]), parameter(a["bias"][1]), parameter(a["old"]))
        assert not context.data[2, :2].any()  # no in-edges: zero sums
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_keeps_no_edge_sum_value(self):
        a = self.inputs(0)
        w = [parameter(x) for x in a["weight"]]
        context = nm.EdgeSum(parameter(a["cells"]), constant(a["weights"]), a["src"], a["dst"],
                             constant(a["links"]))
        kept = weakref.ref(context.data)
        out = nm.gated_update([(context, w[4], w[5])], parameter(a["bias"][0]), parameter(a["bias"][1]),
                              parameter(a["old"]))
        del context
        assert kept() is None
        nm.total(out).backward()
        assert w[4].grad is not None and w[4].grad.any()

    def test_shape_errors(self):
        a = self.inputs(0)
        w = [parameter(x) for x in a["weight"]]
        bias = [parameter(b) for b in a["bias"]]
        with pytest.raises(DimensionError):  # weights do not match the input width
            nm.gated_update([(constant(a["x"]), w[2], w[3])], bias[0], bias[1], constant(a["old"]))
        with pytest.raises(DimensionError):  # rows do not cover the output rows
            nm.gated_update([(constant(a["groups"]), w[2], w[3], [0, 1])], bias[0], bias[1], constant(a["old"]))
        with pytest.raises(DimensionError):  # a term with fewer rows than the output
            nm.gated_update([(constant(a["groups"]), w[2], w[3])], bias[0], bias[1], constant(a["old"]))


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
        a = dropout(x, 0.3, np.random.default_rng(5), training=True).data
        b = dropout(x, 0.3, np.random.default_rng(5), training=True).data
        np.testing.assert_array_equal(a, b)
