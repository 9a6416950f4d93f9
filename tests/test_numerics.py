"""Tensor ops, the tape, and the finite-difference oracle."""

import math

import numpy as np
import pytest

from graphmem import numerics as nm
from graphmem.numerics import (
    DimensionError,
    Tensor,
    affine,
    concat,
    constant,
    dropout,
    finite_difference_gradient,
    lerp,
    linear_sum,
    matmul,
    parameter,
    relu,
    scatter,
    segment_softmax,
    sigmoid,
    softmax,
    take_rows,
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
        # exercises linear_sum, matmul, softmax, lerp, clip, log, gather,
        # segment softmax, scatter, concat, and the reductions in one
        # recorded expression
        rng = np.random.default_rng(seed)
        arrays = {
            "w": rng.normal(size=(4, 3)),
            "u": rng.normal(size=(5, 4)),
            "v": rng.normal(size=4),
            "b": rng.normal(size=4),
            "m": rng.normal(size=(5, 3)),
            "g": rng.normal(size=(5, 4)),
        }
        x = rng.normal(size=3)

        def build():
            leaves = {name: Tensor(arrays[name], True) for name in arrays}
            w, u, v, b, m, gmat = (leaves[k] for k in ("w", "u", "v", "b", "m", "g"))
            hidden = nm.tanh(linear_sum([(constant(x), w)], bias=b))  # (4,)
            table = linear_sum([(m, w)], bias=b)  # (5, 4)
            attn = softmax(matmul(table, v))  # (5,)
            read = matmul(attn, table)  # (4,)
            rows = matmul(u, hidden)  # (5,)
            gate = sigmoid(matmul(gmat, read))  # (5,)
            mixed = lerp(gate, relu(rows), nm.tanh(rows))  # (5,)
            picked = take_rows(table, [0, 2, 2])  # (3, 4)
            # segment 0 has two members, segment 1 none, segment 2 one (weight 1)
            segments = [0, 0, 2]
            weights = segment_softmax(matmul(picked, v), segments, 3)  # (3,)
            assert weights.data[2] == 1.0
            mix = scatter(weights, segments, [1, 3, 4], (3, 5))  # row 1 stays zero
            assert not mix.data[1].any()
            joined = concat([picked, matmul(mix, table)], axis=0)  # (6, 4)
            log_term = nm.total(nm.log(nm.clip(attn, 1e-9, 1.0)) * attn)
            loss = nm.mean(joined * joined) + nm.total(mixed) * 0.1 + log_term
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
