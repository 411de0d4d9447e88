import numpy as np
import pytest

from oracles import central_difference_gradient, max_relative_error
from raretag import chain
from raretag.lstm import LstmCell, backprop_sequence, run_sequence


def zero_cell(input_dim=3, hidden_dim=4, forget_bias=0.0):
    b = np.zeros(4 * hidden_dim)
    b[hidden_dim : 2 * hidden_dim] = forget_bias
    return LstmCell(input_dim, hidden_dim, np.zeros((4 * hidden_dim, input_dim)),
                    np.zeros((4 * hidden_dim, hidden_dim)), b)


def memory(cache):
    """The cell states [N, hidden] kept in a run_sequence cache."""
    return cache[3]


def ragged(rng, lengths, dim):
    """Sentences of random inputs, and their packed layout."""
    sentences = [rng.normal(0, 1, (n, dim)) for n in lengths]
    sizes, rows = chain.pack(lengths)
    X = np.empty((sum(lengths), dim))
    X[rows] = np.concatenate(sentences)
    return sentences, sizes, rows, X


class TestStep:
    """One-token packed calls, each starting from a zero state."""

    def test_zero_weights_give_zero_state(self):
        cell = zero_cell()
        h, cache = run_sequence(cell, np.array([[1.0, -2.0, 3.0]]))
        assert np.array_equal(h, np.zeros((1, 4)))
        assert np.array_equal(memory(cache), np.zeros((1, 4)))

    def test_forget_bias_one_with_zero_memory(self):
        cell = zero_cell(forget_bias=1.0)
        h, cache = run_sequence(cell, np.zeros((1, 3)))
        assert np.array_equal(memory(cache), np.zeros((1, 4)))
        assert np.array_equal(h, np.zeros((1, 4)))

    def test_forget_gate_carries_memory(self):
        # the first token writes tanh(x) into an open input gate; the second
        # writes nothing (g = tanh(0)), so only the forget gate carries it
        cell = zero_cell(input_dim=4, hidden_dim=4, forget_bias=20.0)
        cell.b[:4] = 20.0  # saturated input gate
        cell.W[12:] = np.eye(4)  # candidate = tanh(x)
        X = np.array([[1.0, -1.0, 0.5, 0.0], np.zeros(4)])
        _, cache = run_sequence(cell, X)
        c = memory(cache)
        assert np.allclose(c[0], np.tanh(X[0]), atol=1e-8)
        assert np.allclose(c[1], c[0], atol=1e-8)

    def test_shape_mismatch_rejected(self):
        cell = zero_cell()
        with pytest.raises(ValueError):
            run_sequence(cell, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            run_sequence(cell, np.zeros(3))
        with pytest.raises(ValueError, match="batch_sizes"):
            run_sequence(cell, np.zeros((3, 3)), [1, 1])

    def test_create_initializes_forget_bias_to_one(self):
        cell = LstmCell.create(3, 4, np.random.default_rng(0))
        assert np.all(cell.b[4:8] == 1.0)
        assert np.all(cell.b[:4] == 0.0)
        assert np.all(cell.b[8:] == 0.0)

    def test_create_draws_gate_blocks_in_order(self):
        # one (4H, D) draw gives the same values as four (H, D) draws
        rng = np.random.default_rng(5)
        blocks = [rng.uniform(-0.1, 0.1, (4, 3)) for _ in range(4)]
        cell = LstmCell.create(3, 4, np.random.default_rng(5))
        assert np.array_equal(cell.W, np.vstack(blocks))

    @pytest.mark.parametrize("name", ["W", "U", "b"])
    def test_non_finite_weights_rejected(self, name):
        cell = LstmCell.create(3, 4, np.random.default_rng(0))
        bad = getattr(cell, name).copy()
        bad.flat[0] = np.nan
        weights = dict(cell.parameters(), **{name: bad})
        with pytest.raises(ValueError, match="finite"):
            LstmCell(3, 4, weights["W"], weights["U"], weights["b"])


class TestSequence:
    def test_reverse_processes_right_to_left(self):
        # reversal is a row permutation of the packed batch
        rng = np.random.default_rng(1)
        cell = LstmCell.create(2, 3, rng)
        sentences, sizes, rows, X = ragged(rng, [4, 2, 5, 1], 2)
        reverse = chain.reversed_rows(sizes)
        hs_rev, _ = run_sequence(cell, X[reverse], sizes)
        hs_rev = hs_rev[reverse]
        offset = 0
        for s in sentences:
            hs_flip, _ = run_sequence(cell, s[::-1])
            got = hs_rev[rows[offset : offset + len(s)]]
            assert np.allclose(got, hs_flip[::-1], atol=1e-12)
            offset += len(s)

    def test_gradient_wrt_inputs_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        cell = LstmCell.create(3, 4, rng)
        X = rng.normal(0, 1, (5, 3))
        weights = rng.normal(0, 1, (5, 4))

        def value():
            hs, _ = run_sequence(cell, X)
            return float(np.sum(hs * weights))

        _, cache = run_sequence(cell, X)
        _, dx = backprop_sequence(cell, cache, weights)
        fd = central_difference_gradient(value, X)
        assert max_relative_error(dx, fd) < 1e-4

    def test_gradient_wrt_parameters_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        cell = LstmCell.create(2, 3, rng)
        X = rng.normal(0, 1, (4, 2))
        weights = rng.normal(0, 1, (4, 3))

        def value():
            hs, _ = run_sequence(cell, X)
            return float(np.sum(hs * weights))

        _, cache = run_sequence(cell, X)
        grads, _ = backprop_sequence(cell, cache, weights)
        for name, param in cell.parameters().items():
            fd = central_difference_gradient(value, param)
            assert max_relative_error(grads[name], fd) < 1e-4, name

    def test_reverse_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        cell = LstmCell.create(2, 3, rng)
        _, sizes, _, X = ragged(rng, [4, 3, 1], 2)
        reverse = chain.reversed_rows(sizes)
        weights = rng.normal(0, 1, (len(X), 3))

        def value():
            hs, _ = run_sequence(cell, X[reverse], sizes)
            return float(np.sum(hs[reverse] * weights))

        _, cache = run_sequence(cell, X[reverse], sizes)
        grads, dx = backprop_sequence(cell, cache, weights[reverse])
        fd_x = central_difference_gradient(value, X)
        assert max_relative_error(dx[reverse], fd_x) < 1e-4
        fd_w = central_difference_gradient(value, cell.W)
        assert max_relative_error(grads["W"], fd_w) < 1e-4


class TestPacked:
    def test_ragged_batch_equals_per_sentence_calls(self):
        rng = np.random.default_rng(10)
        cell = LstmCell.create(3, 4, rng)
        lengths = [3, 6, 1, 4, 6, 2, 5]
        sentences, sizes, rows, X = ragged(rng, lengths, 3)
        dh = rng.normal(0, 1, (len(X), 4))
        hs, cache = run_sequence(cell, X, sizes)
        grads, dx = backprop_sequence(cell, cache, dh)
        total = {name: np.zeros_like(p) for name, p in cell.parameters().items()}
        offset = 0
        for s in sentences:
            own = rows[offset : offset + len(s)]
            hs_s, cache_s = run_sequence(cell, s)
            grads_s, dx_s = backprop_sequence(cell, cache_s, dh[own])
            assert np.max(np.abs(hs[own] - hs_s)) < 1e-12
            assert np.max(np.abs(dx[own] - dx_s)) < 1e-12
            for name in total:
                total[name] += grads_s[name]
            offset += len(s)
        for name in total:
            assert np.max(np.abs(grads[name] - total[name])) < 1e-12, name

    def test_packed_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        cell = LstmCell.create(2, 3, rng)
        _, sizes, _, X = ragged(rng, [2, 5, 1, 3], 2)
        weights = rng.normal(0, 1, (len(X), 3))

        def value():
            hs, _ = run_sequence(cell, X, sizes)
            return float(np.sum(hs * weights))

        _, cache = run_sequence(cell, X, sizes)
        grads, dx = backprop_sequence(cell, cache, weights)
        assert max_relative_error(dx, central_difference_gradient(value, X)) < 1e-4
        for name, param in cell.parameters().items():
            fd = central_difference_gradient(value, param)
            assert max_relative_error(grads[name], fd) < 1e-4, name
