import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    allocating_forward_backward,
    brute_log_partition,
    brute_nll_gradients,
    brute_pairwise_marginals,
    brute_unary_marginals,
    brute_viterbi,
    central_difference_gradient,
    enumerate_sequence_scores,
    log_partition_backward,
    max_relative_error,
)
from raretag import chain
from toy import toy_corpus


def random_case(rng, max_t=6, max_l=5, scale=1.0):
    T = int(rng.integers(1, max_t + 1))
    L = int(rng.integers(2, max_l + 1))
    scores = rng.normal(0, scale, (T, L))
    trans = rng.normal(0, scale, (L, L))
    return scores, trans


class TestLogPartition:
    def test_uniform_scores(self):
        T, L = 5, 4
        val = chain.log_partition(np.zeros((T, L)), np.zeros((L, L)))
        assert val == pytest.approx(T * math.log(L), abs=1e-12)

    def test_single_token_is_logsumexp(self):
        scores = np.array([[0.3, -1.2, 2.0]])
        val = chain.log_partition(scores, np.zeros((3, 3)))
        assert val == pytest.approx(
            math.log(sum(math.exp(s) for s in scores[0])), abs=1e-12
        )

    def test_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores, trans = random_case(rng)
            assert chain.log_partition(scores, trans) == pytest.approx(
                brute_log_partition(scores, trans), abs=1e-8
            )

    def test_stable_at_large_magnitudes(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(-1e3, 1e3, (6, 4))
        trans = rng.uniform(-1e3, 1e3, (4, 4))
        assert math.isfinite(chain.log_partition(scores, trans))

    def test_forward_equals_backward(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scores, trans = random_case(rng, scale=3.0)
            fwd = chain.log_partition(scores, trans)
            bwd = log_partition_backward(scores, trans)
            assert abs(fwd - bwd) < 1e-10

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            chain.log_partition(np.zeros((0, 3)), np.zeros((3, 3)))


class TestForwardBackward:
    def test_unary_marginals_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores, trans = random_case(rng, scale=2.0)
            _, unary, _ = chain.forward_backward(scores, trans)
            assert np.max(np.abs(unary.sum(axis=1) - 1.0)) < 1e-10

    def test_pairwise_marginals_sum_to_one(self):
        # the counts sum the marginals of the 4 adjacent pairs, each 1
        rng = np.random.default_rng(4)
        scores, trans = rng.normal(0, 1, (5, 3)), rng.normal(0, 1, (3, 3))
        _, _, counts = chain.forward_backward(scores, trans)
        assert counts.shape == (3, 3)
        assert counts.sum() == pytest.approx(4.0, abs=1e-10)

    def test_unary_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            scores, trans = random_case(rng, max_t=5, max_l=4)
            _, unary, _ = chain.forward_backward(scores, trans)
            expected = brute_unary_marginals(scores, trans)
            assert np.max(np.abs(unary - expected)) < 1e-9

    def test_pairwise_consistent_with_unary(self):
        rng = np.random.default_rng(6)
        scores, trans = rng.normal(0, 1, (6, 4)), rng.normal(0, 1, (4, 4))
        _, unary, counts = chain.forward_backward(scores, trans)
        # rows: label i at a predecessor; columns: label j at a successor
        assert np.max(np.abs(counts.sum(axis=1) - unary[:-1].sum(axis=0))) < 1e-10
        assert np.max(np.abs(counts.sum(axis=0) - unary[1:].sum(axis=0))) < 1e-10


class TestNllAndGradients:
    @staticmethod
    def cases(T):
        rng = np.random.default_rng(10 + T)
        for _ in range(10):
            L = int(rng.integers(2, 5))
            scores = rng.normal(0, 1.5, (T, L))
            trans = rng.normal(0, 1.5, (L, L))
            yield scores, trans, rng.integers(0, L, T)

    @pytest.mark.parametrize("T", [1, 2, 3, 4])
    def test_nll_matches_enumeration(self, T):
        for scores, trans, gold in self.cases(T):
            nll, _, _ = chain.nll_and_gradients(scores, trans, gold)
            seqs, totals = enumerate_sequence_scores(scores, trans)
            gold_total = totals[np.all(seqs == gold, axis=1)][0]
            expected = brute_log_partition(scores, trans) - gold_total
            assert nll == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("T", [1, 2, 3, 4])
    def test_gradients_match_finite_differences(self, T):
        for scores, trans, gold in self.cases(T):
            _, d_scores, d_trans = chain.nll_and_gradients(scores, trans, gold)

            def nll():
                return chain.nll_and_gradients(scores, trans, gold)[0]

            fd_scores = central_difference_gradient(nll, scores)
            fd_trans = central_difference_gradient(nll, trans)
            assert max_relative_error(d_scores, fd_scores) < 1e-6
            assert max_relative_error(d_trans, fd_trans) < 1e-6

    def test_gradients_match_enumeration(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            scores, gold, trans = ragged_batch(rng, max_t=4, max_sentences=3)
            sizes, row_of = pack(scores)
            _, d_scores, d_trans = chain.nll_and_gradients(
                packed(scores, row_of), trans, packed(gold, row_of), sizes)
            expected = [brute_nll_gradients(s, trans, g)
                        for s, g in zip(scores, gold)]
            assert np.max(np.abs(
                d_scores - packed([e[0] for e in expected], row_of))) < 1e-10
            assert np.max(np.abs(
                d_trans - sum(e[1] for e in expected))) < 1e-10

    def test_single_token_has_zero_transition_gradient(self):
        for scores, trans, gold in self.cases(1):
            _, _, d_trans = chain.nll_and_gradients(scores, trans, gold)
            assert d_trans.shape == trans.shape
            assert np.all(d_trans == 0.0)


def ragged_batch(rng, max_t=6, max_sentences=8):
    """1..max_sentences sentences of T = 1..max_t tokens over one label set
    of 2-4 labels, as (per-sentence scores, per-sentence gold,
    transitions)."""
    L = int(rng.integers(2, 5))
    lengths = rng.integers(1, max_t + 1, int(rng.integers(1, max_sentences + 1)))
    scores = [rng.normal(0, 1.5, (T, L)) for T in lengths]
    gold = [rng.integers(0, L, T) for T in lengths]
    return scores, gold, rng.normal(0, 1.5, (L, L))


def pack(sentences):
    """(batch_sizes, {(sentence, position): packed row}): longest first,
    ties in input order, one block of rows per position."""
    order = sorted(range(len(sentences)), key=lambda b: -len(sentences[b]))
    sizes, row_of = [], {}
    for t in range(len(sentences[order[0]])):
        running = [b for b in order if len(sentences[b]) > t]
        sizes.append(len(running))
        for b in running:
            row_of[b, t] = len(row_of)
    return sizes, row_of


def packed(arrays, row_of):
    out = np.empty((len(row_of),) + arrays[0].shape[1:], dtype=arrays[0].dtype)
    for (b, t), row in row_of.items():
        out[row] = arrays[b][t]
    return out


def check_packed_forward_backward(scores, trans):
    """One packed forward_backward call equals the per-sentence calls."""
    sizes, row_of = pack(scores)
    log_z, unary, counts = chain.forward_backward(
        packed(scores, row_of), trans, sizes)
    assert counts.shape == trans.shape
    total, total_counts = 0.0, np.zeros_like(trans)
    for b, s in enumerate(scores):
        z_b, unary_b, counts_b = chain.forward_backward(s, trans)
        total += z_b
        total_counts += counts_b
        for t in range(len(s)):
            assert np.max(np.abs(unary[row_of[b, t]] - unary_b[t])) < 1e-12
    assert log_z == pytest.approx(total, abs=1e-10)
    assert np.max(np.abs(counts - total_counts)) < 1e-12
    # rows and columns sum to the unary marginals of each side of the
    # N - B adjacent pairs
    pred, succ = chain.links(np.array(sizes))
    assert np.max(np.abs(counts.sum(axis=1) - unary[pred].sum(axis=0))) < 1e-9
    assert np.max(np.abs(counts.sum(axis=0) - unary[succ].sum(axis=0))) < 1e-9
    assert counts.sum() == pytest.approx(len(row_of) - sizes[0], abs=1e-9)


class TestPacked:
    def test_forward_backward_equals_per_sentence(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            scores, _, trans = ragged_batch(rng)
            check_packed_forward_backward(scores, trans)

    def test_nll_and_gradients_equal_per_sentence(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            scores, gold, trans = ragged_batch(rng)
            sizes, row_of = pack(scores)
            nll, d_scores, d_trans = chain.nll_and_gradients(
                packed(scores, row_of), trans, packed(gold, row_of), sizes)
            results = [chain.nll_and_gradients(s, trans, g)
                       for s, g in zip(scores, gold)]
            assert nll == pytest.approx(sum(r[0] for r in results), abs=1e-10)
            per_sentence = packed([r[1] for r in results], row_of)
            assert np.max(np.abs(d_scores - per_sentence)) < 1e-12
            assert np.max(np.abs(d_trans - sum(r[2] for r in results))) < 1e-10

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            scores, gold, trans = ragged_batch(rng)
            sizes, row_of = pack(scores)
            flat, flat_gold = packed(scores, row_of), packed(gold, row_of)
            _, d_scores, d_trans = chain.nll_and_gradients(
                flat, trans, flat_gold, sizes)

            def nll():
                return chain.nll_and_gradients(flat, trans, flat_gold, sizes)[0]

            assert max_relative_error(
                d_scores, central_difference_gradient(nll, flat)) < 1e-6
            assert max_relative_error(
                d_trans, central_difference_gradient(nll, trans)) < 1e-6

    def test_pack_and_reversal_match_reference_layout(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            lengths = rng.integers(1, 7, size=rng.integers(1, 9)).tolist()
            sizes, rows = chain.pack(lengths)
            ref_sizes, row_of = pack([np.zeros((n, 1)) for n in lengths])
            assert sizes.tolist() == ref_sizes
            tokens = [(b, t) for b, n in enumerate(lengths) for t in range(n)]
            assert rows.tolist() == [row_of[b, t] for b, t in tokens]
            reverse = chain.reversed_rows(sizes)
            assert [reverse[row_of[b, t]] for b, t in tokens] == [
                row_of[b, lengths[b] - 1 - t] for b, t in tokens]

    @pytest.mark.parametrize("sizes", [[1, 2], [2, 0], [2], [3, 1, 1]])
    def test_invalid_batch_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="batch_sizes"):
            chain.forward_backward(np.zeros((3, 2)), np.zeros((2, 2)), sizes)


def spanned_transitions(rng, L, span):
    """Random [L, L] transitions whose max - min is ``span``."""
    trans = rng.uniform(-1, 1, (L, L))
    return (trans - trans.min()) * (span / np.ptp(trans)) - span / 2


# (score scale, transition span): forward_backward works in probability
# space below chain.PRODUCT_SPAN and in log space from it on
MAGNITUDES = [
    pytest.param(1e3, 6.0, id="large-scores-product"),
    pytest.param(10.0, 599.9, id="span-just-below-bound"),
    pytest.param(10.0, 600.1, id="span-just-above-bound"),
    pytest.param(1e3, 2e3, id="large-transitions-log-space"),
]


class TestMagnitudes:
    """Both forward-backward paths against enumeration, at and around the
    span bound that picks between them."""

    @staticmethod
    def cases(seed, scale, span, count=20):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            T, L = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            yield (rng.uniform(-scale, scale, (T, L)),
                   spanned_transitions(rng, L, span))

    @pytest.mark.parametrize("scale, span", MAGNITUDES)
    def test_matches_enumeration(self, scale, span):
        for scores, trans in self.cases(30, scale, span):
            assert (np.ptp(trans) < chain.PRODUCT_SPAN) == (span < 600)
            log_z, unary, counts = chain.forward_backward(scores, trans)
            expected = brute_log_partition(scores, trans)
            assert log_z == pytest.approx(expected, rel=1e-13, abs=1e-9)
            assert np.max(np.abs(
                unary - brute_unary_marginals(scores, trans))) < 1e-9
            expected_counts = brute_pairwise_marginals(scores, trans).sum(axis=0)
            assert counts.shape == expected_counts.shape
            assert np.max(np.abs(counts - expected_counts)) < 1e-9
            # rows and columns sum to the unary marginals of each side
            assert np.max(np.abs(
                counts.sum(axis=1) - unary[:-1].sum(axis=0))) < 1e-9
            assert np.max(np.abs(
                counts.sum(axis=0) - unary[1:].sum(axis=0))) < 1e-9
            assert counts.sum() == pytest.approx(len(scores) - 1, abs=1e-9)

    @pytest.mark.parametrize("span", [6.0, 599.9, 600.1, 2e3])
    def test_mixed_packed_batch_equals_per_sentence(self, span):
        rng = np.random.default_rng(31)
        for _ in range(20):
            L = int(rng.integers(2, 5))
            trans = spanned_transitions(rng, L, span)
            scores = [rng.uniform(-scale, scale, (int(rng.integers(1, 7)), L))
                      for scale in rng.choice([1.0, 10.0, 1e3], 6)]
            check_packed_forward_backward(scores, trans)


class TestOwnBuffers:
    """forward_backward works in the buffers it allocates, with the same
    float operations as ``oracles.allocating_forward_backward``."""

    @pytest.mark.parametrize("span", [6.0, 599.9, 600.1, 2e3])
    def test_bit_identical_to_allocating_version(self, span):
        rng = np.random.default_rng(40)
        for _ in range(30):
            scores, _, _ = ragged_batch(rng, max_t=9, max_sentences=12)
            trans = spanned_transitions(rng, scores[0].shape[1], span)
            sizes, row_of = pack(scores)
            flat = packed(scores, row_of)
            got = chain.forward_backward(flat, trans, sizes)
            expected = allocating_forward_backward(flat, trans, sizes)
            assert got[0] == expected[0]
            assert np.array_equal(got[1], expected[1])
            assert np.array_equal(got[2], expected[2])

    @pytest.mark.parametrize("span", [6.0, 2e3])
    def test_log_partition_is_forward_backward_log_z(self, span):
        rng = np.random.default_rng(41)
        for _ in range(30):
            scores, _, _ = ragged_batch(rng)
            trans = spanned_transitions(rng, scores[0].shape[1], span)
            sizes, row_of = pack(scores)
            flat = packed(scores, row_of)
            assert (chain.log_partition(flat, trans, sizes)
                    == chain.forward_backward(flat, trans, sizes)[0])

    def test_working_set_is_at_most_five_score_matrices(self):
        sentences = toy_corpus(seed=12, size=600)
        sizes, _ = chain.pack([len(s.tokens) for s in sentences])
        N, L = int(sizes.sum()), 9
        rng = np.random.default_rng(42)
        scores, trans = rng.normal(size=(N, L)), rng.normal(size=(L, L))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            chain.forward_backward(scores, trans, sizes)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 5 * N * L * 8, peak / (N * L * 8)


def viterbi_masks(rng, L):
    """No masks, or random start/transition masks that label 0 satisfies."""
    if rng.random() < 0.5:
        return None, None
    start, trans = rng.random(L) < 0.6, rng.random((L, L)) < 0.6
    start[0] = True
    trans[:, 0] = True
    return start, trans


def tie_rule_path(scores, trans, start_mask=None, trans_mask=None):
    """Viterbi's pick among all maximising label sequences, by enumeration:
    the smallest one read from the last position back (lower label indices
    win ties). Exact on integer-valued scores, where ties are exact too."""
    scores, trans = scores.copy(), trans.copy()
    if start_mask is not None:
        scores[0, ~start_mask] = -np.inf
    if trans_mask is not None:
        trans[~trans_mask] = -np.inf
    seqs, totals = enumerate_sequence_scores(scores, trans)
    best = seqs[totals == totals.max()]
    return list(min(tuple(seq[::-1]) for seq in best.tolist())[::-1])


def packed_viterbi(scores, trans, start_mask=None, trans_mask=None):
    """Per-sentence paths from one packed ``chain.viterbi`` call."""
    sizes, row_of = pack(scores)
    path = chain.viterbi(packed(scores, row_of), trans, start_mask, trans_mask,
                         sizes)
    return [[path[row_of[b, t]] for t in range(len(s))]
            for b, s in enumerate(scores)]


class TestViterbi:
    def test_emission_dominant(self):
        scores = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert chain.viterbi(scores, np.zeros((2, 2))) == [0, 1]

    def test_all_zero_breaks_ties_to_lowest_index(self):
        assert chain.viterbi(np.zeros((4, 3)), np.zeros((3, 3))) == [0, 0, 0, 0]

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            scores, trans = random_case(rng)
            path = chain.viterbi(scores, trans)
            expected_path, expected_score, ties = brute_viterbi(scores, trans)
            assert chain.sequence_score(scores, trans, path) == pytest.approx(
                expected_score, abs=1e-9
            )
            if ties == 1:
                assert path == expected_path

    def test_score_of_own_output(self):
        rng = np.random.default_rng(8)
        scores, trans = rng.normal(0, 2, (7, 5)), rng.normal(0, 2, (5, 5))
        path = chain.viterbi(scores, trans)
        best = chain.sequence_score(scores, trans, path)
        # independently recompute by summing the chosen entries
        manual = sum(scores[t, y] for t, y in enumerate(path))
        manual += sum(trans[path[t], path[t + 1]] for t in range(len(path) - 1))
        assert best == pytest.approx(manual, abs=1e-12)

    def test_transition_mask_respected(self):
        scores = np.zeros((3, 2))
        trans = np.zeros((2, 2))
        mask = np.array([[True, False], [True, True]])
        path = chain.viterbi(scores, trans, transition_mask=mask)
        for a, b in zip(path, path[1:]):
            assert mask[a, b]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            chain.viterbi(np.zeros((0, 2)), np.zeros((2, 2)))

    def test_packed_equals_per_sentence(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            scores, _, trans = ragged_batch(rng)
            start, mask = viterbi_masks(rng, trans.shape[0])
            paths = packed_viterbi(scores, trans, start, mask)
            for s, path in zip(scores, paths):
                assert path == chain.viterbi(s, trans, start, mask)

    def test_packed_integer_scores_follow_tie_rule(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            scores, _, trans = ragged_batch(rng)
            scores = [np.round(s) for s in scores]
            trans = np.round(trans)
            start, mask = viterbi_masks(rng, trans.shape[0])
            paths = packed_viterbi(scores, trans, start, mask)
            for s, path in zip(scores, paths):
                expected = tie_rule_path(s, trans, start, mask)
                assert path == expected
                assert chain.viterbi(s, trans, start, mask) == expected

    def test_packed_all_zero_breaks_ties_to_lowest_index(self):
        scores = [np.zeros((n, 3)) for n in (2, 4, 1, 4)]
        assert packed_viterbi(scores, np.zeros((3, 3))) == [
            [0] * len(s) for s in scores]

    @pytest.mark.parametrize("sizes", [[1, 2], [2, 0], [2], [3, 1, 1]])
    def test_invalid_batch_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="batch_sizes"):
            chain.viterbi(np.zeros((3, 2)), np.zeros((2, 2)), batch_sizes=sizes)
