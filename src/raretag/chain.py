"""Linear-chain dynamic programs over dense score matrices.

All routines take state scores ``[N, L]`` and a transition matrix
``[L, L]`` (``trans[i, j]`` scores label i followed by label j). Shared by
the feature-based CRF and the neural CRF output head. ``forward_backward``
runs one recursion in both directions: the backward pass is the forward
pass over the reversed sentences (``reversed_rows``) with the transitions
transposed, and it returns expected transition counts, not per-pair
marginals. While the transitions span less than ``PRODUCT_SPAN``, the
recursion and the counts work in probability space, rescaled at every
position (the scaled forward-backward of Rabiner 1989, section V.A);
wider transitions, and Viterbi, work in natural-log space with the
log-sum-exp trick. Both stay stable for score magnitudes up to about 1e3.

``forward_backward``, ``log_partition``, ``nll_and_gradients``,
``sequence_score`` and ``viterbi`` score or decode a batch of sentences in
one packed, time-major layout (PyTorch's ``PackedSequence`` convention):
sentences are sorted longest first, and the rows of position t are one
contiguous block of ``batch_sizes[t]`` sentences, in the same order in
every block. ``batch_sizes=None`` means one sentence of N tokens, on the
same code path. ``log_partition`` runs the forward recursion alone, for a
loss without gradients. ``pack``, ``links`` and
``reversed_rows`` build and read this layout, and ``passes`` cuts a corpus
into the ``PASS_SENTENCES``-sentence passes that the BiLSTM losses and
both taggers run.
"""

from __future__ import annotations

import numpy as np

# Sentences per packed pass of BiLSTM losses and of tagging: bounds the
# arrays that one pass holds, which over a whole corpus (or a whole
# validation split, with the LSTM caches) would set the peak memory.
PASS_SENTENCES = 32

# Bound on max - min of a transition matrix that forward_backward handles
# in probability space: every rescaled forward or backward sum is then at
# least e^-600 and every pair's rescaling factor at most e^600, both
# inside float64's normal range (about e^-708 to e^709).
PRODUCT_SPAN = 600.0


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    # ndarray methods, not np.max/np.sum: the log-space recursion calls this
    # on small blocks, where the wrappers' Python overhead outweighs the
    # arithmetic.
    amax = a.max(axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    return np.log(np.exp(a - amax).sum(axis=axis)) + amax.squeeze(axis=axis)


def _check(scores: np.ndarray, transitions: np.ndarray,
           batch_sizes=None) -> np.ndarray:
    """Checked ``batch_sizes`` of a packed batch of scores."""
    if scores.ndim != 2 or scores.shape[0] == 0:
        raise ValueError("scores must be a non-empty [T, L] matrix")
    L = scores.shape[1]
    if transitions.shape != (L, L):
        raise ValueError(
            f"transition matrix {transitions.shape} does not match {L} labels"
        )
    return packed_sizes(batch_sizes, scores.shape[0])


def packed_sizes(batch_sizes, rows: int) -> np.ndarray:
    """Checked ``batch_sizes`` of ``rows`` packed rows (None: one sentence)."""
    if batch_sizes is None:
        return np.ones(rows, dtype=np.intp)
    sizes = np.asarray(batch_sizes, dtype=np.intp)
    if (sizes.ndim != 1 or sizes.size == 0 or sizes[-1] < 1
            or np.any(sizes[1:] > sizes[:-1]) or sizes.sum() != rows):
        raise ValueError("batch_sizes must be positive, non-increasing and "
                         "sum to the number of packed rows")
    return sizes


def pack(lengths) -> tuple[np.ndarray, np.ndarray]:
    """(batch_sizes, rows) of sentences with these token counts, laid out
    longest first with ties in their given order: ``rows[k]`` is the
    packed row of the k-th token of the sentences concatenated in order."""
    lengths = np.asarray(lengths, dtype=np.intp)
    rank = np.empty_like(lengths)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(len(lengths))
    batch_sizes = np.count_nonzero(lengths > np.arange(lengths.max())[:, None],
                                   axis=1)
    starts = np.concatenate([[0], np.cumsum(batch_sizes)])
    rows = np.concatenate([starts[:n] + r for n, r in zip(lengths, rank)])
    return batch_sizes, rows


def passes(sentences: list) -> list[list]:
    """Consecutive slices of at most ``PASS_SENTENCES`` sentences."""
    return [sentences[start : start + PASS_SENTENCES]
            for start in range(0, len(sentences), PASS_SENTENCES)]


def links(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(predecessor rows, successor rows) of every adjacent token pair."""
    successors = np.arange(sizes[0], sizes.sum())
    return successors - np.repeat(sizes[:-1], sizes[1:]), successors


def reversed_rows(sizes: np.ndarray) -> np.ndarray:
    """The packed-row permutation that reverses every sentence; the reversed
    sentences keep ``sizes``, and the permutation is its own inverse."""
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    position = np.repeat(np.arange(len(sizes)), sizes)
    sentence = np.arange(sizes.sum()) - np.repeat(starts, sizes)
    lengths = np.count_nonzero(sizes[:, None] > np.arange(sizes[0]), axis=0)
    return starts[lengths[sentence] - 1 - position] + sentence


def sequence_score(
    scores: np.ndarray, transitions: np.ndarray, labels: list[int] | np.ndarray,
    batch_sizes=None,
) -> float:
    """Unnormalized log score of one label sequence per sentence, summed."""
    sizes = _check(scores, transitions, batch_sizes)
    return _path_score(scores, transitions, np.asarray(labels), *links(sizes))


def _path_score(scores: np.ndarray, transitions: np.ndarray,
                labels: np.ndarray, pred: np.ndarray, succ: np.ndarray) -> float:
    if labels.shape != scores.shape[:1]:
        raise ValueError("label sequence length does not match scores")
    total = float(np.sum(scores[np.arange(len(labels)), labels]))
    total += float(np.sum(transitions[labels[pred], labels[succ]]))
    return total


def log_partition(scores: np.ndarray, transitions: np.ndarray,
                  batch_sizes=None) -> float:
    """log Z over all label sequences, summed over sentences: the forward
    recursion alone, the same number that ``forward_backward`` returns."""
    sizes = _check(scores, transitions, batch_sizes)
    alphas = _forward(scores, transitions,
                      np.exp(transitions - transitions.max()), sizes)
    return float(_log_z(alphas, reversed_rows(sizes), sizes).sum())


def forward_backward(
    scores: np.ndarray, transitions: np.ndarray, batch_sizes=None
) -> tuple[float, np.ndarray, np.ndarray]:
    """(log Z summed over sentences, unary marginals [N, L], expected
    transition counts [L, L]).

    Unary rows sum to 1, and counts[i, j] sums the probability of label i
    followed by label j over all N - B adjacent token pairs (Sutton and
    McCallum 2012, *An Introduction to CRFs*, section 4.1).
    """
    sizes = _check(scores, transitions, batch_sizes)
    trans_max = transitions.max()
    exp_trans = np.exp(transitions - trans_max)
    alphas = _forward(scores, transitions, exp_trans, sizes)
    # each row's score plus its backward sum: the backward pass is the
    # forward one over the reversed sentences, with the moves reversed
    reverse = reversed_rows(sizes)
    ahead_rows = _forward(scores[reverse], transitions.T, exp_trans.T,
                          sizes)[reverse]
    log_z = _log_z(alphas, reverse, sizes)
    pred, succ = links(sizes)
    sentence = np.arange(len(alphas)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    row_log_z = log_z[sentence]
    behind = alphas[pred]
    ahead = ahead_rows[succ]
    # the unary marginals, alphas + (ahead_rows - scores), in ahead_rows's
    # buffer: the call holds at most about four [N, L] arrays at once
    ahead_rows -= scores
    unary = np.add(alphas, ahead_rows, out=ahead_rows)
    del alphas
    unary -= row_log_z[:, None]
    np.exp(unary, out=unary)
    if np.ptp(transitions) < PRODUCT_SPAN:
        # log Z is at least behind_max + ahead_max + trans_max - span, so
        # the rescaling factor is at most e^span and no product overflows;
        # einsum, not @: the sum over pairs ignores the BLAS thread count
        behind_max = behind.max(axis=1, keepdims=True)
        ahead_max = ahead.max(axis=1, keepdims=True)
        ahead -= ahead_max
        np.exp(ahead, out=ahead)
        ahead *= np.exp(behind_max + ahead_max + trans_max
                        - row_log_z[succ, None])
        behind -= behind_max
        np.exp(behind, out=behind)
        counts = exp_trans * np.einsum("ki,kj->ij", behind, ahead)
    else:
        pairwise = behind[:, :, None] + transitions
        pairwise += ahead[:, None, :]
        pairwise -= row_log_z[succ, None, None]
        np.exp(pairwise, out=pairwise)
        counts = pairwise.sum(axis=0)
    return float(log_z.sum()), unary, counts


def _log_z(alphas: np.ndarray, reverse: np.ndarray,
           sizes: np.ndarray) -> np.ndarray:
    """Each sentence's log Z from its forward rows: the reversal's first
    block is each sentence's last row, in order."""
    return logsumexp(alphas[reverse[: sizes[0]]], axis=1)


def _forward(scores: np.ndarray, transitions: np.ndarray,
             exp_trans: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Forward log-sums [N, L]: row r, label j is the log-sum-exp of the
    scores of every label path of r's sentence up to r that ends in j.
    ``exp_trans`` is ``exp(transitions - transitions.max())``."""
    counts = sizes.tolist()
    starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    alphas = scores.copy()
    product, trans_max = np.ptp(transitions) < PRODUCT_SPAN, transitions.max()
    for t in range(1, len(counts)):
        n, prev, cur = counts[t], starts[t - 1], starts[t]
        behind = alphas[prev : prev + n]
        if product:  # each row of the previous block rescaled by its max
            top = behind.max(axis=1, keepdims=True)
            alphas[cur : cur + n] += (np.log(np.exp(behind - top) @ exp_trans)
                                      + top + trans_max)
        else:
            alphas[cur : cur + n] += logsumexp(behind[:, :, None] + transitions,
                                               axis=1)
    return alphas


def nll_and_gradients(
    scores: np.ndarray, transitions: np.ndarray, gold: np.ndarray,
    batch_sizes=None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """(-log p(gold) summed over sentences, its gradient wrt scores [N, L],
    wrt transitions [L, L]): the unary marginals minus the gold one-hots,
    and the expected transition counts minus the gold ones."""
    log_z, unary, d_trans = forward_backward(scores, transitions, batch_sizes)
    gold = np.asarray(gold)
    pred, succ = links(packed_sizes(batch_sizes, scores.shape[0]))
    nll = log_z - _path_score(scores, transitions, gold, pred, succ)
    unary[np.arange(len(gold)), gold] -= 1.0
    L = transitions.shape[0]
    d_trans -= np.bincount(gold[pred] * L + gold[succ], minlength=L * L).reshape(L, L)
    return nll, unary, d_trans


def viterbi(
    scores: np.ndarray,
    transitions: np.ndarray,
    start_mask: np.ndarray | None = None,
    transition_mask: np.ndarray | None = None,
    batch_sizes=None,
) -> list[int]:
    """The label of every packed row on its sentence's exact argmax label
    sequence; ties break toward the lower label index.

    Optional boolean masks forbid labels at a sentence's first position
    (``start_mask``) or label-to-label moves (``transition_mask``);
    forbidden entries score -inf.
    """
    sizes = _check(scores, transitions, batch_sizes)
    counts = sizes.tolist()
    starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    trans = transitions.copy()
    if transition_mask is not None:
        trans[~transition_mask] = -np.inf
    delta = scores.copy()  # best score of a path ending in each row, label
    if start_mask is not None:
        delta[: counts[0], ~start_mask] = -np.inf
    backpointers = np.zeros(scores.shape, dtype=np.intp)
    for t in range(1, len(counts)):
        n, prev, cur = counts[t], starts[t - 1], starts[t]
        candidate = delta[prev : prev + n, :, None] + trans
        backpointers[cur : cur + n] = candidate.argmax(axis=1)
        delta[cur : cur + n] += candidate.max(axis=1)
    # the best last label where a sentence ends; the backtrack overwrites
    # every row whose sentence runs on
    path = delta.argmax(axis=1)
    for t in range(len(counts) - 1, 0, -1):
        n, prev, cur = counts[t], starts[t - 1], starts[t]
        path[prev : prev + n] = backpointers[np.arange(cur, cur + n),
                                             path[cur : cur + n]]
    return path.tolist()
