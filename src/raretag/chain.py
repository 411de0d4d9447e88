"""Linear-chain dynamic programs over dense score matrices.

All routines take state scores ``[N, L]`` and a transition matrix
``[L, L]`` (``trans[i, j]`` scores label i followed by label j). Shared by
the feature-based CRF and the neural CRF output head. The forward
recursion, log Z and Viterbi work in natural-log space with the
log-sum-exp trick, so they stay stable for score magnitudes up to about
1e3. ``forward_backward`` runs its backward recursion and forms the
pairwise marginals in probability space, rescaled at every position (the
scaled forward-backward of Rabiner 1989, section V.A), while the
transitions span less than ``PRODUCT_SPAN``; wider transitions take the
log-space path.

``forward_backward``, ``nll_and_gradients``, ``sequence_score`` and
``viterbi`` score or decode a batch of sentences in one packed, time-major
layout (PyTorch's ``PackedSequence`` convention): sentences are sorted
longest first, and the rows of position t are one contiguous block of
``batch_sizes[t]`` sentences, in the same order in every block.
``batch_sizes=None`` means one sentence of N tokens, on the same code
path; it is the only form ``log_partition`` takes. ``pack``, ``links`` and
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
# in probability space: every rescaled backward sum is then at least
# e^-600 and every pairwise rescaling factor at most e^600, both inside
# float64's normal range (about e^-708 to e^709).
PRODUCT_SPAN = 600.0


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    # ndarray methods, not np.max/np.sum: the recursions call this on small
    # blocks, where the wrappers' Python overhead outweighs the arithmetic.
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


def log_partition(scores: np.ndarray, transitions: np.ndarray) -> float:
    """log Z over all L^T label sequences of one sentence."""
    return forward_backward(scores, transitions)[0]


def forward_backward(
    scores: np.ndarray, transitions: np.ndarray, batch_sizes=None
) -> tuple[float, np.ndarray, np.ndarray]:
    """(log Z summed over sentences, unary marginals [N, L], pairwise
    marginals [N - B, L, L]).

    Unary rows sum to 1. Pairwise row k is the probability of each label
    pair at successor row ``batch_sizes[0] + k`` and its predecessor
    (``[T-1, L, L]`` for one sentence): pairwise[k, i, j] is label i at
    the predecessor followed by label j.
    """
    sizes = _check(scores, transitions, batch_sizes)
    counts = sizes.tolist()
    starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    alphas = np.empty_like(scores)
    betas = np.zeros_like(scores)
    alphas[: counts[0]] = scores[: counts[0]]
    for t in range(1, len(counts)):
        n, prev, cur = counts[t], starts[t - 1], starts[t]
        alphas[cur : cur + n] = scores[cur : cur + n] + logsumexp(
            alphas[prev : prev + n, :, None] + transitions, axis=1
        )
    product = np.ptp(transitions) < PRODUCT_SPAN
    if product:
        trans_max = transitions.max()
        exp_trans = np.exp(transitions - trans_max)
    for t in range(len(counts) - 1, 0, -1):
        n, prev, cur = counts[t], starts[t - 1], starts[t]
        ahead = scores[cur : cur + n] + betas[cur : cur + n]
        if product:
            ahead_max = ahead.max(axis=1, keepdims=True)
            betas[prev : prev + n] = np.log(
                np.exp(ahead - ahead_max) @ exp_trans.T) + (ahead_max + trans_max)
        else:
            betas[prev : prev + n] = logsumexp(transitions + ahead[:, None, :],
                                               axis=2)
    N = scores.shape[0]
    pred, succ = links(sizes)
    sentence = np.arange(N) - np.repeat(starts[:-1], sizes)
    last = np.ones(N, dtype=bool)
    last[pred] = False
    log_z = np.empty(counts[0])
    log_z[sentence[last]] = logsumexp(alphas[last], axis=1)
    row_log_z = log_z[sentence]
    unary = alphas + betas
    unary -= row_log_z[:, None]
    np.exp(unary, out=unary)
    behind = alphas[pred]
    ahead = scores[succ] + betas[succ]
    if product:
        # log Z is at least behind_max + ahead_max + trans_max - span, so
        # the rescaling factor is at most e^span and no product overflows
        behind_max = behind.max(axis=1, keepdims=True)
        ahead_max = ahead.max(axis=1, keepdims=True)
        ahead -= ahead_max
        np.exp(ahead, out=ahead)
        ahead *= np.exp(behind_max + ahead_max + trans_max
                        - row_log_z[succ, None])
        pairwise = np.exp(behind - behind_max)[:, :, None] * exp_trans
        pairwise *= ahead[:, None, :]
    else:
        pairwise = behind[:, :, None] + transitions
        pairwise += ahead[:, None, :]
        pairwise -= row_log_z[succ, None, None]
        np.exp(pairwise, out=pairwise)
    return float(log_z.sum()), unary, pairwise


def nll_and_gradients(
    scores: np.ndarray, transitions: np.ndarray, gold: np.ndarray,
    batch_sizes=None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """(-log p(gold) summed over sentences, its gradient wrt scores [N, L],
    wrt transitions [L, L]): marginals minus the gold one-hots and
    transition counts."""
    log_z, unary, pairwise = forward_backward(scores, transitions, batch_sizes)
    gold = np.asarray(gold)
    pred, succ = links(packed_sizes(batch_sizes, scores.shape[0]))
    nll = log_z - _path_score(scores, transitions, gold, pred, succ)
    unary[np.arange(len(gold)), gold] -= 1.0
    L = transitions.shape[0]
    d_trans = pairwise.sum(axis=0)
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
