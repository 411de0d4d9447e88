"""Linear-chain dynamic programs over dense score matrices.

All routines take per-position state scores ``[T, L]`` and a transition
matrix ``[L, L]`` (``trans[i, j]`` scores label i followed by label j) and
work in natural-log space with the log-sum-exp trick, so they stay stable
for score magnitudes up to about 1e3. Shared by the feature-based CRF and
the neural CRF output head.
"""

from __future__ import annotations

import numpy as np


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out


def _check(scores: np.ndarray, transitions: np.ndarray) -> None:
    if scores.ndim != 2 or scores.shape[0] == 0:
        raise ValueError("scores must be a non-empty [T, L] matrix")
    L = scores.shape[1]
    if transitions.shape != (L, L):
        raise ValueError(
            f"transition matrix {transitions.shape} does not match {L} labels"
        )


def sequence_score(
    scores: np.ndarray, transitions: np.ndarray, labels: list[int] | np.ndarray
) -> float:
    """Unnormalized log score of one label sequence."""
    _check(scores, transitions)
    labels = np.asarray(labels)
    if labels.shape[0] != scores.shape[0]:
        raise ValueError("label sequence length does not match scores")
    total = float(np.sum(scores[np.arange(len(labels)), labels]))
    total += float(np.sum(transitions[labels[:-1], labels[1:]]))
    return total


def forward_log_alphas(scores: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    _check(scores, transitions)
    T = scores.shape[0]
    alphas = np.empty_like(scores)
    alphas[0] = scores[0]
    for t in range(1, T):
        alphas[t] = scores[t] + logsumexp(alphas[t - 1][:, None] + transitions, axis=0)
    return alphas


def backward_log_betas(scores: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    _check(scores, transitions)
    T = scores.shape[0]
    betas = np.zeros_like(scores)
    for t in range(T - 2, -1, -1):
        betas[t] = logsumexp(
            transitions + (scores[t + 1] + betas[t + 1])[None, :], axis=1
        )
    return betas


def log_partition(scores: np.ndarray, transitions: np.ndarray) -> float:
    """log Z over all L^T label sequences, via the forward recursion."""
    return float(logsumexp(forward_log_alphas(scores, transitions)[-1], axis=0))


def log_partition_backward(scores: np.ndarray, transitions: np.ndarray) -> float:
    """log Z via the backward recursion (cross-check of the forward pass)."""
    betas = backward_log_betas(scores, transitions)
    return float(logsumexp(scores[0] + betas[0], axis=0))


def forward_backward(
    scores: np.ndarray, transitions: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """(log Z, unary marginals [T, L], pairwise marginals [T-1, L, L]).

    Unary rows sum to 1; pairwise[t, i, j] is the probability of label i
    at t followed by label j at t+1.
    """
    alphas = forward_log_alphas(scores, transitions)
    betas = backward_log_betas(scores, transitions)
    log_z = float(logsumexp(alphas[-1], axis=0))
    unary = np.exp(alphas + betas - log_z)
    pairwise = np.exp(
        alphas[:-1, :, None]
        + transitions
        + (scores[1:] + betas[1:])[:, None, :]
        - log_z
    )
    return log_z, unary, pairwise


def nll_and_gradients(
    scores: np.ndarray, transitions: np.ndarray, gold: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """(-log p(gold), its gradient wrt scores [T, L], wrt transitions [L, L]):
    marginals minus the gold one-hots and transition counts."""
    log_z, unary, pairwise = forward_backward(scores, transitions)
    nll = log_z - sequence_score(scores, transitions, gold)
    unary[np.arange(len(gold)), gold] -= 1.0
    d_trans = pairwise.sum(axis=0)
    np.add.at(d_trans, (gold[:-1], gold[1:]), -1.0)
    return nll, unary, d_trans


def viterbi(
    scores: np.ndarray,
    transitions: np.ndarray,
    start_mask: np.ndarray | None = None,
    transition_mask: np.ndarray | None = None,
) -> list[int]:
    """Exact argmax label sequence; ties break toward the lower label index.

    Optional boolean masks forbid labels at the first position
    (``start_mask``) or label-to-label moves (``transition_mask``);
    forbidden entries score -inf.
    """
    _check(scores, transitions)
    T, L = scores.shape
    trans = transitions.copy()
    if transition_mask is not None:
        trans[~transition_mask] = -np.inf
    delta = scores[0].copy()
    if start_mask is not None:
        delta[~start_mask] = -np.inf
    backpointers = np.zeros((T, L), dtype=np.intp)
    for t in range(1, T):
        candidate = delta[:, None] + trans
        backpointers[t] = np.argmax(candidate, axis=0)
        delta = scores[t] + candidate[backpointers[t], np.arange(L)]
    best = int(np.argmax(delta))
    path = [best]
    for t in range(T - 1, 0, -1):
        best = int(backpointers[t][best])
        path.append(best)
    path.reverse()
    return path
