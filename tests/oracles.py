"""Independent oracles for the test suite.

These deliberately avoid the library's dynamic-programming and backprop
code paths: partition functions and argmax sequences come from explicit
enumeration over all label sequences, gradients from enumerated marginals
and from central finite differences, and span metrics from plain set
intersection.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace

import numpy as np

from raretag import chain
from raretag.brat import Document, EntityAnnotation, EntityType, SpanFragment
from raretag.iob import OUTSIDE, IobError, TaggedSentence, validate
from raretag.tokenizer import Sentence, tokenize_document


def enumerate_sequence_scores(
    scores: np.ndarray, transitions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(all label sequences [L^T, T], their scores [L^T]) by enumeration."""
    T, L = scores.shape
    seqs = np.array(list(itertools.product(range(L), repeat=T)), dtype=np.intp)
    totals = scores[np.arange(T), seqs].sum(axis=1)
    if T > 1:
        totals = totals + transitions[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
    return seqs, totals


def brute_log_partition(scores: np.ndarray, transitions: np.ndarray) -> float:
    _, totals = enumerate_sequence_scores(scores, transitions)
    m = totals.max()
    return float(m + np.log(np.exp(totals - m).sum()))


def log_partition_backward(scores: np.ndarray, transitions: np.ndarray) -> float:
    """log Z of one sentence via the backward recursion alone, as a
    cross-check of the library's forward pass."""

    def logsumexp(a, axis):
        m = np.max(a, axis=axis, keepdims=True)
        return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))

    beta = np.zeros(scores.shape[1])
    for t in range(scores.shape[0] - 1, 0, -1):
        beta = logsumexp(transitions + (scores[t] + beta)[None, :], axis=1)
    return float(logsumexp(scores[0] + beta, axis=0))


def allocating_forward_backward(scores: np.ndarray, transitions: np.ndarray,
                                batch_sizes=None):
    """``chain.forward_backward`` with a fresh array for every
    intermediate: the same float operations in the same order, so the
    in-place version must equal it bit for bit."""
    sizes = chain._check(scores, transitions, batch_sizes)
    trans_max = transitions.max()
    exp_trans = np.exp(transitions - trans_max)
    alphas = chain._forward(scores, transitions, exp_trans, sizes)
    reverse = chain.reversed_rows(sizes)
    ahead_rows = chain._forward(scores[reverse], transitions.T, exp_trans.T,
                                sizes)[reverse]
    log_z = chain.logsumexp(alphas[reverse[: sizes[0]]], axis=1)
    pred, succ = chain.links(sizes)
    sentence = np.arange(len(alphas)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    row_log_z = log_z[sentence]
    unary = alphas + (ahead_rows - scores)
    unary -= row_log_z[:, None]
    np.exp(unary, out=unary)
    behind = alphas[pred]
    ahead = ahead_rows[succ]
    if np.ptp(transitions) < chain.PRODUCT_SPAN:
        behind_max = behind.max(axis=1, keepdims=True)
        ahead_max = ahead.max(axis=1, keepdims=True)
        ahead -= ahead_max
        np.exp(ahead, out=ahead)
        ahead *= np.exp(behind_max + ahead_max + trans_max
                        - row_log_z[succ, None])
        counts = exp_trans * np.einsum("ki,kj->ij",
                                       np.exp(behind - behind_max), ahead)
    else:
        pairwise = behind[:, :, None] + transitions
        pairwise += ahead[:, None, :]
        pairwise -= row_log_z[succ, None, None]
        np.exp(pairwise, out=pairwise)
        counts = pairwise.sum(axis=0)
    return float(log_z.sum()), unary, counts


def brute_viterbi(
    scores: np.ndarray, transitions: np.ndarray, tie_tol: float = 1e-9
) -> tuple[list[int], float, int]:
    """(lexicographically-first argmax, max score, number of near-ties).

    When ties > 1 the argmax is not unique and implementations may
    legitimately return any maximizer.
    """
    seqs, totals = enumerate_sequence_scores(scores, transitions)
    best = int(np.argmax(totals))  # product() yields lexicographic order
    ties = int(np.sum(totals >= totals[best] - tie_tol))
    return [int(v) for v in seqs[best]], float(totals[best]), ties


@functools.lru_cache
def _accepted(label_set: tuple[str, ...], length: int) -> np.ndarray:
    """Whether ``iob.validate`` accepts each sequence, in the order of
    ``enumerate_sequence_scores``."""
    return np.array([not validate(list(seq))
                     for seq in itertools.product(label_set, repeat=length)])


def brute_valid_viterbi(
    scores: np.ndarray, transitions: np.ndarray, label_set: list[str],
    tie_tol: float = 1e-9,
) -> tuple[list[str], int]:
    """(the highest-scoring label sequence that ``iob.validate`` accepts,
    the number of accepted sequences within ``tie_tol`` of its score)."""
    seqs, totals = enumerate_sequence_scores(scores, transitions)
    totals = np.where(_accepted(tuple(label_set), len(scores)), totals, -np.inf)
    best = int(np.argmax(totals))
    ties = int(np.sum(totals >= totals[best] - tie_tol))
    return [label_set[i] for i in seqs[best]], ties


def brute_unary_marginals(scores: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    seqs, totals = enumerate_sequence_scores(scores, transitions)
    weights = np.exp(totals - totals.max())
    weights /= weights.sum()
    T, L = scores.shape
    marg = np.zeros((T, L))
    for t in range(T):
        for y in range(L):
            marg[t, y] = weights[seqs[:, t] == y].sum()
    return marg


def brute_pairwise_marginals(scores: np.ndarray,
                             transitions: np.ndarray) -> np.ndarray:
    """[T-1, L, L]: entry [t, i, j] is p(label i at t, label j at t+1)."""
    seqs, totals = enumerate_sequence_scores(scores, transitions)
    weights = np.exp(totals - totals.max())
    weights /= weights.sum()
    T, L = scores.shape
    marg = np.zeros((max(T - 1, 0), L, L))
    for t in range(T - 1):
        np.add.at(marg[t], (seqs[:, t], seqs[:, t + 1]), weights)
    return marg


def brute_nll_gradients(scores: np.ndarray, transitions: np.ndarray,
                        gold: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of -log p(gold) for one sentence wrt scores [T, L] and
    transitions [L, L], by enumeration: the unary marginals minus the gold
    one-hots, and the summed pairwise marginals minus the gold transition
    counts."""
    d_scores = brute_unary_marginals(scores, transitions)
    d_scores[np.arange(len(gold)), gold] -= 1.0
    d_trans = brute_pairwise_marginals(scores, transitions).sum(axis=0)
    np.add.at(d_trans, (gold[:-1], gold[1:]), -1.0)
    return d_scores, d_trans


def row_major_state_gradient(d_scores: np.ndarray, features: np.ndarray,
                             F: int) -> np.ndarray:
    """The CRF's [F, L] state gradient as one ``np.bincount`` per label over
    the [N, K] feature rows read row by row, which repeats each label's
    column K times; the sentinel row F is dropped."""
    K = features.shape[1]
    return np.array([np.bincount(features.ravel(), np.repeat(column, K),
                                 minlength=F + 1)[:F]
                     for column in d_scores.T]).T


def central_difference_gradient(fun, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        f_plus = fun()
        flat[i] = old - step
        f_minus = fun()
        flat[i] = old
        out[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def max_relative_error(
    analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6
) -> float:
    """max |a-n| / max(|a|, |n|, floor); the floor keeps near-zero entries
    from turning finite-difference noise into spurious relative error."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def span_set(tags: list[str]) -> set[tuple[str, int, int]]:
    """Independent span extractor: contiguous same-type runs where an
    entity opens at B-X or at an I-X that cannot continue the previous
    position's entity."""
    spans = set()
    current = None  # (type, start)
    for i, tag in enumerate(tags):
        if tag == "O":
            if current:
                spans.add((current[0], current[1], i))
                current = None
            continue
        prefix, name = tag.split("-", 1)
        if current and prefix == "I" and name == current[0]:
            continue
        if current:
            spans.add((current[0], current[1], i))
        current = (name, i)
    if current:
        spans.add((current[0], current[1], len(tags)))
    return spans


def brute_span_prf(
    gold: list[list[str]], pred: list[list[str]]
) -> dict[str, tuple[int, int, int]]:
    """type -> (tp, fp, fn) via plain set intersection across sentences."""
    counts: dict[str, list[int]] = {}
    for idx, (g_tags, p_tags) in enumerate(zip(gold, pred)):
        g = {(idx,) + s for s in span_set(g_tags)}
        p = {(idx,) + s for s in span_set(p_tags)}
        for _, name, _, _ in g & p:
            counts.setdefault(name, [0, 0, 0])[0] += 1
        for _, name, _, _ in p - g:
            counts.setdefault(name, [0, 0, 0])[1] += 1
        for _, name, _, _ in g - p:
            counts.setdefault(name, [0, 0, 0])[2] += 1
    return {k: tuple(v) for k, v in counts.items()}


def brute_token_counts(
    gold: list[list[str]], pred: list[list[str]]
) -> dict[str, tuple[int, int, int]]:
    counts: dict[str, list[int]] = {}
    for g_tags, p_tags in zip(gold, pred):
        for g, p in zip(g_tags, p_tags):
            if g == p and g != "O":
                counts.setdefault(g, [0, 0, 0])[0] += 1
            elif g != p:
                if p != "O":
                    counts.setdefault(p, [0, 0, 0])[1] += 1
                if g != "O":
                    counts.setdefault(g, [0, 0, 0])[2] += 1
    return {k: tuple(v) for k, v in counts.items()}


def random_valid_iob(rng: np.random.Generator, types: list[str],
                     length: int) -> list[str]:
    tags: list[str] = []
    i = 0
    while i < length:
        if rng.random() < 0.5:
            tags.append("O")
            i += 1
            continue
        name = types[rng.integers(len(types))]
        run = int(rng.integers(1, min(4, length - i) + 1))
        tags.append(f"B-{name}")
        tags.extend([f"I-{name}"] * (run - 1))
        i += run
    return tags[:length]


def random_tags(rng: np.random.Generator, types: list[str],
                length: int) -> list[str]:
    """Arbitrary tags, valid or not."""
    universe = ["O"] + [f"{p}-{t}" for t in types for p in "BI"]
    return [universe[rng.integers(len(universe))] for _ in range(length)]


def brute_resolve_overlaps(doc: Document) -> Document:
    """``brat.resolve_overlaps`` by testing each candidate against every kept
    entity in rank order: the winner is the first kept one that overlaps."""
    ranked = sorted(
        doc.entities, key=lambda e: (-e.covered_length(), e.start, e.id)
    )
    kept: list[EntityAnnotation] = []
    log = list(doc.resolution_log)
    for ent in ranked:
        winner = next((k for k in kept if k.overlaps(ent)), None)
        if winner is None:
            kept.append(ent)
        else:
            log.append(
                f"{doc.doc_id}: dropped {ent.id} ({ent.type.value} "
                f"{ent.start}-{ent.end}), overlaps {winner.id}"
            )
    kept.sort(key=lambda e: (e.start, e.id))
    return replace(doc, entities=kept, resolution_log=log)


def brute_encode(sentence: Sentence,
                 entities: list[EntityAnnotation]) -> TaggedSentence:
    """``iob.encode`` by testing every token against every fragment."""
    tags = [OUTSIDE] * len(sentence.tokens)
    claimed: dict[int, str] = {}
    for ent in entities:
        covered = [
            i for i, tok in enumerate(sentence.tokens)
            if any(tok.start < f.end and f.start < tok.end
                   for f in ent.fragments)
        ]
        for idx in covered:
            if idx in claimed:
                raise IobError(
                    f"token {idx} claimed by both {claimed[idx]} and {ent.id}; "
                    "entities must be overlap-resolved before encoding"
                )
            claimed[idx] = ent.id
        for k, idx in enumerate(covered):
            tags[idx] = f"{'I' if k else 'B'}-{ent.type.value}"
    return TaggedSentence(list(sentence.tokens), tags)


_WORDS = ["Anemia-like", "skin", "rash", "(severe)", "hyperkeratosis", "of",
          "e.g.", "fever,", "Velmora", "it's", "\"pain\""]
_ENDS = [". ", "? ", ".\n\n", ". \n", "! ", ", ", "; "]


def random_brat_document(rng: np.random.Generator,
                         max_sentences: int = 5) -> Document:
    """A short document with entities drawn to stress overlap resolution and
    encoding: random fragments (nested and crossing), copies and shifts of
    earlier ones, discontinuous entities, fragments that cross a sentence
    break, and pairs of character-disjoint entities inside one token."""
    parts = []
    for _ in range(int(rng.integers(1, max_sentences + 1))):
        words = [_WORDS[i] for i in rng.integers(len(_WORDS),
                                                 size=int(rng.integers(1, 7)))]
        parts.append(" ".join(words) + _ENDS[rng.integers(len(_ENDS))])
    text = "".join(parts)
    n = len(text)
    tokens = [t for s in tokenize_document(text) for t in s.tokens]
    spans: list[list[tuple[int, int]]] = []
    for _ in range(int(rng.integers(0, 10))):
        kind = rng.integers(6)
        if kind == 0 or not spans:  # anywhere, often across a break
            s = int(rng.integers(n))
            spans.append([(s, int(rng.integers(s + 1, min(n, s + 40) + 1)))])
        elif kind == 1:  # nested in, or crossing, an earlier fragment
            a, b = spans[rng.integers(len(spans))][0]
            s = int(np.clip(a + rng.integers(-3, 4), 0, n - 1))
            e = int(np.clip(b + rng.integers(-3, 4), s + 1, n))
            spans.append([(s, e)])
        elif kind == 2:  # an exact copy, so the id breaks the tie
            spans.append(list(spans[rng.integers(len(spans))]))
        elif kind == 3:  # discontinuous; fragments may touch
            cuts = sorted(int(c) for c in rng.integers(n + 1, size=4))
            frags = [(cuts[0], cuts[1]), (cuts[2], cuts[3])]
            if all(a < b for a, b in frags):
                spans.append(frags)
        elif kind == 4 and tokens:  # whole tokens
            i = int(rng.integers(len(tokens)))
            j = min(len(tokens) - 1, i + int(rng.integers(3)))
            spans.append([(tokens[i].start, tokens[j].end)])
        elif tokens:  # two entities sharing one token, disjoint in characters
            tok = tokens[rng.integers(len(tokens))]
            if tok.end - tok.start > 1:
                cut = int(rng.integers(tok.start + 1, tok.end))
                spans += [[(tok.start, cut)], [(cut, tok.end)]]
    ids = rng.permutation(len(spans) * 2)[:len(spans)] + 1
    types = list(EntityType)
    entities = [
        EntityAnnotation(f"T{i}", types[rng.integers(len(types))],
                         tuple(SpanFragment(s, e) for s, e in frags), "")
        for i, frags in zip(ids, spans)
    ]
    return Document("doc", text, entities)
