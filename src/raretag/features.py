"""Windowed token/lemma/PoS feature templates for the linear CRF.

For each offset in a +/-`window` range around the target position, four
attributes are emitted (surface, lowercased surface, lemma, PoS), plus one
constant bias feature. Out-of-range offsets use the BOS/EOS sentinels so
the feature count per token is always 4 * (2 * window + 1) + 1.

``extract_features`` states the templates as strings such as
``w[-1]=the``. The CRF featurizes, indexes and scores tokens without
building those strings: each token's four ``attribute_values`` are
integer ids (``BOS`` and ``EOS`` are ids 0 and 1, whether sentinel or
token; training interns them with ``encoding.Encoder``, tagging looks
them up in the model's values), and ``window_keys``, the one keying core,
turns them into one int64 key per feature, ``slot * V + value`` with
``slot = (d + window) * 4 + kind`` and ``V`` above every value id;
``bias`` is slot ``4 * (2 * window + 1)``. ``template_keys`` and
``key_names`` convert feature names to keys and back, so a model file
keeps its names.
"""

from __future__ import annotations

import numpy as np

from .settings import DEFAULT_WINDOW
from .tokenizer import Sentence, Token

BOS = "BOS"
EOS = "EOS"

# name prefixes of the four attributes, in template order
ATTRIBUTES = ("w", "wl", "lemma", "pos")
BIAS = "bias"


def features_per_token(window: int) -> int:
    return 4 * (2 * window + 1) + 1


def _fmt_offset(d: int) -> str:
    return f"+{d}" if d > 0 else str(d)


def extract_features(
    sentence: Sentence, index: int, window: int = DEFAULT_WINDOW
) -> list[str]:
    """Feature strings for one token position, e.g. ``w[-1]=the``."""
    n = len(sentence.tokens)
    if not 0 <= index < n:
        raise IndexError(f"token index {index} out of range for {n} tokens")
    features = []
    for d in range(-window, window + 1):
        pos = index + d
        if 0 <= pos < n:
            values = attribute_values(sentence.tokens[pos])
        else:
            values = (BOS if pos < 0 else EOS,) * 4
        features.extend(f"{attribute}[{_fmt_offset(d)}]={value}"
                        for attribute, value in zip(ATTRIBUTES, values))
    features.append(BIAS)
    return features


def sentence_features(
    sentence: Sentence, window: int = DEFAULT_WINDOW
) -> list[list[str]]:
    return [
        extract_features(sentence, i, window) for i in range(len(sentence.tokens))
    ]


def attribute_values(token: Token) -> tuple[str, str, str, str]:
    """The token's surface, lowercase, lemma and PoS, in template order."""
    return token.surface, token.surface.lower(), token.lemma, token.pos


def window_keys(ids: np.ndarray, lengths, V: int, window: int) -> np.ndarray:
    """[T, features_per_token(window)] int64 keys of the features of tokens
    with these [T, 4] ``attribute_values`` ids, in sentences of these
    ``lengths``, in ``extract_features`` order; ``V`` is above every id."""
    T, K, S = len(ids), features_per_token(window), len(lengths)
    # every sentence's rows, each between `window` BOS and `window` EOS rows
    shift = 2 * window * np.arange(S)
    row = np.arange(T) + np.repeat(shift + window, lengths)
    eos = np.cumsum(lengths, dtype=np.intp) + shift + window
    padded = np.zeros((T + 2 * window * S, 4), np.int64)  # BOS
    padded[(eos[:, None] + np.arange(window)).ravel()] = 1  # EOS
    padded[row] = ids
    keys = np.zeros((T, K), np.int64)
    for block in range(2 * window + 1):  # one offset's four slots at a time
        keys[:, 4 * block : 4 * block + 4] = padded[row + block - window]
    keys += np.arange(K, dtype=np.int64) * V
    return keys


def sentence_keys(sentences, values: dict[str, int], window: int) -> np.ndarray:
    """The ``window_keys`` of the sentences over the value ids ``values``; a
    value not in it gets id ``len(values)``, which no name's key holds."""
    unseen = len(values)
    ids = [values.get(value, unseen) for sentence in sentences
           for tok in sentence.tokens for value in attribute_values(tok)]
    return window_keys(np.array(ids, np.int64).reshape(-1, 4),
                       [len(s.tokens) for s in sentences], unseen + 1, window)


def template_keys(names, window: int
                  ) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """The value ids of the names that ``extract_features`` with this window
    emits, and those names' ``window_keys`` over them with their positions
    in ``names``; a name of any other shape has no key."""
    slots, held, positions = [], [], []
    for position, name in enumerate(names):
        # an attribute and an offset hold no "]=", so a template's first
        # "]=" ends its head
        head, sep, value = name.partition("]=")
        attribute, _, offset = head.partition("[")
        slot = _slot(attribute, offset, window) if sep else None
        if name == BIAS:  # the one feature without a value
            slot, value = 4 * (2 * window + 1), BOS
        if slot is not None:
            slots.append(slot)
            held.append(value)
            positions.append(position)
    values = {value: i for i, value in
              enumerate(dict.fromkeys([BOS, EOS, *held]))}
    keys = (np.array(slots, np.int64) * (len(values) + 1)
            + np.array([values[value] for value in held], np.int64))
    return values, keys, np.array(positions, np.intp)


def _slot(attribute: str, offset: str, window: int) -> int | None:
    if attribute not in ATTRIBUTES:
        return None
    try:
        d = int(offset)
    except ValueError:
        return None
    if abs(d) > window or _fmt_offset(d) != offset:
        return None
    return (d + window) * 4 + ATTRIBUTES.index(attribute)


def key_names(keys: np.ndarray, values: list[str], window: int) -> list[str]:
    """The feature names of ``window_keys`` over the value ids of
    ``values``, in order; the inverse of ``template_keys``."""
    names = []
    for key in keys.tolist():
        slot, value = divmod(key, len(values) + 1)
        block, kind = divmod(slot, 4)
        names.append(BIAS if block == 2 * window + 1 else
                     f"{ATTRIBUTES[kind]}[{_fmt_offset(block - window)}]"
                     f"={values[value]}")
    return names
