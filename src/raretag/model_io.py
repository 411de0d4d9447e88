"""Versioned binary model container plus a lossless text dump.

Layout: magic bytes, uint32 format version, uint64 header length, a JSON
header (model kind, metadata such as the label set and feature table, and
one entry per weight array with its section name and shape), then the raw
array payloads as little-endian float64 in header order. Files are
written with ``atomic.atomic_write_bytes``, so a failed save never leaves
a partial model behind and concurrent writers never share a temp file.
The writer is the one grammar: a file loads only if saving the model built
from it writes it back byte for byte, and the model constructors check the
values.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .atomic import atomic_write_bytes
from .crf import CrfModel

if TYPE_CHECKING:  # imported where a BiLSTM model is built or saved
    from .lstm import LstmCell
    from .neural import BiLstmTagger

MAGIC = b"RARETAG\0"
VERSION = 1

KIND_CRF = "crf"
KIND_BILSTM = "bilstm"
KIND_BILSTM_CRF = "bilstm-crf"


class ModelFormatError(ValueError):
    pass


def _pack(kind: str, meta: dict, arrays: list, version: int = VERSION) -> bytes:
    header = {
        "kind": kind,
        "meta": meta,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", version),
             struct.pack("<Q", len(header_bytes)), header_bytes]
    for _, a in arrays:
        parts.append(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return b"".join(parts)


def _unpack(data: bytes) -> tuple[str, dict, dict[str, np.ndarray]]:
    if data[: len(MAGIC)] != MAGIC:
        raise ModelFormatError("not a raretag model file (bad magic bytes)")
    offset = len(MAGIC) + 12
    if len(data) < offset:
        raise ModelFormatError("truncated model file: short header")
    version, header_len = struct.unpack_from("<IQ", data, len(MAGIC))
    if version != VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    if len(data) - offset < header_len:
        raise ModelFormatError("truncated model file: incomplete header")
    try:
        header = json.loads(data[offset : offset + header_len].decode("utf-8"))
        kind, meta = header["kind"], header["meta"]
        if not isinstance(meta, dict):  # dump_text reads it by key
            raise TypeError("meta is not an object")
        shapes = [(e["name"], [int(d) for d in e["shape"]]) for e in header["arrays"]]
    except (ValueError, KeyError, TypeError) as err:
        raise ModelFormatError(f"corrupt model header: {err}") from None
    offset += header_len
    arrays = {}
    for name, shape in shapes:
        count = math.prod(shape)
        if min(shape, default=0) < 0 or len(data) - offset < 8 * count:
            raise ModelFormatError(f"array {name!r}: bad shape or truncated payload")
        raw = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        arrays[name] = raw.reshape(shape).astype(np.float64)
        offset += 8 * count
    if offset != len(data):
        raise ModelFormatError("trailing bytes after weight payload")
    return kind, meta, arrays


def _crf_payload(model: CrfModel) -> tuple[str, dict, list]:
    features = sorted(model.feature_index, key=model.feature_index.get)
    meta = {
        "label_set": model.label_set,
        "features": features,
        "window": model.window,
    }
    arrays = [
        ("state_weights", model.state_weights),
        ("transition_weights", model.transition_weights),
    ]
    return KIND_CRF, meta, arrays


def _cell_arrays(prefix: str, cell: LstmCell) -> list[tuple[str, np.ndarray]]:
    """The fused weights' gate row blocks, stored as one array each."""
    from .lstm import GATES
    H = cell.hidden_dim
    return [(f"{prefix}.{name}_{gate}", weights[k * H : (k + 1) * H])
            for k, gate in enumerate(GATES)
            for name, weights in cell.parameters().items()]


def _tagger_payload(tagger: BiLstmTagger) -> tuple[str, dict, list]:
    from .neural import HEAD_CRF
    words = sorted(tagger.embedding.vocab, key=tagger.embedding.vocab.get)
    meta = {
        "label_set": tagger.label_set,
        "head_kind": tagger.head_kind,
        "hidden_dim": tagger.hidden_dim,
        "embedding_dim": tagger.embedding.dim,
        "embedding_vocab": words,
        "embedding_trainable": tagger.embedding_trainable,
        "oov_policy": tagger.embedding.oov_policy,
        "oov_seed": tagger.embedding.seed,
    }
    arrays = [("embedding.matrix", tagger.embedding.matrix)]
    arrays += _cell_arrays("fw", tagger.forward_cell)
    arrays += _cell_arrays("bw", tagger.backward_cell)
    arrays.append(("head.W", tagger.head_W))
    arrays.append(("head.b", tagger.head_b))
    kind = KIND_BILSTM
    if tagger.head_kind == HEAD_CRF:
        kind = KIND_BILSTM_CRF
        arrays.append(("transitions", tagger.transitions))
    return kind, meta, arrays


def _payload(model: CrfModel | BiLstmTagger) -> tuple[str, dict, list]:
    if isinstance(model, CrfModel):
        return _crf_payload(model)
    from .neural import BiLstmTagger
    if isinstance(model, BiLstmTagger):
        return _tagger_payload(model)
    raise TypeError(f"cannot serialize {type(model).__name__}")


def save_model(model: CrfModel | BiLstmTagger, path: str | Path) -> None:
    atomic_write_bytes(path, _pack(*_payload(model)))


def _load_cell(prefix: str, arrays: dict, input_dim: int,
               hidden_dim: int) -> LstmCell:
    from .lstm import GATES, LstmCell
    W, U, b = (np.concatenate([arrays[f"{prefix}.{name}_{g}"] for g in GATES])
               for name in "WUb")
    return LstmCell(input_dim, hidden_dim, W, U, b)


def _build(kind: str, meta: dict, arrays: dict) -> CrfModel | BiLstmTagger:
    if kind == KIND_CRF:
        return CrfModel(
            list(meta["label_set"]),
            {f: i for i, f in enumerate(meta["features"])},
            arrays["state_weights"],
            arrays["transition_weights"],
            meta["window"],
        )
    from .embeddings import EmbeddingTable
    from .neural import BiLstmTagger
    dim, hidden = meta["embedding_dim"], meta["hidden_dim"]
    table = EmbeddingTable(
        dim,
        {w: i for i, w in enumerate(meta["embedding_vocab"])},
        arrays["embedding.matrix"],
        meta["oov_policy"],
        meta["oov_seed"],
    )
    return BiLstmTagger(
        list(meta["label_set"]),
        meta["head_kind"],
        table,
        meta["embedding_trainable"],
        _load_cell("fw", arrays, dim, hidden),
        _load_cell("bw", arrays, dim, hidden),
        arrays["head.W"],
        arrays["head.b"],
        arrays.get("transitions"),
    )


def load_model(path: str | Path) -> CrfModel | BiLstmTagger:
    """Read a model file that saving its model, at the file's format version,
    writes back byte for byte; any other file raises ModelFormatError."""
    data = Path(path).read_bytes()
    kind, meta, arrays = _unpack(data)
    version, = struct.unpack_from("<I", data, len(MAGIC))
    try:
        model = _build(kind, meta, arrays)
        saved = _pack(*_payload(model), version)
    except (KeyError, TypeError, AttributeError) as err:
        raise ModelFormatError(f"corrupt model header: {err!r}") from None
    except ValueError as err:  # shapes, duplicate names, non-finite weights
        raise ModelFormatError(f"invalid {kind} model: {err}") from None
    if saved != data:
        raise ModelFormatError(f"corrupt model header: saving the {kind} model "
                               f"writes other fields or arrays")
    return model


def dump_text(path: str | Path) -> str:
    """Lossless, diff-friendly text rendering of a model file."""
    kind, meta, arrays = _unpack(Path(path).read_bytes())
    lines = [f"kind: {kind}", "meta:"]
    for key in sorted(meta):
        lines.append(f"  {key}: {json.dumps(meta[key], sort_keys=True)}")
    for name in arrays:
        a = arrays[name]
        lines.append(f"array {name} shape={list(a.shape)}")
        for value in a.ravel():
            lines.append(f"  {float(value).hex()}")
    return "\n".join(lines) + "\n"
