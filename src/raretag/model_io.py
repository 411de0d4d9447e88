"""Versioned binary model container plus a lossless text dump.

Layout: magic bytes, uint32 format version, uint64 header length, a JSON
header (model kind, metadata such as the label set and feature table, and
one entry per weight array with its section name and shape), then the raw
array payloads as little-endian float64 in header order. Files are
written to a temp file and atomically renamed so a failed save never
leaves a partial model behind.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .crf import CrfModel
from .embeddings import EmbeddingTable
from .lstm import GATES, LstmCell
from .neural import HEAD_CRF, BiLstmTagger

MAGIC = b"RARETAG\0"
VERSION = 1

KIND_CRF = "crf"
KIND_BILSTM = "bilstm"
KIND_BILSTM_CRF = "bilstm-crf"


class ModelFormatError(ValueError):
    pass


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _pack(kind: str, meta: dict, arrays: list[tuple[str, np.ndarray]]) -> bytes:
    header = {
        "kind": kind,
        "meta": meta,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", VERSION),
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
    return header["kind"], header["meta"], arrays


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
    arrays = []
    for gate in GATES:
        arrays.append((f"{prefix}.W_{gate}", cell.W[gate]))
        arrays.append((f"{prefix}.U_{gate}", cell.U[gate]))
        arrays.append((f"{prefix}.b_{gate}", cell.b[gate]))
    return arrays


def _tagger_payload(tagger: BiLstmTagger) -> tuple[str, dict, list]:
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


def save_model(model: CrfModel | BiLstmTagger, path: str | Path) -> None:
    if isinstance(model, CrfModel):
        kind, meta, arrays = _crf_payload(model)
    elif isinstance(model, BiLstmTagger):
        kind, meta, arrays = _tagger_payload(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    atomic_write_bytes(path, _pack(kind, meta, arrays))


def _load_cell(prefix: str, arrays: dict, input_dim: int,
               hidden_dim: int) -> LstmCell:
    W = {g: arrays[f"{prefix}.W_{g}"] for g in GATES}
    U = {g: arrays[f"{prefix}.U_{g}"] for g in GATES}
    b = {g: arrays[f"{prefix}.b_{g}"] for g in GATES}
    return LstmCell(input_dim, hidden_dim, W, U, b)


def load_model(path: str | Path) -> CrfModel | BiLstmTagger:
    kind, meta, arrays = _unpack(Path(path).read_bytes())
    if kind == KIND_CRF:
        feature_index = {f: i for i, f in enumerate(meta["features"])}
        return CrfModel(
            list(meta["label_set"]),
            feature_index,
            arrays["state_weights"],
            arrays["transition_weights"],
            int(meta["window"]),
        )
    if kind in (KIND_BILSTM, KIND_BILSTM_CRF):
        dim = int(meta["embedding_dim"])
        hidden = int(meta["hidden_dim"])
        table = EmbeddingTable(
            dim,
            {w: i for i, w in enumerate(meta["embedding_vocab"])},
            arrays["embedding.matrix"],
            meta["oov_policy"],
            int(meta["oov_seed"]),
        )
        return BiLstmTagger(
            list(meta["label_set"]),
            meta["head_kind"],
            table,
            bool(meta["embedding_trainable"]),
            _load_cell("fw", arrays, dim, hidden),
            _load_cell("bw", arrays, dim, hidden),
            arrays["head.W"],
            arrays["head.b"],
            arrays.get("transitions"),
        )
    raise ModelFormatError(f"unknown model kind {kind!r}")


def model_kind(path: str | Path) -> str:
    kind, _, _ = _unpack(Path(path).read_bytes())
    return kind


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
