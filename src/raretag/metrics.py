"""Token- and entity-level precision/recall/F1 with three averages.

Token level scores every non-O tag as its own class (exact tag match);
entity level decodes both sides to typed spans and requires type, start
and end to all match. Micro pools counts over classes, macro is the
unweighted mean over classes with gold support, weighted is the
support-weighted mean. Zero denominators give 0, never NaN. Token-level
accuracy additionally counts O positions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import iob

TOKEN = "token"
ENTITY = "entity"


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class LabelScores:
    precision: float
    recall: float
    f1: float
    support: int


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


@dataclass
class EvalReport:
    granularity: str  # "token" or "entity"
    per_label: dict[str, LabelScores]
    micro: LabelScores
    macro: LabelScores
    weighted: LabelScores
    accuracy: float | None = None  # token level only, O inclusive

    def metric(self, name: str) -> float:
        """Look up e.g. "micro_f1", "accuracy" or "RAREDISEASE_f1"."""
        if name == "accuracy":
            if self.accuracy is None:
                raise EvalError("accuracy is only defined at token level")
            return self.accuracy
        target, _, field_name = name.rpartition("_")
        aliases = {"p": "precision", "r": "recall"}
        field_name = aliases.get(field_name, field_name)
        if field_name not in ("precision", "recall", "f1"):
            raise EvalError(f"unknown metric name {name!r}")
        sources = {"micro": self.micro, "macro": self.macro,
                   "weighted": self.weighted, **self.per_label}
        if target not in sources:
            raise EvalError(f"unknown metric target {target!r}")
        return getattr(sources[target], field_name)


def _aggregate(counts: dict[str, list[int]], granularity: str,
               accuracy: float | None) -> EvalReport:
    per_label = {}
    for label in sorted(counts):
        tp, fp, fn = counts[label]
        p, r, f1 = _prf(tp, fp, fn)
        per_label[label] = LabelScores(p, r, f1, tp + fn)

    tp_all, fp_all, fn_all = map(sum, zip([0, 0, 0], *counts.values()))
    support = tp_all + fn_all
    micro = LabelScores(*_prf(tp_all, fp_all, fn_all), support)

    with_support = [s for s in per_label.values() if s.support > 0]
    macro = _mean(with_support, [1] * len(with_support))
    weighted = _mean(with_support, [s.support for s in with_support])
    return EvalReport(granularity, per_label, micro, macro, weighted, accuracy)


def _mean(scores: list[LabelScores], weights: list[int]) -> LabelScores:
    """The weighted mean of each score, with the scores' summed support;
    all zeros for no scores."""
    if not scores:
        return LabelScores(0.0, 0.0, 0.0, 0)
    total = sum(weights)
    p, r, f1 = (sum(value * w for value, w in zip(column, weights)) / total
                for column in zip(*((s.precision, s.recall, s.f1)
                                    for s in scores)))
    return LabelScores(p, r, f1, sum(s.support for s in scores))


def _check_shapes(gold: list[list[str]], pred: list[list[str]]) -> None:
    if len(gold) != len(pred):
        raise EvalError(
            f"gold has {len(gold)} sequences but pred has {len(pred)}"
        )
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise EvalError(
                f"sequence {i}: gold length {len(g)} != pred length {len(p)}"
            )


def _count(gold_items: set[tuple], pred_items: set[tuple]
           ) -> dict[str, list[int]]:
    """[tp, fp, fn] of each label over items labelled by their last field."""
    counts: dict[str, list[int]] = {}
    for column, items in enumerate((gold_items & pred_items,
                                    pred_items - gold_items,
                                    gold_items - pred_items)):
        for item in items:
            counts.setdefault(item[-1], [0, 0, 0])[column] += 1
    return counts


def token_level(gold: list[list[str]], pred: list[list[str]]) -> EvalReport:
    """Per-tag scores over all non-O tags; O is excluded from the rows and
    from every average but contributes to accuracy."""
    _check_shapes(gold, pred)
    flat_gold, flat_pred = ([tag for seq in seqs for tag in seq]
                            for seqs in (gold, pred))
    correct = sum(g == p for g, p in zip(flat_gold, flat_pred))
    accuracy = correct / len(flat_gold) if flat_gold else 0.0
    gold_items, pred_items = ({(position, tag) for position, tag
                               in enumerate(flat) if tag != iob.OUTSIDE}
                              for flat in (flat_gold, flat_pred))
    return _aggregate(_count(gold_items, pred_items), TOKEN, accuracy)


def entity_level(gold: list[list[str]], pred: list[list[str]]) -> EvalReport:
    """Exact-span scores per entity type after IOB2 decoding of both sides."""
    _check_shapes(gold, pred)
    gold_spans, pred_spans = ({(idx, s.token_start, s.token_end, s.type)
                               for idx, seq in enumerate(seqs)
                               for s in iob.decode(seq)}
                              for seqs in (gold, pred))
    return _aggregate(_count(gold_spans, pred_spans), ENTITY, None)


def _rows(report: EvalReport) -> list[tuple[str, LabelScores]]:
    rows = [(label, report.per_label[label]) for label in sorted(report.per_label)]
    rows.append(("micro-avg", report.micro))
    rows.append(("macro-avg", report.macro))
    rows.append(("macro-weighted", report.weighted))
    return rows


def report_render(report: EvalReport, fmt: str = "table") -> str:
    """Render deterministically with 4-decimal fixed formatting."""
    rows = _rows(report)
    if fmt == "table":
        width = max(len(name) for name, _ in rows)
        lines = [
            f"{'Label':<{width}}  Precision  Recall  F1-score  Support"
        ]
        for name, s in rows:
            lines.append(
                f"{name:<{width}}  {s.precision:9.4f}  {s.recall:6.4f}  "
                f"{s.f1:8.4f}  {s.support:7d}"
            )
        if report.accuracy is not None:
            lines.append(f"{'accuracy':<{width}}  {report.accuracy:9.4f}")
        return "\n".join(lines) + "\n"
    if fmt == "tsv":
        lines = ["label\tprecision\trecall\tf1\tsupport"]
        for name, s in rows:
            lines.append(
                f"{name}\t{s.precision:.4f}\t{s.recall:.4f}\t{s.f1:.4f}\t{s.support}"
            )
        if report.accuracy is not None:
            lines.append(f"accuracy\t{report.accuracy:.4f}\t\t\t")
        return "\n".join(lines) + "\n"
    if fmt == "json-lines":
        lines = []
        for name, s in rows:
            lines.append(json.dumps({
                "label": name,
                "precision": round(s.precision, 4),
                "recall": round(s.recall, 4),
                "f1": round(s.f1, 4),
                "support": s.support,
            }, sort_keys=True))
        if report.accuracy is not None:
            lines.append(json.dumps(
                {"label": "accuracy", "value": round(report.accuracy, 4)},
                sort_keys=True,
            ))
        return "\n".join(lines) + "\n"
    raise EvalError(f"unknown report format {fmt!r}")
