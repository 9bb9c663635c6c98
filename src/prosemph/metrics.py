"""Character-level evaluation and confidence-based pseudo-label filtering."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import EmphasisLabels
from .errors import LengthMismatchError, UtteranceSetMismatchError


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f_score: float
    tp: int
    fp: int
    fn: int


def evaluate(
    predicted: dict[str, EmphasisLabels], gold: dict[str, EmphasisLabels]
) -> Metrics:
    """Micro-averaged precision/recall/F over pooled character decisions."""
    if set(predicted) != set(gold):
        missing = set(gold) ^ set(predicted)
        raise UtteranceSetMismatchError(
            f"predicted and gold cover different utterances: {sorted(missing)[:5]}"
        )
    tp = fp = fn = 0
    for uid in sorted(gold):
        p, g = predicted[uid], gold[uid]
        if len(p.labels) != len(g.labels):
            raise LengthMismatchError(
                f"{uid}: predicted {len(p.labels)} labels, gold {len(g.labels)}"
            )
        for pl, gl in zip(p.labels, g.labels):
            if pl == 1 and gl == 1:
                tp += 1
            elif pl == 1:
                fp += 1
            elif gl == 1:
                fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Metrics(precision=precision, recall=recall, f_score=f, tp=tp, fp=fp, fn=fn)


def filter_by_confidence(
    pseudo: EmphasisLabels, predicted: EmphasisLabels, tau: float = 0.9
) -> bool:
    """Keep an utterance iff the predictor reproduces every pseudo label and
    its least confident character is at or above tau."""
    if pseudo.utterance_id != predicted.utterance_id:
        raise LengthMismatchError(
            f"labels for different utterances: {pseudo.utterance_id} vs "
            f"{predicted.utterance_id}"
        )
    if len(pseudo.labels) != len(predicted.labels):
        raise LengthMismatchError(
            f"{pseudo.utterance_id}: {len(pseudo.labels)} pseudo vs "
            f"{len(predicted.labels)} predicted labels"
        )
    if pseudo.labels != predicted.labels:
        return False
    return min(predicted.confidences) >= tau
