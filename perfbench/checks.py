"""Output checks.  Each raises CheckError with a one-line reason.

These decide whether a run is correct; none of them is a metric.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from prosemph import conditioning, corpus
from prosemph.errors import ProsemphError
from prosemph.model import PredictorModel


class CheckError(Exception):
    pass


def label_recovery(out_dir: Path, truth: dict, near_s: float,
                   min_hit: float = 0.95, max_spurious: float = 0.1) -> dict:
    """Criterion 2's bounds on the labels written by `label`.

    truth maps id -> (Utterance, injected char index, audio seconds).  At
    least `min_hit` of the injected characters must be labeled.  A label
    on another character counts against `max_spurious` per utterance when
    that character lies more than `near_s` seconds from the injected one.
    Criterion 2 itself, on 5-char utterances, counts every other label;
    beyond ~7 chars the widest scored wavelet also lifts the injected
    character's neighbours above threshold, so that strict count is
    returned as a figure instead.
    """
    hits = strict = far = 0
    for uid, (utt, injected, _) in truth.items():
        try:
            labels = corpus.load_labels(out_dir / f"{uid}.lab.tsv", uid).labels
        except ProsemphError as exc:
            raise CheckError(f"label: {uid}: {type(exc).__name__}: {exc}")
        if len(labels) != utt.num_chars:
            raise CheckError(f"label: {uid}: {len(labels)} labels for "
                             f"{utt.num_chars} chars")
        hits += labels[injected]
        s0, e0 = utt.char_times[injected]
        for i, lab in enumerate(labels):
            if lab and i != injected:
                strict += 1
                s, e = utt.char_times[i]
                far += max(s - e0, s0 - e) > near_s
    n = len(truth)
    if hits < min_hit * n:
        raise CheckError(f"label: {hits}/{n} injected characters hit")
    if far > max_spurious * n:
        raise CheckError(f"label: {far / n:.3f} spurious labels per utterance "
                         f"beyond {near_s:.2f} s of the injected character")
    return {"hit_frac": hits / n, "spurious_per_utt": strict / n,
            "far_spurious_per_utt": far / n}


def train_outputs(train_dir: Path, tagset, provider, epochs: int) -> None:
    """Every epoch loss is finite and model.pemo loads."""
    try:
        lines = (train_dir / "train_log.ldjson").read_text(encoding="utf-8").split("\n")
        losses = [json.loads(ln)["loss"] for ln in lines if ln.strip()]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"train: unreadable train_log.ldjson ({exc})")
    if len(losses) != epochs:
        raise CheckError(f"train: {len(losses)} epoch records, expected {epochs}")
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in losses):
        raise CheckError(f"train: non-finite epoch loss in {losses}")
    try:
        PredictorModel.load(train_dir / "model.pemo", tagset, provider)
    except Exception as exc:  # a corrupt checkpoint can leak raw struct/JSON errors
        raise CheckError(f"train: model.pemo does not load ({type(exc).__name__}: {exc})")


def predicted_labels(pred_dir: Path, utts: dict) -> None:
    """One predicted label per character for every utterance."""
    for uid, utt in utts.items():
        try:
            lab = corpus.load_labels(pred_dir / f"{uid}.lab.tsv", uid)
        except ProsemphError as exc:
            raise CheckError(f"predict: {uid}: {type(exc).__name__}: {exc}")
        if len(lab.labels) != utt.num_chars:
            raise CheckError(f"predict: {uid}: {len(lab.labels)} labels for "
                             f"{utt.num_chars} chars")


def evaluation(eval_dir: Path, gold_positives: int) -> None:
    """metrics.json accounts for every gold-positive character."""
    try:
        m = json.loads((eval_dir / "metrics.json").read_text(encoding="utf-8"))
        counted = m["tp"] + m["fn"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"evaluate: unreadable metrics.json ({exc})")
    if counted != gold_positives:
        raise CheckError(f"evaluate: tp+fn = {counted}, gold positives {gold_positives}")


def bundles(cond_dir: Path, utts: dict) -> None:
    """Every <id>.cond.bin loads back and covers the utterance's phones."""
    for uid, utt in utts.items():
        try:
            b = conditioning.load_bundle(cond_dir / f"{uid}.cond.bin")
        except ProsemphError as exc:
            raise CheckError(f"condition: {uid}: {type(exc).__name__}: {exc}")
        if b.utterance_id != uid or b.num_phones != utt.num_phones:
            raise CheckError(f"condition: {uid}: bundle for {b.utterance_id} with "
                             f"{b.num_phones} phones, expected {utt.num_phones}")


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file below root
    except manifest.json, which carries wall-clock data."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            h.update(str(p.relative_to(root)).encode("utf-8") + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()
