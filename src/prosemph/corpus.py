"""Corpus file formats and cross-file validation.

One utterance is stored as a set of sibling files in a corpus directory:

    <id>.utt.json   text, word spans, phone counts, character time spans
    <id>.ann.json   POS tags, dependency heads and relation types
    <id>.lab.tsv    per-character binary emphasis labels with confidences

All JSON files hold a single UTF-8 object on one line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    CyclicDependencyError,
    InconsistentAlignmentError,
    MalformedFileError,
    OutputWriteError,
    WordCountMismatchError,
)
from .tagset import RESERVED_RELATIONS, Tagset

LABEL_SOURCES = ("human", "pseudo", "predicted")


@dataclass(frozen=True)
class Utterance:
    id: str
    chars: tuple[str, ...]
    word_spans: tuple[tuple[int, int], ...]
    phones_per_char: tuple[int, ...]
    char_times: tuple[tuple[float, float], ...]

    @property
    def num_chars(self) -> int:
        return len(self.chars)

    @property
    def num_words(self) -> int:
        return len(self.word_spans)

    @property
    def num_phones(self) -> int:
        return sum(self.phones_per_char)

    def validate(self) -> None:
        n = len(self.chars)
        if n == 0:
            raise InconsistentAlignmentError(f"{self.id}: utterance has no characters")
        expect = 0
        for s, e in self.word_spans:
            if s != expect or e <= s:
                raise InconsistentAlignmentError(
                    f"{self.id}: word_spans do not partition [0,{n}) (span ({s},{e}))"
                )
            expect = e
        if expect != n:
            raise InconsistentAlignmentError(
                f"{self.id}: word_spans cover [0,{expect}) but utterance has {n} chars"
            )
        if len(self.phones_per_char) != n:
            raise InconsistentAlignmentError(
                f"{self.id}: phones_per_char has {len(self.phones_per_char)} entries for {n} chars"
            )
        if any(p < 1 for p in self.phones_per_char):
            raise InconsistentAlignmentError(f"{self.id}: phones_per_char must all be >= 1")
        if len(self.char_times) != n:
            raise InconsistentAlignmentError(
                f"{self.id}: char_times has {len(self.char_times)} entries for {n} chars"
            )
        prev_end = 0.0
        for s, e in self.char_times:
            if not 0 <= s <= e < math.inf:
                raise InconsistentAlignmentError(
                    f"{self.id}: bad char time interval ({s},{e})"
                )
            if s < prev_end - 1e-9:
                raise InconsistentAlignmentError(
                    f"{self.id}: char_times overlap at interval ({s},{e})"
                )
            prev_end = e


@dataclass(frozen=True)
class DepAnnotation:
    utterance_id: str
    pos_tags: tuple[int, ...]
    heads: tuple[int | None, ...]
    relations: tuple[int, ...]

    @property
    def num_words(self) -> int:
        return len(self.heads)

    def root_words(self) -> list[int]:
        return [w for w, h in enumerate(self.heads) if h is None]

    def validate(self, utt: Utterance, tagset: Tagset) -> None:
        n = utt.num_words
        if not (len(self.pos_tags) == len(self.heads) == len(self.relations)):
            raise MalformedFileError(
                f"{self.utterance_id}: pos/heads/rels lengths disagree"
            )
        if len(self.heads) != n:
            raise WordCountMismatchError(
                f"{self.utterance_id}: annotation has {len(self.heads)} words, utterance has {n}"
            )
        roots = self.root_words()
        if not roots:
            raise CyclicDependencyError(f"{self.utterance_id}: no root word")
        for w, h in enumerate(self.heads):
            if h is not None and (h == w or not 0 <= h < n):
                raise MalformedFileError(
                    f"{self.utterance_id}: word {w} has invalid head {h}"
                )
        for w in roots:
            if self.relations[w] != tagset.root_id:
                raise MalformedFileError(
                    f"{self.utterance_id}: root word {w} does not carry the ROOT relation"
                )
        reserved = {tagset.rel[name]: name for name in RESERVED_RELATIONS}
        for w, (h, r) in enumerate(zip(self.heads, self.relations)):
            if h is not None and r in reserved:
                raise MalformedFileError(f"{self.utterance_id}: dependent word {w} carries "
                                         f"the reserved relation {reserved[r]}")
        # walking heads from every word must terminate at a root
        for start in range(n):
            seen = set()
            w = start
            while self.heads[w] is not None:
                if w in seen:
                    raise CyclicDependencyError(
                        f"{self.utterance_id}: cycle through word {w}"
                    )
                seen.add(w)
                w = self.heads[w]


@dataclass(frozen=True)
class EmphasisLabels:
    utterance_id: str
    labels: tuple[int, ...]
    confidences: tuple[float, ...]
    source: str

    def validate(self, num_chars: int | None = None) -> None:
        if self.source not in LABEL_SOURCES:
            raise MalformedFileError(
                f"{self.utterance_id}: unknown label source {self.source!r}"
            )
        if len(self.labels) != len(self.confidences):
            raise MalformedFileError(
                f"{self.utterance_id}: labels/confidences lengths disagree"
            )
        if num_chars is not None and len(self.labels) != num_chars:
            raise InconsistentAlignmentError(
                f"{self.utterance_id}: {len(self.labels)} labels for {num_chars} chars"
            )
        if any(l not in (0, 1) for l in self.labels):
            raise MalformedFileError(f"{self.utterance_id}: labels must be 0 or 1")
        if any(not 0.0 <= c <= 1.0 for c in self.confidences):
            raise MalformedFileError(f"{self.utterance_id}: confidences must be in [0,1]")


# ---------------------------------------------------------------------------
# loaders / savers


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except FileNotFoundError as exc:
        raise MalformedFileError(f"{path}: no such file") from exc
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedFileError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedFileError(f"{path}: expected a JSON object")
    return obj


def _exact(values, field: str, kinds=(int,)) -> tuple:
    """A JSON array's entries, each exactly of one of `kinds`: int() reads 0.9 as 0."""
    for v in values:
        if type(v) not in kinds:
            raise TypeError(f"{field}: expected {' or '.join(k.__name__ for k in kinds)}, "
                            f"got {v!r}")
    return tuple(values)


def load_utterance(path) -> Utterance:
    obj = _read_json(path)
    try:
        utt = Utterance(
            id=_exact((obj["id"],), "id", (str,))[0],
            chars=_exact(obj["chars"], "chars", (str,)),
            word_spans=tuple(_exact(span, "word_spans") for span in obj["word_spans"]),
            phones_per_char=_exact(obj["phones_per_char"], "phones_per_char"),
            char_times=tuple((float(s), float(e)) for s, e in (
                _exact(t, "char_times", (int, float)) for t in obj["char_times"])),
        )
        utt.validate()  # a word span that is not a pair fails here too
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedFileError(f"{path}: bad utterance schema ({exc})") from exc
    return utt


def save_utterance(utt: Utterance, path) -> None:
    obj = {
        "id": utt.id,
        "chars": list(utt.chars),
        "word_spans": [list(s) for s in utt.word_spans],
        "phones_per_char": list(utt.phones_per_char),
        "char_times": [list(t) for t in utt.char_times],
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(obj, ensure_ascii=False) + "\n")


def load_annotation(path, utt: Utterance, tagset: Tagset) -> DepAnnotation:
    obj = _read_json(path)
    try:
        ann = DepAnnotation(
            utterance_id=_exact((obj["utterance_id"],), "utterance_id", (str,))[0],
            pos_tags=tuple(tagset.pos_ids(_exact(obj["pos"], "pos", (str,)))),
            heads=_exact(obj["heads"], "heads", (int, type(None))),
            relations=tuple(tagset.rel_ids(_exact(obj["rels"], "rels", (str,)))),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedFileError(f"{path}: bad annotation schema ({exc})") from exc
    if ann.utterance_id != utt.id:
        raise MalformedFileError(
            f"{path}: annotation is for {ann.utterance_id!r}, expected {utt.id!r}"
        )
    ann.validate(utt, tagset)
    return ann


def save_annotation(ann: DepAnnotation, tagset: Tagset, path) -> None:
    pos_by_id = {v: k for k, v in tagset.pos.items()}
    rel_by_id = {v: k for k, v in tagset.rel.items()}
    obj = {
        "utterance_id": ann.utterance_id,
        "pos": [pos_by_id[t] for t in ann.pos_tags],
        "heads": list(ann.heads),
        "rels": [rel_by_id[r] for r in ann.relations],
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(obj, ensure_ascii=False) + "\n")


def load_labels(path, utterance_id: str, num_chars: int | None = None) -> EmphasisLabels:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    except FileNotFoundError as exc:
        raise MalformedFileError(f"{path}: no such file") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFileError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].startswith("#source="):
        raise MalformedFileError(f"{path}: missing '#source=' header")
    source = lines[0][len("#source="):].strip()
    rows = []
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 3:
            raise MalformedFileError(f"{path}: bad row {ln!r}")
        try:
            rows.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise MalformedFileError(f"{path}: bad row {ln!r} ({exc})") from exc
    if not rows:
        raise MalformedFileError(f"{path}: no label rows")
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(len(rows))):
        raise MalformedFileError(f"{path}: char indices are not dense 0..n-1")
    lab = EmphasisLabels(
        utterance_id=utterance_id,
        labels=tuple(r[1] for r in rows),
        confidences=tuple(r[2] for r in rows),
        source=source,
    )
    lab.validate(num_chars)
    return lab


def save_labels(lab: EmphasisLabels, path) -> None:
    """Write <id>.lab.tsv; OutputWriteError, writing nothing, on a confidence
    that is not finite."""
    for i, c in enumerate(lab.confidences):
        if not math.isfinite(c):
            raise OutputWriteError(f"cannot write {Path(path).name}: "
                                   f"confidence of char {i} is not finite")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"#source={lab.source}\n")
        for i, (l, c) in enumerate(zip(lab.labels, lab.confidences)):
            f.write(f"{i}\t{l}\t{c:.6f}\n")


# ---------------------------------------------------------------------------
# corpus items


def load_item_utterance(corpus_dir, uid: str) -> Utterance:
    """Read <uid>.utt.json of a corpus directory; it must declare the id `uid`."""
    utt = load_utterance(Path(corpus_dir) / f"{uid}.utt.json")
    if utt.id != uid:
        raise MalformedFileError(f"{uid}.utt.json declares id {utt.id!r}")
    return utt


def load_item(corpus_dir, uid: str, tagset: Tagset) -> tuple[Utterance, DepAnnotation]:
    """Read and cross-check one corpus item: its utterance and the
    <uid>.ann.json that annotates it."""
    utt = load_item_utterance(corpus_dir, uid)
    return utt, load_annotation(Path(corpus_dir) / f"{uid}.ann.json", utt, tagset)


def corpus_ids(corpus_dir, suffix: str = ".utt.json") -> list[str]:
    """The sorted ids of the <id><suffix> files in a directory."""
    return sorted(p.name[: -len(suffix)] for p in Path(corpus_dir).glob(f"*{suffix}"))
