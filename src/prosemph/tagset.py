"""POS and dependency-relation inventories with dense integer ids.

The default relation inventory carries 14 dependency relations plus the
reserved ROOT, BOS and EOS ids (17 in total); SEQ is an 18th, internal id
used only for intra-word sequential edges in the character graph.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import MalformedFileError

DEFAULT_RELATIONS = [
    "SBV", "VOB", "IOB", "FOB", "DBL", "ATT", "ADV",
    "CMP", "COO", "POB", "LAD", "RAD", "IS", "WP",
]

DEFAULT_POS = [
    "n", "v", "a", "d", "p", "q", "m", "r", "c", "u",
    "w", "nt", "ns", "nh", "i", "b", "o", "e", "g", "h",
    "j", "k", "x", "z",
]


@dataclass(frozen=True)
class Tagset:
    """Bidirectional tag <-> id mapping for POS tags and DP relations."""

    pos: dict[str, int]
    rel: dict[str, int]

    @property
    def root_id(self) -> int:
        return self.rel["ROOT"]

    @property
    def bos_id(self) -> int:
        return self.rel["BOS"]

    @property
    def eos_id(self) -> int:
        return self.rel["EOS"]

    @property
    def seq_id(self) -> int:
        return self.rel["SEQ"]

    @property
    def num_relations(self) -> int:
        """Size of the full relation inventory, SEQ included."""
        return len(self.rel)

    @property
    def num_pos(self) -> int:
        return len(self.pos)

    def pos_ids(self, tags: list[str]) -> list[int]:
        try:
            return [self.pos[t] for t in tags]
        except KeyError as exc:
            raise MalformedFileError(f"unknown POS tag {exc.args[0]!r}") from None

    def rel_ids(self, tags: list[str]) -> list[int]:
        try:
            return [self.rel[t] for t in tags]
        except KeyError as exc:
            raise MalformedFileError(f"unknown relation {exc.args[0]!r}") from None

    def version_hash(self) -> str:
        """Stable hex digest of the inventory, stored in checkpoints."""
        blob = json.dumps({"pos": self.pos, "rel": self.rel}, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def default_tagset() -> Tagset:
    pos = {tag: i for i, tag in enumerate(DEFAULT_POS)}
    rel = {tag: i for i, tag in enumerate(DEFAULT_RELATIONS)}
    for reserved in ("ROOT", "BOS", "EOS", "SEQ"):
        rel[reserved] = len(rel)
    return Tagset(pos=pos, rel=rel)


def load_tagset(path) -> Tagset:
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except (OSError, ValueError) as exc:
        raise MalformedFileError(f"cannot read tagset {path}: {exc}") from exc
    if not isinstance(obj, dict) or "pos" not in obj or "rel" not in obj:
        raise MalformedFileError(f"tagset {path} missing 'pos'/'rel' maps")
    try:
        rel = {str(k): int(v) for k, v in obj["rel"].items()}
        pos = {str(k): int(v) for k, v in obj["pos"].items()}
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedFileError(f"tagset {path}: 'pos'/'rel' must map tags to "
                                 f"integer ids ({exc})") from exc
    for reserved in ("ROOT", "BOS", "EOS", "SEQ"):
        if reserved not in rel:
            raise MalformedFileError(f"tagset {path} missing reserved id {reserved}")
    for name, mapping in (("pos", pos), ("rel", rel)):
        if sorted(mapping.values()) != list(range(len(mapping))):
            raise MalformedFileError(f"tagset {path}: {name} ids are not dense 0..n-1")
    return Tagset(pos=pos, rel=rel)
