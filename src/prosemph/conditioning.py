"""Phone-level conditioning tensors for a downstream acoustic model.

The linguistic matrix sums three expanded components (dependency-relation
embedding, POS embedding, projected semantic vectors); the emphasis matrix
carries the per-phone emphasis embedding. Both are exported in a bit-exact
binary container.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import Reader, Writer
from .corpus import DepAnnotation, EmphasisLabels, Utterance
from .embeddings import EmbeddingTable, SemanticProvider, lookup
from .errors import DimMismatchError, LengthMismatchError
from .graph import expand_char_to_phone, expand_word_to_char, graph2relation
from .tagset import Tagset

PCND_MAGIC = b"PCND"
PCND_VERSION = 1

COND_DIM_DEFAULT = 256


@dataclass(frozen=True)
class ConditioningBundle:
    utterance_id: str
    linguistic: np.ndarray  # [num_phones x cond_dim]
    emphasis: np.ndarray  # [num_phones x emph_dim]

    def __post_init__(self):
        if self.linguistic.shape[0] != self.emphasis.shape[0]:
            raise DimMismatchError("linguistic/emphasis row counts differ")
        if self.linguistic.shape[0] == 0:
            raise DimMismatchError("bundle must cover at least one phone")

    @property
    def num_phones(self) -> int:
        return self.linguistic.shape[0]

    @property
    def cond_dim(self) -> int:
        return self.linguistic.shape[1]

    @property
    def emph_dim(self) -> int:
        return self.emphasis.shape[1]


def build_linguistic(
    utt: Utterance,
    ann: DepAnnotation,
    provider: SemanticProvider,
    rel_table: EmbeddingTable,
    pos_table: EmbeddingTable,
    semantic_projection: np.ndarray,  # [sem_dim x cond_dim]
    tagset: Tagset,
) -> np.ndarray:
    """Summed phone-level linguistic embedding [num_phones x cond_dim]."""
    if rel_table.dim != pos_table.dim:
        raise DimMismatchError(
            f"relation dim {rel_table.dim} != POS dim {pos_table.dim}"
        )
    cond_dim = rel_table.dim
    if semantic_projection.shape != (provider.dim, cond_dim):
        raise DimMismatchError(
            f"semantic projection {semantic_projection.shape} incompatible with "
            f"sem dim {provider.dim}, cond dim {cond_dim}"
        )
    rel_ids = graph2relation(ann, tagset).relation_ids
    rel_vecs = expand_char_to_phone(
        expand_word_to_char(lookup(rel_table, rel_ids), utt), utt
    )
    pos_vecs = expand_char_to_phone(
        expand_word_to_char(lookup(pos_table, ann.pos_tags), utt), utt
    )
    sem = np.asarray(provider.rows(utt.id, utt.chars))
    sem_vecs = expand_char_to_phone(sem @ semantic_projection, utt)
    return rel_vecs + pos_vecs + sem_vecs


def build_emphasis(
    labels: EmphasisLabels, emph_table: EmbeddingTable, utt: Utterance
) -> np.ndarray:
    """Per-phone emphasis embedding [num_phones x emph_dim]."""
    if emph_table.vocab_size != 2:
        raise DimMismatchError("emphasis table must have exactly 2 rows")
    if len(labels.labels) != utt.num_chars:
        raise LengthMismatchError(
            f"{utt.id}: {len(labels.labels)} labels for {utt.num_chars} chars"
        )
    char_rows = lookup(emph_table, list(labels.labels))
    return expand_char_to_phone(char_rows, utt)


def export_bundle(bundle: ConditioningBundle, path) -> None:
    """Write a PCND container; layout in the README ("File formats")."""
    w = Writer(PCND_MAGIC, PCND_VERSION)
    w.pack("<III", bundle.cond_dim, bundle.emph_dim, bundle.num_phones)
    w.text(bundle.utterance_id)
    w.floats(bundle.linguistic)
    w.floats(bundle.emphasis)
    w.save(path)


def load_bundle(path) -> ConditioningBundle:
    r = Reader(path, PCND_MAGIC, PCND_VERSION)
    cond_dim, emph_dim, num_phones = r.unpack("<III")
    uid = r.text()
    ling = r.floats((num_phones, cond_dim))
    emph = r.floats((num_phones, emph_dim))
    r.done()
    return ConditioningBundle(utterance_id=uid, linguistic=ling, emphasis=emph)
