"""Phone-level conditioning tensors for a downstream acoustic model.

The linguistic matrix sums three components (dependency-relation embedding,
POS embedding, projected semantic vectors) at phone resolution; the emphasis
matrix carries the per-phone emphasis embedding. A run draws its `Tables`
once; both matrices are exported in a bit-exact binary container.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import Reader, Writer
from .corpus import DepAnnotation, EmphasisLabels, Utterance
from .embeddings import SemanticProvider
from .errors import DimMismatchError
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


@dataclass(frozen=True)
class Tables:
    """The conditioning tables of one run, indexed by the tagset's dense ids."""

    rel: np.ndarray  # [num_relations x cond_dim]
    pos: np.ndarray  # [num_pos x cond_dim]
    emph: np.ndarray  # [2 x emph_dim]
    projection: np.ndarray  # [sem_dim x cond_dim]


def table_shapes(tagset: Tagset, sem_dim: int, cond_dim: int, emph_dim: int):
    """The shapes of the `Tables` fields, in their order."""
    return ((tagset.num_relations, cond_dim), (tagset.num_pos, cond_dim),
            (2, emph_dim), (sem_dim, cond_dim))


def draw_tables(
    tagset: Tagset, sem_dim: int, cond_dim: int, emph_dim: int, seed: int
) -> Tables:
    """Each table uniform in [-0.1, 0.1] as float32, the k-th from seed + k."""
    return Tables(*(
        np.random.default_rng(seed + k).uniform(-0.1, 0.1, shape).astype(np.float32)
        for k, shape in enumerate(table_shapes(tagset, sem_dim, cond_dim, emph_dim))
    ))


def build_linguistic(
    utt: Utterance,
    ann: DepAnnotation,
    provider: SemanticProvider,
    tables: Tables,
    tagset: Tagset,
) -> np.ndarray:
    """Summed phone-level linguistic embedding [num_phones x cond_dim]: each
    word's relation and POS rows, repeated per char, plus the projected
    semantic rows."""
    rel_ids = graph2relation(ann, tagset).relation_ids
    words = tables.rel[list(rel_ids)] + tables.pos[list(ann.pos_tags)]
    sem = np.asarray(provider.rows(utt.id, utt.chars)) @ tables.projection
    return expand_char_to_phone(expand_word_to_char(words, utt) + sem, utt)


def build_emphasis(labels: EmphasisLabels, tables: Tables, utt: Utterance) -> np.ndarray:
    """Per-phone emphasis embedding [num_phones x emph_dim]."""
    return expand_char_to_phone(tables.emph[list(labels.labels)], utt)


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
