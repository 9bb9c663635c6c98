"""Dependency-graph machinery.

Serializes a dependency parse to one relation label per word, lifts the
word-level parse to a character-level directed graph with BOS/EOS nodes
(the graph-network input), and provides the word->char and char->phone
length regulators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DepAnnotation, Utterance
from .errors import LengthMismatchError
from .tagset import Tagset

DIR_OUT = 0
DIR_IN = 1


@dataclass(frozen=True)
class CharGraph:
    """Character-level labeled digraph. Node 0 is BOS, node c + 1 is char c
    and the last node is EOS; every stored out-edge (u, v, r, out) has a
    mirrored (v, u, r, in) entry."""

    num_nodes: int
    edges: np.ndarray  # int64 [E x 4], rows (src, dst, relation_id, dir)


@dataclass(frozen=True)
class RelationSequence:
    relation_ids: tuple[int, ...]  # one per word; ROOT id at root words


def graph2relation(ann: DepAnnotation, tagset: Tagset) -> RelationSequence:
    """One relation per word: the type of its single out edge, ROOT for roots."""
    ids = tuple(
        tagset.root_id if head is None else rel
        for head, rel in zip(ann.heads, ann.relations)
    )
    return RelationSequence(relation_ids=ids)


def build_char_graph(utt: Utterance, ann: DepAnnotation, tagset: Tagset) -> CharGraph:
    """Lift the word-level parse to a character graph.

    Edges (each with an in-direction mirror):
      - sequential intra-word char_i -> char_{i+1} labeled SEQ
      - first char of dependent word -> first char of head word, labeled
        with the dependency relation
      - BOS -> first char of first word (BOS relation); last char of last
        word -> EOS (EOS relation)
    """
    num_nodes = utt.num_chars + 2

    def node(char_idx: int) -> int:
        return char_idx + 1

    edges: list[tuple[int, int, int, int]] = []

    def add(u: int, v: int, r: int) -> None:
        edges.append((u, v, r, DIR_OUT))
        edges.append((v, u, r, DIR_IN))

    for s, e in utt.word_spans:
        for c in range(s, e - 1):
            add(node(c), node(c + 1), tagset.seq_id)
    first_char = {w: s for w, (s, e) in enumerate(utt.word_spans)}
    for w, head in enumerate(ann.heads):
        if head is not None:
            add(node(first_char[w]), node(first_char[head]), ann.relations[w])
    add(0, node(utt.word_spans[0][0]), tagset.bos_id)
    add(node(utt.word_spans[-1][1] - 1), num_nodes - 1, tagset.eos_id)
    return CharGraph(num_nodes, np.array(edges, dtype=np.int64))


def disjoint_union(graphs) -> CharGraph:
    """All `graphs` side by side as one graph (minibatch packing).

    The nodes of each graph follow those of the graphs before it, so no
    edge joins two of them and each keeps its own BOS/EOS nodes.
    """
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    edges = np.concatenate([g.edges + (off, off, 0, 0) for g, off in zip(graphs, offsets)])
    return CharGraph(int(offsets[-1]), edges)


def expand_word_to_char(values: np.ndarray, utt: Utterance) -> np.ndarray:
    """Repeat each word's row once per character in its span."""
    values = np.asarray(values)
    if len(values) != utt.num_words:
        raise LengthMismatchError(
            f"{utt.id}: {len(values)} word rows for {utt.num_words} words"
        )
    counts = [e - s for s, e in utt.word_spans]
    return np.repeat(values, counts, axis=0)


def expand_char_to_phone(values: np.ndarray, utt: Utterance) -> np.ndarray:
    """Repeat each character's row phones_per_char times."""
    values = np.asarray(values)
    if len(values) != utt.num_chars:
        raise LengthMismatchError(
            f"{utt.id}: {len(values)} char rows for {utt.num_chars} chars"
        )
    return np.repeat(values, utt.phones_per_char, axis=0)
