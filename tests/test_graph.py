import itertools

import numpy as np
import pytest

from prosemph import corpus, graph
from prosemph.errors import LengthMismatchError

from conftest import random_utterance


def test_graph2relation_direct(tagset, tiny_ann):
    seq = graph.graph2relation(tiny_ann, tagset)
    assert seq.relation_ids == (tagset.rel["SBV"], tagset.root_id)


def test_graph2relation_single_root_word(tagset):
    ann = corpus.DepAnnotation("s", (0,), (None,), (tagset.root_id,))
    assert graph.graph2relation(ann, tagset).relation_ids == (tagset.root_id,)


def oracle_graph2relation(ann, tagset):
    """Walk an explicit edge list, independently of the implementation."""
    edges = [(w, h, r) for w, (h, r) in enumerate(zip(ann.heads, ann.relations))
             if h is not None]
    out = []
    for w in range(len(ann.heads)):
        out_edges = [r for (src, _, r) in edges if src == w]
        out.append(out_edges[0] if out_edges else tagset.root_id)
    return tuple(out)


def enumerate_forests(n, num_relations, tagset):
    """All dependency forests with n words over the first num_relations rels."""
    rel_pool = list(range(num_relations))
    head_choices = [[None] + [h for h in range(n) if h != w] for w in range(n)]
    for heads in itertools.product(*head_choices):
        if not any(h is None for h in heads):
            continue
        ok = True
        for start in range(n):
            w, hops = start, 0
            while heads[w] is not None:
                w = heads[w]
                hops += 1
                if hops > n:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        non_roots = [w for w in range(n) if heads[w] is not None]
        for combo in itertools.product(rel_pool, repeat=len(non_roots)):
            rels = [tagset.root_id] * n
            for w, r in zip(non_roots, combo):
                rels[w] = r
            yield corpus.DepAnnotation("e", (0,) * n, tuple(heads), tuple(rels))


def test_graph2relation_exhaustive_small(tagset):
    for n in (1, 2, 3):
        for ann in enumerate_forests(n, 3, tagset):
            got = graph.graph2relation(ann, tagset).relation_ids
            assert got == oracle_graph2relation(ann, tagset)


# -- char graph construction -------------------------------------------------


def test_build_char_graph_minimal(tagset):
    utt = corpus.Utterance("m", ("x",), ((0, 1),), (1,), ((0.0, 0.1),))
    ann = corpus.DepAnnotation("m", (0,), (None,), (tagset.root_id,))
    g = graph.build_char_graph(utt, ann, tagset)
    assert g.num_nodes == 3
    edges = set(map(tuple, g.edges.tolist()))
    out_edges = {e for e in edges if e[3] == graph.DIR_OUT}
    assert out_edges == {(0, 1, tagset.bos_id, graph.DIR_OUT),
                         (1, 2, tagset.eos_id, graph.DIR_OUT)}
    # every out edge mirrored
    for u, v, r, d in edges:
        mirror = (v, u, r, graph.DIR_IN if d == graph.DIR_OUT else graph.DIR_OUT)
        assert mirror in edges


def test_build_char_graph_two_words(tagset):
    # words "AB" "C"; AB depends on C via ATT
    utt = corpus.Utterance(
        "t", ("A", "B", "C"), ((0, 2), (2, 3)), (1, 1, 1),
        ((0, 0.1), (0.1, 0.2), (0.2, 0.3)),
    )
    ann = corpus.DepAnnotation(
        "t", (0, 1), (1, None), (tagset.rel["ATT"], tagset.root_id)
    )
    g = graph.build_char_graph(utt, ann, tagset)
    out_edges = {e for e in map(tuple, g.edges.tolist()) if e[3] == graph.DIR_OUT}
    # nodes: BOS=0, A=1, B=2, C=3, EOS=4
    assert (1, 2, tagset.seq_id, graph.DIR_OUT) in out_edges
    assert (1, 3, tagset.rel["ATT"], graph.DIR_OUT) in out_edges
    assert (0, 1, tagset.bos_id, graph.DIR_OUT) in out_edges
    assert (3, 4, tagset.eos_id, graph.DIR_OUT) in out_edges
    assert len(out_edges) == 4


def random_annotation(utt, rng, tagset):
    n = utt.num_words
    root = int(rng.integers(0, n))
    heads, rels = [], []
    for w in range(n):
        if w == root:
            heads.append(None)
            rels.append(tagset.root_id)
        else:
            heads.append(root)
            rels.append(int(rng.integers(0, 14)))
    return corpus.DepAnnotation(
        utt.id, tuple(int(x) for x in rng.integers(0, tagset.num_pos, n)),
        tuple(heads), tuple(rels),
    )


def is_weakly_connected(g) -> bool:
    """Union-find over the edge list, ignoring direction."""
    parent = list(range(g.num_nodes))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v, _, _ in g.edges:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(g.num_nodes)}) == 1


def test_build_char_graph_properties(tagset, rng):
    for _ in range(50):
        utt = random_utterance(rng)
        ann = random_annotation(utt, rng, tagset)
        g = graph.build_char_graph(utt, ann, tagset)
        assert g.num_nodes == utt.num_chars + 2
        assert is_weakly_connected(g)
        # node 0 is BOS and the last node EOS: they touch only BOS/EOS edges
        last = g.num_nodes - 1
        rows = set(map(tuple, g.edges[:, :3].tolist()))
        assert {(0, 1, tagset.bos_id), (last - 1, last, tagset.eos_id)} <= rows
        ends = np.isin(g.edges[:, :2], (0, last)).any(axis=1)
        assert set(g.edges[ends, 2].tolist()) == {tagset.bos_id, tagset.eos_id}
        assert all(r < tagset.num_relations for _, _, r, _ in g.edges)


# -- length regulators -------------------------------------------------------


def test_expand_word_to_char_basic():
    utt = corpus.Utterance(
        "w", ("a", "b", "c"), ((0, 2), (2, 3)), (1, 1, 1),
        ((0, 0.1), (0.1, 0.2), (0.2, 0.3)),
    )
    out = graph.expand_word_to_char(np.array([[1.0], [2.0]]), utt)
    assert out.tolist() == [[1.0], [1.0], [2.0]]


def test_expand_char_to_phone_basic():
    utt = corpus.Utterance(
        "p", ("a", "b", "c"), ((0, 3),), (2, 1, 3),
        ((0, 0.1), (0.1, 0.2), (0.2, 0.3)),
    )
    out = graph.expand_char_to_phone(np.array([[1.0], [2.0], [3.0]]), utt)
    assert out.ravel().tolist() == [1, 1, 2, 3, 3, 3]


def test_expand_identity_when_counts_one():
    utt = corpus.Utterance(
        "i", ("a", "b"), ((0, 1), (1, 2)), (1, 1), ((0, 0.1), (0.1, 0.2)),
    )
    v = np.arange(4.0).reshape(2, 2)
    assert np.array_equal(graph.expand_char_to_phone(v, utt), v)


def test_expand_length_mismatch(tiny_utt):
    with pytest.raises(LengthMismatchError):
        graph.expand_word_to_char(np.zeros((5, 2)), tiny_utt)
    with pytest.raises(LengthMismatchError):
        graph.expand_char_to_phone(np.zeros((5, 2)), tiny_utt)


def test_length_regulator_composition(tagset, rng):
    for _ in range(100):
        utt = random_utterance(rng)
        word_vecs = rng.normal(size=(utt.num_words, 3))
        composed = graph.expand_char_to_phone(
            graph.expand_word_to_char(word_vecs, utt), utt
        )
        assert composed.shape == (utt.num_phones, 3)
        # oracle: repeat each word vector by its total phone count
        repeats = [
            sum(utt.phones_per_char[s:e]) for s, e in utt.word_spans
        ]
        expected = np.repeat(word_vecs, repeats, axis=0)
        assert np.array_equal(composed, expected)
