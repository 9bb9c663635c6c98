from dataclasses import replace

import numpy as np
import pytest

from prosemph import conditioning, corpus, embeddings
from prosemph.errors import DimMismatchError, LengthMismatchError, MalformedFileError


def two_word_case(tagset):
    utt = corpus.Utterance(
        "c1", ("A", "B", "C"), ((0, 2), (2, 3)), (2, 1, 3),
        ((0, 0.1), (0.1, 0.2), (0.2, 0.3)),
    )
    ann = corpus.DepAnnotation(
        "c1", (tagset.pos["a"], tagset.pos["n"]), (1, None),
        (tagset.rel["ATT"], tagset.root_id),
    )
    return utt, ann


def tables(tagset, cond_dim=8, sem_dim=4, seed=0):
    t = conditioning.draw_tables(tagset, sem_dim, cond_dim, 2, seed)
    return t, embeddings.hash_provider(dim=sem_dim, seed=seed)


def zeroed(t, *names):
    return replace(t, **{name: np.zeros_like(getattr(t, name)) for name in names})


def test_draw_tables_reproducible(tagset):
    a = conditioning.draw_tables(tagset, 4, 5, 3, seed=42)
    b = conditioning.draw_tables(tagset, 4, 5, 3, seed=42)
    for name in ("rel", "pos", "emph", "projection"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
        assert getattr(a, name).dtype == np.float32
        assert np.max(np.abs(getattr(a, name))) <= 0.1
    assert a.rel.shape == (tagset.num_relations, 5) and a.pos.shape == (tagset.num_pos, 5)
    assert a.emph.shape == (2, 3) and a.projection.shape == (4, 5)
    # the k-th table comes from seed + k: the projection from seed + 3
    assert np.array_equal(a.projection, np.random.default_rng(45).uniform(
        -0.1, 0.1, (4, 5)).astype(np.float32))


def test_build_linguistic_zero_tables_zero_output(tagset):
    utt, ann = two_word_case(tagset)
    t, prov = tables(tagset)
    out = conditioning.build_linguistic(utt, ann, prov,
                                        zeroed(t, "rel", "pos", "projection"), tagset)
    assert out.shape == (utt.num_phones, 8)
    assert np.all(out == 0)


def test_build_linguistic_word_rows_repeat(tagset):
    # zero semantics: all phones of a word share one row
    utt, ann = two_word_case(tagset)
    t, prov = tables(tagset)
    out = conditioning.build_linguistic(utt, ann, prov, zeroed(t, "projection"), tagset)
    # word 0 covers chars A,B -> phones 0..2; word 1 covers char C -> phones 3..5
    assert np.array_equal(out[0], out[1])
    assert np.array_equal(out[0], out[2])
    assert np.array_equal(out[3], out[4])
    assert np.array_equal(out[3], out[5])
    assert not np.array_equal(out[0], out[3])


def test_build_linguistic_is_sum_of_components(tagset):
    utt, ann = two_word_case(tagset)
    t, prov = tables(tagset)
    full = conditioning.build_linguistic(utt, ann, prov, t, tagset)
    only_rel = conditioning.build_linguistic(utt, ann, prov,
                                             zeroed(t, "pos", "projection"), tagset)
    only_pos = conditioning.build_linguistic(utt, ann, prov,
                                             zeroed(t, "rel", "projection"), tagset)
    only_sem = conditioning.build_linguistic(utt, ann, prov, zeroed(t, "rel", "pos"),
                                             tagset)
    assert full == pytest.approx(only_rel + only_pos + only_sem)


def test_build_linguistic_rel_component_linearity(tagset):
    utt, ann = two_word_case(tagset)
    t, prov = tables(tagset)
    only_rel = zeroed(t, "pos", "projection")
    once = conditioning.build_linguistic(utt, ann, prov, only_rel, tagset)
    twice = conditioning.build_linguistic(utt, ann, prov,
                                          replace(only_rel, rel=t.rel * 2), tagset)
    assert twice == pytest.approx(2 * once)


def test_build_linguistic_pos_locality(tagset):
    # changing only word 1's POS tag leaves word 0's phones untouched
    utt, ann = two_word_case(tagset)
    t, prov = tables(tagset)
    a = conditioning.build_linguistic(utt, ann, prov, t, tagset)
    ann2 = corpus.DepAnnotation(ann.utterance_id,
                                (ann.pos_tags[0], tagset.pos["v"]),
                                ann.heads, ann.relations)
    b = conditioning.build_linguistic(utt, ann2, prov, t, tagset)
    assert np.array_equal(a[:3], b[:3])
    assert not np.array_equal(a[3:], b[3:])


def test_build_emphasis_selects_rows(tagset):
    utt, _ = two_word_case(tagset)
    t, _ = tables(tagset)
    lab = corpus.EmphasisLabels("c1", (0, 1, 0), (1.0,) * 3, "pseudo")
    out = conditioning.build_emphasis(lab, replace(t, emph=np.eye(2)), utt)
    # phones per char: 2,1,3
    assert out.tolist() == [[1, 0], [1, 0], [0, 1], [1, 0], [1, 0], [1, 0]]


def test_build_emphasis_length_mismatch(tagset):
    utt, _ = two_word_case(tagset)
    t, _ = tables(tagset)
    lab = corpus.EmphasisLabels("c1", (0, 1), (1.0,) * 2, "pseudo")
    with pytest.raises(LengthMismatchError):
        conditioning.build_emphasis(lab, t, utt)


def test_bundle_rejects_empty(tagset):
    with pytest.raises(DimMismatchError):
        conditioning.ConditioningBundle("x", np.zeros((0, 4)), np.zeros((0, 2)))


def test_bundle_roundtrip_bitwise(tmp_path, tagset, rng):
    b = conditioning.ConditioningBundle(
        "utt-42",
        rng.normal(size=(7, 16)).astype(np.float32),
        rng.normal(size=(7, 4)).astype(np.float32),
    )
    p = tmp_path / "b.pcnd"
    conditioning.export_bundle(b, p)
    back = conditioning.load_bundle(p)
    assert back.utterance_id == "utt-42"
    assert np.array_equal(back.linguistic, b.linguistic)
    assert np.array_equal(back.emphasis, b.emphasis)


def test_bundle_corrupt_magic(tmp_path):
    p = tmp_path / "bad.pcnd"
    p.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(MalformedFileError):
        conditioning.load_bundle(p)


def test_bundle_truncated(tmp_path, rng):
    b = conditioning.ConditioningBundle(
        "u", rng.normal(size=(3, 4)).astype(np.float32),
        rng.normal(size=(3, 2)).astype(np.float32),
    )
    p = tmp_path / "t.pcnd"
    conditioning.export_bundle(b, p)
    p.write_bytes(p.read_bytes()[:-5])
    with pytest.raises(MalformedFileError):
        conditioning.load_bundle(p)


def test_end_to_end_shapes_and_determinism(tagset):
    utt, ann = two_word_case(tagset)
    t = conditioning.draw_tables(tagset, 6, 12, 4, seed=5)
    prov = embeddings.hash_provider(dim=6, seed=5)
    lab = corpus.EmphasisLabels("c1", (1, 0, 0), (1.0,) * 3, "pseudo")
    bundles = []
    for _ in range(2):
        ling = conditioning.build_linguistic(utt, ann, prov, t, tagset)
        emph = conditioning.build_emphasis(lab, t, utt)
        bundles.append(conditioning.ConditioningBundle(utt.id, ling, emph))
    assert bundles[0].num_phones == utt.num_phones == 6
    assert bundles[0].cond_dim == 12 and bundles[0].emph_dim == 4
    assert np.array_equal(bundles[0].linguistic, bundles[1].linguistic)
    assert np.array_equal(bundles[0].emphasis, bundles[1].emphasis)
