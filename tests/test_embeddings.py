import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosemph import embeddings
from prosemph.codec import Writer
from prosemph.errors import (
    DimMismatchError,
    MalformedFileError,
    UnknownUtteranceError,
)


def test_hash_embedding_identical_chars():
    m = embeddings.hash_embedding(["你", "你"], dim=16, seed=1)
    assert np.array_equal(m[0], m[1])


def test_hash_embedding_unit_norm():
    m = embeddings.hash_embedding(list("abcdef"), dim=12, seed=3)
    assert np.linalg.norm(m, axis=1) == pytest.approx(np.ones(6), abs=1e-9)


def test_hash_embedding_seed_sensitivity():
    a = embeddings.hash_embedding(["好"], dim=16, seed=1)
    b = embeddings.hash_embedding(["好"], dim=16, seed=2)
    assert not np.allclose(a, b)


def test_hash_embedding_stable_across_calls():
    a = embeddings.hash_embedding(["中", "文"], dim=8, seed=9)
    b = embeddings.hash_embedding(["中", "文"], dim=8, seed=9)
    assert np.array_equal(a, b)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.lists(st.sampled_from("ab中文好😀"), max_size=8), max_size=6))
def test_hash_rows_equal_hash_embedding_across_calls(calls):
    prov = embeddings.hash_provider(dim=6, seed=4)
    for chars in map(tuple, calls):
        m = prov.rows("u", chars)
        assert m.dtype == np.float64 and m.shape == (len(chars), 6)
        assert np.array_equal(m, embeddings.hash_embedding(chars, 6, 4))


def test_hash_rows_derive_each_char_once_per_provider(monkeypatch):
    derived = []

    def counting(chars, dim, seed):
        derived.extend(chars)
        return hash_embedding(chars, dim, seed)

    hash_embedding = embeddings.hash_embedding
    monkeypatch.setattr(embeddings, "hash_embedding", counting)
    prov = embeddings.hash_provider(dim=4)
    for chars in ("好好a", "a中", "😀好中a"):
        prov.rows("u", tuple(chars))
    assert derived == ["好", "a", "中", "😀"]
    embeddings.hash_provider(dim=4).rows("u", ("a",))
    assert derived[4:] == ["a"]


def test_hash_rows_writes_to_a_result_leave_the_next_call_unchanged():
    prov = embeddings.hash_provider(dim=4)
    prov.rows("u", ("好", "好"))[:] = 0
    assert np.array_equal(prov.rows("u", ("好",)), embeddings.hash_embedding(["好"], 4, 0))


def test_hash_providers_of_other_dim_or_seed_share_no_rows():
    chars = ("好", "a")
    embeddings.hash_provider(dim=4, seed=1).rows("u", chars)
    for dim, seed in ((4, 2), (5, 1)):
        m = embeddings.hash_provider(dim=dim, seed=seed).rows("u", chars)
        assert np.array_equal(m, embeddings.hash_embedding(chars, dim, seed))


def test_semantic_container_roundtrip(tmp_path):
    store = {"u1": np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)}
    p = tmp_path / "sem.pemb"
    embeddings.save_semantic(store, 4, p)
    prov = embeddings.load_semantic(p)
    assert prov.mode == "file_backed"
    assert prov.dim == 4
    assert prov.rows("u1", "abc") == pytest.approx(store["u1"], abs=1e-7)


def test_semantic_unknown_utterance(tmp_path):
    p = tmp_path / "sem.pemb"
    embeddings.save_semantic({}, 4, p)
    with pytest.raises(UnknownUtteranceError):
        embeddings.load_semantic(p).rows("nope", "x")


def test_semantic_dim_mismatch_rejected(tmp_path):
    store = {"a": np.zeros((2, 4), dtype=np.float32),
             "b": np.zeros((2, 8), dtype=np.float32)}
    with pytest.raises(DimMismatchError):
        embeddings.save_semantic(store, 4, tmp_path / "bad.pemb")


def test_semantic_corrupt_magic(tmp_path):
    p = tmp_path / "x.pemb"
    p.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(MalformedFileError):
        embeddings.load_semantic(p)


def test_semantic_truncated(tmp_path):
    p = tmp_path / "t.pemb"
    embeddings.save_semantic({"u": np.ones((3, 4), dtype=np.float32)}, 4, p)
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(MalformedFileError):
        embeddings.load_semantic(p)


def test_semantic_dim_zero_rejected(tmp_path):
    p = tmp_path / "z.pemb"
    embeddings.save_semantic({}, 0, p)
    with pytest.raises(MalformedFileError, match="semantic dim 0"):
        embeddings.load_semantic(p)


def test_semantic_duplicate_id_rejected(tmp_path):
    p = tmp_path / "dup.pemb"
    w = Writer(embeddings.PEMB_MAGIC, embeddings.PEMB_VERSION)
    w.pack("<II", 2, 2)
    for num_chars in (1, 3):
        w.text("u1")
        w.pack("<I", num_chars)
        w.floats(np.ones((num_chars, 2)))
    w.save(p)
    with pytest.raises(MalformedFileError, match="duplicate utterance id 'u1'"):
        embeddings.load_semantic(p)
