import numpy as np
import pytest

from prosemph import embeddings
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
