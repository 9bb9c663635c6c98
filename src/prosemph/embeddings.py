"""Embedding tables and character-level semantic vector providers.

Semantic vectors normally arrive precomputed in a binary container (any
external encoder can produce it); a deterministic hashed fallback serves
tests and pipelines without an external encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import Reader, Writer
from .errors import DimMismatchError, IdOutOfRangeError, UnknownUtteranceError

PEMB_MAGIC = b"PEMB"
PEMB_VERSION = 1

POS_DIM_DEFAULT = 30
SEMANTIC_DIM_DEFAULT = 128
EMPHASIS_DIM_DEFAULT = 16


@dataclass
class EmbeddingTable:
    matrix: np.ndarray  # [vocab_size x dim]
    name: str

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def init_table(
    vocab_size: int, dim: int, name: str, seed: int, dtype=np.float32
) -> EmbeddingTable:
    """Uniform init in [-0.1, 0.1] from a seeded PRNG."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-0.1, 0.1, size=(vocab_size, dim)).astype(dtype)
    return EmbeddingTable(matrix=m, name=name)


def lookup(table: EmbeddingTable, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.vocab_size):
        raise IdOutOfRangeError(
            f"table {table.name}: id out of range 0..{table.vocab_size - 1}"
        )
    return table.matrix[ids]


# ---------------------------------------------------------------------------
# hashed semantic fallback


def _fnv1a_64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def hash_embedding(chars, dim: int, seed: int) -> np.ndarray:
    """Deterministic unit-norm vector per character.

    Row i is drawn from PCG64 seeded with FNV-1a-64 of the UTF-8 character
    bytes XORed with the user seed, then L2-normalized. Identical
    characters always map to identical rows; stable across runs and
    platforms.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rows = np.empty((len(chars), dim))
    for i, ch in enumerate(chars):
        h = _fnv1a_64(ch.encode("utf-8")) ^ (seed & 0xFFFFFFFFFFFFFFFF)
        rng = np.random.default_rng(np.random.PCG64(h))
        v = rng.standard_normal(dim)
        rows[i] = v / np.linalg.norm(v)
    return rows


@dataclass
class SemanticProvider:
    """Serves one [num_chars x dim] matrix per utterance.

    mode "hash": rows derived from the characters alone (no store).
    mode "file_backed": exact matrices loaded from a PEMB container.
    """

    mode: str
    dim: int
    seed: int = 0
    store: dict[str, np.ndarray] = field(default_factory=dict)

    def rows(self, utterance_id: str, chars=None) -> np.ndarray:
        self.check(utterance_id, chars)
        if self.mode == "hash":
            return hash_embedding(chars, self.dim, self.seed)
        return self.store[utterance_id]

    def check(self, utterance_id: str, chars=None) -> None:
        """Raises the error `rows` would raise, without building the rows."""
        if self.mode == "hash":
            if chars is None:
                raise UnknownUtteranceError(
                    f"hash provider needs characters for {utterance_id}"
                )
            return
        if utterance_id not in self.store:
            raise UnknownUtteranceError(utterance_id)
        m = self.store[utterance_id]
        if chars is not None and len(chars) != m.shape[0]:
            raise DimMismatchError(
                f"{utterance_id}: {m.shape[0]} stored rows for {len(chars)} chars"
            )


def hash_provider(dim: int = SEMANTIC_DIM_DEFAULT, seed: int = 0) -> SemanticProvider:
    return SemanticProvider(mode="hash", dim=dim, seed=seed)


# ---------------------------------------------------------------------------
# PEMB container: layout in the README ("File formats"). Any external
# encoder can write it.


def save_semantic(store: dict[str, np.ndarray], dim: int, path) -> None:
    for uid, m in store.items():
        if m.shape[1] != dim:
            raise DimMismatchError(f"{uid}: dim {m.shape[1]} != container dim {dim}")
    w = Writer(PEMB_MAGIC, PEMB_VERSION)
    w.pack("<II", dim, len(store))
    for uid in sorted(store):
        w.text(uid)
        w.pack("<I", store[uid].shape[0])
        w.floats(store[uid])
    w.save(path)


def load_semantic(path) -> SemanticProvider:
    r = Reader(path, PEMB_MAGIC, PEMB_VERSION)
    dim, count = r.unpack("<II")
    if dim < 1:
        raise r.error("semantic dim 0")
    store: dict[str, np.ndarray] = {}
    for _ in range(count):
        uid = r.text()
        (num_chars,) = r.unpack("<I")
        store[uid] = r.floats((num_chars, dim)).astype(np.float64)
    r.done()
    return SemanticProvider(mode="file_backed", dim=dim, store=store)
