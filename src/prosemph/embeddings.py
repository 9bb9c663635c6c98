"""Character-level semantic vector providers (the tables that condition
draws live in `conditioning`).

Semantic vectors normally arrive precomputed in a binary container (any
external encoder can produce it); a deterministic hashed fallback serves
tests and pipelines without an external encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import U32_LIMIT, Reader, Writer
from .errors import DimMismatchError, MalformedFileError, UnknownUtteranceError

PEMB_MAGIC = b"PEMB"
PEMB_VERSION = 1

POS_DIM_DEFAULT = 30
SEMANTIC_DIM_DEFAULT = 128
EMPHASIS_DIM_DEFAULT = 16


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

    mode "hash": rows derived from the characters alone (no store); each
    distinct character's row is derived once per provider and kept.
    mode "file_backed": exact matrices loaded from a PEMB container.
    """

    mode: str
    dim: int
    seed: int = 0
    store: dict[str, np.ndarray] = field(default_factory=dict)
    # mode hash: char -> its row, which depends only on (char, dim, seed)
    _memo: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False,
                                         compare=False)

    def rows(self, utterance_id: str, chars) -> np.ndarray:
        self.check(utterance_id, chars)
        if self.mode == "hash":
            missing = [ch for ch in dict.fromkeys(chars) if ch not in self._memo]
            if missing:
                self._memo.update(zip(missing, hash_embedding(missing, self.dim, self.seed)))
            # a new array, so a caller writing into it leaves the memo as it is
            return np.array([self._memo[ch] for ch in chars]).reshape(len(chars), self.dim)
        return self.store[utterance_id]

    def check(self, utterance_id: str, chars) -> None:
        """Raises the error `rows` would raise, without building the rows."""
        if self.mode == "hash":
            return
        if utterance_id not in self.store:
            raise UnknownUtteranceError(utterance_id)
        m = self.store[utterance_id]
        if len(chars) != m.shape[0]:
            raise DimMismatchError(
                f"{utterance_id}: {m.shape[0]} stored rows for {len(chars)} chars"
            )
        if not np.isfinite(m).all():
            raise MalformedFileError(f"{utterance_id}: stored semantic rows hold a "
                                     "non-finite value")


def hash_provider(dim: int = SEMANTIC_DIM_DEFAULT, seed: int = 0) -> SemanticProvider:
    return SemanticProvider(mode="hash", dim=dim, seed=seed)


@dataclass(frozen=True)
class SemanticConfig:
    """The provider a config names: `path` is mode file_backed's PEMB file,
    `dim` and `seed` are mode hash's."""

    mode: str = "hash"
    path: str | None = None
    dim: int = SEMANTIC_DIM_DEFAULT
    seed: int = 0

    def __post_init__(self):
        if (self.mode not in ("hash", "file_backed") or not 1 <= self.dim < U32_LIMIT
                or self.seed < 0):
            raise ValueError("need mode hash or file_backed, dim in 1..2**32-1 and seed >= 0")

    def provider(self) -> SemanticProvider:
        if self.mode == "file_backed":
            return load_semantic(self.path)
        return hash_provider(self.dim, self.seed)


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
        if uid in store:
            raise r.error(f"duplicate utterance id {uid!r}")
        (num_chars,) = r.unpack("<I")
        store[uid] = r.floats((num_chars, dim)).astype(np.float64)
    r.done()
    return SemanticProvider(mode="file_backed", dim=dim, store=store)
