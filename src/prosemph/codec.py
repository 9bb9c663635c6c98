"""Little-endian binary codec shared by the PEMO, PEMB and PCND containers.

Every container starts with a 4-byte magic and a uint32 version. `Writer`
buffers the fields and writes the file in one call, refusing a NaN or an
infinity in its float32 data; `Reader` checks the magic and version up front
and bounds-checks every later read, so a short file, bad UTF-8 or trailing
bytes raise `MalformedFileError` rather than a raw `struct`, `numpy` or
decode error.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import MalformedFileError, OutputWriteError

# a u32 field holds values below this: every size a container stores is one
U32_LIMIT = 2**32


class Writer:
    def __init__(self, magic: bytes, version: int):
        self.parts = [magic, struct.pack("<I", version)]

    def pack(self, fmt: str, *values) -> None:
        self.parts.append(struct.pack(fmt, *values))

    def text(self, s: str, len_fmt: str = "<I") -> None:
        """Length-prefixed UTF-8 string."""
        b = s.encode("utf-8")
        self.pack(len_fmt, len(b))
        self.parts.append(b)

    def floats(self, arr) -> None:
        """Row-major little-endian float32 data, no shape. The part is `arr`
        itself when it is that already, else one converted copy, and it is
        held until `save` writes it: do not change `arr` before then."""
        self.parts.append(np.ascontiguousarray(arr, dtype="<f4"))

    def save(self, path) -> None:
        """Write the file, or raise OutputWriteError, writing nothing, when its
        float32 data holds a NaN or an infinity (read from min and max, which
        carry either, so no boolean copy is made)."""
        for part in self.parts:
            if isinstance(part, np.ndarray) and not np.isfinite(
                    [part.min(initial=0), part.max(initial=0)]).all():
                raise OutputWriteError(f"cannot write {os.path.basename(path)}: "
                                       "float32 data holds a NaN or an infinity")
        with open(path, "wb") as f:
            f.writelines(self.parts)


class Reader:
    def __init__(self, path, magic: bytes, version: int):
        self.path = path
        try:
            with open(path, "rb") as f:
                # a view, so each read slices the file without copying it
                self.data = memoryview(f.read())
        except OSError as exc:
            raise MalformedFileError(f"cannot read {path}: {exc}") from exc
        if self.data[:4] != magic:
            raise self.error(f"not a {magic.decode()} file")
        self.off = 4
        (found,) = self.unpack("<I")
        if found != version:
            raise self.error(f"unsupported {magic.decode()} version {found}")

    def error(self, what: str) -> MalformedFileError:
        return MalformedFileError(f"{self.path}: {what}")

    def _take(self, n: int) -> memoryview:
        if n > len(self.data) - self.off:
            raise self.error(f"truncated at byte {self.off} (need {n} more)")
        self.off += n
        return self.data[self.off - n : self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self._take(struct.calcsize(fmt)))

    def text(self, len_fmt: str = "<I") -> str:
        (n,) = self.unpack(len_fmt)
        try:
            return str(self._take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"invalid UTF-8 at byte {self.off - n}") from exc

    def floats(self, shape) -> np.ndarray:
        """A float32 array of `shape`, copied once out of the file."""
        raw = self._take(4 * math.prod(shape))
        return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)

    def done(self) -> None:
        if self.off != len(self.data):
            raise self.error(f"{len(self.data) - self.off} trailing bytes")
