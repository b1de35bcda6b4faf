"""On-board memory with optional EDAC (SEC-DED Hamming).

The reconfiguration service stages bitstream files in on-board memory
(§3.2: "load of the binary file ... in an on-board memory"; "optionally
a binary files library can be managed on-board").  Memory words are
protected by a (72,64)-style SEC-DED extended Hamming code, the
standard EDAC for spacecraft memories: single-bit upsets are corrected
on read, double-bit upsets are detected and reported.

Whole files are coded at once: ``store`` indexes a frozen 256 x 13
codeword table with the file's bytes, and ``load``/``scrub`` decode
every word of a file in one vectorised syndrome pass.
``hamming_encode``/``hamming_decode`` are one-row views of those kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..caching import freeze

__all__ = ["OnboardMemory", "hamming_encode", "hamming_decode"]

_DATA_BITS = 8  # per protected word (byte-wide EDAC keeps the model simple)
_PARITY_BITS = 4  # Hamming(12,8)
_EXTRA = 1  # overall parity for SEC-DED
_WORD_BITS = _DATA_BITS + _PARITY_BITS + _EXTRA  # 13

# parity-check positions for Hamming(12,8): parity bits at positions
# 1,2,4,8 (1-indexed); data at the rest.
_POSITIONS = np.arange(1, _DATA_BITS + _PARITY_BITS + 1, dtype=np.uint8)
_DATA_POS = _POSITIONS[(_POSITIONS & (_POSITIONS - 1)) != 0]  # non powers of 2
_PARITY_POS = _POSITIONS[(_POSITIONS & (_POSITIONS - 1)) == 0]

# decode status codes, indexing _STATUS
_OK, _CORRECTED, _DOUBLE = 0, 1, 2
_STATUS = ("ok", "corrected", "double")


def _syndrome(body: np.ndarray) -> np.ndarray:
    """Per row of an ``(n, 12)`` bit matrix, the XOR of its set-bit positions."""
    return np.bitwise_xor.reduce(body * _POSITIONS, axis=1)


def _encode_table() -> np.ndarray:
    """The 256 x 13 codeword of every byte, row ``b`` encoding byte ``b``."""
    table = np.zeros((256, _WORD_BITS), dtype=np.uint8)
    table[:, _DATA_POS - 1] = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
    )
    # parity bits that zero the syndrome, then overall parity
    table[:, _PARITY_POS - 1] = (_syndrome(table[:, :-1])[:, None] & _PARITY_POS) != 0
    table[:, -1] = np.bitwise_xor.reduce(table[:, :-1], axis=1)
    return freeze(table)


#: read-only; ``_ENCODE[data]`` encodes a whole uint8 array at once
_ENCODE = _encode_table()


def _decode(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode an ``(n, 13)`` bit matrix; returns ``(bytes, status codes)``.

    The syndrome of a row is the XOR of the positions of its set body
    bits.  With odd overall parity a syndrome inside the 12-bit body is
    a single error and is flipped back; one pointing past the body can
    only come from three or more upsets and is uncorrectable, as is any
    syndrome under even overall parity.  The bytes of uncorrectable rows
    are read as stored.
    """
    body = words[:, :-1]
    syndrome = _syndrome(body)
    odd = np.bitwise_xor.reduce(words, axis=1).astype(bool)
    single = odd & (syndrome != 0) & (syndrome <= len(_POSITIONS))
    status = np.where(odd, _CORRECTED, _OK).astype(np.uint8)
    status[(syndrome != 0) & ~single] = _DOUBLE
    rows = np.flatnonzero(single)
    body = body.copy()
    body[rows, syndrome[rows] - 1] ^= 1
    data = np.packbits(body[:, _DATA_POS - 1], axis=1, bitorder="little")[:, 0]
    return data, status


def hamming_encode(byte: int) -> np.ndarray:
    """Encode one byte into a 13-bit SEC-DED word (bit array)."""
    if not 0 <= byte < 256:
        raise ValueError("byte out of range")
    return _ENCODE[[byte]][0]


def hamming_decode(word: np.ndarray) -> tuple[int, str]:
    """Decode a 13-bit word; returns ``(byte, status)``.

    ``status`` is ``"ok"``, ``"corrected"`` or ``"double"`` (uncorrectable).
    """
    word = np.asarray(word, dtype=np.uint8)
    if word.shape != (_WORD_BITS,):
        raise ValueError(f"word must have {_WORD_BITS} bits")
    data, status = _decode(word[None])
    return int(data[0]), _STATUS[status[0]]


@dataclass
class _File:
    name: str
    words: np.ndarray  # (n, 13) bit matrix


class OnboardMemory:
    """Byte-addressable store of named files with per-byte SEC-DED EDAC.

    ``capacity_bytes`` bounds the total stored payload -- the paper notes
    the on-board library "requires a lot of available memory on-board",
    and benchmark C3 quantifies it.
    """

    def __init__(self, capacity_bytes: int = 4 << 20, edac: bool = True) -> None:
        if capacity_bytes < 1:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.edac = edac
        self._files: dict[str, _File] = {}
        self.scrub_corrections = 0

    # -- capacity -------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return sum(len(f.words) for f in self._files.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def files(self) -> list[str]:
        """Names of stored files."""
        return sorted(self._files)

    # -- file operations ---------------------------------------------------
    def store(self, name: str, data: bytes) -> None:
        """Write (or replace) a file."""
        old = len(self._files[name].words) if name in self._files else 0
        if len(data) > self.free_bytes + old:
            raise MemoryError(
                f"storing {len(data)} bytes exceeds free capacity {self.free_bytes + old}"
            )
        self._files[name] = _File(name, _ENCODE[np.frombuffer(data, dtype=np.uint8)])

    def load(self, name: str) -> bytes:
        """Read a file, correcting single-bit upsets per byte.

        Raises :class:`IOError` on an uncorrectable (double) error.
        """
        data, status = _decode(self._get(name).words)
        bad = np.flatnonzero(status == _DOUBLE)
        if bad.size:
            raise IOError(f"uncorrectable EDAC error in {name!r} at byte {bad[0]}")
        return data.tobytes()

    def delete(self, name: str) -> None:
        """Remove a file (§3.2 step 4: 'unload the binary file')."""
        self._get(name)
        del self._files[name]

    def _get(self, name: str) -> _File:
        if name not in self._files:
            raise KeyError(f"no such file {name!r}")
        return self._files[name]

    # -- radiation ------------------------------------------------------------
    def upset_random_bits(self, count: int, rng: np.random.Generator) -> None:
        """Flip ``count`` stored bits at random (SEU injection)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        total = sum(f.words.size for f in self._files.values())
        if total == 0 or count == 0:
            return
        names = sorted(self._files)
        sizes = np.array([self._files[n].words.size for n in names])
        bounds = np.cumsum(sizes)
        idx = rng.integers(0, total, size=count)
        fi = np.searchsorted(bounds, idx, side="right")
        local = idx - (bounds - sizes)[fi]
        for k in np.unique(fi):
            # unbuffered, so a bit drawn twice ends up unflipped
            np.bitwise_xor.at(self._files[names[k]].words.reshape(-1), local[fi == k], 1)

    def scrub(self) -> int:
        """EDAC scrub: rewrite every byte from its corrected value.

        Returns the number of corrected words; uncorrectable words are
        left in place (and will fail on load).
        """
        fixed = 0
        for f in self._files.values():
            data, status = _decode(f.words)
            rows = np.flatnonzero(status == _CORRECTED)
            f.words[rows] = _ENCODE[data[rows]]
            fixed += rows.size
        self.scrub_corrections += fixed
        return fixed
