"""Cyclic redundancy checks (TS 25.212 §4.2.1 polynomials).

CRCs appear twice in the paper: on every UMTS transport block, and as
the **validation service's auto-test** of a freshly loaded FPGA
configuration (§3.2: "at least one auto-test of the new configuration
will be realized (e.g. CRC applied on the configuration)").  The same
implementation serves both (bit-array interface here; a byte interface
is provided for configuration files).

With a zero initial register the CRC is linear over GF(2), so the
parity of an ``n``-bit message is ``(m @ P) & 1`` for a fixed
``(n, width)`` matrix ``P``.  :meth:`Crc.compute_batch` applies it to a
``(B, n)`` stack in one product; the scalar calls are one-row views.
"""

from __future__ import annotations

import numpy as np

from ..caching import cached_design, freeze

__all__ = ["Crc", "CRC8", "CRC12", "CRC16", "CRC24", "crc32_bytes"]


@cached_design("coding.crc_matrix", maxsize=64)
def _parity_matrix(poly: int, width: int, n: int) -> np.ndarray:
    """GF(2) parity matrix of an ``n``-bit message: ``crc = (m @ P) & 1``.

    The register starts at zero, so the CRC is linear in the message
    and row ``i`` is the CRC of the unit message ``e_i``: the register
    after a one (``poly``) shifted on through the ``n - 1 - i`` zeros
    that follow it.  Columns are MSB first.  Float64, so a BLAS matmul
    sums at most ``n`` ones exactly.
    """
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    regs = np.empty(n, dtype=np.int64)
    reg = poly
    for i in range(n - 1, -1, -1):
        regs[i] = reg
        reg = ((reg << 1) & mask) ^ (poly if reg & top else 0)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return freeze(((regs[:, None] >> shifts) & 1).astype(np.float64))


class Crc:
    """CRC over numpy bit arrays, as one GF(2) matrix product per batch.

    Parameters
    ----------
    poly:
        Generator polynomial *without* the leading term, MSB-first
        (e.g. CRC-16-CCITT ``x^16+x^12+x^5+1`` is ``0x1021`` with
        ``width=16``).
    width:
        CRC length in bits.
    """

    def __init__(self, poly: int, width: int, name: str = "") -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        if poly >> width:
            raise ValueError("poly has bits above width")
        self.poly = poly
        self.width = width
        self.name = name or f"CRC{width}"

    def compute_batch(self, bits: np.ndarray) -> np.ndarray:
        """CRC parity bits (MSB first) of every row of a ``(B, n)`` stack.

        One ``(B, n) @ (n, width)`` product with the frozen parity
        matrix of ``(poly, width, n)``; returns ``(B, width)`` uint8.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {bits.shape}")
        parity = _parity_matrix(self.poly, self.width, bits.shape[1])
        return ((bits @ parity) % 2).astype(np.uint8)

    def compute(self, bits: np.ndarray) -> np.ndarray:
        """CRC parity bits (MSB first) of a bit array."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        return self.compute_batch(bits[None])[0]

    def attach_batch(self, bits: np.ndarray) -> np.ndarray:
        """Append each row's CRC parity (TS 25.212 attachment)."""
        bits = np.asarray(bits).astype(np.uint8)
        return np.concatenate([bits, self.compute_batch(bits)], axis=1)

    def attach(self, bits: np.ndarray) -> np.ndarray:
        """Append the CRC parity to the message (TS 25.212 attachment)."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        return self.attach_batch(bits[None])[0]

    def check_batch(self, bits_with_crc: np.ndarray) -> np.ndarray:
        """Validate every row of a ``(B, n)`` stack made by :meth:`attach_batch`."""
        frames = np.asarray(bits_with_crc).astype(np.uint8)
        if frames.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {frames.shape}")
        if frames.shape[1] < self.width:
            raise ValueError("message shorter than CRC width")
        parity = self.compute_batch(frames[:, : -self.width])
        return np.all(parity == frames[:, -self.width :], axis=1)

    def check(self, bits_with_crc: np.ndarray) -> bool:
        """Validate a message produced by :meth:`attach`."""
        frame = np.asarray(bits_with_crc).astype(np.uint8).ravel()
        return bool(self.check_batch(frame[None])[0])


#: TS 25.212: gCRC8(D)  = D^8 + D^7 + D^4 + D^3 + D + 1
CRC8 = Crc(0x9B, 8, "UMTS-CRC8")
#: TS 25.212: gCRC12(D) = D^12 + D^11 + D^3 + D^2 + D + 1
CRC12 = Crc(0x80F, 12, "UMTS-CRC12")
#: TS 25.212: gCRC16(D) = D^16 + D^12 + D^5 + 1
CRC16 = Crc(0x1021, 16, "UMTS-CRC16")
#: TS 25.212: gCRC24(D) = D^24 + D^23 + D^6 + D^5 + D + 1
CRC24 = Crc(0x800063, 24, "UMTS-CRC24")


def crc32_bytes(data: bytes) -> int:
    """IEEE CRC-32 of a byte string (used for bitstream validation)."""
    import zlib

    return zlib.crc32(data) & 0xFFFFFFFF
