"""The assembled UMTS transport-channel chain and decoder personalities.

Section 2.3 of the paper: *"In the UMTS standard, different coding
schemes are proposed ... Some transmissions can accept a non-coded mode
while other ones require a convolutional code or a turbo-code.  In each
case the decoding algorithm is different and the architecture of the
decoding process has to be reloaded when a change occurs."*

:class:`TransportChain` assembles CRC attachment -> channel coding ->
rate matching -> 2nd interleaver for each of the three schemes;
``SCHEMES`` is the registry of the three reconfigurable decoder
personalities the payload switches between.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .convolutional import UMTS_RATE_12, UMTS_RATE_13, ConvolutionalCode
from .crc import CRC16, Crc
from .interleaving import UMTS_2ND_PERM, BlockInterleaver, rate_dematch, rate_match
from .turbo import TurboCode

__all__ = ["CodingScheme", "TransportChain", "SCHEMES"]


class CodingScheme(str, Enum):
    """The three TS 25.212 coding options cited by the paper."""

    NONE = "none"
    CONVOLUTIONAL = "convolutional"
    TURBO = "turbo"


@dataclass(frozen=True)
class _SchemeSpec:
    """Registry entry describing one decoder personality."""

    scheme: CodingScheme
    description: str
    nominal_rate: float


SCHEMES: dict[CodingScheme, _SchemeSpec] = {
    CodingScheme.NONE: _SchemeSpec(
        CodingScheme.NONE, "no channel coding (CRC only)", 1.0
    ),
    CodingScheme.CONVOLUTIONAL: _SchemeSpec(
        CodingScheme.CONVOLUTIONAL,
        "UMTS K=9 rate-1/3 convolutional code, Viterbi decoding",
        1.0 / 3.0,
    ),
    CodingScheme.TURBO: _SchemeSpec(
        CodingScheme.TURBO,
        "UMTS rate-1/3 PCCC turbo code, max-log-MAP decoding",
        1.0 / 3.0,
    ),
}


class TransportChain:
    """One UMTS transport channel: CRC -> coding -> rate match -> interleave.

    Parameters
    ----------
    scheme:
        Which decoder personality the chain uses.
    transport_block:
        Information bits per block (before CRC).
    crc:
        CRC attachment (default UMTS CRC-16); ``None`` disables.
    physical_bits:
        Radio-frame capacity; when given, rate matching
        punctures/repeats the coded block to this size.
    conv_code:
        Override the convolutional code (default UMTS rate 1/3).
    turbo_iterations:
        Decoder iterations for the turbo personality.
    """

    def __init__(
        self,
        scheme: CodingScheme = CodingScheme.CONVOLUTIONAL,
        transport_block: int = 244,
        crc: Optional[Crc] = CRC16,
        physical_bits: Optional[int] = None,
        conv_code: ConvolutionalCode = UMTS_RATE_13,
        turbo_iterations: int = 6,
    ) -> None:
        self.scheme = CodingScheme(scheme)
        if transport_block < 1:
            raise ValueError("transport_block must be >= 1")
        self.transport_block = transport_block
        self.crc = crc
        self.conv_code = conv_code
        self._interleaver = BlockInterleaver(30, UMTS_2ND_PERM)

        self._msg_bits = transport_block + (crc.width if crc else 0)
        if self.scheme is CodingScheme.NONE:
            self._coded_bits = self._msg_bits
            self.turbo = None
        elif self.scheme is CodingScheme.CONVOLUTIONAL:
            self._coded_bits = conv_code.encoded_length(self._msg_bits)
            self.turbo = None
        else:
            self.turbo = TurboCode(self._msg_bits, iterations=turbo_iterations)
            self._coded_bits = self.turbo.encoded_length
        self.physical_bits = physical_bits or self._coded_bits

    @property
    def coded_bits(self) -> int:
        """Coded block size before rate matching."""
        return self._coded_bits

    @property
    def effective_rate(self) -> float:
        """Information bits per transmitted bit (incl. CRC/tail/RM)."""
        return self.transport_block / self.physical_bits

    # -- transmit -------------------------------------------------------
    def encode_batch(self, bits: np.ndarray) -> np.ndarray:
        """CRC-attach, encode, rate-match and interleave a block stack.

        ``bits`` is ``(batch, transport_block)``; every stage is one
        batch kernel (:meth:`Crc.attach_batch`,
        :meth:`ConvolutionalCode.encode_batch` /
        :meth:`TurboCode.encode_batch`, and the last-axis rate matcher
        and interleaver).  Returns ``(batch, physical_bits)`` uint8.
        """
        bits = np.asarray(bits).astype(np.uint8)
        if bits.ndim != 2 or bits.shape[1] != self.transport_block:
            raise ValueError(
                f"expected a (batch, {self.transport_block}) array, "
                f"got shape {bits.shape}"
            )
        msg = self.crc.attach_batch(bits) if self.crc else bits
        if self.scheme is CodingScheme.NONE:
            coded = msg
        elif self.scheme is CodingScheme.CONVOLUTIONAL:
            coded = self.conv_code.encode_batch(msg)
        else:
            coded = self.turbo.encode_batch(msg)
        matched = rate_match(coded, self.physical_bits)
        return self._interleaver.interleave(matched)

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """CRC-attach, encode, rate-match and interleave one block."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        return self.encode_batch(bits[None])[0]

    # -- receive ----------------------------------------------------------
    def decode(self, llr: np.ndarray) -> dict:
        """Decode soft LLRs (positive = bit 0) back to a transport block.

        Returns ``{"bits", "crc_ok"}``; ``crc_ok`` is ``None`` when the
        chain has no CRC.  Delegates to :meth:`decode_batch` with a
        batch of one, so scalar and batched chain decoding share one
        kernel and are bit-identical by construction.
        """
        llr = np.asarray(llr, dtype=np.float64)
        if llr.ndim != 1:
            raise ValueError("decode expects a 1-D block; use decode_batch")
        out = self.decode_batch(llr[None, :])
        crc_ok = out["crc_ok"]
        return {
            "bits": out["bits"][0],
            "crc_ok": None if crc_ok is None else bool(crc_ok[0]),
        }

    def decode_batch(self, llr: np.ndarray) -> dict:
        """Decode a ``(batch, physical_bits)`` stack of LLR blocks at once.

        The deinterleave / rate-dematch stages are vectorized over the
        batch axis and the channel decoder runs a single batched trellis
        sweep (:meth:`ConvolutionalCode.decode_batch` /
        :meth:`TurboCode.decode_batch`).  Returns ``{"bits", "crc_ok"}``
        where ``bits`` is ``(batch, transport_block)`` and ``crc_ok`` a
        boolean array (or ``None`` without CRC), bit-identical to
        looping :meth:`decode` over the rows.
        """
        llr = np.asarray(llr, dtype=np.float64)
        if llr.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {llr.shape}")
        if llr.shape[1] != self.physical_bits:
            raise ValueError(
                f"expected {self.physical_bits} LLRs per block, got {llr.shape[1]}"
            )
        deint = self._interleaver.deinterleave(llr)
        soft = rate_dematch(deint, self._coded_bits)
        if self.scheme is CodingScheme.NONE:
            msg = (soft < 0).astype(np.uint8)
        elif self.scheme is CodingScheme.CONVOLUTIONAL:
            msg = self.conv_code.decode_batch(soft, self._msg_bits, soft=True)
        else:
            msg = self.turbo.decode_batch(soft)
        crc_ok = None
        if self.crc:
            crc_ok = self.crc.check_batch(msg)
            msg = msg[:, : -self.crc.width]
        return {"bits": msg, "crc_ok": crc_ok}
