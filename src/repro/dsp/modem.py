"""PSK mapping/demapping and link-quality utilities.

The paper's modems (Fig. 3) share everything downstream of the
synchronizers: a PSK symbol demapper feeding the decoder.  This module
provides Gray-mapped BPSK/QPSK/8PSK constellations, hard and soft (LLR)
demapping, and the Eb/N0 bookkeeping used throughout the benchmarks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PskModem",
    "ebn0_to_sigma",
    "esn0_from_ebn0",
    "count_bit_errors",
    "ber",
    "estimate_snr_m2m4",
    "qfunc",
    "theoretical_ber_bpsk",
]


def qfunc(x: np.ndarray | float) -> np.ndarray | float:
    """Gaussian tail probability Q(x)."""
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x) / np.sqrt(2.0))


def theoretical_ber_bpsk(ebn0_db: float) -> float:
    """Exact AWGN BER for BPSK/QPSK (per-bit): Q(sqrt(2 Eb/N0))."""
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return float(qfunc(np.sqrt(2.0 * ebn0)))


def esn0_from_ebn0(ebn0_db: float, bits_per_symbol: int, code_rate: float = 1.0) -> float:
    """Convert Eb/N0 [dB] to Es/N0 [dB] for a coded modulation."""
    if bits_per_symbol < 1:
        raise ValueError("bits_per_symbol must be >= 1")
    if not 0.0 < code_rate <= 1.0:
        raise ValueError("code_rate must be in (0, 1]")
    return ebn0_db + 10.0 * np.log10(bits_per_symbol * code_rate)


def ebn0_to_sigma(
    ebn0_db: float, bits_per_symbol: int = 1, code_rate: float = 1.0, es: float = 1.0
) -> float:
    """Per-dimension complex-noise sigma for a target Eb/N0.

    With symbol energy ``es``, the complex noise is
    ``sigma * (randn + 1j randn)`` where
    ``sigma = sqrt(N0 / 2)`` and ``N0 = es / (Es/N0)``.
    """
    esn0_db = esn0_from_ebn0(ebn0_db, bits_per_symbol, code_rate)
    esn0 = 10.0 ** (esn0_db / 10.0)
    n0 = es / esn0
    return float(np.sqrt(n0 / 2.0))


def count_bit_errors(a: np.ndarray, b: np.ndarray) -> int:
    """Number of differing bits between two equal-length bit arrays."""
    a = np.asarray(a).astype(np.uint8)
    b = np.asarray(b).astype(np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def ber(a: np.ndarray, b: np.ndarray) -> float:
    """Bit error rate between two bit arrays."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return count_bit_errors(a, b) / a.size


def estimate_snr_m2m4(symbols: np.ndarray, max_snr_db: float = 40.0):
    """Blind M2M4 SNR estimate [dB] for constant-modulus (PSK) symbols.

    The classic second/fourth moment estimator [Pauluzzi & Beaulieu,
    IEEE Trans. Comm. 2000]: with ``M2 = E|y|^2`` and ``M4 = E|y|^4``
    and a constant-modulus signal in complex AWGN,

    ``S = sqrt(2 M2^2 - M4)``, ``N = M2 - S``, ``SNR = S / N``.

    It needs no pilots or decisions, which makes it usable as a
    *health* metric while the carrier may be unlocked: pure noise (or a
    garbage burst) drives the estimate towards ``-inf``/very low values.
    The return value is clamped to ``[-max_snr_db, max_snr_db]`` so the
    estimator never overflows telemetry on degenerate inputs.

    Batch-aware: the moments are last-axis means, so a ``(C, N)`` stack
    gives one estimate per row (a float for a single burst).
    """
    y = np.asarray(symbols)
    if y.shape[-1] < 8:
        raise ValueError("need at least 8 symbols for an SNR estimate")
    p = np.abs(y) ** 2
    m2 = np.mean(p, axis=-1)
    m4 = np.mean(p**2, axis=-1)
    if y.ndim == 1:
        return _m2m4_db(float(m2), float(m4), max_snr_db)
    flat = [_m2m4_db(a, b, max_snr_db) for a, b in zip(m2.ravel().tolist(), m4.ravel().tolist())]
    return np.array(flat).reshape(m2.shape)


def _m2m4_db(m2: float, m4: float, max_snr_db: float) -> float:
    """Finish one M2M4 estimate from its two moments."""
    if m2 <= 0.0:
        return -max_snr_db
    arg = 2.0 * m2 * m2 - m4
    s = np.sqrt(arg) if arg > 0.0 else 0.0
    n = m2 - s
    if s <= 0.0:
        return -max_snr_db
    if n <= 0.0:
        return max_snr_db
    snr_db = 10.0 * float(np.log10(s / n))
    return float(np.clip(snr_db, -max_snr_db, max_snr_db))


def _gray_psk_constellation(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (points, bit_labels) for Gray-mapped M-PSK, unit energy."""
    k = int(np.log2(m))
    if 2**k != m:
        raise ValueError("M must be a power of two")
    idx = np.arange(m)
    gray = idx ^ (idx >> 1)
    if m == 2:
        points = np.array([1.0 + 0j, -1.0 + 0j])
        labels = np.array([[0], [1]], dtype=np.uint8)
        return points, labels
    if m == 4:
        # Gray QPSK: one bit per rail, pi/4-rotated so rails are I and Q.
        angles = np.pi / 4 + np.pi / 2 * np.arange(4)
        points_g = np.exp(1j * angles)  # order by gray index along the circle
    else:
        points_g = np.exp(1j * 2.0 * np.pi * np.arange(m) / m)
    # position i on the circle carries gray label gray[i]
    points = np.empty(m, dtype=complex)
    labels = np.empty((m, k), dtype=np.uint8)
    for pos in range(m):
        g = gray[pos]
        points[g] = points_g[pos]
    for val in range(m):
        labels[val] = [(val >> (k - 1 - b)) & 1 for b in range(k)]
    return points, labels


class PskModem:
    """Gray-mapped M-PSK modulator/demodulator.

    ``order`` is 2 (BPSK), 4 (QPSK) or 8 (8PSK).  Symbols have unit
    energy.  Soft demapping produces max-log LLRs with the convention
    ``LLR > 0  <=>  bit = 0``.
    """

    def __init__(self, order: int = 4) -> None:
        if order not in (2, 4, 8):
            raise ValueError("order must be 2, 4 or 8")
        self.order = order
        self.bits_per_symbol = int(np.log2(order))
        self.points, self.labels = _gray_psk_constellation(order)
        # per-bit index sets for LLR computation
        k = self.bits_per_symbol
        self._bit0_sets = [np.where(self.labels[:, b] == 0)[0] for b in range(k)]
        self._bit1_sets = [np.where(self.labels[:, b] == 1)[0] for b in range(k)]

    # -- modulation ----------------------------------------------------
    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map a bit array (length multiple of bits/symbol) to symbols."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        k = self.bits_per_symbol
        if len(bits) % k:
            raise ValueError(f"bit count {len(bits)} not a multiple of {k}")
        groups = bits.reshape(-1, k)
        weights = 1 << np.arange(k - 1, -1, -1)
        sym_idx = groups @ weights
        return self.points[sym_idx]

    # -- demodulation ---------------------------------------------------
    def demodulate_hard(self, symbols: np.ndarray) -> np.ndarray:
        """Minimum-distance hard decisions -> bit array.

        Batch-aware: ``symbols`` may carry any number of leading axes
        (e.g. ``(batch, N)`` for a stack of bursts); decisions are made
        along the last axis and the output replaces it with ``N *
        bits_per_symbol`` bits.  A 1-D input returns a 1-D bit array,
        as before.
        """
        symbols = np.asarray(symbols)
        d = np.abs(symbols[..., None] - self.points)
        idx = np.argmin(d, axis=-1)
        bits = self.labels[idx]  # (..., N, k)
        return bits.reshape(symbols.shape[:-1] + (-1,))

    def demodulate_soft(self, symbols: np.ndarray, noise_var: float) -> np.ndarray:
        """Max-log LLRs, one per bit, ``LLR = log P(b=0) - log P(b=1)``.

        ``noise_var`` is the total complex noise variance (N0).
        Batch-aware like :meth:`demodulate_hard`: leading axes are
        preserved and the last axis becomes ``N * bits_per_symbol``
        LLRs, bit-identical to demodulating each row separately.
        """
        if noise_var <= 0:
            raise ValueError("noise_var must be positive")
        symbols = np.asarray(symbols)
        # squared distances to each constellation point: (..., N, M)
        d2 = np.abs(symbols[..., None] - self.points) ** 2
        k = self.bits_per_symbol
        out = np.empty(symbols.shape + (k,))
        for b in range(k):
            m0 = d2[..., self._bit0_sets[b]].min(axis=-1)
            m1 = d2[..., self._bit1_sets[b]].min(axis=-1)
            out[..., b] = (m1 - m0) / noise_var
        return out.reshape(symbols.shape[:-1] + (-1,))

    def symbol_indices(self, bits: np.ndarray) -> np.ndarray:
        """Bit array -> integer symbol indices (for tests/inspection)."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        k = self.bits_per_symbol
        groups = bits.reshape(-1, k)
        weights = 1 << np.arange(k - 1, -1, -1)
        return groups @ weights
