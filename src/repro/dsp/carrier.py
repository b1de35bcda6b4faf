"""Carrier phase/frequency recovery.

Both modem personalities of Fig. 3 feed "to carrier recovery" after
their waveform-specific blocks; this module implements the shared
carrier-recovery functions: feedforward Viterbi&Viterbi M-power phase
estimation (burst-friendly), a data-aided estimator for known preambles,
an FFT-based frequency estimator, and a decision-directed tracking loop.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .timing import HISTORY_MAXLEN, loop_gains

__all__ = [
    "vv_phase_estimate",
    "carrier_lock_metric",
    "data_aided_phase",
    "frequency_estimate",
    "DecisionDirectedLoop",
]


def vv_phase_estimate(
    symbols: np.ndarray, order: int = 4, rotation: float | None = None
) -> float:
    """Viterbi & Viterbi M-power feedforward phase estimate.

    Removes the M-PSK modulation by raising symbols to the M-th power and
    measuring the residual phase.  ``rotation`` is the constellation's
    base rotation (``pi/4`` for this package's Gray QPSK; inferred from
    ``order`` when omitted).  Returns a phase in ``[-pi/M, pi/M)`` -- the
    well-known M-fold ambiguity is inherent and resolved by the unique
    word in the TDMA burst format.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    symbols = np.asarray(symbols)
    if len(symbols) == 0:
        raise ValueError("empty symbol block")
    if rotation is None:
        rotation = np.pi / 4 if order == 4 else 0.0
    acc = np.sum(symbols**order) * np.exp(-1j * order * rotation)
    return float(np.angle(acc) / order)


def carrier_lock_metric(symbols: np.ndarray, order: int = 4):
    """Phase coherence of modulation-stripped symbols, in [0, 1].

    Normalizes the Viterbi&Viterbi accumulator: symbols are projected
    onto the unit circle, raised to the M-th power (stripping M-PSK
    modulation) and coherently summed,

    ``metric = | sum (y/|y|)^M | / N``.

    A carrier-locked burst (constant residual phase) gives a value near
    1; a residual *frequency* offset, heavy phase noise or pure noise
    decorrelates the M-power phases and drives the metric towards the
    ``O(1/sqrt(N))`` floor.  This is the per-burst **carrier-lock
    detector** used by the FDIR health monitors.

    Batch-aware: a ``(C, N)`` stack gives one metric per row (a float
    for a single burst).  Symbols of zero magnitude carry no phase and
    are left out of the sum; rows holding any are reduced on their own
    so the sum runs over exactly the symbols a one-row call sees.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    y = np.asarray(symbols)
    if y.shape[-1] == 0:
        raise ValueError("empty symbol block")
    mag = np.abs(y)
    good = mag > 1e-30
    clean = good.all(axis=-1)
    u = y / np.where(good, mag, 1.0)
    metric = np.abs(np.sum(u**order, axis=-1)) / y.shape[-1]
    if not clean.all():
        metric = np.array(metric, dtype=np.float64, ndmin=1)
        rows = y.reshape(-1, y.shape[-1])
        masks = good.reshape(rows.shape)
        for r in np.flatnonzero(~clean.ravel()):
            ur = rows[r][masks[r]] / mag.reshape(rows.shape)[r][masks[r]]
            metric[r] = np.abs(np.sum(ur**order)) / y.shape[-1] if ur.size else 0.0
        metric = metric.reshape(clean.shape)
    return float(metric) if y.ndim == 1 else metric


def data_aided_phase(received: np.ndarray, reference: np.ndarray):
    """Maximum-likelihood phase estimate from known (pilot/UW) symbols.

    ``received`` may be a ``(C, N)`` stack against one ``(N,)``
    reference: one phase per row (a float for a single burst).
    """
    received = np.asarray(received)
    reference = np.asarray(reference)
    if received.shape[-1:] != reference.shape:
        raise ValueError("received/reference length mismatch")
    phase = np.angle(np.sum(received * np.conj(reference), axis=-1))
    return float(phase) if received.ndim == 1 else phase


def frequency_estimate(symbols: np.ndarray, order: int = 4, pad: int = 4) -> float:
    """FFT-based frequency-offset estimator on modulation-stripped symbols.

    Returns the offset in cycles/symbol, resolvable up to
    ``+-1/(2*order)``.  ``pad`` is the zero-padding factor refining the
    FFT bin; a final parabolic interpolation sharpens the peak.
    """
    symbols = np.asarray(symbols)
    n = len(symbols)
    if n < 8:
        raise ValueError("need at least 8 symbols")
    stripped = symbols**order
    nfft = int(2 ** np.ceil(np.log2(n * pad)))
    spec = np.abs(np.fft.fft(stripped, nfft))
    k = int(np.argmax(spec))
    # parabolic refinement around the peak
    km, kp = (k - 1) % nfft, (k + 1) % nfft
    a, b, c = spec[km], spec[k], spec[kp]
    denom = a - 2.0 * b + c
    delta = 0.0 if abs(denom) < 1e-30 else 0.5 * (a - c) / denom
    freq = (k + delta) / nfft
    if freq > 0.5:
        freq -= 1.0
    return float(freq / order)


class DecisionDirectedLoop:
    """2nd-order decision-directed phase tracking loop for M-PSK.

    Suitable for the continuous (CDMA return-link) case; TDMA bursts use
    the feedforward estimators above.  Symbol decisions are nearest-PSK
    points; the detector is ``Im{y * conj(decision)}``.
    """

    def __init__(
        self,
        order: int = 4,
        bn_ts: float = 0.01,
        zeta: float = 0.7071,
        history_maxlen: int = HISTORY_MAXLEN,
    ):
        if order not in (2, 4, 8):
            raise ValueError("order must be 2, 4 or 8")
        self.order = order
        self.kp, self.ki = loop_gains(bn_ts, zeta, kd=1.0)
        self.phase = 0.0
        self.freq = 0.0
        # bounded ring buffer: long-running carriers used to leak one
        # float per symbol forever (see repro.dsp.timing.HISTORY_MAXLEN)
        self.phase_history: deque[float] = deque(maxlen=history_maxlen)

    def _decide(self, y: complex) -> complex:
        m = self.order
        if m == 2:
            return 1.0 if y.real >= 0 else -1.0
        step = 2.0 * np.pi / m
        base = np.pi / 4 if m == 4 else 0.0
        k = np.round((np.angle(y) - base) / step)
        return np.exp(1j * (base + step * k))

    def process(self, symbols: np.ndarray) -> np.ndarray:
        """De-rotate a symbol stream, tracking phase and residual frequency."""
        symbols = np.asarray(symbols, dtype=np.complex128)
        out = np.empty_like(symbols)
        ph = self.phase
        fr = self.freq
        hist = self.phase_history
        for i, s in enumerate(symbols):
            y = s * np.exp(-1j * ph)
            out[i] = y
            d = self._decide(y)
            e = float(np.imag(y * np.conj(d))) / max(abs(d), 1e-12)
            fr += self.ki * e
            ph += self.kp * e + fr
            hist.append(ph)
        self.phase = float(np.mod(ph, 2.0 * np.pi))
        self.freq = fr
        return out
