"""MF-TDMA framing and the burst-mode TDMA modem personality.

Implements the right-hand side of the paper's Fig. 3 and the access
scheme of the Fig. 2 payload: a multiple-frequency TDMA multiplex where
each carrier carries a slotted frame of bursts.  The modem's
waveform-specific block is **timing recovery** (Gardner [5] or
Oerder & Meyr [6], selected by burst length exactly as §2.3 prescribes);
everything downstream is shared with the CDMA personality.

Burst format: ``[preamble | unique word | payload]`` -- the alternating
preamble drives timing, the unique word (UW) resolves frame position and
carrier-phase ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve

from .filters import srrc, upsample
from .modem import PskModem, estimate_snr_m2m4
from .carrier import carrier_lock_metric, data_aided_phase, frequency_estimate
from .timing import (
    HISTORY_MAXLEN,
    gardner_track,
    loop_gains,
    oerder_meyr_strobes,
    timing_line,
)

__all__ = [
    "BurstFormat",
    "BurstSyncError",
    "SlotAssignment",
    "FramePlan",
    "TdmaModem",
    "default_uw",
]


class BurstSyncError(RuntimeError):
    """Burst synchronization failed (UW not found / burst truncated)."""


def _sliding_sum(x: np.ndarray, width: int) -> np.ndarray:
    """Sums of ``width`` consecutive samples along the last axis.

    Accumulates in sample order with one ufunc call per window offset,
    so every window's sum is independent of the batch shape.
    """
    n = x.shape[-1] - width + 1
    acc = x[..., :n].copy()
    for i in range(1, width):
        acc += x[..., i : i + n]
    return acc


#: CCITT-style 20-symbol unique word with good aperiodic autocorrelation.
_UW_BITS = np.array(
    [0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1,
     0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0],
    dtype=np.uint8,
)


def default_uw(psk: PskModem, length: int = 20) -> np.ndarray:
    """A known unique-word symbol pattern for the given constellation."""
    nbits = length * psk.bits_per_symbol
    bits = np.resize(_UW_BITS, nbits)
    return psk.modulate(bits)


@dataclass(frozen=True)
class BurstFormat:
    """Symbol counts of the three burst fields."""

    preamble: int = 32
    uw: int = 20
    payload: int = 256

    @property
    def total(self) -> int:
        return self.preamble + self.uw + self.payload

    def __post_init__(self) -> None:
        if min(self.preamble, self.uw, self.payload) < 1:
            raise ValueError("all burst fields must be >= 1 symbol")


@dataclass(frozen=True)
class SlotAssignment:
    """One terminal's transmission opportunity in the MF-TDMA grid."""

    terminal: str
    carrier: int
    slot: int


@dataclass
class FramePlan:
    """MF-TDMA frame plan: a carriers x slots grid of assignments.

    The paper's complexity example uses **6 carriers**; that is the
    default here.  ``guard_fraction`` reserves part of every slot as
    guard time, absorbing terminal timing error so adjacent bursts never
    collide.
    """

    num_carriers: int = 6
    slots_per_frame: int = 8
    frame_duration: float = 0.024  # seconds (24 ms, S-UMTS-like)
    guard_fraction: float = 0.05
    assignments: list[SlotAssignment] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_carriers < 1 or self.slots_per_frame < 1:
            raise ValueError("grid dimensions must be >= 1")
        if not 0.0 <= self.guard_fraction < 0.5:
            raise ValueError("guard_fraction must be in [0, 0.5)")

    @property
    def slot_duration(self) -> float:
        return self.frame_duration / self.slots_per_frame

    @property
    def guard_time(self) -> float:
        """Guard interval at each end of a slot."""
        return self.slot_duration * self.guard_fraction

    @property
    def usable_slot_duration(self) -> float:
        """Slot time available to the burst itself."""
        return self.slot_duration * (1.0 - 2.0 * self.guard_fraction)

    def burst_window(self, slot: int, symbol_rate: float, burst_symbols: int
                     ) -> tuple[float, float]:
        """(start, end) seconds of a burst within the frame.

        Raises when the burst does not fit the usable slot at the given
        symbol rate -- the sizing check a frame plan must enforce.
        """
        if not 0 <= slot < self.slots_per_frame:
            raise ValueError(f"slot {slot} out of range")
        if symbol_rate <= 0:
            raise ValueError("symbol_rate must be positive")
        duration = burst_symbols / symbol_rate
        if duration > self.usable_slot_duration + 1e-12:
            raise ValueError(
                f"burst of {burst_symbols} symbols ({duration*1e3:.2f} ms) "
                f"exceeds usable slot {self.usable_slot_duration*1e3:.2f} ms"
            )
        start = slot * self.slot_duration + self.guard_time
        return start, start + duration

    def max_burst_symbols(self, symbol_rate: float) -> int:
        """Largest burst (symbols) the usable slot accommodates."""
        if symbol_rate <= 0:
            raise ValueError("symbol_rate must be positive")
        return int(self.usable_slot_duration * symbol_rate)

    def release(self, terminal: str) -> int:
        """Free every slot held by ``terminal``; returns how many."""
        before = len(self.assignments)
        self.assignments = [a for a in self.assignments if a.terminal != terminal]
        return before - len(self.assignments)

    def assign(self, terminal: str, carrier: int, slot: int) -> SlotAssignment:
        """Reserve ``(carrier, slot)`` for ``terminal`` (must be free)."""
        if not 0 <= carrier < self.num_carriers:
            raise ValueError(f"carrier {carrier} out of range")
        if not 0 <= slot < self.slots_per_frame:
            raise ValueError(f"slot {slot} out of range")
        if self.occupant(carrier, slot) is not None:
            raise ValueError(f"slot ({carrier},{slot}) already assigned")
        sa = SlotAssignment(terminal, carrier, slot)
        self.assignments.append(sa)
        return sa

    def occupant(self, carrier: int, slot: int) -> str | None:
        """Terminal holding ``(carrier, slot)``, or None."""
        for sa in self.assignments:
            if sa.carrier == carrier and sa.slot == slot:
                return sa.terminal
        return None

    def utilization(self) -> float:
        """Fraction of the grid currently assigned."""
        return len(self.assignments) / (self.num_carriers * self.slots_per_frame)


class TdmaModem:
    """Burst-mode TDMA transmit/receive chain (Fig. 3, right branch).

    Transmit: bits -> PSK -> [preamble|UW|payload] -> SRRC shaping.
    Receive: SRRC matched filter -> timing recovery ([6] feedforward for
    short bursts, [5] Gardner loop for long ones) -> UW search ->
    data-aided phase -> demap.

    Parameters
    ----------
    burst:
        Field sizes; ``burst.payload`` caps the bits per burst.
    sps:
        Samples per symbol (>= 3 for the Oerder&Meyr estimator).
    beta, span:
        SRRC roll-off / span.
    modulation:
        PSK order (default QPSK).
    timing:
        ``"oerder-meyr"``, ``"gardner"`` or ``"auto"`` (paper rule:
        feedforward for short bursts, feedback for long ones).
    """

    #: burst length (symbols) above which "auto" picks the Gardner loop
    AUTO_THRESHOLD = 512

    def __init__(
        self,
        burst: BurstFormat | None = None,
        sps: int = 4,
        beta: float = 0.35,
        span: int = 8,
        modulation: int = 4,
        timing: str = "auto",
        cfo_recovery: bool = False,
    ) -> None:
        if timing not in ("oerder-meyr", "gardner", "auto"):
            raise ValueError(f"unknown timing mode {timing!r}")
        if sps < 3:
            raise ValueError("TDMA modem needs sps >= 3")
        self.burst = burst or BurstFormat()
        self.sps = sps
        self.beta = beta
        self.span = span
        self.psk = PskModem(modulation)
        self.pulse = srrc(beta, sps, span)
        self.timing = timing
        self.cfo_recovery = cfo_recovery
        self.uw = default_uw(self.psk, self.burst.uw)
        # Alternating preamble (1010...) maximizes timing-line energy.
        pre_bits = np.resize(
            np.array([1, 0], dtype=np.uint8),
            self.burst.preamble * self.psk.bits_per_symbol,
        )
        self.preamble = self.psk.modulate(pre_bits)

    @property
    def bits_per_burst(self) -> int:
        """Payload capacity of one burst in bits."""
        return self.burst.payload * self.psk.bits_per_symbol

    # -- transmit -------------------------------------------------------
    def transmit(self, bits: np.ndarray) -> np.ndarray:
        """Build one SRRC-shaped burst carrying ``bits`` (padded to payload)."""
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        if len(bits) > self.bits_per_burst:
            raise ValueError(
                f"{len(bits)} bits exceed burst capacity {self.bits_per_burst}"
            )
        padded = np.zeros(self.bits_per_burst, dtype=np.uint8)
        padded[: len(bits)] = bits
        payload = self.psk.modulate(padded)
        symbols = np.concatenate([self.preamble, self.uw, payload])
        x = upsample(symbols, self.sps)
        return fftconvolve(x, self.pulse, mode="full")

    def num_tx_samples(self) -> int:
        """Length of a transmitted burst in samples."""
        return self.burst.total * self.sps + len(self.pulse) - 1

    @property
    def batch_key(self) -> tuple:
        """Everything the receive chain depends on.

        Two modems with equal keys demodulate any burst identically, so
        one of them can run :meth:`receive_batch` for both -- the
        payload groups its carriers by this key.
        """
        return (
            self.burst, self.sps, self.beta, self.span, self.psk.order,
            self.timing, self.cfo_recovery,
        )

    # -- receive ----------------------------------------------------------
    def _recover_timing(self, mf: np.ndarray):
        """Strobes of every row: ``(symbols (C, K), counts, diags, lock)``.

        ``lock`` is every row's timing-lock metric, read off the same
        spectral line as the Oerder&Meyr estimate (None when the burst
        is too short to form the line).
        """
        mode = self.timing
        if mode == "auto":
            mode = (
                "gardner" if self.burst.total > self.AUTO_THRESHOLD else "oerder-meyr"
            )
        if mode == "oerder-meyr":
            taus, lock = timing_line(mf, self.sps)
            syms, counts = oerder_meyr_strobes(mf, taus, self.sps)
            diags = [{"timing_mode": mode, "tau": float(t)} for t in taus]
            return syms, counts, diags, lock
        lock = timing_line(mf, self.sps)[1] if mf.shape[-1] >= 4 * self.sps else None
        kp, ki = loop_gains(0.02, kd=2.0)
        zeros = np.zeros(len(mf))
        track = gardner_track(mf, self.sps, kp, ki, zeros, zeros)
        diags = [
            {
                "timing_mode": mode,
                "tau": float(tau),
                "tau_history": track.tau_path[r, : max(k - 1, 0)][-HISTORY_MAXLEN:],
            }
            for r, (tau, k) in enumerate(zip(track.tau, track.counts))
        ]
        return track.symbols, track.counts, diags, lock

    def _wanted_bits(self, num_bits, rows: int) -> list[int]:
        if num_bits is None or np.ndim(num_bits) == 0:
            num_bits = [num_bits] * rows
        if len(num_bits) != rows:
            raise ValueError(f"num_bits needs one entry per row ({rows})")
        wants = [self.bits_per_burst if n is None else int(n) for n in num_bits]
        if any(n > self.bits_per_burst for n in wants):
            raise ValueError("num_bits exceeds burst capacity")
        return wants

    def receive(self, samples: np.ndarray, num_bits: int | None = None) -> dict:
        """Demodulate one burst (after channel impairments).

        Returns ``bits`` (the first ``num_bits`` payload bits), the
        de-rotated payload ``symbols``, the UW correlation peak
        ``uw_metric`` (normalized to 1 for a clean burst), timing
        diagnostics and the data-aided ``phase``.  A one-row view of
        :meth:`receive_batch`; raises :class:`BurstSyncError` when the
        burst cannot be synchronized.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        res = self.receive_batch(samples[None], [num_bits])[0]
        if isinstance(res, BurstSyncError):
            raise res
        return res

    def receive_batch(self, samples: np.ndarray, num_bits=None) -> list:
        """Demodulate a ``(C, n)`` stack of bursts, one per row.

        ``num_bits`` is None (full payload), one int for every row, or a
        per-row sequence of ints/None.  Returns one entry per row: the
        :meth:`receive` diagnostics dict, or the row's
        :class:`BurstSyncError` *instance* -- one row losing sync never
        aborts the others.

        Every stage runs across rows: one axis-wise matched filter, one
        spectral line per row (reused by ``timing_lock``), one strobe
        gather (or one lock-step Gardner loop), axis-wise UW correlation
        and sliding-window energy, and last-axis reductions for phase,
        demapping, ``carrier_lock`` and the M2M4 SNR.  Rows whose strobe
        counts differ (their ``tau`` differs) run the UW search in
        separate count groups, so each row searches exactly the symbols
        a one-row call sees; all reductions stay on the contiguous last
        axis, so every row is bit-identical to :meth:`receive`.
        """
        x = np.asarray(samples, dtype=np.complex128)
        if x.ndim != 2:
            raise ValueError(f"expected a (C, n) stack, got shape {x.shape}")
        rows = x.shape[0]
        wants = self._wanted_bits(num_bits, rows)
        if rows == 0:
            return []
        mf = fftconvolve(x, self.pulse[None, ::-1], axes=-1)
        syms, counts, tdiags, lock = self._recover_timing(mf)

        # optional feedforward CFO removal on the recovered symbols:
        # an M-power FFT estimate, resolvable to +-1/(2M) cycles/symbol
        if self.cfo_recovery:
            for r, k in enumerate(counts):
                if k >= 8:
                    cfo = frequency_estimate(syms[r, :k], order=self.psk.order)
                    syms[r, :k] = syms[r, :k] * np.exp(-2j * np.pi * cfo * np.arange(k))
                    tdiags[r]["cfo"] = cfo

        results: list = [None] * rows
        for r in np.flatnonzero(counts < self.burst.total):
            results[r] = BurstSyncError("burst truncated: not enough recovered symbols")

        # UW search over symbol offsets and the M-fold phase ambiguity,
        # one count group at a time (conj(uw) correlated axis-wise)
        uw = self.uw
        nuw = len(uw)
        synced = np.flatnonzero(counts >= self.burst.total)
        pos = np.zeros(rows, dtype=np.int64)
        uw_metric = np.zeros(rows)
        for k in np.unique(counts[synced]):
            group = synced[counts[synced] == k]
            s = syms[group, :k]
            corr = fftconvolve(s, np.conj(uw[::-1])[None, :], mode="valid", axes=-1)
            energy = _sliding_sum(np.abs(s) ** 2, nuw)
            metric = np.abs(corr) / np.maximum(np.sqrt(energy * nuw), 1e-30)
            best = np.argmax(metric, axis=-1)
            pos[group] = best
            uw_metric[group] = metric[np.arange(len(group)), best]

        start = pos + nuw  # first payload symbol
        fits = start + self.burst.payload <= counts
        for r in synced[~fits[synced]]:
            results[r] = BurstSyncError("burst truncated after UW")
        good = synced[fits[synced]]
        if not len(good):
            return results
        if lock is None:
            raise ValueError("burst too short for a lock metric")
        flat = syms.reshape(-1)
        first = good * syms.shape[1]  # flat index of each good row
        payload = flat[(first + start[good])[:, None] + np.arange(self.burst.payload)]
        uw_rx = flat[(first + pos[good])[:, None] + np.arange(nuw)]
        phase = data_aided_phase(uw_rx, uw)
        payload = payload * np.exp(-1j * phase)[:, None]
        bits = self.psk.demodulate_hard(payload)
        # per-burst health diagnostics consumed by repro.robustness.fdir
        timing_lock = lock[good]
        carrier_lock = carrier_lock_metric(payload, self.psk.order)
        snr_db = estimate_snr_m2m4(payload)
        for j, r in enumerate(good):
            out = {
                "bits": bits[j, : wants[r]],
                "symbols": payload[j],
                "uw_metric": float(uw_metric[r]),
                "uw_position": int(pos[r]),
                "phase": float(phase[j]),
                "timing_lock": float(timing_lock[j]),
                "carrier_lock": float(carrier_lock[j]),
                "snr_db": float(snr_db[j]),
            }
            out.update(tdiags[r])
            results[r] = out
        return results
