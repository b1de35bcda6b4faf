"""Symbol-timing recovery for the TDMA modem.

The paper (§2.3) selects between two published algorithms depending on
burst length:

- the **Gardner timing-error detector** [F.M. Gardner, "A BPSK/QPSK
  Timing Error Detector for Sampled Receivers", IEEE Trans. Comm. 1986]
  -- a decision-independent feedback loop working at 2 samples/symbol,
  suited to long bursts / continuous streams;
- the **Oerder & Meyr square-law estimator** [M. Oerder, H. Meyr,
  "Digital Filter and Square Timing Recovery", IEEE Trans. Comm. 1988]
  -- a feedforward block estimator, suited to short TDMA bursts.

Both are implemented here together with the cubic (4-point Lagrange)
interpolator they share.

Every kernel works on the last axis, so a ``(C, n)`` stack of bursts
(one row per MF-TDMA carrier) is recovered in one call:
:func:`timing_line` forms every row's spectral line with one last-axis
reduction, :func:`oerder_meyr_strobes` interpolates every row's strobes
with one gather, and :func:`gardner_track` runs one Gardner loop per row
in lock-step.  The scalar entry points are one-row views of these
kernels, so batched and per-row results are identical by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..caching import cached_design, freeze

__all__ = [
    "cubic_interpolate",
    "farrow_coefficients",
    "fold_timing_offset",
    "oerder_meyr_estimate",
    "oerder_meyr_recover",
    "oerder_meyr_strobes",
    "timing_line",
    "timing_lock_metric",
    "GardnerLoop",
    "GardnerTrack",
    "gardner_track",
    "loop_gains",
]

#: Cap on the diagnostic history ring buffers kept by the feedback
#: loops.  Long-running carriers (mission runs carry bursts for
#: hours) previously grew ``error_history``/``tau_history`` without
#: bound; a few thousand entries are plenty for every ``error_rms``
#: window in the repo.
HISTORY_MAXLEN = 4096


def cubic_interpolate(x: np.ndarray, base: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """4-point Lagrange cubic interpolation.

    Evaluates the signal at fractional positions ``base + mu`` where
    ``base`` are integer indices (pointing at the sample *before* the
    interpolation instant) and ``0 <= mu < 1``.  Points needing samples
    outside the array are clamped to the valid range.

    Works along the last axis: with a ``(C, n)`` signal, ``base`` and
    ``mu`` are ``(C, K)`` and row ``c`` is interpolated from ``x[c]``.
    """
    x = np.asarray(x)
    base = np.asarray(base, dtype=np.int64)
    mu = np.asarray(mu, dtype=np.float64)
    n = x.shape[-1]
    if n < 4:
        raise ValueError("need at least 4 samples for cubic interpolation")
    base = np.clip(base, 1, n - 3)
    if x.ndim > 1:  # one flat gather: row r's samples start at r * n
        rows = np.arange(x.size // n).reshape(x.shape[:-1] + (1,))
        base = base + rows * n
        x = x.reshape(-1)
    xm1 = x[base - 1]
    x0 = x[base]
    x1 = x[base + 1]
    x2 = x[base + 2]
    # Farrow-form cubic Lagrange coefficients
    c0 = x0
    c1 = x1 - xm1 / 3.0 - x0 / 2.0 - x2 / 6.0
    c2 = (xm1 + x1) / 2.0 - x0
    c3 = (x2 - xm1) / 6.0 + (x0 - x1) / 2.0
    return ((c3 * mu + c2) * mu + c1) * mu + c0


def farrow_coefficients(
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Farrow-form cubic coefficients for every base index of ``x``.

    Returns ``(c0, c1, c2, c3)`` arrays of length ``n - 3`` (along the
    last axis of ``x``) where entry ``i`` holds the coefficients of base
    index ``b = i + 1``
    (the valid base range of :func:`cubic_interpolate` after clamping
    is ``[1, n - 3]``).  Evaluating
    ``((c3[b-1]*mu + c2[b-1])*mu + c1[b-1])*mu + c0[b-1]`` is
    bit-identical to ``cubic_interpolate(x, [b], [mu])[0]`` -- the same
    arithmetic, hoisted out of the per-strobe feedback loop so the loop
    body does pure scalar math (no per-symbol array allocation).
    """
    x = np.asarray(x)
    if x.shape[-1] < 4:
        raise ValueError("need at least 4 samples for cubic interpolation")
    xm1 = x[..., :-3]
    x0 = x[..., 1:-2]
    x1 = x[..., 2:-1]
    x2 = x[..., 3:]
    c0 = x0
    c1 = x1 - xm1 / 3.0 - x0 / 2.0 - x2 / 6.0
    c2 = (xm1 + x1) / 2.0 - x0
    c3 = (x2 - xm1) / 6.0 + (x0 - x1) / 2.0
    return c0, c1, c2, c3


def fold_timing_offset(tau: float, sps: int | float) -> float:
    """Fold a timing offset into the half-open interval ``[0, sps)``.

    ``np.mod`` alone cannot guarantee this: for a tiny negative ``tau``
    the rounded result equals the modulus itself
    (``np.mod(-1e-18, 4) == 4.0``), which violates the ``0 <= tau <
    sps`` contract of :func:`oerder_meyr_estimate` and mis-places the
    first strobe of :func:`oerder_meyr_recover` by one full symbol.
    The boundary folds back to ``0.0``.
    """
    t = float(np.mod(tau, sps))
    if t >= sps:
        t = 0.0
    return t


@cached_design("timing.line_phasor", maxsize=64)
def _line_phasor(n: int, sps: int) -> np.ndarray:
    """``exp(-j 2 pi k / sps)`` for ``k < n``: the symbol-rate line phasor."""
    return freeze(np.exp(-2j * np.pi * np.arange(n) / sps))


def timing_line(x: np.ndarray, sps: int) -> tuple:
    """Oerder&Meyr timing offset and timing-lock metric, per row.

    Both are read off one symbol-rate spectral line of ``|x|^2``,
    ``C1 = sum |x|^2 exp(-j 2 pi n / sps)`` with ``C0 = sum |x|^2``,
    formed by last-axis sums (one line per row of a ``(C, n)`` stack):

    - ``tau = -sps/(2*pi) * arg(C1)`` folded into ``[0, sps)`` exactly
      as :func:`fold_timing_offset` does;
    - ``lock = |C1| / C0`` (0 for a dead burst).

    Returns ``(tau, lock)``: floats for one burst, ``(C,)`` arrays for
    a stack -- so a receiver forms the line once per burst.
    """
    if sps < 3:
        raise ValueError("Oerder&Meyr requires sps >= 3 (4 typical)")
    x = np.asarray(x)
    if x.shape[-1] < 4 * sps:
        raise ValueError("burst too short for a timing estimate")
    sq = np.abs(x) ** 2
    c0 = np.sum(sq, axis=-1)
    c1 = np.sum(sq * _line_phasor(x.shape[-1], sps), axis=-1)
    tau = np.mod(-sps / (2.0 * np.pi) * np.angle(c1), sps)
    tau = np.where(tau >= sps, 0.0, tau)
    live = c0 > 0.0
    lock = np.where(live, np.abs(c1) / np.where(live, c0, 1.0), 0.0)
    if x.ndim == 1:
        return float(tau), float(lock)
    return tau, lock


def oerder_meyr_estimate(x: np.ndarray, sps: int) -> float:
    """Oerder & Meyr feedforward timing estimate.

    Returns the timing offset ``tau`` in samples, ``0 <= tau < sps``,
    estimated from the phase of the symbol-rate spectral line of
    ``|x|^2``:

    ``tau = -sps/(2*pi) * arg( sum_n |x[n]|^2 exp(-j*2*pi*n/sps) )``

    Requires ``sps >= 3`` (the spectral line must be observable) and at
    least a few tens of symbols for a stable estimate.
    """
    return timing_line(x, sps)[0]


def oerder_meyr_strobes(
    x: np.ndarray, taus: np.ndarray, sps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate every row's symbol strobes in one gather.

    Row ``c`` of the ``(C, n)`` stack ``x`` is sampled at
    ``np.arange(taus[c], n - 2.0, sps)``.  Rows whose ``tau`` differs
    get strobe counts differing by at most one, so the result is a
    ``(C, K)`` array padded past each row's ``counts[c]`` strobes.
    Positions are built with ``np.arange``'s own fill rule
    (``start + i * ((start + step) - start)``), so each row is
    bit-identical to a one-row call.
    """
    x = np.asarray(x)
    taus = np.asarray(taus, dtype=np.float64)
    n = x.shape[-1]
    counts = np.maximum(np.ceil((n - 2.0 - taus) / sps), 0).astype(np.int64)
    kmax = int(counts.max(initial=0))
    delta = (taus + sps) - taus
    positions = taus[:, None] + np.arange(kmax) * delta[:, None]
    if kmax > 1:
        positions[:, 1] = taus + sps
    base = np.floor(positions).astype(np.int64)
    return cubic_interpolate(x, base, positions - base), counts


def oerder_meyr_recover(x: np.ndarray, sps: int) -> tuple[np.ndarray, float]:
    """Block timing recovery: estimate tau then interpolate symbol samples.

    Returns ``(symbols, tau)`` where ``symbols`` are the interpolated
    symbol-rate samples.
    """
    tau = oerder_meyr_estimate(x, sps)
    syms, counts = oerder_meyr_strobes(np.asarray(x)[None], [tau], sps)
    return syms[0, : counts[0]], tau


def timing_lock_metric(x: np.ndarray, sps: int) -> float:
    """Strength of the symbol-rate spectral line, ``|C1| / C0`` in [0, 1].

    The Oerder&Meyr estimator derives its timing phase from the complex
    line ``C1 = sum |x|^2 exp(-j 2 pi n / sps)``; the *magnitude* of
    that line relative to the total squared-envelope energy ``C0`` is a
    natural **timing-lock detector**: a PSK burst with excess bandwidth
    concentrates energy at the symbol rate (metric well above the noise
    floor), while pure noise or an un-synchronisable signal leaves only
    the ``O(1/sqrt(N))`` estimation floor.  Used by the FDIR health
    monitors (:mod:`repro.robustness.fdir`) as a per-burst lock check.
    """
    return timing_line(x, sps)[1]


def loop_gains(bn_ts: float, zeta: float = 0.7071, kd: float = 1.0) -> tuple[float, float]:
    """Proportional/integral gains of a 2nd-order digital PLL.

    ``bn_ts`` is the loop noise bandwidth normalized to the update (symbol)
    rate; ``zeta`` the damping; ``kd`` the detector gain.
    """
    if bn_ts <= 0:
        raise ValueError("loop bandwidth must be positive")
    theta = bn_ts / (zeta + 1.0 / (4.0 * zeta))
    denom = 1.0 + 2.0 * zeta * theta + theta * theta
    kp = 4.0 * zeta * theta / denom / kd
    ki = 4.0 * theta * theta / denom / kd
    return kp, ki


@dataclass(frozen=True)
class GardnerTrack:
    """Outcome of :func:`gardner_track` for a ``(C, n)`` stack.

    Row ``c`` produced ``counts[c]`` strobes (``symbols[c, :counts[c]]``)
    and ``counts[c] - 1`` loop updates (``errors``/``tau_path`` up to
    that length; ``tau_path`` holds the folded timing phase after each
    update).  ``tau``/``integrator`` are the loop states to resume from.
    """

    symbols: np.ndarray
    counts: np.ndarray
    tau: np.ndarray
    integrator: np.ndarray
    errors: np.ndarray
    tau_path: np.ndarray


def gardner_track(
    x: np.ndarray,
    sps: int,
    kp: float,
    ki: float,
    tau: np.ndarray,
    integrator: np.ndarray,
) -> GardnerTrack:
    """Gardner TED + 2nd-order loop over every row of ``x`` in lock-step.

    ``x`` is a ``(C, n)`` stack; ``tau``/``integrator`` are the ``(C,)``
    initial loop states.  The recursion is sequential in time, so one
    Python iteration advances the strobe of *every* row: the two Horner
    evaluations (strobe and mid-point) are one gather into the Farrow
    coefficient table plus six ``(C, 2)`` ufunc calls, and the loop
    filter is per-row state arrays -- the pattern of the CDMA block DLL.
    A row whose next strobe would leave its buffer drops out of the
    active set with its final state recorded.

    The error is formed in real arithmetic,
    ``Re{d conj(m)} = d.re * m.re + d.im * m.im``, which is exactly the
    textbook complex product's real part and keeps every row's result
    independent of the batch width.
    """
    x = np.asarray(x, dtype=np.complex128)
    nrows, n = x.shape
    half = sps / 2.0
    pos = 1.0 + np.asarray(tau, dtype=np.float64)  # first strobe needs base >= 1
    integ = np.array(integrator, dtype=np.float64)
    final_pos = pos.copy()
    final_integ = integ.copy()
    counts = np.zeros(nrows, dtype=np.int64)
    ys: list[np.ndarray] = []
    errs: list[np.ndarray] = []
    path: list[np.ndarray] = []
    segments: list[tuple[int, np.ndarray]] = []  # (first step, active rows)
    act = np.arange(nrows)
    if n >= 4:
        # Farrow coefficients of every row, flattened; entry i of row c
        # sits at c * (n - 3) + i and belongs to base b = i + 1
        coef = np.stack(farrow_coefficients(x)).reshape(4, -1)
        b_max = n - 3
        rowoff = act * (n - 3) - 1
        offsets = np.array([0.0, half])
        prev = None
        step = 0
        while act.size:
            if not pos.max() + half + 2.0 < n:  # some row's buffer ends
                live = pos + half + 2.0 < n
                gone = act[~live]
                counts[gone] = step
                final_pos[gone] = pos[~live]
                final_integ[gone] = integ[~live]
                act, pos, integ, rowoff = act[live], pos[live], integ[live], rowoff[live]
                if prev is not None:
                    prev = prev[live]
                if not act.size:
                    break
            if not segments or segments[-1][1] is not act:
                segments.append((step, act))
            p2 = pos[:, None] - offsets  # strobe and mid-point
            b = p2.astype(np.int64)
            mu = p2 - b
            c = coef[:, np.minimum(np.maximum(b, 1), b_max) + rowoff[:, None]]
            y2 = ((c[3] * mu + c[2]) * mu + c[1]) * mu + c[0]
            y, ymid = y2[:, 0], y2[:, 1]
            if prev is not None:
                d = y - prev
                e = d.real * ymid.real + d.imag * ymid.imag
                integ = integ + ki * e
                pos = pos - (kp * e + integ) * sps
                errs.append(e)
                path.append(pos)
            ys.append(y)
            prev = y
            pos = pos + sps
            step += 1

    kmax = int(counts.max(initial=0))
    symbols = np.zeros((nrows, kmax), dtype=np.complex128)
    errors = np.zeros((nrows, max(kmax - 1, 0)))
    tau_path = np.zeros_like(errors)
    bounds = [k0 for k0, _ in segments[1:]] + [len(ys)]
    for (k0, rows), k1 in zip(segments, bounds):
        symbols[rows[:, None], np.arange(k0, k1)] = np.stack(ys[k0:k1], axis=1)
        u0 = max(k0, 1)
        if k1 > u0:  # loop updates happen from the second strobe on
            cols = np.arange(u0 - 1, k1 - 1)
            errors[rows[:, None], cols] = np.stack(errs[u0 - 1 : k1 - 1], axis=1)
            tau_path[rows[:, None], cols] = np.stack(path[u0 - 1 : k1 - 1], axis=1)
    folded = np.mod(tau_path, sps)
    tau_path = np.where(folded >= sps, 0.0, folded)
    return GardnerTrack(
        symbols=symbols,
        counts=counts,
        tau=np.array([fold_timing_offset(p, sps) for p in final_pos]),
        integrator=final_integ,
        errors=errors,
        tau_path=tau_path,
    )


class GardnerLoop:
    """Gardner TED + 2nd-order loop + cubic interpolator (feedback).

    Works on an input at ``sps`` samples/symbol (``sps >= 2``); outputs
    one complex sample per symbol.  The Gardner error,

    ``e[k] = Re{ (y[k] - y[k-1]) * conj(y_mid[k]) }``,

    is decision-independent (works for BPSK and QPSK without carrier
    lock, the property the paper's reference [5] is cited for).

    :meth:`process` is the one-row view of :func:`gardner_track`, the
    lock-step kernel the TDMA modem runs across carriers; the loop state
    (``tau`` and the integrator) carries over between calls, so a stream
    can be fed block by block.

    ``error_history``/``tau_history`` are bounded ring buffers
    (``deque(maxlen=HISTORY_MAXLEN)``): long-running carriers used to
    leak memory, one float per symbol, forever.
    """

    def __init__(
        self,
        sps: int = 4,
        bn_ts: float = 0.01,
        zeta: float = 0.7071,
        initial_tau: float = 0.0,
        history_maxlen: int = HISTORY_MAXLEN,
    ) -> None:
        if sps < 2:
            raise ValueError("Gardner requires at least 2 samples/symbol")
        self.sps = sps
        self.kp, self.ki = loop_gains(bn_ts, zeta, kd=2.0)
        self.tau = float(initial_tau)  # fractional timing phase, samples
        self._integrator = 0.0
        self.error_history: deque[float] = deque(maxlen=history_maxlen)
        self.tau_history: deque[float] = deque(maxlen=history_maxlen)

    def process(self, x: np.ndarray) -> np.ndarray:
        """Recover symbols from one oversampled burst.

        Returns the symbol-rate strobes.  ``error_history`` and
        ``tau_history`` record the (bounded) loop trajectory for
        diagnostics.
        """
        x = np.asarray(x, dtype=np.complex128)
        track = gardner_track(
            x[None], self.sps, self.kp, self.ki, [self.tau], [self._integrator]
        )
        k = int(track.counts[0])
        self.error_history.extend(track.errors[0, : k - 1].tolist())
        self.tau_history.extend(track.tau_path[0, : k - 1].tolist())
        self.tau = float(track.tau[0])
        self._integrator = float(track.integrator[0])
        return track.symbols[0, :k]

    def error_rms(self, window: int = 64) -> float:
        """RMS of the last ``window`` detector errors (lock diagnostic).

        A settled loop shows a small residual (noise-driven) error; a
        loop that never converged -- wrong symbol rate, no signal --
        keeps a large detector error.  Returns 0.0 before any update.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        if not self.error_history:
            return 0.0
        tail = np.asarray(self.error_history, dtype=np.float64)[-window:]
        return float(np.sqrt(np.mean(tail**2)))
