"""Frequency demultiplexer (DEMUX) for the MF-TDMA multiplex.

The payload receives several FDM carriers per beam (Fig. 2: "DBFN +
DEMUX" feeding one demodulator per carrier).  Two implementations are
provided:

- :class:`DdcBank` -- one DDC per carrier (simple, flexible spacing);
- :class:`PolyphaseChannelizer` -- the classic critically-sampled
  M-branch polyphase/FFT channelizer for uniformly spaced carriers,
  which is how such DEMUXes are realized in hardware (M half-band/FIR
  branches + FFT), at 1/M the per-channel cost of the DDC bank.

Both return an (M, N/M) array of per-carrier baseband streams.
"""

from __future__ import annotations

import numpy as np

from ..caching import cached_design, freeze
from .filters import design_lowpass
from .nco import Ddc

__all__ = [
    "DdcBank",
    "PolyphaseChannelizer",
    "multiplex_carriers",
    "synthesis_branches",
]


@cached_design("demux.synthesis_branches", maxsize=16)
def synthesis_branches(num_channels: int) -> np.ndarray:
    """Polyphase branch table of the carrier multiplexer, ``(M, T)``.

    The prototype is an ``8M + 1``-tap windowed-sinc low-pass (band
    edge ``0.4/M``) with interpolation gain ``M``; branch ``r`` holds
    taps ``r, r + M, r + 2M, ...`` zero-padded to ``T = 9``.  Cached
    and frozen: every payload with ``M`` carriers shares one table.
    """
    m = num_channels
    proto = design_lowpass(8 * m + 1, 0.5 / m * 0.8) * m
    taps = -(-len(proto) // m)
    padded = np.zeros(taps * m)
    padded[: len(proto)] = proto
    return freeze(padded.reshape(taps, m).T)


def multiplex_carriers(baseband: np.ndarray, num_channels: int) -> np.ndarray:
    """Frequency-multiplex M equal-rate baseband streams into one wideband.

    ``baseband`` is (M, N); each stream is upsampled by M, low-pass
    interpolated and shifted to its channel center ``k/M``
    cycles/sample.  This is the synthesis dual of
    :class:`PolyphaseChannelizer`, used by tests and by the payload's
    Tx side: with ``t = nM + r``,

    ``y[nM + r] = sum_l g_r[l] * B[n - l, r]``,
    ``B[n, r] = sum_k x_k[n] exp(+j 2 pi k r / M)``,

    i.e. one unnormalized inverse FFT across carriers, M polyphase
    branches ``g_r[l] = M h[r + lM]`` (:func:`synthesis_branches`)
    applied as shifted multiply-adds, and one reshape.
    """
    bb = np.asarray(baseband, dtype=np.complex128)
    if bb.ndim != 2 or bb.shape[0] != num_channels:
        raise ValueError(f"expected ({num_channels}, N) input, got {bb.shape}")
    branches = synthesis_branches(num_channels)
    u = np.fft.ifft(bb, axis=0, norm="forward").T  # u[n, r] = B[n, r]
    acc = u * branches[:, 0]
    for l in range(1, branches.shape[1]):
        acc[l:] += u[:-l] * branches[:, l]
    return acc.reshape(-1)


class DdcBank:
    """Per-carrier DDC demultiplexer.

    ``centers`` are carrier frequencies in cycles/sample; all channels
    are decimated by ``decim``.
    """

    def __init__(self, centers: list[float], decim: int, num_taps: int = 127) -> None:
        if decim < 1:
            raise ValueError("decim must be >= 1")
        self.centers = list(centers)
        self.decim = decim
        self.ddcs = [Ddc(f, decim, num_taps) for f in self.centers]

    def process(self, x: np.ndarray) -> np.ndarray:
        """Split wideband input into (num_channels, N/decim) streams."""
        outs = [ddc.process(x) for ddc in self.ddcs]
        n = min(len(o) for o in outs)
        return np.vstack([o[:n] for o in outs])


class PolyphaseChannelizer:
    """Critically-sampled M-channel polyphase/FFT analysis channelizer.

    Channel ``k`` is centered at ``k/M`` cycles/sample and decimated by
    M.  The prototype filter is a windowed-sinc low-pass of bandwidth
    ``1/(2M)``; taps are striped across M polyphase branches and the
    branch outputs combined with an FFT per output sample -- the whole
    block is evaluated as one strided convolution + one batched FFT.
    """

    def __init__(self, num_channels: int, taps_per_branch: int = 16) -> None:
        if num_channels < 2:
            raise ValueError("need at least 2 channels")
        self.m = num_channels
        ntaps = num_channels * taps_per_branch
        proto = design_lowpass(ntaps + 1, 0.5 / num_channels * 0.8)[:-1]
        # branch p gets taps p, p+M, p+2M, ...
        self.branches = proto.reshape(taps_per_branch, num_channels).T.copy()
        self.taps_per_branch = taps_per_branch

    def process(self, x: np.ndarray) -> np.ndarray:
        """Channelize a block (length multiple of M) -> (M, N/M).

        Standard DFT-filter-bank analysis: channel ``k`` output is

        ``y_k[n] = sum_m h[m] x[nM - m] exp(+j 2 pi k m / M)``
        (down-conversion of the carrier at ``+k/M``; the ``exp(-j 2 pi k n)``
        factor is unity at the decimated instants),

        evaluated as M polyphase branch convolutions
        ``u_p[n] = sum_j h[p + jM] x[nM - p - jM]`` followed by a forward
        FFT across the branch index ``p``.
        """
        x = np.asarray(x, dtype=np.complex128)
        m = self.m
        if len(x) % m:
            raise ValueError(f"block length must be a multiple of M={m}")
        nout = len(x) // m
        xq = x.reshape(nout, m)  # xq[n, q] = x[n*M + q]
        # column p of the branch input: x[nM - p] = xq[n-1, m-p] for p>0
        cols = np.empty((nout, m), dtype=np.complex128)
        cols[:, 0] = xq[:, 0]
        cols[0, 1:] = 0.0
        cols[1:, 1:] = xq[:-1, :0:-1]  # reversed q = m-1 .. 1 -> p = 1 .. m-1
        # u_p[n] = sum_j h[p + jM] * cols[n - j, p]  (vectorized over p)
        t = self.taps_per_branch
        acc = np.zeros((nout, m), dtype=np.complex128)
        for j in range(t):
            h = self.branches[:, j]  # h[p + jM] for every p
            if j == 0:
                acc += cols * h
            else:
                acc[j:] += cols[:-j] * h
        y = np.fft.ifft(acc, axis=1) * m
        return np.ascontiguousarray(y.T)

    @property
    def group_delay_blocks(self) -> float:
        """Prototype group delay measured in output (decimated) samples."""
        return (self.taps_per_branch * self.m / 2.0) / self.m
