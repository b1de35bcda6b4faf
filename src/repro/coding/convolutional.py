"""UMTS convolutional codes and Viterbi decoding (TS 25.212 §4.2.3.1).

The constraint-length-9 codes of UMTS:

- rate 1/2, generators (561, 753) octal;
- rate 1/3, generators (557, 663, 711) octal.

Encoding appends 8 zero tail bits so the trellis terminates in the
all-zero state.  The Viterbi decoder accepts hard bits (0/1) or soft
LLRs (positive = bit 0, the convention of
:meth:`repro.dsp.modem.PskModem.demodulate_soft`).

The decoder is the payload's per-burst throughput ceiling (the Fig. 2
regenerative payload decodes *every* carrier of *every* burst on
board), so the add-compare-select recursion is implemented as a direct
**two-predecessor butterfly** -- for the feedforward shift-register
trellis, next-state ``s'`` is reached only from predecessors
``(s' << 1) & (ns - 1)`` and ``(s' << 1 | 1) & (ns - 1)`` with the
input bit ``s' >> (K - 2)`` -- vectorized across all 256 states *and*
across a leading **batch axis**.  :meth:`ConvolutionalCode.decode`
processes one block; :meth:`ConvolutionalCode.decode_batch` processes a
``(batch, n)`` stack of blocks in one trellis sweep, bit-identically to
looping the scalar decoder (same elementwise operations, broadcast over
the batch axis).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..caching import cached_design, freeze
from ..obs.probes import probe

__all__ = ["ConvolutionalCode", "UMTS_RATE_12", "UMTS_RATE_13"]


@cached_design("coding.conv_trellis", maxsize=32)
def _trellis_tables(generators: tuple[int, ...], constraint_length: int):
    """Next-state/output/butterfly tables for a feedforward trellis.

    Cached process-wide: every :class:`ConvolutionalCode` with the same
    ``(generators, K)`` shares the same frozen tables, so repeated
    decoder-personality construction stops re-deriving them.

    Returns ``(next_state, outputs, pred0, pred1, in_bit, pat, p0idx,
    p1idx)`` where ``pred0/pred1`` are the two butterfly predecessors
    of each next-state, ``in_bit`` the input bit driving into it,
    ``pat`` the ``(2**n_out, n_out)`` table of +-1 sign patterns (one
    row per possible branch-output word) and ``p0idx/p1idx`` the
    per-next-state pattern indices of the two incoming branches.  A
    branch's LLR-correlation metric is then ``(llr @ pat.T)[...,
    p0idx]`` -- only ``2**n_out`` distinct correlations exist per
    trellis step, so the matmul shrinks from ``ns`` columns to
    ``2**n_out`` and the per-state expansion becomes a cheap gather.
    """
    k = constraint_length
    ns = 1 << (k - 1)
    n_out = len(generators)
    states = np.arange(ns)
    next_state = np.empty((ns, 2), dtype=np.int64)
    outputs = np.empty((ns, 2, n_out), dtype=np.uint8)
    for bit in (0, 1):
        # shift register contents: [input, state bits]; register value
        reg = (bit << (k - 1)) | states
        next_state[:, bit] = reg >> 1
        for j, g in enumerate(generators):
            v = reg & g
            # parity of v (vectorized popcount & 1)
            parity = np.zeros(ns, dtype=np.uint8)
            t = v.copy()
            while np.any(t):
                parity ^= (t & 1).astype(np.uint8)
                t >>= 1
            outputs[:, bit, j] = parity

    # butterfly structure: s' = (bit << (k-2)) | (state >> 1), so each
    # next-state has exactly two predecessors and a unique input bit.
    in_bit = (states >> (k - 2)).astype(np.int64) if k > 2 else states.copy()
    pred0 = (states << 1) & (ns - 1)
    pred1 = pred0 | 1
    # sanity: the butterfly must reproduce the next-state table
    assert np.array_equal(next_state[pred0, in_bit], states)
    assert np.array_equal(next_state[pred1, in_bit], states)

    # branch-output words of the two incoming branches of every
    # next-state, encoded as pattern-table indices (output bit j ->
    # bit j of the index) ...
    weights = 1 << np.arange(n_out, dtype=np.int64)
    words = outputs.astype(np.int64) @ weights  # (ns, 2)
    p0idx = words[pred0, in_bit]  # (ns,)
    p1idx = words[pred1, in_bit]
    # ... and the +-1 sign pattern each index decodes to (+1 for
    # output bit 0, -1 for bit 1), for LLR-correlation branch metrics.
    pat_bits = (np.arange(1 << n_out)[:, None] >> np.arange(n_out)[None, :]) & 1
    pat = 1.0 - 2.0 * pat_bits.astype(np.float64)  # (2**n_out, n_out)
    return tuple(
        freeze(a) for a in (next_state, outputs, pred0, pred1, in_bit, pat, p0idx, p1idx)
    )


@cached_design("coding.conv_taps", maxsize=32)
def _tap_matrix(generators: tuple[int, ...], constraint_length: int) -> np.ndarray:
    """``(K, n_out)`` GF(2) encoder matrix over an oldest-first window.

    Window position ``i`` holds the input ``K - 1 - i`` steps back,
    i.e. shift-register bit ``i``, so ``G[i, j]`` is bit ``i`` of
    generator ``j``.  Float64, so the product is a BLAS matmul whose
    sums (at most ``K``, so they also fit a uint8) are exact.
    """
    taps = np.arange(constraint_length)[:, None]
    return freeze(((np.asarray(generators)[None, :] >> taps) & 1).astype(np.float64))


class ConvolutionalCode:
    """Feedforward convolutional code with terminated Viterbi decoding.

    Parameters
    ----------
    generators:
        Octal generator polynomials (MSB = current input bit).
    constraint_length:
        K; the encoder has ``K - 1`` memory bits (=> ``2**(K-1)`` states).
    """

    def __init__(self, generators: tuple[int, ...], constraint_length: int = 9):
        if constraint_length < 2:
            raise ValueError("constraint_length must be >= 2")
        if not generators:
            raise ValueError("need at least one generator")
        self.k = constraint_length
        self.generators = tuple(int(str(g), 8) for g in generators)
        for g in self.generators:
            if g >> constraint_length:
                raise ValueError(f"generator {g:o} too wide for K={constraint_length}")
        self.n_out = len(self.generators)
        self.num_states = 1 << (self.k - 1)
        (
            self.next_state,
            self.outputs,
            self._pred0,
            self._pred1,
            self._in_bit,
            self._pat,
            self._p0idx,
            self._p1idx,
        ) = _trellis_tables(self.generators, self.k)

    @property
    def rate(self) -> float:
        """Nominal code rate (ignoring tail bits)."""
        return 1.0 / self.n_out

    # -- encoding --------------------------------------------------------
    def encode_batch(self, bits: np.ndarray) -> np.ndarray:
        """Encode and terminate every row of a ``(B, n)`` stack.

        The output word of step ``t`` depends only on the ``K``-bit
        window of the zero-started, zero-tailed stream ending at input
        ``t``, so the whole batch is one GF(2) product ``(window @ G) &
        1`` over every window.  Returns ``(B, encoded_length(n))``
        uint8.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {bits.shape}")
        nb, n = bits.shape
        mem = self.k - 1
        stream = np.zeros((nb, n + 2 * mem))
        stream[:, mem : mem + n] = bits
        windows = sliding_window_view(stream, self.k, axis=1).reshape(-1, self.k)
        words = (windows @ _tap_matrix(self.generators, self.k)).astype(np.uint8)
        return (words & 1).reshape(nb, self.encoded_length(n))

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode and terminate: output length = (len(bits)+K-1) * n_out."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        return self.encode_batch(bits[None])[0]

    def encoded_length(self, num_bits: int) -> int:
        """Length of :meth:`encode` output for ``num_bits`` message bits."""
        return (num_bits + self.k - 1) * self.n_out

    # -- decoding ----------------------------------------------------------
    def _to_llr(self, received: np.ndarray, soft: bool) -> np.ndarray:
        if soft:
            return received.astype(np.float64)
        # map hard bits to pseudo-LLRs (+1 for 0, -1 for 1)
        return 1.0 - 2.0 * received.astype(np.float64)

    def decode(self, received: np.ndarray, num_bits: int, soft: bool = False) -> np.ndarray:
        """Terminated Viterbi decoding of one block.

        Parameters
        ----------
        received:
            Hard bits (when ``soft=False``) or LLRs (``soft=True``,
            positive = bit 0) of length ``encoded_length(num_bits)``.
        num_bits:
            Message length to recover (tail is stripped).
        """
        received = np.asarray(received)
        if received.ndim != 1:
            raise ValueError("decode expects a 1-D block; use decode_batch")
        return self.decode_batch(received[None, :], num_bits, soft=soft)[0]

    def decode_batch(
        self, received: np.ndarray, num_bits: int, soft: bool = True
    ) -> np.ndarray:
        """Batched terminated Viterbi decoding.

        ``received`` is a ``(batch, encoded_length(num_bits))`` stack of
        code blocks (LLRs when ``soft=True``, hard bits otherwise); the
        whole batch runs through a single vectorized trellis sweep.
        Returns a ``(batch, num_bits)`` uint8 array, bit-identical to
        looping :meth:`decode` over the rows.
        """
        received = np.asarray(received)
        if received.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {received.shape}")
        total = num_bits + self.k - 1
        if received.shape[1] != total * self.n_out:
            raise ValueError(
                f"expected {total * self.n_out} code symbols per block, "
                f"got {received.shape[1]}"
            )
        nb = received.shape[0]
        llr = self._to_llr(received, soft).reshape(nb, total, self.n_out)
        ns = self.num_states
        half = ns // 2
        quarter = half // 2
        pred0, pred1 = self._pred0, self._pred1
        p0idx, p1idx = self._p0idx, self._p1idx

        # Branch metrics: only 2**n_out distinct branch-output words
        # exist, so one small matmul (time-major so each step's slice
        # is contiguous) computes every possible LLR correlation per
        # step, and the per-state metric is a gather through the
        # pattern-index tables.
        llr_t = np.ascontiguousarray(llr.transpose(1, 0, 2)).reshape(
            total * nb, self.n_out
        )
        corr = (llr_t @ self._pat.T).reshape(total, nb, self._pat.shape[0])

        metrics = np.full((nb, 2, half), -np.inf)
        metrics.reshape(nb, ns)[:, 0] = 0.0  # trellis starts in state 0
        # choice[t, b, s'] = True when the odd-predecessor branch survives
        choice = np.empty((total, nb, ns), dtype=bool)
        choice_steps = choice.reshape(total, nb, 2, half)
        # scratch buffers, reused every step: predecessor metrics in
        # s>>1 order (contiguous) and the two candidate planes.  Axis
        # -2 splits next-states into halves: next-state s' = h*half + j
        # is fed by predecessors 2j (even) and 2j+1 (odd) for both
        # halves h -- the butterfly's shuffle structure.
        m_even = np.empty((nb, 2, quarter))
        m_odd = np.empty((nb, 2, quarter))
        cand0 = np.empty((nb, ns))
        cand1 = np.empty((nb, ns))
        me = m_even.reshape(nb, half)
        mo = m_odd.reshape(nb, half)
        c0v = cand0.reshape(nb, 2, half)
        c1v = cand1.reshape(nb, 2, half)
        for t in range(total):
            # state s = h*half + j is even iff j is even; predecessor
            # metric arrays are indexed by s >> 1 = h*quarter + j//2
            np.copyto(m_even, metrics[:, :, 0::2])
            np.copyto(m_odd, metrics[:, :, 1::2])
            ct = corr[t]
            np.take(ct, p0idx, axis=1, out=cand0)
            np.take(ct, p1idx, axis=1, out=cand1)
            c0v += me[:, None, :]
            c1v += mo[:, None, :]
            np.greater(c1v, c0v, out=choice_steps[t])
            np.maximum(c0v, c1v, out=metrics)

        # traceback from state 0 (terminated trellis), whole batch at once
        states = np.zeros(nb, dtype=np.int64)
        rows = np.arange(nb)
        in_bit = self._in_bit
        decoded = np.empty((nb, total), dtype=np.uint8)
        for t in range(total - 1, -1, -1):
            decoded[:, t] = in_bit[states]
            take1 = choice[t, rows, states]
            states = np.where(take1, pred1[states], pred0[states])

        p = probe("perf.viterbi", code=f"k{self.k}r1_{self.n_out}")
        if p is not None:
            p.count("batches")
            p.count("blocks", nb)
            p.count("bits", nb * num_bits)
        return decoded[:, :num_bits]


#: TS 25.212 rate-1/2 code: G0 = 561, G1 = 753 (octal), K = 9.
UMTS_RATE_12 = ConvolutionalCode((561, 753), 9)
#: TS 25.212 rate-1/3 code: G0 = 557, G1 = 663, G2 = 711 (octal), K = 9.
UMTS_RATE_13 = ConvolutionalCode((557, 663, 711), 9)
