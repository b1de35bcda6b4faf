"""UMTS turbo code (TS 25.212 §4.2.3.2) with max-log-MAP decoding.

The paper's decoder-reconfiguration example (§2.3) contrasts three UMTS
coding options; the turbo code is the most complex of them.  This module
implements:

- the rate-1/3 PCCC with the 8-state RSC constituents
  ``g0(D) = 1 + D^2 + D^3`` (feedback) and ``g1(D) = 1 + D + D^3``,
  including the spec's trellis-termination tail (12 tail bits);
- the TS 25.212 internal interleaver (prime-based intra-row permutations
  with least-primitive-root generators and the R5/R10/R20 inter-row
  patterns), cached per block length with its inverse;
- an iterative max-log-MAP (BCJR) decoder with extrinsic exchange,
  batched over a leading block axis: :meth:`TurboCode.decode_batch`
  runs every SISO across a ``(batch, n)`` stack of code blocks at once,
  bit-identically to looping :meth:`TurboCode.decode` (the scalar path
  delegates to the batched kernel with ``batch == 1``).

The SISO (:class:`_Siso`) is a *fused* forward-backward recursion: the
alpha (forward) and beta (backward) state metrics advance together in
one ``(16, batch)`` state ``[alpha_t | beta_(T-t)]``, so each trellis
step is one gather through the 32-entry table :data:`_STEP`, one add of
a precomputed branch-metric plane and one ``np.maximum``.  Every
candidate metric is the same single IEEE addition of the same two
operands as in a textbook two-loop recursion, and ``max`` is exact, so
the extrinsics are bitwise those of the two-loop form.
"""

from __future__ import annotations

import numpy as np

from ..caching import cached_design, freeze
from ..obs.probes import probe

__all__ = ["TurboCode", "umts_turbo_deinterleaver", "umts_turbo_interleaver"]

# ---------------------------------------------------------------------------
# TS 25.212 internal interleaver
# ---------------------------------------------------------------------------

_T5 = [4, 3, 2, 1, 0]
_T10 = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]
_T20A = [19, 9, 14, 4, 0, 2, 5, 7, 12, 18, 16, 13, 17, 15, 3, 1, 6, 11, 8, 10]
_T20B = [19, 9, 14, 4, 0, 2, 5, 7, 12, 18, 10, 8, 13, 17, 3, 1, 16, 6, 15, 11]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _least_primitive_root(p: int) -> int:
    """Smallest primitive root modulo prime p (matches the 25.212 table)."""
    phi = p - 1
    # factorize phi
    factors = set()
    n = phi
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root found for {p}")


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


@cached_design("coding.turbo_interleaver", maxsize=64)
def umts_turbo_interleaver(k: int) -> np.ndarray:
    """TS 25.212 §4.2.3.2.3 internal interleaver permutation.

    Returns a **read-only** index array ``pi`` of length ``k`` such
    that the interleaved sequence is ``x[pi]``.  Valid for ``40 <= k <=
    5114``.  Cached process-wide (the construction walks the prime /
    primitive-root tables in pure Python); every :class:`TurboCode`
    with the same block length shares one frozen permutation.
    """
    if not 40 <= k <= 5114:
        raise ValueError("UMTS turbo interleaver defined for 40 <= K <= 5114")

    # (1) number of rows
    if 40 <= k <= 159:
        r = 5
        t = _T5
    elif 160 <= k <= 200 or 481 <= k <= 530:
        r = 10
        t = _T10
    else:
        r = 20
        t = _T20A if (2281 <= k <= 2480 or 3161 <= k <= 3210) else _T20B

    # (2) prime p and number of columns C
    if 481 <= k <= 530:
        p = 53
        c = p
    else:
        p = 7
        while k > r * (p + 1) or not _is_prime(p):
            p += 1
        while not _is_prime(p):
            p += 1
        if k <= r * (p - 1):
            c = p - 1
        elif k <= r * p:
            c = p
        else:
            c = p + 1

    # (3) base sequence s for intra-row permutation
    v = _least_primitive_root(p)
    s = np.empty(p - 1, dtype=np.int64)
    s[0] = 1
    for j in range(1, p - 1):
        s[j] = (v * s[j - 1]) % p

    # (4) minimum prime integers q(i), gcd(q_i, p-1) == 1
    q = [1]
    cand = 2
    while len(q) < r:
        cand += 1
        if _is_prime(cand) and cand > q[-1] and _gcd(cand, p - 1) == 1:
            q.append(cand)
        # ensure strictly increasing primes: restart scan from last q
    # (the loop above increments cand monotonically, so q is increasing)

    # (5) permute q into r_i by the inter-row pattern: r[t[i]] = q[i]
    r_seq = np.empty(r, dtype=np.int64)
    for i in range(r):
        r_seq[t[i]] = q[i]

    # (6) intra-row permutations U_i(j)
    u = np.empty((r, c), dtype=np.int64)
    for i in range(r):
        if c == p:
            for j in range(p - 1):
                u[i, j] = s[(j * r_seq[i]) % (p - 1)]
            u[i, p - 1] = 0
        elif c == p + 1:
            for j in range(p - 1):
                u[i, j] = s[(j * r_seq[i]) % (p - 1)]
            u[i, p - 1] = 0
            u[i, p] = p
        else:  # c == p - 1
            for j in range(p - 1):
                u[i, j] = s[(j * r_seq[i]) % (p - 1)] - 1
    if c == p + 1 and k == r * c:
        u[r - 1, p], u[r - 1, 0] = u[r - 1, 0], u[r - 1, p]

    # (7) fill matrix row-by-row with input indices, apply intra-row and
    #     inter-row permutations, read column-by-column, prune >= k
    mat = np.arange(r * c, dtype=np.int64).reshape(r, c)
    intra = np.empty_like(mat)
    for i in range(r):
        intra[i] = mat[i, u[i]]
    inter = intra[t, :]
    out = inter.T.ravel()
    return freeze(out[out < k])


@cached_design("coding.turbo_deinterleaver", maxsize=64)
def umts_turbo_deinterleaver(k: int) -> np.ndarray:
    """Read-only inverse of :func:`umts_turbo_interleaver` (``y[pi][inv] == y``).

    Cached process-wide beside the interleaver, so loading a turbo
    decoder does not re-run the ``argsort``.
    """
    return freeze(np.argsort(umts_turbo_interleaver(k)))


# ---------------------------------------------------------------------------
# RSC constituent trellis (g0 = 13, g1 = 15 octal; 8 states)
# ---------------------------------------------------------------------------

_NSTATES = 8


def _rsc_step(state: int, bit: int) -> tuple[int, int]:
    """One step of the UMTS RSC: returns (next_state, parity).

    State register ``(s1, s2, s3)`` packed MSB-first; feedback
    ``fb = bit ^ s2 ^ s3``; parity ``fb ^ s1 ^ s3``.
    """
    s1 = (state >> 2) & 1
    s2 = (state >> 1) & 1
    s3 = state & 1
    fb = bit ^ s2 ^ s3
    parity = fb ^ s1 ^ s3
    nxt = (fb << 2) | (s1 << 1) | s2
    return nxt, parity


def _tail_bit(state: int) -> int:
    """Input that drives the RSC feedback to zero (termination bit)."""
    s2 = (state >> 1) & 1
    s3 = state & 1
    return s2 ^ s3


# precomputed tables
_NEXT = np.empty((_NSTATES, 2), dtype=np.int64)
_PAR = np.empty((_NSTATES, 2), dtype=np.int64)
for _s in range(_NSTATES):
    for _b in (0, 1):
        _NEXT[_s, _b], _PAR[_s, _b] = _rsc_step(_s, _b)

#: termination tail ``x z x z x z`` of each final state, indexed by its
#: register bits ``[s1, s2, s3]``
_TAIL = np.empty((_NSTATES, 6), dtype=np.uint8)
for _s in range(_NSTATES):
    _state = _s
    for _i in range(3):
        _TAIL[_s, 2 * _i] = _tb = _tail_bit(_state)
        _state, _TAIL[_s, 2 * _i + 1] = _rsc_step(_state, _tb)
    assert _state == 0, "termination failed"
_TAIL = freeze(_TAIL.reshape(2, 2, 2, 6))

#: period of the feedback response: 1 + D^2 + D^3 is primitive of degree 3
_FB_PERIOD = 7


def _encode_rsc_batch(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode one constituent for every row of a ``(B, K)`` stack.

    Returns the ``(B, K)`` parity and the ``(B, 6)`` termination tail.
    The feedback bit ``f_t = u_t ^ f_(t-2) ^ f_(t-3)`` is ``u`` filtered
    by ``1 / (1 + D^2 + D^3)``, whose impulse response repeats with
    period 7 as ``1 0 1 1 1 0 0``.  So with ``d_t`` the XOR of ``u_t,
    u_(t-7), u_(t-14), ...`` (one cumulative XOR down the columns of
    the ``(B, K/7, 7)`` reshape), ``f_t = d_t ^ d_(t-2) ^ d_(t-3) ^
    d_(t-4)``, and the parity is ``f_t ^ f_(t-1) ^ f_(t-3)``.  The last
    three feedback bits are the final state, which picks the tail.
    """
    nb, k = bits.shape
    padded = -(-k // _FB_PERIOD) * _FB_PERIOD
    cols = np.zeros((nb, padded), dtype=np.uint8)
    cols[:, :k] = bits
    acc = np.bitwise_xor.accumulate(
        cols.reshape(nb, padded // _FB_PERIOD, _FB_PERIOD), axis=1
    )
    # leading zeros stand for the all-zero start state
    d = np.zeros((nb, 4 + k), dtype=np.uint8)  # d[:, 4 + t] = d_t
    d[:, 4:] = acc.reshape(nb, padded)[:, :k]
    fb = np.zeros((nb, 3 + k), dtype=np.uint8)  # fb[:, 3 + t] = f_t
    fb[:, 3:] = d[:, 4:] ^ d[:, 2:-2] ^ d[:, 1:-3] ^ d[:, :-4]
    parity = fb[:, 3:] ^ fb[:, 2:-1] ^ fb[:, :-3]
    return parity, _TAIL[fb[:, -1], fb[:, -2], fb[:, -3]]


# Fused forward-backward tables.  The SISO state is 16 rows,
# ``[alpha_t | beta_(T-t)]``, and both halves take their two candidates
# from the same ``(bit, row)`` layout: candidate ``b`` of alpha row
# ``s'`` comes from the predecessor ``_PRED[b, s']`` through input bit
# ``b``, candidate ``b`` of beta row ``8 + s`` from the successor
# ``_NEXT[s, b]``.  ``_STEP`` is the 32-entry gather of one step and
# ``_STEP_PSIGN`` the parity sign (+1 for parity 0) of each candidate's
# branch.  Through a fixed input bit the RSC maps states one-to-one, so
# every state has one predecessor per bit.
_PRED = np.full((2, _NSTATES), -1, dtype=np.int64)
for _s in range(_NSTATES):
    for _b in (0, 1):
        _PRED[_b, _NEXT[_s, _b]] = _s
assert np.all(_PRED >= 0), "RSC input bit does not permute the states"
_STEP = freeze(np.concatenate([_PRED, _NSTATES + _NEXT.T], axis=1))
_PSIGN = 1.0 - 2.0 * _PAR  # (state, bit)
_STEP_PSIGN = freeze(
    np.concatenate([_PSIGN[_PRED, [[0], [1]]], _PSIGN.T], axis=1)
)
#: systematic sign of input bit 0 / 1, broadcast over the branch plane
_XSIGN = freeze(np.array([1.0, -1.0]).reshape(2, 1, 1, 1))


class _Siso:
    """Fused max-log-MAP SISO for one terminated RSC constituent.

    Built once per :meth:`TurboCode.decode_batch` from the constituent's
    ``(batch, K)`` systematic and parity LLRs (positive = bit 0) and its
    ``(batch, 3)`` tail LLRs.  Everything that does not depend on the a
    priori input is made here: the tail-padded, time-major systematic
    LLRs, the parity term of every branch metric and the recursion
    buffers.  Each call maps a ``(batch, K)`` a priori LLR to the
    ``(batch, K)`` extrinsic LLR.

    Layout, with ``T = K + 3`` trellis steps: row ``t`` of the state
    history is ``[alpha_t | beta_(T-t)]``, shape ``(16, batch)``, so the
    forward and backward recursions advance in one Python loop.  The
    branch plane ``(T, 2, 16, batch)`` holds, for step ``t``, the alpha
    branches of step ``t`` and the beta branches of step ``T-1-t``.
    """

    def __init__(
        self,
        lsys: np.ndarray,
        lpar: np.ndarray,
        tail_sys: np.ndarray,
        tail_par: np.ndarray,
    ):
        nb, k = lsys.shape
        steps = k + 3
        self.lsys = lsys
        self.ls = np.concatenate([lsys, tail_sys], axis=1).T  # (T, nb)
        self.la = np.zeros_like(self.ls)  # a priori, zero on the tail
        half_par = (0.5 * np.concatenate([lpar, tail_par], axis=1)).T
        self.par = self._fold(half_par) * _STEP_PSIGN.reshape(2, 2, _NSTATES, 1)
        self.hist = np.empty((steps, 2 * _NSTATES, nb))
        self.hist[0] = -np.inf
        self.hist[0, [0, _NSTATES]] = 0.0  # start and termination state 0
        self.cand = np.empty((steps - 1, 2, 2 * _NSTATES, nb))

    @staticmethod
    def _fold(x: np.ndarray) -> np.ndarray:
        """``(T, nb)`` per-step values -> ``(T, 1, 2, 1, nb)``: step ``t``
        for the alpha half, step ``T-1-t`` for the beta half."""
        return np.stack((x, x[::-1]), axis=1)[:, None, :, None, :]

    def __call__(self, lapr: np.ndarray) -> np.ndarray:
        nb, k = lapr.shape
        steps = k + 3
        self.la[:k] = lapr.T
        half_in = 0.5 * (self.la + self.ls)
        # branch metric 0.5*(la+ls)*x + 0.5*lp*p with x, p = +1 for bit 0
        plane = (self._fold(half_in) * _XSIGN + self.par).reshape(
            steps, 2, 2 * _NSTATES, nb
        )
        hist, cand = self.hist, self.cand
        # one step: gather both candidates of every row, add the branch
        # metrics, keep the larger (ndarray.take skips np.take's wrapper)
        steps_io = zip(hist, plane, cand, cand[:, 0], cand[:, 1], hist[1:])
        for x, g, c, c0, c1, out in steps_io:
            x.take(_STEP, 0, c, "clip")
            np.add(c, g, out=c)
            np.maximum(c0, c1, out=out)
        # alpha_t + gamma_t (the alpha candidates of step t, stored by
        # input bit) + beta_(t+1) of the branch's end state, t < K
        beta_next = hist[steps - 1 : steps - 1 - k : -1, None, _NSTATES:]
        m = cand[:k, :, :_NSTATES] + beta_next
        llr = m[:, 0].max(axis=1) - m[:, 1].max(axis=1)  # (k, nb)
        # extrinsic: remove channel systematic and a priori
        return llr.T - self.lsys - lapr


class TurboCode:
    """UMTS rate-1/3 PCCC turbo codec.

    Encoded layout (TS 25.212): ``x1 z1 z2  x2 z1 z2 ... xK z1 z2``
    followed by 12 tail bits
    ``x(K+1) z1(K+1) x(K+2) z1(K+2) x(K+3) z1(K+3)
    x'(K+1) z2(K+1) x'(K+2) z2(K+2) x'(K+3) z2(K+3)``.

    Decoding is iterative max-log-MAP with ``iterations`` half-iteration
    pairs and optional extrinsic scaling (0.75 is the usual max-log
    compensation).
    """

    def __init__(self, block_length: int, iterations: int = 6, ext_scale: float = 0.75):
        if not 40 <= block_length <= 5114:
            raise ValueError("block_length must be in [40, 5114]")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.k = block_length
        self.iterations = iterations
        self.ext_scale = ext_scale
        self.interleaver = umts_turbo_interleaver(block_length)
        self.deinterleaver = umts_turbo_deinterleaver(block_length)

    @property
    def encoded_length(self) -> int:
        """3*K + 12 code bits."""
        return 3 * self.k + 12

    @property
    def rate(self) -> float:
        return self.k / self.encoded_length

    # -- encoding --------------------------------------------------------
    def encode_batch(self, bits: np.ndarray) -> np.ndarray:
        """Encode every row of a ``(B, K)`` stack into ``(B, 3K + 12)`` bits."""
        bits = np.asarray(bits).astype(np.uint8)
        if bits.ndim != 2 or bits.shape[1] != self.k:
            raise ValueError(f"expected a (batch, {self.k}) array, got shape {bits.shape}")
        nb, k = bits.shape
        z1, t1 = _encode_rsc_batch(bits)
        z2, t2 = _encode_rsc_batch(bits[:, self.interleaver])
        body = np.stack([bits, z1, z2], axis=2).reshape(nb, 3 * k)
        return np.concatenate([body, t1, t2], axis=1)

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode ``block_length`` bits into ``3K + 12`` code bits."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        return self.encode_batch(bits[None])[0]

    # -- decoding ----------------------------------------------------------
    def decode(self, llr: np.ndarray, return_iterations: bool = False):
        """Iteratively decode channel LLRs (positive = bit 0).

        Returns hard bit decisions (and per-iteration decisions when
        ``return_iterations`` is set).  Delegates to
        :meth:`decode_batch` with a batch of one, so scalar and batched
        decoding share a single kernel and are bit-identical by
        construction.
        """
        llr = np.asarray(llr, dtype=np.float64)
        if llr.ndim != 1:
            raise ValueError("decode expects a 1-D block; use decode_batch")
        if return_iterations:
            bits, history = self.decode_batch(
                llr[None, :], return_iterations=True
            )
            return bits[0], [h[0] for h in history]
        return self.decode_batch(llr[None, :])[0]

    def decode_batch(self, llr: np.ndarray, return_iterations: bool = False):
        """Batched iterative turbo decoding.

        ``llr`` is a ``(batch, 3K + 12)`` stack of channel LLR blocks
        (positive = bit 0); every SISO half-iteration runs across the
        whole batch in one recursion.  Returns a ``(batch, K)`` uint8
        array (plus a list of per-iteration ``(batch, K)`` decisions
        when ``return_iterations`` is set), bit-identical to looping
        :meth:`decode` over the rows.
        """
        llr = np.asarray(llr, dtype=np.float64)
        if llr.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {llr.shape}")
        if llr.shape[1] != self.encoded_length:
            raise ValueError(
                f"expected {self.encoded_length} LLRs per block, got {llr.shape[1]}"
            )
        nb = llr.shape[0]
        k = self.k
        body = llr[:, : 3 * k]
        tail = llr[:, 3 * k :]
        lsys = np.ascontiguousarray(body[:, 0::3])
        lz1 = np.ascontiguousarray(body[:, 1::3])
        lz2 = np.ascontiguousarray(body[:, 2::3])
        t1s = tail[:, 0:6:2]
        t1p = tail[:, 1:6:2]
        t2s = tail[:, 6:12:2]
        t2p = tail[:, 7:12:2]

        siso1 = _Siso(lsys, lz1, t1s, t1p)
        siso2 = _Siso(lsys[:, self.interleaver], lz2, t2s, t2p)
        apr1 = np.zeros((nb, k))
        history = []
        for _ in range(self.iterations):
            ext1 = siso1(apr1)
            ext1 *= self.ext_scale
            ext2 = siso2(ext1[:, self.interleaver])
            ext2 *= self.ext_scale
            apr1 = ext2[:, self.deinterleaver]
            # one sum per iteration (float addition is not associative):
            # the last history entry is exactly the returned bits
            posterior = lsys + apr1 + ext1
            if return_iterations:
                history.append((posterior < 0).astype(np.uint8))
        bits = (posterior < 0).astype(np.uint8)

        p = probe("perf.turbo", k=str(k))
        if p is not None:
            p.count("batches")
            p.count("blocks", nb)
            p.count("bits", nb * k)
        if return_iterations:
            return bits, history
        return bits
