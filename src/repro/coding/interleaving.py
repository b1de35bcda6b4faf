"""Block interleaving and rate matching (TS 25.212 §4.2.7 / §4.2.11).

The UMTS chain interleaves coded bits across the radio frame (1st/2nd
interleavers are column-permuted block interleavers) and adapts the
coded block to the physical-channel size by **rate matching** --
puncturing or repeating bits with the spec's error-accumulation loop.
Rate matching is what lets one decoder personality serve several QoS
points, which is why it belongs to the reconfigurable chain.
"""

from __future__ import annotations

import numpy as np

from ..caching import cached_design, freeze

__all__ = ["BlockInterleaver", "rate_match", "rate_dematch", "UMTS_2ND_PERM"]

#: TS 25.212 table 7: inter-column permutation of the 2nd interleaver (C=30).
UMTS_2ND_PERM = (
    0, 20, 10, 5, 15, 25, 3, 13, 23, 8, 18, 28, 1, 11, 21,
    6, 16, 26, 4, 14, 24, 19, 9, 29, 12, 2, 7, 22, 27, 17,
)


class BlockInterleaver:
    """Column-permuted block interleaver.

    Bits are written row-by-row into a ``rows x columns`` matrix (padded
    with sentinel positions when the block doesn't fill it), the columns
    are permuted, and bits are read column-by-column with the padding
    pruned -- exactly the structure of the UMTS 1st/2nd interleavers.
    """

    def __init__(self, columns: int, permutation: tuple[int, ...] | None = None):
        if columns < 1:
            raise ValueError("columns must be >= 1")
        if permutation is None:
            permutation = tuple(range(columns))
        if sorted(permutation) != list(range(columns)):
            raise ValueError("permutation must be a permutation of range(columns)")
        self.columns = columns
        self.permutation = tuple(permutation)
        self._idx_cache: dict[int, np.ndarray] = {}

    def indices(self, length: int) -> np.ndarray:
        """Permutation indices: output[i] = input[indices[i]].

        Memoized per block length (the payload re-interleaves the same
        block size for every burst); the cached array is read-only.
        """
        idx = self._idx_cache.get(length)
        if idx is not None:
            return idx
        c = self.columns
        rows = -(-length // c)  # ceil
        padded = rows * c
        mat = np.arange(padded).reshape(rows, c)
        mat = mat[:, list(self.permutation)]
        flat = mat.T.ravel()
        idx = flat[flat < length]
        idx.setflags(write=False)
        if len(self._idx_cache) < 64:
            self._idx_cache[length] = idx
        return idx

    def interleave(self, bits: np.ndarray) -> np.ndarray:
        """Apply the interleaver to an array (along the last axis)."""
        bits = np.asarray(bits)
        return bits[..., self.indices(bits.shape[-1])]

    def deinterleave(self, bits: np.ndarray) -> np.ndarray:
        """Invert :meth:`interleave` (along the last axis)."""
        bits = np.asarray(bits)
        idx = self.indices(bits.shape[-1])
        out = np.empty_like(bits)
        out[..., idx] = bits
        return out


@cached_design("coding.rm_pattern", maxsize=64)
def _rm_pattern(n_in: int, n_out: int) -> tuple[np.ndarray, bool]:
    """Rate-matching selection per the 25.212 error-accumulation loop.

    Returns ``(indices, puncturing)``: when puncturing, ``indices`` are
    the positions of *kept* input bits (length ``n_out``); when
    repeating, ``indices`` are input positions emitted in order with
    repeats (length ``n_out``).  Cached process-wide (the
    error-accumulation loop is pure Python and runs once per distinct
    ``(n_in, n_out)``); the index array is read-only.
    """
    if n_in < 1 or n_out < 1:
        raise ValueError("block sizes must be >= 1")
    delta = n_out - n_in
    if delta == 0:
        return freeze(np.arange(n_in)), False
    if delta < 0:
        # puncture |delta| bits
        e_ini = n_in
        e_plus = 2 * n_in
        e_minus = 2 * (-delta)
        keep = np.ones(n_in, dtype=bool)
        e = e_ini
        for m in range(n_in):
            e -= e_minus
            if e <= 0:
                keep[m] = False
                e += e_plus
        idx = np.nonzero(keep)[0]
        if len(idx) != n_out:
            raise AssertionError("puncturing pattern size mismatch")
        return freeze(idx), True
    # repetition of delta bits
    e_ini = n_in
    e_plus = 2 * n_in
    e_minus = 2 * delta
    out: list[int] = []
    e = e_ini
    for m in range(n_in):
        e -= e_minus
        out.append(m)
        while e <= 0:
            out.append(m)
            e += e_plus
    idx = np.asarray(out[:n_out])
    if len(idx) != n_out:
        raise AssertionError("repetition pattern size mismatch")
    return freeze(idx), False


def rate_match(bits: np.ndarray, n_out: int) -> np.ndarray:
    """Puncture or repeat ``bits`` to exactly ``n_out`` positions.

    Works along the last axis, so a ``(batch, n_in)`` stack returns a
    ``(batch, n_out)`` array with every row matched alike.
    """
    bits = np.asarray(bits)
    idx, _ = _rm_pattern(bits.shape[-1], n_out)
    return bits[..., idx]


def rate_dematch(values: np.ndarray, n_in: int) -> np.ndarray:
    """Invert rate matching on soft values.

    Punctured positions receive LLR 0 (erasure); repeated positions are
    soft-combined (summed), which is the optimal combining rule for
    independent AWGN observations.  Batch-aware: a ``(batch, n_out)``
    input returns a ``(batch, n_in)`` array, bit-identical to
    de-matching each row (the duplicate-index accumulation of
    ``np.add.at`` runs in the same per-row order either way).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2):
        raise ValueError("rate_dematch expects a 1-D or (batch, n) array")
    idx, _ = _rm_pattern(n_in, values.shape[-1])
    if values.ndim == 1:
        out = np.zeros(n_in)
        np.add.at(out, idx, values)
        return out
    out = np.zeros((values.shape[0], n_in))
    np.add.at(out, (slice(None), idx), values)
    return out
