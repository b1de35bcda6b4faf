"""The fused turbo SISO is bitwise the two-loop max-log-MAP recursion.

:class:`repro.coding.turbo._Siso` advances alpha and beta in one
lock-step loop through a 32-entry gather table.  The reference below is
a test-local copy of the textbook form it replaced: a forward alpha
loop, a separate backward beta loop and a per-bit LLR extraction.
Every candidate metric is the same IEEE addition of the same operands
in both, so the extrinsics must agree bit for bit (compared as
``int64`` views, which also tells ``0.0`` from ``-0.0``), and so must
``decode_batch``'s decisions and per-iteration history.

The sweep covers batch sizes 0/1/3/8, a block length in every TS 25.212
interleaver regime (5, 10 and 20 rows, the p = 53 band and the
``_T20A`` pattern) and four LLR regimes: Gaussian, all-zero (erasures:
every max ties), +-1e6 (saturating metrics) and mixed signs and
magnitudes including signed zeros.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import TurboCode
from repro.coding.turbo import _Siso, _rsc_step

BATCHES = (0, 1, 3, 8)
#: one K per interleaver regime and each side of every regime boundary
BLOCK_LENGTHS = (40, 56, 159, 160, 200, 481, 530, 531, 2300)
REGIMES = ("gaussian", "zeros", "saturating", "mixed")

# -- test-local two-loop reference ------------------------------------------

_REF_NEXT = np.empty((8, 2), dtype=np.int64)
_REF_PAR = np.empty((8, 2), dtype=np.int64)
for _s in range(8):
    for _b in (0, 1):
        _REF_NEXT[_s, _b], _REF_PAR[_s, _b] = _rsc_step(_s, _b)
_REF_PRED_FLAT = np.empty((8, 2), dtype=np.int64)
_count = np.zeros(8, dtype=np.int64)
for _s in range(8):
    for _b in (0, 1):
        _ns = int(_REF_NEXT[_s, _b])
        _REF_PRED_FLAT[_ns, _count[_ns]] = 2 * _s + _b
        _count[_ns] += 1


def ref_siso_batch(lsys, lpar, lapr, tail_sys, tail_par):
    """Two-loop batched max-log-MAP SISO: alpha loop, then beta loop."""
    nb, k = lsys.shape
    total = k + 3
    ls = np.concatenate([lsys, tail_sys], axis=1)
    lp = np.concatenate([lpar, tail_par], axis=1)
    la = np.concatenate([lapr, np.zeros((nb, 3))], axis=1)
    xsign = np.array([1.0, -1.0])
    psign = 1.0 - 2.0 * _REF_PAR
    half_in = (0.5 * (la + ls)).T
    half_par = (0.5 * lp).T
    gammas = (
        half_in[:, :, None, None] * xsign[None, None, None, :]
        + half_par[:, :, None, None] * psign[None, None, :, :]
    )
    alpha = np.full((total + 1, nb, 8), -np.inf)
    alpha[0, :, 0] = 0.0
    p0 = _REF_PRED_FLAT[:, 0]
    p1 = _REF_PRED_FLAT[:, 1]
    for t in range(total):
        cand = (alpha[t][:, :, None] + gammas[t]).reshape(nb, 16)
        np.maximum(cand[:, p0], cand[:, p1], out=alpha[t + 1])
    beta = np.full((total + 1, nb, 8), -np.inf)
    beta[total, :, 0] = 0.0
    for t in range(total - 1, -1, -1):
        beta[t] = np.max(gammas[t] + beta[t + 1][:, _REF_NEXT], axis=2)
    m = alpha[:k, :, :, None] + gammas[:k] + beta[1 : k + 1][:, :, _REF_NEXT]
    llr = m[..., 0].max(axis=2) - m[..., 1].max(axis=2)
    return llr.T - lsys - lapr


def ref_decode_batch(tc, llr):
    """``decode_batch`` on the reference SISO: (bits, per-iteration bits)."""
    k = tc.k
    body, tail = llr[:, : 3 * k], llr[:, 3 * k :]
    lsys, lz1, lz2 = body[:, 0::3], body[:, 1::3], body[:, 2::3]
    lsys_i = lsys[:, tc.interleaver]
    apr1 = np.zeros((llr.shape[0], k))
    history = []
    for _ in range(tc.iterations):
        ext1 = ref_siso_batch(lsys, lz1, apr1, tail[:, 0:6:2], tail[:, 1:6:2])
        ext1 *= tc.ext_scale
        apr2 = ext1[:, tc.interleaver]
        ext2 = ref_siso_batch(lsys_i, lz2, apr2, tail[:, 6:12:2], tail[:, 7:12:2])
        ext2 *= tc.ext_scale
        apr1 = ext2[:, tc.deinterleaver]
        history.append((lsys + apr1 + ext1 < 0).astype(np.uint8))
    return history[-1], history


# -- inputs --------------------------------------------------------------------


def _llrs(regime, rng, shape):
    if regime == "gaussian":
        return 2.0 * rng.standard_normal(shape)
    if regime == "zeros":
        return np.zeros(shape)
    if regime == "saturating":
        return rng.choice([-1e6, 1e6], shape)
    values = np.array([-1e6, -3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1e6])
    out = rng.choice(values, shape)
    noisy = rng.random(shape) < 0.5
    out[noisy] = rng.standard_normal(int(noisy.sum()))
    return out


def _rng(*key):
    return np.random.default_rng(zlib.crc32(repr(key).encode()))


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# -- tests -----------------------------------------------------------------------


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("k", BLOCK_LENGTHS)
@pytest.mark.parametrize("nb", BATCHES)
def test_siso_extrinsics_bitwise(nb, k, regime):
    """Fused and two-loop SISO agree bitwise, call after call."""
    rng = _rng(nb, k, regime)
    lsys, lpar = _llrs(regime, rng, (nb, k)), _llrs(regime, rng, (nb, k))
    tail_sys, tail_par = _llrs(regime, rng, (nb, 3)), _llrs(regime, rng, (nb, 3))
    siso = _Siso(lsys, lpar, tail_sys, tail_par)
    # the same instance serves every iteration of a decode: its reused
    # buffers must not leak one call into the next
    for lapr in (np.zeros((nb, k)), _llrs(regime, rng, (nb, k))):
        got = siso(lapr)
        want = ref_siso_batch(lsys, lpar, lapr, tail_sys, tail_par)
        assert _bitwise_equal(got, want)


@settings(deadline=None)  # K = 2300 decodes take ~0.3 s
@given(
    nb=st.sampled_from(BATCHES),
    k=st.sampled_from(BLOCK_LENGTHS),
    regime=st.sampled_from(REGIMES),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_batch_matches_reference(nb, k, regime, seed):
    """Bits and every iteration's decisions match the two-loop decoder,
    and the last history entry is the returned decision."""
    tc = TurboCode(k, iterations=2)
    llr = _llrs(regime, np.random.default_rng(seed), (nb, tc.encoded_length))
    bits, history = tc.decode_batch(llr, return_iterations=True)
    want_bits, want_history = ref_decode_batch(tc, llr)
    np.testing.assert_array_equal(bits, want_bits)
    assert len(history) == len(want_history) == tc.iterations
    for got, want in zip(history, want_history):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(history[-1], bits)
    np.testing.assert_array_equal(tc.decode_batch(llr), bits)


def test_history_ends_at_returned_bits_at_low_snr():
    """Near-zero posteriors: ``history[-1]`` is exactly ``bits``."""
    tc = TurboCode(56)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        msgs = rng.integers(0, 2, (3, 56)).astype(np.uint8)
        enc = np.stack([tc.encode(m) for m in msgs])
        llr = 0.3 * (1.0 - 2.0 * enc) + rng.standard_normal(enc.shape)
        bits, history = tc.decode_batch(llr, return_iterations=True)
        np.testing.assert_array_equal(history[-1], bits)
