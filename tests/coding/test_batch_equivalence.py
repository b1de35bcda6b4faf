"""Property tests: ``decode_batch`` is bit-identical to the scalar loop.

The batched burst-processing engine (docs/performance.md) promises that
batching is a pure throughput optimisation -- for every decoder the
batched kernel and a Python loop over the scalar ``decode`` must produce
*identical* bits, not merely equal BER.  These tests sweep block
lengths, code rates and batch sizes with seeded random LLRs, and pin the
two classic tie-sensitive corners:

- **all-erasure** input (all-zero LLRs): every path metric ties, so the
  result is defined purely by the kernel's tie-breaking order;
- **tied-metric** input (quantised LLRs in {-1, 0, +1}): many partial
  ties, exercising ``max``/``argmax`` ordering throughout the trellis.

A batched kernel with a different tie-break than the scalar one passes
random-noise tests with probability ~1 and fails only here.

The Tx side is checked the same way: ``encode_batch`` of every code and
of the assembled chain against the per-bit shift-register encoders it
replaced, kept here as test-local references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    UMTS_RATE_12,
    UMTS_RATE_13,
    CodingScheme,
    ConvolutionalCode,
    TransportChain,
    TurboCode,
)
from repro.coding.interleaving import _rm_pattern
from tests.coding.test_crc import ref_crc

CONV_CODES = {"rate12": UMTS_RATE_12, "rate13": UMTS_RATE_13}


# -- per-bit reference encoders ----------------------------------------------
def ref_conv_encode(code: ConvolutionalCode, bits) -> np.ndarray:
    """Shift-register encoder: input enters at the MSB, K-1 zero tail."""
    reg = 0
    out = []
    for b in list(np.asarray(bits, dtype=np.uint8)) + [0] * (code.k - 1):
        reg = (int(b) << (code.k - 1)) | (reg >> 1)
        out += [bin(reg & g).count("1") & 1 for g in code.generators]
    return np.array(out, dtype=np.uint8)


def _ref_rsc(bits):
    """One UMTS RSC constituent (g0 = 13, g1 = 15): parity and the
    ``x z x z x z`` termination tail."""
    s1 = s2 = s3 = 0
    parity = []
    for b in bits:
        fb = int(b) ^ s2 ^ s3
        parity.append(fb ^ s1 ^ s3)
        s1, s2, s3 = fb, s1, s2
    tail = []
    for _ in range(3):
        x = s2 ^ s3  # drives the feedback to zero
        tail += [x, s1 ^ s3]
        s1, s2, s3 = 0, s1, s2
    assert s1 == s2 == s3 == 0
    return parity, tail


def ref_turbo_encode(tc: TurboCode, bits) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    z1, tail1 = _ref_rsc(bits)
    z2, tail2 = _ref_rsc(bits[tc.interleaver])
    body = [v for triple in zip(bits, z1, z2) for v in triple]
    return np.array(body + tail1 + tail2, dtype=np.uint8)


def ref_chain_encode(chain: TransportChain, bits) -> np.ndarray:
    """CRC attach -> code -> rate match -> 2nd interleaver, one block."""
    msg = np.asarray(bits, dtype=np.uint8)
    if chain.crc:
        msg = np.concatenate([msg, ref_crc(chain.crc, msg)])
    if chain.scheme is CodingScheme.CONVOLUTIONAL:
        msg = ref_conv_encode(chain.conv_code, msg)
    elif chain.scheme is CodingScheme.TURBO:
        msg = ref_turbo_encode(chain.turbo, msg)
    matched = msg[_rm_pattern(len(msg), chain.physical_bits)[0]]
    return matched[chain._interleaver.indices(len(matched))]


def _noisy_llrs(code, rng, nb, nbits, snr=1.0):
    msgs = rng.integers(0, 2, (nb, nbits)).astype(np.uint8)
    enc = np.stack([code.encode(m) for m in msgs])
    return (1.0 - 2.0 * enc) * snr + rng.standard_normal(enc.shape)


ENCODE_BATCHES = [0, 1, 3, 8]


class TestEncodeBatchEquivalence:
    """``encode_batch`` row ``i`` == the per-bit reference encoder."""

    @pytest.mark.parametrize("rate", sorted(CONV_CODES))
    @pytest.mark.parametrize("nbits", [1, 7, 56, 260])
    @pytest.mark.parametrize("nb", ENCODE_BATCHES)
    def test_conv(self, rate, nbits, nb):
        code = CONV_CODES[rate]
        rng = np.random.default_rng(nbits * 10 + nb)
        msgs = rng.integers(0, 2, (nb, nbits)).astype(np.uint8)
        got = code.encode_batch(msgs)
        assert got.shape == (nb, code.encoded_length(nbits))
        assert got.dtype == np.uint8
        for msg, row in zip(msgs, got):
            np.testing.assert_array_equal(row, ref_conv_encode(code, msg))
            np.testing.assert_array_equal(code.encode(msg), row)

    @pytest.mark.parametrize("k", [40, 56, 481, 5114])
    @pytest.mark.parametrize("nb", ENCODE_BATCHES)
    def test_turbo(self, k, nb):
        tc = TurboCode(k)
        rng = np.random.default_rng(k + nb)
        msgs = rng.integers(0, 2, (nb, k)).astype(np.uint8)
        if nb:  # the all-ones block ends in a nonzero state
            msgs[0] = 1
        got = tc.encode_batch(msgs)
        assert got.shape == (nb, tc.encoded_length)
        for msg, row in zip(msgs, got):
            np.testing.assert_array_equal(row, ref_turbo_encode(tc, msg))
            np.testing.assert_array_equal(tc.encode(msg), row)

    @pytest.mark.parametrize("scheme", list(CodingScheme))
    @pytest.mark.parametrize("physical_bits", [None, 150, 512])
    @pytest.mark.parametrize("nb", ENCODE_BATCHES)
    def test_chain(self, scheme, physical_bits, nb):
        chain = TransportChain(scheme, transport_block=40, physical_bits=physical_bits)
        rng = np.random.default_rng(nb + (physical_bits or 0))
        msgs = rng.integers(0, 2, (nb, 40)).astype(np.uint8)
        got = chain.encode_batch(msgs)
        assert got.shape == (nb, chain.physical_bits)
        for msg, row in zip(msgs, got):
            np.testing.assert_array_equal(row, ref_chain_encode(chain, msg))
            np.testing.assert_array_equal(chain.encode(msg), row)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        scheme=st.sampled_from(list(CodingScheme)),
        block=st.integers(1, 120),
        physical_bits=st.one_of(st.none(), st.integers(40, 700)),
        nb=st.sampled_from(ENCODE_BATCHES),
        rate=st.sampled_from(sorted(CONV_CODES)),
    )
    def test_chain_property(self, seed, scheme, block, physical_bits, nb, rate):
        if scheme is CodingScheme.TURBO:
            block = max(block, 40 - 16)  # turbo blocks start at K = 40
        chain = TransportChain(
            scheme, block, physical_bits=physical_bits, conv_code=CONV_CODES[rate]
        )
        msgs = np.random.default_rng(seed).integers(0, 2, (nb, block)).astype(np.uint8)
        got = chain.encode_batch(msgs)
        assert got.shape == (nb, chain.physical_bits)
        for msg, row in zip(msgs, got):
            np.testing.assert_array_equal(row, ref_chain_encode(chain, msg))

    def test_shape_validation(self):
        chain = TransportChain(CodingScheme.CONVOLUTIONAL, transport_block=40)
        with pytest.raises(ValueError):
            chain.encode_batch(np.zeros((2, 41), dtype=np.uint8))
        with pytest.raises(ValueError):
            chain.encode_batch(np.zeros(40, dtype=np.uint8))
        with pytest.raises(ValueError):
            chain.encode(np.zeros(39, dtype=np.uint8))
        with pytest.raises(ValueError):
            TurboCode(40).encode_batch(np.zeros((1, 41), dtype=np.uint8))
        with pytest.raises(ValueError):
            UMTS_RATE_13.encode_batch(np.zeros(5, dtype=np.uint8))


class TestConvBatchEquivalence:
    @pytest.mark.parametrize("rate", sorted(CONV_CODES))
    @pytest.mark.parametrize("nbits", [1, 5, 33, 64])
    @pytest.mark.parametrize("nb", [1, 3, 8])
    def test_matches_scalar_loop(self, rate, nbits, nb):
        code = CONV_CODES[rate]
        import zlib

        rng = np.random.default_rng(zlib.crc32(f"{rate}:{nbits}:{nb}".encode()))
        llrs = _noisy_llrs(code, rng, nb, nbits)
        batched = code.decode_batch(llrs, nbits)
        scalar = np.stack(
            [code.decode(llrs[i], nbits, soft=True) for i in range(nb)]
        )
        np.testing.assert_array_equal(batched, scalar)

    @pytest.mark.parametrize("rate", sorted(CONV_CODES))
    def test_all_erasure(self, rate):
        """All-zero LLRs: every metric ties; tie-break must agree."""
        code = CONV_CODES[rate]
        nbits, nb = 24, 4
        llrs = np.zeros((nb, code.encoded_length(nbits) // code.n_out, code.n_out))
        llrs = llrs.reshape(nb, -1)
        batched = code.decode_batch(llrs, nbits)
        scalar = np.stack(
            [code.decode(llrs[i], nbits, soft=True) for i in range(nb)]
        )
        np.testing.assert_array_equal(batched, scalar)

    @pytest.mark.parametrize("rate", sorted(CONV_CODES))
    def test_tied_metric_llrs(self, rate):
        """Quantised +-1/0 LLRs create systematic metric ties."""
        code = CONV_CODES[rate]
        nbits, nb = 40, 6
        rng = np.random.default_rng(1234)
        llrs = rng.integers(-1, 2, (nb, code.encoded_length(nbits))).astype(
            np.float64
        )
        batched = code.decode_batch(llrs, nbits)
        scalar = np.stack(
            [code.decode(llrs[i], nbits, soft=True) for i in range(nb)]
        )
        np.testing.assert_array_equal(batched, scalar)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nbits=st.integers(1, 80),
        nb=st.integers(1, 5),
    )
    def test_property_random_blocks(self, seed, nbits, nb):
        code = UMTS_RATE_13
        rng = np.random.default_rng(seed)
        llrs = _noisy_llrs(code, rng, nb, nbits)
        batched = code.decode_batch(llrs, nbits)
        scalar = np.stack(
            [code.decode(llrs[i], nbits, soft=True) for i in range(nb)]
        )
        np.testing.assert_array_equal(batched, scalar)


class TestTurboBatchEquivalence:
    @pytest.mark.parametrize("k", [40, 64, 100])
    @pytest.mark.parametrize("nb", [1, 4])
    def test_matches_scalar_loop(self, k, nb):
        tc = TurboCode(k, iterations=3)
        rng = np.random.default_rng(k * 31 + nb)
        llrs = _noisy_llrs(tc, rng, nb, k, snr=2.0)
        np.testing.assert_array_equal(
            tc.decode_batch(llrs),
            np.stack([tc.decode(llrs[i]) for i in range(nb)]),
        )

    def test_all_erasure(self):
        tc = TurboCode(40, iterations=2)
        llrs = np.zeros((3, tc.encoded_length))
        np.testing.assert_array_equal(
            tc.decode_batch(llrs),
            np.stack([tc.decode(llrs[i]) for i in range(3)]),
        )

    def test_tied_metric_llrs(self):
        tc = TurboCode(48, iterations=3)
        rng = np.random.default_rng(99)
        llrs = rng.integers(-1, 2, (4, tc.encoded_length)).astype(np.float64)
        np.testing.assert_array_equal(
            tc.decode_batch(llrs),
            np.stack([tc.decode(llrs[i]) for i in range(4)]),
        )

    def test_iteration_traces_match(self):
        """return_iterations: per-iteration hard decisions also agree."""
        tc = TurboCode(40, iterations=3)
        rng = np.random.default_rng(5)
        llrs = _noisy_llrs(tc, rng, 2, 40, snr=0.7)
        _, batched_iters = tc.decode_batch(llrs, return_iterations=True)
        for i in range(2):
            _, scalar_iters = tc.decode(llrs[i], return_iterations=True)
            for bi, si in zip(batched_iters, scalar_iters):
                np.testing.assert_array_equal(np.asarray(bi)[i], np.asarray(si))


class TestTransportChainBatchEquivalence:
    @pytest.mark.parametrize("scheme", list(CodingScheme))
    @pytest.mark.parametrize("physical_bits", [None, 512])
    def test_matches_scalar_loop(self, scheme, physical_bits):
        chain = TransportChain(
            scheme,
            transport_block=100,
            physical_bits=physical_bits,
            turbo_iterations=3,
        )
        rng = np.random.default_rng(7 * (1 + list(CodingScheme).index(scheme)))
        nb = 3
        msgs = rng.integers(0, 2, (nb, 100)).astype(np.uint8)
        enc = np.stack([chain.encode(m) for m in msgs])
        llrs = (1.0 - 2.0 * enc) * 2.0 + 0.5 * rng.standard_normal(enc.shape)
        batched = chain.decode_batch(llrs)
        for i in range(nb):
            scalar = chain.decode(llrs[i])
            np.testing.assert_array_equal(batched["bits"][i], scalar["bits"])
            assert bool(batched["crc_ok"][i]) == bool(scalar["crc_ok"])
            assert scalar["crc_ok"], f"clean-channel block {i} failed CRC"
            np.testing.assert_array_equal(scalar["bits"], msgs[i])

    def test_all_erasure(self):
        chain = TransportChain(
            CodingScheme.CONVOLUTIONAL, transport_block=50, physical_bits=512
        )
        llrs = np.zeros((2, 512))
        batched = chain.decode_batch(llrs)
        for i in range(2):
            scalar = chain.decode(llrs[i])
            np.testing.assert_array_equal(batched["bits"][i], scalar["bits"])
            assert bool(batched["crc_ok"][i]) == bool(scalar["crc_ok"])


class TestModemBatchEquivalence:
    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_demod_batch_matches_rows(self, order):
        from repro.dsp.modem import PskModem

        m = PskModem(order)
        rng = np.random.default_rng(order)
        nb, nsym = 5, 32
        syms = (
            rng.standard_normal((nb, nsym)) + 1j * rng.standard_normal((nb, nsym))
        )
        hard = m.demodulate_hard(syms)
        soft = m.demodulate_soft(syms, noise_var=0.5)
        for i in range(nb):
            np.testing.assert_array_equal(hard[i], m.demodulate_hard(syms[i]))
            np.testing.assert_allclose(
                soft[i], m.demodulate_soft(syms[i], noise_var=0.5), rtol=1e-12
            )
