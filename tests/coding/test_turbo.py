"""Tests for the UMTS turbo code and its internal interleaver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import TurboCode, umts_turbo_interleaver
from repro.coding.turbo import umts_turbo_deinterleaver
from repro.dsp.modem import ebn0_to_sigma, theoretical_ber_bpsk


class TestInterleaver:
    @pytest.mark.parametrize(
        "k", [40, 57, 159, 160, 200, 201, 320, 480, 481, 530, 531, 1000, 2281, 2480, 3161, 5114]
    )
    def test_bijective(self, k):
        pi = umts_turbo_interleaver(k)
        assert len(pi) == k
        assert len(np.unique(pi)) == k
        assert pi.min() == 0 and pi.max() == k - 1
        inv = umts_turbo_deinterleaver(k)
        np.testing.assert_array_equal(pi[inv], np.arange(k))
        assert not inv.flags.writeable

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            umts_turbo_interleaver(39)
        with pytest.raises(ValueError):
            umts_turbo_interleaver(5115)

    @pytest.mark.parametrize("k", [64, 320, 1000])
    def test_spreading(self, k):
        """Adjacent input bits must land far apart (the point of the design)."""
        pi = umts_turbo_interleaver(k)
        inv = np.argsort(pi)
        gaps = np.abs(np.diff(inv))
        assert np.median(gaps) > k / 25

    @given(st.integers(min_value=40, max_value=600))
    @settings(max_examples=40, deadline=None)
    def test_bijective_property(self, k):
        pi = umts_turbo_interleaver(k)
        assert len(np.unique(pi)) == k


class TestTurboCodec:
    def test_encoded_length_and_rate(self):
        tc = TurboCode(320)
        assert tc.encoded_length == 3 * 320 + 12
        assert np.isclose(tc.rate, 320 / 972)

    def test_noiseless_roundtrip(self):
        rng = np.random.default_rng(0)
        tc = TurboCode(160, iterations=4)
        bits = rng.integers(0, 2, 160).astype(np.uint8)
        llr = (1.0 - 2.0 * tc.encode(bits)) * 8.0
        np.testing.assert_array_equal(tc.decode(llr), bits)

    def test_systematic_part_is_message(self):
        rng = np.random.default_rng(1)
        tc = TurboCode(100)
        bits = rng.integers(0, 2, 100).astype(np.uint8)
        code = tc.encode(bits)
        np.testing.assert_array_equal(code[0 : 300 : 3], bits)

    def test_termination_tail_present(self):
        tc = TurboCode(40)
        code = tc.encode(np.ones(40, dtype=np.uint8))
        assert len(code) == 132

    def test_block_length_validation(self):
        with pytest.raises(ValueError):
            TurboCode(20)
        with pytest.raises(ValueError):
            TurboCode(100, iterations=0)

    def test_llr_length_validation(self):
        tc = TurboCode(40)
        with pytest.raises(ValueError):
            tc.decode(np.zeros(10))

    def test_corrects_noise_below_conv_threshold(self):
        """At 2 dB the turbo code must decode error-free blocks mostly."""
        rng = np.random.default_rng(2)
        tc = TurboCode(320, iterations=6)
        sigma = ebn0_to_sigma(2.0, 1, code_rate=tc.rate)
        errors = 0
        total = 0
        for _ in range(10):
            bits = rng.integers(0, 2, 320).astype(np.uint8)
            x = 1.0 - 2.0 * tc.encode(bits).astype(float)
            y = x + sigma * rng.standard_normal(len(x))
            dec = tc.decode(2 * y / sigma**2)
            errors += np.count_nonzero(dec != bits)
            total += 320
        ber = errors / total
        assert ber < 0.05 * theoretical_ber_bpsk(2.0)

    def test_iterations_improve_decisions(self):
        """Across a batch of noisy blocks, late iterations beat iteration 1."""
        rng = np.random.default_rng(3)
        tc = TurboCode(256, iterations=6)
        sigma = ebn0_to_sigma(0.8, 1, code_rate=tc.rate)
        first = last = 0
        for _ in range(8):
            bits = rng.integers(0, 2, 256).astype(np.uint8)
            x = 1.0 - 2.0 * tc.encode(bits).astype(float)
            y = x + sigma * rng.standard_normal(len(x))
            _, history = tc.decode(2 * y / sigma**2, return_iterations=True)
            first += np.count_nonzero(history[0] != bits)
            last += np.count_nonzero(history[-1] != bits)
        assert last <= first

    @given(st.integers(min_value=40, max_value=120))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_property(self, k):
        rng = np.random.default_rng(k)
        tc = TurboCode(k, iterations=3)
        bits = rng.integers(0, 2, k).astype(np.uint8)
        llr = (1.0 - 2.0 * tc.encode(bits)) * 6.0
        np.testing.assert_array_equal(tc.decode(llr), bits)
