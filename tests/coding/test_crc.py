"""Tests for the TS 25.212 CRC implementations.

``Crc`` computes parity as one GF(2) matrix product per batch; the
bit-serial shift register it replaced is kept here as the reference.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import CRC8, CRC12, CRC16, CRC24, Crc
from repro.coding.crc import crc32_bytes

ALL_CRCS = [CRC8, CRC12, CRC16, CRC24]


def ref_crc(crc: Crc, bits) -> np.ndarray:
    """Bit-serial reference: the MSB-first shift register, zero start."""
    reg = 0
    top = 1 << (crc.width - 1)
    mask = (1 << crc.width) - 1
    for b in np.asarray(bits, dtype=np.uint8).ravel():
        fb = ((reg & top) != 0) ^ int(b)
        reg = (reg << 1) & mask
        if fb:
            reg ^= crc.poly
    return np.array(
        [(reg >> (crc.width - 1 - i)) & 1 for i in range(crc.width)], dtype=np.uint8
    )


@pytest.mark.parametrize("crc", ALL_CRCS, ids=lambda c: c.name)
class TestMatrixCrcMatchesBitSerial:
    def test_every_short_message(self, crc):
        """All 2**n messages of every length n = 1..12, as one batch per n."""
        for n in range(1, 13):
            msgs = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)
            got = crc.compute_batch(msgs)
            ref = np.stack([ref_crc(crc, m) for m in msgs])
            np.testing.assert_array_equal(got, ref, err_msg=f"n={n}")
            assert crc.check_batch(np.concatenate([msgs, got], axis=1)).all()

    @pytest.mark.parametrize("n", [0, 13, 100, 260, 1000, 5114])
    def test_random_long_messages(self, crc, n):
        rng = np.random.default_rng(n + crc.width)
        msgs = rng.integers(0, 2, (4, n)).astype(np.uint8)
        got = crc.compute_batch(msgs)
        for msg, parity in zip(msgs, got):
            np.testing.assert_array_equal(parity, ref_crc(crc, msg))
            np.testing.assert_array_equal(crc.compute(msg), parity)
            np.testing.assert_array_equal(crc.attach(msg)[n:], parity)

    def test_check_batch_flags_each_row(self, crc):
        rng = np.random.default_rng(crc.width)
        frames = crc.attach_batch(rng.integers(0, 2, (6, 40)).astype(np.uint8))
        frames[[1, 4], [3, 40]] ^= 1
        ok = crc.check_batch(frames)
        np.testing.assert_array_equal(ok, [True, False, True, True, False, True])
        assert [crc.check(f) for f in frames] == ok.tolist()

    def test_empty_batch(self, crc):
        assert crc.compute_batch(np.zeros((0, 9), dtype=np.uint8)).shape == (0, crc.width)
        assert crc.check_batch(np.zeros((0, 30), dtype=np.uint8)).shape == (0,)

    def test_short_message_rejected(self, crc):
        with pytest.raises(ValueError):
            crc.check(np.zeros(crc.width - 1, dtype=np.uint8))
        with pytest.raises(ValueError):
            crc.check_batch(np.zeros((2, crc.width - 1), dtype=np.uint8))


@pytest.mark.parametrize("crc", ALL_CRCS, ids=lambda c: c.name)
class TestUmtsCrcs:
    def test_attach_check_roundtrip(self, crc):
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 2, 100).astype(np.uint8)
        assert crc.check(crc.attach(msg))

    def test_single_bit_error_detected(self, crc):
        rng = np.random.default_rng(2)
        msg = rng.integers(0, 2, 64).astype(np.uint8)
        frame = crc.attach(msg)
        for pos in range(0, len(frame), 7):
            bad = frame.copy()
            bad[pos] ^= 1
            assert not crc.check(bad), f"missed single-bit error at {pos}"

    def test_burst_error_detected(self, crc):
        """CRC-w detects all bursts of length <= w."""
        rng = np.random.default_rng(3)
        msg = rng.integers(0, 2, 128).astype(np.uint8)
        frame = crc.attach(msg)
        for start in range(0, len(frame) - crc.width, 11):
            bad = frame.copy()
            bad[start : start + crc.width] ^= 1
            assert not crc.check(bad)

    def test_parity_width(self, crc):
        parity = crc.compute(np.zeros(10, dtype=np.uint8))
        assert len(parity) == crc.width

    def test_linearity(self, crc):
        """crc(a ^ b) == crc(a) ^ crc(b) for equal-length messages."""
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2, 50).astype(np.uint8)
        b = rng.integers(0, 2, 50).astype(np.uint8)
        lhs = crc.compute(a ^ b)
        rhs = crc.compute(a) ^ crc.compute(b)
        np.testing.assert_array_equal(lhs, rhs)


class TestCrcGeneric:
    def test_zero_message_zero_crc(self):
        np.testing.assert_array_equal(
            CRC16.compute(np.zeros(32, dtype=np.uint8)), np.zeros(16, dtype=np.uint8)
        )

    def test_width_validation(self):
        with pytest.raises(ValueError):
            Crc(0x3, 0)

    def test_poly_width_validation(self):
        with pytest.raises(ValueError):
            Crc(0x1FFFF, 16)

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            CRC16.check(np.zeros(8, dtype=np.uint8))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, bits):
        msg = np.asarray(bits, dtype=np.uint8)
        assert CRC16.check(CRC16.attach(msg))

    @given(
        st.lists(st.integers(0, 1), min_size=8, max_size=100),
        st.integers(min_value=0, max_value=107),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_single_flip_detected_property(self, bits, pos):
        msg = np.asarray(bits, dtype=np.uint8)
        frame = CRC8.attach(msg)
        bad = frame.copy()
        bad[pos % len(frame)] ^= 1
        assert not CRC8.check(bad)

    def test_crc32_bytes_known_value(self):
        assert crc32_bytes(b"123456789") == 0xCBF43926

    def test_crc32_bytes_differs_on_corruption(self):
        assert crc32_bytes(b"hello") != crc32_bytes(b"hellp")
