"""Exhaustive tests: the whole-file EDAC kernel == the per-bit reference.

``OnboardMemory`` encodes a file by indexing a frozen 256 x 13 table
and decodes it with one vectorised syndrome pass; ``hamming_encode`` and
``hamming_decode`` are one-row views of those kernels.  The reference
here is a test-local copy of the per-bit SEC-DED Hamming(12,8) code the
kernels replaced, with one fix: a syndrome pointing past the 12-bit
body (three or more upsets) is uncorrectable.  It shares no table or
position array with the module, so a wrong column in the kernel cannot
hide in the reference.

Every byte is checked under every 0-, 1-, 2- and 3-bit flip pattern of
its 13-bit word, then each status class goes through a store -> load /
scrub round trip, and the random upset injector is compared with the
sequential loop it replaced, duplicate draws included.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.fpga.memory import (
    _ENCODE,
    _STATUS,
    OnboardMemory,
    _decode,
    hamming_decode,
    hamming_encode,
)
from repro.sim import RngRegistry

WORD_BITS = 13
POSITIONS = range(1, 13)
DATA_POS = [p for p in POSITIONS if p & (p - 1)]
PARITY_POS = [p for p in POSITIONS if not p & (p - 1)]


def ref_encode(byte: int) -> list:
    word = [0] * 12
    for i, pos in enumerate(DATA_POS):
        word[pos - 1] = (byte >> i) & 1
    for p in PARITY_POS:
        word[p - 1] = sum(word[q - 1] for q in POSITIONS if q & p) & 1
    return word + [sum(word) & 1]


def ref_decode(word) -> tuple:
    body = [int(b) for b in word[:-1]]
    overall = sum(int(b) for b in word) & 1
    syndrome = 0
    for p in PARITY_POS:
        if sum(body[q - 1] for q in POSITIONS if q & p) & 1:
            syndrome |= p
    if syndrome and overall and syndrome <= len(body):
        body[syndrome - 1] ^= 1
        status = "corrected"
    elif syndrome:
        status = "double"
    elif overall:
        status = "corrected"
    else:
        status = "ok"
    byte = sum(body[pos - 1] << i for i, pos in enumerate(DATA_POS))
    return byte, status


def ref_upset(files: dict, count: int, rng: np.random.Generator) -> None:
    """The sequential per-draw loop ``upset_random_bits`` replaced."""
    names = sorted(files)
    sizes = np.array([files[n].size for n in names])
    bounds = np.cumsum(sizes)
    for idx in rng.integers(0, int(bounds[-1]), size=count):
        fi = int(np.searchsorted(bounds, idx, side="right"))
        local = idx - (bounds[fi - 1] if fi else 0)
        files[names[fi]].reshape(-1)[local] ^= 1


REF_TABLE = np.array([ref_encode(b) for b in range(256)], dtype=np.uint8)
#: every 0-, 1-, 2- and 3-bit flip pattern of a 13-bit word
FLIPS = [f for k in range(4) for f in combinations(range(WORD_BITS), k)]


def _mask(flips) -> np.ndarray:
    mask = np.zeros(WORD_BITS, dtype=np.uint8)
    mask[list(flips)] = 1
    return mask


@pytest.fixture(scope="module")
def corpus():
    """All 256 bytes x every flip pattern: ``(words, reference results)``."""
    masks = np.array([_mask(f) for f in FLIPS])
    words = (REF_TABLE[:, None, :] ^ masks[None]).reshape(-1, WORD_BITS)
    expected = [ref_decode(w) for w in words.tolist()]
    return words, expected


class TestKernels:
    def test_encode_table_matches_reference(self):
        assert np.array_equal(_ENCODE, REF_TABLE)
        for byte in range(256):
            assert np.array_equal(hamming_encode(byte), REF_TABLE[byte])

    def test_batch_decode_matches_reference(self, corpus):
        words, expected = corpus
        assert len(words) == 256 * len(FLIPS)
        data, status = _decode(words)
        got = list(zip(data.tolist(), [_STATUS[s] for s in status]))
        assert got == expected
        # every class is reached, including the out-of-range syndromes
        assert {s for _, s in expected} == {"ok", "corrected", "double"}

    def test_scalar_decode_is_a_row_of_the_batch(self, corpus):
        words, expected = corpus
        for i in range(0, len(words), 7):
            assert hamming_decode(words[i]) == expected[i]

    def test_batch_rows_are_independent(self, corpus):
        """Decoding a slice gives the same rows as decoding the whole."""
        words, _ = corpus
        data, status = _decode(words)
        sub_data, sub_status = _decode(words[1000:1300])
        assert np.array_equal(sub_data, data[1000:1300])
        assert np.array_equal(sub_status, status[1000:1300])


PATTERNS = {
    "ok": (),
    "single-body": (6,),
    "single-overall": (12,),
    "double": (0, 5),
    "triple-miscorrected": (0, 1, 2),
    "triple-out-of-range": (0, 1, 11),
}


class TestRoundTrip:
    @pytest.mark.parametrize("kind", sorted(PATTERNS))
    def test_store_load_scrub(self, kind):
        flips = PATTERNS[kind]
        payload = bytes(range(256))
        poked = (17, 200)
        m = OnboardMemory(1 << 12)
        m.store("f", payload)
        words = m._files["f"].words
        for row in poked:
            words[row] ^= _mask(flips)
        before = words.copy()
        refs = [ref_decode(words[i].tolist()) for i in range(len(words))]
        statuses = {refs[row][1] for row in poked}
        assert len(statuses) == 1
        status = statuses.pop()

        if status == "double":
            with pytest.raises(IOError, match=r"'f' at byte 17$"):
                m.load("f")
            assert m.scrub() == 0
            assert np.array_equal(words, before)
            return

        expected = bytes(byte for byte, _ in refs)
        assert m.load("f") == expected
        fixed = m.scrub()
        assert fixed == (0 if status == "ok" else len(poked))
        assert m.scrub_corrections == fixed
        assert np.array_equal(words, REF_TABLE[np.frombuffer(expected, np.uint8)])
        assert m.load("f") == expected
        assert m.scrub() == 0

    def test_load_reports_first_uncorrectable_byte(self):
        m = OnboardMemory(1 << 12)
        m.store("f", bytes(100))
        words = m._files["f"].words
        words[90] ^= _mask(PATTERNS["double"])
        words[42] ^= _mask(PATTERNS["triple-out-of-range"])
        words[7] ^= _mask(PATTERNS["single-body"])
        with pytest.raises(IOError, match=r"at byte 42$"):
            m.load("f")
        assert m.scrub() == 1
        assert np.array_equal(words[7], REF_TABLE[0])

    def test_empty_file(self):
        m = OnboardMemory(16)
        m.store("empty", b"")
        assert m._files["empty"].words.shape == (0, WORD_BITS)
        assert m.load("empty") == b""
        assert m.scrub() == 0


class TestTableAliasing:
    def test_table_is_read_only(self):
        assert _ENCODE.flags.writeable is False
        with pytest.raises(ValueError):
            _ENCODE[0, 0] = 1

    def test_flipping_a_stored_word_touches_nothing_else(self):
        payload = bytes(range(64))
        snapshot = _ENCODE.copy()
        m = OnboardMemory(1 << 10)
        m.store("a", payload)
        m.store("b", payload)
        words = m._files["a"].words
        assert words.flags.writeable
        words[10, 0] ^= 1
        words[10, 5] ^= 1  # double error in one byte: uncorrectable
        assert np.array_equal(_ENCODE, snapshot)
        assert np.array_equal(m._files["b"].words, REF_TABLE[np.frombuffer(payload, np.uint8)])
        assert m.load("b") == payload
        with pytest.raises(IOError):
            m.load("a")

    def test_scalar_encode_returns_a_private_word(self):
        word = hamming_encode(0x5A)
        word[:] = 0
        assert np.array_equal(hamming_encode(0x5A), REF_TABLE[0x5A])


class TestUpsetParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_duplicate_draws_match_sequential_loop(self, seed):
        m = OnboardMemory(16)
        m.store("f", b"\xa5")
        ref = {"f": m._files["f"].words.copy()}
        rng = RngRegistry(seed).stream("mem")
        ref_rng = RngRegistry(seed).stream("mem")
        m.upset_random_bits(40, rng)
        ref_upset(ref, 40, ref_rng)
        assert np.array_equal(m._files["f"].words, ref["f"])
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_draws_map_across_files_like_sequential_loop(self, seed):
        m = OnboardMemory(1 << 12)
        for name, size in (("c", 3), ("a", 40), ("empty", 0), ("b", 1)):
            m.store(name, bytes(range(size)))
        ref = {n: f.words.copy() for n, f in m._files.items()}
        rng = RngRegistry(seed).stream("mem")
        ref_rng = RngRegistry(seed).stream("mem")
        m.upset_random_bits(300, rng)
        ref_upset(ref, 300, ref_rng)
        for name, words in ref.items():
            assert np.array_equal(m._files[name].words, words), name
        assert rng.bit_generator.state == ref_rng.bit_generator.state
