"""Throughput benchmark of the EDAC-protected on-board memory.

The reconfiguration service stages every bitstream in the SEC-DED
protected on-board library (§3.2), so each world build stores the
library and each reconfiguration loads a file from it.
``OnboardMemory`` encodes a whole file by indexing a frozen 256 x 13
table and decodes it with one vectorised syndrome pass (see
docs/performance.md, "EDAC memory table kernel").  This benchmark times
store, load and scrub in bytes/sec against a per-byte reference memory
that runs the Hamming(12,8)+parity code one byte at a time, at the
2 KiB mission library size and at 64 KiB.

It checks that both memories hold the same words, load the same bytes
and scrub the same upsets on every measured file, and asserts
**>= 10x on store+load at 2 KiB**.

Run modes
---------
- ``make test-perf`` / ``pytest benchmarks/bench_perf_edac.py -s``
  -- full measurement, prints the bytes/sec table;
- ``REPRO_PERF_SMOKE=1`` (CI) -- equivalence checks only, nothing is
  timed;
- ``REPRO_OBS=1`` additionally snapshots the ``perf.bench`` gauges into
  ``BENCH_METRICS.json``.
"""

import os
import time

import numpy as np
import pytest

from repro.fpga.memory import OnboardMemory
from repro.obs.probes import probe
from repro.sim import RngRegistry

from conftest import print_table

pytestmark = pytest.mark.perf

#: CI smoke mode: equivalence checks only, no timing.
SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") in ("1", "true", "yes")

#: the mission library (~2.5 KiB stored per golden mission) and a large file
SIZES = (2 << 10, 64 << 10)
UPSETS = 64

_POSITIONS = np.arange(1, 13)
_DATA_POS = _POSITIONS[(_POSITIONS & (_POSITIONS - 1)) != 0]
_PARITY_POS = _POSITIONS[(_POSITIONS & (_POSITIONS - 1)) == 0]


def _ref_encode(byte: int) -> np.ndarray:
    word = np.zeros(12, dtype=np.uint8)
    for i, pos in enumerate(_DATA_POS):
        word[pos - 1] = (byte >> i) & 1
    for p in _PARITY_POS:
        covered = _POSITIONS[(_POSITIONS & p) != 0]
        word[p - 1] = np.bitwise_xor.reduce(word[covered - 1])
    return np.concatenate([word, [np.bitwise_xor.reduce(word)]]).astype(np.uint8)


def _ref_decode(word: np.ndarray) -> tuple:
    body = word[:-1].copy()
    overall = int(np.bitwise_xor.reduce(word))
    syndrome = 0
    for p in _PARITY_POS:
        covered = _POSITIONS[(_POSITIONS & p) != 0]
        if np.bitwise_xor.reduce(body[covered - 1]):
            syndrome |= int(p)
    status = "ok"
    if syndrome and overall and syndrome <= len(body):
        body[syndrome - 1] ^= 1
        status = "corrected"
    elif syndrome:
        status = "double"
    elif overall:
        status = "corrected"
    byte = sum(int(body[pos - 1]) << i for i, pos in enumerate(_DATA_POS))
    return byte, status


class PerByteMemory:
    """One file of the on-board memory, coded one byte at a time."""

    def store(self, data: bytes) -> None:
        self.words = np.vstack([_ref_encode(b) for b in data])

    def load(self) -> bytes:
        out = bytearray()
        for i, word in enumerate(self.words):
            byte, status = _ref_decode(word)
            if status == "double":
                raise IOError(f"uncorrectable EDAC error at byte {i}")
            out.append(byte)
        return bytes(out)

    def scrub(self) -> int:
        fixed = 0
        for i, word in enumerate(self.words):
            byte, status = _ref_decode(word)
            if status == "corrected":
                self.words[i] = _ref_encode(byte)
                fixed += 1
        return fixed


def _time(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(3 if reps > 1 else 1):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _timings(store, load, scrub, reps: int) -> dict:
    return {"store": _time(store, reps), "load": _time(load, reps), "scrub": _time(scrub, reps)}


def _check_equivalent(size: int) -> tuple:
    """Store, upset, scrub and load one file in both memories."""
    data = RngRegistry(size).stream("edac-data").integers(0, 256, size, dtype=np.uint8).tobytes()
    mem, ref = OnboardMemory(1 << 20), PerByteMemory()
    mem.store("f", data)
    ref.store(data)
    words = mem._files["f"].words
    assert np.array_equal(words, ref.words)
    assert mem.load("f") == ref.load() == data
    # scattered single upsets: the same bits in both memories
    for pos in RngRegistry(size).stream("edac-upsets").choice(words.size, UPSETS, replace=False):
        words.reshape(-1)[pos] ^= 1
        ref.words.reshape(-1)[pos] ^= 1
    assert mem.load("f") == ref.load() == data
    assert mem.scrub() == ref.scrub()
    assert np.array_equal(words, ref.words)
    return data, mem, ref


def test_edac_memory_throughput():
    """store+load >= 10x bytes/sec over the per-byte reference at 2 KiB."""
    rows, ratios = [], {}
    for size in SIZES:
        data, mem, ref = _check_equivalent(size)
        if SMOKE:
            continue
        t_ref = _timings(lambda: ref.store(data), ref.load, ref.scrub, 1)
        t_new = _timings(lambda: mem.store("f", data), lambda: mem.load("f"), mem.scrub, 50)
        ratios[size] = (t_ref["store"] + t_ref["load"]) / (t_new["store"] + t_new["load"])
        for op in ("store", "load", "scrub"):
            rows.append(
                [
                    f"{size >> 10} KiB",
                    op,
                    f"{size / t_ref[op]:.3g}",
                    f"{size / t_new[op]:.3g}",
                    f"{t_ref[op] / t_new[op]:.0f}x",
                ]
            )
            p = probe("perf.bench", bench="edac", size=str(size), op=op)
            if p is not None:
                p.gauge("bytes_per_sec_per_byte", size / t_ref[op])
                p.gauge("bytes_per_sec_table", size / t_new[op])
    if SMOKE:
        return
    print_table(
        "EDAC on-board memory, SEC-DED Hamming(12,8)+parity, bytes/sec",
        ["file", "op", "per-byte", "table kernel", "speedup"],
        rows,
    )
    assert ratios[SIZES[0]] >= 10.0, f"EDAC store+load {ratios[SIZES[0]]:.1f}x below 10x at 2 KiB"
