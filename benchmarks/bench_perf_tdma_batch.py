"""Throughput benchmark of the batched MF-TDMA uplink front end.

The Fig. 2 payload demodulates every MF-TDMA carrier on board, so its
capacity is sustained per-carrier baseband throughput.  The carrier
index is a numpy batch axis through the uplink (see docs/performance.md,
"TDMA carrier batch"): ``TdmaModem.receive_batch`` demodulates a
``(C, n)`` stack in one call and ``multiplex_carriers`` is a polyphase
synthesis filter bank.  This benchmark times, at 3, 8 and 16 carriers:

- ``receive_batch`` against a per-row ``receive`` loop (Oerder&Meyr,
  the mission personality; the Gardner lock-step is reported too);
- the polyphase multiplexer against the per-carrier mixer it replaced
  (one full-rate interpolation filter + one complex mixer per carrier).

It checks bit-exact batched == per-row equivalence (and the mixer
agreement) on every measured input, and asserts **>= 2x at 8 carriers**
for both the demodulator and the multiplexer.

Run modes
---------
- ``make test-tdma-perf`` / ``pytest benchmarks/bench_perf_tdma_batch.py -s``
  -- full measurement, prints the carriers/sec tables;
- ``REPRO_PERF_SMOKE=1`` (CI) -- one repetition, equivalence checks
  only, no timing assertions (shared-runner timings are noise);
- ``REPRO_OBS=1`` additionally snapshots the ``perf.bench`` gauges and
  the design-cache counters into ``BENCH_METRICS.json``.
"""

import os
import time

import numpy as np
import pytest
from scipy.signal import fftconvolve

from repro.caching import design_cache_stats
from repro.dsp.demux import multiplex_carriers
from repro.dsp.filters import design_lowpass
from repro.dsp.tdma import BurstFormat, TdmaModem
from repro.obs.probes import probe
from repro.sim import RngRegistry

from conftest import print_table

pytestmark = pytest.mark.perf

#: CI smoke mode: one repetition, no timing assertions.
SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") in ("1", "true", "yes")

#: the mission worlds' burst (repro.robustness.fdir.chaos)
BURST = BurstFormat(preamble=16, uw=16, payload=96)
CARRIERS = (3, 8, 16)
REPS = 1 if SMOKE else 20


@pytest.fixture(scope="module")
def rng():
    return RngRegistry(2012).stream("perf-tdma-batch")


def _time_per_call(fn, reps: int) -> float:
    fn()  # warm caches out of the measurement
    best = float("inf")
    for _ in range(3 if reps > 1 else 1):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _gauge(name: str, carriers: int, value: float) -> None:
    p = probe("perf.bench", bench="tdma_batch", carriers=str(carriers))
    if p is not None:
        p.gauge(name, value)


def _stack(modem: TdmaModem, rng, carriers: int, sigma: float = 0.05):
    rows, sent = [], []
    for _ in range(carriers):
        bits = rng.integers(0, 2, modem.bits_per_burst).astype(np.uint8)
        tx = modem.transmit(bits)
        rows.append(tx + sigma * (rng.standard_normal(len(tx)) + 1j * rng.standard_normal(len(tx))))
        sent.append(bits)
    return np.stack(rows), sent


def _assert_batch_equals_scalar(modem, stack, batched) -> None:
    for row, got in zip(stack, batched):
        ref = modem.receive(row)
        assert got.keys() == ref.keys()
        for key, val in ref.items():
            assert np.array_equal(got[key], val), key


def _demod_table(timing: str, rng) -> dict:
    modem = TdmaModem(BURST, timing=timing)
    rows, ratios = [], {}
    for nc in CARRIERS:
        stack, sent = _stack(modem, rng, nc)
        batched = modem.receive_batch(stack)
        # bit-exact equivalence enforced before anything is timed
        _assert_batch_equals_scalar(modem, stack, batched)
        for res, bits in zip(batched, sent):
            assert np.array_equal(res["bits"], bits)
        t_rows = _time_per_call(lambda: [modem.receive(row) for row in stack], REPS)
        t_batch = _time_per_call(lambda: modem.receive_batch(stack), REPS)
        ratios[nc] = t_rows / t_batch
        rows.append([nc, f"{nc / t_rows:.0f}", f"{nc / t_batch:.0f}", f"{ratios[nc]:.2f}x"])
        _gauge(f"tdma_{timing}_carriers_per_sec_rows", nc, nc / t_rows)
        _gauge(f"tdma_{timing}_carriers_per_sec_batched", nc, nc / t_batch)
    print_table(
        f"TDMA demod ({timing}, QPSK, {BURST.total}-symbol bursts) carriers/sec",
        ["carriers", "per-row receive", "receive_batch", "speedup"],
        rows,
    )
    return ratios


def test_receive_batch_throughput(rng):
    """receive_batch >= 2x carriers/sec over the per-row loop at 8."""
    ratios = _demod_table("oerder-meyr", rng)
    if not SMOKE:
        assert ratios[8] >= 2.0, f"batched TDMA demod {ratios[8]:.2f}x below 2x at 8 carriers"


def test_gardner_lockstep_throughput(rng):
    """The lock-step Gardner loop: one Python step advances every row."""
    ratios = _demod_table("gardner", rng)
    if not SMOKE:
        assert ratios[8] >= 2.0, f"lock-step Gardner {ratios[8]:.2f}x below 2x at 8 carriers"


def _mixer(bb: np.ndarray, m: int) -> np.ndarray:
    """The replaced multiplexer: per carrier, a full-rate interpolation
    filter and a full-length complex mixer."""
    n = bb.shape[1]
    total = n * m
    out = np.zeros(total, dtype=np.complex128)
    proto = design_lowpass(8 * m + 1, 0.5 / m * 0.8)
    t = np.arange(total)
    for k in range(m):
        up = np.zeros(total, dtype=np.complex128)
        up[::m] = bb[k]
        out += fftconvolve(up, proto * m, mode="full")[:total] * np.exp(2j * np.pi * (k / m) * t)
    return out


def test_multiplexer_throughput(rng):
    """Polyphase synthesis >= 2x over the per-carrier mixer at 8."""
    modem = TdmaModem(BURST)
    rows, ratios = [], {}
    for nc in CARRIERS:
        bb, _ = _stack(modem, rng, nc)
        np.testing.assert_allclose(multiplex_carriers(bb, nc), _mixer(bb, nc), rtol=0, atol=1e-9)
        t_mixer = _time_per_call(lambda: _mixer(bb, nc), REPS)
        t_poly = _time_per_call(lambda: multiplex_carriers(bb, nc), REPS)
        ratios[nc] = t_mixer / t_poly
        rows.append([nc, f"{t_mixer * 1e3:.2f}", f"{t_poly * 1e3:.2f}", f"{ratios[nc]:.1f}x"])
        _gauge("mux_frames_per_sec_polyphase", nc, 1.0 / t_poly)
    print_table(
        f"carrier multiplexer, {bb.shape[1]} samples/carrier",
        ["carriers", "mixer [ms]", "polyphase [ms]", "speedup"],
        rows,
    )
    if not SMOKE:
        assert ratios[8] >= 2.0, f"polyphase multiplexer {ratios[8]:.2f}x below 2x at 8 carriers"


def test_design_cache_gauges():
    """The multiplexer branch table and the timing-line phasor are
    design-cache hits after the first frame."""
    stats = design_cache_stats()
    rows = []
    for name in ("demux.synthesis_branches", "timing.line_phasor"):
        info = stats[name]
        rows.append([name, info["hits"], info["misses"], info["currsize"]])
        p = probe("perf.cache", cache=name)
        if p is not None:
            p.gauge("hits", float(info["hits"]))
            p.gauge("misses", float(info["misses"]))
        assert info["hits"] >= 1, name
    print_table("tdma design cache registry", ["cache", "hits", "misses", "size"], rows)
