"""Throughput benchmark of the batched burst-processing engine.

The paper's regenerative payload (Fig. 2) decodes *every* carrier of
*every* burst on board, so per-burst decode throughput is the payload's
capacity ceiling.  This benchmark is the repo's throughput-regression
baseline for the batching engine (see docs/performance.md): it measures
bursts/sec for the scalar (one-burst-per-call) path against the batched
path at several batch sizes, asserts the headline >= 5x speedup at
batch=16 on the UMTS rate-1/3 K=9 code, and checks bit-identity between
the two paths on every measured input.  It also gates the fused
forward-backward turbo SISO at >= 2x over the two-loop reference
recursion of ``tests/coding/test_turbo_siso_equivalence.py``.

Run modes
---------
- ``make test-perf`` / ``pytest benchmarks/bench_perf_burst_batch.py -s``
  -- full measurement, prints the bursts/sec tables;
- ``REPRO_PERF_SMOKE=1`` (CI) -- tiny blocks and a single repetition:
  exercises every code path and the bit-identity checks without timing
  assertions (shared-runner timings are noise);
- ``REPRO_OBS=1`` additionally wraps the run in an observability
  session, so the ``perf.viterbi`` / ``perf.turbo`` / ``perf.payload``
  counters and the ``perf.cache.*`` design-cache gauges land in the
  ``BENCH_METRICS.json`` snapshot.
"""

import os
import time

import numpy as np
import pytest

from repro.caching import design_cache_stats
from repro.coding import TurboCode, UMTS_RATE_13
from repro.coding.turbo import _Siso
from repro.core.payload import PayloadConfig, RegenerativePayload
from repro.core.registry import default_registry
from repro.obs.probes import probe
from repro.sim import RngRegistry

from conftest import print_table
from tests.coding.test_turbo_siso_equivalence import (
    ref_decode_batch,
    ref_siso_batch,
)

pytestmark = pytest.mark.perf

#: CI smoke mode: tiny sizes, no timing assertions.
SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") in ("1", "true", "yes")


@pytest.fixture(scope="module")
def rng():
    return RngRegistry(77).stream("perf-burst-batch")


def _time_per_call(fn, reps: int) -> float:
    fn()  # warm caches/JIT'd ufunc loops out of the measurement
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def _best_per_call(fns, reps: int, repeats: int = 7) -> list:
    """Per function, the fastest of ``repeats`` mean-per-call timings.

    The functions take turns within each repeat, so a drift in host
    speed hits all of them alike, and the minimum is the timing least
    disturbed by other load on the host.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            best[i] = min(best[i], _time_per_call(fn, reps))
    return best


def _gauge(name: str, batch: int, value: float) -> None:
    p = probe("perf.bench", bench="burst_batch", batch=str(batch))
    if p is not None:
        p.gauge(name, value)


def test_viterbi_burst_batch_throughput(rng):
    """Batched Viterbi >= 5x bursts/sec over scalar at batch=16 (rate 1/3 K=9)."""
    code = UMTS_RATE_13
    nbits = 32 if SMOKE else 260
    reps = 1 if SMOKE else 10
    batches = (2,) if SMOKE else (4, 16, 64)
    rows = []
    headline = None
    for nb in batches:
        msgs = rng.integers(0, 2, (nb, nbits)).astype(np.uint8)
        enc = np.stack([code.encode(m) for m in msgs])
        llrs = (1.0 - 2.0 * enc) + 0.5 * rng.standard_normal(enc.shape)

        batched = code.decode_batch(llrs, nbits)
        scalar = np.stack(
            [code.decode(llrs[i], nbits, soft=True) for i in range(nb)]
        )
        assert np.array_equal(batched, scalar), "batched != scalar decode"

        t_scalar = _time_per_call(
            lambda: [code.decode(llrs[i], nbits, soft=True) for i in range(nb)],
            reps,
        )
        t_batched = _time_per_call(lambda: code.decode_batch(llrs, nbits), reps)
        bps_s = nb / t_scalar
        bps_b = nb / t_batched
        ratio = bps_b / bps_s
        rows.append([nb, f"{bps_s:.0f}", f"{bps_b:.0f}", f"{ratio:.2f}x"])
        _gauge("viterbi_bursts_per_sec_scalar", nb, bps_s)
        _gauge("viterbi_bursts_per_sec_batched", nb, bps_b)
        if nb == 16:
            headline = ratio
    print_table(
        "batched Viterbi (UMTS rate-1/3 K=9) bursts/sec",
        ["batch", "scalar", "batched", "speedup"],
        rows,
    )
    if not SMOKE:
        assert headline is not None and headline >= 5.0, (
            f"batched Viterbi speedup {headline:.2f}x below the 5x target"
        )


def test_turbo_burst_batch_throughput(rng):
    """Batched max-log-MAP turbo decoding, bursts/sec vs the scalar loop."""
    k = 40 if SMOKE else 200
    nb = 2 if SMOKE else 16
    reps = 1 if SMOKE else 3
    tc = TurboCode(k, iterations=4)
    msgs = rng.integers(0, 2, (nb, k)).astype(np.uint8)
    enc = np.stack([tc.encode(m) for m in msgs])
    llrs = (1.0 - 2.0 * enc) * 2.0 + rng.standard_normal(enc.shape)

    batched = tc.decode_batch(llrs)
    scalar = np.stack([tc.decode(llrs[i]) for i in range(nb)])
    assert np.array_equal(batched, scalar), "batched != scalar turbo decode"

    t_scalar = _time_per_call(
        lambda: [tc.decode(llrs[i]) for i in range(nb)], reps
    )
    t_batched = _time_per_call(lambda: tc.decode_batch(llrs), reps)
    ratio = t_scalar / t_batched
    print_table(
        f"batched turbo (K={k}, 4 iter) bursts/sec",
        ["batch", "scalar", "batched", "speedup"],
        [[nb, f"{nb / t_scalar:.0f}", f"{nb / t_batched:.0f}", f"{ratio:.2f}x"]],
    )
    _gauge("turbo_bursts_per_sec_batched", nb, nb / t_batched)
    if not SMOKE:
        assert ratio >= 2.0, f"batched turbo speedup {ratio:.2f}x regressed"


def test_turbo_siso_fused_speedup(rng):
    """Fused forward-backward SISO >= 2x the two-loop reference.

    Shapes: the mission's turbo blocks (K = 56: a 40-bit transport block
    plus CRC-16, 3 carriers) and a longer block over a wider batch.  The
    fused time includes building the ``_Siso`` (its hoisted work is
    counted once per call, not amortised over a decode's iterations).
    """
    shapes = ((40, 2),) if SMOKE else ((56, 3), (260, 8))
    reps = 1 if SMOKE else 20
    rows = []
    for k, nb in shapes:
        lsys, lpar, lapr = (2.0 * rng.standard_normal((nb, k)) for _ in range(3))
        tails = [2.0 * rng.standard_normal((nb, 3)) for _ in range(2)]

        def fused():
            return _Siso(lsys, lpar, *tails)(lapr)

        def reference():
            return ref_siso_batch(lsys, lpar, lapr, *tails)

        assert np.array_equal(fused().view(np.int64), reference().view(np.int64)), (
            "fused SISO extrinsics differ from the two-loop reference"
        )
        tc = TurboCode(k)
        llr = 2.0 * rng.standard_normal((nb, tc.encoded_length))
        assert np.array_equal(tc.decode_batch(llr), ref_decode_batch(tc, llr)[0])
        if SMOKE:
            continue
        t_ref, t_fused = _best_per_call([reference, fused], reps)
        t_dec_ref, t_dec = _best_per_call(
            [lambda: ref_decode_batch(tc, llr), lambda: tc.decode_batch(llr)], 2
        )
        ratio = t_ref / t_fused
        rows.append([
            k, nb,
            f"{t_ref * 1e6:.0f}", f"{t_fused * 1e6:.0f}",
            f"{t_fused * 1e6 / (k + 2):.2f}", f"{ratio:.2f}x",
            f"{t_dec_ref * 1e3:.2f}", f"{t_dec * 1e3:.2f}",
        ])
        _gauge(f"turbo_siso_speedup_k{k}", nb, ratio)
        assert ratio >= 2.0, (
            f"fused turbo SISO speedup {ratio:.2f}x at K={k}, B={nb} below 2x"
        )
    if rows:
        print_table(
            "turbo SISO: two-loop reference vs fused forward-backward",
            ["K", "batch", "two-loop [us]", "fused [us]", "fused [us/step]",
             "speedup", "decode two-loop [ms]", "decode fused [ms]"],
            rows,
        )


def test_payload_uplink_batched_decode(rng):
    """End-to-end: process_uplink(decode=True) regenerates every carrier."""
    carriers = 2 if SMOKE else 4
    registry = default_registry(transport_block=100, physical_bits=512)
    payload = RegenerativePayload(
        PayloadConfig(num_carriers=carriers), registry=registry
    )
    payload.boot()
    chain = payload.decoder.behaviour()
    msgs = [rng.integers(0, 2, 100).astype(np.uint8) for _ in range(carriers)]
    wideband = payload.build_uplink([chain.encode(m) for m in msgs])

    t0 = time.perf_counter()
    out = payload.process_uplink(wideband, decode=True)
    dt = time.perf_counter() - t0

    decoded = out["decoded"]
    assert len(decoded) == carriers
    for k in range(carriers):
        assert decoded[k] is not None, f"carrier {k} skipped"
        assert decoded[k]["crc_ok"], f"carrier {k} CRC failed"
        assert np.array_equal(decoded[k]["bits"], msgs[k])
    print_table(
        "payload uplink, one batched decode call",
        ["carriers", "wall [ms]", "bursts/sec"],
        [[carriers, f"{dt * 1e3:.1f}", f"{carriers / dt:.0f}"]],
    )
    _gauge("payload_bursts_per_sec", carriers, carriers / dt)


def test_design_cache_gauges():
    """Publish design-cache hit/miss counters as perf.cache.* gauges."""
    stats = design_cache_stats()
    assert stats, "design caches should be registered by this point"
    rows = []
    for name, info in stats.items():
        rows.append([name, info["hits"], info["misses"], info["currsize"]])
        p = probe("perf.cache", cache=name)
        if p is not None:
            p.gauge("hits", float(info["hits"]))
            p.gauge("misses", float(info["misses"]))
            p.gauge("currsize", float(info["currsize"]))
    print_table(
        "design cache registry", ["cache", "hits", "misses", "size"], rows
    )
    # the benchmark above reuses srrc / trellis designs heavily
    total_hits = sum(i["hits"] for i in stats.values())
    assert total_hits >= 1, "expected at least one design-cache hit"
