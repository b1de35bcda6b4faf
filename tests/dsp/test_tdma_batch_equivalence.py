"""Property tests: the batched MF-TDMA demodulator == the per-row path.

``TdmaModem.receive`` is a one-row view of ``receive_batch`` and
``GardnerLoop.process`` a one-row view of ``gardner_track``, so each
stage has one kernel.  What can still break batched == scalar is batch
shape leaking into a kernel: a reduction that re-associates for a
``(C, K)`` stack, an FFT sized by the longest row, or a UW search that
sees another row's strobe count.  These tests therefore compare
multi-row calls with one-row calls -- float-identical, not merely close
-- across carrier counts, constellations, both timing modes, CFO
recovery and per-row bit counts, including noise-only rows, rows
truncated after the unique word and rows whose timing offset folds near
``sps``.

The transmit section holds ``transmit_batch`` to the per-row
``transmit`` and to the one-burst synthesis it replaced (one 1-D
``fftconvolve`` per carrier), bitwise, across the mission's three TDMA
personalities.

The multiplexer section checks the polyphase synthesis against the
per-carrier mixer it replaced, and the payload section ports the
fault-containment cases of the deleted carrier-executor suite: batched
``process_uplink`` against a per-carrier scalar reference payload.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from repro.caching import design_cache_stats
from repro.core.equipment import EquipmentError
from repro.core.payload import PayloadConfig, RegenerativePayload
from repro.core.registry import FunctionDesign, default_registry
from repro.dsp.carrier import carrier_lock_metric, data_aided_phase
from repro.dsp.demux import (
    PolyphaseChannelizer,
    multiplex_carriers,
    synthesis_branches,
)
from repro.dsp.filters import design_lowpass, upsample
from repro.dsp.modem import estimate_snr_m2m4
from repro.dsp.tdma import BurstFormat, BurstSyncError, TdmaModem
from repro.dsp.timing import (
    GardnerLoop,
    cubic_interpolate,
    gardner_track,
    loop_gains,
    oerder_meyr_strobes,
)
from repro.robustness.fdir import HealthMonitorBank

pytestmark = pytest.mark.perf

SMALL_BURST = BurstFormat(preamble=16, uw=16, payload=48)
ROW_KINDS = ("clean", "noise", "late-tail", "tau-near-sps")


def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(":".join(map(str, parts)).encode()))


def _delay(x: np.ndarray, d: float) -> np.ndarray:
    """Delay ``x`` by ``d`` (fractional) samples, keeping its length."""
    n = len(x)
    f = np.fft.fftfreq(n)
    return np.fft.ifft(np.fft.fft(x) * np.exp(-2j * np.pi * f * d))


def _row(modem: TdmaModem, rng, kind: str, n: int) -> np.ndarray:
    """One ``n``-sample receive row of the given kind."""
    tx = modem.transmit(rng.integers(0, 2, modem.bits_per_burst))
    x = np.zeros(n, dtype=np.complex128)
    if kind == "noise":
        pass
    elif kind == "late-tail":
        # the burst starts so late that its payload runs past the buffer
        # end: the UW is found, the payload is truncated
        shift = modem.burst.payload // 2 * modem.sps
        x[shift:] = tx[: n - shift]
    else:
        x[: len(tx)] = tx
        if kind == "tau-near-sps":
            x = _delay(x, modem.sps - 0.02)
        else:
            x = _delay(x, rng.uniform(0.0, modem.sps))
        x *= np.exp(1j * rng.uniform(-np.pi, np.pi))
        x *= np.exp(2j * np.pi * rng.uniform(-2e-3, 2e-3) * np.arange(n))
    sigma = 0.05 if kind != "noise" else 0.5
    return x + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _stack(modem: TdmaModem, rng, kinds) -> np.ndarray:
    n = modem.num_tx_samples() + 3 * modem.sps
    return np.stack([_row(modem, rng, kind, n) for kind in kinds])


def _per_row(modem: TdmaModem, stack: np.ndarray, wants) -> list:
    if wants is None or np.ndim(wants) == 0:
        wants = [wants] * len(stack)
    out = []
    for row, want in zip(stack, wants):
        try:
            out.append(modem.receive(row, want))
        except BurstSyncError as exc:
            out.append(exc)
    return out


def _assert_identical(got, ref) -> None:
    """A batched row and its one-row call must be float-identical."""
    if isinstance(ref, BurstSyncError):
        assert isinstance(got, BurstSyncError), got
        assert str(got) == str(ref)
        return
    assert isinstance(got, dict), got
    assert got.keys() == ref.keys()
    for key, val in ref.items():
        if isinstance(val, np.ndarray):
            assert got[key].dtype == val.dtype, key
            np.testing.assert_array_equal(got[key], val, err_msg=key)
        else:
            assert type(got[key]) is type(val), key
            assert got[key] == val, key


def _check_stack(modem, stack, wants) -> list:
    batched = modem.receive_batch(stack, wants)
    ref = _per_row(modem, stack, wants)
    assert len(batched) == len(ref)
    for got, want in zip(batched, ref):
        _assert_identical(got, want)
    return batched


class TestReceiveBatch:
    @given(
        rows=st.integers(1, 16),
        order=st.sampled_from([2, 4, 8]),
        timing=st.sampled_from(["oerder-meyr", "gardner"]),
        cfo=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_per_row(self, rows, order, timing, cfo, seed):
        modem = TdmaModem(SMALL_BURST, modulation=order, timing=timing, cfo_recovery=cfo)
        rng = _rng("sweep", seed)
        kinds = [ROW_KINDS[i] for i in rng.integers(0, len(ROW_KINDS), rows)]
        wants = [
            None if rng.random() < 0.5 else int(rng.integers(1, modem.bits_per_burst + 1))
            for _ in range(rows)
        ]
        _check_stack(modem, _stack(modem, rng, kinds), wants)

    @pytest.mark.parametrize("order", [2, 4, 8])
    @pytest.mark.parametrize("timing", ["oerder-meyr", "gardner"])
    def test_every_row_kind(self, order, timing):
        # a long preamble lets the Gardner loop settle before the UW
        burst = BurstFormat(preamble=64, uw=16, payload=48)
        modem = TdmaModem(burst, modulation=order, timing=timing, cfo_recovery=True)
        rng = _rng("kinds", order, timing)
        kinds = ["clean", "noise", "late-tail", "tau-near-sps", "clean", "clean"]
        out = _check_stack(modem, _stack(modem, rng, kinds), 48)
        assert str(out[2]) == "burst truncated after UW"
        for r in (0, 4, 5):
            assert isinstance(out[r], dict) and len(out[r]["bits"]) == 48
        if timing == "gardner":
            assert all(len(out[r]["tau_history"]) > 0 for r in (0, 4, 5))

    def test_strobe_counts_differ_across_rows(self):
        """Rows with tau near 0 and near sps get different strobe counts;
        each still searches exactly the symbols of its one-row call."""
        modem = TdmaModem(SMALL_BURST, timing="oerder-meyr")
        rng = _rng("counts")
        n = modem.num_tx_samples() + 3 * modem.sps
        tx = modem.transmit(rng.integers(0, 2, modem.bits_per_burst))
        base = np.zeros(n, dtype=np.complex128)
        base[: len(tx)] = tx
        stack = np.stack([_delay(base, d) for d in (0.02, modem.sps - 0.6, 1.5)])
        batched = _check_stack(modem, stack, None)
        taus = [res["tau"] for res in batched]
        mf = fftconvolve(stack, modem.pulse[None, ::-1], axes=-1)
        _, counts = oerder_meyr_strobes(mf, taus, modem.sps)
        assert len(set(counts.tolist())) == 2, (taus, counts)

    def test_truncated_stack_reports_every_row(self):
        modem = TdmaModem(SMALL_BURST)
        stack = np.zeros((3, 8 * modem.sps), dtype=np.complex128) + 0.1
        out = modem.receive_batch(stack)
        assert [str(r) for r in out] == ["burst truncated: not enough recovered symbols"] * 3
        with pytest.raises(BurstSyncError):
            modem.receive(stack[0])

    def test_empty_stack_and_validation(self):
        modem = TdmaModem(SMALL_BURST)
        assert modem.receive_batch(np.zeros((0, 400), dtype=np.complex128)) == []
        with pytest.raises(ValueError, match="capacity"):
            modem.receive_batch(np.zeros((2, 400)), [None, modem.bits_per_burst + 1])
        with pytest.raises(ValueError, match="one entry per row"):
            modem.receive_batch(np.zeros((2, 400)), [None])
        with pytest.raises(ValueError, match="stack"):
            modem.receive_batch(np.zeros(400))

    def test_batch_key_groups_equal_personalities(self):
        a = TdmaModem(SMALL_BURST)
        assert a.batch_key == TdmaModem(SMALL_BURST).batch_key
        assert a.batch_key != TdmaModem(SMALL_BURST, modulation=8).batch_key
        assert a.batch_key != TdmaModem(SMALL_BURST, cfo_recovery=True).batch_key


#: the mission world's TDMA personalities (repro.robustness.fdir.chaos)
MISSION_BURST = BurstFormat(preamble=16, uw=16, payload=96)
TX_PERSONALITIES = {
    "modem.tdma": dict(),
    "modem.tdma.robust": dict(cfo_recovery=True),
    "modem.tdma8": dict(modulation=8),
}


def ref_transmit(modem: TdmaModem, bits) -> np.ndarray:
    """The one-burst synthesis ``transmit_batch`` replaced."""
    padded = np.zeros(modem.bits_per_burst, dtype=np.uint8)
    padded[: len(bits)] = bits
    symbols = np.concatenate([modem.preamble, modem.uw, modem.psk.modulate(padded)])
    return fftconvolve(upsample(symbols, modem.sps), modem.pulse, mode="full")


def _assert_bitwise(got: np.ndarray, ref: np.ndarray) -> None:
    assert got.dtype == ref.dtype == np.complex128
    np.testing.assert_array_equal(got.view(np.float64), ref.view(np.float64))


class TestTransmitBatch:
    @pytest.mark.parametrize("design", sorted(TX_PERSONALITIES))
    @pytest.mark.parametrize("rows", [0, 1, 3, 8, 16])
    def test_rows_match_per_row_transmit(self, design, rows):
        modem = TdmaModem(MISSION_BURST, **TX_PERSONALITIES[design])
        rng = _rng("tx", design, rows)
        for nbits in (modem.bits_per_burst, 150, 0):
            bits = rng.integers(0, 2, (rows, nbits)).astype(np.uint8)
            out = modem.transmit_batch(bits)
            assert out.shape == (rows, modem.num_tx_samples())
            for row, got in zip(bits, out):
                _assert_bitwise(got, modem.transmit(row))
                _assert_bitwise(got, ref_transmit(modem, row))

    @given(
        rows=st.integers(0, 16),
        order=st.sampled_from([2, 4, 8]),
        sps=st.integers(3, 6),
        short=st.integers(0, 24),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_short_rows_are_zero_padded(self, rows, order, sps, short, seed):
        modem = TdmaModem(SMALL_BURST, sps=sps, modulation=order)
        nbits = max(modem.bits_per_burst - short, 0)
        bits = _rng("tx-short", seed).integers(0, 2, (rows, nbits))
        out = modem.transmit_batch(bits)
        assert out.shape == (rows, modem.num_tx_samples())
        for row, got in zip(bits, out):
            padded = np.zeros(modem.bits_per_burst, dtype=np.uint8)
            padded[:nbits] = row
            _assert_bitwise(got, modem.transmit(padded))
            _assert_bitwise(got, ref_transmit(modem, row))

    def test_over_capacity_and_shape_validation(self):
        modem = TdmaModem(SMALL_BURST)
        with pytest.raises(ValueError, match="capacity"):
            modem.transmit_batch(np.zeros((2, modem.bits_per_burst + 1)))
        with pytest.raises(ValueError, match="capacity"):
            modem.transmit(np.zeros(modem.bits_per_burst + 2))
        with pytest.raises(ValueError, match="batch"):
            modem.transmit_batch(np.zeros(modem.bits_per_burst))
        empty = modem.transmit_batch(np.zeros((0, 4), dtype=np.uint8))
        assert empty.shape == (0, modem.num_tx_samples())
        assert empty.dtype == np.complex128


class TestRowReductions:
    def test_lock_snr_phase_rows_match(self):
        """Row-wise carrier lock, M2M4 SNR and data-aided phase equal
        their one-row calls, including rows holding exact zeros (left
        out of the lock sum) and an all-zero row."""
        rng = _rng("reductions")
        y = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
        y[1, [3, 17, 29]] = 0.0
        y[3] = 0.0
        ref = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        live = y[1][y[1] != 0]
        for order in (2, 4, 8):
            rows = carrier_lock_metric(y, order)
            assert rows.tolist() == [carrier_lock_metric(r, order) for r in y]
            # zeros are skipped, not summed: same order as the live-only sum
            assert rows[1] == np.abs(np.sum((live / np.abs(live)) ** order)) / 40
        assert estimate_snr_m2m4(y).tolist() == [estimate_snr_m2m4(r) for r in y]
        assert data_aided_phase(y, ref).tolist() == [data_aided_phase(r, ref) for r in y]
        assert carrier_lock_metric(y[3]) == 0.0


class TestTimingKernels:
    def test_gardner_track_rows_match_loop(self):
        """Lock-step rows with their own initial tau == one loop each."""
        sps, bn_ts = 4, 0.02
        rng = _rng("gardner")
        modem = TdmaModem(SMALL_BURST)
        n = modem.num_tx_samples()
        stack = np.stack([
            _delay(modem.transmit(rng.integers(0, 2, modem.bits_per_burst)), d)
            for d in (0.0, 1.3, 2.9, 3.7)
        ])
        taus = np.array([0.0, 0.5, 3.9, 2.2])
        kp, ki = loop_gains(bn_ts, kd=2.0)
        track = gardner_track(stack, sps, kp, ki, taus, np.zeros(4))
        for r in range(4):
            loop = GardnerLoop(sps=sps, bn_ts=bn_ts, initial_tau=taus[r])
            syms = loop.process(stack[r])
            k = track.counts[r]
            np.testing.assert_array_equal(track.symbols[r, :k], syms)
            assert track.errors[r, : k - 1].tolist() == list(loop.error_history)
            assert track.tau_path[r, : k - 1].tolist() == list(loop.tau_history)
            assert track.tau[r] == loop.tau
        assert track.symbols.shape[1] <= n

    def test_gardner_loop_resumes_across_blocks(self):
        """Feeding a stream in blocks carries tau and the integrator."""
        rng = _rng("blocks")
        x = rng.standard_normal(800) + 1j * rng.standard_normal(800)
        loop = GardnerLoop(sps=4)
        loop.process(x[:400])
        state = (loop.tau, loop._integrator)
        loop.process(x[400:])
        assert loop.tau != state[0] and len(loop.error_history) > 150

    def test_strobes_follow_arange(self):
        """Row strobes sit exactly where ``np.arange(tau, n - 2, sps)``
        puts them, for taus all over ``[0, sps)``."""
        rng = _rng("arange")
        x = rng.standard_normal((1, 301)) + 1j * rng.standard_normal((1, 301))
        for sps in (3, 4, 6):
            for tau in np.concatenate([rng.uniform(0, sps, 20), [0.0, sps - 1e-9]]):
                got, counts = oerder_meyr_strobes(x, [tau], sps)
                pos = np.arange(tau, 301 - 2.0, sps)
                base = np.floor(pos).astype(np.int64)
                ref = cubic_interpolate(x[0], base, pos - base)
                assert counts[0] == len(pos)
                np.testing.assert_array_equal(got[0, : counts[0]], ref)


def _mixer_reference(bb: np.ndarray, m: int) -> np.ndarray:
    """The per-carrier multiplexer the polyphase synthesis replaced:
    one full-rate interpolation filter and one complex mixer per carrier."""
    n = bb.shape[1]
    total = n * m
    out = np.zeros(total, dtype=np.complex128)
    proto = design_lowpass(8 * m + 1, 0.5 / m * 0.8)
    t = np.arange(total)
    for k in range(m):
        up = np.zeros(total, dtype=np.complex128)
        up[::m] = bb[k]
        shaped = fftconvolve(up, proto * m, mode="full")[:total]
        out += shaped * np.exp(2j * np.pi * (k / m) * t)
    return out


class TestPolyphaseMultiplexer:
    @pytest.mark.parametrize("m", [1, 2, 3, 6, 8, 16])
    def test_matches_per_carrier_mixer(self, m):
        rng = _rng("mux", m)
        bb = rng.standard_normal((m, 300)) + 1j * rng.standard_normal((m, 300))
        np.testing.assert_allclose(
            multiplex_carriers(bb, m), _mixer_reference(bb, m), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("m", [3, 8])
    def test_channelizer_round_trip(self, m):
        """Multiplex then channelize: every carrier comes back on its
        own channel at the channelizer's group delay."""
        rng = _rng("roundtrip", m)
        bb = np.repeat(
            np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, (m, 64)))), 8, axis=1
        )
        out = PolyphaseChannelizer(m, taps_per_branch=16).process(multiplex_carriers(bb, m))
        for k in range(m):
            best = max(
                abs(np.vdot(out[k, 64 + lag : 448 + lag], bb[k, 64:448]))
                / (np.linalg.norm(out[k, 64 + lag : 448 + lag]) * np.linalg.norm(bb[k, 64:448]))
                for lag in range(24)
            )
            assert best > 0.99, (k, best)

    def test_branch_table_cached_and_frozen(self):
        table = synthesis_branches(8)
        assert table.shape == (8, 9)
        assert synthesis_branches(8) is table
        assert not table.flags.writeable
        assert "demux.synthesis_branches" in design_cache_stats()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            multiplex_carriers(np.zeros((3, 10)), 4)


# ---------------------------------------------------------------------------
# payload: batched process_uplink vs a per-carrier scalar reference
# ---------------------------------------------------------------------------

BURST = BurstFormat(preamble=16, uw=16, payload=96)
CARRIERS = 4


class PerCarrierPayload(RegenerativePayload):
    """Reference payload: one scalar ``receive`` per carrier, in order."""

    def _demod_carriers(self, channels, bits_expected):
        out = []
        for k, eq in enumerate(self.demods):
            want = bits_expected[k] if bits_expected else None
            try:
                modem = eq.behaviour()
                res = modem.receive(channels[k], num_bits=want)
            except BurstSyncError as exc:
                bits = np.zeros(want or modem.bits_per_burst, dtype=np.uint8)
                out.append((bits, {"sync_failed": str(exc)}))
                continue
            except EquipmentError as exc:
                bits = np.zeros(want or self._dead_burst_bits(eq), dtype=np.uint8)
                out.append((bits, {"equipment_failed": str(exc)}))
                continue
            out.append((res["bits"], {key: res[key] for key in res if key != "bits"}))
        return out


def _registry():
    registry = default_registry(tdma_burst=BURST, transport_block=40)
    # a personality whose bursts are longer than the frame: it always
    # loses burst sync on this uplink
    registry.add(
        FunctionDesign(
            name="modem.tdma.long",
            kind="modem",
            gates=registry.get("modem.tdma").gates,
            factory=lambda: TdmaModem(BurstFormat(preamble=16, uw=16, payload=400)),
        )
    )
    return registry


def _build(cls=RegenerativePayload) -> RegenerativePayload:
    payload = cls(
        PayloadConfig(num_carriers=CARRIERS, channelizer_taps=8), registry=_registry()
    )
    payload.boot()
    return payload


def _uplink(payload: RegenerativePayload, seed: int = 7) -> np.ndarray:
    """A clean frame carrying real encoded transport blocks on every
    carrier's current personality, so ``decode=True`` regenerates all."""
    rng = _rng("uplink", seed)
    chain = payload.decoder.behaviour()
    bits = []
    for eq in payload.demods:
        modem = eq.behaviour()
        coded = chain.encode(rng.integers(0, 2, chain.transport_block))
        burst = np.zeros(modem.bits_per_burst, dtype=np.uint8)
        burst[: min(len(coded), len(burst))] = coded[: len(burst)]
        bits.append(burst)
    wide = payload.build_uplink(bits)
    return wide + 0.02 * (rng.standard_normal(len(wide)) + 1j * rng.standard_normal(len(wide)))


def _assert_same_result(ref: dict, out: dict) -> None:
    """Bit-identity of two process_uplink results (incl. decoded)."""
    assert len(ref["bits"]) == len(out["bits"])
    for a, b in zip(ref["bits"], out["bits"]):
        np.testing.assert_array_equal(a, b)
    for da, db in zip(ref["diagnostics"], out["diagnostics"]):
        assert da.keys() == db.keys()
        for key in da:
            if isinstance(da[key], np.ndarray):
                np.testing.assert_array_equal(da[key], db[key], err_msg=key)
            else:
                assert da[key] == db[key], key
    assert ("decoded" in ref) == ("decoded" in out)
    for a, b in zip(ref.get("decoded", ()), out.get("decoded", ())):
        if a is None or b is None:
            assert a is None and b is None
        else:
            np.testing.assert_array_equal(a["bits"], b["bits"])
            assert a["crc_ok"] == b["crc_ok"]


class TestPayloadBatch:
    def test_clean_frame_matches_per_carrier(self):
        reference, payload = _build(PerCarrierPayload), _build()
        wide = _uplink(reference)
        ref = reference.process_uplink(wide, decode=True)
        assert all(d is not None and d["crc_ok"] for d in ref["decoded"])
        _assert_same_result(ref, payload.process_uplink(wide, decode=True))

    def test_repeated_frames_stay_identical(self):
        """Batches never leak state from one frame into the next."""
        reference, payload = _build(PerCarrierPayload), _build()
        for seed in (1, 2, 3):
            wide = _uplink(reference, seed=seed)
            _assert_same_result(
                reference.process_uplink(wide, decode=True),
                payload.process_uplink(wide, decode=True),
            )

    def test_mixed_personalities_batch_per_group(self):
        """QPSK and 8PSK carriers in one frame: one batch per group."""
        reference, payload = _build(PerCarrierPayload), _build()
        for pl in (reference, payload):
            pl.demods[1].load("modem.tdma8")
            pl.demods[3].load("modem.tdma8")
        wide = _uplink(reference)
        ref = reference.process_uplink(wide, decode=True)
        assert all(d is not None and d["crc_ok"] for d in ref["decoded"])
        _assert_same_result(ref, payload.process_uplink(wide, decode=True))


class TestMixedFaultFrame:
    """One dead demod + one sync-lost carrier, healthy neighbours."""

    DEAD, LOST = 1, 2

    def _arm_faults(self, payload: RegenerativePayload) -> None:
        payload.demods[self.DEAD].unload()  # dead equipment
        payload.demods[self.LOST].load("modem.tdma.long")  # sync loss

    @pytest.mark.parametrize("dead_by", ["unload", "power_off"])
    def test_faults_stay_in_their_rows(self, dead_by):
        reference, payload = _build(PerCarrierPayload), _build()
        wide = _uplink(reference)  # built while all carriers still work
        for pl in (reference, payload):
            self._arm_faults(pl)
            if dead_by == "power_off":
                pl.demods[self.DEAD].load("modem.tdma")
                pl.demods[self.DEAD].fpga.power_off()
        ref = reference.process_uplink(wide, decode=True)
        out = payload.process_uplink(wide, decode=True)
        _assert_same_result(ref, out)
        diags, decoded = out["diagnostics"], out["decoded"]
        assert "equipment_failed" in diags[self.DEAD]
        assert "sync_failed" in diags[self.LOST]
        width = payload.demods[0].behaviour().bits_per_burst
        assert len(out["bits"][self.DEAD]) == width
        assert not np.any(out["bits"][self.DEAD]) and not np.any(out["bits"][self.LOST])
        assert decoded[self.DEAD] is None and decoded[self.LOST] is None
        for k in (0, 3):
            assert "sync_failed" not in diags[k] and "equipment_failed" not in diags[k]
            assert decoded[k] is not None and decoded[k]["crc_ok"]


class TestFdirDelivery:
    @staticmethod
    def _monitor_state(bank: HealthMonitorBank) -> list:
        return [
            {
                "bursts": m.bursts,
                "unhealthy": m.unhealthy_bursts,
                "tripped": m.tripped,
                "trips": m.trips,
                "clears": m.clears,
                "last_reasons": None if m.last is None else m.last.reasons,
                "crc_failures": m.crc.failures,
            }
            for m in (bank.monitor(k) for k in range(CARRIERS))
        ]

    def test_health_bank_sees_identical_deliveries(self):
        """The FDIR detection path cannot tell batched from per-carrier."""
        states = []
        for cls in (PerCarrierPayload, RegenerativePayload):
            payload = _build(cls)
            bank = HealthMonitorBank(CARRIERS)
            payload.attach_health(bank)
            wide = _uplink(payload)
            payload.process_uplink(wide, decode=True)  # clean frame
            payload.demods[0].unload()  # then carrier 0 dies
            for _ in range(3):
                payload.process_uplink(wide, decode=True)
            states.append(self._monitor_state(bank))
        assert states[0] == states[1]
        assert states[1][0]["unhealthy"] == 3
        assert states[1][0]["last_reasons"] == ("equipment_failed",)
