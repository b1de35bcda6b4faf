"""The regenerative payload (Fig. 2) and the platform/payload split (Fig. 1).

Receive side: ADC -> half-band filtering -> DBFN (multi-element case) ->
DEMUX (polyphase channelizer) -> one reconfigurable demodulator per
carrier -> reconfigurable decoder -> baseband packet switch.  Transmit
side: re-modulation and DAC.  Every demodulator and the decoder are
:class:`repro.core.equipment.ReconfigurableEquipment` instances -- the
functions the paper's SDR concept targets.

The payload also exposes a synthesis helper (:meth:`build_uplink`) that
generates the matching MF-TDMA multiplex, so tests and benchmarks can
run the chain end-to-end without an external signal source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..dsp.adc import Adc, Dac
from ..dsp.beamforming import Dbfn
from ..dsp.demux import PolyphaseChannelizer, multiplex_carriers
from ..dsp.tdma import BurstSyncError
from ..fpga.device import Fpga
from ..obs.probes import probe
from .equipment import EquipmentError, ReconfigurableEquipment
from .obc import OnBoardController, Telecommand, Telemetry
from .registry import FunctionRegistry, default_registry

__all__ = ["PayloadConfig", "RegenerativePayload", "Platform", "PacketSwitch"]

#: bits a silenced CDMA carrier reports (a CDMA personality has no fixed
#: burst capacity; 128 is its default demodulation length)
CDMA_FILL_BITS = 128


def _split_bits(res: dict) -> tuple:
    """A receive result as ``(bits, every other diagnostic)``."""
    return res["bits"], {key: res[key] for key in res if key != "bits"}


@dataclass(frozen=True)
class PayloadConfig:
    """Geometry and sizing of the regenerative payload.

    Defaults follow the paper: 6 carriers (the MF-TDMA complexity
    example), 8-bit ADCs, a 1.2 M-gate-class FPGA per equipment.
    """

    num_carriers: int = 6
    adc_bits: int = 8
    dac_bits: int = 12
    array_elements: int = 1  # 1 = single-feed (DBFN bypassed)
    beam_thetas: tuple = (0.0,)  # one beam per direction (radians)
    fpga_rows: int = 16
    fpga_cols: int = 16
    fpga_bits_per_clb: int = 64
    fpga_gate_capacity: int = 1_200_000
    channelizer_taps: int = 16

    def __post_init__(self) -> None:
        if self.num_carriers < 1:
            raise ValueError("need at least one carrier")
        if self.array_elements < 1:
            raise ValueError("need at least one antenna element")
        if len(self.beam_thetas) < 1:
            raise ValueError("need at least one beam")

    @property
    def beam_theta(self) -> float:
        """First beam direction (kept for the single-beam API)."""
        return self.beam_thetas[0]


class PacketSwitch:
    """Baseband packet switching (the regenerative payload's raison d'etre).

    Packets are byte strings whose first byte is the destination
    down-link port; the switch routes them into per-port queues and
    counts drops on unknown ports.

    Per-port queues are bounded (``queue_capacity`` packets): an
    on-board switch has finite buffer memory, and a downlink port that
    is not being drained must shed (``queue_dropped``) rather than
    grow until the payload runs out of RAM.
    """

    def __init__(self, num_ports: int = 4, queue_capacity: int = 1024) -> None:
        if num_ports < 1:
            raise ValueError("need at least one port")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.num_ports = num_ports
        self.queue_capacity = queue_capacity
        self.queues: List[List[bytes]] = [[] for _ in range(num_ports)]
        self.routed = 0
        self.dropped = 0
        self.queue_dropped = 0

    def backpressure(self, port: int) -> bool:
        """True when a down-link port's queue can accept no more."""
        return len(self.queues[port]) >= self.queue_capacity

    def route(self, packet: bytes) -> Optional[int]:
        """Route one packet; returns the port or None when dropped."""
        if not packet:
            self.dropped += 1
            return None
        port = packet[0] % 256
        if port >= self.num_ports:
            self.dropped += 1
            return None
        if len(self.queues[port]) >= self.queue_capacity:
            self.queue_dropped += 1
            return None
        self.queues[port].append(packet[1:])
        self.routed += 1
        return port

    def drain(self, port: int) -> List[bytes]:
        """Pop everything queued for a down-link port."""
        out = self.queues[port]
        self.queues[port] = []
        return out


class RegenerativePayload:
    """The Fig. 2 payload: per-carrier demodulators + decoder + switch."""

    def __init__(
        self,
        config: Optional[PayloadConfig] = None,
        registry: Optional[FunctionRegistry] = None,
        obc: Optional[OnBoardController] = None,
    ) -> None:
        self.config = config or PayloadConfig()
        self.registry = registry or default_registry()
        self.obc = obc or OnBoardController()
        cfg = self.config

        self.adc = Adc(bits=cfg.adc_bits)
        self.dac = Dac(bits=cfg.dac_bits)
        self.dbfn: Optional[Dbfn] = None
        if cfg.array_elements > 1:
            self.dbfn = Dbfn(cfg.array_elements)
            for theta in cfg.beam_thetas:
                self.dbfn.point_beam(theta)
        self.channelizer = (
            PolyphaseChannelizer(cfg.num_carriers, cfg.channelizer_taps)
            if cfg.num_carriers > 1
            else None
        )

        # one reconfigurable demodulator equipment per carrier
        self.demods: List[ReconfigurableEquipment] = []
        for k in range(cfg.num_carriers):
            fpga = Fpga(
                rows=cfg.fpga_rows,
                cols=cfg.fpga_cols,
                bits_per_clb=cfg.fpga_bits_per_clb,
                gate_capacity=cfg.fpga_gate_capacity,
                name=f"fpga-demod{k}",
            )
            eq = ReconfigurableEquipment(
                f"demod{k}", fpga, self.registry, expected_kind="modem"
            )
            self.demods.append(eq)
            self.obc.register_equipment(eq)
        # one decoder equipment (shared across carriers, as in Fig. 2's
        # decod bank; a per-carrier bank is a config away)
        dec_fpga = Fpga(
            rows=cfg.fpga_rows,
            cols=cfg.fpga_cols,
            bits_per_clb=cfg.fpga_bits_per_clb,
            gate_capacity=cfg.fpga_gate_capacity,
            name="fpga-decod",
        )
        self.decoder = ReconfigurableEquipment(
            "decod0", dec_fpga, self.registry, expected_kind="decoder"
        )
        self.obc.register_equipment(self.decoder)
        self.switch = PacketSwitch()
        #: optional traffic-plane health sink (duck-typed: anything with
        #: ``observe_burst(carrier, diag)`` / ``observe_decode(carrier,
        #: ok)``, e.g. :class:`repro.robustness.fdir.HealthMonitorBank`)
        self.health = None
        #: optional per-carrier MF-TDMA burst request queues (CoDel);
        #: ``None`` until :meth:`attach_burst_queues`
        self.burst_queues = None
        #: modem personality loaded at bring-up (sizes a dead slot's
        #: silence when it no longer holds a design)
        self.boot_modem: Optional[str] = None

    def attach_health(self, bank) -> None:
        """Attach a per-carrier health monitor bank to the live chain.

        Every subsequent :meth:`process_uplink` feeds each carrier's
        receive diagnostics to ``bank.observe_burst`` and every
        :meth:`decode_blocks` carrying ``carriers`` feeds the CRC
        outcomes to ``bank.observe_decode`` -- the FDIR detection path.
        """
        self.health = bank

    # -- overload control ---------------------------------------------------
    def attach_burst_queues(
        self,
        clock,
        capacity: int = 64,
        target: float = 0.5,
        interval: float = 2.0,
    ) -> None:
        """Give each carrier a bounded CoDel queue of burst requests.

        The MF-TDMA slot plan serves one burst per carrier per frame;
        anything offered beyond that has to wait, and under sustained
        surge "wait" must not mean "forever".  Each carrier's queue is
        bounded (backpressure at ``capacity``) and CoDel-shed on
        sojourn time, so a standing backlog melts instead of serving
        requests whose useful lifetime has already passed.

        ``clock`` is a zero-arg callable returning simulated seconds
        (``lambda: sim.now``).  After attachment, feed demand through
        :meth:`offer_burst` and drain one request per frame with
        :meth:`next_burst`.
        """
        from ..robustness.overload.queues import CoDelQueue

        self.burst_queues = [
            CoDelQueue(
                clock,
                capacity=capacity,
                target=target,
                interval=interval,
                name=f"burst{k}",
            )
            for k in range(self.config.num_carriers)
        ]

    def offer_burst(self, carrier: int, request) -> bool:
        """Queue one burst request for a carrier (False = backpressure)."""
        if self.burst_queues is None:
            raise RuntimeError("attach_burst_queues first")
        return self.burst_queues[carrier].offer(request)

    def next_burst(self, carrier: int):
        """The next surviving burst request for a carrier (or None).

        CoDel shedding happens here, at dequeue: requests that sat in a
        standing queue past the sojourn target are shed and counted on
        the queue's stats rather than returned.
        """
        if self.burst_queues is None:
            raise RuntimeError("attach_burst_queues first")
        return self.burst_queues[carrier].poll()

    # -- bring-up ---------------------------------------------------------
    def boot(self, modem: str = "modem.tdma", decoder: str = "decod.conv") -> None:
        """Load initial personalities into every equipment."""
        self.boot_modem = modem
        for eq in self.demods:
            eq.load(modem)
        self.decoder.load(decoder)

    @property
    def operational(self) -> bool:
        """All equipments carrying a live function."""
        return all(eq.operational for eq in self.demods) and self.decoder.operational

    def personalities(self) -> Dict[str, Optional[str]]:
        """Currently loaded design per equipment (demods + decoder).

        A stable, JSON-able summary of what the payload *is* right now
        -- the scenario conformance engine freezes this in its golden
        records so a reconfiguration plan that silently stopped landing
        shows up as a readable diff, not just a trace-hash change.
        """
        out: Dict[str, Optional[str]] = {
            eq.name: eq.loaded_design for eq in self.demods
        }
        out[self.decoder.name] = self.decoder.loaded_design
        return out

    # -- synthesis (test/bench signal source) --------------------------------
    def build_uplink(self, bits_per_carrier: List[np.ndarray]) -> np.ndarray:
        """Build the MF multiplex carrying one burst per carrier.

        Each carrier's burst is produced by that carrier's *current*
        modem personality, so the synthesized signal always matches what
        the demodulators expect.
        """
        cfg = self.config
        if len(bits_per_carrier) != cfg.num_carriers:
            raise ValueError(f"need bits for {cfg.num_carriers} carriers")
        streams = []
        for eq, bits in zip(self.demods, bits_per_carrier):
            modem = eq.behaviour()
            streams.append(modem.transmit(np.asarray(bits, dtype=np.uint8)))
        n = max(len(s) for s in streams)
        bb = np.zeros((cfg.num_carriers, n), dtype=np.complex128)
        for k, s in enumerate(streams):
            bb[k, : len(s)] = s
        if cfg.num_carriers == 1:
            return bb[0]
        return multiplex_carriers(bb, cfg.num_carriers)

    # -- the receive chain -----------------------------------------------------
    def process_uplink(
        self,
        wideband: np.ndarray,
        bits_expected: Optional[List[int]] = None,
        beam: int = 0,
        decode: bool = False,
    ) -> Dict[str, object]:
        """Run the Fig. 2 Rx chain on a wideband block.

        ``bits_expected[k]`` bounds how many payload bits to demodulate
        on carrier ``k`` (defaults to each modem's burst capacity).
        With a multi-element front end, ``beam`` selects which DBFN
        output feeds the carrier DEMUX (one demod bank serves the chosen
        beam; a full multi-beam payload instantiates one payload per
        beam or time-shares the bank).

        With ``decode=True`` the payload also regenerates every
        carrier's transport block **in one batched decoder call**: each
        successfully synchronized carrier's payload symbols are
        soft-demapped (noise variance from the per-burst M2M4 SNR
        estimate), the LLR blocks are stacked and fed through the
        decoder personality's ``decode_batch`` via
        :meth:`decode_blocks` -- the single-trellis-sweep hot path the
        batching engine exists for.  Per-carrier diagnostics are
        preserved, carriers that failed sync/equipment are *skipped*
        (``decoded[k] is None``) so the FDIR health bank only sees CRC
        outcomes for blocks that were really decoded.

        The TDMA carriers demodulate in **one** batched call per
        personality group (:meth:`_demod_carriers`); bits, diagnostics
        and fault containment are identical to demodulating each carrier
        on its own.

        Returns per-carrier demodulated bits plus chain diagnostics
        (and ``decoded`` when requested).
        """
        cfg = self.config
        x = self.adc.convert(np.asarray(wideband))
        if self.dbfn is not None:
            if not 0 <= beam < self.dbfn.num_beams:
                raise ValueError(f"beam {beam} out of range")
            x = self.dbfn.form_beams(x)[beam]
        if self.channelizer is not None:
            usable = (len(x) // cfg.num_carriers) * cfg.num_carriers
            channels = self.channelizer.process(x[:usable])
        else:
            channels = x[None, :]
        results = self._demod_carriers(channels, bits_expected)
        out_bits: List[np.ndarray] = [bits for bits, _ in results]
        diags: List[dict] = [diag for _, diag in results]
        if self.health is not None:
            for k, diag in enumerate(diags):
                self.health.observe_burst(k, diag)
        result: Dict[str, object] = {"bits": out_bits, "diagnostics": diags}
        if decode:
            result["decoded"] = self._decode_uplink_blocks(diags)
        return result

    def _demod_carriers(
        self, channels: np.ndarray, bits_expected: Optional[List[int]]
    ) -> List[tuple]:
        """Every carrier's ``(bits, diagnostics)``, in carrier order.

        Equipment faults are contained first: a dead demodulator
        (latch-up, SEU, power-off) silences its own carrier with an
        ``equipment_failed`` diagnostic for the FDIR ladder.  The live
        TDMA carriers are then grouped by :attr:`TdmaModem.batch_key`
        and each group runs one :meth:`TdmaModem.receive_batch`; a row
        that loses burst sync delivers silence plus a ``sync_failed``
        diagnostic without touching its neighbours.  CDMA carriers run
        their own ``receive``.  Anything else that raises is a genuine
        bug and propagates.
        """
        results: List[Optional[tuple]] = [None] * len(self.demods)
        wants = [bits_expected[k] if bits_expected else None for k in range(len(results))]
        groups: Dict[tuple, tuple] = {}
        for k, eq in enumerate(self.demods):
            try:
                modem = eq.behaviour()
            except EquipmentError as exc:
                n = wants[k] or self._dead_burst_bits(eq)
                results[k] = (np.zeros(n, dtype=np.uint8), {"equipment_failed": str(exc)})
                continue
            if hasattr(modem, "batch_key"):  # TDMA
                groups.setdefault(modem.batch_key, (modem, []))[1].append(k)
                continue
            try:  # CDMA
                res = modem.receive(channels[k], wants[k] or CDMA_FILL_BITS)
            except BurstSyncError as exc:
                n = wants[k] or CDMA_FILL_BITS
                results[k] = (np.zeros(n, dtype=np.uint8), {"sync_failed": str(exc)})
                continue
            results[k] = _split_bits(res)
        for modem, carriers in groups.values():
            batch = modem.receive_batch(channels[carriers], [wants[k] for k in carriers])
            for k, res in zip(carriers, batch):
                if isinstance(res, BurstSyncError):
                    # a carrier that failed burst sync delivers nothing;
                    # the payload reports it instead of aborting the others
                    n = wants[k] or modem.bits_per_burst
                    results[k] = (np.zeros(n, dtype=np.uint8), {"sync_failed": str(res)})
                else:
                    results[k] = _split_bits(res)
        return results

    def _dead_burst_bits(self, eq) -> int:
        """Silence width for a carrier whose demodulator cannot run.

        Sized from the slot's loaded design (the boot personality once
        the slot has been unloaded, e.g. after a latch-up): the design
        factory's ``bits_per_burst`` for TDMA, :data:`CDMA_FILL_BITS`
        for CDMA.
        """
        name = eq.loaded_design or self.boot_modem
        if name is None:
            return CDMA_FILL_BITS
        modem = self.registry.get(name).factory()
        return getattr(modem, "bits_per_burst", CDMA_FILL_BITS)

    def process_return_link(
        self,
        samples: np.ndarray,
        num_users: int,
        num_bits: int = 128,
        carrier: int = 0,
    ) -> Dict[str, object]:
        """Demodulate a multi-user CDMA return-link composite in one pass.

        The CDMA personality's multi-user front door: ``samples`` is one
        composite waveform carrying ``num_users`` code-multiplexed users
        (consecutive OVSF branches above the loaded modem's
        ``code_index``), and the whole bank is demodulated through the
        batched return-link engine -- the matched filter runs once,
        acquisition is one FFT pass over all user codes, and tracking /
        despreading run in ``U``-wide lock-step
        (:class:`~repro.dsp.cdma.CdmaReturnBank`).  Per-user results are
        bit-identical to running each user's scalar ``receive`` on the
        same composite.

        Requires the carrier's demod to carry a CDMA personality
        (``modem.cdma``).  Equipment faults are contained exactly like
        :meth:`_demod_carriers`: a dead demodulator silences every user
        of its carrier and reports a diagnostic instead of raising.
        With an attached health bank, each user's diagnostics are
        delivered as ``observe_burst(user_index, diag)`` -- the same
        FDIR detection stream the scalar path produces.

        Returns ``{"bits": [per-user bits], "diagnostics": [per-user
        diagnostic dicts]}``.
        """
        from ..dsp.cdma import CdmaReturnBank

        if not 0 <= carrier < len(self.demods):
            raise ValueError(f"carrier {carrier} out of range")
        eq = self.demods[carrier]
        try:
            modem = eq.behaviour()
            if hasattr(modem, "bits_per_burst") or not hasattr(modem, "config"):
                raise TypeError(
                    "process_return_link needs a CDMA personality "
                    f"(modem.cdma); carrier {carrier} carries "
                    f"{type(modem).__name__}"
                )
            bank = CdmaReturnBank.for_users(num_users, modem.config)
            results = bank.receive(np.asarray(samples), num_bits)
        except EquipmentError as exc:
            zeros = np.zeros(num_bits, dtype=np.uint8)
            results = None
            out_bits = [zeros.copy() for _ in range(num_users)]
            diags: List[dict] = [
                {"equipment_failed": str(exc)} for _ in range(num_users)
            ]
        if results is not None:
            out_bits = [r["bits"] for r in results]
            diags = [{key: r[key] for key in r if key != "bits"} for r in results]
        if self.health is not None:
            for u, diag in enumerate(diags):
                self.health.observe_burst(u, diag)
        return {"bits": out_bits, "diagnostics": diags}

    def _decode_uplink_blocks(self, diags: List[dict]) -> List[Optional[dict]]:
        """Batched regeneration of all carriers' transport blocks.

        Soft-demaps each synchronized carrier's payload symbols, stacks
        the LLR blocks, and runs one :meth:`decode_blocks` call.
        Carriers without usable symbols (sync/equipment failure, or too
        few bits for the chain's ``physical_bits``) yield ``None``.

        A dead decoder (SEU, power-off) is contained here, mirroring
        fault containment on the demod side: every synchronized carrier
        is reported to the health bank as a CRC failure so the FDIR
        detection path sees the fault, and all carriers yield ``None``
        instead of the fault aborting the uplink.
        """
        decoded: List[Optional[dict]] = [None] * len(diags)
        try:
            chain = self.decoder.behaviour()
        except EquipmentError:
            if self.health is not None:
                for k, diag in enumerate(diags):
                    if diag.get("symbols") is not None:
                        self.health.observe_decode(k, False)
            return decoded
        n_llr = int(getattr(chain, "physical_bits", 0))
        if n_llr <= 0:
            return decoded
        blocks: List[np.ndarray] = []
        carriers: List[int] = []
        for k, diag in enumerate(diags):
            syms = diag.get("symbols")
            if syms is None:
                continue  # sync or equipment failure: nothing to decode
            eq = self.demods[k]
            psk = getattr(eq.behaviour(), "psk", None)
            if psk is None or len(syms) * psk.bits_per_symbol < n_llr:
                continue
            # noise variance from the blind per-burst SNR estimate
            es = float(np.mean(np.abs(syms) ** 2))
            snr = 10.0 ** (float(diag.get("snr_db", 40.0)) / 10.0)
            noise_var = max(es / max(snr, 1e-6), 1e-12)
            llr = psk.demodulate_soft(syms, noise_var)[:n_llr]
            blocks.append(llr)
            carriers.append(k)
        if not blocks:
            return decoded
        res = self.decode_blocks(np.stack(blocks), carriers=carriers)
        crc = res["crc_ok"]
        for i, k in enumerate(carriers):
            decoded[k] = {
                "bits": res["bits"][i],
                "crc_ok": None if crc is None else bool(crc[i]),
            }
        return decoded

    def decode_block(self, llr: np.ndarray) -> dict:
        """Run one transport block through the decoder personality."""
        return self.decoder.behaviour().decode(llr)

    def decode_blocks(
        self, llrs: np.ndarray, carriers: Optional[List[int]] = None
    ) -> dict:
        """Run a ``(batch, physical_bits)`` stack of transport blocks
        through the decoder personality in **one** batched call.

        This is the payload's per-burst throughput hot path: all
        carriers' LLR blocks share a single trellis sweep
        (:meth:`repro.coding.TransportChain.decode_batch`) instead of
        ``batch`` scalar decodes.  Falls back to looping ``decode`` for
        personalities without a batched kernel.  ``carriers[i]``
        attributes block ``i`` to an uplink carrier so the attached
        health bank's CRC tracker sees each outcome.

        Returns ``{"bits": (batch, transport_block), "crc_ok": bool
        array or None}``.
        """
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {llrs.shape}")
        if carriers is not None and len(carriers) != llrs.shape[0]:
            raise ValueError("carriers must have one entry per block")
        chain = self.decoder.behaviour()
        if hasattr(chain, "decode_batch"):
            result = chain.decode_batch(llrs)
        else:  # foreign decoder personality: scalar fallback
            rows = [chain.decode(row) for row in llrs]
            crc_vals = [r.get("crc_ok") for r in rows]
            result = {
                "bits": np.stack([r["bits"] for r in rows]),
                "crc_ok": (
                    None
                    if any(v is None for v in crc_vals)
                    else np.asarray(crc_vals, dtype=bool)
                ),
            }
        p = probe("perf.payload", stage="decode")
        if p is not None:
            p.count("decode_batches")
            p.count("decode_blocks", llrs.shape[0])
        if self.health is not None and carriers is not None:
            crc = result.get("crc_ok")
            for i, k in enumerate(carriers):
                ok = bool(crc[i]) if crc is not None else False
                self.health.observe_decode(k, ok)
        return result

    def route_packets(self, packets: List[bytes]) -> dict:
        """Baseband switching of regenerated packets."""
        ports = [self.switch.route(p) for p in packets]
        return {"ports": ports, "routed": self.switch.routed, "dropped": self.switch.dropped}

    # -- the transmit chain (Fig. 2 Tx part) --------------------------------
    def build_downlink(self, port: int) -> dict:
        """Drain one switch port and modulate its packets for downlink.

        The Tx part of Fig. 2: regenerated packets are re-encoded by the
        decoder personality's encoder, re-modulated by the (TDMA) modem
        personality, and quantized by the DAC.  Returns the downlink
        samples plus the packets carried.

        Packets are fit into transport blocks (padded/truncated to the
        chain's block size) -- one burst per packet.
        """
        packets = self.switch.drain(port)
        chain = self.decoder.behaviour()
        modem = self.demods[port % len(self.demods)].behaviour()
        if not hasattr(modem, "bits_per_burst"):
            raise ValueError(
                "downlink modulation requires a TDMA personality on the Tx modem"
            )
        bursts = []
        for packet in packets:
            bits = np.unpackbits(np.frombuffer(packet, dtype=np.uint8))
            block = np.zeros(chain.transport_block, dtype=np.uint8)
            n = min(len(bits), chain.transport_block)
            block[:n] = bits[:n]
            coded = chain.encode(block)
            burst_bits = coded[: modem.bits_per_burst]
            if len(burst_bits) < modem.bits_per_burst:
                burst_bits = np.concatenate([
                    burst_bits,
                    np.zeros(modem.bits_per_burst - len(burst_bits), dtype=np.uint8),
                ])
            bursts.append(modem.transmit(burst_bits))
        if bursts:
            samples = self.dac.convert(np.concatenate(bursts))
        else:
            samples = np.zeros(0, dtype=np.complex128)
        return {"samples": samples, "packets": packets, "bursts": len(bursts)}


class Platform:
    """The Fig. 1 platform: TC/TM relay and clock/frequency references.

    The platform "interprets commands given to the satellite by an
    operation center and transmits information through a telemetry
    channel"; equipment-level work is delegated to the OBC.
    """

    def __init__(self, payload: RegenerativePayload) -> None:
        self.payload = payload
        self.clock_ppm = 0.05  # reference stability, informational
        self.tc_count = 0
        self.tm_count = 0

    def handle_telecommand(self, tc: Telecommand) -> Telemetry:
        """Relay a TC to the on-board controller, count TM back."""
        self.tc_count += 1
        tm = self.payload.obc.execute(tc)
        self.tm_count += 1
        return tm
