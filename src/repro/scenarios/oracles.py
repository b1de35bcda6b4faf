"""Differential oracles: two implementations, one answer.

Each oracle runs the same stimulus through two code paths whose
semantics are supposed to coincide and reports whether they did:

- :class:`BatchScalarDecodeOracle` -- the batched uplink regeneration
  (``process_uplink(decode=True)``, the PR-4 hot path) against an
  independent scalar re-derivation (per-carrier soft demap +
  ``decode_block``) for each decoder personality;
- :class:`CdmaBatchScalarOracle` -- the batched CDMA return-link
  engine (``CdmaReturnBank`` / ``receive_batch``) against per-user
  scalar ``receive`` calls, exact to the float;
- :class:`ModemABOracle` -- the baseline MF-TDMA modem against the
  CFO-tolerant personality on a clean channel, where their semantics
  overlap exactly (same burst format, same QPSK mapping);
- :class:`VcModeOracle` -- the controlled (AD, go-back-N) and express
  (BD) TC virtual channels, which must deliver the identical SDU
  sequence over a clean link.

A disagreement in any of them is a real defect, not a tolerance issue:
these pairs are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..dsp.demux import multiplex_carriers
from ..dsp.modem import ebn0_to_sigma
from ..net.simnet import Link, Node
from ..net.tmtc import TmtcLayer
from ..robustness.fdir.chaos import build_traffic_world
from ..sim import RngRegistry, Simulator, derive_seed

__all__ = [
    "OracleReport",
    "BatchScalarDecodeOracle",
    "CdmaBatchScalarOracle",
    "ModemABOracle",
    "VcModeOracle",
    "run_default_oracles",
]


@dataclass(frozen=True)
class OracleReport:
    """Verdict of one differential oracle run."""

    name: str
    agree: bool
    cases: int
    detail: str = ""

    def __str__(self) -> str:
        verdict = "agree" if self.agree else "DISAGREE"
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.name}: {verdict} over {self.cases} cases{tail}"


def _report(name: str, cases: int, mismatches: List[str]) -> OracleReport:
    return OracleReport(
        name=name,
        agree=not mismatches,
        cases=cases,
        detail="; ".join(mismatches[:4]),
    )


class BatchScalarDecodeOracle:
    """Batched uplink decode vs independent scalar re-derivation."""

    name = "decode.batch-vs-scalar"

    def __init__(self, seed: int = 0, frames: int = 3) -> None:
        self.seed = seed
        self.frames = frames

    def run(self) -> OracleReport:
        mismatches: List[str] = []
        cases = 0
        for personality in ("decod.conv", "decod.turbo"):
            world = build_traffic_world(
                derive_seed(self.seed, "oracle", personality)
            )
            world.payload.decoder.load(personality)
            rngs = RngRegistry(derive_seed(self.seed, "oracle", "decode"))
            bits_rng = rngs.stream(f"bits.{personality}")
            noise_rng = rngs.stream(f"noise.{personality}")
            chain = world.payload.decoder.behaviour()
            modem = world.ground_modem("modem.tdma")
            n_car = world.num_carriers
            for _f in range(self.frames):
                sent = {}
                streams = {}
                for k in range(n_car):
                    block = bits_rng.integers(
                        0, 2, chain.transport_block
                    ).astype(np.uint8)
                    coded = chain.encode(block)
                    bb = np.zeros(modem.bits_per_burst, dtype=np.uint8)
                    bb[: len(coded)] = coded[: modem.bits_per_burst]
                    s = modem.transmit(bb)
                    sigma = ebn0_to_sigma(12.0, 1, 1.0)
                    s = s + sigma * (
                        noise_rng.standard_normal(len(s))
                        + 1j * noise_rng.standard_normal(len(s))
                    )
                    sent[k] = block
                    streams[k] = s
                n = max(len(s) for s in streams.values())
                mat = np.zeros((n_car, n), dtype=np.complex128)
                for k, s in streams.items():
                    mat[k, : len(s)] = s
                wide = multiplex_carriers(mat, n_car)
                out = world.payload.process_uplink(wide, decode=True)
                for k in range(n_car):
                    diag = out["diagnostics"][k]
                    syms = diag.get("symbols")
                    batched = out["decoded"][k]
                    if syms is None:
                        if batched is not None:
                            mismatches.append(
                                f"{personality} c{k}: batched decoded a "
                                "carrier that never synchronized"
                            )
                        continue
                    cases += 1
                    # independent scalar re-derivation of the same block
                    psk = world.payload.demods[k].behaviour().psk
                    es = float(np.mean(np.abs(syms) ** 2))
                    snr = 10.0 ** (float(diag.get("snr_db", 40.0)) / 10.0)
                    var = max(es / max(snr, 1e-6), 1e-12)
                    llr = psk.demodulate_soft(syms, var)[
                        : chain.physical_bits
                    ]
                    scalar = world.payload.decode_block(llr)
                    if batched is None:
                        mismatches.append(
                            f"{personality} c{k}: scalar decoded but "
                            "batched skipped the carrier"
                        )
                        continue
                    if not np.array_equal(batched["bits"], scalar["bits"]):
                        mismatches.append(
                            f"{personality} c{k}: decoded bits differ "
                            "between batched and scalar paths"
                        )
                    if bool(batched["crc_ok"]) != bool(scalar["crc_ok"]):
                        mismatches.append(
                            f"{personality} c{k}: CRC verdict differs "
                            f"(batched={batched['crc_ok']}, "
                            f"scalar={scalar['crc_ok']})"
                        )
                    if bool(batched["crc_ok"]) and not np.array_equal(
                        batched["bits"], sent[k]
                    ):
                        mismatches.append(
                            f"{personality} c{k}: CRC passed but the "
                            "regenerated block differs from what was sent"
                        )
        return _report(self.name, cases, mismatches)


class CdmaBatchScalarOracle:
    """Batched CDMA return-link engine vs scalar per-user demodulation.

    Two comparisons, both required to be **exact** (same floats, same
    bits, same diagnostics -- the engine's batched==scalar-by-
    construction contract, not a tolerance):

    1. a :class:`~repro.dsp.cdma.CdmaReturnBank` demodulating U
       code-multiplexed users from one noisy composite, against each
       user's scalar :meth:`~repro.dsp.cdma.CdmaModem.receive` on the
       same composite samples;
    2. :meth:`~repro.dsp.cdma.CdmaModem.receive_batch` on a stack of
       independent bursts, against :meth:`receive` row by row.
    """

    name = "modem.cdma.batch-vs-scalar"

    _DIAG_SCALARS = ("phase", "acq_metric", "carrier_lock", "snr_db")

    def __init__(self, seed: int = 0, num_users: int = 4, num_bits: int = 128) -> None:
        self.seed = seed
        self.num_users = num_users
        self.num_bits = num_bits

    @classmethod
    def _diff(cls, got: dict, ref: dict, label: str) -> List[str]:
        out: List[str] = []
        for key in ("bits", "symbols", "dll_tau"):
            if not np.array_equal(got[key], ref[key]):
                out.append(f"{label}: {key} differ between batched and scalar")
        for key in cls._DIAG_SCALARS:
            if got[key] != ref[key]:
                out.append(f"{label}: diagnostic {key} differs")
        ga, ra = got["acquisition"], ref["acquisition"]
        if (ga.phase, ga.metric, ga.mean_level, ga.detected) != (
            ra.phase,
            ra.metric,
            ra.mean_level,
            ra.detected,
        ):
            out.append(f"{label}: acquisition result differs")
        return out

    def run(self) -> OracleReport:
        from ..dsp.cdma import CdmaConfig, CdmaModem, CdmaReturnBank

        rngs = RngRegistry(derive_seed(self.seed, "oracle", "cdma"))
        mismatches: List[str] = []
        cases = 0

        # 1. multi-user bank vs per-user scalar on one composite
        bank = CdmaReturnBank.for_users(
            self.num_users, CdmaConfig(sf=32, code_index=3)
        )
        sent = [
            rngs.stream(f"user{u}").integers(0, 2, self.num_bits).astype(np.uint8)
            for u in range(self.num_users)
        ]
        composite = bank.transmit(sent)
        noise = rngs.stream("channel")
        composite = composite + 0.05 * (
            noise.standard_normal(len(composite))
            + 1j * noise.standard_normal(len(composite))
        )
        banked = bank.receive(composite, self.num_bits)
        for u in range(self.num_users):
            cases += 1
            scalar = bank.modems[u].receive(composite, self.num_bits)
            mismatches.extend(self._diff(banked[u], scalar, f"bank u{u}"))
            if not np.array_equal(banked[u]["bits"], sent[u]):
                mismatches.append(f"bank u{u}: recovered bits differ from sent")

        # 2. burst-stack receive_batch vs per-row scalar receive
        modem = CdmaModem(CdmaConfig(sf=16))
        bursts = []
        for b in range(self.num_users):
            bits = rngs.stream(f"burst{b}").integers(
                0, 2, self.num_bits
            ).astype(np.uint8)
            tx = modem.transmit(bits)
            n = rngs.stream(f"bnoise{b}")
            bursts.append(
                tx
                + 0.08
                * (n.standard_normal(len(tx)) + 1j * n.standard_normal(len(tx)))
            )
        stack = np.stack(bursts)
        batched = modem.receive_batch(stack, self.num_bits)
        for b in range(len(bursts)):
            cases += 1
            scalar = modem.receive(bursts[b], self.num_bits)
            mismatches.extend(self._diff(batched[b], scalar, f"burst {b}"))
        return _report(self.name, cases, mismatches)


class ModemABOracle:
    """Baseline vs CFO-tolerant modem personality on a clean channel."""

    name = "modem.tdma-vs-robust"

    def __init__(self, seed: int = 0, trials: int = 8) -> None:
        self.seed = seed
        self.trials = trials

    def run(self) -> OracleReport:
        world = build_traffic_world(derive_seed(self.seed, "oracle", "modem"))
        registry = world.payload.registry
        rngs = RngRegistry(derive_seed(self.seed, "oracle", "modem"))
        bits_rng = rngs.stream("bits")
        mismatches: List[str] = []
        cases = 0
        for t in range(self.trials):
            a = registry.get("modem.tdma").factory()
            b = registry.get("modem.tdma.robust").factory()
            bb = bits_rng.integers(0, 2, a.bits_per_burst).astype(np.uint8)
            # raw (uncoded) bit comparison: run well above the coded
            # operating point so channel noise cannot flip a bit and
            # masquerade as a personality disagreement
            sigma = ebn0_to_sigma(20.0, 1, 1.0)
            results = {}
            for label, modem in (("baseline", a), ("robust", b)):
                s = modem.transmit(bb)
                # identical noise realization for both personalities
                noise_rng = rngs.stream(f"noise.{t}")
                s = s + sigma * (
                    noise_rng.standard_normal(len(s))
                    + 1j * noise_rng.standard_normal(len(s))
                )
                results[label] = modem.receive(s)["bits"]
            cases += 1
            if not np.array_equal(results["baseline"], bb):
                mismatches.append(f"trial {t}: baseline modem lost bits")
            if not np.array_equal(results["robust"], bb):
                mismatches.append(f"trial {t}: robust modem lost bits")
            if not np.array_equal(results["baseline"], results["robust"]):
                mismatches.append(
                    f"trial {t}: personalities disagree on a clean channel"
                )
        return _report(self.name, cases, mismatches)


class VcModeOracle:
    """Controlled (AD) vs express (BD) TC virtual channels."""

    name = "tc.ad-vs-bd"

    def __init__(self, seed: int = 0, sdus: int = 6) -> None:
        self.seed = seed
        self.sdus = sdus

    def run(self) -> OracleReport:
        sim = Simulator()
        a = Node(sim, "ground", 1)
        b = Node(sim, "sat", 2)
        link = Link(sim, delay=0.25, rate_bps=1e6)
        link.attach(a)
        link.attach(b)
        tx = TmtcLayer(a)
        rx = TmtcLayer(b)
        got = {"AD": [], "BD": []}
        rx.register_handler(1, got["AD"].append)
        rx.register_handler(2, got["BD"].append)
        rng = RngRegistry(derive_seed(self.seed, "oracle", "vc")).stream(
            "payloads"
        )
        # mix of short SDUs and multi-frame segmented ones
        payloads = [
            rng.integers(0, 256, size=int(n)).astype(np.uint8).tobytes()
            for n in rng.choice([24, 96, 700], size=self.sdus)
        ]

        def driver():
            for p in payloads:
                tx.send_sdu(p, vc=1, mode="AD")
                tx.send_sdu(p, vc=2, mode="BD")
                yield sim.timeout(0.5)

        sim.process(driver(), name="vc-oracle-driver")
        sim.run(until=60.0)
        mismatches: List[str] = []
        for mode in ("AD", "BD"):
            if got[mode] != payloads:
                mismatches.append(
                    f"{mode} delivered {len(got[mode])}/{len(payloads)} "
                    "SDUs or reordered them"
                )
        if got["AD"] != got["BD"]:
            mismatches.append("AD and BD delivered different sequences")
        return _report(self.name, len(payloads), mismatches)


def run_default_oracles(seed: int = 0) -> List[OracleReport]:
    """Run every oracle at ``seed``; all must agree on a healthy tree."""
    return [
        BatchScalarDecodeOracle(seed).run(),
        CdmaBatchScalarOracle(seed).run(),
        ModemABOracle(seed).run(),
        VcModeOracle(seed).run(),
    ]
