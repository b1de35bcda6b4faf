"""The traffic-plane world: a regenerative payload with the full FDIR stack.

:func:`build_traffic_world` assembles the live demod/decode chain of the
Fig. 2 regenerative payload with every FDIR layer on top -- health
monitors (:mod:`.health`), the recovery arbiter (:mod:`.arbiter`) and
the degraded-mode policy (:mod:`.degraded`).  The mission runner
(:mod:`repro.scenarios.runner`) drives it frame by frame and
:func:`repro.scenarios.result_violations` judges the run.

The world is small but real: MF-TDMA carriers through the polyphase
channelizer, QPSK bursts sized so one convolutionally-coded transport
block (40 bits -> 192 coded bits) exactly fills a burst, redundant
demodulator pairs, the §3.2 reconfiguration manager with a seeded
on-board library, the safe-mode watchdog, and the FDIR stack on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...core.equipment import ReconfigurableEquipment
from ...core.payload import PayloadConfig, RegenerativePayload
from ...core.redundancy import RedundantEquipment
from ...core.registry import FunctionDesign, default_registry
from ...dsp.tdma import BurstFormat, FramePlan, TdmaModem
from ...fpga.device import Fpga
from .arbiter import FdirArbiter
from .degraded import DegradedModePolicy
from .health import HealthMonitorBank, HealthThresholds

__all__ = ["TrafficWorld", "build_traffic_world"]

#: carriers in the default traffic world
NUM_CARRIERS = 3
#: clear-sky per-carrier uplink C/N with all carriers active [dB]
BASE_CN_DB = 12.0
#: downlink C/N (independent regenerative hop) [dB]
DOWN_CN_DB = 16.0
#: end-to-end BER target for the degraded-mode margin
REQUIRED_BER = 1e-4
#: degraded-mode hysteresis band: shed below the first margin [dB],
#: restore only when the projected margin clears the second
SHED_MARGIN_DB = 0.0
RESTORE_MARGIN_DB = 2.0


def build_traffic_world(
    seed: int,
    thresholds: Optional[HealthThresholds] = None,
    *,
    num_carriers: int = NUM_CARRIERS,
    slots_per_frame: int = 4,
    base_cn_db: float = BASE_CN_DB,
    down_cn_db: float = DOWN_CN_DB,
    required_ber: float = REQUIRED_BER,
) -> "TrafficWorld":
    """Assemble an ``num_carriers``-carrier regenerative payload with full FDIR.

    The mission runner (:mod:`repro.scenarios.runner`) calls it with
    the spec's carrier count and link budget.
    """
    if num_carriers < 2:
        raise ValueError("the MF-TDMA traffic world needs >= 2 carriers")
    burst = BurstFormat(preamble=16, uw=16, payload=96)
    registry = default_registry(tdma_burst=burst, transport_block=40)
    # the CFO-tolerant fallback personality the recovery ladder loads
    registry.add(
        FunctionDesign(
            name="modem.tdma.robust",
            kind="modem",
            gates=1.15 * registry.get("modem.tdma").gates,
            factory=lambda: TdmaModem(burst, cfo_recovery=True),
            description="CFO-tolerant MF-TDMA modem (M-power FFT estimator)",
        )
    )
    cfg = PayloadConfig(
        num_carriers=num_carriers,
        fpga_rows=8,
        fpga_cols=8,
        fpga_bits_per_clb=32,
        channelizer_taps=8,
    )
    payload = RegenerativePayload(cfg, registry)
    payload.boot(modem="modem.tdma", decoder="decod.conv")
    # seed the on-board library so the §3.2 reconfiguration service can
    # fetch every personality the recovery ladder may ask for
    for name in registry.names():
        payload.obc.library.store(
            registry.get(name).bitstream_for(
                cfg.fpga_rows, cfg.fpga_cols, cfg.fpga_bits_per_clb
            )
        )
    # cold-spare pair behind every demodulator
    pairs: List[RedundantEquipment] = []
    for k, primary in enumerate(list(payload.demods)):
        spare_fpga = Fpga(
            rows=cfg.fpga_rows,
            cols=cfg.fpga_cols,
            bits_per_clb=cfg.fpga_bits_per_clb,
            gate_capacity=primary.fpga.gate_capacity,
            name=f"{primary.fpga.name}-spare",
        )
        spare = ReconfigurableEquipment(
            f"{primary.name}-spare",
            spare_fpga,
            registry,
            expected_kind=primary.expected_kind,
        )
        pair = RedundantEquipment(primary, spare)
        pair.record_design("modem.tdma")
        pairs.append(pair)
        payload.demods[k] = pair
    watchdog = payload.obc.arm_watchdog(
        golden={
            **{p.name: "modem.tdma" for p in pairs},
            payload.decoder.name: "decod.conv",
        },
        threshold=3,
    )
    plan = FramePlan(num_carriers=num_carriers, slots_per_frame=slots_per_frame)
    for k in range(num_carriers):
        plan.assign(f"term-{k}a", k, 0)
        plan.assign(f"term-{k}b", k, 1)
    policy = DegradedModePolicy(
        plan,
        down_cn_db=down_cn_db,
        required_ber=required_ber,
        shed_margin_db=SHED_MARGIN_DB,
        restore_margin_db=RESTORE_MARGIN_DB,
        min_active=1,
    )
    bank = HealthMonitorBank(num_carriers, thresholds)
    payload.attach_health(bank)
    arbiter = FdirArbiter(
        payload, bank, watchdog=watchdog, policy=policy, patience=2
    )
    return TrafficWorld(
        seed=seed,
        payload=payload,
        pairs=pairs,
        bank=bank,
        plan=plan,
        policy=policy,
        arbiter=arbiter,
        watchdog=watchdog,
        base_cn_db=base_cn_db,
    )


@dataclass
class TrafficWorld:
    """Everything one traffic-plane run needs."""

    seed: int
    payload: RegenerativePayload
    pairs: List[RedundantEquipment]
    bank: HealthMonitorBank
    plan: FramePlan
    policy: DegradedModePolicy
    arbiter: FdirArbiter
    watchdog: object
    base_cn_db: float = BASE_CN_DB
    _ground_modems: Dict[str, object] = field(default_factory=dict)

    @property
    def num_carriers(self) -> int:
        return self.plan.num_carriers

    def ground_modem(self, design: str):
        """The terminal-side modem matching a commanded personality."""
        m = self._ground_modems.get(design)
        if m is None:
            m = self.payload.registry.get(design).factory()
            self._ground_modems[design] = m
        return m
