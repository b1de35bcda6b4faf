"""Traffic-plane chaos campaign: seeded fault sweeps with invariants.

The control-plane campaign (:mod:`repro.robustness.chaos`) attacks the
TC/TM/reconfiguration path; this campaign attacks the *traffic plane* --
the live demod/decode chain of the regenerative payload -- and checks
that the FDIR stack (:mod:`.health`, :mod:`.arbiter`, :mod:`.degraded`)
holds four mechanical invariants under every seeded fault:

1. **no silent corruption** -- data is delivered only when the burst's
   instantaneous health verdict *and* the decoder CRC agree; a
   delivered block that differs from what the terminal sent is an
   invariant violation, never a statistic;
2. **no flapping** -- hysteresis bounds how often any carrier's alarm
   trips and how often the degraded-mode policy sheds/restores it;
3. **monotonic degradation** -- served capacity never *increases* in a
   frame where the injected fault severity increased;
4. **full recovery** -- after the fault clears (or, for survivable
   permanent faults, after isolation) the tail of the run delivers
   cleanly at the expected carrier count.

The world is small but real: 3 MF-TDMA carriers through the polyphase
channelizer, QPSK bursts sized so one convolutionally-coded transport
block (40 bits -> 192 coded bits) exactly fills a burst, redundant
demodulator pairs, the §3.2 reconfiguration manager with a seeded
on-board library, the PR-2 safe-mode watchdog, and the FDIR stack on
top.  Runs are deterministic per (scenario, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ...core.equipment import ReconfigurableEquipment
from ...core.linkbudget import shared_uplink_cn
from ...core.payload import PayloadConfig, RegenerativePayload
from ...core.redundancy import RedundantEquipment
from ...core.registry import FunctionDesign, default_registry
from ...dsp.demux import multiplex_carriers
from ...dsp.modem import ebn0_to_sigma
from ...dsp.tdma import BurstFormat, FramePlan, TdmaModem
from ...fpga.device import Fpga
from ...obs.probes import probe as _obs_probe
from ...sim.rng import RngRegistry
from .arbiter import FdirArbiter
from .degraded import DegradedModePolicy
from .health import HealthMonitorBank, HealthThresholds

__all__ = [
    "FrameSpec",
    "TrafficScenario",
    "TrafficWorld",
    "TrafficOutcome",
    "TrafficChaosCampaign",
    "build_traffic_world",
    "default_traffic_scenarios",
    "violations",
]

#: carriers in the traffic world (kept small: ~7 ms of DSP per frame)
NUM_CARRIERS = 3
#: clear-sky per-carrier uplink C/N with all carriers active [dB]
BASE_CN_DB = 12.0
#: downlink C/N (independent regenerative hop) [dB]
DOWN_CN_DB = 16.0
#: end-to-end BER target for the degraded-mode margin
REQUIRED_BER = 1e-4


# ---------------------------------------------------------------------------
# per-frame fault specification
# ---------------------------------------------------------------------------

@dataclass
class FrameSpec:
    """What the channel/equipment does to one frame."""

    fade_db: float = 0.0
    #: scalar fault severity for the monotonicity invariant
    severity: float = 0.0
    #: carriers whose burst is replaced by noise (lock loss)
    blank: Set[int] = field(default_factory=set)
    #: carrier -> extra noise power [dB] (burst interference)
    noise_boost_db: Dict[int, float] = field(default_factory=dict)
    #: carrier -> carrier-frequency offset [cycles/sample]
    cfo: Dict[int, float] = field(default_factory=dict)


@dataclass
class TrafficScenario:
    """One seeded traffic-plane fault scenario."""

    name: str
    description: str
    driver: Callable[["TrafficWorld", int, np.random.Generator], FrameSpec]
    frames: int = 32
    #: frame the fault first bites (detection latency is measured from it;
    #: None for the fault-free control)
    fault_start: Optional[int] = None
    #: carriers expected active at the end (None = all)
    expected_final_active: Optional[int] = None
    #: arbiter/policy action kinds that must appear at least once
    expect_actions: Tuple[str, ...] = ()
    #: action kinds that must never appear
    forbid_actions: Tuple[str, ...] = ()
    #: trailing frames that must deliver cleanly at the expected width
    recovery_tail: int = 6


# ---------------------------------------------------------------------------
# the world
# ---------------------------------------------------------------------------

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

    The defaults reproduce the 3-carrier chaos-campaign world exactly;
    the scenario conformance engine (:mod:`repro.scenarios`) reuses this
    builder with spec-driven carrier counts and link budgets.
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
        shed_margin_db=0.0,
        restore_margin_db=2.0,
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
    _ground_chain: object = None

    def __post_init__(self) -> None:
        self._ground_chain = self.payload.registry.get("decod.conv").factory()

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


# ---------------------------------------------------------------------------
# outcome + invariants
# ---------------------------------------------------------------------------

@dataclass
class TrafficOutcome:
    """Measured result of one (scenario, seed) run."""

    scenario: str
    seed: int
    frames: int
    completed: bool
    error: Optional[str]
    attempted: int
    delivered: int
    corrupt_deliveries: int
    first_trip_frame: Optional[int]
    first_action_frame: Optional[int]
    recovery_frame: Optional[int]
    actions: List[Tuple[int, int, str, str]]
    policy_events: List[Tuple[str, int, float]]
    final_active: int
    terminal_carriers: List[int]
    safe_mode: List[str]
    trips_per_carrier: Dict[int, int]
    policy_transitions: Dict[int, int]
    active_history: List[int]
    severity_history: List[float]
    frame_ok_history: List[bool]

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.attempted if self.attempted else 1.0

    @property
    def detection_latency(self) -> Optional[int]:
        """Frames from fault onset to first alarm/action (set by campaign)."""
        return getattr(self, "_detection_latency", None)


def violations(outcome: TrafficOutcome, scenario: TrafficScenario) -> List[str]:
    """The mechanical invariants every run must satisfy."""
    v: List[str] = []
    if not outcome.completed:
        v.append(f"run crashed: {outcome.error}")
        return v
    # 1. no silent corruption
    if outcome.corrupt_deliveries:
        v.append(
            f"silent corruption: {outcome.corrupt_deliveries} delivered "
            "blocks differed from what was sent"
        )
    # 2. no flapping: alarms and policy transitions are bounded
    for k, trips in outcome.trips_per_carrier.items():
        if trips > 3:
            v.append(f"flapping: carrier {k} alarm tripped {trips} times")
    for k, n in outcome.policy_transitions.items():
        if n > 3:
            v.append(f"flapping: carrier {k} shed/restored {n} times")
    # 3. monotonic degradation: capacity never grows while severity grows
    for f in range(1, outcome.frames):
        if (
            outcome.severity_history[f] > outcome.severity_history[f - 1]
            and outcome.active_history[f] > outcome.active_history[f - 1]
        ):
            v.append(
                f"non-monotonic: frame {f} restored capacity while the "
                "fault was worsening"
            )
            break
    # 4. full recovery at the expected service width
    expected = (
        scenario.expected_final_active
        if scenario.expected_final_active is not None
        else NUM_CARRIERS
    )
    if outcome.final_active != expected:
        v.append(
            f"no recovery: {outcome.final_active} active carriers at end, "
            f"expected {expected}"
        )
    tail = outcome.frame_ok_history[-scenario.recovery_tail:]
    if tail and sum(tail) < len(tail):
        v.append(
            f"no recovery: only {sum(tail)}/{len(tail)} clean frames in "
            "the recovery tail"
        )
    # scenario-specific action expectations
    kinds = {a[2] for a in outcome.actions} | {
        kind for kind, _, _ in outcome.policy_events
    }
    for want in scenario.expect_actions:
        if want not in kinds:
            v.append(f"expected action {want!r} never happened")
    for bad in scenario.forbid_actions:
        if bad in kinds:
            v.append(f"forbidden action {bad!r} happened")
    return v


# ---------------------------------------------------------------------------
# the campaign
# ---------------------------------------------------------------------------

class TrafficChaosCampaign:
    """Run scenarios x seeds and collect outcomes + violations."""

    def __init__(
        self, scenarios: Optional[List[TrafficScenario]] = None
    ) -> None:
        self.scenarios = scenarios or default_traffic_scenarios()
        self.outcomes: List[TrafficOutcome] = []
        self._probe = _obs_probe("fdir.chaos")

    def run(self, seeds: List[int]) -> List[TrafficOutcome]:
        for scenario in self.scenarios:
            for seed in seeds:
                self.outcomes.append(self.run_one(scenario, seed))
        return self.outcomes

    def run_one(self, scenario: TrafficScenario, seed: int) -> TrafficOutcome:
        world = build_traffic_world(seed)
        # Named stream from the repo-wide seeded-RNG registry: the draw
        # sequence is a pure function of (seed, scenario) and adding a
        # scenario never perturbs another's draws.
        rng = RngRegistry(seed).stream(f"fdir.chaos.{scenario.name}")
        p = self._probe
        if p is not None:
            p.count("runs")
            p.event("fdir.chaos_run", scenario=scenario.name, seed=seed)
        attempted = delivered = corrupt = 0
        first_trip = None
        active_hist: List[int] = []
        sev_hist: List[float] = []
        ok_hist: List[bool] = []
        error = None
        completed = True
        expected_final = (
            scenario.expected_final_active
            if scenario.expected_final_active is not None
            else world.num_carriers
        )
        try:
            for f in range(scenario.frames):
                spec = scenario.driver(world, f, rng)
                active = [
                    k
                    for k in world.policy.active_carriers
                    if k not in world.policy.terminal
                ]
                cn = shared_uplink_cn(
                    world.base_cn_db,
                    spec.fade_db,
                    world.num_carriers,
                    max(1, len(active)),
                )
                frame_ok = len(active) == expected_final
                sent: Dict[int, np.ndarray] = {}
                streams: Dict[int, np.ndarray] = {}
                chain = world._ground_chain
                for k in active:
                    eq = world.payload.demods[k]
                    design = eq.loaded_design or "modem.tdma"
                    modem = world.ground_modem(design)
                    block = rng.integers(0, 2, chain.transport_block).astype(
                        np.uint8
                    )
                    coded = chain.encode(block)
                    bb = np.zeros(modem.bits_per_burst, dtype=np.uint8)
                    n = min(len(coded), modem.bits_per_burst)
                    bb[:n] = coded[:n]
                    s = modem.transmit(bb)
                    off = spec.cfo.get(k, 0.0)
                    if off:
                        s = s * np.exp(2j * np.pi * off * np.arange(len(s)))
                    sigma = ebn0_to_sigma(cn, 1, 1.0)
                    sigma *= 10.0 ** (spec.noise_boost_db.get(k, 0.0) / 20.0)
                    noise = sigma * (
                        rng.standard_normal(len(s))
                        + 1j * rng.standard_normal(len(s))
                    )
                    s = noise if k in spec.blank else s + noise
                    sent[k] = block
                    streams[k] = s
                if streams:
                    n = max(len(s) for s in streams.values())
                    mat = np.zeros((world.num_carriers, n), dtype=np.complex128)
                    for k, s in streams.items():
                        mat[k, : len(s)] = s
                    wide = multiplex_carriers(mat, world.num_carriers)
                    out = world.payload.process_uplink(wide)
                    for k in active:
                        attempted += 1
                        diag = out["diagnostics"][k]
                        verdict = world.bank.monitor(k).last
                        healthy = verdict is not None and verdict.healthy
                        crc_ok = False
                        bits_match = False
                        if "sync_failed" not in diag and "equipment_failed" not in diag:
                            llr = (
                                1.0
                                - 2.0
                                * out["bits"][k][: chain.physical_bits].astype(
                                    float
                                )
                            ) * 4.0
                            try:
                                dec = world.payload.decode_block(llr, carrier=k)
                                crc_ok = bool(dec["crc_ok"])
                                bits_match = bool(
                                    np.array_equal(dec["bits"], sent[k])
                                )
                            except Exception:
                                # decoder equipment fault: CRC cannot pass
                                world.bank.observe_decode(k, False)
                        if healthy and crc_ok:
                            delivered += 1
                            if not bits_match:
                                corrupt += 1
                        else:
                            frame_ok = False
                else:
                    # nothing served this frame (fully shed)
                    frame_ok = expected_final == 0
                if first_trip is None and world.bank.tripped_carriers():
                    first_trip = f
                world.arbiter.step(served=active)
                world.policy.update(cn)
                active_hist.append(len(world.policy.active_carriers))
                sev_hist.append(spec.severity)
                ok_hist.append(frame_ok)
        except Exception as exc:  # pragma: no cover - invariant 0
            completed = False
            error = f"{type(exc).__name__}: {exc}"
            while len(active_hist) < scenario.frames:
                active_hist.append(0)
                sev_hist.append(0.0)
                ok_hist.append(False)
        first_action = (
            world.arbiter.actions[0][0] - 1 if world.arbiter.actions else None
        )
        recovery_frame = None
        for f in range(scenario.frames - 1, -1, -1):
            if not ok_hist[f]:
                recovery_frame = f + 1 if f + 1 < scenario.frames else None
                break
        else:
            recovery_frame = 0
        outcome = TrafficOutcome(
            scenario=scenario.name,
            seed=seed,
            frames=scenario.frames,
            completed=completed,
            error=error,
            attempted=attempted,
            delivered=delivered,
            corrupt_deliveries=corrupt,
            first_trip_frame=first_trip,
            first_action_frame=first_action,
            recovery_frame=recovery_frame,
            actions=list(world.arbiter.actions),
            policy_events=list(world.policy.events),
            final_active=len(
                [
                    k
                    for k in world.policy.active_carriers
                    if k not in world.policy.terminal
                ]
            ),
            terminal_carriers=sorted(world.policy.terminal),
            safe_mode=sorted(getattr(world.watchdog, "safe_mode", {})),
            trips_per_carrier={
                k: m.trips for k, m in world.bank.monitors.items()
            },
            policy_transitions={
                k: world.policy.transitions_of(k)
                for k in range(world.num_carriers)
            },
            active_history=active_hist,
            severity_history=sev_hist,
            frame_ok_history=ok_hist,
        )
        if scenario.fault_start is not None:
            onset = scenario.fault_start
            marks = [
                t
                for t in (first_trip, first_action)
                if t is not None and t >= onset
            ]
            outcome._detection_latency = (min(marks) - onset) if marks else None
        if p is not None:
            p.count("violations", len(violations(outcome, scenario)))
            p.count("frames", scenario.frames)
        return outcome

    def all_violations(self) -> List[Tuple[str, int, str]]:
        by_name = {s.name: s for s in self.scenarios}
        out = []
        for o in self.outcomes:
            for msg in violations(o, by_name[o.scenario]):
                out.append((o.scenario, o.seed, msg))
        return out


# ---------------------------------------------------------------------------
# the scenarios
# ---------------------------------------------------------------------------

def default_traffic_scenarios() -> List[TrafficScenario]:
    """The sweep: one control plus seven traffic-plane fault classes."""

    def nominal(world, f, rng):
        return FrameSpec()

    def lock_loss(world, f, rng):
        active = 8 <= f < 14
        return FrameSpec(
            blank={1} if active else set(), severity=1.0 if active else 0.0
        )

    def interference(world, f, rng):
        active = 8 <= f < 14
        return FrameSpec(
            noise_boost_db={2: 15.0} if active else {},
            severity=1.0 if active else 0.0,
        )

    def cfo_step(world, f, rng):
        active = f >= 8
        return FrameSpec(
            cfo={0: 0.01} if active else {}, severity=1.0 if active else 0.0
        )

    def decoder_seu(world, f, rng):
        if f == 8:
            fpga = world.payload.decoder.fpga
            n = fpga.rows * fpga.cols * fpga.bits_per_clb
            world.payload.decoder.fpga.upset_bits(
                rng.choice(n, size=min(200, n), replace=False)
            )
        return FrameSpec(severity=1.0 if f >= 8 else 0.0)

    def demod_latchup(world, f, rng):
        if f == 8:
            pair = world.payload.demods[1]
            pair.mark_unit_failed(pair.active)
        return FrameSpec(severity=1.0 if f >= 8 else 0.0)

    def double_fault(world, f, rng):
        if f == 8:
            pair = world.payload.demods[0]
            pair.mark_unit_failed(pair.active)
        if f == 16:
            pair = world.payload.demods[0]
            pair.mark_unit_failed(pair.active)
        sev = 0.0 if f < 8 else (1.0 if f < 16 else 2.0)
        return FrameSpec(severity=sev)

    def fade_ramp(world, f, rng):
        if f < 8:
            fade = 0.0
        elif f < 20:
            fade = (f - 8) / 12.0 * 8.0
        elif f < 32:
            fade = max(0.0, 8.0 - (f - 20) / 12.0 * 8.0)
        else:
            fade = 0.0
        return FrameSpec(fade_db=fade, severity=fade)

    return [
        TrafficScenario(
            name="nominal",
            description="fault-free control: no trips, no actions",
            driver=nominal,
            frames=20,
            forbid_actions=(
                "reacquire",
                "reload",
                "fallback",
                "isolate",
                "terminal",
                "shed",
            ),
        ),
        TrafficScenario(
            name="lock-loss",
            description="carrier 1 blanked for 6 frames (transient)",
            driver=lock_loss,
            frames=28,
            fault_start=8,
            expect_actions=("reacquire",),
            forbid_actions=("isolate", "terminal", "shed"),
        ),
        TrafficScenario(
            name="burst-interference",
            description="+15 dB interference on carrier 2 for 6 frames",
            driver=interference,
            frames=28,
            fault_start=8,
            expect_actions=("reacquire",),
            forbid_actions=("isolate", "terminal", "shed"),
        ),
        TrafficScenario(
            name="cfo-step",
            description="persistent 0.01 cyc/sample CFO on carrier 0; "
            "fallback to the CFO-tolerant personality recovers under fault",
            driver=cfo_step,
            frames=34,
            fault_start=8,
            expect_actions=("fallback",),
            forbid_actions=("isolate", "terminal", "shed"),
        ),
        TrafficScenario(
            name="decoder-seu",
            description="SEU storm in the shared decoder fabric; managed "
            "reload restores it",
            driver=decoder_seu,
            frames=28,
            fault_start=8,
            expect_actions=("decoder_reload",),
            forbid_actions=("isolate", "terminal", "shed"),
        ),
        TrafficScenario(
            name="demod-latchup",
            description="permanent death of carrier 1's active demod; "
            "isolation + cold-spare failover",
            driver=demod_latchup,
            frames=28,
            fault_start=8,
            expect_actions=("isolate",),
            forbid_actions=("terminal", "shed"),
        ),
        TrafficScenario(
            name="double-fault",
            description="primary then spare die on carrier 0; terminal "
            "safe-mode latch, carrier permanently shed, others keep serving",
            driver=double_fault,
            frames=34,
            fault_start=8,
            expected_final_active=2,
            expect_actions=("isolate", "terminal"),
        ),
        TrafficScenario(
            name="fade-ramp",
            description="0->8->0 dB uplink fade ramp; degraded-mode policy "
            "sheds by priority and restores with hysteresis",
            driver=fade_ramp,
            frames=44,
            fault_start=8,
            expect_actions=("shed", "restore"),
            forbid_actions=("isolate", "terminal"),
        ),
    ]
