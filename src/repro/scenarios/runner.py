"""Compile a :class:`~repro.scenarios.spec.ScenarioSpec` and run it.

The runner assembles the *whole* stack for one mission timeline:

- the FDIR traffic world (payload + DSP + coding + health monitors +
  recovery arbiter + degraded-mode policy + cold spares + watchdog),
  built by :func:`repro.robustness.fdir.chaos.build_traffic_world` with
  the spec's carrier count and link budget;
- a simulated TC/TM ground segment -- NCC and satellite gateway nodes
  joined by a :class:`repro.net.simnet.Link` with the spec's delay,
  rate and bit-error rate -- on which the reconfiguration plan runs as
  real §3 campaigns (upload + store + reconfigure, retried and
  deduplicated by the robustness layer);
- the discrete-event kernel pacing MF-TDMA frames, with campaign
  processes running *concurrently* in simulated time;
- a :mod:`repro.obs` session capturing every instrumented subsystem
  into one deterministic trace.

The output is a :class:`ScenarioResult` whose ``trace_hash`` is a pure
function of the spec: two runs of the same spec must hash identically,
and the golden corpus freezes those hashes as the conformance oracle.
:func:`result_violations` applies the cross-cutting invariants (no
silent corruption, no flapping, monotonic degradation, recovery at the
expected width, prompt fault detection, the FDIR actions the spec's
faults and fades call for, exactly-once TC execution, finished DTN
transfers and, under a surge, shed-before-collapse on the demand plane:
conservation at every hop, bounded queues, sojourn inside the deadline
budgets, no starved class, no flapping, a breaker that trips and closes
again, a clean multiplier-1 control) to any result.
:func:`goodput_violations` is the one two-run check.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .. import obs
from ..core.linkbudget import regenerative_margin_db, shared_uplink_cn
from ..dsp.demux import multiplex_carriers
from ..dsp.modem import ebn0_to_sigma
from ..ncc.campaign import NetworkControlCenter, SatelliteGateway
from ..net.simnet import Link, Node
from ..obs.probes import probe as _obs_probe
from ..obs.trace import Tracer
from ..ncc.traffic import TrafficModel
from ..robustness.dtn import (
    ContactPlan,
    ContactWindow,
    LinkScheduler,
    OutageEvent,
    ResumableReceiver,
    ResumableUploader,
)
from ..robustness.fdir import LADDER
from ..robustness.fdir.chaos import (
    SHED_MARGIN_DB,
    TrafficWorld,
    build_traffic_world,
)
from ..robustness.overload.admission import AdmissionController
from ..robustness.overload.brownout import BrownoutLadder, CircuitBreaker
from ..robustness.overload.deadline import Deadline
from ..robustness.overload.queues import CoDelQueue
from ..sim import RngRegistry, Simulator, derive_seed
from .spec import (
    CHANNEL_FAULT_KINDS,
    DEMAND_FAULT_KINDS,
    FaultEvent,
    ReconfigAction,
    ScenarioSpec,
)

__all__ = [
    "MAX_ALARM_TRIPS",
    "MAX_DETECTION_FRAMES",
    "MAX_FADE_DETECTION_FRAMES",
    "MAX_POLICY_TRANSITIONS",
    "MAX_UPLOAD_OVERHEAD",
    "ScenarioResult",
    "ScenarioRunner",
    "expected_actions",
    "goodput_violations",
    "nominal_counterpart",
    "result_violations",
    "run_scenario",
]

#: trace ring size for scenario runs (large enough that canonical
#: missions retain every event; evictions would still be deterministic)
TRACE_CAPACITY = 32768

#: flapping bounds: alarm trips and shed/restore transitions per carrier
MAX_ALARM_TRIPS = 3
MAX_POLICY_TRANSITIONS = 3

#: the first alarm or arbiter action must come within this many frames
#: of the earliest fault onset; a fade ramp grows from 0 dB at onset, so
#: it gets the ramp time to matter
MAX_DETECTION_FRAMES = 6
MAX_FADE_DETECTION_FRAMES = 12

#: FDIR action kinds (arbiter actions plus degraded-mode policy events)
#: a mission with no fault and no fade must never take
FDIR_ACTIONS = frozenset(LADDER + ("terminal", "decoder_reload", "shed"))
#: (required, forbidden) action kinds per fault class; the ladder must
#: clear these faults without losing equipment or capacity
_CONTAINED = ("isolate", "terminal", "shed")
_ACTION_RULES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "blank": (("reacquire",), _CONTAINED),
    "interference": (("reacquire",), _CONTAINED),
    "cfo": (("fallback",), _CONTAINED),
    "seu.decoder": (("decoder_reload",), _CONTAINED),
    "latchup": (("isolate",), ("terminal", "shed")),
    "double-latchup": (("isolate", "terminal"), ()),
}

#: extra simulated seconds granted beyond the mission for campaign
#: retries to drain before the no-hang invariant trips
CAMPAIGN_GRACE_S = 900.0

#: a surge mission's p0 goodput must hold this share of its same-seed
#: nominal run's; a service fault fails p0 requests too, hence lower
P0_GOODPUT_FLOOR = 0.9
P0_GOODPUT_FLOOR_SERVICE_FAULT = 0.7

#: resumable uploads must cost at most this many times the file size in
#: bytes offered to the link (restart-from-zero pays >= 2x across one
#: mid-transfer blackout)
MAX_UPLOAD_OVERHEAD = 1.5


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    ``metrics`` is flat JSON-able data (the golden summary);
    ``kind_counts`` maps trace-event kinds to counts so a hash drift
    diffs down to *which* event stream diverged; the histories and
    ``first_detection`` (the first frame with a tripped health alarm or
    an arbiter action) feed the invariant checks.
    """

    spec: ScenarioSpec
    completed: bool
    error: Optional[str]
    trace_hash: str
    kind_counts: Dict[str, int]
    metrics: Dict[str, object]
    active_history: List[int] = field(default_factory=list)
    severity_history: List[float] = field(default_factory=list)
    frame_ok_history: List[bool] = field(default_factory=list)
    first_detection: Optional[int] = None

    @property
    def name(self) -> str:
        return self.spec.name


class _DemandPlane:
    """Overload-control accounting for a scenario's demand surge.

    Rides the same simulation clock as the mission: each frame the
    surge profile's arrivals pass the ingress
    :class:`~repro.robustness.overload.admission.AdmissionController`
    (shares from the mission-year service mix), admitted requests wait
    in per-class bounded :class:`~repro.robustness.overload.queues.
    CoDelQueue`\\ s under per-class deadline budgets, and a
    :class:`~repro.robustness.overload.brownout.BrownoutLadder` driven
    by an EWMA of offered load over capacity sheds/restores the low
    classes.  Serving capacity tracks the degraded-mode policy's live
    active-carrier count, coupling the demand plane to the link budget.
    Service runs behind a circuit breaker, which a ``service`` fault
    (every request served fails) trips; a closed breaker changes nothing.
    """

    #: per-class deadline budgets, in frames (tighter for lower priority)
    CLASS_BUDGET_FRAMES = {"p0": 8.0, "p1": 6.0, "p2": 4.0}
    #: service-mix epoch the admission shares are drawn from
    MIX_YEAR = 5.0

    def __init__(self, spec: ScenarioSpec, sim: Simulator, rng) -> None:
        assert spec.surge is not None
        self.spec = spec
        self.surge = spec.surge
        self.sim = sim
        self.rng = rng
        clock = lambda: sim.now  # noqa: E731
        fd = spec.frame_duration
        self.per_sec = 1.0 / fd
        cap_rate = (
            self.surge.per_carrier_capacity * spec.num_carriers * self.per_sec
        )
        self.admission = AdmissionController.from_service_mix(
            TrafficModel().mix_at(self.MIX_YEAR), cap_rate, clock
        )
        self.shares = self.admission.shares
        self.classes = sorted(self.shares)
        self.budget_s = {
            c: self.CLASS_BUDGET_FRAMES[c] * fd for c in self.classes
        }
        self.queues = {
            c: CoDelQueue(
                clock,
                capacity=64,
                target=fd,
                interval=4.0 * fd,
                name=f"demand.{c}",
            )
            for c in self.classes
        }
        self.ladder = BrownoutLadder(clock, dwell=5.0 * fd)
        self.breaker = CircuitBreaker(
            clock, failure_threshold=3, cooldown=5.0 * fd, name="demand.service"
        )
        self.arrivals = {c: 0 for c in self.classes}
        self.served = {c: 0 for c in self.classes}
        self.expired = {c: 0 for c in self.classes}
        self.failed = {c: 0 for c in self.classes}
        self.max_sojourn = {c: 0.0 for c in self.classes}
        self._ewma = 0.0

    def step(self, frame: int, n_active: int) -> None:
        """One frame of arrivals, ladder control and priority service."""
        now = self.sim.now
        cap_frame = self.surge.per_carrier_capacity * max(n_active, 0)
        cap_rate = cap_frame * self.per_sec
        if cap_rate != self.admission.capacity:
            self.admission.set_capacity(cap_rate)
        mult = self.surge.multiplier_at(frame)
        offered = 0
        for c in self.classes:
            lam = self.surge.nominal_rps * self.shares[c] * mult
            n = int(self.rng.poisson(lam))
            self.arrivals[c] += n
            offered += n
            for _ in range(n):
                if self.admission.admit(c):
                    self.queues[c].offer(Deadline.after(now, self.budget_s[c]))
        pressure = offered / max(cap_frame, 1.0)
        self._ewma = 0.5 * pressure + 0.5 * self._ewma
        for action, c in self.ladder.update(self._ewma):
            if action == "shed":
                self.admission.shed(c)
            else:
                self.admission.restore(c)
        faulted = any(
            ev.kind in DEMAND_FAULT_KINDS and ev.active_at(frame)
            for ev in self.spec.faults
        )
        budget = int(cap_frame)
        breaker = self.breaker
        for c in self.classes:
            q = self.queues[c]
            while budget > 0 and len(q) > 0:
                # an expired head is shed locally and never spends a
                # breaker (half-open) probe
                gated = q.head_sojourn() < self.budget_s[c]
                if gated and not breaker.allow():
                    return  # open: fail fast, leave the queues standing
                got = q.poll_with_sojourn()
                if got is None:  # CoDel shed the standing queue
                    break
                deadline, sojourn = got
                if deadline.expired(now):
                    # deadline budgets are enforced at every hop: work
                    # already past its budget is shed, not served
                    self.expired[c] += 1
                    continue
                budget -= 1
                if faulted:
                    self.failed[c] += 1
                    if gated:
                        breaker.record_failure()
                else:
                    self.served[c] += 1
                    self.max_sojourn[c] = max(self.max_sojourn[c], sojourn)
                    if gated:
                        breaker.record_success()

    def summary(self) -> Dict[str, object]:
        """Flat JSON-able overload accounting for the golden metrics."""
        return {
            "arrivals": dict(self.arrivals),
            "admitted": dict(self.admission.admitted),
            "rejected": dict(self.admission.rejected),
            "served": dict(self.served),
            "expired": dict(self.expired),
            "failed": dict(self.failed),
            "max_sojourn": {c: round(t, 6) for c, t in self.max_sojourn.items()},
            "queues": {c: self.queues[c].stats() for c in self.classes},
            "ladder": self.ladder.stats(),
            "ladder_history": [
                [round(t, 6), action, c]
                for t, action, c in self.ladder.history
            ],
            "breaker": self.breaker.stats(),
        }


class ScenarioRunner:
    """Compile one spec onto the kernel and run it end to end."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec.validate()

    # -- world assembly ---------------------------------------------------
    def _build(self):
        spec = self.spec
        sim = Simulator()
        rngs = RngRegistry(derive_seed(spec.seed, "scenario", spec.name))
        world = build_traffic_world(
            spec.seed,
            num_carriers=spec.num_carriers,
            base_cn_db=spec.link.base_cn_db,
            down_cn_db=spec.link.down_cn_db,
            required_ber=spec.link.required_ber,
        )
        ground = Node(sim, "ncc", 1)
        space = Node(sim, "sat", 2)
        link = Link(
            sim,
            delay=spec.ground.delay,
            rate_bps=spec.ground.rate_bps,
            ber=spec.ground.ber,
            rng=rngs.stream("ground.link") if spec.ground.ber else None,
        )
        link.attach(ground)
        link.attach(space)
        gateway = SatelliteGateway(space, world.payload)
        cfg = world.payload.config
        ncc = NetworkControlCenter(
            ground,
            world.payload.registry,
            sat_address=2,
            fpga_geometry=(cfg.fpga_rows, cfg.fpga_cols, cfg.fpga_bits_per_clb),
            rng=rngs.stream("ground.jitter"),
        )
        if spec.contacts is not None:
            # DTN ground segment: the contact scheduler drives the link
            # up and down, and every reconfiguration upload rides the
            # checkpointed resumable-transfer layer so a campaign that
            # straddles a gap resumes instead of re-sending the file
            plan = ContactPlan(
                tuple(ContactWindow(s, e) for s, e in spec.contacts.windows)
            )
            scheduler = LinkScheduler(
                link,
                plan,
                tuple(OutageEvent(s, d) for s, d in spec.contacts.outages),
                name=f"scenario.{spec.name}",
            )
            receiver = ResumableReceiver(gateway.uploads)
            gateway.attach_transfer(receiver)
            uploader = ResumableUploader(
                ncc, scheduler, segment_size=spec.contacts.segment_size
            )
            ncc.attach_resumable(uploader)
            self._dtn = (scheduler, uploader)
        return sim, rngs, world, ncc, gateway

    # -- per-frame channel/fault compilation -------------------------------
    def _channel_state(self, frame: int):
        """(blank set, noise-boost map, cfo map) afflicting ``frame``."""
        blank, boost, cfo = set(), {}, {}
        for ev in self.spec.faults:
            if ev.kind not in CHANNEL_FAULT_KINDS or not ev.active_at(frame):
                continue
            if ev.kind == "blank":
                blank.add(ev.carrier)
            elif ev.kind == "interference":
                boost[ev.carrier] = boost.get(ev.carrier, 0.0) + ev.magnitude
            elif ev.kind == "cfo":
                cfo[ev.carrier] = cfo.get(ev.carrier, 0.0) + ev.magnitude
        return blank, boost, cfo

    def _strike_equipment(self, world: TrafficWorld, ev: FaultEvent, rng) -> None:
        """Apply one equipment fault at its scheduled frame."""
        if ev.kind == "seu.decoder":
            fpga = world.payload.decoder.fpga
            n = fpga.rows * fpga.cols * fpga.bits_per_clb
            count = int(ev.magnitude) or 200
            fpga.upset_bits(rng.choice(n, size=min(count, n), replace=False))
        elif ev.kind == "latchup.demod":
            pair = world.payload.demods[ev.carrier]
            pair.mark_unit_failed(pair.active)

    def _chain_for(self, world: TrafficWorld, design: str):
        """Ground-side transport chain matching the decoder personality."""
        chains = self._chains
        chain = chains.get(design)
        if chain is None:
            chain = world.payload.registry.get(design).factory()
            chains[design] = chain
        return chain

    # -- the mission process ----------------------------------------------
    def _campaign(self, ncc: NetworkControlCenter, rc: ReconfigAction):
        result = yield from ncc.reconfigure_equipment(
            rc.equipment, rc.function, protocol=rc.protocol, version=rc.version
        )
        return result

    def _mission(self, sim, rngs, world, ncc):
        spec = self.spec
        probe = _obs_probe("scenario", name=spec.name)
        if spec.surge is not None:
            self._demand = _DemandPlane(
                spec, sim, rngs.stream("demand.arrivals")
            )
        offer_rng = rngs.stream("traffic.offer")
        bits_rng = rngs.stream("traffic.bits")
        noise_rng = rngs.stream("channel.noise")
        seu_rng = rngs.stream("fault.seu")
        campaigns = []
        by_frame: Dict[int, List[ReconfigAction]] = {}
        for rc in spec.reconfigs:
            by_frame.setdefault(rc.frame, []).append(rc)
        struck: set = set()
        for f in range(spec.frames):
            for rc in by_frame.get(f, ()):
                campaigns.append(
                    sim.process(
                        self._campaign(ncc, rc),
                        name=f"reconfig.{rc.equipment}.{rc.function}",
                    )
                )
            for i, ev in enumerate(self.spec.faults):
                if ev.kind in CHANNEL_FAULT_KINDS or i in struck or ev.frame != f:
                    continue
                struck.add(i)
                self._strike_equipment(world, ev, seu_rng)
            self._frame(f, world, offer_rng, bits_rng, noise_rng, probe)
            yield sim.timeout(spec.frame_duration)
        # join outstanding reconfiguration campaigns so the exactly-once
        # accounting is final when the mission event fires
        for proc in campaigns:
            if proc.is_alive:
                yield proc

    def _frame(self, f, world, offer_rng, bits_rng, noise_rng, probe):
        spec = self.spec
        n_car = spec.num_carriers
        fade = spec.fade_db(f)
        severity = spec.severity(f)
        blank, boost, cfo = self._channel_state(f)
        expected_final = (
            spec.expected_final_active
            if spec.expected_final_active is not None
            else n_car
        )
        active = [
            k
            for k in world.policy.active_carriers
            if k not in world.policy.terminal
        ]
        cn = shared_uplink_cn(
            spec.link.base_cn_db, fade, n_car, max(1, len(active))
        )
        if self._demand is not None:
            self._demand.step(f, len(active))
        frame_ok = len(active) == expected_final
        dec_design = world.payload.decoder.loaded_design or "decod.conv"
        chain = self._chain_for(world, dec_design)
        sent: Dict[int, np.ndarray] = {}
        offered: Dict[int, bool] = {}
        streams: Dict[int, np.ndarray] = {}
        # rolling checksum of what was sent and what was regenerated:
        # traced per frame so the golden hash covers payload *content*,
        # not just delivery counts
        content_crc = 0
        for k in active:
            eq = world.payload.demods[k]
            design = eq.loaded_design or "modem.tdma"
            modem = world.ground_modem(design)
            # idle carriers still carry a keep-alive burst (random fill,
            # same signal statistics as traffic) so the health monitors
            # keep seeing sync -- real MF-TDMA slots are never silent
            # unless the carrier is shed
            has_data = bool(offer_rng.random() < spec.traffic.probability(k))
            block = bits_rng.integers(0, 2, chain.transport_block).astype(
                np.uint8
            )
            coded = chain.encode(block)
            bb = np.zeros(modem.bits_per_burst, dtype=np.uint8)
            n = min(len(coded), modem.bits_per_burst)
            bb[:n] = coded[:n]
            s = modem.transmit(bb)
            off = cfo.get(k, 0.0)
            if off:
                s = s * np.exp(2j * np.pi * off * np.arange(len(s)))
            sigma = ebn0_to_sigma(cn, 1, 1.0)
            sigma *= 10.0 ** (boost.get(k, 0.0) / 20.0)
            noise = sigma * (
                noise_rng.standard_normal(len(s))
                + 1j * noise_rng.standard_normal(len(s))
            )
            s = noise if k in blank else s + noise
            sent[k] = block
            offered[k] = has_data
            streams[k] = s
            content_crc = zlib.crc32(block.tobytes(), content_crc)
        delivered_now = 0
        if streams:
            n = max(len(s) for s in streams.values())
            mat = np.zeros((n_car, n), dtype=np.complex128)
            for k, s in streams.items():
                mat[k, : len(s)] = s
            wide = multiplex_carriers(mat, n_car)
            out = world.payload.process_uplink(wide, decode=True)
            for k in active:
                verdict = world.bank.monitor(k).last
                healthy = verdict is not None and verdict.healthy
                decoded = out["decoded"][k]
                crc_ok = bool(decoded and decoded["crc_ok"])
                if decoded is not None:
                    content_crc = zlib.crc32(
                        np.asarray(decoded["bits"], dtype=np.uint8).tobytes(),
                        content_crc,
                    )
                if not offered[k]:
                    self._m["keepalive"] += 1
                    if not (healthy and crc_ok):
                        frame_ok = False
                    continue
                self._m["attempted"] += 1
                bits_match = bool(
                    decoded is not None
                    and np.array_equal(decoded["bits"], sent[k])
                )
                if decoded is not None and not crc_ok:
                    self._m["crc_failures"] += 1
                if healthy and crc_ok:
                    self._m["delivered"] += 1
                    delivered_now += 1
                    if not bits_match:
                        self._m["corrupt"] += 1
                else:
                    frame_ok = False
        else:
            frame_ok = expected_final == 0
        tripped = bool(world.bank.tripped_carriers())
        world.arbiter.step(served=active)
        if self.first_detection is None and (tripped or world.arbiter.actions):
            self.first_detection = f
        world.policy.update(cn)
        self.active_history.append(len(world.policy.active_carriers))
        self.severity_history.append(severity)
        self.frame_ok_history.append(frame_ok)
        if probe is not None:
            probe.event(
                "scenario.frame",
                f=f,
                active=len(active),
                offered=sum(offered.values()),
                delivered=delivered_now,
                fade=round(fade, 6),
                crc=content_crc,
            )

    # -- execution ---------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Run the scenario under a fresh observability session."""
        spec = self.spec
        self._chains: Dict[str, object] = {}
        self._demand: Optional[_DemandPlane] = None
        self._dtn = None
        self._m = {
            "attempted": 0,
            "delivered": 0,
            "corrupt": 0,
            "crc_failures": 0,
            "keepalive": 0,
        }
        self.active_history: List[int] = []
        self.severity_history: List[float] = []
        self.frame_ok_history: List[bool] = []
        self.first_detection: Optional[int] = None
        completed, error = True, None
        with obs.session(tracer=Tracer(capacity=TRACE_CAPACITY)) as (_, tracer):
            sim, rngs, world, ncc, gateway = self._build()
            tracer.set_clock(lambda: sim.now)
            mission = sim.process(
                self._mission(sim, rngs, world, ncc), name=f"mission.{spec.name}"
            )
            limit = spec.frames * spec.frame_duration + CAMPAIGN_GRACE_S
            try:
                sim.run_until_event(mission, limit=limit)
            except Exception as exc:
                completed = False
                error = f"{type(exc).__name__}: {exc}"
                while len(self.active_history) < spec.frames:
                    self.active_history.append(0)
                    self.severity_history.append(0.0)
                    self.frame_ok_history.append(False)
            metrics = self._collect(sim, world, ncc, gateway, tracer)
            trace_hash = tracer.hash()
            kind_counts = tracer.kind_counts()
        return ScenarioResult(
            spec=spec,
            completed=completed,
            error=error,
            trace_hash=trace_hash,
            kind_counts=kind_counts,
            metrics=metrics,
            active_history=self.active_history,
            severity_history=self.severity_history,
            frame_ok_history=self.frame_ok_history,
            first_detection=self.first_detection,
        )

    def _collect(self, sim, world, ncc, gateway, tracer) -> Dict[str, object]:
        spec = self.spec
        action_counts: Dict[str, int] = {}
        for _frame, _carrier, kind, _detail in world.arbiter.actions:
            action_counts[kind] = action_counts.get(kind, 0) + 1
        policy_counts: Dict[str, int] = {}
        for kind, _carrier, _margin in world.policy.events:
            policy_counts[kind] = policy_counts.get(kind, 0) + 1
        final_active = len(
            [
                k
                for k in world.policy.active_carriers
                if k not in world.policy.terminal
            ]
        )
        m = dict(self._m)
        m.update(
            {
                "frames": spec.frames,
                "final_active": final_active,
                "terminal_carriers": sorted(world.policy.terminal),
                "safe_mode": sorted(getattr(world.watchdog, "safe_mode", {})),
                "actions": dict(sorted(action_counts.items())),
                "policy_events": dict(sorted(policy_counts.items())),
                "alarm_trips": {
                    str(k): mon.trips for k, mon in world.bank.monitors.items()
                },
                "policy_transitions": {
                    str(k): world.policy.transitions_of(k)
                    for k in range(spec.num_carriers)
                },
                "personalities": world.payload.personalities(),
                "ncc": ncc.stats,
                "gateway": dict(gateway.stats),
                "reconfigs": [
                    {
                        "function": r.function,
                        "protocol": r.protocol,
                        "success": bool(r.success),
                        "rolled_back": bool(r.rolled_back),
                    }
                    for r in ncc.results
                ],
                "sim_time": round(sim.now, 6),
                "sim_events": sim.event_count,
                "trace_events": tracer.total,
            }
        )
        if self._demand is not None:
            m["overload"] = self._demand.summary()
        if self._dtn is not None:
            scheduler, uploader = self._dtn
            contact = {
                k: (round(val, 6) if isinstance(val, float) else val)
                for k, val in scheduler.stats().items()
            }
            m["dtn"] = {
                "contact": contact,
                "uploader": dict(uploader.stats),
                "transfers": {
                    name: {
                        "segments": st.num_segments,
                        "completed": len(st.completed),
                        "resumes": st.resumes,
                        "segments_resent": st.segments_resent,
                        "bytes_sent": st.bytes_sent,
                        "overhead_ratio": round(st.overhead_ratio, 6),
                        "finished": st.finished,
                    }
                    for name, st in sorted(uploader.journal.items())
                },
            }
        return m


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Convenience: validate, compile and run one scenario."""
    return ScenarioRunner(spec).run()


def _fade_forces_shed(spec: ScenarioSpec) -> bool:
    """Does the fade's peak take the full-width margin below the shed
    threshold of the world's degraded-mode policy?"""
    peak = max(spec.fade_db(f) for f in range(spec.frames))
    n = spec.num_carriers
    cn = shared_uplink_cn(spec.link.base_cn_db, peak, n, n)
    margin = regenerative_margin_db(
        cn, spec.link.down_cn_db, spec.link.required_ber
    )
    return margin < SHED_MARGIN_DB


def expected_actions(
    spec: ScenarioSpec,
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """FDIR action kinds ``spec``'s faults and fades require and forbid.

    Each fault class contributes one rule from :data:`_ACTION_RULES`
    (two latch-ups on one carrier are a terminal double fault); a fade
    must shed and restore when its peak drives the margin below the
    policy's shed threshold, and must never isolate.  With several
    classes present, ``required`` is the union of the rules and
    ``forbidden`` their intersection; with none, every
    :data:`FDIR_ACTIONS` kind is forbidden.
    """
    rules = [
        _ACTION_RULES[ev.kind] for ev in spec.faults if ev.kind in _ACTION_RULES
    ]
    latchups = Counter(
        ev.carrier for ev in spec.faults if ev.kind == "latchup.demod"
    )
    rules += [
        _ACTION_RULES["double-latchup" if n > 1 else "latchup"]
        for n in latchups.values()
    ]
    if spec.fades:
        required = ("shed", "restore") if _fade_forces_shed(spec) else ()
        rules.append((required, ("isolate", "terminal")))
    if not rules:
        return frozenset(), FDIR_ACTIONS
    required = frozenset(k for req, _ in rules for k in req)
    forbidden = frozenset.intersection(*(frozenset(f) for _, f in rules))
    return required, forbidden


def _detection_violations(result: ScenarioResult) -> List[str]:
    """The first alarm or arbiter action must follow the faults promptly."""
    spec = result.spec
    deadlines = []
    onsets = [
        ev.frame for ev in spec.faults if ev.kind not in DEMAND_FAULT_KINDS
    ]
    if onsets:
        deadlines.append(("fault", min(onsets), MAX_DETECTION_FRAMES))
    if spec.fades and _fade_forces_shed(spec):
        onset = min(seg.start for seg in spec.fades)
        deadlines.append(("fade", onset, MAX_FADE_DETECTION_FRAMES))
    seen = result.first_detection
    return [
        f"late detection: {what} onset at frame {onset}, first alarm or "
        f"action at frame {seen} (bound {bound} frames)"
        for what, onset, bound in deadlines
        if seen is None or seen - onset > bound
    ]


def _has_service_fault(spec: ScenarioSpec) -> bool:
    return any(ev.kind in DEMAND_FAULT_KINDS for ev in spec.faults)


def _overload_violations(spec: ScenarioSpec, ov: Dict) -> List[str]:
    """Shed-before-collapse invariants for a surge scenario's accounting."""
    v: List[str] = []
    for c in sorted(ov["arrivals"]):
        n = ov["arrivals"][c]
        if ov["admitted"][c] + ov["rejected"][c] != n:
            v.append(f"overload {c}: admitted+rejected != arrivals ({n})")
        q = ov["queues"][c]
        if q["offered"] != ov["admitted"][c]:
            v.append(f"overload {c}: queue offered != admitted")
        if q["accepted"] + q["dropped"] != q["offered"]:
            v.append(f"overload {c}: accepted+dropped != offered")
        if q["served"] + q["shed"] + q["depth"] != q["accepted"]:
            v.append(f"overload {c}: served+shed+depth != accepted")
        if ov["served"][c] + ov["expired"][c] + ov["failed"][c] != q["served"]:
            v.append(f"overload {c}: served+expired+failed != queue served")
        if q["max_depth"] > q["capacity"]:
            v.append(
                f"overload {c}: queue depth {q['max_depth']} exceeded its "
                f"bound {q['capacity']}"
            )
        budget = _DemandPlane.CLASS_BUDGET_FRAMES[c] * spec.frame_duration
        if ov["max_sojourn"][c] > budget:
            v.append(
                f"overload {c}: served sojourn {ov['max_sojourn'][c]} s over "
                f"its deadline budget {budget} s"
            )
        if ov["served"][c] == 0:
            v.append(f"overload: {c} starved (zero served during the mission)")
    rejected = sum(ov["rejected"].values())
    if spec.surge.multiplier >= 2.0 and not rejected:
        v.append(
            "overload: a real surge was absorbed without shedding anything "
            "-- admission control never engaged"
        )
    if spec.surge.multiplier == 1.0:
        offered = sum(ov["arrivals"].values())
        if rejected > 0.01 * offered:
            v.append(f"overload: nominal control rejected {rejected}/{offered}")
        if ov["ladder_history"]:
            v.append("overload: nominal control engaged the brownout ladder")
    if ov["ladder"]["level"] != 0:
        v.append(
            f"overload: brownout ladder still {ov['ladder']['level']} deep "
            "at mission end (no restore)"
        )
    per_class: Dict[str, List[str]] = {}
    for _t, action, c in ov["ladder_history"]:
        per_class.setdefault(c, []).append(action)
    for c, actions in per_class.items():
        if actions not in (["shed"], ["shed", "restore"]):
            v.append(f"overload: class {c} ladder flapped: {actions}")
    if _has_service_fault(spec):
        b = ov["breaker"]
        if not 1 <= b["trips"] <= 3:
            v.append(f"overload: breaker tripped {b['trips']} times, not 1..3")
        if not b["fast_rejects"]:
            v.append("overload: open breaker never failed a request fast")
        if b["state"] != CircuitBreaker.CLOSED:
            v.append(f"overload: breaker ended {b['state']}, not closed")
    return v


def result_violations(result: ScenarioResult) -> List[str]:
    """Cross-cutting invariants every scenario run must satisfy.

    Returns human-readable violation strings (empty list = clean run).
    The trace-hash run-to-run reproducibility invariant is checked by
    the callers that run a spec twice; everything else is here.
    """
    spec = result.spec
    v: List[str] = []
    if not result.completed:
        # the no-hang invariant: a run that exceeded its simulated-time
        # budget or crashed is reported here, never hangs the suite
        v.append(f"run did not complete: {result.error}")
        return v
    m = result.metrics
    if m["corrupt"]:
        v.append(
            f"silent corruption: {m['corrupt']} delivered blocks differed "
            "from what the terminals sent"
        )
    for k, trips in m["alarm_trips"].items():
        if trips > MAX_ALARM_TRIPS:
            v.append(f"flapping: carrier {k} alarm tripped {trips} times")
    for k, n in m["policy_transitions"].items():
        if n > MAX_POLICY_TRANSITIONS:
            v.append(f"flapping: carrier {k} shed/restored {n} times")
    for f in range(1, spec.frames):
        if (
            result.severity_history[f] > result.severity_history[f - 1]
            and result.active_history[f] > result.active_history[f - 1]
        ):
            v.append(
                f"non-monotonic: frame {f} restored capacity while the "
                "injected fault was worsening"
            )
            break
    expected = (
        spec.expected_final_active
        if spec.expected_final_active is not None
        else spec.num_carriers
    )
    if m["final_active"] != expected:
        v.append(
            f"no recovery: {m['final_active']} active carriers at end, "
            f"expected {expected}"
        )
    if spec.recovery_tail:
        tail = result.frame_ok_history[-spec.recovery_tail :]
        if tail and sum(tail) < len(tail):
            v.append(
                f"no recovery: only {sum(tail)}/{len(tail)} clean frames "
                "in the recovery tail"
            )
    kinds = set(m["actions"]) | set(m["policy_events"])
    required, forbidden = expected_actions(spec)
    for kind in sorted(required - kinds):
        v.append(f"expected FDIR action {kind!r} never happened")
    for kind in sorted(forbidden & kinds):
        v.append(f"forbidden FDIR action {kind!r} happened")
    v.extend(_detection_violations(result))
    if spec.surge is not None:
        ov = m.get("overload")
        if ov is None:
            v.append("surge scenario produced no overload accounting")
        else:
            v.extend(_overload_violations(spec, ov))
    if spec.contacts is not None:
        dtn = m.get("dtn")
        if dtn is None:
            v.append("contact scenario produced no DTN accounting")
        else:
            for name, tr in sorted(dtn["transfers"].items()):
                if not tr["finished"]:
                    v.append(f"dtn: transfer {name} never finished")
                elif tr["overhead_ratio"] > MAX_UPLOAD_OVERHEAD:
                    v.append(
                        f"dtn: transfer {name} cost "
                        f"{tr['overhead_ratio']:.2f}x the file size "
                        f"(bound {MAX_UPLOAD_OVERHEAD}x)"
                    )
    if spec.reconfigs:
        ncc_stats, gw = m["ncc"], m["gateway"]
        if gw["executed"] != ncc_stats["tc_issued"]:
            v.append(
                "exactly-once broken: "
                f"{ncc_stats['tc_issued']} telecommands issued but "
                f"{gw['executed']} executed on board"
            )
        failed = [r["function"] for r in m["reconfigs"] if not r["success"]]
        if failed:
            v.append(f"reconfiguration campaigns failed: {failed}")
        if len(m["reconfigs"]) != len(spec.reconfigs):
            v.append(
                f"only {len(m['reconfigs'])}/{len(spec.reconfigs)} planned "
                "reconfigurations completed"
            )
    return v


def nominal_counterpart(spec: ScenarioSpec) -> ScenarioSpec:
    """``spec`` at surge multiplier 1.0 with no faults or fades (same
    name and seed, hence the same demand-arrival stream)."""
    return replace(
        spec,
        surge=replace(spec.surge, multiplier=1.0),
        faults=(),
        fades=(),
    )


def goodput_violations(
    result: ScenarioResult, nominal: ScenarioResult
) -> List[str]:
    """The two-run check: a surge mission's p0 goodput must hold a
    floor share of ``nominal``'s, the run of its nominal counterpart."""
    floor = (
        P0_GOODPUT_FLOOR_SERVICE_FAULT
        if _has_service_fault(result.spec)
        else P0_GOODPUT_FLOOR
    )
    got = result.metrics["overload"]["served"]["p0"]
    base = nominal.metrics["overload"]["served"]["p0"]
    if got >= floor * base:
        return []
    return [f"overload: p0 goodput {got} below {floor} x nominal {base}"]
