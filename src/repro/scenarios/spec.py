"""Declarative mission-scenario specifications.

A :class:`ScenarioSpec` is a *data* description of one end-to-end
mission timeline -- how long it runs, which carriers carry traffic,
what the channel and the hardware do to it frame by frame, and which
reconfigurations the ground segment commands over the TC/TM link.  The
runner (:mod:`repro.scenarios.runner`) compiles a spec onto the
existing simulation kernel and payload stack; nothing in the spec layer
executes anything, so specs serialize losslessly to JSON
(:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`) and
hash stably (:meth:`ScenarioSpec.spec_hash`), which is what lets the
golden corpus detect "the scenario definition itself changed" separately
from "the stack's behaviour changed".

Everything is validated eagerly: :meth:`ScenarioSpec.validate` collects
*all* problems and raises one :class:`ScenarioError` listing them, so a
bad scenario fails with a readable report instead of a mid-run stack
trace.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CHANNEL_FAULT_KINDS",
    "DEMAND_FAULT_KINDS",
    "EQUIPMENT_FAULT_KINDS",
    "FADE_SHAPES",
    "ContactSchedule",
    "FaultEvent",
    "FadeSegment",
    "GroundLink",
    "LinkBudget",
    "ReconfigAction",
    "ScenarioError",
    "ScenarioSpec",
    "SurgeProfile",
    "TrafficMix",
]


class ScenarioError(ValueError):
    """A scenario spec is invalid; the message lists every problem."""


#: channel faults: applied to the uplink signal for ``duration`` frames
CHANNEL_FAULT_KINDS = ("blank", "interference", "cfo")
#: equipment faults: applied to the hardware once, at ``frame``
EQUIPMENT_FAULT_KINDS = ("seu.decoder", "latchup.demod")
#: demand-plane faults: the servicing stage fails every request it
#: serves for ``duration`` frames (needs a surge to have requests)
DEMAND_FAULT_KINDS = ("service",)
#: supported fade profile shapes
FADE_SHAPES = ("step", "ramp")


@dataclass(frozen=True)
class TrafficMix:
    """Per-carrier burst occupancy for the MF-TDMA uplink.

    ``occupancy`` is the probability a carrier offers a burst in a given
    frame (1.0 = every carrier every frame, the FDIR missions' load).
    ``weights`` optionally biases it per carrier (carrier ``k`` offers a
    burst with probability ``occupancy * weights[k]``).
    """

    occupancy: float = 1.0
    weights: Tuple[float, ...] = ()

    def problems(self, num_carriers: int) -> List[str]:
        out = []
        if not 0.0 <= self.occupancy <= 1.0:
            out.append(f"traffic.occupancy {self.occupancy} not in [0, 1]")
        if self.weights and len(self.weights) != num_carriers:
            out.append(
                f"traffic.weights has {len(self.weights)} entries for "
                f"{num_carriers} carriers"
            )
        for i, w in enumerate(self.weights):
            if not 0.0 <= w <= 1.0:
                out.append(f"traffic.weights[{i}] {w} not in [0, 1]")
        return out

    def probability(self, carrier: int) -> float:
        """Burst-offer probability for one carrier."""
        w = self.weights[carrier] if self.weights else 1.0
        return self.occupancy * w


@dataclass(frozen=True)
class SurgeProfile:
    """A demand-plane load surge on ``[start, end)`` frames.

    While active, the offered request rate is ``multiplier`` times the
    ``nominal_rps`` baseline (requests per frame, split across the
    ``p0``/``p1``/``p2`` priority classes by the mission service mix).
    The runner routes the surge through the full overload-control
    stack -- ingress admission, bounded CoDel class queues, per-class
    deadline budgets, the brownout ladder -- with the serving capacity
    (``per_carrier_capacity`` requests/frame per carrier) tracking the
    degraded-mode policy's live active-carrier count, so a surge
    composed with a rain fade sees admission capacity follow the link
    budget down and back up.
    """

    start: int
    end: int
    multiplier: float = 5.0
    nominal_rps: float = 12.0
    per_carrier_capacity: float = 10.0

    def problems(self, frames: int) -> List[str]:
        out = []
        if not 0 <= self.start < self.end:
            out.append(f"surge: start {self.start} must be < end {self.end}")
        if self.end > frames:
            out.append(f"surge: end {self.end} beyond mission ({frames} frames)")
        if self.multiplier < 1.0:
            out.append(f"surge: multiplier {self.multiplier} must be >= 1")
        if self.nominal_rps <= 0:
            out.append(f"surge: nominal_rps {self.nominal_rps} must be > 0")
        if self.per_carrier_capacity <= 0:
            out.append(
                f"surge: per_carrier_capacity {self.per_carrier_capacity} "
                "must be > 0"
            )
        return out

    def multiplier_at(self, frame: int) -> float:
        """Demand multiplier this frame (1.0 outside the surge window)."""
        return self.multiplier if self.start <= frame < self.end else 1.0


@dataclass(frozen=True)
class FadeSegment:
    """One uplink fade feature on ``[start, end)`` frames.

    ``shape="step"`` applies ``peak_db`` flat across the window;
    ``shape="ramp"`` rises linearly from 0 to ``peak_db`` at the window
    midpoint and back down -- the classic rain-fade ramp the degraded-
    mode policy sheds into and restores out of.
    """

    start: int
    end: int
    peak_db: float
    shape: str = "ramp"

    def problems(self, frames: int, idx: int) -> List[str]:
        out = []
        tag = f"fades[{idx}]"
        if self.shape not in FADE_SHAPES:
            out.append(f"{tag}.shape {self.shape!r} not in {FADE_SHAPES}")
        if not 0 <= self.start < self.end:
            out.append(f"{tag}: start {self.start} must be < end {self.end}")
        if self.end > frames:
            out.append(f"{tag}: end {self.end} beyond mission ({frames} frames)")
        if self.peak_db < 0:
            out.append(f"{tag}: peak_db {self.peak_db} must be >= 0")
        return out

    def depth_at(self, frame: int) -> float:
        """Fade depth [dB] this segment contributes at ``frame``."""
        if not self.start <= frame < self.end:
            return 0.0
        if self.shape == "step":
            return self.peak_db
        half = (self.end - self.start) / 2.0
        ramp = 1.0 - abs((frame - self.start) - half) / half if half else 1.0
        return self.peak_db * max(0.0, ramp)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault.

    Channel faults (:data:`CHANNEL_FAULT_KINDS`) afflict ``carrier``'s
    uplink for ``duration`` frames starting at ``frame``; ``magnitude``
    is kind-specific (interference dB boost, CFO in cycles/sample).
    Equipment faults (:data:`EQUIPMENT_FAULT_KINDS`) strike the hardware
    once at ``frame``: ``seu.decoder`` upsets ``magnitude`` configuration
    bits of the shared decoder fabric, ``latchup.demod`` permanently
    kills carrier ``carrier``'s active demodulator unit.  A ``service``
    fault (:data:`DEMAND_FAULT_KINDS`) fails every request the surge's
    servicing stage serves for ``duration`` frames.
    """

    frame: int
    kind: str
    carrier: Optional[int] = None
    magnitude: float = 0.0
    duration: int = 1

    def problems(self, frames: int, num_carriers: int, idx: int) -> List[str]:
        out = []
        tag = f"faults[{idx}]"
        known = (
            CHANNEL_FAULT_KINDS + EQUIPMENT_FAULT_KINDS + DEMAND_FAULT_KINDS
        )
        if self.kind not in known:
            out.append(f"{tag}.kind {self.kind!r} not in {known}")
        if not 0 <= self.frame < frames:
            out.append(f"{tag}.frame {self.frame} outside [0, {frames})")
        if self.duration < 1:
            out.append(f"{tag}.duration {self.duration} must be >= 1")
        needs_carrier = self.kind in CHANNEL_FAULT_KINDS or self.kind == "latchup.demod"
        if needs_carrier:
            if self.carrier is None:
                out.append(f"{tag}: kind {self.kind!r} needs a carrier")
            elif not 0 <= self.carrier < num_carriers:
                out.append(
                    f"{tag}.carrier {self.carrier} outside [0, {num_carriers})"
                )
        return out

    def active_at(self, frame: int) -> bool:
        """Is this (channel or service) fault afflicting ``frame``?"""
        return self.frame <= frame < self.frame + self.duration


@dataclass(frozen=True)
class ReconfigAction:
    """One ground-commanded reconfiguration in the mission plan.

    At ``frame`` the NCC starts the full §3 campaign for ``equipment``
    -- render the ``function`` bitstream, upload it over ``protocol``,
    ``store`` it into the on-board library, command ``reconfigure`` --
    riding the simulated TC/TM ground link with its delay, rate and
    (possibly) bit errors.  The campaign completes in *simulated* time,
    typically a few frames after it starts.
    """

    frame: int
    equipment: str
    function: str
    protocol: str = "tftp"
    version: int = 2

    def problems(self, frames: int, idx: int) -> List[str]:
        out = []
        tag = f"reconfigs[{idx}]"
        if not 0 <= self.frame < frames:
            out.append(f"{tag}.frame {self.frame} outside [0, {frames})")
        if self.protocol not in ("tftp", "ftp", "scps"):
            out.append(f"{tag}.protocol {self.protocol!r} not tftp/ftp/scps")
        if self.version < 1:
            out.append(f"{tag}.version {self.version} must be >= 1")
        if not self.equipment:
            out.append(f"{tag}.equipment must be named")
        if not self.function:
            out.append(f"{tag}.function must be named")
        return out


@dataclass(frozen=True)
class ContactSchedule:
    """Ground-station visibility plan for the TC/TM link.

    ``windows`` are ``(start, end)`` pairs in simulated seconds during
    which the ground station sees the satellite; an empty tuple means
    permanent contact (the GEO assumption every other scenario makes
    implicitly).  ``outages`` are unscheduled ``(start, duration)``
    blackouts -- rain, ground-equipment faults -- that take the link
    down even inside a scheduled window.  When a schedule is present
    the runner drives the ground link up and down with the DTN contact
    scheduler and routes reconfiguration uploads through the
    checkpointed resumable-transfer layer, so campaigns wait out the
    gaps and resume instead of re-sending whole files.
    """

    windows: Tuple[Tuple[float, float], ...] = ()
    outages: Tuple[Tuple[float, float], ...] = ()
    #: resumable-upload segment size (bytes)
    segment_size: int = 4096

    def problems(self) -> List[str]:
        out: List[str] = []
        prev_end: Optional[float] = None
        for i, w in enumerate(self.windows):
            if len(w) != 2:
                out.append(f"contacts.windows[{i}] must be (start, end)")
                continue
            start, end = w
            if not 0 <= start < end:
                out.append(
                    f"contacts.windows[{i}]: need 0 <= start {start} "
                    f"< end {end}"
                )
            if prev_end is not None and start < prev_end:
                out.append(
                    f"contacts.windows[{i}] starts at {start}, before the "
                    f"previous window ends at {prev_end}"
                )
            prev_end = end
        for i, o in enumerate(self.outages):
            if len(o) != 2:
                out.append(f"contacts.outages[{i}] must be (start, duration)")
                continue
            start, duration = o
            if start < 0:
                out.append(f"contacts.outages[{i}]: start {start} must be >= 0")
            if duration <= 0:
                out.append(
                    f"contacts.outages[{i}]: duration {duration} must be > 0"
                )
        if self.segment_size < 1:
            out.append(
                f"contacts.segment_size {self.segment_size} must be >= 1"
            )
        return out


@dataclass(frozen=True)
class LinkBudget:
    """Uplink/downlink budget feeding the degraded-mode policy."""

    base_cn_db: float = 12.0
    down_cn_db: float = 16.0
    required_ber: float = 1e-4

    def problems(self) -> List[str]:
        out = []
        if not 0.0 < self.required_ber < 1.0:
            out.append(f"link.required_ber {self.required_ber} not in (0, 1)")
        return out


@dataclass(frozen=True)
class GroundLink:
    """The TC/TM ground-to-space link the reconfiguration plan rides."""

    delay: float = 0.25
    rate_bps: float = 1e6
    ber: float = 0.0

    def problems(self) -> List[str]:
        out = []
        if self.delay < 0:
            out.append(f"ground.delay {self.delay} must be >= 0")
        if self.rate_bps <= 0:
            out.append(f"ground.rate_bps {self.rate_bps} must be > 0")
        if not 0.0 <= self.ber < 1.0:
            out.append(f"ground.ber {self.ber} not in [0, 1)")
        return out


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative mission scenario.

    ``frames`` MF-TDMA frames are processed ``frame_duration`` simulated
    seconds apart; each frame draws traffic from ``traffic``, suffers
    the superposition of ``fades`` plus any active channel ``faults``,
    and the FDIR/degraded-mode stack reacts.  ``reconfigs`` launch real
    NCC->satellite campaigns concurrently on the simulation kernel.
    """

    name: str
    description: str = ""
    frames: int = 16
    num_carriers: int = 3
    seed: int = 0
    frame_duration: float = 0.5
    traffic: TrafficMix = field(default_factory=TrafficMix)
    fades: Tuple[FadeSegment, ...] = ()
    faults: Tuple[FaultEvent, ...] = ()
    reconfigs: Tuple[ReconfigAction, ...] = ()
    link: LinkBudget = field(default_factory=LinkBudget)
    ground: GroundLink = field(default_factory=GroundLink)
    #: demand-plane load surge (None = no overload accounting)
    surge: Optional[SurgeProfile] = None
    #: ground-station visibility plan (None = permanent contact, no DTN)
    contacts: Optional[ContactSchedule] = None
    #: carriers expected in service at mission end (None = all)
    expected_final_active: Optional[int] = None
    #: trailing frames that must deliver cleanly at the expected width
    recovery_tail: int = 4

    # -- validation ------------------------------------------------------
    def problems(self) -> List[str]:
        """Every validation problem (empty list = valid)."""
        out: List[str] = []
        if not self.name:
            out.append("name must be non-empty")
        if self.frames < 1:
            out.append(f"frames {self.frames} must be >= 1")
        if not 2 <= self.num_carriers <= 8:
            out.append(
                f"num_carriers {self.num_carriers} outside [2, 8] "
                "(MF-TDMA traffic world)"
            )
        if self.frame_duration <= 0:
            out.append(f"frame_duration {self.frame_duration} must be > 0")
        if self.recovery_tail < 0:
            out.append(f"recovery_tail {self.recovery_tail} must be >= 0")
        if self.expected_final_active is not None and not (
            0 <= self.expected_final_active <= self.num_carriers
        ):
            out.append(
                f"expected_final_active {self.expected_final_active} outside "
                f"[0, {self.num_carriers}]"
            )
        out.extend(self.traffic.problems(self.num_carriers))
        for i, seg in enumerate(self.fades):
            out.extend(seg.problems(self.frames, i))
        for i, ev in enumerate(self.faults):
            out.extend(ev.problems(self.frames, self.num_carriers, i))
        for i, rc in enumerate(self.reconfigs):
            out.extend(rc.problems(self.frames, i))
        out.extend(self.link.problems())
        out.extend(self.ground.problems())
        if self.surge is not None:
            out.extend(self.surge.problems(self.frames))
        elif any(ev.kind in DEMAND_FAULT_KINDS for ev in self.faults):
            out.append("a service fault needs a surge (no demand plane)")
        if self.contacts is not None:
            out.extend(self.contacts.problems())
        return out

    def validate(self) -> "ScenarioSpec":
        """Raise :class:`ScenarioError` listing every problem; else self."""
        probs = self.problems()
        if probs:
            raise ScenarioError(
                f"scenario {self.name!r} is invalid:\n  - "
                + "\n  - ".join(probs)
            )
        return self

    # -- compiled per-frame profile --------------------------------------
    def fade_db(self, frame: int) -> float:
        """Total uplink fade depth at ``frame`` (segments superpose)."""
        return sum(seg.depth_at(frame) for seg in self.fades)

    def severity(self, frame: int) -> float:
        """Scalar fault severity at ``frame`` for the monotonicity oracle.

        Fade depth in dB, plus one unit per active channel fault, plus
        one *permanent* unit per equipment fault already struck -- a
        monotone proxy that only moves when the injected stress moves.
        """
        s = self.fade_db(frame)
        for ev in self.faults:
            if ev.kind in CHANNEL_FAULT_KINDS and ev.active_at(frame):
                s += 1.0
            elif ev.kind in EQUIPMENT_FAULT_KINDS and frame >= ev.frame:
                s += 1.0
        return s

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able dict (tuples become lists).

        Fields added after the golden corpus froze (``contacts``) are
        omitted at their default so pre-existing spec hashes cannot
        drift.
        """
        d = asdict(self)
        if self.contacts is None:
            d.pop("contacts")
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; validates field names eagerly."""
        d = dict(data)
        try:
            traffic = TrafficMix(**{
                **d.get("traffic", {}),
                "weights": tuple(d.get("traffic", {}).get("weights", ())),
            }) if "traffic" in d else TrafficMix()
            fades = tuple(FadeSegment(**seg) for seg in d.get("fades", ()))
            faults = tuple(FaultEvent(**ev) for ev in d.get("faults", ()))
            reconfigs = tuple(
                ReconfigAction(**rc) for rc in d.get("reconfigs", ())
            )
            link = LinkBudget(**d["link"]) if "link" in d else LinkBudget()
            ground = GroundLink(**d["ground"]) if "ground" in d else GroundLink()
            surge = SurgeProfile(**d["surge"]) if d.get("surge") else None
            contacts = None
            if d.get("contacts"):
                c = dict(d["contacts"])
                contacts = ContactSchedule(
                    windows=tuple(tuple(w) for w in c.pop("windows", ())),
                    outages=tuple(tuple(o) for o in c.pop("outages", ())),
                    **c,
                )
        except TypeError as exc:
            raise ScenarioError(f"bad scenario dict: {exc}") from exc
        for key in (
            "traffic", "fades", "faults", "reconfigs", "link", "ground",
            "surge", "contacts",
        ):
            d.pop(key, None)
        try:
            return cls(
                traffic=traffic,
                fades=fades,
                faults=faults,
                reconfigs=reconfigs,
                link=link,
                ground=ground,
                surge=surge,
                contacts=contacts,
                **d,
            )
        except TypeError as exc:
            raise ScenarioError(f"bad scenario dict: {exc}") from exc

    def canonical_json(self) -> str:
        """Byte-stable JSON rendering (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """SHA-256 of :meth:`canonical_json` -- the spec's identity.

        Stored in every golden record: a conformance failure first
        checks the *spec* still matches before blaming the stack.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
