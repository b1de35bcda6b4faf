"""The canonical scenario corpus and the randomized soak grid.

:func:`canonical_scenarios` returns the frozen mission set whose trace
hashes and summary metrics live under ``tests/scenarios/golden/`` --
one scenario per traffic-plane FDIR fault class, plus the §3
reconfiguration missions (decoder swap, modem swap, lossy ground link),
demand surges and DTN contact plans.  Fault timing and magnitudes sit
in the calibrated FDIR regime (onset at frame 8, 6-frame transients,
8 dB fade ramps), where the recovery ladder converges.

:func:`overload_missions` adds two long demand-plane attacks, judged
like any mission but not frozen.

:func:`soak_grid` derives a deterministic pseudo-random grid of specs
from a base seed for the seeded soak sweep -- same seed, same grid,
forever.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim import RngRegistry, derive_seed
from .spec import (
    ContactSchedule,
    FadeSegment,
    FaultEvent,
    GroundLink,
    LinkBudget,
    ReconfigAction,
    ScenarioSpec,
    SurgeProfile,
    TrafficMix,
)

__all__ = [
    "canonical_scenarios",
    "catalog_by_name",
    "overload_missions",
    "soak_grid",
]


def canonical_scenarios() -> List[ScenarioSpec]:
    """The golden-corpus missions, in a fixed order."""
    return [
        ScenarioSpec(
            name="nominal",
            description="fault-free control mission: full occupancy, "
            "every block delivered, no FDIR actions",
            frames=20,
        ),
        ScenarioSpec(
            name="quiet-occupancy",
            description="light traffic: 60% slot occupancy with skewed "
            "per-carrier weights, keep-alive bursts on idle slots",
            frames=20,
            traffic=TrafficMix(occupancy=0.6, weights=(1.0, 0.8, 0.5)),
        ),
        ScenarioSpec(
            name="lock-loss",
            description="carrier 1 blanked for 6 frames: reacquire "
            "ladder clears the transient",
            frames=28,
            faults=(FaultEvent(frame=8, kind="blank", carrier=1, duration=6),),
        ),
        ScenarioSpec(
            name="interference",
            description="15 dB uplink interference on carrier 2 for 6 "
            "frames",
            frames=28,
            faults=(
                FaultEvent(
                    frame=8,
                    kind="interference",
                    carrier=2,
                    magnitude=15.0,
                    duration=6,
                ),
            ),
        ),
        ScenarioSpec(
            name="cfo-step",
            description="permanent oscillator fault on carrier 0: the "
            "fallback ladder lands on the CFO-tolerant modem",
            frames=28,
            faults=(
                FaultEvent(
                    frame=8, kind="cfo", carrier=0, magnitude=0.01, duration=20
                ),
            ),
        ),
        ScenarioSpec(
            name="decoder-seu",
            description="SEU burst in the shared decoder FPGA at frame "
            "8: reload from the on-board library",
            frames=24,
            faults=(
                FaultEvent(frame=8, kind="seu.decoder", magnitude=200),
            ),
        ),
        ScenarioSpec(
            name="demod-latchup",
            description="latch-up kills carrier 1's active demod: "
            "failover to the cold spare",
            frames=24,
            faults=(FaultEvent(frame=8, kind="latchup.demod", carrier=1),),
        ),
        ScenarioSpec(
            name="double-latchup",
            description="both demod units on carrier 0 latch up: "
            "isolate, mission continues two-wide",
            frames=36,
            faults=(
                FaultEvent(frame=8, kind="latchup.demod", carrier=0),
                FaultEvent(frame=16, kind="latchup.demod", carrier=0),
            ),
            expected_final_active=2,
        ),
        ScenarioSpec(
            name="rain-fade",
            description="8 dB triangular rain fade over 24 frames: "
            "shed by priority, restore with hysteresis",
            frames=36,
            fades=(FadeSegment(start=8, end=32, peak_db=8.0, shape="ramp"),),
        ),
        ScenarioSpec(
            name="decoder-swap",
            description="mid-mission §3 campaign swaps the decoder "
            "personality to the turbo codec over the TC link",
            frames=24,
            reconfigs=(
                ReconfigAction(
                    frame=2, equipment="decod0", function="decod.turbo"
                ),
            ),
        ),
        ScenarioSpec(
            name="modem-swap",
            description="mid-mission §3 campaign swaps carrier 1 to "
            "the CFO-tolerant modem personality",
            frames=24,
            reconfigs=(
                ReconfigAction(
                    frame=2,
                    equipment="demod1",
                    function="modem.tdma.robust",
                    protocol="ftp",
                ),
            ),
        ),
        ScenarioSpec(
            name="flash-crowd",
            description="5x demand-plane flash crowd for 10 frames: "
            "admission and the brownout ladder shed the low classes, "
            "p0 keeps being served, everything restores after the spike",
            frames=36,
            surge=SurgeProfile(start=8, end=18, multiplier=5.0),
        ),
        ScenarioSpec(
            name="surge-rain-fade",
            description="demand surge overlapping a rain fade: the "
            "degraded-mode policy sheds carriers and the admission "
            "capacity follows the link budget down and back up",
            frames=44,
            fades=(FadeSegment(start=8, end=28, peak_db=8.0, shape="ramp"),),
            surge=SurgeProfile(start=6, end=20, multiplier=4.0),
        ),
        ScenarioSpec(
            name="contact-plan-pass",
            description="decoder swap commanded before the ground "
            "station rises: the DTN layer holds the campaign until the "
            "scheduled contact window opens, then completes it in-pass",
            frames=24,
            contacts=ContactSchedule(windows=((6.0, 1800.0),)),
            reconfigs=(
                ReconfigAction(
                    frame=2,
                    equipment="decod0",
                    function="decod.turbo",
                    protocol="tftp",
                ),
            ),
        ),
        ScenarioSpec(
            name="blackout-resume-upload",
            description="a 30 s unscheduled blackout cuts the decoder "
            "swap upload mid-transfer: the checkpointed transfer "
            "resumes at the outage end without re-sending completed "
            "segments",
            frames=24,
            # 64-byte segments stretch the (small) bitstream transfer
            # across the outage onset so the blackout actually bites
            contacts=ContactSchedule(outages=((5.0, 30.0),), segment_size=64),
            reconfigs=(
                ReconfigAction(
                    frame=2,
                    equipment="decod0",
                    function="decod.turbo",
                    protocol="tftp",
                ),
            ),
        ),
        ScenarioSpec(
            name="lossy-ground",
            description="decoder swap over a lossy ground link: TC "
            "retransmission and dedup keep execution exactly-once",
            frames=28,
            ground=GroundLink(delay=0.25, rate_bps=1e6, ber=1e-4),
            reconfigs=(
                ReconfigAction(
                    frame=2,
                    equipment="decod0",
                    function="decod.turbo",
                    protocol="tftp",
                ),
            ),
        ),
    ]


def overload_missions() -> List[ScenarioSpec]:
    """The four demand-plane attacks: the two golden surge missions and
    two longer ones kept out of the golden corpus."""
    golden = {s.name: s for s in canonical_scenarios()}
    return [
        golden["flash-crowd"],
        ScenarioSpec(
            name="sustained-10x",
            description="60-frame 10x overload: demand-based pressure "
            "keeps the low classes shed, without flapping, to the end",
            frames=90,
            surge=SurgeProfile(start=10, end=70, multiplier=10.0),
        ),
        golden["surge-rain-fade"],
        ScenarioSpec(
            name="surge-during-fdir-recovery",
            description="5x surge over a servicing-stage fault: the "
            "breaker trips, fails fast, probes half-open and closes",
            frames=60,
            surge=SurgeProfile(start=20, end=40, multiplier=5.0),
            faults=(FaultEvent(frame=20, kind="service", duration=12),),
        ),
    ]


def catalog_by_name() -> Dict[str, ScenarioSpec]:
    """Every golden and overload mission by name."""
    return {s.name: s for s in canonical_scenarios() + overload_missions()}


#: fault classes the soak sweep samples from (``None`` = clean run)
_SOAK_FAULTS = (
    None,
    "blank",
    "interference",
    "fade",
    "seu.decoder",
    "latchup.demod",
)


def soak_grid(base_seed: int, points: int = 6) -> List[ScenarioSpec]:
    """A deterministic pseudo-random grid of ``points`` scenario specs.

    Dimensions: carrier count (2-4), slot occupancy, fault class and
    fault placement.  The grid is a pure function of ``base_seed`` --
    the soak tests run every point twice and require identical trace
    hashes, so the grid itself must be reproducible too.
    """
    rng = RngRegistry(derive_seed(base_seed, "scenarios", "soak")).stream(
        "grid"
    )
    specs: List[ScenarioSpec] = []
    for i in range(points):
        n_car = int(rng.integers(2, 5))
        occupancy = float(rng.choice([0.5, 0.8, 1.0]))
        fault = _SOAK_FAULTS[int(rng.integers(0, len(_SOAK_FAULTS)))]
        frames = 24
        fades = ()
        faults = ()
        if fault == "fade":
            frames = 36
            fades = (FadeSegment(start=8, end=32, peak_db=8.0, shape="ramp"),)
        elif fault == "blank":
            frames = 28
            faults = (
                FaultEvent(
                    frame=8,
                    kind="blank",
                    carrier=int(rng.integers(0, n_car)),
                    duration=6,
                ),
            )
        elif fault == "interference":
            frames = 28
            faults = (
                FaultEvent(
                    frame=8,
                    kind="interference",
                    carrier=int(rng.integers(0, n_car)),
                    magnitude=15.0,
                    duration=6,
                ),
            )
        elif fault == "seu.decoder":
            faults = (FaultEvent(frame=8, kind="seu.decoder", magnitude=200),)
        elif fault == "latchup.demod":
            faults = (
                FaultEvent(
                    frame=8,
                    kind="latchup.demod",
                    carrier=int(rng.integers(0, n_car)),
                ),
            )
        specs.append(
            ScenarioSpec(
                name=f"soak-{base_seed}-{i}",
                description=f"soak point {i}: {n_car} carriers, "
                f"occupancy {occupancy}, fault {fault or 'none'}",
                frames=frames,
                num_carriers=n_car,
                seed=derive_seed(base_seed, "soak", str(i)),
                traffic=TrafficMix(occupancy=occupancy),
                fades=fades,
                faults=faults,
                link=LinkBudget(),
            )
        )
    return specs
