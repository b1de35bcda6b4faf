"""The benchmark's workloads: lists of missions generated from a seed.

Each workload is a fixed list of :class:`repro.scenarios.ScenarioSpec`
missions, a pure function of ``(workload, seed)``.  The benchmark cycles
through the list in whole passes, so every mission repeats and its trace
hash can be compared run to run.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.scenarios import ReconfigAction, ScenarioSpec, TrafficMix, canonical_scenarios
from repro.sim import derive_seed

#: the seed at which ``golden-corpus`` keeps the catalog's own spec seeds
#: and its trace hashes are checked against the committed golden records
DEFAULT_SEED = 0


def uplink_wide(seed: int) -> List[ScenarioSpec]:
    """8 fault-free, fully occupied carriers on the conv decoder: Tx
    synthesis, carrier mux, demod and Viterbi do most of the work and the
    world build is a small share."""
    # The shared-uplink C/N at 8 carriers drops a few blocks per mission
    # by design (the baseline delivery ratio).  A fault-free mission has
    # nothing to recover from, so it declares no recovery tail; every
    # other invariant still applies.
    return [
        ScenarioSpec(
            name=f"uplink-wide-{i}",
            description="fault-free 8-carrier capacity mission",
            frames=80,
            num_carriers=8,
            seed=derive_seed(seed, "uplink-wide", str(i)),
            traffic=TrafficMix(occupancy=1.0),
            recovery_tail=0,
        )
        for i in range(2)
    ]


def turbo_uplink(seed: int) -> List[ScenarioSpec]:
    """3 carriers swapped to the turbo decoder at frame 2 over the ground
    link: turbo SISO dominates and demod barely shows; the ground
    campaign runs once per mission."""
    return [
        ScenarioSpec(
            name=f"turbo-uplink-{i}",
            description="3-carrier mission on the turbo decoder, swapped in "
            "by a §3 campaign at frame 2",
            frames=80,
            num_carriers=3,
            seed=derive_seed(seed, "turbo-uplink", str(i)),
            reconfigs=(
                ReconfigAction(frame=2, equipment="decod0", function="decod.turbo"),
            ),
        )
        for i in range(2)
    ]


def golden_corpus(seed: int) -> List[ScenarioSpec]:
    """The 16 canonical missions: short, so world build and Hamming show,
    and every FDIR fault class, overload surge, DTN and lossy-link path
    runs with the same demod and decode layers."""
    specs = canonical_scenarios()
    if seed == DEFAULT_SEED:
        return specs
    return [
        dataclasses.replace(s, seed=derive_seed(seed, "golden-corpus", s.name))
        for s in specs
    ]


WORKLOADS = {
    "uplink-wide": uplink_wide,
    "turbo-uplink": turbo_uplink,
    "golden-corpus": golden_corpus,
}


def golden_hashes(
    workload: str, seed: int, golden_dir: Path
) -> Dict[str, Optional[str]]:
    """Committed trace hash per mission, ``None`` where the record is
    missing; empty when the workload and seed have no golden records."""
    if workload != "golden-corpus" or seed != DEFAULT_SEED:
        return {}
    out: Dict[str, Optional[str]] = {}
    for spec in canonical_scenarios():
        path = golden_dir / f"{spec.name}.json"
        out[spec.name] = (
            json.loads(path.read_text())["trace_hash"] if path.is_file() else None
        )
    return out
