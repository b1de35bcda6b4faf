"""Traffic-plane FDIR acceptance on the catalog's FDIR missions.

The traffic world comes from :func:`build_traffic_world`; each fault
class of the regenerative payload's traffic plane is one catalog
mission, run by :func:`run_scenario` and judged by
:func:`result_violations`, including the FDIR actions its faults and
fades call for and how promptly the first alarm or action follows the
onset.
"""

import dataclasses

import numpy as np
import pytest

from repro.obs.trace import Tracer
from repro.robustness.fdir.chaos import build_traffic_world
from repro.scenarios import catalog_by_name, result_violations, run_scenario
from repro.scenarios import runner as runner_module
from repro.scenarios.runner import MAX_DETECTION_FRAMES
from repro.sim import derive_seed

pytestmark = pytest.mark.fdir

#: each traffic-plane fault class -> the catalog mission that injects
#: it (``nominal`` is the fault-free control)
FDIR_MISSIONS = {
    "nominal": "nominal",
    "lock-loss": "lock-loss",
    "burst-interference": "interference",
    "cfo-step": "cfo-step",
    "decoder-seu": "decoder-seu",
    "demod-latchup": "demod-latchup",
    "double-fault": "double-latchup",
    "fade-ramp": "rain-fade",
}


def mission(name, seed=None):
    spec = catalog_by_name()[name]
    if seed is None:
        return spec
    return dataclasses.replace(spec, seed=derive_seed(seed, "fdir", name))


class TestWorld:
    def test_world_is_fully_wired(self):
        w = build_traffic_world(seed=1)
        assert len(w.pairs) == 3
        assert all(p.spare.loaded_design is None for p in w.pairs)
        assert w.payload.decoder.loaded_design == "decod.conv"
        assert w.payload.health is w.bank
        # the library holds every personality the ladder may need
        for design in ("modem.tdma", "modem.tdma.robust", "decod.conv"):
            assert w.payload.obc.library.fetch(design) is not None

    def test_one_coded_block_exactly_fills_a_burst(self):
        w = build_traffic_world(seed=1)
        chain = w.payload.registry.get("decod.conv").factory()
        modem = w.ground_modem("modem.tdma")
        assert chain.physical_bits == modem.bits_per_burst


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a = run_scenario(mission("lock-loss", 42))
        b = run_scenario(mission("lock-loss", 42))
        assert a.trace_hash == b.trace_hash
        assert a.metrics["actions"] == b.metrics["actions"]
        assert a.metrics["delivered"] == b.metrics["delivered"]
        assert a.frame_ok_history == b.frame_ok_history


class TestSingleScenarios:
    """One seed per fault class: fast, failure messages point at the class."""

    @pytest.mark.parametrize("fault_class", list(FDIR_MISSIONS))
    def test_scenario_holds_invariants(self, fault_class):
        result = run_scenario(mission(FDIR_MISSIONS[fault_class], 1234))
        assert result_violations(result) == []

    def test_detection_is_prompt(self):
        spec = mission("lock-loss", 7)
        result = run_scenario(spec)
        onset = min(ev.frame for ev in spec.faults)
        assert result.first_detection is not None
        assert onset <= result.first_detection
        assert result.first_detection - onset <= MAX_DETECTION_FRAMES

    def test_double_fault_latches_terminal_safe_mode(self):
        m = run_scenario(mission("double-latchup", 7)).metrics
        assert m["terminal_carriers"] == [0]
        assert m["safe_mode"] == ["demod0"]
        assert m["final_active"] == 2

    def test_fade_ramp_sheds_and_restores(self):
        m = run_scenario(mission("rain-fade", 7)).metrics
        events = m["policy_events"]
        assert events.get("shed") and events.get("restore")
        assert m["final_active"] == 3

    def test_nominal_control_delivers_everything(self):
        r = run_scenario(mission("nominal", 7))
        assert r.metrics["delivered"] == r.metrics["attempted"]
        assert r.metrics["corrupt"] == 0
        assert not r.metrics["actions"]
        assert r.first_detection is None


class TestObservableTrace:
    def test_fault_to_recovery_visible_in_trace(self, monkeypatch):
        """Injected fault -> detection -> recovery as deterministic events."""
        tracers = []

        def capturing(**kw):
            tracers.append(Tracer(**kw))
            return tracers[-1]

        monkeypatch.setattr(runner_module, "Tracer", capturing)
        run_scenario(mission("lock-loss"))
        events = [e.kind for e in tracers[0].events()]
        first_trip = events.index("fdir.trip")
        action = events.index("fdir.action")
        clear = events.index("fdir.clear")
        recovered = events.index("fdir.recovered")
        assert first_trip < action < recovered
        assert first_trip < clear


@pytest.mark.slow
@pytest.mark.chaos
class TestAcceptanceSweep:
    def test_all_scenarios_all_seeds_zero_violations(self):
        """Every FDIR mission x 5 seeds: zero invariant violations."""
        results = [
            run_scenario(mission(name, seed))
            for name in FDIR_MISSIONS.values()
            for seed in (101, 202, 303, 404, 505)
        ]
        bad = [
            f"{r.name}/{r.spec.seed}: {msg}"
            for r in results
            for msg in result_violations(r)
        ]
        assert bad == [], "\n".join(bad)
        # and the sweep actually moved data
        assert sum(r.metrics["delivered"] for r in results) > 0
        rates = [
            r.metrics["delivered"] / r.metrics["attempted"] for r in results
        ]
        assert np.mean(rates) > 0.7
