"""Acceptance: the overload missions shed before they collapse.

Each demand-plane attack of :func:`overload_missions` (flash crowd,
sustained 10x, surge during a rain fade, surge during a servicing-stage
fault) runs through :func:`run_scenario` at seeds 1-5 next to its
same-seed nominal counterpart, and both runs are judged by
:func:`result_violations` plus the two-run p0 goodput check.
"""

import dataclasses

import pytest

from repro.scenarios import (
    catalog_by_name,
    goodput_violations,
    nominal_counterpart,
    overload_missions,
    result_violations,
    run_scenario,
)

pytestmark = pytest.mark.overload

SEEDS = [1, 2, 3, 4, 5]


def reseeded(spec, seed):
    return dataclasses.replace(spec, seed=seed)


@pytest.fixture(scope="module")
def sweep():
    """(surge result, nominal result) per mission x seed."""
    pairs = []
    for spec in overload_missions():
        for seed in SEEDS:
            surge = reseeded(spec, seed)
            pairs.append(
                (run_scenario(surge), run_scenario(nominal_counterpart(surge)))
            )
    return pairs


def has_service_fault(spec):
    return any(ev.kind == "service" for ev in spec.faults)


@pytest.mark.slow
@pytest.mark.chaos
class TestCampaignAcceptance:
    def test_covers_all_scenarios_and_seeds(self, sweep):
        # one surge + one nominal run per (mission, seed)
        assert len(sweep) == len(SEEDS) * len(overload_missions())
        assert {(r.name, r.spec.seed) for r, _ in sweep} == {
            (spec.name, seed) for spec in overload_missions() for seed in SEEDS
        }
        for result, nominal in sweep:
            assert nominal.spec.surge.multiplier == 1.0
            assert not nominal.spec.faults and not nominal.spec.fades

    def test_zero_violations(self, sweep):
        bad = []
        for result, nominal in sweep:
            tag = f"{result.name}/{result.spec.seed}"
            msgs = result_violations(result)
            msgs += goodput_violations(result, nominal)
            bad += [f"{tag}: {m}" for m in msgs]
            bad += [f"{tag} nominal: {m}" for m in result_violations(nominal)]
        assert bad == [], "\n".join(bad)

    def test_surge_actually_sheds(self, sweep):
        """The missions attack for real: every surge run rejected load
        and engaged the brownout ladder."""
        for result, _ in sweep:
            ov = result.metrics["overload"]
            assert sum(ov["rejected"].values()) > 0, result.name
            assert ov["ladder"]["shed_events"] >= 1, result.name

    def test_breaker_scenario_trips_and_recovers(self, sweep):
        runs = [r for r, _ in sweep if has_service_fault(r.spec)]
        assert runs
        for r in runs:
            breaker = r.metrics["overload"]["breaker"]
            assert 1 <= breaker["trips"] <= 3
            assert breaker["state"] == "closed"
            assert breaker["fast_rejects"] >= 1

    def test_fade_scenario_sheds_and_restores_carriers(self, sweep):
        runs = [r for r, _ in sweep if r.spec.fades]
        assert runs
        for r in runs:
            assert r.metrics["policy_events"].get("shed")
            assert r.metrics["policy_events"].get("restore")
            assert r.metrics["final_active"] == 3


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        spec = reseeded(catalog_by_name()["flash-crowd"], 7)
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert a.trace_hash == b.trace_hash
        oa, ob = a.metrics["overload"], b.metrics["overload"]
        assert oa["arrivals"] == ob["arrivals"]
        assert oa["served"] == ob["served"]
        assert oa["rejected"] == ob["rejected"]
        assert oa["ladder_history"] == ob["ladder_history"]
        assert oa["queues"] == ob["queues"]

    def test_different_seeds_differ(self):
        spec = catalog_by_name()["flash-crowd"]
        a = run_scenario(reseeded(spec, 7))
        b = run_scenario(reseeded(spec, 8))
        assert a.metrics["overload"]["arrivals"] != b.metrics["overload"][
            "arrivals"
        ]
        assert a.trace_hash != b.trace_hash
