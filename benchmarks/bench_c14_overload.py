"""C14 -- demand-plane overload control: shed-before-collapse under surge.

Times the four overload missions (:func:`overload_missions`, seed 0),
each run through :func:`run_scenario` next to its same-seed nominal
counterpart, through the full control stack -- ingress admission,
bounded CoDel class queues, per-class deadline budgets, the brownout
ladder, the link-budget-coupled capacity and the servicing circuit
breaker -- and prints the per-mission table: offered vs admitted vs
served load, p0 goodput against the nominal run, brownout ladder
actions and breaker trips.

With ``REPRO_BENCH_JSON=1`` the table is captured into
``BENCH_c14_overload.json``.
"""

from conftest import print_table
from repro.scenarios import (
    catalog_by_name,
    goodput_violations,
    nominal_counterpart,
    overload_missions,
    result_violations,
    run_scenario,
)


def test_overload_shed_before_collapse(benchmark):
    def run():
        return [
            (run_scenario(spec), run_scenario(nominal_counterpart(spec)))
            for spec in overload_missions()
        ]

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    violations = []
    for result, nominal in pairs:
        ov = result.metrics["overload"]
        base_p0 = nominal.metrics["overload"]["served"]["p0"]
        p0_ratio = ov["served"]["p0"] / base_p0 if base_p0 else float("nan")
        viol = (
            result_violations(result)
            + result_violations(nominal)
            + goodput_violations(result, nominal)
        )
        violations += viol
        rows.append(
            [
                result.name,
                result.spec.frames,
                sum(ov["arrivals"].values()),
                sum(ov["admitted"].values()),
                sum(ov["served"].values()),
                f"{p0_ratio:.2f}",
                ov["ladder"]["shed_events"],
                ov["ladder"]["restore_events"],
                ov["breaker"]["trips"],
                len(viol),
            ]
        )
    print_table(
        "demand-plane overload: admission, shedding and p0 goodput per surge",
        [
            "scenario",
            "frames",
            "offered",
            "admitted",
            "served",
            "p0/base",
            "sheds",
            "restores",
            "trips",
            "viol",
        ],
        rows,
    )
    assert all(r.completed and n.completed for r, n in pairs)
    assert violations == []
    # every surge mission actually pushed past capacity and shed load
    assert pairs and all(
        sum(r.metrics["overload"]["rejected"].values()) > 0 for r, _ in pairs
    )


def test_overload_nominal_overhead(benchmark):
    """The clean-traffic control: admission at nominal load rejects
    (almost) nothing and the brownout ladder never engages."""
    spec = nominal_counterpart(catalog_by_name()["flash-crowd"])
    assert spec.surge.multiplier == 1.0
    result = benchmark.pedantic(
        run_scenario, args=(spec,), rounds=1, iterations=1
    )
    ov = result.metrics["overload"]
    offered = sum(ov["arrivals"].values())
    rejected = sum(ov["rejected"].values())
    print(
        f"nominal: {sum(ov['served'].values())}/{offered} served, "
        f"{rejected} rejected, {len(ov['ladder_history'])} ladder actions"
    )
    assert result_violations(result) == []
    assert rejected <= 0.01 * offered
    assert not ov["ladder_history"]
