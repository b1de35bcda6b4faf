"""Runner-level behaviour: determinism regression, invariant reporting,
exactly-once TC accounting, and the no-unseeded-RNG and no-wall-clock
source audits."""

import copy
import dataclasses
import re
from pathlib import Path

import pytest

from repro.scenarios import (
    FadeSegment,
    FaultEvent,
    ScenarioError,
    ScenarioSpec,
    SurgeProfile,
    expected_actions,
    goodput_violations,
    nominal_counterpart,
    result_violations,
    run_scenario,
)

pytestmark = pytest.mark.scenario

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _tiny(name="tiny-runner", **kw):
    return ScenarioSpec(**{"name": name, "frames": 6, "recovery_tail": 2, **kw})


def test_same_seed_same_trace_hash_regression():
    """The nondeterminism-audit regression: two same-seed scenario runs
    must produce byte-identical canonical traces."""
    spec = _tiny()
    a = run_scenario(spec)
    b = run_scenario(spec)
    assert a.trace_hash == b.trace_hash
    assert a.kind_counts == b.kind_counts
    assert a.metrics == b.metrics


def test_different_seed_different_trace():
    a = run_scenario(_tiny())
    b = run_scenario(_tiny(seed=123))
    assert a.trace_hash != b.trace_hash


def test_invalid_spec_is_rejected_before_running():
    with pytest.raises(ScenarioError):
        run_scenario(ScenarioSpec(name="", frames=0))


def test_clean_run_has_no_violations():
    result = run_scenario(_tiny())
    assert result.completed
    assert result_violations(result) == []
    assert result.metrics["delivered"] == result.metrics["attempted"]


def test_violation_messages_name_the_broken_invariant():
    result = run_scenario(_tiny())
    rigged = dataclasses.replace(
        result, metrics={**result.metrics, "corrupt": 2}
    )
    assert any("silent corruption" in v for v in result_violations(rigged))
    rigged = dataclasses.replace(
        result, metrics={**result.metrics, "final_active": 1}
    )
    assert any("no recovery" in v for v in result_violations(rigged))
    rigged = dataclasses.replace(result, completed=False, error="Boom: x")
    assert any("did not complete" in v for v in result_violations(rigged))
    # a fault-free mission must take no FDIR action
    rigged = dataclasses.replace(
        result,
        metrics={
            **result.metrics,
            "actions": {"reacquire": 1},
            "policy_events": {"shed": 1},
        },
    )
    assert result_violations(rigged) == [
        "forbidden FDIR action 'reacquire' happened",
        "forbidden FDIR action 'shed' happened",
    ]
    # a lock loss must be detected promptly and reacquired
    blank = _tiny(faults=(FaultEvent(frame=1, kind="blank", carrier=1),))
    rigged = dataclasses.replace(result, spec=blank, first_detection=1)
    assert result_violations(rigged) == [
        "expected FDIR action 'reacquire' never happened"
    ]
    rigged = dataclasses.replace(
        rigged,
        metrics={**result.metrics, "actions": {"reacquire": 1}},
        first_detection=None,
    )
    assert any("late detection" in v for v in result_violations(rigged))
    rigged = dataclasses.replace(rigged, first_detection=8)
    assert any("late detection" in v for v in result_violations(rigged))


@pytest.fixture(scope="module")
def surge_pair():
    """A short clean surge mission and its nominal counterpart."""
    spec = _tiny(
        "tiny-surge",
        frames=16,
        surge=SurgeProfile(start=2, end=6, multiplier=5.0),
    )
    return run_scenario(spec), run_scenario(nominal_counterpart(spec))


def _rig(path, change):
    """Rig: replace the ``metrics["overload"]`` value at a key path."""

    def rig(ov):
        *head, last = path
        for key in head:
            ov = ov[key]
        ov[last] = change(ov[last])

    return rig


def _set(path, value):
    return _rig(path, lambda _old: value)


def _bump(path):
    return _rig(path, lambda n: n + 1)


def _serviced(ov):
    """Rig: a clean breaker record for a mission with a service fault."""
    ov["breaker"].update(state="closed", trips=2, fast_rejects=4)


def _then(*rigs):
    def rig(ov):
        for r in rigs:
            r(ov)

    return rig


_SERVICE_FAULT = {"faults": (FaultEvent(frame=3, kind="service", duration=2),)}
_NOMINAL = {"surge": SurgeProfile(start=2, end=6, multiplier=1.0)}
_HISTORY = [[1.0, "shed", "p2"], [2.0, "restore", "p2"], [3.0, "shed", "p2"]]

#: (spec changes, rig on the overload summary, words naming the invariant)
_OVERLOAD_RIGS = {
    "conservation-admission": (
        {}, _bump(("rejected", "p1")), "p1: admitted+rejected != arrivals"
    ),
    "conservation-queue-offered": (
        {}, _bump(("queues", "p1", "offered")), "queue offered != admitted"
    ),
    "conservation-queue-dropped": (
        {}, _bump(("queues", "p1", "dropped")), "accepted+dropped != offered"
    ),
    "conservation-queue-shed": (
        {}, _bump(("queues", "p1", "shed")), "served+shed+depth != accepted"
    ),
    "conservation-failed": (
        {}, _bump(("failed", "p0")), "served+expired+failed != queue served"
    ),
    "depth-bound": (
        {}, _set(("queues", "p1", "max_depth"), 65), "exceeded its bound"
    ),
    "starved-p0": ({}, _set(("served", "p0"), 0), "p0 starved"),
    "starved-p1": ({}, _set(("served", "p1"), 0), "p1 starved"),
    "starved-p2": ({}, _set(("served", "p2"), 0), "p2 starved"),
    "surge-absorbed": (
        {},
        _set(("rejected",), {"p0": 0, "p1": 0, "p2": 0}),
        "absorbed without shedding",
    ),
    "ladder-left-deep": (
        {}, _set(("ladder", "level"), 1), "ladder still 1 deep"
    ),
    "flapping": ({}, _set(("ladder_history",), _HISTORY), "p2 ladder flapped"),
    "sojourn-over-budget": (
        {},
        _set(("max_sojourn", "p2"), 2.5),
        "p2: served sojourn 2.5 s over its deadline budget 2.0 s",
    ),
    "breaker-not-closed": (
        _SERVICE_FAULT,
        _then(_serviced, _set(("breaker", "state"), "open")),
        "breaker ended open, not closed",
    ),
    "breaker-never-tripped": (
        _SERVICE_FAULT,
        _then(_serviced, _set(("breaker", "trips"), 0)),
        "breaker tripped 0 times, not 1..3",
    ),
    "breaker-flapping": (
        _SERVICE_FAULT,
        _then(_serviced, _set(("breaker", "trips"), 4)),
        "breaker tripped 4 times, not 1..3",
    ),
    "breaker-never-failed-fast": (
        _SERVICE_FAULT,
        _then(_serviced, _set(("breaker", "fast_rejects"), 0)),
        "never failed a request fast",
    ),
    "nominal-over-rejection": (
        _NOMINAL,
        _set(("rejected", "p2"), 5),
        "nominal control rejected",
    ),
    "nominal-ladder": (
        _NOMINAL,
        _set(("ladder_history",), [[1.0, "shed", "p2"]]),
        "nominal control engaged the brownout ladder",
    ),
}


def _rigged(result, spec_changes, rig):
    ov = copy.deepcopy(result.metrics["overload"])
    rig(ov)
    return dataclasses.replace(
        result,
        spec=dataclasses.replace(result.spec, **spec_changes),
        metrics={**result.metrics, "overload": ov},
    )


def test_surge_pair_is_clean(surge_pair):
    result, nominal = surge_pair
    assert result_violations(result) == []
    assert result_violations(nominal) == []
    assert goodput_violations(result, nominal) == []
    # a clean service-fault record and a clean nominal record pass too
    assert result_violations(_rigged(result, _SERVICE_FAULT, _serviced)) == []
    assert result_violations(_rigged(nominal, _NOMINAL, lambda ov: None)) == []


@pytest.mark.parametrize("case", list(_OVERLOAD_RIGS))
def test_overload_violations_name_the_broken_invariant(surge_pair, case):
    result, _ = surge_pair
    spec_changes, rig, words = _OVERLOAD_RIGS[case]
    violations = result_violations(_rigged(result, spec_changes, rig))
    assert any(words in v for v in violations), violations


def test_p0_goodput_floor_is_a_two_run_check(surge_pair):
    result, nominal = surge_pair
    p0 = result.metrics["overload"]["served"]["p0"]
    # just above the floor passes, just below fails
    for base, ok in ((int(p0 / 0.9), True), (int(p0 / 0.9) + 2, False)):
        rigged = _rigged(nominal, {}, _set(("served", "p0"), base))
        got = goodput_violations(result, rigged)
        assert (got == []) is ok, got
    # a service fault lowers the floor to 0.7
    rigged = _rigged(nominal, {}, _set(("served", "p0"), int(p0 / 0.8)))
    assert goodput_violations(result, rigged)
    faulted = _rigged(result, _SERVICE_FAULT, lambda ov: None)
    assert goodput_violations(faulted, rigged) == []
    assert "p0 goodput" in goodput_violations(result, rigged)[0]


def test_service_fault_trips_the_breaker_on_the_demand_plane_only():
    """A service fault needs a surge; it fails requests and trips the
    breaker, but feeds neither severity, the FDIR action rules nor the
    detection bound."""
    fault = FaultEvent(frame=3, kind="service", duration=2)
    with pytest.raises(ScenarioError, match="needs a surge"):
        _tiny(faults=(fault,)).validate()
    spec = _tiny(
        frames=16,
        faults=(fault,),
        surge=SurgeProfile(start=2, end=6, multiplier=5.0),
    )
    assert all(spec.severity(f) == 0.0 for f in range(spec.frames))
    assert expected_actions(spec) == expected_actions(_tiny())
    result = run_scenario(spec)
    assert result_violations(result) == []
    ov = result.metrics["overload"]
    assert sum(ov["failed"].values()) > 0
    assert ov["breaker"]["trips"] >= 1 and ov["breaker"]["fast_rejects"] >= 1


def test_action_expectations_follow_faults_and_link_budget():
    def fade(peak_db):
        return (FadeSegment(start=1, end=5, peak_db=peak_db),)

    # only a fade deep enough to breach the shed margin must shed
    assert expected_actions(_tiny(fades=fade(8.0))) == (
        {"shed", "restore"},
        {"isolate", "terminal"},
    )
    assert expected_actions(_tiny(fades=fade(1.0))) == (
        set(),
        {"isolate", "terminal"},
    )
    latchup = FaultEvent(frame=1, kind="latchup.demod", carrier=0)
    assert expected_actions(_tiny(faults=(latchup,))) == (
        {"isolate"},
        {"terminal", "shed"},
    )
    assert expected_actions(_tiny(faults=(latchup, latchup))) == (
        {"isolate", "terminal"},
        set(),
    )
    # several classes: required is the union, forbidden the intersection
    blank = FaultEvent(frame=1, kind="blank", carrier=1)
    assert expected_actions(_tiny(faults=(blank,), fades=fade(8.0))) == (
        {"reacquire", "shed", "restore"},
        {"isolate", "terminal"},
    )


def test_exactly_once_over_lossy_ground_link():
    """TC retransmissions on a lossy link never double-execute."""
    from repro.scenarios import catalog_by_name

    result = run_scenario(catalog_by_name()["lossy-ground"])
    m = result.metrics
    assert result_violations(result) == []
    assert m["gateway"]["executed"] == m["ncc"]["tc_issued"]
    assert m["reconfigs"] == [
        {
            "function": "decod.turbo",
            "protocol": "tftp",
            "success": True,
            "rolled_back": False,
        }
    ]
    # the swap really landed on board
    assert m["personalities"]["decod0"] == "decod.turbo"


def test_decoder_seu_recovers_via_fdir():
    spec = ScenarioSpec(
        name="seu-quick",
        frames=20,
        faults=(FaultEvent(frame=6, kind="seu.decoder", magnitude=200),),
    )
    result = run_scenario(spec)
    assert result_violations(result) == []
    assert result.metrics["actions"].get("decoder_reload", 0) >= 1


def test_no_unseeded_rng_in_src():
    """Nondeterminism audit: every RNG in ``src/`` must be seeded.

    Module-level ``np.random.*`` convenience calls and argument-less
    ``default_rng()`` would silently break trace-hash reproducibility;
    all randomness must flow through ``repro.sim.rng`` streams or an
    explicitly seeded generator.
    """
    forbidden = re.compile(
        r"np\.random\.(random|rand|randn|randint|choice|shuffle|seed|"
        r"normal|standard_normal|uniform|permutation)\s*\("
        r"|default_rng\(\s*\)"
        r"|np\.random\.RandomState"
    )
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if forbidden.search(line.split("#", 1)[0]):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, "unseeded RNG use in src/:\n" + "\n".join(offenders)


#: modules allowed to read the wall clock (metrics-only timers)
WALL_CLOCK_ALLOWLIST: frozenset = frozenset()


def test_no_wall_clock_in_src():
    """Nondeterminism audit: ``src/`` never reads the wall clock.

    Wall-clock readings are noise that must stay out of traces and
    results; the only legitimate use is a metrics-only stage timer,
    which belongs on :data:`WALL_CLOCK_ALLOWLIST` (empty today).
    """
    forbidden = re.compile(
        r"\b(time\.(perf_counter|time|monotonic)|datetime\.now)\b"
        r"|from\s+time\s+import\s+.*\b(perf_counter|time|monotonic)\b"
    )
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in WALL_CLOCK_ALLOWLIST:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if forbidden.search(line.split("#", 1)[0]):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, "wall-clock use in src/:\n" + "\n".join(offenders)
