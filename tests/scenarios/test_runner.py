"""Runner-level behaviour: determinism regression, invariant reporting,
exactly-once TC accounting, and the no-unseeded-RNG and no-wall-clock
source audits."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.scenarios import (
    FadeSegment,
    FaultEvent,
    ScenarioError,
    ScenarioSpec,
    expected_actions,
    result_violations,
    run_scenario,
)

pytestmark = pytest.mark.scenario

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _tiny(name="tiny-runner", **kw):
    return ScenarioSpec(name=name, frames=6, recovery_tail=2, **kw)


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
