"""C13 -- traffic-plane FDIR: detection latency + recovery time per fault class.

Times the catalog's FDIR missions (one per traffic-plane fault class
plus the fault-free control, seed 0) through the mission runner over the
live 3-carrier regenerative chain and prints the per-fault-class FDIR
table: frames from fault onset to first alarm/action (detection
latency), frames from onset to the clean tail at the expected width
(recovery time), the FDIR actions taken, the delivery rate and the
final service width.

Each mission's ``metrics`` carry the same record the stack's probes
count -- arbiter actions, policy sheds/restores, alarm trips per
carrier -- and :func:`repro.scenarios.result_violations` checks that
every injected fault was detected in time and recovered autonomously.
"""

from conftest import print_table
from repro.scenarios import catalog_by_name, result_violations, run_scenario

FDIR_MISSIONS = (
    "nominal",
    "lock-loss",
    "interference",
    "cfo-step",
    "decoder-seu",
    "demod-latchup",
    "double-latchup",
    "rain-fade",
)


def _onset(spec):
    starts = [ev.frame for ev in spec.faults] + [seg.start for seg in spec.fades]
    return min(starts) if starts else None


def _clean_tail_start(ok_history):
    """First frame of the trailing run of clean frames (None if the last
    frame failed)."""
    for f in range(len(ok_history) - 1, -1, -1):
        if not ok_history[f]:
            return f + 1 if f + 1 < len(ok_history) else None
    return 0


def test_fdir_detection_and_recovery(benchmark):
    catalog = catalog_by_name()

    def run():
        return [run_scenario(catalog[name]) for name in FDIR_MISSIONS]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for r in results:
        m = r.metrics
        onset = _onset(r.spec)
        detect = (
            r.first_detection - onset
            if onset is not None and r.first_detection is not None
            else None
        )
        tail = _clean_tail_start(r.frame_ok_history)
        recover = tail - onset if onset is not None and tail is not None else None
        kinds = sorted(set(m["actions"]) | set(m["policy_events"]))
        rows.append(
            [
                r.name,
                r.spec.frames,
                "-" if detect is None else detect,
                "-" if recover is None else recover,
                ",".join(kinds) or "-",
                f"{m['delivered'] / m['attempted']:.2f}",
                m["final_active"],
                len(result_violations(r)),
            ]
        )
    print_table(
        "traffic-plane FDIR: per-fault-class detection latency and recovery",
        [
            "scenario",
            "frames",
            "detect (fr)",
            "recover (fr)",
            "actions",
            "delivery",
            "active",
            "viol",
        ],
        rows,
    )
    # every fault class: detected, recovered, zero invariant violations
    assert all(r.completed for r in results)
    assert [v for r in results for v in result_violations(r)] == []
    faulted = [r for r in results if _onset(r.spec) is not None]
    assert faulted and all(
        r.first_detection is not None for r in faulted
    ), "every injected fault must be detected"
    # detection is prompt: step faults are caught within 6 frames of
    # onset; the fade ramp grows from zero dB at onset, so its "latency"
    # is dominated by how long the fade takes to matter, not by the
    # monitors -- allow the ramp time
    for r in faulted:
        bound = 12 if r.spec.fades else 6
        latency = r.first_detection - _onset(r.spec)
        assert latency <= bound, (r.name, latency)


def test_fdir_steady_state_overhead(benchmark):
    """The fault-free control: monitoring the live chain is cheap and
    delivers everything."""
    spec = catalog_by_name()["nominal"]
    result = benchmark.pedantic(
        lambda: run_scenario(spec), rounds=1, iterations=1
    )
    m = result.metrics
    print(
        f"nominal: {m['delivered']}/{m['attempted']} blocks delivered, "
        f"{sum(m['actions'].values())} FDIR actions, "
        f"{sum(m['alarm_trips'].values())} alarms"
    )
    assert m["delivered"] == m["attempted"]
    assert not m["actions"]
