"""Mission benchmark: carrier-frames/s of the regenerative payload.

One *mission* is one :class:`repro.scenarios.ScenarioSpec` run through
:func:`repro.scenarios.run_scenario`.  A workload is a list of missions
generated from ``--seed`` (see ``workloads.py``); the benchmark warms up
on one mission, times the world build, then runs whole passes over the
list for about ``--seconds`` seconds in this one single-threaded process.

Every mission run is checked: no ``result_violations``, the same trace
hash on every repeat and, for ``golden-corpus`` at the default seed, the
committed golden hash.  Any failure makes the exit code 1.

End-to-end times are in reference-host seconds: each timed call's wall
time is scaled by a host-speed probe run around it (``hostprobe.py``),
because this host's speed drifts by more than any usable bound.  The
printed table gives the wall-clock figures next to them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under a :class:`spans.SpanRecorder`, checks
that both give the same trace hashes, prints the per-layer table, writes
the spans to ``.missionbench/`` and prints the per-layer metrics.  The
last line of standard output is one JSON object either way.

Run from the repository root::

    python3 missionbench/run.py --workload uplink-wide --seed 0 --seconds 36 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".missionbench"
GOLDEN_DIR = ROOT / "tests" / "scenarios" / "golden"

#: BLAS/OpenMP pool sizes pinned before numpy is imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: world builds timed per run; ``setup_s`` is their median
SETUP_REPEATS = 15


@dataclass
class MissionRun:
    """One timed ``run_scenario`` call and its correctness verdict."""

    name: str
    carrier_frames: int
    wall_s: float
    #: wall time in reference-host seconds (see ``hostprobe.py``)
    ref_s: float
    trace_hash: str
    attempted: int
    delivered: int
    problems: List[str]


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"missionbench: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"missionbench: imported repro from {repro.__file__}")


def run_mission(spec, probe, recorder=None) -> MissionRun:
    from repro.scenarios import result_violations, run_scenario

    try:
        if recorder is None:
            result, wall, ref = probe.timed(run_scenario, spec)
        else:
            result, wall, ref = probe.timed(recorder.mission, spec.name, run_scenario, spec)
    except Exception as exc:  # a crashed mission is a failed mission
        return MissionRun(spec.name, 0, 0.0, 0.0, "", 0, 0,
                          [f"raised {type(exc).__name__}: {exc}"])
    m = result.metrics
    return MissionRun(
        spec.name,
        spec.frames * spec.num_carriers,
        wall,
        ref,
        result.trace_hash,
        m["attempted"],
        m["delivered"],
        result_violations(result),
    )


def time_setup(spec, probe) -> Tuple[float, float]:
    """Median (wall, reference-host) seconds of the runner's world build
    for ``spec``'s shape."""
    from repro.robustness.fdir.chaos import build_traffic_world

    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        _, wall, ref = probe.timed(
            lambda: build_traffic_world(
                spec.seed,
                num_carriers=spec.num_carriers,
                base_cn_db=spec.link.base_cn_db,
                down_cn_db=spec.link.down_cn_db,
                required_ber=spec.link.required_ber,
            )
        )
        walls.append(wall)
        refs.append(ref)
    return statistics.median(walls), statistics.median(refs)


def run_passes(specs, probe, seconds: float, recorders: list) -> List[List[MissionRun]]:
    """Whole passes over ``specs``, cycling through ``recorders`` (``None``
    = untraced) one pass each, while the next pass is expected to end
    within ``seconds``; every recorder gets at least one pass.  Returns
    the runs made under each recorder."""
    runs: List[List[MissionRun]] = [[] for _ in recorders]
    start = perf_counter()
    pass_s = 0.0
    passes = 0
    while passes < len(recorders) or perf_counter() - start + pass_s <= seconds:
        t0 = perf_counter()
        slot = passes % len(recorders)
        rec = recorders[slot]
        if rec is None:
            runs[slot].extend(run_mission(s, probe) for s in specs)
        else:
            with rec:
                runs[slot].extend(run_mission(s, probe, rec) for s in specs)
        pass_s = perf_counter() - t0
        passes += 1
    return runs


def check(runs: List[MissionRun], golden: Dict[str, Optional[str]]) -> List[str]:
    """Mark each run failed in place; return one line per failure."""
    first: Dict[str, str] = {}
    failures = []
    for r in runs:
        want = first.setdefault(r.name, golden.get(r.name) or r.trace_hash)
        if r.name in golden and golden[r.name] is None:
            r.problems.append("no golden record")
        elif r.trace_hash != want:
            r.problems.append(f"trace hash {r.trace_hash[:12]} != {want[:12]}")
        failures.extend(f"{r.name}: {p}" for p in r.problems)
    return failures


def throughput(runs: List[MissionRun], wall: bool = False) -> float:
    """Carrier-frames per reference-host second (per wall second if
    ``wall``) of one pass over the workload, each distinct mission taken
    at its median time; the median keeps a mission timed across a change
    of host speed from swaying the figure."""
    times: Dict[str, List[float]] = {}
    frames: Dict[str, int] = {}
    for r in runs:
        times.setdefault(r.name, []).append(r.wall_s if wall else r.ref_s)
        frames[r.name] = r.carrier_frames
    return sum(frames.values()) / sum(statistics.median(t) for t in times.values())


def end_to_end(runs: List[MissionRun], setup_ref_s: float) -> Dict[str, dict]:
    return {
        "carrier_frames_per_s": {"value": throughput(runs), "unit": "carrier-frames/s"},
        "mission_s.p50": {"value": statistics.median(r.ref_s for r in runs), "unit": "s"},
        "setup_s": {"value": setup_ref_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "block_delivery_ratio": {
            "value": sum(r.delivered for r in runs) / sum(r.attempted for r in runs),
            "unit": "ratio",
        },
        "mission_ok_ratio": {
            "value": 1.0 - sum(1 for r in runs if r.problems) / len(runs),
            "unit": "ratio",
        },
    }


def layer_report(recorder, workload: str, untraced: List[MissionRun],
                 traced: List[MissionRun]) -> Dict[str, dict]:
    """Per-layer metrics of the traced passes, with a printed table."""
    from spans import LAYERS, RUNNER, format_table, layer_totals, per_layer_metrics, self_times

    spans = recorder.spans
    roots = [s for s in spans if s[3] < 0]
    wall = sum(end - start for _, start, end, _, _ in roots)
    totals = layer_totals(spans, self_times(spans))
    closure = sum(row["self_s"] for row in totals.values())
    if abs(closure - wall) > 1e-6 * wall or any(s[0] != RUNNER for s in roots):
        raise RuntimeError(f"span tree broken: self times sum {closure} != wall {wall}")
    metrics = per_layer_metrics(totals, len(traced), wall)
    traced_cf, plain_cf = throughput(traced), throughput(untraced)
    metrics["trace.carrier_frames_per_s"] = {"value": traced_cf, "unit": "carrier-frames/s"}
    metrics["trace.overhead"] = {"value": 1.0 - traced_cf / plain_cf, "unit": "ratio"}

    for layer in LAYERS:
        if totals[layer.name]["calls"] == 0 and workload in layer.workloads:
            print(f"missionbench: layer {layer.name} recorded no calls", file=sys.stderr)
    print(f"per-layer self time, {workload}: {len(traced)} traced missions, "
          f"{wall:.3f} s wall")
    print(format_table(totals, len(traced), wall))
    print(f"  tracing overhead: {metrics['trace.overhead']['value']:.1%} of "
          f"carrier-frames/s ({traced_cf:.0f} traced vs {plain_cf:.0f} untraced)")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_program()
    from hostprobe import HostProbe
    from spans import SpanRecorder
    from workloads import WORKLOADS, golden_hashes

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    specs = WORKLOADS[args.workload](args.seed)
    golden = golden_hashes(args.workload, args.seed, GOLDEN_DIR)

    probe = HostProbe()
    warm = run_mission(specs[0], probe)  # fills the repro.caching design tables
    setup_wall, setup_ref = time_setup(specs[0], probe)
    gc.collect()
    recorder = SpanRecorder() if args.trace else None
    recorders = [None, recorder] if args.trace else [None]
    untraced, *rest = run_passes(specs, probe, args.seconds, recorders)
    traced = rest[0] if rest else []
    runs = [warm] + untraced + traced
    failures = check(runs, golden)

    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if args.trace:
        metrics = layer_report(recorder, args.workload, untraced, traced)
        OUT_DIR.mkdir(exist_ok=True)
        recorder.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")
    else:
        metrics = end_to_end(untraced, setup_ref)
        walls = {
            "carrier_frames_per_s": throughput(untraced, wall=True),
            "mission_s.p50": statistics.median(r.wall_s for r in untraced),
            "setup_s": setup_wall,
        }
        print(f"  {'metric':22} {'value':>12} {'unit':18} wall-clock")
        for name, m in metrics.items():
            wall = f"{walls[name]:12.6g}" if name in walls else ""
            print(f"  {name:22} {m['value']:12.6g} {m['unit']:18} {wall}")
        print(f"  ({len(untraced)} missions timed, {len(specs)} per pass)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r.problems),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
