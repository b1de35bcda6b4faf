"""Shared helpers for the reproduction benchmarks.

Each benchmark regenerates one table/figure/claim of the paper (see
DESIGN.md §4 for the index).  Benchmarks print the paper-vs-measured
rows so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
experiment log, and assert the qualitative *shape* the paper claims.
"""

import json
import os
import sys

import numpy as np
import pytest

from repro import obs
from repro.net import Link, Node
from repro.sim import RngRegistry, Simulator

# Some benchmarks time a kernel against the reference implementation its
# equivalence suite keeps in the ``tests`` package; make that package
# importable whatever the working directory.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.append(_REPO_ROOT)

# ---------------------------------------------------------------------------
# machine-readable results (REPRO_BENCH_JSON=1)
#
# Every benchmark module gets one BENCH_<name>.json next to the run:
# the tables it printed (same rows the experiment log shows) plus the
# outcome and duration of each of its tests.  Off by default so plain
# runs write nothing.
# ---------------------------------------------------------------------------

_BENCH_JSON = os.environ.get("REPRO_BENCH_JSON", "") in ("1", "true", "yes")
_BENCH_RECORDS: dict = {}


def _bench_record(module: str) -> dict:
    rec = _BENCH_RECORDS.get(module)
    if rec is None:
        rec = {"module": module, "tables": [], "tests": []}
        _BENCH_RECORDS[module] = rec
    return rec


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def pytest_runtest_logreport(report):
    if not _BENCH_JSON or report.when != "call":
        return
    path = report.nodeid.split("::", 1)[0]
    module = os.path.splitext(os.path.basename(path))[0]
    if not module.startswith("bench"):
        return
    _bench_record(module)["tests"].append(
        {
            "test": report.nodeid.split("::", 1)[-1],
            "outcome": report.outcome,
            "duration_s": round(report.duration, 6),
        }
    )


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_JSON:
        return
    for module, record in sorted(_BENCH_RECORDS.items()):
        name = module[len("bench_"):] if module.startswith("bench_") else module
        with open(f"BENCH_{name}.json", "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")


@pytest.fixture
def rng_registry():
    """A fresh deterministic RNG registry per benchmark."""
    return RngRegistry(seed=2003)


@pytest.fixture(scope="session", autouse=True)
def metrics_snapshot():
    """Optionally observe the whole benchmark run (REPRO_OBS=1).

    Off by default so timings stay at seed speed.  When enabled, an
    observability session wraps the entire benchmark run and the final
    ``Registry.export()`` is written next to the timings (default
    ``BENCH_METRICS.json``; override with ``REPRO_OBS_SNAPSHOT``).
    Diffing two snapshots explains *why* a timing moved -- e.g. a
    retransmission-count jump behind a transfer-time regression.  See
    docs/observability.md.
    """
    if os.environ.get("REPRO_OBS", "") not in ("1", "true", "yes"):
        yield None
        return
    path = os.environ.get("REPRO_OBS_SNAPSHOT", "BENCH_METRICS.json")
    with obs.session(tracer=obs.Tracer(capacity=1)) as (reg, _):
        yield reg
        payload = {"enabled": True, "metrics": reg.export()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def geo_pair(delay=0.25, rate=1e6, ber=0.0, rng=None):
    """A simulator with NCC and satellite nodes joined by a GEO link."""
    sim = Simulator()
    ground = Node(sim, "ncc", 1)
    space = Node(sim, "sat", 2)
    link = Link(sim, delay=delay, rate_bps=rate, ber=ber, rng=rng)
    link.attach(ground)
    link.attach(space)
    return sim, ground, space, link


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Render a compact experiment table to stdout.

    With ``REPRO_BENCH_JSON=1`` the table is also captured into the
    calling benchmark module's ``BENCH_<name>.json``.
    """
    if _BENCH_JSON:
        module = sys._getframe(1).f_globals.get("__name__", "bench")
        module = module.rsplit(".", 1)[-1]
        _bench_record(module)["tables"].append(
            {
                "title": title,
                "header": [str(h) for h in header],
                "rows": [[_jsonable(c) for c in row] for row in rows],
            }
        )
    print(f"\n== {title}")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    line = " | ".join(str(h).rjust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print(" | ".join(str(c).rjust(w) for c, w in zip(row, widths)))
