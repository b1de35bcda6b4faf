"""Per-layer table from a span file written by ``run.py --trace 1``.

Selects missions by name, so one mission of a workload (for example
``nominal`` or ``decoder-swap`` from ``golden-corpus``) can be read on
its own::

    python3 missionbench/report.py .missionbench/spans-golden-corpus-seed0.json.gz --mission nominal
"""

from __future__ import annotations

import argparse
import gzip
import json

from spans import format_table, layer_totals, mission_of, self_times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spans", help="span file (.json.gz)")
    ap.add_argument("--mission", action="append", default=[],
                    help="mission name to keep (repeatable; default all)")
    args = ap.parse_args(argv)
    with gzip.open(args.spans, "rt", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    owner = mission_of(spans)
    keep = set(args.mission) or set(owner)
    roots = [s for s, m in zip(spans, owner) if s[3] < 0 and m in keep]
    if not roots:
        raise SystemExit(f"no traced mission named {sorted(keep)}")
    wall = sum(end - start for _, start, end, _, _ in roots)
    totals = layer_totals(spans, self_times(spans), lambda i: owner[i] in keep)
    print(f"{', '.join(sorted(keep))}: {len(roots)} traced runs, "
          f"{1e3 * wall / len(roots):.1f} ms wall per mission")
    print(format_table(totals, len(roots), wall))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
