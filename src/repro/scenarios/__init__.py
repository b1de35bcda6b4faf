"""Mission-scenario conformance engine.

A :class:`~repro.scenarios.spec.ScenarioSpec` declares a whole mission
-- duration, per-carrier traffic mix, fade/SEU/fault schedule,
reconfiguration plan and link budget -- and the runner compiles it onto
the :mod:`repro.sim` kernel, driving the full stack (ground segment,
TC/TM, payload, DSP, coding, FDIR) under one deterministic obs trace.

Three verification layers ride on top:

- the **golden-trace corpus** (:mod:`repro.scenarios.corpus`): frozen
  trace hashes + summary metrics for the canonical missions, with
  readable drift diffs and a ``--regen`` CLI;
- **differential oracles** (:mod:`repro.scenarios.oracles`): batched vs
  scalar decode, modem personality A/B, AD vs BD virtual channels;
- the **seeded soak sweep** (``tests/scenarios/test_soak.py``):
  randomized scenario grids over multiple seeds, checked against the
  cross-cutting invariants in
  :func:`~repro.scenarios.runner.result_violations`.
"""

from .catalog import canonical_scenarios, catalog_by_name, soak_grid
from .catalog import overload_missions
from .corpus import (
    GoldenRecord,
    default_golden_dir,
    diff_records,
    load_corpus,
    record_of,
    regen_corpus,
)
from .oracles import (
    BatchScalarDecodeOracle,
    CdmaBatchScalarOracle,
    ModemABOracle,
    OracleReport,
    VcModeOracle,
    run_default_oracles,
)
from .runner import (
    ScenarioResult,
    ScenarioRunner,
    expected_actions,
    goodput_violations,
    nominal_counterpart,
    result_violations,
    run_scenario,
)
from .spec import (
    ContactSchedule,
    FadeSegment,
    FaultEvent,
    GroundLink,
    LinkBudget,
    ReconfigAction,
    ScenarioError,
    ScenarioSpec,
    SurgeProfile,
    TrafficMix,
)

__all__ = [
    "BatchScalarDecodeOracle",
    "CdmaBatchScalarOracle",
    "ContactSchedule",
    "FadeSegment",
    "FaultEvent",
    "GoldenRecord",
    "GroundLink",
    "LinkBudget",
    "ModemABOracle",
    "OracleReport",
    "ReconfigAction",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "SurgeProfile",
    "TrafficMix",
    "VcModeOracle",
    "canonical_scenarios",
    "catalog_by_name",
    "default_golden_dir",
    "diff_records",
    "expected_actions",
    "goodput_violations",
    "load_corpus",
    "nominal_counterpart",
    "overload_missions",
    "record_of",
    "regen_corpus",
    "result_violations",
    "run_default_oracles",
    "run_scenario",
    "soak_grid",
]
