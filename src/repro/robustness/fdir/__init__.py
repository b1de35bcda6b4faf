"""Traffic-plane FDIR for the regenerative payload.

Fault **D**etection, **I**solation and **R**ecovery on the traffic
plane: the on-board demodulators and decoder of the Fig. 2 regenerative
payload expose per-burst health observables (lock metrics, blind SNR,
CRC outcomes) that a transparent payload simply does not have; this
package turns them into autonomous recovery:

- :mod:`.health` -- per-carrier health monitors with hysteresis
  (detection);
- :mod:`.arbiter` -- the recovery ladder: reacquire -> reload ->
  personality fallback -> equipment isolation/failover (isolation +
  recovery);
- :mod:`.degraded` -- link-budget-driven carrier shedding under deep
  fades (graceful degradation);
- :mod:`.chaos` -- the traffic-plane world (payload, DSP chain, cold
  spares, watchdog and the three layers above) that the mission runner
  (:mod:`repro.scenarios`) drives and judges.

Import note: like :mod:`repro.robustness.chaos`, this package is kept
out of the :mod:`repro.robustness` namespace exports so that importing
the robustness layer never drags in the DSP/payload stack.
"""

from .arbiter import DEFAULT_FALLBACKS, LADDER, FdirArbiter
from .degraded import DegradedModePolicy
from .health import (
    BurstHealth,
    CarrierHealthMonitor,
    CrcFailureTracker,
    HealthMonitorBank,
    HealthThresholds,
)

__all__ = [
    "BurstHealth",
    "CarrierHealthMonitor",
    "CrcFailureTracker",
    "DEFAULT_FALLBACKS",
    "DegradedModePolicy",
    "FdirArbiter",
    "HealthMonitorBank",
    "HealthThresholds",
    "LADDER",
]
