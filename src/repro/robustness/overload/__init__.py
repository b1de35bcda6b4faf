"""Demand-plane overload control: shed load early, never collapse.

The command plane (:mod:`repro.robustness.transactions`) and the
hardware-fault plane (:mod:`repro.robustness.fdir`) are hardened by the
earlier robustness layers; this package closes the remaining gap named
by the scalable-payload literature: **offered load exceeding on-board
capacity**.  The defense is layered, cheapest first:

1. :mod:`.admission` -- per-priority-class token buckets at the
   NCC/gateway ingress, rates fed by the
   :class:`~repro.ncc.traffic.ServiceMix` demand forecast and the live
   link-budget capacity estimate.  Excess load is rejected at the door
   for the cost of a counter tick.
2. :mod:`.queues` -- bounded FIFOs with explicit backpressure
   (``offer`` -> bool), plus a CoDel sojourn-time shedder for the
   MF-TDMA burst queue: standing queues melt instead of persisting.
3. :mod:`.deadline` -- end-to-end deadline budgets; every hop checks
   remaining budget and sheds expired work instead of processing it.
4. :mod:`.brownout` -- a circuit breaker for sick downstream
   components and a brownout ladder that sheds low-priority service
   classes first and restores with hysteresis + dwell (no flapping),
   composing with the FDIR ``DegradedModePolicy``'s carrier shedding.

The mission runner (:mod:`repro.scenarios.runner`) composes these into
the demand plane of every surge mission and judges it;
:func:`repro.scenarios.overload_missions` holds the four attacks.

All decisions emit ``overload.*`` metrics and trace events through
:mod:`repro.obs`.  See ``docs/robustness.md`` for the full semantics.
"""

from .admission import PRIORITY_CLASSES, AdmissionController, TokenBucket
from .brownout import BrownoutLadder, CircuitBreaker
from .deadline import Deadline, DeadlineExceeded
from .queues import BoundedQueue, CoDelQueue

__all__ = [
    "AdmissionController",
    "BoundedQueue",
    "BrownoutLadder",
    "CircuitBreaker",
    "CoDelQueue",
    "Deadline",
    "DeadlineExceeded",
    "PRIORITY_CLASSES",
    "TokenBucket",
]
