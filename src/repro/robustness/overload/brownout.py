"""Circuit breaker and brownout ladder for demand-plane overload.

Two complementary protections sit *behind* admission control:

- :class:`CircuitBreaker` wraps a downstream processor (decoder stage,
  gateway executor).  Consecutive failures trip it OPEN so callers
  fail fast instead of piling retries onto a struggling component; a
  cooldown later it goes HALF_OPEN and probes with a limited number of
  trial requests before fully CLOSING again.

- :class:`BrownoutLadder` converts a scalar *pressure* signal (queue
  depth / capacity utilisation in [0, 1]) into graduated class
  shedding: as pressure climbs past each rung's shed threshold the
  next-lowest priority class is turned away at admission; as pressure
  falls below the rung's (strictly lower) restore threshold *and* has
  stayed there for a dwell period, the class is re-admitted.  The
  hysteresis gap plus the dwell is what prevents flapping -- the same
  discipline :class:`~repro.robustness.fdir.degraded.DegradedModePolicy`
  applies to carrier shedding, applied here to service classes.  The
  top class (``p0``) is never on the ladder: real-time/control traffic
  survives any brownout, matching the FDIR policy's protection of
  carrier 0.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...obs.probes import probe as _obs_probe

__all__ = ["CircuitBreaker", "BrownoutLadder"]


class CircuitBreaker:
    """CLOSED -> OPEN -> HALF_OPEN breaker on simulated time.

    State is advanced lazily from the clock, like the token buckets:
    no background process, fully deterministic.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        clock: Callable[[], float],
        failure_threshold: int = 3,
        cooldown: float = 10.0,
        half_open_probes: int = 2,
        name: str = "breaker",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be > 0")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.half_open_probes = half_open_probes
        self.name = name
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.trips = 0
        self.fast_rejects = 0
        self.transitions: List[Tuple[float, str]] = []
        self._obs = _obs_probe("overload.breaker", breaker=name)

    def _set_state(self, state: str) -> None:
        if state == self._state:
            return
        now = self.clock()
        self._state = state
        self.transitions.append((now, state))
        p = self._obs
        if p is not None:
            p.count(f"to_{state.replace('-', '_')}")
            p.event("overload.breaker", t=now, breaker=self.name, state=state)

    @property
    def state(self) -> str:
        """Current state, advancing OPEN -> HALF_OPEN on cooldown expiry."""
        if (
            self._state == self.OPEN
            and self.clock() - self._opened_at >= self.cooldown
        ):
            self._probes_in_flight = 0
            self._probe_successes = 0
            self._set_state(self.HALF_OPEN)
        return self._state

    def allow(self) -> bool:
        """May a request proceed to the protected component right now?"""
        state = self.state
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN:
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            self.fast_rejects += 1
            return False
        self.fast_rejects += 1
        return False

    def record_success(self) -> None:
        state = self.state
        self._consecutive_failures = 0
        if state == self.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self._set_state(self.CLOSED)

    def record_failure(self) -> None:
        state = self.state
        if state == self.HALF_OPEN:
            # a failed probe re-opens immediately: the component is
            # still sick, restart the cooldown.
            self._opened_at = self.clock()
            self.trips += 1
            self._set_state(self.OPEN)
            return
        self._consecutive_failures += 1
        if (
            state == self.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._opened_at = self.clock()
            self.trips += 1
            self._set_state(self.OPEN)

    def stats(self) -> dict:
        return {
            "state": self.state,
            "trips": self.trips,
            "fast_rejects": self.fast_rejects,
            "consecutive_failures": self._consecutive_failures,
        }


class BrownoutLadder:
    """Pressure -> graduated service-class shedding with hysteresis.

    ``rungs`` lists the sheddable classes from *first shed* to *last
    shed* (default: ``p2`` then ``p1``; ``p0`` never appears).  Each
    rung ``i`` sheds when pressure >= its shed threshold and restores
    when pressure has stayed < its restore threshold for ``dwell``
    seconds.  Thresholds are auto-spaced so deeper rungs require
    strictly more pressure, guaranteeing shed/restore order is
    monotone: the ladder always sheds lowest-priority-first and
    restores highest-pressure-rung-first.

    Call :meth:`update` with the current pressure whenever it changes
    (per frame in the scenario runner); it returns the list of
    ``("shed"|"restore", class)`` actions taken, which the caller
    applies to an :class:`~repro.robustness.overload.admission.
    AdmissionController` via ``shed``/``restore``.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        rungs: Sequence[str] = ("p2", "p1"),
        shed_threshold: float = 0.85,
        restore_threshold: float = 0.6,
        rung_step: float = 0.07,
        dwell: float = 5.0,
    ) -> None:
        if not rungs:
            raise ValueError("need at least one rung")
        if not (0 < restore_threshold < shed_threshold <= 1.5):
            raise ValueError(
                "need 0 < restore_threshold < shed_threshold"
            )
        if rung_step < 0 or dwell < 0:
            raise ValueError("rung_step and dwell must be >= 0")
        self.clock = clock
        self.rungs = tuple(rungs)
        self.dwell = dwell
        self._thresholds: Dict[str, Tuple[float, float]] = {}
        for i, cls_name in enumerate(self.rungs):
            self._thresholds[cls_name] = (
                shed_threshold + i * rung_step,
                restore_threshold + i * rung_step,
            )
        self._shed: set = set()
        #: per-class time at which pressure last rose to/above the
        #: restore threshold (restore requires dwell below it)
        self._below_since: Dict[str, Optional[float]] = {
            c: None for c in self.rungs
        }
        self.shed_events = 0
        self.restore_events = 0
        self.history: List[Tuple[float, str, str]] = []
        self._obs = _obs_probe("overload.brownout")

    @property
    def shed_classes(self) -> List[str]:
        """Currently shed classes, in rung (shed) order."""
        return [c for c in self.rungs if c in self._shed]

    def level(self) -> int:
        """How many rungs deep the brownout currently is."""
        return len(self._shed)

    def update(self, pressure: float) -> List[Tuple[str, str]]:
        """Advance the ladder; returns ``(action, class)`` taken now."""
        now = self.clock()
        actions: List[Tuple[str, str]] = []
        # Shed pass: walk rungs first-shed-first so one deep pressure
        # spike sheds in priority order within a single update.
        for cls_name in self.rungs:
            shed_at, restore_at = self._thresholds[cls_name]
            if cls_name not in self._shed:
                if pressure >= shed_at:
                    self._shed.add(cls_name)
                    self._below_since[cls_name] = None
                    self.shed_events += 1
                    actions.append(("shed", cls_name))
            else:
                if pressure < restore_at:
                    since = self._below_since[cls_name]
                    if since is None:
                        self._below_since[cls_name] = now
                    elif now - since >= self.dwell:
                        self._shed.discard(cls_name)
                        self._below_since[cls_name] = None
                        self.restore_events += 1
                        actions.append(("restore", cls_name))
                else:
                    # pressure back above restore threshold: dwell resets
                    self._below_since[cls_name] = None
        p = self._obs
        for action, cls_name in actions:
            self.history.append((now, action, cls_name))
            if p is not None:
                p.count(f"{action}_{cls_name}")
                p.event(
                    "overload.brownout",
                    t=now,
                    action=action,
                    cls=cls_name,
                    pressure=round(pressure, 6),
                )
        if p is not None:
            p.gauge("level", len(self._shed))
        return actions

    def stats(self) -> dict:
        return {
            "level": len(self._shed),
            "shed_classes": self.shed_classes,
            "shed_events": self.shed_events,
            "restore_events": self.restore_events,
        }
