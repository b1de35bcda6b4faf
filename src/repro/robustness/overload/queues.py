"""Bounded queues with explicit backpressure and sojourn-time shedding.

Two disciplines cover the demand plane's buffering needs:

- :class:`BoundedQueue` -- a fixed-capacity FIFO whose ``offer`` returns
  an explicit accept/reject signal instead of growing without bound.
  A full queue is *backpressure*: the caller decides whether to drop,
  defer, or push the signal further upstream.  Drop/defer/served
  counters make every decision auditable.

- :class:`CoDelQueue` -- the same bounded FIFO plus a CoDel-style
  (Nichols & Jacobson, "Controlling Queue Delay") sojourn-time shedder:
  when the time items *spend* in the queue has exceeded ``target`` for
  at least one ``interval``, the queue enters a dropping state and
  sheds from the head at increasing frequency
  (``interval / sqrt(drop_count)``) until sojourn recovers.  Head
  dropping is deliberate: the oldest item is the one whose deadline is
  nearest death, and shedding it signals overload to the *oldest*
  traffic first -- standing queues melt instead of persisting at
  full depth, which bounds the latency every *admitted* item sees.

Both queues take a ``clock`` callable (usually ``lambda: sim.now``) so
sojourn times run on simulated time and stay deterministic.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, List, Optional, Tuple

from ...obs.probes import probe as _obs_probe

__all__ = ["BoundedQueue", "CoDelQueue"]


class BoundedQueue:
    """Fixed-capacity FIFO with explicit backpressure signalling.

    ``offer`` never raises and never blocks: it returns ``False`` (and
    counts a drop) when the queue is full.  ``poll`` returns ``None``
    when empty.  ``depth``/``max_depth``/``stats`` expose the occupancy
    the overload invariants assert against.
    """

    def __init__(
        self,
        capacity: int,
        clock: Optional[Callable[[], float]] = None,
        name: str = "queue",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock or (lambda: 0.0)
        self.name = name
        self._items: deque = deque()
        self.offered = 0
        self.accepted = 0
        self.dropped = 0
        self.served = 0
        self.max_depth = 0
        #: ``(enqueue time, item)`` of the last poll, for :meth:`unpoll`
        self._polled: Optional[Tuple[float, Any]] = None
        self._probe = _obs_probe("overload.queue", queue=name)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        """The backpressure signal upstream hops consult before work."""
        return len(self._items) >= self.capacity

    def offer(self, item: Any) -> bool:
        """Enqueue ``item``; ``False`` (+ drop counter) when full."""
        self.offered += 1
        if len(self._items) >= self.capacity:
            self.dropped += 1
            p = self._probe
            if p is not None:
                p.count("dropped")
                p.event(
                    "overload.queue_drop",
                    t=self.clock(),
                    depth=len(self._items),
                )
            return False
        self._items.append((self.clock(), item))
        self.accepted += 1
        depth = len(self._items)
        if depth > self.max_depth:
            self.max_depth = depth
        p = self._probe
        if p is not None:
            p.gauge("depth", depth)
        return True

    def poll(self) -> Optional[Any]:
        """Dequeue the oldest item (``None`` when empty)."""
        got = self.poll_with_sojourn()
        return None if got is None else got[0]

    def poll_with_sojourn(self) -> Optional[Tuple[Any, float]]:
        """Dequeue ``(item, sojourn_seconds)`` (``None`` when empty)."""
        if not self._items:
            return None
        self._polled = self._items.popleft()
        enq_t, item = self._polled
        self.served += 1
        sojourn = self.clock() - enq_t
        p = self._probe
        if p is not None:
            p.observe("sojourn", sojourn)
        return item, sojourn

    def unpoll(self) -> None:
        """Put the item the last poll returned back at the head.

        It keeps its original enqueue time, so its sojourn runs on as if
        it had never left; the poll's ``served`` count is undone.  For a
        consumer that polls first and only then learns it cannot serve.
        """
        if self._polled is None:
            raise RuntimeError(f"{self.name}: no polled item to put back")
        self._items.appendleft(self._polled)
        self._polled = None
        self.served -= 1

    def head_sojourn(self) -> Optional[float]:
        """How long the current head has been waiting (None when empty)."""
        if not self._items:
            return None
        return self.clock() - self._items[0][0]

    def drain(self) -> List[Any]:
        """Remove and return everything queued (counted as served)."""
        out = [item for _t, item in self._items]
        self.served += len(self._items)
        self._items.clear()
        return out

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "depth": len(self._items),
            "max_depth": self.max_depth,
            "offered": self.offered,
            "accepted": self.accepted,
            "dropped": self.dropped,
            "served": self.served,
        }


class CoDelQueue(BoundedQueue):
    """Bounded FIFO + CoDel sojourn-time shedding at dequeue.

    Parameters follow the CoDel control law, scaled for MF-TDMA frames
    rather than packet switching: ``target`` is the acceptable standing
    sojourn (seconds), ``interval`` the window sojourn must exceed it
    before shedding starts.  While shedding, the drop rate grows as
    ``interval / sqrt(n)`` -- the classic square-root control law that
    drives a standing queue back under ``target`` without oscillating.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        capacity: int = 64,
        target: float = 0.5,
        interval: float = 2.0,
        name: str = "codel",
    ) -> None:
        super().__init__(capacity, clock, name=name)
        if target <= 0 or interval <= 0:
            raise ValueError("target and interval must be > 0")
        self.target = target
        self.interval = interval
        self.shed = 0
        #: when sojourn first exceeded target (None = under target)
        self._first_above: Optional[float] = None
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0

    def _ok_to_serve(self, sojourn: float, now: float) -> bool:
        """The CoDel state machine; False = shed the item just polled."""
        if sojourn < self.target or len(self._items) == 0:
            # sojourn recovered: leave the dropping state entirely
            self._first_above = None
            self._dropping = False
            return True
        if self._first_above is None:
            self._first_above = now
            return True
        if not self._dropping:
            if now - self._first_above >= self.interval:
                # one interval continuously above target: start shedding
                self._dropping = True
                self._drop_count = 1
                self._drop_next = now + self.interval / math.sqrt(
                    self._drop_count
                )
                return False
            return True
        if now >= self._drop_next:
            self._drop_count += 1
            self._drop_next = now + self.interval / math.sqrt(self._drop_count)
            return False
        return True

    def poll_with_sojourn(self) -> Optional[Tuple[Any, float]]:
        """Dequeue the oldest item the shedder lets through.

        Items the control law sheds are counted (``shed``) and traced;
        the caller receives the first survivor (or ``None``).
        """
        now = self.clock()
        while self._items:
            got = super().poll_with_sojourn()
            if got is None:
                return None
            item, sojourn = got
            if self._ok_to_serve(sojourn, now):
                return item, sojourn
            self.served -= 1  # it was shed, not served
            self.shed += 1
            self._polled = None
            p = self._probe
            if p is not None:
                p.count("shed")
                p.event(
                    "overload.codel_shed",
                    t=now,
                    sojourn=round(sojourn, 6),
                    depth=len(self._items),
                )
        return None

    def stats(self) -> dict:
        out = super().stats()
        out["shed"] = self.shed
        out["dropping"] = self._dropping
        return out
