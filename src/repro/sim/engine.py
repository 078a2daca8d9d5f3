"""The discrete-event engine.

A :class:`Simulator` owns a virtual clock and a binary heap of pending
events. Events scheduled for the same instant fire in the order they were
scheduled (a monotonically increasing sequence number breaks ties), which
makes whole-system runs bit-for-bit reproducible for a given seed.

Heap entries are ``(time, seq, handle)`` tuples: ``seq`` is unique, so the
heap orders entries by comparing two ints in C and never compares the
handles themselves. Cancellation is lazy: a cancelled handle stays in the
heap and is skipped when it reaches the top.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.randomness import RandomStreams


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the heap entry stays in place but is skipped
    when popped. This keeps ``cancel`` O(1), which matters because
    protocols cancel far more timers (retransmit timers that never fire)
    than they let expire.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        sim: "Simulator",
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # The owning simulator while the event is pending; cleared when
        # the event fires or is cancelled.
        self._sim: Optional["Simulator"] = sim

    def cancel(self) -> None:
        """Prevent the event from firing.

        Safe to call multiple times, and a no-op once the event has fired.
        """
        sim = self._sim
        if sim is None:
            return
        self._sim = None
        self.cancelled = True
        sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} seq={self.seq} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all random streams drawn through :attr:`streams`.
        Two simulators built with the same seed and the same scheduling
        sequence produce identical executions.
    """

    def __init__(self, seed: int = 0):
        self.now: int = 0
        self.streams = RandomStreams(seed)
        # Optional repro.telemetry.Telemetry sink. Every instrumented
        # layer reads this attribute and publishes only when it is set,
        # so a run without telemetry pays one None check per hook.
        self.telemetry = None
        self._heap: List[Tuple[int, int, EventHandle]] = []
        self._seq = 0
        self._events_processed = 0
        self._stopped = False
        # Live = scheduled and neither fired nor cancelled. Maintained
        # incrementally so telemetry never scans the heap.
        self._live = 0

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def live_events(self) -> int:
        """Pending (scheduled, not fired, not cancelled) events right now."""
        return self._live

    # ---------------------------------------------------------- scheduling

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._push(self.now + delay, callback, args)

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        return self._push(time, callback, args)

    def _push(self, time: int, callback: Callable[..., None], args: tuple) -> EventHandle:
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        handle = EventHandle(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def stop(self) -> None:
        """Halt the run loop after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------- queries

    def peek_time(self) -> Optional[int]:
        """Virtual time of the next pending event, or None when idle."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # ------------------------------------------------------------ run loop

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events until the heap drains or a bound is hit.

        Parameters
        ----------
        until:
            Absolute virtual time bound. Events at exactly ``until`` still
            fire; the clock never advances past it. When a later event
            remains pending the clock is left parked at ``until`` so
            successive ``run`` calls observe continuous time.
        max_events:
            Safety valve against runaway event loops.

        Returns the number of events processed by this call.
        """
        processed = 0
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        park = False  # advance the clock to ``until`` on exit
        while True:
            if self._stopped:
                park = True
                break
            if max_events is not None and processed >= max_events:
                break
            if not heap:
                park = True
                break
            entry = pop(heap)
            event = entry[2]
            if event.cancelled:
                continue
            if until is not None and entry[0] > until:
                heapq.heappush(heap, entry)
                park = True
                break
            self.now = entry[0]
            event._sim = None  # fired: a later cancel() is a no-op
            self._live -= 1
            event.callback(*event.args)
            processed += 1
            self._events_processed += 1
        if park and until is not None and self.now < until:
            self.now = until
        tel = self.telemetry
        if tel is not None:
            tel.metrics.set_gauge("sim.virtual_time_ns", self.now)
            tel.metrics.set_gauge("sim.events_processed", self._events_processed)
            tel.metrics.set_gauge("sim.pending_events", self._live)
        return processed

    def run_for(self, duration: int, max_events: Optional[int] = None) -> int:
        """Run for ``duration`` ns of virtual time from the current instant."""
        return self.run(until=self.now + duration, max_events=max_events)
