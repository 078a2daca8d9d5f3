"""The discrete-event engine.

A :class:`Simulator` owns a virtual clock and a binary heap of pending
events. Events scheduled for the same instant fire in the order they were
scheduled (a monotonically increasing sequence number breaks ties), which
makes whole-system runs bit-for-bit reproducible for a given seed.

The heap holds two kinds of entry, both ordered by ``(time, seq)``:

- ``(time, seq, None, handle)`` for :meth:`Simulator.schedule` and
  :meth:`Simulator.schedule_at`, which return an :class:`EventHandle`
  (timers, fault schedules: anything that may be cancelled);
- ``(time, seq, callback, args)`` for :meth:`Simulator.post_at`, for
  events nothing cancels (fabric deliveries, CPU completions, deferred
  handler effects, the sequencer's multicast). No handle is built.

Both kinds draw ``seq`` from one counter, so ties fire in scheduling order
whichever kind they are. ``seq`` is unique, so the heap orders entries by
comparing two ints in C and never compares what follows. Cancellation is
lazy: a cancelled handle stays in the heap and is skipped when it reaches
the top, but it drops its callback and arguments at cancel, so a dead
entry holds nothing else alive.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.monitor import MetricsRegistry
from repro.sim.randomness import RandomStreams


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the heap entry stays in place but is skipped
    when popped. This keeps ``cancel`` O(1), which matters because
    protocols cancel far more timers (retransmit timers that never fire)
    than they let expire. ``cancel`` releases the callback and arguments,
    so what they reference (a client's retry timer, say) is freed at once
    rather than when the entry finally reaches the top of the heap.
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
        # None once cancelled (see cancel).
        self.callback: Optional[Callable[..., None]] = callback
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
        self.callback = None
        self.args = ()
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
        self.metrics = MetricsRegistry()
        # Optional repro.telemetry.Telemetry: spans, gauges and histograms
        # are recorded only while it is set.
        self.telemetry = None
        self._heap: List[Tuple[int, int, Any, Any]] = []
        self._seq = 0
        self._events_processed = 0
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

    def post_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at an absolute virtual time, uncancellably.

        Like :meth:`schedule_at` but returns no handle, so it costs one
        heap entry and nothing else.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heappush(self._heap, (time, seq, callback, args))

    def _push(self, time: int, callback: Callable[..., None], args: tuple) -> EventHandle:
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        handle = EventHandle(time, seq, callback, args, self)
        heappush(self._heap, (time, seq, None, handle))
        return handle

    # ------------------------------------------------------------- queries

    def peek_time(self) -> Optional[int]:
        """Virtual time of the next pending event, or None when idle."""
        heap = self._heap
        while heap and heap[0][2] is None and heap[0][3].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    # ------------------------------------------------------------ run loop

    def run(self, until: Optional[int] = None) -> int:
        """Process events until the heap drains or the time bound is hit.

        Parameters
        ----------
        until:
            Absolute virtual time bound. Events at exactly ``until`` still
            fire; the clock never advances past it, and is left parked at
            ``until`` on return so successive ``run`` calls observe
            continuous time.

        Returns the number of events processed by this call.
        """
        start = self._events_processed
        heap = self._heap
        limit = float("inf") if until is None else until
        while heap:
            entry = heappop(heap)
            time, _, callback, args = entry
            if callback is None and args.cancelled:
                continue
            if time > limit:
                heappush(heap, entry)
                break
            if callback is None:  # a handle entry: args is the EventHandle
                handle = args
                handle._sim = None  # fired: a later cancel() is a no-op
                callback = handle.callback
                args = handle.args
            self.now = time
            self._live -= 1
            callback(*args)
            self._events_processed += 1
        if until is not None and self.now < until:
            self.now = until
        if self.telemetry is not None:
            self.metrics.set_gauge("sim.virtual_time_ns", self.now)
            self.metrics.set_gauge("sim.events_processed", self._events_processed)
            self.metrics.set_gauge("sim.pending_events", self._live)
        return self._events_processed - start

    def run_for(self, duration: int) -> int:
        """Run for ``duration`` ns of virtual time from the current instant."""
        return self.run(until=self.now + duration)
