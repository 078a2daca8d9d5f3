"""The discrete-event engine.

A :class:`Simulator` owns a virtual clock and two binary heaps of pending
events. Events scheduled for the same instant fire in the order they were
scheduled (a monotonically increasing sequence number breaks ties), which
makes whole-system runs bit-for-bit reproducible for a given seed.

The two heaps hold one kind of entry each, both ordered by ``(time, seq)``:

- the timer heap holds ``(time, seq, handle)`` for :meth:`Simulator.schedule`
  and :meth:`Simulator.schedule_at`, which return an :class:`EventHandle`
  (timers, fault schedules: anything that may be cancelled);
- the post heap holds ``(time, seq, callback, args)`` for
  :meth:`Simulator.post_at`, for events nothing cancels (fabric
  deliveries, CPU completions, deferred handler effects, the sequencer's
  multicast). No handle is built.

Both heaps draw ``seq`` from one counter, and the run loop fires whichever
head is lower by ``(time, seq)``, so the total order is the one a single
heap would give: ties fire in scheduling order whichever kind they are.
``seq`` is unique, so entries are ordered by comparing two ints in C and
what follows is never compared.

Cancellation is lazy but short-lived: a cancelled handle drops its
callback and arguments at once, and its entry leaves the timer heap as
soon as it reaches the top, not when its deadline arrives. Clients cancel
almost every retry timer they arm, and all of a client's timers share one
timeout, so a dead timer is gone once every timer armed before it is. The
post heap, which every delivery pushes onto and pops from, never holds a
dead entry, and the timer heap holds few.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.monitor import MetricsRegistry
from repro.sim.randomness import RandomStreams


class EventHandle:
    """A cancellable reference to a scheduled event.

    ``cancel`` is O(1): it marks the handle, and the run loop drops the
    timer-heap entry once it reaches the top of that heap. This matters
    because protocols cancel far more timers (retransmit timers that never
    fire) than they let expire. ``cancel`` releases the callback and
    arguments, so what they reference (a client's retry timer, say) is
    freed at once.
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
        sim._cancels += 1

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
        self._posts: List[Tuple[int, int, Callable[..., None], tuple]] = []
        self._timers: List[Tuple[int, int, EventHandle]] = []
        self._seq = 0
        self._events_processed = 0
        self._cancels = 0

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def live_events(self) -> int:
        """Pending (scheduled, not fired, not cancelled) events right now."""
        return self._seq - self._events_processed - self._cancels

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
        heappush(self._posts, (time, seq, callback, args))

    def _push(self, time: int, callback: Callable[..., None], args: tuple) -> EventHandle:
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        heappush(self._timers, (time, seq, handle))
        return handle

    # ------------------------------------------------------------- queries

    def peek_time(self) -> Optional[int]:
        """Virtual time of the next pending event, or None when idle."""
        timers = self._timers
        while timers and timers[0][2].cancelled:
            heappop(timers)
        posts = self._posts
        if not timers:
            return posts[0][0] if posts else None
        if not posts:
            return timers[0][0]
        return min(timers[0][0], posts[0][0])

    # ------------------------------------------------------------ run loop

    def run(self, until: Optional[int] = None) -> int:
        """Process events until both heaps drain or the time bound is hit.

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
        posts = self._posts
        timers = self._timers
        limit = float("inf") if until is None else until
        while posts or timers:
            if timers:
                entry = timers[0]
                handle = entry[2]
                if handle.cancelled:
                    heappop(timers)
                    continue
                if not posts or entry < posts[0]:
                    time = entry[0]
                    if time > limit:
                        break
                    heappop(timers)
                    handle._sim = None  # fired: a later cancel() is a no-op
                    self.now = time
                    handle.callback(*handle.args)
                    self._events_processed += 1
                    continue
            time, _, callback, args = posts[0]
            if time > limit:
                break
            heappop(posts)
            self.now = time
            callback(*args)
            self._events_processed += 1
        if until is not None and self.now < until:
            self.now = until
        if self.telemetry is not None:
            self.metrics.set_gauge("sim.virtual_time_ns", self.now)
            self.metrics.set_gauge("sim.events_processed", self._events_processed)
            self.metrics.set_gauge("sim.pending_events", self.live_events)
        return self._events_processed - start

    def run_for(self, duration: int) -> int:
        """Run for ``duration`` ns of virtual time from the current instant."""
        return self.run(until=self.now + duration)
