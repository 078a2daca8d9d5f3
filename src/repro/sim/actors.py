"""Actors and their CPU models.

An :class:`Actor` is anything with an identity that handles deliveries:
replicas, clients, the aom configuration service, switch control planes.
Each actor owns a :class:`Cpu` — a single-server FIFO queue — so that
message processing takes simulated time and actors saturate realistically:
when offered load exceeds service capacity, queues grow and end-to-end
latency inflates exactly as it does on a real server.

Execution model for one delivery:

1. the network hands the handler and its arguments to the actor's CPU
   (:meth:`Actor.execute`) at arrival time ``t``;
2. the handler body runs at virtual time ``start = max(t, cpu_free_at)``;
3. while running, the handler *charges* CPU time for the work it models
   (per-message overhead, crypto operations) via :meth:`Actor.charge`;
4. the CPU is then busy until ``start + charged``; messages the handler
   produced depart at that completion instant, and timers it set count from
   it — the work a handler does is not visible to the outside world before
   the CPU time to do it has elapsed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.sim.engine import EventHandle, Simulator


class Cpu:
    """A single-server FIFO queue attached to one actor.

    Jobs arrive at the current virtual time through :meth:`Actor.execute`.
    If the CPU is idle the job's handler runs immediately and the CPU stays
    busy until the handler's charged cost elapses; otherwise the job waits
    in a FIFO queue of ``(handler, args)`` and runs the instant the CPU
    frees. Queueing delay -- the source of latency inflation under load --
    therefore emerges from the model rather than being scripted.
    """

    def __init__(self):
        self._busy = False
        self._queue: Deque[Tuple[Callable[..., None], tuple]] = deque()
        self.busy_ns = 0
        self.jobs_run = 0

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for the CPU right now."""
        return len(self._queue)


class Actor:
    """Base class for simulated nodes with a CPU and deferred side effects.

    Subclasses implement message handlers and call :meth:`charge` to account
    for modeled work. Side effects requested during a handler (sends via the
    attached network, timers via :meth:`set_timer`) are buffered and released
    at the handler's CPU completion time.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.cpu = Cpu()
        self._charged = 0
        self._in_handler = False
        self._pending_effects: List[Tuple[Callable[..., Any], tuple]] = []

    # ---------------------------------------------------------------- cost

    def charge(self, cost_ns: int) -> None:
        """Account ``cost_ns`` of CPU work to the current handler."""
        if cost_ns < 0:
            raise ValueError("cannot charge negative time")
        self._charged += cost_ns

    # ------------------------------------------------------------- effects

    def defer(self, effect: Callable[..., Any], *args: Any) -> None:
        """Run ``effect(*args)`` at the current handler's completion time.

        Outside a handler the effect runs immediately (completion time is
        "now" when no CPU work is in flight).
        """
        if self._in_handler:
            self._pending_effects.append((effect, args))
        else:
            effect(*args)

    def set_timer(self, delay: int, callback: Callable[..., None], *args: Any) -> "Timer":
        """Arm a timer ``delay`` ns after the current handler completes."""
        timer = Timer(self, delay, callback, args)
        self.defer(timer._arm)
        return timer

    # ------------------------------------------------------------ dispatch

    def execute(self, arrival: int, handler: Callable[..., None], *args: Any) -> None:
        """Run ``handler(*args)`` on this actor's CPU, or queue it while busy.

        ``arrival`` must not be in the future.
        """
        if arrival > self.sim.now:
            raise ValueError("jobs cannot be submitted from the future")
        cpu = self.cpu
        if cpu._busy:
            cpu._queue.append((handler, args))
        else:
            cpu._busy = True
            self._run_job(handler, args)

    def _run_job(self, handler: Callable[..., None], args: tuple) -> None:
        """Run one job and post its effects, then the CPU's release, at its
        completion time."""
        # The CPU runs one job at a time, so no other handler of this
        # actor is in progress: a submit from inside this handler queues.
        self._charged = 0
        self._in_handler = True
        self._pending_effects = effects = []
        try:
            handler(*args)
        finally:
            self._in_handler = False
        cost = self._charged
        cpu = self.cpu
        cpu.busy_ns += cost
        cpu.jobs_run += 1
        sim = self.sim
        completion = sim.now + cost
        for effect, effect_args in effects:
            sim.post_at(completion, effect, *effect_args)
        sim.post_at(completion, self._release_cpu)

    def _release_cpu(self) -> None:
        queue = self.cpu._queue
        if queue:
            self._run_job(*queue.popleft())
        else:
            self.cpu._busy = False

    def execute_now(self, handler: Callable[..., None], *args: Any) -> None:
        """Submit a handler arriving at the current virtual time."""
        self.execute(self.sim.now, handler, *args)


class Timer:
    """A one-shot timer owned by an actor; re-arming means making a new one.

    The underlying engine event is created lazily (at handler completion),
    so a timer can be cancelled before it was ever armed.
    """

    def __init__(self, actor: Actor, delay: int, callback: Callable[..., None], args: tuple):
        self._actor = actor
        self._delay = delay
        self._callback = callback
        self._args = args
        self._handle: Optional[EventHandle] = None
        self._cancelled = False
        self._fired = False

    def _arm(self) -> None:
        if not self._cancelled:
            self._handle = self._actor.sim.schedule(self._delay, self._fire)

    def _fire(self) -> None:
        self._fired = True
        self._actor.execute_now(self._callback, *self._args)

    def cancel(self) -> None:
        """Stop the timer; the callback will not run."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def active(self) -> bool:
        """True until the timer fires or is cancelled."""
        return not self._cancelled and not self._fired
