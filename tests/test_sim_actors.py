"""Tests for the actor/CPU model: queueing, charges, deferred effects."""

import pytest

from repro.sim import Actor, Simulator
from repro.sim.clock import us


class Worker(Actor):
    def __init__(self, sim):
        super().__init__(sim, "worker")
        self.handled = []

    def handle(self, tag, cost):
        self.handled.append((tag, self.sim.now))
        self.charge(cost)


class TestCpuQueueing:
    def test_serial_jobs_queue(self):
        sim = Simulator()
        worker = Worker(sim)
        for tag in ("a", "b", "c"):
            worker.execute(0, worker.handle, tag, us(10))
        sim.schedule(0, lambda: None)
        sim.run()
        # Handlers start when the CPU frees: 0, 10us, 20us.
        assert [t for _, t in worker.handled] == [0, us(10), us(20)]
        assert worker.cpu.busy_ns == us(30)
        assert worker.cpu.jobs_run == 3

    def test_idle_gap_resets_queue(self):
        sim = Simulator()
        worker = Worker(sim)
        worker.execute(0, worker.handle, "a", us(5))
        sim.schedule(us(100), worker.execute_now, worker.handle, "b", us(5))
        sim.run()
        assert [t for _, t in worker.handled] == [0, us(100)]

    def test_future_submit_rejected(self):
        sim = Simulator()
        worker = Worker(sim)
        with pytest.raises(ValueError):
            worker.execute(100, worker.handle, "a", 0)

    def test_negative_charge_rejected(self):
        sim = Simulator()
        worker = Worker(sim)
        with pytest.raises(ValueError):
            worker.charge(-5)

    def test_queue_depth_tracked(self):
        sim = Simulator()
        worker = Worker(sim)
        for i in range(5):
            worker.execute(0, worker.handle, i, us(1))
        assert worker.cpu.queue_depth == 4
        sim.run()
        assert worker.cpu.queue_depth == 0


class TestDeferredEffects:
    def test_effects_fire_at_completion(self):
        sim = Simulator()
        worker = Worker(sim)
        fired = []

        def handler():
            worker.charge(us(10))
            worker.defer(lambda: fired.append(sim.now))

        worker.execute(0, handler)
        sim.run()
        assert fired == [us(10)]

    def test_effect_outside_handler_is_immediate(self):
        sim = Simulator()
        worker = Worker(sim)
        fired = []
        worker.defer(lambda: fired.append(True))
        assert fired == [True]

    def test_timer_counts_from_completion(self):
        sim = Simulator()
        worker = Worker(sim)
        fired = []

        def handler():
            worker.charge(us(10))
            worker.set_timer(us(5), lambda: fired.append(sim.now))

        worker.execute(0, handler)
        sim.run()
        assert fired == [us(15)]

    def test_timer_cancel_before_arm(self):
        sim = Simulator()
        worker = Worker(sim)
        fired = []

        def handler():
            worker.charge(us(10))
            timer = worker.set_timer(us(5), lambda: fired.append(True))
            timer.cancel()

        worker.execute(0, handler)
        sim.run()
        assert fired == []

    def test_timer_cancel_after_arm(self):
        sim = Simulator()
        worker = Worker(sim)
        fired = []
        timers = []

        def handler():
            timers.append(worker.set_timer(us(50), lambda: fired.append(True)))

        worker.execute(0, handler)
        sim.schedule(us(10), lambda: timers[0].cancel())
        sim.run()
        assert fired == []
        assert not timers[0].active

    def test_timer_active_lifecycle(self):
        sim = Simulator()
        worker = Worker(sim)
        timers = []

        def handler():
            timers.append(worker.set_timer(us(5), lambda: None))

        worker.execute(0, handler)
        assert timers == [] or timers[0].active
        sim.run()
        assert not timers[0].active  # fired

    def test_timer_callback_runs_through_cpu(self):
        sim = Simulator()
        worker = Worker(sim)

        def handler():
            worker.set_timer(us(5), worker.handle, "timer", us(3))

        worker.execute(0, handler)
        sim.run()
        assert worker.handled == [("timer", us(5))]
        assert worker.cpu.busy_ns == us(3)

    def test_nested_job_queues_behind_outer_charge_and_effects(self):
        # A handler's own execute_now queues behind it on the busy CPU: the
        # outer handler keeps its whole charge and its effects, and the
        # inner job runs once the outer one completes.
        sim = Simulator()
        worker = Worker(sim)
        fired = []

        def inner():
            worker.charge(5)

        def outer():
            worker.charge(100)
            worker.execute_now(inner)
            worker.charge(100)
            worker.defer(lambda: fired.append(sim.now))

        worker.execute(0, outer)
        sim.run()
        assert worker.cpu.busy_ns == 205
        assert worker.cpu.jobs_run == 2
        assert fired == [200]
