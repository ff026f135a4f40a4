"""Unit tests for FCFS resources, the CPU meter and mutexes."""

import pytest

from repro.sim import (CpuMeter, Delay, Mutex, ProcessKilled, Resource,
                       Simulator, Use)


def test_resource_grants_immediately_when_free():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")

    def proc():
        yield from cpu.use(5.0)
        return sim.now

    assert sim.run_process(proc()) == 5.0


def test_resource_serializes_capacity_one():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    finish = {}

    def proc(tag):
        yield from cpu.use(10.0)
        finish[tag] = sim.now

    sim.spawn(proc("a"))
    sim.spawn(proc("b"))
    sim.run()
    assert finish == {"a": 10.0, "b": 20.0}


def test_resource_fifo_ordering():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    order = []

    def proc(tag):
        yield from cpu.use(1.0)
        order.append(tag)

    for tag in range(5):
        sim.spawn(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    disk = Resource(sim, capacity=2)
    finish = {}

    def proc(tag):
        yield from disk.use(10.0)
        finish[tag] = sim.now

    for tag in ("a", "b", "c"):
        sim.spawn(proc(tag))
    sim.run()
    assert finish == {"a": 10.0, "b": 10.0, "c": 20.0}


def test_release_without_acquire_is_an_error():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        cpu.release()


def test_resource_released_on_exception_via_use():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)

    def bad():
        try:
            gen = cpu.use(10.0)
            yield from gen
        finally:
            pass

    def killer():
        yield Delay(5)
        handle.kill()

    handle = sim.spawn(bad())
    sim.spawn(killer())
    sim.run()
    assert cpu.in_use == 0  # the finally inside use() released it


def test_utilization_accounting():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)

    def proc():
        yield from cpu.use(30.0)
        yield Delay(70.0)

    sim.run_process(proc())
    assert cpu.utilization() == pytest.approx(0.3)


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_cpu_meter_batches_charges():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    meter = CpuMeter(cpu, chunk_ms=10.0)

    def proc():
        for _ in range(25):
            yield from meter.charge(1.0)
        yield from meter.flush()
        return sim.now

    # 25 ms of work paid in 10+10+5 chunks.
    assert sim.run_process(proc()) == 25.0
    assert cpu.total_acquisitions == 3


def test_cpu_meter_flush_empty_is_noop():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    meter = CpuMeter(cpu, chunk_ms=10.0)

    def proc():
        yield from meter.flush()
        return sim.now

    assert sim.run_process(proc()) == 0.0
    assert cpu.total_acquisitions == 0


def test_mutex_mutual_exclusion():
    sim = Simulator()
    mutex = Mutex(sim)
    trace = []

    def proc(tag):
        yield from mutex.acquire()
        trace.append((tag, "in", sim.now))
        yield Delay(5)
        trace.append((tag, "out", sim.now))
        mutex.release()

    sim.spawn(proc("a"))
    sim.spawn(proc("b"))
    sim.run()
    assert trace == [("a", "in", 0), ("a", "out", 5),
                     ("b", "in", 5), ("b", "out", 10)]


def test_mutex_locked_flag():
    sim = Simulator()
    mutex = Mutex(sim)

    def proc():
        assert not mutex.locked
        yield from mutex.acquire()
        assert mutex.locked
        mutex.release()
        assert not mutex.locked

    sim.run_process(proc())


# -- kill safety --------------------------------------------------------------
#
# A process killed at its resource wait (the chaos-kill path: the fleet
# reaps a dead reorganizer worker and the sim keeps running) must leak
# neither its queue entry nor a just-granted slot — otherwise the
# resource wedges for every later user.

def test_kill_while_queued_does_not_wedge_resource():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish = {}

    def proc(tag, duration):
        yield from cpu.use(duration)
        finish[tag] = sim.now

    sim.spawn(proc("holder", 50.0))
    victim = sim.spawn(proc("victim", 10.0))
    sim.spawn(proc("survivor", 10.0))
    sim.call_later(20.0, victim.kill)
    sim.run()
    # The victim's queue entry is withdrawn: the slot freed at t=50 goes
    # straight to the survivor, and the resource ends idle.
    assert finish == {"holder": 50.0, "survivor": 60.0}
    assert cpu.in_use == 0
    assert cpu.queue_length == 0


def test_kill_after_grant_before_resume_releases_slot():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish = {}

    def proc(tag, duration):
        yield from cpu.use(duration)
        finish[tag] = sim.now

    sim.spawn(proc("holder", 50.0))
    victim = sim.spawn(proc("victim", 10.0))
    sim.spawn(proc("survivor", 10.0))
    # release() pre-grants the slot to the victim's gate at t=50; the
    # kill lands in the same instant, before the victim resumes.
    sim.call_later(50.0, victim.kill)
    sim.run()
    assert finish == {"holder": 50.0, "survivor": 60.0}
    assert cpu.in_use == 0
    assert cpu.queue_length == 0


def test_kill_while_queued_on_acquire_path():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish = {}

    def holder():
        yield from cpu.use(30.0)

    def via_acquire(tag):
        yield from cpu.acquire()
        try:
            yield Delay(10.0)
        finally:
            cpu.release()
        finish[tag] = sim.now

    sim.spawn(holder())
    victim = sim.spawn(via_acquire("victim"))
    sim.spawn(via_acquire("survivor"))
    sim.call_later(10.0, victim.kill)
    sim.run()
    assert finish == {"survivor": 40.0}
    assert cpu.in_use == 0
    assert cpu.queue_length == 0


# -- the kernel-served Use command ---------------------------------------------
#
# ``yield Use(resource, dt)`` hands the whole hold to the kernel.  Each
# kill case below checks the resource's bookkeeping against the FCFS
# trace worked out by hand in its comments.

def _user(sim, cpu, tag, duration, finish, killed):
    try:
        yield Use(cpu, duration)
    except ProcessKilled:
        killed.append((tag, sim.now))
        raise
    finish[tag] = sim.now


def test_use_rejects_a_negative_hold():
    sim = Simulator()
    with pytest.raises(ValueError):
        Use(Resource(sim), -1.0)


def test_use_kill_while_queued():
    # t=0   holder granted (acq 1); victim, survivor queue (length 2)
    # t=20  victim killed: leaves the queue (length 1), no grant
    # t=50  holder releases -> survivor granted (acq 2), holds to 60
    # The CPU is busy without a gap over [0, 60].
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish, killed, queue_after_kill = {}, [], []
    sim.spawn(_user(sim, cpu, "holder", 50.0, finish, killed), name="h")
    victim = sim.spawn(_user(sim, cpu, "victim", 10.0, finish, killed),
                       name="v")
    sim.spawn(_user(sim, cpu, "survivor", 10.0, finish, killed), name="s")

    def kill():
        victim.kill()
        queue_after_kill.append(cpu.queue_length)
    sim.call_later(20.0, kill)
    sim.run()
    assert killed == [("victim", 20.0)]
    assert queue_after_kill == [1]
    assert finish == {"holder": 50.0, "survivor": 60.0}
    assert cpu.total_busy_time == 60.0
    assert cpu.total_acquisitions == 2
    assert (cpu.in_use, cpu.queue_length) == (0, 0)


def test_use_kill_after_grant_before_hold_starts():
    # t=0   holder granted (acq 1); victim, survivor queue
    # t=50  holder's hold ends: release grants the victim (acq 2) and
    #       schedules its wakeup; the holder then runs on and kills the
    #       victim before that wakeup: the slot passes to the survivor
    #       (acq 3), who holds it over [50, 60].  The victim's wakeup
    #       still dispatches, as a no-op.
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish, killed, seen = {}, [], []

    def holder():
        yield Use(cpu, 50.0)
        seen.append((cpu.in_use, cpu.queue_length, cpu.total_acquisitions))
        victim.kill()
        seen.append((cpu.in_use, cpu.queue_length, cpu.total_acquisitions))
        finish["holder"] = sim.now

    sim.spawn(holder(), name="h")
    victim = sim.spawn(_user(sim, cpu, "victim", 10.0, finish, killed),
                       name="v")
    sim.spawn(_user(sim, cpu, "survivor", 10.0, finish, killed), name="s")
    sim.run()
    # Victim granted with the survivor still queued; then the survivor
    # holds the slot with nobody queued.
    assert seen == [(1, 1, 2), (1, 0, 3)]
    assert killed == [("victim", 50.0)]
    assert finish == {"holder": 50.0, "survivor": 60.0}
    assert cpu.total_busy_time == 60.0
    assert cpu.total_acquisitions == 3
    assert (cpu.in_use, cpu.queue_length) == (0, 0)


def test_use_kill_mid_hold():
    # t=0   victim granted (acq 1), hold to 50; survivor queues
    # t=20  victim killed mid-hold: the slot is released before the kill
    #       reaches the generator (busy 0..20) and goes to the survivor
    #       (acq 2), who holds it over [20, 30]
    # t=50  the victim's hold timer still dispatches, as a no-op
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish, killed, in_use_at_kill = {}, [], []

    def victim_body():
        try:
            yield Use(cpu, 50.0)
        except ProcessKilled:
            in_use_at_kill.append((cpu.in_use, cpu.queue_length))
            raise

    victim = sim.spawn(victim_body(), name="v")
    sim.spawn(_user(sim, cpu, "survivor", 10.0, finish, killed), name="s")
    sim.call_later(20.0, victim.kill)
    sim.run()
    # At the throw the slot already belongs to the survivor.
    assert in_use_at_kill == [(1, 0)]
    assert finish == {"survivor": 30.0}
    assert sim.now == 50.0
    assert cpu.total_busy_time == 30.0
    assert cpu.total_acquisitions == 2
    assert (cpu.in_use, cpu.queue_length) == (0, 0)
