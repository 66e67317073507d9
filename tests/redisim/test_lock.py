"""Tests for the Redlock-style distributed mutex and the sequence gate."""

import threading

import pytest

from repro.redisim.errors import LockError
from repro.redisim.farm import RedisimFarm
from repro.redisim.lock import DistributedLock, SequenceGate


class TestFarm:
    def test_quorum_sizes(self):
        assert RedisimFarm(1).quorum == 1
        assert RedisimFarm(3).quorum == 2
        assert RedisimFarm(5).quorum == 3

    def test_partition_and_heal(self):
        farm = RedisimFarm(3)
        farm.partition([0, 2])
        assert len(farm.healthy_instances()) == 1
        farm.heal()
        assert len(farm.healthy_instances()) == 3

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            RedisimFarm(0)

    def test_snapshot_restore(self):
        farm = RedisimFarm(2)
        farm[0].set("k", "v")
        snapshot = farm.snapshot()
        farm.flushall()
        farm.restore(snapshot)
        assert farm[0].get("k") == "v"


class TestDistributedLock:
    def test_acquire_release(self):
        farm = RedisimFarm(3)
        lock = DistributedLock(farm, "key")
        assert lock.try_acquire() is True
        assert lock.held
        lock.release()
        assert not lock.held

    def test_mutual_exclusion(self):
        farm = RedisimFarm(3)
        first = DistributedLock(farm, "key")
        second = DistributedLock(farm, "key")
        assert first.try_acquire() is True
        assert second.try_acquire() is False
        first.release()
        assert second.try_acquire() is True

    def test_acquire_times_out(self):
        farm = RedisimFarm(3)
        holder = DistributedLock(farm, "key")
        holder.acquire()
        blocked = DistributedLock(farm, "key")
        with pytest.raises(LockError):
            blocked.acquire(timeout_s=0.05)

    def test_release_without_hold_rejected(self):
        lock = DistributedLock(RedisimFarm(3), "key")
        with pytest.raises(LockError):
            lock.release()

    def test_survives_minority_failure(self):
        farm = RedisimFarm(3)
        farm.partition([2])
        lock = DistributedLock(farm, "key")
        assert lock.try_acquire() is True
        lock.release()

    def test_fails_on_majority_failure(self):
        farm = RedisimFarm(3)
        farm.partition([1, 2])
        lock = DistributedLock(farm, "key")
        assert lock.try_acquire() is False

    def test_ttl_expiry_frees_lock(self):
        # ttl must clear the drift allowance (ttl*0.01 + 2ms) to be held.
        farm = RedisimFarm(3)
        stuck = DistributedLock(farm, "key", ttl_ms=20)
        stuck.acquire()
        import time

        time.sleep(0.03)
        assert not stuck.held  # validity window lapsed with the TTL
        fresh = DistributedLock(farm, "key")
        assert fresh.try_acquire() is True

    def test_stale_release_cannot_free_new_holder(self):
        farm = RedisimFarm(3)
        stale = DistributedLock(farm, "key", ttl_ms=20)
        stale.acquire()
        import time

        time.sleep(0.03)
        fresh = DistributedLock(farm, "key")
        fresh.acquire()
        stale.release()  # compare-and-delete misses: token changed
        blocked = DistributedLock(farm, "key")
        assert blocked.try_acquire() is False

    def test_context_manager(self):
        farm = RedisimFarm(3)
        with DistributedLock(farm, "key") as lock:
            assert lock.held
        assert DistributedLock(farm, "key").try_acquire() is True


class _TickClock:
    """A deterministic clock: reads advance only when the test says so."""

    def __init__(self, per_call_s: float = 0.0) -> None:
        self.now = 0.0
        self.per_call_s = per_call_s

    def __call__(self) -> float:
        value = self.now
        self.now += self.per_call_s
        return value

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRedlockValidity:
    """Regression: Redlock's drift rules (validity = TTL - elapsed - drift).

    Pre-fix, ``try_acquire`` declared the lock held on any majority grant —
    even when the TTL was smaller than the clock-drift allowance the paper's
    Redlock rules require, so a "held" lock could expire on the instances
    before the holder acted on it.
    """

    def test_ttl_below_drift_margin_is_rejected(self):
        clock = _TickClock()
        farm = RedisimFarm(3, clock=clock)
        # drift allowance = 2*0.01 + 2 = 2.02ms > ttl: never validly held.
        lock = DistributedLock(farm, "key", ttl_ms=2, clock=clock)
        assert lock.try_acquire() is False
        assert not lock.held
        # The rejected round rolled its partial grants back.
        assert all(instance.get("key") is None for instance in farm)

    def test_slow_acquisition_round_eats_validity(self):
        # Every clock read advances 30ms: the 7 reads of a 3-instance round
        # (farm sweeps + the lock's own bracketing) consume the 100ms TTL.
        clock = _TickClock(per_call_s=0.030)
        farm = RedisimFarm(3, clock=clock)
        lock = DistributedLock(farm, "key", ttl_ms=100, clock=clock)
        assert lock.try_acquire() is False
        assert not lock.held

    def test_held_revalidates_remaining_ttl(self):
        clock = _TickClock()
        farm = RedisimFarm(3, clock=clock)
        lock = DistributedLock(farm, "key", ttl_ms=100, clock=clock)
        assert lock.try_acquire() is True
        assert lock.held
        assert lock.remaining_validity_ms() > 0
        clock.advance(0.2)  # beyond the TTL
        assert not lock.held
        assert lock.remaining_validity_ms() == 0.0

    def test_verify_fails_on_majority_loss(self):
        clock = _TickClock()
        farm = RedisimFarm(3, clock=clock)
        lock = DistributedLock(farm, "key", ttl_ms=100, clock=clock)
        assert lock.try_acquire() is True
        farm.partition([0, 1])
        assert lock.verify() is False


class TestSequenceGate:
    def test_turns_advance_in_order(self):
        gate = SequenceGate(RedisimFarm(3), "session")
        gate.wait_for_turn(0)
        gate.complete_turn(0)
        gate.wait_for_turn(1)
        assert gate.current() == 1

    def test_out_of_order_completion_rejected(self):
        gate = SequenceGate(RedisimFarm(3), "session")
        with pytest.raises(LockError):
            gate.complete_turn(3)

    def test_wait_times_out(self):
        gate = SequenceGate(RedisimFarm(3), "session")
        with pytest.raises(LockError):
            gate.wait_for_turn(5, timeout_s=0.05)

    def test_threads_serialise_through_gate(self):
        gate = SequenceGate(RedisimFarm(3), "session")
        order = []

        def worker(positions):
            for position in positions:
                gate.wait_for_turn(position, timeout_s=5)
                order.append(position)
                gate.complete_turn(position)

        threads = [
            threading.Thread(target=worker, args=([1, 2, 5],)),
            threading.Thread(target=worker, args=([0, 3, 4],)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert order == [0, 1, 2, 3, 4, 5]

    def test_reset_rewinds_cursor(self):
        gate = SequenceGate(RedisimFarm(3), "session")
        gate.wait_for_turn(0)
        gate.complete_turn(0)
        gate.reset()
        assert gate.current() == 0
