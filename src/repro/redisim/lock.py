"""A Redlock-style distributed mutex over a redisim farm.

ER-pi enforces the event order of each replayed interleaving with "a mutex
with a shared key managed by a Redis server" (paper section 4.3).  This module
provides exactly that: ``DistributedLock`` is the single-key mutex, and
``SequenceGate`` builds on it to release replica workers strictly in the
interleaving's event order.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Callable, Optional

from repro.redisim.errors import InstanceDownError, LockError
from repro.redisim.farm import RedisimFarm


class DistributedLock:
    """Redlock over N instances: SET key token NX PX on a majority wins.

    Release is the safe compare-and-delete so a holder can never free a lock
    a later holder re-acquired after expiry.

    Validity follows the Redlock rules: an acquisition only counts when the
    lock's remaining lifetime — the TTL minus the time the acquisition round
    itself took, minus the clock-drift allowance ``ttl * drift_factor + 2ms``
    — is positive.  A majority grant obtained too slowly (or with a TTL
    smaller than the drift allowance) is rolled back, not held: the keys
    could expire on the instances before the holder acts on them.  ``held``
    re-validates the remaining validity window on every read, so a holder
    that outlived its lease observes ``held == False`` instead of acting on
    an expired lock.
    """

    def __init__(
        self,
        farm: RedisimFarm,
        key: str,
        ttl_ms: int = 30_000,
        retry_delay_s: float = 0.0005,
        drift_factor: float = 0.01,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._farm = farm
        self._key = key
        self._ttl_ms = ttl_ms
        self._retry_delay_s = retry_delay_s
        self._drift_factor = drift_factor
        self._clock = clock or time.monotonic
        self._token: Optional[str] = None
        self._validity_deadline = 0.0

    @property
    def key(self) -> str:
        return self._key

    @property
    def drift_ms(self) -> float:
        """Redlock's clock-drift allowance for this TTL (ttl*factor + 2ms)."""
        return self._ttl_ms * self._drift_factor + 2.0

    @property
    def held(self) -> bool:
        """True iff the token is set *and* the validity window still runs."""
        return self._token is not None and self._clock() < self._validity_deadline

    def remaining_validity_ms(self) -> float:
        """How much of the validity window is left (0 when not held)."""
        if self._token is None:
            return 0.0
        return max((self._validity_deadline - self._clock()) * 1000.0, 0.0)

    def try_acquire(self) -> bool:
        """One acquisition round; True iff a majority granted the lock and
        the validity window (TTL - elapsed - drift) is still positive."""
        token = uuid.uuid4().hex
        started = self._clock()
        granted = 0
        for instance in self._farm:
            try:
                if instance.set(self._key, token, nx=True, px=self._ttl_ms):
                    granted += 1
            except InstanceDownError:
                continue
        elapsed_ms = (self._clock() - started) * 1000.0
        validity_ms = self._ttl_ms - elapsed_ms - self.drift_ms
        if granted >= self._farm.quorum and validity_ms > 0:
            self._token = token
            self._validity_deadline = started + validity_ms / 1000.0
            return True
        # Failed round (no quorum, or the round ate the validity window):
        # roll back partial grants so we don't deadlock peers.
        self._release_token(token)
        return False

    def verify(self) -> bool:
        """Re-validate against the farm: a quorum still holds our token with
        more remaining TTL than the drift allowance, and the local validity
        window has not lapsed either."""
        if not self.held:
            return False
        confirmed = 0
        for instance in self._farm:
            try:
                if instance.get(self._key) == self._token:
                    ttl = instance.ttl_ms(self._key)
                    if ttl is None or ttl > self.drift_ms:
                        confirmed += 1
            except InstanceDownError:
                continue
        return confirmed >= self._farm.quorum

    def acquire(self, timeout_s: float = 5.0) -> None:
        """Acquire with retries; raises :class:`LockError` on timeout."""
        deadline = time.monotonic() + timeout_s
        while True:
            if self.try_acquire():
                return
            if time.monotonic() >= deadline:
                raise LockError(f"could not acquire lock {self._key!r} within {timeout_s}s")
            time.sleep(self._retry_delay_s)

    def release(self) -> None:
        if self._token is None:
            raise LockError("releasing a lock that is not held")
        token, self._token = self._token, None
        self._validity_deadline = 0.0
        self._release_token(token)

    def _release_token(self, token: str) -> None:
        for instance in self._farm:
            try:
                instance.compare_and_delete(self._key, token)
            except InstanceDownError:
                continue

    def __enter__(self) -> "DistributedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.held:
            self.release()


class SequenceGate:
    """Releases workers strictly in sequence-number order.

    The replay engine hands each replica worker the global position of its
    next event; the worker blocks in :meth:`wait_for_turn` until the shared
    cursor (a key in the farm) reaches that position, then executes the event
    and advances the cursor.  The cursor updates happen under the distributed
    lock, so the total order holds across workers (threads here; processes or
    machines in the paper's deployment).
    """

    def __init__(self, farm: RedisimFarm, session_id: str) -> None:
        self._farm = farm
        self._cursor_key = f"erpi:{session_id}:cursor"
        self._lock = DistributedLock(farm, key=f"erpi:{session_id}:mutex")
        self.reset()

    def reset(self) -> None:
        with self._lock:
            for instance in self._farm.healthy_instances():
                instance.set(self._cursor_key, "0")

    def current(self) -> int:
        for instance in self._farm.healthy_instances():
            value = instance.get(self._cursor_key)
            if value is not None:
                return int(value)
        raise LockError("sequence cursor unavailable on every instance")

    def wait_for_turn(self, position: int, timeout_s: float = 10.0, poll_s: float = 0.0002) -> None:
        """Block until the shared cursor equals ``position``."""
        deadline = time.monotonic() + timeout_s
        while True:
            if self.current() == position:
                return
            if time.monotonic() >= deadline:
                raise LockError(
                    f"timed out waiting for turn {position} (cursor={self.current()})"
                )
            time.sleep(poll_s)

    def complete_turn(self, position: int) -> None:
        """Advance the cursor past ``position`` (holder-only, lock-protected)."""
        with self._lock:
            current = self.current()
            if current != position:
                raise LockError(
                    f"turn {position} completed out of order (cursor={current})"
                )
            for instance in self._farm.healthy_instances():
                instance.set(self._cursor_key, str(position + 1))
