"""An in-memory single-instance Redis server simulation.

Implements the command subset the reproduction needs: string get/set with
NX/TTL options (the Redlock primitives), delete, expiry bookkeeping driven by
a logical or wall clock, sorted-set commands (Roshi's storage), and an atomic
check-and-delete used for safe lock release.

Thread-safe: a single internal mutex serialises commands, as a real
single-threaded Redis instance would.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.redisim.errors import InstanceDownError, WrongTypeError
from repro.redisim.sortedset import SortedSet


class RedisimServer:
    """One simulated Redis instance.

    ``clock`` is injectable for deterministic TTL tests; it must return
    monotonically non-decreasing seconds.
    """

    def __init__(self, name: str = "redisim", clock: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._clock = clock or _time.monotonic
        self._data: Dict[str, Any] = {}
        self._expiry: Dict[str, float] = {}
        self._mutex = threading.RLock()
        self._down = False
        self.command_count = 0

    # -------------------------------------------------------- admin / fault

    def set_down(self, down: bool) -> None:
        """Administratively fail (or heal) the instance — fault injection for
        Redlock quorum tests."""
        with self._mutex:
            self._down = down

    @property
    def is_down(self) -> bool:
        return self._down

    def flushall(self) -> None:
        with self._mutex:
            self._data.clear()
            self._expiry.clear()

    def dbsize(self) -> int:
        with self._mutex:
            self._sweep()
            return len(self._data)

    # ------------------------------------------------------- string family

    def set(
        self,
        key: str,
        value: str,
        nx: bool = False,
        px: Optional[int] = None,
    ) -> bool:
        """SET with optional NX (only-if-absent) and PX (TTL ms) flags."""
        with self._guard():
            self._sweep()
            if nx and key in self._data:
                return False
            self._data[key] = value
            if px is not None:
                self._expiry[key] = self._clock() + px / 1000.0
            else:
                self._expiry.pop(key, None)
            return True

    def get(self, key: str) -> Optional[str]:
        with self._guard():
            self._sweep()
            value = self._data.get(key)
            if value is not None and not isinstance(value, str):
                raise WrongTypeError(f"key {key!r} holds a non-string value")
            return value

    def delete(self, *keys: str) -> int:
        with self._guard():
            removed = 0
            for key in keys:
                if key in self._data:
                    del self._data[key]
                    self._expiry.pop(key, None)
                    removed += 1
            return removed

    def exists(self, key: str) -> bool:
        with self._guard():
            self._sweep()
            return key in self._data

    def ttl_ms(self, key: str) -> Optional[int]:
        """Remaining TTL in ms; None if the key has no expiry or is absent."""
        with self._guard():
            self._sweep()
            deadline = self._expiry.get(key)
            if deadline is None or key not in self._data:
                return None
            return max(int((deadline - self._clock()) * 1000), 0)

    def compare_and_delete(self, key: str, expected: str) -> bool:
        """Delete ``key`` iff it currently holds ``expected`` (the safe
        Redlock release, normally a Lua script)."""
        with self._guard():
            self._sweep()
            if self._data.get(key) == expected:
                del self._data[key]
                self._expiry.pop(key, None)
                return True
            return False

    def incr(self, key: str, amount: int = 1) -> int:
        """INCRBY: atomic counter on a string key holding an integer."""
        with self._guard():
            self._sweep()
            value = self._data.get(key, "0")
            if not isinstance(value, str):
                raise WrongTypeError(f"key {key!r} holds a non-string value")
            try:
                current = int(value)
            except ValueError:
                raise WrongTypeError(
                    f"key {key!r} holds a non-integer string"
                ) from None
            current += amount
            self._data[key] = str(current)
            return current

    def decr(self, key: str, amount: int = 1) -> int:
        return self.incr(key, -amount)

    # --------------------------------------------------------- hash family

    def hset(self, key: str, field_name: str, value: str) -> bool:
        """HSET: returns True iff the field was newly created."""
        with self._guard():
            self._sweep()
            table = self._hash(key, create=True)
            created = field_name not in table
            table[field_name] = value
            return created

    def hget(self, key: str, field_name: str) -> Optional[str]:
        with self._guard():
            self._sweep()
            table = self._hash(key, create=False)
            return None if table is None else table.get(field_name)

    def hdel(self, key: str, *field_names: str) -> int:
        with self._guard():
            table = self._hash(key, create=False)
            if table is None:
                return 0
            removed = 0
            for field_name in field_names:
                if table.pop(field_name, None) is not None:
                    removed += 1
            if not table:
                self._data.pop(key, None)
            return removed

    def hgetall(self, key: str) -> Dict[str, str]:
        with self._guard():
            self._sweep()
            table = self._hash(key, create=False)
            return dict(table) if table else {}

    def hlen(self, key: str) -> int:
        with self._guard():
            table = self._hash(key, create=False)
            return len(table) if table else 0

    def _hash(self, key: str, create: bool) -> Optional[Dict[str, str]]:
        value = self._data.get(key)
        if value is None:
            if not create:
                return None
            value = {}
            self._data[key] = value
        if not isinstance(value, dict):
            raise WrongTypeError(f"key {key!r} holds a non-hash value")
        return value

    # --------------------------------------------------------- zset family

    def zadd(self, key: str, member: str, score: float, only_if_higher: bool = False) -> bool:
        with self._guard():
            self._sweep()
            return self._zset(key, create=True).zadd(member, score, only_if_higher)

    def zrem(self, key: str, member: str) -> bool:
        with self._guard():
            zset = self._zset(key, create=False)
            return False if zset is None else zset.zrem(member)

    def zscore(self, key: str, member: str) -> Optional[float]:
        with self._guard():
            zset = self._zset(key, create=False)
            return None if zset is None else zset.zscore(member)

    def zcard(self, key: str) -> int:
        with self._guard():
            zset = self._zset(key, create=False)
            return 0 if zset is None else zset.zcard()

    def zrange(self, key: str, start: int = 0, stop: int = -1, desc: bool = False) -> List[str]:
        with self._guard():
            zset = self._zset(key, create=False)
            return [] if zset is None else zset.zrange(start, stop, desc=desc)

    def zrange_withscores(
        self, key: str, start: int = 0, stop: int = -1, desc: bool = False
    ) -> List[Tuple[str, float]]:
        with self._guard():
            zset = self._zset(key, create=False)
            return [] if zset is None else zset.zrange_withscores(start, stop, desc=desc)

    def zrangebyscore(self, key: str, low: float, high: float) -> List[str]:
        with self._guard():
            zset = self._zset(key, create=False)
            return [] if zset is None else zset.zrangebyscore(low, high)

    # ---------------------------------------------------------- snapshots

    def snapshot(self) -> Dict[str, Any]:
        """A deep snapshot for ER-pi's checkpoint/reset of Roshi replicas."""
        with self._mutex:
            data: Dict[str, Any] = {}
            for key, value in self._data.items():
                if isinstance(value, (SortedSet, dict)):
                    data[key] = value.copy()
                else:
                    data[key] = value
            return {"data": data, "expiry": dict(self._expiry)}

    def restore(self, snapshot: Dict[str, Any]) -> None:
        with self._mutex:
            self._data = {
                key: value.copy() if isinstance(value, (SortedSet, dict)) else value
                for key, value in snapshot["data"].items()
            }
            self._expiry = dict(snapshot["expiry"])

    # ------------------------------------------------------------ internal

    def _guard(self) -> "threading.RLock":
        if self._down:
            raise InstanceDownError(f"instance {self.name!r} is down")
        self.command_count += 1
        return self._mutex

    def _zset(self, key: str, create: bool) -> Optional[SortedSet]:
        value = self._data.get(key)
        if value is None:
            if not create:
                return None
            value = SortedSet()
            self._data[key] = value
        if not isinstance(value, SortedSet):
            raise WrongTypeError(f"key {key!r} holds a non-zset value")
        return value

    def _sweep(self) -> None:
        if not self._expiry:
            return
        now = self._clock()
        expired = [key for key, deadline in self._expiry.items() if deadline <= now]
        for key in expired:
            self._data.pop(key, None)
            del self._expiry[key]
