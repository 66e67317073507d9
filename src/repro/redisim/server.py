"""An in-memory single-instance Redis server simulation.

Implements the command subset Roshi's storage needs: the sorted-set family,
plus snapshot/restore for ER-pi's checkpoints and an administrative down
flag for fault injection.

Thread-safe: a single internal mutex serialises commands, as a real
single-threaded Redis instance would.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.redisim.errors import InstanceDownError
from repro.redisim.sortedset import SortedSet


class RedisimServer:
    """One simulated Redis instance: sorted sets keyed by name."""

    def __init__(self, name: str = "redisim") -> None:
        self.name = name
        self._data: Dict[str, SortedSet] = {}
        self._mutex = threading.RLock()
        self._down = False
        self.command_count = 0

    # -------------------------------------------------------- admin / fault

    def set_down(self, down: bool) -> None:
        """Administratively fail (or heal) the instance — fault injection."""
        with self._mutex:
            self._down = down

    @property
    def is_down(self) -> bool:
        return self._down

    def flushall(self) -> None:
        with self._mutex:
            self._data.clear()

    def dbsize(self) -> int:
        with self._mutex:
            return len(self._data)

    # --------------------------------------------------------- zset family

    def zadd(self, key: str, member: str, score: float, only_if_higher: bool = False) -> bool:
        with self._guard():
            zset = self._data.get(key)
            if zset is None:
                zset = self._data[key] = SortedSet()
            return zset.zadd(member, score, only_if_higher)

    def zrem(self, key: str, member: str) -> bool:
        with self._guard():
            zset = self._data.get(key)
            return False if zset is None else zset.zrem(member)

    def zscore(self, key: str, member: str) -> Optional[float]:
        with self._guard():
            zset = self._data.get(key)
            return None if zset is None else zset.zscore(member)

    def zcard(self, key: str) -> int:
        with self._guard():
            zset = self._data.get(key)
            return 0 if zset is None else zset.zcard()

    def zrange(self, key: str, start: int = 0, stop: int = -1, desc: bool = False) -> List[str]:
        with self._guard():
            zset = self._data.get(key)
            return [] if zset is None else zset.zrange(start, stop, desc=desc)

    def zrange_withscores(
        self, key: str, start: int = 0, stop: int = -1, desc: bool = False
    ) -> List[Tuple[str, float]]:
        with self._guard():
            zset = self._data.get(key)
            return [] if zset is None else zset.zrange_withscores(start, stop, desc=desc)

    def zrangebyscore(self, key: str, low: float, high: float) -> List[str]:
        with self._guard():
            zset = self._data.get(key)
            return [] if zset is None else zset.zrangebyscore(low, high)

    # ---------------------------------------------------------- snapshots

    def snapshot(self) -> Dict[str, SortedSet]:
        """A deep snapshot for ER-pi's checkpoint/reset of Roshi replicas."""
        with self._mutex:
            return {key: zset.copy() for key, zset in self._data.items()}

    def restore(self, snapshot: Dict[str, SortedSet]) -> None:
        with self._mutex:
            self._data = {key: zset.copy() for key, zset in snapshot.items()}

    # ------------------------------------------------------------ internal

    def _guard(self) -> "threading.RLock":
        if self._down:
            raise InstanceDownError(f"instance {self.name!r} is down")
        self.command_count += 1
        return self._mutex
