"""A farm of independent Redis instances.

Roshi shards its dataset over several independent Redis instances and issues
reads/writes to all of them, repairing divergence on read.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.redisim.errors import RedisimError
from repro.redisim.server import RedisimServer


class RedisimFarm:
    """A fixed-size collection of :class:`RedisimServer` instances."""

    def __init__(self, size: int = 3, name_prefix: str = "redisim") -> None:
        if size < 1:
            raise ValueError("a farm needs at least one instance")
        self.instances: List[RedisimServer] = [
            RedisimServer(name=f"{name_prefix}-{index}") for index in range(size)
        ]

    def __getitem__(self, index: int) -> RedisimServer:
        return self.instances[index]

    def healthy_instances(self) -> List[RedisimServer]:
        return [instance for instance in self.instances if not instance.is_down]

    def partition(self, down_indexes: Sequence[int]) -> None:
        """Fail the given instances (fault injection)."""
        for index in down_indexes:
            self.instances[index].set_down(True)

    def heal(self) -> None:
        for instance in self.instances:
            instance.set_down(False)

    def snapshot(self) -> List[dict]:
        return [instance.snapshot() for instance in self.instances]

    def restore(self, snapshots: Sequence[dict]) -> None:
        if len(snapshots) != len(self.instances):
            raise RedisimError("snapshot count does not match farm size")
        for instance, snap in zip(self.instances, snapshots):
            instance.restore(snap)
