"""In-memory Redis simulation: the sorted-set instances and farms that
Roshi stores its LWW sets in."""

from repro.redisim.errors import InstanceDownError, RedisimError
from repro.redisim.farm import RedisimFarm
from repro.redisim.server import RedisimServer
from repro.redisim.sortedset import SortedSet

__all__ = [
    "InstanceDownError",
    "RedisimError",
    "RedisimFarm",
    "RedisimServer",
    "SortedSet",
]
