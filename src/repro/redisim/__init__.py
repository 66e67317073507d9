"""In-memory Redis simulation: instances, farms, and the Redlock mutex that
ER-pi's replay engine uses to enforce distributed event order."""

from repro.redisim.errors import InstanceDownError, LockError, RedisimError, WrongTypeError
from repro.redisim.farm import RedisimFarm
from repro.redisim.lock import DistributedLock, SequenceGate
from repro.redisim.server import RedisimServer
from repro.redisim.sortedset import SortedSet

__all__ = [
    "DistributedLock",
    "InstanceDownError",
    "LockError",
    "RedisimError",
    "RedisimFarm",
    "RedisimServer",
    "SequenceGate",
    "SortedSet",
    "WrongTypeError",
]
