"""Unit tests for the redisim server and farm."""

import pytest

from repro.redisim.errors import InstanceDownError, RedisimError
from repro.redisim.farm import RedisimFarm
from repro.redisim.server import RedisimServer


class TestZsetCommands:
    def test_zadd_zrange(self):
        server = RedisimServer()
        server.zadd("z", "b", 2.0)
        server.zadd("z", "a", 1.0)
        assert server.zrange("z") == ["a", "b"]
        assert server.zrange("z", desc=True) == ["b", "a"]

    def test_zscore_zcard(self):
        server = RedisimServer()
        server.zadd("z", "m", 4.0)
        assert server.zscore("z", "m") == 4.0
        assert server.zcard("z") == 1
        assert server.zcard("missing") == 0

    def test_zrem(self):
        server = RedisimServer()
        server.zadd("z", "m", 1.0)
        assert server.zrem("z", "m") is True
        assert server.zrem("z", "m") is False
        assert server.zrem("missing", "m") is False

    def test_zrangebyscore(self):
        server = RedisimServer()
        for member, score in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
            server.zadd("z", member, score)
        assert server.zrangebyscore("z", 2.0, 3.0) == ["b", "c"]


class TestAdmin:
    def test_down_instance_rejects_commands(self):
        server = RedisimServer()
        server.set_down(True)
        with pytest.raises(InstanceDownError):
            server.zscore("z", "m")
        server.set_down(False)
        assert server.zscore("z", "m") is None

    def test_flushall_and_dbsize(self):
        server = RedisimServer()
        server.zadd("a", "m", 1.0)
        server.zadd("z", "m", 1.0)
        assert server.dbsize() == 2
        server.flushall()
        assert server.dbsize() == 0

    def test_snapshot_restore_round_trip(self):
        server = RedisimServer()
        server.zadd("s", "v", 2.0)
        server.zadd("z", "m", 1.0)
        snapshot = server.snapshot()
        server.flushall()
        server.restore(snapshot)
        assert server.zrange_withscores("s") == [("v", 2.0)]
        assert server.zscore("z", "m") == 1.0

    def test_snapshot_is_deep(self):
        server = RedisimServer()
        server.zadd("z", "m", 1.0)
        snapshot = server.snapshot()
        server.zadd("z", "m2", 2.0)
        server.restore(snapshot)
        assert server.zcard("z") == 1

    def test_command_count_increments(self):
        server = RedisimServer()
        before = server.command_count
        server.zadd("z", "m", 1.0)
        server.zscore("z", "m")
        assert server.command_count == before + 2


class TestFarm:
    def test_partition_and_heal(self):
        farm = RedisimFarm(3)
        farm.partition([0, 2])
        assert farm.healthy_instances() == [farm[1]]
        farm.heal()
        assert len(farm.healthy_instances()) == 3

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            RedisimFarm(0)

    def test_snapshot_restore(self):
        farm = RedisimFarm(2)
        farm[0].zadd("k", "v", 1.0)
        snapshot = farm.snapshot()
        farm[0].zadd("k", "w", 2.0)
        farm.restore(snapshot)
        assert farm[0].zrange("k") == ["v"]
        with pytest.raises(RedisimError):
            farm.restore(snapshot[:1])
