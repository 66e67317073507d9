"""Errors raised by the in-memory Redis simulation."""


class RedisimError(Exception):
    """Base class for redisim failures."""


class InstanceDownError(RedisimError):
    """The targeted instance is administratively down (fault injection)."""
