"""Replica snapshots with fields overridden, for the reference models.

The reference models of the crash-recovery and Yorkie-sync equivalence
tests pickle a replica as ``RDLReplica.checkpoint()`` does, but with some
fields replaced (process flags as a crash leaves them, a watermark left
out).
"""

import pickle

from repro.proxy.interceptor import own_state


def pickled_with(replica, **overrides):
    """``replica.checkpoint()``'s bytes, with ``overrides`` replacing fields."""
    state = {**own_state(replica), **overrides}
    return pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
