"""Dynamic proxying of RDL functions (ER-pi's Python language binding).

The event recorder built on these proxies is :mod:`repro.proxy.recorder`;
it is not imported here, so the subjects in :mod:`repro.rdl` can use the
interceptor without importing the cluster.
"""

from repro.proxy.interceptor import (
    deinstrument,
    instrument,
    instrumentable_methods,
    is_instrumented,
    own_state,
)

__all__ = [
    "deinstrument",
    "instrument",
    "instrumentable_methods",
    "is_instrumented",
    "own_state",
]
