"""Simulated resource budgets for the succeed-or-crash micro-benchmark.

The paper's Figure 10 runs each exploration mode until it either reproduces
the bug or exhausts the machine's resources and crashes.  Our substrate is a
simulator, so "the machine" is a :class:`ResourceMeter`: explorers charge it
for the working state they would keep on a real deployment (the explored-
interleaving ledger of DFS, the composed-interleaving cache of Rand, the
pruner seen-sets of ER-pi), and it raises :class:`ResourceExhausted` when
the budget is gone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.errors import ResourceExhausted


@dataclass
class ResourceMeter:
    """A byte-denominated budget with per-category accounting."""

    budget_bytes: Optional[int] = None
    used_bytes: int = 0
    by_category: Dict[str, int] = field(default_factory=dict)

    def charge(self, category: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("cannot charge negative bytes")
        if nbytes == 0:
            return  # a zero charge must not plant a dead category entry
        self.used_bytes += nbytes
        self.by_category[category] = self.by_category.get(category, 0) + nbytes
        if self.budget_bytes is not None and self.used_bytes > self.budget_bytes:
            raise ResourceExhausted(
                f"resource budget exhausted: {self.used_bytes} > "
                f"{self.budget_bytes} bytes (while charging {category!r})"
            )

    def release(self, category: str, nbytes: int) -> None:
        """Give back bytes previously charged (e.g. a cache eviction).

        Releases are clamped at zero so a double-release can never mint
        budget out of thin air.  A category released down to zero is
        removed outright — ``by_category`` holds live categories only.
        """
        if nbytes < 0:
            raise ValueError("cannot release negative bytes")
        held = self.by_category.get(category, 0)
        freed = min(nbytes, held)
        remaining = held - freed
        if remaining:
            self.by_category[category] = remaining
        else:
            self.by_category.pop(category, None)
        self.used_bytes = max(self.used_bytes - freed, 0)

    @property
    def remaining_bytes(self) -> Optional[int]:
        if self.budget_bytes is None:
            return None
        return max(self.budget_bytes - self.used_bytes, 0)

    def reset(self) -> None:
        self.used_bytes = 0
        self.by_category.clear()


#: Approximate cost of remembering one interleaving of n events: the paper's
#: checker server persists each explored/queued interleaving as an id list.
def interleaving_footprint(event_count: int) -> int:
    return 24 + 8 * event_count


def state_footprint(value: Any) -> int:
    """A rough, deterministic byte estimate of an observable state (the
    profiler's state-size distributions)."""
    if isinstance(value, dict):
        return 32 + sum(
            state_footprint(k) + state_footprint(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return 24 + sum(state_footprint(item) for item in value)
    if isinstance(value, str):
        return 40 + len(value)
    if isinstance(value, (int, float, bool)) or value is None:
        return 24
    return sys.getsizeof(value)
