"""Interleaving generation: grouped units and lazy permutation streams.

The raw search space for ``n`` events is ``n!`` (paper section 2.3).  ER-pi
first applies *event grouping* (Algorithm 1) to fuse each sync-request with
its matching sync-execution — and any developer-specified pairs — into atomic
units, then permutes units rather than events.  Because real workloads can
still have astronomically many permutations, generation is lazy: both
enumeration orders are constant-memory iterators.

Two enumeration orders are provided:

* :func:`lexicographic_permutations` — the order a DFS over the interleaving
  tree produces (the paper's DFS baseline): the tail varies first, so
  reaching an interleaving that moves an *early* event takes factorially
  many steps.
* :func:`sjt_permutations` — Steinhaus-Johnson-Trotter minimal-change order,
  ER-pi's neighbourhood-first strategy: each successive interleaving differs
  by one adjacent transposition, so small perturbations of the recorded
  order (where integration bugs overwhelmingly live) are visited early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ErPiError, ResourceExhausted
from repro.core.events import Event, EventKind

#: A unit is an atomic run of events that always replay consecutively.
Unit = Tuple[Event, ...]
#: An interleaving is a flat event sequence.
Interleaving = Tuple[Event, ...]


@dataclass(frozen=True)
class GroupingResult:
    """Output of Algorithm 1: the units plus bookkeeping for reporting."""

    units: Tuple[Unit, ...]
    grouped_pairs: Tuple[Tuple[str, str], ...]  # (first_id, second_id) per fusion

    @property
    def event_count(self) -> int:
        return sum(len(unit) for unit in self.units)

    @property
    def unit_count(self) -> int:
        return len(self.units)

    @property
    def raw_space(self) -> int:
        """n! over raw events."""
        return math.factorial(self.event_count)

    @property
    def grouped_space(self) -> int:
        """u! over grouped units."""
        return math.factorial(self.unit_count)

    @property
    def reduction_factor(self) -> float:
        """How many times grouping shrank the space (paper: 8!/6! = 56x)."""
        if self.grouped_space == 0:
            return 1.0
        return self.raw_space / self.grouped_space


def group_events(
    events: Sequence[Event],
    spec_groups: Optional[Sequence[Tuple[str, str]]] = None,
) -> GroupingResult:
    """Algorithm 1 (Event Group Pruning).

    Fuses each ``SYNC_REQ`` with the matching ``EXEC_SYNC`` on the same
    (sender, receiver) channel — pairing them in program order per channel —
    plus any developer-specified ``(event_id, event_id)`` groups.  Returns
    units in the original recorded order.
    """
    by_id: Dict[str, Event] = {}
    for event in events:
        if event.event_id in by_id:
            raise ErPiError(f"duplicate event id {event.event_id!r}")
        by_id[event.event_id] = event

    partner: Dict[str, str] = {}  # first event id -> second event id

    # Pair sync requests with sync executions per channel, in order.
    pending_reqs: Dict[Tuple[str, str], List[str]] = {}
    for event in events:
        if event.kind == EventKind.SYNC_REQ:
            pending_reqs.setdefault(event.channel, []).append(event.event_id)
        elif event.kind == EventKind.EXEC_SYNC:
            queue = pending_reqs.get(event.channel, [])
            if queue:
                req_id = queue.pop(0)
                partner[req_id] = event.event_id

    # Developer-specified groups (paper: "if explicitly directed by the user").
    for first_id, second_id in spec_groups or ():
        if first_id not in by_id or second_id not in by_id:
            raise ErPiError(f"unknown event in spec group ({first_id!r}, {second_id!r})")
        if first_id in partner or second_id in set(partner.values()):
            raise ErPiError(f"event in spec group ({first_id!r}, {second_id!r}) already grouped")
        partner[first_id] = second_id

    grouped_pairs = tuple(sorted(partner.items()))
    absorbed = set(partner.values())

    units: List[Unit] = []
    for event in events:
        if event.event_id in absorbed:
            continue
        chain: List[Event] = [event]
        # Follow the partner chain (a unit may absorb several events if the
        # developer chains groups, e.g. a->b and b->c).
        current = event.event_id
        while current in partner:
            current = partner[current]
            chain.append(by_id[current])
        units.append(tuple(chain))
    return GroupingResult(units=tuple(units), grouped_pairs=grouped_pairs)


def flatten(units: Sequence[Unit]) -> Interleaving:
    """Expand a unit permutation into the flat event interleaving."""
    out: List[Event] = []
    for unit in units:
        out.extend(unit)
    return tuple(out)


def lexicographic_permutations(units: Sequence[Unit]) -> Iterator[Tuple[Unit, ...]]:
    """All unit permutations in DFS (lexicographic-by-position) order.

    This is exactly the order a depth-first interleaving tree produces when
    children are visited in recorded order: the identity first, then
    permutations that differ only in the tail.
    """
    items = list(units)
    n = len(items)
    if n == 0:
        yield ()
        return
    indices = list(range(n))
    cycles = list(range(n, 0, -1))
    yield tuple(items[i] for i in indices)
    while True:
        for i in reversed(range(n)):
            cycles[i] -= 1
            if cycles[i] == 0:
                indices[i:] = indices[i + 1 :] + indices[i : i + 1]
                cycles[i] = n - i
            else:
                j = n - cycles[i]
                indices[i], indices[j] = indices[j], indices[i]
                yield tuple(items[k] for k in indices)
                break
        else:
            return


def sjt_permutations(units: Sequence[Unit]) -> Iterator[Tuple[Unit, ...]]:
    """All unit permutations in Steinhaus-Johnson-Trotter order.

    Minimal-change: each permutation differs from its predecessor by one
    adjacent transposition, starting from the recorded order.  Early output
    therefore stays in the neighbourhood of the recorded interleaving, which
    is where ER-pi expects integration bugs to surface first.
    """
    items = list(units)
    n = len(items)
    if n == 0:
        yield ()
        return
    # Work over positions 0..n-1; direction -1 = left, +1 = right.
    perm = list(range(n))
    direction = [-1] * n
    yield tuple(items[i] for i in perm)
    while True:
        # Find the largest mobile element (mobile: points at a smaller one).
        mobile_index = -1
        mobile_value = -1
        for index, value in enumerate(perm):
            target = index + direction[value]
            if 0 <= target < n and perm[target] < value and value > mobile_value:
                mobile_value = value
                mobile_index = index
        if mobile_index < 0:
            return
        target = mobile_index + direction[mobile_value]
        perm[mobile_index], perm[target] = perm[target], perm[mobile_index]
        for value in range(mobile_value + 1, n):
            direction[value] = -direction[value]
        yield tuple(items[i] for i in perm)


def lehmer_rank(perm: Sequence[int]) -> int:
    """The Lehmer-code rank of a permutation of ``0..n-1`` (0-based).

    A bijection onto ``0..n!-1``: remembering a permutation costs one int
    instead of an n-tuple, which is what keeps the ``seen`` bookkeeping of
    :func:`relocation_permutations` compact.

    Each digit counts the smaller values still unused, as the popcount of
    a mask of unused values below the current one: O(n) big-int ops
    instead of an O(n^2) compare loop.
    """
    n = len(perm)
    remaining = (1 << n) - 1
    rank = 0
    for index, value in enumerate(perm):
        bit = 1 << value
        rank = rank * (n - index) + (remaining & (bit - 1)).bit_count()
        remaining ^= bit
    return rank


#: Retained bytes charged per Lehmer rank in the relocation seen-set (the
#: set slot plus the rank's int object; ranks are bignums past 20 units).
SEEN_RANK_COST = 64
SEEN_CATEGORY = "relocation_seen"


def relocation_permutations(
    units: Sequence[Unit],
    meter: Optional[object] = None,
    on_degrade: Optional[Callable[[str], None]] = None,
) -> Iterator[Tuple[Unit, ...]]:
    """Neighbourhood-first enumeration: ER-pi's production order.

    Yields, without repetition:

    1. the recorded order;
    2. every single-unit relocation (one unit moved to another position) —
       the shapes 1-reordering integration bugs take;
    3. every composition of two single-unit relocations;
    4. the remaining permutations in SJT minimal-change order.

    The stream is complete: over a full run it yields each permutation of the
    units exactly once (verified by the exhaustiveness tests), but orders the
    near-recorded neighbourhood first, which is where replay finds
    integration bugs in practice.

    Deduplication stores one Lehmer-code rank (an int) per permutation seen
    in the relocation phases — O(n^4) ints at most — and nothing during the
    SJT tail, whose membership checks only consult the relocation-phase set.
    O(n^4) is "at most" in permutations but unbounded in bytes as the unit
    count grows (the ranks are bignums), so when a ``meter`` is supplied
    every new rank is charged to it *before* it is remembered.  If the
    budget runs out the curated phases are abandoned — the stream degrades,
    loudly via ``on_degrade`` (called once with the reason), to exact SJT
    minimal-change order over everything not already yielded.  The retained
    (fully charged) seen-set keeps the degraded stream duplicate-free and
    complete: every yielded permutation was recorded before yielding, and
    the SJT tail skips exactly that set.
    """
    items = list(units)
    n = len(items)
    if n == 0:
        yield ()
        return
    seen: set = set()
    exhausted = False

    def emit(perm: List[int]) -> Optional[Tuple[Unit, ...]]:
        nonlocal exhausted
        rank = lehmer_rank(perm)
        if rank in seen:
            return None
        if meter is not None:
            try:
                meter.charge(SEEN_CATEGORY, SEEN_RANK_COST)
            except ResourceExhausted as exc:
                # The failed charge was recorded before raising; give it
                # back so the meter reflects only ranks actually retained.
                meter.release(SEEN_CATEGORY, SEEN_RANK_COST)
                exhausted = True
                if on_degrade is not None:
                    on_degrade(str(exc))
                return None
        seen.add(rank)
        return tuple(items[i] for i in perm)

    def relocate(perm: List[int], src: int, dst: int) -> List[int]:
        out = list(perm)
        unit = out.pop(src)
        out.insert(dst, unit)
        return out

    base = list(range(n))
    first = emit(base)
    if first is not None:
        yield first
    # Distance 1: all single relocations.
    singles: List[List[int]] = []
    for src in range(n):
        if exhausted:
            break
        for dst in range(n):
            if src == dst:
                continue
            moved = relocate(base, src, dst)
            singles.append(moved)
            result = emit(moved)
            if result is not None:
                yield result
            elif exhausted:
                break
    # Distance 2: compositions of two relocations.
    for moved in singles:
        if exhausted:
            break
        for src in range(n):
            if exhausted:
                break
            for dst in range(n):
                if src == dst:
                    continue
                result = emit(relocate(moved, src, dst))
                if result is not None:
                    yield result
                elif exhausted:
                    break
    # Everything else: SJT over the remaining permutations.  SJT visits each
    # permutation exactly once, so only the relocation-phase set needs
    # consulting — nothing new is remembered here.
    index_of = {id(unit): index for index, unit in enumerate(items)}
    for perm_units in sjt_permutations(items):
        perm_key = [index_of[id(unit)] for unit in perm_units]
        if lehmer_rank(perm_key) in seen:
            continue
        yield perm_units


def permutation_count(unit_count: int) -> int:
    return math.factorial(unit_count)


def unit_permutation_stream(
    units: Sequence[Unit],
    order: str = "sjt",
    meter: Optional[object] = None,
    on_degrade: Optional[Callable[[str], None]] = None,
) -> Iterator[Tuple[Unit, ...]]:
    """Unit permutations (pre-flatten) in the requested order.

    The sharded enumeration fast path consumes this stream directly: a
    worker can derive a candidate's shard key by walking the leading units
    and flatten only the permutations its shard owns, instead of
    materialising the full flat interleaving for every stream position.

    ``meter`` / ``on_degrade`` pass through to
    :func:`relocation_permutations` (the only order with retained
    deduplication state worth charging)."""
    if order == "sjt":
        return sjt_permutations(units)
    if order == "lexicographic":
        return lexicographic_permutations(units)
    if order == "relocation":
        return relocation_permutations(units, meter=meter, on_degrade=on_degrade)
    raise ErPiError(f"unknown enumeration order {order!r}")


def interleaving_stream(
    units: Sequence[Unit],
    order: str = "sjt",
    limit: Optional[int] = None,
    meter: Optional[object] = None,
    on_degrade: Optional[Callable[[str], None]] = None,
) -> Iterator[Interleaving]:
    """Flat event interleavings in the requested order, optionally capped.

    A flatten wrapper over :func:`unit_permutation_stream`, so both paths
    enumerate byte-identical permutation sequences by construction."""
    stream = unit_permutation_stream(
        units, order=order, meter=meter, on_degrade=on_degrade
    )
    for index, unit_perm in enumerate(stream):
        if limit is not None and index >= limit:
            return
        yield flatten(unit_perm)
