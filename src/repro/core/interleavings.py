"""Interleaving generation: grouped units and lazy permutation streams.

The raw search space for ``n`` events is ``n!`` (paper section 2.3).  ER-pi
first applies *event grouping* (Algorithm 1) to fuse each sync-request with
its matching sync-execution — and any developer-specified pairs — into atomic
units, then permutes units rather than events.  Because real workloads can
still have astronomically many permutations, generation is lazy, and each
enumeration order generates tuples of unit indices:

* :func:`lexicographic_permutations` — the order a DFS over the interleaving
  tree produces (the paper's DFS baseline): the tail varies first, so
  reaching an interleaving that moves an *early* event takes factorially
  many steps.
* :func:`sjt_permutations` — Steinhaus-Johnson-Trotter minimal-change order,
  ER-pi's neighbourhood-first strategy: each successive interleaving differs
  by one adjacent transposition, so small perturbations of the recorded
  order (where integration bugs overwhelmingly live) are visited early.
* :func:`relocation_permutations` — ER-pi's production order: the recorded
  order, its single and double unit relocations, then the SJT rest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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


def unit_order_masks(
    units: Sequence[Unit], constraints: Sequence[Tuple[str, str]]
) -> Optional[Tuple[int, ...]]:
    """Compile ``(before_id, after_id)`` event constraints into one
    predecessor bitmask per unit (``None`` if nothing constrains the order).

    Bit ``b`` of ``masks[a]`` means unit ``b`` must come before unit ``a``,
    so a permutation is valid iff each unit's mask is a subset of the units
    placed before it.  A constraint that a unit's own event order breaks
    sets the unit's own bit, which no permutation satisfies.  Ids outside
    the schedule are ignored, as by
    :func:`repro.faults.plan.satisfies_order_constraints`.
    """
    where: Dict[str, Tuple[int, int]] = {
        event.event_id: (index, offset)
        for index, unit in enumerate(units)
        for offset, event in enumerate(unit)
    }
    masks = [0] * len(units)
    for before, after in constraints:
        if before in where and after in where:
            (first, first_at), (second, second_at) = where[before], where[after]
            if first != second or first_at > second_at:
                masks[second] |= 1 << first
    return tuple(masks) if any(masks) else None


def _admits(perm: Sequence[int], masks: Sequence[int]) -> bool:
    placed = 0
    for unit in perm:
        if masks[unit] & ~placed:
            return False
        placed |= 1 << unit
    return True


def lexicographic_permutations(units: Sequence[Unit]) -> Iterator[Tuple[Unit, ...]]:
    """All unit permutations in DFS (lexicographic-by-position) order.

    This is exactly the order a depth-first interleaving tree produces when
    children are visited in recorded order: the identity first, then
    permutations that differ only in the tail.
    """
    return (tuple(units[i] for i in p) for p in itertools.permutations(range(len(units))))


def sjt_permutations(units: Sequence[Unit]) -> Iterator[Tuple[Unit, ...]]:
    """All unit permutations in Steinhaus-Johnson-Trotter order.

    Minimal-change: each permutation differs from its predecessor by one
    adjacent transposition, starting from the recorded order.  Early output
    therefore stays in the neighbourhood of the recorded interleaving, which
    is where ER-pi expects integration bugs to surface first.
    """
    return (tuple(units[i] for i in p) for _, p in _sjt(len(units)))


def _sjt(
    n: int, masks: Optional[Sequence[int]] = None
) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """The permutations ``masks`` admits, in SJT order, each as
    ``(lehmer_rank(perm), perm)``."""
    # Knuth's Algorithm P ("plain changes", TAOCP 7.2.1.2): SJT order in
    # amortised O(1) per step.  Level ``j`` is ``count[j]`` moves into its
    # current sweep, in direction ``step[j]``.
    perm = list(range(n))
    count = [0] * (n + 1)
    step = [1] * (n + 1)
    # Constraints the current order breaks (in the identity, predecessors
    # at or after their unit); a step swaps two adjacent units, so O(1).
    broken = sum((m >> u).bit_count() for u, m in enumerate(masks)) if masks else 0
    # The Lehmer digits and rank, carried on every step: swapping the
    # adjacent values ``a, b`` changes only their two digits ``(d0, d1)``,
    # to ``(d1 + 1, d0)`` if ``a < b`` and to ``(d1, d0 - 1)`` otherwise.
    digits = [0] * n
    weight = [math.factorial(n - 1 - i) for i in range(n)]
    rank = 0
    if not broken:
        yield rank, tuple(perm)
    if n < 2:
        return
    while True:
        j, shift = n, 0
        while True:
            moved = count[j] + step[j]
            if 0 <= moved < j:
                break
            if moved == j:
                if j == 1:
                    return
                shift += 1
            step[j] = -step[j]
            j -= 1
        low = j - max(count[j], moved) + shift - 1
        count[j] = moved
        a, b = perm[low], perm[low + 1]
        perm[low], perm[low + 1] = b, a
        if masks is not None:
            # The swap put ``b`` in front of ``a``.
            broken += (masks[b] >> a & 1) - (masks[a] >> b & 1)
        d0, d1 = digits[low], digits[low + 1]
        e0, e1 = (d1 + 1, d0) if a < b else (d1, d0 - 1)
        rank += (e0 - d0) * weight[low] + (e1 - d1) * weight[low + 1]
        digits[low], digits[low + 1] = e0, e1
        if not broken:
            yield rank, tuple(perm)


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
    return (tuple(units[i] for i in p) for p in _relocation(len(units), meter, on_degrade))


def _relocation(
    n: int, meter: Optional[object], on_degrade: Optional[Callable[[str], None]],
    masks: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[int, ...]]:
    seen: set = set()
    for perm in _neighbourhood(n):
        # An invalid permutation is never ranked, charged or remembered; the
        # SJT tail rejects it again, so the stream stays duplicate-free.
        if masks is not None and not _admits(perm, masks):
            continue
        rank = lehmer_rank(perm)
        if rank in seen:
            continue
        if meter is not None:
            try:
                meter.charge(SEEN_CATEGORY, SEEN_RANK_COST)
            except ResourceExhausted as exc:
                # The failed charge was recorded before raising; give it
                # back so the meter reflects only ranks actually retained.
                meter.release(SEEN_CATEGORY, SEEN_RANK_COST)
                if on_degrade is not None:
                    on_degrade(str(exc))
                break
        seen.add(rank)
        yield tuple(perm)
    # Everything else: SJT over the remaining permutations.  SJT visits each
    # permutation exactly once, so only the relocation-phase set needs
    # consulting — nothing new is remembered here.
    for rank, perm in _sjt(n, masks):
        if rank not in seen:
            yield perm


def _neighbourhood(n: int) -> Iterator[List[int]]:
    """The recorded order, its single-unit relocations, then pairs of them."""

    def relocate(perm: List[int], src: int, dst: int) -> List[int]:
        out = list(perm)
        out.insert(dst, out.pop(src))
        return out

    base = list(range(n))
    moves = [(src, dst) for src in range(n) for dst in range(n) if src != dst]
    singles = [relocate(base, src, dst) for src, dst in moves]
    yield base
    yield from singles
    for moved in singles:
        for src, dst in moves:
            yield relocate(moved, src, dst)


def permutation_count(unit_count: int) -> int:
    return math.factorial(unit_count)


def unit_permutation_stream(
    units: Sequence[Unit],
    order: str = "sjt",
    meter: Optional[object] = None,
    on_degrade: Optional[Callable[[str], None]] = None,
    masks: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[int, ...]]:
    """The permutations of ``units`` in the requested order, as tuples of
    unit indices.

    ``masks`` (from :func:`unit_order_masks`) drops each permutation that
    breaks an order constraint before it is ranked, charged or yielded; the
    valid ones keep their unconstrained order.  ``meter`` / ``on_degrade``
    pass through to :func:`relocation_permutations` (the only order with
    retained deduplication state worth charging)."""
    if order == "relocation":
        return _relocation(len(units), meter, on_degrade, masks)
    if order == "sjt":
        return (perm for _, perm in _sjt(len(units), masks))
    if order != "lexicographic":
        raise ErPiError(f"unknown enumeration order {order!r}")
    perms = itertools.permutations(range(len(units)))
    return perms if masks is None else (p for p in perms if _admits(p, masks))


def interleaving_stream(
    units: Sequence[Unit],
    order: str = "sjt",
    limit: Optional[int] = None,
    meter: Optional[object] = None,
    on_degrade: Optional[Callable[[str], None]] = None,
    masks: Optional[Sequence[int]] = None,
) -> Iterator[Interleaving]:
    """Flat event interleavings in the requested order, optionally capped.

    A flatten wrapper over :func:`unit_permutation_stream`, so both paths
    enumerate byte-identical permutation sequences by construction."""
    stream = unit_permutation_stream(
        units, order=order, meter=meter, on_degrade=on_degrade, masks=masks
    )
    for index, perm in enumerate(stream):
        if limit is not None and index >= limit:
            return
        yield flatten([units[i] for i in perm])
