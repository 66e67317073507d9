"""Tests for grouping (Algorithm 1) and the enumeration orders."""

import math
import random
from itertools import islice, permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import record_scenario
from repro.bugs.registry import scenario
from repro.core.errors import ErPiError
from repro.core.events import make_sync_pair, make_update
from repro.core.explorers import ERPiExplorer
from repro.core.interleavings import (
    SEEN_CATEGORY,
    SEEN_RANK_COST,
    _admits,
    _neighbourhood,
    _sjt,
    flatten,
    group_events,
    interleaving_stream,
    lehmer_rank,
    lexicographic_permutations,
    permutation_count,
    relocation_permutations,
    sjt_permutations,
    unit_order_masks,
    unit_permutation_stream,
)
from repro.core.resources import ResourceMeter
from repro.faults.plan import satisfies_order_constraints


def sample_events():
    """The paper's Figure-3 shape: updates + two sync pairs (8 events)."""
    events = [
        make_update("e1", "A", "op1"),
        make_update("e2", "A", "op2"),
    ]
    events += list(make_sync_pair("e3", "e4", "A", "B"))
    events += [
        make_update("e5", "B", "op3"),
        make_update("e6", "B", "op4"),
    ]
    events += list(make_sync_pair("e7", "e8", "B", "A"))
    return events


class TestGrouping:
    def test_figure3_reduction(self):
        # 8 events, two sync pairs -> 6 units: 8!/6! = 56x reduction.
        grouping = group_events(sample_events())
        assert grouping.event_count == 8
        assert grouping.unit_count == 6
        assert grouping.raw_space == math.factorial(8)
        assert grouping.grouped_space == math.factorial(6)
        assert grouping.raw_space // grouping.grouped_space == 56

    def test_pairs_matched_per_channel_in_order(self):
        events = sample_events()
        grouping = group_events(events)
        assert ("e3", "e4") in grouping.grouped_pairs
        assert ("e7", "e8") in grouping.grouped_pairs

    def test_two_syncs_same_channel_pair_in_order(self):
        events = [
            *make_sync_pair("e1", "e2", "A", "B"),
            *make_sync_pair("e3", "e4", "A", "B"),
        ]
        grouping = group_events(events)
        assert grouping.grouped_pairs == (("e1", "e2"), ("e3", "e4"))

    def test_spec_groups_chain(self):
        events = [
            make_update("e1", "A", "op"),
            *make_sync_pair("e2", "e3", "A", "B"),
        ]
        grouping = group_events(events, spec_groups=[("e1", "e2")])
        assert grouping.unit_count == 1
        unit = grouping.units[0]
        assert [e.event_id for e in unit] == ["e1", "e2", "e3"]

    def test_spec_group_unknown_event_rejected(self):
        with pytest.raises(ErPiError):
            group_events(sample_events(), spec_groups=[("e1", "zz")])

    def test_duplicate_event_ids_rejected(self):
        event = make_update("e1", "A", "op")
        with pytest.raises(ErPiError):
            group_events([event, event])

    def test_units_preserve_recorded_order(self):
        grouping = group_events(sample_events())
        flat = flatten(grouping.units)
        assert [e.event_id for e in flat] == [f"e{i}" for i in range(1, 9)]

    def test_motivating_example_grouping(self):
        # 10 raw events -> 3 chained (update, req, exec) units + 1 read
        # = 4 units = 24 interleavings (paper section 3.1).
        events = [
            make_update("e1", "A", "report_otb"),
            *make_sync_pair("e2", "e3", "A", "B"),
            make_update("e4", "B", "report_ph"),
            *make_sync_pair("e5", "e6", "B", "A"),
            make_update("e7", "B", "remove_otb"),
            *make_sync_pair("e8", "e9", "B", "A"),
            make_update("e10", "A", "transmit"),
        ]
        grouping = group_events(
            events, spec_groups=[("e1", "e2"), ("e4", "e5"), ("e7", "e8")]
        )
        assert grouping.unit_count == 4
        assert grouping.grouped_space == 24
        assert grouping.raw_space == math.factorial(10)


UNITS = [("u1",), ("u2",), ("u3",), ("u4",)]


class TestEnumerationOrders:
    def test_lexicographic_matches_itertools(self):
        ours = list(lexicographic_permutations(UNITS))
        reference = [tuple(p) for p in permutations(UNITS)]
        assert ours == reference

    def test_sjt_complete_and_unique(self):
        out = list(sjt_permutations(UNITS))
        assert len(out) == 24
        assert len(set(out)) == 24

    def test_sjt_adjacent_transpositions(self):
        out = list(sjt_permutations(UNITS))
        for previous, current in zip(out, out[1:]):
            diffs = [i for i in range(len(UNITS)) if previous[i] != current[i]]
            assert len(diffs) == 2
            assert diffs[1] == diffs[0] + 1

    def test_relocation_complete_and_unique(self):
        out = list(relocation_permutations(UNITS))
        assert len(out) == 24
        assert len(set(out)) == 24

    def test_relocation_starts_with_identity(self):
        assert next(iter(relocation_permutations(UNITS))) == tuple(UNITS)

    def test_relocation_singles_come_early(self):
        out = list(relocation_permutations(UNITS))
        # Moving the last unit to the front is a single relocation.
        moved = (UNITS[3], UNITS[0], UNITS[1], UNITS[2])
        assert out.index(moved) <= 12

    def test_empty_units(self):
        assert list(sjt_permutations([])) == [()]
        assert list(lexicographic_permutations([])) == [()]
        assert list(relocation_permutations([])) == [()]

    def test_stream_flattens_and_caps(self):
        events = sample_events()
        grouping = group_events(events)
        out = list(interleaving_stream(grouping.units, order="sjt", limit=5))
        assert len(out) == 5
        assert all(len(il) == 8 for il in out)

    def test_stream_unknown_order(self):
        with pytest.raises(ErPiError):
            list(interleaving_stream(UNITS, order="bogus"))

    def test_permutation_count(self):
        assert permutation_count(6) == 720


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=5, deadline=None)
def test_all_orders_enumerate_exactly_n_factorial(n):
    units = [(f"u{i}",) for i in range(n)]
    expected = math.factorial(n)
    assert len(set(lexicographic_permutations(units))) == expected
    assert len(set(sjt_permutations(units))) == expected
    assert len(set(relocation_permutations(units))) == expected


def reference_lehmer_rank(perm):
    """The original O(n^2) compare loop, kept as the reference."""
    n = len(perm)
    rank = 0
    for index in range(n):
        smaller_later = 0
        for later in range(index + 1, n):
            if perm[later] < perm[index]:
                smaller_later += 1
        rank = rank * (n - index) + smaller_later
    return rank


class TestLehmerRank:
    """The popcount rank must equal the compare loop exactly: the relocation
    stream's dedup set, its meter charges and the point where it falls back
    to SJT order all key off these ranks."""

    def test_matches_reference_exhaustively_up_to_seven(self):
        for n in range(8):
            ranks = set()
            for perm in permutations(range(n)):
                rank = lehmer_rank(perm)
                assert rank == reference_lehmer_rank(perm)
                ranks.add(rank)
            assert ranks == set(range(math.factorial(n)))

    @given(st.integers(min_value=8, max_value=14).flatmap(
        lambda n: st.permutations(range(n))
    ))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_larger_permutations(self, perm):
        assert lehmer_rank(perm) == reference_lehmer_rank(perm)


class TestRelocationSeenSetMetering:
    """Regression: the relocation order's Lehmer-rank seen-set grew without
    bound or accounting.  With a meter attached every retained rank is
    charged, and on exhaustion the curated phases degrade — loudly, once —
    to exact SJT order while staying complete and duplicate-free."""

    def test_degrade_fires_once_and_stream_stays_complete(self):
        from repro.core.interleavings import SEEN_RANK_COST
        from repro.core.resources import ResourceMeter

        units = [(f"u{i}",) for i in range(5)]
        meter = ResourceMeter(budget_bytes=SEEN_RANK_COST * 7)
        reasons = []
        out = list(
            relocation_permutations(
                units, meter=meter, on_degrade=reasons.append
            )
        )
        assert len(reasons) == 1
        assert "exhausted" in reasons[0]
        assert len(out) == math.factorial(5)
        assert len(set(out)) == math.factorial(5)

    def test_retained_bytes_stay_within_budget(self):
        from repro.core.interleavings import SEEN_CATEGORY, SEEN_RANK_COST
        from repro.core.resources import ResourceMeter

        units = [(f"u{i}",) for i in range(5)]
        budget = SEEN_RANK_COST * 7
        meter = ResourceMeter(budget_bytes=budget)
        list(relocation_permutations(units, meter=meter, on_degrade=lambda r: None))
        assert meter.by_category[SEEN_CATEGORY] <= budget

    def test_generous_budget_never_degrades(self):
        from repro.core.interleavings import SEEN_RANK_COST
        from repro.core.resources import ResourceMeter

        units = [(f"u{i}",) for i in range(4)]
        meter = ResourceMeter(budget_bytes=SEEN_RANK_COST * 10_000)
        reasons = []
        out = list(
            relocation_permutations(
                units, meter=meter, on_degrade=reasons.append
            )
        )
        assert reasons == []
        assert len(out) == math.factorial(4)

    def test_unmetered_behaviour_unchanged(self):
        units = [(f"u{i}",) for i in range(4)]
        assert list(relocation_permutations(units)) == list(
            relocation_permutations(units, meter=None)
        )


def reference_sjt(n):
    """Steinhaus-Johnson-Trotter by the largest-mobile-element rule, kept as
    the reference for the plain-changes generator."""
    perm = list(range(n))
    direction = [-1] * n
    yield tuple(perm)
    while True:
        mobile_index = mobile_value = -1
        for index, value in enumerate(perm):
            target = index + direction[value]
            if 0 <= target < n and perm[target] < value and value > mobile_value:
                mobile_index, mobile_value = index, value
        if mobile_index < 0:
            return
        target = mobile_index + direction[mobile_value]
        perm[mobile_index], perm[target] = perm[target], perm[mobile_index]
        for value in range(mobile_value + 1, n):
            direction[value] = -direction[value]
        yield tuple(perm)


def test_sjt_matches_the_mobile_element_reference():
    for n in range(9):
        assert list(sjt_permutations(range(n))) == list(reference_sjt(n))


CR_SCENARIOS = ("Roshi-CR", "Roshi-CR2", "OrbitDB-CR", "ReplicaDB-CR", "Yorkie-CR")
ORDERS = ("sjt", "lexicographic", "relocation")


def faulted_schedule(name):
    """A crash-recovery scenario's schedule with its fault plan compiled."""
    sc = scenario(name)
    compiled = sc.fault_plan().compile(record_scenario(sc).events)
    return sc, compiled.events, compiled.order_constraints


def ids(interleaving):
    return tuple(event.event_id for event in interleaving)


def filtered_stream(units, order, constraints):
    """The reference: the unconstrained stream, flattened, then filtered."""
    return (
        il for il in interleaving_stream(units, order=order)
        if satisfies_order_constraints(il, constraints)
    )


def masked_stream(units, order, constraints):
    return interleaving_stream(
        units, order=order, masks=unit_order_masks(units, constraints)
    )


class TestOrderMasks:
    """Validity is decided on unit indices inside the stream; the valid
    stream must be exactly the flat stream filtered by
    ``satisfies_order_constraints``, in the same order."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("name", CR_SCENARIOS)
    @pytest.mark.parametrize("kind", ("erpi-units", "dfs-events"))
    def test_masked_stream_equals_filtered_stream(self, kind, name, order):
        sc, events, constraints = faulted_schedule(name)
        if kind == "erpi-units":
            units = group_events(events, sc.spec_groups()).units
        else:
            units = tuple((event,) for event in events)
        assert unit_order_masks(units, constraints) is not None
        limit = 1_500
        masked = [ids(il) for il in islice(masked_stream(units, order, constraints), limit)]
        reference = [
            ids(il) for il in islice(filtered_stream(units, order, constraints), limit)
        ]
        assert masked
        assert masked == reference

    def test_a_unit_that_breaks_a_constraint_itself_empties_the_stream(self):
        events = sample_events()
        units = group_events(events).units
        # e3 -> e4 is one sync unit; demanding e4 before e3 breaks its order.
        masks = unit_order_masks(units, (("e4", "e3"),))
        assert masks is not None
        for order in ORDERS:
            assert list(interleaving_stream(units, order=order, masks=masks)) == []

    def test_unknown_ids_and_satisfied_unit_internal_pairs_constrain_nothing(self):
        units = group_events(sample_events()).units
        assert unit_order_masks(units, ()) is None
        assert unit_order_masks(units, (("zz", "e1"), ("e2", "f9"), ("e3", "e4"))) is None

    def test_cross_unit_constraint_sets_a_predecessor_bit(self):
        units = group_events(sample_events()).units  # e1 e2 (e3 e4) e5 e6 (e7 e8)
        masks = unit_order_masks(units, (("e6", "e1"), ("e8", "e3")))
        assert masks == (1 << 4, 0, 1 << 5, 0, 0, 0)


@st.composite
def constrained_schedules(draw):
    """Up to six units, some multi-event, plus a random constraint set over
    their event ids and ids outside the schedule."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=6))
    units, counter = [], 0
    for size in sizes:
        unit = []
        for _ in range(size):
            counter += 1
            unit.append(make_update(f"e{counter}", "A", "op"))
        units.append(tuple(unit))
    known = [f"e{i}" for i in range(1, counter + 1)]
    pool = st.sampled_from(known + ["zz", "f9"])
    constraints = draw(st.lists(st.tuples(pool, pool), max_size=5))
    return tuple(units), tuple(constraints)


@given(constrained_schedules())
@settings(max_examples=150, deadline=None)
def test_masked_stream_equals_filtered_stream_property(schedule):
    units, constraints = schedule
    for order in ORDERS:
        assert [ids(il) for il in masked_stream(units, order, constraints)] == [
            ids(il) for il in filtered_stream(units, order, constraints)
        ]


def relocation_phase(n):
    """Every permutation of ``0..n-1`` at most two single-unit relocations
    from the identity."""

    def relocations(perm):
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    out = list(perm)
                    out.insert(dst, out.pop(src))
                    yield tuple(out)

    singles = set(relocations(range(n)))
    return {tuple(range(n))} | singles | {
        double for single in singles for double in relocations(single)
    }


@pytest.mark.parametrize("name", CR_SCENARIOS)
def test_faulted_relocation_charges_only_valid_permutations(name):
    """Invalid permutations are rejected before they are ranked or charged:
    the relocation seen-set holds one rank per *valid* relocation-phase
    permutation."""
    sc, events, constraints = faulted_schedule(name)
    meter = ResourceMeter()
    explorer = ERPiExplorer(events, meter=meter, spec_groups=sc.spec_groups())
    explorer.order_constraints = constraints
    units = explorer.grouping.units
    valid = sum(
        1
        for perm in relocation_phase(len(units))
        if satisfies_order_constraints(flatten([units[i] for i in perm]), constraints)
    )
    # One candidate past the valid relocation-phase ones (when there is one)
    # drives the stream into its SJT tail, after which nothing is charged.
    list(islice(explorer.candidates(), valid + 1))
    assert 0 < valid < len(relocation_phase(len(units)))
    assert meter.by_category[SEEN_CATEGORY] == SEEN_RANK_COST * valid


def random_masks(rng, n):
    """Up to three random predecessor bits over ``n`` units (possibly none)."""
    masks = [0] * n
    for _ in range(rng.randint(0, 3)):
        unit, before = rng.randrange(n), rng.randrange(n)
        if unit != before:
            masks[unit] |= 1 << before
    return masks


def reference_relocation(n, masks=None):
    """The relocation order with every SJT-tail permutation Lehmer-ranked
    afresh, kept as the reference for the rank the SJT steps carry."""
    seen = set()
    for perm in _neighbourhood(n):
        if masks is not None and not _admits(perm, masks):
            continue
        rank = lehmer_rank(perm)
        if rank not in seen:
            seen.add(rank)
            yield tuple(perm)
    for perm in reference_sjt(n):
        if masks is not None and not _admits(perm, masks):
            continue
        if lehmer_rank(perm) not in seen:
            yield perm


class TestCarriedRank:
    """An SJT step swaps two adjacent values and so changes two Lehmer
    digits; the rank carried across the steps must equal a fresh rank."""

    def test_every_carried_rank_equals_lehmer_rank(self):
        rng = random.Random(20)
        for n in range(9):
            for masks in [None] + [random_masks(rng, n) for _ in range(4) if n]:
                for rank, perm in _sjt(n, masks):
                    assert rank == lehmer_rank(perm)

    def test_relocation_stream_equals_the_reference_tail(self):
        rng = random.Random(21)
        for n in range(8):
            assert list(unit_permutation_stream(range(n), "relocation")) == list(
                reference_relocation(n)
            )
            masks = random_masks(rng, n) if n else None
            assert list(
                unit_permutation_stream(range(n), "relocation", masks=masks)
            ) == list(reference_relocation(n, masks))

    @pytest.mark.parametrize("name", CR_SCENARIOS)
    def test_faulted_relocation_stream_equals_the_reference_tail(self, name):
        sc, events, constraints = faulted_schedule(name)
        units = group_events(events, sc.spec_groups()).units
        masks = unit_order_masks(units, constraints)
        limit = 5_000
        stream = list(
            islice(unit_permutation_stream(units, "relocation", masks=masks), limit)
        )
        assert stream == list(islice(reference_relocation(len(units), masks), limit))
        # The stream went on into its SJT tail, except on Roshi-CR, whose 20
        # valid schedules all lie in the relocation phase.
        phase = [perm for perm in relocation_phase(len(units)) if _admits(perm, masks)]
        assert len(stream) > len(phase) or (name, len(stream)) == ("Roshi-CR", 20)
