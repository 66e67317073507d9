"""Tests for grouping (Algorithm 1) and the enumeration orders."""

import math
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ErPiError
from repro.core.events import make_sync_pair, make_update
from repro.core.interleavings import (
    flatten,
    group_events,
    interleaving_stream,
    lehmer_rank,
    lexicographic_permutations,
    permutation_count,
    relocation_permutations,
    sjt_permutations,
)


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
        assert grouping.reduction_factor == pytest.approx(56.0)

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
