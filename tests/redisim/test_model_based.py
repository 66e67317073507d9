"""Model-based property tests: redisim against simple reference models."""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.redisim.sortedset import SortedSet

MEMBERS = st.sampled_from(["m1", "m2", "m3", "m4", "m5"])
SCORES = st.floats(min_value=-100, max_value=100, allow_nan=False)


class SortedSetModel(RuleBasedStateMachine):
    """SortedSet must agree with a plain dict + sorted() reference model."""

    def __init__(self):
        super().__init__()
        self.zset = SortedSet()
        self.model = {}

    @rule(member=MEMBERS, score=SCORES)
    def zadd(self, member, score):
        changed = self.zset.zadd(member, score)
        assert changed == (self.model.get(member) != score)
        self.model[member] = score

    @rule(member=MEMBERS, score=SCORES)
    def zadd_only_if_higher(self, member, score):
        current = self.model.get(member)
        expected_change = current is None or score > current
        changed = self.zset.zadd(member, score, only_if_higher=True)
        assert changed == expected_change
        if expected_change:
            self.model[member] = score

    @rule(member=MEMBERS)
    def zrem(self, member):
        removed = self.zset.zrem(member)
        assert removed == (member in self.model)
        self.model.pop(member, None)

    @rule(member=MEMBERS)
    def zscore(self, member):
        assert self.zset.zscore(member) == self.model.get(member)

    @invariant()
    def ordering_matches_model(self):
        expected = [
            member
            for score, member in sorted(
                (score, member) for member, score in self.model.items()
            )
        ]
        assert self.zset.zrange() == expected
        assert self.zset.zcard() == len(self.model)


SortedSetModel.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestSortedSetModel = SortedSetModel.TestCase


@given(
    st.lists(st.tuples(MEMBERS, SCORES), max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_zrange_pagination_consistent(entries):
    zset = SortedSet()
    for member, score in entries:
        zset.zadd(member, score)
    full = zset.zrange()
    # Every (start, stop) window must be a contiguous slice of the full range.
    for start in range(-len(full) - 1, len(full) + 1):
        window = zset.zrange(start, -1)
        assert window == full[start if start >= 0 else max(len(full) + start, 0):]
