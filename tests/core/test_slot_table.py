"""The per-type slot table shared by ``rehome``, ``fast_copy`` and
``statehash``.

Each walker used to scan its object's ``__mro__`` for ``__slots__`` on
every visit.  The scans are kept here as the reference, and each walker
must reach, set, copy and hash exactly what they did: over every seeded
scenario's replicas, over hypothesis-generated JSON documents, and over
slotted classes built to hit the corner cases (inherited slots, a subclass
with a ``__dict__``, ``__weakref__``, unset slots).
"""

import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro import fastcopy, statehash
from repro.bench.harness import record_scenario
from repro.bugs.registry import fault_scenario_names, scenario, scenario_names
from repro.crdt.base import StateCRDT, rehome
from repro.crdt.jsondoc import JSONDocument
from repro.crdt.orset import ORSet
from repro.fastcopy import fast_copy, slot_names
from repro.statehash import canonical_repr


def reference_rehome(root, replica_id):
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if obj is None or isinstance(obj, (str, int, float, bool, bytes)):
            continue
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, StateCRDT):
            obj.replica_id = replica_id
        if hasattr(obj, "__dict__"):
            stack.extend(obj.__dict__.values())
        for klass in type(obj).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)


def reference_copy_plain_object(obj, cls, memo):
    new = cls.__new__(cls)
    memo[id(obj)] = new
    state = getattr(obj, "__dict__", None)
    if state:
        fresh = new.__dict__
        for key, value in state.items():
            fresh[key] = fast_copy(value, memo)
    for klass in cls.__mro__:
        for slot in klass.__dict__.get("__slots__", ()):
            if slot in ("__dict__", "__weakref__"):
                continue
            value = getattr(obj, slot, fastcopy._MISSING)
            if value is not fastcopy._MISSING:
                object.__setattr__(new, slot, fast_copy(value, memo))
    return new


def reference_slot_values(value):
    collected = {}
    found = False
    for klass in type(value).__mro__:
        for slot in klass.__dict__.get("__slots__", ()):
            if slot in ("__dict__", "__weakref__"):
                continue
            found = True
            if hasattr(value, slot):
                collected[slot] = getattr(value, slot)
    return collected if found else None


#: The 12 Table-1 scenarios and the 5 crash-recovery ones.
SCENARIOS = scenario_names() + fault_scenario_names()


# ------------------------------------------------------------ corner cases


class Pair:
    __slots__ = ("left", "right")


class TaggedPair(Pair):
    """Inherits the slots and adds a ``__dict__``."""


class WeakPair(Pair):
    __slots__ = ("extra", "__weakref__")


class SlottedCRDT(StateCRDT):
    __slots__ = ("items",)

    def merge(self, other):
        pass

    def value(self):
        return None


def corner_cases():
    """A graph over every slot shape, plus the objects that keep a live
    weak reference to its ``WeakPair`` (so ``__weakref__`` is not None)."""
    inner = SlottedCRDT("peer")
    inner.items = [ORSet("peer"), {"k": ORSet("peer")}]
    pair = Pair()
    pair.left = inner
    pair.right = (frozenset({"x"}), inner)  # an alias, reached twice
    tagged = TaggedPair()
    tagged.left = ORSet("peer")  # ``right`` stays unset
    tagged.note = SlottedCRDT("peer")  # reached through the __dict__
    weak = WeakPair()
    weak.extra = [pair, tagged]
    root = {"weak": weak, "pair": pair, "list": [tagged, None, 1, "s", b"b"]}
    return root, weakref.ref(weak)


# ------------------------------------------------------------------ checks


def rehome_both_ways(make_root):
    """The pickled graph after the reference and after the new ``rehome``,
    each run on its own fresh graph from ``make_root()``."""
    reference, ours = make_root(), make_root()
    reference_rehome(reference, "adopter")
    rehome(ours, "adopter")
    return pickle.dumps(reference), pickle.dumps(ours)


def twin_maker(root):
    blob = pickle.dumps(root)
    return lambda: pickle.loads(blob)


def copy_both_ways(root, monkeypatch):
    ours = pickle.dumps(fast_copy(root))
    with monkeypatch.context() as patched:
        patched.setattr(fastcopy, "_copy_plain_object", reference_copy_plain_object)
        reference = pickle.dumps(fast_copy(root))
    return reference, ours


def hash_both_ways(root, monkeypatch):
    ours = canonical_repr(root)
    with monkeypatch.context() as patched:
        patched.setattr(statehash, "_slot_values", reference_slot_values)
        reference = canonical_repr(root)
    return reference, ours


def test_slot_names_match_the_mro_scan():
    assert slot_names(Pair) == ("left", "right")
    assert slot_names(TaggedPair) == ("left", "right")
    assert slot_names(WeakPair) == ("extra", "left", "right")
    assert slot_names(SlottedCRDT) == ("items",)
    assert slot_names(dict) == ()
    assert slot_names(WeakPair) is slot_names(WeakPair)  # scanned once


def test_corner_cases(monkeypatch):
    kept = []

    def make_root():
        root, ref = corner_cases()
        kept.append(ref)
        return root

    for _ in range(2):  # the second round runs on warm plans
        reference, ours = rehome_both_ways(make_root)
        assert reference == ours
        assert b"adopter" in ours and b"peer" not in ours
    root, _ref = corner_cases()
    reference, ours = copy_both_ways(root, monkeypatch)
    assert reference == ours
    reference, ours = hash_both_ways(root, monkeypatch)
    assert reference == ours
    for obj in (root["pair"], root["weak"], root["list"][0], root, "s"):
        assert statehash._slot_values(obj) == reference_slot_values(obj)


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_replicas(name, monkeypatch):
    cluster = record_scenario(scenario(name)).engine.cluster
    for rid in cluster.replica_ids():
        state = cluster.rdl(rid).canonical_state()
        reference, ours = rehome_both_ways(twin_maker(state))
        assert reference == ours
        reference, ours = copy_both_ways(state, monkeypatch)
        assert reference == ours
        reference, ours = hash_both_ways(state, monkeypatch)
        assert reference == ours


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["a", "b"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["x", "y", "z"]), inner, max_size=3),
    max_leaves=8,
)
json_writes = st.lists(
    st.tuples(st.sampled_from(["p", "q"]), st.sampled_from(["x", "y"]), json_values),
    max_size=5,
)


@given(json_writes, json_writes, st.booleans())
@settings(max_examples=60, deadline=None)
def test_json_documents(writes_a, writes_b, deep_set):
    monkeypatch = pytest.MonkeyPatch()
    try:
        a = JSONDocument("A", deep_set_supported=deep_set)
        b = JSONDocument("B", deep_set_supported=deep_set)
        for doc, writes in ((a, writes_a), (b, writes_b)):
            for top, key, value in writes:
                doc.set_path([top, key], value)
        a.merge(b)  # adopts B's arrays, then re-homes them
        for root in (a, a._root, b):
            reference, ours = rehome_both_ways(twin_maker(root))
            assert reference == ours
            reference, ours = copy_both_ways(root, monkeypatch)
            assert reference == ours
            reference, ours = hash_both_ways(root, monkeypatch)
            assert reference == ours
    finally:
        monkeypatch.undo()
