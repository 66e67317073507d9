"""Yorkie's sync pays once for what it ships, and replays as it did before.

Three costs left the sync path: the push watermark is the pack the push
shipped (no second pickle of the replica), a document merge re-homes its
arrays by walking the document tree (no generic walk over every stamp), and
an RGA merge rebuilds its order tree only when it brought a node or won a
move register.  The old ``sync_payload``, ``restart``, ``JSONDocument.merge``
and ``RGAList.merge`` are kept here as the reference:

* hypothesis-generated documents and RGA op/merge sequences must leave
  every CRDT's owner, and every order tree, where the old merges left them;
* the first candidates of Yorkie-1, Yorkie-2 and Yorkie-CR (under its
  fault plan), buggy and fixed, replayed on a cluster running the new code
  and on one running the old, must give equal event results, violations,
  states, host up flags and canonical digests, the watermark in one form.
"""

import itertools
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.harness import make_explorer, record_scenario
from repro.bugs import scenario
from repro.crdt.base import StateCRDT, rehome
from repro.crdt.jsondoc import JSONDocument
from repro.crdt.orset import ORSet
from repro.crdt.rga import RGAList
from repro.fastcopy import copy_state, slot_names
from repro.rdl.yorkie import YorkieDocument
from repro.statehash import state_digest

from tests.snapshots import pickled_with

CANDIDATES = 400

#: The pickled replica fields that make up the product's watermark, in order.
PACK_FIELDS = ("_doc", "_move_log", "_seen_moves", "_op_counter")


# ------------------------------------------------------------ the old code


def old_push_checkpoint(self):
    """A snapshot of everything but the watermark itself."""
    return pickled_with(self, _durable_checkpoint=None)


def old_sync_payload(self, target_replica_id):
    payload = {
        "doc_key": self.doc_key,
        "doc": copy_state(self._doc),
        "moves": list(self._move_log),
    }
    self._durable_checkpoint = old_push_checkpoint(self)
    return payload


def old_restart(self):
    seen, watermark = self._seen_moves, self._durable_checkpoint
    self.restore(watermark)
    if self.has_defect("durable_seen_cache"):
        self._seen_moves = seen
        watermark = old_push_checkpoint(self)
    self._durable_checkpoint = watermark


def old_document_merge(self, other):
    self._merge_obj(self._root, other._root)
    self._clock.observe(other._clock.time)
    rehome(self._root, self.replica_id)


def old_rga_merge(self, other):
    move_origins = set()
    for element_id, node in other._nodes.items():
        if element_id not in self._nodes:
            self._integrate_insert(
                element_id, copy_state(node.payload), node.origin_anchor
            )
        if node.tombstone:
            self._nodes[element_id].tombstone = True
        if node.origin_id is not None:
            mine = self._nodes[element_id]
            if mine.origin_id is None:
                mine.origin_id = node.origin_id
            move_origins.add(node.origin_id)
    for element_id, (their_stamp, their_anchor) in other._move_registers.items():
        current = self._move_registers.get(element_id)
        if current is None or their_stamp > current[0]:
            self._move_registers[element_id] = (their_stamp, their_anchor)
    self._rebuild()
    for origin_id in move_origins:
        self._collapse_duplicates(origin_id)
    self._clock.observe(other._clock.time)


NEW_INIT = YorkieDocument.__init__


def old_init(self, *args, **kwargs):
    NEW_INIT(self, *args, **kwargs)
    self._durable_checkpoint = old_push_checkpoint(self)


OLD_CODE = (
    (YorkieDocument, "__init__", old_init),
    (YorkieDocument, "sync_payload", old_sync_payload),
    (YorkieDocument, "restart", old_restart),
    (JSONDocument, "merge", old_document_merge),
    (RGAList, "merge", old_rga_merge),
)


def install_old_code(patched):
    for owner, name, function in OLD_CODE:
        patched.setattr(owner, name, function)


# ------------------------------------------------- re-home along the tree

CRDT_LEAF = "<crdt>"

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from(["a", "b", CRDT_LEAF]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["x", "y", "z"]), inner, max_size=3),
    max_leaves=10,
)
json_writes = st.lists(
    st.tuples(st.sampled_from(["p", "q"]), st.sampled_from(["x", "y"]), json_values),
    max_size=4,
)


def materialise(value, owner):
    """``value`` with each CRDT marker replaced by a tuple holding a fresh
    ``StateCRDT`` (``_wrap`` keeps tuples as leaves)."""
    if value == CRDT_LEAF:
        return ("held", ORSet(owner))
    if isinstance(value, list):
        return [materialise(item, owner) for item in value]
    if isinstance(value, dict):
        return {key: materialise(item, owner) for key, item in value.items()}
    return value


def owners(root):
    """Type and replica id of every StateCRDT reachable from ``root``, in a
    deterministic walk order."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if obj is None or isinstance(obj, (str, int, float, bytes)) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, StateCRDT):
            found.append((type(obj).__name__, obj.replica_id))
        if hasattr(obj, "__dict__"):
            stack.extend(obj.__dict__.values())
        stack.extend(getattr(obj, slot, None) for slot in slot_names(type(obj)))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return found


def write_all(doc, writes):
    for top, key, value in writes:
        doc.set_path([top, key], materialise(value, doc.replica_id))


@given(json_writes, json_writes, json_writes, st.booleans())
@settings(max_examples=80, deadline=None)
def test_tree_walk_rehomes_what_the_generic_walk_did(first, second, later, deep_set):
    """Both merges, run on twin documents: the peer's arrays and the local
    ``"<rid>/arrN"`` arrays written before each merge end up owned alike."""
    worlds = {}
    for merge in (JSONDocument.merge, old_document_merge):
        a = JSONDocument("A", deep_set_supported=deep_set)
        b = JSONDocument("B", deep_set_supported=deep_set)
        write_all(a, first)
        write_all(b, second)
        merge(a, b)
        after_first = owners(a._root)
        write_all(a, later)  # new local arrays, not yet re-homed
        write_all(b, first)
        merge(a, b)
        merge(b, a)
        worlds[merge] = (after_first, owners(a._root), owners(b._root))
    ours, reference = worlds.values()
    assert ours == reference


# ------------------------------------------- the RGA rebuilds only on change

rga_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 2), st.integers(0, 9)),
        st.tuples(st.just("delete"), st.integers(0, 2), st.integers(0, 9)),
        st.tuples(
            st.just("move_after"),
            st.integers(0, 2),
            st.integers(0, 9),
            st.none() | st.integers(0, 9),
            st.booleans(),
        ),
        st.tuples(
            st.just("move_with_winner"),
            st.integers(0, 2),
            st.integers(0, 9),
            st.integers(0, 9),
        ),
        st.tuples(st.just("merge"), st.integers(0, 2), st.integers(0, 2)),
    ),
    max_size=25,
)


def apply_rga_op(replicas, op, merge):
    kind, target = op[0], replicas[op[1] % len(replicas)]
    size = len(target)
    if kind == "insert":
        target.insert(op[2] % (size + 1), f"v{op[2]}")
    elif kind == "merge":
        source = replicas[op[2] % len(replicas)]
        if source is not target:
            merge(target, source)
    elif size == 0:
        return
    elif kind == "delete":
        target.delete(op[2] % size)
    elif kind == "move_after":
        ids = target.element_ids()
        anchor = None if op[3] is None else ids[op[3] % size]
        target.move_after(ids[op[2] % size], anchor, lww=op[4])
    else:
        target.move_with_winner(op[2] % size, op[3] % size)


def order_tree(rga):
    placements = {eid: (node.anchor, node.placed) for eid, node in rga._nodes.items()}
    return rga._children, placements, rga.value()


@given(st.integers(2, 3), rga_ops)
@settings(max_examples=150, deadline=None)
@example(
    2,
    [
        ("insert", 0, 0),
        ("insert", 0, 1),
        ("merge", 1, 0),
        ("move_after", 1, 1, None, True),  # only a register changes...
        ("merge", 0, 1),  # ...so this merge must still rebuild
    ],
)
def test_lazy_rga_merge_keeps_the_always_rebuilt_order(count, ops):
    lazy = [RGAList(f"r{index}") for index in range(count)]
    rebuilt = [RGAList(f"r{index}") for index in range(count)]
    for op in ops:
        apply_rga_op(lazy, op, RGAList.merge)
        apply_rga_op(rebuilt, op, old_rga_merge)
        for ours, reference in zip(lazy, rebuilt):
            assert order_tree(ours) == order_tree(reference), op


# --------------------------------------------- the replay path, old and new


def canonical_digests(cluster, old):
    digests = {}
    for rid in cluster.replica_ids():
        rdl = cluster.rdl(rid)
        if old:
            state = dict(rdl.__dict__)
            pushed = pickle.loads(rdl._durable_checkpoint)
            state["_durable_checkpoint"] = tuple(pushed[field] for field in PACK_FIELDS)
        else:
            state = rdl.canonical_state()
        digests[rid] = state_digest(state)
    return digests


def fingerprint(recorded, interleaving, assertions, old=False):
    outcome = recorded.engine.replay(interleaving, assertions)
    cluster = recorded.cluster
    return (
        canonical_digests(cluster, old),
        {rid: cluster.host(rid).up for rid in cluster.replica_ids()},
        [(res.ok, res.result, res.error) for res in outcome.event_results],
        outcome.violations,
        outcome.states,
    )


@pytest.mark.parametrize("fixed", [False, True], ids=["buggy", "fixed"])
@pytest.mark.parametrize("name", ["Yorkie-1", "Yorkie-2", "Yorkie-CR"])
def test_replays_match_the_old_sync_path(name, fixed, monkeypatch):
    sc = scenario(name)
    faults = sc.fault_plan() is not None
    new = record_scenario(sc, fixed=fixed)
    with monkeypatch.context() as patched:
        install_old_code(patched)
        old = record_scenario(sc, fixed=fixed)
    explorer = make_explorer(new, "erpi", faults=faults)
    candidates = list(itertools.islice(explorer.candidates(), CANDIDATES))
    assert len(candidates) > 1
    assertions, old_assertions = sc.make_assertions(), sc.make_assertions()
    for index, interleaving in enumerate(candidates):
        ours = fingerprint(new, interleaving, assertions)
        with monkeypatch.context() as patched:
            install_old_code(patched)
            reference = fingerprint(old, interleaving, old_assertions, old=True)
        assert ours == reference, f"{name}: candidate {index} differs"
