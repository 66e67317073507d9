"""OrbitDB content hashes: the memo behind ``_entry_hash`` returns exactly
what an uncached hash would, and no hash depends on the process's hash seed.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.rdl import orbitdb
from repro.rdl.base import RDLError
from repro.rdl.orbitdb import OrbitDBStore, _entry_hash


def reference_entry_hash(clock_time, identity, payload, parents):
    """The uncached hash as it was written before the memo, for every
    payload JSON encodes (sets aside)."""
    blob = json.dumps(
        {"t": clock_time, "id": identity, "p": payload, "prev": sorted(parents)},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: Equal as memo keys, different as JSON: each group must hash apart.
EQUAL_KEYS_DIFFERENT_JSON = [
    (1, True, 1.0),
    (0.0, -0.0),
    ("1", 1),
    ((1,), (True,)),
]


@pytest.fixture(autouse=True)
def cold_memo():
    orbitdb._hash_memo.clear()
    yield
    orbitdb._hash_memo.clear()


class TestMemo:
    @pytest.mark.parametrize("group", EQUAL_KEYS_DIFFERENT_JSON, ids=repr)
    def test_payloads_hash_as_uncached_in_either_order(self, group):
        for ordering in (group, tuple(reversed(group))):
            orbitdb._hash_memo.clear()
            for _ in range(2):  # the second round runs on a warm memo
                for payload in ordering:
                    assert _entry_hash(3, "A", payload, ("h1",)) == reference_entry_hash(
                        3, "A", payload, ("h1",)
                    )
        assert len({reference_entry_hash(3, "A", p, ()) for p in group}) == len(group)

    def test_clocks_and_parents_hash_as_uncached(self):
        cases = [
            (1, "A", "x", ()),
            (True, "A", "x", ()),
            (1.0, "A", "x", ()),
            (2, "A", "x", ("b", "a")),
            (2, "A", "x", ("a", "b")),
            (2, "A", "x", ["a", "b"]),
            (2, "A", {"op": "put", "key": "k", "value": [1, 2.5, None]}, ("a",)),
        ]
        for _ in range(2):
            for case in cases:
                assert _entry_hash(*case) == reference_entry_hash(*case)

    def test_only_exact_str_int_keys_are_memoised(self):
        _entry_hash(1, "A", "x", ("p",))
        _entry_hash(True, "A", "x", ("p",))
        _entry_hash(1, "A", 1, ("p",))
        _entry_hash(1, "A", "x", ["p"])
        assert list(orbitdb._hash_memo) == [(1, "A", "x", ("p",))]

    def test_memo_is_bounded(self):
        for clock in range(orbitdb._HASH_MEMO_LIMIT + 10):
            _entry_hash(clock, "A", "x", ())
        assert 0 < len(orbitdb._hash_memo) <= orbitdb._HASH_MEMO_LIMIT
        assert _entry_hash(5, "A", "x", ()) == reference_entry_hash(5, "A", "x", ())

    def test_threads_see_uncached_results(self, monkeypatch):
        # More threads than cores, frequent switches and a tiny memo, so
        # lookups, inserts and the clear at the limit interleave.
        monkeypatch.setattr(orbitdb, "_HASH_MEMO_LIMIT", 16)
        keys = [(clock, "A", f"p{clock % 7}", ("h",)) for clock in range(300)]
        expected = [reference_entry_hash(*key) for key in keys]
        results = []

        def work():
            results.append([_entry_hash(*key) for key in keys])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4
        assert len(orbitdb._hash_memo) <= 16

    @pytest.mark.parametrize(
        "field, value", [("payload", "evil"), ("clock_time", 2), ("identity", "B")]
    )
    def test_tampered_entry_rejected_on_a_warm_memo(self, field, value):
        a, b = OrbitDBStore("A"), OrbitDBStore("B")
        b.grant_access("A")
        a.grant_access("B")
        a.append("x")
        honest = a.sync_payload("B")
        b.apply_sync(honest, "A")  # the content check warmed the memo
        assert orbitdb._hash_memo
        tampered = a.sync_payload("B")
        tampered["entries"][0][field] = value
        fresh = OrbitDBStore("B")
        fresh.grant_access("A")
        with pytest.raises(RDLError, match="failed content verification"):
            fresh.apply_sync(tampered, "A")


class TestCanonicalEncoding:
    def test_sets_hash_as_their_sorted_list(self):
        for payload in ({"z", "x", "y"}, frozenset({"z", "x", "y"})):
            assert _entry_hash(1, "A", payload, ()) == reference_entry_hash(
                1, "A", ["x", "y", "z"], ()
            )

    def test_mixed_and_nested_sets_are_canonical(self):
        # Members sort by their own encodings: '"a"' < '1' < '[2, "b"]'.
        mixed = frozenset({1, "a", (2, "b")})
        assert _entry_hash(1, "A", mixed, ()) == reference_entry_hash(
            1, "A", ["a", 1, [2, "b"]], ()
        )
        nested = {"k": frozenset({frozenset({"b", "a"}), frozenset({"c"})})}
        assert _entry_hash(1, "A", nested, ()) == reference_entry_hash(
            1, "A", {"k": [["a", "b"], ["c"]]}, ()
        )

    def test_hash_does_not_depend_on_the_hash_seed(self):
        code = (
            "from repro.rdl.orbitdb import _entry_hash\n"
            "print(_entry_hash(1, 'A', frozenset({'x', 'y', 'z', 'w', 'v'}), ()),"
            " _entry_hash(2, 'A', {'s': {'a', 'b', 'c', 'd'}}, ('h',)))\n"
        )
        src = str(Path(orbitdb.__file__).resolve().parents[2])
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", code], env=env, check=True,
                    capture_output=True, text=True,
                ).stdout
            )
        assert len(outputs) == 1
        assert outputs.pop().split() == [
            _entry_hash(1, "A", frozenset({"x", "y", "z", "w", "v"}), ()),
            _entry_hash(2, "A", {"s": {"a", "b", "c", "d"}}, ("h",)),
        ]
