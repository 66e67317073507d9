"""Per-relation hash indexes on the InterleavingStore.

The indexed accessors (``surviving_ids``/``pruned_ids``/``unexplored_ids``/
``interleaving``/``explored``) must return exactly what a linear scan over
the underlying Datalog relations returns, and must do so without paying the
scan.  The benchmark test builds a 10k-interleaving store and counts the
fact-table rows each path reads; the reference implementations below are
the pre-index accessor bodies (a ``query``/``rows`` sweep per call).
"""

from repro.datalog.store import InterleavingStore


def reference_interleaving(store, il_id):
    rows = [row for row in store.db.rows("interleaving") if row[0] == il_id]
    return [event_id for _, _, event_id in sorted(rows)]


def reference_pruned_ids(store, algorithm=None):
    if algorithm is None:
        return sorted({row[0] for row in store.db.rows("pruned")})
    return sorted({row[0] for row in store.db.rows("pruned") if row[1] == algorithm})


def reference_surviving_ids(store):
    pruned = {row[0] for row in store.db.rows("pruned")}
    return [
        il_id
        for il_id in sorted(row[0] for row in store.db.rows("il_meta"))
        if il_id not in pruned
    ]


def reference_unexplored_ids(store):
    pruned = {row[0] for row in store.db.rows("pruned")}
    explored = {row[0] for row in store.db.rows("explored")}
    return [
        il_id
        for il_id in sorted(row[0] for row in store.db.rows("il_meta"))
        if il_id not in pruned and il_id not in explored
    ]


def reference_violations(store):
    return sorted(
        row[0] for row in store.db.rows("explored") if row[1] == "violation"
    )


def build_store(count=10_000, length=6):
    store = InterleavingStore()
    for i in range(count):
        ids = [f"e{(i + offset) % (length * 3)}" for offset in range(length)]
        il_id = store.persist_interleaving(ids)
        if i % 3 == 0:
            store.mark_pruned(il_id, "event_grouping")
        elif i % 3 == 1:
            store.mark_explored(il_id, "violation" if i % 30 == 1 else "ok")
    return store


class TestIndexedAccessorsMatchScans:
    def test_results_identical_to_linear_scan(self):
        store = build_store(count=600)
        assert store.pruned_ids() == reference_pruned_ids(store)
        assert store.pruned_ids("event_grouping") == reference_pruned_ids(
            store, "event_grouping"
        )
        assert store.pruned_ids("missing") == reference_pruned_ids(store, "missing")
        assert store.surviving_ids() == reference_surviving_ids(store)
        assert store.unexplored_ids() == reference_unexplored_ids(store)
        assert store.violations() == reference_violations(store)
        for il_id in (0, 1, 599):
            assert store.interleaving(il_id) == reference_interleaving(store, il_id)

    def test_duplicate_marks_do_not_double_index(self):
        store = InterleavingStore()
        il_id = store.persist_interleaving(["e1", "e2"])
        store.mark_pruned(il_id, "x")
        store.mark_pruned(il_id, "x")
        store.mark_explored(il_id, "ok")
        store.mark_explored(il_id, "ok")
        assert store.pruned_ids() == [il_id]
        assert store.explored() == {il_id: "ok"}


class TestIndexedAccessorsAreFast:
    def test_10k_store_beats_linear_scan(self):
        """The session-loop reads stop paying O(facts).

        Every fact-table row a reader touches comes out of
        ``store.db.rows``, so the test counts the rows it returns: the
        indexed accessors must read none, and each reference scan reads a
        whole fact table (the 10,000 interleavings' ``il_meta`` rows, or
        for ``pruned_ids`` the third of them that is pruned).  A row count
        does not depend on how loaded the machine is, as a timing would.
        """
        store = build_store(count=10_000)
        rows_read = 0
        scan = store.db.rows

        def counting_rows(relation):
            nonlocal rows_read
            rows = scan(relation)
            rows_read += len(rows)
            return rows

        store.db.rows = counting_rows

        def counted(fn):
            nonlocal rows_read
            rows_read = 0
            result = fn()
            return rows_read, result

        pairs = [
            (
                "surviving_ids",
                store.surviving_ids,
                lambda: reference_surviving_ids(store),
                10_000,
            ),
            (
                "pruned_ids",
                store.pruned_ids,
                lambda: reference_pruned_ids(store),
                3_334,
            ),
            (
                "unexplored_ids",
                store.unexplored_ids,
                lambda: reference_unexplored_ids(store),
                10_000,
            ),
        ]
        for name, indexed_fn, reference_fn, scan_rows in pairs:
            indexed_rows, indexed_result = counted(indexed_fn)
            reference_rows, reference_result = counted(reference_fn)
            assert indexed_result == reference_result, name
            assert indexed_rows == 0, f"{name}: indexed read {indexed_rows} rows"
            assert reference_rows >= scan_rows, (
                f"{name}: the scan read only {reference_rows} rows"
            )
