"""Tests for dynamic method interception (the Python 'language binding')."""

import pytest

from repro.proxy import interceptor


class Sample:
    def __init__(self):
        self.calls = 0

    def work(self, x, factor=2):
        self.calls += 1
        return x * factor

    def chained(self):
        return self.work(10)

    def query(self):
        return "result"

    def _private(self):
        return "hidden"


class TestInstrument:
    def test_calls_pass_through(self):
        target = Sample()
        seen = []
        interceptor.instrument(target, lambda *args: seen.append(args))
        assert target.work(3) == 6
        assert target.calls == 1

    def test_hook_receives_call_details(self):
        target = Sample()
        seen = []
        interceptor.instrument(
            target, lambda t, name, args, kwargs, result: seen.append(
                (name, args, kwargs, result)
            )
        )
        target.work(3, factor=5)
        assert seen == [("work", (3,), {"factor": 5}, 15)]

    def test_private_methods_not_listed(self):
        assert "_private" not in interceptor.instrumentable_methods(Sample())

    def test_selected_methods_only(self):
        target = Sample()
        seen = []
        interceptor.instrument(
            target, lambda t, n, a, k, r: seen.append(n), methods=["query"]
        )
        target.work(1)
        target.query()
        assert seen == ["query"]

    def test_nested_calls_record_outer_only(self):
        target = Sample()
        seen = []
        interceptor.instrument(target, lambda t, n, a, k, r: seen.append(n))
        target.chained()  # chained() calls work() internally
        assert seen == ["chained"]

    def test_double_instrument_rejected(self):
        target = Sample()
        interceptor.instrument(target, lambda *a: None)
        with pytest.raises(RuntimeError):
            interceptor.instrument(target, lambda *a: None)

    def test_is_instrumented(self):
        target = Sample()
        assert not interceptor.is_instrumented(target)
        interceptor.instrument(target, lambda *a: None)
        assert interceptor.is_instrumented(target)

    def test_other_instances_untouched(self):
        instrumented, plain = Sample(), Sample()
        seen = []
        interceptor.instrument(instrumented, lambda t, n, a, k, r: seen.append(n))
        plain.work(1)
        assert seen == []

    def test_before_mode_records_before_call(self):
        target = Sample()
        seen = []
        interceptor.instrument(
            target,
            lambda t, n, a, k, r: seen.append((n, r)),
            methods=["work"],
            before=True,
        )
        target.work(2)
        assert seen == [("work", None)]

    def test_non_callable_method_rejected(self):
        target = Sample()
        target.data = 42
        with pytest.raises(TypeError):
            interceptor.instrument(target, lambda *a: None, methods=["data"])


class TestDeinstrument:
    def test_restores_original_behaviour(self):
        target = Sample()
        seen = []
        interceptor.instrument(target, lambda t, n, a, k, r: seen.append(n))
        interceptor.deinstrument(target)
        target.work(1)
        assert seen == []
        assert not interceptor.is_instrumented(target)

    def test_idempotent(self):
        target = Sample()
        interceptor.deinstrument(target)  # never instrumented: no-op
        interceptor.instrument(target, lambda *a: None)
        interceptor.deinstrument(target)
        interceptor.deinstrument(target)

    def test_reinstrument_after_deinstrument(self):
        target = Sample()
        interceptor.instrument(target, lambda *a: None)
        interceptor.deinstrument(target)
        seen = []
        interceptor.instrument(target, lambda t, n, a, k, r: seen.append(n))
        target.query()
        assert seen == ["query"]


class TestOwnState:
    def test_leaves_out_installed_attributes(self):
        target = Sample()
        interceptor.instrument(target, lambda *a: None)
        target.chained()  # sets the reentrancy flag
        assert interceptor.own_state(target) == {"calls": 1}

    def test_uninstrumented_state_is_the_dict(self):
        target = Sample()
        assert interceptor.own_state(target) is target.__dict__
