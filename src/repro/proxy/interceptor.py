"""Dynamic proxying of RDL functions — ER-pi's Python language binding.

The paper generates proxies per target language (Go AST rewriting, JS monkey
patching, Java dynamic proxies); in Python the equivalent is runtime method
interception: :func:`instrument` replaces selected bound methods on an
*instance* with recording wrappers, leaving the class and all other
instances untouched — no RDL source modification, as the paper requires.

``deinstrument`` restores the original behaviour, so proxies can be scoped
to the ER-pi.Start()/End() window.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Callback signature: (target, method_name, args, kwargs, result) -> None.
CallHook = Callable[[Any, str, tuple, dict, Any], None]

_PROXY_ATTR = "_erpi_original_methods"
_IN_CALL_ATTR = "_erpi_in_call"


def instrumentable_methods(target: Any) -> List[str]:
    """The public callable methods of ``target`` eligible for proxying."""
    names: List[str] = []
    for name in dir(target):
        if name.startswith("_"):
            continue
        try:
            attribute = getattr(target, name)
        except AttributeError:
            continue
        if callable(attribute) and not inspect.isclass(attribute):
            names.append(name)
    return names


def instrument(
    target: Any,
    on_call: CallHook,
    methods: Optional[Iterable[str]] = None,
    before: bool = False,
) -> List[str]:
    """Proxy the given methods (default: all public) of ``target``.

    The wrapper calls through to the original method, then invokes
    ``on_call`` with the arguments and result (or before the call when
    ``before`` is True, with ``result=None``).  Returns the list of proxied
    method names.  Instrumenting an already-instrumented instance raises —
    nested proxies would double-record events.
    """
    if getattr(target, _PROXY_ATTR, None):
        raise RuntimeError(f"{target!r} is already instrumented")
    selected = list(methods) if methods is not None else instrumentable_methods(target)
    originals: Dict[str, Callable] = {}
    for name in selected:
        original = getattr(target, name)
        if not callable(original):
            raise TypeError(f"attribute {name!r} of {target!r} is not callable")
        originals[name] = original

        def make_wrapper(method_name: str, bound: Callable) -> Callable:
            @functools.wraps(bound)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                # Reentrancy guard: a proxied method calling another proxied
                # method on the same object is library-internal plumbing, not
                # a second application-level event — record only the outer
                # call.
                if getattr(target, _IN_CALL_ATTR, False):
                    return bound(*args, **kwargs)
                object.__setattr__(target, _IN_CALL_ATTR, True)
                try:
                    if before:
                        on_call(target, method_name, args, kwargs, None)
                        return bound(*args, **kwargs)
                    result = bound(*args, **kwargs)
                finally:
                    object.__setattr__(target, _IN_CALL_ATTR, False)
                on_call(target, method_name, args, kwargs, result)
                return result

            return wrapper

        object.__setattr__(target, name, make_wrapper(name, original))
    object.__setattr__(target, _PROXY_ATTR, originals)
    return selected


def deinstrument(target: Any) -> None:
    """Remove the proxies installed by :func:`instrument` (idempotent)."""
    originals: Optional[Dict[str, Callable]] = getattr(target, _PROXY_ATTR, None)
    if not originals:
        return
    for name in originals:
        try:
            object.__delattr__(target, name)
        except AttributeError:
            pass
    object.__delattr__(target, _PROXY_ATTR)
    try:
        object.__delattr__(target, _IN_CALL_ATTR)
    except AttributeError:
        pass


def is_instrumented(target: Any) -> bool:
    return bool(getattr(target, _PROXY_ATTR, None))


def own_state(target: Any) -> Dict[str, Any]:
    """``target.__dict__`` without the attributes :func:`instrument` installed.

    Snapshots must capture only the object's own state: a snapshot taken
    while recording would otherwise carry the proxies, and restoring it
    would reinstall them after the recording window closed.
    """
    state = target.__dict__
    originals = state.get(_PROXY_ATTR)
    if originals is None:
        return state
    installed = {_PROXY_ATTR, _IN_CALL_ATTR, *originals}
    return {key: value for key, value in state.items() if key not in installed}
