"""Run a call with CPython's cyclic garbage collector paused.

A check allocates hundreds of thousands of objects that live until it
returns (parsed operations, edges, constraints, index rows). Allocation
alone keeps triggering the collector, and each of its full passes
re-traverses that whole heap although none of it is garbage. The checker
builds no reference cycles, so reference counting frees everything it
drops and pausing the collector costs no memory.
"""

from __future__ import annotations

import functools
import gc
from collections.abc import Callable
from typing import ParamSpec, TypeVar

P = ParamSpec("P")
R = TypeVar("R")


def collector_paused(fn: Callable[P, R]) -> Callable[P, R]:
    """Decorate `fn` to run with the collector disabled.

    The collector is re-enabled on return or raise only if it was enabled
    on entry, so a caller's disabled collector stays disabled and nested
    calls leave the outermost one to restore it. The switch is
    process-wide: of calls overlapping in threads, those that found it
    enabled each re-enable it, so it ends as it was before the first.
    """

    @functools.wraps(fn)
    def paused(*args: P.args, **kwargs: P.kwargs) -> R:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused
