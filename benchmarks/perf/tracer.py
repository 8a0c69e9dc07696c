"""Outside-in span tracer: wraps the simulator's layer entry points from the benchmark.

Nothing in ``src/repro`` knows it is being traced.  :meth:`Tracer.patch_function`
rebinds every reference to a module-level function held in the globals of
loaded ``repro.*`` modules (``from x import f`` copies the reference, so
patching only the defining module would miss most callers);
:meth:`Tracer.patch_method` replaces a method on its class, and
:meth:`Tracer.patch_hooks` wraps the ``on_*`` hooks of one recorder
instance.  Spans nest on a stack and aggregate per name into calls,
inclusive seconds and self seconds (inclusive minus time covered by child
spans).  No wrapped entry point calls itself, so a span never nests in one
of its own name.

Tracing is observation-only: wrappers pass arguments and results through
untouched, so a traced run's simulated outputs equal an untraced run's
(the benchmark checks the two digests match).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Any, Callable


class SpanStats:
    """Aggregate of one span name: calls, inclusive and self seconds."""

    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Nested span timer keyed by span name, plus free-form counters."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        #: seconds inside top-level spans (the rest of an op is untraced glue)
        self.top_s = 0.0
        # open spans: [start, seconds covered by children]
        self._stack: list[list[float]] = []

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_call: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span ``name``; ``on_call(*args, **kwargs)`` counts work."""
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(*args, **kwargs)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                stats.calls += 1
                stats.incl_s += dur
                stats.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_s += dur

        return traced

    def patch_function(
        self,
        module: str,
        attr: str,
        name: str,
        on_call: Callable[..., None] | None = None,
    ) -> None:
        """Rebind ``module.attr`` everywhere a loaded ``repro`` module holds it."""
        orig = getattr(sys.modules[module], attr)
        traced = self.wrap(name, orig, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)

    def patch_method(
        self,
        cls: type,
        attr: str,
        name: str,
        on_call: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``cls.attr`` (plain method or classmethod) with a traced one."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, on_call)))
        else:
            setattr(cls, attr, self.wrap(name, raw, on_call))

    def patch_hooks(self, recorder: object, name: str) -> None:
        """Trace every ``on_*`` hook of one recorder instance under ``name``."""
        for attr in dir(recorder):
            if attr.startswith("on_"):
                setattr(recorder, attr, self.wrap(name, getattr(recorder, attr)))

    def span(self, name: str) -> SpanStats:
        """Stats of ``name``; an empty record when the span never fired."""
        return self.stats.get(name) or SpanStats()
