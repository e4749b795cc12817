"""Per-function spans for a traced benchmark run, recorded from outside the
package under test.

``Tracer`` replaces every public module-level function of the given modules
with a timing wrapper and puts the originals back on exit. Because the
package calls its own functions through module globals (``qmath.vn_entropy``
calling ``eig_hermitian``) or module attributes (``entanglement`` calling
``qmath.partial_trace``), calls made inside the package are caught too.

Spans are aggregated in memory per key: calls, inclusive seconds, and self
seconds (inclusive time minus the time covered by child spans). Only the
thread that records may call traced functions while ``recording`` is set;
the span stack is not shared safely between threads.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


def public_functions(module: ModuleType) -> list[str]:
    """Names of the functions defined in ``module`` that do not start with '_'."""
    return [
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


class Tracer:
    """Context manager that wraps the public functions of ``modules``.

    ``groups`` maps "module.function" to a shared key, so several functions
    report as one layer; a span nested directly in a span of its own key is
    not counted as another call. ``hooks`` maps a key to a callable
    ``hook(args, kwargs, result)`` run after each recorded call.
    """

    def __init__(
        self,
        modules: Iterable[ModuleType],
        groups: dict[str, str] | None = None,
        hooks: dict[str, Callable] | None = None,
    ):
        self.modules = list(modules)
        self.groups = dict(groups or {})
        self.hooks = dict(hooks or {})
        self.stats: dict[str, SpanStats] = {}
        self.stack: list[list] = []  # frames [key, seconds covered by children]
        self.recording = False
        self._originals: list[tuple[ModuleType, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module in self.modules:
                short = module.__name__.rsplit(".", 1)[-1]
                for name in public_functions(module):
                    fn = getattr(module, name)
                    key = self.groups.get(f"{short}.{name}", f"{short}.{name}")
                    self._originals.append((module, name, fn))
                    setattr(module, name, self._wrap(key, fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.recording = False
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            module, name, fn = self._originals.pop()
            setattr(module, name, fn)

    def _wrap(self, key: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(key, SpanStats())
        stack = self.stack
        hook = self.hooks.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            nested = bool(stack) and stack[-1][0] == key
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                if not nested:
                    stats.calls += 1
                    stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def in_span(self, key: str) -> bool:
        """True while a span of ``key`` is open."""
        return any(frame[0] == key for frame in self.stack)

    def get(self, key: str) -> SpanStats:
        return self.stats.get(key, SpanStats())

    def module_self_s(self, module: str) -> float:
        """Self seconds summed over every key of one module."""
        return sum(s.self_s for k, s in self.stats.items() if k.split(".", 1)[0] == module)
