"""Layer spans recorded from outside the program.

The program under test carries no tracing of its own.  ``SpanRecorder``
replaces each traced function at every module attribute that is bound to it
(``cli``, ``lindblad`` and ``meanfield`` import by name, so one function can
have several bindings) with a wrapper that records a span around the call,
and puts every original binding back on exit.  Spans nest: a span's self time
is its duration minus the part of it covered by its child spans.

Counters that the program does not expose are taken from return values
(``observe``) and from a counting subclass of the RK45 integrator the driven
mean-field loop calls through ``meanfield.RK45``.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """One traced function: ``owner`` is a module or class name inside the
    package, ``attr`` the function's name there, ``label`` the span name."""

    owner: str
    attr: str
    label: str
    observe: Callable[[Any, "SpanRecorder"], None] | None = None


class SpanRecorder:
    """Span stack plus per-label statistics for one traced region."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []   # [start, child time] per open span
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def wrap(self, label: str, fn: Callable,
             observe: Callable[[Any, "SpanRecorder"], None] | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self.clock(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                duration = self.clock() - frame[0]
                st = self.stats.setdefault(label, SpanStats())
                st.calls += 1
                st.total_s += duration
                st.self_s += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if observe is not None:
                observe(result, self)
            return result

        return traced

    def count_max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), int(value))

    def count_add(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    # -- installation -----------------------------------------------------

    def _bind(self, holder: Any, attr: str, value: Any) -> None:
        self._patched.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def install(self, package: str, targets: list[Target],
                extra: list[tuple[Any, str, Any]] = ()) -> None:
        """Wrap every target at each of its bindings in ``package``'s modules.

        ``extra`` lists further (holder, attribute, replacement) bindings,
        such as the counting integrator; dict holders are patched by key.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for t in targets:
            holder = sys.modules.get(f"{package}.{t.owner}")
            if holder is None:
                mod_name, cls_name = t.owner.rsplit(".", 1)
                holder = getattr(sys.modules[f"{package}.{mod_name}"], cls_name)
                self._bind(holder, t.attr, self.wrap(t.label, holder.__dict__[t.attr], t.observe))
                continue
            original = holder.__dict__[t.attr]
            wrapped = self.wrap(t.label, original, t.observe)
            for mod in modules:
                for attr, value in list(mod.__dict__.items()):
                    if value is original:
                        self._bind(mod, attr, wrapped)
        for holder, attr, replacement in extra:
            if isinstance(holder, dict):
                self._patched.append((holder, attr, holder[attr]))
                holder[attr] = replacement
            else:
                self._bind(holder, attr, replacement)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._patched.clear()


def counting_integrator(base: type, recorder: SpanRecorder, key: str) -> type:
    """Subclass of an ``OdeSolver`` class that adds one to ``key`` per step."""

    class Counting(base):
        def step(self):
            recorder.count_add(key)
            return super().step()

    Counting.__name__ = base.__name__
    Counting.__qualname__ = base.__qualname__
    return Counting
