"""Outside-in layer tracer: wraps public module functions from outside.

The program's source is not touched. :meth:`Tracer.install` replaces every
public function defined in a traced module with a timing wrapper, in that
module and in every other traced module that imported it by name, and
:meth:`Tracer.uninstall` puts the originals back.

Each call of a wrapped function is one span: name, start, end, parent span
and run id. Per name the tracer sums calls, inclusive seconds, self seconds
(duration minus the time covered by child spans) and an optional work
figure that a hook computes from the call's arguments (FLOPs, say). Hot,
tiny functions named in ``hot`` keep only these sums, not one span per
call, so that the span list stays small.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Stat:
    calls: float = 0
    s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0
    own: bool = False  # a span opened by the benchmark itself, not a wrapped function

    def scaled(self, factor: float) -> "Stat":
        return Stat(self.calls * factor, self.s * factor, self.self_s * factor,
                    self.work * factor, self.own)

    def plus(self, other: "Stat") -> "Stat":
        return Stat(self.calls + other.calls, self.s + other.s,
                    self.self_s + other.self_s, self.work + other.work,
                    self.own or other.own)


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module`` itself (not imported into it)."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    """Spans and per-name sums for wrapped calls; see the module docstring."""

    def __init__(self, layers: dict[str, object], alias_modules=(), hot=(),
                 hooks=None, clock=time.perf_counter):
        self.layers = layers            # layer name -> module
        self.alias_modules = list(alias_modules)
        self.hot = set(hot)
        self.hooks = dict(hooks or {})  # name -> fn(args, kwargs) -> work
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []    # (id, name, start, end, parent, run)
        self.run_id = None
        self._stack: list[list] = []    # [child seconds, span id] per open span
        self._next_id = 1
        self._patches: list[tuple] = []
        self.hook_errors = 0

    # -- wrapping ----------------------------------------------------------

    def wrapped_names(self) -> set[str]:
        return {f"{layer}.{name}" for layer, module in self.layers.items()
                for name in public_functions(module)}

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer, module in self.layers.items():
            for name, fn in public_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in [*self.layers.values(), *self.alias_modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
                if hook is not None:
                    try:
                        self.stats[name].work += hook(args, kwargs)
                    except Exception:  # accounting must never break the traced program
                        self.hook_errors += 1

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark around a call into a layer."""
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame, own=True)

    # -- bookkeeping -------------------------------------------------------

    def _enter(self) -> list:
        parent = self._stack[-1][1] if self._stack else None
        frame = [0.0, self._next_id, parent, self.clock()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, own: bool = False) -> None:
        end = self.clock()
        self._stack.pop()
        child_s, span_id, parent, start = frame
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat(own=own)
        st.calls += 1
        st.s += duration
        st.self_s += duration - child_s
        if name not in self.hot:
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    def take(self) -> dict[str, Stat]:
        """Return the sums gathered so far and start new ones."""
        stats, self.stats = self.stats, {}
        return stats
