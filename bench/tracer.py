"""Spans and counts recorded around calls into latticeobs modules.

The benchmark replaces the module attributes that callers look up (for
example ``decoder.color_walk`` or ``verifier.apply_step``) with wrappers,
so the library runs unchanged and no instrumentation lives in ``src/``.

A span records its name, start, end, the span that caused it and the
outermost span of the same request.  A layer's self time is its span time
minus the time its child spans cover.  Counting wrappers only count calls,
keyed also by the innermost active span, for hot primitives where a span
would cost more than the call.  Spans stay in memory and are written out
once, when the run ends.
"""

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass, field

SPAN_CAP = 200_000  # spans kept in memory; later ones are only counted

@dataclass
class Snapshot:
    calls: Counter
    time_ns: Counter
    self_ns: Counter
    nested_calls: Counter
    nested_ns: Counter
    extra: Counter


@dataclass
class Tracer:
    calls: Counter = field(default_factory=Counter)
    time_ns: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    nested_calls: Counter = field(default_factory=Counter)  # (name, parent) -> calls
    nested_ns: Counter = field(default_factory=Counter)  # (name, parent) -> ns
    extra: Counter = field(default_factory=Counter)  # values added by result hooks
    spans: list = field(default_factory=list)
    dropped: int = 0
    # active spans, innermost last: [name, child_ns, span_id, request_id]
    stack: list = field(default_factory=list)
    _wrapped: list = field(default_factory=list)  # (module, attr, original, wrapper)
    _next_id: int = 0

    def span(self, module, attr: str, name: str, on_result=None) -> None:
        """Time every call through module.attr as a span called `name`;
        on_result(tracer, args, result) may add to `extra`."""
        original = getattr(module, attr)
        self._wrapped.append((module, attr, original, self._span_wrapper(original, name, on_result)))

    def count(self, module, attr: str, name: str) -> None:
        """Count calls through module.attr under `name`, without timing."""
        original = getattr(module, attr)
        self._wrapped.append((module, attr, original, self._count_wrapper(original, name)))

    def enable(self) -> None:
        for module, attr, _, wrapper in self._wrapped:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in reversed(self._wrapped):
            setattr(module, attr, original)

    def snapshot(self) -> Snapshot:
        return Snapshot(
            Counter(self.calls),
            Counter(self.time_ns),
            Counter(self.self_ns),
            Counter(self.nested_calls),
            Counter(self.nested_ns),
            Counter(self.extra),
        )

    def write_spans(self, path: str) -> None:
        """One JSON object per span: id, parent, request, name, start and
        end in nanoseconds.  Spans past the cap were counted, not kept."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "request": request,
                         "name": name, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )

    def _span_wrapper(self, fn, name, on_result):
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            span_id = self._next_id
            frame = [name, 0, span_id, parent[3] if parent else span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.calls[name] += 1
                self.time_ns[name] += elapsed
                self.self_ns[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    self.nested_calls[name, parent[0]] += 1
                    self.nested_ns[name, parent[0]] += elapsed
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (span_id, parent[2] if parent else None, frame[3], name, start, end)
                    )
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        stack = self.stack
        calls = self.calls
        nested = self.nested_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack:
                nested[name, stack[-1][0]] += 1
            return fn(*args, **kwargs)

        return wrapper
