"""Span tracer that wraps public module functions from the outside.

Each wrapped call records one span: a name id, its start and end time and
the index of the enclosing span (-1 at the top). Spans are appended at
call entry, so span order is start order and a parent always precedes
its children. A function that calls itself directly (``expr.evaluate``
walks its tree recursively) records only the outermost call; the inner
calls run through the wrapper without a span.

A name that cannot be resolved (the module or the attribute is gone
after a refactor) is listed in ``missing`` and summarises as zero calls,
so a traced run never fails because a layer was removed or renamed.

The module imports only the standard library, so the process under
measurement pays nothing for it beyond the wrappers themselves.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []          # name id -> dotted name
        self.missing = []        # dotted names that could not be wrapped
        self._installed = []     # (module, attribute, original)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_items = array("q")
        self._stack = []

    def reset(self):
        """Forget recorded spans; wrappers stay installed."""
        for column in (self.span_name, self.span_start, self.span_end,
                       self.span_parent, self.span_items):
            del column[:]
        self._stack.clear()

    def wrap(self, name, fn, items=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``items(args, kwargs)``, when given, returns a work count for the
        call (for example the number of points in a batch).
        """
        name_id = len(self.names)
        self.names.append(name)
        clock = self.clock
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        span_items = self.span_items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and span_name[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_items.append(items(args, kwargs) if items else 0)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()

        return wrapper

    def install(self, targets):
        """Wrap each ``(dotted name, module, attribute, items)`` target.

        The wrapper replaces the module attribute, so every caller that
        looks the function up through its module (``field_mod.evaluate``)
        or as a module global (``kahan_sum`` inside ``adaptive``) goes
        through it.
        """
        for name, module_name, attribute, items in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
            except (ImportError, AttributeError):
                self.missing.append(name)
                self.names.append(name)
                continue
            setattr(module, attribute, self.wrap(name, original, items))
            self._installed.append((module, attribute, original))

    def uninstall(self):
        for module, attribute, original in reversed(self._installed):
            setattr(module, attribute, original)
        self._installed.clear()

    def summary(self):
        """Per name: calls, self time and items over the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children. Spans nest on one thread, so the children cover
        disjoint parts of the parent's interval.
        """
        count = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i]
                    for i in range(count)]
        child_time = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += duration[i]
        result = {name: {"calls": 0, "self_s": 0.0, "items": 0}
                  for name in self.names}
        for i in range(count):
            entry = result[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += duration[i] - child_time[i]
            entry["items"] += self.span_items[i]
        return result

    def root_time(self):
        """Summed duration of the top-level spans, which equals the sum
        of every span's self time."""
        return sum(self.span_end[i] - self.span_start[i]
                   for i in range(len(self.span_name))
                   if self.span_parent[i] < 0)

    def dump(self, path):
        """Write the recorded spans as tab-separated text."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\titems\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]!r}\t{self.span_end[i]!r}\t"
                         f"{self.span_parent[i]}\t{self.span_items[i]}\n")
