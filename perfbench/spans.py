"""Span tracing of poseact's layer entry points, installed from outside the package.

install() replaces each traced function with a wrapper everywhere the
package binds it: in the defining module, in the package namespace, and in
every sibling module that imported it by name (cli.py binds load_dataset,
fit and the rest at import, so patching only the defining module would miss
every CLI call).  Standardizer.apply is wrapped on the class.  uninstall()
puts the originals back.

A span is (name, start, end, parent index, op index).  Spans stay in memory
and are written out by dump(); ops are the benchmark's own top-level units,
and fold_op() turns the spans of one op into per-name self-time sums.  Calls
made outside an op (the benchmark's output checks) are not recorded.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped; the span name is "<module>.<function>".
# These are the entry points one layer calls on another; public helpers that
# run only inside them (the analysis importance helpers, the norms) count
# toward their caller's self time.
TRACED = (
    ("data", "generate"),
    ("data", "split"),
    ("data", "standardize"),
    ("data", "save_dataset"),
    ("data", "load_dataset"),
    ("data", "save_model"),
    ("data", "load_model"),
    ("solver", "fit"),
    ("core", "predict"),
    ("core", "predict_batch"),
    ("analysis", "importance_report"),
    ("analysis", "format_report_table"),
    ("analysis", "report_to_dict"),
    ("cli", "main"),
)

# raw spans kept for the dump; per-op sums are kept for every span
MAX_KEPT_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.op_self: dict[int, Counter] = defaultdict(Counter)
        self.op_counts: dict[int, Counter] = defaultdict(Counter)
        self.op_wall: dict[int, float] = {}
        self.dropped = 0
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, on_result=None):
        """name is a string, or a function of the call's arguments giving one."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:  # outside every op: the benchmark's own checks
                return fn(*args, **kwargs)
            idx = self._enter(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if on_result is not None:
                on_result(self.op_counts[self.op], args, out)
            return out

        return traced

    def begin_op(self, label):
        """Open a top-level span for one benchmark op (or one set-up)."""
        self.op += 1
        return self._enter(f"op.{label}")

    def end_op(self, idx):
        self._exit(idx)
        self.fold_op(idx)

    def fold_op(self, root):
        """Sum self times by name for every span of the op rooted at root."""
        spans = self.spans
        child_time = Counter()
        for i in range(root + 1, len(spans)):
            _, start, end, parent, _ = spans[i]
            child_time[parent] += end - start
        sums = self.op_self[spans[root][4]]
        for i in range(root + 1, len(spans)):
            name, start, end, _, _ = spans[i]
            sums[name] += (end - start) - child_time[i]
            self.op_counts[spans[root][4]][name + ".calls"] += 1
        self.op_wall[spans[root][4]] = spans[root][2] - spans[root][1]
        if len(spans) > MAX_KEPT_SPANS:
            self.dropped += len(spans) - root - 1
            del spans[root + 1 :]

    # -- patching ----------------------------------------------------------

    def install(self, package, hooks):
        """Wrap TRACED (plus Standardizer.apply) wherever package binds them.

        hooks maps a span name to on_result(counts, args, result), which adds
        to the current op's counters after each call.
        """
        modules = [package] + [
            getattr(package, m) for m in ("core", "data", "solver", "analysis", "cli", "bench")
        ]
        for mod_name, fn_name in TRACED:
            original = getattr(getattr(package, mod_name), fn_name)
            name = f"{mod_name}.{fn_name}"
            if name == "cli.main":
                # one span name per subcommand: cli.train, cli.analyze, ...
                name = lambda args: f"cli.{args[0][0]}"
            wrapper = self.wrap(name, original, hooks.get(name))
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._saved.append((mod, fn_name, original))
        cls = package.data.Standardizer
        original = cls.apply
        cls.apply = self.wrap("data.standardizer_apply", original)
        self._saved.append((cls, "apply", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path, extra):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            **extra,
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        os.replace(tmp, path)
