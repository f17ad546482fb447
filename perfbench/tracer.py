"""Span tracing of cardest from outside the package.

``Tracer.install`` replaces every public function of the traced modules
(and ``AdamState.step``) with a wrapper that records one span per call:
name, start, end, parent span, the benchmark operation it belongs to, and
the benchmark phase.  A function imported by name into another module is a
second binding of the same object, so every module attribute that *is* an
original function is patched, not only the defining one.  Spans stay in
memory; ``write`` dumps them when the run ends.

Counters pull work counts (rows, tuples, bytes) out of a call's arguments
or return value, so ratios are measured where the work happens.
"""
from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("cli", "datagen", "relational", "model", "unlearn", "workload", "domains")
METHODS = (("model", "AdamState", "step"),)

# span record fields
NAME, START, END, PARENT, OP, PHASE, COUNTS = range(7)


def _rows(arg):
    return lambda a, kw, out: {"rows": int(a[arg].shape[0])}


def _domain_size(a, kw):
    return sum(c.domain_size for c in a[0].columns)


COUNTERS = {
    "model.loss_and_grad": _rows(1),
    "model.forward": _rows(1),
    "model.encode_relation": lambda a, kw, out: {
        "rows": int(out[1].size), "invalid_rows": int((~out[1]).sum())},
    "model.save_checkpoint": lambda a, kw, out: {"bytes": os.path.getsize(a[1])},
    "relational.materialize_join": lambda a, kw, out: {"rows_out": int(out.cardinality)},
    "relational.semi_join_deletion": lambda a, kw, out: {"rows": int(out.cardinality)},
    "unlearn.accumulate_scores": lambda a, kw, out: {
        "tuples_used": out.tuples_used, "tuples_skipped": out.tuples_skipped},
    "unlearn.prune_step": lambda a, kw, out: {
        "pruned": out["pruned"], "saturated": int(out["saturated"])},
}
# counters that compare state before and after the call: name -> (before, after)
DELTA_COUNTERS = {
    "unlearn.apply_domain_pruning": (_domain_size, lambda a, kw, out, before: {
        "codes_dropped": before - _domain_size(a, kw), "remaps": len(out["remaps"])}),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.phase = "setup"
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        before, after = DELTA_COUNTERS.get(name, (None, None))
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*a, **kw):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, self.phase, None]
            sid = len(spans)
            spans.append(rec)
            stack.append(sid)
            state = before(a, kw) if before else None
            rec[START] = clock()
            try:
                out = fn(*a, **kw)
            finally:
                rec[END] = clock()
                stack.pop()
            if count:
                rec[COUNTS] = count(a, kw, out)
            elif after:
                rec[COUNTS] = after(a, kw, out, state)
            return out

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: getattr(self.package, m) for m in MODULES}
        wrappers = {}
        for mname, mod in mods.items():
            for fname, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not fname.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{mname}.{fname}", obj)
        # patch every binding, including names imported into other modules
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(mod, attr, wrappers[id(obj)])
        for mname, cls, meth in METHODS:
            owner = getattr(mods[mname], cls)
            self._set(owner, meth, self._wrap(f"{mname}.{cls}.{meth}", getattr(owner, meth)))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "phase", "counts"],
                       "spans": self.spans}, fh)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover (calls are
        single-threaded and nested, so children never overlap)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def summary(self, phase: str) -> dict:
        """Per-function totals over one phase: calls, inclusive seconds and
        summed counters; plus per-module self seconds and, per CLI stage, the
        time not spent inside library calls."""
        selfs = self.self_times()
        fn = defaultdict(lambda: defaultdict(float))
        layer = defaultdict(float)
        library = defaultdict(float)   # cmd span id -> covered by non-cli children
        for i, s in enumerate(self.spans):
            if s[PHASE] != phase:
                continue
            f = fn[s[NAME]]
            f["calls"] += 1
            f["s"] += s[END] - s[START]
            for k, v in (s[COUNTS] or {}).items():
                f[k] += v
            module = s[NAME].split(".", 1)[0]
            layer[module] += selfs[i]
            if module != "cli" and s[PARENT] >= 0:
                top = self._stage_ancestor(s[PARENT])
                if top is not None:
                    library[top] += s[END] - s[START]
        stages = defaultdict(lambda: {"s": 0.0, "overhead_s": 0.0})
        for i, s in enumerate(self.spans):
            if s[PHASE] == phase and s[NAME].startswith("cli.cmd_"):
                st = stages[s[NAME][len("cli.cmd_"):]]
                st["s"] += s[END] - s[START]
                st["overhead_s"] += s[END] - s[START] - library[i]
        return {"functions": fn, "layers": layer, "stages": stages}

    def _stage_ancestor(self, sid):
        """Nearest ``cli.cmd_*`` span at or above ``sid`` if every span on the
        way is a cli span (a library call nested in a cli call counts once)."""
        while sid >= 0:
            name = self.spans[sid][NAME]
            if not name.startswith("cli."):
                return None
            if name.startswith("cli.cmd_"):
                return sid
            sid = self.spans[sid][PARENT]
        return None
