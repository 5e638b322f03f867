"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of the aclp modules named
in `SPANS` and records one span per call: the call id, the span name,
the parent call id, start, end and the instance being solved.  A
generator (`engine.solve`, `ConstraintStore.label`) records one span per
resumption, all under one call id, so a span covers only the time the
generator actually ran.  Spans are kept in per-thread arrays and written
out when the run ends; the per-layer metrics are computed from them.

The search runs in a worker thread that the engine starts on the first
resumption of `solve`.  The caller blocks while the worker computes, so
the worker's top-level spans are children of the solve that started it.
"""

from __future__ import annotations

import gzip
import itertools
import operator
import statistics
import sys
import threading
from array import array
from time import perf_counter

# span name -> (module, attribute path); spans are named after the module
# and function
SPANS = {
    "parser.parse_theory": ("aclp.parser", "parse_theory"),
    "parser.parse_goal": ("aclp.parser", "parse_goal"),
    "theory.compile_naf": ("aclp.theory", "compile_naf"),
    "engine.solve": ("aclp.engine", "solve"),
    "store.post": ("aclp.store", "ConstraintStore.post"),
    "store.restore": ("aclp.store", "ConstraintStore.restore"),
    "store.clone": ("aclp.store", "ConstraintStore.clone"),
    "store.label": ("aclp.store", "ConstraintStore.label"),
    "terms.standardize_ic": ("aclp.terms", "standardize_ic"),
    "terms.unify_terms": ("aclp.terms", "unify_terms"),
    "terms.standardize_apart": ("aclp.terms", "standardize_apart"),
    "optimize.reschedule": ("aclp.optimize", "reschedule"),
    "optimize.min_changes": ("aclp.optimize", "min_changes"),
    "optimize.label_preferences": ("aclp.optimize", "label_preferences"),
}
GENERATORS = {"engine.solve", "store.label"}
# domain classes whose values() labelling enumerates
VALUE_DOMAINS = ("IntDomain", "AtomDomain")

# per-layer metric -> unit; counts repeat exactly, times are seconds
PER_LAYER = {
    "parser.calls": "count", "parser.s": "s",
    "theory.compile_naf.calls": "count", "theory.compile_naf.s": "s",
    "engine.solves": "count", "engine.answers": "count",
    "engine.first_answer_s": "s", "engine.threads_started": "count",
    "engine.self_s": "s", "engine.answer_probe.s": "s",
    "store.post.calls": "count", "store.post.s": "s",
    "store.restore.calls": "count", "store.clone.calls": "count",
    "store.label.calls": "count", "store.label.values": "count",
    "store.label.s": "s",
    "terms.standardize_ic.calls": "count", "terms.standardize_ic.s": "s",
    "terms.unify_terms.calls": "count", "terms.unify_terms.s": "s",
    "terms.standardize_apart.calls": "count", "terms.standardize_apart.s": "s",
    "optimize.reschedule.s": "s", "optimize.reschedule.solves": "count",
    "optimize.min_changes.s": "s", "optimize.min_changes.labellings": "count",
    "optimize.label_preferences.s": "s",
}
COLUMNS = ("call", "name", "parent", "start", "end", "instance", "yielded")


class _Buffer:
    """Span columns written by one thread only."""

    def __init__(self):
        self.call, self.parent = array("q"), array("q")
        self.name, self.instance = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.yielded = array("b")


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.instance = -1
        self.buffers = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []            # (owner, attribute, original)
        self._value_counts = []       # (instance, itertools.count)
        self.threads = []             # instance of each thread started

    # -- recording -----------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.buf
        except AttributeError:
            local.stack = []
            local.buf = _Buffer()
            self.buffers.append(local.buf)
            return local.stack, local.buf

    def _parent(self, stack):
        if stack:
            return stack[-1]
        return getattr(threading.current_thread(), "_perfbench_parent", -1)

    @staticmethod
    def _record(buf, call, name, parent, t0, t1, instance, yielded):
        buf.call.append(call)
        buf.name.append(name)
        buf.parent.append(parent)
        buf.start.append(t0)
        buf.end.append(t1)
        buf.instance.append(instance)
        buf.yielded.append(yielded)

    def _wrap(self, index, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack, buf = tracer._state()
            parent = tracer._parent(stack)
            call = next(tracer._ids)
            stack.append(call)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._record(buf, call, index, parent, t0, t1,
                               tracer.instance, 0)
        return wrapper

    def _wrap_generator(self, index, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack, _ = tracer._state()
            parent = tracer._parent(stack)
            call = next(tracer._ids)
            return tracer._segments(fn(*args, **kwargs), index, call, parent)
        return wrapper

    def _segments(self, gen, index, call, parent):
        try:
            while True:
                stack, buf = self._state()
                stack.append(call)
                t0 = perf_counter()
                yielded = 0
                try:
                    item = next(gen)
                    yielded = 1
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    self._record(buf, call, index, parent, t0, perf_counter(),
                                 self.instance, yielded)
                yield item
        finally:
            gen.close()

    def _wrap_values(self, fn):
        tracer = self

        def values(dom):
            # zip stops on the exhausted domain before drawing from the
            # counter, so the counter advances once per value handed out
            counter = itertools.count()
            tracer._value_counts.append((tracer.instance, counter))
            return map(operator.itemgetter(0), zip(fn(dom), counter))
        return values

    def _wrap_thread_start(self, fn):
        tracer = self

        def start(thread):
            stack, _ = tracer._state()
            thread._perfbench_parent = tracer._parent(stack)
            tracer.threads.append(tracer.instance)
            return fn(thread)
        return start

    # -- installing ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every binding of the traced functions, including the names
        other aclp modules imported (engine binds unify_terms and the
        standardize functions into its own namespace)."""
        import aclp  # noqa: F401  (the modules below are its submodules)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "aclp" or n.startswith("aclp.")]
        for index, (span, (modname, path)) in enumerate(SPANS.items()):
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrap = self._wrap_generator if span in GENERATORS else self._wrap
            wrapped = wrap(index, original)
            self._patch(owner, attr, wrapped)
            if outer:
                continue
            for mod in modules:
                if mod is not owner and mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapped)
        store = sys.modules["aclp.store"]
        for cls in VALUE_DOMAINS:
            owner = getattr(store, cls)
            self._patch(owner, "values", self._wrap_values(owner.values))
        self._patch(threading.Thread, "start",
                    self._wrap_thread_start(threading.Thread.start))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ----------------------------------------------------------------

    def rows(self):
        """Every span as a tuple in COLUMNS order, sorted by start."""
        out = []
        for b in self.buffers:
            out.extend(zip(b.call, b.name, b.parent, b.start, b.end,
                           b.instance, b.yielded))
        out.sort(key=operator.itemgetter(3))
        return out

    def write(self, path, rows):
        with gzip.open(path, "wt") as f:
            f.write(",".join(COLUMNS) + "\n")
            for call, name, parent, t0, t1, inst, y in rows:
                f.write(f"{call},{self.names[name]},{parent},{t0:.9f},"
                        f"{t1:.9f},{inst},{y}\n")

    def metrics(self, rows, group_of):
        """Per-layer metrics of each group of instances (one group per
        round), as {group: {metric: value}}."""
        names = self.names
        idx = {n: i for i, n in enumerate(names)}
        # rows are sorted by start, so a call's parent is met before it
        name_of, first_start = {}, {}
        per = {}

        def g(inst):
            key = group_of(inst)
            if key not in per:
                per[key] = {"calls": {}, "ivals": {}, "solve_first": {},
                            "answers": 0, "probe": [], "children": [],
                            "resched_solves": 0, "labellings": 0,
                            "values": 0, "threads": 0}
            return per[key]

        solve, label = idx["engine.solve"], idx["store.label"]
        reschedule, min_changes = idx["optimize.reschedule"], idx["optimize.min_changes"]
        store_terms = {i for i, n in enumerate(names)
                       if n.startswith(("store.", "terms."))}
        for call, name, parent, t0, t1, inst, yielded in rows:
            acc = g(inst)
            pname = name_of.get(parent)
            if call not in name_of:
                name_of[call] = name
                first_start[call] = t0
                acc["calls"][name] = acc["calls"].get(name, 0) + 1
                if name == solve and pname == reschedule:
                    acc["resched_solves"] += 1
            acc["ivals"].setdefault(name, []).append((t0, t1))
            if name == solve and yielded:
                acc["answers"] += 1
                if call not in acc["solve_first"]:
                    acc["solve_first"][call] = t1 - first_start[call]
            if name == label and yielded and pname == min_changes:
                acc["labellings"] += 1
            if pname == solve and name in store_terms:
                acc["children"].append((t0, t1))
                if name == label:
                    acc["probe"].append((t0, t1))
        for inst, counter in self._value_counts:
            g(inst)["values"] += next(counter)
        for inst in self.threads:
            g(inst)["threads"] += 1

        out = {}
        for key, acc in per.items():
            calls, ivals = acc["calls"], acc["ivals"]

            def busy(*span_names):
                return _covered(_merge(iv for n in span_names
                                       for iv in ivals.get(idx[n], ())))

            def count(n):
                return calls.get(idx[n], 0)

            solve_union = _merge(ivals.get(solve, ()))
            children = _intersect(_merge(acc["children"]), solve_union)
            out[key] = {
                "parser.calls": count("parser.parse_theory") + count("parser.parse_goal"),
                "parser.s": busy("parser.parse_theory", "parser.parse_goal"),
                "theory.compile_naf.calls": count("theory.compile_naf"),
                "theory.compile_naf.s": busy("theory.compile_naf"),
                "engine.solves": count("engine.solve"),
                "engine.answers": acc["answers"],
                "engine.first_answer_s": sum(acc["solve_first"].values()),
                "engine.threads_started": acc["threads"],
                "engine.self_s": _covered(solve_union) - _covered(children),
                "engine.answer_probe.s": _covered(_merge(acc["probe"])),
                "store.post.calls": count("store.post"),
                "store.post.s": busy("store.post"),
                "store.restore.calls": count("store.restore"),
                "store.clone.calls": count("store.clone"),
                "store.label.calls": count("store.label"),
                "store.label.values": acc["values"],
                "store.label.s": busy("store.label"),
                "terms.standardize_ic.calls": count("terms.standardize_ic"),
                "terms.standardize_ic.s": busy("terms.standardize_ic"),
                "terms.unify_terms.calls": count("terms.unify_terms"),
                "terms.unify_terms.s": busy("terms.unify_terms"),
                "terms.standardize_apart.calls": count("terms.standardize_apart"),
                "terms.standardize_apart.s": busy("terms.standardize_apart"),
                "optimize.reschedule.s": busy("optimize.reschedule"),
                "optimize.reschedule.solves": acc["resched_solves"],
                "optimize.min_changes.s": busy("optimize.min_changes"),
                "optimize.min_changes.labellings": acc["labellings"],
                "optimize.label_preferences.s": busy("optimize.label_preferences"),
            }
        return out


def _merge(intervals):
    """Sorted union of (start, end) intervals."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1][1] = b
        else:
            out.append([a, b])
    return out


def _covered(merged) -> float:
    return sum(b - a for a, b in merged)


def _intersect(xs, ys):
    """Intersection of two merged interval lists."""
    out, i, j = [], 0, 0
    while i < len(xs) and j < len(ys):
        a, b = max(xs[i][0], ys[j][0]), min(xs[i][1], ys[j][1])
        if a < b:
            out.append([a, b])
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def combine(per_round: dict) -> dict:
    """Counts must agree across rounds; times are their median."""
    rounds = list(per_round.values())
    out = {}
    for m, unit in PER_LAYER.items():
        vals = [r[m] for r in rounds]
        if unit == "count":
            if len(set(vals)) != 1:
                raise RuntimeError(f"{m} differs between rounds: {vals}")
            out[m] = vals[0]
        else:
            out[m] = statistics.median(vals)
    return out
