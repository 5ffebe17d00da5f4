"""Outside-in tracer: wraps the public functions and methods of each dimw
module at run time, records a span per call, and restores every name after.

A function imported by name into another module (say `build_qosystem` into
`dimension`) is wrapped in that module's namespace too, because that is where
the caller looks it up.  Private helpers (`_tables`, `_UnionFind`,
`_primes_within`, ...) are not wrapped: their time is self time of the public
caller.  Names held in program data structures (the `cli.HANDLERS` table)
are left alone, so the verb handlers count as `cli.run` self time.
"""

import functools
import gzip
import inspect
import json
from time import perf_counter

# Constant-time accessors, called millions of times per op; a wrapper costs
# more than the call, so their time stays with the caller.
NOT_WRAPPED = {
    "FiniteLattice": {"le", "mt", "jn", "covers_of", "cocovers_of", "interval",
                      "open_interval", "atoms"},
    "QOSystem": {"strictly_below"},
    "DimVector": {"__init__", "value", "support", "maximal_support", "is_zero",
                  "max_finite", "has_infinite", "meet"},
    "Congruence": {"same", "refines", "blocks", "block_count"},
}
# Special methods that are layer entry points; other dunders are not wrapped.
WRAPPED_DUNDERS = {"__init__", "__add__", "__mul__"}


def _public_methods(cls):
    skip = NOT_WRAPPED.get(cls.__name__, set())
    for attr, value in vars(cls).items():
        if attr in skip or (attr.startswith("_") and attr not in WRAPPED_DUNDERS):
            continue
        if isinstance(value, (classmethod, staticmethod)):
            yield attr, value, value.__func__
        elif inspect.isfunction(value):
            yield attr, value, value


class Tracer:
    """Spans are (name, start, end, parent index, op id), kept in memory.

    `hooks` maps a span name to f(tracer, args, result), run after the call
    with the clock outside the span, to count work done at that boundary.
    """

    def __init__(self, modules, hooks=None):
        self.modules = modules          # layer name -> module
        self.hooks = hooks or {}
        self.spans = []
        self.stack = []
        self.active = False
        self.op_id = 0
        self.counts = {}
        self.seen = {}
        self.owners = {}                # id -> object, alive until reset_counts
        self._patches = []              # (owner, attr, original)

    # -- counting, for hooks -------------------------------------------------

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def first_time(self, kind, owner, key):
        """True the first time `key` is seen on `owner` for `kind` since
        reset_counts.  Owners are keyed by id() and kept alive until then,
        so an object made later cannot take a dead owner's id."""
        seen = self.seen.setdefault(kind, set())
        full = (id(owner), key)
        if full in seen:
            return False
        seen.add(full)
        self.owners[id(owner)] = owner
        return True

    def reset_counts(self):
        self.counts, self.seen, self.owners = {}, {}, {}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer, hook = self, self.hooks.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op_id)
            if hook is not None:
                tracer.active = False
                try:
                    hook(tracer, args, result)
                finally:
                    tracer.active = True
            return result

        return wrapper

    def install(self):
        """Wrap every public function and method of every layer, in every
        layer namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for mattr, raw, fn in _public_methods(value):
                        wrapped = self._wrap(f"{layer}.{value.__name__}.{mattr}", fn)
                        if isinstance(raw, classmethod):
                            wrapped = classmethod(wrapped)
                        elif isinstance(raw, staticmethod):
                            wrapped = staticmethod(wrapped)
                        self._patch(value, mattr, raw, wrapped)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patch(module, attr, value, wrappers[id(value)])
        return self

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self):
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- output -------------------------------------------------------------

    def write(self, path, meta):
        """Gzipped text: a header line naming the spans, then one line per
        span: name index, start and end in ns from the first span, parent, op."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write(json.dumps({"meta": meta, "names": names,
                                "fields": ["name", "start_ns", "end_ns", "parent", "op"]}))
            f.write("\n")
            for name, start, end, parent, op in self.spans:
                f.write(f"{index[name]} {round((start - t0) * 1e9)} "
                        f"{round((end - t0) * 1e9)} {parent} {op}\n")


# -- span arithmetic ------------------------------------------------------------


def inclusive(spans, names):
    """Time inside spans named in `names`, counting nested ones once."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name in names and not _has_ancestor(spans, parent, names):
            total += end - start
    return total


def exclusive(spans, names):
    """Time inside spans named in `names` minus time in their child spans
    named elsewhere: the self time of that group of functions."""
    total = 0.0
    child_time = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for i, (name, start, end, _, _) in enumerate(spans):
        if name in names:
            total += (end - start) - child_time.get(i, 0.0)
    return total


def calls(spans, names):
    return sum(1 for span in spans if span[0] in names)


def _has_ancestor(spans, parent, names):
    while parent >= 0:
        span = spans[parent]
        if span[0] in names:
            return True
        parent = span[3]
    return False
