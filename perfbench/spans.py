"""In-memory span tracing of the package's public functions.

The tracer replaces module attributes with timing wrappers, so a call made
through a module global (`harness` calling `evaluate`, `nn.forward_batch`,
`scale_at`, ...) opens a span whose parent is the innermost open span. Spans
live in a list until the benchmark writes them out; `restore` puts every
original function back.
"""

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

# Modules whose public functions are traced, in the package's layer order.
MODULES = ("annealing", "data", "nn", "smoothing", "optim", "config", "harness", "cli")
OPTIMIZER_CLASSES = ("Sgd", "Adam", "AdaGrad")
NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index, start, end); parent NO_PARENT at the top
        self._open = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else NO_PARENT
            open_.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[index] = (name, parent, start, end)

        return traced

    def patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self, package):
        """Wrap every public function of the package's modules under
        `<home module>.<function>`, where each module looks it up, and the
        optimizers' `step` methods as `optim.step`."""
        for short in MODULES:
            module = getattr(package, short)
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or inspect.isgeneratorfunction(obj)
                        or not obj.__module__.startswith(package.__name__ + ".")):
                    continue
                home = obj.__module__.rsplit(".", 1)[1]
                self.patch(module, attr, f"{home}.{obj.__name__}")
        for cls in OPTIMIZER_CLASSES:
            self.patch(getattr(package.optim, cls), "step", "optim.step")
        return self

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def write(self, path):
        """Spans as JSON: one [name, parent, start_s, end_s] row per span."""
        with open(path, "w") as f:
            json.dump({"columns": ["name", "parent", "start_s", "end_s"],
                       "spans": [list(s) for s in self.spans]}, f)


def summarize(spans):
    """Per function: inclusive seconds `s`, `calls`, own time `self_s` (span
    minus the time its child spans cover), and inclusive seconds split by the
    parent's name as `s_under[<parent>]`."""
    total = defaultdict(float)
    child = defaultdict(float)
    calls = defaultdict(int)
    under = defaultdict(lambda: defaultdict(float))
    for name, parent, start, end in spans:
        dur = end - start
        total[name] += dur
        calls[name] += 1
        if parent != NO_PARENT:
            child[parent] += dur
            under[name][spans[parent][0]] += dur
    self_s = defaultdict(float)
    for index, (name, _, start, end) in enumerate(spans):
        self_s[name] += (end - start) - child[index]
    return {name: {"s": total[name], "calls": calls[name], "self_s": self_s[name],
                   "s_under": dict(under[name])} for name in total}
