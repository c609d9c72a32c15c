"""Spans around calls into the library's public functions.

The tracer is installed from the benchmark's side: every public function of
each package module is replaced, in every module namespace that holds it, by
a wrapper that times the call.  Spans nest through a stack; a span's self
time is its duration minus the time its child spans cover.  The workloads
make millions of tiny-n calls, so inner spans are folded into per-function
totals in memory as they close; only the benchmark's own op spans are kept
one by one.
"""

import functools
import inspect
import time

# Package modules, one layer each.
LAYERS = (
    "state_space",
    "measures",
    "aggregate",
    "envelope",
    "law_invariant",
    "axioms",
    "optimize",
    "cli",
)


def public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Stat:
    __slots__ = ("calls", "total", "self_time", "evals")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.evals = 0


class Tracer:
    """Times public library calls; counts evaluator calls.

    ``evals`` is the number of calls made to evaluators built by the
    library's ``*_measure`` factories while the tracer is installed; each
    span records how many happened inside it.  ``calls`` maps a watched span
    name to a list that receives (evaluator calls, return value) per call.
    """

    def __init__(self, lib, watch=(), clock=time.perf_counter):
        self.lib = lib
        self.clock = clock
        self.stats = {}
        self.ops = []  # (kind, start, end, evaluator calls) of each op span
        self.evals = 0
        self.calls = {name: [] for name in watch}
        self._stack = []
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        lib = self.lib
        wrapped = {}
        for layer in LAYERS:
            module = getattr(lib, layer)
            for name, fn in public_functions(module).items():
                wrapper = self._wrap("%s.%s" % (layer, name), fn)
                if name.endswith("_measure"):
                    wrapper = self._counting_factory(wrapper)
                wrapped[id(fn)] = wrapper
        for module in [lib.package] + [getattr(lib, layer) for layer in LAYERS]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrapped[id(obj)])

    def uninstall(self):
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved = []

    def reset(self):
        self.stats = {}
        self.ops = []
        self.calls = {name: [] for name in self.calls}

    # -- spans --------------------------------------------------------------

    def _enter(self):
        frame = [0.0, self.evals]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, start):
        end = self.clock()
        dt = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.total += dt
        stat.self_time += dt - frame[0]
        evals = self.evals - frame[1]
        stat.evals += evals
        return end, evals

    def _wrap(self, name, fn):
        tracer = self
        by_command = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = "cli." + args[0][0] if by_command else name
            frame = tracer._enter()
            start = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                _, evals = tracer._exit(key, frame, start)
            sink = tracer.calls.get(key)
            if sink is not None:
                sink.append((evals, out))
            return out

        return traced

    def _counting_factory(self, factory):
        tracer = self
        Evaluator = self.lib.measures.RiskEvaluator

        @functools.wraps(factory)
        def counted(*args, **kwargs):
            rho = factory(*args, **kwargs)

            def fn(x):
                tracer.evals += 1
                return rho(x)

            return Evaluator(rho.name, fn, rho.claims, rho.required_n)

        return counted

    def op(self, kind, call):
        """Run one benchmark op as a root span; returns (output, seconds)."""
        frame = self._enter()
        start = self.clock()
        try:
            out = call()
        finally:
            end, evals = self._exit("op", frame, start)
            self.ops.append((kind, start, end, evals))
        return out, end - start

    # -- summaries ----------------------------------------------------------

    def layer_shares(self):
        """Each layer's self time over the total op time, plus the op time
        spent outside every wrapped function (``unwrapped``)."""
        total = sum(end - start for _, start, end, _ in self.ops)
        shares = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer in shares:
                shares[layer] += stat.self_time
        shares["unwrapped"] = self.stats["op"].self_time if "op" in self.stats else 0.0
        return {k: (v / total if total else 0.0) for k, v in shares.items()}

    def per_call(self, name):
        """(calls, ms per call, evaluator calls per call) of one span name."""
        stat = self.stats.get(name)
        if stat is None or stat.calls == 0:
            return 0, 0.0, 0.0
        return stat.calls, 1e3 * stat.total / stat.calls, stat.evals / stat.calls
