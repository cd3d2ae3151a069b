"""Span tracing at pqcalc's module boundaries, for the traced benchmark run.

The tracer replaces every public function that one pqcalc module imports
from another with a wrapper, in the namespace of the importing module, so a
span opens exactly where control crosses from one layer into another.
``Polynomial`` and ``NumericFn`` methods are wrapped on their classes, and
the two kernels the performance work targets (``pq_power_value`` and
``eval_poly``) are also wrapped in their own modules so that their internal
calls are counted too.  The benchmark's own calls into pqcalc go through
``wrap_entry``.

Spans are kept in flat arrays while the run lasts and are analysed and
written out when it ends.  A layer's self time is its span time minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter

LAYERS = ("scalars", "polynomials", "pqpower", "taylor", "integration", "identities", "cli")

# kernels wrapped in their defining module as well, so intra-module calls count
_OWN_MODULE_KERNELS = (("pqpower", "pq_power_value"), ("polynomials", "eval_poly"))
_CLASS_METHODS = {
    ("polynomials", "Polynomial"): (
        "__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale",
        "__call__", "from_string", "to_string",
    ),
    ("polynomials", "NumericFn"): ("__call__", "from_polynomial"),
}

# exit codes stored per span
OK, POLE, RAISED = 0, 1, 2


class Tracer:
    def __init__(self, pole_error: type[BaseException]) -> None:
        self._pole_error = pole_error
        self.names: list[str] = []
        self.layer_of_name: list[int] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span."""
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.exit = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of_name.append(LAYERS.index(layer))
        return self._name_ids[name]

    def wrap(self, fn, name: str, layer: str):
        nid = self._intern(name, layer)
        pole_error = self._pole_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op_id.append(self.op)
            self.exit.append(OK)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except pole_error:
                self.exit[i] = POLE
                raise
            except BaseException:
                self.exit[i] = RAISED
                raise
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()

        return traced

    def wrap_entry(self, fn):
        """Wrap a function the benchmark calls directly, in its own layer."""
        layer = fn.__module__.rpartition(".")[2]
        owner = getattr(fn, "__qualname__", fn.__name__)
        return self.wrap(fn, f"{layer}.{owner}", layer)

    def _patch(self, target: object, attr: str, value: object) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self, modules: dict[str, object]) -> None:
        """Patch the layer boundaries of the given ``{layer: module}`` map."""
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if owner != layer and owner in LAYERS:
                    self._patch(module, attr, self.wrap(obj, f"{owner}.{attr}", owner))
        for layer, attr in _OWN_MODULE_KERNELS:
            module = modules[layer]
            self._patch(module, attr, self.wrap(getattr(module, attr), f"{layer}.{attr}", layer))
        for (layer, cls_name), methods in _CLASS_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for attr in methods:
                raw = vars(cls)[attr]
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, name, layer))
                else:
                    wrapped = self.wrap(raw, name, layer)
                self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # ------------------------------------------------------------ analysis

    def summary(self) -> "TraceSummary":
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child_time[par] += self.end[i] - self.start[i]
        return TraceSummary(self, child_time)

    def write(self, path) -> None:
        """Write one gzipped line per span: id, parent, op, layer, name, start, end, exit."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\top\tlayer\tname\tstart_us\tend_us\texit\n")
            for i in range(len(self.start)):
                nid = self.name_id[i]
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.op_id[i]}\t{LAYERS[self.layer_of_name[nid]]}\t"
                    f"{self.names[nid]}\t{(self.start[i] - t0) * 1e6:.3f}\t"
                    f"{(self.end[i] - t0) * 1e6:.3f}\t{self.exit[i]}\n"
                )


class TraceSummary:
    """Per-layer calls and self time, plus per-name counts, of one trace."""

    def __init__(self, tracer: Tracer, child_time: list[float]) -> None:
        layer_of = [tracer.layer_of_name[tracer.name_id[i]] for i in range(len(tracer.start))]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.pole_exits = dict.fromkeys(LAYERS, 0)
        self.name_calls: dict[str, int] = {}
        self.calls_from: dict[tuple[str, str], int] = {}
        for i, layer_idx in enumerate(layer_of):
            layer = LAYERS[layer_idx]
            name = tracer.names[tracer.name_id[i]]
            self.self_s[layer] += tracer.end[i] - tracer.start[i] - child_time[i]
            self.name_calls[name] = self.name_calls.get(name, 0) + 1
            par = tracer.parent[i]
            caller = LAYERS[layer_of[par]] if par >= 0 else "bench"
            key = (caller, name)
            self.calls_from[key] = self.calls_from.get(key, 0) + 1
            if caller != layer:
                self.calls[layer] += 1
                if tracer.exit[i] == POLE:
                    self.pole_exits[layer] += 1
