"""Span tracing of comovkit from outside the package.

``Tracer.install`` wraps the public functions and methods of each layer
module (plus the few private entry points the per-layer metrics need) and
rebinds every reference to them inside the package, so calls between
modules are traced too. Each call records a span: name, start, end, parent
span and an optional work count (points, path-steps, quadrature nodes,
bytes). Spans
are kept in per-thread column arrays; a span's parent is the innermost
open span of the same thread, so spans in simulation worker threads are
roots of their own thread.
"""

import array
import functools
import importlib
import inspect
import threading
import time

import numpy as np

LAYERS = ("fields", "chart", "geometry", "diffusion", "estimators",
          "dynamics", "cli")

def _points(x):
    """Number of events or states in a coordinate argument."""
    if hasattr(x, "coords"):
        return 1
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _work_points(args, kwargs, result):
    return _points(args[1] if len(args) > 1 else next(iter(kwargs.values())))


def _work_path_steps(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return int(config.n_paths) * int(config.n_steps)


def _work_nodes(args, kwargs, result):
    return int(kwargs.get("order", 32)) ** 3


def _work_data_bytes(args, kwargs, result):
    return int(sum(f["bytes"] for f in result["data_files"].values()))


WORK = {
    "fields.FieldBundle.phase": _work_points,
    "fields.FieldBundle.phase_gradient": _work_points,
    "chart.ComovingChart.forward_map": _work_points,
    "chart.ComovingChart.inverse_map": _work_points,
    "diffusion.simulate": _work_path_steps,
    "estimators.energy_report": _work_nodes,
    "cli.run": _work_data_bytes,
}


class _Buffer:
    """Span columns written by one thread."""

    def __init__(self):
        self.name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.work = array.array("q")
        self.stack = []


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name):
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def wrap(self, fn, name):
        nid = self._name_id(name)
        work = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.work.append(0)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if work is not None:
                buf.work[idx] = work(args, kwargs, result)
            return result

        return traced

    # --- installation ----------------------------------------------------
    def install(self, package="comovkit"):
        """Wrap every layer's public callables and rebind them package-wide."""
        modules = {layer: importlib.import_module("%s.%s" % (package, layer))
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(obj, name)
                elif inspect.isclass(obj) \
                        and not issubclass(obj, BaseException):
                    self._wrap_methods(obj, name)

        # private entry points the per-layer metrics need
        diffusion = modules["diffusion"]
        replaced[diffusion._binned_drift] = self.wrap(
            diffusion._binned_drift, "diffusion.binned_drift")
        make_drift = replaced[diffusion.drift_from_fields]

        def drift_from_fields(*args, **kwargs):
            return self.wrap(make_drift(*args, **kwargs), "diffusion.drift")

        replaced[diffusion.drift_from_fields] = drift_from_fields
        cli = modules["cli"]
        cli._RunContext.save_array = self.wrap(
            cli._RunContext.save_array, "cli.save_array")
        for analysis, runner in list(cli._RUNNERS.items()):
            cli._RUNNERS[analysis] = self.wrap(runner,
                                               "cli.analysis." + analysis)

        # rebind every module-level reference, including cross-module imports
        package_mod = importlib.import_module(package)
        for mod in [package_mod] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_methods(self, cls, prefix):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s" % (prefix, attr)
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(member, name))
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr,
                        type(member)(self.wrap(member.__func__, name)))

    # --- results ---------------------------------------------------------
    def spans(self):
        """All spans as column arrays; parents index the same arrays.

        Call once every traced call has returned.
        """
        cols = {"name": [], "parent": [], "start": [], "end": [], "work": []}
        offset = 0
        for buf in self._buffers:
            parent = np.asarray(buf.parent, dtype=np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["name"].append(np.asarray(buf.name, dtype=np.int32))
            cols["start"].append(np.asarray(buf.start, dtype=float))
            cols["end"].append(np.asarray(buf.end, dtype=float))
            cols["work"].append(np.asarray(buf.work, dtype=np.int64))
            offset += len(buf.name)
        return {k: np.concatenate(v) for k, v in cols.items()}

    def save(self, path, spans):
        np.savez_compressed(path, names=np.asarray(self.names), **spans)


def summarize(names, spans):
    """Per span name: calls, self time, inclusive time and work.

    Self time is a span's duration minus the durations of its direct
    children. Inclusive time and work count only spans with no ancestor of
    the same name, so recursive calls are not counted twice.
    """
    name = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    n = len(name)
    has_child = parent >= 0
    child_time = np.bincount(parent[has_child], weights=dur[has_child],
                             minlength=n)
    self_time = dur - child_time

    nested = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not np.any(live):
            break
        nested[live] |= name[anc[live]] == name[live]
        anc[live] = parent[anc[live]]

    k = len(names)
    outer = ~nested
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=self_time, minlength=k)
    incl_s = np.bincount(name[outer], weights=dur[outer], minlength=k)
    work = np.bincount(name[outer], weights=spans["work"][outer], minlength=k)
    single = outer & (spans["work"] == 1)
    single_calls = np.bincount(name[single], minlength=k)
    single_s = np.bincount(name[single], weights=dur[single], minlength=k)
    return {
        names[i]: {
            "calls": int(calls[i]),
            "self_s": float(self_s[i]),
            "incl_s": float(incl_s[i]),
            "work": int(work[i]),
            "single_calls": int(single_calls[i]),
            "single_s": float(single_s[i]),
        }
        for i in range(k)
    }
