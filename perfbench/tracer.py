"""Per-layer tracing of the vcselink modules from outside the program.

``Tracer.installed()`` replaces every public function of the layer modules
with a wrapper that records a span (name, start, end, parent, round). A
``from .x import y`` copies the binding into the importing module, so the
wrapper is written into every ``vcselink`` namespace that binds the
original; the originals are put back when the block ends. A call site a
later refactor moves or removes then shows up as fewer calls, never as a
crash.

Three wrappers also count work at the layer boundary:

* ``quadrature.integrate_disk`` wraps its integrand, so each integrand call
  becomes a span named after the integrand's module and function (the
  closure in ``gain_gmm`` is ``channel.integrand``) and the points passed
  to it are counted, together with the refinement level each call reached;
* ``channel.mimo_matrix`` counts matrix entries and exact-route entries;
* ``oracle.ray_gain_mc`` counts sampled rays.

Spans stay in flat arrays in memory and are written once, when the run
ends. A span's self time is its duration minus the durations of its direct
children: the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

PACKAGE = "vcselink"
LAYERS = ("cli", "scenario", "presets", "channel", "quadrature", "geometry", "beam",
          "linkbudget", "oracle")

# counters summed per round; ``quadrature.level_max`` is a maximum
_SUMMED = ("quadrature.points", "quadrature.final_order_points", "quadrature.levels",
           "quadrature.converged", "quadrature.failures", "channel.entries",
           "channel.exact_entries", "oracle.rays")


class Tracer:
    """Records spans and counters for the rounds run while installed."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open_count: list[int] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.round = array("i")
        self.outermost = array("b")  # 1 when no enclosing span has the same name
        self._stack: list[int] = []
        self.current_round = 0
        self.counters: dict[int, dict[str, float]] = {}

    # -- recording ---------------------------------------------------------

    def name_index(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_count.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round.append(self.current_round)
        self.outermost.append(self._open_count[nid] == 0)
        self._open_count[nid] += 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self._clock())
        return idx

    def close(self, idx: int, nid: int) -> None:
        self.end[idx] = self._clock()
        self._stack.pop()
        self._open_count[nid] -= 1

    def add(self, key: str, amount: float) -> None:
        counts = self.counters.setdefault(self.current_round, {})
        counts[key] = counts.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        counts = self.counters.setdefault(self.current_round, {})
        counts[key] = max(counts.get(key, value), value)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` wrapped in a span called ``name`` (plus the layer's counting
        hook, if it has one)."""
        nid = self.name_index(name)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                self.close(idx, nid)

        traced.__traced__ = fn
        return traced

    def wrap_integrand(self, f, sizes: list):
        module = getattr(f, "__module__", None) or "?"
        nid = self.name_index(f"{module.rsplit('.', 1)[-1]}.{getattr(f, '__name__', 'f')}")

        def traced_integrand(x, y, *args, **kwargs):
            sizes.append(getattr(x, "size", 1))
            idx = self.open(nid)
            try:
                return f(x, y, *args, **kwargs)
            finally:
                self.close(idx, nid)

        return traced_integrand

    @contextmanager
    def installed(self, round_index: int):
        """Trace every call made inside the block as part of ``round_index``."""
        self.current_round = round_index
        self.counters.setdefault(round_index, {})
        patched = install(self)
        try:
            yield self
        finally:
            restore(patched)

    # -- analysis ----------------------------------------------------------

    def round_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer times, call counts and counters of each traced round."""
        import numpy as np

        nid = np.frombuffer(self.name_id, dtype=np.int32)
        rounds = np.frombuffer(self.round, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        selfs = self_times(self.start, self.end, self.parent)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        gid, mid = self._ids.get("channel.gain_gmm"), self._ids.get("channel.mimo_matrix")
        n = len(self.names)
        result = {}
        for round_index, counts in self.counters.items():
            mask = rounds == round_index
            calls = np.bincount(nid[mask], minlength=n)
            total = np.bincount(nid[mask & outer], weights=dur[mask & outer], minlength=n)
            own = np.bincount(nid[mask], weights=selfs[mask], minlength=n)
            out: dict[str, float] = {}
            for i, name in enumerate(self.names):
                out[f"{name}.calls"] = int(calls[i])
                out[f"{name}.s"] = float(total[i])
                out[f"{name}.self_s"] = float(own[i])
            for key in _SUMMED:
                out[key] = counts.get(key, 0)
            out["quadrature.level_max"] = counts.get("quadrature.level_max", 0)
            # gain_gmm calls made directly by mimo_matrix, for the pair reuse
            from_matrix = 0
            if gid is not None and mid is not None:
                sel = mask & (nid == gid) & (parent >= 0)
                from_matrix = int((nid[parent[sel]] == mid).sum())
            out["channel.gain_gmm.from_matrix"] = from_matrix
            result[round_index] = out
        return result

    def save(self, path) -> None:
        """Write every span (name, start, end, parent, round) to ``path`` (.npz)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            round=np.frombuffer(self.round, dtype=np.int32),
        )


def self_times(start, end, parent):
    """Self time of every span: its duration minus its direct children's.

    ``start``/``end`` are span times and ``parent`` the index of each span's
    parent (-1 for a root span), all indexed alike.
    """
    import numpy as np

    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


# -- counting hooks ----------------------------------------------------------

def _integrate_disk_hook(tracer: Tracer, fn, args, kwargs):
    sizes: list = []
    if args and callable(args[0]):
        args = (tracer.wrap_integrand(args[0], sizes),) + tuple(args[1:])
    elif callable(kwargs.get("f")):
        kwargs = {**kwargs, "f": tracer.wrap_integrand(kwargs["f"], sizes)}
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        if type(exc).__name__ == "DiskQuadratureError":
            tracer.add("quadrature.failures", 1)
        raise
    finally:
        tracer.add("quadrature.points", sum(sizes))
    if sizes:
        level = len(sizes) - 1  # the base order is level 0
        tracer.add("quadrature.final_order_points", sizes[-1])
        tracer.add("quadrature.levels", level)
        tracer.add("quadrature.converged", 1)
        tracer.maximum("quadrature.level_max", level)
    return result


def _mimo_matrix_hook(tracer: Tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    gains = getattr(result, "gains", result)
    entries = int(getattr(gains, "size", 0))
    tracer.add("channel.entries", entries)
    method = getattr(getattr(result, "method", None), "value", None)
    if method == "exact-gmm":
        tracer.add("channel.exact_entries", entries)
    return result


def _ray_gain_mc_hook(tracer: Tracer, fn, args, kwargs):
    spec = args[4] if len(args) > 4 else kwargs.get("spec")
    if spec is None:
        spec = getattr(sys.modules.get(f"{PACKAGE}.oracle"), "RayBundleSpec")()
    tracer.add("oracle.rays", int(getattr(spec, "ray_count", 0)))
    return fn(*args, **kwargs)


_HOOKS = {
    "quadrature.integrate_disk": _integrate_disk_hook,
    "channel.mimo_matrix": _mimo_matrix_hook,
    "oracle.ray_gain_mc": _ray_gain_mc_hook,
}


# -- patching ----------------------------------------------------------------

def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for attr in names:
        obj = getattr(module, attr, None)
        if inspect.isfunction(obj) and not hasattr(obj, "__traced__"):
            yield attr, obj


def install(tracer: Tracer) -> list:
    """Bind a traced wrapper of each public layer function in every
    ``vcselink`` namespace that binds it; returns what ``restore`` undoes."""
    wrappers = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
        for attr, fn in _public_functions(module):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
    namespaces = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    patched = []
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    return patched


def restore(patched: list) -> None:
    """Put back the originals replaced by ``install``."""
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)
