"""Span tracing of dpsco's public functions, installed from outside.

Every public function of a layer module, every public method and every
``__post_init__`` of its classes, is replaced by a wrapper that records
one span: name, start, end, parent span and op id. The wrapper is bound
at every name a caller looks the function up by. The modules use
``from .x import f``, so ``dpsco.base_solvers.batch_ext_gradients`` and
every module's ``as_point`` are separate bindings of one function, and
each is rebound. Methods and ``__post_init__`` are looked up on the
class, so rebinding the class attribute reaches every caller.

Spans live in flat integer arrays in memory and are written out when
the run ends. A span's self time is its duration minus the time its
child spans cover. Time in a private helper or in numpy is therefore
booked to the layer of the nearest wrapped caller, and time inside an
op but outside every library span to ``harness``. By construction the
self times of all spans in an op add up to the op's root span.

Counters that a span count cannot give (rows evaluated, rows clipped,
outer localization epochs) are taken by hooks that run after the call,
inside a span of their own layer, ``trace``, so their cost is not booked
to a library layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# the library's modules, innermost first; cli only parses and hands off
LAYERS = (
    "geometry", "losses", "mechanisms", "problems", "hardness",
    "base_solvers", "interpolation", "bench",
)
HARNESS = "harness"  # the benchmark's own code inside an op
HOOKS = "trace"  # counting done by this module inside an op


class Tracer:
    def __init__(self, dp):
        self.dp = dp
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.rows = 0
        self.clipped = 0
        self.epochs = 0
        self._hook_id = self._name_id(f"{HOOKS}.hooks", HOOKS)
        self._op_root_id = self._name_id(f"{HARNESS}.op", HARNESS)

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    # -- recording -------------------------------------------------------

    @contextmanager
    def op_span(self):
        """Root span of one op; every library span inside it is a child."""
        if self.stack:
            raise RuntimeError("ops do not nest")
        idx = len(self.start)
        self.op_id = idx
        self.parent.append(-1)
        self.name.append(self._op_root_id)
        self.op.append(idx)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.stack.pop()
            self.op_id = -1

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        nid = self._name_id(name, layer)
        hook_id = self._hook_id
        start, end, parent, names, op, stack = (
            self.start, self.end, self.parent, self.name, self.op, self.stack,
        )
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            op.append(tracer.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                h = len(start)
                parent.append(stack[-1] if stack else -1)
                names.append(hook_id)
                op.append(tracer.op_id)
                end.append(0)
                start.append(clock())
                after(result, args)
                end[h] = clock()
            return result

        return traced

    # -- hooks -----------------------------------------------------------

    def _count_clipped(self, result, args):
        grads = args[0]
        out = result[0]
        self.rows += grads.shape[0]
        if out is not grads:
            # clip_gradients hands back its input unless some row clips;
            # a clipped row is scaled by clip/norm < 1, so it changes
            self.clipped += int(np.count_nonzero((out != grads).any(axis=1)))

    def _count_epochs(self, result, args):
        self.epochs += len(result.trace.epochs)

    def _trace_mechanism(self, args):
        """Wrap the audit callback that run_audit hands to empirical_epsilon."""
        mech = self.wrap(args[0], "mechanisms.audit_mechanism", "mechanisms")
        return (mech,) + tuple(args[1:])

    # -- installation ----------------------------------------------------

    def _targets(self):
        """(owner class or None, attribute, function, span name, layer,
        (before, after) hooks or None) for every target."""
        hooks = {
            "losses.clip_gradients": (None, self._count_clipped),
            "interpolation.interpolation_localization": (None, self._count_epochs),
            "interpolation.kappa_interpolation": (None, self._count_epochs),
            "mechanisms.empirical_epsilon": (self._trace_mechanism, None),
        }
        for layer in LAYERS:
            mod = getattr(self.dp, layer)
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield None, attr, obj, f"{layer}.{attr}", layer, hooks.get(f"{layer}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in sorted(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__post_init__" or not meth.startswith("_")):
                            yield obj, meth, fn, f"{layer}.{attr}.{meth}", layer, None

    @contextmanager
    def installed(self):
        """Rebind every target at every binding; restore them on exit."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dpsco" or name.startswith("dpsco."))
        ]
        saved = []
        try:
            for owner, attr, fn, name, layer, hook in self._targets():
                before, after = hook if hook else (None, None)
                wrapped = self.wrap(fn, name, layer, before, after)
                if owner is not None:
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is fn:
                            saved.append((mod, binding, fn))
                            setattr(mod, binding, wrapped)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- aggregation -----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.layer_of), **self.arrays()
        )

    def summary(self) -> dict:
        """Per-layer self time, per-name counts and inclusive times less
        the time of the counting hooks below, and the checks that every
        span belongs to an op."""
        a = self.arrays()
        start, end, parent, name, op = a["start_ns"], a["end_ns"], a["parent"], a["name"], a["op"]
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(dur.shape[0], dtype=np.int64)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        layers = sorted(set(self.layer_of))
        layer_idx = np.array([layers.index(lay) for lay in self.layer_of], dtype=np.int64)
        span_layer = layer_idx[name]
        layer_self = np.zeros(len(layers), dtype=np.int64)
        np.add.at(layer_self, span_layer, self_ns)
        roots = ~has_parent
        faults = []
        if np.any(name[roots] != self._op_root_id):
            faults.append("a library span was recorded outside every op")
        if np.any(op < 0):
            faults.append("a span carries no op id")
        # time of the counting hooks below each span: every hook span adds
        # its duration to all its ancestors, one level per pass
        hook_below = np.zeros(dur.shape[0], dtype=np.int64)
        hooks = name == self._hook_id
        anc, hook_dur = parent[hooks], dur[hooks]
        while True:
            keep = anc >= 0
            anc, hook_dur = anc[keep], hook_dur[keep]
            if not anc.size:
                break
            np.add.at(hook_below, anc, hook_dur)
            anc = parent[anc]
        op_ns = dur[roots]
        count = np.bincount(name, minlength=len(self.names))
        incl = np.zeros(len(self.names), dtype=np.int64)
        np.add.at(incl, name, dur - hook_below)
        parent_name = np.full(name.shape[0], -1, dtype=np.int64)
        parent_name[has_parent] = name[parent[has_parent]]
        return {
            "ops": int(roots.sum()),
            "op_ns": op_ns,
            "layer_self_ns": {lay: int(v) for lay, v in zip(layers, layer_self)},
            "count": {n: int(c) for n, c in zip(self.names, count)},
            "incl_ns": {n: int(v) for n, v in zip(self.names, incl)},
            "spans": int(name.shape[0]),
            "name": name,
            "parent_name": parent_name,
            "faults": faults,
        }
