"""Spans around clonebound's layer functions, for the traced run only.

While an operation runs inside `Tracer.operation`, each layer function
named in LAYER_FUNCTIONS is rebound, wherever a clonebound module holds
it under its public name, to a wrapper that records a span: name,
start, end, parent span and operation id.  The names are restored when
the operation ends.  Nothing under src/ changes, and untraced
operations run the original functions.  Spans stay in memory in flat
arrays and are written out once, when the run ends.  A layer's self
time is its span durations minus the durations of its direct child
spans.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter

#: the traced layers: module of src/clonebound -> its traced functions
LAYER_FUNCTIONS = {
    "pauli": ("hermitian_eigenvalues4", "pauli_decompose", "partial_trace",
              "overlap_fidelity", "random_rotation", "trace_distance"),
    "family": ("no_signaling_residual", "axial_covariance_residual",
               "covariance_constraint_residual", "template_state_z",
               "positivity_eigenvalues"),
    "buzek_hillery": ("bh_clone",),
    "signaling": ("signaling_advantage", "monte_carlo_signal"),
    "bounds": ("max_eta_grid",),
    "serialize": ("dump_json", "csv_lines"),
    "cli": ("main",),
}

SPAN_CALL, SPAN_RESUME = 0, 1


class Tracer:
    """Records spans and counters of traced operations; `summary` aggregates them."""

    def __init__(self, op_name):
        self.names = []
        self._name_index = {}
        self._op_name_id = self._intern(op_name)
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.kind = array("b")
        self._stack = []
        self.op_id = -1
        self.counts = Counter()
        self.grid_peak_bytes = 0
        self._patches = None

    def _intern(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, name_id, kind):
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.name.append(name_id)
        self.kind.append(kind)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id):
        """Trace one operation: rebind the layer functions and open its root span."""
        if self._patches is None:
            self._patches = self._patch_list()
        for module, fn_name, _, wrapper in self._patches:
            setattr(module, fn_name, wrapper)
        self.op_id = op_id
        idx = self._open(self._op_name_id, SPAN_CALL)
        try:
            yield
        finally:
            self._close(idx)
            for module, fn_name, original, _ in self._patches:
                setattr(module, fn_name, original)

    def _wrap(self, name, fn):
        name_id = self._intern(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                idx = tracer._open(name_id, SPAN_CALL)
                try:
                    inner = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                while True:
                    idx = tracer._open(name_id, SPAN_RESUME)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    if name == "serialize.csv_lines":
                        tracer.counts["serialize.bytes"] += len(item) + 1
                    yield item
            return traced_gen

        shots_index = None
        if name == "signaling.monte_carlo_signal":
            shots_index = list(inspect.signature(fn).parameters).index("shots")

        def traced(*args, **kwargs):
            if name == "bounds.max_eta_grid":
                resolution = int(args[0] if args else kwargs["resolution"])
                tracer.counts["bounds.grid_points"] += resolution * resolution
                tracemalloc.start()
            elif shots_index is not None:
                shots = args[shots_index] if len(args) > shots_index else kwargs["shots"]
                tracer.counts["signaling.mc_shots"] += int(shots)
            idx = tracer._open(name_id, SPAN_CALL)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if name == "bounds.max_eta_grid":
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.grid_peak_bytes = max(tracer.grid_peak_bytes, peak)
            if name == "serialize.dump_json":
                tracer.counts["serialize.bytes"] += len(result)
            return result
        return traced

    def _patch_list(self):
        """(module, name, original, wrapper) for each namespace holding a layer function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "clonebound" or n.startswith("clonebound."))]
        patches = []
        for layer, functions in LAYER_FUNCTIONS.items():
            home = sys.modules[f"clonebound.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                patches += [(module, fn_name, original, wrapper) for module in modules
                            if getattr(module, fn_name, None) is original]
        return patches

    def summary(self):
        """{span name: (calls, self_ns)} derived from the recorded spans."""
        import numpy as np

        n_names = len(self.names)
        if not self.start:
            return {name: (0, 0) for name in self.names}
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        kind = np.frombuffer(self.kind, dtype=np.int8)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        calls = np.bincount(name[kind == SPAN_CALL], minlength=n_names)
        self_ns = np.bincount(name, weights=self_time, minlength=n_names)
        return {nm: (int(calls[i]), float(self_ns[i])) for i, nm in enumerate(self.names)}

    def write(self, path):
        """Write every span (times in ns from the first span) to an .npz file."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.int64)
        origin = int(start[0]) if len(start) else 0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=start - origin,
            end=np.frombuffer(self.end, dtype=np.int64) - origin,
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            kind=np.frombuffer(self.kind, dtype=np.int8),
        )
