"""In-memory span tracer installed from outside the package.

`Tracer.install` replaces each target function with a timing wrapper in
every loaded `fgncontrol` module that binds it by name (modules import
by name, so `forward` lives in `dynamics`, `smp`, `lq`, `selftest` and
the package namespace at once).  A span records its name, start, end,
parent span and root span; self time is a span's duration minus the
durations of its direct child spans.  Spans stay in compact arrays
until `write` saves them at the end of a run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (layer name, defining module, attribute).  Each layer is one span name;
# several functions may share a layer (every reporting.write_* writer).
SPAN_TARGETS = (
    ("noise.whiten", "fgncontrol.noise", "whiten"),
    ("lattice.lattice_for_hurst", "fgncontrol.lattice", "lattice_for_hurst"),
    ("lattice.noise_value", "fgncontrol.lattice", "noise_value"),
    ("lattice.noise_conditional_mean", "fgncontrol.lattice", "noise_conditional_mean"),
    ("lattice.condexp", "fgncontrol.lattice", "condexp"),
    ("dynamics.forward", "fgncontrol.dynamics", "forward"),
    ("dynamics.cost", "fgncontrol.dynamics", "cost"),
    ("bsde.solve_bsde", "fgncontrol.bsde", "solve_bsde"),
    ("bsde.adjoint_driver", "fgncontrol.bsde", "adjoint_driver"),
    ("bsde.residual_orthogonality", "fgncontrol.bsde", "residual_orthogonality"),
    ("smp.smp_residual", "fgncontrol.smp", "smp_residual"),
    ("smp.check_stationarity", "fgncontrol.smp", "check_stationarity"),
    ("smp.optimize", "fgncontrol.smp", "optimize"),
    ("lq.lq_fixed_point", "fgncontrol.lq", "lq_fixed_point"),
    ("lq.verify_sufficiency", "fgncontrol.lq", "verify_sufficiency"),
    ("lq.verify_uniqueness", "fgncontrol.lq", "verify_uniqueness"),
    ("configs.load", "fgncontrol.configs", "load_model_config"),
    ("configs.load", "fgncontrol.configs", "load_lq_config"),
    ("configs.load", "fgncontrol.configs", "load_bsde_config"),
    ("reporting.write", "fgncontrol.reporting", "write_matrix_csv"),
    ("reporting.write", "fgncontrol.reporting", "write_state_csv"),
    ("reporting.write", "fgncontrol.reporting", "write_control_csv"),
    ("reporting.write", "fgncontrol.reporting", "write_bsde_csv"),
    ("reporting.write", "fgncontrol.reporting", "write_adjoint_csv"),
    ("reporting.write", "fgncontrol.reporting", "write_residual_csv"),
    ("reporting.write", "fgncontrol.reporting", "write_optimize_trace_csv"),
    ("reporting.write", "fgncontrol.reporting", "write_lq_trace_csv"),
    ("reporting.write", "fgncontrol.reporting", "write_paths_csv"),
    ("reporting.write", "fgncontrol.reporting", "write_json"),
)


def _condexp_bytes(args, kwargs, result):
    # computed, not measured: 8 bytes per float64 of the input table
    return 8 * args[0].values.size


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _optimize_iterations(args, kwargs, result):
    return result.iterations


# Per-layer quantity added up from each call's arguments and result.
QUANTITIES = {
    "lattice.condexp": ("lattice.condexp.bytes", _condexp_bytes),
    "reporting.write": ("reporting.bytes", _written_bytes),
    "smp.optimize": ("smp.optimize.iterations", _optimize_iterations),
}


class Tracer:
    """Span recorder; `install` activates it, `uninstall` restores the package."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_root = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised: dict[str, int] = {}
        self.quantities: dict[str, float] = {}
        self.adapted_values_created = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack
        sid = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_root.append(stack[0] if stack else sid)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.raised[name] = self.raised.get(name, 0) + 1
            raise
        finally:
            self.span_end[sid] = time.perf_counter()
            self.span_start[sid] = start
            stack.pop()
        if name in QUANTITIES:
            metric, measure = QUANTITIES[name]
            self.quantities[metric] = self.quantities.get(metric, 0) + measure(args, kwargs, result)
        return result

    def _arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.span_parent, dtype=np.int32),
            np.frombuffer(self.span_root, dtype=np.int32),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
        )

    def summary(self) -> dict:
        """Calls and self time per layer, and calls per (layer, parent layer).

        `in_root` splits self time by the name of each span's root span.
        """
        name, parent, root, start, end = self._arrays()
        k = len(self.names)
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=name.size)
        self_time = duration - child
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        pairs = np.bincount(name[nested] * k + name[parent[nested]], minlength=k * k)
        root_name = name[root]
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "nested": {(self.names[i // k], self.names[i % k]): int(c)
                       for i, c in enumerate(pairs) if c},
            "in_root": {n: float(self_time[root_name == i].sum())
                        for i, n in enumerate(self.names)},
        }

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target wherever a loaded fgncontrol module binds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "fgncontrol" or key.startswith("fgncontrol."))]
        for name, module_name, attr in SPAN_TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

        lattice = sys.modules["fgncontrol.lattice"]
        dynamics = sys.modules["fgncontrol.dynamics"]
        # ModelSpec construction runs its spot and derivative checks here
        self._patch(dynamics.ModelSpec, "__post_init__",
                    self._wrap("dynamics.ModelSpec", dynamics.ModelSpec.__post_init__))
        # AdaptedValue construction is counted, not spanned: it happens
        # millions of times per solve and a span would swamp it
        init = lattice.AdaptedValue.__init__

        def counted_init(obj, *args, **kwargs):
            self.adapted_values_created += 1
            init(obj, *args, **kwargs)

        self._patch(lattice.AdaptedValue, "__init__", counted_init)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path: str):
        """Save every span (name id, parent, root, start, end) as .npz."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        name, parent, root, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            root=root, start=start, end=end)
