"""Span tracer for the traced benchmark run.

Installed from the benchmark's own files; the package is not edited.  It
wraps, for the duration of one pass:

* every public function of each scalesq module, in every scalesq module
  namespace that holds it (the layers are the module names);
* the fourier/spatial evaluators of every Kernel and the evaluate callable
  of every Symbol that a wrapped function returns;
* the numpy.fft / scipy.fft transform entry points (layer "grid");
* roots_jacobi as bound in scalesq.kernels and scalesq.conditions (a count,
  no span: its time stays in the calling span's self time);
* with memory=True, tracemalloc around the outermost squarefn span and
  around radial_majorant_l1, for the *_peak_mb metrics.  tracemalloc makes
  allocation-heavy code several times slower, so the benchmark takes the
  peaks from a separate memory pass and the times from a pass without it.

Spans (name, layer, start, end, parent, run id) stay in memory until the
pass ends; write() then stores them as JSON lines.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import time
import tracemalloc
from collections import defaultdict

import numpy as np

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
IO_FUNCS = ("load_field_binary", "load_field_csv", "save_field_binary", "save_field_csv")
FIELDGEN_FUNCS = ("random_band_field", "field_from_function", "gaussian_field",
                  "gaussian_derivative_field", "modulated_gaussian_field", "bump_field",
                  "mean_subtract")
POTENTIAL_FUNCS = ("riesz_potential", "bessel_potential", "potential_smoothing_function",
                   "dyadic_potential_difference")
PEAK_SPANS = ("conditions.radial_majorant_l1",)

# metric name -> unit, in report order
LAYER_METRICS = {
    "cli.self_s": "s", "config.load_s": "s",
    "grid.fft_calls": "count", "grid.fft_points": "count", "grid.fft_s": "s",
    "grid.io_s": "s", "grid.io_bytes": "bytes", "grid.fieldgen_s": "s",
    "kernels.fourier_calls": "count", "kernels.fourier_points": "count", "kernels.fourier_s": "s",
    "kernels.spatial_calls": "count", "kernels.spatial_points": "count", "kernels.spatial_s": "s",
    "kernels.jacobi_calls": "count", "kernels.jacobi_nodes": "count",
    "multiplier.symbol_points": "count", "multiplier.symbol_s": "s", "multiplier.apply_s": "s",
    "squarefn.calls": "count", "squarefn.layers": "count", "squarefn.self_s": "s",
    "squarefn.stack_bytes": "bytes", "squarefn.peak_mb": "MB",
    "weights.norm_calls": "count", "weights.norm_s": "s",
    "sobolev.family_s": "s", "sobolev.potential_s": "s", "sobolev.self_s": "s",
    "conditions.tail_s": "s", "conditions.local_power_s": "s", "conditions.majorant_s": "s",
    "conditions.majorant_peak_mb": "MB", "conditions.decay_s": "s",
    "conditions.nondegeneracy_calls": "count", "conditions.nondegeneracy_s": "s",
    "conditions.hormander_calls": "count", "conditions.hormander_s": "s",
}
COUNT_METRICS = tuple(k for k, u in LAYER_METRICS.items() if u in ("count", "bytes"))
PEAK_METRICS = tuple(k for k, u in LAYER_METRICS.items() if u == "MB")


class Tracer:
    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.active = False
        self.spans: list[list] = []  # [name, layer, start, end, parent, attrs]
        self.stack: list[int] = []
        self.jacobi_calls = 0
        self.jacobi_nodes = 0
        self._peak_owner: int | None = None
        self.kernel_cls = None
        self.symbol_cls = None

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str, layer: str, attrs: dict | None = None, peak: bool = False) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        if peak and self.memory and self._peak_owner is None and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._peak_owner = idx
        self.spans.append([name, layer, time.perf_counter(), None, parent, attrs])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()
        if self._peak_owner == idx:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self._peak_owner = None
            attrs = self.spans[idx][5] or {}
            attrs["peak_bytes"] = peak
            self.spans[idx][5] = attrs

    def current_layer(self) -> str | None:
        return self.spans[self.stack[-1]][1] if self.stack else None

    def current_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- wrappers -----------------------------------------------------------

    def wrap_function(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        peak = name in PEAK_SPANS
        io_save = fn.__name__.startswith("save") if fn.__name__ in IO_FUNCS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outermost_sq = layer == "squarefn" and tracer.current_layer() != "squarefn"
            idx = tracer.open(name, layer, None, peak or outermost_sq)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if io_save is not None:
                # field payload (samples x 16 bytes), not file size: a CSV's
                # length depends on the digits of its values, so on the seed
                field = args[0] if io_save else out
                tracer.spans[idx][5] = {**(tracer.spans[idx][5] or {}), "bytes": int(field.values.nbytes)}
            return tracer.wrap_result(out)

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def wrap_evaluator(self, fn, name: str, layer: str):
        if fn is None or getattr(fn, "__perfbench_wrapped__", False):
            return fn
        tracer = self

        def evaluator(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.spans[idx][5] = {"points": int(np.size(out))}
            return out

        evaluator.__perfbench_wrapped__ = True
        return evaluator

    def wrap_result(self, out):
        if self.kernel_cls is not None and isinstance(out, self.kernel_cls):
            return dataclasses.replace(
                out,
                fourier=self.wrap_evaluator(out.fourier, "kernels.fourier", "kernels"),
                spatial=self.wrap_evaluator(out.spatial, "kernels.spatial", "kernels"),
            )
        if self.symbol_cls is not None and isinstance(out, self.symbol_cls):
            return dataclasses.replace(
                out, evaluate=self.wrap_evaluator(out.evaluate, "multiplier.evaluate", "multiplier")
            )
        return out

    def wrap_fft(self, fn, kind: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not tracer.active or tracer.current_name() == "grid.fft":
                return fn(a, *args, **kwargs)
            arr = np.asarray(a)
            length = _transform_length(kind, arr, args, kwargs)
            attrs = {
                "points": int(arr.size),
                "batch": int(arr.size // max(length, 1)),
                "bytes": int(arr.nbytes),
                "caller": tracer.current_layer(),
            }
            idx = tracer.open("grid.fft", "grid", attrs)
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.close(idx)

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def wrap_jacobi(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(n, *args, **kwargs):
            if tracer.active:
                tracer.jacobi_calls += 1
                tracer.jacobi_nodes += int(n)
            return fn(n, *args, **kwargs)

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    # -- installation -------------------------------------------------------

    def install_fft(self) -> None:
        """Patch the FFT entry points; call before scalesq is imported so
        that `from numpy.fft import ...` inside the package binds wrappers."""
        import numpy.fft
        mods = [numpy.fft]
        try:
            import scipy.fft
            mods.append(scipy.fft)
        except ImportError:
            pass
        for mod in mods:
            for kind in FFT_NAMES:
                fn = getattr(mod, kind, None)
                if fn is not None and not getattr(fn, "__perfbench_wrapped__", False):
                    setattr(mod, kind, self.wrap_fft(fn, kind))

    def install_package(self) -> None:
        import scalesq
        modules = [importlib.import_module(f"scalesq.{m.name}")
                   for m in pkgutil.iter_modules(scalesq.__path__)]
        kernels_mod = next((m for m in modules if m.__name__ == "scalesq.kernels"), None)
        multiplier_mod = next((m for m in modules if m.__name__ == "scalesq.multiplier"), None)
        self.kernel_cls = getattr(kernels_mod, "Kernel", None)
        self.symbol_cls = getattr(multiplier_mod, "Symbol", None)
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not getattr(obj, "__perfbench_wrapped__", False)):
                    wrappers[obj] = self.wrap_function(obj, layer)
        for ns in [scalesq] + modules:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(ns, name, wrappers[obj])
        for mod in modules:
            rj = getattr(mod, "roots_jacobi", None)
            if mod.__name__ in ("scalesq.kernels", "scalesq.conditions") and rj is not None:
                setattr(mod, "roots_jacobi", self.wrap_jacobi(rj))

    # -- results ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name, "layer": layer,
                                     "start": start, "end": end, "parent": parent,
                                     "attrs": attrs}) + "\n")

    def metrics(self) -> dict:
        child_time = defaultdict(float)
        for name, layer, start, end, parent, attrs in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer_self = defaultdict(float)
        name_self = defaultdict(float)
        name_count = defaultdict(int)
        name_attr = defaultdict(int)
        sq_layers = sq_stack = 0
        peaks = defaultdict(int)
        for i, (name, layer, start, end, parent, attrs) in enumerate(self.spans):
            own = (end - start) - child_time[i]
            layer_self[layer] += own
            name_self[name] += own
            name_count[name] += 1
            attrs = attrs or {}
            for k in ("points", "bytes"):
                name_attr[(name, k)] += attrs.get(k, 0)
            if "peak_bytes" in attrs:
                key = layer if layer == "squarefn" else name
                peaks[key] = max(peaks[key], attrs["peak_bytes"])
            if name == "grid.fft" and attrs.get("caller") == "squarefn":
                sq_layers += attrs["batch"]
                sq_stack = max(sq_stack, attrs["bytes"])

        def total(layer, funcs):
            return sum(name_self[f"{layer}.{f}"] for f in funcs)

        mb = 1.0 / (1024 * 1024)
        return {
            "cli.self_s": layer_self["cli"],
            "config.load_s": layer_self["config"],
            "grid.fft_calls": name_count["grid.fft"],
            "grid.fft_points": name_attr[("grid.fft", "points")],
            "grid.fft_s": name_self["grid.fft"],
            "grid.io_s": total("grid", IO_FUNCS),
            "grid.io_bytes": sum(name_attr[(f"grid.{f}", "bytes")] for f in IO_FUNCS),
            "grid.fieldgen_s": total("grid", FIELDGEN_FUNCS),
            "kernels.fourier_calls": name_count["kernels.fourier"],
            "kernels.fourier_points": name_attr[("kernels.fourier", "points")],
            "kernels.fourier_s": name_self["kernels.fourier"],
            "kernels.spatial_calls": name_count["kernels.spatial"],
            "kernels.spatial_points": name_attr[("kernels.spatial", "points")],
            "kernels.spatial_s": name_self["kernels.spatial"],
            "kernels.jacobi_calls": self.jacobi_calls,
            "kernels.jacobi_nodes": self.jacobi_nodes,
            "multiplier.symbol_points": name_attr[("multiplier.evaluate", "points")],
            "multiplier.symbol_s": layer_self["multiplier"] - total("multiplier", ("apply_multiplier", "invert_multiplier")),
            "multiplier.apply_s": total("multiplier", ("apply_multiplier", "invert_multiplier")),
            "squarefn.calls": sum(c for n, c in name_count.items() if n.startswith("squarefn.")),
            "squarefn.layers": sq_layers,
            "squarefn.self_s": layer_self["squarefn"],
            "squarefn.stack_bytes": sq_stack,
            "squarefn.peak_mb": peaks["squarefn"] * mb,
            "weights.norm_calls": name_count["weights.weighted_norm"],
            "weights.norm_s": name_self["weights.weighted_norm"],
            "sobolev.family_s": name_self["sobolev.default_test_family"],
            "sobolev.potential_s": total("sobolev", POTENTIAL_FUNCS),
            "sobolev.self_s": layer_self["sobolev"],
            "conditions.tail_s": name_self["conditions.tail_moment_integral"],
            "conditions.local_power_s": name_self["conditions.local_power_integral"],
            "conditions.majorant_s": name_self["conditions.radial_majorant_l1"],
            "conditions.majorant_peak_mb": peaks["conditions.radial_majorant_l1"] * mb,
            "conditions.decay_s": name_self["conditions.fourier_decay_check"],
            "conditions.nondegeneracy_calls": name_count["conditions.nondegeneracy_check"],
            "conditions.nondegeneracy_s": name_self["conditions.nondegeneracy_check"],
            "conditions.hormander_calls": name_count["conditions.hormander_energy"],
            "conditions.hormander_s": name_self["conditions.hormander_energy"],
        }


def _transform_length(kind: str, arr: np.ndarray, args: tuple, kwargs: dict) -> int:
    """Points per transform (the product of the transformed axis lengths)."""
    if arr.ndim == 0:
        return 1
    if kind.endswith("n"):
        axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
        axes = range(arr.ndim) if axes is None else axes
    elif kind.endswith("2"):
        axes = kwargs.get("axes", args[1] if len(args) > 1 else (-2, -1))
    else:
        axes = (kwargs.get("axis", args[1] if len(args) > 1 else -1),)
    return int(np.prod([arr.shape[a] for a in axes]))
