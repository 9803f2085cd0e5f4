"""Spans and counters around the public functions of the rsl layers.

`Tracer.install()` wraps every public function and public method defined in
the six layer modules, and rebinds every module-level name in the `rsl`
package that refers to one of them, so a call through an imported name
(`fastfield.radial_kernel`, `nonlinear.duhamel_coefficients`,
`estimates.band_norm_adaptive`, ...) is recorded like a call through the
defining module.  Nothing inside the library changes.

Each call records a span (name, start, end, parent) in memory; a few calls
also feed counters computed from their arguments and results.  `metrics()`
turns the spans and counters of one pass into the per-layer metrics.
A layer's self time is its spans' duration minus the time covered by their
child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("bessel", "transform", "propagator", "fastfield", "nonlinear", "estimates")

# metrics that must repeat exactly between passes of one workload and seed
COUNT_METRICS = (
    "bessel.radial_kernel_pts",
    "bessel.hankel_phase_coeffs_calls",
    "fastfield.sampler_builds",
    "fastfield.slices",
    "fastfield.kept_slices",
    "fastfield.kept_slice_frac",
    "fastfield.expansion_terms",
    "fastfield.czt_rows",
    "fastfield.converged_bands",
    "nonlinear.grid_points",
    "nonlinear.picard_iterations",
)


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self._stack = []
        self.bindings = defaultdict(list)   # span name -> rebound module names
        self.reset()

    def reset(self):
        """Forget spans and counters (the bindings stay wrapped)."""
        self.spans.clear()
        self._stack.clear()
        self.counts = defaultdict(float)
        self.band_times = []
        self._sampler_serial = {}      # id(sampler) -> serial of its build
        self._sampler_terms = []       # serial -> expansion terms P (0: no outer block)
        self._sampler_slices = []      # serial -> field_at calls

    # -- wrapping ------------------------------------------------------------

    def install(self):
        import rsl  # noqa: F401  (loads every layer module)

        originals = {}   # id -> (function, wrapper); holding the function keeps its id unique
        for layer in LAYERS:
            mod = sys.modules[f"rsl.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rsl" or mod_name.startswith("rsl.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None:
                    setattr(mod, name, hit[1])
                    self.bindings[hit[1].span_name].append(f"{mod_name}.{name}")

    def _wrap_methods(self, cls, layer):
        own_init = "__init__" in vars(cls) and not dataclasses.is_dataclass(cls)
        for name, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (not name.startswith("_")
                                            or (name == "__init__" and own_init)):
                span = f"{layer}.{cls.__name__}.{name}"
                setattr(cls, name, self._wrap(obj, span))
                self.bindings[span].append(f"{cls.__module__}.{cls.__qualname__}.{name}")

    def _wrap(self, fn, span_name):
        observe = getattr(self, "_observe_" + span_name.split(".", 1)[1].replace(".", "_"),
                          None)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [span_name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            mark = len(self._sampler_terms)   # builds before this call
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, rec[2] - rec[1], mark)
            return result

        wrapper.span_name = span_name
        return wrapper

    # -- counters --------------------------------------------------------------

    def _observe_radial_kernel(self, args, kwargs, result, dur, mark):
        import numpy as np

        self.counts["kernel_pts"] += np.size(args[1] if len(args) > 1 else kwargs["x"])

    def _observe_BandFieldSampler___init__(self, args, kwargs, result, dur, mark):
        sampler = args[0]
        self._sampler_serial[id(sampler)] = len(self._sampler_terms)
        self._sampler_terms.append(int(sampler.bp.size) if sampler.r_out.size else 0)
        self._sampler_slices.append(0)

    def _observe_BandFieldSampler_field_at(self, args, kwargs, result, dur, mark):
        serial = self._sampler_serial[id(args[0])]
        self._sampler_slices[serial] += 1
        self.counts["czt_rows"] += 2 * self._sampler_terms[serial]

    def _observe_band_norm_adaptive(self, args, kwargs, result, dur, mark):
        self.band_times.append(dur)
        built = range(mark, len(self._sampler_terms))
        if built:
            # every attempt but the last is thrown away by the window rule
            self.counts["kept_slices"] += self._sampler_slices[built[-1]]
        if all(r.converged for r in result.values()):
            self.counts["converged_bands"] += 1

    def _matmul_flops(self, matrix, operand):
        import numpy as np

        rows = operand.shape[0] if operand.ndim == 2 else 1
        # useful real flops: a complex operand against the real matrix is two products
        return 2.0 * rows * matrix.size * (2 if np.iscomplexobj(operand) else 1)

    def _observe_SolverGrid_to_physical(self, args, kwargs, result, dur, mark):
        self.counts["transform_flops"] += self._matmul_flops(args[0].synth, args[1])

    def _observe_SolverGrid_to_frequency(self, args, kwargs, result, dur, mark):
        self.counts["transform_flops"] += self._matmul_flops(args[0].anal, args[1])

    def _observe_build_solver_grid(self, args, kwargs, result, dur, mark):
        self.counts["grid_points"] += result.synth.size

    def _observe_picard_solve(self, args, kwargs, result, dur, mark):
        self.counts["picard_iterations"] += len(result[1].diff_norms)

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> dict:
        busy = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, parent), cov in zip(self.spans, covered):
            busy[name] += end - start
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += end - start - cov
        c = self.counts
        slices = sum(self._sampler_slices)
        pts = c["kernel_pts"]
        transform_s = busy["nonlinear.SolverGrid.to_physical"] + \
            busy["nonlinear.SolverGrid.to_frequency"]
        out = {
            "bessel.radial_kernel_s": busy["bessel.radial_kernel"],
            "bessel.radial_kernel_pts": pts,
            "bessel.radial_kernel_ns_per_pt": 1e9 * busy["bessel.radial_kernel"] / pts
            if pts else 0.0,
            "bessel.hankel_phase_coeffs_calls": calls["bessel.hankel_phase_coeffs"],
            "bessel.hankel_phase_coeffs_s": busy["bessel.hankel_phase_coeffs"],
            "transform.fourier_bessel_s": busy["transform.fourier_bessel"],
            "propagator.evolve_s": busy["propagator.evolve"],
            "propagator.duhamel_coefficients_s": busy["propagator.duhamel_coefficients"],
            "fastfield.band_norm_adaptive_s": busy["fastfield.band_norm_adaptive"],
            "fastfield.band_s_median": statistics.median(self.band_times)
            if self.band_times else 0.0,
            "fastfield.band_s_max": max(self.band_times, default=0.0),
            "fastfield.sampler_builds": len(self._sampler_terms),
            "fastfield.sampler_build_s": busy["fastfield.BandFieldSampler.__init__"],
            "fastfield.slices": slices,
            "fastfield.field_at_s": busy["fastfield.BandFieldSampler.field_at"],
            "fastfield.us_per_slice": 1e6 * busy["fastfield.BandFieldSampler.field_at"] / slices
            if slices else 0.0,
            "fastfield.kept_slices": c["kept_slices"],
            "fastfield.kept_slice_frac": c["kept_slices"] / slices if slices else 0.0,
            "fastfield.expansion_terms": sum(self._sampler_terms),
            "fastfield.czt_rows": c["czt_rows"],
            "fastfield.converged_bands": c["converged_bands"],
            "nonlinear.to_physical_s": busy["nonlinear.SolverGrid.to_physical"],
            "nonlinear.to_frequency_s": busy["nonlinear.SolverGrid.to_frequency"],
            "nonlinear.transform_gflops": 1e-9 * c["transform_flops"] / transform_s
            if transform_s else 0.0,
            "nonlinear.build_solver_grid_s": busy["nonlinear.build_solver_grid"],
            "nonlinear.grid_points": c["grid_points"],
            "nonlinear.picard_iterations": c["picard_iterations"],
            "nonlinear.picard_solve_s": busy["nonlinear.picard_solve"],
            "nonlinear.scattering_state_s": busy["nonlinear.scattering_state"]
            + busy["nonlinear.wave_scattering_state"],
            "nonlinear.nls_s": busy["nonlinear.nls_small_data_experiment"],
            "nonlinear.fnls_s": busy["nonlinear.fnls_experiment"],
            "nonlinear.nlw_s": busy["nonlinear.nlw_small_data_experiment"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        return {k: float(v) for k, v in out.items()}
