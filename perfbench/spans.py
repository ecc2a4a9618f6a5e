"""Outside-in layer trace of one nearwave process.

Wrappers are installed at the module attributes through which callers look
the layer functions up (``nearwave.engine.material_transmission`` is what
``engine.grating_transmission`` calls), so nothing under ``src/`` changes.
Each wrapped call records a span (layer, start, end, parent); spans stay in
memory and are written out when the process ends. ``summarize`` turns the
spans of one process into calls and self time per layer. The tracer's own
bookkeeping on a call (the distinct-argument key, the grid-size sum) runs
in the caller's span; it is timed there and kept out of the caller's self
time, so it shows only in the trace overhead.
"""

from __future__ import annotations

import importlib
import time

# layer -> lookup sites "module:attribute" whose calls it times.
LAYERS = {
    "gratings.transmission": ("engine:material_transmission",
                              "engine:laser_phase_transmission",
                              "engine:ionizing_transmission"),
    "gratings.fourier": ("engine:fourier_coefficients",
                         "classical:transmission_probability_coefficients"),
    "engine.talbot_lau": ("engine:talbot_lau_coefficient",),
    "engine.detector_signal": ("engine:detector_signal",),
    "engine.velocity_average": ("cli:velocity_averaged_signal",),
    "engine.time_domain": ("cli:time_domain_visibility",
                           "csl:time_domain_visibility"),
    "classical.quadrature": ("cli:classical_visibility_quadrature",),
    "decoherence.channel_build": ("cli:collisional_channel",),
    "decoherence.eta": ("decoherence:collisional_eta",),
    "decoherence.factor": ("decoherence:decoherence_factor",),
    "csl.critical_mass": ("csl:critical_mass",),
}
# Span that covers the command body; its self time is the sweep driver
# and the emit.
ROOT = "cli"
# Calls counted without a span: the bisection steps of csl.critical_mass.
COUNTED = {"csl.bisection_steps": "csl:csl_reduction_factor"}

COUNTERS = ("gratings.fft_points", "gratings.transmission.distinct")


class Tracer:
    def __init__(self):
        # [layer, start, end, parent index, bookkeeping time inside]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts = {name: 0 for name in (*COUNTED, *COUNTERS)}
        self._distinct: set = set()
        self.missing: list[str] = []

    def span(self, layer: str, func, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                hook_start = clock()
                on_call(args, kwargs)
                if stack:
                    spans[stack[-1]][4] += clock() - hook_start
            index = len(spans)
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return wrapper

    def counted(self, name: str, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def _note_transmission(self, args, kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        try:
            hash(key)
        except TypeError:
            key = repr(key)
        if key not in self._distinct:
            self._distinct.add(key)
            self.counts["gratings.transmission.distinct"] += 1

    def _note_fourier(self, args, kwargs):
        profile = args[0] if args else kwargs.get("p")
        self.counts["gratings.fft_points"] += int(profile.grid_size)

    def install(self):
        """Wrap every lookup site; a site that no longer exists is listed
        in ``missing`` and left alone."""
        hooks = {"gratings.transmission": self._note_transmission,
                 "gratings.fourier": self._note_fourier}
        sites = [(layer, site) for layer, names in LAYERS.items()
                 for site in names]
        sites += [(name, site) for name, site in COUNTED.items()]
        for layer, site in sites:
            module_name, attr = site.split(":")
            module = importlib.import_module(f"nearwave.{module_name}")
            func = getattr(module, attr, None)
            if func is None:
                self.missing.append(site)
                continue
            if layer in COUNTED:
                wrapped = self.counted(layer, func)
            else:
                wrapped = self.span(layer, func, hooks.get(layer))
            setattr(module, attr, wrapped)

    def record(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[s[0]], *s[1:]] for s in self.spans],
                "counts": self.counts, "missing": self.missing}


def summarize(record: dict) -> dict[str, dict[str, float]]:
    """Calls and self time per layer from one process's spans.

    Self time is a span's duration minus the durations of its direct
    children and minus the tracer's bookkeeping inside it; spans nest, so
    children never overlap.
    """
    names, spans = record["names"], record["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers = {name: {"calls": 0, "self_s": 0.0} for name in (*LAYERS, ROOT)}
    for (name_index, start, end, _, hooks), children in zip(spans, child_time):
        row = layers.setdefault(names[name_index], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - children - hooks
    return layers
