"""In-memory call spans around ratelab's public functions.

The benchmark measures layers from its own files: `Tracer.install`
replaces each listed function (or method) with a wrapper that records a
span, and `Tracer.uninstall` puts the originals back. No file of the
package changes.

A span is (name, parent index, start, end) on the process CPU clock.
Self time of a span is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "ratelab"

# Layers by module: each entry is a function, or a "Class.method".
TRACED = {
    "mercer": (
        "trigonometric_basis",
        "build_model",
        "sample_dataset",
        "TargetFunction.evaluate",
        "MercerModel.scalar_kernel",
    ),
    "gram": ("assemble_gram", "eigendecompose", "mercer_gram_eigen"),
    "filters": ("SpectralFilter.values",),
    "estimator": ("fit", "basis_coefficients", "error_norms"),
    "rates": ("choose_lambda",),
    "concentration": ("tail_test", "sample_error_stat", "operator_deviation"),
    "lower_bounds": (
        "build_packing",
        "adversarial_family",
        "empirical_fano_check",
        "TwoPointMeasure.sample",
        "kl_divergence",
    ),
    "harness": ("rate_sweep", "write_outputs"),
}


def _basis_cells(args, kwargs, result):
    return result.shape[0] * result.shape[1]


def _dense_n3(args, kwargs, result):
    return result.size**3


def _factored_n3(args, kwargs, result):
    # The m <= N branch delegates to eigendecompose, which counts it.
    return 0 if result.complete else int(args[0].eigenvalues.shape[0]) ** 3


# Computed work counts: derived from argument and result shapes, not
# measured. name of the count -> function of (args, kwargs, result).
WORK = {
    "mercer.trigonometric_basis": ("cells", _basis_cells),
    "gram.eigendecompose": ("n3", _dense_n3),
    "gram.mercer_gram_eigen": ("n3", _factored_n3),
}


class Tracer:
    """Records spans for the functions in `TRACED` while installed."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans = []  # [name, parent index or -1, start, end]
        self.work = {}
        self._open = []
        self._patches = []

    def span(self, name, func, work=None):
        """Wrap ``func`` so each call records a span called ``name``."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            record = [name, parent, self.clock(), None]
            self.spans.append(record)
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                record[3] = self.clock()
                self._open.pop()
            if work is not None:
                key = f"{name}.{work[0]}"
                self.work[key] = self.work.get(key, 0) + work[1](args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every traced name, in every module of ratelab that binds it.

        Modules import functions by name (``from .estimator import fit``),
        so the wrapper replaces each such binding, not only the defining one.
        """
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, names in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for dotted in names:
                span_name = f"{module_name}.{dotted}"
                owner_name, _, attr = dotted.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self.span(span_name, original))
                    continue
                original = getattr(home, attr)
                wrapper = self.span(span_name, original, WORK.get(span_name))
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per traced name: calls, self seconds, plus the computed work counts."""
        return summarize(self.spans, self.work)


def summarize(spans, work=None) -> dict:
    """Calls and self time per span name, from (name, parent, start, end) rows."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for (name, _, start, end), children in zip(spans, child_time):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - children)
    out.update(work or {})
    return out


def traced_names():
    """Every span name `Tracer.install` records, as "<module>.<function>"."""
    return [f"{module}.{name}" for module, names in TRACED.items() for name in names]
