"""Per-layer tracing from outside the program.

The traced run replaces selected public functions of emcool, at the names
their callers bind, with wrappers that record one span per call: name,
start, end, parent span and operation id, plus a small per-call extra for
the counters.  Spans stay in memory and are written out after the run.
Nothing under `src/` is changed; `uninstall()` puts the originals back.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path


def _file_bytes(position: int):
    """Extra for trace I/O: size of the file passed as argument `position`."""
    def post(result, args, kwargs):
        path = args[position] if len(args) > position else kwargs["path"]
        return os.path.getsize(path)
    return post


def _fit_weighted_extra(result, args, kwargs):
    return [int(result.n_iter), [float(v) for v in result.params]]


def _fit_full_model_extra(result, args, kwargs):
    return [float(v) for v in result.params.values()]


# (span name, module, attribute, extra recorded from the call); the module is
# the caller whose binding is replaced.
WRAP_POINTS = (
    ("cli.main", "emcool.cli", "main", None),
    ("device.reference_device", "emcool.cli", "reference_device", None),
    ("synth.generate_spectrum", "emcool.cli", "generate_spectrum", None),
    ("synth.generate_spectrum", "emcool.synth", "generate_spectrum", None),
    ("synth.periodogram_factors", "emcool.synth", "periodogram_factors", None),
    ("spectra.write_trace", "emcool.cli", "write_trace", _file_bytes(1)),
    ("spectra.write_trace", "emcool.spectra", "write_trace", _file_bytes(1)),
    ("spectra.read_trace", "emcool.cli", "read_trace", _file_bytes(0)),
    ("estimation.fit_full_model", "emcool.cli", "fit_full_model", _fit_full_model_extra),
    ("estimation.fit_full_model", "emcool.estimation", "fit_full_model", _fit_full_model_extra),
    ("estimation.analyze_cooling_sweep", "emcool.estimation", "analyze_cooling_sweep", None),
    ("estimation.calibrate_coupling", "emcool.cli", "calibrate_coupling", None),
    ("leastsq.fit_weighted", "emcool.estimation", "fit_weighted", _fit_weighted_extra),
    ("spectra.output_noise_values", "emcool.estimation", "output_noise_values", None),
    ("spectra.peak_area", "emcool.estimation", "peak_area", None),
    ("dynamics.final_occupancy", "emcool.estimation", "final_occupancy", None),
    ("limits.imprecision_from_chain", "emcool.estimation", "imprecision_from_chain", None),
)


class MissingWrapPoint(RuntimeError):
    """A wrap point no longer resolves; its metrics cannot be measured."""


# span record fields
NAME, START, END, PARENT, OP, EXTRA = range(6)


class Tracer:
    """Installs the wrappers and collects spans while installed."""

    def __init__(self, wrap_points=WRAP_POINTS) -> None:
        self.targets = []
        missing = []
        for name, module_name, attr, post in wrap_points:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                missing.append(f"{module_name}.{attr}")
                continue
            self.targets.append((module, attr, original, self._wrap(name, original, post)))
        if missing:
            raise MissingWrapPoint("wrap points do not resolve: " + ", ".join(missing))
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1  # operation id stamped on new spans; set-up k is -1 - k

    def _wrap(self, name, fn, post):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if post is not None:
                span[EXTRA] = post(result, args, kwargs)
            return result
        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self.targets:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.targets:
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, extra."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans, ops, prefix_ops, units_per_op: int, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    Times are per operation, averaged over the `ops` traced operations
    (ids 0..ops-1), and multiplied by `scale`, which takes a measured time
    to the nominal machine (see reference.py).  Counts come from the
    operations with id below `prefix_ops`, one pass over the inputs, which
    are fixed by the seed, so they repeat exactly across runs.  A ratio
    whose base is zero (no fits on calibration_io) reads 0.
    """
    selfs = [t * scale for t in self_times(spans)]
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    setup_busy = defaultdict(float)
    setup_runs = set()
    for idx, s in enumerate(spans):
        if s[OP] < 0:
            setup_busy[s[NAME]] += (s[END] - s[START]) * scale
            setup_runs.add(s[OP])
            continue
        busy[s[NAME]] += (s[END] - s[START]) * scale
        own[s[NAME]] += selfs[idx]
        calls[s[NAME]] += 1

    # exact counters over the prefix operations
    n = defaultdict(int)
    bytes_total = defaultdict(int)
    starts_of = defaultdict(list)  # fit_full_model span -> its fit_weighted results
    iters = 0
    for s in spans:
        if s[NAME] in ("spectra.write_trace", "spectra.read_trace") and s[OP] >= 0:
            bytes_total[s[NAME]] += s[EXTRA] or 0
        if not 0 <= s[OP] < prefix_ops:
            continue
        n[s[NAME]] += 1
        if s[NAME] == "leastsq.fit_weighted" and s[EXTRA] is not None:
            iters += s[EXTRA][0]
            starts_of[s[PARENT]].append(s[EXTRA][1])
    kept = sum(
        s[EXTRA] is not None and s[EXTRA] in starts_of[idx]
        for idx, s in enumerate(spans)
        if s[NAME] == "estimation.fit_full_model" and 0 <= s[OP] < prefix_ops
    )

    def ratio(a, b):
        return a / b if b else 0.0

    fits = n["estimation.fit_full_model"]
    starts = n["leastsq.fit_weighted"]
    per_op = 1.0 / ops if ops else 0.0
    return {
        "spectra.model_evals_per_fit": ratio(n["spectra.output_noise_values"], fits),
        "spectra.output_noise_values.self_s": own["spectra.output_noise_values"] * per_op,
        "spectra.output_noise_values.us_per_call": 1e6 * ratio(
            busy["spectra.output_noise_values"], calls["spectra.output_noise_values"]
        ),
        "leastsq.fit_weighted.self_s": own["leastsq.fit_weighted"] * per_op,
        "leastsq.fit_weighted.calls": starts,
        "leastsq.starts_per_fit": ratio(starts, fits),
        "leastsq.kept_start_frac": ratio(kept, starts),
        "leastsq.iters_per_fit": ratio(iters, fits),
        "estimation.fit_full_model.self_s": own["estimation.fit_full_model"] * per_op,
        "estimation.fit_full_model.calls": fits,
        "estimation.analyze_cooling_sweep.self_s": own["estimation.analyze_cooling_sweep"] * per_op,
        "dynamics.final_occupancy.calls_per_point": ratio(
            n["dynamics.final_occupancy"], n["estimation.analyze_cooling_sweep"] * units_per_op
        ),
        "estimation.calibrate_coupling.self_s": own["estimation.calibrate_coupling"] * per_op,
        "spectra.peak_area.busy_s": busy["spectra.peak_area"] * per_op,
        "spectra.write_trace.busy_s": busy["spectra.write_trace"] * per_op,
        "spectra.write_trace.mb_per_s": 1e-6 * ratio(bytes_total["spectra.write_trace"], busy["spectra.write_trace"]),
        "spectra.write_trace.calls": n["spectra.write_trace"],
        "spectra.read_trace.busy_s": busy["spectra.read_trace"] * per_op,
        "spectra.read_trace.mb_per_s": 1e-6 * ratio(bytes_total["spectra.read_trace"], busy["spectra.read_trace"]),
        "spectra.read_trace.calls": n["spectra.read_trace"],
        "synth.generate_spectrum.busy_s": busy["synth.generate_spectrum"] * per_op,
        "synth.generate_spectrum.setup_busy_s": ratio(setup_busy["synth.generate_spectrum"], len(setup_runs)),
        "synth.periodogram_factors.busy_s": busy["synth.periodogram_factors"] * per_op,
        "cli.main.self_s": own["cli.main"] * per_op,
        "dynamics.final_occupancy.busy_s": busy["dynamics.final_occupancy"] * per_op,
        "limits.imprecision_from_chain.busy_s": busy["limits.imprecision_from_chain"] * per_op,
        "device.reference_device.busy_s": busy["device.reference_device"] * per_op,
    }
