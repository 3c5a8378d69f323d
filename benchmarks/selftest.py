"""Tests of the benchmark's own logic: failure classification and tracing.

Run from the root of a checkout with

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps these tests out of the package's own test run.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import emcool as em  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class ReadmeCase(workloads.ReadmeFit):
    """The README example: `simulate --n-d 4000` with seed 0, then `fit`."""

    def case(self, i):
        return 4000.0, 0


def test_readme_reproducer_counts_as_failed(tmp_path):
    wl = ReadmeCase(seed=0, work=tmp_path, n_inputs=1)
    wl.setup()
    latency, outcome = workloads.execute(wl, 0)
    # exits 0 with g ~ 3.6e30 rad/s: converged but wrong
    assert outcome.failures == ("out_of_tolerance",)
    assert outcome.units == 1 and latency > 0.0
    # the harness goes on: the same op again gives the same verdict and output
    assert workloads.execute(wl, 0)[1] == outcome


def test_sweep_crash_counts_as_failed(tmp_path):
    dev = em.reference_device()
    thermal = em.ThermalState.from_temperature(0.020, dev.mech)
    g = em.coupling_rate(dev.coupling, dev.mech, 1e5)
    params = em.ModelParams.for_device(dev, g=g, n_m_T=thermal.n_m_T, n_add_eff=em.REFERENCE_N_ADD_EFF)
    trace = em.generate_spectrum(params, em.NoiseConfig(n_avg=500, seed=100000))
    wl = workloads.CoolingSweep(seed=0, work=tmp_path, n_inputs=1)
    wl.device, wl.thermal = dev, thermal
    wl.sets = [[(1e5, trace)]]
    wl.truths = [(1e5, em.final_occupancy(thermal, g, dev.cavity.kappa, dev.mech.gamma_m))]
    with pytest.raises(em.ParameterError, match="g must be >= 0"):
        wl.op(0)
    _, outcome = workloads.execute(wl, 0)
    assert outcome.failures == ("exception",)
    assert outcome.units == 1


def test_classifiers():
    assert workloads.classify_fit(0, {"params": {"g": 1.5}}, 1.0) is None
    assert workloads.classify_fit(0, {"params": {"g": 2.5}}, 1.0) == "out_of_tolerance"
    assert workloads.classify_fit(0, {"params": {"g": float("nan")}}, 1.0) == "out_of_tolerance"
    assert workloads.classify_fit(3, None, 1.0) == "not_converged"
    assert workloads.classify_fit(2, None, 1.0) == "exit_code"
    assert workloads.classify_calibration(0, {"G": 1.03}, 1.0) is None
    assert workloads.classify_calibration(0, {"G": 1.05}, 1.0) == "out_of_tolerance"
    assert workloads.classify_calibration(2, None, 1.0) == "exit_code"
    assert workloads.classify_sweep(ValueError("x"), [(1.0, 0.5), (2.0, 0.4)]) == ("exception",) * 2


def test_missing_wrap_point_is_named():
    with pytest.raises(tracing.MissingWrapPoint, match="emcool.cli.no_such_function"):
        tracing.Tracer([("x", "emcool.cli", "no_such_function", None)])


def test_every_wrap_point_resolves_and_uninstall_restores():
    from emcool import estimation

    original = estimation.fit_weighted
    tracer = tracing.Tracer()
    tracer.install()
    assert estimation.fit_weighted is not original
    tracer.uninstall()
    assert estimation.fit_weighted is original


def test_spans_record_parent_op_and_bytes(tmp_path):
    from emcool import spectra

    tracer = tracing.Tracer([
        ("write", "emcool.spectra", "write_trace", tracing._file_bytes(1)),
        ("to_csv", "emcool.spectra", "trace_to_csv", None),
    ])
    dev = em.reference_device()
    trace = em.output_noise_spectrum(
        em.sideband_grid(dev.mech.omega_m, 100.0, 1e5, points=64),
        em.ModelParams.for_device(dev, g=1e3, n_m_T=10.0),
    )
    path = tmp_path / "t.csv"
    tracer.install()
    tracer.op = 7
    try:
        spectra.write_trace(trace, path)
    finally:
        tracer.uninstall()
    # write_trace reaches trace_to_csv through its module global
    (w, c) = tracer.spans
    assert (w[0], w[3], w[4], w[5]) == ("write", -1, 7, path.stat().st_size)
    assert (c[0], c[3], c[4]) == ("to_csv", 0, 7)
    assert w[1] <= c[1] <= c[2] <= w[2]


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["c", 5.0, 6.0, 0, 0, None],
        ["d", 2.0, 3.0, 1, 0, None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_counters_from_prefix_only():
    spans = [
        ["estimation.fit_full_model", 0.0, 1.0, -1, 0, [1.0, 2.0]],
        ["leastsq.fit_weighted", 0.0, 0.4, 0, 0, [5, [9.0, 9.0]]],
        ["leastsq.fit_weighted", 0.4, 0.9, 0, 0, [7, [1.0, 2.0]]],
        ["spectra.output_noise_values", 0.1, 0.2, 1, 0, None],
        ["estimation.fit_full_model", 1.0, 2.0, -1, 1, [3.0]],
        ["leastsq.fit_weighted", 1.0, 1.5, 4, 1, [100, [3.0]]],
    ]
    m = tracing.layer_metrics(spans, ops=2, prefix_ops=1, units_per_op=1)
    assert m["estimation.fit_full_model.calls"] == 1
    assert m["leastsq.starts_per_fit"] == 2
    assert m["leastsq.iters_per_fit"] == 12
    assert m["leastsq.kept_start_frac"] == 0.5
    assert m["spectra.model_evals_per_fit"] == 1
    assert m["leastsq.fit_weighted.self_s"] == pytest.approx((0.3 + 0.5 + 0.5) / 2)
    assert m["spectra.write_trace.mb_per_s"] == 0.0
    scaled = tracing.layer_metrics(spans, ops=2, prefix_ops=1, units_per_op=1, scale=0.5)
    assert scaled["leastsq.fit_weighted.self_s"] == pytest.approx(m["leastsq.fit_weighted.self_s"] / 2)
    assert scaled["leastsq.iters_per_fit"] == 12


class Counter(workloads.Workload):
    """Fake workload: op k returns k, except that input 1 changes its output once."""

    calls = 0

    def op(self, k):
        self.calls += 1
        return k + 100 * (k == 1 and self.calls > 3)

    def check(self, k, raw):
        return workloads.Outcome(1, ("exit_code",) if k == 2 else (), str(raw))


def test_loop_runs_every_input_and_flags_changed_outputs(tmp_path):
    wl = Counter(seed=0, work=tmp_path, n_inputs=3)
    outcomes = run.Outcomes(3)
    times, probe = run.run_loop(wl, workloads.execute, 3, 0.0, outcomes)
    assert [len(t) for t in times] == [1, 1, 1]
    assert [o.failures for o in outcomes.first] == [(), (), ("exit_code",)]
    assert outcomes.mismatches == 0 and probe.calls >= 3
    run.run_loop(wl, workloads.execute, 3, 0.0, outcomes)
    assert outcomes.mismatches == 1  # input 1 changed; the first outcomes stay


def test_speed_probe_scales_to_the_nominal_machine():
    probe = reference.SpeedProbe()
    probe.after(0.0)
    assert probe.calls == 1
    assert probe.scale == pytest.approx(reference.NOMINAL_S / probe.kernel_s)
    probe.after(1.0)  # about SHARE of a second of kernel calls
    assert probe.calls >= 1 + reference.SHARE * 1.0 / probe.kernel_s - 1


def test_inputs_fill_part_of_the_run():
    assert run.n_inputs(workloads.ReadmeFit, 36) == math.ceil(run.FILL * 36 / workloads.ReadmeFit.OP_S)
    assert run.n_inputs(workloads.CoolingSweep, 1) == workloads.CoolingSweep.TRACE_INPUTS


def test_calibration_op_reads_back_what_it_wrote(tmp_path):
    wl = workloads.CalibrationIO(seed=3, work=tmp_path, n_inputs=1)
    wl.setup()
    _, outcome = workloads.execute(wl, 0)
    assert outcome.failures == ()
    assert len(json.loads((tmp_path / "manifest.json").read_text())) == 16
