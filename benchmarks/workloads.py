"""The three benchmark workloads: inputs from a seed, one operation, its check.

Every workload is a closed loop with one client over `n_inputs` distinct
inputs made from the seed.  `setup()` builds the inputs that exist before
the timed loop, `op(k)` is the timed call into emcool for input k, and
`check(k, raw)` classifies the result against the synthetic truth and
digests the program's output.  Failures are counted
per unit: one unit per operation, except `cooling_sweep`, whose units are
the seven sweep points.  The known defects of the fits count as failures;
no input is chosen to avoid them.

emcool itself is imported by `run.py` (from the checkout's `src/`) before
this module is used, and is called only through module attributes so that
the traced run can wrap the functions at the names their callers bind.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from emcool import cli, constants, device, dynamics, estimation, spectra, synth

TWO_PI = 2.0 * math.pi

FAIL_KINDS = ("exception", "exit_code", "not_converged", "out_of_tolerance", "no_sigma")


@dataclass(frozen=True)
class Outcome:
    """Classification of one operation: a failure kind per failed unit."""

    units: int
    failures: tuple[str, ...]
    digest: str


def _digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _exception_digest(exc: BaseException) -> str:
    return _digest(f"{type(exc).__name__}: {exc}")


def _sub_seed(seed: int, index: int) -> int:
    """Noise seed of input `index` under benchmark seed `seed` (distinct per pair)."""
    return (seed << 20) + index


def _cli(argv: list[str]) -> int:
    """Exit code of `emcool.cli.main`, also when argparse exits through SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _read_output(path: Path) -> tuple[str, dict | None]:
    """Text and payload of a JSON output file; a missing or malformed file reads as None."""
    try:
        text = path.read_text(encoding="utf-8")
        return text, json.loads(text)
    except (OSError, ValueError):
        return "", None


def execute(workload, k: int) -> tuple[float, Outcome]:
    """Run input k, timing only the program's call; never raises for op failures."""
    t0 = time.perf_counter()
    try:
        raw = workload.op(k)
    except Exception as exc:  # a failing operation is counted, the loop goes on
        raw = exc
    latency = time.perf_counter() - t0
    return latency, workload.check(k, raw)


class Workload:
    """Inputs 0 .. n_inputs-1 of one workload under one seed.

    `OP_S` is the time of one operation on the nominal machine, from which
    the runner sizes `n_inputs` to the measured time; `TRACE_INPUTS` is
    the number of inputs a traced run uses.
    """

    name = ""
    OP_S = 1.0
    TRACE_INPUTS = 1

    def __init__(self, seed: int, work: Path, n_inputs: int) -> None:
        self.seed = seed
        self.work = work
        self.n_inputs = n_inputs


# --- readme_fit ---------------------------------------------------------------

def classify_fit(exit_code: int, payload: dict | None, g_true: float) -> str | None:
    """README flow rule: exit code != 0, or a converged fit with g off by > 2x."""
    if exit_code == 3:
        return "not_converged"
    if exit_code != 0:
        return "exit_code"
    g = float(payload.get("params", {}).get("g", math.nan)) if payload is not None else math.nan
    if not 0.5 <= g / g_true <= 2.0:
        return "out_of_tolerance"
    return None


class ReadmeFit(Workload):
    """`emcool simulate` then `emcool fit` at README defaults, in process."""

    name = "readme_fit"
    N_D = (1e3, 4e3, 3e4, 2e5)
    OP_S = 0.13
    TRACE_INPUTS = 16

    def setup(self) -> None:
        self.device = device.reference_device()

    def case(self, i: int) -> tuple[float, int]:
        return self.N_D[i % len(self.N_D)], _sub_seed(self.seed, i)

    def op(self, i: int) -> tuple[int, int | None]:
        n_d, sim_seed = self.case(i)
        out = str(self.work)
        rc_sim = _cli(["simulate", "--n-d", repr(n_d), "--seed", str(sim_seed), "--out", out])
        if rc_sim != 0:
            return rc_sim, None
        return rc_sim, _cli(["fit", str(self.work / "trace.csv"), "--out", out])

    def check(self, i: int, raw) -> Outcome:
        fit_path = self.work / "fit.json"
        try:
            if isinstance(raw, BaseException):
                return Outcome(1, ("exception",), _exception_digest(raw))
            rc_sim, rc_fit = raw
            if rc_fit is None:
                return Outcome(1, ("exit_code",), _digest(f"simulate exit {rc_sim}"))
            text, payload = _read_output(fit_path) if rc_fit in (0, 3) else ("", None)
            n_d, _ = self.case(i)
            g_true = dynamics.coupling_rate(self.device.coupling, self.device.mech, n_d)
            reason = classify_fit(rc_fit, payload, g_true)
            return Outcome(1, (reason,) if reason else (), _digest(text or f"fit exit {rc_fit}"))
        finally:
            # the next op must not read a stale result
            for name in ("trace.csv", "fit.json"):
                (self.work / name).unlink(missing_ok=True)


# --- cooling_sweep -----------------------------------------------------------

def classify_sweep(raw, truths: list[tuple[float, float]]) -> tuple[str, ...]:
    """Per-point rule: excluded, no finite positive n_m_sigma, or |n_m - truth| > 5 sigma.

    `truths` pairs each n_d with the true cooled occupancy; an exception
    fails every point.
    """
    if isinstance(raw, BaseException):
        return ("exception",) * len(truths)
    excluded = dict(raw.excluded)
    points = {sp.point.n_d: sp for sp in raw.points}
    failures = []
    for n_d, truth in truths:
        sp = points.get(n_d)
        if n_d in excluded:
            reason = excluded[n_d]
            failures.append("not_converged" if reason.startswith("fit did not converge") else "exception")
        elif sp is None:
            failures.append("not_converged")
        elif not (math.isfinite(sp.n_m_sigma) and sp.n_m_sigma > 0.0):
            failures.append("no_sigma")
        elif not abs(sp.point.n_m - truth) <= 5.0 * sp.n_m_sigma:
            failures.append("out_of_tolerance")
    return tuple(failures)


class CoolingSweep(Workload):
    """`analyze_cooling_sweep` over the 7-point n_d = 1e2..1e6 sweep.

    Traces are generated in set-up: one seed set of seven 4096-bin traces
    with a 600 kHz half-span and n_avg = 20000 per input; op k analyses set
    k.  The program keeps no state between calls.
    """

    name = "cooling_sweep"
    N_D = tuple(10.0 ** (2.0 + 4.0 * k / 6.0) for k in range(7))
    N_M_T = 39.0
    N_ADD_EFF = 2.1
    OP_S = 1.1
    TRACE_INPUTS = 3

    def setup(self) -> None:
        dev = device.reference_device()
        self.device = dev
        self.thermal = dynamics.ThermalState(n_m_T=self.N_M_T, n_c=0.0)
        grid = spectra.sideband_grid(
            dev.mech.omega_m, 0.0, dev.cavity.kappa, points=4096, halfspan_hz=600e3
        )
        self.sets = []
        for s in range(self.n_inputs):
            entries = []
            for k, n_d in enumerate(self.N_D):
                g = dynamics.coupling_rate(dev.coupling, dev.mech, n_d)
                params = spectra.ModelParams.for_device(
                    dev, g=g, n_m_T=self.N_M_T, n_c=0.0, n_add_eff=self.N_ADD_EFF
                )
                noise = synth.NoiseConfig(n_avg=20000, seed=_sub_seed(self.seed, s * len(self.N_D) + k))
                entries.append((n_d, synth.generate_spectrum(params, noise, freq_hz=grid)))
            self.sets.append(entries)
        self.truths = [
            (n_d, dynamics.final_occupancy(
                self.thermal,
                dynamics.coupling_rate(dev.coupling, dev.mech, n_d),
                dev.cavity.kappa,
                dev.mech.gamma_m,
            ))
            for n_d in self.N_D
        ]

    def op(self, i: int):
        return estimation.analyze_cooling_sweep(self.sets[i], self.device, self.thermal)

    def check(self, i: int, raw) -> Outcome:
        failures = classify_sweep(raw, self.truths)
        digest = _exception_digest(raw) if isinstance(raw, BaseException) else _digest(raw.to_json())
        return Outcome(len(self.truths), failures, digest)


# --- calibration_io ----------------------------------------------------------

def classify_calibration(exit_code: int, payload: dict | None, G_true: float) -> str | None:
    """Calibration rule: exit code != 0, or |G/G_true - 1| > 4%."""
    if exit_code != 0:
        return "exit_code"
    G = float(payload.get("G", math.nan)) if payload is not None else math.nan
    if not abs(G / G_true - 1.0) <= 0.04:
        return "out_of_tolerance"
    return None


class CalibrationIO(Workload):
    """Synthesize, write and calibrate a 16-temperature thermal sweep.

    Each trace is the detected W/Hz spectrum of the thermally driven mode
    (8192 bins, n_avg = 5000, weak calibration drive n_d = 3), built like
    the calibration traces of the test suite; `emcool calibrate` reads the
    traces back through a manifest and regresses G.
    """

    name = "calibration_io"
    TEMPS = tuple(0.015 + 0.010 * k for k in range(16))
    POINTS = 8192
    N_AVG = 5000
    N_D = 3.0
    OP_S = 0.67
    TRACE_INPUTS = 6

    def setup(self) -> None:
        dev = device.reference_device()
        mech, cavity = dev.mech, dev.cavity
        self.device = dev
        g = dynamics.coupling_rate(dev.coupling, mech, self.N_D)
        _, _, gamma_opt = dynamics.sideband_rates(g, cavity.kappa, -mech.omega_m, mech.omega_m)
        self.gamma_total = dynamics.total_linewidth(mech.gamma_m, gamma_opt)
        drive = dynamics.DriveConfig.red_detuned(dev, n_d=self.N_D)
        p_out = dynamics.transmitted_power(
            dynamics.drive_power_for_photons(self.N_D, drive, cavity), cavity, drive.detuning
        )
        self.conv = (dev.coupling.G * cavity.kappa_ex / (cavity.kappa * mech.omega_m)) ** 2 * p_out / 2
        self.floor_w = 2.6 * constants.HBAR * cavity.omega_c
        center = mech.omega_m / TWO_PI
        halfspan = 12.0 * self.gamma_total / TWO_PI
        self.freq = np.linspace(center - halfspan, center + halfspan, self.POINTS)

    def trace(self, temperature: float, noise_seed: int) -> spectra.SpectrumTrace:
        mech = self.device.mech
        n_actual = device.bose_occupancy(temperature, mech.omega_m) * mech.gamma_m / self.gamma_total
        s_x = spectra.thermal_displacement_psd(self.freq, mech, n_actual, self.gamma_total)
        vals = (s_x.values * self.conv + self.floor_w) * synth.periodogram_factors(
            self.POINTS, self.N_AVG, noise_seed
        )
        return spectra.SpectrumTrace(self.freq, vals, spectra.SpectrumUnit.WATTS_PER_HZ, {"n_avg": self.N_AVG})

    def op(self, i: int) -> int:
        manifest = []
        for k, temperature in enumerate(self.TEMPS):
            name = f"t{k:02d}.csv"
            trace = self.trace(temperature, _sub_seed(self.seed, i * len(self.TEMPS) + k))
            spectra.write_trace(trace, self.work / name)
            manifest.append({"label": f"T{k:02d}", "T": temperature, "trace_path": name})
        manifest_path = self.work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        return _cli(["calibrate", str(manifest_path), "--out", str(self.work)])

    def check(self, i: int, raw) -> Outcome:
        out_path = self.work / "calibration.json"
        try:
            if isinstance(raw, BaseException):
                return Outcome(1, ("exception",), _exception_digest(raw))
            text, payload = _read_output(out_path) if raw == 0 else ("", None)
            reason = classify_calibration(raw, payload, self.device.coupling.G)
            return Outcome(1, (reason,) if reason else (), _digest(text or f"calibrate exit {raw}"))
        finally:
            out_path.unlink(missing_ok=True)


WORKLOADS = {cls.name: cls for cls in (ReadmeFit, CoolingSweep, CalibrationIO)}
