"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Reference device: omega_m = 2pi x 10.56 MHz, gamma_m = 2pi x 32 Hz, m = 48 pg,
omega_c = 2pi x 7.54 GHz, kappa = 2pi x 200 kHz, kappa_ex = 2pi x 133 kHz,
G = 2pi x 49 MHz/nm, beta = 1/2, chain added noise n_add' = 2.1.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""
import math

import numpy as np
import pytest

import emcool as em
from emcool.spectra import ModelParams
from emcool.synth import periodogram_factors

from conftest import gamma_total_at, model_params, output_trace
from test_estimation import calibration_trace, cooling_sweep_entries, thermal_quanta_trace, SWEEP_SPECS

TWO_PI = 2.0 * math.pi


def report(number, ok, text):
    print(f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_01_zero_point_motion_and_quality_factor(device):
    x_zp = em.zero_point_motion(device.mech)
    q = em.quality_factor(device.mech)
    ok = abs(x_zp / 4.1e-15 - 1) <= 0.02 and abs(q / 3.3e5 - 1) <= 0.01
    report(1, ok, f"x_zp = {x_zp * 1e15:.3f} fm (4.1 +- 2%), Q_m = {q:.3g} (3.3e5 +- 1%)")


def test_criterion_02_thermal_occupancies(device):
    n15 = em.bose_occupancy(0.015, device.mech.omega_m)
    n20 = em.bose_occupancy(0.020, device.mech.omega_m)
    ok = abs(n15 / 30.0 - 1) <= 0.05 and abs(n20 / 40.0 - 1) <= 0.05
    report(2, ok, f"n(15 mK) = {n15:.2f} (30 +- 5%), n(20 mK) = {n20:.2f} (40 +- 5%)")


def test_criterion_03_single_photon_drive_power(device):
    drive = em.DriveConfig.red_detuned(device, n_d=1.0)
    p = em.drive_power_for_photons(1.0, drive, device.cavity)
    n_back = em.intracavity_photons(p, drive, device.cavity)
    ok = abs(p / 50e-15 - 1) <= 0.10 and abs(n_back - 1.0) <= 1e-9
    report(3, ok, f"P_i(n_d=1) = {p * 1e15:.2f} fW (50 fW +- 10%), inversion exact")


def test_criterion_04_imprecision_asymptote(device):
    cavity = device.cavity
    n_imp = em.imprecision_from_chain(
        math.inf, cavity.kappa, cavity.kappa_ex, device.mech.gamma_m, cavity.beta, 2.1
    )
    ok = abs(n_imp / 1.9 - 1) <= 0.10
    report(4, ok, f"asymptotic n_imp = {n_imp:.3f} (1.9 +- 10%)")


def test_criterion_05_displacement_imprecision(device):
    n_d = 1e5
    g = em.coupling_rate(device.coupling, device.mech, n_d)
    cavity = device.cavity
    n_imp = em.imprecision_from_chain(
        g, cavity.kappa, cavity.kappa_ex, device.mech.gamma_m, cavity.beta, 2.1
    )
    gamma_total = gamma_total_at(device, n_d)
    s_x_imp = 8 * em.zero_point_motion(device.mech) ** 2 * n_imp / gamma_total
    ok = abs(s_x_imp / 5.5e-34 - 1) <= 0.15
    report(5, ok, f"S_x_imp(n_d=1e5) = {s_x_imp:.3g} m^2/Hz (5.5e-34 +- 15%)")


def test_criterion_06_ground_state_cooling(device):
    g = em.coupling_rate(device.coupling, device.mech, 4000.0)
    n_m = em.final_occupancy(em.ThermalState(40.0, 0.0), g, device.cavity.kappa, device.mech.gamma_m)
    ok = n_m < 1.0 and abs(n_m - 0.40) < 0.03
    report(6, ok, f"n_m(n_d=4000, n_m_T=40) = {n_m:.3f} < 1 quantum")


def test_criterion_07_heisenberg_product():
    product = em.heisenberg_product(1.9, 0.36 + 0.5)
    ok = abs(product - 5.1) <= 0.4
    report(7, ok, f"imprecision-backaction product = {product:.2f} hbar (5.1 +- 0.4)")


def test_criterion_08_total_force_noise(device):
    gamma_total = gamma_total_at(device, 3e4)
    s_f = em.total_force_psd(device.mech, gamma_total, 0.36)
    ok = abs(s_f / 1.6e-34 - 1) <= 0.10
    report(8, ok, f"S_F(n_d=3e4, n_m=0.36) = {s_f:.3g} N^2/Hz (1.6e-34 +- 10%)")


def test_criterion_09_storage_time(device):
    tau = em.storage_time(em.ThermalState(n_m_T=40.0), device.mech.gamma_m)
    ok = tau > 100e-6
    report(9, ok, f"thermal storage time = {tau * 1e6:.1f} us (> 100 us)")


def test_criterion_10_property_suite(device):
    checks = []

    # floor bound and far-wing approach
    params = model_params(device, 4000.0, n_m_T=40.0, n_c=0.3)
    floor = em.noise_floor(params)
    kappa = device.cavity.kappa
    delta = np.linspace(-2 * kappa, 2 * kappa, 4001)
    vals = em.output_noise_values(delta, params)
    far = em.output_noise_values(np.array([-1e3 * kappa, 1e3 * kappa]), params)
    checks.append(("floor bound", bool(np.all(vals >= floor) and np.allclose(far, floor, rtol=1e-6))))

    # symmetry at delta_tilde = 0, <= 1e-12 relative
    side = np.linspace(kappa / 1000, 5 * kappa, 4096)
    mirrored = np.concatenate([-side[::-1], [0.0], side])
    sym_vals = em.output_noise_values(mirrored, params)
    asym = np.max(np.abs(sym_vals - sym_vals[::-1]) / sym_vals)
    checks.append(("delta symmetry <= 1e-12", bool(asym <= 1e-12)))

    # weak-coupling equivalence of the final-occupancy formula, <= 1e-3
    gm, om = device.mech.gamma_m, device.mech.omega_m
    eq_ok = True
    for g in (kappa / 100, kappa / 500):
        _, _, net = em.sideband_rates(g, kappa, -om, om)
        weak = 40.0 * gm / (gm + net)
        full = em.final_occupancy(em.ThermalState(40.0, 0.0), g, kappa, gm)
        eq_ok &= abs(full / weak - 1) <= 1e-3
    checks.append(("weak-coupling occupancy <= 1e-3", eq_ok))

    # second order never below first order
    order_ok = True
    for n_mT, n_c in [(40.0, 0.0), (40.0, 0.3), (1.0, 1.0)]:
        thermal = em.ThermalState(n_m_T=n_mT, n_c=n_c)
        for g in np.logspace(1, 6, 30):
            order_ok &= em.final_occupancy_2nd_order(thermal, g, kappa, gm, om) >= em.final_occupancy(
                thermal, g, kappa, gm
            )
    checks.append(("2nd order >= 1st order", order_ok))

    # normal-mode peak separation = 2g within 5% for 2g/kappa in [1.5, 4]
    split_ok = True
    for ratio in (1.5, 2.0, 3.0, 4.0):
        g = ratio * kappa / 2
        p = ModelParams(**{**params.__dict__, "g": g})
        dd = np.linspace(-3 * g - 2 * kappa, 3 * g + 2 * kappa, 200001)
        vv = em.output_noise_values(dd, p)
        sep = dd[int(np.argmax(np.where(dd > 0, vv, -np.inf)))] - dd[
            int(np.argmax(np.where(dd < 0, vv, -np.inf)))
        ]
        split_ok &= abs(sep / (2 * g) - 1) <= 0.05
    checks.append(("peak splitting = 2g +- 5%", split_ok))

    # quanta <-> W/Hz round trip <= 1e-12
    grid = em.sideband_grid(om, 0.0, kappa, points=256)
    trace = em.output_noise_spectrum(grid, params)
    f_ref = device.cavity.omega_c / TWO_PI
    back = em.convert_trace(
        em.convert_trace(trace, em.SpectrumUnit.WATTS_PER_HZ, f_ref), em.SpectrumUnit.QUANTA, f_ref
    )
    checks.append(
        ("unit round trip <= 1e-12", bool(np.max(np.abs(back.values / trace.values - 1)) <= 1e-12))
    )

    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks)
    report(10, ok, detail)


def test_criterion_11_inference_round_trips(device, device_model):
    results = []

    # (a) Lorentzian fit: all four parameters within 3 sigma in >= 95% of 200 runs
    trace0, truth = thermal_quanta_trace(device, points=512)
    clean = trace0.values
    hits = 0
    for seed in range(200):
        vals = clean * periodogram_factors(clean.size, 500, seed)
        trace = em.SpectrumTrace(trace0.freq_hz, vals, em.SpectrumUnit.QUANTA, {"n_avg": 500})
        fit = em.fit_lorentzian(trace)
        if fit.sigmas is not None:
            hits += all(abs(fit.params[k] - truth[k]) <= 3 * fit.sigmas[k] for k in truth)
    coverage = hits / 200
    results.append(("lorentzian 3-sigma coverage", coverage >= 0.95, f"{coverage:.1%}"))

    # (b) full-model fit recovers the injected occupancy within +-0.05
    errors = []
    for seed in (1, 2, 3, 4):
        trace, params = output_trace(device, 2.5e4, n_c=0.25, seed=seed, n_avg=20000)
        fit = em.fit_full_model(trace, device_model)
        n_fit = em.final_occupancy(
            em.ThermalState(max(fit.params["n_m_T"], 0.0), max(fit.params["n_c"], 0.0)),
            fit.params["g"], device.cavity.kappa, device.mech.gamma_m,
        )
        n_true = em.final_occupancy(
            em.ThermalState(40.0, 0.25), params.g, device.cavity.kappa, device.mech.gamma_m
        )
        errors.append(n_fit - n_true)
    for seed in (5, 6, 7, 8):
        trace, params = output_trace(device, 4000.0, n_c=0.0, seed=seed, n_avg=20000)
        fit = em.fit_full_model(trace, device_model)
        n_fit = em.final_occupancy(
            em.ThermalState(max(fit.params["n_m_T"], 0.0), max(fit.params["n_c"], 0.0)),
            fit.params["g"], device.cavity.kappa, device.mech.gamma_m,
        )
        n_true = em.final_occupancy(
            em.ThermalState(40.0, 0.0), params.g, device.cavity.kappa, device.mech.gamma_m
        )
        errors.append(n_fit - n_true)
    worst = max(abs(e) for e in errors)
    results.append(("full-model n_m within +-0.05", worst <= 0.05, f"worst {worst:+.3f}"))

    # (c) coupling calibration recovers G within +-4%
    temps = [0.015 + 0.015 * i for i in range(16)]
    sweep = [(T, calibration_trace(device, T, 3.0, seed=700 + i)) for i, T in enumerate(temps)]
    drive = em.DriveConfig.red_detuned(device, n_d=3.0)
    cal = em.calibrate_coupling(sweep, device, drive)
    g_err = cal.G / device.coupling.G - 1
    results.append(("calibration G within +-4%", abs(g_err) <= 0.04, f"{g_err:+.2%}"))

    # (d) fitted g follows sqrt(n_d): exponent 0.50 +- 0.02 across the sweep
    entries = cooling_sweep_entries(device, SWEEP_SPECS)
    curve = em.analyze_cooling_sweep(entries, device, em.ThermalState(39.0, 0.0))
    lg = np.array([math.log(sp.point.g) for sp in curve.points])
    ln = np.array([math.log(sp.point.n_d) for sp in curve.points])
    w = np.array(
        [
            (sp.point.g / sp.fit.sigmas["g"]) ** 2 if sp.fit.sigmas and "g" in sp.fit.sigmas else 0.0
            for sp in curve.points
        ]
    )
    xm = np.sum(w * ln) / np.sum(w)
    ym = np.sum(w * lg) / np.sum(w)
    slope = np.sum(w * (ln - xm) * (lg - ym)) / np.sum(w * (ln - xm) ** 2)
    results.append(("g vs n_d exponent 0.50 +- 0.02", abs(slope - 0.50) <= 0.02, f"{slope:.4f}"))

    ok = all(flag for _, flag, _ in results)
    detail = ", ".join(f"{name}: {info}{'' if flag else ' FAIL'}" for name, flag, info in results)
    report(11, ok, detail)


def test_criterion_12_linewidth_doubling_band(device):
    # The quoted drive for Gamma = Gamma_m is ~75 photons; the formula with
    # the quoted G, kappa, gamma_m gives ~40.  Documented factor-2 band.
    g0 = device.coupling.g0(device.mech)
    n_star = device.cavity.kappa * device.mech.gamma_m / (4 * g0 * g0)
    ok = 75.0 / 2.0 <= n_star <= 75.0 * 2.0
    report(12, ok, f"linewidth-doubling drive = {n_star:.1f} photons (within [37.5, 150])")
