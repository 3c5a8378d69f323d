import itertools
import json
import math

import numpy as np
import pytest

import emcool as em
from emcool import estimation
from emcool.constants import HBAR
from emcool.errors import DegenerateFitError, ParameterError, PeakDetectionError, UnitError
from emcool.estimation import DEFAULT_FREE, _nnls, lorentzian_model
from emcool.synth import periodogram_factors

from conftest import gamma_total_at, model_params, output_trace

TWO_PI = 2.0 * math.pi


def thermal_quanta_trace(device, n_m=30.0, n_d=4000.0, points=1024, halfspan_widths=12,
                         floor=2.6, n_avg=None, seed=0):
    """Quanta-unit trace: flat floor plus the thermal mechanical Lorentzian."""
    gamma_total = gamma_total_at(device, n_d)
    center = device.mech.omega_m / TWO_PI
    fwhm_hz = gamma_total / TWO_PI
    halfspan = halfspan_widths * fwhm_hz
    freq = np.linspace(center - halfspan, center + halfspan, points)
    area = 2.0 * n_m * fwhm_hz  # arbitrary but realistic scale in quanta*Hz
    vals = lorentzian_model(freq, center, fwhm_hz, area, floor)
    meta = {}
    if n_avg is not None:
        vals = vals * periodogram_factors(points, n_avg, seed)
        meta["n_avg"] = n_avg
    truth = {"center_hz": center, "fwhm_hz": fwhm_hz, "area": area, "floor": floor}
    return em.SpectrumTrace(freq, vals, em.SpectrumUnit.QUANTA, meta), truth


class TestFitLorentzian:
    def test_noiseless_exact_recovery(self, device):
        trace, truth = thermal_quanta_trace(device)
        fit = em.fit_lorentzian(trace)
        assert fit.converged
        for name, value in truth.items():
            assert fit.params[name] == pytest.approx(value, rel=1e-6)

    def test_no_peak_raises(self, device):
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 1e4, center + 1e4, 256)
        flat = em.SpectrumTrace(freq, np.full(256, 2.6), em.SpectrumUnit.QUANTA, {})
        with pytest.raises(PeakDetectionError):
            em.fit_lorentzian(flat)

    def test_split_trace_flagged_by_residual(self, device):
        # normal-mode-split input fit with a single Lorentzian: weighted
        # residual RMS (residual over the per-bin noise) blows past 5
        kappa = device.cavity.kappa
        g = 0.75 * kappa
        params = em.ModelParams(**{**model_params(device, 0.0, n_c=0.3).__dict__, "g": g})
        center = device.mech.omega_m / TWO_PI
        halfspan = (3 * g + 2 * kappa) / TWO_PI
        freq = np.linspace(center - halfspan, center + halfspan, 2048)
        noisy = em.generate_spectrum(params, em.NoiseConfig(n_avg=50000, seed=4), freq_hz=freq)
        good_trace, _ = thermal_quanta_trace(device, n_avg=50000, seed=4)
        good = em.fit_lorentzian(good_trace)
        bad = em.fit_lorentzian(noisy)
        assert good.residual_rms < 2.0
        assert bad.residual_rms > 5.0

    def test_sigma_scale(self, device):
        trace, truth = thermal_quanta_trace(device, n_avg=500, seed=12)
        fit = em.fit_lorentzian(trace)
        assert fit.converged and fit.sigmas is not None
        # center is pinned to a small fraction of the linewidth at this SNR
        assert fit.sigmas["center_hz"] < 0.05 * truth["fwhm_hz"]

    def test_monte_carlo_three_sigma_coverage(self, device):
        trace0, truth = thermal_quanta_trace(device, points=512)
        clean = trace0.values
        hits = 0
        n_runs = 200
        for seed in range(n_runs):
            vals = clean * periodogram_factors(clean.size, 500, seed)
            trace = em.SpectrumTrace(trace0.freq_hz, vals, em.SpectrumUnit.QUANTA, {"n_avg": 500})
            fit = em.fit_lorentzian(trace)
            if fit.converged and fit.sigmas is not None:
                hits += all(
                    abs(fit.params[k] - truth[k]) <= 3 * fit.sigmas[k] for k in truth
                )
        assert hits / n_runs >= 0.95

    def test_one_sigma_calibration(self, device):
        # reported 1-sigma intervals cover truth at the 68% +- 5% level
        trace0, truth = thermal_quanta_trace(device, points=128)
        clean = trace0.values
        names = tuple(truth)
        covered = np.zeros(len(names))
        n_runs = 500
        n_conv = 0
        for seed in range(n_runs):
            vals = clean * periodogram_factors(clean.size, 500, 10_000 + seed)
            trace = em.SpectrumTrace(trace0.freq_hz, vals, em.SpectrumUnit.QUANTA, {"n_avg": 500})
            fit = em.fit_lorentzian(trace)
            if fit.converged and fit.sigmas is not None:
                n_conv += 1
                covered += [
                    abs(fit.params[k] - truth[k]) <= fit.sigmas[k] for k in names
                ]
        assert n_conv >= 0.98 * n_runs
        per_param = covered / n_conv
        assert abs(per_param.mean() - 0.68) < 0.05
        assert np.all(per_param > 0.60) and np.all(per_param < 0.78)

    def test_reproducible_bit_identical(self, device):
        trace, _ = thermal_quanta_trace(device, n_avg=500, seed=3)
        fit1 = em.fit_lorentzian(trace)
        fit2 = em.fit_lorentzian(trace)
        assert fit1.params == fit2.params
        assert fit1.sigmas == fit2.sigmas
        assert fit1.n_iter == fit2.n_iter


class TestFitFullModel:
    def test_validation(self, device, fixed_model):
        trace, _ = output_trace(device, 4000.0, seed=0, points=256)
        with pytest.raises(ParameterError):
            em.fit_full_model(trace, fixed_model, free=("beta",))
        with pytest.raises(ParameterError):
            em.fit_full_model(trace, {}, free=DEFAULT_FREE)  # misses kappa etc.
        both = dict(fixed_model)
        both["g"] = 1.0
        with pytest.raises(ParameterError):
            em.fit_full_model(trace, both, free=DEFAULT_FREE)
        wrong_unit = em.SpectrumTrace(
            trace.freq_hz, trace.values, em.SpectrumUnit.WATTS_PER_HZ, {}
        )
        with pytest.raises(UnitError):
            em.fit_full_model(wrong_unit, fixed_model)

    def test_round_trip_moderate_drive(self, device, fixed_model):
        trace, params = output_trace(device, 4000.0, seed=5, n_avg=20000)
        fit = em.fit_full_model(trace, fixed_model)
        assert fit.converged
        n_m_fit = em.final_occupancy(
            em.ThermalState(n_m_T=fit.params["n_m_T"], n_c=max(fit.params["n_c"], 0.0)),
            fit.params["g"],
            device.cavity.kappa,
            device.mech.gamma_m,
        )
        n_m_true = em.final_occupancy(
            em.ThermalState(40.0, 0.0), params.g, device.cavity.kappa, device.mech.gamma_m
        )
        assert abs(n_m_fit - n_m_true) < 0.05

    def test_null_cavity_occupancy_recovery(self, device, fixed_model):
        trace, _ = output_trace(device, 4000.0, seed=6, n_avg=20000)
        fit = em.fit_full_model(trace, fixed_model)
        sigma_nc = fit.sigmas["n_c"] if fit.sigmas else 0.0
        assert fit.params["n_c"] <= 2 * max(sigma_nc, 0.025)

    def test_strong_coupling_pins_g(self, device, fixed_model):
        # hybridized point with a thermally occupied cavity: the split pins g
        for seed in (1, 2, 3):
            trace, params = output_trace(
                device, 2e5, n_c=0.3, seed=seed, n_avg=20000, halfspan_hz=900e3
            )
            fit = em.fit_full_model(trace, fixed_model)
            assert fit.converged
            assert fit.params["g"] == pytest.approx(params.g, rel=0.02)

    def test_degenerate_zero_effect(self, device, fixed_model):
        # g fixed at zero: n_m_T has no effect on the model at all
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 1e5, center + 1e5, 128)
        params = model_params(device, 0.0, n_c=0.3)
        trace = em.output_noise_spectrum(freq, params)
        fixed = dict(fixed_model)
        fixed["g"] = 0.0
        fixed["n_c"] = 0.3
        fixed["n_add_eff"] = 2.1
        with pytest.raises(DegenerateFitError) as err:
            em.fit_full_model(trace, fixed, free=("n_m_T",), init={"n_m_T": 40.0})
        assert err.value.pair == ("n_m_T", "n_m_T")

    def test_degenerate_collinear_pair(self, device, fixed_model):
        # over a window << kappa (with no mechanical line), the cavity term
        # is flat: n_c and n_add_eff are indistinguishable
        kappa = device.cavity.kappa
        center = device.mech.omega_m / TWO_PI
        halfspan = kappa / TWO_PI / 1e4
        freq = np.linspace(center - halfspan, center + halfspan, 64)
        params = model_params(device, 0.0, n_c=0.3)
        trace = em.output_noise_spectrum(freq, params)
        fixed = dict(fixed_model)
        fixed["g"] = 0.0
        fixed["n_m_T"] = 0.0
        with pytest.raises(DegenerateFitError) as err:
            em.fit_full_model(
                trace, fixed, free=("n_c", "n_add_eff"), init={"n_c": 0.3, "n_add_eff": 2.1}
            )
        assert set(err.value.pair) == {"n_c", "n_add_eff"}

    def test_json_round_trip(self, device, fixed_model):
        trace, _ = output_trace(device, 4000.0, seed=7, points=512)
        fit = em.fit_full_model(trace, fixed_model)
        payload = json.loads(fit.to_json())
        assert payload["converged"] is True
        assert set(payload["params"]) == set(DEFAULT_FREE)

    def test_reproducible_bit_identical(self, device, fixed_model):
        trace, _ = output_trace(device, 4000.0, seed=11, points=512)
        fit1 = em.fit_full_model(trace, fixed_model)
        fit2 = em.fit_full_model(trace, fixed_model)
        assert fit1.params == fit2.params
        assert fit1.sigmas == fit2.sigmas
        assert fit1.n_iter == fit2.n_iter
        assert fit1.step_costs == fit2.step_costs

    def test_at_bound_flag_when_peak_absent(self, device, fixed_model):
        # exactly flat trace, g pinned to a real coupling: the data actively
        # prefers no mechanical noise, so the bath occupancy collapses
        # against zero and gets flagged
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 5e4, center + 5e4, 512)
        trace = em.SpectrumTrace(freq, np.full(512, 2.6), em.SpectrumUnit.QUANTA, {})
        fixed = dict(fixed_model)
        fixed["g"] = em.coupling_rate(device.coupling, device.mech, 4000.0)
        fixed["n_c"] = 0.0
        fit = em.fit_full_model(trace, fixed, free=("n_m_T", "n_add_eff"), init={"n_m_T": 10.0})
        assert fit.converged
        assert "n_m_T" in fit.at_bound
        assert fit.params["n_m_T"] < 1e-7

    def test_at_bound_flags_unidentified_g(self, device, fixed_model):
        # flat trace, default free set: both amplitudes that carry g sit at
        # zero, so g has no effect and ends at an end of its scan
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 5e4, center + 5e4, 512)
        trace = em.SpectrumTrace(freq, np.full(512, 2.6), em.SpectrumUnit.QUANTA, {})
        fit = em.fit_full_model(trace, fixed_model)
        assert fit.params["n_m_T"] == fit.params["n_c"] == 0.0
        assert set(fit.at_bound) == {"n_m_T", "n_c", "g"}

    def test_nnls_matches_support_enumeration(self):
        # normal-equation NNLS against lstsq on the design matrix of each support
        rng = np.random.default_rng(5)
        x = np.linspace(-1.0, 1.0, 200)
        design = np.stack([np.ones_like(x), 1.0 / (1.0 + 4.0 * x * x), np.exp(-50.0 * x * x)], axis=1)
        for _ in range(20):
            truth = rng.normal(size=3)
            data = design @ truth + 0.05 * rng.normal(size=x.size)
            weights = rng.uniform(0.5, 2.0, size=x.size)
            wd = design * weights[:, None]
            amps, cost = _nnls(
                (wd.T @ design)[None], (wd.T @ data)[None], np.array([data @ (weights * data)])
            )
            best = (0.5 * float(data @ (weights * data)), np.zeros(3))
            for mask in itertools.product((False, True), repeat=3):
                cols = np.flatnonzero(mask)
                if not cols.size:
                    continue
                root_w = np.sqrt(weights)
                sol = np.linalg.lstsq(design[:, cols] * root_w[:, None], data * root_w, rcond=None)[0]
                if np.all(sol >= 0.0):
                    resid = (data - design[:, cols] @ sol) * root_w
                    if 0.5 * float(resid @ resid) < best[0]:
                        full = np.zeros(3)
                        full[cols] = sol
                        best = (0.5 * float(resid @ resid), full)
            np.testing.assert_allclose(amps[0], best[1], rtol=1e-8, atol=1e-10)
            assert cost[0] == pytest.approx(best[0], rel=1e-10)


def calibration_trace(device, temperature, n_d, seed, n_avg=5000, points=512, noiseless=False):
    """Detected thermal spectrum in W/Hz at one cryostat temperature."""
    mech, cavity = device.mech, device.cavity
    n_bath = em.bose_occupancy(temperature, mech.omega_m)
    gamma_total = gamma_total_at(device, n_d)
    n_actual = n_bath * mech.gamma_m / gamma_total  # residual drive cooling
    center = mech.omega_m / TWO_PI
    halfspan = 12 * gamma_total / TWO_PI
    freq = np.linspace(center - halfspan, center + halfspan, points)
    s_x = em.thermal_displacement_psd(freq, mech, n_actual, gamma_total)
    drive = em.DriveConfig.red_detuned(device, n_d=n_d)
    p_in = em.drive_power_for_photons(n_d, drive, cavity)
    p_out = em.transmitted_power(p_in, cavity, drive.detuning)
    conv = (device.coupling.G * cavity.kappa_ex / (cavity.kappa * mech.omega_m)) ** 2 * p_out / 2
    floor_w = 2.6 * HBAR * cavity.omega_c
    vals = s_x.values * conv + floor_w
    if not noiseless:
        vals = vals * periodogram_factors(points, n_avg, seed)
    return em.SpectrumTrace(freq, vals, em.SpectrumUnit.WATTS_PER_HZ, {"n_avg": n_avg})


@pytest.fixture(scope="module")
def noisy_sweep(device):
    temps = [0.015 + 0.010 * i for i in range(24)]
    return [(T, calibration_trace(device, T, 3.0, seed=100 + i)) for i, T in enumerate(temps)]


class TestCalibrateCoupling:
    def test_recovers_G(self, device, noisy_sweep):
        drive = em.DriveConfig.red_detuned(device, n_d=3.0)
        result = em.calibrate_coupling(noisy_sweep, device, drive)
        assert result.G == pytest.approx(device.coupling.G, rel=0.04)
        assert result.linearity_r2 > 0.99
        assert not result.warnings

    def test_noiseless_ideal_regression(self, device):
        temps = [0.015, 0.05, 0.1, 0.15, 0.2, 0.25]
        sweep = [(T, calibration_trace(device, T, 3.0, 0, noiseless=True)) for T in temps]
        drive = em.DriveConfig.red_detuned(device, n_d=3.0)
        result = em.calibrate_coupling(sweep, device, drive)
        assert result.linearity_r2 == pytest.approx(1.0, abs=1e-9)
        assert result.G == pytest.approx(device.coupling.G, rel=0.01)
        # intercept is the zero-point offset; in bath-occupancy units it is
        # gamma_total/(2 gamma_m) because the drive cools the thermal part only
        gamma_total = gamma_total_at(device, 3.0)
        expected = gamma_total / (2 * device.mech.gamma_m)
        assert result.intercept_quanta == pytest.approx(expected, rel=0.05)

    def test_corrupted_point_excluded(self, device, noisy_sweep):
        sweep = list(noisy_sweep)
        T0, trace0 = sweep[5]
        sweep[5] = (
            T0,
            em.SpectrumTrace(trace0.freq_hz, trace0.values * 10.0, trace0.unit, dict(trace0.meta)),
        )
        drive = em.DriveConfig.red_detuned(device, n_d=3.0)
        result = em.calibrate_coupling(sweep, device, drive)
        assert sum(p.excluded for p in result.points) == 1
        assert result.points[5].excluded
        assert result.G == pytest.approx(device.coupling.G, rel=0.04)
        assert any("outlier" in w for w in result.warnings)

    def test_too_few_points(self, device, noisy_sweep):
        drive = em.DriveConfig.red_detuned(device, n_d=3.0)
        with pytest.raises(ParameterError):
            em.calibrate_coupling(noisy_sweep[:3], device, drive)

    def test_strong_drive_warns(self, device, noisy_sweep):
        drive = em.DriveConfig.red_detuned(device, n_d=500.0)
        result = em.calibrate_coupling(noisy_sweep[:6], device, drive)
        assert any("not weak" in w for w in result.warnings)

    def test_json(self, device, noisy_sweep):
        drive = em.DriveConfig.red_detuned(device, n_d=3.0)
        result = em.calibrate_coupling(noisy_sweep, device, drive)
        payload = json.loads(result.to_json())
        assert payload["G"] == pytest.approx(result.G)
        assert len(payload["points"]) == 24


def cooling_sweep_entries(device, specs, n_avg=20000):
    """(n_d, trace) pairs; window resolves the line at low power and the
    cavity mode where n_c matters (as the measurement would)."""
    entries = []
    for i, (n_d, n_c) in enumerate(specs):
        gamma_total = gamma_total_at(device, n_d)
        halfspan = max(25 * gamma_total / TWO_PI, 600e3 if n_c > 0 else 0.0)
        halfspan = min(halfspan, 2e6)
        trace, _ = output_trace(
            device, n_d, n_m_T=39.0, n_c=n_c, seed=1000 + i, n_avg=n_avg,
            halfspan_hz=halfspan,
        )
        entries.append((n_d, trace))
    return entries


SWEEP_SPECS = [
    (18, 0.0), (60, 0.0), (200, 0.0), (600, 0.0), (2000, 0.0),
    (6000, 0.02), (2e4, 0.2), (5e4, 0.28), (1e5, 0.3), (2e5, 0.3),
]


@pytest.fixture(scope="module")
def curve(device):
    entries = cooling_sweep_entries(device, SWEEP_SPECS)
    thermal = em.ThermalState(n_m_T=39.0, n_c=0.0)
    return em.analyze_cooling_sweep(entries, device, thermal)


class TestAnalyzeCoolingSweep:
    def test_all_points_converge(self, curve):
        assert len(curve.points) == len(SWEEP_SPECS)
        assert curve.excluded == ()

    def test_minimum_occupancy_recovered(self, device, curve):
        truth = {n_d: n_c for n_d, n_c in SWEEP_SPECS}
        true_min = min(
            em.final_occupancy(
                em.ThermalState(39.0, n_c),
                em.coupling_rate(device.coupling, device.mech, n_d),
                device.cavity.kappa,
                device.mech.gamma_m,
            )
            for n_d, n_c in SWEEP_SPECS
        )
        fitted_min = min(sp.point.n_m for sp in curve.points)
        assert abs(fitted_min - true_min) < 0.05

    def test_per_point_occupancy(self, device, curve):
        truth = {n_d: n_c for n_d, n_c in SWEEP_SPECS}
        for sp in curve.points:
            g_true = em.coupling_rate(device.coupling, device.mech, sp.point.n_d)
            n_true = em.final_occupancy(
                em.ThermalState(39.0, truth[sp.point.n_d]),
                g_true,
                device.cavity.kappa,
                device.mech.gamma_m,
            )
            assert abs(sp.point.n_m - n_true) < max(0.05, 0.02 * n_true)

    def test_sqrt_drive_exponent(self, curve):
        # weighted regression of log g on log n_d: exponent 0.50 +- 0.02
        lg = np.array([math.log(sp.point.g) for sp in curve.points])
        ln = np.array([math.log(sp.point.n_d) for sp in curve.points])
        w = np.array(
            [
                (sp.point.g / sp.fit.sigmas["g"]) ** 2
                if sp.fit.sigmas and "g" in sp.fit.sigmas
                else 0.0
                for sp in curve.points
            ]
        )
        xm = np.sum(w * ln) / np.sum(w)
        ym = np.sum(w * lg) / np.sum(w)
        slope = np.sum(w * (ln - xm) * (lg - ym)) / np.sum(w * (ln - xm) ** 2)
        assert slope == pytest.approx(0.50, abs=0.02)

    def test_g_cross_check_small(self, curve):
        for sp in curve.points:
            assert abs(sp.g_rel_deviation) < 0.05

    def test_imprecision_column(self, device, curve):
        values = [sp.n_imp for sp in curve.points]
        assert all(b <= a for a, b in zip(values, values[1:]))
        asympt = em.imprecision_from_chain(
            math.inf,
            device.cavity.kappa,
            device.cavity.kappa_ex,
            device.mech.gamma_m,
            device.cavity.beta,
            2.1,
        )
        assert values[-1] == pytest.approx(asympt, rel=0.02)

    def test_product_bound(self, curve):
        assert 4.0 < curve.product_bound < 6.0

    def test_csv_format(self, curve):
        lines = curve.csv().strip().splitlines()
        assert lines[0] == "n_d,g_hz,gamma_total_hz,n_m,n_m_sigma,n_c,n_c_sigma,n_imp"
        assert len(lines) == 1 + len(curve.points)
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == curve.points[0].point.n_d

    def test_json_round_trip(self, curve):
        payload = json.loads(curve.to_json())
        assert len(payload["points"]) == len(curve.points)
        assert payload["product_bound"] == pytest.approx(curve.product_bound)

    def test_flat_sweep_stays_at_bath(self, device):
        # radiation pressure negligible: fitted occupancy flat at n_m_T
        # (g is pinned to the calibrated prediction in this regime, so the
        # thermal peak is pure thermometry)
        specs = [(0.05, 0.0), (0.1, 0.0), (0.2, 0.0), (0.4, 0.0)]
        entries = cooling_sweep_entries(device, specs, n_avg=20000)
        thermal = em.ThermalState(n_m_T=39.0, n_c=0.0)
        curve = em.analyze_cooling_sweep(entries, device, thermal)
        assert len(curve.points) == 4
        for sp in curve.points:
            # flat at the bath occupancy within the reported error bars
            assert abs(sp.point.n_m - 39.0) <= max(3 * sp.n_m_sigma, 0.05 * 39.0)
            assert math.isnan(sp.g_rel_deviation)  # g not fitted here

    def test_bad_point_excluded_with_diagnostic(self, device):
        entries = cooling_sweep_entries(device, SWEEP_SPECS[:3])
        bad_freq = entries[1][1].freq_hz
        bad = em.SpectrumTrace(bad_freq, entries[1][1].values, em.SpectrumUnit.WATTS_PER_HZ, {})
        entries[1] = (entries[1][0], bad)
        thermal = em.ThermalState(n_m_T=39.0, n_c=0.0)
        curve = em.analyze_cooling_sweep(entries, device, thermal)
        assert len(curve.points) == 2
        assert len(curve.excluded) == 1
        assert "UnitError" in curve.excluded[0][1]

    def test_strong_drive_default_grid_does_not_raise(self, device):
        # default grid, n_avg=500: the fit once drove g to ~1e-17 and the
        # sigma propagation then raised out of the sweep
        thermal = em.ThermalState.from_temperature(0.020, device.mech)
        params = model_params(device, 1e5, n_m_T=thermal.n_m_T, n_add_eff=em.REFERENCE_N_ADD_EFF)
        trace = em.generate_spectrum(params, em.NoiseConfig(n_avg=500, seed=100000))
        curve = em.analyze_cooling_sweep([(1e5, trace)], device, thermal)
        assert len(curve.points) + len(curve.excluded) == 1

    def test_failure_after_fit_is_excluded(self, device, monkeypatch):
        entries = cooling_sweep_entries(device, SWEEP_SPECS[:2])

        def broken(*args):
            raise ParameterError("imprecision unavailable")

        monkeypatch.setattr(estimation, "imprecision_from_chain", broken)
        curve = em.analyze_cooling_sweep(entries, device, em.ThermalState(39.0, 0.0))
        assert curve.points == ()
        assert [reason for _, reason in curve.excluded] == [
            "ParameterError: imprecision unavailable"
        ] * 2

    def test_point_without_cavity_noise_gets_sigma(self, device):
        # n_d = 100 with n_c = 0 on a 600 kHz window: once a NaN n_m_sigma
        trace, params = output_trace(device, 100.0, n_m_T=39.0, n_c=0.0, seed=2**20)
        curve = em.analyze_cooling_sweep([(100.0, trace)], device, em.ThermalState(39.0, 0.0))
        (sp,) = curve.points
        assert math.isfinite(sp.n_m_sigma) and sp.n_m_sigma > 0.0
        truth = em.final_occupancy(
            em.ThermalState(39.0, 0.0), params.g, device.cavity.kappa, device.mech.gamma_m
        )
        assert abs(sp.point.n_m - truth) <= 5.0 * sp.n_m_sigma

    def test_duplicate_drive_rejected(self, device):
        entries = cooling_sweep_entries(device, [(100, 0.0), (100, 0.0)])
        thermal = em.ThermalState(n_m_T=39.0, n_c=0.0)
        with pytest.raises(ParameterError):
            em.analyze_cooling_sweep(entries, device, thermal)
