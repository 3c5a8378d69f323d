import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import emcool as em
from emcool import estimation, spectra
from emcool.constants import HBAR
from emcool.errors import DegenerateFitError, ParameterError, PeakDetectionError, UnitError
from emcool.estimation import _GAIN_TOL, DEFAULT_FREE, _nnls, _Pass, _profile_g, lorentzian_model
from emcool.spectra import _basis_factors, grid_for, output_noise_basis
from emcool.synth import periodogram_factors

from conftest import gamma_total_at, model_params, output_trace

TWO_PI = 2.0 * math.pi


def profile_case_trace(device, case):
    """The README trace (`emcool simulate --n-d 4000 --seed 0`, in process)
    or one cooling-sweep point on a 600 kHz half-span."""
    if case == "readme":
        thermal = em.ThermalState.from_temperature(0.020, device.mech)
        g = em.coupling_rate(device.coupling, device.mech, 4000.0)
        params = em.ModelParams.for_device(device, g=g, n_m_T=thermal.n_m_T, n_add_eff=em.REFERENCE_N_ADD_EFF)
        return em.generate_spectrum(params, em.NoiseConfig(n_avg=500, seed=0), freq_hz=grid_for(params))
    return output_trace(device, 1e4, n_m_T=39.0, seed=0)[0]


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
        assert fit.sigmas is not None
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
            if fit.sigmas is not None:
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
            if fit.sigmas is not None:
                n_conv += 1
                covered += [
                    abs(fit.params[k] - truth[k]) <= fit.sigmas[k] for k in names
                ]
        assert n_conv >= 0.98 * n_runs
        per_param = covered / n_conv
        assert abs(per_param.mean() - 0.68) < 0.05
        assert np.all(per_param > 0.60) and np.all(per_param < 0.78)

    @pytest.mark.parametrize("halfspan_widths", [12, 1.5])
    def test_noiseless_line_exact_in_both_fits(self, device, halfspan_widths):
        # floor and area are solved exactly and the shape converges to
        # rounding, also on a window that cuts most of the tails; peak_area
        # reports the same line as fit_lorentzian
        trace, truth = thermal_quanta_trace(device, halfspan_widths=halfspan_widths)
        fit = em.fit_lorentzian(trace)
        peak = estimation.peak_area(trace)
        assert (peak.center_hz, peak.fwhm_hz, peak.area, peak.floor) == tuple(fit.params[name] for name in truth)
        for name, value in truth.items():
            assert fit.params[name] == pytest.approx(value, rel=1e-9)

    def test_detection(self, device):
        # a flat trace and noise-only traces hold no line; a noiseless line
        # without n_avg is judged by its own scatter, which is rounding
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 1e4, center + 1e4, 1024)
        peakless = [np.full(1024, 2.6)] + [2.6 * periodogram_factors(1024, 500, seed) for seed in range(20)]
        for vals in peakless:
            with pytest.raises(PeakDetectionError):
                estimation.peak_area(em.SpectrumTrace(freq, vals, em.SpectrumUnit.QUANTA, {"n_avg": 500}))
        trace, truth = thermal_quanta_trace(device)
        assert "n_avg" not in trace.meta
        assert estimation.peak_area(trace).area == pytest.approx(truth["area"], rel=1e-9)

    def test_reproducible_bit_identical(self, device):
        trace, _ = thermal_quanta_trace(device, n_avg=500, seed=3)
        fit1 = em.fit_lorentzian(trace)
        fit2 = em.fit_lorentzian(trace)
        assert fit1.params == fit2.params
        assert fit1.sigmas == fit2.sigmas
        assert fit1.n_iter == fit2.n_iter


class TestFitFullModel:
    def test_validation(self, device, device_model):
        trace, _ = output_trace(device, 4000.0, seed=0, points=256)
        with pytest.raises(ParameterError):
            em.fit_full_model(trace, device_model, free=("beta",))
        wrong_unit = em.SpectrumTrace(
            trace.freq_hz, trace.values, em.SpectrumUnit.WATTS_PER_HZ, {}
        )
        with pytest.raises(UnitError):
            em.fit_full_model(wrong_unit, device_model)

    @pytest.mark.parametrize("n_avg", ["many", 0.5, math.nan])
    def test_n_avg_read_from_the_trace_and_checked(self, device, device_model, n_avg):
        trace, _ = thermal_quanta_trace(device)
        bad = trace.with_meta(n_avg=n_avg)
        with pytest.raises(ParameterError, match="n_avg"):
            em.fit_full_model(bad, device_model)
        with pytest.raises(ParameterError, match="n_avg"):
            em.fit_lorentzian(bad)

    def test_round_trip_moderate_drive(self, device, device_model):
        trace, params = output_trace(device, 4000.0, seed=5, n_avg=20000)
        fit = em.fit_full_model(trace, device_model)
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

    def test_null_cavity_occupancy_recovery(self, device, device_model):
        trace, _ = output_trace(device, 4000.0, seed=6, n_avg=20000)
        fit = em.fit_full_model(trace, device_model)
        sigma_nc = fit.sigmas["n_c"] if fit.sigmas else 0.0
        assert fit.params["n_c"] <= 2 * max(sigma_nc, 0.025)

    def test_strong_coupling_pins_g(self, device, device_model):
        # hybridized point with a thermally occupied cavity: the split pins g
        for seed in (1, 2, 3):
            trace, params = output_trace(
                device, 2e5, n_c=0.3, seed=seed, n_avg=20000, halfspan_hz=900e3
            )
            fit = em.fit_full_model(trace, device_model)
            assert fit.params["g"] == pytest.approx(params.g, rel=0.02)

    def test_degenerate_zero_effect(self, device, device_model):
        # g fixed at zero: n_m_T has no effect on the model at all
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 1e5, center + 1e5, 128)
        params = model_params(device, 0.0, n_c=0.3)
        trace = em.output_noise_spectrum(freq, params)
        pinned = replace(device_model, g=0.0, n_c=0.3, n_add_eff=2.1)
        with pytest.raises(DegenerateFitError) as err:
            em.fit_full_model(trace, pinned, free=("n_m_T",))
        assert err.value.pair == ("n_m_T", "n_m_T")

    def test_degenerate_collinear_pair(self, device, device_model):
        # over a window << kappa (with no mechanical line), the cavity term
        # is flat: n_c and n_add_eff are indistinguishable
        kappa = device.cavity.kappa
        center = device.mech.omega_m / TWO_PI
        halfspan = kappa / TWO_PI / 1e4
        freq = np.linspace(center - halfspan, center + halfspan, 64)
        params = model_params(device, 0.0, n_c=0.3)
        trace = em.output_noise_spectrum(freq, params)
        pinned = replace(device_model, g=0.0, n_m_T=0.0)
        with pytest.raises(DegenerateFitError) as err:
            em.fit_full_model(trace, pinned, free=("n_c", "n_add_eff"))
        assert set(err.value.pair) == {"n_c", "n_add_eff"}

    def test_degeneracy_and_covariance_read_jtj(self):
        # both checks read J^T J: a zero column and a scaled duplicate are
        # rejected by name, and a singular J^T J gives no covariance
        names = ("n_add_eff", "n_c", "n_m_T")
        jac = np.random.default_rng(3).normal(size=(50, 3))
        estimation._check_degenerate(jac.T @ jac, names)
        cov, sigmas = estimation._covariance(jac.T @ jac)
        np.testing.assert_allclose(cov, np.linalg.inv(jac.T @ jac), rtol=1e-12)
        np.testing.assert_array_equal(sigmas, np.sqrt(np.diag(cov)))
        zero = jac.copy()
        zero[:, 1] = 0.0
        with pytest.raises(DegenerateFitError, match="no measurable effect") as err:
            estimation._check_degenerate(zero.T @ zero, names)
        assert err.value.pair == ("n_c", "n_c")
        assert estimation._covariance(zero.T @ zero) == (None, None)
        duplicate = jac.copy()
        duplicate[:, 2] = -3.0 * duplicate[:, 0]
        with pytest.raises(DegenerateFitError) as err:
            estimation._check_degenerate(duplicate.T @ duplicate, names)
        assert err.value.pair == ("n_add_eff", "n_m_T")

    def test_json_round_trip(self, device, device_model):
        trace, _ = output_trace(device, 4000.0, seed=7, points=512)
        fit = em.fit_full_model(trace, device_model)
        payload = json.loads(fit.to_json())
        assert set(payload) == {"params", "sigmas", "residual_rms", "n_iter", "at_bound", "message"}
        assert set(payload["params"]) == set(DEFAULT_FREE)

    def test_reproducible_bit_identical(self, device, device_model):
        trace, _ = output_trace(device, 4000.0, seed=11, points=512)
        fit1 = em.fit_full_model(trace, device_model)
        fit2 = em.fit_full_model(trace, device_model)
        assert fit1.params == fit2.params
        assert fit1.sigmas == fit2.sigmas
        assert fit1.n_iter == fit2.n_iter
        assert fit1.step_costs == fit2.step_costs

    def test_at_bound_flag_when_peak_absent(self, device, device_model):
        # exactly flat trace, g pinned to a real coupling: the data actively
        # prefers no mechanical noise, so the bath occupancy collapses
        # against zero and gets flagged
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 5e4, center + 5e4, 512)
        trace = em.SpectrumTrace(freq, np.full(512, 2.6), em.SpectrumUnit.QUANTA, {})
        pinned = replace(device_model, g=em.coupling_rate(device.coupling, device.mech, 4000.0), n_c=0.0)
        fit = em.fit_full_model(trace, pinned, free=("n_m_T", "n_add_eff"))
        assert "n_m_T" in fit.at_bound
        assert fit.params["n_m_T"] < 1e-7

    def test_at_bound_flags_unidentified_g(self, device, device_model):
        # flat trace, default free set: both amplitudes that carry g sit at
        # zero, so g has no effect and ends at an end of its scan
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 5e4, center + 5e4, 512)
        trace = em.SpectrumTrace(freq, np.full(512, 2.6), em.SpectrumUnit.QUANTA, {})
        fit = em.fit_full_model(trace, device_model)
        assert fit.params["n_m_T"] == fit.params["n_c"] == 0.0
        assert set(fit.at_bound) == {"n_m_T", "n_c", "g"}

    @pytest.mark.parametrize("points,halfspan_hz", [(512, 5e4), (1024, 2e5), (4096, 2e6)])
    def test_unidentified_g_has_no_sigmas(self, device, device_model, points, halfspan_hz):
        # flat trace, default free set: with n_c = n_m_T = 0 the column of g
        # is exactly zero, so J^T J is singular and no sigma is reported
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - halfspan_hz, center + halfspan_hz, points)
        trace = em.SpectrumTrace(freq, np.full(points, 2.6), em.SpectrumUnit.QUANTA, {})
        fit = em.fit_full_model(trace, device_model)
        assert fit.sigmas is None and fit.covariance is None
        assert "g" in fit.at_bound
        assert json.loads(fit.to_json())["sigmas"] is None

    def test_g_flagged_when_its_amplitudes_are_zero(self, device, device_model, monkeypatch):
        # wherever inside its scan a flat trace leaves g, it carries no signal
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 5e4, center + 5e4, 512)
        trace = em.SpectrumTrace(freq, np.full(512, 2.6), em.SpectrumUnit.QUANTA, {})
        monkeypatch.setattr(estimation, "_profile_g", lambda cost, scan, step_costs, start: (np.median(scan), 0.0, 0, 0))
        fit = em.fit_full_model(trace, device_model)
        assert fit.params["n_m_T"] == fit.params["n_c"] == 0.0
        assert "g" in fit.at_bound
        fit = em.fit_full_model(trace, replace(device_model, n_c=0.1), free=("n_m_T", "g", "n_add_eff"))
        assert "g" not in fit.at_bound  # a pinned n_c > 0 carries g

    @pytest.mark.parametrize("case", ["readme", "sweep"])
    def test_profile_node_count(self, device, device_model, monkeypatch, case):
        # exact counts of the couplings the g profile costs per fit and of its
        # cost calls, reported in the message
        trace = profile_case_trace(device, case)
        sizes = []
        cost = estimation._Pass.cost
        monkeypatch.setattr(estimation._Pass, "cost", lambda normal, g: sizes.append(g.size) or cost(normal, g))
        fit = em.fit_full_model(trace, device_model)
        assert f", {sum(sizes)} profile nodes in {len(sizes)} calls" in fit.message
        assert (sum(sizes), len(sizes)) == {"readme": (92, 6), "sweep": (89, 5)}[case]

    @pytest.mark.parametrize("case", ["readme", "sweep"])
    def test_fitted_g_within_gain_tol_of_a_dense_grid(self, device, device_model, monkeypatch, case):
        # the last pass's profile ends within _GAIN_TOL, in cost units, of
        # the least cost on 2001 nodes spanning +-0.01 in ln g about its g
        profiles = []
        profile_g = estimation._profile_g

        def recording(cost, scan, step_costs, start):
            result = profile_g(cost, scan, step_costs, start)
            dense = cost(np.linspace(result[0] - 0.01, result[0] + 0.01, 2001))  # before the pass is gone
            profiles.append((result, float(np.min(dense))))
            return result

        monkeypatch.setattr(estimation, "_profile_g", recording)
        fit = em.fit_full_model(profile_case_trace(device, case), device_model)
        (log_g, f, _, _), least = profiles[-1]
        assert fit.params["g"] == math.exp(log_g) and "g" not in fit.at_bound
        assert least <= f <= least + _GAIN_TOL

    @pytest.mark.parametrize("case", ["readme", "sweep"])
    def test_model_and_amplitude_columns_match_the_spectrum(self, device, device_model, monkeypatch, case):
        # the last IRLS model, built from the pass's row s, is the spectrum
        # at the fitted values, and J's amplitude columns, which come from
        # the same row, are the basis (compared through J^T J)
        trace = profile_case_trace(device, case)
        models, grams = [], []
        sigma_from_model, covariance = estimation._sigma_from_model, estimation._covariance
        monkeypatch.setattr(
            estimation, "_sigma_from_model", lambda model, n_avg: models.append(model) or sigma_from_model(model, n_avg)
        )
        monkeypatch.setattr(estimation, "_covariance", lambda jtj: grams.append(jtj) or covariance(jtj))
        fit = em.fit_full_model(trace, device_model)
        params = replace(device_model, **fit.params)
        delta = TWO_PI * trace.freq_hz - params.omega_m
        np.testing.assert_allclose(models[-1], em.output_noise_values(delta, params), rtol=1e-13, atol=0.0)
        cav, mech = output_noise_basis(delta, *(getattr(params, name) for name in estimation._BASIS_ARGS))
        jac = np.column_stack([np.ones_like(delta), cav, mech]) / sigma_from_model(models[-1], trace.n_avg)[:, None]
        amps = [DEFAULT_FREE.index(name) for name in ("n_add_eff", "n_c", "n_m_T")]
        np.testing.assert_allclose(grams[-1][np.ix_(amps, amps)], jac.T @ jac, rtol=1e-13, atol=0.0)

    def test_one_basis_evaluation_per_fit(self, device, device_model, monkeypatch):
        # a default-free-set fit forms the shape's factors once and every
        # row s from them: no call evaluates the model or its basis anew
        trace = profile_case_trace(device, "readme")
        calls = []
        for module in (spectra, estimation):
            for name in ("_basis_factors", "output_noise_values", "output_noise_basis"):
                original = getattr(module, name, None)
                if original is not None:
                    wrapper = lambda *args, name=name, original=original: calls.append(name) or original(*args)
                    monkeypatch.setattr(module, name, wrapper)
        em.fit_full_model(trace, device_model)
        assert calls == ["_basis_factors"]

    def test_later_pass_follows_a_moving_optimum(self, device, device_model, monkeypatch):
        # a cooling-sweep point at n_d = 100 whose second IRLS pass finds g
        # 0.78 in ln g, five scan spacings, from the first pass's: a local
        # grid one spacing either side stopped on its end with the cost still
        # falling; the warm start steps outward until the minimum is bracketed
        trace, _ = output_trace(device, 100.0, n_m_T=39.0, seed=(1 << 20) + 98)
        passes = []
        profile_g = estimation._profile_g

        def recording(cost, scan, step_costs, start):
            costed = {}

            def recorded(x):
                f = cost(x)
                costed.update(zip(x.tolist(), f.tolist()))
                return f

            result = profile_g(recorded, scan, step_costs, start)
            x = sorted(costed)
            i = x.index(result[0])  # the pass's cost is gone once the fit returns
            dense = min(cost(np.linspace(x[i - 1], x[i + 1], 2001))) if 0 < i < len(x) - 1 else None
            passes.append((start, result[0], sorted(costed.items()), scan, dense))
            return result

        monkeypatch.setattr(estimation, "_profile_g", recording)
        fit = em.fit_full_model(trace, device_model)
        assert len(passes) >= 2
        start, log_g, costed, scan, _ = passes[1]
        assert abs(log_g - start) > 5.0 * (scan[1] - scan[0])
        for start, log_g, costed, scan, dense in passes[1:]:
            x = [node for node, _ in costed]
            i = int(np.argmin(np.abs(np.array(x) - log_g)))
            if 0 < i < len(x) - 1:  # strictly inside a bracket, within _GAIN_TOL of its minimum
                assert costed[i - 1][1] >= costed[i][1] <= costed[i + 1][1]
                assert costed[i][1] - dense <= _GAIN_TOL
            else:  # or on a scan end, where g is flagged
                assert log_g in (scan[0], scan[-1]) and "g" in fit.at_bound

    def test_freed_kappa_on_its_limit_is_flagged(self, device, device_model):
        # on this seed the freed kappa's profile falls all the way to its
        # scan's lower end, kappa = kappa_ex
        trace, _ = output_trace(device, 4000.0, seed=3, n_avg=20000, points=2048)
        fit = em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("kappa",))
        assert fit.params["kappa"] <= device.cavity.kappa_ex * (1.0 + 1e-9)
        assert "kappa" in fit.at_bound

    def test_free_values_in_params_are_not_read(self, device, device_model):
        # under the default free set only the pinned values of params count:
        # the amplitudes are solved and g is profiled on its fixed scan
        trace, truth = output_trace(device, 4000.0, seed=5, points=1024)
        other = replace(truth, g=3.0 * truth.g, n_m_T=7.0, n_c=0.4, n_add_eff=9.0)
        first, *rest = (em.fit_full_model(trace, p) for p in (device_model, truth, other))
        for fit in rest:
            assert fit.to_json() == first.to_json()
            assert fit.step_costs == first.step_costs
            assert fit.covariance.tobytes() == first.covariance.tobytes()

    def test_freed_gamma_m_starts_from_params(self, device, device_model, monkeypatch):
        # every IRLS pass scans ln gamma_m three decades either side of the
        # start in params, not of the pass before
        trace, _ = output_trace(device, 4000.0, seed=5, points=1024)
        scans = []  # per fit, the outer scan of each pass
        fit_weighted = estimation.fit_weighted

        def recording(pass_at, scan, g_scan, g, step_costs):
            scans[-1].append(scan)
            return fit_weighted(pass_at, scan, g_scan, g, step_costs)

        monkeypatch.setattr(estimation, "fit_weighted", recording)
        for gamma_m in (device.mech.gamma_m, 1.5 * device.mech.gamma_m):
            scans.append([])
            fit = em.fit_full_model(trace, replace(device_model, gamma_m=gamma_m), free=DEFAULT_FREE + ("gamma_m",))
            assert "gamma_m profile: " in fit.message and scans[-1]
            for scan in scans[-1]:
                assert math.exp(0.5 * (scan[0] + scan[-1])) == pytest.approx(gamma_m, rel=1e-12)
                assert scan[-1] - scan[0] == pytest.approx(6.0 * math.log(10.0), rel=1e-12)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_freed_kappa_runaway_is_not_reported_clean(self, device, device_model, seed):
        # a 1.2 MHz window narrower than kappa does not identify kappa; on
        # these seeds a second reweighting loop once ran kappa to 190-250x
        # truth and reported convergence with nothing flagged
        trace, _ = output_trace(device, 4000.0, seed=seed, n_avg=20000, points=2048)
        try:
            fit = em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("kappa",))
        except DegenerateFitError:
            return
        assert fit.at_bound

    def test_collapsed_gamma_m_is_flagged(self, device, device_model):
        # on this seed the freed gamma_m once ran to zero, n_m_T to infinity;
        # its profile now falls to the low end of its scan, which flags it
        trace, _ = output_trace(device, 4000.0, seed=1, n_avg=20000, points=2048)
        fit = em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("gamma_m",))
        assert "gamma_m" in fit.at_bound

    def test_nnls_matches_support_enumeration(self):
        # normal-equation NNLS against lstsq on the design matrix of each
        # support, with k = 1, 2 and 3 free amplitudes: the first k columns,
        # whose Cramer matrices `_nnls` pads to 3 x 3 with identity
        rng = np.random.default_rng(5)
        x = np.linspace(-1.0, 1.0, 200)
        design3 = np.stack([np.ones_like(x), 1.0 / (1.0 + 4.0 * x * x), np.exp(-50.0 * x * x)], axis=1)
        for k in (3, 2, 1):
            design = design3[:, :k]
            for _ in range(20):
                truth = rng.normal(size=k)
                data = design @ truth + 0.05 * rng.normal(size=x.size)
                weights = rng.uniform(0.5, 2.0, size=x.size)
                columns = np.column_stack([design, data])
                amps, cost = _nnls(((columns.T * weights) @ columns)[None])
                best = (0.5 * float(data @ (weights * data)), np.zeros(k))
                for mask in itertools.product((False, True), repeat=k):
                    cols = np.flatnonzero(mask)
                    if not cols.size:
                        continue
                    root_w = np.sqrt(weights)
                    sol = np.linalg.lstsq(design[:, cols] * root_w[:, None], data * root_w, rcond=None)[0]
                    if np.all(sol >= 0.0):
                        resid = (data - design[:, cols] @ sol) * root_w
                        if 0.5 * float(resid @ resid) < best[0]:
                            full = np.zeros(k)
                            full[cols] = sol
                            best = (0.5 * float(resid @ resid), full)
                np.testing.assert_allclose(amps[0], best[1], rtol=1e-8, atol=1e-10)
                assert cost[0] == pytest.approx(best[0], rel=1e-10)



class TestSeparableNormalEquations:
    def test_gram_matches_explicit_basis(self, device):
        # per-shape and per-pass columns with two products per block of
        # couplings against the weighted Gram of 1, A, B, d built directly
        # from output_noise_basis, including 4 g^2 >> kappa gamma_m
        rng = np.random.default_rng(7)
        kappa0, gm0 = device.cavity.kappa, device.mech.gamma_m
        delta = np.linspace(-3.0 * kappa0, 3.0 * kappa0, 1024)
        for _ in range(10):
            vals = {"kappa": kappa0 * rng.uniform(0.3, 3.0), "gamma_m": gm0 * rng.uniform(0.3, 30.0),
                    "delta_tilde": kappa0 * rng.uniform(-1.0, 1.0), "beta": rng.uniform(0.2, 1.0)}
            vals["kappa_ex"] = vals["kappa"] * rng.uniform(0.1, 0.9)
            w = rng.uniform(0.1, 10.0, delta.size)
            data = rng.uniform(0.5, 50.0, delta.size)
            lo = 0.5 * math.sqrt(1e-3 * vals["kappa"] * vals["gamma_m"])
            g = np.exp(rng.uniform(math.log(lo), math.log(10.0 * vals["kappa"]), 7))
            g = np.append(g, 10.0 * vals["kappa"])  # 4 g^2 = 400 kappa^2
            args = [vals[name] for name in estimation._BASIS_ARGS[1:]]
            gram = _Pass(_basis_factors(delta, *args), w, data, estimation._fold(np.eye(4))).gram(g)
            cav, mech = output_noise_basis(delta, g[:, None], *args)
            design = np.stack(np.broadcast_arrays(1.0, cav, mech, data), axis=-1)
            explicit = np.einsum("mni,n,mnj->mij", design, w, design)
            np.testing.assert_allclose(gram, explicit, rtol=1e-10, atol=0.0)

    def test_cost_solves_the_blocks_at_once(self, device, device_model, monkeypatch):
        # the coarse scan's normal equations, built in blocks of _SCAN_BLOCK
        # couplings, go to one NNLS, whose costs equal those of the blocks
        # solved one by one
        trace, _ = output_trace(device, 1e4, n_m_T=39.0, seed=0)
        kappa, gamma_m = device_model.kappa, device_model.gamma_m
        delta = TWO_PI * trace.freq_hz - device_model.omega_m
        args = [getattr(device_model, name) for name in estimation._BASIS_ARGS[1:]]
        w = trace.values**-2.0 * trace.n_avg
        normal = _Pass(_basis_factors(delta, *args), w, trace.values, estimation._fold(np.eye(4)))
        g = np.exp(estimation._log_scan(0.5 * math.sqrt(1e-3 * kappa * gamma_m), 10.0 * kappa))
        assert g.size > 4 * estimation._SCAN_BLOCK
        blocks = [_nnls(normal.gram(g[i : i + estimation._SCAN_BLOCK]))[1] for i in range(0, g.size, estimation._SCAN_BLOCK)]
        rows = []
        nnls = estimation._nnls
        monkeypatch.setattr(estimation, "_nnls", lambda normal: rows.append(normal.shape[0]) or nnls(normal))
        assert np.array_equal(normal.cost(g), np.concatenate(blocks))
        assert rows == [g.size]


# 16 nodes per decade over three decades, like the fit's scan of g
PROFILE_GRID = np.log(np.logspace(0.0, 3.0, 49))
SPACING = PROFILE_GRID[1] - PROFILE_GRID[0]


def profile(shape, x0, start=None):
    """_profile_g on cost = shape(ln g - x0), from the scan or warm-started at
    ln g = start: ln g, step_costs and the node count of every cost call.
    Checks that the result ends strictly inside a bracket of costed nodes,
    or on a scan end, and comes with the lowest cost."""
    sizes, costed = [], {}

    def cost(log_g):
        sizes.append(log_g.size)
        f = shape(log_g - x0)
        costed.update(zip(log_g.tolist(), f.tolist()))
        return f

    step_costs = []
    log_g, f, nodes, calls = _profile_g(cost, PROFILE_GRID, step_costs, start)
    assert f == costed[log_g] == min(costed.values())
    assert sizes[0] == PROFILE_GRID.size if start is None else 2 <= sizes[0] <= 3
    assert set(sizes[1:]) <= {1, 2, 3}  # one stencil per step
    assert nodes == sum(sizes) and calls == len(sizes)
    assert all(after < before for before, after in step_costs)
    xs = sorted(costed)
    i = int(np.argmin(np.abs(np.array(xs) - log_g)))
    if 0 < i < len(xs) - 1:
        assert costed[xs[i - 1]] >= costed[xs[i]] <= costed[xs[i + 1]]
    else:
        assert log_g == PROFILE_GRID[0 if i == 0 else -1]
    return log_g, step_costs, sizes


def excess(shape, log_g, x0):
    """shape(ln g - x0) - min(shape), in cost units: every shape below has
    its minimum at 0."""
    return float(shape(np.array([log_g - x0]))[0] - shape(np.zeros(1))[0])


class TestProfileG:
    @pytest.mark.parametrize("shape", [
        lambda t: t * t,
        lambda t: np.exp(3.0 * t) - 3.0 * t,  # skewed: steep above the minimum
        lambda t: np.exp(-4.0 * t) + 4.0 * t,  # and below it
    ], ids=["quadratic", "steep-above", "steep-below"])
    @pytest.mark.parametrize("x0", [0.5, 1.234, 3.3, 5.0 + 0.5 * SPACING, 6.2])
    def test_smooth_minimum_to_1e_5_in_few_calls(self, shape, x0):
        log_g, step_costs, sizes = profile(shape, x0)
        assert excess(shape, log_g, x0) <= _GAIN_TOL
        assert step_costs  # the refinement moved off the best scan node
        assert len(sizes) <= 1 + 10

    def test_lopsided_minimum_does_not_creep(self):
        # curvature 10x larger below the minimum than above: parabolas through
        # a stale bracket end creep toward it, so the step bisects instead
        lopsided = lambda t: np.where(t < 0.0, 10.0 * t * t, t * t)
        for x0 in np.linspace(1.0, 6.0, 11):
            log_g, _, sizes = profile(lopsided, x0)
            assert excess(lopsided, log_g, x0) <= _GAIN_TOL
            assert len(sizes) <= 1 + 40

    @pytest.mark.parametrize("end", [0, -1])
    def test_minimum_beside_a_grid_end(self, end):
        inward = 1.0 if end == 0 else -1.0
        x0 = PROFILE_GRID[end] + 0.3 * inward * SPACING
        log_g, _, sizes = profile(lambda t: t * t, x0)
        assert excess(lambda t: t * t, log_g, x0) <= _GAIN_TOL
        assert len(sizes) <= 1 + 10
        # past the end the result stays on the end node, where the fit flags it
        log_g, step_costs, sizes = profile(lambda t: t * t, PROFILE_GRID[end] - inward)
        assert log_g == PROFILE_GRID[end] and step_costs == []
        assert len(sizes) <= 1 + 14

    @pytest.mark.parametrize("end", [0, -1])
    def test_minimum_within_gain_tol_of_a_grid_end_leaves_the_end(self, end):
        # the gain stop holds only for a bracketed best node: a minimum just
        # inside the scan, whose gain over the end node is below _GAIN_TOL,
        # still draws the result off the end node, where the fit would flag g
        x0 = PROFILE_GRID[end] + (1e-3 if end == 0 else -1e-3)
        assert excess(lambda t: t * t, PROFILE_GRID[end], x0) < _GAIN_TOL
        log_g, step_costs, sizes = profile(lambda t: t * t, x0)
        assert log_g != PROFILE_GRID[end] and step_costs
        assert excess(lambda t: t * t, log_g, x0) <= _GAIN_TOL
        assert len(sizes) <= 1 + 10

    @pytest.mark.parametrize("shape", [lambda t: t * t, lambda t: np.exp(3.0 * t) - 3.0 * t], ids=["quadratic", "skewed"])
    @pytest.mark.parametrize("moved", [-2.5, -1.01, 0.0004, 1.7, 6.0])  # in scan spacings
    def test_warm_start_follows_a_moving_optimum(self, shape, moved):
        # a later IRLS pass costs start and start +- 1e-3, then steps outward
        # until the minimum is bracketed: an 8-node grid one spacing either
        # side of the start stopped on its end when the optimum moved further
        log_g, _, sizes = profile(shape, 3.0 + moved * SPACING, start=3.0)
        assert excess(shape, log_g, 3.0 + moved * SPACING) <= _GAIN_TOL
        assert len(sizes) <= 1 + 10

    @pytest.mark.parametrize("end", [0, -1])
    def test_warm_start_stops_on_a_scan_end(self, end):
        inward = 1.0 if end == 0 else -1.0
        for start in (PROFILE_GRID[end], PROFILE_GRID[end] + 0.5 * inward * SPACING):
            log_g, _, sizes = profile(lambda t: t * t, PROFILE_GRID[end] - inward, start=start)
            assert log_g == PROFILE_GRID[end]
            assert len(sizes) <= 1 + 14
        # from mid-scan, profiles that fall all the way to the end: the outward
        # steps double per call, so ~4 units of ln g take ~12 doublings of 1e-3
        for shape in (lambda t: inward * t, lambda t: -((t - 10.0 * inward) ** 2)):
            log_g, _, sizes = profile(shape, 0.0, start=3.0)
            assert log_g == PROFILE_GRID[end]
            assert len(sizes) <= 1 + 20

    def test_flat_profile_returns_the_first_node(self):
        log_g, step_costs, sizes = profile(np.zeros_like, 2.0)
        assert log_g == PROFILE_GRID[0] and step_costs == []
        assert len(sizes) <= 1 + 14


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

    def test_displaced_lowest_point_excluded(self, device, noisy_sweep):
        # 20% high at the lowest temperature is 27 of that point's sigmas, but
        # within 5 robust scales of the unweighted residuals, which the hotter
        # points' larger scatter sets: the fence measures each point in its
        # own area_sigma
        sweep = list(noisy_sweep)
        T0, trace0 = sweep[0]
        sweep[0] = (T0, em.SpectrumTrace(trace0.freq_hz, trace0.values * 1.2, trace0.unit, dict(trace0.meta)))
        drive = em.DriveConfig.red_detuned(device, n_d=3.0)
        result = em.calibrate_coupling(sweep, device, drive)
        assert [p.excluded for p in result.points] == [True] + [False] * 23
        assert result.G == pytest.approx(device.coupling.G, rel=0.01)

    def test_area_sigma_matches_scatter(self, device):
        # 60 seeds at 95 mK: area_sigma is the areas' real scatter, the
        # peak's own multiplicative noise included
        truth = estimation.peak_area(calibration_trace(device, 0.095, 3.0, 0, noiseless=True)).area
        peaks = [estimation.peak_area(calibration_trace(device, 0.095, 3.0, seed=2000 + i)) for i in range(60)]
        z = [(p.area - truth) / p.area_sigma for p in peaks]
        assert 0.8 <= np.std(z, ddof=1) <= 1.2

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

    def test_closed_form_matches_fixed_point(self, device, noisy_sweep):
        drive = em.DriveConfig.red_detuned(device, n_d=3.0)
        result = em.calibrate_coupling(noisy_sweep, device, drive)
        assert result.G == pytest.approx(fixed_point_G(result.slope, device, drive, 200), rel=1e-12)

    def test_closed_form_at_non_weak_drive(self, device):
        # gamma_opt = 2.5 gamma_m at n_d = 100: each fixed-point pass shrinks
        # the error only by gamma_opt / (gamma_m + gamma_opt) = 0.71
        temps = [0.015, 0.05, 0.1, 0.15, 0.2, 0.25]
        sweep = [(T, calibration_trace(device, T, 100.0, 0, noiseless=True)) for T in temps]
        drive = em.DriveConfig.red_detuned(device, n_d=100.0)
        result = em.calibrate_coupling(sweep, device, drive)
        assert result.G == pytest.approx(fixed_point_G(result.slope, device, drive, 200), rel=1e-12)
        assert result.G == pytest.approx(device.coupling.G, rel=0.01)
        assert abs(fixed_point_G(result.slope, device, drive, 3) / result.G - 1.0) > 0.01

    def test_G_sigma_follows_cooling_correction(self, device):
        # at n_d = 100 the drive's own cooling makes G grow as slope^1.74, not
        # slope^0.5; G_sigma must carry the same d ln G / d ln slope as the
        # change in G when every trace is rescaled
        temps = [0.015, 0.05, 0.1, 0.15, 0.2, 0.25]
        sweep = [(T, calibration_trace(device, T, 100.0, 0, noiseless=True)) for T in temps]
        drive = em.DriveConfig.red_detuned(device, n_d=100.0)
        result = em.calibrate_coupling(sweep, device, drive)

        def scaled(factor):
            traces = [(T, em.SpectrumTrace(t.freq_hz, t.values * factor, t.unit, dict(t.meta))) for T, t in sweep]
            return em.calibrate_coupling(traces, device, drive)

        hi, lo = scaled(1.0 + 1e-4), scaled(1.0 - 1e-4)
        measured = math.log(hi.G / lo.G) / math.log(hi.slope / lo.slope)
        assert measured == pytest.approx(1.743, abs=0.01)
        reported = (result.G_sigma / result.G) / (result.slope_sigma / result.slope)
        assert reported == pytest.approx(measured, rel=1e-3)

    def test_no_coupling_explains_slope(self, device, noisy_sweep):
        # a larger G also cools the mode harder, so at n_d = 3 no G gives an
        # area slope above (gamma_m + gamma_opt) / gamma_opt = 14.4 times the
        # slope of these traces
        sweep = [
            (T, em.SpectrumTrace(trace.freq_hz, trace.values * 20.0, trace.unit, dict(trace.meta)))
            for T, trace in noisy_sweep
        ]
        drive = em.DriveConfig.red_detuned(device, n_d=3.0)
        with pytest.raises(ParameterError, match="no solution"):
            em.calibrate_coupling(sweep, device, drive)


def fixed_point_G(slope, device, drive, passes):
    """G by refreshing the radiation-pressure cooling factor `passes` times,
    starting from the uncorrected equipartition value."""
    mech, cavity = device.mech, device.cavity
    n_d = drive.photons(device)
    p_in = drive.power_in if drive.power_in is not None else em.drive_power_for_photons(n_d, drive, cavity)
    p_out = em.transmitted_power(p_in, cavity, drive.detuning)
    x_zp = em.zero_point_motion(mech)
    scale = cavity.kappa * mech.omega_m / cavity.kappa_ex
    G = scale * math.sqrt(slope / (p_out * x_zp * x_zp))
    for _ in range(passes):
        _, _, gamma_opt = em.sideband_rates(G * x_zp * math.sqrt(n_d), cavity.kappa, drive.detuning, mech.omega_m)
        G = scale * math.sqrt(slope * (mech.gamma_m + gamma_opt) / (mech.gamma_m * p_out * x_zp * x_zp))
    return G


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

    def test_free_set_without_g_pins_g_everywhere(self, device):
        # g left out of free: every point pins it to the sqrt(n_d)
        # prediction, as the weak-drive guard does
        entries = cooling_sweep_entries(device, SWEEP_SPECS)
        thermal = em.ThermalState(n_m_T=39.0, n_c=0.0)
        curve = em.analyze_cooling_sweep(entries, device, thermal, free=("n_m_T", "n_c", "n_add_eff"))
        assert curve.excluded == ()
        assert len(curve.points) == len(SWEEP_SPECS)
        for sp in curve.points:
            assert sp.point.g == em.coupling_rate(device.coupling, device.mech, sp.point.n_d)
            assert "g" not in sp.fit.params
            assert math.isnan(sp.g_rel_deviation)

    @pytest.mark.parametrize("free", [
        ("n_add_eff", "beta"),  # not freeable
        ("n_m_T", "n_add_eff", "n_m_T"),  # a duplicate
        ("n_m_T", "g", "n_add_eff", "kappa", "delta_tilde"),  # two shapes
    ])
    def test_bad_free_set_raises_before_any_fit(self, device, monkeypatch, free):
        # once every point was excluded with the same error, and the sweep
        # returned an empty curve
        entries = cooling_sweep_entries(device, SWEEP_SPECS[:2])
        monkeypatch.setattr(estimation, "fit_full_model", lambda *a, **k: pytest.fail("fit before the check"))
        with pytest.raises(ParameterError, match="cannot free|duplicate"):
            em.analyze_cooling_sweep(entries, device, em.ThermalState(39.0, 0.0), free=free)

    def test_free_set_without_n_add_eff_raises(self, device):
        entries = cooling_sweep_entries(device, SWEEP_SPECS[:2])
        thermal = em.ThermalState(n_m_T=39.0, n_c=0.0)
        with pytest.raises(ParameterError, match="n_add_eff"):
            em.analyze_cooling_sweep(entries, device, thermal, free=("n_m_T", "n_c", "g"))

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
