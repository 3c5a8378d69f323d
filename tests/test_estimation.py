import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import emcool as em
from emcool import estimation, spectra
from emcool.constants import HBAR
from emcool.errors import DegenerateFitError, ParameterError, PeakDetectionError, UnitError
from emcool.estimation import _GAIN_TOL, DEFAULT_FREE, _nnls, _Pass, _profile_steps
from emcool.spectra import _basis_factors, grid_for
from emcool.synth import periodogram_factors

from conftest import basis, gamma_total_at, model_params, output_trace, recorded_passes

TWO_PI = 2.0 * math.pi
# the arguments of the basis after delta
BASIS_ARGS = ("g", "kappa", "kappa_ex", "gamma_m", "delta_tilde", "beta")


def profile_case_trace(device, case):
    """The README trace (`emcool simulate --n-d 4000 --seed 0`, in process),
    one cooling-sweep point on a 600 kHz half-span, or one such point at
    1e5 photons with an occupied cavity (n_c = 0.3)."""
    if case == "readme":
        thermal = em.ThermalState.from_temperature(0.020, device.mech)
        g = em.coupling_rate(device.coupling, device.mech, 4000.0)
        params = em.ModelParams.for_device(device, g=g, n_m_T=thermal.n_m_T, n_add_eff=em.REFERENCE_N_ADD_EFF)
        return em.generate_spectrum(params, em.NoiseConfig(n_avg=500, seed=0), freq_hz=grid_for(params))
    if case == "cavity":
        return output_trace(device, 1e5, n_m_T=39.0, n_c=0.3, seed=0)[0]
    return output_trace(device, 1e4, n_m_T=39.0, seed=0)[0]


def lorentzian_model(freq_hz, center, fwhm, area, floor):
    """floor + Lorentzian with unit-normalized area (peak height 2 area/(pi fwhm))."""
    x = 2.0 * (freq_hz - center) / fwhm
    return floor + (2.0 * area / (math.pi * fwhm)) / (1.0 + x * x)


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
        def median(scan, step_costs, start):  # a g profile that ends at once on the scan's median node
            return np.median(scan), 0.0, 0, 0
            yield

        monkeypatch.setattr(estimation, "_profile_steps", median)
        fit = em.fit_full_model(trace, device_model)
        assert fit.params["n_m_T"] == fit.params["n_c"] == 0.0
        assert "g" in fit.at_bound
        fit = em.fit_full_model(trace, replace(device_model, n_c=0.1), free=("n_m_T", "g", "n_add_eff"))
        assert "g" not in fit.at_bound  # a pinned n_c > 0 carries g

    @pytest.mark.parametrize("case", ["readme", "sweep"])
    def test_profile_node_count(self, device, device_model, monkeypatch, case):
        # exact counts of the couplings the g profile costs per fit and of its
        # cost calls, reported in the message; each pass's last normal
        # equations are its amplitudes' solve at the fitted g
        trace = profile_case_trace(device, case)
        calls = []  # (pass, couplings) per call
        gram = estimation._Pass.gram
        monkeypatch.setattr(estimation._Pass, "gram", lambda normal, g: calls.append((normal, g.size)) or gram(normal, g))
        fit = em.fit_full_model(trace, device_model)
        passes = [[size for _, size in group] for _, group in itertools.groupby(calls, key=lambda call: call[0])]
        assert [sizes[-1] for sizes in passes] == [1] * len(passes)
        assert f"separable fit: {len(passes)} IRLS passes," in fit.message
        sizes = [size for sizes in passes for size in sizes[:-1]]
        assert f", {sum(sizes)} profile nodes in {len(sizes)} calls" in fit.message
        assert (sum(sizes), len(sizes)) == {"readme": (92, 6), "sweep": (89, 5)}[case]

    @pytest.mark.parametrize("case", ["readme", "sweep"])
    def test_fitted_g_within_gain_tol_of_a_dense_grid(self, device, device_model, monkeypatch, case):
        # the last pass's profile ends within _GAIN_TOL, in cost units, of
        # the least cost on 2001 nodes spanning +-0.01 in ln g about its g
        passes = recorded_passes(monkeypatch)
        fit = em.fit_full_model(profile_case_trace(device, case), device_model)
        log_g, f, _, _ = passes[-1]["profile"]
        least = float(np.min(passes[-1]["cost"](np.linspace(log_g - 0.01, log_g + 0.01, 2001))))
        assert fit.params["g"] == math.exp(log_g) and "g" not in fit.at_bound
        assert least <= f <= least + _GAIN_TOL

    @staticmethod
    def fit_with_gram(trace, device_model, monkeypatch):
        """A default fit, its last IRLS model and its J^T J."""
        models, grams = [], []
        sigma_from_model, covariance = estimation._sigma_from_model, estimation._covariance
        monkeypatch.setattr(
            estimation, "_sigma_from_model", lambda model, n_avg: models.append(model) or sigma_from_model(model, n_avg)
        )
        monkeypatch.setattr(estimation, "_covariance", lambda jtj: grams.append(jtj) or covariance(jtj))
        return em.fit_full_model(trace, device_model), models[-1], grams[-1]

    @pytest.mark.parametrize("case", ["readme", "sweep", "cavity"])
    def test_model_and_amplitude_columns_match_the_spectrum(self, device, device_model, monkeypatch, case):
        # the last IRLS model, built from the pass's row s, is the spectrum
        # at the fitted values bit for bit, since both run one arithmetic,
        # and J's amplitude columns, which come from the same row, are the
        # basis (compared through J^T J)
        trace = profile_case_trace(device, case)
        fit, model, gram = self.fit_with_gram(trace, device_model, monkeypatch)
        if case == "cavity":
            assert fit.params["n_c"] > 0.0  # the cavity term of the spectrum takes part
        params = replace(device_model, **fit.params)
        delta = TWO_PI * trace.freq_hz - params.omega_m
        assert np.array_equal(model, em.output_noise_values(delta, params))
        cav, mech = basis(delta, *(getattr(params, name) for name in BASIS_ARGS))
        jac = np.column_stack([np.ones_like(delta), cav, mech]) / estimation._sigma_from_model(model, trace.n_avg)[:, None]
        amps = [DEFAULT_FREE.index(name) for name in ("n_add_eff", "n_c", "n_m_T")]
        np.testing.assert_allclose(gram[np.ix_(amps, amps)], jac.T @ jac, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("case", ["readme", "sweep"])
    def test_g_column_matches_a_central_difference(self, device, device_model, monkeypatch, case):
        # J's g column is the closed-form derivative of the basis at the
        # last pass's row s; against a central difference of
        # the basis, through every entry of J^T J
        trace = profile_case_trace(device, case)
        fit, model, gram = self.fit_with_gram(trace, device_model, monkeypatch)
        params = replace(device_model, **fit.params)
        delta = TWO_PI * trace.freq_hz - params.omega_m
        args = {name: getattr(params, name) for name in BASIS_ARGS}

        def basis_at(g):
            return basis(delta, **{**args, "g": g})

        h = 1e-5 * params.g
        (cav_hi, mech_hi), (cav_lo, mech_lo) = basis_at(params.g + h), basis_at(params.g - h)
        cav, mech = basis_at(params.g)
        columns = {"n_add_eff": np.ones_like(delta), "n_c": cav, "n_m_T": mech,
                   "g": (params.n_c * (cav_hi - cav_lo) + params.n_m_T * (mech_hi - mech_lo)) / (2.0 * h)}
        jac = np.column_stack([columns[name] for name in DEFAULT_FREE])
        jac /= estimation._sigma_from_model(model, trace.n_avg)[:, None]
        explicit = jac.T @ jac
        norms = np.sqrt(np.diag(explicit))
        assert np.max(np.abs(gram - explicit) / np.outer(norms, norms)) < 1e-8

    def test_one_basis_evaluation_per_fit(self, device, device_model, monkeypatch):
        # a default-free-set fit forms the shape's factors once and every
        # row s from them: no call evaluates the model or its basis anew
        trace = profile_case_trace(device, "readme")
        calls = []
        for module in (spectra, estimation):
            for name in ("_basis_factors", "output_noise_values"):
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
        records = recorded_passes(monkeypatch)
        fit = em.fit_full_model(trace, device_model)
        passes = []
        for record in records:
            x, log_g = sorted(record["costed"]), record["profile"][0]
            i = x.index(log_g)
            dense = min(record["cost"](np.linspace(x[i - 1], x[i + 1], 2001))) if 0 < i < len(x) - 1 else None
            passes.append((record["start"], log_g, sorted(record["costed"].items()), record["scan"], dense))
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

    def test_free_values_in_params_are_not_read(self, device, device_model):
        # only the pinned values of params count: the amplitudes are solved
        # and g is profiled on its fixed scan
        trace, truth = output_trace(device, 4000.0, seed=5, points=1024)
        other = replace(truth, g=3.0 * truth.g, n_m_T=7.0, n_c=0.4, n_add_eff=9.0)
        first, *rest = (em.fit_full_model(trace, p) for p in (device_model, truth, other))
        for fit in rest:
            assert fit.to_json() == first.to_json()
            assert fit.step_costs == first.step_costs
            assert fit.covariance.tobytes() == first.covariance.tobytes()

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
        # from the basis, including 4 g^2 >> kappa gamma_m
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
            args = [vals[name] for name in BASIS_ARGS[1:]]
            gram = _Pass(_basis_factors(delta, *args), w, data, estimation._fold(np.eye(4))).gram(g)
            cav, mech = basis(delta, g[:, None], *args)
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
        args = [getattr(device_model, name) for name in BASIS_ARGS[1:]]
        w = trace.values**-2.0 * trace.n_avg
        normal = _Pass(_basis_factors(delta, *args), w, trace.values, estimation._fold(np.eye(4)))
        g = np.exp(estimation._log_scan(0.5 * math.sqrt(1e-3 * kappa * gamma_m), 10.0 * kappa))
        assert g.size > 4 * estimation._SCAN_BLOCK
        blocks = [_nnls(normal.gram(g[i : i + estimation._SCAN_BLOCK]))[1] for i in range(0, g.size, estimation._SCAN_BLOCK)]
        rows = []
        nnls = estimation._nnls
        monkeypatch.setattr(estimation, "_nnls", lambda normal: rows.append(normal.shape[0]) or nnls(normal))
        assert np.array_equal(estimation._nnls(normal.gram(g))[1], np.concatenate(blocks))
        assert rows == [g.size]


    def test_nnls_rows_do_not_depend_on_each_other(self):
        # a batched step solves many passes' normal equations in one call,
        # in slices of _NNLS_BLOCK rows: each row's amplitudes and cost are
        # those of its normal equations solved alone, bit for bit
        rng = np.random.default_rng(11)
        m = 2 * estimation._NNLS_BLOCK + 3
        for k in (1, 2, 3):
            columns = rng.normal(size=(64, k + 1))
            normal = np.einsum("ni,mn,nj->mij", columns, rng.uniform(0.1, 10.0, (m, 64)), columns)
            amps, costs = _nnls(normal)
            assert amps.shape == (m, k) and 0 < np.count_nonzero(amps == 0.0) < amps.size  # constraints bind, not all
            for i in range(m):
                alone = _nnls(normal[i : i + 1])
                assert np.array_equal(alone[0][0], amps[i]) and alone[1][0] == costs[i]


class TestTraceFit:
    def test_summed_profile_cost_is_least_at_the_true_coupling(self, device):
        # a joint sweep fit is a loop over per-trace fits that share one G,
        # g_i = G x_zp sqrt(n_d,i): on two noiseless traces the sum of their
        # profile costs, each at its data's weights, is least on the true G's node
        x_zp = em.zero_point_motion(device.mech)
        grid = em.sideband_grid(device.mech.omega_m, 0.0, device.cavity.kappa, points=4096, halfspan_hz=600e3)
        fits = []
        for n_d in (1e4, 1e5):
            params = model_params(device, n_d, n_m_T=39.0)
            trace = em.output_noise_spectrum(grid, params).with_meta(n_avg=20000)
            fits.append((math.sqrt(n_d), estimation._TraceFit(trace, params, DEFAULT_FREE)))
        G = device.coupling.G * np.exp(np.linspace(-math.log(2.0), math.log(2.0), 41))
        total = sum(_nnls(fit.normal().gram(G * x_zp * root))[1] for root, fit in fits)
        assert np.argmin(total) == 20  # G = 1.0x truth


# 16 nodes per decade over three decades, like the fit's scan of g
PROFILE_GRID = np.log(np.logspace(0.0, 3.0, 49))
SPACING = PROFILE_GRID[1] - PROFILE_GRID[0]


def profile(shape, x0, start=None):
    """The profile rule (`_profile_steps`) driven by cost = shape(ln g - x0),
    from the scan or warm-started at ln g = start: ln g, step_costs and the
    node count of every cost call.
    Checks that the result ends strictly inside a bracket of costed nodes,
    or on a scan end, and comes with the lowest cost."""
    sizes, costed = [], {}

    def cost(log_g):
        sizes.append(log_g.size)
        f = shape(log_g - x0)
        costed.update(zip(log_g.tolist(), f.tolist()))
        return f

    step_costs = []
    steps = _profile_steps(PROFILE_GRID, step_costs, start)
    try:
        log_g = next(steps)
        while True:
            log_g = steps.send(cost(log_g))
    except StopIteration as stop:
        log_g, f, nodes, calls = stop.value
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
    n_d = drive.n_d
    p_in = em.drive_power_for_photons(n_d, drive, cavity)
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
        # the later of two points at one drive is excluded, by name; the
        # earlier one is fitted
        entries = cooling_sweep_entries(device, [(100, 0.0), (100, 0.0)])
        thermal = em.ThermalState(n_m_T=39.0, n_c=0.0)
        curve = em.analyze_cooling_sweep(entries, device, thermal)
        assert [sp.point.n_d for sp in curve.points] == [100]
        assert curve.points[0].fit.params == em.analyze_cooling_sweep(entries[:1], device, thermal).points[0].fit.params
        assert curve.excluded == ((100, "ParameterError: duplicate n_d: an earlier entry has n_d = 100"),)

    @staticmethod
    def assert_same_fit(fit, other):
        assert fit.to_json() == other.to_json()
        assert fit.message == other.message
        assert fit.step_costs == other.step_costs
        assert fit.covariance.tobytes() == other.covariance.tobytes()

    @staticmethod
    def recorded_steps(monkeypatch):
        """Wrap `estimation._lockstep` and `estimation._nnls` to keep, per
        chunk run in lockstep, its number of fits and the rows of each of
        its `_nnls` calls."""
        chunks = []
        lockstep, nnls = estimation._lockstep, estimation._nnls
        monkeypatch.setattr(estimation, "_lockstep", lambda fits: chunks.append((len(fits), [])) or lockstep(fits))
        monkeypatch.setattr(estimation, "_nnls", lambda normal: chunks[-1][1].append(normal.shape[0]) or nnls(normal))
        return chunks

    @staticmethod
    def requests_alone(fit):
        """The requests a fit alone answers one by one: per IRLS pass, its
        profile's cost calls and the amplitudes' solve."""
        passes, calls = re.fullmatch(r"separable fit: (\d+) IRLS passes, \d+ profile nodes in (\d+) calls", fit.message).groups()
        return int(passes) + int(calls)

    @staticmethod
    def scan_size(device):
        kappa, gamma_m = device.cavity.kappa, device.mech.gamma_m
        return estimation._log_scan(0.5 * math.sqrt(1e-3 * kappa * gamma_m), 10.0 * kappa).size

    @staticmethod
    def five_point_entries(device):
        return [(n_d, output_trace(device, n_d, n_m_T=39.0, seed=(1 << 20) + i)[0])
                for i, n_d in enumerate((100.0, 1e3, 1e4, 1e5, 1e6))]

    @pytest.mark.parametrize("shared, groups", [(8, [5]), (2, [2, 2, 1])])
    def test_shared_scan_fits_equal_fits_alone(self, device, monkeypatch, shared, groups):
        # points on one grid run their fits in lockstep, at most
        # _SHARED_SCANS at once: each batched step costs every running
        # fit's next request with one _nnls call, the first one every
        # chunk's cold g scans; every fit is bit for bit the fit of its
        # trace alone
        thermal = em.ThermalState(n_m_T=39.0, n_c=0.0)
        entries = self.five_point_entries(device)
        monkeypatch.setattr(estimation, "_SHARED_SCANS", shared)
        chunks = self.recorded_steps(monkeypatch)
        curve = em.analyze_cooling_sweep(entries, device, thermal)
        assert [size for size, _ in chunks] == groups  # one grid, every point profiles g
        assert [sp.point.n_d for sp in curve.points] == [n_d for n_d, _ in entries]
        # a chunk's cold scans are one _nnls call over all its first passes;
        # no later step costs more than three nodes per fit
        for size, rows in chunks:
            assert rows[0] == size * self.scan_size(device)
            assert max(rows[1:]) <= 3 * size
        # a chunk takes as many steps as its longest fit has requests, not
        # as many as its fits have together
        requests = [self.requests_alone(sp.fit) for sp in curve.points]
        ends = np.cumsum(groups).tolist()
        lockstep = [max(requests[end - size : end]) for end, size in zip(ends, groups)]
        assert sum(len(rows) for _, rows in chunks) == sum(lockstep) < sum(requests)
        for (n_d, trace), sp in zip(entries, curve.points):
            g_pred = em.coupling_rate(device.coupling, device.mech, n_d)
            params = em.ModelParams.for_device(device, g=g_pred, n_m_T=39.0, n_c=0.0)
            self.assert_same_fit(sp.fit, em.fit_full_model(trace, params, free=tuple(sp.fit.params)))

    def test_a_fit_that_raises_mid_chunk_fails_alone(self, device, monkeypatch):
        # the n_d = 1e4 point raises in its second pass's update, while the
        # chunk's other fits run on: it alone is excluded, and every other
        # fit is bit for bit the fit of its trace alone
        thermal = em.ThermalState(n_m_T=39.0, n_c=0.0)
        entries = self.five_point_entries(device)
        bad = entries[2][1].values
        steps, update = [], estimation._TraceFit.update  # the chunk's steps taken at each update of the point

        def failing(fit, fitted):
            if fit.data is bad:
                steps.append(len(chunks[-1][1]))
                if len(steps) == 2:
                    raise ParameterError("update failed")
            return update(fit, fitted)

        chunks = self.recorded_steps(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(estimation._TraceFit, "update", failing)
            curve = em.analyze_cooling_sweep(entries, device, thermal)
        assert len(steps) == 2 and [size for size, _ in chunks] == [5]
        assert len(chunks[0][1]) > steps[-1]  # the chunk ran on after the point raised
        assert curve.excluded == ((1e4, "ParameterError: update failed"),)
        assert [sp.point.n_d for sp in curve.points] == [100.0, 1e3, 1e5, 1e6]
        for sp in curve.points:
            trace = dict(entries)[sp.point.n_d]
            g_pred = em.coupling_rate(device.coupling, device.mech, sp.point.n_d)
            params = em.ModelParams.for_device(device, g=g_pred, n_m_T=39.0, n_c=0.0)
            self.assert_same_fit(sp.fit, em.fit_full_model(trace, params, free=tuple(sp.fit.params)))

    def test_grids_are_grouped_by_value_and_points_fail_alone(self, device, monkeypatch):
        # two windows of 1024 bins each, a point whose g is pinned (no scan),
        # one whose set-up raises (W/Hz), one that raises after its fit and a
        # nan n_d: the sweep returns what its points return one by one
        def trace_on(halfspan_hz, n_d, seed):
            return output_trace(device, n_d, n_m_T=39.0, seed=seed, points=1024, halfspan_hz=halfspan_hz)[0]

        narrow = [(n_d, trace_on(600e3, n_d, 10 + i)) for i, n_d in enumerate((0.1, 1e3, 1e4))]
        wide = [(n_d, trace_on(2e6, n_d, 20 + i)) for i, n_d in enumerate((300.0, 3e3, 1e5))]
        watts = wide[0][1]
        wide[0] = (300.0, em.SpectrumTrace(watts.freq_hz, watts.values, em.SpectrumUnit.WATTS_PER_HZ, {}))
        entries = [wide[2], narrow[1], (math.nan, narrow[1][1]), wide[0], narrow[0], wide[1], narrow[2]]
        # fails the n_d = 1e5 point, whose g is the only one past g(n_d = 3e4)
        g_cut, chain = em.coupling_rate(device.coupling, device.mech, 3e4), estimation.imprecision_from_chain

        def imprecision(g, *args):
            if g > g_cut:
                raise ParameterError("imprecision unavailable")
            return chain(g, *args)

        monkeypatch.setattr(estimation, "imprecision_from_chain", imprecision)
        thermal = em.ThermalState(n_m_T=39.0, n_c=0.0)
        alone = [em.analyze_cooling_sweep([entry], device, thermal) for entry in entries]  # chunks of one fit
        chunks = self.recorded_steps(monkeypatch)
        curve = em.analyze_cooling_sweep(entries, device, thermal)
        chunks = chunks[:]  # the sweep's alone: each fit_full_model below is a chunk of one
        expected = em.CoolingCurve(
            points=tuple(sorted((sp for c in alone for sp in c.points), key=lambda sp: sp.point.n_d)),
            excluded=tuple(sorted((item for c in alone for item in c.excluded), key=lambda item: (not math.isnan(item[0]), item[0]))),
        )
        assert [sp.point.n_d for sp in curve.points] == [0.1, 1e3, 3e3, 1e4]
        assert [(repr(n_d), reason.split(":")[0]) for n_d, reason in curve.excluded] == [
            ("nan", "ParameterError"), ("300.0", "UnitError"), ("100000.0", "ParameterError")
        ]
        assert repr(curve.excluded) == repr(expected.excluded)
        assert curve.to_json() == expected.to_json()
        for sp, other in zip(curve.points, expected.points):
            self.assert_same_fit(sp.fit, other.fit)
        # a sweep of one entry runs a chunk of one fit in lockstep, so each
        # point is also checked against its trace's fit_full_model, the pinned
        # g's and both windows' included
        for sp in curve.points:
            g_pred = em.coupling_rate(device.coupling, device.mech, sp.point.n_d)
            params = em.ModelParams.for_device(device, g=g_pred, n_m_T=39.0, n_c=0.0)
            trace = next(trace for n_d, trace in entries if n_d == sp.point.n_d)
            self.assert_same_fit(sp.fit, em.fit_full_model(trace, params, free=tuple(sp.fit.params)))
        assert "g" not in curve.points[0].fit.params
        # 0.1 (g pinned), 1e3 and 1e4 on the narrow window, 3e3 and 1e5 on the
        # wide one; a chunk's first _nnls call holds its cold scans and the
        # pinned point's solve at its one g
        assert [(size, rows[0]) for size, rows in chunks] == [(3, 2 * self.scan_size(device) + 1), (2, 2 * self.scan_size(device))]

    @pytest.mark.parametrize("free", [DEFAULT_FREE, ("n_m_T", "n_c", "n_add_eff")])
    def test_a_fit_alone_is_a_chunk_of_one(self, device, device_model, monkeypatch, free):
        # fit_full_model runs its passes through _lockstep as a chunk of one
        # fit: every batched step holds one request, and it takes one step
        # per g-profile call and per amplitude solve
        trace, truth = output_trace(device, 1e4, n_m_T=39.0, seed=0)
        sizes, solve = [], estimation._solve
        monkeypatch.setattr(estimation, "_solve", lambda requests: sizes.append(len(requests)) or solve(requests))
        fit = em.fit_full_model(trace, replace(device_model, g=truth.g), free=free)
        assert set(sizes) == {1} and len(sizes) == self.requests_alone(fit)

    def test_bad_drives_are_excluded_not_raised(self, device):
        # a negative, nan, infinite or repeated n_d once raised out of the
        # sweep, came back as an ordinary point, or misordered the good ones
        good = cooling_sweep_entries(device, SWEEP_SPECS[1:4])
        trace = good[0][1]
        entries = [good[2], (-1.0, trace), good[0], (math.nan, trace), (math.inf, trace), good[1], (good[0][0], trace)]
        thermal = em.ThermalState(n_m_T=39.0, n_c=0.0)
        curve = em.analyze_cooling_sweep(entries, device, thermal)
        assert [sp.point for sp in curve.points] == [sp.point for sp in em.analyze_cooling_sweep(good, device, thermal).points]
        reasons = dict((repr(n_d), reason) for n_d, reason in curve.excluded)
        assert len(curve.excluded) == len(reasons) == 4
        assert reasons["nan"] == "ParameterError: n_d must be finite, got nan"
        assert reasons["inf"] == "ParameterError: n_d must be finite, got inf"
        assert reasons["-1.0"] == "ParameterError: n_d must be a finite number >= 0, got -1.0"
        assert reasons["60"] == "ParameterError: duplicate n_d: an earlier entry has n_d = 60"
