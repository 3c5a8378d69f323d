"""The weighted fit of each IRLS pass of `fit_full_model`
(`estimation._weighted_steps`), and the fit's optimizer contracts."""
import math
from dataclasses import replace

import numpy as np
import pytest

import emcool as em
from emcool import estimation
from emcool.errors import DegenerateFitError, ParameterError
from emcool.estimation import DEFAULT_FREE

from conftest import basis, model_params, output_trace, recorded_passes

TWO_PI = 2.0 * math.pi
PINNED_G = ("n_m_T", "n_c", "n_add_eff")


class TestOracleEquivalence:
    """The default fit against a dense grid over ln g at the weights of its
    last pass, every node solving the amplitudes (n_m_T, n_c, n_add_eff) by
    least squares on the explicit basis instead of the normal equations;
    with n_c = 0.2 every amplitude is positive, so no constraint binds."""

    def run_case(self, device, device_model, monkeypatch, noisy):
        if noisy:
            trace, truth = output_trace(device, 4000.0, n_c=0.2, seed=3, n_avg=20000, points=2048)
        else:
            freq = em.sideband_grid(device.mech.omega_m, 0.0, device.cavity.kappa, points=2048, halfspan_hz=600e3)
            truth = model_params(device, 4000.0, n_c=0.2)
            trace = em.output_noise_spectrum(freq, truth).with_meta(n_avg=20000)  # weighted as if averaged
        sigmas = []
        sigma_from_model = estimation._sigma_from_model
        monkeypatch.setattr(estimation, "_sigma_from_model",
                            lambda model, n_avg: sigmas.append(sigma_from_model(model, n_avg)) or sigmas[-1])
        passes = recorded_passes(monkeypatch)
        fit = em.fit_full_model(trace, device_model)
        root_w, delta = 1.0 / sigmas[-2], TWO_PI * trace.freq_hz - truth.omega_m  # the last pass's weights

        def oracle(g):  # cost and amplitudes
            cav, mech = basis(delta, g, truth.kappa, truth.kappa_ex, truth.gamma_m, 0.0, truth.beta)
            design = np.column_stack([mech, cav, np.ones_like(delta)]) * root_w[:, None]
            amps, ssr = np.linalg.lstsq(design, (trace.values - 0.5) * root_w, rcond=None)[:2]
            return 0.5 * float(ssr[0]), amps

        log_g, width = math.log(truth.g), 0.15  # at least 4 sigma of ln g either side
        for _ in range(3):  # a lattice of 41 nodes, then the same shrunk about its best node
            lattice = np.linspace(log_g - width, log_g + width, 41)
            best_cost, log_g = min((oracle(math.exp(x))[0], x) for x in lattice)
            resolution, width = lattice[1] - lattice[0], width * 5.0 / 41.0
        g_fit, *amps_fit = passes[-1]["fit"].params
        fit_cost, amps = oracle(g_fit)
        assert min(amps_fit) > 0.0 and not fit.at_bound
        assert abs(math.log(g_fit) - log_g) <= resolution
        assert fit_cost <= best_cost + 1e-6 * max(best_cost, 1.0)
        np.testing.assert_allclose(amps_fit, amps, rtol=1e-6)
        return fit, truth

    def test_noiseless(self, device, device_model, monkeypatch):
        fit, truth = self.run_case(device, device_model, monkeypatch, noisy=False)
        assert fit.params["g"] == pytest.approx(truth.g, rel=1e-4)
        assert fit.params["n_c"] == pytest.approx(0.2, rel=1e-4)

    def test_noisy(self, device, device_model, monkeypatch):
        self.run_case(device, device_model, monkeypatch, noisy=True)


class TestOptimizerContracts:
    def test_objective_decrease(self, device, device_model, monkeypatch):
        trace, _ = output_trace(device, 4000.0, seed=0, n_avg=20000, points=2048)
        passes = recorded_passes(monkeypatch)
        fit = em.fit_full_model(trace, device_model)
        assert fit.step_costs  # at least one accepted profile step
        assert all(after < before for before, after in fit.step_costs)
        assert fit.n_iter == len(fit.step_costs) == sum(record["fit"].n_iter for record in passes)

    def test_bit_identical_reruns(self, device, device_model):
        trace, truth = output_trace(device, 4000.0, seed=5, n_avg=20000, points=512)
        params = replace(device_model, g=truth.g)
        for free in (DEFAULT_FREE, PINNED_G):
            fit1, fit2 = (em.fit_full_model(trace, params, free=free) for _ in range(2))
            assert fit1.to_json() == fit2.to_json()
            assert fit1.step_costs == fit2.step_costs
            assert fit1.covariance.tobytes() == fit2.covariance.tobytes()

    def test_zero_effect_parameter_rejected(self, device, device_model):
        # g pinned at zero: n_m_T has no effect on the model
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 1e5, center + 1e5, 128)
        trace = em.output_noise_spectrum(freq, model_params(device, 0.0, n_c=0.3))
        pinned = replace(device_model, g=0.0, n_c=0.3)
        with pytest.raises(DegenerateFitError) as err:
            em.fit_full_model(trace, pinned, free=("n_m_T", "n_add_eff"))
        assert err.value.pair == ("n_m_T", "n_m_T")

    def test_validation_errors(self, device, device_model):
        trace, _ = output_trace(device, 4000.0, seed=0, points=256)
        # kappa, delta_tilde and gamma_m are measured independently, and the message says where
        with pytest.raises(ParameterError, match=r"cannot free parameters: \['kappa'\]; kappa is pinned to the probe-tone"):
            em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("kappa",))
        with pytest.raises(ParameterError, match=r"\['delta_tilde'\]; delta_tilde is pinned to the probe-tone"):
            em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("delta_tilde",))
        with pytest.raises(ParameterError, match="gamma_m is pinned to the low-drive line width"):
            em.fit_full_model(trace, device_model, free=("n_add_eff", "gamma_m"))
        with pytest.raises(ParameterError, match="duplicate"):
            em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("g",))
        with pytest.raises(ParameterError, match="cannot free"):
            em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("omega_m",))


class TestWeightedPass:
    def test_runs_once_per_irls_pass(self, device, device_model, monkeypatch):
        # every pass is one call, warm-started from the last pass's own node
        # and g; the message sums the calls' profile counts
        trace, _ = output_trace(device, 4000.0, seed=2, n_avg=20000, points=2048)
        passes = recorded_passes(monkeypatch)
        fit = em.fit_full_model(trace, device_model)
        assert len(passes) >= 2 and fit.message.startswith(f"separable fit: {len(passes)} IRLS passes")
        nodes, cost_calls = (sum(c) for c in zip(*(record["fit"].counts for record in passes)))
        assert fit.message.endswith(f", {nodes} profile nodes in {cost_calls} calls")
        assert (passes[0]["g"], passes[0]["start"]) == (device_model.g, None)
        for record, last in zip(passes[1:], passes):
            last = last["fit"]
            assert (record["g"], record["start"]) == (last.params[0], last.node) and math.exp(last.node) == record["g"]

    def test_fit_weighted_gives_each_pass(self, device, device_model, monkeypatch):
        # fit_weighted on a pass's normal equations and arguments gives that
        # pass of the fit, bit for bit, and appends its accepted steps
        trace, _ = output_trace(device, 4000.0, seed=2, n_avg=20000, points=2048)
        passes = recorded_passes(monkeypatch)
        fit = em.fit_full_model(trace, device_model)
        fitted, done = passes[:], 0  # each fit_weighted below records one more pass
        for record in fitted:
            step_costs = []
            res = estimation.fit_weighted(record["normal"], record["scan"], record["g"], record["start"], step_costs)
            assert res == record["fit"] and tuple(step_costs) == fit.step_costs[done : done + res.n_iter]
            done += res.n_iter
        assert len(fitted) >= 2 and done == fit.n_iter

    @pytest.mark.parametrize("free", [DEFAULT_FREE, ("g", "n_add_eff", "n_c", "n_m_T"), ("n_m_T", "g", "n_add_eff")])
    def test_last_params_are_the_fits_g_and_amplitudes(self, device, device_model, monkeypatch, free):
        # g first, then the free amplitudes in the order of `free`
        trace, _ = output_trace(device, 4000.0, seed=4, n_avg=20000, points=1024)
        passes = recorded_passes(monkeypatch)
        fit = em.fit_full_model(trace, device_model, free=free)
        assert passes[-1]["fit"].params == (fit.params["g"], *(fit.params[name] for name in free if name != "g"))

    def test_every_pass_profiles_the_fixed_scan(self, device, device_model, monkeypatch):
        # each pass profiles g over one scan, fixed by kappa and gamma_m,
        # whatever g params holds
        trace, truth = output_trace(device, 4000.0, seed=5, points=1024)
        passes = recorded_passes(monkeypatch)
        for g in (0.0, truth.g, 3.0 * truth.g):
            em.fit_full_model(trace, replace(device_model, g=g))
        scan = passes[0]["scan"]
        assert math.exp(scan[0]) == pytest.approx(0.5 * math.sqrt(1e-3 * truth.kappa * truth.gamma_m))
        assert math.exp(scan[-1]) == pytest.approx(10.0 * truth.kappa)
        for record in passes:
            np.testing.assert_array_equal(record["scan"], scan)

    def test_pinned_g_passes_no_scan(self, device, device_model, monkeypatch):
        # without g in free every pass keeps the pinned g and profiles nothing
        trace, truth = output_trace(device, 4000.0, seed=4, n_avg=20000, points=2048)
        passes = recorded_passes(monkeypatch)
        fit = em.fit_full_model(trace, replace(device_model, g=truth.g), free=PINNED_G)
        for record in passes:
            res = record["fit"]
            assert record["scan"] is None and record["start"] is None and record["g"] == truth.g
            assert (res.params[0], res.n_iter, res.node, res.counts) == (truth.g, 0, None, (0, 0))
        assert fit.message.endswith(", 0 profile nodes in 0 calls")
        assert passes and "g" not in fit.params and fit.step_costs == () and fit.n_iter == 0
