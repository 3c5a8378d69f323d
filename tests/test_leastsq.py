"""Freed-shape fits: the outer profile over a freed kappa, gamma_m or
delta_tilde (`estimation.fit_weighted`) at the weighted least-squares cost of
`fit_full_model`, with g profiled inside it."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import emcool as em
from emcool import estimation
from emcool.errors import DegenerateFitError, ParameterError
from emcool.estimation import DEFAULT_FREE

from conftest import model_params, output_trace

TWO_PI = 2.0 * math.pi


def recorded_profiles(monkeypatch):
    """Replace `estimation.fit_weighted` by a wrapper that keeps the
    arguments and the result of every call, one per IRLS pass."""
    calls = []
    original = estimation.fit_weighted

    def recording(pass_at, scan, g_scan, g, step_costs):
        res = original(pass_at, scan, g_scan, g, step_costs)
        calls.append(((pass_at, scan, g_scan, g), res))
        return res

    monkeypatch.setattr(estimation, "fit_weighted", recording)
    return calls


def grid_search_oracle(objective, center, half_widths, n_points=41, passes=3):
    """Brute-force lattice minimizer: a dense grid around `center`, then
    the same grid shrunk around the best node; returns the best node, its
    cost and the spacing of the last lattice."""
    center = np.asarray(center, dtype=float)
    widths = np.asarray(half_widths, dtype=float)
    for _ in range(passes):
        axes = [np.linspace(c - w, c + w, n_points) for c, w in zip(center, widths)]
        costs = objective(*axes)
        best = np.unravel_index(int(np.argmin(costs)), costs.shape)
        center = np.array([axis[i] for axis, i in zip(axes, best)])
        resolution = 2.0 * widths / (n_points - 1)
        widths = widths * (5.0 / n_points)  # keep a few old cells inside the new lattice
    return center, float(np.min(costs)), resolution


class TestOracleEquivalence:
    """The freed-delta_tilde fit against a dense grid over delta_tilde and
    ln g of the same cost, at the weights of the fit's last pass."""

    def run_case(self, device, device_model, monkeypatch, noisy):
        if noisy:
            trace, truth = output_trace(device, 4000.0, seed=3, n_avg=20000, points=2048)
        else:
            freq = em.sideband_grid(device.mech.omega_m, 0.0, device.cavity.kappa, points=2048, halfspan_hz=600e3)
            truth = model_params(device, 4000.0, n_c=0.2, delta_tilde=0.03 * device.cavity.kappa)
            trace = em.output_noise_spectrum(freq, truth).with_meta(n_avg=20000)  # weighted as if averaged
        calls = recorded_profiles(monkeypatch)
        fit = em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("delta_tilde",))
        assert "delta_tilde" not in fit.at_bound
        (pass_at, _, _, _), res = calls[-1]
        kappa = device_model.kappa

        def objective(x, log_g):  # cost on the lattice x = delta_tilde / kappa by ln g
            return np.array([pass_at(math.exp(xi)).cost(np.exp(log_g)) for xi in x])

        x_fit, g_fit = math.log(res.params[0]), res.params[1]
        assert fit.params["delta_tilde"] == kappa * x_fit  # delta_tilde = kappa ln v
        assert fit.params["g"] == g_fit
        # about the truth, at least 7 sigma of delta_tilde and 4 of ln g either side
        best, best_cost, resolution = grid_search_oracle(objective, (truth.delta_tilde / kappa, math.log(truth.g)), (0.1, 0.15))
        gap = np.abs(np.array([x_fit, math.log(g_fit)]) - best)
        assert np.all(gap <= resolution), f"fit-oracle gap {gap} exceeds lattice {resolution}"
        fit_cost = float(pass_at(res.params[0]).cost(np.array([g_fit]))[0])
        assert fit_cost <= best_cost + 1e-6 * max(best_cost, 1.0)
        return fit

    def test_noiseless(self, device, device_model, monkeypatch):
        fit = self.run_case(device, device_model, monkeypatch, noisy=False)
        # to the profile's 2e-5 bracket in delta_tilde / kappa
        assert fit.params["delta_tilde"] == pytest.approx(0.03 * device.cavity.kappa, abs=2e-5 * device.cavity.kappa)

    def test_noisy(self, device, device_model, monkeypatch):
        self.run_case(device, device_model, monkeypatch, noisy=True)


class TestOptimizerContracts:
    def test_objective_decrease(self, device, device_model):
        trace, _ = output_trace(device, 4000.0, seed=0, n_avg=20000, points=2048)
        fit = em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("delta_tilde",))
        assert fit.step_costs  # at least one accepted outer step
        assert all(after < before for before, after in fit.step_costs)
        assert fit.n_iter == len(fit.step_costs)

    def test_bit_identical_reruns(self, device, device_model):
        trace, _ = output_trace(device, 4000.0, seed=5, n_avg=20000, points=512)
        for name in ("kappa", "delta_tilde"):  # an open and a bounded profile
            fit1, fit2 = (em.fit_full_model(trace, device_model, free=DEFAULT_FREE + (name,)) for _ in range(2))
            assert fit1.to_json() == fit2.to_json()
            assert fit1.step_costs == fit2.step_costs
            assert (fit1.covariance is None) == (fit2.covariance is None)
            if fit1.covariance is not None:
                assert fit1.covariance.tobytes() == fit2.covariance.tobytes()

    def test_zero_effect_parameter_rejected(self, device, device_model):
        # g pinned at zero: n_m_T has no effect on the model at any delta_tilde
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - 1e5, center + 1e5, 128)
        trace = em.output_noise_spectrum(freq, model_params(device, 0.0, n_c=0.3))
        pinned = replace(device_model, g=0.0, n_c=0.3)
        with pytest.raises(DegenerateFitError) as err:
            em.fit_full_model(trace, pinned, free=("n_m_T", "n_add_eff", "delta_tilde"))
        assert err.value.pair == ("n_m_T", "n_m_T")

    def test_collinear_pair_rejected(self, device, device_model):
        # over a window << kappa the cavity term is flat at any freed kappa:
        # n_c and n_add_eff are indistinguishable
        center = device.mech.omega_m / TWO_PI
        freq = np.linspace(center - device.cavity.kappa / TWO_PI / 1e4, center + device.cavity.kappa / TWO_PI / 1e4, 64)
        trace = em.output_noise_spectrum(freq, model_params(device, 0.0, n_c=0.3))
        pinned = replace(device_model, g=0.0, n_m_T=0.0)
        with pytest.raises(DegenerateFitError) as err:
            em.fit_full_model(trace, pinned, free=("n_c", "n_add_eff", "kappa"))
        assert set(err.value.pair) == {"n_c", "n_add_eff"}

    def test_validation_errors(self, device, device_model):
        trace, _ = output_trace(device, 4000.0, seed=0, points=256)
        with pytest.raises(ParameterError, match="probe-tone"):
            em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("kappa", "gamma_m"))
        with pytest.raises(ParameterError, match="line width"):
            em.fit_full_model(trace, device_model, free=("n_add_eff", "gamma_m", "delta_tilde"))
        with pytest.raises(ParameterError, match="duplicate"):
            em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("kappa", "kappa"))
        with pytest.raises(ParameterError, match="cannot free"):
            em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("omega_m",))

    def test_exact_recovery_noiseless(self, device, device_model):
        freq = em.sideband_grid(device.mech.omega_m, 0.0, device.cavity.kappa, points=2048, halfspan_hz=600e3)
        truth = model_params(device, 4000.0, n_c=0.2)
        trace = em.output_noise_spectrum(freq, replace(truth, kappa=1.2 * truth.kappa)).with_meta(n_avg=20000)
        fit = em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("kappa",))
        assert fit.at_bound == ()  # the cavity noise n_c identifies kappa
        assert fit.params["kappa"] == pytest.approx(1.2 * truth.kappa, rel=1e-5)  # the profile's tolerance in ln kappa
        for name in ("g", "n_m_T", "n_c", "n_add_eff"):
            assert fit.params[name] == pytest.approx(getattr(truth, name), rel=1e-4), name


class TestOuterProfile:
    def test_scans_lie_about_the_start(self, device, device_model, monkeypatch):
        # each pass scans ln kappa from kappa_ex to 10 kappa and delta_tilde
        # / kappa over [-1, 1], about the starts in params (gamma_m: in
        # test_estimation's test_freed_gamma_m_starts_from_params)
        trace, _ = output_trace(device, 4000.0, seed=5, points=1024)
        start = replace(device_model, kappa=1.5 * device_model.kappa)
        expected = {  # scan ends, as the cost receives them, and spacing
            "kappa": (start.kappa_ex, 10.0 * start.kappa, math.log(10.0) / 16.0),
            "delta_tilde": (math.exp(-1.0), math.e, 1.0 / 16.0),
        }
        for name, (lo, hi, spacing) in expected.items():
            calls = recorded_profiles(monkeypatch)
            em.fit_full_model(trace, start, free=DEFAULT_FREE + (name,))
            assert calls
            for (_, scan, _, _), _ in calls:
                assert math.exp(scan[0]) == pytest.approx(lo, rel=1e-12)
                assert math.exp(scan[-1]) == pytest.approx(hi, rel=1e-12)
                assert np.all(np.diff(scan) <= spacing * (1.0 + 1e-9))
                assert np.all(np.diff(scan) > 0.9 * spacing)

    def test_message_counts_outer_nodes(self, device, device_model, monkeypatch):
        trace, _ = output_trace(device, 4000.0, seed=2, n_avg=20000, points=2048)
        calls = recorded_profiles(monkeypatch)
        fit = em.fit_full_model(trace, device_model, free=DEFAULT_FREE + ("delta_tilde",))
        g_nodes, g_calls, nodes, outer_calls = (sum(c) for c in zip(*(res.counts for _, res in calls)))
        assert f", {g_nodes} profile nodes in {g_calls} calls; delta_tilde profile: {nodes} nodes in {outer_calls} calls, 95% set bounded" in fit.message
        assert re.match(rf"separable fit: {len(calls)} IRLS passes", fit.message)
        assert sum(res.n_iter for _, res in calls) == fit.n_iter
        # exact counts: warm-starting each node's g profile from its nearest
        # costed node, not the first, saves ~30% of the g nodes here
        assert (g_nodes, g_calls, nodes, outer_calls) == (1049, 329, 82, 8)

    def test_pinned_g(self, device, device_model):
        # without g in free each outer node costs the pinned g alone
        trace, truth = output_trace(device, 4000.0, seed=4, n_avg=20000, points=2048)
        fit = em.fit_full_model(trace, replace(device_model, g=truth.g), free=("n_m_T", "n_c", "n_add_eff", "delta_tilde"))
        assert "g" not in fit.params and "delta_tilde" not in fit.at_bound
        assert abs(fit.params["delta_tilde"]) < 3.0 * fit.sigmas["delta_tilde"]
        assert "0 profile nodes in 0 calls" in fit.message


class TestUnidentifiedShapesFlagged:
    """On a 1.2 MHz window at n_d = 4000 neither kappa nor gamma_m is
    identified.  On these seeds a Gauss-Newton fit once returned them
    converged with nothing flagged and sigma up to 1e5 times the value; the
    outer profile's 95% set reaches an end of the scan instead."""

    @pytest.mark.parametrize("name,seed", [("kappa", s) for s in (0, 1, 2, 7, 8)] + [("gamma_m", s) for s in (0, 8)])
    def test_flagged(self, device, device_model, name, seed):
        trace, _ = output_trace(device, 4000.0, seed=seed, n_avg=20000, points=2048)
        fit = em.fit_full_model(trace, device_model, free=DEFAULT_FREE + (name,))
        assert name in fit.at_bound
        assert f"{name} profile: " in fit.message and "95% set open" in fit.message
