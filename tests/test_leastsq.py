import math

import numpy as np
import pytest

import emcool as em
from emcool.errors import DegenerateFitError, ParameterError
from emcool.estimation import lorentzian_model
from emcool.leastsq import _jacobian, fit_weighted
from emcool.synth import periodogram_factors


def three_param_model(freq, floor):
    def model(p):
        return lorentzian_model(freq, p[0], p[1], p[2], floor)

    return model


def grid_search_oracle(objective, truth, half_widths, n_points=50, passes=3):
    """Brute-force lattice minimizer: dense grid around `truth`, then local
    refinement by shrinking the lattice around the best node."""
    center = np.asarray(truth, dtype=float)
    widths = np.asarray(half_widths, dtype=float)
    best = center.copy()
    resolution = 2 * widths / (n_points - 1)
    for _ in range(passes):
        axes = [np.linspace(c - w, c + w, n_points) for c, w in zip(center, widths)]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=1)
        costs = objective(flat)
        best = flat[int(np.argmin(costs))]
        center = best
        resolution = 2 * widths / (n_points - 1)  # spacing of the lattice just searched
        widths = widths * (5.0 / n_points)  # keep a few old cells inside the new lattice
    return best, resolution


class TestOracleEquivalence:
    def make_data(self, noisy):
        freq = np.linspace(10.55e6, 10.57e6, 64)
        truth = np.array([10.56e6, 3.2e3, 5000.0])  # peak height ~1 quantum, ~9 noise sigma
        floor = 2.6
        clean = lorentzian_model(freq, truth[0], truth[1], truth[2], floor)
        if noisy:
            data = clean * periodogram_factors(freq.size, 500, 21)
        else:
            data = clean
        return freq, truth, floor, data

    def run_case(self, noisy):
        freq, truth, floor, data = self.make_data(noisy)
        model = three_param_model(freq, floor)
        n_avg = 500 if noisy else 1
        res = fit_weighted(
            model,
            data,
            p0=truth * np.array([1.0 + 1e-4, 1.2, 0.8]),
            log_scale=[False, True, True],
            names=("center", "fwhm", "area"),
            n_avg=n_avg,
            scales=(truth[1], 1.0, 1.0),
        )
        assert res.converged

        # oracle minimizes the same objective the converged fit minimizes:
        # weighted SSE under the fit's final (frozen) weights
        sigma = np.maximum(np.abs(res.model), 1e-300) / math.sqrt(n_avg)

        def objective(candidates, block=2048):
            # one broadcast model evaluation per block of candidates
            out = np.empty(candidates.shape[0])
            for start in range(0, candidates.shape[0], block):
                p = candidates[start : start + block, :, None]
                r = (data - lorentzian_model(freq, p[:, 0], p[:, 1], p[:, 2], floor)) / sigma
                out[start : start + block] = 0.5 * np.einsum("ij,ij->i", r, r)
            return out

        half_widths = np.array([2 * truth[1], 0.5 * truth[1], 0.3 * truth[2]])
        best, resolution = grid_search_oracle(objective, truth, half_widths)
        gap = np.abs(res.params - best)
        assert np.all(gap <= resolution), f"fit-oracle gap {gap} exceeds lattice {resolution}"

    def test_noiseless(self):
        self.run_case(noisy=False)

    def test_noisy(self):
        self.run_case(noisy=True)


class TestOptimizerContracts:
    def test_objective_decrease(self):
        freq = np.linspace(-10.0, 10.0, 128)
        clean = lorentzian_model(freq, 0.3, 2.0, 40.0, 1.5)
        data = clean * periodogram_factors(freq.size, 200, 5)

        def model(p):
            return lorentzian_model(freq, p[0], p[1], p[2], p[3])

        res = fit_weighted(
            model,
            data,
            p0=(0.0, 3.0, 30.0, 1.2),
            log_scale=[False, True, True, True],
            names=("center", "fwhm", "area", "floor"),
            n_avg=200,
            scales=(2.0, 1.0, 1.0, 1.0),
        )
        assert res.converged
        assert res.step_costs  # at least one accepted step
        assert all(after < before for before, after in res.step_costs)

    def test_bit_identical_reruns(self):
        freq = np.linspace(-10.0, 10.0, 96)
        data = lorentzian_model(freq, 0.1, 2.0, 40.0, 1.5) * periodogram_factors(96, 300, 8)

        def model(p):
            return lorentzian_model(freq, p[0], p[1], p[2], p[3])

        kwargs = dict(
            p0=(0.0, 33.0, 30.0, 1.2),
            log_scale=[False, True, True, True],
            names=("center", "fwhm", "area", "floor"),
            n_avg=300,
        )
        res1 = fit_weighted(model, data, **kwargs)
        res2 = fit_weighted(model, data, **kwargs)
        assert np.array_equal(res1.params, res2.params)
        assert np.array_equal(res1.sigmas, res2.sigmas)
        assert res1.cost == res2.cost
        assert res1.n_iter == res2.n_iter

    def test_zero_effect_parameter_rejected(self):
        x = np.linspace(0.0, 1.0, 32)
        data = 2.0 + x

        def model(p):
            return p[0] + p[1] * x  # p[2] unused

        with pytest.raises(DegenerateFitError) as err:
            fit_weighted(
                model, data, p0=(1.0, 1.0, 1.0), log_scale=[False, False, True],
                names=("offset", "slope", "ghost"),
            )
        assert err.value.pair == ("ghost", "ghost")

    def test_collinear_pair_rejected(self):
        x = np.linspace(0.0, 1.0, 32)
        data = 2.0 + x

        def model(p):
            return p[0] + p[1] * x + p[2] * x

        with pytest.raises(DegenerateFitError) as err:
            fit_weighted(
                model, data, p0=(1.0, 1.0, 1.0), log_scale=[False, False, False],
                names=("offset", "slope_a", "slope_b"),
            )
        assert set(err.value.pair) == {"slope_a", "slope_b"}

    def test_at_bound_flag_on_collapsing_amplitude(self):
        x = np.linspace(-5.0, 5.0, 64)
        data = np.full(64, 3.0)  # no bump at all

        def model(p):
            return p[0] + p[1] * np.exp(-0.5 * x * x)

        res = fit_weighted(
            model, data, p0=(2.5, 1.0), log_scale=[False, True], names=("floor", "amp"),
        )
        assert res.params[1] < 1e-8
        assert res.at_bound is not None and bool(res.at_bound[1])

    def test_validation_errors(self):
        def model(p):
            return np.full(16, p[0])

        with pytest.raises(ParameterError):
            fit_weighted(model, np.ones(16), p0=(1.0, 2.0), log_scale=[False], names=("a",))
        with pytest.raises(ParameterError):
            fit_weighted(model, np.ones(16), p0=(-1.0,), log_scale=[True], names=("a",))
        with pytest.raises(ParameterError):
            fit_weighted(model, np.ones(16), p0=(1.0,), log_scale=[False], names=("a",), n_avg=0.5)
        with pytest.raises(ParameterError):
            fit_weighted(
                model, np.ones(16), p0=(1.0,), log_scale=[False], names=("a",), scales=(-1.0,)
            )

    def test_nonfinite_initial_model_rejected(self):
        def model(p):
            return np.full(16, math.nan)

        with pytest.raises(ParameterError):
            fit_weighted(model, np.ones(16), p0=(1.0,), log_scale=[False], names=("a",))

    def test_exact_recovery_noiseless(self):
        freq = np.linspace(-8.0, 8.0, 256)
        truth = (0.37, 2.4, 55.0, 1.9)
        data = lorentzian_model(freq, *truth)

        def model(p):
            return lorentzian_model(freq, p[0], p[1], p[2], p[3])

        res = fit_weighted(
            model,
            data,
            p0=(0.0, 3.5, 30.0, 1.5),
            log_scale=[False, True, True, True],
            names=("center", "fwhm", "area", "floor"),
            scales=(2.4, 1.0, 1.0, 1.0),
        )
        assert res.converged
        np.testing.assert_allclose(res.params, truth, rtol=1e-7)


class TestComplexStepJacobian:
    def test_lorentzian_matches_closed_form(self):
        freq = np.linspace(-10.0, 10.0, 256)
        p = np.array([0.3, 2.0, 40.0, 1.5])  # center, fwhm, area, floor
        log_scale = np.array([False, True, True, False])
        scale = np.array([2.0, 1.0, 1.0, 0.7])
        sigma = np.linspace(0.5, 2.0, freq.size)
        calls = []

        def model(q):
            calls.append(q.copy())
            return lorentzian_model(freq, *q)

        jac = _jacobian(model, p, np.where(log_scale, p, scale), sigma)
        assert len(calls) == p.size  # one model call per column

        # L = floor + h / (1 + x^2) with h = 2 area / (pi fwhm), x = 2 (f - center) / fwhm
        center, fwhm, area, _ = p
        x = 2.0 * (freq - center) / fwhm
        h = 2.0 * area / (math.pi * fwhm)
        den = 1.0 + x * x
        d_center = 4.0 * h * x / (fwhm * den * den)
        d_fwhm = -h / (fwhm * den) + 2.0 * h * x * x / (fwhm * den * den)
        d_area = h / (area * den)
        d_floor = np.ones_like(freq)
        # u = center / scale, log fwhm, log area, floor / scale; r = (data - L) / sigma
        expected = -np.stack(
            [d_center * scale[0], d_fwhm * fwhm, d_area * area, d_floor * scale[3]], axis=1
        ) / sigma[:, None]
        np.testing.assert_allclose(jac, expected, rtol=1e-12, atol=0.0)
