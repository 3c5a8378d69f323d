import math
import re

import numpy as np
import pytest

import emcool as em
from emcool.errors import ParameterError
from emcool.spectra import grid_for
from emcool.synth import periodogram_factors

from conftest import model_params


class TestNoiseConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            em.NoiseConfig(n_avg=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # each once constructed
        with pytest.raises(ParameterError, match=f"^n_avg must be a finite number >= 1, got {bad!r}$"):
            em.NoiseConfig(n_avg=bad)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_philox_range_rejected(self, seed):
        # each once constructed, and generate_spectrum raised OverflowError
        with pytest.raises(ParameterError, match=re.escape(f"seed must be a finite number in [0, {2**64}), got {seed}")):
            em.NoiseConfig(seed=seed)


class TestGenerateSpectrum:
    def test_variance_collapse_limit(self, device):
        params = model_params(device, 4000.0)
        grid = grid_for(params, points=64)
        clean = em.output_noise_spectrum(grid, params)
        noisy = em.generate_spectrum(params, em.NoiseConfig(n_avg=10**9, seed=3), freq_hz=grid)
        np.testing.assert_allclose(noisy.values, clean.values, rtol=1e-4)
        # and comfortably on the full default grid at 1e10 averages
        grid = grid_for(params, points=4096)
        clean = em.output_noise_spectrum(grid, params)
        noisy = em.generate_spectrum(params, em.NoiseConfig(n_avg=10**10, seed=3), freq_hz=grid)
        np.testing.assert_allclose(noisy.values, clean.values, rtol=1e-4)

    def test_deterministic_given_seed(self, device):
        params = model_params(device, 1000.0)
        grid = grid_for(params, points=256)
        a = em.generate_spectrum(params, em.NoiseConfig(n_avg=500, seed=42), freq_hz=grid)
        b = em.generate_spectrum(params, em.NoiseConfig(n_avg=500, seed=42), freq_hz=grid)
        assert np.array_equal(a.values, b.values)
        c = em.generate_spectrum(params, em.NoiseConfig(n_avg=500, seed=43), freq_hz=grid)
        assert not np.array_equal(a.values, c.values)

    def test_sample_variance_matches_law(self, device):
        # flat model (no coupling, no cavity noise): values/model are iid
        # Gamma(n_avg, 1/n_avg), so the sample variance is 1/n_avg
        params = model_params(device, 0.0, n_c=0.0)
        grid = np.linspace(10e6, 11e6, 10_000)
        n_avg = 100
        noisy = em.generate_spectrum(params, em.NoiseConfig(n_avg=n_avg, seed=11), freq_hz=grid)
        ratio = noisy.values / em.noise_floor(params)
        assert np.var(ratio) == pytest.approx(1.0 / n_avg, rel=0.05)

    def test_mean_unbiased(self, device):
        # grand mean over 1000 seeds within 3 standard errors of the model
        n_bins, n_avg, n_seeds = 128, 50, 1000
        deviations = np.empty(n_seeds)
        for seed in range(n_seeds):
            factors = periodogram_factors(n_bins, n_avg, seed)
            deviations[seed] = factors.mean() - 1.0
        grand = deviations.mean()
        se = 1.0 / math.sqrt(n_avg * n_bins * n_seeds)
        assert abs(grand) < 3 * se

    def test_positivity(self, device):
        params = model_params(device, 500.0)
        grid = grid_for(params, points=512)
        for seed in range(10):
            trace = em.generate_spectrum(params, em.NoiseConfig(n_avg=2, seed=seed), freq_hz=grid)
            assert np.all(trace.values > 0.0)

    def test_meta_records_provenance(self, device):
        params = model_params(device, 500.0)
        trace = em.generate_spectrum(params, em.NoiseConfig(n_avg=500, seed=9), freq_hz=grid_for(params, points=64))
        assert trace.meta["n_avg"] == 500
        assert trace.meta["seed"] == 9
        assert trace.unit is em.SpectrumUnit.QUANTA

    def test_default_grid_from_config(self, device):
        # without freq_hz the trace lies on the model's own default grid
        params = model_params(device, 500.0)
        trace = em.generate_spectrum(params, em.NoiseConfig(n_avg=500, seed=0))
        assert trace.freq_hz.tobytes() == grid_for(params).tobytes()


class TestPeriodogramFactors:
    @pytest.mark.parametrize("name, args", [
        ("seed", (16, 500, -1)),
        ("seed", (16, 500, 2**64)),
        ("n_avg", (16, math.nan, 0)),
        ("n_avg", (16, math.inf, 0)),
        ("n_avg", (16, 0, 0)),
        ("n_avg", (16, 0.5, 0)),
        ("n_bins", (-1, 500, 0)),
    ])
    def test_out_of_range_rejected(self, name, args):
        # each once raised OverflowError, ZeroDivisionError or numpy's
        # "negative dimensions", or returned factors (all nan for nan or inf)
        with pytest.raises(ParameterError, match=f"^{name} must be a finite number"):
            periodogram_factors(*args)

    def test_platform_stable_draws(self):
        # Philox is counter-based; freeze the first draws of seed 0 so a
        # silent generator change cannot slip through
        got = periodogram_factors(4, 500, 0)
        expected = np.array(
            [1.006471798202569, 1.0598177945487675, 0.9975861643877721, 0.9503835381288535]
        )
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    def test_moments(self):
        factors = periodogram_factors(200_000, 500, 1)
        assert factors.mean() == pytest.approx(1.0, abs=3 / math.sqrt(500 * 200_000))
        assert factors.var() == pytest.approx(1.0 / 500, rel=0.02)
