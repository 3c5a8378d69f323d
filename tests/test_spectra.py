import bz2
import gzip
import lzma
import math
import os
import re
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import emcool as em
from emcool import spectra
from emcool.constants import HBAR
from emcool.errors import (
    ParameterError,
    PeakDetectionError,
    UnitError,
)
from emcool.spectra import _basis_factors, _basis_row, _trapezoid, grid_for, trace_from_csv, trace_to_csv
from emcool.synth import periodogram_factors

from conftest import basis, gamma_total_at, model_params

TWO_PI = 2.0 * math.pi


def mirrored_deltas(halfspan, n_side):
    """Offset grid that is exactly symmetric in floating point."""
    side = np.linspace(halfspan / n_side, halfspan, n_side)
    return np.concatenate([-side[::-1], [0.0], side])


def displacement_scale(device, power_out):
    """Detected W/Hz to displacement m^2/Hz, S_x = 2 (kappa omega_m / (G kappa_ex))^2 S / P_o:
    the narrowband single-sideband relation at optimal red detuning."""
    cavity = device.cavity
    return 2.0 * (cavity.kappa * device.mech.omega_m / (device.coupling.G * cavity.kappa_ex)) ** 2 / power_out


class TestSusceptibilities:
    def test_cavity_resonance(self, device):
        kappa = device.cavity.kappa
        chi = em.cavity_susceptibility(-1e4, kappa, 1e4)
        assert chi == pytest.approx(2.0 / kappa)
        assert chi.imag == 0.0

    def test_cavity_half_width_point(self, device):
        kappa = device.cavity.kappa
        chi = em.cavity_susceptibility(kappa / 2, kappa, 0.0)
        assert abs(chi) == pytest.approx((2.0 / kappa) / math.sqrt(2.0), rel=1e-12)

    def test_cavity_direct_complex(self, device):
        kappa = device.cavity.kappa
        delta = TWO_PI * 100e3
        expected = 1.0 / complex(kappa / 2, delta)  # brute-force complex arithmetic
        assert em.cavity_susceptibility(delta, kappa, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_mech_resonance(self, device):
        gm = device.mech.gamma_m
        assert em.mech_susceptibility(0.0, gm) == pytest.approx(2.0 / gm)

    def test_mech_half_width(self, device):
        gm = device.mech.gamma_m
        assert abs(em.mech_susceptibility(gm / 2, gm)) == pytest.approx(
            (2.0 / gm) / math.sqrt(2.0), rel=1e-12
        )

    def test_mech_direct_complex(self, device):
        gm = device.mech.gamma_m
        delta = 3.7 * gm
        assert em.mech_susceptibility(delta, gm) == pytest.approx(
            1.0 / complex(gm / 2, delta), rel=1e-14
        )


    def test_infinite_rate_rejected(self):
        # each once returned 0
        with pytest.raises(ParameterError, match="^kappa must be a finite number > 0, got inf$"):
            em.cavity_susceptibility(0.0, math.inf, 0.0)
        with pytest.raises(ParameterError, match="^gamma_m must be a finite number > 0, got inf$"):
            em.mech_susceptibility(0.0, math.inf)


class TestDressedSusceptibility:
    def test_zero_coupling_is_bare(self, device):
        params = model_params(device, 0.0)
        delta = np.linspace(-1e3, 1e3, 101)
        got = em.dressed_mech_susceptibility(delta, params)
        np.testing.assert_allclose(got, em.mech_susceptibility(delta, device.mech.gamma_m), rtol=1e-12)

    def test_closed_form_identity_for_approx(self, device):
        # the rotating-wave self-energy -j g^2 chi_c, the one output_noise_values models
        g = TWO_PI * 50e3
        params = model_params(device, 0.0)
        params = em.ModelParams(**{**params.__dict__, "g": g})
        kappa, gm = params.kappa, params.gamma_m
        delta = np.linspace(-3 * kappa, 3 * kappa, 999)
        got = em.dressed_mech_susceptibility(delta, params)
        chi_c_inv = kappa / 2 + 1j * delta
        chi_m_inv = gm / 2 + 1j * delta
        closed = chi_c_inv / (g * g + chi_m_inv * chi_c_inv)
        np.testing.assert_allclose(got, closed, rtol=1e-10)

    @pytest.mark.parametrize(
        "g_over_kappa, lo, hi",
        [(0.5, 0.84, 0.88), (2.0, 0.98, 1.0)],  # maxima at +-sqrt(g^2 - kappa^2/16)
    )
    def test_strong_coupling_split(self, device, g_over_kappa, lo, hi):
        kappa = device.cavity.kappa
        g = g_over_kappa * kappa
        params = em.ModelParams(**{**model_params(device, 0.0).__dict__, "g": g})
        delta = np.linspace(-3 * g, 3 * g, 600001)
        mag = np.abs(em.dressed_mech_susceptibility(delta, params))
        i_pos = int(np.argmax(np.where(delta > 0, mag, -np.inf)))
        i_neg = int(np.argmax(np.where(delta < 0, mag, -np.inf)))
        split = delta[i_pos] - delta[i_neg]
        assert lo <= split / (2 * g) <= hi

    def test_weak_coupling_linewidth(self, device):
        kappa, gm = device.cavity.kappa, device.mech.gamma_m
        g = kappa / 50
        params = em.ModelParams(**{**model_params(device, 0.0).__dict__, "g": g})
        expected = gm + 4 * g * g / kappa
        delta = np.linspace(-10 * expected, 10 * expected, 400001)
        mag2 = np.abs(em.dressed_mech_susceptibility(delta, params)) ** 2
        above = delta[mag2 >= mag2.max() / 2]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(expected, rel=0.01)

    def test_pole_margin_positive_across_regimes(self, device):
        # the rotating-wave model is passive: a dressed pole reaches the real
        # axis only at 4g^2 = -kappa gamma_m (1 + 4 delta_tilde^2/(kappa + gamma_m)^2) < 0,
        # so every coupling is stable, over many decades of kappa and gamma_m
        # and detunings of either sign (blue-detuned runaway lives in the
        # counter-rotating sector the model excludes); the poles solve
        # 4 delta^2 - 2j (A + gamma_m) delta - (4 g^2 + A gamma_m) = 0, A = kappa + 2j delta_tilde
        rng = np.random.default_rng(2011)
        for _ in range(2000):
            kappa = 10.0 ** rng.uniform(0.0, 8.0)
            gamma_m = 10.0 ** rng.uniform(-3.0, 5.0)
            dt = rng.uniform(-2.0, 2.0) * device.mech.omega_m
            g = rng.choice([0.0, 10.0 * kappa * rng.uniform(), 10.0 * kappa * 10.0 ** rng.uniform(-8.0, 0.0)])
            a = kappa + 2j * dt
            poles = np.roots([4.0, -2j * (a + gamma_m), -(4.0 * g * g + a * gamma_m)])
            assert np.min(poles.imag) > 0.0


class TestOutputNoiseSpectrum:
    def test_flat_floor_without_coupling(self, device):
        params = model_params(device, 0.0, n_m_T=40.0, n_c=0.0)
        grid = em.sideband_grid(device.mech.omega_m, 0.0, device.cavity.kappa, points=256)
        trace = em.output_noise_spectrum(grid, params)
        np.testing.assert_allclose(trace.values, 0.5 + 2.1, rtol=1e-12)

    def test_symmetry_in_delta(self, device):
        params = model_params(device, 4000.0, n_m_T=40.0, n_c=0.3)
        delta = mirrored_deltas(5 * device.cavity.kappa, 4096)
        values = em.output_noise_values(delta, params)
        np.testing.assert_allclose(values, values[::-1], rtol=1e-12)

    def test_floor_bound_and_approach(self, device):
        params = model_params(device, 4000.0, n_m_T=40.0, n_c=0.3)
        floor = em.noise_floor(params)
        kappa = device.cavity.kappa
        delta = np.linspace(-2 * kappa, 2 * kappa, 4001)
        assert np.all(em.output_noise_values(delta, params) >= floor)
        far = em.output_noise_values(np.array([1e3 * kappa, -1e3 * kappa]), params)
        np.testing.assert_allclose(far, floor, rtol=1e-6)

    def test_peak_splitting_follows_2g(self, device):
        # thermally occupied cavity (the regime where splitting is visible)
        kappa = device.cavity.kappa
        for ratio in (1.5, 2.0, 3.0, 4.0):
            g = ratio * kappa / 2
            params = em.ModelParams(**{**model_params(device, 0.0, n_c=0.3).__dict__, "g": g})
            delta = np.linspace(-3 * g - 2 * kappa, 3 * g + 2 * kappa, 200001)
            vals = em.output_noise_values(delta, params)
            i_pos = int(np.argmax(np.where(delta > 0, vals, -np.inf)))
            i_neg = int(np.argmax(np.where(delta < 0, vals, -np.inf)))
            split = delta[i_pos] - delta[i_neg]
            assert split == pytest.approx(2 * g, rel=0.05)

    def test_trace_metadata_and_axis(self, device):
        params = model_params(device, 100.0)
        grid = grid_for(params, points=128)
        trace = em.output_noise_spectrum(grid, params).with_meta(n_avg=7)
        assert trace.unit is em.SpectrumUnit.QUANTA
        assert trace.meta["n_avg"] == 7
        assert trace.meta["center_hz"] == pytest.approx(device.mech.omega_m / TWO_PI)


BASIS_CASES = [
    # (n_d, n_m_T, n_c, n_add_eff, delta_tilde in units of kappa)
    (0.0, 40.0, 0.3, 2.1, 0.0),
    (100.0, 39.0, 0.0, 2.1, 0.0),
    (4000.0, 40.0, 0.3, 0.0, 0.0),
    (2e5, 40.0, 0.3, 2.1, 0.0),
    (1e6, 5.0, 1.0, 0.7, 0.05),
]


class TestOutputNoiseOracle:
    """`output_noise_values`, the fit's basis through `_spectrum`, against the
    spectrum built from the susceptibilities.

    The rotating-wave equations a = chi_c (sqrt(kappa) xi_c - j g b) and
    b = chi_m (sqrt(gamma_m) xi_m - j g a) give a = chi_c chi_eff (sqrt(kappa)
    xi_c / chi_m - j g sqrt(gamma_m) xi_m), with chi_eff the dressed response.
    The detected noise is 1/2 + n_add_eff + beta kappa_ex <a^dag a>, so
    S = 1/2 + n_add_eff + beta kappa_ex |chi_c chi_eff|^2 (kappa n_c / |chi_m|^2
    + g^2 gamma_m n_m^T): the basis is A = beta kappa_ex |chi_c chi_eff|^2
    kappa / |chi_m|^2 and B = beta kappa_ex |chi_c chi_eff|^2 g^2 gamma_m.
    """

    @staticmethod
    def oracle_basis(delta, params):
        chi_c = em.cavity_susceptibility(delta, params.kappa, params.delta_tilde)
        chi_m = em.mech_susceptibility(delta, params.gamma_m)
        chi_eff = em.dressed_mech_susceptibility(delta, params)
        out = params.beta * params.kappa_ex * np.abs(chi_c * chi_eff) ** 2
        return out * params.kappa / np.abs(chi_m) ** 2, out * params.g**2 * params.gamma_m

    def check(self, delta, params):
        cav, mech = self.oracle_basis(delta, params)
        oracle = 0.5 + params.n_add_eff + params.n_c * cav + params.n_m_T * mech
        np.testing.assert_allclose(em.output_noise_values(delta, params), oracle, rtol=1e-12, atol=0.0)
        args = (params.g, params.kappa, params.kappa_ex, params.gamma_m, params.delta_tilde, params.beta)
        np.testing.assert_allclose(basis(delta, *args), (cav, mech), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("g_over_kappa", [0.0, 0.01, 0.3, 1.5])
    @pytest.mark.parametrize("dt_over_kappa", [0.0, 0.07, -0.2])
    def test_matches_the_susceptibilities(self, device, g_over_kappa, dt_over_kappa):
        kappa = device.cavity.kappa
        params = model_params(device, 0.0, n_c=0.3, delta_tilde=dt_over_kappa * kappa)
        params = em.ModelParams(**{**params.__dict__, "g": g_over_kappa * kappa})
        assert params.beta < 1.0 and params.kappa_ex < params.kappa
        side = np.geomspace(1e-8, 4.0, 2000) * kappa  # resolves the mechanical line too
        self.check(np.concatenate([-side[::-1], [0.0], side]), params)

    @pytest.mark.parametrize("n_d,n_m_T,n_c,n_add_eff,dt", BASIS_CASES)
    def test_basis_cases_match(self, device, n_d, n_m_T, n_c, n_add_eff, dt):
        # drives from none to strong coupling on a linear grid over +-3 kappa
        params = model_params(device, n_d, n_m_T=n_m_T, n_c=n_c, n_add_eff=n_add_eff,
                              delta_tilde=dt * device.cavity.kappa)
        self.check(np.linspace(-3 * device.cavity.kappa, 3 * device.cavity.kappa, 4096), params)


class TestSeparableBasis:
    def test_basis_rows_per_coupling(self, device):
        params = model_params(device, 4000.0)
        delta = np.linspace(-1e6, 1e6, 257)
        gs = np.array([0.0, 1e3, params.g, 1e6])
        factors = _basis_factors(delta, params.kappa, params.kappa_ex, params.gamma_m, params.delta_tilde, params.beta)
        rows = _basis_row(factors, gs[:, None])
        assert rows.shape == (4, 257)
        for row, g in enumerate(gs):
            np.testing.assert_array_equal(rows[row], _basis_row(factors, g))
        mech = rows * (factors[4] * np.square(gs[:, None]))  # B = 4 gamma_m g^2 s
        assert not np.any(mech[0])

class TestWeakCouplingSpectrum:
    """The Lorentzian weak-coupling limit of the output spectrum,
    1/2 + n_add' + 4 beta (kappa_ex/kappa) Gamma gamma_m n_m^T / ((gamma_m + Gamma)^2 + 4 delta^2)
    with Gamma = 4 g^2 / kappa; at delta = delta_tilde = 0 and n_c = 0 it is exact."""

    def test_matches_exact_model(self, device):
        kappa = device.cavity.kappa
        g = kappa / 100
        params = em.ModelParams(**{**model_params(device, 0.0).__dict__, "g": g})
        gamma_opt = 4 * g * g / kappa
        width = params.gamma_m + gamma_opt
        delta = np.linspace(-5 * width, 5 * width, 2001)
        weak = 0.5 + 2.1 + (4 * params.beta * (params.kappa_ex / kappa) * gamma_opt * params.gamma_m * 40.0
                            / (width**2 + 4 * delta * delta))
        exact = em.output_noise_values(delta, params)
        np.testing.assert_allclose(weak, exact, rtol=0.01)

    def test_peak_height_formula(self, device):
        kappa, kex, gm = device.cavity.kappa, device.cavity.kappa_ex, device.mech.gamma_m
        g = kappa / 200
        params = em.ModelParams(**{**model_params(device, 0.0).__dict__, "g": g})
        gamma_opt = 4 * g * g / kappa
        values = em.output_noise_values(np.array([0.0]), params)
        expected = 0.5 + 2.1 + 4 * 0.5 * (kex / kappa) * gamma_opt * gm * 40.0 / (gm + gamma_opt) ** 2
        assert values[0] == pytest.approx(expected, rel=1e-12)

    def test_matched_rates_peak(self, device):
        # Gamma = Gamma_m: Lorentzian contribution at delta=0 is beta*(kex/kappa)*n_m_T
        kappa, kex, gm = device.cavity.kappa, device.cavity.kappa_ex, device.mech.gamma_m
        g = math.sqrt(kappa * gm) / 2
        params = em.ModelParams(**{**model_params(device, 0.0).__dict__, "g": g})
        values = em.output_noise_values(np.array([0.0]), params)
        assert values[0] - 2.6 == pytest.approx(0.5 * (kex / kappa) * 40.0, rel=1e-9)


class TestDisplacementConversion:
    def test_imprecision_floor_chain(self, device):
        # quanta floor -> W/Hz -> m^2/Hz equals the direct weak-coupling
        # imprecision formula (1/2+n_add') kappa^2/(2 beta G^2 n_d kappa_ex)
        n_d = 1e5
        cavity, mech = device.cavity, device.mech
        floor_q = 0.5 + 2.1
        freq = np.linspace(10.5e6, 10.62e6, 64)
        trace_q = em.SpectrumTrace(freq, np.full(64, floor_q), em.SpectrumUnit.QUANTA, {})
        f_ref = cavity.omega_c / TWO_PI
        trace_w = em.convert_trace(trace_q, em.SpectrumUnit.WATTS_PER_HZ, f_ref)
        power_out = 2 * n_d * HBAR * cavity.omega_c * mech.omega_m**2 / cavity.kappa_ex
        s_x = trace_w.values * displacement_scale(device, power_out)
        direct = floor_q * cavity.kappa**2 / (2 * 0.5 * device.coupling.G**2 * n_d * cavity.kappa_ex)
        np.testing.assert_allclose(s_x, direct, rtol=1e-6)
        assert direct == pytest.approx(5.2e-34, rel=0.01)


class TestThermalDisplacementPsd:
    def test_area_normalization(self, device):
        mech = device.mech
        gamma_total = gamma_total_at(device, 4000.0)
        fwhm_hz = gamma_total / TWO_PI
        center = mech.omega_m / TWO_PI
        grid = np.linspace(center - 300 * fwhm_hz, center + 300 * fwhm_hz, 2**16 + 1)
        trace = em.thermal_displacement_psd(grid, mech, 30.0, gamma_total)
        raw = _trapezoid(trace.values, grid)
        covered = (
            math.atan(2 * (grid[-1] - center) / fwhm_hz) + math.atan(2 * (center - grid[0]) / fwhm_hz)
        ) / math.pi
        area = raw / covered
        expected = em.zero_point_motion(mech) ** 2 * 61.0
        assert area == pytest.approx(expected, rel=1e-6)

    def test_peak_value_in_quanta_units(self, device):
        mech = device.mech
        gamma_total = gamma_total_at(device, 600.0)
        center = mech.omega_m / TWO_PI
        halfspan = 20 * gamma_total / TWO_PI
        grid = np.concatenate([[center - halfspan], np.linspace(center - 1e3, center + 1e3, 7), [center + halfspan]])
        grid = np.unique(np.concatenate([grid, [center]]))
        trace = em.thermal_displacement_psd(grid, mech, 12.0, gamma_total)
        peak = trace.values[np.argmin(np.abs(grid - center))]
        x_zp2 = em.zero_point_motion(mech) ** 2
        assert gamma_total * peak / (8 * x_zp2) == pytest.approx(12.5, rel=1e-12)

    def test_ground_state_area(self, device):
        mech = device.mech
        gamma_total = device.mech.gamma_m
        fwhm_hz = gamma_total / TWO_PI
        center = mech.omega_m / TWO_PI
        grid = np.linspace(center - 300 * fwhm_hz, center + 300 * fwhm_hz, 2**16 + 1)
        trace = em.thermal_displacement_psd(grid, mech, 0.0, gamma_total)
        raw = _trapezoid(trace.values, grid)
        covered = (2 / math.pi) * math.atan(2 * 300)
        assert raw / covered == pytest.approx(em.zero_point_motion(mech) ** 2, rel=1e-6)


    def test_nan_occupancy_named(self, device):
        # once reported by the trace as "freq_hz and values must be finite numbers"
        grid = np.linspace(10.5e6, 10.62e6, 64)
        with pytest.raises(ParameterError, match="^n_m must be a finite number >= 0, got nan$"):
            em.thermal_displacement_psd(grid, device.mech, math.nan, device.mech.gamma_m)


class TestLineFitFailsFast:
    @pytest.mark.parametrize("seed", [9, 11, 13, 15])
    def test_noise_only_trace_stops_when_the_width_leaves_the_grid(self, seed, monkeypatch):
        # noise-only 256-bin traces whose line fit ran to the 100-step cap
        # while its width shrank below one bin
        evals = []
        line_terms = spectra._line_terms
        monkeypatch.setattr(spectra, "_line_terms", lambda *args: evals.append(1) or line_terms(*args))
        freq = np.linspace(2.0e6, 2.1e6, 256)
        vals = 2.6 * periodogram_factors(256, 500, seed)
        with pytest.raises(PeakDetectionError, match="line width"):
            spectra.peak_area(em.SpectrumTrace(freq, vals, em.SpectrumUnit.QUANTA, {"n_avg": 500}))
        assert len(evals) <= 10


class TestIntegrateMechPeak:
    """The occupancy from the area under the mechanical resonance (`peak_area`):
    x_zp^2 (2 n + 1) on a thermal displacement trace, 2 x_zp^2 n on a detected sideband."""

    def make_thermal_trace(self, device, n_m, n_d=4000.0, halfspan_widths=12, points=2048, floor=1e-36):
        mech = device.mech
        gamma_total = gamma_total_at(device, n_d)
        center = mech.omega_m / TWO_PI
        halfspan = halfspan_widths * gamma_total / TWO_PI
        grid = np.linspace(center - halfspan, center + halfspan, points)
        trace = em.thermal_displacement_psd(grid, mech, n_m, gamma_total)
        return em.SpectrumTrace(grid, trace.values + floor, em.SpectrumUnit.M2_PER_HZ, dict(trace.meta))

    def occupancy(self, trace, mech, zero_point=0.5):
        return spectra.peak_area(trace).area / (2.0 * em.zero_point_motion(mech) ** 2) - zero_point

    def sideband_occupancy(self, device, g, n_d, halfspan):
        """The occupancy from the detected sideband of the output spectrum at
        coupling g, converted to displacement units at n_d red-detuned photons."""
        cavity, mech = device.cavity, device.mech
        params = em.ModelParams(**{**model_params(device, 0.0).__dict__, "g": g})
        center = mech.omega_m / TWO_PI
        grid = np.linspace(center - halfspan, center + halfspan, 4096)
        trace_q = em.output_noise_spectrum(grid, params)
        trace_w = em.convert_trace(trace_q, em.SpectrumUnit.WATTS_PER_HZ, cavity.omega_c / TWO_PI)
        drive = em.DriveConfig.red_detuned(device, n_d=n_d)
        p_in = em.drive_power_for_photons(n_d, drive, cavity)
        # output power at the drive frequency, with hbar*omega frozen at the
        # same carrier used for the unit conversion
        p_out = em.transmitted_power(p_in, cavity, drive.detuning) * (cavity.omega_c / (cavity.omega_c + drive.detuning))
        values = trace_w.values * displacement_scale(device, p_out)
        return self.occupancy(em.SpectrumTrace(grid, values, em.SpectrumUnit.M2_PER_HZ, {}), mech, zero_point=0.0)

    def test_round_trip_30_quanta(self, device):
        trace = self.make_thermal_trace(device, 30.0)
        n = self.occupancy(trace, device.mech)
        assert n == pytest.approx(30.0, rel=0.005)

    def test_zero_signal_raises(self, device):
        center = device.mech.omega_m / TWO_PI
        grid = np.linspace(center - 1e3, center + 1e3, 256)
        flat = em.SpectrumTrace(grid, np.full(256, 1e-34), em.SpectrumUnit.M2_PER_HZ, {})
        with pytest.raises(PeakDetectionError):
            spectra.peak_area(flat)

    def test_truncated_grid_corrected(self, device):
        # only +-1.5 linewidths covered: the raw integral misses ~20%, the
        # fitted Lorentzian's area counts the tails beyond the grid
        trace = self.make_thermal_trace(device, 30.0, halfspan_widths=1.5, points=1024)
        n = self.occupancy(trace, device.mech)
        assert n == pytest.approx(30.0, rel=0.02)

    def test_area_occupancy_consistency_weak_coupling(self, device):
        # occupancy from the detected sideband (after displacement
        # conversion) matches the steady-state prediction within 1%
        kappa, mech = device.cavity.kappa, device.mech
        g = kappa / 100
        n_d = (g / device.coupling.g0(mech)) ** 2
        width = mech.gamma_m + 4 * g * g / kappa
        recovered = self.sideband_occupancy(device, g, n_d, halfspan=15 * width / TWO_PI)
        predicted = em.final_occupancy(em.ThermalState(40.0, 0.0), g, kappa, mech.gamma_m)
        assert recovered == pytest.approx(predicted, rel=0.01)

    def test_area_round_trip_moderate_drive(self, device):
        # same chain at the few-thousand-photon operating point, 2% band
        mech, n_d = device.mech, 4000.0
        g = em.coupling_rate(device.coupling, mech, n_d)
        recovered = self.sideband_occupancy(device, g, n_d, halfspan=12 * gamma_total_at(device, n_d) / TWO_PI)
        predicted = em.final_occupancy(em.ThermalState(40.0, 0.0), g, device.cavity.kappa, mech.gamma_m)
        assert recovered == pytest.approx(predicted, rel=0.02)


class TestTraceInfrastructure:
    def test_validation(self):
        with pytest.raises(ParameterError):
            em.SpectrumTrace(np.arange(4.0), np.arange(4.0), em.SpectrumUnit.QUANTA, {})
        with pytest.raises(ParameterError):
            em.SpectrumTrace(np.zeros(8), np.zeros(8), em.SpectrumUnit.QUANTA, {})
        with pytest.raises(ParameterError):
            em.SpectrumTrace(np.arange(8.0), -np.ones(8), em.SpectrumUnit.QUANTA, {})
        # negative displacement values are not rejected
        em.SpectrumTrace(np.arange(8.0), -np.ones(8), em.SpectrumUnit.M2_PER_HZ, {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # in any unit, in the values or in the last frequency (where inf
        # once passed the increasing-grid check)
        for unit in em.SpectrumUnit:
            values = np.ones(8)
            values[3] = bad
            with pytest.raises(ParameterError, match="must be finite"):
                em.SpectrumTrace(np.arange(8.0), values, unit, {})
        freq = np.arange(8.0)
        freq[-1] = bad
        with pytest.raises(ParameterError, match="must be finite"):
            em.SpectrumTrace(freq, np.ones(8), em.SpectrumUnit.QUANTA, {})

    def test_values_read_only(self):
        trace = em.SpectrumTrace(np.arange(8.0), np.ones(8), em.SpectrumUnit.QUANTA, {})
        with pytest.raises(ValueError):
            trace.values[0] = 2.0

    def test_csv_round_trip_bit_exact(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=7))
        freq = np.sort(rng.uniform(1e6, 2e6, 64))
        vals = rng.uniform(0.1, 10.0, 64) * 1e-23
        trace = em.SpectrumTrace(freq, vals, em.SpectrumUnit.WATTS_PER_HZ, {"n_avg": 500, "device": "ref"})
        path = tmp_path / "trace.csv"
        em.write_trace(trace, path)
        loaded = em.read_trace(path)
        assert np.array_equal(loaded.freq_hz, trace.freq_hz)
        assert np.array_equal(loaded.values, trace.values)
        assert loaded.unit is trace.unit
        assert loaded.meta["n_avg"] == 500
        assert loaded.meta["device"] == "ref"

    def test_csv_errors(self):
        with pytest.raises(UnitError):
            trace_from_csv("freq_hz,value\n1,2\n")
        with pytest.raises(UnitError):
            trace_from_csv("# unit=parsecs\nfreq_hz,value\n1,2\n")
        with pytest.raises(ParameterError):
            trace_from_csv("# unit=quanta\n1,2\n")

    def test_csv_header_format(self, device):
        params = model_params(device, 100.0)
        trace = em.output_noise_spectrum(grid_for(params, points=64), params)
        text = trace_to_csv(trace)
        assert text.startswith("# unit=quanta\n")
        assert "freq_hz,value" in text

    def test_unit_round_trip(self, device):
        params = model_params(device, 1000.0)
        trace = em.output_noise_spectrum(grid_for(params, points=64), params)
        f_ref = device.cavity.omega_c / TWO_PI
        back = em.convert_trace(
            em.convert_trace(trace, em.SpectrumUnit.WATTS_PER_HZ, f_ref), em.SpectrumUnit.QUANTA, f_ref
        )
        np.testing.assert_allclose(back.values, trace.values, rtol=1e-12)

    def test_no_direct_m2_conversion(self, device):
        trace = em.SpectrumTrace(np.arange(8.0) + 1, np.ones(8), em.SpectrumUnit.QUANTA, {})
        with pytest.raises(UnitError):
            em.convert_trace(trace, em.SpectrumUnit.M2_PER_HZ, 7.54e9)

    def test_infinite_carrier_named(self):
        # once reported by the trace as "freq_hz and values must be finite numbers"
        trace = em.SpectrumTrace(np.arange(8.0) + 1, np.ones(8), em.SpectrumUnit.QUANTA, {})
        with pytest.raises(ParameterError, match="^carrier_hz must be a finite number > 0, got inf$"):
            em.convert_trace(trace, em.SpectrumUnit.WATTS_PER_HZ, math.inf)


# trace_to_csv text of TestTraceCsv.golden_trace, as the per-row formatter wrote it
GOLDEN_CSV = (
    "# unit=quanta\n"
    "# n_avg=500\n"
    "# carrier_hz=0.30000000000000004\n"
    "# device=ref A\n"
    "freq_hz,value\n"
    "1,4.9406564584124654e-324\n"
    "2.5,1e-300\n"
    "1000,1.0000000000000001e+300\n"
    "1000000.1,0.10000000000000001\n"
    "4000000000,0\n"
    "4000000001,1\n"
    "5000000000,0.66666666666666663\n"
    "6.02e+23,123456.789\n"
)

HEAD = "# unit=quanta\nfreq_hz,value\n"
ROWS = [f"{1e6 + i:.17g},{1.0 + i:.17g}" for i in range(8)]
TABLE = "".join(row + "\n" for row in ROWS)

# (text, error, message start); the source is "t.csv"
MALFORMED = {
    "unknown unit": ("# unit=parsecs\nfreq_hz,value\n" + TABLE, UnitError, "t.csv:1: unknown unit 'parsecs'"),
    "missing unit": ("freq_hz,value\n" + TABLE, UnitError, "t.csv: missing '# unit=...' line"),
    "missing header": ("# unit=quanta\n" + TABLE, ParameterError, "t.csv:2: expected header"),
    "bare value row": (HEAD + TABLE + "9\n", ParameterError, "t.csv:11: expected a 'freq,value' row"),
    "bare value table": (HEAD + "".join(f"{i}\n" for i in range(8)), ParameterError,
                         "t.csv:3: expected a 'freq,value' row"),
    "bad number": (HEAD + "1,abc\n", ParameterError, "t.csv:3: expected a 'freq,value' row"),
    "bad number mid-table": (HEAD + TABLE + "2e6,abc\n" + TABLE, ParameterError, "t.csv:11: expected"),
    "three fields": (HEAD + "1,2,3\n", ParameterError, "t.csv:3: expected a 'freq,value' row"),
    "three fields mid-table": (HEAD + TABLE + "2e6,1,3\n", ParameterError, "t.csv:11: expected"),
    "metadata inside table": (HEAD + "\n".join(ROWS[:4]) + "\n# n_avg=500\n" + "\n".join(ROWS[4:]) + "\n",
                              ParameterError, "t.csv:7: '#' line inside the table"),
    "header with no rows": (HEAD, ParameterError, "t.csv: no rows below the 'freq_hz,value' header"),
    "header with blank rows": (HEAD + "\n  \n", ParameterError, "t.csv: no rows below"),
    "too few rows": (HEAD + "1,2\n", ParameterError, "t.csv: need at least 8 samples"),
}

ACCEPTED = {
    "blank lines inside table": HEAD + "\n".join(ROWS[:3]) + "\n\n   \n\t\n" + "\n".join(ROWS[3:]) + "\n\n",
    "crlf line endings": (HEAD + TABLE).replace("\n", "\r\n"),
    "no final newline": HEAD + TABLE.rstrip("\n"),
    "spaces around fields": HEAD + "".join(row.replace(",", " , ") + "\n" for row in ROWS),
}

# characters that str.splitlines breaks on but a file read as text keeps in
# the line; numpy's row parser strips them around a field
for name, char in {"form feed": "\x0c", "U+0085": "\x85", "U+2028": "\u2028"}.items():
    MALFORMED[f"rows joined by {name}"] = (HEAD + char.join(ROWS) + "\n", ParameterError,
                                           "t.csv:3: expected a 'freq,value' row")
    MALFORMED[f"header joined by {name}"] = ("# unit=quanta" + char + "freq_hz,value\n" + TABLE, UnitError,
                                             "t.csv:1: unknown unit")
    ACCEPTED[f"{name} beside a field"] = HEAD + "".join(row.replace(",", char + ",") + "\n" for row in ROWS)
    ACCEPTED[f"{name} inside a comment"] = "# unit=quanta\n# noise" + char + "floor\nfreq_hz,value\n" + TABLE


def same_as_text_parse(path, text=None):
    """read_trace(path), checked against trace_from_csv on the file's text
    (`text`, for a path that can be read only once): the same arrays bit
    for bit, unit and metadata, or an error of the same type and message.
    Returns the trace or the error."""
    def outcome(read):
        try:
            return read()
        except Exception as exc:
            return exc

    by_file = outcome(lambda: em.read_trace(path))
    by_text = outcome(lambda: trace_from_csv(path.read_text(encoding="utf-8") if text is None else text,
                                             source=str(path)))
    if isinstance(by_text, Exception):
        assert type(by_file) is type(by_text) and str(by_file) == str(by_text)
    else:
        assert isinstance(by_file, em.SpectrumTrace)
        assert by_file.freq_hz.tobytes() == by_text.freq_hz.tobytes()
        assert by_file.values.tobytes() == by_text.values.tobytes()
        assert by_file.unit is by_text.unit and by_file.meta == by_text.meta
    return by_file


class TestTraceCsv:
    @staticmethod
    def golden_trace():
        freq = np.array([1.0, 2.5, 1e3, 1e6 + 0.1, 4e9, 4e9 + 1.0, 5e9, 6.02e23])
        vals = np.array([5e-324, 1e-300, 1e300, 0.1, 0.0, 1.0, 2.0 / 3.0, 123456.789])
        meta = {"n_avg": 500, "carrier_hz": 0.1 + 0.2, "device": "ref A"}
        return em.SpectrumTrace(freq, vals, em.SpectrumUnit.QUANTA, meta)

    def test_golden_bytes(self):
        trace = self.golden_trace()
        assert trace_to_csv(trace) == GOLDEN_CSV
        loaded = trace_from_csv(GOLDEN_CSV)
        assert loaded.freq_hz.tobytes() == trace.freq_hz.tobytes()
        assert loaded.values.tobytes() == trace.values.tobytes()
        assert loaded.meta == trace.meta

    def test_round_trip_8192_bins_bit_exact(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=11))
        freq = 6e6 + np.cumsum(rng.uniform(1.0, 500.0, 8192))
        vals = 10.0 ** rng.uniform(-30.0, 30.0, 8192) * rng.uniform(1.0, 2.0, 8192)
        trace = em.SpectrumTrace(freq, vals, em.SpectrumUnit.WATTS_PER_HZ, {"n_avg": 5000})
        path = tmp_path / "trace.csv"
        em.write_trace(trace, path)
        loaded = em.read_trace(path)
        assert loaded.freq_hz.tobytes() == trace.freq_hz.tobytes()
        assert loaded.values.tobytes() == trace.values.tobytes()
        assert loaded.meta == {"n_avg": 5000}

    @pytest.mark.parametrize("meta", [
        {"device": "ref\nfreq_hz,value"}, {"device": "ref\r"}, {"device": " ref"}, {"device": "ref\t"},
        {"a=b": "x"}, {"a\nb": 1}, {" n_avg": 500}, {"n_avg ": 500}, {"unit": "quanta"},
        {"label": "12"}, {"label": "1_000"}, {"label": "inf"}, {"flag": True}, {"flag": None}, {"tags": [1, 2]},
        {1: "x"}, {2.5: "y"},
    ])
    def test_unreadable_metadata_rejected(self, meta):
        # a key that is not a string, a key or string value that the reader
        # would cut, strip or split, a string it would read as a number and a
        # value that is not an int, a float or a string are refused by the
        # writer, naming the key, instead of written
        trace = em.SpectrumTrace(np.arange(8.0) + 1.0, np.ones(8), em.SpectrumUnit.QUANTA, meta)
        (key,) = meta
        with pytest.raises(ParameterError, match=re.escape(f"trace metadata {key!r} cannot be read back")):
            trace_to_csv(trace)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed(self, case):
        text, error, start = MALFORMED[case]
        with pytest.raises(error) as exc:
            trace_from_csv(text, source="t.csv")
        assert str(exc.value).startswith(start)

    @pytest.mark.parametrize("case", sorted(ACCEPTED))
    def test_accepted_layouts(self, case):
        loaded = trace_from_csv(ACCEPTED[case])
        assert np.array_equal(loaded.freq_hz, 1e6 + np.arange(8.0))
        assert np.array_equal(loaded.values, 1.0 + np.arange(8.0))
        assert loaded.unit is em.SpectrumUnit.QUANTA

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file(self, case, tmp_path):
        text, error, start = MALFORMED[case]
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        exc = same_as_text_parse(path)
        assert isinstance(exc, error)
        assert str(exc).startswith(start.replace("t.csv", str(path), 1))

    @pytest.mark.parametrize("case", sorted(ACCEPTED))
    def test_accepted_file(self, case, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(ACCEPTED[case].encode("utf-8"))
        loaded = same_as_text_parse(path)
        assert np.array_equal(loaded.freq_hz, 1e6 + np.arange(8.0))
        assert np.array_equal(loaded.values, 1.0 + np.arange(8.0))

    @pytest.mark.parametrize("suffix, compress", [
        (".gz", gzip.compress), (".bz2", bz2.compress), (".xz", lzma.compress),
        (".lzma", partial(lzma.compress, format=lzma.FORMAT_ALONE)),
    ])
    def test_compressed_suffix_read_as_it_is(self, suffix, compress, tmp_path):
        # numpy's path reader decompresses these suffixes by name: a trace
        # under such a name is still read as plain text, and a compressed
        # file is not UTF-8 text, an input error that names the file
        text = (HEAD + TABLE).encode("utf-8")
        plain, packed = tmp_path / f"plain.csv{suffix}", tmp_path / f"packed.csv{suffix}"
        plain.write_bytes(text)
        packed.write_bytes(compress(text))
        assert np.array_equal(same_as_text_parse(plain).values, 1.0 + np.arange(8.0))
        with pytest.raises(ParameterError, match=rf"^{re.escape(str(packed))}: not UTF-8 text \(byte 0x"):
            em.read_trace(packed)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_read_once(self):
        # a pipe gives its bytes once: the reader reads its text once, so the
        # trace keeps the rows that a preamble read would have buffered
        # before numpy's reader opened the path again
        trace = em.SpectrumTrace(1e6 + np.arange(4096.0), 1.0 + np.arange(4096.0), em.SpectrumUnit.QUANTA)
        text = trace_to_csv(trace)
        read_end, write_end = os.pipe()

        def feed():
            try:
                with open(write_end, "wb") as pipe:
                    pipe.write(text.encode("utf-8"))
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            loaded = same_as_text_parse(Path(f"/dev/fd/{read_end}"), text)
        finally:
            os.close(read_end)
            writer.join(timeout=10)
        assert isinstance(loaded, em.SpectrumTrace)
        assert loaded.freq_hz.tobytes() == trace.freq_hz.tobytes()
        assert loaded.values.tobytes() == trace.values.tobytes()

    def test_written_file_parsed_by_the_file_reader(self, tmp_path, monkeypatch):
        # numpy's loadtxt parses the table of a file write_trace wrote from
        # its path; the text parse is not called
        trace = self.golden_trace()
        path = tmp_path / "t.csv"
        em.write_trace(trace, path)
        text_parses, parsed = [], []
        monkeypatch.setattr(spectra, "trace_from_csv", lambda *args, **kwargs: text_parses.append(args))
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda fname, *args, **kwargs: parsed.append(fname) or loadtxt(fname, *args, **kwargs))
        loaded = em.read_trace(path)
        assert text_parses == [] and parsed == [path]
        assert loaded.freq_hz.tobytes() == trace.freq_hz.tobytes()
        assert loaded.values.tobytes() == trace.values.tobytes()
        assert loaded.meta == trace.meta

    def test_write_trace_writes_the_csv_text(self, tmp_path):
        # one serializer: the file holds the UTF-8 bytes of trace_to_csv's text
        trace = self.golden_trace().with_meta(device="réf Å", note="Δf in µHz")
        path = tmp_path / "t.csv"
        em.write_trace(trace, path)
        assert path.read_bytes() == trace_to_csv(trace).encode("utf-8")
        assert em.read_trace(path).meta == trace.meta
        # a key that is not ASCII and a value of four-byte UTF-8 characters:
        # trace_to_csv's text is the file's bytes decoded
        trace = trace.with_meta(température="4 K", symbol="𝜅/2π ≈ 𝟏𝟎𝟎 kHz")
        em.write_trace(trace, path)
        assert path.read_bytes().decode("utf-8") == trace_to_csv(trace)
        assert em.read_trace(path).meta == trace.meta


class TestGrids:
    def test_default_span_capped(self, device):
        grid = em.sideband_grid(device.mech.omega_m, TWO_PI * 1e3, device.cavity.kappa)
        center = device.mech.omega_m / TWO_PI
        assert grid[-1] - center == pytest.approx(2e6)  # 20*kappa would be 4 MHz
        assert grid.size == 4096

    def test_narrow_linewidth_span(self, device):
        gamma_total = TWO_PI * 100.0
        grid = em.sideband_grid(device.mech.omega_m, gamma_total, TWO_PI * 1e3, points=64)
        center = device.mech.omega_m / TWO_PI
        assert grid[-1] - center == pytest.approx(20e3)

    def test_point_minimum(self, device):
        with pytest.raises(ParameterError):
            em.sideband_grid(device.mech.omega_m, 1.0, 1.0, points=16)

    @pytest.mark.parametrize("name,bad", [("halfspan_hz", math.inf), ("omega_m", math.nan), ("gamma_total", math.nan)])
    def test_non_finite_named(self, device, name, bad):
        # each once gave a grid of non-finite frequencies (which a trace
        # reported as "freq_hz and values must be finite numbers") or, for
        # gamma_total, an error naming halfspan_hz
        args = {"omega_m": device.mech.omega_m, "gamma_total": 1.0, "kappa": 1.0, "halfspan_hz": None}
        with pytest.raises(ParameterError, match=rf"^{name} must be a finite number >=? 0, got {bad!r}$"):
            em.sideband_grid(**{**args, name: bad})


class TestModelParams:
    def test_validation(self, device):
        base = model_params(device, 100.0).__dict__
        with pytest.raises(ParameterError):
            em.ModelParams(**{**base, "g": -1.0})
        with pytest.raises(ParameterError):
            em.ModelParams(**{**base, "kappa_ex": 2 * base["kappa"]})
        with pytest.raises(ParameterError):
            em.ModelParams(**{**base, "beta": 0.0})
        with pytest.raises(ParameterError):
            em.ModelParams(**{**base, "n_c": -0.1})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, device, bad):
        base = model_params(device, 100.0).__dict__
        for name in base:
            with pytest.raises(ParameterError, match=f"{name} must be a finite number"):
                em.ModelParams(**{**base, name: bad})
