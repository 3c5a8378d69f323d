import math

import numpy as np
import pytest

import emcool as em
from emcool.constants import HBAR
from emcool.errors import (
    ParameterError,
    ParametricInstabilityError,
    PeakDetectionError,
    UnitError,
)
from emcool.spectra import _trapezoid, grid_for, trace_from_csv, trace_to_csv, weak_coupling_values

from conftest import gamma_total_at, model_params

TWO_PI = 2.0 * math.pi


def mirrored_deltas(halfspan, n_side):
    """Offset grid that is exactly symmetric in floating point."""
    side = np.linspace(halfspan / n_side, halfspan, n_side)
    return np.concatenate([-side[::-1], [0.0], side])


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


class TestSelfEnergy:
    def test_zero_coupling(self, device):
        assert em.self_energy(1e3, 0.0, device.cavity.kappa, 0.0, device.mech.omega_m) == 0.0

    def test_approx_resonance_value(self, device):
        kappa = device.cavity.kappa
        g = TWO_PI * 10e3
        got = em.self_energy(0.0, g, kappa, 0.0, device.mech.omega_m, approx=True)
        assert got == pytest.approx(-1j * g * g * 2.0 / kappa, rel=1e-12)

    def test_exact_vs_approx_bound(self, device):
        # counter-rotating term is ~ g^2/(2 omega_m), flat in delta; relative
        # to the peak magnitude 2 g^2/kappa that is kappa/(4 omega_m) ~ 4.7e-3,
        # growing to kappa/(2(2 omega_m - 5 kappa)) at the grid edge
        kappa, om = device.cavity.kappa, device.mech.omega_m
        g = em.coupling_rate(device.coupling, device.mech, 4000.0)
        delta = np.linspace(-5 * kappa, 5 * kappa, 20001)
        exact = em.self_energy(delta, g, kappa, 0.0, om, approx=False)
        approx = em.self_energy(delta, g, kappa, 0.0, om, approx=True)
        scale = np.max(np.abs(approx))
        rel = np.max(np.abs(exact - approx)) / scale
        envelope = kappa / (2.0 * (2.0 * om - 5.0 * kappa))
        assert rel < 5.5e-3
        assert rel == pytest.approx(envelope, rel=0.05)


class TestDressedSusceptibility:
    def test_zero_coupling_is_bare(self, device):
        params = model_params(device, 0.0)
        delta = np.linspace(-1e3, 1e3, 101)
        got = em.dressed_mech_susceptibility(delta, params)
        np.testing.assert_allclose(got, em.mech_susceptibility(delta, device.mech.gamma_m), rtol=1e-12)

    def test_closed_form_identity_for_approx(self, device):
        g = TWO_PI * 50e3
        params = model_params(device, 0.0)
        params = em.ModelParams(**{**params.__dict__, "g": g})
        kappa, gm = params.kappa, params.gamma_m
        delta = np.linspace(-3 * kappa, 3 * kappa, 999)
        got = em.dressed_mech_susceptibility(delta, params, approx=True)
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
        mag = np.abs(em.dressed_mech_susceptibility(delta, params, approx=True))
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
        mag2 = np.abs(em.dressed_mech_susceptibility(delta, params, approx=True)) ** 2
        above = delta[mag2 >= mag2.max() / 2]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(expected, rel=0.01)

    def test_pole_margin_positive_across_regimes(self, device):
        # the rotating-wave model is passive: dressed poles stay in the upper
        # half plane for any physical parameters (blue-detuned runaway lives
        # in the counter-rotating sector the model excludes)
        from emcool.spectra import _pole_margin

        kappa, gm = device.cavity.kappa, device.mech.gamma_m
        for g in (0.0, kappa / 100, kappa):
            for dt in (0.0, -kappa, 2 * device.mech.omega_m):
                assert _pole_margin(g, kappa, gm, dt) > 0.0

    def test_pole_margins_match_scalar_sign_for_sign(self, device):
        # the array test of the g profile against the scalar one; an
        # anti-damped bare mechanics (gamma_m < 0) is unstable at weak
        # coupling and stabilised by strong coupling, so the grid crosses
        from emcool.spectra import _pole_margin, _pole_margins

        kappa, gm = device.cavity.kappa, device.mech.gamma_m
        g = np.logspace(0.0, math.log10(10.0 * kappa), 200)
        for gamma_m, dt in ((-gm, 0.0), (-gm, 0.3 * kappa), (-0.2 * kappa, -kappa), (gm, 0.0)):
            scalar = np.array([_pole_margin(gi, kappa, gamma_m, dt) for gi in g])
            array = _pole_margins(g, kappa, gamma_m, dt)
            np.testing.assert_array_equal(np.sign(array), np.sign(scalar))
            if gamma_m < 0.0:
                assert scalar[0] < 0.0 < scalar[-1]

    def test_instability_error_path(self, device, monkeypatch):
        import emcool.spectra as spectra_mod

        monkeypatch.setattr(spectra_mod, "_pole_margin", lambda *a: -1.0)
        params = model_params(device, 100.0)
        with pytest.raises(ParametricInstabilityError):
            em.output_noise_values(np.array([0.0, 1.0]), params)
        with pytest.raises(ParametricInstabilityError):
            em.dressed_mech_susceptibility(np.array([0.0, 1.0]), params)


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
        trace = em.output_noise_spectrum(grid, params, meta={"n_avg": 7})
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


class TestSeparableBasis:
    @pytest.mark.parametrize("n_d,n_m_T,n_c,n_add_eff,dt", BASIS_CASES)
    def test_basis_reproduces_output_noise(self, device, n_d, n_m_T, n_c, n_add_eff, dt):
        params = model_params(device, n_d, n_m_T=n_m_T, n_c=n_c, n_add_eff=n_add_eff,
                              delta_tilde=dt * device.cavity.kappa)
        delta = np.linspace(-3 * device.cavity.kappa, 3 * device.cavity.kappa, 4096)
        cav, mech = em.spectra.output_noise_basis(
            delta, params.g, params.kappa, params.kappa_ex, params.gamma_m,
            params.delta_tilde, params.beta,
        )
        separable = 0.5 + n_add_eff + n_c * cav + n_m_T * mech
        np.testing.assert_allclose(separable, em.output_noise_values(delta, params), rtol=1e-12)

    def test_basis_rows_per_coupling(self, device):
        params = model_params(device, 4000.0)
        delta = np.linspace(-1e6, 1e6, 257)
        gs = np.array([0.0, 1e3, params.g, 1e6])
        args = (params.kappa, params.kappa_ex, params.gamma_m, params.delta_tilde, params.beta)
        cav, mech = em.spectra.output_noise_basis(delta, gs[:, None], *args)
        assert cav.shape == mech.shape == (4, 257)
        for row, g in enumerate(gs):
            cav_g, mech_g = em.spectra.output_noise_basis(delta, g, *args)
            np.testing.assert_array_equal(cav[row], cav_g)
            np.testing.assert_array_equal(mech[row], mech_g)
        assert not np.any(mech[0])

    @pytest.mark.parametrize("n_d,n_m_T,n_c,n_add_eff,dt", BASIS_CASES[1:])
    def test_complex_step_matches_central_difference(self, device, n_d, n_m_T, n_c, n_add_eff, dt):
        # the fits differentiate the basis by complex steps in its shape parameters
        params = model_params(device, n_d, n_m_T=n_m_T, n_c=n_c, n_add_eff=n_add_eff,
                              delta_tilde=dt * device.cavity.kappa)
        delta = np.linspace(-3 * device.cavity.kappa, 3 * device.cavity.kappa, 2048)
        names = ("g", "kappa", "kappa_ex", "gamma_m", "delta_tilde", "beta")
        args = {name: getattr(params, name) for name in names}

        def spectrum(**changed):
            cav, mech = em.spectra.output_noise_basis(delta, **{**args, **changed})
            return n_c * cav + n_m_T * mech

        for name in ("g", "kappa", "gamma_m", "delta_tilde"):
            exact = spectrum(**{name: args[name] + 1e-20j}).imag / 1e-20
            h = 1e-5 * (args[name] if name != "delta_tilde" else params.kappa)
            fd = (spectrum(**{name: args[name] + h}) - spectrum(**{name: args[name] - h})) / (2 * h)
            np.testing.assert_allclose(exact, fd, rtol=0, atol=1e-6 * np.max(np.abs(fd)), err_msg=name)


class TestWeakCouplingSpectrum:
    def test_matches_exact_model(self, device):
        kappa = device.cavity.kappa
        g = kappa / 100
        params = em.ModelParams(**{**model_params(device, 0.0).__dict__, "g": g})
        gamma_opt = 4 * g * g / kappa
        width = params.gamma_m + gamma_opt
        delta = np.linspace(-5 * width, 5 * width, 2001)
        weak, warnings_ = weak_coupling_values(delta, params)
        exact = em.output_noise_values(delta, params)
        assert not warnings_
        np.testing.assert_allclose(weak, exact, rtol=0.01)

    def test_peak_height_formula(self, device):
        kappa, kex, gm = device.cavity.kappa, device.cavity.kappa_ex, device.mech.gamma_m
        g = kappa / 200
        params = em.ModelParams(**{**model_params(device, 0.0).__dict__, "g": g})
        gamma_opt = 4 * g * g / kappa
        values, _ = weak_coupling_values(np.array([0.0]), params)
        expected = 0.5 + 2.1 + 4 * 0.5 * (kex / kappa) * gamma_opt * gm * 40.0 / (gm + gamma_opt) ** 2
        assert values[0] == pytest.approx(expected, rel=1e-12)

    def test_matched_rates_peak(self, device):
        # Gamma = Gamma_m: Lorentzian contribution at delta=0 is beta*(kex/kappa)*n_m_T
        kappa, kex, gm = device.cavity.kappa, device.cavity.kappa_ex, device.mech.gamma_m
        g = math.sqrt(kappa * gm) / 2
        params = em.ModelParams(**{**model_params(device, 0.0).__dict__, "g": g})
        values, _ = weak_coupling_values(np.array([0.0]), params)
        assert values[0] - 2.6 == pytest.approx(0.5 * (kex / kappa) * 40.0, rel=1e-9)

    def test_validity_warnings_recorded(self, device):
        kappa = device.cavity.kappa
        params = em.ModelParams(**{**model_params(device, 0.0, n_c=10.0).__dict__, "g": kappa / 2})
        grid = em.sideband_grid(device.mech.omega_m, 0.0, kappa, points=64, halfspan_hz=kappa / TWO_PI)
        trace = em.weak_coupling_spectrum(grid, params)
        warnings_ = trace.meta["warnings"]
        assert "weak regime" in warnings_
        assert "cavity occupancy" in warnings_
        assert "validity band" in warnings_


class TestDisplacementConversion:
    def test_flat_scaling(self, device):
        freq = np.linspace(10.5e6, 10.6e6, 64)
        trace = em.SpectrumTrace(freq, np.full(64, 2.0e-23), em.SpectrumUnit.WATTS_PER_HZ, {})
        drive = em.DriveConfig.red_detuned(device, n_d=1e5)
        out = em.displacement_from_output(trace, device, drive, power_out=1e-9)
        assert out.unit is em.SpectrumUnit.M2_PER_HZ
        assert np.ptp(out.values) == 0.0
        scale = out.meta["displacement_scale_m2hz_per_whz"]
        np.testing.assert_allclose(out.values, 2.0e-23 * scale, rtol=1e-12)

    def test_unit_mismatch(self, device):
        freq = np.linspace(10.5e6, 10.6e6, 64)
        trace = em.SpectrumTrace(freq, np.full(64, 2.0), em.SpectrumUnit.QUANTA, {})
        drive = em.DriveConfig.red_detuned(device, n_d=1e5)
        with pytest.raises(UnitError):
            em.displacement_from_output(trace, device, drive, power_out=1e-9)

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
        drive = em.DriveConfig.red_detuned(device, n_d=n_d)
        trace_x = em.displacement_from_output(trace_w, device, drive, power_out)
        direct = floor_q * cavity.kappa**2 / (2 * 0.5 * device.coupling.G**2 * n_d * cavity.kappa_ex)
        np.testing.assert_allclose(trace_x.values, direct, rtol=1e-6)
        assert direct == pytest.approx(5.2e-34, rel=0.01)

    def test_off_optimal_detuning_warns_in_meta(self, device):
        freq = np.linspace(10.5e6, 10.6e6, 64)
        trace = em.SpectrumTrace(freq, np.full(64, 2.0e-23), em.SpectrumUnit.WATTS_PER_HZ, {})
        drive = em.DriveConfig.from_detuning(device, -device.mech.omega_m / 2, n_d=10.0)
        out = em.displacement_from_output(trace, device, drive, power_out=1e-9)
        assert "red detuning" in out.meta["warnings"]


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


class TestIntegrateMechPeak:
    def make_thermal_trace(self, device, n_m, n_d=4000.0, halfspan_widths=12, points=2048, floor=1e-36):
        mech = device.mech
        gamma_total = gamma_total_at(device, n_d)
        center = mech.omega_m / TWO_PI
        halfspan = halfspan_widths * gamma_total / TWO_PI
        grid = np.linspace(center - halfspan, center + halfspan, points)
        trace = em.thermal_displacement_psd(grid, mech, n_m, gamma_total)
        return em.SpectrumTrace(grid, trace.values + floor, em.SpectrumUnit.M2_PER_HZ, dict(trace.meta))

    def test_round_trip_30_quanta(self, device):
        trace = self.make_thermal_trace(device, 30.0)
        n = em.integrate_mech_peak(trace, device.mech)
        assert n == pytest.approx(30.0, rel=0.005)

    def test_zero_signal_raises(self, device):
        center = device.mech.omega_m / TWO_PI
        grid = np.linspace(center - 1e3, center + 1e3, 256)
        flat = em.SpectrumTrace(grid, np.full(256, 1e-34), em.SpectrumUnit.M2_PER_HZ, {})
        with pytest.raises(PeakDetectionError):
            em.integrate_mech_peak(flat, device.mech)

    def test_truncated_grid_corrected(self, device):
        # only +-1.5 linewidths covered: raw integral misses ~20%, the
        # analytic tail correction brings it back within 2%
        trace = self.make_thermal_trace(device, 30.0, halfspan_widths=1.5, points=1024)
        n = em.integrate_mech_peak(trace, device.mech)
        assert n == pytest.approx(30.0, rel=0.02)

    def test_unit_enforced(self, device):
        center = device.mech.omega_m / TWO_PI
        grid = np.linspace(center - 1e3, center + 1e3, 64)
        trace = em.SpectrumTrace(grid, np.full(64, 2.6), em.SpectrumUnit.QUANTA, {})
        with pytest.raises(UnitError):
            em.integrate_mech_peak(trace, device.mech)

    def test_bad_convention_rejected(self, device):
        trace = self.make_thermal_trace(device, 5.0)
        with pytest.raises(ParameterError):
            em.integrate_mech_peak(trace, device.mech, convention="bogus")

    def test_area_occupancy_consistency_weak_coupling(self, device):
        # occupancy from the detected sideband (after displacement
        # conversion) matches the steady-state prediction within 1%
        cavity, mech = device.cavity, device.mech
        kappa = cavity.kappa
        g = kappa / 100
        n_d = (g / device.coupling.g0(mech)) ** 2
        params = em.ModelParams(**{**model_params(device, 0.0).__dict__, "g": g})
        gamma_opt = 4 * g * g / kappa
        width = mech.gamma_m + gamma_opt
        center = mech.omega_m / TWO_PI
        halfspan = 15 * width / TWO_PI
        grid = np.linspace(center - halfspan, center + halfspan, 4096)
        trace_q = em.output_noise_spectrum(grid, params)
        f_ref = cavity.omega_c / TWO_PI
        trace_w = em.convert_trace(trace_q, em.SpectrumUnit.WATTS_PER_HZ, f_ref)
        drive = em.DriveConfig.red_detuned(device, n_d=n_d)
        p_in = em.drive_power_for_photons(n_d, drive, cavity)
        # output power at the drive frequency, with hbar*omega frozen at the
        # same carrier used for the unit conversion
        p_out = em.transmitted_power(p_in, cavity, drive.detuning) * (
            cavity.omega_c / drive.omega_d
        )
        trace_x = em.displacement_from_output(trace_w, device, drive, p_out)
        recovered = em.integrate_mech_peak(trace_x, mech, convention="sideband")
        predicted = em.final_occupancy(em.ThermalState(40.0, 0.0), g, kappa, mech.gamma_m)
        assert recovered == pytest.approx(predicted, rel=0.01)

    def test_area_round_trip_moderate_drive(self, device):
        # same chain at the few-thousand-photon operating point, 2% band
        cavity, mech = device.cavity, device.mech
        n_d = 4000.0
        g = em.coupling_rate(device.coupling, mech, n_d)
        params = em.ModelParams(**{**model_params(device, 0.0).__dict__, "g": g})
        width = gamma_total_at(device, n_d)
        center = mech.omega_m / TWO_PI
        halfspan = 12 * width / TWO_PI
        grid = np.linspace(center - halfspan, center + halfspan, 4096)
        trace_q = em.output_noise_spectrum(grid, params)
        trace_w = em.convert_trace(trace_q, em.SpectrumUnit.WATTS_PER_HZ, cavity.omega_c / TWO_PI)
        drive = em.DriveConfig.red_detuned(device, n_d=n_d)
        p_in = em.drive_power_for_photons(n_d, drive, cavity)
        p_out = em.transmitted_power(p_in, cavity, drive.detuning) * (cavity.omega_c / drive.omega_d)
        trace_x = em.displacement_from_output(trace_w, device, drive, p_out)
        recovered = em.integrate_mech_peak(trace_x, mech, convention="sideband")
        predicted = em.final_occupancy(em.ThermalState(40.0, 0.0), g, cavity.kappa, mech.gamma_m)
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

    def test_sub_ideal_flag(self, device):
        base = model_params(device, 100.0).__dict__
        assert not em.ModelParams(**base).sub_ideal_added_noise
        assert em.ModelParams(**{**base, "n_add_eff": 0.4}).sub_ideal_added_noise
