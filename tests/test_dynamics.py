import math
from dataclasses import replace

import numpy as np
import pytest

import emcool as em
from emcool.constants import HBAR
from emcool.errors import ParameterError, ParametricInstabilityError

TWO_PI = 2.0 * math.pi


class TestCouplingRate:
    def test_reference_at_4000(self, device):
        g = em.coupling_rate(device.coupling, device.mech, 4000.0)
        # oracle: G * x_zp * sqrt(n_d) evaluated directly
        expected = device.coupling.G * math.sqrt(
            HBAR / (2 * device.mech.mass * device.mech.omega_m)
        ) * math.sqrt(4000.0)
        assert g == pytest.approx(expected, rel=1e-12)
        assert g / TWO_PI == pytest.approx(12.7e3, rel=0.01)

    def test_zero_drive(self, device):
        assert em.coupling_rate(device.coupling, device.mech, 0.0) == 0.0

    def test_square_root_law(self, device):
        g1 = em.coupling_rate(device.coupling, device.mech, 100.0)
        g4 = em.coupling_rate(device.coupling, device.mech, 400.0)
        assert g4 == pytest.approx(2 * g1, rel=1e-12)

    def test_negative_rejected(self, device):
        with pytest.raises(ParameterError):
            em.coupling_rate(device.coupling, device.mech, -1.0)

    @pytest.mark.parametrize("n_d", [math.nan, math.inf])
    def test_non_finite_rejected(self, device, n_d):
        with pytest.raises(ParameterError, match="n_d must be a finite number"):
            em.coupling_rate(device.coupling, device.mech, n_d)


class TestSidebandRates:
    def test_optimal_detuning_closed_forms(self, device):
        g = TWO_PI * 12.7e3
        kappa = device.cavity.kappa
        om = device.mech.omega_m
        plus, minus, net = em.sideband_rates(g, kappa, -om, om)
        assert plus == pytest.approx(4 * g * g / kappa, rel=1e-12)
        assert minus == pytest.approx(4 * g * g * kappa / (kappa**2 + 16 * om**2), rel=1e-12)
        assert net > 0

    def test_reference_linewidth(self, device):
        g = em.coupling_rate(device.coupling, device.mech, 4000.0)
        _, _, net = em.sideband_rates(g, device.cavity.kappa, -device.mech.omega_m, device.mech.omega_m)
        assert net / TWO_PI == pytest.approx(3.2e3, rel=0.02)

    def test_zero_coupling(self, device):
        assert em.sideband_rates(0.0, device.cavity.kappa, -1e7, 1e7) == (0.0, 0.0, 0.0)

    def test_symmetric_at_zero_detuning(self, device):
        plus, minus, net = em.sideband_rates(1e4, device.cavity.kappa, 0.0, device.mech.omega_m)
        assert plus == minus
        assert net == 0.0

    def test_kappa_required(self):
        with pytest.raises(ParameterError):
            em.sideband_rates(1e3, 0.0, -1e7, 1e7)

    @pytest.mark.parametrize("name,bad", [("kappa", math.inf), ("g", math.nan), ("omega_m", math.nan)])
    def test_non_finite_rejected(self, device, name, bad):
        # each once returned nan rates
        args = {"g": 1e4, "kappa": device.cavity.kappa, "detuning": -device.mech.omega_m, "omega_m": device.mech.omega_m}
        with pytest.raises(ParameterError, match=rf"^{name} must be a finite number >=? 0, got {bad!r}$"):
            em.sideband_rates(**{**args, name: bad})


class TestTotalLinewidth:
    def test_doubling(self, device):
        gm = device.mech.gamma_m
        assert em.total_linewidth(gm, gm) == pytest.approx(2 * gm)

    def test_no_drive(self, device):
        gm = device.mech.gamma_m
        assert em.total_linewidth(gm, 0.0) == gm

    def test_instability_boundary(self, device):
        gm = device.mech.gamma_m
        with pytest.raises(ParametricInstabilityError):
            em.total_linewidth(gm, -gm)
        with pytest.raises(ParametricInstabilityError):
            em.total_linewidth(gm, -1.5 * gm)

    def test_non_finite_rejected(self, device):
        # gamma_m = inf once returned inf, gamma_opt = nan returned nan
        gm = device.mech.gamma_m
        with pytest.raises(ParameterError, match="^gamma_m must be a finite number > 0, got inf$"):
            em.total_linewidth(math.inf, gm)
        with pytest.raises(ParameterError, match="^gamma_opt must be a finite number, got nan$"):
            em.total_linewidth(gm, math.nan)


class TestFinalOccupancy:
    @pytest.mark.parametrize("name,bad", [("g", math.nan), ("g", math.inf), ("kappa", math.inf)])
    def test_non_finite_rejected(self, device, name, bad):
        # each once returned nan or a finite occupancy
        args = {"state": em.ThermalState(n_m_T=40.0), "g": 1e4, "kappa": device.cavity.kappa, "gamma_m": device.mech.gamma_m}
        with pytest.raises(ParameterError, match=rf"^{name} must be a finite number >=? 0, got {bad!r}$"):
            em.final_occupancy(**{**args, name: bad})

    def test_reference_below_one_quantum(self, device):
        g = em.coupling_rate(device.coupling, device.mech, 4000.0)
        thermal = em.ThermalState(n_m_T=40.0, n_c=0.0)
        n = em.final_occupancy(thermal, g, device.cavity.kappa, device.mech.gamma_m)
        assert n < 1.0
        assert n == pytest.approx(0.4048, rel=0.01)

    def test_zero_coupling_returns_bath(self, device):
        thermal = em.ThermalState(n_m_T=40.0, n_c=0.2)
        n = em.final_occupancy(thermal, 0.0, device.cavity.kappa, device.mech.gamma_m)
        assert n == 40.0

    def test_large_g_floor(self, device):
        thermal = em.ThermalState(n_m_T=40.0, n_c=0.0)
        kappa, gm = device.cavity.kappa, device.mech.gamma_m
        floor = 40.0 * gm / kappa
        assert floor == pytest.approx(6.4e-3, rel=1e-3)
        n = em.final_occupancy(thermal, 1e6 * kappa, kappa, gm)
        assert n == pytest.approx(floor, rel=1e-6)

    def test_large_g_with_cavity(self, device):
        thermal = em.ThermalState(n_m_T=40.0, n_c=0.3)
        kappa, gm = device.cavity.kappa, device.mech.gamma_m
        n = em.final_occupancy(thermal, 1e6 * kappa, kappa, gm)
        assert n == pytest.approx(40.0 * gm / kappa + 0.3, rel=1e-6)

    def test_weak_coupling_equivalence(self, device):
        # Eq.-2 vs Lorentzian-cooling formula within 1e-3 at g <= kappa/100
        kappa, gm, om = device.cavity.kappa, device.mech.gamma_m, device.mech.omega_m
        thermal = em.ThermalState(n_m_T=40.0, n_c=0.0)
        for g in (kappa / 100, kappa / 300, kappa / 1000):
            _, _, net = em.sideband_rates(g, kappa, -om, om)
            weak = 40.0 * gm / (gm + net)
            full = em.final_occupancy(thermal, g, kappa, gm)
            assert full == pytest.approx(weak, rel=1e-3)

    def test_monotone_nonincreasing_in_g(self, device):
        kappa, gm = device.cavity.kappa, device.mech.gamma_m
        for n_c in (0.0, 0.3, 5.0):
            thermal = em.ThermalState(n_m_T=40.0, n_c=n_c)
            gs = np.logspace(0, 6.5, 200)
            ns = [em.final_occupancy(thermal, g, kappa, gm) for g in gs]
            assert all(b <= a + 1e-15 for a, b in zip(ns, ns[1:]))

    def test_cavity_floor_property(self, device):
        kappa, gm = device.cavity.kappa, device.mech.gamma_m
        thermal = em.ThermalState(n_m_T=10.0, n_c=2.0)
        for g in np.logspace(0, 7, 50):
            assert em.final_occupancy(thermal, g, kappa, gm) >= thermal.n_c


class TestFinalOccupancyGradient:
    @pytest.mark.parametrize("name,bad", [("g", math.nan), ("kappa", math.inf)])
    def test_non_finite_rejected(self, device, name, bad):
        # each once returned nan derivatives
        args = {"state": em.ThermalState(n_m_T=40.0), "g": 1e4, "kappa": device.cavity.kappa, "gamma_m": device.mech.gamma_m}
        with pytest.raises(ParameterError, match=rf"^{name} must be a finite number >=? 0, got {bad!r}$"):
            em.dynamics.final_occupancy_gradient(**{**args, name: bad})

    @pytest.mark.parametrize("g_over_kappa", [1e-4, 0.01, 0.3, 1.0, 5.0])
    @pytest.mark.parametrize("n_c", [0.0, 0.3])
    def test_matches_central_difference(self, device, g_over_kappa, n_c):
        kappa, gm = device.cavity.kappa, device.mech.gamma_m
        args = {"n_m_T": 39.0, "n_c": n_c, "g": g_over_kappa * kappa, "kappa": kappa, "gamma_m": gm}

        def occupancy(a):
            return em.final_occupancy(
                em.ThermalState(a["n_m_T"], a["n_c"]), a["g"], a["kappa"], a["gamma_m"]
            )

        grad = em.dynamics.final_occupancy_gradient(
            em.ThermalState(39.0, n_c), args["g"], kappa, gm
        )
        assert set(grad) == set(args)
        for name, value in args.items():
            h = 1e-5 * max(abs(value), 1.0)
            # occupancies may sit at zero; n_m is linear in them
            lo = value if name in ("n_m_T", "n_c") else value - h
            fd = (occupancy({**args, name: value + h}) - occupancy({**args, name: lo})) / (value + h - lo)
            assert grad[name] == pytest.approx(fd, rel=1e-6, abs=1e-12), name


class TestFinalOccupancySecondOrder:
    def test_infinite_omega_m_rejected(self, device):
        # once returned the first-order occupancy
        with pytest.raises(ParameterError, match="^omega_m must be a finite number > 0, got inf$"):
            em.final_occupancy_2nd_order(em.ThermalState(n_m_T=40.0), 1e4, device.cavity.kappa, device.mech.gamma_m, math.inf)

    def test_correction_small_at_reference(self, device):
        kappa, gm, om = device.cavity.kappa, device.mech.gamma_m, device.mech.omega_m
        for n_c in (0.0, 0.3):
            thermal = em.ThermalState(n_m_T=40.0, n_c=n_c)
            for g in (TWO_PI * 1e3, TWO_PI * 30e3, TWO_PI * 90e3):
                first = em.final_occupancy(thermal, g, kappa, gm)
                second = em.final_occupancy_2nd_order(thermal, g, kappa, gm, om)
                assert second - first < 1e-4

    def test_reduces_to_first_order(self, device):
        kappa, gm = device.cavity.kappa, device.mech.gamma_m
        thermal = em.ThermalState(n_m_T=40.0, n_c=0.1)
        g = TWO_PI * 20e3
        first = em.final_occupancy(thermal, g, kappa, gm)
        second = em.final_occupancy_2nd_order(thermal, g, kappa, gm, 1e9 * kappa)
        assert second == pytest.approx(first, rel=1e-12)

    def test_zero_g_closed_form(self, device):
        kappa, gm, om = device.cavity.kappa, device.mech.gamma_m, device.mech.omega_m
        thermal = em.ThermalState(n_m_T=40.0, n_c=0.0)
        got = em.final_occupancy_2nd_order(thermal, 0.0, kappa, gm, om)
        assert got == pytest.approx(40.0 + kappa**2 / (16 * om**2), rel=1e-12)

    def test_always_at_least_first_order(self, device):
        kappa, gm, om = device.cavity.kappa, device.mech.gamma_m, device.mech.omega_m
        for n_mT, n_c in [(40.0, 0.0), (5.0, 1.0), (0.0, 0.5)]:
            thermal = em.ThermalState(n_m_T=n_mT, n_c=n_c)
            for g in np.logspace(1, 6, 40):
                assert em.final_occupancy_2nd_order(thermal, g, kappa, gm, om) >= em.final_occupancy(
                    thermal, g, kappa, gm
                )


class TestPhotonsAndPower:
    def test_single_photon_power(self, device):
        drive = em.DriveConfig.red_detuned(device, n_d=1.0)
        p = em.drive_power_for_photons(1.0, drive, device.cavity)
        assert p == pytest.approx(52.57e-15, rel=1e-3)
        assert p == pytest.approx(50e-15, rel=0.10)  # quoted approximate value

    def test_zero_power(self, device):
        drive = em.DriveConfig.red_detuned(device, n_d=1.0)
        assert em.intracavity_photons(0.0, drive, device.cavity) == 0.0

    def test_linearity(self, device):
        drive = em.DriveConfig.red_detuned(device, n_d=1.0)
        n1 = em.intracavity_photons(1e-13, drive, device.cavity)
        n2 = em.intracavity_photons(2e-13, drive, device.cavity)
        assert n2 == pytest.approx(2 * n1, rel=1e-12)

    def test_round_trip_inverse(self, device):
        drive = em.DriveConfig.red_detuned(device, n_d=123.0)
        p = em.drive_power_for_photons(123.0, drive, device.cavity)
        assert em.intracavity_photons(p, drive, device.cavity) == pytest.approx(123.0, rel=1e-12)

    def test_maximal_on_resonance(self, device):
        p_in = 1e-13
        on = em.intracavity_photons(p_in, em.DriveConfig(detuning=0.0, n_d=1.0), device.cavity)
        off = em.intracavity_photons(p_in, em.DriveConfig.red_detuned(device, n_d=1.0), device.cavity)
        assert on > off

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_rejected(self, device, bad):
        drive = em.DriveConfig.red_detuned(device, n_d=1.0)
        with pytest.raises(ParameterError, match=f"n_d must be a finite number >= 0, got {bad!r}"):
            em.drive_power_for_photons(bad, drive, device.cavity)
        with pytest.raises(ParameterError, match=f"power_in must be a finite number >= 0, got {bad!r}"):
            em.intracavity_photons(bad, drive, device.cavity)
        with pytest.raises(ParameterError, match=f"power_in must be a finite number >= 0, got {bad!r}"):
            em.transmitted_power(bad, device.cavity, drive.detuning)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_rejected(self, device, bad):
        with pytest.raises(ParameterError, match=f"detuning must be a finite number, got {bad!r}"):
            em.transmitted_power(1e-15, device.cavity, bad)
        with pytest.raises(ParameterError, match=f"detuning must be a finite number, got {bad!r}"):
            em.sideband_rates(1e3, device.cavity.kappa, bad, device.mech.omega_m)


class TestTransmittedPower:
    def test_resonant_extinction(self, device):
        ratio = em.transmitted_power(1.0, device.cavity, 0.0)
        assert ratio == pytest.approx((67.0 / 200.0) ** 2, rel=1e-6)

    def test_far_detuned_transparent(self, device):
        p = em.transmitted_power(1.0, device.cavity, 1e6 * device.cavity.kappa)
        assert p == pytest.approx(1.0, rel=1e-9)

    def test_no_external_coupling(self):
        cavity = em.Cavity(omega_c=1e10, kappa_ex=1e-6, kappa_0=1e6, beta=0.5)
        for delta in (0.0, 1e5, 1e7):
            assert em.transmitted_power(1.0, cavity, delta) == pytest.approx(1.0, rel=1e-9)

    def test_never_exceeds_input(self, device):
        for delta in np.linspace(-1e7, 1e7, 41):
            assert em.transmitted_power(1.0, device.cavity, delta) <= 1.0


class TestStorageTime:
    def test_reference(self, device):
        thermal = em.ThermalState(n_m_T=40.0)
        tau = em.storage_time(thermal, device.mech.gamma_m)
        assert tau == pytest.approx(124.3e-6, rel=1e-3)
        assert tau > 100e-6

    def test_halving_doubles(self, device):
        t1 = em.storage_time(em.ThermalState(n_m_T=40.0), device.mech.gamma_m)
        t2 = em.storage_time(em.ThermalState(n_m_T=20.0), device.mech.gamma_m)
        assert t2 == pytest.approx(2 * t1, rel=1e-12)

    def test_unit_case(self):
        assert em.storage_time(em.ThermalState(n_m_T=1.0), 1.0) == 1.0

    def test_empty_bath_sentinel(self):
        assert em.storage_time(em.ThermalState(n_m_T=0.0), 1.0) == math.inf

    def test_infinite_gamma_m_rejected(self):
        # once returned 0.0
        with pytest.raises(ParameterError, match="^gamma_m must be a finite number > 0, got inf$"):
            em.storage_time(em.ThermalState(n_m_T=40.0), math.inf)


class TestDriveConfig:
    def test_red_detuned_matches_device(self, device):
        drive = em.DriveConfig.red_detuned(device, n_d=10.0)
        assert drive.detuning == -device.mech.omega_m

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_n_d_rejected(self, device, bad):
        with pytest.raises(ParameterError, match=f"n_d must be a finite number >= 0, got {bad!r}"):
            em.DriveConfig.red_detuned(device, n_d=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_rejected(self, bad):
        with pytest.raises(ParameterError, match=f"detuning must be a finite number, got {bad!r}"):
            em.DriveConfig(detuning=bad, n_d=1.0)


class TestThermalState:
    def test_from_temperature(self, device):
        thermal = em.ThermalState.from_temperature(0.020, device.mech, n_c=0.1)
        assert thermal.n_m_T == em.bose_occupancy(0.020, device.mech.omega_m)
        assert thermal.n_c == 0.1

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            em.ThermalState(n_m_T=-1.0)
        with pytest.raises(ParameterError):
            em.ThermalState(n_m_T=1.0, n_c=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            em.ThermalState(n_m_T=bad)
        with pytest.raises(ParameterError, match="finite"):
            em.ThermalState(n_m_T=1.0, n_c=bad)


class TestPredictCoolingPoint:
    @pytest.mark.parametrize("name,bad", [("n_m", math.nan), ("gamma_total", math.inf)])
    def test_non_finite_point_rejected(self, device, name, bad):
        # each once constructed
        pt = em.predict_cooling_point(device, em.ThermalState(n_m_T=40.0), 4000.0)
        with pytest.raises(ParameterError, match=rf"^{name} must be a finite number >=? 0, got {bad!r}$"):
            replace(pt, **{name: bad})

    def test_consistency(self, device):
        thermal = em.ThermalState(n_m_T=40.0, n_c=0.0)
        pt = em.predict_cooling_point(device, thermal, 4000.0)
        assert pt.g == em.coupling_rate(device.coupling, device.mech, 4000.0)
        assert pt.gamma_total == pytest.approx(device.mech.gamma_m + pt.gamma_opt)
        assert pt.n_m == pytest.approx(0.4048, rel=0.01)

    def test_linewidth_doubling_drive(self, device):
        # Gamma = Gamma_m happens near n_d = kappa*gamma_m/(4 g0^2) ~ 40 photons
        g0 = device.coupling.g0(device.mech)
        n_star = device.cavity.kappa * device.mech.gamma_m / (4 * g0 * g0)
        assert n_star == pytest.approx(40.25, rel=0.01)
        pt = em.predict_cooling_point(device, em.ThermalState(n_m_T=40.0), n_star)
        # Gamma_minus shaves ~2e-5 off the 4g^2/kappa estimate
        assert pt.gamma_total == pytest.approx(2 * device.mech.gamma_m, rel=1e-4)
