import math

import pytest
from hypothesis import given, strategies as st

import emcool as em
from emcool.constants import HBAR, K_B
from emcool.device import DEVICE_FILE_KEYS, device_file_text, parse_device_text
from emcool.errors import DeviceFileError, ParameterError

TWO_PI = 2.0 * math.pi


def mech(omega_hz=10.56e6, gamma_hz=32.0, mass=48e-15):
    return em.MechanicalMode(omega_m=TWO_PI * omega_hz, gamma_m=TWO_PI * gamma_hz, mass=mass)


class TestZeroPointMotion:
    def test_reference_device_value(self, device):
        # 4.1 fm quoted for the 48 pg, 10.56 MHz membrane mode
        assert em.zero_point_motion(device.mech) == pytest.approx(4.1e-15, rel=0.02)

    def test_quadruple_mass_halves(self):
        base = em.zero_point_motion(mech())
        assert em.zero_point_motion(mech(mass=4 * 48e-15)) == pytest.approx(base / 2, rel=1e-12)

    def test_unit_inputs(self):
        # oracle: direct evaluation of sqrt(hbar/2)
        expected = math.sqrt(1.054571817e-34 / 2.0)
        got = em.zero_point_motion(em.MechanicalMode(omega_m=1.0, gamma_m=0.5, mass=1.0))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(7.261445506922158e-18, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            em.MechanicalMode(omega_m=-1.0, gamma_m=1.0, mass=1.0)
        with pytest.raises(ParameterError):
            em.MechanicalMode(omega_m=1.0, gamma_m=0.5, mass=0.0)

    @given(
        st.floats(min_value=1e-18, max_value=1e3),
        st.floats(min_value=1.0, max_value=1e10),
    )
    def test_scaling_law(self, mass, omega):
        # x_zp ~ 1/sqrt(m omega): doubling both halves it
        m1 = em.MechanicalMode(omega_m=omega, gamma_m=omega / 10, mass=mass)
        m2 = em.MechanicalMode(omega_m=2 * omega, gamma_m=omega / 10, mass=2 * mass)
        assert em.zero_point_motion(m2) == pytest.approx(em.zero_point_motion(m1) / 2, rel=1e-9)


class TestQualityFactor:
    def test_reference_device(self, device):
        assert em.quality_factor(device.mech) == pytest.approx(3.3e5, rel=0.01)

    def test_unity(self):
        m = em.MechanicalMode(omega_m=100.0, gamma_m=100.0, mass=1e-12)
        assert em.quality_factor(m) == 1.0

    def test_ratio(self):
        assert em.quality_factor(mech(omega_hz=1e6, gamma_hz=10.0)) == pytest.approx(1e5, rel=1e-12)

    def test_sub_unity_rejected(self):
        with pytest.raises(ParameterError):
            em.MechanicalMode(omega_m=10.0, gamma_m=20.0, mass=1e-12)


class TestBoseOccupancy:
    def test_15mk(self, device):
        n = em.bose_occupancy(0.015, device.mech.omega_m)
        assert n == pytest.approx(29.100285866139, rel=1e-9)  # paper rounds to 30
        assert n == pytest.approx(30.0, rel=0.05)

    def test_20mk(self, device):
        n = em.bose_occupancy(0.020, device.mech.omega_m)
        assert n == pytest.approx(38.965405462713, rel=1e-9)  # paper rounds to 40
        assert n == pytest.approx(40.0, rel=0.05)

    def test_zero_temperature(self):
        assert em.bose_occupancy(0.0, 1e7) == 0.0

    def test_classical_limit(self):
        omega = TWO_PI * 1e6
        T = 10.0
        assert em.bose_occupancy(T, omega) == pytest.approx(K_B * T / (HBAR * omega), rel=1e-3)

    def test_no_overflow_deep_quantum(self):
        assert em.bose_occupancy(1e-9, TWO_PI * 1e10) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            em.bose_occupancy(0.1, 0.0)
        with pytest.raises(ParameterError):
            em.bose_occupancy(-0.1, 1.0)
        for temperature in (math.nan, math.inf):  # once nan out, and a ZeroDivisionError
            with pytest.raises(ParameterError, match="temperature must be a finite number >= 0"):
                em.bose_occupancy(temperature, 1.0)

    def test_infinite_omega_rejected(self):
        # once returned 0.0
        with pytest.raises(ParameterError, match="^omega must be a finite number > 0, got inf$"):
            em.bose_occupancy(0.020, math.inf)

    @given(st.floats(min_value=1e-3, max_value=10.0), st.floats(min_value=1e6, max_value=1e11))
    def test_monotonic_in_temperature(self, T, omega):
        assert em.bose_occupancy(1.5 * T, omega) > em.bose_occupancy(T, omega)

    @given(st.floats(min_value=1e-2, max_value=10.0), st.floats(min_value=1e6, max_value=1e10))
    def test_monotonic_in_frequency(self, T, omega):
        # stays away from the deep-quantum underflow region where both sides are 0.0
        assert em.bose_occupancy(T, 1.5 * omega) < em.bose_occupancy(T, omega)


class TestTypes:
    def test_cavity_kappa_sum(self, device):
        assert device.cavity.kappa == device.cavity.kappa_0 + device.cavity.kappa_ex

    def test_cavity_beta_range(self):
        with pytest.raises(ParameterError):
            em.Cavity(omega_c=1e10, kappa_ex=1e5, kappa_0=1e5, beta=0.0)
        with pytest.raises(ParameterError):
            em.Cavity(omega_c=1e10, kappa_ex=1e5, kappa_0=1e5, beta=1.5)
        em.Cavity(omega_c=1e10, kappa_ex=1e5, kappa_0=1e5, beta=1.0)  # single port fine

    @pytest.mark.parametrize("field", ["omega_m", "gamma_m", "mass"])
    def test_infinite_mode_value_rejected(self, device, field):
        values = {"omega_m": device.mech.omega_m, "gamma_m": device.mech.gamma_m, "mass": device.mech.mass, field: math.inf}
        with pytest.raises(ParameterError, match=f"{field} must be a finite number > 0, got inf"):
            em.MechanicalMode(**values)

    def test_coupling_g0_recomputed(self, device):
        g0 = device.coupling.g0(device.mech)
        assert g0 == device.coupling.G * em.zero_point_motion(device.mech)
        assert g0 / TWO_PI == pytest.approx(199.4, rel=0.01)

    def test_sideband_resolution(self, device):
        assert device.mech.omega_m / device.cavity.kappa > 50


class TestDeviceFile:
    def test_round_trip(self, device, tmp_path):
        path = tmp_path / "dev.txt"
        path.write_text(device_file_text(device), encoding="utf-8")
        loaded = em.load_device(path)
        assert loaded == device

    def test_reference_values(self, device):
        assert device.mech.omega_m == pytest.approx(TWO_PI * 10.56e6)
        assert device.cavity.kappa == pytest.approx(TWO_PI * 200e3)
        assert device.coupling.G == pytest.approx(TWO_PI * 49e6 / 1e-9)
        assert device.cavity.beta == 0.5

    def test_unknown_key(self):
        text = device_file_text(em.reference_device()) + "bogus_key=1\n"
        with pytest.raises(DeviceFileError, match="unknown key"):
            parse_device_text(text)

    def test_missing_keys_all_listed(self):
        with pytest.raises(DeviceFileError) as err:
            parse_device_text("omega_m_hz=1e6\n")
        for key in DEVICE_FILE_KEYS:
            if key != "omega_m_hz":
                assert key in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(DeviceFileError, match="duplicate"):
            parse_device_text("omega_m_hz=1e6\nomega_m_hz=2e6\n")

    def test_bad_value(self):
        with pytest.raises(DeviceFileError, match="bad value"):
            parse_device_text("omega_m_hz=ten\n")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
    def test_value_not_finite_and_positive(self, device, value):
        text = device_file_text(device).replace("kappa_0_hz=", f"kappa_0_hz={value}\n# was ")
        with pytest.raises(DeviceFileError) as err:
            parse_device_text(text, source="dev.txt")
        assert str(err.value) == f"dev.txt: kappa_0_hz must be a finite number > 0, got {float(value)!r}"

    def test_value_overflowing_in_si_units(self, device):
        # 1e308 Hz is finite, but 2 pi times it is not: the error names the
        # file and the key, not only the scaled field
        text = device_file_text(device).replace("kappa_0_hz=", "kappa_0_hz=1e308\n# was ")
        with pytest.raises(DeviceFileError) as err:
            parse_device_text(text, source="dev.txt")
        assert str(err.value) == "dev.txt: kappa_0_hz = 1e+308 overflows as kappa_0 = 6.28319 x kappa_0_hz"

    def test_comments_and_blanks_ignored(self, device):
        text = "# a comment\n\n" + device_file_text(device)
        assert parse_device_text(text) == device

    def test_hz_conversion_at_boundary(self):
        text = device_file_text(em.reference_device())
        assert "omega_m_hz=10560000" in text  # ordinary Hz in the file
