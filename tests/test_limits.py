import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import emcool as em
from emcool.constants import HBAR, K_B
from emcool.errors import ParameterError

from conftest import gamma_total_at

TWO_PI = 2.0 * math.pi


class TestImprecisionFromChain:
    def test_asymptote_reference_chain(self, device):
        cavity = device.cavity
        n_imp = em.imprecision_from_chain(
            math.inf, cavity.kappa, cavity.kappa_ex, device.mech.gamma_m, cavity.beta, 2.1
        )
        assert n_imp == pytest.approx(1.9549, rel=1e-3)
        assert n_imp == pytest.approx(1.9, rel=0.10)

    def test_ideal_quarter(self):
        assert em.imprecision_from_chain(math.inf, 1e6, 1e6, 10.0, 1.0, 0.5) == pytest.approx(0.25)

    def test_matched_rates_doubles_asymptote(self, device):
        cavity = device.cavity
        gm = device.mech.gamma_m
        g = math.sqrt(cavity.kappa * gm) / 2.0
        finite = em.imprecision_from_chain(g, cavity.kappa, cavity.kappa_ex, gm, cavity.beta, 2.1)
        asympt = em.imprecision_from_chain(math.inf, cavity.kappa, cavity.kappa_ex, gm, cavity.beta, 2.1)
        assert finite == pytest.approx(2 * asympt, rel=1e-9)

    def test_zero_coupling_diverges(self, device):
        cavity = device.cavity
        with pytest.raises(ParameterError):
            em.imprecision_from_chain(0.0, cavity.kappa, cavity.kappa_ex, device.mech.gamma_m, 0.5, 2.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, device, bad):
        # g = inf is the large-drive asymptote; a nan coupling and a rate
        # that is not finite are errors
        cavity, gm = device.cavity, device.mech.gamma_m
        with pytest.raises(ParameterError, match="g must be a number >= 0"):
            em.imprecision_from_chain(math.nan, cavity.kappa, cavity.kappa_ex, gm, 0.5, 2.1)
        with pytest.raises(ParameterError, match=f"kappa must be a finite number > 0, got {bad!r}"):
            em.imprecision_from_chain(1e5, bad, cavity.kappa_ex, gm, 0.5, 2.1)
        with pytest.raises(ParameterError, match=f"kappa_ex must be a finite number > 0, got {bad!r}"):
            em.imprecision_from_chain(1e5, cavity.kappa, bad, gm, 0.5, 2.1)
        with pytest.raises(ParameterError, match=f"gamma_m must be a finite number > 0, got {bad!r}"):
            em.imprecision_from_chain(1e5, cavity.kappa, cavity.kappa_ex, bad, 0.5, 2.1)

    def test_decreasing_and_bounded_below(self, device):
        cavity = device.cavity
        gm = device.mech.gamma_m
        asympt = em.imprecision_from_chain(math.inf, cavity.kappa, cavity.kappa_ex, gm, 0.5, 2.1)
        gs = np.logspace(2, 7, 60)
        values = [
            em.imprecision_from_chain(g, cavity.kappa, cavity.kappa_ex, gm, 0.5, 2.1) for g in gs
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v > asympt for v in values)


class TestForceNoise:
    def test_paper_value(self, device):
        gamma_total = gamma_total_at(device, 3e4)
        s_f = em.total_force_psd(device.mech, gamma_total, 0.36)
        assert s_f == pytest.approx(1.6e-34, rel=0.10)

    def test_zero_point_floor(self, device):
        mech = device.mech
        gamma = 1.5e5
        floor = em.total_force_psd(mech, gamma, 0.0)
        assert floor == pytest.approx(2 * HBAR * mech.omega_m * mech.mass * gamma, rel=1e-12)

    def test_classical_limit(self, device):
        mech = device.mech
        T = 0.5  # n ~ 1e3 at omega_m
        quantum = em.total_force_psd(mech, mech.gamma_m, em.bose_occupancy(T, mech.omega_m))
        classical = 4 * K_B * T * mech.mass * mech.gamma_m
        assert quantum == pytest.approx(classical, rel=5e-4)

    def test_linear_in_occupancy(self, device):
        mech = device.mech
        gamma = 2e5
        base = em.total_force_psd(mech, gamma, 0.0)
        s1 = em.total_force_psd(mech, gamma, 1.0) - base
        s10 = em.total_force_psd(mech, gamma, 10.0) - base
        assert s10 == pytest.approx(10 * s1, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, device, bad):
        with pytest.raises(ParameterError, match=f"gamma_total must be a finite number > 0, got {bad!r}"):
            em.total_force_psd(device.mech, bad, 1.0)
        with pytest.raises(ParameterError, match=f"n_m must be a finite number >= 0, got {bad!r}"):
            em.total_force_psd(device.mech, 1.5e5, bad)


class TestHeisenbergProduct:
    def test_paper_value(self):
        product = em.heisenberg_product(1.9, 0.36 + 0.5)
        assert product == pytest.approx(5.1, abs=0.4)

    def test_ideal_floor(self):
        with pytest.warns(UserWarning, match="red-detuned"):
            assert em.heisenberg_product(0.25, 0.25) == 1.0

    def test_red_detuned_floor(self):
        assert em.heisenberg_product(0.25, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_sub_heisenberg_rejected(self):
        with pytest.raises(ParameterError):
            em.heisenberg_product(0.1, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError, match=f"n_imp must be a finite number >= 0, got {bad!r}"):
            em.heisenberg_product(bad, 1.0)
        with pytest.raises(ParameterError, match=f"n_ba must be a finite number >= 0, got {bad!r}"):
            em.heisenberg_product(1.0, bad)

    def test_sub_sqrt2_warns_when_red_detuned(self):
        with pytest.warns(UserWarning, match="red-detuned"):
            em.heisenberg_product(0.25, 0.3)

    def test_ideal_chain_bound_identity(self):
        n_imp = em.imprecision_from_chain(math.inf, 1e6, 1e6, 10.0, 1.0, 0.5)
        assert em.heisenberg_product(n_imp, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestLimitReport:
    def test_build_and_json(self, device):
        gamma_total = gamma_total_at(device, 3e4)
        report = em.LimitReport(
            n_imp=1.9,
            n_ba=0.86,
            s_x_imp=1.7e-33,
            s_f_total=em.total_force_psd(device.mech, gamma_total, 0.36),
        )
        payload = json.loads(json.dumps(asdict(report)))  # as `emcool report` writes it
        assert set(payload) == {"n_imp", "n_ba", "s_x_imp", "s_f_total", "product_over_hbar"}
        assert payload["product_over_hbar"] == pytest.approx(4 * math.sqrt(1.9 * 0.86))

    def test_product_consistency_invariant(self):
        report = em.LimitReport(n_imp=1.0, n_ba=1.0, s_x_imp=1e-33, s_f_total=1e-34)
        assert report.product_over_hbar == 4 * math.sqrt(report.n_imp * report.n_ba)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            em.LimitReport(n_imp=-1.0, n_ba=0.5, s_x_imp=0.0, s_f_total=0.0)

    @pytest.mark.parametrize("name", ["n_imp", "n_ba", "s_x_imp", "s_f_total"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, bad):
        values = {"n_imp": 1.0, "n_ba": 1.0, "s_x_imp": 1e-33, "s_f_total": 1e-34, name: bad}
        with pytest.raises(ParameterError, match=f"{name} must be a finite number >= 0, got {bad!r}"):
            em.LimitReport(**values)
