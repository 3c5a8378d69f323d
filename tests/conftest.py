import math

import numpy as np
import pytest
from hypothesis import settings

import emcool as em
from emcool import estimation
from emcool.estimation import _nnls
from emcool.spectra import _basis_factors, _basis_row

TWO_PI = 2.0 * math.pi

# property tests draw the same examples every run, like everything else here
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def device():
    return em.reference_device()


@pytest.fixture(scope="session")
def device_model(device):
    """Model parameters of the device for full-model fits: the values a fit
    pins (kappa, gamma_m, ...); its g and amplitudes are free by default."""
    return em.ModelParams.for_device(device, g=0.0, n_m_T=0.0)


def model_params(device, n_d, n_m_T=40.0, n_c=0.0, n_add_eff=2.1, delta_tilde=0.0):
    g = em.coupling_rate(device.coupling, device.mech, n_d)
    return em.ModelParams.for_device(
        device, g=g, n_m_T=n_m_T, n_c=n_c, n_add_eff=n_add_eff, delta_tilde=delta_tilde
    )


def basis(delta, g, kappa, kappa_ex, gamma_m, delta_tilde, beta):
    """Terms A = s K and B = 4 gamma_m g^2 s of S/(hbar omega) = 1/2 + n_add'
    + n_c A + n_m^T B from the fit's own `_basis_factors` and `_basis_row`;
    `g` may broadcast against `delta` (shape (m, 1): a row per coupling)."""
    factors = _basis_factors(np.asarray(delta, dtype=float), kappa, kappa_ex, gamma_m, delta_tilde, beta)
    s = _basis_row(factors, g)
    return s * factors[2], s * (factors[4] * np.square(g))


def recorded_passes(monkeypatch):
    """Wrap the fit's IRLS pass (`estimation._weighted_steps`) and its g
    profile (`estimation._profile_steps`) to keep, per pass, a dict of its
    arguments "normal", "scan", "g" and "start"; "cost", ln g to the profile
    cost at the pass's weights; "costed", the cost of every node its profile
    costed, by ln g; "profile", the profile's result (node, cost, nodes,
    calls) when g is free; and "fit", the pass's WeightedFit."""
    passes = []
    weighted_steps, profile_steps = estimation._weighted_steps, estimation._profile_steps

    def weighted(normal, scan, g, start, step_costs):
        record = {"normal": normal, "scan": scan, "g": g, "start": start, "costed": {},
                  "cost": lambda ln_g: _nnls(normal.gram(np.exp(ln_g)))[1]}
        passes.append(record)
        record["fit"] = yield from weighted_steps(normal, scan, g, start, step_costs)
        return record["fit"]

    def profile(scan, step_costs, start):
        record, steps, costs = passes[-1], profile_steps(scan, step_costs, start), None  # its pass's, just begun
        while True:
            try:
                nodes = steps.send(costs)
            except StopIteration as stop:
                record["profile"] = stop.value
                return stop.value
            costs = yield nodes
            record["costed"].update(zip(nodes.tolist(), costs.tolist()))

    monkeypatch.setattr(estimation, "_weighted_steps", weighted)
    monkeypatch.setattr(estimation, "_profile_steps", profile)
    return passes


def output_trace(device, n_d, *, n_m_T=40.0, n_c=0.0, n_add_eff=2.1, seed=0,
                 n_avg=20000, points=4096, halfspan_hz=600e3):
    """Synthetic noisy output spectrum for one operating point."""
    params = model_params(device, n_d, n_m_T=n_m_T, n_c=n_c, n_add_eff=n_add_eff)
    grid = em.sideband_grid(
        device.mech.omega_m, 0.0, device.cavity.kappa, points=points, halfspan_hz=halfspan_hz
    )
    noise = em.NoiseConfig(n_avg=n_avg, seed=seed)
    return em.generate_spectrum(params, noise, freq_hz=grid), params


def gamma_total_at(device, n_d):
    g = em.coupling_rate(device.coupling, device.mech, n_d)
    _, _, gamma_opt = em.sideband_rates(
        g, device.cavity.kappa, -device.mech.omega_m, device.mech.omega_m
    )
    return em.total_linewidth(device.mech.gamma_m, gamma_opt)
