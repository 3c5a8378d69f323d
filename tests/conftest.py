import math
from dataclasses import asdict

import pytest
from hypothesis import settings

import emcool as em
from emcool.estimation import DEFAULT_FREE

TWO_PI = 2.0 * math.pi

# property tests draw the same examples every run, like everything else here
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def device():
    return em.reference_device()


@pytest.fixture(scope="session")
def fixed_model(device):
    """Fixed parameter set for full-model fits (everything but the defaults)."""
    pinned = asdict(em.ModelParams.for_device(device, g=0.0, n_m_T=0.0))
    return {k: v for k, v in pinned.items() if k not in DEFAULT_FREE}


def model_params(device, n_d, n_m_T=40.0, n_c=0.0, n_add_eff=2.1, delta_tilde=0.0):
    g = em.coupling_rate(device.coupling, device.mech, n_d)
    return em.ModelParams.for_device(
        device, g=g, n_m_T=n_m_T, n_c=n_c, n_add_eff=n_add_eff, delta_tilde=delta_tilde
    )


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
