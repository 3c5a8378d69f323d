"""Deterministic generation of realistic noisy spectra for fit validation.

Averaged-periodogram statistics: each bin of an n_avg-fold averaged power
spectrum is the true PSD times a Gamma(n_avg, 1/n_avg) variate (mean 1,
variance 1/n_avg).  Draws come from numpy's Philox counter-based generator,
so output is bit-identical across runs and platforms for a given seed and
numpy major version; the whole array is drawn in one call, making the result
independent of any evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _require
from .spectra import ModelParams, SpectrumTrace, SpectrumUnit, grid_for, output_noise_spectrum


@dataclass(frozen=True)
class NoiseConfig:
    """Averaging count and seed for synthetic traces; the seed keys
    numpy's Philox generator, which takes [0, 2**64)."""

    n_avg: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        _require("n_avg", self.n_avg, ge=1)
        _require("seed", self.seed, ge=0, lt=2**64)


def periodogram_factors(n_bins: int, n_avg: int, seed: int) -> np.ndarray:
    """Multiplicative noise factors: Gamma(n_avg, 1/n_avg) per bin, Philox-keyed."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return rng.gamma(shape=float(n_avg), scale=1.0 / n_avg, size=n_bins)


def generate_spectrum(
    params: ModelParams,
    noise: NoiseConfig,
    freq_hz: np.ndarray | None = None,
) -> SpectrumTrace:
    """Noisy output spectrum: model values times seeded periodogram factors.

    Uses the exact output-noise model on `freq_hz` (or `grid_for(params)`,
    the default grid sized from the model linewidths).  n_avg and seed land
    in the trace metadata so fits can reconstruct the per-bin weights.
    """
    if freq_hz is None:
        freq_hz = grid_for(params)
    clean = output_noise_spectrum(freq_hz, params)
    factors = periodogram_factors(clean.values.size, noise.n_avg, noise.seed)
    meta = dict(clean.meta)
    meta.update(n_avg=noise.n_avg, seed=noise.seed)
    return SpectrumTrace(
        freq_hz=clean.freq_hz,
        values=clean.values * factors,
        unit=SpectrumUnit.QUANTA,
        meta=meta,
    )
