"""emcool: sideband-cooling simulation and inference for cavity electromechanics.

Forward models for the output noise spectrum and final phonon occupancy of a
micromechanical oscillator parametrically coupled to a microwave cavity, plus
the inverse problems (spectral fits, coupling calibration, cooling-sweep
analysis) used to demonstrate ground-state cooling.
"""

from .constants import HBAR, K_B
from .device import (
    Cavity,
    Coupling,
    DeviceParams,
    MechanicalMode,
    REFERENCE_N_ADD_EFF,
    bose_occupancy,
    load_device,
    quality_factor,
    reference_device,
    zero_point_motion,
)
from .dynamics import (
    CoolingPoint,
    DriveConfig,
    ThermalState,
    coupling_rate,
    drive_power_for_photons,
    final_occupancy,
    final_occupancy_2nd_order,
    intracavity_photons,
    predict_cooling_point,
    sideband_rates,
    storage_time,
    total_linewidth,
    transmitted_power,
)
from .errors import (
    DegenerateFitError,
    DeviceFileError,
    ParameterError,
    ParametricInstabilityError,
    PeakDetectionError,
    UnitError,
)
from .estimation import (
    CalibrationResult,
    CoolingCurve,
    FitResult,
    analyze_cooling_sweep,
    calibrate_coupling,
    fit_full_model,
    fit_lorentzian,
)
from .limits import (
    LimitReport,
    heisenberg_product,
    imprecision_from_chain,
    total_force_psd,
)
from .spectra import (
    ModelParams,
    SpectrumTrace,
    SpectrumUnit,
    cavity_susceptibility,
    convert_trace,
    dressed_mech_susceptibility,
    mech_susceptibility,
    noise_floor,
    output_noise_spectrum,
    output_noise_values,
    read_trace,
    sideband_grid,
    thermal_displacement_psd,
    write_trace,
)
from .synth import NoiseConfig, generate_spectrum

__version__ = "0.1.0"
