"""Static device parameters and elementary derived quantities.

All rates are stored in angular units (rad/s).  File formats and the CLI
speak ordinary frequencies (Hz); the 2*pi conversion happens exactly once,
at the boundary (`load_device` / `device_file_text`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .constants import HBAR, K_B, TWO_PI
from .errors import DeviceFileError, ParameterError, _require

# Effective added noise of the reference measurement chain, in quanta.
# This is the measured end-to-end value; a beam-splitter loss model,
# n_add/eta + (1 - eta)/(2 eta) with n_add=0.8 and 2.5 dB of line loss, predicts 1.81.
REFERENCE_N_ADD_EFF = 2.1


@dataclass(frozen=True)
class MechanicalMode:
    """One flexural mechanical resonance.

    omega_m : resonance frequency (rad/s)
    gamma_m : intrinsic energy decay rate (rad/s)
    mass    : effective mass (kg)
    """

    omega_m: float
    gamma_m: float
    mass: float

    def __post_init__(self) -> None:
        for name in ("omega_m", "gamma_m", "mass"):
            _require(name, getattr(self, name), gt=0)
        if self.omega_m / self.gamma_m < 1.0:
            raise ParameterError("quality factor omega_m/gamma_m must be >= 1")


@dataclass(frozen=True)
class Cavity:
    """Microwave cavity: resonance, port coupling, internal loss, geometry.

    beta is the fraction of the outgoing field routed to the measurement
    port: 1/2 for a symmetric two-port circuit (power leaves equally toward
    output and input), 1 for a single-port reflection geometry.  Any value
    in (0, 1] is accepted.
    """

    omega_c: float
    kappa_ex: float
    kappa_0: float
    beta: float = 0.5

    def __post_init__(self) -> None:
        for name in ("omega_c", "kappa_ex", "kappa_0"):
            _require(name, getattr(self, name), gt=0)
        _require("beta", self.beta, gt=0, le=1)

    @property
    def kappa(self) -> float:
        """Total energy decay rate kappa_0 + kappa_ex (rad/s)."""
        return self.kappa_0 + self.kappa_ex


@dataclass(frozen=True)
class Coupling:
    """Electromechanical cavity pull G = d(omega_c)/dx in rad/s per meter.

    The vacuum coupling rate g0 = G*x_zp is always recomputed from G and the
    mechanical mode, never stored, so the two cannot drift apart.
    """

    G: float

    def __post_init__(self) -> None:
        _require("G", self.G, gt=0)

    def g0(self, mech: MechanicalMode) -> float:
        """Vacuum coupling rate G*x_zp (rad/s)."""
        return self.G * zero_point_motion(mech)


@dataclass(frozen=True)
class DeviceParams:
    """Complete static description of one electromechanical device."""

    mech: MechanicalMode
    cavity: Cavity
    coupling: Coupling


def zero_point_motion(mech: MechanicalMode) -> float:
    """RMS ground-state displacement sqrt(hbar / (2 m omega_m)) in meters."""
    return math.sqrt(HBAR / (2.0 * mech.mass * mech.omega_m))


def quality_factor(mech: MechanicalMode) -> float:
    """Mechanical quality factor omega_m / gamma_m."""
    return mech.omega_m / mech.gamma_m


def bose_occupancy(temperature: float, omega: float) -> float:
    """Equilibrium occupancy 1/(exp(hbar*omega/k_B*T) - 1) of a mode at `omega`.

    Returns exactly 0 at T=0.  For k_B*T >> hbar*omega this approaches
    k_B*T/(hbar*omega).
    """
    _require("omega", omega, gt=0)
    _require("temperature", temperature, ge=0)
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    if x > 700.0:  # expm1 would overflow; occupancy is ~exp(-x) anyway
        return math.exp(-x)
    return 1.0 / math.expm1(x)


# --- device parameter files -------------------------------------------------
#
# Flat UTF-8 key=value text, one line per key below, each under its comment.
# A row is (key, DeviceParams part, field, Hz scale, comment): the field is
# the file's value times the scale, 2*pi for the keys that hold ordinary
# frequencies (Hz, or Hz per meter for G).

_DEVICE_FILE = (
    ("omega_m_hz", "mech", "omega_m", TWO_PI, "mechanical resonance of the membrane fundamental mode (measured)"),
    ("gamma_m_hz", "mech", "gamma_m", TWO_PI, "intrinsic mechanical damping rate (measured, ringdown)"),
    ("mass_kg", "mech", "mass", 1.0, "effective motional mass (from membrane geometry)"),
    ("omega_c_hz", "cavity", "omega_c", TWO_PI, "LC cavity resonance (measured)"),
    ("kappa_ex_hz", "cavity", "kappa_ex", TWO_PI, "external coupling rate to the feed line (measured)"),
    ("kappa_0_hz", "cavity", "kappa_0", TWO_PI, "intrinsic cavity loss rate (measured)"),
    ("beta", "cavity", "beta", 1.0, "output-routing fraction, 1/2 for the symmetric two-port circuit"),
    ("G_hz_per_m", "coupling", "G", TWO_PI, "cavity pull d f_c/dx (from thermal-sweep calibration)"),
)
DEVICE_FILE_KEYS = tuple(row[0] for row in _DEVICE_FILE)


def parse_device_text(text: str, source: str = "<string>") -> DeviceParams:
    """Parse a device parameter file body into DeviceParams."""
    seen: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise DeviceFileError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        if key not in DEVICE_FILE_KEYS:
            raise DeviceFileError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise DeviceFileError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            seen[key] = float(value.strip())
        except ValueError as exc:
            raise DeviceFileError(f"{source}:{lineno}: bad value for {key!r}: {value.strip()!r}") from exc

    missing = [k for k in DEVICE_FILE_KEYS if k not in seen]
    if missing:
        raise DeviceFileError(f"{source}: missing keys: {', '.join(missing)}")
    parts: dict[str, dict[str, float]] = {"mech": {}, "cavity": {}, "coupling": {}}
    for key, part, name, scale, _ in _DEVICE_FILE:
        try:  # every value is a rate, a mass, a pull or a fraction
            _require(key, seen[key], gt=0)
        except ParameterError as exc:
            raise DeviceFileError(f"{source}: {exc}") from None
        parts[part][name] = scale * seen[key]
        if parts[part][name] == math.inf:  # a finite rate in Hz may overflow in rad/s
            raise DeviceFileError(f"{source}: {key} = {seen[key]!r} overflows as {name} = {scale:.6g} x {key}")
    return DeviceParams(MechanicalMode(**parts["mech"]), Cavity(**parts["cavity"]), Coupling(**parts["coupling"]))


def load_device(path: str | Path) -> DeviceParams:
    """Load a device parameter file (see DEVICE_FILE_KEYS for the schema)."""
    path = Path(path)
    return parse_device_text(path.read_text(encoding="utf-8"), source=str(path))


def device_file_text(device: DeviceParams) -> str:
    """The key=value file of `device`, which `parse_device_text` reads back
    exactly: every key, under its comment, in 17 significant digits."""
    lines = []
    for key, part, name, scale, comment in _DEVICE_FILE:
        lines += [f"# {comment}", f"{key}={getattr(getattr(device, part), name) / scale:.17g}"]
    return "\n".join(lines) + "\n"


def reference_device() -> DeviceParams:
    """The bundled reference device: a 10.56 MHz aluminum membrane mode
    coupled to a 7.54 GHz superconducting LC cavity (two-port, beta=1/2)."""
    return DeviceParams(
        mech=MechanicalMode(omega_m=TWO_PI * 10.56e6, gamma_m=TWO_PI * 32.0, mass=48e-15),
        cavity=Cavity(
            omega_c=TWO_PI * 7.54e9,
            kappa_ex=TWO_PI * 133e3,
            kappa_0=TWO_PI * 67e3,
            beta=0.5,
        ),
        coupling=Coupling(G=TWO_PI * 49e6 / 1e-9),
    )
