"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """An argument is outside the physical domain of an operation."""


class ParametricInstabilityError(ValueError):
    """Anti-damping exceeds the intrinsic damping (total linewidth <= 0).

    Raised instead of returning a value because every downstream quantity
    (Lorentzian areas, imprecision quanta, occupancies) is meaningless past
    the instability threshold.
    """


class UnitError(ValueError):
    """A spectrum trace is in the wrong unit for the requested operation."""


class DeviceFileError(ValueError):
    """A device parameter file is malformed (unknown or missing keys, or a
    value that is not a finite number > 0 in the file's units or in SI units)."""


class PeakDetectionError(RuntimeError):
    """No mechanical line resolved: its fitted area is below 3 of its sigmas, or the fit failed."""


class DegenerateFitError(RuntimeError):
    """The fit Jacobian is degenerate; names the unidentifiable parameter pair."""

    def __init__(self, pair: tuple[str, str], message: str | None = None):
        self.pair = pair
        super().__init__(
            message or f"degenerate Jacobian: parameters {pair[0]!r} and {pair[1]!r} "
            "are not separately identifiable on this trace"
        )
