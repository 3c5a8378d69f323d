"""Exception types shared across the toolkit, and the one range check of a
numeric input."""
import math


class ParameterError(ValueError):
    """An argument is outside the physical domain of an operation."""


def _require(name: str, value, *, gt=None, ge=None, lt=None, le=None) -> None:
    """Raise ParameterError naming `name` unless `value` is a finite number
    inside the given ends: `gt` or `ge` below (open or closed), `lt` or `le`
    above.  Every comparison is false for nan, exact for an int of any size,
    and a value that does not compare (a string) fails too."""
    try:
        if (-math.inf < value < math.inf and (gt is None or value > gt) and (ge is None or value >= ge)
                and (lt is None or value < lt) and (le is None or value <= le)):
            return
    except TypeError:
        pass
    ends = [(op, end) for op, end in ((">", gt), (">=", ge), ("<", lt), ("<=", le)) if end is not None]
    if len(ends) == 2:  # an interval, "in (0, 1]"
        (low_op, low), (high_op, high) = ends
        span = f" in {'(' if low_op == '>' else '['}{low}, {high}{')' if high_op == '<' else ']'}"
    else:  # one end or none: "> 0", ">= 1" or ""
        span = "".join(f" {op} {end}" for op, end in ends)
    raise ParameterError(f"{name} must be a finite number{span}, got {value!r}")


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
