"""Machine-speed reference: a fixed kernel timed between the program's calls.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, for reasons that are outside the
program (other tenants, frequency).  A run times this fixed kernel in the
gaps between the operations it measures, spending about `SHARE` of the
measured time on it, and reports every time scaled to a machine on which
one kernel call takes `NOMINAL_S`:

    reported = measured * NOMINAL_S / (mean kernel time over the same span)

The kernel is the benchmark's own code and never changes with the
program, so a change to the program moves the reported times by as much as
it moves the measured ones.  Its mix is the program's: numpy ufuncs on a
few thousand points (complex model evaluations), small dense solves with
Python bookkeeping, and numbers formatted and parsed as text.  The raw times are reported next to the
scaled ones.
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 2.0e-3  # one kernel call on a quiet 2-core Xeon sandbox
SHARE = 0.1  # kernel time per measured second

_DELTA = np.linspace(-4.0e6, 4.0e6, 4096)
_J = np.vander(np.linspace(-1.0, 1.0, 256), 5)
_R = np.cos(np.linspace(0.0, 6.0, 256))


def kernel() -> float:
    """One call of fixed work; returns a value so that nothing is skipped."""
    acc = 0.0
    # model evaluations: complex arithmetic on a 4096-point grid
    for k in range(10):
        g2 = (1.0e4 + 500.0 * k) ** 2
        denom = 4.0 * g2 + (1.0e6 + 2j * _DELTA) * (50.0 + 2j * _DELTA)
        y = 0.5 + 1.0e3 * g2 / np.abs(denom) ** 2
        r = (y - 0.6) / y
        acc += float(r @ r)
    # small dense solves with Python bookkeeping, as in a least-squares step
    for k in range(40):
        params = {"g": 1.0 + k, "n": 2.0, "c": 0.5}
        jtj = _J.T @ _J + (1e-3 * params["g"]) * np.eye(5)
        step = np.linalg.solve(jtj, _J.T @ _R)
        acc += float(step[0]) + sum(params.values())
    # numbers formatted and parsed as text, as a CSV writer and reader do
    text = "\n".join(f"{v:.9g},{v * 1e-3:.9g}" for v in _DELTA[::16])
    acc += sum(float(x) for x in text.replace("\n", ",").split(","))
    return acc


class SpeedProbe:
    """Times the kernel in the gaps of a measured span and gives its scale."""

    def __init__(self) -> None:
        kernel()  # first call pays for lazy set-up in numpy
        self.calls = 0
        self.total_s = 0.0

    def after(self, measured_s: float) -> None:
        """Run the kernel for about SHARE * measured_s, at least once."""
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            kernel()
            spent += time.perf_counter() - t0
            self.calls += 1
            if spent >= SHARE * measured_s:
                break
        self.total_s += spent

    @property
    def kernel_s(self) -> float:
        """Mean time of one kernel call so far."""
        return self.total_s / self.calls

    @property
    def scale(self) -> float:
        """Factor that takes a measured time to the nominal machine."""
        return NOMINAL_S / self.kernel_s
