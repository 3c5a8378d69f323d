"""The trace CSV table is byte for byte what `"%.17g,%.17g\\n" % row` writes."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import emcool as em
from emcool import _g17
from emcool.spectra import trace_to_csv

HEAD = "# unit=m2_per_hz\nfreq_hz,value\n"  # M2_PER_HZ admits negative values


def rows_text(freq, vals):
    """The reference: Python's formatter, one row at a time."""
    return "".join("%.17g,%.17g\n" % row for row in zip(freq.tolist(), vals.tolist()))


def assert_exact(freq, vals):
    freq, vals = np.asarray(freq, dtype=float), np.asarray(vals, dtype=float)
    text = trace_to_csv(em.SpectrumTrace(freq, vals, em.SpectrumUnit.M2_PER_HZ, {}))
    assert text == HEAD + rows_text(freq, vals)


def assert_exact_values(values):
    """Every value in both columns: as a sorted frequency grid and reversed as values."""
    freq = np.unique(np.asarray(values, dtype=float))
    assert_exact(freq, freq[::-1])


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite, min_size=9, max_size=24, unique=True))
def test_any_finite_floats(values):
    freq = np.unique(values)  # 0.0 and -0.0 may both be drawn
    assert_exact(freq, np.array(values[::-1][:freq.size]))


def neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


class TestEdges:
    def test_ties_and_their_odd_multiples(self):
        tie = 2.0**-25
        assert "%.17g" % tie == "2.9802322387695312e-08"  # 2.98023223876953125e-08 rounds half to even
        odd = tie * np.arange(1, 2048, 2)
        assert_exact_values(np.concatenate([odd, -odd]))

    def test_zeros_subnormals_and_extremes(self):
        tiny = [5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0)]
        huge = 1.7976931348623157e308
        assert_exact(np.arange(8.0), [0.0, -0.0, *tiny, -5e-324, huge, -huge])
        assert_exact_values(np.concatenate([neighbours(tiny), [huge, np.nextafter(huge, 0.0)]]))

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        assert_exact_values(neighbours(np.concatenate([powers, -powers])))

    def test_ends_of_the_kernel_range(self):
        ends = neighbours([1e-280, 1e280])
        assert_exact_values(np.concatenate([neighbours(ends), -ends]))

    def test_fixed_scientific_switch(self):
        # %g writes fixed notation for decimal exponents -4 ... 16
        near = [1e-5, 9.9999999999999995e-5, 0.0001, 0.00012345, 1.2345e-5, 0.00099999999999999999,
                1e16, 1.2345678901234567e16, 9.9999999999999984e16, 99999999999999999.0, 1e17, 1.2345e17]
        text = rows_text(np.array(near), np.array(near))
        assert "0.0001,0.0001\n" in text and "1.0000000000000001e-05," in text  # both sides are covered
        assert "10000000000000000," in text and "1e+17," in text
        assert_exact_values(neighbours(np.concatenate([near, np.negative(near)])))

    def test_trailing_zeros_and_integers(self):
        values = np.concatenate([np.arange(1.0, 2000.0), 0.5 * np.arange(1.0, 200.0), [1.5e-3, 2.5e15, 1e22, 1.25e100]])
        assert_exact_values(np.concatenate([values, -values, values / 1024]))

    def test_negative_frequencies_and_values(self):
        freq = np.linspace(-2.5e6, 2.5e6, 101)
        vals = -np.geomspace(1e-40, 1e-20, 101)
        assert_exact(freq, vals)
        assert trace_to_csv(em.SpectrumTrace(freq, vals, em.SpectrumUnit.M2_PER_HZ, {})).count("-") >= 200

    def test_three_digit_exponents(self):
        values = np.array([1.5e-123, 7e200, 3.3e-150, 1e-100, 9.999999999999999e99, 1e100, 2.5e-99])
        assert_exact_values(neighbours(np.concatenate([values, -values])))

    def test_decade_sweep(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        values = 10.0 ** rng.uniform(-320.0, 307.5, 4096) * rng.uniform(1.0, 1.8, 4096)
        assert_exact_values(np.concatenate([values, -values[::2]]))


class TestFallback:
    """`%` formats only the values whose rounding the kernel cannot prove."""

    def test_proven_values(self):
        rng = np.random.Generator(np.random.Philox(key=19))
        values = 10.0 ** rng.uniform(-279.0, 279.0, 20000) * rng.uniform(1.0, 1.1, 20000)
        assert _g17._digits(values)[2].all()

    def test_exact_products_decide_ties(self):
        # for 1e-6 <= |x| < 1e17 the scale 10**(16 - e) is a double and the
        # product exact, so exact ties round half to even without "%"
        values = np.concatenate([2.0**50 + 0.25 * np.arange(1, 400), 4035873066073.53125 + np.arange(400) / 32])
        assert "%.17g" % values[0] == "1125899906842624.2"  # ...624.25 rounds half to even
        assert _g17._digits(values)[2].all()
        assert_exact_values(np.concatenate([values, -values]))

    def test_unproven_values(self):
        ties = 2.0**-25 * np.array([1.0, 3.0])
        values = np.concatenate([ties, [0.0, -0.0, 5e-324, 1e-281, 1e281, math.inf, math.nan]])
        assert not _g17._digits(values)[2].any()
        assert _g17.format_rows((values,)).decode() == "".join("%.17g\n" % v for v in values.tolist())
