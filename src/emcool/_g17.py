"""The text of `"%.17g"` for float64 columns, formatted by numpy.

`format_rows(columns)` returns the bytes of `"%.17g,%.17g,...\\n" % row` for
every row of the columns, the same bytes as Python's correctly rounded
formatter, without formatting a float in Python:

- **Digits.** Each |x| is scaled by 10**(16 - e), a double-double from a table
  built once from exact Python integers, with Dekker's exact product (numpy
  has no fma).  The error of the scaled value y is below 1e-14 in [1e16, 1e17),
  so D = round(y) is the correctly rounded 17-digit integer wherever the
  fraction of y is not within `_TIE` of 1/2, and everywhere the scale is a
  double (-6 <= e <= 16), where y is exact and ties round half to even.  The
  decimal exponent e starts from log10 and is corrected once when y lies
  outside [1e16, 1e17); a D of 1e17 rolls over to the next decade.
- **Layout.** `%g` rules: fixed notation for -4 <= e < 17, trailing zeros of
  the fraction dropped, an `e+XX` exponent otherwise.  Each layout is one
  template of uint8 characters filled from the digits of the elements that
  share it.  A NUL byte marks a character to drop (padding, a sign slot of a
  positive value, a stripped zero); the row buffer loses its NULs in one
  `bytes.replace`.
- **Exact fallback.** Elements the kernel cannot prove (a fraction within
  `_TIE` of 1/2 where y is inexact, which covers the exact ties of |x| < 1e-6
  and |x| >= 1e17; |x| outside [1e-280, 1e280]; ±0) are formatted by
  `"%.17g" %` itself.
"""
from __future__ import annotations

import functools

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter
_TINY, _HUGE = 1e-280, 1e280  # |x| the kernel formats; the rest go to "%"
_TIE = 1e-6  # a scaled fraction this close to 1/2 goes to "%"
_K_MIN, _K_MAX = -270, 300  # the scales 10**k the table holds (|x| in range needs -266 <= k <= 298)
_SCI = 17  # layout key of scientific notation; fixed notation's key is e (-4 ... 16)
_FALLBACK = 18  # layout key of an element "%" formats
_DOT, _ZERO = ord("."), ord("0")


@functools.cache
def _tables() -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """10**k for k in [_K_MIN, _K_MAX] as the arrays (p, Dekker's halves of p,
    tail), p + tail exact to ~2**-106; the 4-character ASCII text of 0 ... 9999
    as uint32 words; the trailing zeros of 0 ... 9999 as 4-digit groups.  Built
    on first use, not at import."""
    powers = np.empty((4, _K_MAX - _K_MIN + 1))
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        p = num / den  # int division rounds correctly
        p_num, p_den = p.as_integer_ratio()
        t = _SPLIT * p
        p_hi = t - (t - p)
        powers[:, i] = p, p_hi, p - p_hi, (num * p_den - p_num * den) / (den * p_den)
    q = np.arange(10000)
    quads = np.empty((10000, 4), np.uint8)
    for j in range(4):
        quads[:, j] = q // 10 ** (3 - j) % 10 + _ZERO
    trailing = np.zeros(10000, np.int64)  # trailing zeros of a 4-digit group
    for j in (1, 2, 3):
        trailing[q % 10**j == 0] = j
    trailing[0] = 4
    for table in (powers, quads, trailing):
        table.setflags(write=False)
    return tuple(powers), quads.view(np.uint32).ravel(), trailing


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as h + r: h = fl(a * p) for the power's leading double p,
    r the product's exact rounding error (Dekker's two-product) plus a * tail."""
    i = 16 - _K_MIN - e
    p, p_hi, p_lo, tail = (column.take(i, mode="clip") for column in _tables()[0])
    h = a * p
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    # ((a_hi p_hi - h) + a_hi p_lo + a_lo p_hi) + a_lo p_lo, then + a tail
    r = a_hi * p_hi
    r -= h
    r += a_hi * p_lo
    p_hi *= a_lo
    r += p_hi
    p_lo *= a_lo
    r += p_lo
    tail *= a
    r += tail
    return h, r


def _outside(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 where h + r lies below, in or above [1e16, 1e17)."""
    above = (h > 1e17) | (h == 1e17) & (r >= 0.0)
    below = (h < 1e16) | (h == 1e16) & (r < 0.0)
    return above.view(np.int8) - below.view(np.int8)


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, e, proven): |x| = D * 10**(e - 16) rounded to 17 digits, D in
    [1e16, 1e17), where `proven`; D and e are meaningless elsewhere."""
    a = np.abs(x)
    proven = (a >= _TINY) & (a <= _HUGE)
    if not proven.all():
        a[~proven] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)  # off by one next to a power of ten
    h, r = _scaled(a, e)
    shift = _outside(h, r)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        h[moved], r[moved] = _scaled(a[moved], e[moved])
        proven[moved] &= _outside(h[moved], r[moved]) == 0
    # h >= 1e16 > 2**53 is an even integer, so y = h + r rounds to h + rint(r),
    # half to even where r is exact: where 10**(16 - e) is a double (e >= -6)
    up = np.rint(r)
    proven &= (np.abs(np.abs(r - up) - 0.5) > _TIE) | (e >= -6) & (e <= 16)
    d = h.astype(np.int64) + up.astype(np.int64)
    d[~proven] = 10**16  # any index into the digit tables
    roll = d == 10**17
    d[roll] = 10**16
    e += roll
    return d, e, proven


class _Column:
    """One column's digits and layouts; `fill` writes its text into a row buffer."""

    def __init__(self, x: np.ndarray) -> None:
        _, quads, trailing = _tables()
        n = x.size
        d, self.e, proven = _digits(x)
        groups = [d // 10**16]  # the leading digit, then four groups of four
        rest = d - groups[0] * 10**16
        for scale in (10**12, 10**8, 10**4):
            groups.append(rest // scale)
            rest -= groups[-1] * scale
        groups.append(rest)
        words = np.empty((n, 5), np.uint32)
        for j, g in enumerate(groups):
            words[:, j] = quads[g]
        self.digits = words.view(np.uint8).reshape(n, 20)[:, 3:]
        zeros = trailing[groups[4]]
        run = groups[4] == 0
        for g in groups[3:0:-1]:
            zeros += run * trailing[g]
            run &= g == 0
        self.kept = 17 - zeros  # significant digits once trailing zeros go
        e = self.e
        key = np.where((e >= -4) & (e <= 16), e, _SCI)
        key[~proven] = _FALLBACK
        self.key = key
        present = np.bincount(key + 4, minlength=_FALLBACK + 5)
        self.layouts = [k - 4 for k in np.flatnonzero(present[:-1])]
        self.wide = bool(np.any((key == _SCI) & (np.abs(e) >= 100)))  # a 3-digit exponent
        self.negative = x < 0.0
        self.signed = bool(self.negative.any())
        bad = np.flatnonzero(~proven)
        self.fallback = bad, [b"%.17g" % v for v in x[bad].tolist()]
        widths = [self._width(k) for k in self.layouts]
        self.width = max([w + self.signed for w in widths] + [len(t) for t in self.fallback[1]], default=0)

    def _width(self, key: int) -> int:
        if key == _SCI:
            return 23 if self.wide else 22
        return 17 if key == 16 else 18 - min(key, 0)

    def fill(self, out: np.ndarray) -> None:
        """Write the column's text into `out` (n rows of `self.width` bytes),
        NUL where a row's text is shorter."""
        out[...] = 0
        start = int(self.signed)
        if self.signed:
            out[:, 0] = self.negative * ord("-")
        for key in self.layouts:
            width = self._width(key)
            if len(self.layouts) == 1:
                self._layout(key, slice(None), out[:, start:start + width])
            else:
                rows = np.flatnonzero(self.key == key)
                block = np.empty((rows.size, width), np.uint8)
                self._layout(key, rows, block)
                out[rows, start:start + width] = block
        for i, text in zip(*self.fallback):
            out[i] = 0  # a single layout has filled every row
            out[i, :len(text)] = np.frombuffer(text, np.uint8)

    def _layout(self, key: int, rows, block: np.ndarray) -> None:
        """Fill `block` with the text of `rows` in layout `key`, the sign aside."""
        digits, kept = self.digits[rows], self.kept[rows]
        if key == _SCI:  # d.dddddddddddddddde+XX
            first, at = 1, 2  # the first fractional digit, and its column
            block[:, 0] = digits[:, 0]
            block[:, 1] = _DOT
            block[:, 2:18] = digits[:, 1:]
            e = self.e[rows]
            block[:, 18] = ord("e")
            block[:, 19] = np.where(e < 0, ord("-"), ord("+"))
            exponent = _tables()[1][np.abs(e)].view(np.uint8).reshape(-1, 4)
            if self.wide:
                block[:, 20:] = exponent[:, 1:]
                block[:, 20] *= np.abs(e) >= 100
            else:
                block[:, 20:] = exponent[:, 2:]
        elif key >= 0:  # ddd.dddd, the point after digit e
            first = key + 1
            at = first + 1
            block[:, :first] = digits[:, :first]
            if first == 17:
                return
            block[:, first] = _DOT
            block[:, first + 1:] = digits[:, first:]
        else:  # 0.000ddd
            first, at = 0, 1 - key
            block[:, :at] = np.frombuffer(b"0.000"[:at], np.uint8)
            block[:, at:] = digits
        # the fraction's trailing zeros, and the point when nothing follows it
        short = np.flatnonzero(kept < 17)
        if short.size:
            span = slice(at, at + 17 - first)
            fraction = block[short, span]
            fraction[np.arange(first, 17) >= np.maximum(kept[short], first)[:, None]] = 0
            block[short, span] = fraction
            block[short[kept[short] <= first], at - 1] = 0


def format_rows(columns) -> bytes:
    """The bytes of `"%.17g,...,%.17g\\n" % row` for every row of the float64
    `columns` (1-d arrays of one length)."""
    columns = [_Column(np.asarray(c, dtype=np.float64)) for c in columns]
    n = columns[0].digits.shape[0]
    rows = np.empty((n, sum(c.width + 1 for c in columns)), np.uint8)
    start = 0
    for column in columns:
        column.fill(rows[:, start:start + column.width])
        start += column.width
        rows[:, start] = ord(",")
        start += 1
    rows[:, -1] = ord("\n")
    return rows.tobytes().replace(b"\0", b"")
