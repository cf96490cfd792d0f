"""Exact float text in bulk: ``repr``'s bytes for every value of a finite
float64 array, without a Python float per value.

Digits come from Schubfach (Giulietti 2020, "The Schubfach way to render
doubles"), ported from Java's ``DoubleToDecimal`` in uint64 arithmetic:
``_product`` forms the 128-bit products from 32-bit limbs, and ``_rop``
follows Java's ``rop`` bit for bit. Two changes give CPython's shortest
digits, where Java keeps at least two: the one-digit-shorter candidates
are tried from ``s >= 10`` (``5e-324``, ``1e+23``), and the subnormals
below ``3 * 2**-1074``, scaled by ten, take the exponent correction on
both returns. The digits then lose their trailing zeros.

The layout is CPython's ``'r'``: fixed notation for decimal exponents
from -4 to 15, ``.0`` after an integer, otherwise ``d.ddde±XX`` with at
least two exponent digits; zeros keep their sign. Each value gets one
row of ``_WIDTH`` bytes from a small table of layouts, chosen by its
digit count and exponent: the layout's own bytes, zeros where it keeps
nothing, and the value's sign, digits and exponent masked in. Deleting
the zeros leaves the text.

uint64 arrays meet only uint64 arrays, ``np.uint64`` scalars and
booleans, and int64 arrays only integer arrays and Python ints, so
numpy 1.x's value-based promotion should give the types numpy 2 gives;
only numpy 2 has been run. The tables are built on first use."""

from functools import cache

import numpy as np

BLOCK = 8192  # cells per pass: faster than whole-array passes

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_LOW63 = _U((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292

# One row of bytes per value. Each value keeps a subset of these columns:
# sign, "0.000" before a fraction below 0.1, the 17 digits each followed
# by a point, the "0" of "x.0", and "e", the exponent's sign and 3 digits,
# then the separator that follows the value.
_SIGN, _LEAD, _DIGITS, _POINT0 = 0, 1, 6, 7
_TRAIL, _E, _ESIGN, _SEP = 40, 41, 42, 46
_WIDTH = 47
_FIXED_DECPT = range(-3, 17)  # fixed notation; decpt = exponent + 1


def _flog2pow10(e):
    """floor(log2(10**e)), as Java's MathUtils."""
    return (e * 913_124_641_741) >> 38


@cache
def _tables():
    # g = floor(10**-k / 2**r) + 1 with 2**125 <= 10**-k / 2**r < 2**126,
    # split as g1 * 2**63 + g0 (Java's MathUtils.g1, g0)
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k <= 0:
            g = (10 ** -k >> r if r >= 0 else 10 ** -k << -r) + 1
        else:
            g = (1 << -r) // 10 ** k + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    g1, g0 = np.array([g1, g0], np.uint64)
    limbs = np.stack((g1, g1 & _LOW32, g1 >> _U(32),
                      g0, g0 & _LOW32, g0 >> _U(32)))

    # the ASCII of every 4-digit group 0000-9999, as one uint32 each, and
    # at i * 10**4 + group, the count of digits up to the group's last
    # non-zero one when it is the i-th group after the first digit, else 0
    four = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1])) % 10
    digits4 = (four + 48).astype(np.uint8).view(np.uint32).ravel()
    last = np.where(four, np.arange(1, 5), 0).max(axis=1)
    last = np.where(last, last + np.arange(1, 17, 4)[:, None], 0).ravel()

    # the columns each layout class keeps: fixed notation for decpt in
    # _FIXED_DECPT, then exponent notation with 2 and 3 exponent digits;
    # the row of n digits is at class * 17 + n - 1
    keep = np.zeros((len(_FIXED_DECPT) + 2, 17, _WIDTH), np.uint8)
    keep[..., [_SIGN, _SEP]] = True
    for n in range(1, 18):
        digits = _DIGITS + 2 * np.arange(n)
        for c, decpt in enumerate(_FIXED_DECPT):
            row = keep[c, n - 1]
            if decpt <= 0:  # 0.000ddd
                row[_LEAD:_LEAD + 2 - decpt] = True
                row[digits] = True
            else:  # ddd.ddd, or ddd000.0
                row[_DIGITS + 2 * np.arange(max(n, decpt))] = True
                row[_POINT0 + 2 * (decpt - 1)] = True
                row[_TRAIL] = n <= decpt
        for c, exp_digits in ((len(_FIXED_DECPT), 2),
                              (len(_FIXED_DECPT) + 1, 3)):
            row = keep[c, n - 1]
            row[digits] = True
            row[_POINT0] = n > 1
            row[[_E, _ESIGN]] = True
            row[_SEP - exp_digits:_SEP] = True

    # each layout's row: the bytes it keeps, 0xff where a value's own
    # bytes go (sign, digits, exponent), 0 where it keeps nothing
    template = np.full(_WIDTH, 0xFF, np.uint8)
    template[_LEAD:_DIGITS] = np.frombuffer(b"0.000", np.uint8)
    template[_POINT0:_TRAIL:2] = ord(".")
    template[[_TRAIL, _E, _SEP]] = np.frombuffer(b"0e ", np.uint8)
    layouts = (keep * template).reshape(-1, _WIDTH)

    # the exponent's sign and three digits, at the exponent + 400
    exponents = np.arange(-400, 401)
    exponents = np.concatenate(
        [np.where(exponents < 0, ord("-"), ord("+"))[:, None],
         (np.abs(exponents)[:, None] // np.array([100, 10, 1])) % 10 + 48],
        axis=1).astype(np.uint8).view(np.uint32).ravel()
    powers = np.array([10 ** i for i in range(19)], np.uint64)
    return limbs, digits4, last, exponents, layouts, powers


def _product(a, a0, a1, c0, c1, c):
    """``(high, low)``: the 128-bit product of the uint64s ``a`` and
    ``c``, with ``a = a1 * 2**32 + a0`` and ``c`` likewise."""
    p00, p01, p10 = a0 * c0, a0 * c1, a1 * c0
    mid = (p00 >> _U(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    return (a1 * c1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32)),
            a * c)


def _plus(product, a, shift, sign):
    """``product + sign * a * 2**shift`` as ``(high, low)``, for a shift
    from 1 to 63."""
    high, low = product
    step = a << shift
    if sign > 0:
        new = low + step
        return high + (a >> (_U(64) - shift)) + (new < low), new
    new = low - step
    return high - (a >> (_U(64) - shift)) - (new > low), new


def _rop(x, y):
    """Java's ``rop``: about ``(y * 2**63 + x) / 2**127`` for the products
    ``x = g0 * cp`` and ``y = g1 * cp``, its lowest bit set when the bits
    it drops (below ``x``'s high half, and ``y``'s lowest bit) are not all
    zero."""
    z = (y[1] >> _U(1)) + x[0]
    return (y[0] + (z >> _U(63))) | (((z & _LOW63) + _LOW63) >> _U(63))


def _shortest(bits, tables):
    """``(f, e)``: the shortest decimal ``f * 10**e`` that reads back as
    each non-zero finite float64 ``bits``, the closest one on a tie of
    length, and of those the even one."""
    limbs = tables[0]
    bq = (bits >> _U(52)) & _U(0x7FF)
    t = bits & _U((1 << 52) - 1)
    normal = bq != 0
    tiny = ~normal & (t < _U(3))  # c = 10 t and dk = -1
    c = np.where(normal, t | _U(1 << 52), np.where(tiny, t * _U(10), t))
    q = np.maximum(bq.astype(np.int64), 1) - 1075
    irregular = (t == 0) & (bq > _U(1))  # c = 2**52 above the least binade
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    out = c & _U(1)
    # cp = cb << h, and the neighbours cp +- 2 << h (cp - 1 << h where
    # the spacing below is half): one product each of g1 and g0 with cp,
    # then shifted sums
    cp = (c << _U(2)) << h
    c0, c1 = cp & _LOW32, cp >> _U(32)
    g1, g1_lo, g1_hi, g0, g0_lo, g0_hi = limbs.take(k - _K_MIN, axis=1)
    x, y = (_product(g0, g0_lo, g0_hi, c0, c1, cp),
            _product(g1, g1_lo, g1_hi, c0, c1, cp))
    vb = _rop(x, y)
    # out is folded into the bounds: 4u is in the rounding interval iff
    # vbl <= 4u, and 4w iff 4w <= vbr
    right, left = h + _U(1), h + _U(1) - irregular
    vbl = _rop(_plus(x, g0, left, -1), _plus(y, g1, left, -1)) + out
    vbr = _rop(_plus(x, g0, right, 1), _plus(y, g1, right, 1)) - out
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    shorter = (upin != ((sp10 + _U(10)) << _U(2) <= vbr)) & (s >= _U(10))
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    up = np.where(uin != win, win,
                  (vb > mid) | ((vb == mid) & (s & _U(1) == 1)))
    f = np.where(shorter, sp10 + ~upin * _U(10), s + up)
    return f, k - tiny


def _cells(x: np.ndarray, tables) -> np.ndarray:
    """The ``_WIDTH``-byte rows of the finite values ``x``: each holds its
    value's text, then a space, among zero bytes."""
    limbs, digits4, last, exponents, layouts, powers = tables
    bits = x.view(np.uint64)
    if (bits & _U(0x7FF << 52)).all():  # all normal: 16 or 17 digits
        f, e = _shortest(bits, tables)
        length = (f >= _U(10 ** 16)) + 16
    else:  # a zero is f = 0, laid out as "0.0"
        f = np.zeros(len(x), np.uint64)
        e = np.zeros(len(x), np.int64)
        nonzero = (bits << _U(1)) != 0
        f[nonzero], e[nonzero] = _shortest(bits[nonzero], tables)
        length = np.maximum(np.searchsorted(powers, f, "right"), 1)
    decpt = e + length
    # the 17 digits of f, left aligned: one, then four groups of four
    aligned = f * powers[17 - length]
    top = aligned // _U(10 ** 16)
    rest = (aligned - top * _U(10 ** 16)).astype(np.int64)
    groups = np.empty((4, len(x)), np.intp)
    np.divmod(rest // 10 ** 8, 10_000, out=(groups[0], groups[1]))
    np.divmod(rest % 10 ** 8, 10_000, out=(groups[2], groups[3]))
    # a zero, whose digits are all 0, keeps one
    significant = np.maximum(
        last.take(groups + np.arange(0, 40_000, 10_000)[:, None]).max(axis=0),
        1)
    fixed = (decpt >= _FIXED_DECPT[0]) & (decpt <= _FIXED_DECPT[-1])
    layout = np.where(fixed, decpt - _FIXED_DECPT[0],
                      len(_FIXED_DECPT) + (np.abs(decpt - 1) >= 100))
    rows = layouts.take(layout * 17 + significant - 1, axis=0)
    digits = rows[:, _DIGITS:_TRAIL:2]
    digits[:, 0] &= top.astype(np.uint8) + np.uint8(48)
    digits[:, 1:] &= digits4.take(groups.T).view(np.uint8)
    rows[:, _ESIGN:_SEP] &= exponents.take(decpt - 1 + 400)[:, None].view(
        np.uint8)
    rows[:, _SIGN] = np.signbit(x) * np.uint8(ord("-"))
    return rows


def lines(matrix: np.ndarray):
    """Yield the text of ``matrix``'s rows in blocks of about ``BLOCK``
    cells: each row is its cells' ``repr`` joined by single spaces, and
    a block's rows are joined by line breaks, with none after the last.
    Every value must be finite."""
    tables = _tables()
    n, d = matrix.shape
    step = max(1, BLOCK // max(d, 1))
    for start in range(0, n, step):
        block = np.ascontiguousarray(matrix[start:start + step],
                                     dtype=np.float64)
        if not d:
            yield "\n" * (len(block) - 1)
            continue
        if not np.isfinite(block).all():
            raise ValueError("only finite values have a float text")
        rows = _cells(block.ravel(), tables)
        rows[d - 1::d, _SEP] = ord("\n")
        yield rows.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def texts(values: np.ndarray) -> list[str]:
    """``[repr(v) for v in values]`` for a finite 1-D float array."""
    return [text for block in lines(np.reshape(values, (-1, 1)))
            for text in block.split("\n")]
