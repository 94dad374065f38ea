"""Array arithmetic that rounds exactly as CPython's scalar operators do.

The array routes must reproduce the scalar routes bit for bit, not just
closely. Near the lower normal mode E = C + D nearly cancels, and any
differently rounded evaluation moves the spectrum by a few parts in 1e12
there, which is the tolerance its reference values are checked at. Complex
add and subtract already round alike in numpy and CPython. Four operations
do not:

- complex products: numpy fuses multiply-adds; CPython forms each part
  from two separately rounded real products;
- complex quotients: CPython scales by the larger part of the divisor
  (``_Py_c_quot``); numpy's division rounds differently;
- complex ``abs``: CPython calls ``hypot`` on the two parts; numpy's
  modulus differs in about a third of random values;
- powers: on floats CPython calls libm ``pow``, where numpy squares or
  takes a square root; on complex numbers ``z ** 2`` is ``(1+0j) * (z*z)``.

``Exact`` holds a complex array as two planes, its real and its imaginary
parts, each a contiguous float array or a Python number that broadcasts
against the other; a real array is one plane. Every operator runs CPython's
sequence of real operations on the planes, so the scalar formulas of the
package (susceptibilities, coefficient assembly, noise, the T = 0
shot/back-action terms) evaluate on arrays of frequencies, couplings or
detector fields unchanged and with CPython's rounding, while the scalar
route keeps running on plain Python numbers at no extra cost. A real
operand of a complex operation takes the imaginary part 0.0, as numpy's
and CPython's promotions give it, so signed zeros, inf and NaN come out as
theirs.

A batch branches on its values only through ``where``, which takes a bool
for one point, so one elimination serves numbers and arrays alike.

``g17`` gives CPython's text too: the ``%.17g`` form of every float in an
array, byte for byte, by integer arithmetic on the array.
"""

import numpy as np


def _exact(re, im=None):
    z = Exact.__new__(Exact)
    z.re, z.im = re, im
    return z


def _parts(x):
    # (real part, imaginary part or None) of an operand
    if isinstance(x, Exact):
        return x.re, x.im
    if isinstance(x, complex) or (isinstance(x, np.ndarray)
                                  and x.dtype.kind == "c"):
        return x.real, x.imag
    return x, None


def _im(im):
    return 0.0 if im is None else im


# sums round alike everywhere; a real operand adds its imaginary 0.0
def _add(ar, ai, br, bi):
    if ai is None and bi is None:
        return ar + br, None
    return ar + br, _im(ai) + _im(bi)


def _sub(ar, ai, br, bi):
    if ai is None and bi is None:
        return ar - br, None
    return ar - br, _im(ai) - _im(bi)


def _mul(ar, ai, br, bi):
    if ai is None and bi is None:
        return ar * br, None
    ai, bi = _im(ai), _im(bi)
    return ar * br - ai * bi, ar * bi + ai * br


def _divisor(br, bi):
    # _Py_c_quot scales by b.real where |b.real| >= |b.imag| and by b.imag
    # elsewhere, NaN parts included, which then give NaN. Its second
    # branch is the first applied to a and b times -i, (x, y) -> (y, -x):
    # the steps round the same operands, up to exact sign flips. So each
    # element runs its own branch alone, and a divisor shared by several
    # quotients is set up once: (branch mask or None, ratio, denominator).
    bi = _im(bi)
    by_real = np.abs(br) >= np.abs(bi)
    swap = None if by_real.all() else by_real
    if swap is not None:
        br, bi = np.where(swap, br, bi), np.where(swap, bi, np.negative(br))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(bi, br)  # b == 0 divides zero by zero, giving NaN
        return swap, ratio, br + bi * ratio


def _quot_by(ar, ai, divisor):
    swap, ratio, denom = divisor
    ai = _im(ai)
    if swap is not None:
        ar, ai = np.where(swap, ar, ai), np.where(swap, ai, np.negative(ar))
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.divide(ar + ai * ratio, denom),
                np.divide(ai - ar * ratio, denom))


def _quot(ar, ai, br, bi):
    if ai is None and bi is None:
        return np.divide(ar, br), None
    return _quot_by(ar, ai, _divisor(br, bi))


def quotients(numerators, divisor):
    """[x / divisor for x in numerators] as Exact values, the divisor's
    branch, ratio and denominator formed once; each quotient has the bits
    of its own ``/``. One operand at least is Exact."""
    br, bi = _parts(divisor)
    if bi is None:
        return [x / divisor for x in numerators]
    d = _divisor(br, bi)
    return [_exact(*_quot_by(*_parts(x), d)) for x in numerators]


def to_complex(x):
    """x as a complex value, as complex() converts a number: a real Exact
    value takes the imaginary part 0.0."""
    if isinstance(x, Exact):
        return x if x.im is not None else _exact(x.re, 0.0)
    return complex(x)


def where(cond, x, y):
    """x where cond holds, else y. cond is a bool (one point) or a boolean
    array; a bool, or an array true or false everywhere, gives that operand
    itself. x and y are numbers, arrays, Exact values, or lists or tuples
    of them taken item by item; an item that is one object on both sides
    is kept. A complex number or an Exact value on either side gives an
    Exact value, a real one taking the imaginary part 0.0; reals alone
    give a numpy array."""
    if isinstance(cond, bool):  # first: one point pays no numpy call
        return x if cond else y
    if cond.all():
        return x
    if not cond.any():
        return y
    return _select(cond, x, y)


def _select(cond, x, y):
    if isinstance(y, (list, tuple)):
        return [_select(cond, u, v) for u, v in zip(x, y)]
    if x is y:
        return x
    if not isinstance(x, (Exact, complex)) and not isinstance(
            y, (Exact, complex)):
        return np.where(cond, x, y)
    (xr, xi), (yr, yi) = _parts(x), _parts(y)
    re = np.where(cond, xr, yr)
    if xi is None and yi is None:
        return _exact(re)
    return _exact(re, np.where(cond, _im(xi), _im(yi)))


def _binary(f):
    # an operator and its reflection, from f on the planes of both operands
    def op(self, other):
        return _exact(*f(self.re, self.im, *_parts(other)))

    def rop(self, other):
        return _exact(*f(*_parts(other), self.re, self.im))
    return op, rop


def _raw(x):
    return x.value if isinstance(x, Exact) else x


class Exact:
    """A float or complex array with CPython-rounded arithmetic.

    ``Exact(value)`` takes a numpy array; a complex one is split into its
    real and imaginary planes, ``re`` and ``im``, and a real one is ``re``
    alone, with ``im`` None. Supports +, -, *, / against Python numbers,
    numpy arrays and other ``Exact`` values, unary -, ``conjugate()``,
    ``.real``, ``abs``, and ``**``: any real exponent on a float array,
    ``2`` on a complex one. ``bool`` is true when no element is zero, as a
    scalar is true when it is nonzero. ``.value`` and ``np.asarray`` give
    the array, interleaved again where it is complex.
    """

    __slots__ = ("re", "im")
    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __init__(self, value):
        value = np.asarray(value)
        if value.dtype.kind == "c":
            self.re, self.im = value.real.copy(), value.imag.copy()
        else:
            self.re, self.im = value, None

    @property
    def value(self):
        re, im = self.re, self.im
        if im is None:
            return np.asarray(re)
        out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)),
                       dtype=complex)
        out.real, out.imag = re, im
        return out

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.value, dtype=dtype)

    def __bool__(self):
        nonzero = self.re != 0
        if self.im is not None:
            nonzero = nonzero | (self.im != 0)
        return bool(np.all(nonzero))

    __add__, __radd__ = _binary(_add)
    __sub__, __rsub__ = _binary(_sub)
    __mul__, __rmul__ = _binary(_mul)
    __truediv__, __rtruediv__ = _binary(_quot)

    def __neg__(self):
        # sign flips, exact in numpy as in CPython
        im = self.im
        return _exact(-self.re, None if im is None else -im)

    def conjugate(self):
        im = self.im
        return self if im is None else _exact(self.re, -im)

    @property
    def real(self):
        return _exact(self.re)  # takes the part, rounds nothing

    def __abs__(self):
        re, im = self.re, self.im
        return _exact(np.abs(re) if im is None else np.hypot(re, im))

    def __pow__(self, exponent):
        re, im = self.re, self.im
        if im is None:
            # libm pow, as CPython's float power calls it (a negative base
            # with a fractional exponent, which CPython makes complex, aside);
            # for ** 2 too: x * x differs from pow in about 0.09% of values
            return _exact(np.float_power(re, float(exponent)))
        if exponent != 2:
            return NotImplemented
        # CPython's integer power (c_powi) forms (1+0j) * (z*z), which
        # differs from z*z in the sign of a zero part and on inf; where
        # CPython raises OverflowError for an infinite part, the inf stays
        return _exact(*_mul(1.0, 0.0, *_mul(re, im, re, im)))


# %.17g on arrays: texts of up to 24 bytes as three 64-bit words, byte 0
# lowest; xi = X + 11 indexes the decimal exponents X = -11..15.
_U, _X, _B = np.uint64, np.arange(-11, 16), np.arange(24)
_POW5 = _U(5) ** (16 - _X).astype(_U)
# 4-digit groups as ASCII words, and their digits up to the last nonzero
# one (-20 for 0000); _SIG_AT: each group's first digit in D
_D4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8)
_QUAD = (_D4 + 48).view("<u4").astype(_U).ravel()
_SIG = np.where(_D4.any(1), 4 - np.argmax(_D4[:, ::-1] > 0, axis=1),
                -20).astype(np.int8)
_SIG_AT = np.array([[1], [9], [5], [13]])
# by K * 27 + xi, K digits kept: those before the point (P; all 17 where
# the prefix "0.0..." holds it), those after it, and the point and the
# exponent (X < -4) between; by xi + 27 * sign: the prefix ("-", "0." and
# zeros for -4 <= X < 0) and its length in bits
_K, _P = np.arange(18)[:, None, None], np.where(
    _X >= 0, _X + 1, np.where(_X >= -4, 17, 1))[:, None]
_END = _K + (_K > _P)
_LOW, _HIGH, _MARKS = np.moveaxis(np.stack(np.broadcast_arrays(
    255 * (_B < np.minimum(_K, _P)), 255 * ((_B >= _P) & (_B < _K)),
    46 * ((_B == _P) & (_K > _P)) + np.where(
        (_X[:, None] < -4) & (_B >= _END) & (_B < _END + 4), np.array(
            [b"e%+03d" % x for x in _X]).view(np.uint8).reshape(27, 4)[
            np.arange(27)[:, None], np.clip(_B - _END, 0, 3)], 0))).astype(
    np.uint8).view("<u8").astype(_U).reshape(3, -1, 3), -1, 1)
_LEAD = np.where((_X < 0) & (_X >= -4), 1 - _X, 0) + np.arange(2)[:, None]
_PREFIX = np.array([int.from_bytes((b"-" * s + b"0.000")[:n], "little")
                    for s in (0, 1) for n in _LEAD[s]], dtype=_U)
_LEAD = (8 * _LEAD.ravel()).astype(_U)


def g17(values):
    """The %.17g text of every float in values, as bytes ("S24") in their
    shape, equal byte for byte to '%.17g' % x.

    Where a log10 guess of the decimal exponent X is in -10..13, x = m 2**e
    (m < 2**53) gives the 17 digits D = m 5**q 2**(e + q), q = 16 - X, by a
    128-bit product in 32-bit halves shifted right by 1 to 62 bits, rounded
    half to even on the remainder; X moves by one where the unrounded D is
    outside [1e16, 1e17), and D = 1e17 carries. Other values go through %.
    """
    x = np.asarray(values, dtype=float)
    flat = x.ravel()
    ax = np.abs(flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.floor(np.log10(ax))
    fast = (guess >= -10) & (guess <= 13)
    if not fast.all():
        ax, guess = np.where(fast, ax, 1.0), np.where(fast, guess, 0.0)
    bits = ax.view(_U)
    m, e = (bits & (2 ** 52 - 1)) | 2 ** 52, (bits >> 52).astype(np.intp)
    xi, off = guess.astype(np.intp) + 11, True
    while np.any(off):
        p = np.take(_POW5, xi, mode="clip")
        mh, ml, ph, pl = m >> 32, m & 0xFFFFFFFF, p >> 32, p & 0xFFFFFFFF
        mid, low = mh * pl + ml * ph, m * p
        high = mh * ph + (mid >> 32) + (low < (mid << 32))
        r = (1048 + xi - e).astype(_U)  # the shift, -(e + q)
        d = (high << (64 - r)) | (low >> r)
        off = (d >= 10 ** 17).astype(np.intp) - (d < 10 ** 16)
        xi += off
    rem, half = low & ((_U(1) << r) - 1), _U(1) << (r - 1)
    d += (rem > half) | ((rem == half) & (d & 1 > 0))
    del ax, guess, m, e, p, mh, ml, ph, pl, mid, low, high, r, off, rem, half
    carry = np.flatnonzero(d == 10 ** 17)
    d[carry], xi[carry] = 10 ** 16, xi[carry] + 1
    # D as a digit and four groups of four, in the bytes 0..16
    f, hi = d // 10 ** 16, d // 10 ** 8
    e8 = np.stack([hi - f * 10 ** 8, d - hi * 10 ** 8])
    e4 = e8 // 10 ** 4
    g = np.concatenate([e4, e8 - e4 * 10 ** 4]).astype(np.intp)
    q = np.take(_QUAD, g)
    t = np.stack([(f + 48) | (q[0] << 8) | (q[2] << 40),
                  (q[2] >> 24) | (q[1] << 8) | (q[3] << 40), q[3] >> 24])
    # the digits kept, the point and exponent put in, then the prefix
    kept = np.maximum((np.take(_SIG, g) + _SIG_AT).max(0),
                      np.where(xi >= 11, xi - 10, 1))
    at = kept * 27 + xi
    low = t & np.take(_LOW, at, axis=1, mode="clip")
    high = t & np.take(_HIGH, at, axis=1, mode="clip")
    body = low | (high << 8) | np.take(_MARKS, at, axis=1, mode="clip")
    body[1:] |= high[:-1] >> 56
    lead = xi + 27 * (flat.view(_U) >> 63).astype(np.intp)
    shift = np.take(_LEAD, lead, mode="clip")
    text = body << shift
    text[1:] |= body[:-1] >> (64 - shift)
    text[0] |= np.take(_PREFIX, lead, mode="clip")
    out = np.stack(text, axis=1).astype("<u8", copy=False).view("S24")[:, 0]
    out[~fast] = ["%.17g" % v for v in flat[~fast].tolist()]
    return out.reshape(x.shape)
