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
    """x where cond holds, else y, as an Exact value; x and y are Exact
    values or numbers, a real one taking the imaginary part 0.0."""
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
