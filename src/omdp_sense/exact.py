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

``Exact`` wraps a numpy array and gives it these operators, so the scalar
formulas of the package (susceptibilities, coefficient assembly, noise,
the T = 0 shot/back-action terms) evaluate on arrays of frequencies,
couplings or detector fields unchanged and with CPython's rounding, while
the scalar route keeps running on plain Python numbers at no extra cost.
"""

import numpy as np


def _is_complex(x):
    return isinstance(x, complex) or (isinstance(x, np.ndarray)
                                      and x.dtype.kind == "c")


def _mul(a, b):
    if not (_is_complex(a) or _is_complex(b)):
        return a * b
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    re, im = out.real, out.imag
    np.multiply(ar, br, out=re)
    re -= ai * bi
    np.multiply(ar, bi, out=im)
    im += ai * br
    return out


def _times_minus_i(z):
    out = np.empty_like(z)
    out.real = z.imag
    np.negative(z.real, out=out.imag)
    return out


def _quot(a, b):
    if not (_is_complex(a) or _is_complex(b)):
        return a / b
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    # _Py_c_quot scales by b.real where |b.real| >= |b.imag| and by b.imag
    # elsewhere, NaN parts included, which then give NaN. Its second
    # branch is the first applied to a and b times -i, (x, y) -> (y, -x):
    # the steps round the same operands, up to exact sign flips. So each
    # element runs its own branch alone.
    by_real = np.abs(b.real) >= np.abs(b.imag)
    if not by_real.all():
        a, b = (np.where(by_real, z, _times_minus_i(z)) for z in (a, b))
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = bi / br  # b == 0 divides zero by zero, giving NaN
        denom = br + bi * ratio
        np.divide(ar + ai * ratio, denom, out=out.real)
        np.divide(ai - ar * ratio, denom, out=out.imag)
    return out


def _raw(x):
    return x.value if isinstance(x, Exact) else x


class Exact:
    """A float or complex numpy array with CPython-rounded arithmetic.

    Supports +, -, *, / against Python numbers and other ``Exact`` values,
    unary -, ``conjugate()``, ``.real``, ``abs``, and ``**``: any real
    exponent on a float array, ``2`` on a complex one. ``bool``
    is true when no element is zero, as a scalar is true when it is nonzero.
    ``np.asarray`` returns the wrapped array.
    """

    __slots__ = ("value",)
    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __init__(self, value):
        self.value = value

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.value, dtype=dtype)

    def __bool__(self):
        return bool(np.all(self.value != 0))

    def __add__(self, other):
        return Exact(self.value + _raw(other))

    def __radd__(self, other):
        return Exact(_raw(other) + self.value)

    def __sub__(self, other):
        return Exact(self.value - _raw(other))

    def __rsub__(self, other):
        return Exact(_raw(other) - self.value)

    def __mul__(self, other):
        return Exact(_mul(self.value, _raw(other)))

    def __rmul__(self, other):
        return Exact(_mul(_raw(other), self.value))

    def __truediv__(self, other):
        return Exact(_quot(self.value, _raw(other)))

    def __rtruediv__(self, other):
        return Exact(_quot(_raw(other), self.value))

    def __neg__(self):
        return Exact(-self.value)  # a sign flip, exact in numpy as in CPython

    def conjugate(self):
        return Exact(np.conj(self.value))

    @property
    def real(self):
        return Exact(np.real(self.value))  # takes the part, rounds nothing

    def __abs__(self):
        v = self.value
        return Exact(np.hypot(v.real, v.imag) if _is_complex(v) else np.abs(v))

    def __pow__(self, exponent):
        v = self.value
        if not _is_complex(v):
            # libm pow, as CPython's float power calls it (a negative base
            # with a fractional exponent, which CPython makes complex, aside)
            return Exact(np.float_power(v, float(exponent)))
        if exponent != 2:
            return NotImplemented
        # CPython's integer power (c_powi) forms (1+0j) * (z*z), which
        # differs from z*z in the sign of a zero part and on inf; where
        # CPython raises OverflowError for an infinite part, the inf stays
        return Exact(_mul(1 + 0j, _mul(v, v)))
