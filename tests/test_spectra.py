import cmath
import math
import operator
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omdp_sense import (DetectorParams, OmdpError, ParameterError,
                        SingularSystemError, TransductionAbsentError,
                        frequency_grid, omega_eff,
                        s_add, s_add_resonant, s_add_som, solve_coefficients,
                        spectrum_sweep)
from omdp_sense import coefficients, spectra
from omdp_sense.checks import random_params, random_t0, reference_params
from omdp_sense.coefficients import _solve4
from omdp_sense.exact import Exact, g17, quotients, where
from omdp_sense.optimize import log_grid
from omdp_sense.spectra import POINT_BLOCK, SOLVE_BLOCK, _noise, _scans
from omdp_sense.sql import _at, _shot_backaction, default_g_range


params = partial(reference_params, nth1=10.0, nth2=10.0)


class TestSAdd:
    def test_reference_values(self):
        assert s_add(params(), 1.05).s_add == pytest.approx(
            0.1757969259477165, rel=1e-12)
        assert s_add(params(v_coupling=0.0), 1.0).s_add == pytest.approx(
            0.00911733236397097, rel=1e-12)
        assert s_add(params(v_coupling=0.4), 1.1).s_add == pytest.approx(
            1.3066079791946767, rel=1e-12)

    def test_thermal_part_splits_off(self):
        cold = s_add(params(nth1=0.0, nth2=0.0), 1.05)
        warm = s_add(params(), 1.05)
        assert cold.s_th == 0.0
        assert warm.s_add == pytest.approx(cold.s_add + warm.s_th, rel=1e-12)

    def test_zero_coupling_has_no_transduction(self):
        with pytest.raises(TransductionAbsentError):
            s_add(params(g_lin=0.0), 1.05)

    @given(st.floats(0.5, 1.5), st.floats(0.0, 80.0))
    @settings(max_examples=60, deadline=None)
    def test_identical_probes_halve_thermal_noise(self, w, nth):
        p = params(nth1=nth, nth2=nth)
        got = s_add(p, w).s_th
        assert got == pytest.approx(p.gamma1 * nth / 2.0, rel=1e-12, abs=1e-300)

    def test_distinct_probes_do_not_halve(self):
        p = params(omega_m2=1.3, gamma2=3e-5, nth1=10.0, nth2=10.0)
        got = s_add(p, 1.05).s_th
        assert got != pytest.approx(p.gamma1 * 10.0 / 2.0, rel=1e-3)

    def test_positive_everywhere(self):
        p = params()
        for w in np.linspace(0.5, 1.6, 23):
            assert s_add(p, float(w)).s_add > 0.0


class TestResonantRoute:
    def test_regression_value(self):
        assert s_add_resonant(params(), 1.05) == pytest.approx(
            0.07861583809566522, rel=1e-12)

    def test_requires_matched_resonance(self):
        with pytest.raises(ParameterError):
            s_add_resonant(params(delta_prime=0.9), 1.05)
        with pytest.raises(ParameterError):
            s_add_resonant(params(omega_m2=1.1), 1.05)

    def test_thermal_part_is_coupling_free(self):
        # the thermal transduction ratios cancel G, so s_th matches the
        # full route at any coupling
        for g in (0.01, 0.03, 0.1):
            p = params(g_lin=g)
            full = s_add(p, 1.03).s_th
            assert full == pytest.approx(p.gamma1 * 10.0 / 2.0, rel=1e-12)


class TestSomBaseline:
    def test_min_scale_matches_dual_uncoupled(self):
        grid = frequency_grid([1.0], 1e-5, (0.9, 1.2), 401)
        p = params(v_coupling=0.0)
        dual = min(s_add(p, float(w)).s_add for w in grid)
        som = min(s_add_som(1.0, 1e-5, 0.1, 0.03, 10.0, float(w))
                  for w in grid)
        assert abs(dual - som) / som < 0.05

    def test_shot_noise_slope(self):
        gs = np.geomspace(1e-6, 1e-5, 9)
        ys = [s_add_som(1.0, 1e-5, 0.1, g, 0.0, 1.0) for g in gs]
        slope = np.polyfit(np.log(gs), np.log(ys), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.02)

    def test_backaction_slope(self):
        gs = np.geomspace(1e2, 1e3, 9)
        ys = [s_add_som(1.0, 1e-5, 0.1, g, 0.0, 1.0) for g in gs]
        slope = np.polyfit(np.log(gs), np.log(ys), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.02)

    def test_thermal_floor_added_whole(self):
        cold = s_add_som(1.0, 1e-5, 0.1, 0.03, 0.0, 1.0)
        warm = s_add_som(1.0, 1e-5, 0.1, 0.03, 10.0, 1.0)
        assert warm - cold == pytest.approx(1e-5 * 10.0, rel=1e-12)

    def test_array_route_equals_scalar_on_spectrum_grid(self):
        p = params(**SET_1)
        grid = frequency_grid([1.0], p.gamma1, (0.9, 1.2), 2001)
        args = (1.0, p.gamma1, p.kappa, p.g_lin, p.nth1)
        got = s_add_som(*args, grid)
        assert type(got) is np.ndarray
        assert got.tolist() == [s_add_som(*args, w) for w in grid.tolist()]

    def test_array_route_equals_scalar_on_random_sets(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            p = replace(random_params(rng), nth1=rng.uniform(0.0, 50.0))
            wm = p.omega_m1
            grid = frequency_grid([wm], p.gamma1, (0.8 * wm, 1.3 * wm), 201)
            args = (wm, p.gamma1, p.kappa, abs(p.g_lin), p.nth1)
            got = s_add_som(*args, grid).tolist()
            assert got == [s_add_som(*args, w) for w in grid.tolist()]


def same_bits(x, y):
    return ((x == y and math.copysign(1.0, x) == math.copysign(1.0, y))
            or (math.isnan(x) and math.isnan(y)))


def same_bits_c(x, y):
    x, y = complex(x), complex(y)
    return same_bits(x.real, y.real) and same_bits(x.imag, y.imag)


# signed zeros, subnormals, overflowing products and inf or NaN parts; every
# pair of them as a complex number holds the ties |re| = |im|
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.5,
         -1.0, 3.0, 1e308, -1e308, math.inf, -math.inf, math.nan)
EDGE_PAIRS = [complex(a, b) for a in EDGES for b in EDGES]

ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


def as_cpython(f, *args):
    """f(*args) on Python numbers; where CPython raises, the value an
    array gives instead: NaN parts for a division by zero, inf for an
    overflowing modulus or square (None: compare only that a part is inf)."""
    try:
        return f(*args)
    except ZeroDivisionError:
        return complex(math.nan, math.nan)
    except OverflowError:
        return None


def assert_as_cpython(f, args, got):
    """Each value of the array ``got`` has the bits of f on the Python
    numbers at that point; ``args`` holds one list of numbers per operand."""
    got = np.asarray(got).ravel().tolist()
    assert all(len(xs) == len(got) for xs in args)
    for xs, w in zip(zip(*args), got):
        want = as_cpython(f, *xs)
        if want is None:
            w = complex(w)
            assert math.isinf(w.real) or math.isinf(w.imag), (xs, w)
        else:
            assert same_bits_c(w, want), (xs, w, want)


class TestExactComplexSquare:
    """Exact(z) ** 2 rounds as CPython's z ** 2, (1+0j) * (z*z)."""

    def assert_as_cpython(self, zs):
        with np.errstate(all="ignore"):
            got = np.asarray(Exact(np.array(zs, dtype=complex)) ** 2)
        for z, w in zip(zs, got.tolist()):
            try:
                want = z ** 2
            except OverflowError:
                # CPython refuses an infinite part; the array keeps it
                assert math.isinf(w.real) or math.isinf(w.imag)
                continue
            assert same_bits(w.real, want.real), (z, w, want)
            assert same_bits(w.imag, want.imag), (z, w, want)

    def test_random_values(self):
        rng = np.random.default_rng(8)
        parts = rng.normal(size=(2, 5000)) * 10.0 ** rng.integers(
            -150, 150, size=(2, 5000))
        self.assert_as_cpython([complex(a, b) for a, b in parts.T])

    def test_signed_zeros_large_values_and_inf_parts(self):
        edges = (0.0, -0.0, 1.5, -1.5, 1e154, -1e154, 1e200, 5e-324,
                 math.inf, -math.inf, math.nan)
        self.assert_as_cpython([complex(a, b) for a in edges for b in edges])

    def test_unary_operators_on_every_kind_of_value(self):
        # a complex array, one whose imaginary plane is one number (a float
        # array plus a complex number), and a float array
        zs = np.array(EDGE_PAIRS)
        values = [(Exact(zs), EDGE_PAIRS),
                  (Exact(np.array(EDGES)) + 1j, [x + 1j for x in EDGES]),
                  (Exact(np.array(EDGES)), list(EDGES))]
        assert isinstance(values[1][0].im, float)
        for e, xs in values:
            with np.errstate(all="ignore"):
                for f in (operator.neg, abs, lambda z: z.conjugate(),
                          lambda z: z.real, lambda z: z ** 2):
                    assert_as_cpython(f, [xs], f(e))
        # float ** 0.5 is libm pow; a negative base, which CPython makes
        # complex, aside
        xs = [x for x in EDGES if not x < 0.0 or math.isinf(x)]
        with np.errstate(all="ignore"):
            assert_as_cpython(lambda x: x ** 0.5, [xs],
                              Exact(np.array(xs)) ** 0.5)


class TestExactProductAndQuotient:
    """Exact's complex * and / round as CPython's, part by part."""

    def test_adversarial_pairs(self):
        rng = np.random.default_rng(12)
        parts = rng.normal(size=(2, 90)) * 10.0 ** rng.integers(
            -300, 300, size=(2, 90))
        zs = EDGE_PAIRS + [complex(a, b) for a, b in parts.T]
        a, b = (np.array(x, dtype=complex) for x in np.meshgrid(zs, zs))
        assert a.size > 80000
        with np.errstate(all="ignore"):
            products = np.asarray(Exact(a) * Exact(b)).ravel().tolist()
            quotients = np.asarray(Exact(a) / Exact(b)).ravel().tolist()
        for x, y, p, q in zip(a.ravel().tolist(), b.ravel().tolist(),
                              products, quotients):
            want = x * y
            assert same_bits(p.real, want.real), (x, y, p, want)
            assert same_bits(p.imag, want.imag), (x, y, p, want)
            if y == 0:
                # CPython raises ZeroDivisionError; the array gives NaN
                assert math.isnan(q.real) and math.isnan(q.imag)
                continue
            want = x / y
            assert same_bits(q.real, want.real), (x, y, q, want)
            assert same_bits(q.imag, want.imag), (x, y, q, want)

    def test_mixed_operand_kinds(self):
        # a real operand takes the imaginary part 0.0 in CPython's complex
        # arithmetic, whatever its kind and on either side
        zs, xs = np.array(EDGE_PAIRS), np.array(EDGES)
        a, b = (x.ravel() for x in np.meshgrid(zs, xs))
        za, xb = a.tolist(), b.tolist()
        # Python complex numbers become planes that are one number each
        few = (0.0, -0.0, 5e-324, -1.0, 1e308, -math.inf, math.nan)
        numbers = list(EDGES) + [complex(u, v) for u in few for v in few]
        with np.errstate(all="ignore"):
            for op in ARITHMETIC:
                for other in (Exact(b), b):  # a float Exact or array
                    assert_as_cpython(op, [za, xb], op(Exact(a), other))
                    assert_as_cpython(op, [xb, za], op(other, Exact(a)))
                for x in numbers:
                    for e, vals in ((Exact(zs), EDGE_PAIRS),
                                    (Exact(xs), list(EDGES))):
                        if isinstance(x, float) and e.im is None:
                            continue  # real arithmetic, numpy's own
                        n = [x] * len(vals)
                        assert_as_cpython(op, [vals, n], op(e, x))
                        assert_as_cpython(op, [n, vals], op(x, e))

    def test_shared_divisor_quotients(self):
        # one divisor set-up serves several quotients, with either branch
        # of _Py_c_quot at different points of one array
        rng = np.random.default_rng(3)
        d = np.array(EDGE_PAIRS + list(rng.normal(size=64)
                                       + 1j * rng.normal(size=64)))
        by_real = np.abs(d.real) >= np.abs(d.imag)
        assert by_real.any() and not by_real.all()
        n = len(d)
        nums = [Exact(np.roll(d, 7)), Exact(rng.normal(size=n)), 1.5,
                2.0 - 1j, np.roll(d, 3), rng.normal(size=n)]
        with np.errstate(all="ignore"):
            for x, q in zip(nums, quotients(nums, Exact(d))):
                alone = np.asarray(x / Exact(d)).tolist()
                assert all(map(same_bits_c, np.asarray(q).tolist(), alone))
            # a real divisor of a real numerator divides as floats
            x, real = nums[1], Exact(rng.normal(size=n))
            (q,) = quotients([x], real)
            assert q.im is None
            assert np.array_equal(np.asarray(q), np.asarray(x / real))


class TestExactWhere:
    """where(cond, x, y), the select the elimination branches through,
    against the pick written out point by point."""

    OPERANDS = (1.5, 2 - 1j, np.array([1.0, 2.0]),
                Exact(np.array([1j, -0.0])), [0j, Exact(np.array([3.0]))])

    def test_a_bool_gives_the_operand_itself(self):
        for x in self.OPERANDS:
            for y in self.OPERANDS:
                assert where(True, x, y) is x
                assert where(False, x, y) is y

    def test_a_mask_true_or_false_everywhere_gives_the_operand_itself(self):
        for x in self.OPERANDS:
            for y in self.OPERANDS:
                for n in (1, 3):
                    assert where(np.ones(n, dtype=bool), x, y) is x
                    assert where(np.zeros(n, dtype=bool), x, y) is y

    def test_pivot_search_tuples(self):
        # (pivot row, magnitude): a row number against an array of them
        cond = np.array([True, False, True, False])
        mag = np.array([0.5, 2.0, 3.0, 4.0])
        rows, piv = np.array([0, 1, 1, 0]), np.array([1.0, 1.0, 2.0, 5.0])
        got = where(cond, (2, mag), (rows, piv))
        assert isinstance(got, list) and len(got) == 2
        assert got[0].tolist() == [2, 1, 2, 0]
        assert got[1].tolist() == [0.5, 1.0, 3.0, 5.0]

    def test_rows_of_numbers_and_exact_values(self):
        # a row swap where entries are Python complex numbers (constant
        # over the batch) or Exact arrays, with signed zeros
        cond = np.array([True, False, False, True])
        shared = Exact(np.array([1.0, 2.0, 3.0, 4.0]))
        ex = Exact(np.array([1 + 1j, -0.0 - 0.0j, 2.5j, complex(0.0, -0.0)]))
        xs = [1 + 2j, ex, shared, 0j, -0.0]
        ys = [Exact(np.array([-1.0, 0.0, -0.0, 7.0])), 3.0, shared, -0.0j,
              0.0]
        got = where(cond, xs, ys)
        assert got[2] is shared

        def at(v, i):  # the operand's value at point i, as CPython's complex
            v = np.asarray(v)
            return complex(v[i] if v.ndim else v)
        for x, y, z in zip(xs, ys, got):
            want = [at(x if c else y, i) for i, c in enumerate(cond.tolist())]
            assert all(map(same_bits_c, np.asarray(z).tolist(), want))
        # a complex number or an Exact value on either side gives an Exact
        # value, a real one taking the imaginary part 0.0; reals stay numpy
        assert all(isinstance(z, Exact) for z in got[:4])
        assert got[0].im is not None and got[1].im is not None
        assert isinstance(got[4], np.ndarray)


def assert_g17(values):
    """g17's text equals '%.17g' % x for every value, in the input's shape."""
    values = np.asarray(values, dtype=float)
    got = g17(values)
    assert got.shape == values.shape
    want = ["%.17g" % x for x in values.ravel().tolist()]
    assert [s.decode() for s in got.ravel().tolist()] == want


class TestG17:
    """exact.g17 writes %.17g as CPython does, byte for byte."""

    @settings(deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_floats(self, xs):
        assert_g17(xs)

    def test_powers_of_ten_and_their_neighbours(self):
        # the fast range's edges lie among these, and so do the exponents
        # where fixed notation turns into the exponent form
        p = 10.0 ** np.arange(-12, 18)
        near = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, 1e300)])
        assert_g17(np.concatenate([near, -near]))

    def test_edges(self):
        assert_g17([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                    2.225073858507201e-308, 1e308, -1e308,
                    1.7976931348623157e308, math.inf, -math.inf, math.nan,
                    0.1, 1.0, 123456.0, -1200.0])

    def test_ties_at_the_18th_digit(self):
        # an odd m over 2**j with m 5**j of 18 digits ends in 5 at its 18th
        # significant digit, exactly: %.17g rounds it half to even
        rng = np.random.default_rng(8)
        ties = []
        for j in range(1, 75):
            lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
            if lo < hi:
                ms = rng.integers(lo, hi, 400) | 1
                ties += [int(m) / 2.0 ** j for m in ms[ms < hi]]
        assert len(ties) > 5000
        assert_g17(np.array([ties, np.negative(ties)]))

    def test_wide_ranges(self):
        rng = np.random.default_rng(9)
        assert_g17(10.0 ** rng.uniform(-13, 18, 20000)
                   * rng.choice([-1.0, 1.0], 20000))
        bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64)
        assert_g17(bits.view(float))
        assert_g17(rng.integers(-10 ** 15, 10 ** 15, 2000).astype(float))


class TestSpectrumSweep:
    def test_requires_increasing_grid(self):
        with pytest.raises(ParameterError):
            spectrum_sweep(params(), np.array([1.0, 0.9, 1.1]))

    def test_points_carry_gain(self):
        grid = np.linspace(0.95, 1.15, 21)
        res = spectrum_sweep(params(), grid)
        assert len(res.omega) == 21
        assert res.a_p[3] == pytest.approx(
            abs(solve_coefficients(params(), float(res.omega[3])).e_coef),
            rel=1e-14)
        assert res.s_add[3] > 0 and res.s_th[3] > 0

    def test_minimum_sits_at_dressed_notch(self):
        weff = omega_eff(1.0, 0.2)
        grid = frequency_grid([1.0, weff], 1e-5, (0.9, 1.2), 401)
        res = spectrum_sweep(params(), grid)
        w_min = res.omega[int(np.argmin(res.s_add))]
        assert abs(w_min - weff) / weff < 0.01

    def test_stronger_coupling_digs_deeper(self):
        mins = {}
        for v in (0.0, 0.2, 0.4):
            grid = frequency_grid([1.0, omega_eff(1.0, v)], 1e-5,
                                  (0.9, 1.35), 401)
            res = spectrum_sweep(params(v_coupling=v), grid)
            mins[v] = res.s_add.min()
        assert mins[0.4] < mins[0.2] < mins[0.0]

    def test_rejects_non_finite_grid(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="finite"):
                spectrum_sweep(params(), [1.0, bad])

    def test_vanishing_transduction_raises_as_scalar_route(self):
        p = params(g_lin=0.0)
        with pytest.raises(TransductionAbsentError) as scalar:
            _noise(p, solve_coefficients(p, 1.05))
        with pytest.raises(TransductionAbsentError) as batched:
            spectrum_sweep(p, np.linspace(1.0, 1.1, 5))
        assert str(batched.value) == str(scalar.value)


COEFFICIENTS = ("a_coef", "b_coef", "c_coef", "d_coef", "e_coef")

# input set 1 of the spectrum benchmark
SET_1 = dict(delta_prime=1.01583, kappa=0.0978062, g_lin=0.0306254)


def random_general(rng):
    """Theta != 0, complex g, unequal oscillators, warm baths."""
    wm1, wm2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    return DetectorParams(
        delta_prime=rng.uniform(-2.0, 2.0), kappa=rng.uniform(0.01, 1.0),
        g_lin=rng.uniform(1e-3, 0.3) * cmath.exp(1j * rng.uniform(0.1, 3.0)),
        omega_m1=wm1, omega_m2=wm2,
        gamma1=rng.uniform(1e-5, 1e-2), gamma2=rng.uniform(1e-5, 1e-2),
        v_coupling=rng.uniform(0.0, 0.9) * math.sqrt(wm1 * wm2),
        theta=rng.uniform(0.1, 3.0),
        nth1=rng.uniform(0.0, 50.0), nth2=rng.uniform(0.0, 50.0))


class TestArrayRouteBitIdentity:
    """The array route equals the scalar one exactly, not to a tolerance.

    Near the lower normal mode E = C + D nearly cancels, so any other
    rounding of the same algebra shifts s_add there by parts in 1e12.
    """

    def assert_identical(self, p, grid):
        co = solve_coefficients(p, grid)
        res = spectrum_sweep(p, grid)
        batch = s_add(p, grid)  # one detector on a frequency array
        assert np.array_equal(res.omega, grid)
        for i, w in enumerate(grid.tolist()):
            one = solve_coefficients(p, w)
            for name in COEFFICIENTS:
                assert getattr(co, name)[i] == getattr(one, name), (name, w)
            sadd, sth = _noise(p, one)
            assert res.s_add[i] == sadd and res.s_th[i] == sth, w
            assert res.a_p[i] == abs(one.e_coef), w
            assert same_bits(batch.s_add[i], sadd), w
            assert same_bits(batch.s_th[i], sth), w

    @pytest.mark.parametrize("v", [0.1, 0.15])
    def test_dark_mode_window(self, v):
        # the lower normal mode sqrt(1 - v), where E nearly cancels
        p = params(v_coupling=v, **SET_1)
        grid = frequency_grid([1.0, omega_eff(1.0, v)], 1e-5, (0.9, 1.2),
                              20001)
        window = grid[np.abs(grid - math.sqrt(1.0 - v)) < 1e-3]
        assert len(window) > 100
        self.assert_identical(p, window)

    def test_random_general_sets(self):
        rng = np.random.default_rng(5150)
        for _ in range(200):
            self.assert_identical(random_general(rng),
                                  np.sort(rng.uniform(0.1, 2.5, 8)))

    def test_block_boundaries(self):
        grid = np.linspace(0.9, 1.2, 2 * SOLVE_BLOCK + 1)
        self.assert_identical(params(**SET_1), grid)

    def test_broadcast_entries_solve_alike(self, monkeypatch):
        # a batch keeps an entry that is the same at every point (0j,
        # 1+0j, sqrt(kappa) of one detector, the chi of one frequency) as
        # a number; every entry broadcast to an array over the points, as
        # TestArrayRouteErrors builds its system, solves to the same bits
        systems, solve = [], coefficients._solve4

        def recording(m, rhs):
            systems.append((m, rhs))
            return solve(m, rhs)
        monkeypatch.setattr(coefficients, "_solve4", recording)
        rng = np.random.default_rng(11)
        n = 64
        for _ in range(10):
            p = random_general(rng)
            ws = np.sort(rng.uniform(0.1, 2.5, n))
            gs = rng.uniform(1e-3, 0.3, n) * np.exp(1j * rng.uniform(0, 3, n))
            solve_coefficients(p, ws)
            solve_coefficients(p, float(ws[0]), g_lin=gs)
            solve_coefficients([replace(random_general(rng), theta=p.theta)
                                for _ in range(n)], ws)
        kept = 0
        for m, rhs in systems:
            kept += sum(not isinstance(x, Exact)
                        for rows in (m, rhs) for row in rows for x in row)
            full = ([[Exact(np.broadcast_to(np.asarray(x, dtype=complex),
                                            (n,))) for x in row]
                     for row in rows] for rows in (m, rhs))
            with np.errstate(all="ignore"):
                got, want = solve(m, rhs), solve(*full)
            for row, ref in zip(got, want):
                for x, y in zip(row, ref):
                    assert all(map(same_bits_c, np.broadcast_to(
                        np.asarray(x), (n,)).tolist(), np.asarray(y).tolist()))
        assert kept >= 10 * len(systems)


class TestArrayRouteErrors:
    def singular(self, top_left):
        # column 2 is zero below the first two pivots
        one = 1.0 + 0j
        m = ((top_left, 0j, 0j, 0j), (0j, one, 0j, 0j),
             (0j, 0j, 0j, one), (0j, 0j, 0j, one))
        rhs = tuple((0j,) * 4 for _ in range(4))
        return m, rhs

    def test_zero_pivot_raises_as_scalar_route(self):
        with pytest.raises(SingularSystemError) as scalar:
            _solve4(*self.singular(3.0 + 0j))
        # three frequencies; the first two are singular, the second with
        # a different pivot history
        m, rhs = self.singular(np.array([3.0, 5.0, 2.0 + 0j]))
        m = m[:2] + ((0j, 0j, np.array([0j, 0j, 1.0 + 0j]), 1.0 + 0j), m[3])
        # every entry broadcast to an array
        full = [[[Exact(np.broadcast_to(np.asarray(x, dtype=complex), (3,)))
                  for x in row] for row in rows] for rows in (m, rhs)]
        # entries the same at every point kept as numbers, as
        # solve_coefficients keeps them: the pivots of columns 0 and 1 are
        # numbers, and the second and third points are singular
        m, rhs = self.singular(3.0 + 0j)
        m = m[:2] + ((0j, 0j, Exact(np.array([1.0, 0j, 0j])), 1.0 + 0j), m[3])
        for system in (full, (m, rhs)):
            with pytest.raises(SingularSystemError) as batched:
                _solve4(*system)
            assert str(batched.value) == str(scalar.value)
            assert batched.value.condition == scalar.value.condition == 3.0


class TestCouplingArrayRoute:
    """Couplings as an array at one frequency equal s_add point by point."""

    def assert_identical(self, p, w, gs):
        co = solve_coefficients(p, w, g_lin=gs)
        sadd, sth = (np.asarray(x) for x in _noise(p, co))
        for i, g in enumerate(gs.tolist()):
            pg = replace(p, g_lin=g)
            one = solve_coefficients(pg, w)
            for name in COEFFICIENTS:
                assert getattr(co, name)[i] == getattr(one, name), (name, g)
            ref = s_add(pg, w)
            assert sadd[i] == ref.s_add and sth[i] == ref.s_th, (w, g)

    def test_validate_style_sets(self):
        # the sets and the 64-per-decade grid of validate's numeric optimum
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            p, w = random_t0(rng)
            self.assert_identical(p, w, log_grid(*default_g_range(p)))

    @pytest.mark.parametrize("v", [0.1, 0.15])
    def test_dark_mode_window(self, v):
        p = params(v_coupling=v, **SET_1)
        grid = frequency_grid([1.0, omega_eff(1.0, v)], 1e-5, (0.9, 1.2),
                              20001)
        window = grid[np.abs(grid - math.sqrt(1.0 - v)) < 1e-3]
        assert len(window) > 100
        gs = np.geomspace(1e-3, 0.3, 21)  # 8 points a decade
        for w in window.tolist():
            self.assert_identical(p, w, gs)

    def test_complex_couplings_general_sets(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = random_general(rng)
            gs = (rng.uniform(1e-3, 0.3, 8)
                  * np.exp(1j * rng.uniform(0.0, 3.0, 8)))
            self.assert_identical(p, rng.uniform(0.1, 2.5), gs)

    def test_vanishing_transduction_raises_as_scalar_route(self):
        # g = 0 decouples the cavity: E == 0 at that grid point
        p = params()
        pz = replace(p, g_lin=0.0)
        with pytest.raises(TransductionAbsentError) as scalar:
            _noise(pz, solve_coefficients(pz, 1.05))
        with pytest.raises(TransductionAbsentError) as batched:
            _noise(p, solve_coefficients(p, 1.05,
                                         g_lin=np.array([0.03, 0.0, 0.1])))
        assert str(batched.value) == str(scalar.value)
        with pytest.raises(TransductionAbsentError):
            s_add(pz, 1.05)

    def test_one_coupling_at_one_point(self):
        # the polish's route: the detector's coupling replaced in the solve
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, w = random_general(rng), rng.uniform(0.1, 2.5)
            for g in (rng.uniform(1e-3, 0.3), complex(rng.uniform(1e-3, 0.3),
                                                      rng.uniform(-0.1, 0.1))):
                pg = replace(p, g_lin=g)
                co = solve_coefficients(p, w, g_lin=g)
                one = solve_coefficients(pg, w)
                for name in COEFFICIENTS:
                    assert same_bits_c(getattr(co, name),
                                       getattr(one, name)), (name, g)
                assert _noise(p, co) == _noise(pg, one)
        with pytest.raises(TransductionAbsentError):
            _noise(p, solve_coefficients(p, 1.05, g_lin=0.0))

    def test_rejects_bad_couplings(self):
        for bad in (np.array([0.03, np.nan]), np.array([[0.03]]), math.inf):
            with pytest.raises(ParameterError):
                solve_coefficients(params(), 1.05, g_lin=bad)
        # per-point frequencies and couplings must agree in number
        with pytest.raises(ParameterError):
            solve_coefficients(params(), np.array([1.0, 1.1, 1.2]),
                               g_lin=np.array([0.03, 0.04]))


def each_point(f, ps, ws):
    """f(p, w) at every point of a batch, one detector and frequency per
    point, through spectra._scans with each point a set of its own: one
    batch in blocks of POINT_BLOCK points, then each bad point redone
    alone, in point order."""
    return np.concatenate([np.empty(0)] + list(_scans(
        f, [(p,) for p in ps], [[w] for w in np.asarray(ws).tolist()])))


def s_add_each(ps, ws, gs=None):
    """s_add at every point of a batch, one detector, frequency and, if
    given, coupling per point (then put into the point's detector), as the
    fixed_g scans take it: batch s_add, and scalar s_add for a bad point."""
    if gs is not None:
        ps = [replace(p, g_lin=g) for p, g in zip(ps, np.asarray(gs).tolist())]
    return each_point(lambda p, w: s_add(p, w).s_add, ps, ws)


class TestPerPointBatch:
    """One detector per point, with per-point or shared frequencies and
    couplings, against solving and s_add point by point, bit for bit."""

    def assert_identical(self, ps, omega, g_lin=None):
        co = solve_coefficients(ps, omega, g_lin)
        sadd, sth = (np.asarray(x) for x in _noise(ps, co))
        each = s_add_each(ps, np.broadcast_to(omega, len(ps)),
                          None if g_lin is None
                          else np.broadcast_to(g_lin, len(ps)))
        # s_add itself on the per-point detectors, a coupling put into each
        batch = s_add(ps if g_lin is None else [
            replace(p, g_lin=g)
            for p, g in zip(ps, np.broadcast_to(g_lin, len(ps)).tolist())],
            omega)
        for i, p in enumerate(ps):
            w = float(omega[i] if np.ndim(omega) else omega)
            if g_lin is not None:
                p = replace(p, g_lin=g_lin[i] if np.ndim(g_lin) else g_lin)
            one = solve_coefficients(p, w)
            for name in COEFFICIENTS:
                assert getattr(co, name)[i] == getattr(one, name), (name, i)
            ref = s_add(p, w)
            assert sadd[i] == ref.s_add and sth[i] == ref.s_th, i
            assert each[i] == ref.s_add, i
            assert same_bits(batch.s_add[i], ref.s_add), i
            assert same_bits(batch.s_th[i], ref.s_th), i

    @pytest.mark.parametrize("omega_each", [True, False])
    @pytest.mark.parametrize("g_lin", [None, "shared", "each"])
    def test_random_detectors(self, omega_each, g_lin):
        # theta != 0 shared, complex g, warm baths, unequal oscillators
        rng = np.random.default_rng(7272)
        for _ in range(20):
            theta = rng.uniform(0.1, 3.0)
            ps = [replace(random_general(rng), theta=theta) for _ in range(12)]
            omega = rng.uniform(0.1, 2.5, 12 if omega_each else None)
            gs = rng.uniform(1e-3, 0.3, 12) * np.exp(1j * rng.uniform(0, 3, 12))
            self.assert_identical(ps, omega, {
                None: None, "shared": complex(gs[0]), "each": gs}[g_lin])

    def test_repeated_detectors_as_in_a_sweep(self):
        # rows of one detector each, differing in one field only
        grid = np.linspace(0.8, 1.3, 51)
        ps = [params(v_coupling=v) for v in (0.0, 0.1, 0.2, 0.45)]
        self.assert_identical([p for p in ps for _ in grid],
                              np.tile(grid, len(ps)))
        # one shared detector given per point
        self.assert_identical([params()] * 51, grid)

    def test_one_detector_with_frequencies_and_couplings(self):
        ws = np.linspace(0.9, 1.2, 40)
        gs = np.geomspace(1e-3, 0.3, 40)
        co = solve_coefficients(params(), ws, gs)
        got = s_add_each([params()] * len(ws), ws, gs)
        for i, (w, g) in enumerate(zip(ws.tolist(), gs.tolist())):
            one = solve_coefficients(params(g_lin=g), w)
            for name in COEFFICIENTS:
                assert getattr(co, name)[i] == getattr(one, name), (name, i)
            assert got[i] == s_add(params(g_lin=g), w).s_add

    def test_blocks(self):
        grid = np.linspace(0.9, 1.2, SOLVE_BLOCK + 3)
        ps = [params(v_coupling=0.1), params(v_coupling=0.2)] * (len(grid) // 2)
        ps.append(params())
        got = s_add_each(ps, grid)
        for i in (0, 1, POINT_BLOCK - 1, POINT_BLOCK, SOLVE_BLOCK - 1,
                  SOLVE_BLOCK, len(grid) - 1):
            assert got[i] == s_add(ps[i], float(grid[i])).s_add
        # a point that fails makes its own block NaN, and only that block:
        # its POINT_BLOCK points, and no other, are redone alone
        bad, redone = params(v_coupling=0.3), []
        ps[POINT_BLOCK + 5] = bad

        def objective(p, w):
            if not isinstance(p, list):
                redone.append(w)
            elif any(q is bad for q in p):
                raise ZeroDivisionError
            return s_add(p, w).s_add
        again = each_point(objective, ps, grid)
        assert redone == grid[POINT_BLOCK:2 * POINT_BLOCK].tolist()
        for i in (POINT_BLOCK - 1, POINT_BLOCK, POINT_BLOCK + 5,
                  2 * POINT_BLOCK - 1, 2 * POINT_BLOCK):
            assert again[i] == s_add(ps[i], float(grid[i])).s_add
        # a point that fails alone too raises s_add's own error
        ps[POINT_BLOCK + 5] = params(g_lin=0.0)
        with pytest.raises(TransductionAbsentError, match="g_lin = 0"):
            s_add_each(ps, grid)

    def test_vanishing_transduction_raises_as_the_loop(self):
        ps = [params(), params(g_lin=0.0), params(g_lin=0.05)]
        ws = np.array([1.0, 1.05, 1.1])
        with pytest.raises(TransductionAbsentError) as loop:
            for p, w in zip(ps, ws.tolist()):
                _noise(p, solve_coefficients(p, w))
        with pytest.raises(TransductionAbsentError) as batch:
            _noise(ps, solve_coefficients(ps, ws))
        assert str(batch.value) == str(loop.value)
        # s_add refuses g = 0 before it solves; so does the batch
        with pytest.raises(TransductionAbsentError) as loop:
            for p, w in zip(ps, ws.tolist()):
                s_add(p, w)
        with pytest.raises(TransductionAbsentError) as batch:
            s_add_each(ps, ws)
        assert str(batch.value) == str(loop.value)
        # and a zero among per-point couplings
        with pytest.raises(TransductionAbsentError) as batch:
            s_add_each([params()] * 3, np.full(3, 1.05),
                       np.array([0.03, 0.0, 0.1]))
        assert str(batch.value) == str(loop.value)

    @pytest.mark.parametrize("fields", [
        dict(delta_prime=-1e308),           # complex division by zero
        dict(gamma1=1e308, gamma2=1e308),   # overflow
        dict(gamma1=1e200, gamma2=1e200),
        dict(kappa=1e-300),                 # not finite, no raise
        dict(delta_prime=1e154),            # transduction underflows
        dict(g_lin=1e-300)])
    def test_bad_point_keeps_scalar_value_or_error(self, fields):
        # bad points among good ones, then g = 0, which s_add refuses: the
        # batch raises whatever the loop raises first
        ps = [params(), params(**fields), params(v_coupling=0.1, **fields),
              params(g_lin=0.0)]
        ws = np.array([1.0, 1.05, 1.1, 0.95])
        want, first = [], None
        for p, w in zip(ps, ws.tolist()):
            try:
                want.append(s_add(p, w).s_add)
            except (ArithmeticError, OmdpError) as exc:
                first = exc
                break
        with pytest.raises(type(first)) as exc:
            with np.errstate(all="ignore"):
                s_add_each(ps, ws)
        assert str(exc.value) == str(first)
        with np.errstate(all="ignore"):
            got = s_add_each(ps[:len(want)], ws[:len(want)])
        assert np.array_equal(got, want, equal_nan=True)

    def test_detectors_must_share_theta(self):
        ps = [params(), params(theta=0.3)]
        with pytest.raises(ParameterError, match="theta"):
            solve_coefficients(ps, 1.05)
        co = solve_coefficients(ps[:1] * 2, 1.05)
        with pytest.raises(ParameterError, match="theta"):
            _noise(ps, co)
        # a batch-level error raises at once, not redone point by point
        with pytest.raises(ParameterError, match="theta"):
            s_add_each(ps, np.array([1.0, 1.1]))

    def test_per_point_inputs_must_agree_in_length(self):
        for args in (([params()] * 2, np.array([1.0, 1.1, 1.2])),
                     ([params()] * 2, 1.05, np.array([0.03] * 3)),
                     ([], 1.05)):
            with pytest.raises(ParameterError):
                solve_coefficients(*args)


class TestSAddBatch:
    """s_add on a batch: float arrays, its zero-coupling rule, and the
    scans' redo of a point the batch cannot take."""

    def test_batches_give_float_arrays(self):
        ws = np.linspace(0.9, 1.2, 7)
        for ps, omega in ((params(), ws), ([params()] * 7, ws),
                          ([params(v_coupling=0.2)] * 7, 1.05)):
            res = s_add(ps, omega)
            for x in (res.s_add, res.s_th):
                assert type(x) is np.ndarray and x.dtype == float
                assert x.shape == (7,)
        one = s_add(params(), 1.05)
        assert type(one.s_add) is float and type(one.s_th) is float

    def test_zero_coupling_precheck_is_for_one_detector(self):
        with pytest.raises(TransductionAbsentError, match="g_lin = 0"):
            s_add(params(g_lin=0.0), np.array([1.0, 1.05]))
        # among per-point detectors the noise refuses the batch, and a scan
        # redoes the point alone with s_add's own message
        ps = [params(), params(g_lin=0.0)]
        with pytest.raises(TransductionAbsentError, match="vanished"):
            s_add(ps, np.array([1.0, 1.05]))
        with pytest.raises(TransductionAbsentError, match="g_lin = 0"):
            s_add_each(ps, np.array([1.0, 1.05]))


class TestScans:
    """spectra._scans: one batch over all sets' grids, then each set's bad
    points redone alone just before the set is yielded."""

    @pytest.mark.parametrize("block", [1, 4, 5])
    def test_equals_scalar_calls_across_blocks(self, monkeypatch, block):
        # small blocks cut across sets of unequal sizes, one of them empty;
        # detectors go on as a list, frequencies as a float array
        monkeypatch.setattr(spectra, "POINT_BLOCK", block)
        ps = [params(v_coupling=v, g_lin=0.03 + v) for v in (0.0, 0.1, 0.2,
                                                              0.3)]
        ws = [0.95, 1.0, 1.05, 1.1]
        grids = [np.geomspace(1e-3, 0.3, k) for k in (7, 0, 3, 11)]
        sets = list(zip(ps, ws))
        seen = []

        def at(p, w, g):
            if isinstance(g, np.ndarray):
                seen.append((type(p), type(w), len(g)))
            return _at(p, w, g)
        got = list(_scans(at, sets, grids))
        assert len(got) == len(sets)
        n = sum(map(len, grids))
        assert seen == [(list, np.ndarray, min(block, n - lo))
                        for lo in range(0, n, block)]
        for (p, w), xs, ys in zip(sets, grids, got):
            want = [_at(p, w, g) for g in xs.tolist()]
            assert all(map(same_bits, ys.tolist(), want))
        # one field, the detector alone, with s_add as the objective
        got = list(_scans(lambda p, w: s_add(p, w).s_add,
                          [(p,) for p in ps], [g + 0.9 for g in grids]))
        for p, xs, ys in zip(ps, grids, got):
            want = [s_add(p, w).s_add for w in (xs + 0.9).tolist()]
            assert all(map(same_bits, ys.tolist(), want))

    def test_a_set_is_redone_after_the_set_before_is_yielded(self):
        log = []

        def f(tag, x):
            if isinstance(x, np.ndarray):  # the batch: NaN above 0.5
                log.append(("batch", tag.tolist(), x.tolist()))
                return np.where(x > 0.5, np.nan, x)
            log.append(("redo", tag, x))
            return -x
        grids = [np.array([0.1, 0.6, 0.7]), np.array([0.2, 0.9])]
        for k, ys in enumerate(_scans(f, [(0,), (1,)], grids)):
            log.append(("yield", k, ys.tolist()))
        assert log == [("batch", [0, 0, 0, 1, 1], [0.1, 0.6, 0.7, 0.2, 0.9]),
                       ("redo", 0, 0.6), ("redo", 0, 0.7),
                       ("yield", 0, [0.1, -0.6, -0.7]),
                       ("redo", 1, 0.9), ("yield", 1, [0.2, -0.9])]

    def test_a_batch_parameter_error_raises_at_once(self):
        calls = []

        def f(p, x):
            calls.append(x)
            if isinstance(x, np.ndarray):
                raise ParameterError("the whole batch")
            return x
        with pytest.raises(ParameterError, match="whole batch"):
            next(_scans(f, [(0,), (1,)], [np.ones(3), np.ones(2)]))
        assert len(calls) == 1  # the batch's only; no point redone
        # detectors that do not share theta, a real batch-level error
        grid = np.array([1.0, 1.1])
        with pytest.raises(ParameterError, match="theta"):
            next(_scans(lambda p, w: s_add(p, w).s_add,
                        [(params(),), (params(theta=0.3),)], [grid, grid]))


def bits(zs):
    """The bit patterns of complex values: -0.0 and 0.0 differ."""
    return np.ascontiguousarray(zs, dtype=complex).view(np.uint64)


class TestZeroCouplingBatch:
    """Batches in which some points have G = 0 or V = 0, so that both the
    pivot rows and the zero elimination factors differ from point to
    point. Each point equals its own solve bit for bit, signed zeros
    included."""

    @pytest.mark.parametrize("g_each", [True, False])
    @pytest.mark.parametrize("seed", range(26))
    def test_points_equal_their_own_solves(self, seed, g_each):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        theta = rng.choice([0.0, rng.uniform(0.1, 3.0)])
        ps = [replace(random_general(rng), theta=theta) for _ in range(n)]
        ps = [replace(p, v_coupling=0.0) if rng.random() < 0.4 else p
              for p in ps]
        omega = rng.uniform(0.1, 2.5, n)
        # real and complex couplings, some of them zero
        gs = rng.uniform(1e-3, 0.3, n) * np.exp(
            1j * rng.choice([0.0, 1.0], n) * rng.uniform(0.1, 3.0, n))
        gs[rng.random(n) < 0.4] = 0.0
        ones = [solve_coefficients(replace(p, g_lin=complex(g)), float(w))
                for p, w, g in zip(ps, omega, gs)]
        if g_each:
            co = solve_coefficients(ps, omega, gs)
        else:
            co = solve_coefficients([replace(p, g_lin=complex(g))
                                     for p, g in zip(ps, gs)], omega)
        for name in COEFFICIENTS:
            want = [getattr(one, name) for one in ones]
            assert np.array_equal(bits(getattr(co, name)), bits(want)), name


class TestParameterTypes:
    def test_numpy_scalar_frequency_gives_bit_equal_results(self):
        # scans hand np.float64 grid elements to the scalar routes
        p = params()
        p0 = params(nth1=0.0, nth2=0.0)
        for w in np.linspace(0.8, 1.3, 201):
            assert s_add(p, w) == s_add(p, float(w))
            assert _shot_backaction(p0, w) == _shot_backaction(p0, float(w))

    def test_numpy_scalars_give_bit_equal_results(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = random_general(rng)
            q = DetectorParams(**{k: (np.complex128(x) if k == "g_lin"
                                      else np.float64(x))
                                  for k, x in vars(p).items()})
            assert type(q.kappa) is float and type(q.g_lin) is complex
            w = rng.uniform(0.5, 1.5)
            assert s_add(q, w) == s_add(p, w)
