"""Signal-to-noise, enhancement factor, and magnetometer accuracy.

The response constant xi = I*L lives in A*m while the model runs in
normalized force units, so a single conversion eta (model units per A*m*T)
is calibrated once against a known operating point. Two SNR conventions are
carried side by side, power (signal^2 / S_add) and amplitude
(signal / sqrt(S_add)), because the two disagree about absolute accuracy by
the square root of the SNR scale. make_report solves the detector once and
returns one calibrated report per convention, keyed by its name.
"""

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import optimize
from .errors import ParameterError
from .model import frequency_grid, omega_eff, thermal_occupation
from .spectra import _scans, s_add, s_add_som, spectrum_sweep

# rad/s per model frequency unit for the reference hardware
# (10.56 MHz oscillator); used whenever a temperature enters.
DEFAULT_RATE_SCALE = 2.0 * math.pi * 10.56e6

CONVENTIONS = ("power", "amplitude")


@dataclass(frozen=True)
class MagnetometerConfig:
    current: float        # A
    probe_size: float     # m
    field: float          # T
    temperature: float    # K

    def __post_init__(self):
        if not all(map(math.isfinite, (self.current, self.probe_size,
                                       self.field, self.temperature))):
            raise ParameterError("magnetometer parameters must be finite")
        if self.current <= 0:
            raise ParameterError("current must be positive")
        if self.probe_size <= 0:
            raise ParameterError("probe_size must be positive")
        if self.field <= 0:
            raise ParameterError("field must be positive")
        if self.temperature < 0:
            raise ParameterError("temperature must be non-negative")


@dataclass(frozen=True)
class SensingReport:
    snr_at_omega_eff: float
    snr_omegas: tuple
    snr_values: tuple
    b_min: float
    slope: float
    eta: float
    noise: float          # S_add of the thermalized detector at omega_eff


def response_coefficient(current, probe_size):
    """xi = I * L, the surface-current response constant."""
    if current <= 0 or probe_size <= 0:
        raise ParameterError("current and probe_size must be positive")
    return current * probe_size


def snr(noise, signal, convention):
    """Signal-to-noise of the homodyne output with additional noise
    ``noise`` (S_add) and signal amplitude ``signal`` = eta*xi*B, in model
    units."""
    if convention not in CONVENTIONS:
        raise ParameterError("convention must be power or amplitude")
    if convention == "power":
        return signal ** 2 / noise
    return signal / math.sqrt(noise)


def _thermalized(params, temperature, rate_scale):
    """params with both oscillators' occupations at the bath temperature."""
    return replace(
        params,
        nth1=thermal_occupation(params.omega_m1 * rate_scale, temperature),
        nth2=thermal_occupation(params.omega_m2 * rate_scale, temperature))


def som_noise_floor(params):
    """Minimum over frequency of the single-oscillator baseline noise,
    with oscillator 1's rates, occupation and coupling."""
    wm = params.omega_m1
    f = partial(s_add_som, wm, params.gamma1, params.kappa,
                abs(params.g_lin), params.nth1)
    grid = frequency_grid([wm], params.gamma1, (0.8 * wm, 1.3 * wm), 201)
    ys = next(_scans(f, [()], [grid]))
    _, fx, _ = optimize.scan_then_golden(f, grid, ys)
    return fx


def s_r(params, temperature, rate_scale):
    """SNR enhancement over the single-oscillator baseline.

    Dual-probe SNR is taken at the upper normal mode; the baseline is the
    best single-oscillator SNR over frequency with the same oscillator-1
    rates, cavity linewidth and coupling. Signal factors cancel, so this is
    the baseline noise floor divided by the dual-probe noise, independent of
    xi, field and calibration. The baseline's thermal term gamma1 n1 does
    not depend on frequency, so its floor is the T = 0 floor F0 plus
    gamma1 n1: S_R = (F0 + gamma1 n1) / S_add(p_T, omega_eff).

    One point, or a list of points: ``params`` is one detector or a list of
    detectors, ``temperature`` one temperature or a list. A value given
    once holds at every point. One point gives a float, a list of points a
    list. F0 is searched once per distinct baseline (omega_m1, gamma1,
    kappa, |g|) within the call, after the first dual-probe noise that
    needs it, so errors come in point order.
    """
    sizes = [len(x) for x in (params, temperature)
             if isinstance(x, (list, tuple))]
    if len(set(sizes)) > 1:
        raise ParameterError("detectors and temperatures differ in length: "
                             "%s" % sizes)
    n = sizes[0] if sizes else 1
    detectors = params if isinstance(params, (list, tuple)) else [params] * n
    temps = (temperature if isinstance(temperature, (list, tuple))
             else [temperature] * n)
    floors, out = {}, []
    for p, tk in zip(detectors, temps):
        pt = _thermalized(p, tk, rate_scale)
        dual = s_add(pt, omega_eff(pt.omega_m1, pt.v_coupling)).s_add
        key = (pt.omega_m1, pt.gamma1, pt.kappa, abs(pt.g_lin))
        if key not in floors:
            floors[key] = som_noise_floor(_thermalized(p, 0.0, rate_scale))
        out.append((floors[key] + pt.gamma1 * pt.nth1) / dual)
    return out if sizes else out[0]


def _loglog_fit(noise, xi_normalized, b_values, convention):
    """Least-squares slope of log SNR against log B at noise S_add."""
    snrs = [snr(noise, xi_normalized * b, convention) for b in b_values]
    if not all(0 < s < math.inf for s in snrs):
        raise ParameterError("log SNR against log B is not finite")
    logb = np.log10(np.asarray(b_values, dtype=float))
    logs = np.array([math.log10(s) for s in snrs])
    return float(np.polyfit(logb, logs, 1)[0])


def make_report(params, config, anchor_snr, rate_scale):
    """The calibrated sensing summary for one magnetometer setup, as
    {convention: SensingReport} in CONVENTIONS order.

    The thermalized detector is solved once at the upper normal mode and
    once over the spectrum grid; every convention reads those two solves.
    eta is set so that the SNR at the upper normal mode and config.field
    equals anchor_snr; b_min is the field at which that SNR falls to one.
    The SNR spectrum runs over 0.9 to 1.2 omega_m1, refined at omega_m1 and
    the upper normal mode; the log-log slope over field/100 to field*10.
    """
    xi = response_coefficient(config.current, config.probe_size)
    if not anchor_snr > 0:
        raise ParameterError("anchor_snr must be positive")
    field = config.field
    pt = _thermalized(params, config.temperature, rate_scale)
    w_eff = omega_eff(pt.omega_m1, pt.v_coupling)
    noise = s_add(pt, w_eff).s_add
    etas = {"power": math.sqrt(anchor_snr * noise) / (xi * field),
            "amplitude": anchor_snr * math.sqrt(noise) / (xi * field)}
    b_lo, b_hi = field / 100.0, field * 10.0
    if not 0 < b_lo < b_hi < math.inf:
        raise ParameterError("field/100 to field*10 is not finite and "
                             "positive")
    b_values = tuple(np.geomspace(b_lo, b_hi, 7))
    spec = spectrum_sweep(pt, frequency_grid(
        [pt.omega_m1, w_eff], pt.gamma1,
        (0.9 * pt.omega_m1, 1.2 * pt.omega_m1), 101))
    omegas, spec_noise = tuple(spec.omega.tolist()), spec.s_add.tolist()
    reports = {}
    for conv, eta in etas.items():
        xin = eta * xi
        reports[conv] = SensingReport(
            snr_at_omega_eff=snr(noise, xin * field, conv),
            snr_omegas=omegas,
            snr_values=tuple(snr(s, xin * field, conv) for s in spec_noise),
            # SNR = 1 inverts to the same closed form under both
            # conventions; the convention enters through the calibrated eta
            b_min=math.sqrt(noise) / xin,
            slope=_loglog_fit(noise, xin, b_values, conv),
            eta=eta, noise=noise)
    return reports
