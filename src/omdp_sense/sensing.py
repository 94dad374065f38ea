"""Signal-to-noise, enhancement factor, and magnetometer accuracy.

The response constant xi = I*L lives in A*m while the model runs in
normalized force units, so a single conversion eta (model units per A*m*T)
is calibrated once against a known operating point. Two SNR conventions are
carried side by side, power (signal^2 / S_add) and amplitude
(signal / sqrt(S_add)), and every reported number is labeled with its
convention because the two disagree about absolute accuracy by the square
root of the SNR scale.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import optimize
from .errors import ParameterError
from .model import frequency_grid, omega_eff, thermal_occupation
from .spectra import s_add, s_add_som

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
    conversion: float     # model units per (A*m*T)
    convention: str = "power"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.current, self.probe_size,
                                       self.field, self.temperature,
                                       self.conversion))):
            raise ParameterError("magnetometer parameters must be finite")
        if self.current <= 0:
            raise ParameterError("current must be positive")
        if self.probe_size <= 0:
            raise ParameterError("probe_size must be positive")
        if self.field <= 0:
            raise ParameterError("field must be positive")
        if self.temperature < 0:
            raise ParameterError("temperature must be non-negative")
        if self.conversion <= 0:
            raise ParameterError("conversion must be positive")
        _check_convention(self.convention)


@dataclass(frozen=True)
class SensingReport:
    snr_at_omega_eff: float
    snr_omegas: tuple
    snr_values: tuple
    b_min: float
    slope: float
    convention: str
    eta: float
    params: object


def response_coefficient(current, probe_size):
    """xi = I * L, the surface-current response constant."""
    if current <= 0 or probe_size <= 0:
        raise ParameterError("current and probe_size must be positive")
    return current * probe_size


def _check_convention(convention):
    if convention not in CONVENTIONS:
        raise ParameterError("convention must be power or amplitude")


def snr(params, omega, xi_normalized, b_field, convention="power"):
    """Signal-to-noise of the homodyne output at one frequency.

    ``xi_normalized`` is eta*xi, already in model units per tesla.
    """
    _check_convention(convention)
    noise = s_add(params, omega).s_add
    sig = xi_normalized * b_field
    if convention == "power":
        return sig ** 2 / noise
    return sig / math.sqrt(noise)


def calibrate_conversion(params, xi, anchor, convention="power"):
    """Solve for eta so that snr at the anchor reproduces the anchor target.

    ``anchor`` maps {"b_field", "snr_target", "omega"}.
    """
    _check_convention(convention)
    b = anchor["b_field"]
    target = anchor["snr_target"]
    w = anchor["omega"]
    if target <= 0 or b <= 0 or xi <= 0:
        raise ParameterError("anchor field, target and xi must be positive")
    noise = s_add(params, w).s_add
    if convention == "power":
        return math.sqrt(target * noise) / (xi * b)
    return target * math.sqrt(noise) / (xi * b)


def detection_accuracy(params, xi_normalized, convention="power"):
    """Field strength at which the SNR reaches one at the upper normal mode,
    under either convention."""
    _check_convention(convention)
    if xi_normalized <= 0:
        raise ParameterError("xi_normalized must be positive")
    noise = s_add(params, omega_eff(params.omega_m1, params.v_coupling)).s_add
    # SNR = 1 inverts to the same closed form under both conventions;
    # the convention still matters because it fixes the calibrated xi.
    return math.sqrt(noise) / xi_normalized


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

    def f(w):
        return s_add_som(wm, params.gamma1, params.kappa,
                         abs(params.g_lin), params.nth1, w)

    grid = frequency_grid([wm], params.gamma1, (0.8 * wm, 1.3 * wm), 201)
    _, fx, _ = optimize.scan_then_golden(f, grid)
    return fx


def s_r(params, temperature, rate_scale=DEFAULT_RATE_SCALE):
    """SNR enhancement over the single-oscillator baseline.

    Dual-probe SNR is taken at the upper normal mode; the baseline is the
    best single-oscillator SNR over frequency with the same oscillator-1
    rates, cavity linewidth and coupling. Signal factors cancel, so this is
    the baseline noise floor divided by the dual-probe noise, independent of
    xi, field and calibration.
    """
    pt = _thermalized(params, temperature, rate_scale)
    dual = s_add(pt, omega_eff(pt.omega_m1, pt.v_coupling)).s_add
    return som_noise_floor(pt) / dual


def snr_linearity(params, xi_normalized, b_values, convention="power"):
    """Least-squares slope of log SNR against log B; returns (slope, max residual)."""
    _check_convention(convention)
    if len(b_values) < 3:
        raise ParameterError("need at least 3 field values")
    if any(b <= 0 for b in b_values):
        raise ParameterError("field values must be positive")
    w = omega_eff(params.omega_m1, params.v_coupling)
    logb = np.log10(np.asarray(b_values, dtype=float))
    snrs = [snr(params, w, xi_normalized, b, convention) for b in b_values]
    if not (np.all(np.isfinite(logb))
            and all(0 < s < math.inf for s in snrs)):
        raise ParameterError("log SNR against log B is not finite")
    logs = np.array([math.log10(s) for s in snrs])
    slope, intercept = np.polyfit(logb, logs, 1)
    resid = np.max(np.abs(logs - (slope * logb + intercept)))
    return float(slope), float(resid)


def make_report(params, config, anchor_snr, rate_scale=DEFAULT_RATE_SCALE):
    """Assemble the labeled sensing summary for one magnetometer setup.

    The SNR spectrum runs over 0.9 to 1.2 omega_m1, refined at omega_m1 and
    the upper normal mode; the log-log slope over field/100 to field*10.
    """
    xi = response_coefficient(config.current, config.probe_size)
    pt = _thermalized(params, config.temperature, rate_scale)
    w_eff = omega_eff(pt.omega_m1, pt.v_coupling)
    eta = calibrate_conversion(
        pt, xi, {"b_field": config.field, "snr_target": anchor_snr,
                 "omega": w_eff},
        convention=config.convention)
    xin = eta * xi
    b_values = tuple(np.geomspace(config.field / 100.0, config.field * 10.0, 7))
    omega_grid = frequency_grid([pt.omega_m1, w_eff], pt.gamma1,
                                (0.9 * pt.omega_m1, 1.2 * pt.omega_m1), 101)
    snrs = tuple(snr(pt, w, xin, config.field, config.convention)
                 for w in omega_grid)
    slope, _ = snr_linearity(pt, xin, b_values, config.convention)
    return SensingReport(
        snr_at_omega_eff=snr(pt, w_eff, xin, config.field, config.convention),
        snr_omegas=tuple(float(w) for w in omega_grid),
        snr_values=snrs,
        b_min=detection_accuracy(pt, xin, config.convention),
        slope=slope, convention=config.convention, eta=eta, params=pt)
