"""Frequency-domain noise and sensitivity toolkit for a two-probe
optomechanical detector read out in a single cavity mode.

The model layer carries parameters and linear-response building blocks,
coefficients maps cavity input and thermal forces onto the measured
quadrature, spectra assembles additional-noise spectra, sql compares them
against the standard quantum limit, and sensing converts the result into
magnetometer figures of merit.
"""

__version__ = "0.1.0"

from .errors import (OmdpError, ParameterError, SingularSystemError,
                     StructureViolationError, TransductionAbsentError,
                     UsageError)
from .model import (DetectorParams, chi_cavity, chi_cavity_conj, chi_mech,
                    frequency_grid, occupation_temperature, omega_eff,
                    thermal_occupation)
from .coefficients import (OutputCoefficients, closed_form_coefficients,
                           solve_coefficients)
from .spectra import (AddNoise, SpectrumResult, s_add, s_add_resonant,
                      s_add_som, spectrum_sweep)
from .sql import (GMinAnalytic, GMinNumeric, RMap, SweepResult,
                  default_g_range, fit_shot_backaction,
                  minimize_over_g_analytic, minimize_over_g_numeric, r_factors,
                  r_map, s_min_sweep, som_sql)
from .sensing import (MagnetometerConfig, SensingReport, make_report,
                      response_coefficient, s_r, snr)

__all__ = [
    "__version__",
    "OmdpError", "ParameterError", "SingularSystemError",
    "TransductionAbsentError", "StructureViolationError", "UsageError",
    "DetectorParams", "chi_cavity", "chi_cavity_conj", "chi_mech",
    "frequency_grid", "occupation_temperature", "omega_eff",
    "thermal_occupation",
    "OutputCoefficients", "closed_form_coefficients", "solve_coefficients",
    "AddNoise", "SpectrumResult", "s_add", "s_add_resonant",
    "s_add_som", "spectrum_sweep",
    "GMinAnalytic", "GMinNumeric", "RMap", "SweepResult",
    "default_g_range", "fit_shot_backaction", "minimize_over_g_analytic",
    "minimize_over_g_numeric", "r_factors", "r_map", "s_min_sweep", "som_sql",
    "MagnetometerConfig", "SensingReport", "make_report",
    "response_coefficient", "s_r", "snr",
]
