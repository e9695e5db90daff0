"""Simulator for single-qubit gates driven by adiabatic Raman transitions.

A three-level Lambda system (two qubit states coupled to one excited
state by a pair of detuned laser pulses) realizes arbitrary single-qubit
rotations when driven adiabatically.  This package quantifies how well:
it calibrates the drive for a target rotation, integrates the exact
dynamics with and without spontaneous emission, and reports worst-case
gate errors, sweep tables and time traces.
"""

from .errors import ConfigurationError, NumericalError
from .lambda_frame import (DEFAULT_BETA, MEV_TO_INV_NS_PHYSICAL,
                           MEV_TO_INV_NS_ROUNDED, AdiabaticEigensystem,
                           DriveConfig, PhysicalUnits, PulseEnvelope,
                           RotationSpec, eigensystem, hamiltonian,
                           rotation_angle, rotation_axis, solve_xmax)
from .lindblad import (DecayConfig, TraceRecord, adiabatic_populations,
                       density_from_state, estimate_spontaneous_error,
                       gate_error_mixed, propagate_master, purity,
                       qubit_state, validate_density)
from .nonadiabatic import (AdiabaticAmplitudes, GateErrorResult,
                           gate_error_pure, integrate_amplitudes,
                           integrate_amplitudes_batch, nonadiabatic_error)
from .sweeps import (FitResult, SweepTable, fit_inverse,
                     fit_linear_through_origin, ratio_grid, records_to_table,
                     sweep_error_vs_chi, sweep_error_vs_delta,
                     sweep_error_vs_gamma, sweep_xmax_vs_chi, trace_run)

__version__ = "0.1.0"

__all__ = [
    "AdiabaticAmplitudes",
    "AdiabaticEigensystem",
    "ConfigurationError",
    "DEFAULT_BETA",
    "DecayConfig",
    "DriveConfig",
    "FitResult",
    "GateErrorResult",
    "MEV_TO_INV_NS_PHYSICAL",
    "MEV_TO_INV_NS_ROUNDED",
    "NumericalError",
    "PhysicalUnits",
    "PulseEnvelope",
    "RotationSpec",
    "SweepTable",
    "TraceRecord",
    "adiabatic_populations",
    "density_from_state",
    "eigensystem",
    "estimate_spontaneous_error",
    "fit_inverse",
    "fit_linear_through_origin",
    "gate_error_mixed",
    "gate_error_pure",
    "hamiltonian",
    "integrate_amplitudes",
    "integrate_amplitudes_batch",
    "nonadiabatic_error",
    "propagate_master",
    "purity",
    "qubit_state",
    "ratio_grid",
    "records_to_table",
    "rotation_angle",
    "rotation_axis",
    "solve_xmax",
    "sweep_error_vs_chi",
    "sweep_error_vs_delta",
    "sweep_error_vs_gamma",
    "sweep_xmax_vs_chi",
    "trace_run",
    "validate_density",
]
