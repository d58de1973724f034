"""Torque, cross sections and spin-up dynamics of light-driven rotating
oscillators."""

from .dynamics import (RigidBodyParams, SpinUpTrajectory, ThermalParams,
                       UnreachableTargetError, centrifugal_burst_frequency,
                       equilibrium_temperature, spin_up_trajectory,
                       time_to_target_by_quadrature)
from .materials import (DrudeEllipsoid, DrudeSphere, from_drude_ellipsoid,
                        from_drude_sphere)
from .medium import (EnsembleExtinction, MediumMember, MediumSpec,
                     ensemble_extinction, gain_coefficient,
                     intensity_profile, propagate_intensity,
                     sustaining_power)
from .response import (SPEED_OF_LIGHT, CrossSectionSet, DipoleSpectrum,
                       DriveField, OscillatorModel, SingularResonanceError,
                       SpectralLine, absorption_cross_section,
                       cross_section_set, extinction_cross_section,
                       induced_dipole_spectrum, mechanical_cross_section,
                       torque)
from .scan import (ScanGrid, ScanRequest, grid_scan, reparse_balance_check,
                   write_grid_csv)

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT", "OscillatorModel", "DriveField", "CrossSectionSet",
    "SpectralLine", "DipoleSpectrum", "SingularResonanceError", "torque",
    "absorption_cross_section", "mechanical_cross_section",
    "extinction_cross_section", "cross_section_set",
    "induced_dipole_spectrum",
    "DrudeSphere", "DrudeEllipsoid",
    "from_drude_sphere", "from_drude_ellipsoid",
    "RigidBodyParams", "ThermalParams", "SpinUpTrajectory",
    "UnreachableTargetError", "spin_up_trajectory",
    "time_to_target_by_quadrature", "equilibrium_temperature",
    "centrifugal_burst_frequency",
    "ScanRequest", "ScanGrid", "grid_scan", "write_grid_csv",
    "reparse_balance_check",
    "MediumMember", "MediumSpec", "EnsembleExtinction",
    "ensemble_extinction", "gain_coefficient", "propagate_intensity",
    "intensity_profile", "sustaining_power",
]
