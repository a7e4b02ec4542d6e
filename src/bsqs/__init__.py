"""Spectral-vertical-FEM simulator for the coupled quasi-static Biot-Stokes
filtration system with Beavers-Joseph-Saffman interface coupling.

Laterally periodic two-box geometry with a flat interface; Fourier modes in
the lateral directions, Taylor-Hood-type elements vertically, implicit Euler
in time.  The full parameter family (inertial, viscoelastic,
storage-degenerate, fully quasi-static) runs through one code path, and the
package includes energy audits, a generator dissipativity certificate,
manufactured-solution verification, and singular-limit sweep experiments.
"""

from .config import (Discretization, PhysicalParams, RunConfig, SourceSpec,
                     parse_config, serialize, validate_params, with_params)
from .integrator import InitialData, Simulator, State, Trajectory, initialize, run

__all__ = [
    "Discretization", "PhysicalParams", "RunConfig", "SourceSpec",
    "parse_config", "serialize", "validate_params", "with_params",
    "InitialData", "Simulator", "State", "Trajectory", "initialize", "run",
]

__version__ = "0.1.0"
