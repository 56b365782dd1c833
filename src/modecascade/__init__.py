"""modecascade: spectral simulation and low-mode control of 2D incompressible
flow on the torus.

The package simulates the vorticity form of the 2D Navier-Stokes/Euler
equations truncated to a symmetric ball of Fourier modes, and builds
forcing programs that steer chosen spectral components to prescribed
values while actuating only a small saturating set of modes.  Fast
oscillations on mode pairs stand in, through the quadratic term's
average, for the missing direct drives.
"""

__version__ = "0.1.0"

from .lattice import (Mode, SaturationChain, admissible_pair, ball,
                      find_generating_pair, is_saturating_symmetric,
                      next_level, norm_sq, saturation_chain, symmetrize, wedge)
from .spectral import (SimParams, SpectralState, energy, enstrophy, inner0,
                       nonlinear_term, project, project_complement,
                       random_decaying_state, resize, sobolev_norm,
                       velocity_from_vorticity)
from .forcing import (ChannelMap, Constant, ForcingProgram, Oscillatory,
                      Zero, cascade_packet, chattering_approximation,
                      constant_program, program_from_json, program_to_json,
                      relaxation_distance, zero_program)
from .integrator import (BlowUpError, IntegratorConfig, StepBudgetError,
                         Trajectory, integrate, step)
from .steering import (ConvergenceError, CoverageResult, EndpointReport,
                       Observation, SteeringConfig,
                       averaging_experiment, base_step_program,
                       cascade_program, coverage_check, coverage_grid,
                       near_identity_gap, steer_in_projection, steer_to_target,
                       subspace_setup, synthesize)
