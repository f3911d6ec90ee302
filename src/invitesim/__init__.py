"""Simulation and scaling-limit analytics for feedback-controlled
on-demand invitation systems.

The package models a service pool where invitations to outside experts are
issued and withdrawn by a feedback rule driven by the queue imbalance.  It
provides exact event-level simulation of the two control schemes, the
piecewise-linear fluid limit with its reflecting floor, the Gaussian
fluctuation (diffusion) layer, steady-state estimation utilities, and a
reproducible experiment runner.
"""

__version__ = "0.1.0"

from .params import (
    ArrivalProfileError,
    InviteSimError,
    ModelParams,
    NonIntegerGamma,
    NonPositiveRate,
    StabilityViolation,
    SinusoidArrival,
    PiecewiseConstantArrival,
    drift_matrix,
    spectral_decompose,
    star_norm,
    validate_params,
)
from .ctmc import (
    EventLog,
    GridSpec,
    RandomStream,
    ScaledTrajectory,
    SimulationError,
    SystemState,
    Trajectory,
    drift_replicates_b,
    fluid_scale,
    reflect_representation,
    simulate_a,
    simulate_b,
)
from .fluid import (
    FluidState,
    FluidTrajectory,
    drift_check,
    solve_fluid,
    solve_fluid_tv,
)
from .diffusion import (
    DiffusionState,
    MomentPath,
    MomentState,
    lyapunov_residual,
    moment_ode,
    simulate_sde_ensemble,
    stationary_covariance,
)
from .stats import (
    DeviationReport,
    StationaryEstimate,
    SweepTable,
    batch_means,
    fluid_reference,
    gaussian_check,
    scale_sweep,
    stationary_moments,
    sup_deviation,
)
from .presets import (
    ConfigInvalid,
    ExperimentConfig,
    config_from_json,
    get_preset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
