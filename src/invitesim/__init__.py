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
    SpectralData,
    ConstantArrival,
    SinusoidArrival,
    PiecewiseConstantArrival,
    arrival_from_spec,
    arrival_to_spec,
    drift_matrix,
    params_from_json,
    params_to_json,
    spectral_decompose,
    star_coords,
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
    diffusion_scale,
    drift_replicates_b,
    fluid_scale,
    reflect_representation,
    simulate_a,
    simulate_b,
    transition_rates_b,
)
from .fluid import (
    FluidState,
    FluidTrajectory,
    TVFluidTrajectory,
    boundary_hit_time,
    drift_check,
    interior_solution,
    solve_fluid,
    solve_fluid_tv,
)
from .diffusion import (
    DiffusionState,
    MomentPath,
    MomentState,
    gaussian_transient,
    lyapunov_residual,
    moment_ode,
    noise_vector,
    simulate_sde_ensemble,
    stationary_covariance,
)
from .stats import (
    DeviationReport,
    StationaryEstimate,
    SweepTable,
    batch_means,
    gaussian_check,
    generator_drift_check,
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
