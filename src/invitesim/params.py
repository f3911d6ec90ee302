"""Model parameters, arrival-rate profiles, and the spectral data of the drift matrix.

The controlled system is linear away from its reflecting boundaries, with drift
matrix A = [[0, -epsilon], [beta, -gamma*beta]] acting on row vectors (y, x).
Everything downstream (fluid solver, diffusion moments, weighted norm) consumes
the SpectralData computed here.

A constant arrival rate has one representation, arrival=None, at params.lam:
the rate of every fluid reference, centring and stationary estimate.  The
profile classes all vary in time; a JSON "constant" arrival reads as None.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class InviteSimError(Exception):
    """Base class for all package errors."""


class NonPositiveRate(InviteSimError):
    pass


class StabilityViolation(InviteSimError):
    pass


class NonIntegerGamma(InviteSimError):
    pass


class RepeatedEigenvalue(InviteSimError):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Static parameters of one system instance.

    lam        base arrival rate per unit of scale (lambda > 0)
    scale_r    system scale; raw arrival rate is lam * scale_r
    beta       acceptance rate per pending invitation
    gamma      feedback gain on queue increments (integer for scheme B)
    epsilon    feedback gain on queue imbalance; stability needs
               0 < epsilon < gamma^2 * beta / 4
    beta_tilde rejection rate per pending invitation (scheme A only, >= 0)
    """

    lam: float
    scale_r: float
    beta: float
    gamma: float
    epsilon: float
    beta_tilde: float = 0.0

    @property
    def raw_arrival_rate(self) -> float:
        return self.lam * self.scale_r

    @property
    def center_x(self) -> float:
        # raw pending-count level the scalings are centered on
        return self.lam * self.scale_r / self.beta

    @property
    def boundary_exit_y(self) -> float:
        # on the floor, the fluid path lifts off once y drops to this level
        return self.gamma * self.lam / self.epsilon


def validate_params(params: ModelParams, scheme: str = "B") -> ModelParams:
    """Check positivity, stability, and scheme-B integrality of gamma.

    Returns the params unchanged on success so calls can be chained.
    """
    for name in ("lam", "scale_r", "beta", "gamma", "epsilon"):
        value = getattr(params, name)
        if not (value > 0.0) or not math.isfinite(value):
            raise NonPositiveRate(f"{name} must be positive and finite, got {value!r}")
    if not params.lam * params.scale_r > 0.0:  # the event loops' arrival rate
        raise NonPositiveRate(f"lam*r underflows to 0: lam={params.lam!r}, r={params.scale_r!r}")
    if params.beta_tilde < 0.0 or not math.isfinite(params.beta_tilde):
        raise NonPositiveRate(f"beta_tilde must be >= 0, got {params.beta_tilde!r}")
    if not (params.epsilon < params.gamma ** 2 * params.beta / 4.0):
        raise StabilityViolation(
            f"need epsilon < gamma^2*beta/4 strictly: "
            f"epsilon={params.epsilon}, bound={params.gamma ** 2 * params.beta / 4.0}")
    if scheme == "B" and not float(params.gamma).is_integer():
        raise NonIntegerGamma(f"scheme B needs integer gamma, got {params.gamma}")
    return params


def _time_grid(horizon: float, dt: float) -> np.ndarray:
    """The output grid k*dt, k = 0, 1, ..., up to horizon; a relative 1e-12
    of slack keeps a horizon that is a multiple of dt on the grid."""
    return np.arange(int(math.floor(horizon / dt * (1.0 + 1e-12))) + 1) * dt


def _grid_stride(dt: float, step: float, error: type[InviteSimError],
                 what: str = "output spacing") -> int:
    """k with dt = k*step to a relative 1e-9: every k-th sample of a grid `step`
    apart is `dt` apart.  Raises `error`, naming `dt` as `what`, when there is
    no such k."""
    k = round(dt / step)
    if k < 1 or abs(k * step - dt) > 1e-9 * dt:
        raise error(f"{what} {dt} is not a multiple of the sample spacing {step}")
    return k


def drift_matrix(params: ModelParams) -> np.ndarray:
    """A with (y, x) as row vectors: y' = beta*x, x' = -eps*y - gamma*beta*x."""
    return np.array([
        [0.0, -params.epsilon],
        [params.beta, -params.gamma * params.beta],
    ])


@dataclass(frozen=True)
class SpectralData:
    """Eigenstructure of the drift matrix.

    nu1 < nu2 are the decay rates (eigenvalues of -A); the left eigen-rows
    v_i = (beta/nu_i, -1) satisfy v_i A = -nu_i v_i.  basis stacks v1, v2 as
    rows; star coordinates of u are u @ basis_inv.
    """

    nu1: float
    nu2: float
    a1: float
    a2: float
    v1: np.ndarray
    v2: np.ndarray
    basis: np.ndarray
    basis_inv: np.ndarray


def spectral_decompose(params: ModelParams) -> SpectralData:
    """Roots of nu^2 - gamma*beta*nu + epsilon*beta = 0 and the eigen-row basis.

    The larger root comes from the quadratic formula; the smaller from the
    product identity nu1*nu2 = epsilon*beta, which avoids cancellation.
    """
    b = params.gamma * params.beta
    c = params.epsilon * params.beta
    disc = b * b - 4.0 * c
    if disc <= 0.0:
        raise RepeatedEigenvalue(
            f"discriminant {disc} <= 0; decay rates not distinct and real")
    nu2 = (b + math.sqrt(disc)) / 2.0
    nu1 = c / nu2
    a1 = params.beta / nu1
    a2 = params.beta / nu2
    v1 = np.array([a1, -1.0])
    v2 = np.array([a2, -1.0])
    basis = np.array([[a1, -1.0], [a2, -1.0]])
    # closed-form 2x2 inverse; det = a2 - a1 < 0 is bounded away from zero
    det = a2 - a1
    basis_inv = np.array([[-1.0 / det, 1.0 / det],
                          [-a2 / det, a1 / det]])
    return SpectralData(nu1=nu1, nu2=nu2, a1=a1, a2=a2, v1=v1, v2=v2,
                        basis=basis, basis_inv=basis_inv)


def star_coords(u: Sequence[float] | np.ndarray, spec: SpectralData) -> np.ndarray:
    """Coefficients (alpha1, alpha2) with u = alpha1*v1 + alpha2*v2."""
    return np.asarray(u, dtype=float) @ spec.basis_inv


def star_norm(u: Sequence[float] | np.ndarray, spec: SpectralData) -> float:
    """Euclidean length of u in the eigen-row basis; Lyapunov norm of the flow."""
    return float(np.linalg.norm(star_coords(u, spec)))


# ---------------------------------------------------------------------------
# arrival-rate profiles
# ---------------------------------------------------------------------------

class ArrivalProfileError(InviteSimError):
    pass


@dataclass(frozen=True)
class SinusoidArrival:
    """lam(t) = base + amplitude * sin(2*pi*t / period); must stay >= 0."""

    base: float
    amplitude: float
    period: float

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ArrivalProfileError(f"period must be > 0, got {self.period!r}")
        if self.base - abs(self.amplitude) < 0.0:
            raise ArrivalProfileError(
                f"sinusoid dips negative: base={self.base}, amplitude={self.amplitude}")

    def __call__(self, t: float) -> float:
        return self.base + self.amplitude * math.sin(2.0 * math.pi * t / self.period)

    def bound(self) -> float:
        return self.base + abs(self.amplitude)

    def jump_times(self, t0: float, t1: float) -> list[float]:
        return []


@dataclass(frozen=True)
class PiecewiseConstantArrival:
    """Right-continuous steps: values[i] on [breakpoints[i-1], breakpoints[i]).

    len(values) == len(breakpoints) + 1; the last value extends to infinity.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bp) + 1:
            raise ArrivalProfileError(
                f"need len(values) == len(breakpoints)+1, got {len(vals)} vs {len(bp)}")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])) or (bp and bp[0] <= 0.0):
            raise ArrivalProfileError("breakpoints must be strictly increasing and > 0")
        if any(v < 0.0 for v in vals):
            raise ArrivalProfileError("piecewise values must be >= 0")

    def __call__(self, t: float) -> float:
        for b, v in zip(self.breakpoints, self.values):
            if t < b:
                return v
        return self.values[-1]

    def bound(self) -> float:
        return max(self.values)

    def jump_times(self, t0: float, t1: float) -> list[float]:
        return [b for b in self.breakpoints if t0 < b < t1]


# every profile varies in time; a constant rate is arrival=None, at params.lam
ArrivalRateFn = SinusoidArrival | PiecewiseConstantArrival


def _closed_form(arrival: ArrivalRateFn) -> type | None:
    """The profile class whose __call__ computes the rate of `arrival`, or
    None for a subclass that overrides __call__: the compiled kernels and
    the fluid solver evaluate only the library's own rate functions."""
    return next((kind for kind in (SinusoidArrival, PiecewiseConstantArrival)
                 if type(arrival).__call__ is kind.__call__), None)


def arrival_from_spec(spec: dict | None, lam: float) -> ArrivalRateFn | None:
    """Build an arrival profile from its JSON dict; None means constant lam.

    A "constant" spec is lam itself: its base, when given, must equal lam.
    """
    if spec is None:
        return None
    kind = spec.get("kind", "constant")
    if kind == "constant":
        base = spec.get("base")
        if base is not None and float(base) != lam:
            raise ArrivalProfileError(f"constant arrival rate {float(base)} differs from lambda "
                                      f"{lam}; set lambda to run at another constant rate")
        return None
    if kind == "sinusoid":
        return SinusoidArrival(base=float(spec["base"]),
                               amplitude=float(spec["amplitude"]),
                               period=float(spec["period"]))
    if kind == "piecewise":
        return PiecewiseConstantArrival(breakpoints=tuple(spec["breakpoints"]),
                                        values=tuple(spec["values"]))
    raise ArrivalProfileError(f"unknown arrival kind {kind!r}")


def arrival_to_spec(arrival: ArrivalRateFn | None) -> dict | None:
    if arrival is None:
        return None
    if isinstance(arrival, SinusoidArrival):
        return {"kind": "sinusoid", "base": arrival.base,
                "amplitude": arrival.amplitude, "period": arrival.period}
    if isinstance(arrival, PiecewiseConstantArrival):
        return {"kind": "piecewise", "breakpoints": list(arrival.breakpoints),
                "values": list(arrival.values)}
    raise ArrivalProfileError(f"cannot serialize {arrival!r}")


def params_from_json(doc: str | dict) -> tuple[ModelParams, ArrivalRateFn | None]:
    """Parse {'lambda', 'r', 'beta', 'beta_tilde', 'gamma', 'epsilon', 'arrival'}."""
    data = json.loads(doc) if isinstance(doc, str) else dict(doc)
    params = ModelParams(
        lam=float(data["lambda"]),
        scale_r=float(data["r"]),
        beta=float(data["beta"]),
        gamma=float(data["gamma"]),
        epsilon=float(data["epsilon"]),
        beta_tilde=float(data.get("beta_tilde", 0.0)),
    )
    return params, arrival_from_spec(data.get("arrival"), params.lam)


def params_to_json(params: ModelParams, arrival: ArrivalRateFn | None = None) -> dict:
    doc = {
        "lambda": params.lam,
        "r": params.scale_r,
        "beta": params.beta,
        "beta_tilde": params.beta_tilde,
        "gamma": params.gamma,
        "epsilon": params.epsilon,
    }
    spec = arrival_to_spec(arrival)
    if spec is not None:
        doc["arrival"] = spec
    return doc
