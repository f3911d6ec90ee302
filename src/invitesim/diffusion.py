"""Gaussian limit around the balance point: linear SDE with one shared
Brownian motion, its mean/covariance ODEs, and the closed-form stationary
covariance.

The pair (y_hat, x_hat) drifts by the same matrix as the fluid interior and
is kicked by a single Brownian motion entering both components, so the noise
parts of any increment satisfy dx_noise = -gamma * dy_noise exactly.  The
SDE is an Ornstein-Uhlenbeck process: its transition over any interval is
Gaussian with a closed-form mean and covariance, which moment_ode evaluates
on a grid and simulate_sde_ensemble samples exactly between record times
(Gillespie 1996).  No integrator runs here; the Euler ensemble that checks
these closed forms lives with the sde-ode acceptance suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import write_columns
from .ctmc import RandomStream
from .params import (InviteSimError, ModelParams, _grid_stride, _time_grid,
                     drift_matrix, spectral_decompose, validate_params)


# grid points evaluated at once by moment_ode
_CHUNK = 16384


class DiffusionError(InviteSimError):
    pass


class NonSymmetricV0(DiffusionError):
    pass


def noise_vector(params: ModelParams) -> np.ndarray:
    """Row vector multiplying the shared Brownian motion."""
    s = math.sqrt(2.0 * params.lam)
    return np.array([-s, params.gamma * s])


def stationary_covariance(params: ModelParams) -> np.ndarray:
    lam, beta, gamma, eps = params.lam, params.beta, params.gamma, params.epsilon
    return np.array([
        [lam / (beta * gamma), -lam / beta],
        [-lam / beta, lam * (beta * gamma ** 2 + eps) / (beta ** 2 * gamma)],
    ])


def lyapunov_residual(V, params: ModelParams) -> float:
    """Frobenius norm of V A + A^T V + sigma^T sigma; zero at stationarity."""
    V = np.asarray(V, dtype=float)
    if V.shape != (2, 2) or abs(V[0, 1] - V[1, 0]) > 1e-12 * (1 + abs(V[0, 1])):
        raise NonSymmetricV0(f"need a symmetric 2x2 matrix, got {V!r}")
    A = drift_matrix(params)
    sig = noise_vector(params)
    return float(np.linalg.norm(V @ A + A.T @ V + np.outer(sig, sig)))


@dataclass(frozen=True)
class DiffusionState:
    y_hat: float
    x_hat: float


@dataclass(frozen=True)
class MomentState:
    """Mean vector and symmetric PSD covariance of the Gaussian marginal."""

    m: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float).reshape(2)
        V = np.asarray(self.V, dtype=float).reshape(2, 2)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "V", V)
        scale = 1.0 + float(np.max(np.abs(V)))
        if abs(V[0, 1] - V[1, 0]) > 1e-12 * scale:
            raise NonSymmetricV0(f"covariance not symmetric: {V!r}")
        if np.linalg.eigvalsh(V).min() < -1e-10 * scale:
            raise NonSymmetricV0(f"covariance not positive semidefinite: {V!r}")


def _transition(params: ModelParams, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact transition of the linear SDE over elapsed time s: from u the
    state moves to u E + N(0, Sigma), with E = e^{As} and Sigma the
    covariance reached from V0 = 0 (Van Loan 1978).

    With the eigen-rows v_i (v_i A = -nu_i v_i) stacked in W,
    E = W^{-1} diag(e^{-nu s}) W and
    Sigma = sum_ij C_ij (1 - e^{-(nu_i + nu_j) s}) v_i^T v_j with
    C = W^{-T} V_inf W^{-1}, the form of _moments_at from V0 = 0.  expm1
    keeps Sigma accurate for s small next to 1/nu_2, where
    V_inf - E^T V_inf E would cancel to rounding noise.
    """
    spec = spectral_decompose(params)
    w, w_inv = spec.basis, spec.basis_inv
    nu = np.array([spec.nu1, spec.nu2])
    c_inf = w_inv.T @ stationary_covariance(params) @ w_inv
    E = (w_inv * np.exp(-nu * s)) @ w
    sigma = w.T @ (c_inf * -np.expm1(-np.add.outer(nu, nu) * s)) @ w
    sigma[1, 0] = sigma[0, 1]  # exact symmetry
    return E, sigma


def _record_steps(record_times, horizon: float, dt: float) -> tuple[list[int], int]:
    """Steps k, one per record time k*dt (default: the horizon alone), and the
    number of steps to the horizon; raises for a horizon that is not a whole
    number of steps or a time off that step grid."""
    if record_times is None:
        record_times = [horizon]
    n = _grid_stride(horizon, dt, DiffusionError, what="horizon")
    steps = []
    for rt in record_times:
        k = int(round(rt / dt))
        if abs(k * dt - rt) > 1e-9 * max(1.0, rt) or not 0 <= k <= n:
            raise DiffusionError(f"record time {rt} not on the step grid")
        steps.append(k)
    return steps, n


def simulate_sde_ensemble(initial, params: ModelParams, horizon: float,
                          stream: RandomStream, n_paths: int, dt: float = 1e-3,
                          record_times=None) -> np.ndarray:
    """Independent paths of the linear SDE sampled exactly at the record
    times; returns states of shape (len(record_times), n_paths, 2).

    Between consecutive distinct record times the paths take the exact
    Gaussian transition (see _transition): one (n_paths, 2) normal draw per
    interval, with the square root of the covariance from eigh, clamped at
    0 since the noise is rank 1 to first order in the interval.  dt only
    defines the grid 0, dt, ..., horizon that the record times (default:
    the horizon alone) must sit on.  Repeated record times get equal states.
    """
    validate_params(params, scheme="A")
    if dt <= 0.0 or horizon <= 0.0 or n_paths <= 0:
        raise DiffusionError("horizon, dt and n_paths must be > 0")
    record_steps, _ = _record_steps(record_times, horizon, dt)
    steps, order = np.unique(record_steps, return_inverse=True)
    y0, x0 = (initial.y_hat, initial.x_hat) if isinstance(initial, DiffusionState) \
        else (float(initial[0]), float(initial[1]))
    gen = stream.generator()
    state = np.full((n_paths, 2), (y0, x0))
    out = np.empty((len(record_steps), n_paths, 2))
    prev = 0
    for i, k in enumerate(steps):
        if k > prev:
            E, sigma = _transition(params, (k - prev) * dt)
            ev, q = np.linalg.eigh(sigma)
            root = q * np.sqrt(np.maximum(ev, 0.0))
            state = state @ E
            state += gen.standard_normal((n_paths, 2)) @ root.T
            prev = k
        out[order == i] = state
    return out


@dataclass(frozen=True)
class MomentPath:
    t: np.ndarray
    m: np.ndarray          # (n, 2)
    V: np.ndarray          # (n, 2, 2)
    dt: float
    params: ModelParams

    def at(self, t: float) -> MomentState:
        """The exact moments at any t of the path, on its grid or between."""
        if t < -1e-12 or t > self.t[-1] * (1 + 1e-12) + 1e-12:
            raise DiffusionError(f"t={t} outside the path [0, {self.t[-1]}]")
        # row 0 is the initial state exactly
        m, V = _moments_at(MomentState(self.m[0], self.V[0]), self.params,
                           np.array([float(t)]))
        return MomentState(m=m[0], V=V[0])

    @property
    def final(self) -> MomentState:
        return MomentState(m=self.m[-1], V=self.V[-1])

    def to_csv(self, path, dt: float = 0.05) -> None:
        """moments.csv every dt, a whole multiple of the path's sample spacing."""
        rows = slice(None, None, _grid_stride(dt, self.dt, DiffusionError))
        m, V = self.m[rows], self.V[rows]
        write_columns(path, "t,m1,m2,V11,V12,V22", "{:.10g}" + ",{:.12g}" * 5,
                      [self.t[rows], m[:, 0], m[:, 1], V[:, 0, 0], V[:, 0, 1], V[:, 1, 1]])


def _moments_at(init: MomentState, params: ModelParams,
                ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean (n, 2) and covariance (n, 2, 2) at times ts (Van Loan 1978).

    With the eigen-rows v_i (v_i A = -nu_i v_i) stacked in W:
    m(t) = sum_i alpha_i e^{-nu_i t} v_i with alpha = m0 W^{-1}, and
    V(t) = V_inf + sum_ij C_ij e^{-(nu_i + nu_j) t} v_i^T v_j with
    C = W^{-T} (V0 - V_inf) W^{-1}.  At t = 0 the result is (m0, V0) exactly.
    """
    validate_params(params, scheme="A")
    spec = spectral_decompose(params)
    w, w_inv = spec.basis, spec.basis_inv
    nu = np.array([spec.nu1, spec.nu2])
    v_inf = stationary_covariance(params)
    # V0 is read through its upper triangle, so an asymmetry within
    # MomentState's tolerance does not reach the path
    v0 = np.array([[init.V[0, 0], init.V[0, 1]], [init.V[0, 1], init.V[1, 1]]])
    decay = np.exp(-np.outer(ts, nu))                           # (n, 2)
    m = (decay * (init.m @ w_inv)) @ w
    c = w_inv.T @ (v0 - v_inf) @ w_inv
    modes = (decay[:, :, None] * decay[:, None, :] * c).reshape(-1, 4)
    # kron(W, W) maps each flattened C_ij e^{-(nu_i + nu_j) t} onto v_i^T v_j
    V = v_inf + (modes @ np.kron(w, w)).reshape(-1, 2, 2)
    V[:, 1, 0] = V[:, 0, 1]  # exact symmetry
    at0 = ts == 0.0
    m[at0], V[at0] = init.m, v0
    return m, V


def moment_ode(m0, V0, params: ModelParams, horizon: float,
               dt: float = 1e-3) -> MomentPath:
    """Mean and covariance of the Gaussian marginal on the grid 0, dt, 2 dt, ...

    Solves m' = mA and V' = VA + A^T V + S exactly in the eigenbasis of A
    (see _moments_at); dt is the output grid spacing only.  The covariance
    is symmetric entry for entry.
    """
    if dt <= 0.0 or horizon <= 0.0:
        raise DiffusionError("horizon and dt must be > 0")
    init = MomentState(m=np.asarray(m0, dtype=float),
                       V=np.asarray(V0, dtype=float))  # validates shape/symmetry
    ts = _time_grid(horizon, dt)
    n = len(ts)
    m = np.empty((n, 2))
    V = np.empty((n, 2, 2))
    # a chunk at a time, so the temporaries stay small next to the outputs
    for a in range(0, n, _CHUNK):
        m[a:a + _CHUNK], V[a:a + _CHUNK] = _moments_at(init, params, ts[a:a + _CHUNK])
    return MomentPath(t=ts, m=m, V=V, dt=dt, params=params)
