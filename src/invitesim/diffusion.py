"""Gaussian limit around the balance point: linear SDE with one shared
Brownian motion, its mean/covariance ODEs, and the closed-form stationary
covariance.

The pair (y_hat, x_hat) drifts by the same matrix as the fluid interior and
is kicked by a single Brownian motion entering both components, so the noise
parts of any increment satisfy dx_noise = -gamma * dy_noise exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctmc import RandomStream
from .params import (InviteSimError, ModelParams, drift_matrix, spectral_decompose,
                     validate_params)


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

    def as_array(self) -> np.ndarray:
        return np.array([self.y_hat, self.x_hat])


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


@dataclass(frozen=True)
class SDEPath:
    t: np.ndarray
    y: np.ndarray
    x: np.ndarray
    dt: float
    params: ModelParams
    noise_scale: float

    def eval_on(self, grid) -> np.ndarray:
        grid = np.asarray(grid, dtype=float)
        out = np.empty((grid.size, 2))
        out[:, 0] = np.interp(grid, self.t, self.y)
        out[:, 1] = np.interp(grid, self.t, self.x)
        return out

    def to_csv(self, path, every: int = 1) -> None:
        with open(path, "w") as fh:
            fh.write("t,y_hat,x_hat\n")
            for i in range(0, len(self.t), every):
                fh.write(f"{self.t[i]:.10g},{self.y[i]:.12g},{self.x[i]:.12g}\n")


def simulate_sde(initial, params: ModelParams, horizon: float, stream: RandomStream,
                 dt: float = 1e-3, noise_scale: float = 1.0) -> SDEPath:
    """Euler step for the linear pair; one Gaussian draw drives both
    components, so the x noise is exactly -gamma times the y noise.

    noise_scale rescales the diffusion coefficient only (0 gives the drift
    ODE; used to test the integrator order separately from the noise).
    """
    validate_params(params, scheme="A")
    if dt <= 0.0 or horizon <= 0.0:
        raise DiffusionError("horizon and dt must be > 0")
    y0, x0 = (initial.y_hat, initial.x_hat) if isinstance(initial, DiffusionState) \
        else (float(initial[0]), float(initial[1]))
    beta, gamma, eps = params.beta, params.gamma, params.epsilon
    s1 = -math.sqrt(2.0 * params.lam) * noise_scale
    n = int(round(horizon / dt))
    if abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise DiffusionError(f"horizon {horizon} is not a multiple of dt {dt}")
    gen = stream.generator()
    xi = gen.standard_normal(n) * math.sqrt(dt) if noise_scale != 0.0 else np.zeros(n)
    ys = np.empty(n + 1)
    xs = np.empty(n + 1)
    ys[0], xs[0] = y0, x0
    y, x = y0, x0
    for k in range(n):
        ny = s1 * xi[k]
        nx = -gamma * ny
        y, x = (y + beta * x * dt + ny,
                x + (-eps * y - gamma * beta * x) * dt + nx)
        ys[k + 1] = y
        xs[k + 1] = x
    return SDEPath(t=np.arange(n + 1) * dt, y=ys, x=xs, dt=dt, params=params,
                   noise_scale=noise_scale)


def simulate_sde_ensemble(initial, params: ModelParams, horizon: float,
                          stream: RandomStream, n_paths: int, dt: float = 1e-3,
                          record_times=None, noise_scale: float = 1.0) -> np.ndarray:
    """Vectorized Euler ensemble; returns states of shape (len(record_times),
    n_paths, 2).  Record times must sit on the step grid; default is the
    horizon alone.
    """
    validate_params(params, scheme="A")
    if dt <= 0.0 or horizon <= 0.0 or n_paths <= 0:
        raise DiffusionError("horizon, dt and n_paths must be > 0")
    if record_times is None:
        record_times = [horizon]
    record_steps = []
    n = int(round(horizon / dt))
    for rt in record_times:
        k = int(round(rt / dt))
        if abs(k * dt - rt) > 1e-9 * max(1.0, rt) or not 0 <= k <= n:
            raise DiffusionError(f"record time {rt} not on the step grid")
        record_steps.append(k)
    y0, x0 = (initial.y_hat, initial.x_hat) if isinstance(initial, DiffusionState) \
        else (float(initial[0]), float(initial[1]))
    beta, gamma, eps = params.beta, params.gamma, params.epsilon
    s1 = -math.sqrt(2.0 * params.lam) * noise_scale
    gen = stream.generator()
    y = np.full(n_paths, y0)
    x = np.full(n_paths, x0)
    out = np.empty((len(record_steps), n_paths, 2))
    rec = {k: i for i, k in enumerate(record_steps)}
    if 0 in rec:
        out[rec[0], :, 0] = y
        out[rec[0], :, 1] = x
    sq = math.sqrt(dt)
    for k in range(n):
        ny = (s1 * sq) * gen.standard_normal(n_paths)
        y, x = (y + (beta * dt) * x + ny,
                x - (eps * dt) * y - (gamma * beta * dt) * x - gamma * ny)
        if k + 1 in rec:
            out[rec[k + 1], :, 0] = y
            out[rec[k + 1], :, 1] = x
    return out


@dataclass(frozen=True)
class MomentPath:
    t: np.ndarray
    m: np.ndarray          # (n, 2)
    V: np.ndarray          # (n, 2, 2)
    dt: float
    params: ModelParams

    def at(self, t: float) -> MomentState:
        if t < -1e-12 or t > self.t[-1] * (1 + 1e-12) + 1e-12:
            raise DiffusionError(f"t={t} outside the integrated range")
        m = np.array([np.interp(t, self.t, self.m[:, i]) for i in range(2)])
        V = np.array([[np.interp(t, self.t, self.V[:, i, j]) for j in range(2)]
                      for i in range(2)])
        return MomentState(m=m, V=V)

    @property
    def final(self) -> MomentState:
        return MomentState(m=self.m[-1], V=self.V[-1])

    def to_csv(self, path, every: int = 1) -> None:
        with open(path, "w") as fh:
            fh.write("t,m1,m2,V11,V12,V22\n")
            for i in range(0, len(self.t), every):
                fh.write(f"{self.t[i]:.10g},{self.m[i, 0]:.12g},{self.m[i, 1]:.12g},"
                         f"{self.V[i, 0, 0]:.12g},{self.V[i, 0, 1]:.12g},"
                         f"{self.V[i, 1, 1]:.12g}\n")


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
    n = int(math.floor(horizon / dt * (1 + 1e-12))) + 1
    ts = np.arange(n) * dt
    m = np.empty((n, 2))
    V = np.empty((n, 2, 2))
    # a chunk at a time, so the temporaries stay small next to the outputs
    for a in range(0, n, _CHUNK):
        m[a:a + _CHUNK], V[a:a + _CHUNK] = _moments_at(init, params, ts[a:a + _CHUNK])
    return MomentPath(t=ts, m=m, V=V, dt=dt, params=params)


def gaussian_transient(params: ModelParams, t: float, initial: MomentState) -> MomentState:
    """Mean and covariance of the Gaussian marginal at time t."""
    if t < 0.0:
        raise DiffusionError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return initial
    m, V = _moments_at(initial, params, np.array([float(t)]))
    return MomentState(m=m[0], V=V[0])
