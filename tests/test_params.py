"""Parameter validation, spectral data, and the weighted norm."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invitesim.params import (
    ModelParams,
    NonIntegerGamma,
    NonPositiveRate,
    PiecewiseConstantArrival,
    ArrivalProfileError,
    RepeatedEigenvalue,
    SinusoidArrival,
    StabilityViolation,
    arrival_from_spec,
    drift_matrix,
    params_from_json,
    params_to_json,
    spectral_decompose,
    star_coords,
    star_norm,
    validate_params,
)

BASE = ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0, epsilon=0.2)


def test_validate_accepts_base_params():
    assert validate_params(BASE) is BASE


def test_validate_rejects_stability_boundary():
    # epsilon == gamma^2*beta/4 must be rejected (strict inequality)
    p = ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0, epsilon=1.0)
    with pytest.raises(StabilityViolation):
        validate_params(p)


def test_validate_rejects_nonpositive_rates():
    with pytest.raises(NonPositiveRate):
        validate_params(ModelParams(lam=1.0, scale_r=1000.0, beta=0.0, gamma=2.0, epsilon=0.2))
    with pytest.raises(NonPositiveRate):
        validate_params(ModelParams(lam=-1.0, scale_r=1000.0, beta=1.0, gamma=2.0, epsilon=0.2))
    with pytest.raises(NonPositiveRate):
        validate_params(ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0,
                                    epsilon=0.2, beta_tilde=-0.5))
    # each positive, but the arrival rate lam*r of the event loops is 0.0
    with pytest.raises(NonPositiveRate):
        validate_params(ModelParams(lam=1e-200, scale_r=1e-200, beta=1.0, gamma=2.0,
                                    epsilon=0.2))


def test_validate_gamma_integrality_scheme_b():
    p = ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.5, epsilon=0.2)
    with pytest.raises(NonIntegerGamma):
        validate_params(p, scheme="B")
    # allowed for scheme A
    assert validate_params(p, scheme="A") is p


def _bisect_root(f, lo, hi, iterations=200):
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_decay_rates_match_bisection_oracle():
    spec = spectral_decompose(BASE)
    # oracle: bracketed bisection on nu^2 - 2 nu + 0.2, vertex at nu = 1
    f = lambda nu: nu * nu - 2.0 * nu + 0.2
    nu1 = _bisect_root(f, 0.0, 1.0)
    nu2 = _bisect_root(f, 2.0, 1.0)
    assert spec.nu1 == pytest.approx(nu1, abs=1e-12)
    assert spec.nu2 == pytest.approx(nu2, abs=1e-12)
    # frozen values from the oracle
    assert spec.nu1 == pytest.approx(0.10557280900008412, abs=1e-9)
    assert spec.nu2 == pytest.approx(1.8944271909999157, abs=1e-9)
    assert spec.a1 == pytest.approx(9.47213595499958, abs=1e-8)
    assert spec.a2 == pytest.approx(0.5278640450004206, abs=1e-9)
    assert 0.0 < spec.nu1 < spec.nu2
    assert spec.a1 > spec.a2 > 0.0


def test_repeated_eigenvalue_rejected():
    # construct disc == 0 without tripping the stability validator first
    p = ModelParams(lam=1.0, scale_r=10.0, beta=1.0, gamma=2.0, epsilon=1.0)
    with pytest.raises(RepeatedEigenvalue):
        spectral_decompose(p)


valid_params = st.builds(
    ModelParams,
    lam=st.floats(0.1, 10.0),
    scale_r=st.floats(1.0, 1e4),
    beta=st.floats(0.05, 10.0),
    gamma=st.floats(0.2, 10.0),
    epsilon=st.floats(1e-3, 1.0),
).filter(lambda p: p.epsilon < 0.999 * p.gamma ** 2 * p.beta / 4.0)


@settings(max_examples=200, deadline=None)
@given(valid_params)
def test_spectral_identities(p):
    spec = spectral_decompose(p)
    scale = p.gamma * p.beta
    assert spec.nu1 + spec.nu2 == pytest.approx(p.gamma * p.beta, rel=1e-12, abs=1e-12 * scale)
    assert spec.nu1 * spec.nu2 == pytest.approx(p.epsilon * p.beta, rel=1e-12)
    a = drift_matrix(p)
    for nu, v in ((spec.nu1, spec.v1), (spec.nu2, spec.v2)):
        resid = v @ a + nu * v
        assert np.linalg.norm(resid) <= 1e-12 * max(1.0, nu * np.linalg.norm(v))
    ident = spec.basis @ spec.basis_inv
    assert np.linalg.norm(ident - np.eye(2)) <= 1e-12 * np.linalg.norm(spec.basis) * np.linalg.norm(spec.basis_inv)


def test_star_coords_frozen_example():
    spec = spectral_decompose(BASE)
    # oracle: direct 2x2 solve of alpha @ basis = u
    expected = np.linalg.solve(spec.basis.T, np.array([0.0, 2.0]))
    got = star_coords((0.0, 2.0), spec)
    assert np.allclose(got, expected, rtol=0, atol=1e-12)
    assert got[0] == pytest.approx(0.11803398874989485, abs=1e-9)
    assert got[1] == pytest.approx(-2.118033988749895, abs=1e-9)


def test_star_coords_eigenvector_units():
    spec = spectral_decompose(BASE)
    assert np.allclose(star_coords(spec.v1, spec), [1.0, 0.0], rtol=0, atol=1e-12)
    assert np.allclose(star_coords(spec.v2, spec), [0.0, 1.0], rtol=0, atol=1e-12)
    assert np.allclose(star_coords((0.0, 0.0), spec), [0.0, 0.0])


def test_star_norm_properties():
    spec = spectral_decompose(BASE)
    assert star_norm((0.0, 0.0), spec) == 0.0
    assert star_norm(spec.v2, spec) == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(7)
    us = rng.normal(scale=5.0, size=(1000, 2))
    vs = rng.normal(scale=5.0, size=(1000, 2))
    for u, v in zip(us, vs):
        nu = star_norm(u, spec)
        assert star_norm(3.0 * u, spec) == pytest.approx(3.0 * nu, rel=1e-10)
        assert star_norm(u + v, spec) <= nu + star_norm(v, spec) + 1e-10
        # reconstruction from coefficients
        al = star_coords(u, spec)
        rebuilt = al[0] * spec.v1 + al[1] * spec.v2
        assert np.allclose(rebuilt, u, rtol=1e-10, atol=1e-10)


def test_params_json_roundtrip():
    doc = {
        "lambda": 1.0, "r": 1000.0, "beta": 1.0, "beta_tilde": 1.0,
        "gamma": 2.0, "epsilon": 0.2,
        "arrival": {"kind": "sinusoid", "base": 1.0, "amplitude": 0.2, "period": 120.0},
    }
    params, arrival = params_from_json(doc)
    assert params.lam == 1.0 and params.scale_r == 1000.0
    assert params.beta_tilde == 1.0
    assert isinstance(arrival, SinusoidArrival)
    assert arrival(30.0) == pytest.approx(1.2)
    back = params_to_json(params, arrival)
    assert back == doc


def test_arrival_profiles_validate_nonnegativity():
    with pytest.raises(ArrivalProfileError):
        SinusoidArrival(base=1.0, amplitude=1.5, period=120.0)
    with pytest.raises(ArrivalProfileError):
        PiecewiseConstantArrival(breakpoints=(1.0,), values=(1.0, -2.0))
    with pytest.raises(ArrivalProfileError):
        PiecewiseConstantArrival(breakpoints=(2.0, 1.0), values=(1.0, 1.0, 1.0))


@pytest.mark.parametrize("profile", [SinusoidArrival, PiecewiseConstantArrival])
def test_arrival_profiles_refuse_subclasses(profile, no_run):
    # the kernels and the fluid solver compute the library's own rates, and
    # thinning trusts bound(): a subclass could change either
    with pytest.raises(TypeError, match=f"{profile.__name__} cannot be subclassed"):
        type("Sub", (profile,), {})


NONFINITE = {
    "base": lambda v: SinusoidArrival(base=v, amplitude=0.2, period=10.0),
    "amplitude": lambda v: SinusoidArrival(base=1.0, amplitude=v, period=10.0),
    "period": lambda v: SinusoidArrival(base=1.0, amplitude=0.2, period=v),
    "breakpoint": lambda v: PiecewiseConstantArrival(breakpoints=(1.0, v), values=(1.0, 2.0, 0.5)),
    "value": lambda v: PiecewiseConstantArrival(breakpoints=(1.0,), values=(1.0, v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(NONFINITE))
def test_arrival_profiles_refuse_nonfinite_parameters(name, value, no_run):
    # an infinite base hung the run; a NaN value stopped arrivals silently
    with pytest.raises(ArrivalProfileError, match="must be finite"):
        NONFINITE[name](value)


def test_arrival_profile_evaluation_and_bounds():
    sin = SinusoidArrival(base=1.0, amplitude=0.2, period=120.0)
    assert sin.bound() == pytest.approx(1.2)
    assert sin(0.0) == pytest.approx(1.0)
    assert sin(90.0) == pytest.approx(0.8)
    pw = PiecewiseConstantArrival(breakpoints=(5.0, 10.0), values=(1.0, 3.0, 2.0))
    assert pw(0.0) == 1.0 and pw(5.0) == 3.0 and pw(9.99) == 3.0 and pw(10.0) == 2.0
    assert pw.bound() == 3.0
    assert pw.jump_times(0.0, 20.0) == [5.0, 10.0]
    assert pw.jump_times(6.0, 9.0) == []
    assert arrival_from_spec(None, 1.0) is None


def test_params_json_constant_arrival_is_lambda():
    # a constant rate is lambda itself: no base, or a base equal to lambda,
    # reads as None; any other base would run off every reference
    doc = params_to_json(BASE)
    for spec in ({"kind": "constant"}, {"kind": "constant", "base": 1.0}, {"base": 1}):
        assert params_from_json({**doc, "arrival": spec}) == (BASE, None)
    with pytest.raises(ArrivalProfileError,
                       match="constant arrival rate 2.0 differs from lambda 1.0"):
        params_from_json({**doc, "arrival": {"kind": "constant", "base": 2.0}})
