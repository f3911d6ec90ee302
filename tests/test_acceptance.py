"""Acceptance gate: every criterion runs for real and prints its verdict.

Each test executes one pinned-seed suite end to end and asserts it passes.
Three suites measure a stochastic system against deterministic-limit
tolerances that the fluctuation theory says cannot hold at these scales;
they are expected to stay red until the thresholds change, and their tests
fail honestly rather than masking the gap.  The printed lines give the
measured values either way.
"""
from dataclasses import replace

import pytest

from invitesim import acceptance


def _report(result):
    print()
    print(result.line(), f"[{result.wall_clock_s:.1f}s]")
    assert result.passed, result.detail


def test_criterion_generator():
    _report(acceptance.criterion_generator())


def test_criterion_fluid_convergence():
    _report(acceptance.criterion_fluid_convergence())


def test_criterion_fluid_model():
    _report(acceptance.criterion_fluid_model())


def test_fluid_model_reference_catches_a_wrong_solver(monkeypatch):
    # a solver whose rate is off lambda by a relative 1e-5 puts the floor and
    # the lift-off level off by about as much; the exact reference sees it
    solve = acceptance.solve_fluid
    monkeypatch.setattr(acceptance, "solve_fluid", lambda initial, params, horizon: solve(
        initial, replace(params, lam=params.lam * (1 + 1e-5)), horizon))
    result = acceptance.criterion_fluid_model(n_states=10)
    assert not result.passed
    assert result.measured["max_sup_vs_reference"] > result.thresholds["max_sup_vs_reference"]


def test_criterion_stationary_mean():
    _report(acceptance.criterion_stationary_mean())


def test_criterion_diffusion_stationary():
    _report(acceptance.criterion_diffusion_stationary())


def test_criterion_closed_form():
    _report(acceptance.criterion_closed_form())


def test_criterion_sde_ode():
    _report(acceptance.criterion_sde_ode())


def test_criterion_scheme_a():
    _report(acceptance.criterion_scheme_a())


def test_criterion_time_varying():
    _report(acceptance.criterion_time_varying())


def test_criterion_reflection():
    _report(acceptance.criterion_reflection())


def test_runner_rejects_unknown_suite():
    with pytest.raises(KeyError, match="unknown acceptance suite"):
        acceptance.run_suites(["nope"])
