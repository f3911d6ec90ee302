"""The benchmark's correctness checks are live: each passes on the outputs
of a real round and fails when one result is perturbed.

    python3 -m pytest bench/test_checks.py -q

Runs one round of every workload part (about 45 s).
"""
from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402
from workloads import PARTS  # noqa: E402

SEED = 7
_rounds: dict = {}


@pytest.fixture(scope="module")
def mods():
    return bench.import_program()


def real_round(mods, tmp_path_factory, name):
    if name not in _rounds:
        w = PARTS[name](mods, tmp_path_factory.mktemp(name))
        w.setup(SEED)
        raw = w.round()
        _rounds[name] = (w, raw, w.collect(raw))
    return _rounds[name]


def _scale_cov(sample, factor):
    mean = sample.mean(axis=0)
    return mean + (sample - mean) * np.sqrt(factor)


PERTURBATIONS = {
    "stationary": {
        "covariance x1.2": (lambda o: o["b_stat"].update(
            cov=(np.asarray(o["b_stat"]["cov"]) * 1.2).tolist()), "closed form"),
        "mean shifted": (lambda o: o["b_stat"].update(
            mean=(np.asarray(o["b_stat"]["mean"]) + 0.5).tolist()), "outside its CI"),
        "events 5% short": (lambda o: o.update(b_events=int(o["b_events"] * 0.95)),
                            "event rate"),
        "negative X": (lambda o: o["b_traj"].__setitem__((100, 2), -1), "negative"),
        "pool below target": (lambda o: o["a_traj"].__setitem__(
            (50, 2), o["a_traj"][50, 3] - 1), "below target"),
    },
    "time-varying": {
        "fluid path shifted by 1e-3": (lambda o: o["fig4a"]["fluid"].__setitem__(
            (slice(None), 2), o["fig4a"]["fluid"][:, 2] + 1e-3), "solve_fluid_tv differs"),
        "sup deviation +0.2": (lambda o: o["fig4b"]["deviation"].update(
            sup=o["fig4b"]["deviation"]["sup"] + 0.2), "fluctuation bound"),
        "trajectory shifted": (lambda o: o["fig4a"]["traj"].__setitem__(
            (slice(None), 1), o["fig4a"]["traj"][:, 1] + 100), "against the reference"),
    },
    "limit-checks": {
        "replay off by one": (lambda o: o["logged"][0]["replayed"].__setitem__(
            len(o["logged"][0]["replayed"]) // 2,
            o["logged"][0]["replayed"][len(o["logged"][0]["replayed"]) // 2] + 1),
            "replayed X differs"),
        "drift mean off by 10 se": (lambda o: o["drift"].__setitem__(
            3, (o["drift"][3][0], o["drift"][3][1] + 10 * o["drift"][3][2], o["drift"][3][2])),
            "drift |z|"),
        "SDE covariance x1.2": (lambda o: o["sde"].update(
            states=np.stack([_scale_cov(s, 1.2) for s in o["sde"]["states"]])), "SDE cov"),
        "moment_ode covariance x1.2": (lambda o: o["moments"].update(
            V=o["moments"]["V"] * 1.2), "moment_ode at t"),
        "fluid path shifted by 1e-3": (lambda o: o["fluid"].__setitem__(
            0, (o["fluid"][0][0], o["fluid"][0][1] + 1e-3, o["fluid"][0][2])),
            "solve_fluid from"),
    },
    "sweep-2w": {
        "flat deviation": (lambda o: o.__setitem__((2, 1), o[0, 1]), "does not decrease"),
        "slope -0.2": (lambda o: o.__setitem__(
            (slice(None), 1), o[:, 1] * (o[:, 0] / 100.0) ** 0.3), "slope"),
    },
}


@pytest.mark.parametrize("name", list(PARTS))
def test_checks_pass_on_real_outputs(mods, tmp_path_factory, name):
    w, _, out = real_round(mods, tmp_path_factory, name)
    assert w.check(out) == []


@pytest.mark.parametrize("name,label", [(n, label) for n, table in PERTURBATIONS.items()
                                        for label in table])
def test_checks_fail_on_perturbed_outputs(mods, tmp_path_factory, name, label):
    w, _, out = real_round(mods, tmp_path_factory, name)
    bad = copy.deepcopy(out)
    perturb, expect = PERTURBATIONS[name][label]
    perturb(bad)
    fails = w.check(bad)
    assert any(expect in msg for msg in fails), fails


@pytest.mark.parametrize("name", ["stationary", "sweep-2w"])
def test_digest_sees_a_changed_byte(mods, tmp_path_factory, name):
    w, raw, _ = real_round(mods, tmp_path_factory, name)
    before = w.digest(raw)
    path = Path(raw["files"][0])
    data = bytearray(path.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
    path.write_bytes(bytes(data))
    assert w.digest(raw) != before

