"""Named experiment setups and the JSON config they serialize to.

The fig2* family runs the instant-adjustment scheme at scale 1000 from four
corners of the state space; fig3 runs the replenishment scheme with its pool
target; fig4* drives the system with a sinusoidal arrival rate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .params import (
    ArrivalRateFn,
    InviteSimError,
    ModelParams,
    SinusoidArrival,
    _whole_number,
    params_from_json,
    params_to_json,
    validate_params,
)


class ConfigInvalid(InviteSimError):
    pass


KNOWN_OUTPUTS = ("trajectory", "fluid", "deviation", "stationary", "moments",
                 "sweep")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    scheme: str
    params: ModelParams
    initial: tuple
    horizon: float
    seed: int
    grid_dt: float = 0.05
    arrival: ArrivalRateFn | None = None
    outputs: tuple[str, ...] = ("trajectory",)
    notes: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.scheme not in ("A", "B"):
            raise ConfigInvalid(f"scheme must be 'A' or 'B', got {self.scheme!r}")
        try:
            validate_params(self.params, scheme=self.scheme)
        except InviteSimError as exc:
            raise ConfigInvalid(str(exc)) from exc
        want = 3 if self.scheme == "A" else 2
        if len(self.initial) != want:
            raise ConfigInvalid(
                f"scheme {self.scheme} initial needs {want} entries, "
                f"got {self.initial!r}")
        for name, count in zip(("y", "x"), self.initial):
            _whole_number(count, f"initial {name}", ConfigInvalid)
        if not (0.0 < self.horizon < math.inf and 0.0 < self.grid_dt < math.inf):
            raise ConfigInvalid("horizon and grid_dt must be finite and > 0")
        unknown = set(self.outputs) - set(KNOWN_OUTPUTS)
        if unknown:
            raise ConfigInvalid(f"unknown outputs {sorted(unknown)}")
        object.__setattr__(self, "seed", _whole_number(self.seed, "seed", ConfigInvalid))
        if self.seed < 0:
            raise ConfigInvalid("seed must be a nonnegative integer")
        if self.scheme == "A" and self.arrival is not None:
            raise ConfigInvalid("scheme A runs at the constant rate lambda only; a time-varying "
                                "arrival rate needs scheme B")
        # scale_sweep runs scheme B at lambda against the constant-rate fluid path
        if "sweep" in self.outputs and (self.scheme != "B" or self.arrival is not None):
            raise ConfigInvalid("a sweep runs scheme B at the constant rate lambda only")
        if "stationary" in self.outputs and self.arrival is not None:
            raise ConfigInvalid("steady-state estimation needs a constant arrival rate")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "scheme": self.scheme,
            "model": params_to_json(self.params, self.arrival),
            "initial": list(self.initial),
            "horizon": self.horizon,
            "seed": self.seed,
            "grid_dt": self.grid_dt,
            "outputs": list(self.outputs),
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def config_from_json(doc: str | dict) -> ExperimentConfig:
    try:
        data = json.loads(doc) if isinstance(doc, str) else dict(doc)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    try:
        params, arrival = params_from_json(data["model"])
        return ExperimentConfig(
            name=str(data.get("name", "custom")),
            scheme=str(data["scheme"]),
            params=params,
            arrival=arrival,
            initial=tuple(data["initial"]),
            horizon=float(data["horizon"]),
            seed=data["seed"],
            grid_dt=float(data.get("grid_dt", 0.05)),
            outputs=tuple(data.get("outputs", ("trajectory",))),
            notes=str(data.get("notes", "")),
        )
    except ConfigInvalid:
        raise
    except KeyError as exc:
        raise ConfigInvalid(f"missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, InviteSimError) as exc:
        raise ConfigInvalid(str(exc)) from exc


_BASE = ModelParams(lam=1.0, scale_r=1000.0, beta=1.0, gamma=2.0, epsilon=0.2)
_SINE = SinusoidArrival(base=1.0, amplitude=0.2, period=120.0)

_FIG2_INITIALS = {
    "fig2a": (0, 0),
    "fig2b": (1000, 0),
    "fig2c": (0, 2000),
    "fig2d": (-1000, 2000),
}


def presets() -> dict[str, ExperimentConfig]:
    out: dict[str, ExperimentConfig] = {}
    for i, (name, init) in enumerate(_FIG2_INITIALS.items()):
        out[name] = ExperimentConfig(
            name=name, scheme="B", params=_BASE, initial=init, horizon=50.0,
            seed=1000 + i, outputs=("trajectory", "fluid", "deviation"),
            notes="instant-adjustment run with fluid overlay")
    out["fig3"] = ExperimentConfig(
        name="fig3", scheme="A", params=replace(_BASE, beta_tilde=1.0),
        initial=(0, 0, 1000.0), horizon=50.0, seed=1010,
        outputs=("trajectory", "fluid", "deviation"),
        notes="replenishment scheme; trajectory carries the pool target")
    for j, (name, init) in enumerate((("fig4a", (0, 0)),
                                      ("fig4b", (-1000, 2000)))):
        out[name] = ExperimentConfig(
            name=name, scheme="B", params=_BASE, arrival=_SINE, initial=init,
            horizon=500.0, seed=1020 + j,
            outputs=("trajectory", "fluid", "deviation"),
            notes="sinusoidal arrival rate, uncentered scaling")
    return out


def get_preset(name: str) -> ExperimentConfig:
    table = presets()
    if name not in table:
        known = ", ".join(sorted(table))
        raise ConfigInvalid(f"unknown preset {name!r}; known: {known}")
    return table[name]
