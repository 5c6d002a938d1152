"""Seeded sweep configs for the three benchmark workloads.

Each workload is a 2-D sweep drawn from the benchmark seed.  The draws
stay inside the documented weak-coupling window mean(gamma)/(2 delta)
<= 0.2 at every grid point, and always include a detuned junction
(omega2 != omega1) with unequal couplings (gamma1 != gamma2).  The
program only ever sees the YAML written from these dicts.

The shipped configs are not used: correlations_vs_temperature alone
runs for tens of seconds, and every workload is run many times per
benchmark check.
"""
from __future__ import annotations

import math

import numpy as np
import yaml

# name -> (axis counts at scale "full", at scale "tiny")
_COUNTS = {
    "transport_grid": ((12, 10), (2, 2)),
    "qfi_bias": ((8, 8), (2, 2)),
    "discord_thermal": ((4, 4), (2, 2)),
}
WORKLOADS = tuple(_COUNTS)
SCALES = ("full", "tiny")

# The window mean(gamma) / (2 delta) <= 0.2, as a cap on mean(gamma) / delta.
_WINDOW = 0.4


def _junction(rng: np.random.Generator, delta_min: float) -> dict[str, float]:
    """Detuned sites and unequal couplings, weak against ``delta_min``."""
    omega1 = rng.uniform(0.8, 1.2)
    detuning = rng.choice((-1.0, 1.0)) * rng.uniform(0.005, 0.05)
    gamma_mean = delta_min * _WINDOW * rng.uniform(0.25, 1.0)
    asym = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.6)
    return {
        "omega1": omega1,
        "omega2": omega1 + detuning,
        "gamma1": gamma_mean * (1.0 + asym),
        "gamma2": gamma_mean * (1.0 - asym),
    }


def _axis(name: str, start: float, stop: float, count: int, scale: str = "linear") -> dict:
    return {"name": name, "start": float(start), "stop": float(stop),
            "count": int(count), "scale": scale}


def make_config(workload: str, seed: int, scale: str = "full") -> dict:
    """The sweep config (a YAML-ready dict) for one workload and seed."""
    if workload not in _COUNTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    n1, n2 = _COUNTS[workload][SCALES.index(scale)]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "transport_grid":
        # biased baths: chemical bias of either sign against a hotter bath 2
        delta = float(np.exp(rng.uniform(np.log(0.004), np.log(0.02))))
        system = {**_junction(rng, delta), "delta": delta}
        baths = {"t1": rng.uniform(0.1, 0.3), "mu2": rng.uniform(0.3, 1.0)}
        bias = rng.uniform(0.2, 0.5)
        axes = [_axis("dmu", -bias, bias, n1),
                _axis("dT", rng.uniform(0.02, 0.1), rng.uniform(0.2, 0.5), n2)]
        observables = ["thermo"]
    elif workload == "qfi_bias":
        delta_lo = float(np.exp(rng.uniform(np.log(0.003), np.log(0.006))))
        delta_hi = delta_lo * rng.uniform(4.0, 10.0)
        system = _junction(rng, delta_lo)
        t1 = rng.uniform(0.15, 0.3)
        baths = {"t1": t1, "t2": t1 + rng.uniform(0.0, 0.2), "mu2": rng.uniform(0.3, 0.8)}
        axes = [_axis("dmu", 0.0, rng.uniform(0.5, 1.0), n1),
                _axis("delta", delta_lo, delta_hi, n2, "log")]
        observables = ["qfi", "correlations"]
    else:
        delta = float(np.exp(rng.uniform(np.log(0.005), np.log(0.02))))
        system = {**_junction(rng, delta), "delta": delta}
        baths = {}
        axes = [_axis("T", rng.uniform(0.05, 0.1), rng.uniform(0.5, 0.9), n1, "log"),
                _axis("mu", rng.uniform(0.1, 0.4), rng.uniform(1.1, 1.5), n2)]
        observables = ["correlations", "discord"]
    return {
        "system": {k: float(v) for k, v in system.items()},
        "baths": {k: float(v) for k, v in baths.items()},
        "sweep": {"axes": axes, "observables": observables},
    }


def resolve_point(cfg: dict, coords: tuple[float, ...]) -> dict[str, float]:
    """Every base parameter at one grid point, following the documented
    axis semantics: mu and T set both baths, dT and dmu offset bath 2's
    temperature and bath 1's chemical potential."""
    values = {**cfg["system"], **cfg["baths"]}
    offsets = {}
    for axis, v in zip(cfg["sweep"]["axes"], coords):
        name = axis["name"]
        if name == "mu":
            values["mu1"] = values["mu2"] = v
        elif name == "T":
            values["t1"] = values["t2"] = v
        elif name in ("dT", "dmu"):
            offsets[name] = v
        else:
            values[name] = v
    if "dT" in offsets:
        values["t2"] = values["t1"] + offsets["dT"]
    if "dmu" in offsets:
        values["mu1"] = values["mu2"] + offsets["dmu"]
    return values


def points(cfg: dict) -> int:
    """Number of grid points the sweep evaluates."""
    return math.prod(axis["count"] for axis in cfg["sweep"]["axes"])


def first_point_config(cfg: dict) -> dict:
    """A no-axis config holding the workload's first grid point (every
    axis at its start, linear or log)."""
    values = resolve_point(cfg, tuple(axis["start"] for axis in cfg["sweep"]["axes"]))
    system_keys = ("omega1", "omega2", "delta", "gamma1", "gamma2")
    return {
        "system": {k: values[k] for k in system_keys},
        "baths": {k: values[k] for k in ("t1", "t2", "mu1", "mu2")},
        "sweep": {"observables": list(cfg["sweep"]["observables"])},
    }


def write_config(cfg: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
